import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matcoh.linalg
from matcoh.coherence import basis_coherence
from matcoh.kernels import KernelSpec, PointDataset, build_kernel, spectrum_energy_rank
from matcoh.linalg import (
    as_dense,
    left_svd,
    numerical_rank,
    projector,
    pseudoinverse,
    rank_threshold,
    spsd_pinv_factor,
    thin_svd,
)
from matcoh.synthetic import adversarial_spsd


def test_as_dense_rejects_bad_input():
    with pytest.raises(ValueError):
        as_dense(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        as_dense(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        as_dense(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_dense(np.zeros((2, 2, 2)))


def test_as_dense_column_major_and_vector():
    m = as_dense([[1, 2], [3, 4]])
    assert m.flags.f_contiguous
    v = as_dense([1.0, 2.0, 3.0])
    assert v.shape == (3, 1)


def test_thin_svd_identity():
    f = thin_svd(np.eye(3))
    np.testing.assert_allclose(f.singular_values, [1.0, 1.0, 1.0])
    assert f.numerical_rank == 3


def test_thin_svd_all_ones():
    f = thin_svd(np.ones((2, 2)))
    np.testing.assert_allclose(f.singular_values, [2.0, 0.0], atol=1e-15)
    assert f.numerical_rank == 1


def test_thin_svd_reconstructs():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 5))
    f = thin_svd(X)
    rebuilt = (f.U * f.singular_values) @ f.V.T
    assert np.max(np.abs(rebuilt - X)) < 1e-12


@pytest.mark.parametrize("shape", [(6, 6), (9, 4), (4, 9), (20, 12)])
def test_reconstruction_invariant(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    X = rng.standard_normal(shape)
    f = thin_svd(X)
    err = np.linalg.norm((f.U * f.singular_values) @ f.V.T - X)
    assert err / max(1.0, np.linalg.norm(X)) <= 1e-10


def test_thin_svd_factor_orthonormality():
    rng = np.random.default_rng(3)
    f = thin_svd(rng.standard_normal((10, 7)))
    q = f.U.shape[1]
    assert q == 7  # thin: q = min(n, m)
    assert f.V.shape == (7, 7)
    assert np.max(np.abs(f.U.T @ f.U - np.eye(q))) <= 1e-10
    assert np.max(np.abs(f.V.T @ f.V - np.eye(q))) <= 1e-10


def test_pseudoinverse_diagonal():
    np.testing.assert_allclose(
        pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-15
    )
    np.testing.assert_allclose(pseudoinverse(np.eye(4)), np.eye(4), atol=1e-14)


def test_pseudoinverse_left_inverse_full_rank():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((6, 3))
    np.testing.assert_allclose(pseudoinverse(X) @ X, np.eye(3), atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_penrose_conditions(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((20, 12))
    P = pseudoinverse(X)
    assert np.linalg.norm(X @ P @ X - X) <= 1e-8 * np.linalg.norm(X)
    assert np.linalg.norm(P @ X @ P - P) <= 1e-8 * np.linalg.norm(P)


def test_pseudoinverse_rank_deficient():
    # duplicated column: the small singular value must be zeroed, not inverted
    rng = np.random.default_rng(2)
    col = rng.standard_normal((5, 1))
    X = np.hstack([col, col, rng.standard_normal((5, 1))])
    P = pseudoinverse(X)
    assert np.linalg.norm(X @ P @ X - X) <= 1e-8 * np.linalg.norm(X)
    assert np.max(np.abs(P)) < 1e3


def test_spsd_pinv_factor_cuts_by_magnitude_and_keeps_signs():
    # A kept eigenvalue is inverted with its sign, one at or below the
    # threshold max(n, m) * max|lambda| * eps is dropped.
    U, d = spsd_pinv_factor(np.diag([2.0, -0.25, 1e-17, 0.0]))
    np.testing.assert_array_equal(d, [0.5, -4.0])
    np.testing.assert_array_equal(np.abs(U), np.eye(4)[:, :2])
    U, d = spsd_pinv_factor(np.zeros((3, 3)))
    assert U.shape == (3, 0) and d.shape == (0,)


@pytest.mark.parametrize("rank", [1, 3, 6])
def test_spsd_pinv_factor_matches_the_svd_pseudoinverse(rank):
    G = np.random.default_rng(rank).standard_normal((6, rank))
    K = G @ G.T
    U, d = spsd_pinv_factor(K)
    assert U.shape == (6, rank)
    np.testing.assert_allclose((U * d) @ U.T, pseudoinverse(K),
                               atol=1e-8 * np.max(np.abs(pseudoinverse(K))))


def test_projector_basis_vector():
    np.testing.assert_allclose(
        projector(np.array([[1.0], [0.0], [0.0]])), np.diag([1.0, 0.0, 0.0])
    )


def test_projector_forced_symmetry():
    u = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(projector(u), np.full((2, 2), 0.5), atol=1e-15)


def test_projector_idempotent():
    rng = np.random.default_rng(4)
    Q = np.linalg.qr(rng.standard_normal((10, 4)))[0]
    P = projector(Q)
    assert np.max(np.abs(P @ P - P)) <= 1e-12
    assert np.max(np.abs(P - P.T)) <= 1e-12
    assert abs(np.trace(P) - 4.0) <= 1e-10


def test_projector_of_empty_basis_is_zero():
    P = projector(np.zeros((4, 0)))
    assert P.shape == (4, 4) and P.dtype == np.float64 and not P.any()


def test_projector_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        projector(np.ones((4, 2)))


def test_numerical_rank_examples():
    assert numerical_rank([3.0, 2.0, 1e-16], shape=(3, 3)) == 2
    assert numerical_rank([0.0, 0.0, 0.0], shape=(3, 3)) == 0


def test_numerical_rank_basis_aligned_matrix():
    X = np.zeros((6, 6))
    X[[0, 1, 2], [0, 1, 2]] = 1.0
    assert thin_svd(X).numerical_rank == 3


@given(
    sv=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20),
    t1=st.floats(min_value=0.0, max_value=1e6),
    t2=st.floats(min_value=0.0, max_value=1e6),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_numerical_rank_monotone_in_threshold(sv, t1, t2):
    sv = sorted(sv, reverse=True)
    lo, hi = sorted([t1, t2])
    assert numerical_rank(sv, threshold=lo) >= numerical_rank(sv, threshold=hi)


def test_rank_threshold_zero_spectrum_floor():
    assert rank_threshold([0.0, 0.0], (2, 2)) == 1e-12


def test_decomposition_failure_is_wrapped(monkeypatch):
    from matcoh.linalg import DecompositionError

    def exploding_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", exploding_svd)
    monkeypatch.setattr(np.linalg, "eigh", exploding_svd)
    with pytest.raises(DecompositionError):
        thin_svd(np.ones((3, 3)))
    with pytest.raises(DecompositionError):
        pseudoinverse(np.ones((3, 3)))
    with pytest.raises(DecompositionError):
        spsd_pinv_factor(np.ones((3, 3)))
    for X, spsd in ((np.ones((3, 3)), True), (np.ones((2, 5)), False),
                    (np.ones((5, 2)), False)):
        with pytest.raises(DecompositionError):
            left_svd(X, spsd=spsd)


_TRUTH_KINDS = ("wide", "tall", "square", "duplicates", "zero", "linear",
                "rbf", "polynomial", "adversarial")


@st.composite
def _truth_cases(draw):
    """(X, spsd): general matrices of every shape, and the SPSD kernels
    and adversarial matrices the experiment declares SPSD."""
    kind = draw(st.sampled_from(_TRUTH_KINDS))
    n = draw(st.integers(2, 30))
    m = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("wide", "tall", "square"):
        n, m = {"wide": (min(n, m), max(n, m) + 1),
                "tall": (max(n, m) + 1, min(n, m)), "square": (n, n)}[kind]
        ratio = draw(st.floats(0.05, 1.0))
        return rng.standard_normal((n, m)) * ratio ** np.arange(m), False
    if kind == "duplicates":
        base = rng.standard_normal((n, draw(st.integers(1, m))))
        return base[:, rng.integers(0, base.shape[1], m)], False
    if kind == "zero":
        spsd = draw(st.booleans())
        return np.zeros((n, n if spsd else m)), spsd
    if kind == "adversarial":
        return adversarial_spsd(n, seed=draw(st.integers(0, 1000)),
                                inner_dim=draw(st.integers(1, 3))), True
    d = draw(st.integers(1, n)) if kind == "linear" else draw(st.integers(1, 4))
    points = rng.standard_normal((n, d))
    if draw(st.booleans()):  # repeated points give duplicate columns
        points = points[rng.integers(0, n, n)]
    if kind == "linear":
        spec = KernelSpec(kind="linear")
    elif kind == "rbf":
        spec = KernelSpec(kind="rbf", rbf_width=draw(st.floats(0.3, 3.0)))
    else:
        spec = KernelSpec(kind="polynomial", poly_degree=draw(st.integers(1, 3)),
                          poly_offset=draw(st.floats(0.0, 2.0)))
    return build_kernel(PointDataset(points=points, name=kind), spec), True


def _truth(f, policy):
    """(rank parameter, gamma_true) of a factorization under a rank policy,
    as the experiment takes them."""
    kind, value = policy
    r = value
    if kind == "energy":
        r = spectrum_energy_rank(f.singular_values, value)
    return r, basis_coherence(f.left_basis(r)).gamma


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_truth_cases(),
       st.one_of(st.just(("none", None)),
                 st.tuples(st.just("explicit"), st.integers(1, 32)),
                 st.tuples(st.just("energy"), st.floats(0.5, 1.0))))
def test_left_svd_differential_against_thin_svd(case, policy):
    X, spsd = case
    want, got = thin_svd(X), left_svd(X, spsd=spsd)
    assert got.V is None or (not spsd and X.shape[0] >= X.shape[1])
    s = want.singular_values
    assert got.singular_values.shape == s.shape
    np.testing.assert_allclose(got.singular_values, s, rtol=0,
                               atol=1e-12 * max(s[0], 1.0))
    r_want, gamma_want = _truth(want, policy)
    r_got, gamma_got = _truth(got, policy)
    if s[0] == 0.0:
        assert (got.numerical_rank, r_got, gamma_got) == (0, r_want, 0.0)
        return

    def resolved(q):
        # The q kept values are separated from the dropped ones.
        return q == 0 or (s[q - 1] - (s[q] if q < s.size else 0.0)) / s[0] >= 1e-6

    if resolved(want.numerical_rank):
        assert got.numerical_rank == want.numerical_rank
    q = want.left_basis(r_want).shape[1]
    if resolved(q):
        assert r_got == r_want
        assert got.left_basis(r_got).shape[1] == q
        assert abs(gamma_got - gamma_want) <= 1e-10


@pytest.mark.parametrize("shape", [(7, 4), (5, 5)])
def test_left_svd_checks_a_tall_matrix_once(monkeypatch, shape):
    checked = []
    real = matcoh.linalg.as_dense

    def counting(a):
        checked.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(matcoh.linalg, "as_dense", counting)
    X = np.random.default_rng(2).standard_normal(shape)
    f = left_svd(X)
    assert checked == [shape]
    want = np.linalg.svd(X, compute_uv=False)
    np.testing.assert_allclose(f.singular_values, want, rtol=1e-13)


def test_left_svd_thresholds_a_wide_matrix_at_its_own_shape():
    # One singular value between the thresholds at the n x n factor's
    # shape (n eps s_1) and at X's own (m eps s_1): only X's rank counts it.
    n, m = 4, 400
    rng = np.random.default_rng(1)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((m, n)))[0]
    s = np.array([1.0, 0.5, 0.25, 20 * n * np.finfo(float).eps])
    X = (U * s) @ V.T
    assert thin_svd(X).numerical_rank == left_svd(X).numerical_rank == 3
