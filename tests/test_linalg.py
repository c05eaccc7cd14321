import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matcoh.linalg
from matcoh.coherence import basis_coherence
from matcoh.kernels import (
    KernelSpec,
    PointDataset,
    build_kernel,
    default_rbf_width,
    spectrum_energy_rank,
)
from matcoh.linalg import (
    _spsd_top,
    _squares,
    as_dense,
    left_svd,
    numerical_rank,
    projector,
    rank_threshold,
    spsd_pinv_factor,
    thin_svd,
)
from matcoh.sampling import SplitMix64
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


@pytest.mark.parametrize("a, dtype", [
    (np.array([[1 + 2j, 0], [0, 3 - 1j]]), "complex128"),
    (np.array([[1.0, 2.0]], dtype=np.complex64), "complex64"),
    ([[1.0, 2j]], "complex128"),
])
def test_as_dense_rejects_complex_input(a, dtype):
    # A cast to float64 would keep only the real parts, even where every
    # imaginary part is zero.
    with pytest.raises(ValueError, match=f"^matrix entries must be real, got dtype {dtype}$"):
        as_dense(a)


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


def svd_pinv(X):
    """Dense pseudoinverse from `np.linalg.svd`, cut at the package's rank
    rule max(shape) * sigma_1 * eps, written out here."""
    U, s, Vt = np.linalg.svd(X)
    q = int(np.count_nonzero(s > max(X.shape) * s[0] * np.finfo(float).eps))
    return (Vt[:q].T / s[:q]) @ U[:, :q].T


def pinv_of(K):
    """`spsd_pinv_factor` of K, multiplied out."""
    U, d = spsd_pinv_factor(K)
    return (U * d) @ U.T


def test_pseudoinverse_diagonal():
    np.testing.assert_allclose(
        pinv_of(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-15
    )
    np.testing.assert_allclose(pinv_of(np.eye(4)), np.eye(4), atol=1e-14)


def test_pseudoinverse_left_inverse_full_rank():
    G = np.random.default_rng(1).standard_normal((3, 6))
    K = G @ G.T
    np.testing.assert_allclose(pinv_of(K) @ K, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(pinv_of(K), svd_pinv(K),
                               atol=1e-10 * np.max(np.abs(svd_pinv(K))))


@pytest.mark.parametrize("seed", range(5))
def test_penrose_conditions(seed):
    G = np.random.default_rng(seed).standard_normal((20, 12))
    K = G @ G.T
    P = pinv_of(K)
    assert np.linalg.norm(K @ P @ K - K) <= 1e-8 * np.linalg.norm(K)
    assert np.linalg.norm(P @ K @ P - P) <= 1e-8 * np.linalg.norm(P)
    assert np.linalg.norm(P - svd_pinv(K)) <= 1e-8 * np.linalg.norm(P)


def test_pseudoinverse_rank_deficient():
    # duplicated column: the small eigenvalue must be zeroed, not inverted
    rng = np.random.default_rng(2)
    col = rng.standard_normal((5, 1))
    X = np.hstack([col, col, rng.standard_normal((5, 1))])
    K = X.T @ X
    P = pinv_of(K)
    assert np.linalg.norm(K @ P @ K - K) <= 1e-8 * np.linalg.norm(K)
    assert np.max(np.abs(P)) < 1e3
    np.testing.assert_allclose(P, svd_pinv(K), atol=1e-8 * np.max(np.abs(P)))


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
    want = svd_pinv(K)
    np.testing.assert_allclose((U * d) @ U.T, want,
                               atol=1e-8 * np.max(np.abs(want)))


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
    return build_kernel(PointDataset(points=points), spec), True


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


@pytest.mark.parametrize("k, r", [(1, 0), (1, 1), (6, 2), (6, 6), (20, 5)])
@pytest.mark.parametrize("chunks", [0, 1, 1 + 1 / 8, 5 + 3 / 8, 40 + 5 / 8])
@pytest.mark.parametrize("seed", range(3))
def test_r_factor_matches_one_qr(monkeypatch, k, r, chunks, seed):
    # Chunks of 8 rows (k rows when k > 8), so toy shapes take the
    # chunked path: from m = k + 1, one QR, up to many chunks folded
    # several times, with m not a multiple of the chunk.
    step = max(k, 8)
    monkeypatch.setattr(matcoh.linalg, "_R_CHUNK", 8 * k)
    m = k + max(1, round(chunks * step))
    rng = np.random.default_rng(seed)  # [V | G] as the noisy build forms it
    V = np.linalg.qr(rng.standard_normal((m, r)))[0]
    A = np.asfortranarray(np.hstack([V, rng.standard_normal((m, k - r))]))
    _assert_is_one_qr_r(matcoh.linalg._r_factor(A), A)


def _assert_is_one_qr_r(R, A):
    """R is `np.linalg.qr(A, mode="r")` to within m·eps·‖A‖₂, with its
    diagonal signs: one flipped sign would flip a column of the
    completion R applies."""
    want = np.linalg.qr(A, mode="r")
    assert R.shape == want.shape
    np.testing.assert_array_equal(np.sign(np.diag(R)), np.sign(np.diag(want)))
    bound = A.shape[0] * np.finfo(float).eps * np.linalg.norm(A, 2)
    assert np.max(np.abs(R - want)) <= bound


def _rows_at_gram_cond(rng, rows, k, cond):
    """rows x k matrix whose Gram, scaled to a unit diagonal, has condition
    number `cond`: orthonormal columns, the second turned toward the first
    (cosine c, eigenvalues 1 ± c), each then scaled by its own factor."""
    Q = np.linalg.qr(rng.standard_normal((rows, k)))[0]
    c = (cond - 1) / (cond + 1)
    Q[:, 1] = c * Q[:, 0] + np.sqrt(1 - c * c) * Q[:, 1]
    return Q * np.geomspace(1.0, 1e3, k)


_BOUND = matcoh.linalg._R_MAX_GRAM_COND


@pytest.mark.parametrize("case, certified, certificates", [
    ("well conditioned", True, 2),
    ("scaled columns, just below the bound", True, 2),
    ("zero column below the top block", False, 0),
    ("rank-deficient rows below the top block", False, 1),
    ("just above the bound", False, 1),
    ("rows below the head chunk past the bound", False, 2),
    ("Gram overflows", False, 0),
    ("Gram underflows", False, 0),
])
@pytest.mark.parametrize("seed", range(3))
def test_r_factor_routes(linalg_calls, monkeypatch, case, certified,
                         certificates, seed):
    # The rows below row k enter through the Cholesky factor of their
    # Gram only where its certificate holds, read first off the Gram of
    # the head chunk below row k and then off the whole, and only then
    # factored; every other case takes the chunk fold and no Cholesky
    # factor. A column that fails the scale test fails before any
    # condition number is read, and a head chunk that fails leaves the
    # rest out. Either way R is the one QR's, to rounding.
    k, m = 6, 200
    monkeypatch.setattr(matcoh.linalg, "_R_CHUNK", 8 * k)
    head = 4 * k  # max(chunk of 8 rows, 4k)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, k))
    below = A[k:]
    if case in ("scaled columns, just below the bound", "just above the bound"):
        # The head chunk and the rest share a Gram, so each has the same
        # condition number, and so does their sum.
        cond = (0.99 if certified else 1.01) * _BOUND
        for rows in (below[:head], below[head:]):
            rows[:] = _rows_at_gram_cond(rng, len(rows), k, cond)
    elif case == "zero column below the top block":
        below[:, 2] = 0.0
    elif case == "rank-deficient rows below the top block":
        below[:] = (rng.standard_normal((m - k, k - 2))
                    @ rng.standard_normal((k - 2, k)))
    elif case == "rows below the head chunk past the bound":
        rest = below[head:]
        rest[:] = 1e3 * _rows_at_gram_cond(rng, len(rest), k, 10 * _BOUND)
    elif case == "Gram overflows":
        A *= 1e160
    elif case == "Gram underflows":
        A *= 1e-150
    # Column-major, and as a tall noisy build hands it over: the
    # transpose of the top k rows of a column-major buffer with more rows.
    buffer = np.empty((k + 3, m), order="F")
    buffer[:k] = A.T
    for A in (np.asfortranarray(A), buffer[:k].T):
        linalg_calls.clear()
        R = matcoh.linalg._r_factor(A)
        # The Cholesky route ends in one QR of the top k rows on the
        # factor; the fold takes one QR per chunk.
        shapes = [shape for f, shape, mode in linalg_calls if mode == "r"]
        assert (shapes == [(2 * k, k)]) == certified, shapes
        assert sum(f == "eigvalsh" for f, _, _ in linalg_calls) == certificates
        assert sum(f == "cholesky" for f, _, _ in linalg_calls) == certified
        _assert_is_one_qr_r(R, A)


@pytest.mark.parametrize("seed", range(3))
def test_r_factor_certifies_once_where_the_head_chunk_holds_every_row(
        linalg_calls, monkeypatch, seed):
    # Chunks of 8 rows and a head chunk of 4k = 24 rows, which holds all
    # 22 rows below row k: the head's certificate is the whole Gram's, so
    # it is read once, and R comes from its Cholesky factor.
    k, m = 6, 28
    monkeypatch.setattr(matcoh.linalg, "_R_CHUNK", 8 * k)
    A = np.random.default_rng(seed).standard_normal((m, k))
    linalg_calls.clear()
    R = matcoh.linalg._r_factor(A)
    assert [f for f, _, _ in linalg_calls] == ["eigvalsh", "cholesky", "qr"]
    _assert_is_one_qr_r(R, A)


@pytest.mark.parametrize("seed", range(5))
def test_left_svd_of_a_rank_deficient_wide_matrix_from_row_chunks(monkeypatch, seed):
    n, m, q = 12, 300, 5
    monkeypatch.setattr(matcoh.linalg, "_R_CHUNK", 8 * n)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, q)) @ rng.standard_normal((q, m))
    X[3] = 0.0  # a zero row and a zero column
    X[:, 7] = 0.0
    f = left_svd(X)
    want = np.linalg.svd(X, compute_uv=False)
    np.testing.assert_allclose(f.singular_values, want, rtol=0,
                               atol=m * np.finfo(float).eps * want[0])
    assert f.numerical_rank == numerical_rank(want, X.shape) == q


def _rbf_kernel(n, width_scale, seed=None):
    """RBF kernel of n 8-dimensional Gaussian points (seed n by default),
    its width a multiple of the median pairwise distance."""
    points = SplitMix64(n if seed is None else seed).normal_matrix(n, 8)
    dataset = PointDataset(points=points)
    width = width_scale * default_rbf_width(dataset)
    return as_dense(build_kernel(dataset, KernelSpec(kind="rbf", rbf_width=width)))


@pytest.mark.parametrize("n, width_scale, policy", [
    (300, 1.0, {"fraction": 0.99}),
    (300, 0.7, {"rank": 3}),
    (450, 1.0, {"fraction": 0.999}),
    (450, 1.5, {"rank": 9}),
    (600, 0.7, {"fraction": 0.99}),
    (600, 2.0, {"rank": 9}),
    (800, 1.0, {"rank": 3}),
    (800, 2.0, {"fraction": 0.9}),
])
def test_spsd_top_matches_the_dense_eigh_route(n, width_scale, policy):
    K = _rbf_kernel(n, width_scale)
    dense = left_svd(K, spsd=True)
    r_want = policy.get("rank")
    if r_want is None:
        r_want = spectrum_energy_rank(dense.singular_values, policy["fraction"])
    top = _spsd_top(K, total=_squares(K), **policy)
    assert top is not None  # each case takes the Krylov route
    r, f = top
    assert r == r_want and f.V is None and f.numerical_rank == r
    np.testing.assert_allclose(f.singular_values, dense.singular_values[:r],
                               rtol=0, atol=1e-13 * dense.singular_values[0])
    # Within 1e-16 here. Without the settling pass two of these cases
    # moved by 1.6e-15 and 2.6e-15.
    gamma = basis_coherence(f.left_basis(r)).gamma
    assert abs(gamma - basis_coherence(dense.left_basis(r)).gamma) <= 1e-15
    # The start block is fixed, so a rerun gives the same bits.
    again = _spsd_top(K, total=_squares(K), **policy)[1]
    assert np.array_equal(again.U, f.U)
    assert np.array_equal(again.singular_values, f.singular_values)



class _Products:
    """An SPSD operator seen only through its shape and products K @ block."""

    def __init__(self, K):
        self.shape = K.shape
        self._K = K

    def __matmul__(self, block):
        return self._K @ block


@pytest.mark.parametrize("policy", [{"rank": 9}, {"fraction": 0.999}])
def test_spsd_top_reads_k_only_through_products(policy):
    # The Krylov truth reads no entry of K but through K @ block: an
    # operator with nothing but `shape` and `@` gives the bits of K
    # itself, the energy cut's total coming from the caller.
    K = _rbf_kernel(300, 1.0, seed=7)
    want = _spsd_top(K, total=_squares(K), **policy)
    assert want is not None and want[0] == 9  # the cut is taken
    r, f = _spsd_top(_Products(K), total=_squares(K), **policy)
    assert r == want[0]
    assert np.array_equal(f.U, want[1].U)
    assert np.array_equal(f.singular_values, want[1].singular_values)


@pytest.mark.parametrize("n, width_scale", [(500, 0.5), (800, 0.7)])
def test_spsd_top_declines_a_cut_inside_a_cluster_by_its_gap(
        linalg_calls, monkeypatch, n, width_scale):
    # r = 10 cuts the cluster of the RBF kernel's quadratic-order
    # eigenvalues, where the relative gap is below 3e-3. The Krylov space
    # converges the top 10 before its cap and the gap guard declines the
    # cut; with the guard off the same passes take it.
    K = _rbf_kernel(n, width_scale)
    s = left_svd(K, spsd=True).singular_values
    assert s[9] - s[10] < 3e-3 * s[0]
    linalg_calls.clear()  # two QRs of the new block a pass
    assert _spsd_top(K, rank=10) is None
    passes = len(linalg_calls) // 2
    assert passes < _cap(n) // 8
    linalg_calls.clear()
    monkeypatch.setattr(matcoh.linalg, "_TOP_MIN_GAP", -np.inf)
    top = _spsd_top(K, rank=10)
    assert top is not None and top[0] == 10
    assert len(linalg_calls) // 2 == passes


@pytest.mark.parametrize("basis", ["random", "identity"])
def test_spsd_top_finds_every_copy_of_an_exact_tie(basis):
    # A top eigenvalue of 30 copies, more than the block width 8, above a
    # 0.5 * 0.9^i tail. A cut inside the tie declines; cuts at its end and
    # one past it are taken with every copy found. In exact arithmetic a
    # Krylov space holds only 8 copies; with full reorthogonalization,
    # rounding re-seeds the rest. This is measured on these two bases,
    # not proven for every K.
    n = 500
    lam = np.r_[np.ones(30), 0.5 * 0.9 ** np.arange(n - 30)]
    if basis == "random":
        Q = np.linalg.qr(np.random.default_rng(1).standard_normal((n, n)))[0]
        K = (Q * lam) @ Q.T
        K = as_dense((K + K.T) / 2)
    else:
        K = as_dense(np.diag(lam))
    assert _spsd_top(K, rank=12) is None
    dense = left_svd(K, spsd=True)
    for rank in (30, 31):
        r, f = _spsd_top(K, rank=rank)
        assert r == rank and f.singular_values.size == rank
        assert np.count_nonzero(f.singular_values >= 1 - 1e-12) == 30
        gamma = basis_coherence(f.left_basis(r)).gamma
        assert abs(gamma - basis_coherence(dense.left_basis(r)).gamma) <= 1e-14


def _cap(n):
    """The columns of `_spsd_top`'s Krylov space at its cap, as the
    module docstring states it: min(0.6 n, 9 sqrt(n)), down to a
    multiple of 8."""
    return int(min(0.6 * n, 9.0 * n ** 0.5)) // 8 * 8


@pytest.mark.parametrize("seed, policy", [
    (None, {"rank": 10}),
    (301, {"fraction": 0.99}),
    (302, {"fraction": 0.99}),
    (303, {"fraction": 0.99}),
], ids=["rank10", "301", "302", "303"])
def test_spsd_top_declines_at_its_cap(linalg_calls, seed, policy):
    # At n = 300 and 0.5 times the median width, r = 10 and the energy
    # rank 39 at fraction 0.99 both cut the cluster of quadratic-order
    # eigenvalues. The top r do not converge before the space holds its
    # cap of columns, and it declines there: 19 passes of 8 columns.
    K = _rbf_kernel(300, 0.5, seed)
    if "fraction" in policy:
        s = left_svd(K, spsd=True).singular_values
        assert spectrum_energy_rank(s, policy["fraction"]) == 39
    linalg_calls.clear()  # two QRs of the new block a pass
    assert _spsd_top(K, total=_squares(K), **policy) is None
    assert len(linalg_calls) // 2 == _cap(300) // 8 == 19


def test_spsd_top_takes_an_energy_cut_next_to_a_drop():
    # 14 eigenvalues 0.99^i, then a drop by 0.3 and a tail decaying by
    # 0.85 an index: the energy cut sits at the drop. A subspace iteration
    # that declined on its residual's contraction rate lost this cut after
    # a few passes although it converged later; the Krylov space takes it
    # within its cap.
    n = 200
    U = np.linalg.qr(SplitMix64(n).normal_matrix(n, n))[0]
    lam = np.r_[0.99 ** np.arange(14), 0.3 * 0.99 ** 14 * 0.85 ** np.arange(n - 14)]
    K = as_dense((U * lam) @ U.T)
    K = as_dense((K + K.T) / 2)
    energies = np.cumsum(lam ** 2)
    fraction = float(energies[13] / energies[-1]) * (1 - 1e-9)
    dense = left_svd(K, spsd=True)
    assert spectrum_energy_rank(dense.singular_values, fraction) == 14
    r, f = _spsd_top(K, fraction=fraction, total=_squares(K))
    assert r == 14
    np.testing.assert_allclose(f.singular_values, dense.singular_values[:r],
                               rtol=0, atol=1e-13)
    gamma = basis_coherence(f.left_basis(r)).gamma
    assert abs(gamma - basis_coherence(dense.left_basis(r)).gamma) <= 5e-16


@pytest.mark.parametrize("policy", [{"rank": 1}, {"rank": 3}, {"fraction": 0.99}])
def test_spsd_top_keeps_its_basis_orthonormal_once_the_space_is_invariant(policy):
    # RBF of 300 2-dimensional points at twice the median width: the
    # eigenvalues fall by 1e5 within the first 14, so the Krylov space is
    # nearly invariant after a few passes and a new block is mostly
    # rounding noise, some of its columns far smaller than others. One QR
    # after projecting such a block lets the basis drift from
    # orthonormal, and the residuals then never meet their bound; a
    # second projection and QR keep it, and the cut is taken.
    points = SplitMix64(30002).normal_matrix(300, 2)
    dataset = PointDataset(points=points)
    spec = KernelSpec(kind="rbf", rbf_width=2.0 * default_rbf_width(dataset))
    K = as_dense(build_kernel(dataset, spec))
    dense = left_svd(K, spsd=True)
    r_want = policy.get("rank") or spectrum_energy_rank(dense.singular_values,
                                                        policy["fraction"])
    r, f = _spsd_top(K, total=_squares(K), **policy)
    assert r == r_want
    assert matcoh.linalg.orthonormality_defect(f.U) <= 1e-14
    gamma = basis_coherence(f.left_basis(r)).gamma
    assert abs(gamma - basis_coherence(dense.left_basis(r)).gamma) <= 5e-16


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(["rbf", "polynomial", "linear", "adversarial"]),
       st.integers(40, 160), st.integers(0, 2**32 - 1),
       st.one_of(st.tuples(st.just("rank"), st.integers(1, 12)),
                 st.tuples(st.just("fraction"), st.floats(0.5, 0.9999))))
def test_spsd_top_differential_against_eigh(kind, n, seed, policy):
    # Wherever the Krylov route takes a cut of a kernel (repeated points,
    # exactly low rank) or an adversarial matrix, it gives eigh's rank,
    # spectrum and truth, with an orthonormal basis.
    rng = np.random.default_rng(seed)
    if kind == "adversarial":
        K = adversarial_spsd(n, seed=seed % 1000, inner_dim=int(rng.integers(1, 20)))
    else:
        points = rng.standard_normal((n, int(rng.integers(1, 5))))
        points = points[rng.integers(0, n, n)]  # repeated points
        spec = {"rbf": KernelSpec(kind="rbf", rbf_width=float(rng.uniform(0.3, 3.0))),
                "polynomial": KernelSpec(kind="polynomial", poly_degree=2,
                                         poly_offset=1.0),
                "linear": KernelSpec(kind="linear")}[kind]
        K = build_kernel(PointDataset(points=points), spec)
    K = as_dense(K)
    top = _spsd_top(K, total=_squares(K), **dict([policy]))
    if top is None:
        return
    dense = left_svd(K, spsd=True)
    r_want = policy[1] if policy[0] == "rank" else spectrum_energy_rank(
        dense.singular_values, policy[1])
    r, f = top
    assert r == r_want
    assert matcoh.linalg.orthonormality_defect(f.U) <= 1e-12
    np.testing.assert_allclose(f.singular_values, dense.singular_values[:r],
                               rtol=0, atol=1e-12 * dense.singular_values[0])
    gamma = basis_coherence(f.left_basis(r)).gamma
    assert abs(gamma - basis_coherence(dense.left_basis(r)).gamma) <= 1e-10
