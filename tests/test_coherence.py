import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matcoh.linalg
from matcoh.coherence import (
    basis_coherence,
    estimate_coherence,
    factor_coherence,
    max_leverage,
    mu0_coherence,
    mu1_coherence,
    mu_coherence,
    nested_factors,
    sample_size_bound,
    update_projector,
)
from matcoh.linalg import projector, thin_svd
from matcoh.sampling import uniform_sample
from matcoh.synthetic import basis_aligned_matrix


def random_basis(n, q, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((n, q)))[0]


def test_max_leverage_basis_aligned():
    U = np.eye(10)[:, :3]
    assert max_leverage(U) == 1.0


def test_max_leverage_spread_vector():
    u = np.full((4, 1), 0.5)
    assert max_leverage(u) == pytest.approx(0.25)


def test_max_leverage_matches_explicit_projector():
    U = thin_svd(np.random.default_rng(7).standard_normal((12, 3))).left_basis()
    diag = np.diagonal(projector(U))
    assert max_leverage(U) == pytest.approx(float(np.max(diag)), abs=1e-13)


def test_max_leverage_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        max_leverage(np.ones((5, 2)))


def test_mu_values_basis_aligned():
    U = np.eye(10)[:, :2]
    assert mu0_coherence(U) == pytest.approx(5.0)
    assert mu_coherence(U) == pytest.approx(math.sqrt(10.0))


def test_mu_values_spread():
    u = np.full((4, 1), 0.5)
    assert mu0_coherence(u) == pytest.approx(1.0)
    assert mu_coherence(u) == pytest.approx(1.0)


def test_mu1_against_entrywise_sum():
    U = random_basis(16, 4, 0)
    V = random_basis(16, 4, 1)
    # independent oracle: accumulate the rank-one products entry by entry
    T = np.zeros((16, 16))
    for k in range(4):
        T += np.outer(U[:, k], V[:, k])
    expected = math.sqrt(16 * 16 / 4) * np.max(np.abs(T))
    assert abs(mu1_coherence(U, V) - expected) <= 1e-12


def test_mu1_dimension_mismatch():
    with pytest.raises(ValueError):
        mu1_coherence(random_basis(8, 3, 0), random_basis(8, 2, 1))


@pytest.mark.parametrize("n,q,seed", [(20, 1, 0), (20, 5, 1), (30, 12, 2), (15, 15, 3)])
def test_report_invariants(n, q, seed):
    U = random_basis(n, q, seed)
    rep = basis_coherence(U, random_basis(n, q, seed + 100))
    assert q / n - 1e-12 <= rep.gamma <= 1.0
    assert rep.mu >= 1.0 - 1e-9
    assert rep.mu0 == rep.gamma * (rep.n / rep.rank_used)
    assert rep.mu**2 / rep.rank_used <= rep.mu0 + 1e-9
    assert rep.mu0 <= rep.mu**2 + 1e-9
    assert 1.0 - 1e-9 <= rep.mu0 <= n / q + 1e-9
    assert rep.mu1 is not None


def test_estimate_full_sample_matches_truth():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 25))
    truth = max_leverage(thin_svd(X).left_basis())
    rep = estimate_coherence(X)
    assert abs(rep.gamma - truth) <= 1e-10
    assert rep.mu1 is None  # no right factor available from a column sample


def test_estimate_zero_columns_is_degenerate_zero():
    X = basis_aligned_matrix(12, 12, 4)
    zeros = X[:, 5:9]  # none of the basis columns
    rep = estimate_coherence(zeros)
    assert rep.gamma == 0.0 and rep.rank_used == 0
    assert max_leverage(thin_svd(X).left_basis()) == 1.0


def test_estimate_exhaustive_rank3_subsets():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 20))
    truth = estimate_coherence(X).gamma
    full_rank_cases = 0
    for triple in itertools.combinations(range(20), 3):
        sub = X[:, list(triple)]
        f = thin_svd(sub)
        if f.numerical_rank == 3:
            full_rank_cases += 1
            assert abs(estimate_coherence(sub).gamma - truth) <= 1e-10
    assert full_rank_cases > 1000  # generic position: nearly all triples


def test_estimate_rank_truncation_clamps():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((15, 2)) @ rng.standard_normal((2, 10))
    assert estimate_coherence(X, rank=7).rank_used == 2
    assert estimate_coherence(X, rank=1).rank_used == 1
    with pytest.raises(ValueError):
        estimate_coherence(X, rank=0)


def test_monotone_under_nested_samples():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((25, 5)) @ rng.standard_normal((5, 25))
    order = rng.permutation(25)
    prev = 0.0
    for l in range(1, 26):
        g = estimate_coherence(X[:, order[:l]]).gamma
        assert g >= prev - 1e-12
        prev = g


def test_update_projector_in_span_is_identity():
    rng = np.random.default_rng(2)
    X1 = rng.standard_normal((8, 3))
    P = projector(thin_svd(X1).left_basis())
    x = X1 @ rng.standard_normal(3)
    P2, bound = update_projector(P, x)
    assert bound == 0.0
    np.testing.assert_array_equal(P2, P)


def test_update_projector_from_empty():
    P = np.zeros((3, 3))
    e2 = np.array([0.0, 1.0, 0.0])
    P2, bound = update_projector(P, e2)
    np.testing.assert_allclose(P2, np.diag([0.0, 1.0, 0.0]), atol=1e-15)
    assert bound == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(8))
def test_update_projector_matches_scratch(seed):
    rng = np.random.default_rng(seed)
    X1 = rng.standard_normal((10, 3))
    x = rng.standard_normal(10)
    P = projector(thin_svd(X1).left_basis())
    P2, _ = update_projector(P, x)
    P_scratch = projector(thin_svd(np.column_stack([X1, x])).left_basis())
    assert np.max(np.abs(P2 - P_scratch)) <= 1e-10


def test_update_projector_dimension_mismatch():
    with pytest.raises(ValueError):
        update_projector(np.zeros((4, 4)), np.ones(3))


def test_sample_size_bound_unity_case():
    delta = 3.0 / math.e
    assert sample_size_bound(1, 1.0, delta, 1.0, 1.0) == 1
    assert sample_size_bound(2, 1.0, delta, 1.0, 1.0) == 4


def test_sample_size_bound_linear_in_mu0():
    delta = 3.0 / math.e
    assert sample_size_bound(2, 2.0, delta, 1.0, 1.0) == 8


def test_sample_size_bound_rejects_bad_delta():
    for bad in (0.0, -0.5, 3.0, 7.0):
        with pytest.raises(ValueError):
            sample_size_bound(2, 1.0, bad, 1.0, 1.0)


def test_exactness_when_sample_rank_matches():
    for seed in range(20):
        g = np.random.default_rng(seed)
        X = g.standard_normal((40, 6)) @ g.standard_normal((6, 40))
        truth = estimate_coherence(X).gamma
        sample = uniform_sample(X, 8, seed=seed)
        if thin_svd(sample.submatrix).numerical_rank == 6:
            assert abs(estimate_coherence(sample.submatrix).gamma - truth) <= 1e-10


def test_basis_coherence_checks_each_basis_once(monkeypatch):
    calls = []
    real = matcoh.linalg.orthonormality_defect

    def counting(U):
        calls.append(U.shape)
        return real(U)

    monkeypatch.setattr(matcoh.linalg, "orthonormality_defect", counting)
    U, V = random_basis(12, 3, 0), random_basis(9, 3, 1)
    basis_coherence(U)
    assert calls == [(12, 3)]
    calls.clear()
    basis_coherence(U, V)
    assert calls == [(12, 3), (9, 3)]


def test_basis_coherence_keeps_public_errors():
    with pytest.raises(ValueError, match="basis columns are not orthonormal"):
        basis_coherence(np.ones((5, 2)))
    with pytest.raises(ValueError, match="factor column counts differ: 3 vs 2"):
        basis_coherence(random_basis(8, 3, 0), random_basis(8, 2, 1))


def test_basis_coherence_checks_v_when_u_is_empty():
    empty = np.zeros((5, 0))
    with pytest.raises(ValueError, match="basis columns are not orthonormal"):
        basis_coherence(empty, np.ones((4, 3)))
    with pytest.raises(ValueError, match="factor column counts differ: 0 vs 2"):
        basis_coherence(empty, random_basis(4, 2, 0))
    V = np.zeros((4, 0))
    assert basis_coherence(empty, V).mu1 == 0.0 == mu1_coherence(empty, V)


def test_nested_coherence_rejects_bad_rank_and_sizes():
    X = np.random.default_rng(3).standard_normal((10, 6))
    with pytest.raises(ValueError, match=r"^rank parameter must be >= 1, got 0$"):
        [factor_coherence(f, 0) for f in nested_factors(X, [2, 4])]
    for sizes in ([], [3, 2], [2, 2], [0, 3], [3, 7]):
        with pytest.raises(ValueError):
            nested_factors(X, sizes)


_PREFIX_KINDS = ("generic", "low_rank", "duplicates", "zero_columns",
                 "all_zero", "decaying")


@st.composite
def _prefix_cases(draw):
    """(columns, sizes, rank): shapes both tall and wide, and a rank
    parameter below, at, above or without the numerical rank."""
    n = draw(st.integers(1, 30))
    width = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(_PREFIX_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "generic":
        X = rng.standard_normal((n, width))
    elif kind == "all_zero":
        X = np.zeros((n, width))
    elif kind == "decaying":
        ratio = draw(st.floats(0.05, 0.95))
        X = rng.standard_normal((n, width)) * ratio ** np.arange(width)
    else:
        r = draw(st.integers(1, min(n, width)))
        X = rng.standard_normal((n, r)) @ rng.standard_normal((r, width))
        if kind == "duplicates":
            X = X[:, rng.integers(0, r, width)]
        elif kind == "zero_columns":
            X[:, rng.random(width) < 0.4] = 0.0
    sizes = sorted(draw(st.sets(st.integers(1, width), min_size=1)))
    offset = draw(st.sampled_from([None, -2, -1, 0, 1, 3]))
    rank = None if offset is None else max(1, thin_svd(X).numerical_rank + offset)
    return X, sizes, rank


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_prefix_cases())
def test_nested_coherence_differential_against_prefix_svd(case):
    X, sizes, rank = case
    got = [factor_coherence(f, rank) for f in nested_factors(X, sizes)]
    assert len(got) == len(sizes)
    for l, report in zip(sizes, got):
        want = estimate_coherence(X[:, :l], rank=rank)
        assert (report.rank_used, report.n, report.mu1) == (want.rank_used, want.n, None)
        q = want.rank_used
        if q == 0:
            assert report.gamma == report.mu == 0.0
            continue
        # Where the kept and dropped singular values are close together,
        # the kept subspace itself is ill-determined; gamma is compared
        # only where the gap is resolved.
        s = thin_svd(X[:, :l]).singular_values
        gap = (s[q - 1] - (s[q] if q < s.size else 0.0)) / s[0]
        if gap >= 1e-6:
            assert abs(report.gamma - want.gamma) <= 1e-10
