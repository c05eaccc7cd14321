import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matcoh.coherence import nested_factors
from matcoh.linalg import as_dense, thin_svd
from matcoh.lowrank import (_nystrom, _projection_squares, _reflected_rows,
                            column_projection, nystrom)
from matcoh.sampling import ColumnSample, nested_samples, uniform_sample
from matcoh.synthetic import SynthSpec, adversarial_spsd, basis_aligned_matrix, low_rank_matrix


def sample_at(X, indices):
    return ColumnSample(indices=tuple(indices),
                        submatrix=np.array(X[:, list(indices)], order="F"))


def test_error_metrics_zero_for_exact():
    X = np.eye(5)
    sample = sample_at(X, range(5))
    for res in (column_projection(X, sample), nystrom(X, sample)):
        assert (res.frobenius_error, res.normalized_error) == (0.0, 0.0)


@pytest.mark.parametrize("K", [np.zeros((6, 6)), np.diag([1.0, 0, 0, 0])])
def test_spectral_error_zero_for_exact_reconstruction(K):
    # The spectral norm is gone from the results; an exact reconstruction
    # still has to read exactly zero in the Frobenius norm that remains.
    sample = sample_at(K, [0])
    for res in (column_projection(K, sample), nystrom(K, sample)):
        assert res.frobenius_error == 0.0
        assert res.normalized_error == 0.0


def test_error_metrics_forced_values():
    X = np.diag([3.0, 4.0, 0.0])
    # The zero column spans nothing, so the residual is all of X.
    res = column_projection(X, sample_at(X, [2]))
    assert res.frobenius_error == pytest.approx(5.0)
    assert res.normalized_error == pytest.approx(1.0)
    res = column_projection(X, sample_at(X, [0]))
    assert res.frobenius_error == pytest.approx(4.0)
    assert res.normalized_error == pytest.approx(0.8)


def test_column_projection_full_sample_is_exact():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 6))
    res = column_projection(X, sample_at(X, range(6)))
    assert res.normalized_error <= 1e-12
    np.testing.assert_allclose(res.approx, X, atol=1e-12)


def test_column_projection_exact_on_rank_match():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 30))
    res = column_projection(X, uniform_sample(X, 8, seed=3))
    assert res.normalized_error < 1e-10


def test_column_projection_zero_columns():
    X = basis_aligned_matrix(10, 10, 3)
    res = column_projection(X, sample_at(X, [5, 6, 7]))
    assert np.all(res.approx == 0.0)
    assert res.normalized_error == pytest.approx(1.0)


def test_column_projection_residual_orthogonal_to_sample():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((12, 10))
    sample = uniform_sample(X, 4, seed=5)
    res = column_projection(X, sample)
    assert np.max(np.abs(sample.submatrix.T @ (X - res.approx))) < 1e-10


def test_column_projection_never_grows_norm():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((15, 12))
    res = column_projection(X, uniform_sample(X, 5, seed=7))
    assert np.linalg.norm(res.approx) <= np.linalg.norm(X) + 1e-12


def test_column_projection_idempotent():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((14, 11))
    sample = uniform_sample(X, 4, seed=9)
    first = column_projection(X, sample)
    again = column_projection(first.approx, sample_at(first.approx, sample.indices))
    assert np.max(np.abs(again.approx - first.approx)) <= 1e-12


def test_column_projection_rejects_foreign_sample():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((6, 6))
    sample = uniform_sample(rng.standard_normal((6, 6)), 2, seed=0)
    with pytest.raises(ValueError):
        column_projection(X, sample)


def spd_kernel(n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G @ G.T / n


def test_nystrom_full_sample_recovers():
    K = spd_kernel(9, 0)
    res = nystrom(K, sample_at(K, range(9)))
    assert res.normalized_error <= 1e-8


def test_nystrom_rank_one_exact():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(10)
    K = np.outer(v, v)
    res = nystrom(K, sample_at(K, [3]))
    # rank-1 oracle: K1 = K v3, W = v3^2, so K1 W^+ K1^T = v v^T back
    assert v[3] != 0.0
    assert res.normalized_error <= 1e-10
    np.testing.assert_allclose(res.approx, K, atol=1e-10 * np.abs(K).max())


def test_nystrom_misses_inflated_entry():
    K = adversarial_spsd(60, seed=3, inflation=1e3)
    for size in (5, 20, 40):
        res = nystrom(K, uniform_sample(K, size, seed=size, excluded={0}))
        assert res.normalized_error > 0.5


def test_nystrom_output_symmetric():
    K = spd_kernel(12, 4)
    res = nystrom(K, uniform_sample(K, 5, seed=5))
    assert np.max(np.abs(res.approx - res.approx.T)) <= 1e-10


def test_nystrom_reproduces_sampled_block():
    K = spd_kernel(10, 6)
    sample = uniform_sample(K, 4, seed=7)
    idx = list(sample.indices)
    res = nystrom(K, sample)
    assert np.max(np.abs(res.approx[np.ix_(idx, idx)] - K[np.ix_(idx, idx)])) <= 1e-8


def test_nystrom_rejects_asymmetric():
    K = np.arange(16.0).reshape(4, 4)
    with pytest.raises(ValueError):
        nystrom(K, sample_at(K, [0]))


def test_nystrom_handles_dependent_columns():
    # duplicate sampled columns make W singular; thresholded pinv copes
    rng = np.random.default_rng(8)
    v = rng.standard_normal(8)
    w = rng.standard_normal(8)
    K = np.outer(v, v) + np.outer(w, w)
    res = nystrom(K, sample_at(K, [0, 1, 2]))
    assert np.isfinite(res.approx).all()
    assert res.normalized_error <= 1e-8


def test_mean_error_non_increasing_in_sample_size():
    sizes = [5, 10, 20, 40]
    for decay, level in (("medium", "low"), ("fast", "high")):
        X = low_rank_matrix(SynthSpec(n=80, m=80, rank=20, decay=decay,
                                      coherence=level, seed=1))
        means = []
        for size in sizes:
            errs = [column_projection(X, uniform_sample(X, size, seed=t)).normalized_error
                    for t in range(10)]
            means.append(np.mean(errs))
        for a, b in zip(means, means[1:]):
            assert b <= a + 1e-3


def test_nystrom_mean_error_non_increasing_in_sample_size():
    from matcoh.kernels import KernelSpec, PointDataset, build_kernel
    from matcoh.sampling import SplitMix64

    pts = SplitMix64(17).normal_matrix(80, 6)
    K = build_kernel(PointDataset(points=pts),
                     KernelSpec(kind="rbf", rbf_width=3.0))
    means = []
    for size in (5, 10, 20, 40):
        errs = [nystrom(K, uniform_sample(K, size, seed=t)).normalized_error
                for t in range(10)]
        means.append(np.mean(errs))
    for a, b in zip(means, means[1:]):
        assert b <= a + 1e-3


def test_results_stay_factored_until_approx_is_read(monkeypatch):
    import matcoh.coherence
    import matcoh.linalg

    shapes = []
    real = matcoh.linalg.thin_svd

    def recording(X):
        shapes.append(np.shape(X))
        return real(X)

    monkeypatch.setattr(matcoh.linalg, "thin_svd", recording)
    monkeypatch.setattr(matcoh.coherence, "thin_svd", recording)
    K = spd_kernel(30, 16)
    sample = uniform_sample(K, 6, seed=17)
    results = [column_projection(K, sample), nystrom(K, sample)]
    # The projection factors its sample through one QR and the SVD of
    # its 6 x 6 R block, and W goes through `eigh`; both results stay
    # factored until their approximation is read.
    assert shapes == [(6, 6)]
    assert not any("approx" in vars(res) for res in results)
    first = [res.approx for res in results]
    assert all(res.approx is a for res, a in zip(results, first))
    assert shapes == [(6, 6)]


# Differential tests against dense oracles. Each oracle forms the n x n
# (or n x m) matrix from `np.linalg.svd` and cuts singular values at the
# package's rank rule, max(shape) * sigma_1 * eps, written out here.
EPS = np.finfo(np.float64).eps


def _kept(s, shape):
    return int(np.count_nonzero(s > max(shape) * s[0] * EPS)) if s[0] > 0 else 0


def projection_oracle(X, S):
    """Explicit projector onto the rank-cut left singular span of S, times X."""
    U, s, _ = np.linalg.svd(S, full_matrices=False)
    q = _kept(s, S.shape)
    return (U[:, :q] @ U[:, :q].T) @ X


def nystrom_oracle(K, idx):
    """Dense K1 W^+ K1^T with W^+ from the SVD of W, cut at the same rule."""
    K1, W = K[:, idx], K[np.ix_(idx, idx)]
    U, s, Vt = np.linalg.svd(W)
    q = _kept(s, W.shape)
    return K1 @ ((Vt[:q].T / s[:q]) @ U[:, :q].T) @ K1.T


def _sweep(X, sizes, seed, excluded):
    """Nested samples and the sweep's factor of each size."""
    samples = nested_samples(X, sizes[-1], seed, excluded=excluded)
    factors = nested_factors(samples[-1].submatrix, sizes)
    return [(samples[l - 1], f) for l, f in zip(sizes, factors)]


_MATRIX_KINDS = ("generic", "low_rank", "duplicates", "zero_columns",
                 "all_zero", "near_threshold")


@st.composite
def _projection_cases(draw):
    """(X, sizes, seed, excluded): tall and wide X, rank-deficient ones,
    duplicate and zero columns, and a singular value near the threshold."""
    n = draw(st.integers(1, 25))
    m = draw(st.integers(1, 25))
    kind = draw(st.sampled_from(_MATRIX_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "generic":
        X = rng.standard_normal((n, m))
    elif kind == "all_zero":
        X = np.zeros((n, m))
    else:
        r = draw(st.integers(1, min(n, m)))
        X = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
        if kind == "duplicates":
            X = X[:, rng.integers(0, m, m)]
        elif kind == "zero_columns":
            X[:, rng.random(m) < 0.4] = 0.0
        elif kind == "near_threshold":
            # One more direction at the scale of the rank threshold.
            scale = draw(st.floats(0.1, 10.0)) * max(n, m) * EPS
            X = X / np.linalg.norm(X, 2) + scale * np.outer(
                rng.standard_normal(n), rng.standard_normal(m))
    excluded = set(draw(st.lists(st.integers(0, m - 1), max_size=m - 1)))
    sizes = sorted(draw(st.sets(st.integers(1, m - len(excluded)), min_size=1)))
    return X, sizes, draw(st.integers(0, 1000)), excluded


def _gap(S):
    """Relative gap between the kept and dropped singular values of S."""
    f = thin_svd(S)
    s, q = f.singular_values, f.numerical_rank
    if q == 0:
        return 1.0
    return (s[q - 1] - (s[q] if q < s.size else 0.0)) / s[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_projection_cases())
def test_column_projection_differential_against_dense_projector(case):
    X, sizes, seed, excluded = case
    scale = max(1.0, float(np.linalg.norm(X)))
    for sample, _ in _sweep(X, sizes, seed, excluded):
        assert not excluded & set(sample.indices)
        want = projection_oracle(X, sample.submatrix)
        own = column_projection(X, sample)
        assert np.max(np.abs(own.approx - want)) <= 1e-12 * scale
        assert abs(own.frobenius_error - np.linalg.norm(X - want)) <= 1e-12 * scale


def _carried_case():
    """Rank 3 in 12 x 20: from l = 4 on, every size factors a carried block."""
    rng = np.random.default_rng(21)
    X = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 20))
    return X, [2, 4, 6, 9, 13, 20], 3, set()


def _spanning_case():
    """Wide generic 5 x 12: from l = 5 on, k = n and the sample spans X."""
    return np.random.default_rng(22).standard_normal((5, 12)), [2, 5, 9, 11], 4, {0}


def _zero_and_duplicate_case():
    """Rank 2 in 6 x 14, with duplicated and zeroed columns."""
    rng = np.random.default_rng(23)
    X = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 14))
    X = X[:, [0, 1, 1, 2, 3, 3, 3, 4, 5, 6, 7, 8, 8, 9]]
    X[:, [2, 7, 11]] = 0.0
    return X, [1, 3, 5, 8, 14], 5, set()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_projection_cases())
@example(_carried_case())
@example(_spanning_case())
@example(_zero_and_duplicate_case())
def test_trial_projection_errors_differential_against_dense_projector(case):
    # A run reads every size's error off one Householder pass with the
    # trial's reflectors; the public method makes the same pass with its
    # sample's own factor. Both must match the dense projector's error.
    X, sizes, seed, excluded = case
    n = X.shape[0]
    scale = max(1.0, float(np.linalg.norm(X)))
    samples = nested_samples(X, sizes[-1], seed, excluded=excluded)
    factors = list(nested_factors(samples[-1].submatrix, sizes))
    reflected = _reflected_rows(as_dense(X), factors[-1].V, factors[-1].T)
    for l, factor in zip(sizes, factors):
        sample = samples[l - 1]
        want = float(np.linalg.norm(X - projection_oracle(X, sample.submatrix)))
        own = column_projection(X, sample)
        assert abs(own.frobenius_error - want) <= 1e-12 * scale
        swept = math.sqrt(_projection_squares(*reflected, factor.core.left_basis()))
        assert swept <= math.sqrt(n) * scale
        if (factor.core.numerical_rank == thin_svd(sample.submatrix).numerical_rank
                and _gap(sample.submatrix) >= 1e-6):
            assert abs(swept - want) <= 1e-12 * scale
        # Where the kept basis spans all n rows, nothing is left: exactly 0.
        if factor.core.numerical_rank == n:
            assert swept == 0.0
        if own.left.shape[1] == n:
            assert own.frobenius_error == 0.0


def test_projection_cases_cover_carried_and_spanning_sizes():
    # The explicit examples above reach what they are there for.
    X, sizes, seed, _ = _carried_case()
    factors = list(nested_factors(nested_samples(X, sizes[-1], seed)[-1].submatrix,
                                  sizes))
    assert [f.core.numerical_rank for f in factors] == [2, 3, 3, 3, 3, 3]
    # From l = 6 on the core is the carried k x (3 + d) block, narrower than k.
    assert [f.core.U.shape for f in factors[2:]] == [(6, 5), (9, 6), (12, 7), (12, 10)]
    X, sizes, seed, excluded = _spanning_case()
    factors = nested_factors(nested_samples(X, sizes[-1], seed, excluded=excluded)[-1]
                             .submatrix, sizes)
    assert [f.core.numerical_rank for f in factors] == [2, 5, 5, 5]
    X, sizes, seed, _ = _zero_and_duplicate_case()
    block = nested_samples(X, sizes[-1], seed)[-1].submatrix
    assert np.any(np.all(block == 0.0, axis=0))
    assert len({tuple(c) for c in block.T}) < block.shape[1]


_KERNEL_KINDS = ("full_rank", "low_rank", "duplicates", "zero_columns",
                 "all_zero", "near_threshold", "rbf")


@st.composite
def _nystrom_cases(draw):
    """(K, sizes, seed, excluded): SPSD K of full and deficient rank, with
    duplicate and zero columns, and one eigenvalue near the threshold."""
    n = draw(st.integers(1, 25))
    kind = draw(st.sampled_from(_KERNEL_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = n + 2 if kind == "full_rank" else draw(st.integers(1, n))
    G = rng.standard_normal((n, d))
    if kind == "all_zero":
        G[:] = 0.0
    elif kind == "duplicates":
        G = G[rng.integers(0, n, n)]
    elif kind == "zero_columns":
        G[rng.random(n) < 0.4] = 0.0
    if kind == "rbf":
        sq = np.sum((G[:, None, :] - G[None, :, :]) ** 2, axis=-1)
        K = np.exp(-sq / (2.0 * d))
    else:
        K = G @ G.T
    if kind == "near_threshold":
        h = rng.standard_normal(n)
        scale = draw(st.floats(0.1, 10.0)) * n * EPS * float(np.max(np.abs(K)))
        K = K + scale * np.outer(h, h)
    K = (K + K.T) / 2.0
    excluded = set(draw(st.lists(st.integers(0, n - 1), max_size=n - 1)))
    sizes = sorted(draw(st.sets(st.integers(1, n - len(excluded)), min_size=1)))
    return K, sizes, draw(st.integers(0, 1000)), excluded


def _duplicate_kernel_case():
    """Rank 3 in 10 x 10 from four distinct points: every sample of five
    or more columns repeats one, so its W is rank deficient."""
    F = np.random.default_rng(31).standard_normal((4, 3))[[0, 0, 1, 1, 1, 2, 2, 3, 3, 3]]
    return F @ F.T, [2, 5, 9], 6, set()


def _zero_kernel_case():
    """12 x 12 with six zero rows and columns: a sample of seven or more
    columns takes a zero one."""
    F = np.random.default_rng(32).standard_normal((12, 5))
    F[[0, 2, 3, 7, 8, 11]] = 0.0
    return F @ F.T, [3, 7, 12], 7, set()


def _full_kernel_case():
    """Full rank 7 x 7, sampled up to l = n."""
    F = np.random.default_rng(33).standard_normal((7, 9))
    return F @ F.T, [2, 4, 7], 8, set()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_nystrom_cases())
@example(_duplicate_kernel_case())
@example(_zero_kernel_case())
@example(_full_kernel_case())
def test_nystrom_differential_against_dense_pseudoinverse(case):
    # The public method reads its error off its own sample's pass; a run
    # reads every size's off one pass with the largest sample's
    # reflectors. Both must match the dense reconstruction's error.
    K, sizes, seed, excluded = case
    swept = _sweep(K, sizes, seed, excluded)
    V, T = swept[-1][1].V, swept[-1][1].T
    tail, head = _reflected_rows(K, V, T)
    G = head - ((head @ V) @ T) @ V.T
    for sample, _ in swept:
        idx = list(sample.indices)
        assert not excluded & set(idx)
        want = nystrom_oracle(K, idx)
        got = nystrom(K, sample)
        trial = math.sqrt(_nystrom(tail, head, G, idx, K[:, idx])[2])
        s = np.linalg.svd(K[np.ix_(idx, idx)], compute_uv=False)
        q = _kept(s, (len(idx), len(idx)))
        if got.left.shape[1] != q:
            # eigh and the SVD round |lambda| differently, so they may cut
            # a value that sits at the threshold on opposite sides.
            tau = len(idx) * s[0] * EPS
            assert np.min(np.abs(s - tau)) <= tau
            continue
        if q == 0:
            assert np.all(got.approx == 0.0) and np.all(want == 0.0)
            # Nothing is subtracted: the error is ‖K‖ to rounding.
            tol = 100 * EPS * np.max(np.abs(K))
            assert abs(trial - np.linalg.norm(K)) <= K.shape[0] * tol
            continue
        # Forward error of the dense oracle: rounding in K1 and W is
        # magnified by |W^+| = 1/s_q.
        tol = 100 * EPS * (np.linalg.norm(K[:, idx], 2) ** 2 / s[q - 1]
                           + np.max(np.abs(K)))
        assert np.max(np.abs(got.approx - want)) <= tol
        for error in (got.frobenius_error, trial):
            assert abs(error - np.linalg.norm(K - want)) <= K.shape[0] * tol


def test_nystrom_cases_cover_duplicate_zero_and_full_samples():
    # The explicit examples above reach what they are there for.
    K, sizes, seed, _ = _duplicate_kernel_case()
    idx = list(nested_samples(K, sizes[-1], seed)[-1].indices)
    assert len({tuple(K[:, j]) for j in idx}) < len(idx)
    assert np.linalg.matrix_rank(K[np.ix_(idx, idx)]) < len(idx)
    K, sizes, seed, _ = _zero_kernel_case()
    block = nested_samples(K, sizes[1], seed)[-1].submatrix
    assert np.any(np.all(block == 0.0, axis=0))
    K, sizes, _, _ = _full_kernel_case()
    assert sizes[-1] == K.shape[0]


@pytest.mark.parametrize("method", [column_projection, nystrom])
def test_method_call_forms_no_square_temporary(method):
    import tracemalloc

    from matcoh.kernels import KernelSpec, PointDataset, build_kernel
    from matcoh.sampling import SplitMix64

    K = build_kernel(PointDataset(points=SplitMix64(3).normal_matrix(400, 5)), KernelSpec(kind="rbf", rbf_width=2.0))
    sample = uniform_sample(K, 20, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = method(K, sample)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # The approximation and its residual are n x n; neither may be formed.
    assert peak < 0.5 * K.nbytes
    assert result.normalized_error < 1.0
