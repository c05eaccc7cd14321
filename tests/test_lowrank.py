import numpy as np
import pytest

from matcoh.lowrank import approximation_errors, column_projection, nystrom
from matcoh.sampling import ColumnSample, exclusion_sample, uniform_sample
from matcoh.synthetic import SynthSpec, adversarial_spsd, basis_aligned_matrix, low_rank_matrix


def sample_at(X, indices):
    return ColumnSample(indices=tuple(indices),
                        submatrix=np.array(X[:, list(indices)], order="F"),
                        seed=-1)


def test_error_metrics_zero_for_exact():
    X = np.random.default_rng(0).standard_normal((5, 5))
    assert approximation_errors(X, X.copy()) == (0.0, 0.0, 0.0)


def test_error_metrics_forced_values():
    X = np.diag([3.0, 4.0])
    frob, spectral, normalized = approximation_errors(X, np.zeros((2, 2)))
    assert frob == pytest.approx(5.0)
    assert spectral == pytest.approx(4.0)
    assert normalized == pytest.approx(1.0)


def test_error_metrics_shape_mismatch():
    with pytest.raises(ValueError):
        approximation_errors(np.ones((2, 2)), np.ones((2, 3)))


def test_spectral_never_exceeds_frobenius():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        frob, spectral, _ = approximation_errors(
            rng.standard_normal((9, 9)), rng.standard_normal((9, 9))
        )
        assert spectral <= frob + 1e-12


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
        res = nystrom(K, exclusion_sample(K, size, seed=size, excluded={0}))
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
    K = build_kernel(PointDataset(points=pts, name="c"),
                     KernelSpec(kind="rbf", rbf_width=3.0))
    means = []
    for size in (5, 10, 20, 40):
        errs = [nystrom(K, uniform_sample(K, size, seed=t)).normalized_error
                for t in range(10)]
        means.append(np.mean(errs))
    for a, b in zip(means, means[1:]):
        assert b <= a + 1e-3


def spectral_cases():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((14, 9))
    K = spd_kernel(14, 13)
    sample_k = uniform_sample(K, 5, seed=14)
    return [column_projection(X, uniform_sample(X, 4, seed=15)),
            column_projection(K, sample_k), nystrom(K, sample_k)]


def test_spectral_error_matches_eager_metric_and_dense_norm():
    for res in spectral_cases():
        X = res.source
        assert res.spectral_error == approximation_errors(X, res.approx)[1]
        dense = np.linalg.norm(X - res.approx, 2)
        assert res.spectral_error == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("K", [np.zeros((6, 6)), np.diag([1.0, 0, 0, 0])])
def test_spectral_error_zero_for_exact_reconstruction(K):
    sample = sample_at(K, [0])
    for res in (column_projection(K, sample), nystrom(K, sample)):
        assert res.frobenius_error == 0.0
        assert res.spectral_error == 0.0


def test_results_factor_the_residual_only_on_first_access(monkeypatch):
    import matcoh.linalg
    import matcoh.lowrank

    shapes = []
    real = matcoh.linalg.thin_svd

    def recording(X):
        shapes.append(np.shape(X))
        return real(X)

    monkeypatch.setattr(matcoh.linalg, "thin_svd", recording)
    monkeypatch.setattr(matcoh.lowrank, "thin_svd", recording)
    K = spd_kernel(30, 16)
    sample = uniform_sample(K, 6, seed=17)
    results = [column_projection(K, sample), nystrom(K, sample)]
    assert shapes == [(30, 6), (6, 6)]
    first = [res.spectral_error for res in results]
    assert shapes[2:] == [(30, 30), (30, 30)]
    assert [res.spectral_error for res in results] == first
    assert len(shapes) == 4
