import math
from dataclasses import replace

import numpy as np
import pytest

from matcoh.coherence import estimate_coherence, max_leverage, mu0_coherence
from matcoh.linalg import thin_svd
from matcoh.lowrank import column_projection
from matcoh.sampling import exclusion_sample, uniform_sample
from matcoh.synthetic import (
    SynthSpec,
    add_noise,
    adversarial_spsd,
    basis_aligned_matrix,
    low_rank_factors,
    low_rank_matrix,
    singular_spectrum,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n=10, m=10, rank=11)
    with pytest.raises(ValueError):
        SynthSpec(n=10, m=10, rank=2, decay="typo")
    with pytest.raises(ValueError):
        SynthSpec(n=100, m=100, rank=5, noise=1.0)
    # 8 / sqrt(49) > 1: the peaked component cannot be a unit-vector entry
    with pytest.raises(ValueError):
        SynthSpec(n=49, m=49, rank=5, coherence="high")


def test_spectrum_decay_ratio():
    s = singular_spectrum(SynthSpec(n=100, m=100, rank=50, decay="medium"))
    assert s[0] / s[49] == pytest.approx(math.exp(4.9), rel=1e-12)


def test_generated_matrix_matches_spectrum():
    spec = SynthSpec(n=60, m=50, rank=12, decay="fast", coherence="mid", seed=5)
    X = low_rank_matrix(spec)
    f = thin_svd(X)
    assert f.numerical_rank == 12
    np.testing.assert_allclose(
        f.singular_values[:12], singular_spectrum(spec), rtol=1e-10
    )


def test_factors_are_orthonormal_with_peak_in_place():
    spec = SynthSpec(n=80, m=70, rank=8, coherence="high", seed=2)
    U, s, V = low_rank_factors(spec)
    assert np.max(np.abs(U.T @ U - np.eye(8))) < 1e-12
    assert np.max(np.abs(V.T @ V - np.eye(8))) < 1e-12
    position = math.ceil(8 / 2) - 1
    assert U[0, position] == pytest.approx(8.0 / math.sqrt(80))
    assert V[0, position] == pytest.approx(8.0 / math.sqrt(70))


def test_low_coherence_stays_near_floor():
    # needs paper-sized rank: max leverage of a random completion
    # concentrates at (rank/n) * (1 + ~sqrt(8/rank))
    for n, r in ((1000, 50), (600, 60)):
        U, _, _ = low_rank_factors(SynthSpec(n=n, m=n, rank=r, seed=3))
        assert max_leverage(U) <= 2 * r / n


def test_high_coherence_hits_multiplier_floor():
    U, _, _ = low_rank_factors(
        SynthSpec(n=1000, m=1000, rank=50, coherence="high", seed=4)
    )
    assert max_leverage(U) >= 0.9 * 64 / 1000


@pytest.mark.parametrize("seed", [1, 7])
def test_coherence_level_ordering(seed):
    # low vs mid can invert by ~1e-4 of completion-leverage noise at
    # desk scale, hence the small slack
    gammas = [
        max_leverage(low_rank_factors(
            SynthSpec(n=1000, m=1000, rank=50, coherence=level, seed=seed))[0])
        for level in ("low", "mid", "high")
    ]
    assert gammas[0] <= gammas[1] + 1e-3
    assert gammas[1] <= gammas[2] + 1e-3


def test_generation_is_bit_deterministic():
    spec = SynthSpec(n=30, m=25, rank=6, coherence="mid", seed=11)
    np.testing.assert_array_equal(low_rank_matrix(spec), low_rank_matrix(spec))


@pytest.mark.parametrize("n, m, rank, coherence", [
    (30, 45, 5, "low"),     # n < m
    (40, 35, 6, "mid"),     # n > m
    (80, 70, 70, "high"),   # rank == min(n, m): no completion columns
    (50, 64, 50, "mid"),    # rank == min(n, m), n < m
])
def test_noisy_matrix_equals_add_noise_of_its_base(n, m, rank, coherence):
    noisy = SynthSpec(n=n, m=m, rank=rank, coherence=coherence, noise=0.2,
                      seed=13)
    base = low_rank_matrix(replace(noisy, noise=None))
    X = low_rank_matrix(noisy)
    assert X.flags.f_contiguous
    np.testing.assert_array_equal(X, add_noise(base, noisy))
    assert np.array_equal(X, base) == (rank == min(n, m))


class TestAddNoise:
    spec = SynthSpec(n=40, m=35, rank=6, decay="medium", coherence="mid",
                     noise=0.3, seed=9)

    def base(self):
        return low_rank_matrix(replace(self.spec, noise=None))

    def test_vanishing_noise_recovers_base(self):
        tiny = replace(self.spec, noise=1e-12)
        np.testing.assert_allclose(add_noise(self.base(), tiny), self.base(),
                                   atol=1e-9)

    def test_output_has_full_rank(self):
        assert thin_svd(add_noise(self.base(), self.spec)).numerical_rank == 35

    def test_gap_ratio_is_noise_fraction(self):
        s = thin_svd(add_noise(self.base(), self.spec)).singular_values
        assert s[6] / s[5] == pytest.approx(0.3, rel=1e-10)
        np.testing.assert_allclose(s[6:], s[6], rtol=1e-10)

    def test_top_subspace_preserved(self):
        U, _, _ = low_rank_factors(replace(self.spec, noise=None))
        U_noisy = thin_svd(add_noise(self.base(), self.spec)).left_basis(6)
        # principal angles: all singular values of U^T U_noisy near 1
        overlap = np.linalg.svd(U.T @ U_noisy, compute_uv=False)
        assert overlap.min() > 1.0 - 1e-10

    def test_rejects_unit_fraction(self):
        with pytest.raises(ValueError):
            replace(self.spec, noise=1.0)

    def test_rejects_mismatched_matrix(self):
        with pytest.raises(ValueError):
            add_noise(self.base() + 1.0, self.spec)


def test_basis_aligned_matrix_properties():
    X = basis_aligned_matrix(10, 8, 3)
    assert thin_svd(X).numerical_rank == 3
    assert max_leverage(thin_svd(X).left_basis()) == 1.0
    assert mu0_coherence(thin_svd(X).left_basis()) == pytest.approx(10 / 3)


def test_basis_aligned_sampling_miss_costs_error():
    X = basis_aligned_matrix(12, 12, 4)
    sample = uniform_sample(X, 6, seed=8)
    if set(range(4)) <= set(sample.indices):
        pytest.skip("sample caught every basis column for this seed")
    assert column_projection(X, sample).normalized_error > 0.0


def test_adversarial_spsd_is_spsd_and_coherent():
    K = adversarial_spsd(80, seed=1, inflation=1e3)
    assert np.array_equal(K, K.T)
    eigs = np.linalg.eigvalsh(K)
    assert eigs.min() >= -1e-8 * eigs.max()
    top = thin_svd(K).U[:, :1]
    assert max_leverage(top) > 0.99


def test_adversarial_spsd_defeats_excluded_estimation():
    K = adversarial_spsd(400, seed=2, inflation=1e3, inner_dim=10)
    truth = estimate_coherence(K).gamma
    sample = exclusion_sample(K, 40, seed=3, excluded={0})
    est = estimate_coherence(sample.submatrix).gamma
    assert truth - est >= 0.9


def test_adversarial_spsd_validation():
    with pytest.raises(ValueError):
        adversarial_spsd(1, seed=0)
    with pytest.raises(ValueError):
        adversarial_spsd(10, seed=0, inflation=0.5)
