import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matcoh.linalg
from matcoh.coherence import basis_coherence, estimate_coherence
from matcoh.kernels import spectrum_energy_rank
from matcoh.linalg import left_svd, rank_threshold, thin_svd
from matcoh.lowrank import column_projection
from matcoh import synthetic
from matcoh.sampling import SplitMix64, uniform_sample
from matcoh.synthetic import (
    COHERENCE_MULTIPLIERS,
    DECAY_RATES,
    SynthSpec,
    add_noise,
    adversarial_spsd,
    basis_aligned_matrix,
    low_rank_factors,
    low_rank_matrix,
    singular_spectrum,
)

_EPS = np.finfo(np.float64).eps


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
    U = low_rank_factors(spec)[2].U
    # V is not returned: its columns are X's right singular vectors, up
    # to sign, as the spectrum has no ties.
    V = thin_svd(low_rank_matrix(spec)).V[:, :8]
    assert np.max(np.abs(U.T @ U - np.eye(8))) < 1e-12
    assert np.max(np.abs(V.T @ V - np.eye(8))) < 1e-12
    position = math.ceil(8 / 2) - 1
    assert U[0, position] == pytest.approx(8.0 / math.sqrt(80))
    assert abs(V[0, position]) == pytest.approx(8.0 / math.sqrt(70))


def test_low_coherence_stays_near_floor():
    # needs paper-sized rank: max leverage of a random completion
    # concentrates at (rank/n) * (1 + ~sqrt(8/rank))
    for n, r in ((1000, 50), (600, 60)):
        U = low_rank_factors(SynthSpec(n=n, m=n, rank=r, seed=3))[2].U
        assert basis_coherence(U).gamma <= 2 * r / n


def test_high_coherence_hits_multiplier_floor():
    U = low_rank_factors(
        SynthSpec(n=1000, m=1000, rank=50, coherence="high", seed=4)
    )[2].U
    assert basis_coherence(U).gamma >= 0.9 * 64 / 1000


@pytest.mark.parametrize("seed", [1, 7])
def test_coherence_level_ordering(seed):
    # low vs mid can invert by ~1e-4 of completion-leverage noise at
    # desk scale, hence the small slack
    gammas = [
        basis_coherence(low_rank_factors(
            SynthSpec(n=1000, m=1000, rank=50, coherence=level, seed=seed))[2].U).gamma
        for level in ("low", "mid", "high")
    ]
    assert gammas[0] <= gammas[1] + 1e-3
    assert gammas[1] <= gammas[2] + 1e-3


def test_generation_is_bit_deterministic():
    spec = SynthSpec(n=30, m=25, rank=6, coherence="mid", seed=11)
    np.testing.assert_array_equal(low_rank_matrix(spec), low_rank_matrix(spec))


@st.composite
def _specs(draw):
    """Specs of every shape, decay and coherence level, with and without
    noise, up to rank = min(n, m)."""
    coherence = draw(st.sampled_from(sorted(COHERENCE_MULTIPLIERS)))
    # The peaked entry multiplier / sqrt(min(n, m)) must stay <= 1.
    small = draw(st.integers(max(2, math.ceil(COHERENCE_MULTIPLIERS[coherence] ** 2)),
                             72))
    shape = draw(st.sampled_from(("wide", "tall", "square")))
    big = small if shape == "square" else small + draw(st.integers(1, 40))
    n, m = (big, small) if shape == "tall" else (small, big)
    rank = draw(st.one_of(st.just(small), st.integers(1, small)))
    return SynthSpec(n=n, m=m, rank=rank,
                     decay=draw(st.sampled_from(sorted(DECAY_RATES))),
                     coherence=coherence,
                     noise=draw(st.one_of(st.none(), st.floats(0.05, 0.5))),
                     seed=draw(st.integers(0, 2**32 - 1)))


def _truth(f, policy):
    """(truncation rank, gamma_true) of a factor, as the experiment takes them."""
    kind, value = policy
    r = spectrum_energy_rank(f.singular_values, value) if kind == "energy" else value
    basis = f.left_basis(r)
    return basis.shape[1], basis_coherence(basis).gamma


def _gap_tol(gap):
    """|Δgamma| allowed for a basis cut at relative spectral gap `gap`.

    Within 1e-10 where the cut is resolved. Below that, the SVD fixes
    the subspace only to about eps * s_1 / gap (Davis-Kahan), and the
    tolerance follows it.
    """
    return 1e-10 if gap >= 1e-6 else 100 * _EPS / gap


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_specs(),
       st.one_of(st.just(("none", None)),
                 st.tuples(st.just("explicit"), st.integers(1, 72)),
                 st.tuples(st.just("energy"), st.floats(0.5, 1.0))))
def test_generator_factor_matches_left_svd(spec, policy):
    X, gen = low_rank_matrix(spec), low_rank_factors(spec)[2]
    assert X.tobytes() == low_rank_matrix(spec).tobytes()
    got = left_svd(X)
    k = min(spec.n, spec.m)
    # The generator's spectrum, with the zeros it leaves out.
    s = np.zeros(k)
    s[:gen.singular_values.size] = gen.singular_values
    np.testing.assert_allclose(got.singular_values, s, rtol=0, atol=1e-12 * s[0])
    # Ranks compare where no value sits at a cut: the rank threshold, or
    # the energy fraction of the cumulative energy.
    tau = rank_threshold(s, X.shape)
    ranks_resolved = np.all(np.abs(gen.singular_values - tau) > 100 * _EPS * s[0])
    if ranks_resolved:
        assert got.numerical_rank == gen.numerical_rank
    (q_gen, gamma_gen), (q_got, gamma_got) = _truth(gen, policy), _truth(got, policy)
    if policy[0] == "energy":
        energy = np.cumsum(s * s)
        cut = policy[1] * energy[-1]
        i = int(np.argmax(energy >= cut))
        below = cut - energy[i - 1] if i else np.inf
        ranks_resolved &= min(energy[i] - cut, below) > 1e-10 * energy[-1]
    if spec.noise is not None and any(spec.rank < q < k for q in (q_gen, q_got)):
        # The cut splits the noise tail's tie: any top-q basis lies between
        # the structural subspace and the whole completed one.
        tail = s[spec.rank]
        tol = _gap_tol(min(s[spec.rank - 1] - tail, tail) / s[0])
        low = basis_coherence(gen.U[:, :spec.rank]).gamma
        high = basis_coherence(gen.U).gamma
        assert low - tol <= gamma_gen <= high + tol
        assert low - tol <= gamma_got <= high + tol
        return
    if not ranks_resolved:
        return
    assert q_got == q_gen
    gap = (s[q_gen - 1] - (s[q_gen] if q_gen < k else 0.0)) / s[0] if q_gen else 1.0
    assert abs(gamma_got - gamma_gen) <= _gap_tol(gap)


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


def _explicit_q_source(spec):
    """Oracle for a noisy source: (X, U, s, kappa) with V's completion
    formed as the explicit Q of [V | G], as the build did before it
    applied the completion through R alone.

    kappa is the condition number of [V | G] with unit columns (1 when V
    needs no completion), which bounds how far block @ inv(R) strays
    from the Householder Q.
    """
    rng = SplitMix64(spec.seed)
    U, s, V = synthetic._factors(spec, rng)
    k = min(spec.n, spec.m)
    kappa = 1.0

    def complete(B):
        nonlocal kappa
        rows, r = B.shape
        if r == k:
            return B
        block = np.concatenate([B, rng.normal_matrix(rows, k - r)], axis=1)
        kappa = np.linalg.cond(block / np.linalg.norm(block, axis=0))
        Q = np.linalg.qr(block)[0]
        return np.concatenate([B, Q[:, r:]], axis=1)

    U = complete(U)
    V = complete(V)
    s = np.concatenate([s, np.full(k - spec.rank, spec.noise * s[-1])])
    return (U * s) @ V.T, U, s, kappa


@st.composite
def _noisy_specs(draw):
    """Noisy specs that are wide, tall, square or have m = n + 1, with
    rank 1 and rank = min(n, m) (V not completed) drawn often."""
    coherence = draw(st.sampled_from(sorted(COHERENCE_MULTIPLIERS)))
    small = draw(st.integers(max(2, math.ceil(COHERENCE_MULTIPLIERS[coherence] ** 2)),
                             72))
    shape = draw(st.sampled_from(("wide", "tall", "square", "m = n + 1")))
    big = {"square": small, "m = n + 1": small + 1}.get(shape)
    if big is None:
        big = small + draw(st.integers(1, 40))
    n, m = (big, small) if shape == "tall" else (small, big)
    return SynthSpec(n=n, m=m,
                     rank=draw(st.one_of(st.just(1), st.just(small),
                                         st.integers(1, small))),
                     decay=draw(st.sampled_from(sorted(DECAY_RATES))),
                     coherence=coherence, noise=draw(st.floats(0.05, 0.5)),
                     seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_noisy_specs())
@example(SynthSpec(n=400, m=200, rank=20, decay="slow", noise=0.3, seed=0))
@example(SynthSpec(n=200, m=400, rank=20, decay="slow", noise=0.3, seed=0))
# [V | G] is square with condition number 1.1e5 here.
@example(SynthSpec(n=71, m=71, rank=1, decay="slow", noise=0.33550431996701147,
                   seed=3560167343))
# R of [V | G] comes from two and three row chunks here.
@example(SynthSpec(n=100, m=12000, rank=20, decay="slow", noise=0.3, seed=0))
@example(SynthSpec(n=64, m=20000, rank=1, coherence="high", noise=0.1, seed=1))
def test_noisy_source_matches_explicit_q_build(spec):
    X, f = low_rank_matrix(spec), low_rank_factors(spec)[2]
    X_ref, U_ref, s_ref, kappa = _explicit_q_source(spec)
    np.testing.assert_array_equal(f.U, U_ref)
    np.testing.assert_array_equal(f.singular_values, s_ref)
    # block @ inv(R) differs from the Householder Q by about eps * kappa;
    # up to kappa = 100 the bound is 1e-12.
    tol = 1e-12 * max(1.0, kappa / 100)
    assert np.max(np.abs(X - X_ref)) <= tol * np.max(np.abs(X))
    gram = f.U.T @ X
    gram = gram @ gram.T
    s1 = f.singular_values[0]
    assert np.max(np.abs(gram - np.diag(f.singular_values ** 2))) <= tol * s1 * s1


def test_noisy_build_takes_only_r_of_the_wide_block(linalg_calls, monkeypatch):
    # V's completion needs only R of the m x k block [V | G], and the wide
    # truth only R of Xᵀ. Neither forms an m x k Q, and no QR sees the
    # whole block: the build's rows below row k enter through the
    # Cholesky factor of their k x k Gram, and Xᵀ, whose head chunk below
    # row k already fails the Gram's certificate, is compressed in row
    # chunks instead, with no Gram of the rest and no Cholesky factor.
    spec = SynthSpec(n=30, m=200, rank=4, noise=0.2, seed=1)
    k, step = 30, 40
    monkeypatch.setattr(matcoh.linalg, "_R_CHUNK", step * k)
    X = low_rank_matrix(spec)
    build = list(linalg_calls)
    linalg_calls.clear()
    left_svd(X)
    # The only m-row Q is V's own m x rank basis, a factor of X.
    assert [shape for f, shape, mode in build if f == "qr" and mode != "r"
            and shape[0] == spec.m] == [(spec.m, spec.rank)]
    assert [(f, shape) for f, shape, mode in build
            if f == "cholesky" or mode == "r"] == [("cholesky", (k, k)), ("qr", (2 * k, k))]
    assert [f for f, _, _ in linalg_calls if f != "qr"] == ["eigvalsh"]
    assert all(mode == "r" for f, _, mode in linalg_calls if f == "qr")
    rows = [shape[0] for f, shape, _ in linalg_calls if f == "qr"]
    assert len(rows) > (spec.m - k) // step  # one QR per chunk, at least
    assert max(rows) <= step + k


def _product_operands(monkeypatch, spec):
    """(X, left, right) of `low_rank_matrix(spec)`: X and the two factors
    its streamed product `_product` formed it from."""
    seen = []
    product = synthetic._product

    def spy(left, right, X):
        # A noisy build's `right` lies in X and is written over.
        seen.append((left, np.copy(right, order="K")))
        return product(left, right, X)

    monkeypatch.setattr(synthetic, "_product", spy)
    X = low_rank_matrix(spec)
    assert len(seen) == 1
    return (X, *seen[0])


@pytest.mark.parametrize("n, m, rank", [
    (300, 10000, 20),   # wide: noisy_wide's source
    (2000, 600, 40),    # tall: synth_tall_sweep's source
    (800, 800, 20),     # square
])
@pytest.mark.parametrize("noise", [None, 0.1])
def test_streamed_product_equals_one_shot_product(monkeypatch, n, m, rank, noise):
    # Bit-identity is a property of the BLAS kernel. With OpenBLAS 0.3.31
    # it holds single-threaded on the SkylakeX, Haswell and SandyBridge
    # kernels and on SkylakeX with two threads; on Haswell with two
    # threads the last block of the 300 x 10 000 product moves by rounding.
    spec = SynthSpec(n=n, m=m, rank=rank, noise=noise, seed=3)
    X, left, right = _product_operands(monkeypatch, spec)
    assert m > max(1, synthetic._PRODUCT_CHUNK // n)  # several column blocks
    assert X.flags.f_contiguous
    assert np.array_equal(X, np.asfortranarray(left @ right.T))


@pytest.mark.parametrize("n, m, rank", [(1000, 300, 20), (1500, 700, 30),
                                        (700, 1500, 30)])
@pytest.mark.parametrize("noise", [None, 0.1])
def test_streamed_product_is_within_rounding_elsewhere(monkeypatch, n, m, rank, noise):
    # At these shapes the BLAS kernel sums some entries of the last column
    # block in another order than the one-shot product does. Each result
    # is within k * eps * (|left| |right|ᵀ) of the exact product, so they
    # differ by at most twice that.
    spec = SynthSpec(n=n, m=m, rank=rank, noise=noise, seed=3)
    X, left, right = _product_operands(monkeypatch, spec)
    bound = 2 * left.shape[1] * _EPS * (np.abs(left) @ np.abs(right).T)
    assert np.all(np.abs(X - left @ right.T) <= bound)


_PEAK_RSS_CHILD = """
from matcoh.synthetic import SynthSpec, low_rank_matrix

def status(key):
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1]) * 1024

low_rank_matrix(SynthSpec(n=30, m=200, rank=4, noise=0.2, seed=1))  # warm-up
before = status("VmRSS")
X = low_rank_matrix(SynthSpec(n=300, m=10000, rank=20, noise=0.1, seed=5))
print((status("VmHWM") - before) / X.nbytes)
"""


def _fresh_process_output(code):
    """Standard output of `code` run by a fresh, single-threaded Python
    that imports this checkout's package."""
    src = str(Path(matcoh.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_noisy_wide_build_holds_one_source_sized_array(linalg_calls):
    # [V | G] is drawn in chunks into X's own buffer, as the transpose of
    # its top k rows, R comes from the Gram of its rows below row k, and
    # X is formed over it a column block at a time: no
    # full-size uint64 block, no QR copy of [V | G], no C-ordered copy of
    # X and no [V | G] beside X. At the peak, X is the only array of its
    # size; a second one takes the peak past 2 X.nbytes.
    spec = SynthSpec(n=300, m=10000, rank=20, noise=0.1, seed=5)
    tracemalloc.start()
    try:
        X = low_rank_matrix(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The benchmark's noisy_wide source: [V | G] is 10 000 x 300, and its
    # rows below row 300, scaled to unit columns, have a Gram with
    # condition number about 2, far inside the certificate's bound. Its
    # R comes from one QR of the top 300 rows on the Cholesky factor.
    assert [shape for _, shape, mode in linalg_calls if mode == "r"] == [(600, 300)]
    # About 1.31 X.nbytes, set by that final QR; a top block of 600 rows
    # read 1.37, and [V | G] beside X 2.10.
    assert peak <= 1.35 * X.nbytes, peak / X.nbytes
    # tracemalloc misses LAPACK's buffers, so the same build runs again in
    # a fresh process, which measures its peak RSS above its start: about
    # 1.42 X.nbytes, 1.51 with a top block of 600 rows, and 2.25 with
    # [V | G] beside X.
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status to read the peak RSS from")
    rise = float(_fresh_process_output(_PEAK_RSS_CHILD).split()[-1])
    assert rise <= 1.9, rise


def test_tall_noisy_build_peak_holds():
    # On a tall source U, the folded left factor W and X are each of X's
    # size. W is formed in the buffer of U * s a block of rows at a time,
    # and the peak reads about 3.43 X.nbytes; a W formed beside U * s
    # takes it to 4.41.
    spec = SynthSpec(n=2000, m=600, rank=40, noise=0.1, seed=3)
    tracemalloc.start()
    try:
        X = low_rank_matrix(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * X.nbytes, peak / X.nbytes


def _two_array_source(spec):
    """Oracle for a noisy source: X formed as a fresh array from [V | G]
    held in its own m x k buffer, as the build did before it drew the
    block into X."""
    rng = SplitMix64(spec.seed)
    U, s, V = synthetic._factors(spec, rng)
    k = min(spec.n, spec.m)
    U = synthetic._complete_basis(U, k, rng)
    s = np.concatenate([s, np.full(k - spec.rank, spec.noise * s[-1])])
    block = synthetic._with_normal_columns(V, rng, np.empty((spec.m, k), order="F"))
    fold = np.linalg.solve(matcoh.linalg._r_factor(block), np.eye(k)[:, spec.rank:]).T
    left = U * s
    W = left[:, spec.rank:] @ fold
    W[:, :spec.rank] += left[:, :spec.rank]
    return synthetic._product(W, block, np.empty((spec.n, spec.m), order="F"))


# The matrix seeds the benchmark derives for noisy_wide from its seeds
# 300 and 7919.
@pytest.mark.parametrize("seed", [846566326, 14399832])
def test_noisy_wide_source_equals_two_array_build(seed):
    spec = SynthSpec(n=300, m=10000, rank=20, noise=0.1, seed=seed)
    X = low_rank_matrix(spec)
    assert X.flags.f_contiguous
    assert np.array_equal(X, _two_array_source(spec))


_WIDE_SVD_RSS_CHILD = """
import numpy as np
from matcoh.linalg import left_svd

def status(key):
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1]) * 1024

left_svd(np.random.default_rng(0).standard_normal((30, 200)))  # warm-up
X = np.random.default_rng(1).standard_normal((10000, 300)).T  # column-major
before = status("VmRSS")
left_svd(X)
print((status("VmHWM") - before) / X.nbytes)
"""


def test_wide_left_svd_rises_less_than_half_its_matrix():
    # R of Xᵀ for a well-conditioned 300 x 10 000 X comes from the Gram of
    # its rows below row 300 and one 600 x 300 QR, and copies no row
    # chunk: the peak RSS rises 0.39 X.nbytes, against 1.04 when every
    # chunk is copied twice by its own QR.
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status to read the peak RSS from")
    rise = float(_fresh_process_output(_WIDE_SVD_RSS_CHILD).split()[-1])
    assert rise <= 0.6, rise


def test_structural_rank_can_exceed_numerical_rank():
    # e^(-0.5 i) falls below the rank threshold 80 * eps * s_1 after
    # i = 64: the spec is accepted, and its numerical rank is 64.
    spec = SynthSpec(n=80, m=80, rank=70, decay="fast")
    X, f = low_rank_matrix(spec), low_rank_factors(spec)[2]
    assert f.singular_values.size == 70
    assert f.numerical_rank == 64
    assert left_svd(X).numerical_rank == 64


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
        U = low_rank_factors(replace(self.spec, noise=None))[2].U
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
    report = basis_coherence(thin_svd(X).left_basis())
    assert report.gamma == 1.0
    assert report.mu0 == pytest.approx(10 / 3)


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
    assert basis_coherence(top).gamma > 0.99


@pytest.mark.parametrize("n, inner_dim", [(400, 12), (301, 7), (200, None)])
def test_adversarial_spsd_has_the_symmetrized_bits(n, inner_dim):
    # The build once symmetrized K as (GᵀG + (GᵀG)ᵀ)/2 and copied it to
    # column-major order. GᵀG is exactly symmetric as numpy forms it, so
    # the one product gives the same bits.
    G = SplitMix64(5).normal_matrix(n if inner_dim is None else inner_dim, n)
    K = G.T @ G
    K = (K + K.T) / 2.0
    K[0, 0] = 1e3 * float(np.max(np.diagonal(K)))
    built = adversarial_spsd(n, seed=5, inner_dim=inner_dim)
    assert np.array_equal(built, np.asfortranarray(K))
    assert np.array_equal(built, built.T)
    assert built.flags.f_contiguous


def test_adversarial_spsd_holds_g_and_one_n_by_n_matrix():
    # Symmetrizing and then copying to column-major order peaked at
    # 3 n x n arrays.
    n = 1000
    tracemalloc.start()
    try:
        adversarial_spsd(n, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * n * n, peak / (8 * n * n)


def test_adversarial_spsd_defeats_excluded_estimation():
    K = adversarial_spsd(400, seed=2, inflation=1e3, inner_dim=10)
    truth = estimate_coherence(K).gamma
    sample = uniform_sample(K, 40, seed=3, excluded={0})
    est = estimate_coherence(sample.submatrix).gamma
    assert truth - est >= 0.9


@pytest.mark.parametrize("inflation", [math.inf, -math.inf, math.nan])
def test_adversarial_spsd_rejects_non_finite_inflation(inflation):
    with pytest.raises(ValueError, match="inflation"):
        adversarial_spsd(5, seed=0, inflation=inflation)


def test_adversarial_spsd_validation():
    with pytest.raises(ValueError):
        adversarial_spsd(1, seed=0)
    with pytest.raises(ValueError):
        adversarial_spsd(10, seed=0, inflation=0.5)
