"""Reproducible generators for the synthetic experiment matrices.

Four families: exact low-rank matrices with an exponentially decaying
spectrum and a dialed-in coherence level and their noisy full-rank
extensions (both built by `low_rank_matrix` from one factor draw), the
basis-aligned matrix whose columns are standard basis vectors (the case
column sampling cannot recover), and an adversarial SPSD matrix with one
hugely inflated diagonal entry.

Coherence is injected by hand-building one unit singular vector with a
peaked coordinate (multiplier / sqrt(n) at coordinate 0, the remaining
coordinates equal and renormalized) and completing it to an orthonormal
basis by QR against seeded Gaussian columns. The peaked vector is placed
at the ceil(rank/2)-th spectral position.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_dense
from .sampling import SplitMix64

__all__ = [
    "DECAY_RATES",
    "COHERENCE_MULTIPLIERS",
    "SynthSpec",
    "singular_spectrum",
    "low_rank_factors",
    "low_rank_matrix",
    "add_noise",
    "basis_aligned_matrix",
    "adversarial_spsd",
]

DECAY_RATES = {"slow": 0.01, "medium": 0.1, "fast": 0.5}
COHERENCE_MULTIPLIERS = {"low": 1.0, "mid": 3.0, "high": 8.0}


@dataclass(frozen=True)
class SynthSpec:
    """Declarative description of one synthetic low-rank matrix.

    `noise`, when set, is the fraction of the smallest structural
    singular value given to every trailing singular value of the noisy
    extension; None means exactly low-rank.
    """

    n: int
    m: int
    rank: int
    decay: str = "medium"
    coherence: str = "low"
    noise: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1 or self.rank > min(self.n, self.m):
            raise ValueError(f"rank {self.rank} out of range for {self.n}x{self.m}")
        if self.decay not in DECAY_RATES:
            raise ValueError(f"unknown decay {self.decay!r}")
        if self.coherence not in COHERENCE_MULTIPLIERS:
            raise ValueError(f"unknown coherence level {self.coherence!r}")
        if self.noise is not None and not 0.0 < self.noise < 1.0:
            raise ValueError(f"noise fraction must be in (0, 1), got {self.noise}")
        peak = COHERENCE_MULTIPLIERS[self.coherence] / math.sqrt(min(self.n, self.m))
        if peak > 1.0:
            raise ValueError(
                f"coherence multiplier infeasible: peak component {peak:.3f} > 1"
            )


def singular_spectrum(spec: SynthSpec) -> np.ndarray:
    """Structural singular values exp(-i * eta), i = 1..rank."""
    eta = DECAY_RATES[spec.decay]
    return np.exp(-eta * np.arange(1, spec.rank + 1))


def _peaked_unit_vector(n: int, multiplier: float) -> np.ndarray:
    peak = multiplier / math.sqrt(n)
    if peak > 1.0:
        raise ValueError(f"multiplier {multiplier} infeasible for n={n}")
    v = np.empty(n)
    v[0] = peak
    if n > 1:
        v[1:] = math.sqrt((1.0 - peak * peak) / (n - 1))
    return v


def _basis_containing(v: np.ndarray, rank: int, position: int,
                      rng: SplitMix64) -> np.ndarray:
    """Orthonormal n x rank basis with `v` exactly at column `position`."""
    n = v.shape[0]
    block = np.empty((n, rank), order="F")
    block[:, 0] = v
    if rank > 1:
        block[:, 1:] = rng.normal_matrix(n, rank - 1)
    Q = np.linalg.qr(block)[0]
    # QR reproduces the leading column only up to sign and roundoff;
    # write the exact vector back (the rest stay orthogonal to it).
    Q[:, 0] = v
    order = list(range(1, rank))
    order.insert(position, 0)
    return np.asfortranarray(Q[:, order])


def low_rank_factors(spec: SynthSpec):
    """(U, s, V) factors of the exactly low-rank matrix for `spec`.

    U and V are built independently from the same seeded stream, each
    containing its own peaked coherence vector. `spec.noise` is ignored.
    """
    return _factors(spec, SplitMix64(spec.seed))


def _factors(spec: SynthSpec, rng: SplitMix64):
    multiplier = COHERENCE_MULTIPLIERS[spec.coherence]
    position = math.ceil(spec.rank / 2) - 1
    U = _basis_containing(_peaked_unit_vector(spec.n, multiplier),
                          spec.rank, position, rng)
    V = _basis_containing(_peaked_unit_vector(spec.m, multiplier),
                          spec.rank, position, rng)
    return U, singular_spectrum(spec), V


def low_rank_matrix(spec: SynthSpec) -> np.ndarray:
    """The matrix of `spec`, from one draw of its factors.

    Exactly rank `spec.rank` (U diag(s) V^T) without noise. With it, the
    noisy extension: both bases are completed to orthogonal ones by QR
    on the same seeded stream, so the top-rank subspaces are unchanged.
    """
    rng = SplitMix64(spec.seed)
    U, s, V = _factors(spec, rng)
    if spec.noise is not None:
        k = min(spec.n, spec.m)
        U = _complete_basis(U, k, rng)
        V = _complete_basis(V, k, rng)
        s = np.concatenate([s, np.full(k - spec.rank, spec.noise * s[-1])])
    return np.asfortranarray((U * s) @ V.T)


def _complete_basis(B: np.ndarray, total: int, rng: SplitMix64) -> np.ndarray:
    """Extend orthonormal B (n x r) to n x total, keeping B's columns."""
    n, r = B.shape
    if total == r:
        return B
    block = np.concatenate([B, rng.normal_matrix(n, total - r)], axis=1)
    Q = np.linalg.qr(block)[0]
    return np.concatenate([B, Q[:, r:total]], axis=1)


def add_noise(X, spec: SynthSpec) -> np.ndarray:
    """Full-rank noisy version of a generated low-rank matrix.

    X must be the noiseless matrix of `spec`; returns `low_rank_matrix(spec)`.
    """
    if spec.noise is None:
        raise ValueError("spec.noise must be set to add noise")
    X = as_dense(X)
    U, s, V = low_rank_factors(spec)
    drift = float(np.max(np.abs((U * s) @ V.T - X)))
    if drift > 1e-10:
        raise ValueError(
            f"matrix does not match the factors generated for this SynthSpec "
            f"(drift {drift:.3e})"
        )
    return low_rank_matrix(spec)


def basis_aligned_matrix(n: int, m: int, rank: int) -> np.ndarray:
    """n x m matrix whose first `rank` columns are e_1..e_rank, rest zero.

    Rank `rank` with maximally coherent singular vectors: a column sample
    that misses any of the basis columns cannot see that direction at
    all.
    """
    if rank < 1 or rank > min(n, m):
        raise ValueError(f"rank {rank} out of range for {n}x{m}")
    X = np.zeros((n, m), order="F")
    X[np.arange(rank), np.arange(rank)] = 1.0
    return X


def adversarial_spsd(n: int, seed: int, inflation: float = 1e3,
                     inner_dim: int | None = None) -> np.ndarray:
    """Random SPSD matrix with its (0, 0) entry inflated far above the rest.

    Builds G^T G for a seeded Gaussian G (inner_dim x n, default n x n)
    and then multiplies the largest existing diagonal entry by
    `inflation` and writes it at (0, 0). Inflating a diagonal entry of
    an SPSD matrix keeps it SPSD, and the top eigenvector becomes
    essentially e_0, so the matrix has near-maximal coherence that a
    sampler excluding column 0 can never detect.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if inflation <= 1.0:
        raise ValueError("inflation must exceed 1")
    k = n if inner_dim is None else int(inner_dim)
    if k < 1:
        raise ValueError("inner_dim must be >= 1")
    rng = SplitMix64(seed)
    G = rng.normal_matrix(k, n)
    K = G.T @ G
    K = (K + K.T) / 2.0
    K[0, 0] = inflation * float(np.max(np.diagonal(K)))
    return np.asfortranarray(K)
