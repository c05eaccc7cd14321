"""Reproducible generators for the synthetic experiment matrices.

Four families: exact low-rank matrices with an exponentially decaying
spectrum and a dialed-in coherence level and their noisy full-rank
extensions (both built by `low_rank_matrix` from one factor draw), the
basis-aligned matrix whose columns are standard basis vectors (the case
column sampling cannot recover), and an adversarial SPSD matrix with one
hugely inflated diagonal entry, exactly symmetric as built.

A low-rank matrix is built as X = U diag(s) Vᵀ from orthonormal U and V,
so its exact thin SVD exists before X does: `low_rank_source`, the one
builder, returns X with that left factor, and nothing factors X again.
`rank` is the structural rank, the number of structural singular
values. A fast decay can push the trailing ones below X's rank
threshold, and then the numerical rank is lower.

The noisy extension completes U and V to k = min(n, m) columns by QR
against seeded Gaussian columns G. U's completion is formed, since it is
the truth factor. V's is applied through the k x k R factor of
[V | G] and never formed: its columns are [V | G] inv(R)[:, r:], so a
triangular solve folds them into the n x k left factor, and no m x k Q
is built. X then differs from a build through the explicit Q by
rounding times the condition number of [V | G] with unit columns:
about 1e-16 of max|X| for a wide source (m >> k). For a tall or square
source [V | G] is square and its condition number has a heavy tail, so
the difference is mostly below 1e-13 of max|X| but reached 4.7e-12 at
condition number 1.1e5.

The build touches each large array once. G is drawn straight into the
column-major [V | G] buffer, a chunk of normals at a time. R is taken
from row chunks of [V | G] (`linalg._r_factor`), so no QR copies the
m x k block, and X is formed column-major from column blocks of the
product, on the exact path as on the noisy one. No full-size block of
random draws, no copy of [V | G] and no C-ordered copy of X is made:
at the peak, [V | G] and X are the only arrays of X's size.

Coherence is injected by hand-building one unit singular vector with a
peaked coordinate (multiplier / sqrt(n) at coordinate 0, the remaining
coordinates equal and renormalized) and completing it to an orthonormal
basis by QR against seeded Gaussian columns, as the noisy extension
does. The peaked vector sits at the ceil(rank/2)-th spectral position.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import ThinSVD, _r_factor, as_dense, numerical_rank
from .sampling import SplitMix64

__all__ = [
    "DECAY_RATES",
    "COHERENCE_MULTIPLIERS",
    "SynthSpec",
    "singular_spectrum",
    "low_rank_matrix",
    "low_rank_source",
    "add_noise",
    "basis_aligned_matrix",
    "adversarial_spsd",
]

DECAY_RATES = {"slow": 0.01, "medium": 0.1, "fast": 0.5}
COHERENCE_MULTIPLIERS = {"low": 1.0, "mid": 3.0, "high": 8.0}
# Entries of X per column block of `_product` (1 MB of float64), and
# the multiple of columns each block width is rounded to.
_PRODUCT_CHUNK = 1 << 17
_PRODUCT_ALIGN = 64


@dataclass(frozen=True)
class SynthSpec:
    """Declarative description of one synthetic low-rank matrix.

    `rank` is the structural rank: the number of structural singular
    values, not necessarily the numerical rank of the matrix (see
    `low_rank_source`). `noise`, when set, is the fraction of the
    smallest structural singular value given to every trailing singular
    value of the noisy extension; None means exactly low-rank.
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
    B = _complete_basis(v[:, None], rank, rng)
    order = list(range(1, rank))
    order.insert(position, 0)
    return np.asfortranarray(B[:, order])


def _factors(spec: SynthSpec, rng: SplitMix64):
    """(U, s, V) of `spec` without noise; U and V each hold a peaked vector."""
    multiplier = COHERENCE_MULTIPLIERS[spec.coherence]
    position = math.ceil(spec.rank / 2) - 1
    U = _basis_containing(_peaked_unit_vector(spec.n, multiplier),
                          spec.rank, position, rng)
    V = _basis_containing(_peaked_unit_vector(spec.m, multiplier),
                          spec.rank, position, rng)
    return U, singular_spectrum(spec), V


def low_rank_matrix(spec: SynthSpec) -> np.ndarray:
    """The matrix of `spec`, from one draw of its factors.

    U diag(s) V^T of structural rank `spec.rank` without noise. With it,
    the noisy extension: both bases are completed to orthogonal ones by
    QR on the same seeded stream, so the top-rank subspaces are
    unchanged. V's completion is applied through the R factor of that
    QR and never formed (see the module docstring for the rounding this
    costs against an explicit-Q build).
    """
    return low_rank_source(spec)[0]


def low_rank_source(spec: SynthSpec):
    """(X, its left factor): `low_rank_matrix(spec)` and a `ThinSVD` of it.

    The factor is the one X was built from, with V = None: U is n x rank
    without noise and the completed n x min(n, m) basis with it, where
    the singular values carry the equal noise tail. Its numerical rank
    is taken at X's shape, so it is below `spec.rank` when the trailing
    structural values fall under X's rank threshold (a fast decay at a
    rank near min(n, m)); an SVD of X finds the same lower rank. A rank
    that splits the noise tail's tie has no unique top subspace; the
    factor gives the generator's seeded one.
    """
    rng = SplitMix64(spec.seed)
    U, s, V = _factors(spec, rng)
    if spec.noise is None:
        left = U * s
    else:
        k = min(spec.n, spec.m)
        U = _complete_basis(U, k, rng)
        s = np.concatenate([s, np.full(k - spec.rank, spec.noise * s[-1])])
        left, V = _completed_product(U * s, V, rng)
    X = _product(left, V)
    for arr in (U, s):
        arr.setflags(write=False)
    return X, ThinSVD(U=U, singular_values=s, V=None,
                      numerical_rank=numerical_rank(s, X.shape))


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right.T, column-major, formed one block of columns at a time.

    No C-ordered n x m temporary is made and copied. Each block starts
    at a multiple of `_PRODUCT_ALIGN` columns, so every column sits at the
    same place within the BLAS kernel's unrolled panels as in the one-shot
    `left @ right.T`. At the benchmark's shapes, on one BLAS thread, the
    result is then bit-identical to it. At some other shapes the kernel
    sums entries of the last block in another order, and they differ by
    rounding.
    """
    n, m = left.shape[0], right.shape[0]
    X = np.empty((n, m), order="F")
    step = max(1, _PRODUCT_CHUNK // n // _PRODUCT_ALIGN) * _PRODUCT_ALIGN
    for j in range(0, m, step):
        X[:, j:j + step] = left @ right[j:j + step].T
    return X


def _with_normal_columns(B: np.ndarray, total: int, rng: SplitMix64) -> np.ndarray:
    """[B | G] column-major: B (n x r) and n x (total - r) seeded normals G.

    G holds `rng.normal_matrix(n, total - r)`, drawn straight into place.
    """
    n, r = B.shape
    block = np.empty((n, total), order="F")
    block[:, :r] = B
    rng._fill_normals(block[:, r:])
    return block


def _complete_basis(B: np.ndarray, total: int, rng: SplitMix64) -> np.ndarray:
    """Extend orthonormal B (n x r) to n x total, keeping B's columns."""
    r = B.shape[1]
    if total == r:
        return B
    Q = np.linalg.qr(_with_normal_columns(B, total, rng))[0]
    # QR reproduces B only up to sign and roundoff: keep B exactly and
    # take from Q only the new columns, which stay orthogonal to it.
    return np.concatenate([B, Q[:, r:total]], axis=1)


def _completed_product(left: np.ndarray, V: np.ndarray, rng: SplitMix64):
    """(W, block) with W @ block.T == left @ [V | V_perp].T.

    V_perp is the completion of the m x r orthonormal V to
    k = left.shape[1] columns that `_complete_basis(V, k, rng)` would
    form from the same draw: Q[:, r:] of the QR of block = [V | G], that
    is block @ inv(R)[:, r:]. The k x k triangular R alone applies it:
    inv(R)[:, r:] is folded into the n x k left factor, and no m x k Q
    is formed. R, with the one QR's diagonal signs, comes from row
    chunks of the block, so no QR copies it either; R then differs from
    the one QR's by rounding, and X by about 1e-16 of max|X|.
    """
    r = V.shape[1]
    k = left.shape[1]
    if k == r:
        return left, V
    block = _with_normal_columns(V, k, rng)
    R = _r_factor(block)
    # R is upper triangular, so LU with partial pivoting never swaps a
    # row and this is a triangular solve for the last k - r columns.
    W = left[:, r:] @ np.linalg.solve(R, np.eye(k)[:, r:]).T
    W[:, :r] += left[:, :r]
    return W, block


def add_noise(X, spec: SynthSpec) -> np.ndarray:
    """Full-rank noisy version of a generated low-rank matrix.

    X must be `spec`'s matrix with `noise=None`, to within 1e-10;
    returns `low_rank_matrix(spec)`, built from its own draw.
    """
    if spec.noise is None:
        raise ValueError("spec.noise must be set to add noise")
    X = as_dense(X)
    drift = float(np.max(np.abs(low_rank_matrix(replace(spec, noise=None)) - X)))
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
    `inflation` and writes it at (0, 0). numpy forms G^T G by a
    symmetric rank-k update, so K is exactly symmetric as built and its
    transpose is the same matrix, column-major, with no copy. Inflating
    a diagonal entry of an SPSD matrix keeps it SPSD, and the top
    eigenvector becomes essentially e_0, so the matrix has near-maximal
    coherence that a sampler excluding column 0 can never detect.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not math.isfinite(inflation):
        raise ValueError(f"inflation must be finite, got {inflation}")
    if inflation <= 1.0:
        raise ValueError("inflation must exceed 1")
    k = n if inner_dim is None else int(inner_dim)
    if k < 1:
        raise ValueError("inner_dim must be >= 1")
    G = SplitMix64(seed).normal_matrix(k, n)
    K = G.T @ G
    K[0, 0] = inflation * float(np.max(np.diagonal(K)))
    return K.T
