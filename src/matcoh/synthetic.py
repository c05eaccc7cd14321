"""Reproducible generators for the synthetic experiment matrices.

Four families: exact low-rank matrices with an exponentially decaying
spectrum and a dialed-in coherence level and their noisy full-rank
extensions (both built by `low_rank_matrix` from one factor draw), the
basis-aligned matrix whose columns are standard basis vectors (the case
column sampling cannot recover), and an adversarial SPSD matrix with one
hugely inflated diagonal entry, exactly symmetric as built.

A low-rank matrix is built as X = U diag(s) Vᵀ from orthonormal U and V,
so its exact thin SVD exists before X does. One factor step
(`_built_factor`, then `_completed_factors`) gives X as left @ rightᵀ
and the left factor X was built from: (U·s, V) for the exact kind, and
for the noisy kind the folded W and [V | G] below. `low_rank_factors`
returns that step's two factors and the left factor, so a reader of some
columns of X forms only those and nothing factors X, and
`low_rank_matrix` forms all of X from them in X's own buffer
(`_product`). Both take the same step on the same seeded stream, so X's
columns and the gathered products are the same product.
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

The build touches each large array once. [V | G] is drawn, G a chunk of
normals at a time, by the same fill (`_with_normal_columns`) that draws
[B | G] into a new array to complete a basis: by `low_rank_factors` into
an m x k array it returns, and by `low_rank_matrix` into the buffer X
will occupy, as the transpose of X's top k rows. R is taken from the
Gram of [V | G]'s rows below row k, or from row chunks where that Gram
is ill-conditioned (`linalg._r_factor`), so no QR copies the m x k
block. Every X is formed column-major, in place, from column blocks of
the product (`_product`); on a noisy build each block is written over
the columns of [V | G] it was formed from. No full-size block of random
draws, no copy of [V | G] and no C-ordered copy of X is made, and
[V | G] never sits beside X: on a wide source X is the only array of
its size. On a tall one the completed U and the folded left factor are
of X's size too, and the folded factor is formed in place. X is
allocated after U's completion, whose QR would otherwise add X to a
tall build's peak.

Coherence is injected by hand-building one unit singular vector with a
peaked coordinate (multiplier / sqrt(n) at coordinate 0, the remaining
coordinates equal and renormalized) and completing it to an orthonormal
basis by QR against seeded Gaussian columns, as the noisy extension
does. The peaked vector sits at the ceil(rank/2)-th spectral position.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import ThinSVD, _check_integer, _r_factor, as_dense, numerical_rank
from .sampling import SplitMix64

__all__ = [
    "DECAY_RATES",
    "COHERENCE_MULTIPLIERS",
    "SynthSpec",
    "singular_spectrum",
    "low_rank_matrix",
    "low_rank_factors",
    "add_noise",
    "basis_aligned_matrix",
    "adversarial_spsd",
]

DECAY_RATES = {"slow": 0.01, "medium": 0.1, "fast": 0.5}
COHERENCE_MULTIPLIERS = {"low": 1.0, "mid": 3.0, "high": 8.0}
# Entries per block of X's columns in `_product` and of the folded left
# factor's rows in `_completed_factors` (1 MB of float64), and the
# multiple of columns or rows each block is rounded to (`_aligned_step`).
_PRODUCT_CHUNK = 1 << 17
_PRODUCT_ALIGN = 64


@dataclass(frozen=True)
class SynthSpec:
    """Declarative description of one synthetic low-rank matrix.

    `rank` is the structural rank: the number of structural singular
    values, not necessarily the numerical rank of the matrix (see
    `low_rank_factors`). `noise`, when set, is the fraction of the
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
        for name in ("n", "m", "rank"):
            _check_integer(name, getattr(self, name))
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
    peak = multiplier / math.sqrt(n)  # at most 1: `SynthSpec` checks it
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
    costs against an explicit-Q build). Its left factor is
    `low_rank_factors(spec)[2]`.
    """
    rng = SplitMix64(spec.seed)
    factor, V = _built_factor(spec, rng)
    # After U's completion, whose QR would add X to a tall build's peak,
    # and before [V | G], which is drawn into X's top rows.
    X = np.empty((spec.n, spec.m), order="F")
    top = X[:factor.U.shape[1]].T
    return _product(*_completed_factors(factor, V, rng, top), X)


def low_rank_factors(spec: SynthSpec):
    """(left, right, factor): `low_rank_matrix(spec)` is left @ right.T.

    Without noise, left is U * s and right is V, of `spec.rank` columns.
    With it, left is the n x k folded factor and right the m x k
    [V | G], k = min(n, m) (U * s and V again at full rank). `factor` is
    the `ThinSVD` X was built from, with V = None: U is n x rank without
    noise and the completed n x min(n, m) basis with it, where the
    singular values carry the equal noise tail. Its numerical rank is
    taken at X's shape, so it is below `spec.rank` when the trailing
    structural values fall under X's rank threshold (a fast decay at a
    rank near min(n, m)); an SVD of X finds the same lower rank. A rank
    that splits the noise tail's tie has no unique top subspace; the
    factor gives the generator's seeded one. Column j of X is
    left @ right[j], so a reader of some columns forms only those:
    `left @ right[indices].T`. At the benchmark's shapes a block of five
    or more columns equals those columns of `low_rank_matrix(spec)` bit
    for bit; a narrower one, or one at another shape, is within rounding
    of the same product.
    """
    rng = SplitMix64(spec.seed)
    factor, V = _built_factor(spec, rng)
    return (*_completed_factors(factor, V, rng, None), factor)


def _built_factor(spec: SynthSpec, rng: SplitMix64):
    """(factor, V): the `ThinSVD` X is built from, and X's right basis V.

    A noisy spec completes U to min(n, m) columns and extends s by its
    equal tail; V is completed later, through R (`_completed_factors`).
    """
    U, s, V = _factors(spec, rng)
    if spec.noise is not None:
        k = min(spec.n, spec.m)
        U = _complete_basis(U, k, rng)
        s = np.concatenate([s, np.full(k - spec.rank, spec.noise * s[-1])])
    return ThinSVD(U=U, singular_values=s, V=None,
                   numerical_rank=numerical_rank(s, (spec.n, spec.m))), V


def _aligned_step(length: int) -> int:
    """Vectors of `length` entries per block: about `_PRODUCT_CHUNK`
    entries in all, in a multiple of `_PRODUCT_ALIGN` vectors."""
    return max(1, _PRODUCT_CHUNK // length // _PRODUCT_ALIGN) * _PRODUCT_ALIGN


def _product(left: np.ndarray, right: np.ndarray, X: np.ndarray) -> np.ndarray:
    """left @ right.T, written into the n x m column-major X one block of
    columns at a time.

    No C-ordered n x m temporary is made and copied. Each block starts
    at a multiple of `_PRODUCT_ALIGN` columns, so every column sits at the
    same place within the BLAS kernel's unrolled panels as in the one-shot
    `left @ right.T`. At the benchmark's shapes, on one BLAS thread, the
    result is then bit-identical to it. At some other shapes the kernel
    sums entries of the last block in another order, and they differ by
    rounding.

    `right` may lie in X, as the transpose of rows of X: each block of
    columns reads only the same columns of X, and its product is
    complete before it is written over them.
    """
    step = _aligned_step(X.shape[0])
    for j in range(0, X.shape[1], step):
        X[:, j:j + step] = left @ right[j:j + step].T
    return X


def _with_normal_columns(B: np.ndarray, rng: SplitMix64, block: np.ndarray) -> np.ndarray:
    """`block` (n x total) filled with [B | G]: B (n x r) and n x (total - r)
    seeded normals G.

    G holds `rng.normal_matrix(n, total - r)`, drawn straight into place.
    """
    r = B.shape[1]
    block[:, :r] = B
    rng._fill_normals(block[:, r:])
    return block


def _complete_basis(B: np.ndarray, total: int, rng: SplitMix64) -> np.ndarray:
    """Extend orthonormal B (n x r) to n x total, keeping B's columns."""
    n, r = B.shape
    if total == r:
        return B
    Q = np.linalg.qr(_with_normal_columns(B, rng, np.empty((n, total), order="F")))[0]
    # QR reproduces B only up to sign and roundoff: keep B exactly and
    # take from Q only the new columns, which stay orthogonal to it.
    return np.concatenate([B, Q[:, r:total]], axis=1)


def _completed_factors(factor: ThinSVD, V: np.ndarray, rng: SplitMix64,
                       out) -> tuple:
    """(left, right) with left @ right.T = (U * s) @ [V | V_perp].T, for
    the `factor` (U, s) built with V.

    Where U has V's r columns (an exact source, or a noisy one of full
    rank) there is nothing to complete, and they are (U * s, V).

    Otherwise V_perp is the completion of the m x r orthonormal V to
    k = U.shape[1] columns that `_complete_basis(V, k, rng)` would
    form from the same draw: Q[:, r:] of the QR of block = [V | G], that
    is block @ inv(R)[:, r:]. The k x k triangular R alone applies it:
    inv(R)[:, r:] is folded into the n x k left factor W, and no m x k Q
    is formed. R, with the one QR's diagonal signs, comes from
    `_r_factor`: the Cholesky factor of the Gram of the rows below the
    block's row k, or row chunks, so no QR copies the block either; R
    then differs from the one QR's by rounding, and X by about 1e-16 of
    max|X|. They are (W, block), the block drawn into `out` (a new
    m x k array if None).

    W is formed after R, in the buffer of U * s, a block of rows at a
    time: each row of W reads only its own row of U * s.
    """
    U, s = factor.U, factor.singular_values
    n, k = U.shape
    m, r = V.shape
    if k == r:
        return U * s, V
    block = _with_normal_columns(V, rng, np.empty((m, k)) if out is None else out)
    # R is upper triangular, so LU with partial pivoting never swaps a
    # row and this is a triangular solve for the last k - r columns.
    fold = np.linalg.solve(_r_factor(block), np.eye(k)[:, r:]).T
    W = U * s
    step = _aligned_step(k)
    folded = np.empty((min(step, n), k))
    for i in range(0, n, step):
        rows = W[i:i + step]
        part = folded[:len(rows)]
        np.matmul(rows[:, r:], fold, out=part)
        part[:, :r] += rows[:, :r]
        rows[...] = part
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
    _check_integer("rank", rank)
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
    coherence that a sampler excluding column 0 can never detect. An
    `inflation` whose product with that entry overflows float64 is
    rejected.
    """
    _check_integer("n", n)
    if n < 2:
        raise ValueError("need n >= 2")
    if not math.isfinite(inflation):
        raise ValueError(f"inflation must be finite, got {inflation}")
    if inflation <= 1.0:
        raise ValueError("inflation must exceed 1")
    k = n if inner_dim is None else inner_dim
    _check_integer("inner_dim", k)
    if k < 1:
        raise ValueError("inner_dim must be >= 1")
    G = SplitMix64(seed).normal_matrix(k, n)
    K = G.T @ G
    largest = float(np.max(np.diagonal(K)))
    if not math.isfinite(inflation * largest):
        raise ValueError(f"inflation {inflation:g} times the largest diagonal "
                         f"entry ({largest:.6g}) overflows float64")
    K[0, 0] = inflation * largest
    return K.T
