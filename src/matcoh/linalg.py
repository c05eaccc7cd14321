"""Dense linear-algebra primitives shared by the rest of the package.

All matrices are finite float64 arrays stored column-major, since every
algorithm in this package extracts and appends columns. The numerical
contracts (orthonormality, idempotence, rank thresholds) are centralized
here so that the higher-level modules agree on one set of tolerances.

`left_svd`, for the coherence truth, routes by structure: `eigh` if
SPSD, the SVD of Xᵀ's R factor if wide, else `thin_svd`. The R factor
of a tall matrix, here and in the noisy synthetic build, comes from
`_r_factor`, which copies no full-size block: the rows below row k
(k the width) enter through the Cholesky factor of their Gram where a
condition-number certificate holds, first on a head chunk of them and
then on all, and through a fold of row chunks' QRs elsewhere; both end
in one QR of the top k rows on those factors.
`spsd_pinv_factor`, the package's one pseudoinverse, takes the same
`eigh` route and keeps the result factored.

Where only the top r eigenpairs of an SPSD K are read (an explicit or
energy rank), `_spsd_top` takes them by block Krylov with Rayleigh–Ritz
(block Lanczos with full reorthogonalization; Golub and Underwood 1977,
Musco and Musco 2015) from a fixed SplitMix64 start block, so reruns
give the same bits. The space grows by `_TOP_BLOCK` columns a pass, at
one K @ Q of b columns each, not `eigh`'s O(n³), and K is read only
through those products and its shape. It stops one pass after each of
the top r Ritz pairs has ‖K u − θu‖ ≤ √n·eps·θ₁. An energy rank is read
from converged Ritz values only, against the total ‖K‖_F² given by the
caller (a run reads it once, `_squares`), through the one rule
`spectrum_energy_rank` also reads (`_energy_rank`). The helper gives up
(None, and the caller takes the dense `eigh`) where the certified gap
(θ_r − θ_{r+1} − res_{r+1})/θ₁ at the cut is below `_TOP_MIN_GAP` (a
Ritz basis is only as accurate as residual/gap, Davis and Kahan 1970),
where rounding of the total could move the energy cut, and where the
space reaches its cap before the top r settle.

The cap is min(0.6·n, 9·√n) columns, down to a multiple of b. The
columns a cut needs follow its spectrum more than n: over a
calibration sweep of RBF, polynomial, `worst_case` and spectral
matrices (n = 200–1000), every cut the subspace iteration this routine
replaced took converged within 120 columns at n = 200, 152 at n = 300
and 600 and 176 at n = 1000. A run to P columns reads K once a pass
(2n²P flops in all), reorthogonalizes (about 5nP²) and solves one Ritz
problem a pass (Σ p³ ≈ P⁴/4b), so against an `eigh`'s O(n³) it gets
cheaper as n grows. Measured on flat spectra that never converge, one
BLAS thread, a run to the cap cost 0.4 of one `eigh` of K at n = 4000,
0.7 at 2000 and 0.9–1.1 at 1000, but 1.9–3.4 (at most 80 ms) at
n = 160–500, where numpy's per-call cost of the small Ritz `eigh`s
dominates. A cut inside a cluster converges and then fails the gap
guard: a Ritz value bounds its eigenvalue only from below, so the gap
has no upper bound before the r-th pair converges, one pass before the
guard reads it.
"""

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ORTHONORMAL_TOL",
    "ZERO_SPECTRUM_FLOOR",
    "DecompositionError",
    "ThinSVD",
    "as_dense",
    "rank_threshold",
    "numerical_rank",
    "thin_svd",
    "left_svd",
    "spsd_pinv_factor",
    "projector",
    "orthonormality_defect",
]

# Entrywise tolerance for orthonormality and idempotence checks.
ORTHONORMAL_TOL = 1e-10
# Absolute rank-threshold floor used when the whole spectrum is zero.
ZERO_SPECTRUM_FLOOR = 1e-12
# Entries of A per row chunk that `_r_factor` compresses (4 MB of float64),
# the largest condition number of the Gram matrix (unit diagonal) of the
# rows below row k for which it takes their Cholesky factor, and,
# per row, the smallest squared column norm it takes: below it, products
# that underflow could move that Gram by more than eps of itself.
_R_CHUNK = 1 << 19
_R_MAX_GRAM_COND = 100.0
_R_MIN_SQUARE = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
# `_spsd_top`: the columns its Krylov space grows by a pass, the smallest
# certified relative gap at the cut, and the seed of the fixed start block.
_TOP_BLOCK = 8
_TOP_MIN_GAP = 3e-3
_TOP_SEED = 0


class DecompositionError(RuntimeError):
    """Raised when an underlying matrix factorization fails to converge."""


def as_dense(a) -> np.ndarray:
    """Coerce input to a finite float64 column-major matrix.

    1-D input is treated as a single column. Complex, empty input or any
    NaN/Inf entry raises ValueError: a cast to float64 would silently drop
    the imaginary parts.
    """
    m = np.asarray(a)
    if np.iscomplexobj(m):
        raise ValueError(f"matrix entries must be real, got dtype {m.dtype}")
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"empty matrix of shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return np.asfortranarray(m)


def rank_threshold(singular_values, shape) -> float:
    """Singular-value cutoff below which values count as numerically zero.

    Uses the standard SVD rank heuristic max(n, m) * sigma_1 * eps, with
    an absolute floor for identically zero spectra.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    largest = float(s[0]) if s.size else 0.0
    tau = max(shape) * largest * np.finfo(np.float64).eps
    return tau if tau > 0.0 else ZERO_SPECTRUM_FLOOR


def numerical_rank(singular_values, shape) -> int:
    """Count singular values strictly above `rank_threshold` at `shape`.

    `singular_values` must be sorted descending and non-negative.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    return int(np.count_nonzero(s > rank_threshold(s, shape)))


@dataclass(frozen=True)
class ThinSVD:
    """Thin singular value decomposition X = U diag(s) V^T.

    U is n x q and V is m x q (None from `left_svd`) with orthonormal
    columns, q = min(n, m), and the singular values are sorted descending.
    A factor built with its matrix (`synthetic.low_rank_source`) may hold
    only the q < min(n, m) columns of the nonzero singular values, and
    one from `_spsd_top` only the top r eigenpairs.
    `numerical_rank` is the count of singular values above the rank
    threshold; columns of U and V beyond it carry no spectral information.
    The arrays are made read-only.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray | None
    numerical_rank: int

    def __post_init__(self):
        for arr in (self.U, self.singular_values, self.V):
            if arr is not None:
                arr.setflags(write=False)

    def left_basis(self, rank=None) -> np.ndarray:
        """Leading left singular vectors, truncated to the numerical rank.

        An optional `rank` truncates further; it never extends past the
        numerical rank.
        """
        q = self.numerical_rank if rank is None else min(rank, self.numerical_rank)
        return self.U[:, :q]


def thin_svd(X) -> ThinSVD:
    """Thin SVD of a dense matrix with the package rank policy applied."""
    return _thin_svd(as_dense(X))


def _thin_svd(X) -> ThinSVD:
    """`thin_svd` of an X that `as_dense` has already checked."""
    try:
        U, s, Vh = np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed on {X.shape} matrix: {exc}") from exc
    return ThinSVD(U=U, singular_values=s, V=Vh.T,
                   numerical_rank=numerical_rank(s, X.shape))


def left_svd(X, spsd=False) -> ThinSVD:
    """`thin_svd` of X without forming V (None) on an SPSD or a wide X.

    `spsd` declares X symmetric positive semidefinite, untested: `eigh`,
    ordered by descending |eigenvalue| (stable sort). A wide X takes the
    SVD of the n x n Rᵀ of Xᵀ = QR (Chan 1982), with R taken from the
    Gram of Xᵀ's rows below row n where it is well-conditioned, and
    from row chunks of Xᵀ elsewhere (`_r_factor`). The rank threshold is
    X's.
    """
    X = as_dense(X)
    if spsd:
        w, U = _eigh_by_magnitude(X)
        s = np.abs(w)
    elif X.shape[0] >= X.shape[1]:
        return _thin_svd(X)
    else:
        try:
            R = _r_factor(X.T)
            U, s, _ = np.linalg.svd(R.T, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(
                f"factorization failed on {X.shape} matrix: {exc}") from exc
    return ThinSVD(U=U, singular_values=s, V=None,
                   numerical_rank=numerical_rank(s, X.shape))


def _r_factor(A) -> np.ndarray:
    """`np.linalg.qr(A, mode="r")` of a tall m x k A, up to rounding.

    Householder QR takes every pivot from A's top k rows, and an
    orthogonal map of the rows below changes neither those pivots nor
    the norms below them. So R, its diagonal signs included, is the R of
    A's top k rows stacked on any R of the rows below (TSQR; Demmel,
    Grigori, Hoemmen and Langou 2012). An A of at most one chunk of
    about `_R_CHUNK` entries below its top k rows takes the one QR.

    A taller A takes the R of its rows below row k from the Cholesky
    factor of their Gram matrix (CholeskyQR): BLAS-3 products over the
    rows in place, at half a QR's flops. Its error grows like eps·κ², κ
    the condition number of those rows with unit columns (Yamamoto,
    Nakatsukasa, Yanagisawa and Fukaya 2015), so it is taken only where
    a certificate holds: every column's squares neither vanish,
    underflow nor overflow, and κ², read off `eigvalsh` of the k x k
    Gram scaled to a unit diagonal, is at most `_R_MAX_GRAM_COND`. Over
    random, column-scaled and nearly parallel columns, R's largest error
    was then 0.04 of the m·eps·‖A‖₂ bound the tests hold it to (0.8 at
    κ² = 5000).

    The certificate is read first off the Gram of a head chunk of
    max(chunk, 4k) rows below row k, and only where that holds is the
    rest added and the whole certified, and only then factored. A
    low-rank-plus-noise matrix, the kind this package studies, fails at
    the head, so its fallback pays one chunk's Gram and one `eigvalsh`,
    not a Gram of all its rows. A head of fewer rows than the whole has
    the larger κ where the rows are alike (Gaussian rows: κ² ≈ 5.8 at
    5.8k rows, 2.0 over 9400), so a matrix just inside the bound can
    fail there and take the fold. 4k rows keep a Gaussian head near
    κ² = 9.

    Elsewhere (rank-deficient or ill-conditioned rows below, or a column
    that fails the scale test) the rows below row k are compressed one
    chunk at a time, and the chunks' R factors are folded into one once
    they pass a chunk's height. Either route ends in one QR of the top k
    rows stacked on the R factors of the rows below. No QR sees more
    than chunk + k rows, so the temporaries stay O(chunk) whatever m is,
    and no full-size copy of A is made.
    """
    m, k = A.shape
    step = max(k, _R_CHUNK // k)
    if m <= k + step:
        return np.linalg.qr(A, mode="r")
    # `stack` takes R factors, of at most k rows each, of the rows below.
    below, head, stack = A[k:], max(step, 4 * k), []
    with np.errstate(over="ignore"):  # an overflow fails the certificate
        gram = below[:head].T @ below[:head]  # SYRKs over views, no copy
        certified = _gram_certified(gram, m)
        if certified and len(below) > head:
            gram += below[head:].T @ below[head:]
            certified = _gram_certified(gram, m)
    with suppress(np.linalg.LinAlgError):  # not positive definite
        stack = [np.linalg.cholesky(gram).T] if certified else []
    if not stack:
        for i in range(0, len(below), step):
            stack.append(np.linalg.qr(below[i:i + step], mode="r"))
            if len(stack) * k > step:
                stack = [np.linalg.qr(np.vstack(stack), mode="r")]
    return np.linalg.qr(np.vstack([A[:k], *stack]), mode="r")


def _gram_certified(gram, m) -> bool:
    """Whether `_r_factor` of an m-row A may take the rows whose Gram
    matrix is `gram` through its Cholesky factor."""
    d = np.sqrt(np.diagonal(gram))
    # A zero column, or one whose squares underflow or overflow, fails.
    if np.all((d * d > m * _R_MIN_SQUARE) & (d < np.inf)):
        w = np.linalg.eigvalsh(gram / d / d[:, None])
        return bool(w[0] * _R_MAX_GRAM_COND >= w[-1])
    return False


def _spsd_top(K, rank=None, fraction=None, total=None):
    """(r, top-r `ThinSVD` with V None) of an SPSD K, or None for `eigh`.

    K is symmetric positive semidefinite and already checked (`as_dense`),
    and is read only through `K.shape` and `K @ block`. With `rank`, r is
    that rank; with `fraction`, r is the energy rank `spectrum_energy_rank`
    would give, against `total`, ‖K‖_F² given by the caller. Block Krylov
    with Rayleigh–Ritz (Golub and Underwood 1977): the basis V starts from
    a fixed SplitMix64 block of `_TOP_BLOCK` columns, and each pass appends
    K times the last block, projected off V and orthonormalized twice (full
    reorthogonalization), keeps K V beside V, and takes the Ritz pairs of
    Vᵀ K V by descending |θ| (stable sort). Under `fraction`, r is the
    energy rank of all Ritz values but the last, which lie below K's
    eigenvalues, so r is at or after K's cut until the top r converge, and
    K's cut then.

    The top r + 1 Ritz pairs get their residuals ‖K u − θu‖. Once the
    top r all meet √n·eps·θ₁, one more pass settles them: the smaller
    pairs still gain accuracy, and on the subspace iteration this
    routine replaced that pass cut the largest |Δγ| against `eigh` over
    87 RBF kernels from 1.8e-14 to 5e-16. The (r+1)-th pair need not
    converge; it enters only the gap. None in the cases the module
    docstring lists, and for a zero K. In exact arithmetic a Krylov
    space holds at most b copies of a repeated eigenvalue; with full
    reorthogonalization rounding re-seeds the rest. Measured, not
    proven: at n = 500, a top eigenvalue of 30 copies (b = 8) in a
    random and in the identity eigenbasis, a cut inside the tie
    declines, and cuts at its end and one past it are taken with every
    copy found (`test_spsd_top_finds_every_copy_of_an_exact_tie`).
    """
    from .sampling import SplitMix64  # sampling imports this module

    n, b = K.shape[0], _TOP_BLOCK
    cap = int(min(0.6 * n, 9.0 * n ** 0.5)) // b * b  # see the module docstring
    if (rank or b) + b >= cap:  # no room for the cut and a settling block
        return None
    if fraction is not None and total == 0.0:
        return None
    eps = np.finfo(np.float64).eps
    V = np.empty((n, cap), order="F")
    KV = np.empty((n, cap), order="F")
    T = np.zeros((cap, cap), order="F")  # Vᵀ K V, lower triangle
    block = SplitMix64(_TOP_SEED).normal_matrix(n, b)
    settled = False
    for p in range(b, cap + 1, b):
        q = p - b
        # Project off V and orthonormalize, twice: once the space is
        # nearly invariant a block's columns are nearly dependent, and
        # one QR of them lets V drift from orthonormal.
        for _ in range(2):
            block = block - V[:, :q] @ (V[:, :q].T @ block)
            block = np.linalg.qr(block)[0]
        V[:, q:p] = block
        KV[:, q:p] = K @ block
        T[q:p, :p] = KV[:, q:p].T @ V[:, :p]
        w, S = _eigh_by_magnitude(T[:p, :p])
        s = np.abs(w)
        # The (r+1)-th pair must be in the space.
        r = rank if fraction is None else _energy_rank(s[:p - 1], fraction,
                                                       total)
        if r is not None and r < p:
            U, KU = V[:, :p] @ S[:, :r + 1], KV[:, :p] @ S[:, :r + 1]
            res = np.linalg.norm(KU - U * w[:r + 1], axis=0)
            if np.all(res[:r] <= np.sqrt(n) * eps * s[0]):
                # r must not move when the total moves by its rounding,
                # n·eps of itself.
                if fraction is not None and any(
                        _energy_rank(s[:r], fraction, total * (1.0 + d)) != r
                        for d in (-n * eps, n * eps)):
                    return None
                if settled:
                    if not s[r - 1] - s[r] - res[r] > _TOP_MIN_GAP * s[0]:
                        return None
                    U, s = U[:, :r], s[:r]
                    return r, ThinSVD(U=U, singular_values=s, V=None,
                                      numerical_rank=numerical_rank(s, K.shape))
                settled = True
        block = KV[:, q:p]
    return None


def _squares(A):
    """‖A‖_F², summed in A's memory order as `np.linalg.norm(A)` sums it,
    so its square root is that norm bit for bit."""
    flat = A.ravel(order="K")
    return float(flat @ flat)


def _energy_rank(values, fraction, total=None):
    """Smallest r whose top-r `values` hold `fraction` of the energy.

    `values` are sorted by descending magnitude; energy is the cumulative
    sum of their squares, against `total` (by default all of it). 0 for a
    zero total; None where the values do not reach the cut.
    """
    energies = np.cumsum(values * values)
    total = float(energies[-1]) if total is None else total
    if total == 0.0:
        return 0
    reached = energies >= fraction * total
    return int(np.argmax(reached)) + 1 if reached[-1] else None


def _eigh_by_magnitude(X):
    """(w, U) of a symmetric X = U diag(w) Uᵀ, by descending |w| (stable sort)."""
    try:
        w, U = np.linalg.eigh(X)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigh failed on {X.shape} matrix: {exc}") from exc
    order = np.argsort(-np.abs(w), kind="stable")
    return w[order], U[:, order]


def spsd_pinv_factor(X):
    """(U, d) with pinv(X) = U diag(d) Uᵀ, for X declared SPSD, untested.

    X takes `left_svd`'s SPSD route, `eigh` by descending |eigenvalue|.
    The eigenpairs with |λ| above the rank threshold are kept, and
    d = 1/λ keeps the sign of each λ, so a rounding-negative eigenvalue
    is inverted as it is. Applying the factors rather than the n x n
    pseudoinverse keeps a small kept λ from magnifying rounding error.
    """
    X = as_dense(X)
    w, U = _eigh_by_magnitude(X)
    q = numerical_rank(np.abs(w), X.shape)
    return U[:, :q], 1.0 / w[:q]


def orthonormality_defect(U) -> float:
    """Max-entry deviation of U^T U from the identity."""
    U = np.asarray(U, dtype=np.float64)
    q = U.shape[1]
    if q == 0:
        return 0.0
    return float(np.max(np.abs(U.T @ U - np.eye(q))))


def _checked_basis(U) -> np.ndarray:
    """U as a float64 matrix (1-D as one column) with orthonormal columns."""
    U = np.asarray(U, dtype=np.float64)
    if U.ndim == 1:
        U = U.reshape(-1, 1)
    defect = orthonormality_defect(U)
    if defect > ORTHONORMAL_TOL:
        raise ValueError(f"basis columns are not orthonormal "
                         f"(defect {defect:.3e} > {ORTHONORMAL_TOL:.0e})")
    return U


def projector(U) -> np.ndarray:
    """Orthogonal projector U U^T onto the column span of U.

    U must have orthonormal columns (within ORTHONORMAL_TOL); a matrix
    with zero columns yields the zero projector.
    """
    U = _checked_basis(U)
    return U @ U.T
