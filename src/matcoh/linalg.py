"""Dense linear-algebra primitives shared by the rest of the package.

All matrices are finite float64 arrays stored column-major, since every
algorithm in this package extracts and appends columns. The numerical
contracts (orthonormality, idempotence, rank thresholds) are centralized
here so that the higher-level modules agree on one set of tolerances.

`left_svd`, for the coherence truth, routes by structure: `eigh` if
SPSD, the SVD of Xᵀ's R factor if wide, else `thin_svd`.
`spsd_pinv_factor` takes the same `eigh` route to a factored pseudoinverse.
"""

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
    "pseudoinverse",
    "spsd_pinv_factor",
    "projector",
    "orthonormality_defect",
]

# Entrywise tolerance for orthonormality and idempotence checks.
ORTHONORMAL_TOL = 1e-10
# Absolute rank-threshold floor used when the whole spectrum is zero.
ZERO_SPECTRUM_FLOOR = 1e-12


class DecompositionError(RuntimeError):
    """Raised when an underlying matrix factorization fails to converge."""


def as_dense(a) -> np.ndarray:
    """Coerce input to a finite float64 column-major matrix.

    1-D input is treated as a single column. Empty input or any NaN/Inf
    entry raises ValueError.
    """
    m = np.asarray(a, dtype=np.float64)
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


def numerical_rank(singular_values, shape=None, threshold=None) -> int:
    """Count singular values strictly above the rank threshold.

    `singular_values` must be sorted descending and non-negative. Either
    an explicit `threshold` or the matrix `shape` (for the default
    policy) must be supplied.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    if threshold is None:
        if shape is None:
            raise ValueError("need either a shape or an explicit threshold")
        threshold = rank_threshold(s, shape)
    return int(np.count_nonzero(s > threshold))


@dataclass(frozen=True)
class ThinSVD:
    """Thin singular value decomposition X = U diag(s) V^T.

    U is n x q and V is m x q (None from `left_svd`) with orthonormal
    columns, q = min(n, m), and the singular values are sorted descending.
    A factor built with its matrix (`synthetic.low_rank_source`) may hold
    only the q < min(n, m) columns of the nonzero singular values.
    `numerical_rank` is the count of singular values above the rank
    threshold; columns of U and V beyond it carry no spectral information.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray | None
    numerical_rank: int

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
    rank = numerical_rank(s, X.shape)
    for arr in (U, s, Vh):
        arr.setflags(write=False)
    return ThinSVD(U=U, singular_values=s, V=Vh.T, numerical_rank=rank)


def left_svd(X, spsd=False) -> ThinSVD:
    """`thin_svd` of X without forming V (None) on an SPSD or a wide X.

    `spsd` declares X symmetric positive semidefinite, untested: `eigh`,
    ordered by descending |eigenvalue| (stable sort). A wide X takes the
    SVD of the n x n Rᵀ of Xᵀ = QR (Chan 1982). The rank threshold is X's.
    """
    X = as_dense(X)
    if spsd:
        w, U = _eigh_by_magnitude(X)
        s = np.abs(w)
    elif X.shape[0] >= X.shape[1]:
        return _thin_svd(X)
    else:
        try:
            R = np.linalg.qr(X.T, mode="r")
            U, s, _ = np.linalg.svd(R.T, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(
                f"factorization failed on {X.shape} matrix: {exc}") from exc
    for arr in (U, s):
        arr.setflags(write=False)
    return ThinSVD(U=U, singular_values=s, V=None,
                   numerical_rank=numerical_rank(s, X.shape))


def _eigh_by_magnitude(X):
    """(w, U) of a symmetric X = U diag(w) Uᵀ, by descending |w| (stable sort)."""
    try:
        w, U = np.linalg.eigh(X)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigh failed on {X.shape} matrix: {exc}") from exc
    order = np.argsort(-np.abs(w), kind="stable")
    return w[order], U[:, order]


def pseudoinverse(X) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the thin SVD.

    Singular values at or below the rank threshold are treated as exactly
    zero, so rank-deficient inputs are handled without blow-up.
    """
    f = thin_svd(X)
    s = f.singular_values
    inv = np.zeros_like(s)
    # s is descending, so the values above the threshold are a prefix.
    inv[:f.numerical_rank] = 1.0 / s[:f.numerical_rank]
    return (f.V * inv) @ f.U.T


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
