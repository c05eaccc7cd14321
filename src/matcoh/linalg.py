"""Dense linear-algebra primitives shared by the rest of the package.

All matrices are finite float64 arrays stored column-major, since every
algorithm in this package extracts and appends columns. The numerical
contracts (orthonormality, idempotence, rank thresholds) are centralized
here so that the higher-level modules agree on one set of tolerances.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ORTHONORMAL_TOL",
    "RECONSTRUCTION_TOL",
    "ZERO_SPECTRUM_FLOOR",
    "DecompositionError",
    "ThinSVD",
    "as_dense",
    "rank_threshold",
    "numerical_rank",
    "thin_svd",
    "pseudoinverse",
    "projector",
    "orthonormality_defect",
]

# Entrywise tolerance for orthonormality and idempotence checks.
ORTHONORMAL_TOL = 1e-10
# Relative Frobenius tolerance for the SVD reconstruction invariant.
RECONSTRUCTION_TOL = 1e-10
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

    U is n x q and V is m x q with orthonormal columns, q = min(n, m),
    and the singular values are sorted descending. `numerical_rank` is
    the count of singular values above the rank threshold; columns of U
    and V beyond it do not carry spectral information.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray
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
    X = as_dense(X)
    try:
        U, s, Vh = np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed on {X.shape} matrix: {exc}") from exc
    rank = numerical_rank(s, X.shape)
    for arr in (U, s, Vh):
        arr.setflags(write=False)
    return ThinSVD(U=U, singular_values=s, V=Vh.T, numerical_rank=rank)


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


def orthonormality_defect(U) -> float:
    """Max-entry deviation of U^T U from the identity."""
    U = np.asarray(U, dtype=np.float64)
    q = U.shape[1]
    if q == 0:
        return 0.0
    return float(np.max(np.abs(U.T @ U - np.eye(q))))


def projector(U) -> np.ndarray:
    """Orthogonal projector U U^T onto the column span of U.

    U must have orthonormal columns (within ORTHONORMAL_TOL); a matrix
    with zero columns yields the zero projector.
    """
    U = np.asarray(U, dtype=np.float64)
    if U.ndim == 1:
        U = U.reshape(-1, 1)
    defect = orthonormality_defect(U)
    if defect > ORTHONORMAL_TOL:
        raise ValueError(
            f"columns are not orthonormal (defect {defect:.3e} > {ORTHONORMAL_TOL:.0e})"
        )
    if U.shape[1] == 0:
        return np.zeros((U.shape[0], U.shape[0]))
    return U @ U.T
