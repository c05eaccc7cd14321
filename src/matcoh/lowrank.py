"""Column-sampled low-rank approximation of dense and SPSD matrices.

Two sampling-based approximations are provided. Column projection works
for any rectangular X: project X onto the span of the sampled columns,
U (Uᵀ X) for the rank-truncated left singular vectors U of the
subsample. The Nystrom reconstruction works for symmetric positive
semidefinite K: with K1 the sampled columns and W their row/column
intersection block, approximate K by K1 W⁺ K1ᵀ (Kumar, Mohri and
Talwalkar 2012), applied through the `eigh` factors of W⁺. Both cost
O(l^2 n) for l sampled columns, plus O(l n m) for the errors.

A result keeps its approximation factored, approx = left @ rightᵀ with
at most l columns in each factor, and forms the n x m product only when
`approx` is read. The Frobenius and normalized errors are computed with
the approximation, one column block of width l at a time, and the
symmetry check of Nystrom's input reads K in blocks of the same width,
so neither method forms an n x m temporary.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_dense, spsd_pinv_factor, thin_svd
from .sampling import ColumnSample

__all__ = [
    "SYMMETRY_TOL",
    "ApproximationResult",
    "column_projection",
    "nystrom",
]

# Entrywise tolerance for accepting an input as symmetric.
SYMMETRY_TOL = 1e-10


def _column_blocks(m, width):
    return (slice(j, j + width) for j in range(0, m, width))


@dataclass(frozen=True)
class ApproximationResult:
    """A low-rank approximation, kept factored, plus its error.

    The approximation is `left @ right.T`; `approx` forms it on first
    access and caches it. `normalized_error` is the Frobenius error
    divided by the Frobenius norm of the input (0/0 defined as 0), the
    scale-free quality metric used throughout the experiment suite.
    """

    left: np.ndarray
    right: np.ndarray
    method: str
    frobenius_error: float
    normalized_error: float

    def __post_init__(self):
        self.left.setflags(write=False)
        self.right.setflags(write=False)

    @cached_property
    def approx(self) -> np.ndarray:
        approx = self.left @ self.right.T
        approx.setflags(write=False)
        return approx


def _result(X, left, right, method, sample: ColumnSample) -> ApproximationResult:
    """The result, its errors summed over column blocks of width l."""
    squares = 0.0
    for cols in _column_blocks(X.shape[1], sample.size):
        # Column-major like X, so the sum of squares runs in one fixed order.
        block = np.subtract(X[:, cols], left @ right[cols].T, order="F")
        flat = block.ravel(order="K")
        squares += float(flat.dot(flat))
    frob = math.sqrt(squares)
    norm_x = float(np.linalg.norm(X))
    if norm_x > 0.0:
        normalized = frob / norm_x
    else:
        normalized = 0.0 if frob == 0.0 else float("inf")
    return ApproximationResult(left=left, right=right, method=method,
                               frobenius_error=frob, normalized_error=normalized)


def _check_sample(X, sample: ColumnSample):
    if sample.submatrix.shape[0] != X.shape[0]:
        raise ValueError(
            f"sample has {sample.submatrix.shape[0]} rows, matrix has {X.shape[0]}"
        )
    idx = list(sample.indices)
    if not idx:
        raise ValueError("sample has no columns")
    if min(idx) < 0 or max(idx) >= X.shape[1]:
        raise ValueError("sample indices out of range for this matrix")
    if not np.array_equal(X[:, idx], sample.submatrix):
        raise ValueError("sample columns do not match the given matrix")
    return idx


def column_projection(X, sample: ColumnSample, factor=None) -> ApproximationResult:
    """Project X onto the span of its sampled columns.

    The result is U (Uᵀ X) for the rank-truncated left singular vectors U
    of the subsample, so the residual is orthogonal to every sampled
    column. If the sample spans the full column space the projection
    reproduces X exactly. `factor` is a left factor of
    `sample.submatrix` that is already at hand: the experiment passes the
    `coherence.nested_factors` entry of the sample's size. Without one,
    the subsample takes its own `thin_svd`.
    """
    X = as_dense(X)
    _check_sample(X, sample)
    if factor is None:
        factor = thin_svd(sample.submatrix)
    U = factor.left_basis()
    return _result(X, U, (U.T @ X).T, "column_projection", sample)


def nystrom(K, sample: ColumnSample) -> ApproximationResult:
    """Nystrom reconstruction K1 pinv(W) K1^T of an SPSD matrix.

    K must be symmetric within SYMMETRY_TOL entrywise. W is the block of
    K at sampled rows x sampled columns (no physical permutation of K is
    performed). Its pseudoinverse U diag(d) Uᵀ comes from
    `linalg.spsd_pinv_factor`, cut at the shared rank threshold, so
    linearly dependent sampled columns are handled. The result is kept
    as (B diag(d)) Bᵀ with B = K1 U.
    """
    K = as_dense(K)
    if K.shape[0] != K.shape[1]:
        raise ValueError(f"matrix must be square, got {K.shape}")
    idx = _check_sample(K, sample)
    asym = max(float(np.max(np.abs(K[:, cols] - K[cols].T)))
               for cols in _column_blocks(K.shape[1], len(idx)))
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    U, inverse = spsd_pinv_factor(K[np.ix_(idx, idx)])
    B = sample.submatrix @ U
    return _result(K, B * inverse, B, "nystrom", sample)
