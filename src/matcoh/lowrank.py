"""Column-sampled low-rank approximation of dense and SPSD matrices.

Two sampling-based approximations are provided. Column projection works
for any rectangular X: project X onto the span of the sampled columns,
U (Uᵀ X) for the rank-truncated left singular vectors U of the
subsample. The Nystrom reconstruction works for symmetric positive
semidefinite K: with K1 the sampled columns and W their row/column
intersection block, approximate K by K1 W⁺ K1ᵀ (Kumar, Mohri and
Talwalkar 2012), applied through the `eigh` factors of W⁺, cut at the
shared rank threshold.

Column projection takes U as Q_k W, from the Householder QR
Q = I - V T Vᵀ of the sample (the sweep's core that
`coherence.nested_factors` wraps, O(n l²)) and
the SVD of its k x l R block, k = min(n, l), with W the k x q core
basis. Its error comes from one pass of Q over X, Y = Qᵀ X formed a
column block at a time at 4 n k m flops:
‖X - U Uᵀ X‖_F² = ‖Y[k:]‖² + ‖(I - W Wᵀ) Y[:k]‖², sums of squares
with nothing to cancel, the second 0 where q = k. The first k columns
of one sweep's Q are each prefix's Q_k, so suffix sums of Y's row
squares give every size's first term: a run pays one pass of O(n m L)
per trial for all its sizes, not O(n m l) per size, and never forms U
or Uᵀ X. A public call reads Uᵀ X = Wᵀ Y[:k] off its pass. Nystrom
costs one `eigh` of W, O(l³), B = K1 U at O(n l q), and a sum over the
residual K - B diag(d) Bᵀ, which is symmetric, so only its block-lower
half is formed: O(n² q / 2), column blocks of width l.

A result keeps its approximation factored, approx = left @ rightᵀ with
at most l columns in each factor, and forms the n x m product only when
`approx` is read. Both errors are summed one column block at a time,
and the symmetry check of Nystrom's input reads K's block-lower part
in blocks of width l, so no method call forms an n x m temporary. A
run (`experiment`) takes ‖K‖_F once and calls the same private cores as
`column_projection` and `nystrom`, each of which has one error path; its
K is built exactly symmetric, so only the public `nystrom` checks the
symmetry of its input.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coherence import _prefix_factors
from .linalg import as_dense, spsd_pinv_factor
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


def _normalized(squares, norm):
    """(Frobenius error, normalized error) of a squared error against the
    input's Frobenius norm `norm`; 0/0 is 0."""
    frob = math.sqrt(squares)
    if norm > 0.0:
        return frob, frob / norm
    return frob, 0.0 if frob == 0.0 else float("inf")


def _result(left, right, squares, norm) -> ApproximationResult:
    frob, normalized = _normalized(squares, norm)
    return ApproximationResult(left=left, right=right, frobenius_error=frob,
                               normalized_error=normalized)


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


def _check_symmetric(K, width):
    """Reject a square K that is not symmetric within SYMMETRY_TOL
    entrywise, reading its block-lower part in column blocks of `width`."""
    asym = max(float(np.max(np.abs(K[cols.start:, cols] - K[cols, cols.start:].T)))
               for cols in _column_blocks(K.shape[1], width))
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")


def _reflected_rows(X, V, T):
    """(tail, head) of Y = Qᵀ X for the orthogonal Q = I - V T Vᵀ of p
    reflectors (`coherence.PrefixFactor`): tail[k] = ‖Y[k:]‖_F² for
    k = 0..n, suffix sums of Y's row sums of squares, and head = Y[:p].

    Y is formed a column block of width p at a time, as
    X - V (Tᵀ (Vᵀ X)), at 4 n p m flops in all.
    """
    n, p = V.shape
    rows = np.zeros(n)
    head = np.empty((p, X.shape[1]), order="F")
    for cols in _column_blocks(X.shape[1], p):
        Y = X[:, cols] - V @ (T.T @ (V.T @ X[:, cols]))
        rows += np.einsum("ij,ij->i", Y, Y)
        head[:, cols] = Y[:p]
    tail = np.zeros(n + 1)
    tail[:n] = np.cumsum(rows[::-1])[::-1]
    return tail, head


def _projection_squares(tail, head, W):
    """‖X - Q_k W Wᵀ Q_kᵀ X‖_F² from `_reflected_rows` of X, for the
    k x q core basis W: ‖Y[k:]‖² + ‖(I - W Wᵀ) Y[:k]‖², whose second
    term is 0 where q = k. Both are sums of squares, so nothing cancels."""
    k, q = W.shape
    squares = float(tail[k])
    if q < k:
        rest = head[:k] - W @ (W.T @ head[:k])
        flat = rest.ravel(order="K")
        squares += float(flat @ flat)
    return squares


def _nystrom(K, idx, columns):
    """(left, right, squared error) of the Nystrom reconstruction of a
    symmetric K from its sampled `columns` K[:, idx].

    W is read off `columns` at the sampled rows, so K itself is read
    only by the residual's column blocks.

    The residual K - left rightᵀ is symmetric, so its squares are summed
    over the block-lower part only, one column block of width l at a
    time: a diagonal block once and the rows below it twice.
    """
    U, inverse = spsd_pinv_factor(columns[list(idx)])
    right = columns @ U
    left = right * inverse
    width = len(idx)
    squares = 0.0
    for cols in _column_blocks(K.shape[1], width):
        j = cols.start
        # Column-major like K, so the sum of squares runs in one fixed order.
        block = np.subtract(K[j:, cols], left[j:] @ right[cols].T, order="F")
        diagonal, below = block[:width].ravel(order="K"), block[width:].ravel(order="K")
        squares += float(diagonal @ diagonal) + 2.0 * float(below @ below)
    return left, right, squares


def column_projection(X, sample: ColumnSample) -> ApproximationResult:
    """Project X onto the span of its sampled columns.

    The result is U (Uᵀ X) for the rank-truncated left singular vectors U
    of the subsample, so the residual is orthogonal to every sampled
    column. If the sample spans the full column space the projection
    reproduces X exactly. The sampled columns of the checked X, which
    `_check_sample` has matched to the sample entry for entry, are
    factored by the sweep's core (`coherence._prefix_factors`, which
    `nested_factors` wraps in its checks) at the one size l, and its
    k = min(n, l) reflectors all belong to U = Q_k W. The error comes
    from one Householder pass of them over X (`_reflected_rows`), and
    Uᵀ X = Wᵀ (Q_kᵀ X) is read off the same pass.
    """
    X = as_dense(X)
    idx = _check_sample(X, sample)
    factor = next(_prefix_factors(X[:, idx], [len(idx)]))
    W = factor.core.left_basis()
    tail, head = _reflected_rows(X, factor.V, factor.T)
    return _result(factor.left_basis(), head.T @ W,
                   _projection_squares(tail, head, W), float(np.linalg.norm(X)))


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
    _check_symmetric(K, len(idx))
    return _result(*_nystrom(K, idx, sample.submatrix), float(np.linalg.norm(K)))
