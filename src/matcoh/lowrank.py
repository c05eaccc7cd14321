"""Column-sampled low-rank approximation of dense and SPSD matrices.

Two sampling-based approximations are provided. Column projection works
for any rectangular X: project X onto the span of the sampled columns,
U (Uᵀ X) for the rank-truncated left singular vectors U of the
subsample. The Nystrom reconstruction works for symmetric positive
semidefinite K: with K1 the sampled columns and W their row/column
intersection block, approximate K by K1 W⁺ K1ᵀ (Kumar, Mohri and
Talwalkar 2012), applied through the `eigh` factors of W⁺, cut at the
shared rank threshold.

Both errors come from one Householder pass. Let Q = I - V T Vᵀ be the
Householder QR of the sample (the sweep's core that
`coherence.nested_factors` wraps, O(n l²)), with p reflectors and
k = min(n, l), and let Y = Qᵀ X, formed a column block at a time at
4 n p m flops (`_reflected_rows`). Column projection takes U as Q_k Z,
for the k x q core basis Z from the SVD of the k x l R block, and
‖X - U Uᵀ X‖_F² = ‖Y[k:]‖² + ‖(I - Z Zᵀ) Y[:k]‖², the second term 0
where q = k. For Nystrom, Qᵀ K1 is R's first k rows and zero below, so
with G = Y[:p] Q, the top rows of Qᵀ K Q (4 n p² flops more),
W⁺ = U diag(1/λ) Uᵀ and B = Y[:k, idx] U,
‖K - K1 W⁺ K1ᵀ‖_F² = ‖Y[k:]‖² + ‖G[:k, k:]‖² + ‖G[:k, :k] - B diag(1/λ) Bᵀ‖².
Every term is a sum of squares, so nothing cancels. The first k
columns of one sweep's Q are each prefix's Q_k, and suffix sums of Y's
row squares give every size's ‖Y[k:]‖²: a run pays one pass and one G,
O(n m L + n L²), per trial for all its sizes and both methods. Each
size then adds O(n k q) for column projection and, for Nystrom, one
`eigh` of W (O(l³)) and O(n k + k l q) for B and the sums. Neither
method forms U, Uᵀ X or the residual; a public call reads
Uᵀ X = Zᵀ Y[:k] off its pass.

A result keeps its approximation factored, approx = left @ rightᵀ with
at most l columns in each factor, and forms the n x m product only when
`approx` is read. The pass forms Y a column block at a time, and the
symmetry check of Nystrom's input reads K's block-lower part in blocks
of width l, so a method call holds nothing larger than Y's top p rows
(and G): no n x m temporary where l < n. A run (`experiment`) reads
‖K‖_F² once (`linalg._squares`, shared with its truth) and calls the
same private readers as `column_projection` and `nystrom`, each of which
has one error path; its K is built exactly symmetric, so only the public
`nystrom` checks the symmetry of its input.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coherence import _householder, _prefix_factors
from .linalg import _squares, as_dense, spsd_pinv_factor
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
    return np.append(np.cumsum(rows[::-1])[::-1], 0.0), head


def _projection_squares(tail, head, W):
    """‖X - Q_k W Wᵀ Q_kᵀ X‖_F² from `_reflected_rows` of X, for the
    k x q core basis W: ‖Y[k:]‖² + ‖(I - W Wᵀ) Y[:k]‖², whose second
    term is 0 where q = k. Both are sums of squares, so nothing cancels."""
    k, q = W.shape
    squares = float(tail[k])
    if q < k:
        squares += _squares(head[:k] - W @ (W.T @ head[:k]))
    return squares


def _nystrom(tail, head, G, idx, columns):
    """(U, 1/λ, ‖K - C W⁺ Cᵀ‖_F²) for the sampled `columns` C = K[:, idx]
    (idx a list) and W = K[idx, idx], read off C, with W⁺ = U diag(1/λ) Uᵀ
    from `linalg.spsd_pinv_factor`.

    `tail, head` are `_reflected_rows` of K, Y = Qᵀ K, for the reflectors
    Q = I - V T Vᵀ of a Householder QR whose first l columns are C, and
    G = head Q holds the top rows of Qᵀ K Q. Qᵀ C is R's first
    k = min(n, l) rows and zero below, so for B = head[:k, idx] U the
    error is ‖Y[k:]‖² + ‖G[:k, k:]‖² + ‖G[:k, :k] - B diag(1/λ) Bᵀ‖²:
    sums of squares, with nothing to cancel.
    """
    U, inverse = spsd_pinv_factor(columns[idx])
    k = min(G.shape[1], len(idx))
    B = head[:k, idx] @ U
    return U, inverse, (float(tail[k]) + _squares(G[:k, k:])
                        + _squares(G[:k, :k] - (B * inverse) @ B.T))


def column_projection(X, sample: ColumnSample) -> ApproximationResult:
    """Project X onto the span of its sampled columns.

    The result is U (Uᵀ X) for the rank-truncated left singular vectors U
    of the subsample, so the residual is orthogonal to every sampled
    column. If the sample spans the full column space the projection
    reproduces X exactly. The sample's own columns, which `_check_sample`
    has matched to the checked X entry for entry, are factored by the
    sweep's core (`coherence._prefix_factors`, which
    `nested_factors` wraps in its checks) at the one size l, and its
    k = min(n, l) reflectors all belong to U = Q_k W. The error comes
    from one Householder pass of them over X (`_reflected_rows`), and
    Uᵀ X = Wᵀ (Q_kᵀ X) is read off the same pass.
    """
    X = as_dense(X)
    idx = _check_sample(X, sample)
    factor = next(_prefix_factors(sample.submatrix, [len(idx)]))
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
    as (B diag(d)) Bᵀ with B = K1 U. The error takes `column_projection`'s
    route without its SVD: one Householder QR of the sample
    (`coherence._householder`), one pass of its reflectors over K
    (`_reflected_rows`) and `_nystrom`'s identity.
    """
    K = as_dense(K)
    if K.shape[0] != K.shape[1]:
        raise ValueError(f"matrix must be square, got {K.shape}")
    idx = _check_sample(K, sample)
    _check_symmetric(K, len(idx))
    _, V, T = _householder(sample.submatrix)
    tail, head = _reflected_rows(K, V, T)
    G = head - ((head @ V) @ T) @ V.T
    U, inverse, squares = _nystrom(tail, head, G, idx, sample.submatrix)
    right = sample.submatrix @ U
    return _result(right * inverse, right, squares, float(np.linalg.norm(K)))
