"""Coherence statistics of orthonormal bases and their sampled estimation.

Coherence measures how strongly a subspace aligns with individual
coordinate axes. The central statistic here is the maximum leverage
score of a basis U: max_i ||U_(i)||^2, the largest diagonal entry of the
projector U U^T. A subspace with max leverage near 1 concentrates on a
few coordinates and is easy to miss when sampling columns; near q/n it
is spread evenly and column sampling sees it quickly. `basis_coherence`
checks a basis and reports gamma with the coherences mu and mu0.

`estimate_coherence` is the sampled estimator: take the left singular
vectors of a column subsample, truncate to min(numerical rank, rank
parameter) vectors, and read off the leverage statistics. Its cost is
dominated by the SVD of the n x l subsample, O(n l^2).

`nested_factors` factors every prefix of one nested sample at once. A
Householder QR of the n x L block is computed once, and the leading l
columns of its R factor are the R factor of the l-column prefix (Chan
1982, QR-then-SVD), so each size only factors a small block of R: its
own k x l block R[:k, :l], k = min(n, l), at O(l^3), until a prefix
drops a direction. From then on each size carries the last prefix's
kept factor U_q diag(s_q) forward, and factors the k x (q + d) block
[[U_q diag(s_q), R[:k', l':l]], [0, R[k':k, l':l]]] of its d = l - l'
new columns, where l' and k' = min(n, l') are the last prefix's, at
O(k (q + d)^2) (the deflation step of an incremental thin SVD, Brand
2006). What the carried blocks dropped since R's own block was last
factored has 2-norm at most delta, the root sum of squares of the
dropped singular values (each step's dropped part is orthogonal to the
rows of the earlier ones), so each singular value of the prefix lies
within delta of the block's (Weyl). Where a block's singular value
lies within delta of the rank threshold, the count could differ from
the prefix's: that size factors R[:k, :l] instead and delta restarts
there. A direction below the threshold in every new column but above
it over many is thus kept where the prefix's SVD keeps it. On an
exactly low-rank sample delta stays at rounding level, so the fallback
runs only for a singular value within rounding of the threshold.

Per trial the cost is one O(n L^2) Householder QR, one SVD per size,
and O(n k q) to form a q-column basis Q_k W, which a `PrefixFactor`
does only when asked. The n x L Q is never formed: multiplying it out
would cost more than the QR itself, and the sweep only ever reads it
as Q_k W. R is copied out of the QR's copy of the block, and the
reflectors left there are made its compact WY form Q = I - V T V^T
(Schreiber and Van Loan 1989) in place. The p x p triangle T,
p = min(n, L), is the inverse of the UT transform's diag(1/tau) +
striu(V^T V) (Joffrain, Low, Quintana-Orti, van de Geijn and Van Zee
2006), at the cost of one Gram of V. Q_k W then takes the same
O(n k q) product as with Q at hand, plus O(k^2 q). Beyond the QR's
copy of the block, the sweep holds R, T and the blocks it factors.
The experiment reads each estimate as `basis_coherence` of its
factor's left basis, and hands the same factor to
`lowrank.column_projection`.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (ThinSVD, _checked_basis, as_dense, numerical_rank,
                     rank_threshold, thin_svd)

__all__ = [
    "CoherenceReport",
    "PrefixFactor",
    "basis_coherence",
    "estimate_coherence",
    "nested_factors",
    "update_projector",
    "sample_size_bound",
]

# Residual norms at or below this (relative) level count as "already in
# the span" for the incremental projector update.
RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class CoherenceReport:
    """Coherence statistics of one (possibly truncated) singular basis.

    For an n x q basis U with orthonormal columns:
    - gamma = max_i ||U_(i)||^2, the maximum leverage score, in [q/n, 1];
    - mu = sqrt(n) * max |U_ij|, the entry coherence;
    - mu0 = (n/q) * max_i ||U_(i)||^2, the row coherence, which puts a
      perfectly spread basis at 1 and a basis-aligned one at n/q, so
      gamma = (q/n) * mu0.
    rank_used is q, the number of basis columns the statistics were
    computed from (0 for an all-zero input, in which case every statistic
    is 0).
    """

    gamma: float
    mu: float
    mu0: float
    rank_used: int
    n: int

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma {self.gamma} outside [0, 1]")
        if self.rank_used > 0:
            slack = 1e-9
            if not self.mu0 <= self.mu**2 + slack:
                raise ValueError("coherence chain violated: mu0 > mu^2")
            if not self.mu**2 / self.rank_used <= self.mu0 + slack:
                raise ValueError("coherence chain violated: mu0 < mu^2/q")
            if not 1.0 - slack <= self.mu0 <= self.n / self.rank_used + slack:
                raise ValueError(f"mu0 {self.mu0} outside [1, n/q]")
            if abs(self.gamma - self.rank_used / self.n * self.mu0) > 1e-12:
                raise ValueError("gamma and mu0 disagree")


def basis_coherence(U) -> CoherenceReport:
    """Full coherence report for an orthonormal basis, checked once."""
    U = _checked_basis(U)
    n, q = U.shape
    if q == 0:
        return CoherenceReport(gamma=0.0, mu=0.0, mu0=0.0, rank_used=0, n=n)
    # Row norms of U, never the n x n projector: O(nq) instead of O(n^2 q).
    g = min(float(np.max(np.einsum("ij,ij->i", U, U))), 1.0)
    return CoherenceReport(
        gamma=g,
        mu=math.sqrt(n) * float(np.max(np.abs(U))),
        mu0=g * (n / q),
        rank_used=q,
        n=n,
    )


@dataclass(frozen=True)
class PrefixFactor:
    """Left factor of one prefix `columns[:, :l]` of a nested sample.

    The prefix is Q_k R[:k, :l] for the leading k = min(n, l) columns Q_k
    of the block's Householder QR, so its left singular vectors are Q_k
    times those of `core`, the thin SVD of the k-row block the sweep
    factored: R[:k, :l] itself until a prefix drops a direction, then
    the carried block of the kept factor and the new columns (see the
    module docstring). `core.numerical_rank` is the prefix's, at shape
    (n, l), not the small block's. In R's own block `core.U` and
    `core.singular_values` are the prefix's up to rounding; in a
    carried block each singular value is within the dropped norm delta
    of the prefix's, and the kept subspace within an angle of about
    delta over the gap to the dropped values (Wedin). `core.V` belongs
    to the block.

    Q_k is never formed. It is held in compact WY form (Schreiber and
    Van Loan 1989), as the first k columns of I - V T V^T: `V` is the
    n x k unit lower trapezoidal matrix of the first k Householder
    vectors, and `T` the k x k upper triangular factor of the UT
    transform (Joffrain, Low, Quintana-Orti, van de Geijn and Van Zee
    2006). `left_basis` answers as `ThinSVD.left_basis` would on the
    prefix: for the k x q factor W of `core` it returns Q_k W = [W; 0] -
    V (T (V[:k]^T W)), at O(n k q + k^2 q), and forms only those q
    columns.
    """

    V: np.ndarray
    T: np.ndarray
    core: ThinSVD

    def left_basis(self, rank=None) -> np.ndarray:
        W = self.core.left_basis(rank)
        k = W.shape[0]
        U = self.V @ (self.T @ (self.V[:k].T @ W))
        np.negative(U, out=U)
        U[:k] += W
        return U


def estimate_coherence(columns, rank=None) -> CoherenceReport:
    """Coherence report estimated from a column subsample.

    `columns` is the n x l matrix of sampled columns. The basis is the
    top min(numerical rank, `rank`) left singular vectors; pass
    rank=None (or any rank >= l) to disable truncation, which is the
    right call for exactly low-rank inputs. The truncation parameter
    matters only when the matrix carries noise. An all-zero subsample
    yields the rank-0 report with gamma 0 rather than an error.
    """
    if rank is not None and rank < 1:
        raise ValueError(f"rank parameter must be >= 1, got {rank}")
    return basis_coherence(thin_svd(columns).left_basis(rank))


def nested_factors(columns, sizes):
    """Left factors (`PrefixFactor`) of the nested prefixes `columns[:, :l]`.

    Returns an iterator of one factor per l in `sizes`, in order. One
    Householder QR of the first max(sizes) columns serves every size, and
    each size takes one SVD: of its leading block of R, or, once a prefix
    has dropped a direction, of the kept factor beside its new columns of
    R, plus the SVD of R's block where that one's spectrum comes within
    the dropped norm of the rank threshold. `sizes` (strictly ascending,
    within [1, l] for an n x l `columns`) is checked on the call; the QR
    runs when the first factor is requested.
    """
    columns = as_dense(columns)
    sizes = list(sizes)
    width = columns.shape[1]
    if not sizes or sizes != sorted(set(sizes)):
        raise ValueError(f"sizes must be non-empty and strictly ascending, got {sizes}")
    if sizes[0] < 1 or sizes[-1] > width:
        raise ValueError(f"sizes must lie in [1, {width}], got {sizes}")
    return _prefix_factors(columns[:, :sizes[-1]], sizes)


def _prefix_factors(columns, sizes):
    n = columns.shape[0]
    # LAPACK's compact QR: R on and above the diagonal, the Householder
    # vectors below it. R is `np.linalg.qr`'s own, bit for bit.
    A, tau = np.linalg.qr(columns, mode="raw")
    p = tau.size
    R = np.triu(A.T[:p])
    # Q = I - V T V^T. V, the unit lower trapezoidal matrix of the
    # vectors, is made in place; a reflector with tau 0 is the identity,
    # and its column is zeroed so it adds nothing. T is the inverse of
    # diag(1/tau) + striu(V^T V), with 1 standing in for 1/tau at tau 0.
    V = A.T[:, :p]
    V[:p] = np.tril(V[:p], -1)
    np.fill_diagonal(V, 1.0)
    trivial = tau == 0.0
    V[:, trivial] = 0.0
    T = np.triu(V.T @ V, 1)
    np.fill_diagonal(T, 1.0 / np.where(trivial, 1.0, tau))
    _invert_upper(T)
    eps = np.finfo(np.float64).eps
    # From the first prefix that dropped a direction on: the last prefix's
    # kept factor U_q diag(s_q), its width, and the bound on the 2-norm of
    # all it dropped since R's own block was last factored.
    kept = None
    for l in sizes:
        k = min(n, l)
        f = None
        if kept is not None:
            carried, done, dropped = kept
            k_prev, q = carried.shape
            block = np.zeros((k, q + l - done), order="F")
            block[:k_prev, :q] = carried
            block[:, q:] = R[:k, done:l]
            f = thin_svd(block)
            s = f.singular_values
            # Each singular value of the prefix, s_1 (and with it the
            # threshold) included, lies within `dropped` of the block's.
            margin = dropped * (1.0 + max(n, l) * eps)
            if np.any(np.abs(s - rank_threshold(s, (n, l))) <= margin):
                f = None
        if f is None:
            f, dropped = thin_svd(R[:k, :l]), 0.0
        s = f.singular_values
        q = numerical_rank(s, (n, l))
        if kept is not None or q < s.size:
            dropped = math.hypot(dropped, float(np.linalg.norm(s[q:])))
            kept = (f.U[:, :q] * s[:q], l, dropped)
        yield PrefixFactor(V[:, :k], T[:k, :k], replace(f, numerical_rank=q))


def _invert_upper(U):
    """Invert a nonsingular upper triangular matrix in place by 2 x 2
    blocking, inv([[A, B], [0, C]]) = [[inv(A), -inv(A) B inv(C)], [0,
    inv(C)]], down to leaves of at most 32 rows. A leaf's LU takes no
    row swaps, so its inverse keeps exact zeros below the diagonal."""
    m = U.shape[0]
    if m <= 32:
        U[:] = np.linalg.inv(U)
        return
    h = m // 2
    _invert_upper(U[:h, :h])
    _invert_upper(U[h:, h:])
    U[:h, h:] = -(U[:h, :h] @ U[:h, h:]) @ U[h:, h:]


def update_projector(P, x):
    """Extend an orthogonal projector by one vector.

    Returns (P', bound): P' projects onto span(old subspace + x) and
    `bound` caps the possible growth of the max leverage score. If the
    residual of x against P is (numerically) zero the projector is
    returned unchanged with bound 0; otherwise P' = P + z z^T for the
    normalized residual z, and the bound is max_i z_i^2.
    """
    P = as_dense(P)
    x = as_dense(x)
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError(f"projector must be square, got {P.shape}")
    if x.shape != (n, 1):
        raise ValueError(f"vector shape {x.shape} does not match projector {P.shape}")
    v = x[:, 0]
    residual = v - P @ v
    s = float(np.linalg.norm(residual))
    if s <= RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(v))):
        return P, 0.0
    z = residual / s
    return P + np.outer(z, z), float(np.max(z * z))


def sample_size_bound(rank: int, mu0: float, failure_prob: float,
                      c1: float, c2: float) -> int:
    """Columns sufficient for the sampled basis to reach full rank.

    Evaluates ceil(rank^2 * mu0 * max(c1 * log(rank), c2 * log(3 /
    failure_prob))). The constants c1 and c2 must be chosen by the
    caller; no defaults are defensible. For rank 1 the log(rank) factor
    is floored at 1 so it cannot zero out the bound. Values of
    failure_prob in [1, 3) are degenerate as probabilities but keep the
    log term positive and are accepted.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not (math.isfinite(mu0) and mu0 >= 1.0):
        raise ValueError(f"mu0 must be finite and >= 1, got {mu0}")
    if not 0.0 < failure_prob < 3.0:
        raise ValueError(
            f"failure probability must be in (0, 3), got {failure_prob}"
        )
    for name, c in (("c1", c1), ("c2", c2)):
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError(f"constant {name} must be finite and positive, got {c}")
    log_rank = math.log(rank) if rank > 1 else 1.0
    value = rank * rank * mu0 * max(c1 * log_rank, c2 * math.log(3.0 / failure_prob))
    return math.ceil(value)
