"""Coherence statistics of orthonormal bases and their sampled estimation.

Coherence measures how strongly a subspace aligns with individual
coordinate axes. The central statistic here is the maximum leverage
score of a basis U: max_i ||U_(i)||^2, the largest diagonal entry of the
projector U U^T. A subspace with max leverage near 1 concentrates on a
few coordinates and is easy to miss when sampling columns; near q/n it
is spread evenly and column sampling sees it quickly.

`estimate_coherence` is the sampled estimator: take the left singular
vectors of a column subsample, truncate to min(numerical rank, rank
parameter) vectors, and read off the leverage statistics. Its cost is
dominated by the SVD of the n x l subsample, O(n l^2).

`nested_factors` factors every prefix of one nested sample at once. A
Householder QR of the n x L block is computed once, and the leading l
columns of its R factor are the R factor of the l-column prefix (Chan
1982, QR-then-SVD), so each size only factors a small block of R. The
cost is one O(n L^2) QR per trial plus O(l^3) per size, and O(n l q) to
form a q-column basis, which a `PrefixFactor` does only when asked.
`nested_coherence` reads the estimates off those factors, and the
experiment hands the same factor to `lowrank.column_projection`.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    ORTHONORMAL_TOL,
    ThinSVD,
    as_dense,
    numerical_rank,
    orthonormality_defect,
    thin_svd,
)

__all__ = [
    "CoherenceReport",
    "PrefixFactor",
    "max_leverage",
    "mu_coherence",
    "mu0_coherence",
    "mu1_coherence",
    "basis_coherence",
    "factor_coherence",
    "estimate_coherence",
    "nested_factors",
    "nested_coherence",
    "update_projector",
    "sample_size_bound",
]

# Residual norms at or below this (relative) level count as "already in
# the span" for the incremental projector update.
RESIDUAL_RTOL = 1e-10


def _checked_basis(U) -> np.ndarray:
    U = np.asarray(U, dtype=np.float64)
    if U.ndim == 1:
        U = U.reshape(-1, 1)
    defect = orthonormality_defect(U)
    if defect > ORTHONORMAL_TOL:
        raise ValueError(
            f"basis columns are not orthonormal (defect {defect:.3e})"
        )
    return U


def _row_leverage_max(U) -> float:
    # Row norms of U, never the n x n projector: O(nq) instead of O(n^2 q).
    if U.shape[1] == 0:
        return 0.0
    return min(float(np.max(np.einsum("ij,ij->i", U, U))), 1.0)


def max_leverage(U) -> float:
    """Largest squared row norm of an orthonormal-column basis.

    Equals max_i ||P e_i||^2 for the projector P = U U^T, and lies in
    [q/n, 1] for a basis of q columns in dimension n.
    """
    return _row_leverage_max(_checked_basis(U))


def _entry_coherence(U) -> float:
    if U.shape[1] == 0:
        return 0.0
    return math.sqrt(U.shape[0]) * float(np.max(np.abs(U)))


def _cross_coherence(U, V) -> float:
    if U.shape[1] != V.shape[1]:
        raise ValueError(
            f"factor column counts differ: {U.shape[1]} vs {V.shape[1]}"
        )
    if U.shape[1] == 0:
        return 0.0
    t_max = float(np.max(np.abs(U @ V.T)))
    return math.sqrt(U.shape[0] * V.shape[0] / U.shape[1]) * t_max


def mu_coherence(U) -> float:
    """Entry coherence sqrt(n) * max |U_ij| of an orthonormal basis."""
    return _entry_coherence(_checked_basis(U))


def mu0_coherence(U) -> float:
    """Row coherence (n/q) * max_i ||U_(i)||^2 of an orthonormal basis.

    The (n/q) scaling puts a perfectly spread basis at 1 and a
    basis-aligned one at n/q; it relates to `max_leverage` by
    max_leverage = (q/n) * mu0.
    """
    U = _checked_basis(U)
    q = U.shape[1]
    if q == 0:
        return 0.0
    return _row_leverage_max(U) * (U.shape[0] / q)


def mu1_coherence(U, V) -> float:
    """Cross coherence sqrt(nm/q) * max |(U V^T)_ij| of a factor pair.

    U (n x q) and V (m x q) must have the same column count; the matrix
    U V^T sums the rank-one products of paired singular vectors.
    """
    return _cross_coherence(_checked_basis(U), _checked_basis(V))


@dataclass(frozen=True)
class CoherenceReport:
    """Coherence statistics of one (possibly truncated) singular basis.

    gamma is the maximum leverage score; mu and mu0 are the entry and row
    coherences; mu1 is the cross coherence and is None when no right
    factor was available. rank_used is the number of basis columns the
    statistics were computed from (0 for an all-zero input, in which case
    every statistic is 0).
    """

    gamma: float
    mu: float
    mu0: float
    mu1: float | None
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


def basis_coherence(U, V=None) -> CoherenceReport:
    """Full coherence report for an orthonormal basis (and optional pair).

    Each basis is checked for orthonormality once.
    """
    U = _checked_basis(U)
    n, q = U.shape
    if q == 0:
        return CoherenceReport(gamma=0.0, mu=0.0, mu0=0.0, mu1=None,
                               rank_used=0, n=n)
    g = _row_leverage_max(U)
    report_mu1 = None if V is None else _cross_coherence(U, _checked_basis(V))
    return CoherenceReport(
        gamma=g,
        mu=_entry_coherence(U),
        mu0=g * (n / q),
        mu1=report_mu1,
        rank_used=q,
        n=n,
    )


@dataclass(frozen=True)
class PrefixFactor:
    """Left factor of one prefix `columns[:, :l]` of a nested sample.

    The prefix is Q R[:k, :l] for the leading k = min(n, l) columns Q of
    the block's Householder QR, so its left singular vectors are Q times
    those of `core`, the thin SVD of R[:k, :l]. `core.numerical_rank` is
    the prefix's, at shape (n, l), not the small block's. `left_basis`
    answers as `ThinSVD.left_basis` would on the prefix, and multiplies
    out only the n-row columns it returns.
    """

    Q: np.ndarray
    core: ThinSVD

    def left_basis(self, rank=None) -> np.ndarray:
        return self.Q @ self.core.left_basis(rank)


def factor_coherence(factor, rank=None) -> CoherenceReport:
    """Coherence report of a left factor's basis.

    `factor` is a `ThinSVD` or a `PrefixFactor`; its basis is the top
    min(numerical rank, `rank`) left singular vectors.
    """
    _check_rank(rank)
    return basis_coherence(factor.left_basis(rank))


def estimate_coherence(columns, rank=None) -> CoherenceReport:
    """Coherence report estimated from a column subsample.

    `columns` is the n x l matrix of sampled columns. The basis is the
    top min(numerical rank, `rank`) left singular vectors; pass
    rank=None (or any rank >= l) to disable truncation, which is the
    right call for exactly low-rank inputs. The truncation parameter
    matters only when the matrix carries noise. An all-zero subsample
    yields the rank-0 report with gamma 0 rather than an error.
    """
    return factor_coherence(thin_svd(columns), rank)


def nested_factors(columns, sizes):
    """Left factors (`PrefixFactor`) of the nested prefixes `columns[:, :l]`.

    Returns an iterator of one factor per l in `sizes`, in order. One
    Householder QR of the first max(sizes) columns serves every size, and
    each size takes the SVD of its leading block of R. `sizes` (strictly
    ascending, within [1, l] for an n x l `columns`) is checked on the
    call; the QR runs when the first factor is requested.
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
    Q, R = np.linalg.qr(columns)
    for l in sizes:
        k = min(n, l)
        f = thin_svd(R[:k, :l])
        yield PrefixFactor(Q[:, :k], replace(
            f, numerical_rank=numerical_rank(f.singular_values, (n, l))))


def nested_coherence(columns, sizes, rank=None):
    """Coherence estimates of the nested prefixes `columns[:, :l]`.

    Returns an iterator of one report per l in `sizes`, in order, each
    matching `estimate_coherence(columns[:, :l], rank)`: the same
    `rank_used`, and the same gamma up to rounding wherever the kept
    singular values are separated from the dropped ones. The reports are
    read off `nested_factors(columns, sizes)`; `rank` and `sizes` are
    checked on the call, and the QR runs when the first report is
    requested.
    """
    _check_rank(rank)
    return (factor_coherence(f, rank) for f in nested_factors(columns, sizes))


def _check_rank(rank):
    if rank is not None and rank < 1:
        raise ValueError(f"rank parameter must be >= 1, got {rank}")


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
    if mu0 < 1.0:
        raise ValueError("mu0 must be >= 1")
    if not 0.0 < failure_prob < 3.0:
        raise ValueError(
            f"failure probability must be in (0, 3), got {failure_prob}"
        )
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("constants c1 and c2 must be positive")
    log_rank = math.log(rank) if rank > 1 else 1.0
    value = rank * rank * mu0 * max(c1 * log_rank, c2 * math.log(3.0 / failure_prob))
    return math.ceil(value)
