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

A run that truncates at a rank r reads only the top r left singular
vectors, never V nor the singular values to full relative accuracy.
So, until its trial drops a direction and where r < k, a size of the
private core (`_prefix_factors` with a rank) tries R's own block B =
R[:k, :l] through one `eigh` of its Gram B B^T, a SYRK at O(k^2 l), and
keeps it where two bounds hold, for the Gram's rounding delta_G =
(k + l) eps tr(B B^T). The smallest eigenvalue above 4 delta_G puts
s_min far above the rank threshold, so the SVD's rank is k too; delta_G
over the certified gap lambda_r - lambda_(r+1) - 2 delta_G at most
1e-10 bounds the angle between the two top-r subspaces (Davis and Kahan
1970), and with it the move of gamma. A size that fails either takes
the SVD of B. The carried blocks, the public `nested_factors`, which
passes no rank, and every untruncated run keep the SVD bit for bit.

Per trial the cost is one O(n L^2) Householder QR, one SVD or, where
the bounds hold, one Gram and its `eigh` per size, and O(n k q) to form
a q-column basis Q_k W, which a `PrefixFactor` does only when asked.
The n x L Q is never formed: multiplying it out
would cost more than the QR itself, and it is only ever applied, as
Q_k W and, for both approximations' errors (`lowrank`), as Q^T X.
R is copied out of the QR's copy of the block, and the
reflectors left there are made its compact WY form Q = I - V T V^T
(Schreiber and Van Loan 1989) in place. The p x p triangle T,
p = min(n, L), is the inverse of the UT transform's diag(1/tau) +
striu(V^T V) (Joffrain, Low, Quintana-Orti, van de Geijn and Van Zee
2006), at the cost of one Gram of V. Q_k W then takes the same
O(n k q) product as with Q at hand, plus O(k^2 q). Beyond the QR's
copy of the block, the sweep holds R, T and the blocks it factors.
Every factor of one sweep holds the whole V and T. The experiment reads
each estimate as the gamma of its factor's left basis (`_gamma`, with
no orthonormality check of a basis the sweep built), and every size's
column-projection and Nystrom errors off one pass of the sweep's Q over
the source. `_householder` is the QR step alone, for the public
`nystrom`, which needs Q but no SVD.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (ThinSVD, _check_integer, _checked_basis, _eigh_by_magnitude,
                     _is_integer, as_dense, numerical_rank, rank_threshold, thin_svd)

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
# `_gram_core`: the multiple of the Gram's rounding the smallest eigenvalue
# must exceed, and the largest certified angle between the top-r subspaces.
_GRAM_FLOOR = 4.0
_GRAM_MAX_ANGLE = 1e-10


@dataclass(frozen=True)
class CoherenceReport:
    """Coherence statistics of one (possibly truncated) singular basis.

    For an n x q basis U with orthonormal columns:
    - gamma = max_i ||U_(i)||^2, the maximum leverage score, in [q/n, 1];
    - mu = sqrt(n) * max |U_ij|, the entry coherence;
    - mu0 = (n/q) * gamma, the row coherence, derived from gamma: it puts
      a perfectly spread basis at 1 and a basis-aligned one at n/q.
    rank_used is q, the number of basis columns the statistics were
    computed from (0 for an all-zero input, in which case every statistic
    is 0). Reports come from `basis_coherence`, which computes each field
    once from one checked basis, so the relations between them are not
    re-checked here.
    """

    gamma: float
    mu: float
    rank_used: int
    n: int

    @property
    def mu0(self) -> float:
        return self.gamma * (self.n / self.rank_used) if self.rank_used else 0.0


def basis_coherence(U) -> CoherenceReport:
    """Full coherence report for an orthonormal basis, checked once."""
    U = _checked_basis(U)
    n, q = U.shape
    if q == 0:
        return CoherenceReport(gamma=0.0, mu=0.0, rank_used=0, n=n)
    return CoherenceReport(
        gamma=_gamma(U),
        mu=math.sqrt(n) * float(np.max(np.abs(U))),
        rank_used=q,
        n=n,
    )


def _gamma(U: np.ndarray) -> float:
    """`basis_coherence(U).gamma` of a float64 basis, unchecked; 0 for no columns."""
    if U.shape[1] == 0:
        return 0.0
    # Row norms of U, never the n x n projector: O(nq) instead of O(n^2 q).
    return min(float(np.max(np.einsum("ij,ij->i", U, U))), 1.0)


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
    to the block. Where a truncating run's sweep certified R's own block
    through its Gram (see the module docstring), `core` is that `eigh`'s:
    U by descending eigenvalue, singular values their square roots,
    V None and numerical rank k, and its top-r subspace is within an
    angle of 1e-10 of the prefix's.

    Q_k is never formed. It is held in compact WY form (Schreiber and
    Van Loan 1989), as the first k columns of the sweep's Q = I - V T
    V^T: `V` is the n x p unit lower trapezoidal matrix of the block's
    p = min(n, L) Householder vectors, and `T` the p x p upper triangular
    factor of the UT transform (Joffrain, Low, Quintana-Orti, van de
    Geijn and Van Zee 2006), both shared by every prefix of the sweep.
    The first k reflectors alone give Q_k, so V[:, :k] and T[:k, :k]
    are the prefix's own. `left_basis` answers as `ThinSVD.left_basis`
    would on the prefix: for the k x q factor W of `core` it returns
    Q_k W = [W; 0] - V_k (T_k (V_k[:k]^T W)), at O(n k q + k^2 q), and
    forms only those q columns.
    """

    V: np.ndarray
    T: np.ndarray
    core: ThinSVD

    def left_basis(self, rank=None) -> np.ndarray:
        W = self.core.left_basis(rank)
        k = W.shape[0]
        V = self.V[:, :k]
        U = V @ (self.T[:k, :k] @ (V[:k].T @ W))
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
    if rank is not None:
        _check_integer("rank parameter", rank)
        if rank < 1:
            raise ValueError(f"rank parameter must be >= 1, got {rank}")
    return basis_coherence(thin_svd(columns).left_basis(rank))


def nested_factors(columns, sizes):
    """Left factors (`PrefixFactor`) of the nested prefixes `columns[:, :l]`.

    Returns an iterator of one factor per l in `sizes`, in order. One
    Householder QR of the first max(sizes) columns serves every size, and
    each size takes one SVD: of its leading block of R, or, once a prefix
    has dropped a direction, of the kept factor beside its new columns of
    R, plus the SVD of R's block where that one's spectrum comes within
    the dropped norm of the rank threshold. It passes no rank, so no
    size takes the truncating run's Gram route. `sizes` (strictly
    ascending integers, within [1, l] for an n x l `columns`) is checked
    on the call; the QR runs when the first factor is requested.
    """
    columns = as_dense(columns)
    sizes = list(sizes)
    width = columns.shape[1]
    if not all(_is_integer(l) for l in sizes):
        raise ValueError(f"sizes must be integers, got {sizes}")
    if not sizes or sizes != sorted(set(sizes)):
        raise ValueError(f"sizes must be non-empty and strictly ascending, got {sizes}")
    if sizes[0] < 1 or sizes[-1] > width:
        raise ValueError(f"sizes must lie in [1, {width}], got {sizes}")
    return _prefix_factors(columns[:, :sizes[-1]], sizes)


def _householder(columns):
    """(R, V, T): the Householder QR of `columns`, with its Q = I - V T Vᵀ
    in compact WY form (see `PrefixFactor`)."""
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
    return R, V, T


def _gram_core(B, rank):
    """The left factor of the k x l block B read off one `eigh` of its
    Gram B Bᵀ, or None where a bound fails.

    δ = (k + l)·eps·tr(B Bᵀ) bounds the Gram's rounding and the `eigh`'s
    backward error. λ̂_min > `_GRAM_FLOOR`·δ puts σ_min far above the
    rank threshold, so the SVD's rank would be k too; δ over the certified
    gap λ̂_r − λ̂_{r+1} − 2δ at most `_GRAM_MAX_ANGLE` bounds the angle
    between the top-r subspaces of B and of the Gram (Davis and Kahan
    1970), and with it the move of gamma. A δ that underflows or
    overflows certifies nothing.
    """
    k, l = B.shape
    with np.errstate(over="ignore", invalid="ignore"):  # delta is then inf
        G = B @ B.T  # SYRK
        delta = (k + l) * np.finfo(np.float64).eps * float(np.trace(G))
    if not np.finfo(np.float64).tiny <= delta < np.inf:
        return None
    w, U = _eigh_by_magnitude(G)
    if not w[-1] > _GRAM_FLOOR * delta:
        return None
    if not delta <= _GRAM_MAX_ANGLE * (w[rank - 1] - w[rank] - 2.0 * delta):
        return None
    return ThinSVD(U=U, singular_values=np.sqrt(w), V=None,
                   numerical_rank=k)


def _prefix_factors(columns, sizes, rank=None):
    n = columns.shape[0]
    R, V, T = _householder(columns)
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
        elif rank is not None and rank < k:
            f = _gram_core(R[:k, :l], rank)
        if f is None:
            f, dropped = thin_svd(R[:k, :l]), 0.0
        s = f.singular_values
        q = numerical_rank(s, (n, l))
        if kept is not None or q < s.size:
            dropped = math.hypot(dropped, float(np.linalg.norm(s[q:])))
            kept = (f.U[:, :q] * s[:q], l, dropped)
        yield PrefixFactor(V, T, replace(f, numerical_rank=q))


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
    log term positive and are accepted. Finite inputs whose bound
    overflows a float raise ValueError.
    """
    _check_integer("rank", rank)
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
    if not math.isfinite(value):
        raise ValueError("sample size bound overflows a float for these inputs")
    return math.ceil(value)
