"""Seeded column sampling with a fixed, self-contained generator.

Sampled indices are part of this package's reproducibility contract:
experiment outputs are compared byte for byte across reruns, so the
generator must be a pinned algorithm rather than whatever numpy or the
stdlib ships this year. We use SplitMix64 (Steele, Lea and Flood, 2014)
in counter mode: draw k is mix64(seed + k * GOLDEN), which makes block
generation vectorizable while staying bit-identical to the scalar path.

Sampling without replacement is a forward Fisher-Yates shuffle. After
step i the element at position i is final, so the first `size` positions
of the permutation are themselves a uniform ordered sample, and prefixes
of one permutation form a nested family of uniform samples. Only those
first positions are ever drawn: the later steps of the shuffle would not
change them.

`uniform_sample` draws from the columns that are not `excluded`.
`nested_samples` draws its largest sample with it, which copies the
n x L block once, and hands out every smaller sample as a view of the
block's leading columns, so a nested family costs the memory of one
block, not O(n L^2) copies. `uniform_sample` checks X and builds the
allowed pool on every call, then draws through a private core
(`_draw_columns`) that a caller which has already checked its source
calls once per trial instead.

Normal deviates come in row-major order, a Box-Muller pair from each
two draws. `_box_muller` reads each pair's cos and sin off one
t = tan(theta / 2): numpy's float64 `tan`, like its `log`, is SIMD,
where `sin` and `cos` run through scalar libm at several times the
cost. The deviates' bits thus belong to one numpy build and the CPU
features it dispatches on. `normal_matrix` draws them in chunks of whole
rows, each starting on a pair, straight into its column-major result,
so its temporaries are the size of one chunk, not of the matrix;
`_fill_normals` fills any given buffer the same way.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _check_integer, _is_integer, as_dense

__all__ = [
    "RNG_NAME",
    "SplitMix64",
    "ColumnSample",
    "uniform_sample",
    "nested_samples",
]

# Recorded in every experiment CSV row; bump only with a migration note.
RNG_NAME = "splitmix64"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Normal deviates per chunk of `SplitMix64._fill_normals`: 0.5 MB of values.
_NORMAL_CHUNK = 1 << 16


def _mix64(x: int) -> int:
    x = (x ^ (x >> 30)) * _MIX1 & _MASK64
    x = (x ^ (x >> 27)) * _MIX2 & _MASK64
    return x ^ (x >> 31)


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Pairs (r cos theta, r sin theta) of the uniforms u1 in (0, 1] and
    u2 in [0, 1), as a (pairs, 2) array; overwrites u1 and u2.

    r = sqrt(-2 ln u1) and theta = 2 pi u2, with cos theta and sin theta
    read off t = tan(theta / 2): cos theta = (1 - t^2) / (1 + t^2) and
    sin theta = 2t / (1 + t^2). Doubling pi is exact, so theta / 2 is
    exactly half the rounded theta, and each pair is the exact
    (r cos, r sin) of an angle within a few ulps of it. u2 = 1/2 gives
    t = 1.6e16, whose square is finite. 1 - t^2 is taken directly:
    2 - (1 + t^2) would add the rounding of 1 + t^2 to it.
    """
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)            # r
    u2 *= np.pi
    np.tan(u2, out=u2)             # t
    t2 = np.square(u2)
    out = np.empty((len(u1), 2))
    np.subtract(1.0, t2, out=out[:, 0])
    t2 += 1.0
    u1 /= t2                       # r / (1 + t^2)
    out[:, 0] *= u1                # r cos(theta)
    u2 *= 2.0
    np.multiply(u1, u2, out=out[:, 1])     # r sin(theta)
    return out


class SplitMix64:
    """Counter-based SplitMix64 stream seeded by a single integer.

    All draws, scalar or vectorized, consume the same counter, so any
    interleaving of calls is reproducible from (seed, call sequence).
    The seed is an integer (numpy's included, bool not) in [0, 2**64):
    any other value would draw another seed's stream under its own name.
    """

    def __init__(self, seed: int):
        if not (_is_integer(seed) and 0 <= seed <= _MASK64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
        self.seed = int(seed)
        self._counter = 0

    def next_uint64(self) -> int:
        self._counter += 1
        return _mix64((self.seed + self._counter * _GOLDEN) & _MASK64)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection.

        `n` is an integer in [1, 2**64]: above that no draw lies below
        the rejection limit, and the loop would never end.
        """
        _check_integer("bound", n)
        if not 1 <= n <= _MASK64 + 1:
            raise ValueError(f"bound must be in [1, 2**64], got {n}")
        return self._below(int(n))

    def _below(self, n: int) -> int:
        # `below` without its checks, for a caller whose n is in range.
        span = _MASK64 + 1
        limit = span - span % n
        while True:
            u = self.next_uint64()
            if u < limit:
                return u % n

    def _uint64_block(self, count: int) -> np.ndarray:
        # uint64 arithmetic wraps modulo 2**64, and the mixing runs in
        # place, so the block costs two arrays of `count` at its peak.
        x = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        x *= np.uint64(_GOLDEN)
        x += np.uint64(self.seed)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            x ^= x >> np.uint64(shift)
            x *= np.uint64(mix)
        x ^= x >> np.uint64(31)
        return x

    def normals(self, count: int) -> np.ndarray:
        """`count` standard normal deviates via Box-Muller on stream pairs.

        Consumes 2 * ceil(count / 2) draws; pair j yields
        (r cos theta, r sin theta) with r = sqrt(-2 ln u1) and
        theta = 2 pi u2, both read off t = tan(theta / 2) by
        `_box_muller`.
        """
        _check_integer("count", count)
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0)
        pairs = (count + 1) // 2
        block = self._uint64_block(2 * pairs)
        block >>= np.uint64(11)
        # Rows u1 and u2, each contiguous and computed in place.
        u = np.empty((2, pairs))
        u[0], u[1] = block[0::2], block[1::2]
        del block
        u[0] += 1.0
        u *= 2.0**-53                  # u1 in (0, 1], u2 in [0, 1)
        return _box_muller(*u).ravel()[:count]

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """rows x cols standard normal matrix filled in row-major order.

        Column-major, with the values and stream use of
        `normals(rows * cols)`.
        """
        _check_integer("rows", rows)
        _check_integer("cols", cols)
        out = np.empty((rows, cols), order="F")
        self._fill_normals(out)
        return out

    def _fill_normals(self, out: np.ndarray) -> None:
        """Write `normals(out.size)` into the 2-D `out` in row-major order.

        The values are drawn a chunk of whole rows at a time. Every chunk
        but the last has an even length, so each starts on a stream pair
        and the values and the draws consumed equal one `normals` call.
        """
        rows, cols = out.shape
        if out.size == 0:
            return
        step = max(1, _NORMAL_CHUNK // cols)
        step += step * cols % 2
        for i in range(0, rows, step):
            chunk = out[i:i + step]
            chunk[...] = self.normals(chunk.size).reshape(chunk.shape)


@dataclass(frozen=True)
class ColumnSample:
    """An ordered sample of distinct column indices plus the extracted block.

    `submatrix` is read-only and column-major, and its column j is a
    bit-identical copy of source column `indices[j]`; the samples of one
    nested family share one block.
    """

    indices: tuple
    submatrix: np.ndarray

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("sampled indices must be distinct")
        if self.submatrix.shape[1] != len(self.indices):
            raise ValueError("submatrix width does not match index count")
        self.submatrix.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.indices)


def _fisher_yates_prefix(pool, size, rng) -> list:
    """First `size` entries of a seeded Fisher-Yates shuffle of `pool`."""
    a = list(pool)
    steps = min(size, len(a) - 1)
    for i in range(steps):
        j = i + rng._below(len(a) - i)
        a[i], a[j] = a[j], a[i]
    return a[:size]


def _allowed_pool(m: int, excluded, size: int) -> list:
    """Ascending columns of 0..m-1 not `excluded`; at least `size` of them.

    `size` and the excluded indices are integers (numpy's included, bool
    not): a float or bool would be truncated to another index. An
    excluded index outside [0, m) is an error, not silently dropped.
    """
    _check_integer("sample size", size)
    excluded = list(excluded)
    if not all(_is_integer(j) for j in excluded):
        raise ValueError(f"excluded column indices must be integers, got {excluded}")
    excluded = {int(j) for j in excluded}
    outside = sorted(j for j in excluded if not 0 <= j < m)
    if outside:
        raise ValueError(f"excluded column indices outside [0, {m}): {outside}")
    allowed = [j for j in range(m) if j not in excluded]
    if not 1 <= size <= len(allowed):
        raise ValueError(
            f"sample size {size} infeasible with {len(allowed)} allowed columns"
        )
    return allowed


def _draw_columns(columns, allowed: list, size: int, seed: int):
    """(indices, block): `size` seeded draws from `allowed` and the source's
    columns there.

    `columns(indices)` gives the source's checked columns X[:, indices],
    and `allowed` must come from `_allowed_pool` for `size`; nothing is
    checked here. The block is made read-only and column-major.
    """
    indices = _fisher_yates_prefix(allowed, size, SplitMix64(seed))
    block = np.asfortranarray(columns(indices))
    block.setflags(write=False)
    return tuple(indices), block


def uniform_sample(X, size: int, seed: int, excluded=()) -> ColumnSample:
    """Sample `size` distinct columns of X uniformly at random.

    The columns are drawn from those not `excluded`. Deterministic given
    (seed, column count, excluded, size): every size-subset of the
    allowed columns is equally likely under the seeded generator.
    """
    X = as_dense(X)
    indices, block = _draw_columns(lambda idx: X[:, idx],
                                   _allowed_pool(X.shape[1], excluded, size),
                                   size, seed)
    return ColumnSample(indices=indices, submatrix=block)


def nested_samples(X, max_size: int, seed: int, excluded=()) -> list:
    """Nested uniform samples of sizes 1..max_size from one permutation.

    The sample of size l extends the sample of size l-1 by exactly one
    new uniformly chosen column, and each prefix is distributed like an
    independent uniform sample of that size. The columns are copied
    once, into the largest sample's block; the sample of size l holds
    the view of its first l columns.
    """
    largest = uniform_sample(X, max_size, seed, excluded)
    return [ColumnSample(indices=largest.indices[:l],
                         submatrix=largest.submatrix[:, :l])
            for l in range(1, max_size + 1)]
