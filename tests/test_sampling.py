import tracemalloc
from collections import Counter

import numpy as np
import pytest

from matcoh import sampling
from matcoh.sampling import (
    RNG_NAME,
    ColumnSample,
    SplitMix64,
    nested_samples,
    uniform_sample,
)

X46 = np.arange(24.0).reshape(4, 6)


def test_rng_name_pinned():
    assert RNG_NAME == "splitmix64"


def test_splitmix_golden_values():
    # reference outputs of SplitMix64 with seed 1234567; these pin the
    # generator so sampled indices can never silently drift
    rng = SplitMix64(1234567)
    assert [rng.next_uint64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


@pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1])
def test_splitmix_takes_numpy_integer_seeds(seed):
    # A numpy integer seed draws the stream of the Python int it equals.
    want = SplitMix64(seed).next_uint64()
    for kind in (np.uint64, np.int64) if seed < 2**63 else (np.uint64,):
        assert SplitMix64(kind(seed)).next_uint64() == want


def test_splitmix_vector_matches_scalar():
    scalar = SplitMix64(99)
    vector = SplitMix64(99)
    expected = [scalar.next_uint64() for _ in range(9)]
    assert [int(v) for v in vector._uint64_block(9)] == expected


def test_splitmix_normals_reproducible_and_sane():
    a = SplitMix64(5).normals(10001)
    b = SplitMix64(5).normals(10001)
    np.testing.assert_array_equal(a, b)
    assert abs(np.mean(a)) < 0.05
    assert abs(np.std(a) - 1.0) < 0.05


def _reference_normals(seed, counter, count):
    """Box-Muller on draws counter+1.., spelled out with fresh arrays."""
    pairs = (count + 1) // 2
    ks = np.arange(counter + 1, counter + 2 * pairs + 1, dtype=np.uint64)
    x = np.uint64(seed) + ks * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    u1 = ((x[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (x[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return out[:count]


@pytest.mark.parametrize("seed", [77, 2**63 + 12345])
@pytest.mark.parametrize("skip", [0, 3])
@pytest.mark.parametrize("count", [1, 10, 4097])
def test_splitmix_normals_bit_identical_to_reference(seed, skip, count):
    rng = SplitMix64(seed)
    rng.normals(skip)  # an odd count consumes a whole pair: counter 4
    start = 2 * ((skip + 1) // 2)
    got = rng.normals(count)
    assert got.tobytes() == _reference_normals(seed, start, count).tobytes()
    assert rng._counter == start + 2 * ((count + 1) // 2)


@pytest.mark.parametrize("rows, cols", [
    (7, 5),     # odd columns: chunks of two rows keep every chunk pair-aligned
    (6, 8),     # even columns
    (13, 3),    # odd columns, an odd final chunk
    (1, 9),     # a row wider than a chunk
    (9, 1),
])
@pytest.mark.parametrize("skip", [0, 3])
def test_normal_matrix_in_chunks_is_one_normals_draw(monkeypatch, rows, cols, skip):
    # With 4 values per chunk every shape above spans several chunks.
    monkeypatch.setattr(sampling, "_NORMAL_CHUNK", 4)
    rng = SplitMix64(31)
    rng.normals(skip)  # a non-zero counter, 4 after an odd skip
    start = rng._counter
    got = rng.normal_matrix(rows, cols)
    count = rows * cols
    assert got.flags.f_contiguous
    assert got.tobytes(order="C") == _reference_normals(31, start, count).tobytes()
    assert rng._counter == start + 2 * ((count + 1) // 2)


def test_normal_matrix_across_full_size_chunks():
    chunk = sampling._NORMAL_CHUNK
    # Rows wider than a chunk, and many rows per chunk, even and odd.
    for rows, cols in ((3, chunk + 1), (chunk // 10, 30), (chunk // 14, 29)):
        rng = SplitMix64(2**40 + 3)
        rng.normals(1)
        got = rng.normal_matrix(rows, cols)
        ref = _reference_normals(2**40 + 3, 2, rows * cols)
        assert got.tobytes(order="C") == ref.tobytes(), (rows, cols)


def test_normal_matrix_with_no_columns_draws_nothing():
    rng = SplitMix64(4)
    assert rng.normal_matrix(3, 0).shape == (3, 0)
    assert rng.normals(5).tobytes() == SplitMix64(4).normals(5).tobytes()


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)


def test_uniform_sample_deterministic():
    a = uniform_sample(X46, 3, seed=42)
    b = uniform_sample(X46, 3, seed=42)
    assert a.indices == b.indices
    # frozen golden indices for (seed=42, m=6, l=3)
    assert a.indices == (1, 2, 4)


def test_uniform_sample_full_is_permutation():
    s = uniform_sample(X46, 6, seed=7)
    assert sorted(s.indices) == list(range(6))
    np.testing.assert_array_equal(s.submatrix, X46[:, list(s.indices)])


def test_uniform_sample_single_column():
    s = uniform_sample(np.ones((3, 1)), 1, seed=0)
    assert s.indices == (0,)


def test_uniform_sample_bounds():
    with pytest.raises(ValueError):
        uniform_sample(X46, 0, seed=1)
    with pytest.raises(ValueError):
        uniform_sample(X46, 7, seed=1)


def test_submatrix_exact_copy():
    s = uniform_sample(X46, 4, seed=3)
    for j, idx in enumerate(s.indices):
        np.testing.assert_array_equal(s.submatrix[:, j], X46[:, idx])
    assert not s.submatrix.flags.writeable


def test_uniform_subset_frequencies_chi_square():
    # 10000 seeded draws of 2 from 6: all 15 subsets within 4 sigma
    counts = Counter()
    for seed in range(10000):
        counts[frozenset(uniform_sample(X46, 2, seed=seed).indices)] += 1
    assert len(counts) == 15
    expected = 10000 / 15
    sigma = np.sqrt(10000 * (1 / 15) * (14 / 15))
    for subset, count in counts.items():
        assert abs(count - expected) <= 4 * sigma, (subset, count)


def test_exclusion_sample_takes_remainder():
    s = uniform_sample(X46, 5, seed=11, excluded={0})
    assert sorted(s.indices) == [1, 2, 3, 4, 5]


def test_exclusion_sample_forced_column():
    s = uniform_sample(X46, 1, seed=4, excluded={0, 1, 2, 4, 5})
    assert s.indices == (3,)


def test_exclusion_sample_infeasible():
    with pytest.raises(ValueError):
        uniform_sample(X46, 6, seed=1, excluded={0})


@pytest.mark.parametrize("draw", [
    lambda excluded: uniform_sample(X46, 2, seed=1, excluded=excluded),
    lambda excluded: nested_samples(X46, 2, seed=1, excluded=excluded)[-1],
], ids=["exclusion_sample", "nested_samples"])
def test_excluded_index_outside_the_columns_is_an_error(draw):
    with pytest.raises(ValueError, match=r"outside \[0, 6\): \[-1, 6\]$"):
        draw((6, 0, -1, 6))
    # A repeated in-range index excludes one column.
    assert 2 not in draw((2, 2)).indices


def test_exclusion_frequencies_uniform_over_allowed():
    counts = Counter()
    for seed in range(6000):
        counts[uniform_sample(X46, 1, seed=seed, excluded={1, 3}).indices[0]] += 1
    assert set(counts) == {0, 2, 4, 5}
    expected = 6000 / 4
    sigma = np.sqrt(6000 * 0.25 * 0.75)
    for count in counts.values():
        assert abs(count - expected) <= 4 * sigma


def test_nested_samples_are_prefixes():
    seq = nested_samples(X46, 6, seed=13)
    assert len(seq) == 6
    for l in range(1, 6):
        assert seq[l].indices[:l] == seq[l - 1].indices
    assert sorted(seq[-1].indices) == list(range(6))


def test_nested_prefix_equals_uniform_sample():
    # same seed, same generator: the size-l prefix IS the size-l sample
    seq = nested_samples(X46, 4, seed=99)
    for l in (1, 2, 3, 4):
        assert seq[l - 1].indices == uniform_sample(X46, l, seed=99).indices


def test_nested_prefix_distribution():
    counts = Counter()
    X = np.ones((2, 5))
    for seed in range(5000):
        counts[frozenset(nested_samples(X, 2, seed=seed)[1].indices)] += 1
    assert len(counts) == 10
    expected = 5000 / 10
    sigma = np.sqrt(5000 * 0.1 * 0.9)
    for count in counts.values():
        assert abs(count - expected) <= 4 * sigma


def test_nested_samples_with_exclusion():
    seq = nested_samples(X46, 5, seed=2, excluded=(0,))
    assert all(0 not in s.indices for s in seq)
    assert sorted(seq[-1].indices) == [1, 2, 3, 4, 5]


def _full_shuffle(pool, seed):
    # Reference: the whole-pool SplitMix64 Fisher-Yates shuffle.
    rng = SplitMix64(seed)
    a = list(pool)
    for i in range(len(a) - 1):
        j = i + rng.below(len(a) - i)
        a[i], a[j] = a[j], a[i]
    return a


@pytest.mark.parametrize("excluded", [(), (0, 5, 49, 17)])
def test_nested_indices_are_full_shuffle_prefix(excluded):
    X = np.ones((3, 50))
    pool = [j for j in range(50) if j not in excluded]
    for seed in range(20):
        seq = nested_samples(X, 7, seed=seed, excluded=excluded)
        assert seq[-1].indices == tuple(_full_shuffle(pool, seed)[:7])


def test_nested_samples_share_one_block():
    X = SplitMix64(8).normal_matrix(5, 12)
    seq = nested_samples(X, 9, seed=4)
    largest = seq[-1].submatrix
    np.testing.assert_array_equal(largest, X[:, list(seq[-1].indices)])
    for s in seq:
        assert np.shares_memory(s.submatrix, largest)
        assert s.submatrix.flags.f_contiguous
        assert not s.submatrix.flags.writeable


def test_nested_samples_memory_is_one_block():
    X = SplitMix64(6).normal_matrix(1000, 200)
    block_bytes = X.shape[0] * 200 * X.itemsize
    tracemalloc.start()
    try:
        seq = nested_samples(X, 200, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(seq) == 200
    assert peak <= 3 * block_bytes, peak


def test_column_sample_rejects_duplicates():
    with pytest.raises(ValueError):
        ColumnSample(indices=(1, 1), submatrix=np.ones((2, 2)))
