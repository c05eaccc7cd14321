"""Each library input check rejects its bad input with its own message."""

import re

import numpy as np
import pytest

from matcoh.coherence import (estimate_coherence, nested_factors,
                              sample_size_bound, update_projector)
from matcoh.kernels import KernelSpec, PointDataset, build_kernel
from matcoh.lowrank import column_projection, nystrom
from matcoh.sampling import ColumnSample, SplitMix64, uniform_sample
from matcoh.synthetic import (SynthSpec, adversarial_spsd, add_noise,
                              basis_aligned_matrix, low_rank_matrix)

X = np.arange(12.0).reshape(4, 3)
K = np.eye(4)
# Points whose Gram matrix overflows float64 (one row negated, so they
# are not all one point), and ordinary points.
HUGE = PointDataset(points=np.vstack([[-1e160, -1e160], np.full((4, 2), 1e160)]))
SMALL = PointDataset(points=SplitMix64(0).normal_matrix(5, 2))


def sample(indices, rows=4):
    return ColumnSample(indices=indices, submatrix=np.zeros((rows, len(indices))))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: PointDataset(points=np.zeros(3)),
                 "need an n x d point array, got shape (3,)", id="points-1d"),
    pytest.param(lambda: PointDataset(points=np.zeros((0, 2))),
                 "need an n x d point array, got shape (0, 2)", id="points-empty"),
    pytest.param(lambda: PointDataset(points=np.array([[1.0, np.inf]])),
                 "dataset contains non-finite values", id="points-non-finite"),
    pytest.param(lambda: KernelSpec(kind="rbf", poly_degree=2),
                 "rbf kernel takes no poly_degree", id="rbf-poly"),
    pytest.param(lambda: KernelSpec(kind="polynomial", poly_degree=2,
                                    poly_offset=1.0, rbf_width=1.0),
                 "polynomial kernel takes no rbf_width", id="polynomial-width"),
    pytest.param(lambda: column_projection(X, sample((0,), rows=5)),
                 "sample has 5 rows, matrix has 4", id="projection-rows"),
    pytest.param(lambda: nystrom(K, sample((0,), rows=5)),
                 "sample has 5 rows, matrix has 4", id="nystrom-rows"),
    pytest.param(lambda: column_projection(X, sample(())),
                 "sample has no columns", id="projection-empty"),
    pytest.param(lambda: nystrom(K, sample(())),
                 "sample has no columns", id="nystrom-empty"),
    pytest.param(lambda: column_projection(X, sample((3,))),
                 "sample indices out of range for this matrix", id="projection-past-end"),
    pytest.param(lambda: nystrom(K, sample((-1,))),
                 "sample indices out of range for this matrix", id="nystrom-negative"),
    pytest.param(lambda: nystrom(X, sample((0,))),
                 "matrix must be square, got (4, 3)", id="nystrom-not-square"),
    pytest.param(lambda: SplitMix64(0).normals(-1),
                 "count must be non-negative", id="normals-negative"),
    pytest.param(lambda: ColumnSample(indices=(0, 1), submatrix=np.zeros((4, 1))),
                 "submatrix width does not match index count", id="sample-width"),
    pytest.param(lambda: SynthSpec(n=10, m=10, rank=2, coherence="extreme"),
                 "unknown coherence level 'extreme'", id="synth-coherence"),
    pytest.param(lambda: add_noise(np.zeros((10, 10)), SynthSpec(n=10, m=10, rank=2)),
                 "spec.noise must be set to add noise", id="add-noise-without-noise"),
    pytest.param(lambda: basis_aligned_matrix(5, 5, 0),
                 "rank 0 out of range for 5x5", id="aligned-rank-0"),
    pytest.param(lambda: adversarial_spsd(5, seed=0, inner_dim=0),
                 "inner_dim must be >= 1", id="adversarial-inner-dim-0"),
    pytest.param(lambda: adversarial_spsd(20, seed=0, inflation=1e308),
                 "inflation 1e+308 times the largest diagonal entry (29.1618) "
                 "overflows float64", id="adversarial-inflation-overflows"),
    pytest.param(lambda: build_kernel(
        PointDataset(points=SplitMix64(0).normal_matrix(30, 3)),
        KernelSpec(kind="polynomial", poly_degree=400, poly_offset=100.0)),
                 "polynomial kernel overflows float64 at poly_degree 400 and "
                 "poly_offset 100.0", id="polynomial-overflows"),
    pytest.param(lambda: build_kernel(HUGE, KernelSpec(kind="linear")),
                 "linear kernel overflows float64 at point entries up to 1e+160",
                 id="linear-gram-overflows"),
    pytest.param(lambda: build_kernel(HUGE, KernelSpec(kind="rbf")),
                 "rbf kernel overflows float64 at point entries up to 1e+160",
                 id="rbf-distances-overflow"),
    pytest.param(lambda: build_kernel(
        HUGE, KernelSpec(kind="polynomial", poly_degree=1, poly_offset=0.0)),
                 "polynomial kernel overflows float64 at point entries up to 1e+160",
                 id="polynomial-gram-overflows"),
    pytest.param(lambda: build_kernel(HUGE, KernelSpec(kind="rbf", rbf_width=1.0)),
                 "rbf kernel overflows float64 at point entries up to 1e+160",
                 id="rbf-gram-overflows"),
    pytest.param(lambda: build_kernel(SMALL, KernelSpec(kind="rbf", rbf_width=1e-200)),
                 "rbf kernel overflows float64 at rbf_width 1e-200",
                 id="rbf-width-square-underflows"),
    pytest.param(lambda: build_kernel(SMALL, KernelSpec(kind="rbf", rbf_width=1e200)),
                 "rbf kernel overflows float64 at rbf_width 1e+200",
                 id="rbf-width-square-overflows"),
    pytest.param(lambda: update_projector(np.zeros((3, 2)), np.zeros((3, 1))),
                 "projector must be square, got (3, 2)", id="projector-not-square"),
    pytest.param(lambda: sample_size_bound(0, 1.0, 0.1, 1.0, 1.0),
                 "rank must be >= 1", id="bound-rank-0"),
    pytest.param(lambda: sample_size_bound(2.5, 1.0, 0.1, 1, 1),
                 "rank must be an integer, got 2.5", id="bound-rank-float"),
    pytest.param(lambda: estimate_coherence(X, 2.5),
                 "rank parameter must be an integer, got 2.5", id="estimate-rank-float"),
    pytest.param(lambda: nested_factors(X, [2.0, 4.0]),
                 "sizes must be integers, got [2.0, 4.0]", id="sizes-float"),
    pytest.param(lambda: uniform_sample(X, 3, 1.5),
                 "seed must be an integer in [0, 2**64), got 1.5", id="sample-seed-float"),
    pytest.param(lambda: uniform_sample(X, 3, -1),
                 "seed must be an integer in [0, 2**64), got -1", id="sample-seed-negative"),
    pytest.param(lambda: low_rank_matrix(SynthSpec(n=10, m=10, rank=2, seed=1.5)),
                 "seed must be an integer in [0, 2**64), got 1.5", id="synth-seed-float"),
    pytest.param(lambda: adversarial_spsd(4, 2.7),
                 "seed must be an integer in [0, 2**64), got 2.7",
                 id="adversarial-seed-float"),
    pytest.param(lambda: SplitMix64(True),
                 "seed must be an integer in [0, 2**64), got True", id="seed-bool"),
    pytest.param(lambda: estimate_coherence(X, True),
                 "rank parameter must be an integer, got True", id="estimate-rank-bool"),
    pytest.param(lambda: nested_factors(X, [True]),
                 "sizes must be integers, got [True]", id="sizes-bool"),
    pytest.param(lambda: sample_size_bound(True, 1.0, 0.1, 1, 1),
                 "rank must be an integer, got True", id="bound-rank-bool"),
])
def test_library_input_check_names_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
