import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse
import scipy.spatial.distance

import matcoh
from matcoh.kernels import (
    KernelSpec,
    PointDataset,
    build_kernel,
    default_rbf_width,
    load_csv,
    load_matrix_market,
    save_csv,
    spectrum_energy_rank,
    standardize,
)
from matcoh.sampling import SplitMix64
from matcoh.synthetic import SynthSpec, low_rank_matrix, singular_spectrum


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_basic(tmp_path):
    ds = load_csv(write(tmp_path, "1,2\n3,4\n"))
    assert ds.points.shape == (2, 2)
    np.testing.assert_array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_skips_blank_lines(tmp_path):
    ds = load_csv(write(tmp_path, "1,2\n\n3,4\n \n\n"))
    np.testing.assert_array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_skips_header(tmp_path):
    ds = load_csv(write(tmp_path, "x,y\n1,2\n3,4\n"))
    assert ds.points.shape == (2, 2)
    # One token that is not a number makes the first row a header.
    ds = load_csv(write(tmp_path, "x,nan\n1,2\n", name="mixed.csv"))
    np.testing.assert_array_equal(ds.points, [[1.0, 2.0]])


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    # Spreadsheet exports often start with a UTF-8 BOM; read as part of
    # the first token it made the first data row look like a header.
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n")
    np.testing.assert_array_equal(load_csv(path).points,
                                  [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    path.write_bytes(b"\xef\xbb\xbfx,y\n1,2\n3,4\n")
    np.testing.assert_array_equal(load_csv(path).points, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_reports_line_numbers(tmp_path):
    path = write(tmp_path, "1,2\n3,oops\n")
    with pytest.raises(ValueError, match=r":2:"):
        load_csv(path)


def test_load_csv_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError, match=r"non-finite"):
        load_csv(write(tmp_path, "1,2\n3,inf\n"))
    # A first row of numbers is data, not a header, even when one is not finite.
    for token in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=rf":1: non-finite value: '{token}'$"):
            load_csv(write(tmp_path, f"1.0,{token}\n3,4\n"))


def test_load_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match=r":2:"):
        load_csv(write(tmp_path, "1,2\n3\n"))


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(ValueError, match="no data"):
        load_csv(write(tmp_path, ""))
    with pytest.raises(ValueError, match="no data"):
        load_csv(write(tmp_path, "only,a,header\n"))


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ds = PointDataset(points=rng.standard_normal((7, 3)))
    path = tmp_path / "pts.csv"
    save_csv(ds, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.points, ds.points)


def test_load_matrix_market_dense_and_sparse(tmp_path):
    rng = np.random.default_rng(1)
    M = rng.standard_normal((5, 4))
    dense_path = tmp_path / "dense.mtx"
    scipy.io.mmwrite(dense_path, M)
    np.testing.assert_allclose(load_matrix_market(dense_path), M, atol=1e-12)

    coo = scipy.sparse.random(6, 6, density=0.4, random_state=2)
    sparse_path = tmp_path / "sparse.mtx"
    scipy.io.mmwrite(sparse_path, coo)
    np.testing.assert_allclose(load_matrix_market(sparse_path), coo.toarray(),
                               atol=1e-12)


def test_load_matrix_market_malformed(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\nnot numbers\n")
    with pytest.raises(ValueError):
        load_matrix_market(path)


def test_cli_import_leaves_scipy_io_unloaded():
    # Only load_matrix_market needs scipy.io; a command that reads no
    # Matrix Market file must not pay for importing it.
    src = str(Path(matcoh.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, matcoh.cli; print('scipy.io' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


_IMPORT_GUARD_RUNS = {
    "rbf": "kind = coherence_only\ndata = points.csv\nkernel = rbf\nl_values = 5\n",
    # 300 points: the truth takes the Krylov route, not eigh.
    "suite300": ("kind = kernel_suite\ndata = points300.csv\nkernel = rbf\n"
                 "r_policy = energy\nl_values = 5, 10\n"),
    "suite": ("kind = kernel_suite\ndata = points.csv\nkernel = rbf\n"
              "r_policy = energy\nl_values = 5, 10\ntrials = 2\n"),
    "exact": ("kind = synth_exact\nn = 150\nm = 80\nrank = 6\n"
              "coherence = high\nl_values = 4, 8, 12\ntrials = 2\n"),
    "noisy": ("kind = synth_noisy\nn = 20\nm = 60\nrank = 3\nnoise = 0.1\n"
              "r_policy = explicit\nr = 3\nexclude = 0, 1\n"
              "l_values = 3, 6\ntrials = 2\n"),
}


def test_kernel_run_leaves_numpy_ma_unloaded(tmp_path):
    # The default RBF width takes its median without `np.median`, whose
    # first call imports numpy.ma for its NaN check. No run that reads no
    # Matrix Market file imports scipy at all: `scipy.linalg` alone costs
    # more start-up time and memory than a toy run.
    save_csv(cloud(30), tmp_path / "points.csv")
    save_csv(cloud(300), tmp_path / "points300.csv")
    for name, text in _IMPORT_GUARD_RUNS.items():
        (tmp_path / f"{name}.cfg").write_text(f"{text}output = {name}.csv\n")
    src = str(Path(matcoh.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("MATCOH_OUTPUT_DIR", None)
    code = ("import sys, matcoh.cli\n"
            f"rcs = [matcoh.cli.main(['run', f'{{name}}.cfg']) for name in {list(_IMPORT_GUARD_RUNS)}]\n"
            "loaded = [m for m in sys.modules if m == 'numpy.ma' or m.split('.')[0] == 'scipy']\n"
            "print(rcs, sorted(loaded))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == f"{[0] * len(_IMPORT_GUARD_RUNS)} []"
    for name in _IMPORT_GUARD_RUNS:
        assert (tmp_path / f"{name}.csv").exists()


@pytest.mark.parametrize("name, params", [
    ("rbf_width", {"kind": "rbf", "rbf_width": 1.0}),
    ("poly_offset", {"kind": "polynomial", "poly_degree": 2, "poly_offset": 1.0}),
    ("poly_degree", {"kind": "polynomial", "poly_degree": 2, "poly_offset": 1.0}),
])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_kernel_spec_rejects_non_finite_parameters(name, params, value):
    with pytest.raises(ValueError, match=name):
        KernelSpec(**{**params, name: value})


def test_kernel_spec_parameter_discipline():
    # No rbf_width is the default width, built bit for bit as the
    # explicit one, on each side of the width's subsample cut (1100
    # points: the width reads an evenly spaced subsample).
    for n in (60, 1100):
        ds = cloud(n=n, seed=n)
        explicit = KernelSpec(kind="rbf", rbf_width=default_rbf_width(ds))
        assert np.array_equal(build_kernel(ds, KernelSpec(kind="rbf")),
                              build_kernel(ds, explicit))
    with pytest.raises(ValueError, match="rbf kernel needs a positive rbf_width"):
        KernelSpec(kind="rbf", rbf_width=-1.0)
    with pytest.raises(ValueError):
        KernelSpec(kind="linear", rbf_width=1.0)
    with pytest.raises(ValueError):
        KernelSpec(kind="polynomial", poly_degree=2, poly_offset=-1.0)
    with pytest.raises(ValueError):
        KernelSpec(kind="sigmoid")
    KernelSpec(kind="polynomial", poly_degree=2, poly_offset=1.0)


def test_kernel_spec_rejects_a_fractional_poly_degree():
    # (x . y)^2.5 is NaN wherever x . y < 0, so such a degree never builds.
    with pytest.raises(ValueError, match="whole poly_degree, got 2.5"):
        KernelSpec(kind="polynomial", poly_degree=2.5, poly_offset=0.0)
    with pytest.raises(ValueError, match="poly_degree >= 1"):
        KernelSpec(kind="polynomial", poly_degree=0.5, poly_offset=0.0)
    # A whole float degree builds as its integer does.
    ds = cloud(n=5, d=3)
    assert np.array_equal(
        build_kernel(ds, KernelSpec(kind="polynomial", poly_degree=2.0,
                                    poly_offset=0.0)),
        build_kernel(ds, KernelSpec(kind="polynomial", poly_degree=2,
                                    poly_offset=0.0)))


def cloud(n=20, d=4, seed=0):
    return PointDataset(points=np.random.default_rng(seed).standard_normal((n, d)))


def _formula_kernel(dataset, spec):
    """The whole-array kernel formulas, the in-place build's oracle."""
    P = dataset.points
    gram = P @ P.T
    if spec.kind == "linear":
        K = gram
    elif spec.kind == "rbf":
        sq = np.diagonal(gram)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
        K = np.exp(-d2 / (2.0 * spec.rbf_width**2))
    else:
        K = (gram + spec.poly_offset) ** spec.poly_degree
    return np.asfortranarray((K + K.T) / 2.0)


_BUILD_SPECS = [
    KernelSpec(kind="linear"),
    KernelSpec(kind="rbf", rbf_width=1.3),
    KernelSpec(kind="rbf", rbf_width=0.2),
    KernelSpec(kind="polynomial", poly_degree=1, poly_offset=0.5),
    KernelSpec(kind="polynomial", poly_degree=2, poly_offset=1.0),
    KernelSpec(kind="polynomial", poly_degree=3, poly_offset=0.0),
]


# Odd sizes, and sizes that are not a multiple of the RBF row block.
@pytest.mark.parametrize("n", [1, 7, 257, 600])
@pytest.mark.parametrize("spec", _BUILD_SPECS, ids=lambda s: s.kind)
def test_in_place_build_gives_the_formulas_bits(n, spec):
    # C-ordered, F-ordered and strided points. numpy forms P Pᵀ exactly
    # symmetric from a C- or F-contiguous P, but not from a strided one;
    # the dataset stores every P C-contiguous, so the build needs no
    # symmetrization pass and K equals its transpose bit for bit.
    for points in (cloud(n, d=5, seed=n).points,
                   SplitMix64(n).normal_matrix(n, 5),
                   cloud(n, d=10, seed=n).points[:, ::2]):
        dataset = PointDataset(points=points)
        K = build_kernel(dataset, spec)
        assert K.flags.f_contiguous
        assert np.array_equal(K, _formula_kernel(dataset, spec))
        assert np.array_equal(K, K.T)


@pytest.mark.parametrize("spec", _BUILD_SPECS[:2] + _BUILD_SPECS[4:5],
                         ids=lambda s: s.kind)
def test_build_kernel_holds_one_n_by_n_matrix(spec):
    # The whole-array formulas peaked at 3 (linear), 4 (polynomial) and
    # 5 (rbf) n x n matrices.
    n = 1000
    dataset = cloud(n, d=8)
    tracemalloc.start()
    try:
        build_kernel(dataset, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n


def test_point_dataset_stores_its_points_c_contiguous():
    points = np.random.default_rng(0).standard_normal((9, 6))
    assert PointDataset(points=points).points is points
    for other in (np.asfortranarray(points), points[:, ::2], points[::2]):
        stored = PointDataset(points=other).points
        assert stored.flags.c_contiguous and not stored.flags.writeable
        assert np.array_equal(stored, other)


@pytest.mark.parametrize("spec", _BUILD_SPECS[:2] + _BUILD_SPECS[4:5],
                         ids=lambda s: s.kind)
def test_point_dataset_stores_real_points_as_float64(spec):
    # Integer and bool points give the kernel of the same points as
    # floats; complex ones would lose their imaginary parts.
    points = np.arange(-6, 6).reshape(4, 3)
    for other in (points, points > 0):
        got = build_kernel(PointDataset(points=other), spec)
        want = build_kernel(PointDataset(points=other.astype(float)), spec)
        assert got.dtype == np.float64 and np.array_equal(got, want)
    with pytest.raises(ValueError, match=r"^dataset points must be real, "
                                         r"got dtype complex128$"):
        PointDataset(points=points + 1j)


def test_rbf_of_a_tiny_width_is_the_identity():
    # -d²/(2w²) overflows to -inf off the diagonal, and exp maps it to the
    # exact 0 (before, with a RuntimeWarning). The diagonal's squared
    # distances are exactly 0, so it stays 1.
    points = PointDataset(points=np.arange(12.0).reshape(6, 2))
    K = build_kernel(points, KernelSpec(kind="rbf", rbf_width=1e-160))
    assert np.array_equal(K, np.eye(6))


def test_rbf_diagonal_is_one():
    # ‖x_i‖² is read off the Gram matrix's own diagonal, so each point is
    # exactly 0 from itself, at any width (row norms summed in another
    # order left 95 of these 500 entries off 1 at the median width, and
    # 110 at a width of 1e-9, some of them 0).
    dataset = PointDataset(points=SplitMix64(300).normal_matrix(500, 8))
    K = build_kernel(dataset, KernelSpec(kind="rbf"))
    assert np.all(np.diagonal(K) == 1.0) and np.array_equal(K, K.T)
    K = build_kernel(dataset, KernelSpec(kind="rbf", rbf_width=1e-9))
    assert np.array_equal(K, np.eye(500))


def test_rbf_matches_scipy_pairwise_distances():
    # An oracle independent of the Gram matrix: scipy's pairwise
    # distances, off the diagonal.
    points = SplitMix64(300).normal_matrix(500, 8)
    width = default_rbf_width(PointDataset(points=points))
    K = build_kernel(PointDataset(points=points), KernelSpec(kind="rbf"))
    d2 = scipy.spatial.distance.pdist(points, "sqeuclidean")
    want = np.exp(-d2 / (2.0 * width**2))
    got = K[np.triu_indices(500, k=1)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_linear_kernel_orthogonal_rows():
    pts = np.diag([2.0, 3.0, 4.0])
    K = build_kernel(PointDataset(points=pts), KernelSpec(kind="linear"))
    np.testing.assert_allclose(K, np.diag([4.0, 9.0, 16.0]), atol=1e-14)


@pytest.mark.parametrize("spec", [
    KernelSpec(kind="linear"),
    KernelSpec(kind="rbf", rbf_width=1.5),
    KernelSpec(kind="polynomial", poly_degree=2, poly_offset=1.0),
])
def test_kernels_symmetric_and_psd(spec):
    K = build_kernel(cloud(n=25, seed=3), spec)
    assert np.max(np.abs(K - K.T)) <= 1e-12
    eigs = np.linalg.eigvalsh(K)
    assert eigs.min() >= -1e-8 * max(eigs.max(), 1.0)


def test_rbf_small_cloud_psd():
    K = build_kernel(cloud(n=5, seed=4), KernelSpec(kind="rbf", rbf_width=1.0))
    assert np.linalg.eigvalsh(K).min() >= -1e-10


def test_kernel_permutation_equivariance():
    ds = cloud(n=12, seed=5)
    spec = KernelSpec(kind="rbf", rbf_width=2.0)
    K = build_kernel(ds, spec)
    perm = np.random.default_rng(6).permutation(12)
    K_perm = build_kernel(PointDataset(points=ds.points[perm]), spec)
    np.testing.assert_allclose(K_perm, K[np.ix_(perm, perm)], atol=1e-12)


def test_standardize():
    ds = PointDataset(points=np.array([[1.0, 5.0], [3.0, 5.0]]))
    out = standardize(ds).points
    np.testing.assert_allclose(out.mean(axis=0), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(out[:, 0].std(), 1.0)
    np.testing.assert_allclose(out[:, 1], 0.0)  # constant feature untouched


def test_median_width_positive_and_guarded():
    assert default_rbf_width(cloud()) > 0.0
    dup = PointDataset(points=np.ones((4, 2)))
    with pytest.raises(ValueError):
        default_rbf_width(dup)


def np_median_width(pts):
    """The median width by its definition: `np.median` of every pair's distance."""
    n = pts.shape[0]
    if n > 1000:
        pts = pts[np.linspace(0, n - 1, 1000).round().astype(int)]
        n = 1000
    gram = pts @ pts.T
    sq = np.diagonal(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    return np.median(np.sqrt(np.maximum(d2[np.triu_indices(n, k=1)], 0.0)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 40, 248, 500, 1000, 2500])
def test_median_width_equals_np_median(n):
    # n (n - 1) / 2 pairs: odd for n = 2, 3, 6, even for n = 4, 5, 8, 40,
    # 248, 500 and 1000; several row blocks of the in-place distances
    # from n = 500. At n = 248 numpy's partition at the middle leaves a
    # value below the middle that is not the lower part's largest.
    # Beyond 1000 points the width is the formula's on 1000 evenly
    # spaced ones.
    pts = cloud(n, d=3, seed=n).points
    got = default_rbf_width(PointDataset(points=pts))
    assert np.float64(got).tobytes() == np_median_width(pts).tobytes()


# (points, of which the first `same` coincide). The coordinates are
# multiples of 1/8, so coinciding points are exactly 0 apart, and those
# zeros sit inside the partition: 3 of 4 put the value just below the
# middle of an even pair count at 0, and 5 of 7 leave 10 zeros of 21
# pairs, one short of an odd count's middle. 1500 points read the
# subsample.
@pytest.mark.parametrize("n, same", [(3, 2), (4, 3), (5, 3), (7, 5),
                                     (40, 20), (1500, 600)])
def test_median_width_with_duplicate_points_equals_np_median(n, same):
    pts = np.round(cloud(n, d=3, seed=n).points * 8.0) / 8.0
    pts[1:same] = pts[0]
    got = default_rbf_width(PointDataset(points=pts))
    assert np.float64(got).tobytes() == np_median_width(pts).tobytes()


@pytest.mark.parametrize("n", [2, 5, 1500])
def test_median_width_of_identical_points_is_rejected(n):
    dup = PointDataset(points=np.full((n, 3), 0.25))
    with pytest.raises(ValueError, match=r"^median pairwise distance is zero "
                                         r"\(duplicate points\)$"):
        default_rbf_width(dup)
    with pytest.raises(ValueError, match="^need at least two points for a "
                                         "pairwise distance$"):
        default_rbf_width(PointDataset(points=np.ones((1, 3))))


def test_median_subsample_deterministic():
    ds = PointDataset(points=np.random.default_rng(7).standard_normal((2500, 3)))
    assert default_rbf_width(ds) == default_rbf_width(ds)
    # Beyond 1000 points the width is read off 1000 evenly spaced ones.
    sub = PointDataset(points=ds.points[np.linspace(0, 2499, 1000).round().astype(int)])
    assert default_rbf_width(ds) == default_rbf_width(sub)


def spectrum(X):
    return np.linalg.svd(X, compute_uv=False)


def test_energy_rank_rank_one():
    v = np.arange(1.0, 6.0)
    assert spectrum_energy_rank(spectrum(np.outer(v, v)), 0.99) == 1


def test_energy_rank_identity():
    for n in (7, 100):
        assert spectrum_energy_rank(np.ones(n), 0.99) == int(np.ceil(0.99 * n))


def test_energy_rank_matches_cumulative_oracle():
    spec = SynthSpec(n=120, m=120, rank=50, decay="medium", seed=8)
    s = spectrum(low_rank_matrix(spec))
    # independent cumulative-sum oracle
    energy = s * s
    total = energy.sum()
    running, expected = 0.0, None
    for i, e in enumerate(energy, start=1):
        running += e
        if running >= 0.99 * total:
            expected = i
            break
    assert spectrum_energy_rank(s, 0.99) == expected
    # sanity: the analytic spectrum gives the same count
    analytic = singular_spectrum(spec) ** 2
    running = np.cumsum(analytic)
    assert expected == int(np.argmax(running >= 0.99 * running[-1])) + 1


def test_energy_rank_monotone_in_fraction():
    s = spectrum(low_rank_matrix(SynthSpec(n=40, m=40, rank=20, decay="slow", seed=9)))
    ranks = [spectrum_energy_rank(s, f) for f in (0.5, 0.9, 0.99, 1.0)]
    assert ranks == sorted(ranks)


def test_energy_rank_zero_matrix_and_bad_fraction():
    assert spectrum_energy_rank(np.zeros(3), 0.99) == 0
    with pytest.raises(ValueError):
        spectrum_energy_rank(np.ones(2), 0.0)
    with pytest.raises(ValueError):
        spectrum_energy_rank(np.ones(2), 1.5)
