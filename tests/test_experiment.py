import csv
import dataclasses
import importlib.util
import inspect
import math
import re
import statistics
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import matcoh.coherence
import matcoh.experiment
import matcoh.kernels
import matcoh.linalg
import matcoh.lowrank
import matcoh.sampling
import matcoh.synthetic
from matcoh.cli import main
from matcoh.experiment import (
    RAW_HEADER,
    ExperimentConfig,
    TrialResult,
    config_from_dict,
    load_config,
    parse_config_text,
    read_raw_csv,
    run_experiment,
    summarize,
    write_raw_csv,
    write_summary_csv,
)
from matcoh.coherence import (
    basis_coherence,
    estimate_coherence,
    nested_factors,
)
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
from matcoh.linalg import (ThinSVD, _spsd_top, _squares, as_dense, left_svd,
                           numerical_rank, thin_svd)
from matcoh.sampling import SplitMix64, nested_samples, uniform_sample
from matcoh.synthetic import SynthSpec, adversarial_spsd, low_rank_matrix


def test_parse_config_text():
    raw = parse_config_text(
        "# synthetic run\nkind = synth_exact\nl_values = 2, 4\nn = 30  # dims\n"
    )
    assert raw == {"kind": "synth_exact", "l_values": "2, 4", "n": "30"}


def test_parse_config_hash_inside_value_is_not_a_comment():
    raw = parse_config_text(
        "data = runs/#3/points.csv\nid = a#b\t# tab comment\n  # indented\n"
    )
    assert raw == {"data": "runs/#3/points.csv", "id": "a#b"}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("kind = synth_exact\nbogus = 1\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("just words\n")


def test_parse_config_rejects_a_repeated_key():
    # A `--set` override still replaces a file's value
    # (test_load_config_with_overrides); a file sets each key once.
    with pytest.raises(ValueError, match=r"^config line 3: key 'n' is set twice$"):
        parse_config_text("kind = synth_exact\nn = 30\nn = 40\n")


def test_config_validation():
    with pytest.raises(ValueError, match="ascending"):
        config_from_dict({"kind": "synth_exact", "l_values": "4,2"})
    with pytest.raises(ValueError, match="trials"):
        config_from_dict({"kind": "synth_exact", "l_values": "2", "trials": "0"})
    with pytest.raises(ValueError, match="kind"):
        config_from_dict({"l_values": "2"})
    with pytest.raises(ValueError, match="r_policy"):
        config_from_dict({"kind": "synth_exact", "l_values": "2",
                          "r_policy": "explicit"})


# One valid, non-default value for every source key.
SOURCE_VALUES = {
    "n": "30", "m": "30", "rank": "3", "decay": "fast", "coherence": "high",
    "matrix_seed": "7", "noise": "0.1", "inflation": "10", "inner_dim": "5",
    "data": "points.csv", "kernel": "linear", "standardize": "on",
    "rbf_width": "2.0", "poly_degree": "3", "poly_offset": "0.5",
    "matrix": "a.mtx",
}
SYNTH_READS = ("n", "m", "rank", "decay", "coherence", "matrix_seed")
KERNEL_READS = ("data", "kernel", "standardize")
# A minimal valid config of each source, and the source keys it reads.
SOURCE_CASES = {
    "synth_exact": ({"kind": "synth_exact", "n": "30", "m": "30", "rank": "3"},
                    SYNTH_READS),
    "synth_noisy": ({"kind": "synth_noisy", "n": "30", "m": "30", "rank": "3",
                     "noise": "0.1"}, SYNTH_READS + ("noise",)),
    "worst_case": ({"kind": "worst_case", "n": "30"},
                   ("n", "inflation", "inner_dim", "matrix_seed")),
    "rbf": ({"kind": "kernel_suite", "data": "p.csv", "kernel": "rbf"},
            KERNEL_READS + ("rbf_width",)),
    "polynomial": ({"kind": "kernel_suite", "data": "p.csv", "kernel": "polynomial"},
                   KERNEL_READS + ("poly_degree", "poly_offset")),
    "linear": ({"kind": "kernel_suite", "data": "p.csv", "kernel": "linear"},
               KERNEL_READS),
    # `data` would make this a kernel source; see the data-with-matrix case.
    "matrix": ({"kind": "coherence_only", "matrix": "a.mtx"}, ("matrix", "data")),
}
SYNTH = SOURCE_CASES["synth_exact"][0]
UNREAD_CASES = [
    pytest.param(base, key, SOURCE_VALUES[key], id=f"{source}-{key}")
    for source, (base, reads) in SOURCE_CASES.items()
    for key in SOURCE_VALUES if key not in reads
] + [
    pytest.param(SYNTH, "r", "2", id="none-r"),
    pytest.param(dict(SYNTH, r_policy="energy"), "r", "2", id="energy-r"),
    pytest.param(SYNTH, "energy_fraction", "0.5", id="none-energy_fraction"),
    pytest.param(dict(SYNTH, r_policy="explicit", r="2"), "energy_fraction",
                 "0.5", id="explicit-energy_fraction"),
    pytest.param({"kind": "coherence_only", "data": "p.csv", "kernel": "rbf"},
                 "matrix", "a.mtx", id="coherence_only-data-with-matrix"),
]


@pytest.mark.parametrize("base, key, value", UNREAD_CASES)
def test_config_rejects_keys_the_run_would_not_read(tmp_path, base, key, value):
    base = dict(base, l_values="2")
    config_from_dict(base)
    names_key = rf"config keys: (.*, )?{key}(,|$)"
    with pytest.raises(ValueError, match=names_key):
        config_from_dict(dict(base, **{key: value}))
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    with pytest.raises(ValueError, match=names_key):
        load_config(path, overrides=[f"{key}={value}"])


def test_config_names_missing_and_unknown_kernel_sources():
    with pytest.raises(ValueError, match="kind 'kernel_suite' needs config keys: kernel$"):
        config_from_dict({"kind": "kernel_suite", "l_values": "2", "data": "p.csv"})
    with pytest.raises(ValueError, match="needs config keys: kernel$"):
        config_from_dict({"kind": "coherence_only", "l_values": "2",
                          "data": "p.csv", "matrix": "a.mtx"})
    with pytest.raises(ValueError, match="unknown kernel 'sigmoid'"):
        config_from_dict({"kind": "kernel_suite", "l_values": "2",
                          "data": "p.csv", "kernel": "sigmoid"})
    with pytest.raises(ValueError, match="needs config keys: noise$"):
        config_from_dict({"kind": "synth_noisy", "l_values": "2",
                          "n": "30", "m": "30", "rank": "3"})


@pytest.mark.parametrize("raw, message", [
    ({"kind": "synth_noisy", "n": "30", "m": "30", "rank": "3", "noise": "1.5"},
     r"noise fraction must be in \(0, 1\), got 1.5"),
    ({"kind": "synth_exact", "n": "30", "m": "30", "rank": "3", "decay": "quick"},
     "unknown decay 'quick'"),
    ({"kind": "synth_exact", "n": "20", "m": "20", "rank": "30"},
     "rank 30 out of range for 20x20"),
    ({"kind": "kernel_suite", "kernel": "rbf", "rbf_width": "-1"},
     "rbf kernel needs a positive rbf_width"),
    ({"kind": "kernel_suite", "kernel": "polynomial", "poly_degree": "0"},
     r"polynomial kernel needs poly_degree >= 1"),
], ids=["noise", "decay", "rank", "rbf_width", "poly_degree"])
def test_config_checks_source_values_before_reading_data(tmp_path, raw, message):
    raw = dict(raw, l_values="2")
    if raw["kind"] == "kernel_suite":
        raw["data"] = str(tmp_path / "missing.csv")
    with pytest.raises(ValueError, match=message):
        config_from_dict(raw)


@pytest.mark.parametrize("extra, message", [
    ({"kind": "synth_fancy"}, "unknown experiment kind 'synth_fancy'"),
    ({"l_values": ""}, "l_values must not be empty"),
    ({"l_values": "0, 5"}, "l values must be >= 1"),
    ({"r_policy": "sometimes"}, "unknown r_policy 'sometimes'"),
    ({"r_policy": "energy", "energy_fraction": "1.5"},
     "energy_fraction must be in (0, 1]"),
    ({"timing": "maybe"}, "config key 'timing': not a boolean: 'maybe'"),
    ({"colour": "red"}, "unknown config key 'colour'"),
    ({"base_seed": "-1"},
     "base_seed must be in [0, 2**64 - trials] = [0, 18446744073709551615], got -1"),
    ({"base_seed": "18446744073709551615", "trials": "2"},
     "base_seed must be in [0, 2**64 - trials] = [0, 18446744073709551614], "
     "got 18446744073709551615"),
    ({"base_seed": "18446744073709551617"},
     "base_seed must be in [0, 2**64 - trials] = [0, 18446744073709551615], "
     "got 18446744073709551617"),
    ({"matrix_seed": "-1"}, "matrix_seed must be in [0, 2**64), got -1"),
    ({"matrix_seed": "18446744073709551616"},
     "matrix_seed must be in [0, 2**64), got 18446744073709551616"),
], ids=["kind", "empty_l_values", "l_value_0", "r_policy", "energy_fraction",
        "timing", "unknown_key", "base_seed_negative", "base_seed_last_trial",
        "base_seed_aliases", "matrix_seed_negative", "matrix_seed_past_64_bits"])
def test_config_rejects_a_bad_run_setting(extra, message):
    raw = {**SYNTH, "l_values": "2", **extra}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_from_dict(raw)


def test_config_takes_the_largest_seeds_splitmix64_keeps():
    config = config_from_dict({**SYNTH, "l_values": "2", "trials": "2",
                               "base_seed": str(2**64 - 2),
                               "matrix_seed": str(2**64 - 1)})
    assert (config.base_seed, config.matrix_seed) == (2**64 - 2, 2**64 - 1)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)
                                 if f.type in (float, float | None)])
def test_config_rejects_a_non_finite_float_at_load(key, value):
    # Any source will do: the value is checked when it is parsed.
    raw = {"kind": "synth_exact", "l_values": "2", "n": "30", "m": "30",
           "rank": "3", key: value}
    with pytest.raises(ValueError, match=rf"^config key '{key}': not a finite "
                                         rf"number: '{value}'$"):
        config_from_dict(raw)


def test_benchmark_workload_configs_load(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path = tmp_path / "exp.cfg"
    for name in workloads.NAMES:
        for size in ("full", "toy"):
            for setup in (False, True):
                cfg = workloads.config_values(name, 300, size, setup)
                path.write_text(workloads.config_text(cfg))
                config = load_config(path)
                assert (config.kind, config.l_values) == (cfg["kind"],
                                                          cfg["l_values"])


def synth_config(**extra):
    base = dict(kind="synth_exact", experiment_id="t", l_values=(2, 4, 8),
                trials=3, base_seed=5, n=30, m=30, rank=4, coherence="low")
    base.update(extra)
    return ExperimentConfig(**base)


def test_run_synth_exact_rows_and_order():
    results = run_experiment(synth_config())
    assert len(results) == 9
    keys = [(r.trial, r.l) for r in results]
    assert keys == sorted(keys)
    for r in results:
        assert r.seed == 5 + r.trial
        assert 0.0 <= r.gamma_est <= 1.0
        assert 0.0 <= r.gamma_true <= 1.0
        assert r.method is None and r.normalized_error is None


def test_run_nested_estimates_monotone_per_trial():
    results = run_experiment(synth_config(l_values=tuple(range(1, 21)), trials=4))
    for trial in range(4):
        curve = [r.gamma_est for r in results if r.trial == trial]
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))


def test_run_full_sample_on_basis_aligned_matrix_exact(tmp_path):
    # all columns sampled from the basis-aligned matrix: estimate == truth
    import scipy.io
    from matcoh.synthetic import basis_aligned_matrix

    path = tmp_path / "aligned.mtx"
    scipy.io.mmwrite(path, basis_aligned_matrix(100, 100, 5))
    config = ExperimentConfig(kind="coherence_only", experiment_id="p",
                              l_values=(100,), trials=2, base_seed=0,
                              matrix=str(path))
    results = run_experiment(config)
    assert len(results) == 2
    for r in results:
        assert r.gamma_true == 1.0
        assert r.abs_error == 0.0


def test_run_worst_case_exclusion_defeats_estimate():
    config = ExperimentConfig(kind="worst_case", experiment_id="w",
                              l_values=(10, 40), trials=2, base_seed=3,
                              n=400, inflation=1e3, inner_dim=10, exclude=(0,))
    for r in run_experiment(config):
        assert r.gamma_true > 0.99
        assert r.gamma_est <= 0.1


def test_run_synth_exact_recovers_at_rank_columns():
    config = synth_config(l_values=(4,), trials=10, rank=4, n=40, m=40)
    results = run_experiment(config)
    hits = sum(r.abs_error < 1e-8 for r in results)
    assert hits >= 9


def test_run_rejects_infeasible_l(tmp_path):
    out = tmp_path / "raw.csv"
    config = synth_config(l_values=(2, 40), output=str(out))
    with pytest.raises(ValueError):
        run_experiment(config)
    assert not out.exists()


@pytest.mark.parametrize("exclude", [(1000,), (-1,), (3, 30)])
def test_run_rejects_excluded_index_outside_the_source(monkeypatch, exclude):
    factored = []
    monkeypatch.setattr(matcoh.experiment, "left_svd",
                        lambda X, spsd=False: factored.append(X.shape))
    bad = [j for j in exclude if not 0 <= j < 30]
    with pytest.raises(ValueError, match=re.escape(f"outside [0, 30): {bad}")):
        run_experiment(synth_config(l_values=(30,), exclude=exclude))
    assert factored == []  # rejected before the truth factorization


def test_run_counts_a_repeated_excluded_index_once():
    rows = run_experiment(synth_config(l_values=(29,), trials=2, exclude=(3, 3)))
    assert len(rows) == 2
    with pytest.raises(ValueError, match="infeasible with 29 allowed columns"):
        run_experiment(synth_config(l_values=(30,), exclude=(3, 3)))


@pytest.mark.parametrize("policy", [{}, {"r_policy": "explicit", "r": 3},
                                    {"r_policy": "energy", "energy_fraction": 0.9}])
def test_gamma_true_is_the_truncated_full_estimate(tmp_path, policy):
    import scipy.io

    path = tmp_path / "noisy.mtx"
    scipy.io.mmwrite(str(path), SplitMix64(8).normal_matrix(40, 30))
    X = load_matrix_market(path)
    r = policy.get("r")
    if policy.get("r_policy") == "energy":
        r = spectrum_energy_rank(thin_svd(X).singular_values,
                                 policy["energy_fraction"])
    config = ExperimentConfig(kind="coherence_only", experiment_id="g",
                              l_values=(10,), matrix=str(path), **policy)
    rows = run_experiment(config)
    assert rows[0].gamma_true == estimate_coherence(X, rank=r).gamma


def test_sweep_factors_each_trial_once(monkeypatch):
    sweeps, factored = [], []
    real_nested = matcoh.experiment._prefix_factors
    real_svd = matcoh.experiment.left_svd

    def nested(columns, sizes, rank=None):
        sweeps.append((columns.shape, tuple(sizes), rank))
        return real_nested(columns, sizes, rank)

    def svd(X, spsd=False):
        factored.append(X.shape)
        return real_svd(X, spsd)

    monkeypatch.setattr(matcoh.experiment, "_prefix_factors", nested)
    monkeypatch.setattr(matcoh.experiment, "left_svd", svd)
    config = ExperimentConfig(kind="synth_exact", experiment_id="s",
                              l_values=(3, 8, 12), trials=3, base_seed=5,
                              n=30, m=20, rank=4)
    results = run_experiment(config)
    assert len(results) == 9
    # One sweep per trial over its largest sample, with no rank (r_policy
    # none), and no other factorization: the truth comes from the
    # generator's own factor.
    assert sweeps == [((30, 12), (3, 8, 12), None)] * 3
    assert factored == []
    # The experiment reads the same estimates off the factors that
    # `nested_factors` gives.
    X = low_rank_matrix(SynthSpec(n=30, m=20, rank=4, seed=5))
    assert [r.gamma_est for r in results] == [
        basis_coherence(f.left_basis()).gamma for trial in range(3)
        for f in nested_factors(
            nested_samples(X, 12, 5 + trial)[-1].submatrix, (3, 8, 12))]


def test_run_checks_its_source_and_builds_its_pool_once(monkeypatch, tmp_path):
    # Every as_dense binding in the package is watched, so a per-trial
    # re-check of the n x m source would show wherever it came from.
    scans, pools = [], []
    real_dense = matcoh.linalg.as_dense
    real_pool = matcoh.experiment._allowed_pool

    def dense(a):
        out = real_dense(a)
        scans.append(out.shape)
        return out

    def pool(m, excluded, size):
        pools.append((m, tuple(excluded), size))
        return real_pool(m, excluded, size)

    for module in (matcoh.experiment, matcoh.linalg, matcoh.coherence,
                   matcoh.lowrank, matcoh.sampling, matcoh.kernels,
                   matcoh.synthetic):
        if hasattr(module, "as_dense"):
            monkeypatch.setattr(module, "as_dense", dense)
    monkeypatch.setattr(matcoh.experiment, "_allowed_pool", pool)
    config = ExperimentConfig(kind="synth_noisy", experiment_id="v",
                              l_values=(5, 10, 20), trials=20, n=30, m=400,
                              rank=5, noise=0.1, r_policy="explicit", r=5,
                              exclude=(0, 1, 2, 3))
    assert len(run_experiment(config)) == 60
    # A synthetic source is held as its two factors: the run forms no
    # 30 x 400 array and scans none, and checks each trial's 30 x 20
    # block once, as it forms it.
    assert [shape for shape in scans if shape[0] == 30] == [(30, 20)] * 20
    assert pools == [(400, (0, 1, 2, 3), 20)]
    # A dense source is scanned once, at its build, and its trials take
    # K's columns unchecked. Every other scan is of a small R block.
    scans.clear()
    assert len(run_experiment(_kernel_suite_config(tmp_path))) == 18
    assert [shape for shape in scans if shape[0] == 160] == [(160, 160)]


@pytest.mark.parametrize("n, m", [(30, 120), (80, 40), (50, 50)],
                         ids=["wide", "tall", "square"])
@pytest.mark.parametrize("kind, extra", [
    ("synth_exact", {}),
    ("synth_noisy", dict(noise=0.1, r_policy="explicit", r=4)),
], ids=["exact", "noisy"])
@pytest.mark.parametrize("l_values, exclude", [((1,), ()),
                                               ((3, 10, 25), (0, 2, 7))],
                         ids=["l1", "exclude"])
def test_factored_source_run_matches_a_dense_reference(monkeypatch, n, m, kind,
                                                       extra, l_values, exclude):
    # A synthetic run forms each trial's block from the source's two
    # factors. Each block is read against the columns of the dense X at
    # the indices the public sampler draws from X, and each row against
    # the estimate of those columns. Block and columns are two roundings
    # of one product, each within k * eps * (|left| |right|ᵀ) of it: a
    # block of one to three columns runs as another BLAS kernel. On a
    # square or tall noisy source, whose folded factor cancels, that
    # moved entries by up to 3.7e-14 of max|X| (at most 0.125 of the
    # bound); elsewhere by at most 1.4e-15 of it.
    drawn = []
    real_draw = matcoh.experiment._draw_columns

    def draw(columns, allowed, size, seed):
        drawn.append(real_draw(columns, allowed, size, seed))
        return drawn[-1]

    monkeypatch.setattr(matcoh.experiment, "_draw_columns", draw)
    config = ExperimentConfig(kind=kind, experiment_id="d", l_values=l_values,
                              trials=3, base_seed=11, n=n, m=m, rank=4,
                              exclude=exclude, **extra)
    rows = run_experiment(config)
    spec = matcoh.experiment._synth_spec(config)
    X = low_rank_matrix(spec)
    left, right, _ = matcoh.synthetic.low_rank_factors(spec)
    assert len(drawn) == config.trials
    for trial, (indices, block) in enumerate(drawn):
        seed = config.base_seed + trial
        assert indices == uniform_sample(X, l_values[-1], seed, exclude).indices
        assert block.flags.f_contiguous and not block.flags.writeable
        columns = X[:, list(indices)]
        bound = (2 * left.shape[1] * np.finfo(np.float64).eps
                 * (np.abs(left) @ np.abs(right[list(indices)]).T))
        assert np.all(np.abs(block - columns) <= bound)
        for row, l in zip(rows[trial * len(l_values):], l_values):
            want = estimate_coherence(X[:, list(indices[:l])], rank=config.r)
            assert (row.trial, row.seed, row.l) == (trial, seed, l)
            assert row.r_used == want.rank_used
            assert abs(row.gamma_est - want.gamma) <= 1e-13


def test_factored_source_run_holds_no_source_sized_array():
    # X would be 4000 x 2000 (64 MB). The run holds the rank-40 factors
    # and, per trial, one 4000 x 100 block and its sweep.
    config = ExperimentConfig(kind="synth_exact", experiment_id="big",
                              l_values=(10, 50, 100), trials=2, n=4000,
                              m=2000, rank=40, coherence="high")
    tracemalloc.start()
    try:
        assert len(run_experiment(config)) == 6
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4000 * 2000 * 8 / 4, peak


_WIDE_COLUMNS = 40


def _wide_config(tmp_path):
    import scipy.io

    path = tmp_path / "wide.mtx"
    scipy.io.mmwrite(str(path), SplitMix64(9).normal_matrix(12, _WIDE_COLUMNS))
    return ExperimentConfig(kind="coherence_only", experiment_id="w",
                            l_values=(4, 10), matrix=str(path),
                            r_policy="explicit", r=3)


def _worst_case_config(tmp_path):
    return ExperimentConfig(kind="worst_case", experiment_id="a",
                            l_values=(4, 10), n=20, inner_dim=3,
                            exclude=(0,))


def _kernel_config(tmp_path):
    data = tmp_path / "pts.csv"
    save_csv(PointDataset(points=SplitMix64(6).normal_matrix(20, 3)), data)
    return ExperimentConfig(kind="coherence_only", experiment_id="k",
                            l_values=(4, 10), data=str(data), kernel="rbf",
                            r_policy="energy")


def _kernel_suite_config(tmp_path):
    # 160 points: a small source whose truth the Krylov route takes (it
    # needs 88 columns, and the space's cap at n = 160 is 96).
    data = tmp_path / "suite.csv"
    save_csv(PointDataset(points=SplitMix64(3).normal_matrix(160, 8)), data)
    return ExperimentConfig(kind="kernel_suite", experiment_id="s",
                            l_values=(10, 20, 40), trials=2, data=str(data),
                            kernel="rbf", r_policy="energy",
                            energy_fraction=0.999)


def _noisy_wide_config(tmp_path):
    return ExperimentConfig(kind="synth_noisy", experiment_id="v",
                            l_values=(5, 10, 20), trials=3, n=30, m=400,
                            rank=5, noise=0.1, r_policy="explicit", r=5,
                            exclude=(0, 1, 2, 3))


# The R blocks each config's sweep factors through one eigh of its Gram:
# every size whose k exceeds the run's rank (3 for the wide source, 4 for
# the kernel; worst_case truncates nowhere).
_SWEEP_GRAMS = {_wide_config: [(4, 4), (10, 10)], _worst_case_config: [],
                _kernel_config: [(10, 10)]}


@pytest.mark.parametrize("make_config, n, spsd", [
    (_wide_config, 12, False), (_worst_case_config, 20, True),
    (_kernel_config, 20, True)])
def test_truth_of_wide_and_spsd_sources_forms_no_right_factor(
        monkeypatch, tmp_path, make_config, n, spsd):
    svd_shapes, eigh_shapes = [], []
    real_svd, real_eigh = np.linalg.svd, np.linalg.eigh

    def svd(a, *args, **kwargs):
        svd_shapes.append(a.shape)
        return real_svd(a, *args, **kwargs)

    def eigh(a, *args, **kwargs):
        eigh_shapes.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    def no_thin_svd(X):
        raise AssertionError(f"thin_svd of the {X.shape} source")

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(matcoh.linalg, "thin_svd", no_thin_svd)
    assert run_experiment(make_config(tmp_path))
    # The truth takes one eigh of the n x n SPSD source, or the SVD of the
    # n x n triangular factor of a wide one; the sweep factors only small
    # blocks of its samples' R factors, some through their Gram's eigh.
    # No SVD sees the source or its transpose.
    shape = (n, n) if spsd else (n, _WIDE_COLUMNS)
    assert shape not in svd_shapes and shape[::-1] not in svd_shapes
    if spsd:
        assert eigh_shapes == [(n, n)] + _SWEEP_GRAMS[make_config]
    else:
        assert eigh_shapes == _SWEEP_GRAMS[make_config] and (n, n) in svd_shapes


def test_kernel_suite_factors_each_sample_once(monkeypatch, tmp_path):
    svd_inputs, eigh_shapes, thin_shapes = [], [], []
    real_svd, real_eigh = np.linalg.svd, np.linalg.eigh
    real_thin = matcoh.linalg.thin_svd

    def svd(a, *args, **kwargs):
        svd_inputs.append(np.array(a))
        return real_svd(a, *args, **kwargs)

    def eigh(a, *args, **kwargs):
        eigh_shapes.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    def thin_svd(X):
        thin_shapes.append(np.shape(X))
        return real_thin(X)

    gram_inputs, real_gram = [], matcoh.coherence._gram_core

    def gram_core(B, rank):
        core = real_gram(B, rank)
        gram_inputs.append((np.array(B), core is not None))
        return core

    # Every function of `lowrank`, under the module's names and the
    # experiment's, records its arguments.
    lowrank_calls = []

    def spy(name, real):
        def recording(*args, **kwargs):
            lowrank_calls.append((name, args + tuple(kwargs.values())))
            return real(*args, **kwargs)
        return recording

    for name, real in list(vars(matcoh.lowrank).items()):
        if inspect.isfunction(real) and real.__module__ == "matcoh.lowrank":
            for module in (matcoh.lowrank, matcoh.experiment):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, spy(name, real))

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    for module in (matcoh.linalg, matcoh.coherence):
        monkeypatch.setattr(module, "thin_svd", thin_svd)
    monkeypatch.setattr(matcoh.coherence, "_gram_core", gram_core)
    data = tmp_path / "pts.csv"
    save_csv(PointDataset(points=SplitMix64(7).normal_matrix(30, 3)), data)
    config = ExperimentConfig(kind="kernel_suite", experiment_id="k",
                              l_values=(4, 10, 30), trials=2, data=str(data),
                              kernel="rbf", r_policy="energy")
    results = run_experiment(config)
    assert len(results) == 18 and {row.r_used for row in results} == {4}
    # K is read by one Householder pass per trial, and no other `lowrank`
    # function receives it or a view of it.
    passes = [args for name, args in lowrank_calls if name == "_reflected_rows"]
    assert len(passes) == config.trials
    K = passes[0][0]
    assert K.shape == (30, 30) and all(args[0] is K for args in passes)
    assert {"_projection_squares", "_nystrom"} <= {name for name, _ in lowrank_calls}
    assert not any(isinstance(a, np.ndarray) and np.may_share_memory(a, K)
                   for name, args in lowrank_calls if name != "_reflected_rows"
                   for a in args)
    # Each (trial, l) factors the upper triangular block R[:l, :l] of the
    # trial's QR once: by one SVD at l = 4, which the rank 4 does not
    # truncate, and by one eigh of its Gram at l = 10 and 30, which every
    # such block takes. No n x l sample and no W is put through an SVD or
    # a Gram. The truth and every W take `eigh`.
    assert thin_shapes == [(4, 4)] * config.trials
    assert [a.shape for a in svd_inputs] == thin_shapes
    assert all(np.array_equal(a, np.triu(a)) for a in svd_inputs)
    assert [B.shape for B, _ in gram_inputs] == [(10, 10), (30, 30)] * config.trials
    assert all(taken and np.array_equal(B, np.triu(B)) for B, taken in gram_inputs)
    assert eigh_shapes == [(30, 30)] + [(4, 4), (10, 10), (10, 10), (30, 30),
                                        (30, 30)] * config.trials


def test_kernel_suite_checks_its_kernel_once(monkeypatch, tmp_path):
    # Every as_dense binding in the package is watched, as is the symmetry
    # scan, so a per-trial or per-method re-check of K would show. K is
    # built exactly symmetric, so the run makes no symmetry scan at all.
    scans, checks = [], []
    real_dense = matcoh.linalg.as_dense
    real_check = matcoh.lowrank._check_symmetric

    def dense(a):
        out = real_dense(a)
        scans.append(out.shape)
        return out

    def check(K, width):
        checks.append(K.shape)
        return real_check(K, width)

    for module in (matcoh.experiment, matcoh.linalg, matcoh.coherence,
                   matcoh.lowrank, matcoh.sampling, matcoh.kernels,
                   matcoh.synthetic):
        if hasattr(module, "as_dense"):
            monkeypatch.setattr(module, "as_dense", dense)
        if hasattr(module, "_check_symmetric"):
            monkeypatch.setattr(module, "_check_symmetric", check)
    config = _kernel_suite_config(tmp_path)
    assert len(run_experiment(config)) == 18
    assert scans.count((160, 160)) == 1
    assert checks == []


def test_kernel_suite_truth_takes_no_n_by_n_eigh(monkeypatch, tmp_path):
    eigh_shapes = []
    real_eigh = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        eigh_shapes.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    data = tmp_path / "pts.csv"
    save_csv(PointDataset(points=SplitMix64(7).normal_matrix(300, 3)), data)
    config = ExperimentConfig(kind="kernel_suite", experiment_id="k",
                              l_values=(5, 10, 30), trials=2, data=str(data),
                              kernel="rbf", r_policy="energy")
    results = run_experiment(config)
    assert len(results) == 18 and {row.r_used for row in results} == {4}
    # The truth takes the top eigenpairs by block Krylov, before any
    # trial: its only eigh calls are of the Rayleigh-Ritz problems of a
    # space that grows by 8 columns a pass. Every other eigh is one
    # trial's, two per (trial, l): the Gram of R's l x l block, which the
    # rank 4 truncates at every size, then W.
    sizes = list(config.l_values) * config.trials
    passes = len(eigh_shapes) - 2 * len(sizes)
    assert passes >= 1 and (300, 300) not in eigh_shapes
    assert eigh_shapes[:passes] == [(8 * i, 8 * i) for i in range(1, passes + 1)]
    assert eigh_shapes[passes:] == [(l, l) for l in sizes for _ in range(2)]


def _truth_config(**policy):
    """A config for `_dense`; the tests below hand it the matrix itself,
    declared SPSD."""
    return ExperimentConfig(kind="worst_case", experiment_id="t",
                            l_values=(1,), n=2, **policy)


def _dense_truth(config, K):
    """(rank, gamma_true) of the dense source K built as SPSD."""
    source = matcoh.experiment._dense(config, K, spsd=True)
    return source.rank, source.gamma_true


def _eigh_truth(config, K):
    """(r, gamma_true) by the dense route: one eigh of K."""
    f = left_svd(K, spsd=True)
    r = config.r
    if config.r_policy == "energy":
        r = spectrum_energy_rank(f.singular_values, config.energy_fraction)
    return r, basis_coherence(f.left_basis(r)).gamma


def _spectral_matrix(eigenvalues, seed=3):
    """Q diag(eigenvalues) Qᵀ for a seeded orthogonal Q, symmetrized."""
    n = len(eigenvalues)
    Q = np.linalg.qr(SplitMix64(seed).normal_matrix(n, n))[0]
    K = (Q * eigenvalues) @ Q.T
    return as_dense((K + K.T) / 2.0)


_GEOMETRIC = 0.7 ** np.arange(200.0)


def _tied(r, gap=0.0):
    w = _GEOMETRIC.copy()
    w[r] = w[r - 1] * (1.0 - gap)  # lambda_{r+1} = lambda_r (1 - gap)
    return w


@pytest.mark.parametrize("case", ["tie", "near_tie", "cap", "energy_growth_cap",
                                  "energy_small_gap", "worst_case"])
def test_each_dense_fall_back_gives_the_eigh_route_bit_for_bit(case):
    if case == "tie":  # the gap guard
        K, policy = _spectral_matrix(_tied(4)), {"r_policy": "explicit", "r": 4}
    elif case == "near_tie":  # converges, but the gap is 3.4e-4 of lambda_1
        K = _spectral_matrix(_tied(4, gap=1e-3))
        policy = {"r_policy": "explicit", "r": 4}
    elif case == "cap":  # a flat spectrum: the top 4 do not converge
        K = _spectral_matrix(0.999 ** np.arange(200.0))
        policy = {"r_policy": "explicit", "r": 4}
    elif case == "energy_growth_cap":  # 0.9 of the energy needs 176 values
        K = _spectral_matrix(0.999 ** np.arange(200.0))
        policy = {"r_policy": "energy", "energy_fraction": 0.9}
    elif case == "energy_small_gap":
        # RBF of 500 4-dimensional points at 0.5 times the median width:
        # 0.99 of the energy needs 18 eigenvalues, with a relative gap of
        # 2.6e-3 after the 18th. A subspace iteration spent 47 passes on
        # this cut before declining it.
        points = PointDataset(points=SplitMix64(2).normal_matrix(500, 4))
        spec = KernelSpec(kind="rbf", rbf_width=0.5 * default_rbf_width(points))
        K = as_dense(build_kernel(points, spec))
        policy = {"r_policy": "energy", "energy_fraction": 0.99}
    else:  # an inflated lambda_1: the top 3 converge only past the cap,
        # and their certified gap there, 1e-4 of lambda_1, is below the guard
        K = as_dense(adversarial_spsd(300, seed=1))
        policy = {"r_policy": "explicit", "r": 3}
    config = _truth_config(**policy)
    fraction = config.energy_fraction if config.r_policy == "energy" else None
    total = _squares(K)
    assert _spsd_top(K, rank=config.r, fraction=fraction, total=total) is None
    assert _dense_truth(config, K) == _eigh_truth(config, K)


def test_untied_spectrum_takes_the_iteration_and_none_policy_does_not(monkeypatch):
    # The control for the fall-backs above: the same matrix without a tie,
    # at the same rank, is taken by the Krylov route.
    K = _spectral_matrix(_GEOMETRIC)
    config = _truth_config(r_policy="explicit", r=4)
    assert _spsd_top(K, rank=4) is not None
    r, gamma = _dense_truth(config, K)
    want = _eigh_truth(config, K)
    assert r == want[0] and abs(gamma - want[1]) <= 1e-14
    # r_policy = none needs the whole spectrum and never tries it.

    def no_top(*args, **kwargs):
        raise AssertionError("r_policy none took the Krylov route")

    monkeypatch.setattr(matcoh.experiment, "_spsd_top", no_top)
    config = _truth_config()
    assert _dense_truth(config, K) == _eigh_truth(config, K)


def test_a_rank_past_n_over_10_minus_8_takes_the_krylov_route():
    # r + 8 = 21 columns exceed n/10 = 20, which a block capped at n/10
    # could not hold; the Krylov space grows past it and takes the cut.
    K = _spectral_matrix(_GEOMETRIC)
    config = _truth_config(r_policy="explicit", r=13)
    assert _spsd_top(K, rank=13) is not None
    r, gamma = _dense_truth(config, K)
    want = _eigh_truth(config, K)
    assert r == want[0] and abs(gamma - want[1]) <= 1e-14


def _ulp_below(x):
    return np.nextafter(x, 0.0)


def _ulp_above(x):
    return np.nextafter(x, 1.0)


@pytest.mark.parametrize("move, r_want, iterates", [
    (lambda x: x * (1 - 1e-9), 5, True),
    (_ulp_below, 5, False),
    (lambda x: x, None, False),
    (_ulp_above, None, False),
    (lambda x: x * (1 + 1e-9), 6, True),
], ids=["-1e-9", "-ulp", "at", "+ulp", "+1e-9"])
def test_both_truth_routes_read_one_energy_rank(move, r_want, iterates):
    # The fraction sits at, one value either side of, or 1e-9 away from
    # the energy share of the top 5 eigenvalues. The Krylov route's total,
    # ||K||_F^2, differs from the sum of the eigh spectrum's squares by
    # rounding, so at the three closest cuts it declines and eigh gives r;
    # 1e-9 away it takes the cut itself. Where rounding decides between 5
    # and 6 (r_want None), only the agreement is checked.
    K = _spectral_matrix(_GEOMETRIC)
    energies = np.cumsum(left_svd(K, spsd=True).singular_values ** 2)
    fraction = float(move(energies[4] / energies[-1]))
    config = _truth_config(r_policy="energy", energy_fraction=fraction)
    r, gamma = _dense_truth(config, K)
    want = _eigh_truth(config, K)
    assert r == want[0] and r_want in (None, r)
    assert abs(gamma - want[1]) <= 1e-14
    assert (_spsd_top(K, fraction=fraction, total=_squares(K)) is not None) == iterates


def _source_keys(tmp_path, name):
    """Config keys of one source: each `_SOURCES` entry, and the Matrix
    Market one wide and tall."""
    import scipy.io

    if name.startswith("matrix"):
        shape = (30, 45) if name == "matrix-wide" else (45, 30)
        path = tmp_path / f"{name}.mtx"
        scipy.io.mmwrite(str(path), SplitMix64(8).normal_matrix(*shape))
        return {"kind": "coherence_only", "matrix": str(path)}
    if name in ("linear", "rbf", "polynomial"):
        return {"kind": "kernel_suite", "kernel": name,
                "data": str(_points_file(tmp_path, 80, 3, 4))}
    return {"worst_case": {"kind": "worst_case", "n": 40, "inner_dim": 6},
            "synth_exact": {"kind": "synth_exact", "n": 40, "m": 30, "rank": 5},
            "synth_noisy-wide": {"kind": "synth_noisy", "n": 30, "m": 50,
                                 "rank": 6, "noise": 0.1},
            "synth_noisy-tall": {"kind": "synth_noisy", "n": 50, "m": 30,
                                 "rank": 6, "noise": 0.1}}[name]


@pytest.mark.parametrize("policy", [
    {}, {"r_policy": "explicit", "r": 3},
    {"r_policy": "energy", "energy_fraction": 0.9}], ids=["none", "explicit", "energy"])
@pytest.mark.parametrize("name", [
    "matrix-wide", "matrix-tall", "worst_case", "linear", "rbf", "polynomial",
    "synth_exact", "synth_noisy-wide", "synth_noisy-tall"])
def test_every_source_builds_the_truth_of_a_dense_svd(tmp_path, name, policy):
    # The reference takes np.linalg.svd of the dense X and reads the rank
    # and the energy rank by the package's rules. `worst_case` at
    # inner_dim 6 is rank deficient (7, with the inflated entry), as are
    # the linear and polynomial kernels of 3-dimensional points; the
    # singular values nearest the rank threshold lie 80 times or more
    # from it. On the noisy sources each cut is at or above the equal
    # tail, so no cut splits its tie.
    config = ExperimentConfig(experiment_id="t", l_values=(2,),
                              **_source_keys(tmp_path, name), **policy)
    source = matcoh.experiment._SOURCES[
        matcoh.experiment._source_name(config)].build(config)
    X = source.matrix
    if X is None:
        X = low_rank_matrix(matcoh.experiment._synth_spec(config))
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    r = config.r
    if config.r_policy == "energy":
        r = spectrum_energy_rank(s, config.energy_fraction)
    if config.kind == "synth_noisy":
        assert r is None or r <= config.rank
    q = numerical_rank(s, X.shape)
    q = q if r is None else min(r, q)
    assert source.rank == r
    assert abs(source.gamma_true - np.max(np.sum(U[:, :q] ** 2, axis=1))) <= 1e-12


@pytest.mark.parametrize("kind, n, m, extra", [
    ("synth_exact", 40, 25, {}),
    ("synth_noisy", 40, 25, {"noise": 0.2}),
    ("synth_noisy", 25, 40, {"noise": 0.2}),
], ids=["exact", "noisy_tall", "noisy_wide"])
def test_synthetic_truth_factors_no_source(monkeypatch, kind, n, m, extra):
    seen, draws = [], []
    real_left, real_thin = matcoh.experiment.left_svd, matcoh.linalg.thin_svd
    real_factors = matcoh.synthetic._factors

    def left_svd(X, spsd=False):
        seen.append(np.shape(X))
        return real_left(X, spsd)

    def thin_svd(X):
        seen.append(np.shape(X))
        return real_thin(X)

    def factors(spec, rng):
        draws.append(spec)
        return real_factors(spec, rng)

    monkeypatch.setattr(matcoh.experiment, "left_svd", left_svd)
    for module in (matcoh.linalg, matcoh.coherence):
        monkeypatch.setattr(module, "thin_svd", thin_svd)
    monkeypatch.setattr(matcoh.synthetic, "_factors", factors)
    config = ExperimentConfig(kind=kind, experiment_id="f", l_values=(3, 9),
                              trials=2, base_seed=4, n=n, m=m, rank=5,
                              r_policy="explicit", r=5, **extra)
    results = run_experiment(config)
    assert len(results) == 4
    assert (n, m) not in seen
    assert len(draws) == 1
    # The generator's factor gives the truth that factoring X gives.
    X = low_rank_matrix(matcoh.experiment._synth_spec(config))
    want = basis_coherence(real_left(X).left_basis(5)).gamma
    assert abs(results[0].gamma_true - want) <= 1e-12


def test_rank_splitting_the_noise_tie_reports_the_generator_basis():
    # Every singular value after `rank` is equal, so a top-10 basis is not
    # unique; the run reports the one the matrix was built from.
    config = ExperimentConfig(kind="synth_noisy", experiment_id="t",
                              l_values=(20,), n=40, m=90, rank=4, noise=0.1,
                              r_policy="explicit", r=10)
    spec = matcoh.experiment._synth_spec(config)
    X, factor = low_rank_matrix(spec), matcoh.synthetic.low_rank_factors(spec)[2]
    [row] = run_experiment(config)
    assert row.gamma_true == basis_coherence(factor.U[:, :10]).gamma
    # An SVD of X picks some other top-10 basis between the same bounds.
    low = basis_coherence(factor.U[:, :4]).gamma
    other = basis_coherence(thin_svd(X).left_basis(10)).gamma
    assert low <= row.gamma_true <= 1.0 and low <= other <= 1.0


def test_energy_policy_runs():
    config = ExperimentConfig(kind="coherence_only", experiment_id="e",
                              l_values=(5, 10), trials=1, base_seed=1,
                              n=40, m=40, rank=6, r_policy="energy",
                              energy_fraction=0.99)
    results = run_experiment(config)
    assert all(r.r_used >= 1 for r in results)


def test_energy_policy_factors_source_once_with_same_rank_and_truth(tmp_path):
    pts = SplitMix64(4).normal_matrix(60, 3)
    data = tmp_path / "pts.csv"
    save_csv(PointDataset(points=pts), data)
    config = ExperimentConfig(kind="kernel_suite", experiment_id="k",
                              l_values=(5, 20), trials=2, base_seed=2,
                              data=str(data), kernel="rbf",
                              r_policy="energy", energy_fraction=0.999)
    dataset = load_csv(data)
    K = build_kernel(dataset, KernelSpec(kind="rbf",
                                         rbf_width=default_rbf_width(dataset)))
    r = spectrum_energy_rank(thin_svd(K).singular_values, config.energy_fraction)
    gamma_true = estimate_coherence(K, rank=r).gamma
    results = run_experiment(config)
    assert len(results) == 12
    for trial in range(2):
        samples = nested_samples(K, 20, 2 + trial)
        for res in results:
            if res.trial != trial:
                continue
            report = estimate_coherence(samples[res.l - 1].submatrix, rank=r)
            # The truth of an SPSD source comes from `eigh`, so it agrees
            # with the dense estimate to rounding only.
            assert abs(res.gamma_true - gamma_true) <= 1e-10
            assert res.r_used == report.rank_used
            # The sweep factors each trial once (QR, then the SVD of R),
            # so it agrees with the per-sample SVD to rounding only.
            assert abs(res.gamma_est - report.gamma) <= 1e-12


def test_energy_policy_rejects_zero_source(tmp_path):
    import scipy.io

    path = tmp_path / "zero.mtx"
    scipy.io.mmwrite(str(path), np.zeros((6, 6)))
    config = ExperimentConfig(kind="coherence_only", experiment_id="z",
                              l_values=(2,), matrix=str(path),
                              r_policy="energy")
    with pytest.raises(ValueError, match="^r_policy energy needs a source "
                                         "with nonzero energy, but the source "
                                         "matrix is all zero$"):
        run_experiment(config)


@pytest.mark.parametrize("kind", ["coherence_only", "kernel_suite"])
def test_energy_policy_rejects_a_zero_spsd_source(tmp_path, monkeypatch, kind):
    # 40 points: the Krylov route has room for the cut, and declines the
    # all-zero kernel itself.
    data = tmp_path / "zero.csv"
    save_csv(PointDataset(points=np.zeros((40, 3))), data)
    declined = []
    real_top = matcoh.experiment._spsd_top

    def top(X, **kwargs):
        result = real_top(X, **kwargs)
        declined.append(result is None)
        return result

    monkeypatch.setattr(matcoh.experiment, "_spsd_top", top)
    config = ExperimentConfig(kind=kind, experiment_id="z", l_values=(2,),
                              data=str(data), kernel="linear", r_policy="energy")
    with pytest.raises(ValueError, match="^r_policy energy needs a source "
                                         "with nonzero energy, but the source "
                                         "matrix is all zero$"):
        run_experiment(config)
    assert declined == [True]


def _points_file(tmp_path, n, d, seed):
    data = tmp_path / "pts.csv"
    save_csv(PointDataset(points=SplitMix64(seed).normal_matrix(n, d)), data)
    return data


@pytest.mark.parametrize("kind, policy, reads", [
    ("kernel_suite", {"r_policy": "energy", "energy_fraction": 0.999}, 1),
    ("coherence_only", {"r_policy": "energy", "energy_fraction": 0.999}, 1),
    ("kernel_suite", {"r_policy": "explicit", "r": 9}, 1),
    ("coherence_only", {"r_policy": "explicit", "r": 9}, 0),
], ids=["kernel_suite-energy", "coherence_only-energy", "kernel_suite-explicit",
        "coherence_only-explicit"])
def test_a_run_reduces_the_squares_of_k_once_where_they_are_read(
        monkeypatch, tmp_path, kind, policy, reads):
    # ||K||_F^2 is read by the Krylov energy cut and by both method
    # errors, and a run that has either reduces K's squares exactly once;
    # a run with neither reduces none. The Krylov route takes each cut.
    built, reduced, tops = [], [], []
    real_build, real_norm = matcoh.experiment.build_kernel, np.linalg.norm
    real_squares, real_top = matcoh.linalg._squares, matcoh.experiment._spsd_top

    def build(*args):
        built.append(real_build(*args))
        return built[-1]

    def squares(A):
        reduced.append(A)
        return real_squares(A)

    def norm(x, *args, **kwargs):
        reduced.append(x)
        return real_norm(x, *args, **kwargs)

    def top(*args, **kwargs):
        tops.append(real_top(*args, **kwargs))
        return tops[-1]

    monkeypatch.setattr(matcoh.experiment, "build_kernel", build)
    for module in (matcoh.linalg, matcoh.lowrank, matcoh.experiment):
        monkeypatch.setattr(module, "_squares", squares)
    monkeypatch.setattr(np.linalg, "norm", norm)
    monkeypatch.setattr(matcoh.experiment, "_spsd_top", top)
    config = ExperimentConfig(kind=kind, experiment_id="e", l_values=(10, 20),
                              data=str(_points_file(tmp_path, 300, 8, 7)),
                              kernel="rbf", **policy)
    run_experiment(config)
    (K,) = built
    assert len(tops) == 1 and tops[0] is not None and tops[0][0] == 9
    assert sum(np.may_share_memory(a, K) for a in reduced) == reads


# 1100 points: the width reads an evenly spaced subsample, not every point.
@pytest.mark.parametrize("n", [60, 1100])
@pytest.mark.parametrize("standardized", [False, True])
def test_default_width_rbf_source_builds_the_public_kernel(tmp_path, n,
                                                          standardized):
    data = _points_file(tmp_path, n, 4, n)
    config = ExperimentConfig(kind="coherence_only", experiment_id="k",
                              l_values=(5,), data=str(data), kernel="rbf",
                              standardize=standardized)
    dataset = load_csv(data)
    if standardized:
        dataset = standardize(dataset)
    want = build_kernel(dataset, KernelSpec(kind="rbf",
                                            rbf_width=default_rbf_width(dataset)))
    source = matcoh.experiment._SOURCES["rbf"].build(config)
    assert np.array_equal(source.matrix, want)
    assert not any(isinstance(field, ThinSVD) for field in source)


# Each kind's parameters away from the config's defaults, so a parameter
# that did not reach the build would show.
@pytest.mark.parametrize("keys, spec", [
    ({"kernel": "linear"}, KernelSpec(kind="linear")),
    ({"kernel": "rbf", "rbf_width": 2.0}, KernelSpec(kind="rbf", rbf_width=2.0)),
    ({"kernel": "polynomial", "poly_degree": 3, "poly_offset": 0.5},
     KernelSpec(kind="polynomial", poly_degree=3, poly_offset=0.5)),
], ids=["linear", "rbf", "polynomial"])
@pytest.mark.parametrize("standardized", [False, True])
def test_kernel_source_builds_the_spec_of_its_config_keys(tmp_path, keys, spec,
                                                          standardized):
    data = _points_file(tmp_path, 60, 4, 11)
    config = ExperimentConfig(kind="kernel_suite", experiment_id="k",
                              l_values=(5,), data=str(data),
                              standardize=standardized, **keys)
    dataset = load_csv(data)
    if standardized:
        dataset = standardize(dataset)
    source = matcoh.experiment._SOURCES[keys["kernel"]].build(config)
    assert np.array_equal(source.matrix, build_kernel(dataset, spec))
    assert not any(isinstance(field, ThinSVD) for field in source)


@pytest.mark.parametrize("kind", ["coherence_only", "kernel_suite"])
def test_default_width_rbf_run_writes_the_explicit_width_csv(tmp_path, kind):
    data = _points_file(tmp_path, 80, 3, 5)
    common = dict(kind=kind, experiment_id="w", l_values=(5, 20), trials=2,
                  base_seed=3, data=str(data), kernel="rbf", timing=False,
                  r_policy="energy", energy_fraction=0.999)
    width = default_rbf_width(load_csv(data))
    default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
    run_experiment(ExperimentConfig(**common, output=str(default)))
    run_experiment(ExperimentConfig(**common, rbf_width=width,
                                    output=str(explicit)))
    assert default.read_bytes() == explicit.read_bytes()


def test_default_width_rbf_build_holds_one_distance_matrix(tmp_path, monkeypatch):
    # The width is read off K's own squared distances, whose upper
    # triangle the median gathers (half a matrix). Forming the width's
    # distances apart from K's peaked at 2.52 K. The peak is read as K
    # reaches `_dense`, before the source's truth is taken.
    data = _points_file(tmp_path, 400, 8, 7)
    config = ExperimentConfig(kind="coherence_only", experiment_id="m",
                              l_values=(5,), data=str(data), kernel="rbf")
    peaks = []
    real_dense = matcoh.experiment._dense

    def dense(config, X, spsd=False):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return real_dense(config, X, spsd)

    monkeypatch.setattr(matcoh.experiment, "_dense", dense)
    tracemalloc.start()
    try:
        K = matcoh.experiment._SOURCES["rbf"].build(config).matrix
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 2.25 * K.nbytes


def test_run_reads_each_estimate_as_basis_coherence_would(tmp_path):
    # Only 4 of the 30 columns are nonzero, so some samples have rank 0;
    # the explicit rank 2 truncates the others.
    import scipy.io

    X = np.zeros((20, 30))
    X[:, 26:] = SplitMix64(9).normal_matrix(20, 4)
    path = tmp_path / "sparse.mtx"
    scipy.io.mmwrite(str(path), X)
    sizes = (1, 3, 8, 30)
    config = ExperimentConfig(kind="coherence_only", experiment_id="g",
                              l_values=sizes, trials=4, base_seed=1,
                              matrix=str(path), r_policy="explicit", r=2)
    want = [basis_coherence(f.left_basis(2)) for trial in range(4)
            for f in nested_factors(
                nested_samples(X, 30, 1 + trial)[-1].submatrix, sizes)]
    rows = run_experiment(config)
    assert [(r.r_used, r.gamma_est) for r in rows] == [
        (report.rank_used, report.gamma) for report in want]
    assert {r.r_used for r in rows} == {0, 1, 2}
    assert all(r.gamma_est == 0.0 for r in rows if r.r_used == 0)


def test_kernel_suite_emits_method_rows(tmp_path):
    pts = SplitMix64(3).normal_matrix(40, 3)
    data = tmp_path / "pts.csv"
    save_csv(PointDataset(points=pts), data)
    config = ExperimentConfig(kind="kernel_suite", experiment_id="k",
                              l_values=(5, 10), trials=2, base_seed=0,
                              data=str(data), kernel="rbf",
                              r_policy="explicit", r=3)
    results = run_experiment(config)
    methods = [r.method for r in results]
    assert methods.count(None) == 4
    assert methods.count("column_projection") == 4
    assert methods.count("nystrom") == 4
    for r in results:
        if r.method:
            assert r.normalized_error is not None and r.normalized_error >= 0.0
    summary = summarize(results)
    by_method = {s["method"] for s in summary}
    assert by_method == {"", "column_projection", "nystrom"}
    for s in summary:
        if s["method"]:
            assert s["mean_normalized_error"] is not None
        else:
            assert s["mean_normalized_error"] is None


@pytest.mark.parametrize("make_config, iterates", [
    (lambda tmp_path: synth_config(), False),
    (_noisy_wide_config, False),
    (_kernel_suite_config, True),
    (_worst_case_config, False),
    (_wide_config, False),
], ids=["synth_exact", "synth_noisy", "kernel_suite", "worst_case", "matrix"])
def test_csv_byte_determinism(tmp_path, monkeypatch, make_config, iterates):
    # `iterates`: the kernel truth is the Krylov route's, not eigh's.
    tops = []
    real_top = matcoh.experiment._spsd_top

    def top(*args, **kwargs):
        tops.append(real_top(*args, **kwargs))
        return tops[-1]

    monkeypatch.setattr(matcoh.experiment, "_spsd_top", top)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    config = dataclasses.replace(make_config(tmp_path), timing=False)
    write_raw_csv(out1, run_experiment(config))
    write_raw_csv(out2, run_experiment(config))
    assert out1.read_bytes() == out2.read_bytes()
    assert any(t is not None for t in tops) == iterates


def test_failed_write_keeps_earlier_csv(tmp_path):
    out = tmp_path / "raw.csv"
    rows = run_experiment(synth_config(timing=False))
    write_raw_csv(out, rows)
    good = out.read_bytes()

    def failing_rows():
        yield rows[0]
        raise RuntimeError("row formatting failed")

    with pytest.raises(RuntimeError, match="row formatting"):
        write_raw_csv(out, failing_rows())
    assert out.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.csv"]


def test_failed_summary_write_keeps_earlier_summary(tmp_path):
    out = tmp_path / "summary.csv"
    rows = summarize(run_experiment(synth_config(timing=False)))
    write_summary_csv(out, rows)
    good = out.read_bytes()

    def failing_rows():
        yield rows[0]
        raise RuntimeError("row formatting failed")

    with pytest.raises(RuntimeError, match="row formatting"):
        write_summary_csv(out, failing_rows())
    assert out.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.csv"]


def test_csv_stable_apart_from_timing(tmp_path):
    config = synth_config(timing=True)
    rows1 = run_experiment(config)
    rows2 = run_experiment(config)
    strip = lambda r: (r.experiment_id, r.trial, r.seed, r.l, r.r_used,
                       r.gamma_true, r.gamma_est, r.abs_error)
    assert [strip(r) for r in rows1] == [strip(r) for r in rows2]


def test_raw_csv_round_trip(tmp_path):
    # Method rows, the empty cells of estimate rows and wall times all
    # come back as they were written, field for field.
    out = tmp_path / "raw.csv"
    results = run_experiment(dataclasses.replace(_kernel_suite_config(tmp_path),
                                                 output=str(out)))
    assert {r.method for r in results} == {None, "column_projection", "nystrom"}
    assert all(r.wall_time_ms is not None for r in results)
    with open(out) as fh:
        header = fh.readline().strip().split(",")
    assert header == RAW_HEADER
    assert read_raw_csv(out) == results


def test_raw_csv_bytes_are_pinned(tmp_path):
    # Hand-built rows, so no LAPACK result is involved: an estimate row
    # without a timing, and method rows with one, holding floats that
    # need 17 significant digits and an exponent.
    common = dict(experiment_id="pin", kind="kernel_suite", trial=1, seed=8,
                  l=3, r_used=2, gamma_true=0.1 + 0.2, gamma_est=1 / 3,
                  abs_error=abs(0.1 + 0.2 - 1 / 3))
    rows = [
        TrialResult(**common, wall_time_ms=None),
        TrialResult(**common, method="column_projection",
                    normalized_error=1.2345678901234568e-05, wall_time_ms=0),
        TrialResult(**common, method="nystrom",
                    normalized_error=0.1 + 0.7, wall_time_ms=12),
    ]
    out = tmp_path / "raw.csv"
    write_raw_csv(out, rows)
    assert out.read_bytes() == (
        b"experiment_id,kind,trial,seed,l,r_used,gamma_true,gamma_est,"
        b"abs_error,method,normalized_error,rng_name,wall_time_ms\n"
        b"pin,kernel_suite,1,8,3,2,0.30000000000000004,0.3333333333333333,"
        b"0.03333333333333327,,,splitmix64,\n"
        b"pin,kernel_suite,1,8,3,2,0.30000000000000004,0.3333333333333333,"
        b"0.03333333333333327,column_projection,1.2345678901234568e-05,"
        b"splitmix64,0\n"
        b"pin,kernel_suite,1,8,3,2,0.30000000000000004,0.3333333333333333,"
        b"0.03333333333333327,nystrom,0.7999999999999999,splitmix64,12\n"
    )
    assert read_raw_csv(out) == rows


def test_summarize_single_trial_std_zero():
    rows = run_experiment(synth_config(trials=1))
    summary = summarize(rows)
    assert all(s["std_abs_error"] == 0.0 for s in summary)
    assert all(s["trials"] == 1 for s in summary)


def test_summarize_rejects_no_rows():
    with pytest.raises(ValueError, match="^no results to summarize$"):
        summarize([])


def test_summarize_forced_arithmetic():
    rows = [
        TrialResult(experiment_id="x", kind="synth_exact", trial=t, seed=t,
                    l=3, r_used=1, gamma_true=err, gamma_est=0.0, abs_error=err)
        for t, err in ((0, 0.1), (1, 0.3))
    ]
    summary = summarize(rows)
    assert summary[0]["mean_abs_error"] == pytest.approx(0.2)
    assert summary[0]["std_abs_error"] == pytest.approx(math.sqrt(0.02))


def test_summarize_matches_recompute_from_raw(tmp_path):
    out = tmp_path / "raw.csv"
    run_experiment(synth_config(output=str(out), trials=4))
    rows = read_raw_csv(out)
    summary = {(s["experiment_id"], s["l"], s["method"]): s
               for s in summarize(rows)}
    # independent recomputation straight off the CSV text
    buckets = {}
    with open(out) as fh:
        for rec in csv.DictReader(fh):
            key = (rec["experiment_id"], int(rec["l"]), rec["method"])
            buckets.setdefault(key, []).append(float(rec["abs_error"]))
    for key, vals in buckets.items():
        assert summary[key]["mean_abs_error"] == pytest.approx(statistics.mean(vals))
        expect_std = statistics.stdev(vals) if len(vals) > 1 else 0.0
        assert summary[key]["std_abs_error"] == pytest.approx(expect_std)


def config_file(tmp_path, **overrides):
    lines = {
        "kind": "synth_exact", "id": "cli", "l_values": "2,4",
        "trials": "2", "base_seed": "1", "n": "25", "m": "25", "rank": "3",
        "output": str(tmp_path / "raw.csv"),
    }
    lines.update({k: str(v) for k, v in overrides.items()})
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


def test_load_config_with_overrides(tmp_path):
    path = config_file(tmp_path)
    config = load_config(path, overrides=["trials=5", "coherence=mid"])
    assert config.trials == 5
    assert config.coherence == "mid"
    with pytest.raises(ValueError, match="unknown override"):
        load_config(path, overrides=["nope=1"])
    with pytest.raises(ValueError, match="^override must be key=value, got 'trials'$"):
        load_config(path, overrides=["trials"])
    # 8 / sqrt(25) > 1: the override is applied before the values are checked.
    with pytest.raises(ValueError, match="coherence multiplier infeasible"):
        load_config(path, overrides=["coherence=high"])


def test_cli_run_and_summarize(tmp_path, capsys):
    cfg = config_file(tmp_path)
    assert main(["run", str(cfg)]) == 0
    raw = tmp_path / "raw.csv"
    assert raw.exists()
    summary_path = tmp_path / "summary.csv"
    assert main(["summarize", str(raw), "--output", str(summary_path)]) == 0
    assert summary_path.read_text().startswith("experiment_id,")
    assert main(["summarize", str(raw)]) == 0
    assert "experiment_id," in capsys.readouterr().out


def test_cli_output_flag_replaces_the_config_output(tmp_path, capsys):
    other = tmp_path / "other.csv"
    assert main(["run", str(config_file(tmp_path)), "--output", str(other)]) == 0
    assert capsys.readouterr().out == f"wrote 4 rows to {other}\n"
    assert [r.l for r in read_raw_csv(other)] == [2, 4, 2, 4]
    assert not (tmp_path / "raw.csv").exists()


def test_cli_runs_a_config_with_a_byte_order_mark(tmp_path):
    # Read as part of the first key, a BOM failed the run with
    # "unknown key '\ufeffkind'".
    plain = config_file(tmp_path)
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_config(cfg) == load_config(plain)
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "raw.csv").exists()


def test_cli_bound():
    # r=2, mu0=1, delta=3/e, c1=c2=1 forces ceil(4 * max(log 2, 1)) = 4
    code = main(["bound", "--r", "2", "--mu0", "1", "--delta",
                 str(3.0 / math.e), "--c1", "1", "--c2", "1"])
    assert code == 0


def test_cli_bound_output(capsys):
    main(["bound", "--r", "2", "--mu0", "1", "--delta", str(3.0 / math.e),
          "--c1", "1", "--c2", "1"])
    assert capsys.readouterr().out.strip() == "4"


@pytest.mark.parametrize("flag, value", [("--mu0", "inf"), ("--mu0", "nan"),
                                         ("--c1", "inf"), ("--c2", "nan")])
def test_cli_bound_rejects_a_non_finite_argument(capsys, flag, value):
    args = {"--r": "2", "--mu0": "1", "--delta": "0.1", "--c1": "1", "--c2": "1"}
    args[flag] = value
    assert main(["bound", *(tok for item in args.items() for tok in item)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("matcoh: error: ") and f"{flag[2:]} must be finite" in err


@pytest.mark.parametrize("mu0, delta, c1", [("1e300", "0.1", "1e300"),
                                             ("2", "1e-320", "1")])
def test_cli_bound_rejects_finite_arguments_that_overflow_it(capsys, mu0, delta, c1):
    # Finite inputs whose bound overflows a float used to end in an
    # OverflowError traceback from math.ceil(inf).
    assert main(["bound", "--r", "10", "--mu0", mu0, "--delta", delta,
                 "--c1", c1, "--c2", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("matcoh: error: ") and "overflows" in err


def test_cli_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["run", str(missing)]) == 2
    assert "error" in capsys.readouterr().err
    bad = config_file(tmp_path, l_values="2,400")
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()


def test_cli_reports_a_lapack_failure_and_keeps_the_earlier_csv(tmp_path,
                                                               monkeypatch,
                                                               capsys):
    cfg = config_file(tmp_path)
    assert main(["run", str(cfg)]) == 0
    raw = tmp_path / "raw.csv"
    good = raw.read_bytes()
    capsys.readouterr()

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("matcoh: error: SVD failed on ")
    assert err.endswith("SVD did not converge\n") and "Traceback" not in err
    assert raw.read_bytes() == good


# Before every kernel was built under one float64 guard, rbf_width 1e200
# ended in an OverflowError traceback, and the other two in the generic
# "matrix entries must be finite (no NaN/Inf)".
@pytest.mark.parametrize("scale, kernel, message", [
    (1.0, "kernel = rbf\nrbf_width = 1e200", "rbf kernel overflows float64 at "
     "rbf_width 1e+200"),
    (1.0, "kernel = rbf\nrbf_width = 1e-200", "rbf kernel overflows float64 at "
     "rbf_width 1e-200"),
    (1e160, "kernel = linear", "linear kernel overflows float64 at point entries "
     "up to 1e+161"),
    (1e160, "kernel = rbf\nrbf_width = 1.0", "rbf kernel overflows float64 at "
     "point entries up to 1e+161"),
], ids=["rbf-wide", "rbf-narrow", "linear-huge-points", "rbf-huge-points"])
def test_cli_names_a_kernel_that_overflows(tmp_path, capsys, scale, kernel, message):
    data = tmp_path / "pts.csv"
    save_csv(PointDataset(points=scale * np.arange(1.0, 11.0).reshape(5, 2)), data)
    cfg = tmp_path / "kernel.cfg"
    cfg.write_text(f"kind = coherence_only\ndata = {data}\n{kernel}\n"
                   f"l_values = 2\noutput = {tmp_path / 'raw.csv'}\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"matcoh: error: {message}\n"
    assert not (tmp_path / "raw.csv").exists()


@pytest.mark.parametrize("policy, rc", [("energy", 2), ("none", 0)])
def test_cli_all_zero_source(tmp_path, capsys, policy, rc):
    import scipy.io

    matrix = tmp_path / "zero.mtx"
    scipy.io.mmwrite(str(matrix), np.zeros((20, 30)))
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(f"kind = coherence_only\nmatrix = {matrix}\n"
                   f"l_values = 5\nr_policy = {policy}\n"
                   f"output = {tmp_path / 'raw.csv'}\n")
    assert main(["run", str(cfg)]) == rc
    err = capsys.readouterr().err
    if rc:
        assert err == ("matcoh: error: r_policy energy needs a source with "
                       "nonzero energy, but the source matrix is all zero\n")
        assert not (tmp_path / "raw.csv").exists()
    else:
        assert [r.r_used for r in read_raw_csv(tmp_path / "raw.csv")] == [0]


def test_cli_rejects_complex_matrix_market_source(tmp_path, capsys):
    matrix = tmp_path / "complex.mtx"
    matrix.write_text("%%MatrixMarket matrix coordinate complex general\n"
                      "2 2 2\n1 1 1.0 2.0\n2 2 3.0 -1.0\n")
    cfg = tmp_path / "complex.cfg"
    cfg.write_text(f"kind = coherence_only\nmatrix = {matrix}\n"
                   f"l_values = 1\noutput = {tmp_path / 'raw.csv'}\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"matcoh: error: {matrix}: matrix entries must be real, "
        "got dtype complex128\n")
    assert not (tmp_path / "raw.csv").exists()


# Before the raw reader dropped a BOM and skipped empty rows, a BOM was
# read as part of the first header name ("not a raw result file (bad
# header)") and a trailing blank line as a row of no fields ("expected
# 13 fields, got 0").
@pytest.mark.parametrize("prefix, suffix", [(b"\xef\xbb\xbf", b""), (b"", b"\n")],
                         ids=["byte_order_mark", "trailing_blank_line"])
def test_cli_summarizes_an_edited_raw_csv(tmp_path, prefix, suffix):
    assert main(["run", str(config_file(tmp_path))]) == 0
    plain = tmp_path / "raw.csv"
    edited = tmp_path / "edited.csv"
    edited.write_bytes(prefix + plain.read_bytes() + suffix)
    assert read_raw_csv(edited) == read_raw_csv(plain)
    assert main(["summarize", str(edited)]) == 0


def test_read_raw_csv_rejects_a_summary_file(tmp_path):
    assert main(["run", str(config_file(tmp_path))]) == 0
    summary = tmp_path / "summary.csv"
    write_summary_csv(summary, summarize(read_raw_csv(tmp_path / "raw.csv")))
    with pytest.raises(ValueError, match=f"^{re.escape(str(summary))}: not a raw "
                                         r"result file \(bad header\)$"):
        read_raw_csv(summary)


def test_cli_summarize_rejects_truncated_raw_row(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(",".join(RAW_HEADER) + "\n"
                   + "x,synth_exact,0,1,2,3\n")
    assert main(["summarize", str(raw)]) == 2
    err = capsys.readouterr().err
    assert err == f"matcoh: error: {raw}:2: expected 13 fields, got 6\n"


# `values` are the bad row's fields from gamma_true on; a case's id
# leaves out the good fields it ends with.
@pytest.mark.parametrize("values, message", [
    ("abc,0.4,0.1,,,splitmix64,", "could not convert string to float: 'abc'"),
    ("0.5,0.4,0.3,,,splitmix64,", "abs_error does not match |gamma_true - gamma_est|"),
    ("0.5,0.4,0.1,,,pcg64,",
     "rows drawn by rng 'pcg64', not 'splitmix64', cannot be pooled"),
    ("nan,0.4,0.1,,,splitmix64,", "result values must be finite"),
    ("0.5,0.4,0.1,nystrom,nan,splitmix64,",
     "normalized_error must be finite and >= 0, got nan"),
    ("0.5,0.4,0.1,nystrom,-0.5,splitmix64,",
     "normalized_error must be finite and >= 0, got -0.5"),
], ids=lambda value: value.removesuffix(",,,splitmix64,"))
def test_cli_summarize_names_the_line_of_a_bad_value(tmp_path, capsys,
                                                     values, message):
    raw = tmp_path / "raw.csv"
    raw.write_text(",".join(RAW_HEADER) + "\n"
                   + "x,synth_exact,0,1,2,3,0.5,0.4,0.1,,,splitmix64,\n"
                   + f"x,synth_exact,1,2,2,3,{values}\n")
    assert main(["summarize", str(raw)]) == 2
    assert capsys.readouterr().err == f"matcoh: error: {raw}:3: {message}\n"


def test_output_dir_env_override(tmp_path, monkeypatch):
    outdir = tmp_path / "redirected"
    monkeypatch.setenv("MATCOH_OUTPUT_DIR", str(outdir))
    cfg = config_file(tmp_path, output="raw.csv")
    assert main(["run", str(cfg)]) == 0
    assert (outdir / "raw.csv").exists()


def test_run_requires_output(tmp_path, capsys):
    cfg = config_file(tmp_path)
    text = cfg.read_text().replace(f"output = {tmp_path / 'raw.csv'}\n", "")
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 2
    assert "output" in capsys.readouterr().err


def test_gamma_bounded_in_all_rows():
    np.random.seed(0)
    results = run_experiment(synth_config(trials=4, coherence="high",
                                          n=70, m=70, rank=6))
    for r in results:
        assert r.gamma_est <= 1.0 and r.gamma_true <= 1.0
