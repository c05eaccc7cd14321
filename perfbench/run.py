"""Pinned `matcoh run` benchmark: end-to-end metrics and a per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The workloads, and why each exists, are described in workloads.py. Each
run is a closed loop with one client: one fresh `matcoh run` child
process at a time (child.py), single-threaded because the OpenBLAS/OMP
thread variables are pinned to 1 in this process's environment, which
the children inherit. The program is imported from the checkout's
`src`; without it the benchmark fails before measuring.

--trace 0 alternates, for S seconds (and at least MIN_RUNS times), a
set-up run (the same source and rank policy cut to one trial at l = 1)
and a full run, and reports the medians:

    run_s        time of one full `matcoh run`
    setup_s      time of the set-up run
    peak_rss_mb  peak resident memory of the full run's process

Times are the child's CPU time (user + system) over `matcoh.cli.main`.
The run is single-threaded and does almost no I/O, so on an idle
machine this equals its wall time. On a shared virtual machine the
host steals the CPU in bursts that stretch wall time by up to 80%
while the CPU time stays put, so the CPU clock is the steadier reading
of the same work. Wall times are kept in the results file.

--trace 1 alternates an untraced and a traced full run and reports the
median of each per-layer metric of the traced runs (see tracing.py),
`trace.run_s` and `trace.overhead_s` (traced minus untraced run_s).

Outside the timed region every check runs: each output row against
the oracle (oracle.py), each repeat's CSV byte for byte against the
first one, and each child for a clean exit. `error_rate` is failed
checks over attempted ones. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the
full record, with the environment and every sample, goes to
bench_results/BENCH_<workload>_seed<N>_trace<0|1>.json.

--smoke runs every workload at toy size in both modes and checks that
each metric named in BENCHMARK.json is emitted and that the oracle
passes; it exits non-zero otherwise.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / "bench_results"

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Checks:
    """Correctness tally: checks attempted, checks failed, first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, failed=0, attempted=1, note=None):
        self.attempted += attempted
        self.failed += failed
        if failed and note is not None and len(self.notes) < 20:
            self.notes.append(note)


class ChildRunner:
    """A working directory with one workload's inputs, and its child runs."""

    def __init__(self, workdir: Path, checks: Checks):
        self.workdir = workdir
        self.checks = checks
        self.reference = {}   # config name -> bytes of its first CSV
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "MATCOH_OUTPUT_DIR")}
        self.env.update(THREAD_VARS, PYTHONPATH=str(SRC))

    def run(self, config: str, output: str, trace_max_l=None):
        """One child run; its result dict, or None if it failed."""
        result_path = self.workdir / "child.json"
        csv_path = self.workdir / output
        result_path.unlink(missing_ok=True)
        csv_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), config, str(result_path)]
        if trace_max_l is not None:
            cmd += ["--trace", str(trace_max_l)]
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.checks.add(failed=1, note={"run": config, "error": "timeout"})
            return None
        if proc.returncode != 0 or not (result_path.exists() and csv_path.exists()):
            self.checks.add(failed=1, note={"run": config, "rc": proc.returncode,
                                            "stderr": proc.stderr[-2000:]})
            return None
        self.checks.add()
        result = json.loads(result_path.read_text())
        if not Path(result["matcoh_file"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"matcoh imported from {result['matcoh_file']}, "
                             f"not from {SRC}")
        data = csv_path.read_bytes()
        if config in self.reference:
            differs = data != self.reference[config]
            self.checks.add(failed=int(differs), note={
                "run": config, "error": "CSV differs from the first repeat"})
        else:
            self.reference[config] = data
            (self.workdir / f"first-{output}").write_bytes(data)
        return result


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": THREAD_VARS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def benchmark_metrics():
    """(end_to_end, per_layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(workload, seed, seconds, trace, size="full"):
    """Run one workload; returns the result record (see module docstring)."""
    import oracle
    import workloads

    checks = Checks()
    cfgs = {"run": workloads.config_values(workload, seed, size),
            "setup": workloads.config_values(workload, seed, size, setup=True)}
    max_l = cfgs["run"]["l_values"][-1]
    samples = {k: [] for k in ("run_s", "setup_s", "peak_rss_mb", "traced_s",
                               "run_wall_s", "setup_wall_s", "traced_wall_s")}
    layers = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        for name, cfg in cfgs.items():
            (workdir / f"{name}.cfg").write_text(workloads.config_text(cfg))
        pts = workloads.points(workload, seed, size)
        if pts is not None:
            (workdir / "points.csv").write_text(workloads.points_text(pts))
        runner = ChildRunner(workdir, checks)

        # Warm-up: fills the file cache for the imports; not timed.
        runner.run("setup.cfg", "setup.csv")
        deadline = time.monotonic() + seconds
        last_round_s = 0.0
        # Stop before a round that would end past the deadline, so a run
        # takes about `seconds` whatever the workload's run time.
        while (len(samples["run_s"]) < MIN_RUNS
               or time.monotonic() + last_round_s <= deadline):
            round_start = time.monotonic()
            if trace:
                res = runner.run("run.cfg", "run.csv", trace_max_l=max_l)
                if res is not None:
                    samples["traced_s"].append(res["cpu_s"])
                    samples["traced_wall_s"].append(res["wall_s"])
                    layers.append(res["layers"])
            else:
                res = runner.run("setup.cfg", "setup.csv")
                if res is not None:
                    samples["setup_s"].append(res["cpu_s"])
                    samples["setup_wall_s"].append(res["wall_s"])
            res = runner.run("run.cfg", "run.csv")
            if res is not None:
                samples["run_s"].append(res["cpu_s"])
                samples["run_wall_s"].append(res["wall_s"])
                samples["peak_rss_mb"].append(res["peak_rss_mb"])
            if checks.failed and not samples["run_s"]:
                break
            last_round_s = time.monotonic() - round_start

        start = time.perf_counter()
        shapes = {}
        for name, cfg in cfgs.items():
            first = workdir / f"first-{name}.csv"
            if not first.exists():
                continue
            X = oracle.source_matrix(cfg, workdir)
            shapes[name] = list(X.shape)
            checked, failed, mismatches = oracle.check_csv(first, cfg, X)
            checks.add(failed=failed, attempted=checked)
            checks.notes.extend({"config": name, **m} for m in mismatches)
        oracle_s = time.perf_counter() - start

    if not samples["run_s"] or not samples["traced_s" if trace else "setup_s"]:
        raise RuntimeError(f"no successful run of {workload}: {checks.notes}")
    medians = {k: quartiles(v)[1] for k, v in samples.items() if v}
    if trace:
        # The low median is always one of the samples, so counts stay whole.
        metrics = {key: statistics.median_low(layer[key] for layer in layers)
                   for key in layers[0]}
        metrics["trace.run_s"] = medians["traced_s"]
        metrics["trace.overhead_s"] = medians["traced_s"] - medians["run_s"]
    else:
        metrics = {k: medians[k] for k in ("run_s", "setup_s", "peak_rss_mb")}
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": size,
        "configs": {k: workloads.config_text(v) for k, v in cfgs.items()},
        "source_shapes": shapes,
        "samples": {k: v for k, v in samples.items() if v},
        "quartiles": {k: quartiles(v) for k, v in samples.items() if v},
        "metrics": metrics,
        "attempted": checks.attempted, "failed": checks.failed,
        "error_rate": checks.failed / checks.attempted,
        "check_failures": checks.notes,
        "oracle_s": oracle_s,
    }


def report(record, units):
    """Human-readable lines, then the JSON result line (last on stdout)."""
    metrics = {name: {"value": record["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for name, unit in units.items():
        line = f"{name}: {record['metrics'][name]:.6g} {unit}"
        if name in record["quartiles"]:
            q1, _, q3 = record["quartiles"][name]
            n = len(record["samples"][name])
            line += f"  (median of {n}; quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    print(f"error_rate: {record['error_rate']:.6g} "
          f"({record['failed']} of {record['attempted']} checks failed)")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


def smoke(end_to_end, per_layer) -> int:
    import workloads
    bad = 0
    for workload in workloads.NAMES:
        for trace, units in ((False, end_to_end), (True, per_layer)):
            record = measure(workload, seed=1, seconds=0, trace=trace, size="toy")
            missing = sorted(set(units) ^ set(record["metrics"]))
            ok = not missing and record["failed"] == 0 and record["attempted"] > 0
            bad += not ok
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if ok else 'FAILED'} ({record['attempted']} checks, "
                  f"{record['failed']} failed, metric mismatch {missing}, "
                  f"{record['check_failures']})")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size self-test of every workload")
    args = parser.parse_args(argv)

    if not (SRC / "matcoh" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    # Pinned before numpy loads here, and inherited by every child run.
    os.environ.update(THREAD_VARS)
    sys.path.insert(0, str(SRC))
    import workloads

    end_to_end, per_layer = benchmark_metrics()
    if args.smoke:
        return smoke(end_to_end, per_layer)
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = per_layer if args.trace else end_to_end
    if set(units) != set(record["metrics"]):
        print(f"perfbench: metrics {sorted(record['metrics'])} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    record["environment"] = environment(args.seed)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    report(record, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
