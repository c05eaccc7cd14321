"""Compare two source trees on one benchmark workload, in alternating pairs.

Usage, from the root of a checkout:

    python .github/pairs.py OLD_SRC NEW_SRC --workload W --pairs N
        [--size toy] [--seed S]

OLD_SRC and NEW_SRC are directories that hold a `matcoh` package (the
`src` of two checkouts). Each is copied, without `__pycache__`, into a
temporary directory, as `old/src` and `new/src`, and both sides run from
those copies: paths of equal length, because the trees' paths alone can
move a child's peak RSS by 0.1 MB. The workload's inputs are written
once, by `perfbench/workloads.py`, into the same directory. After one
untimed set-up run of each tree, N pairs follow. In each, each tree runs the
workload's set-up config and then its full config, each run a fresh
`perfbench/child.py` process with the thread variables pinned to 1. The
order within a pair alternates (old first, then new first), so a drift
in the host's speed does not favour one side.

It prints the median `cpu_s` and `peak_rss_mb` of each side's set-up and
full runs (a source's build peak sits in the set-up run), each with its
quartiles, in how many of the N pairs the new tree read lower on each,
and whether the two trees' set-up and full-run CSVs are byte-identical.
Where they differ, it prints, per `method` (`-` for an estimate row),
the largest relative move |new - old| / max(|old|, |new|) of each float
column that moved, and names any other column that changed. A gain
holds where the new tree reads lower in at least nine of ten pairs and
its median is lower than the old one by more than the old tree's
interquartile spread; each metric's line ends with the median move, the
median move within each half of the pairs (a drift of the host within
the batch shows as halves that disagree), the old spread and that
verdict. Below `MIN_GAIN_PAIRS` pairs the verdict is "unresolved": so
few pairs cannot tell a gain from the host's drift. A failed child run
stops it with an error.

After the pairs, each tree runs each config once more, untimed, in a
`live_peak.py` child that traces the run with `tracemalloc`, and a
`peak_live_mb old → new` line gives each config's traced peak. That
peak is deterministic to about 1 KB, so it needs no pair statistics,
and a `peak_rss_mb` move with an unchanged `peak_live_mb` is where the
allocator placed the heap, not memory: a `peak_rss_mb` gain holds only
where the same config's `peak_live_mb` also falls by more than
`LIVE_GAIN_MB`, and otherwise reads "no (peak_live_mb unchanged: heap
placement)".
"""

import argparse
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
LIVE_PEAK = Path(__file__).resolve().parent / "live_peak.py"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from run import CHILD_TIMEOUT_S, THREAD_VARS, quartiles  # noqa: E402

# The metrics read from each config's runs, set-up first.
METRICS = {run: ("cpu_s", "peak_rss_mb") for run in ("setup", "run")}
# The fewest pairs that can give a gain verdict.
MIN_GAIN_PAIRS = 10
# How far a config's `peak_live_mb` must fall for its `peak_rss_mb` gain
# to count as memory rather than heap placement (the live peak is
# deterministic to about 1 KB).
LIVE_GAIN_MB = 0.01


def child(src: Path, config: str, workdir: Path,
          script: Path = PERFBENCH / "child.py") -> dict:
    """One `matcoh run` of `config` in a fresh process importing `src`,
    through `script` (`perfbench/child.py`, or `live_peak.py`)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "MATCOH_OUTPUT_DIR")}
    env.update(THREAD_VARS, PYTHONPATH=str(src))
    result_path = workdir / "child.json"
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(script), config, str(result_path)],
        cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise SystemExit(f"pairs: {config} failed under {src} "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    if not Path(result["matcoh_file"]).resolve().is_relative_to(src):
        raise SystemExit(f"pairs: matcoh imported from {result['matcoh_file']}, "
                         f"not from {src}")
    return result


def _float_cell(cell):
    """The cell's value if it is a float that is not an integer, else None."""
    try:
        int(cell)
        return None
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def moves(old: bytes, new: bytes) -> list:
    """Lines naming what moved between two raw CSVs, row for row."""
    old_rows, new_rows = (list(csv.DictReader(io.StringIO(b.decode())))
                          for b in (old, new))
    if (len(old_rows) != len(new_rows)
            or any(a.keys() != b.keys() for a, b in zip(old_rows, new_rows))):
        return [f"rows differ: {len(old_rows)} old, {len(new_rows)} new"]
    largest, changed = {}, set()
    for a, b in zip(old_rows, new_rows):
        for column, cell in a.items():
            if cell == b[column]:
                continue
            x, y = _float_cell(cell), _float_cell(b[column])
            if x is None or y is None:
                changed.add(column)
            elif x != y:  # not 0.0 against -0.0
                key = (column, a.get("method") or "-")
                move = abs(y - x) / max(abs(x), abs(y))
                largest[key] = max(largest.get(key, 0.0), move)
    lines = [f"{column} [{method}]: largest relative move {move:.3g}"
             for (column, method), move in sorted(largest.items())]
    if changed:
        lines.append(f"other columns changed: {', '.join(sorted(changed))}")
    return lines


def summary(values) -> str:
    """`median [q1, q3]` of `values`."""
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    for src in sides.values():
        if not (src / "matcoh" / "__init__.py").is_file():
            parser.error(f"no matcoh package in {src}")

    samples = {side: {(run, m): [] for run, ms in METRICS.items() for m in ms}
               for side in sides}
    outputs, live = {}, {}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        workdir = Path(tmp).resolve()
        for side, src in sides.items():
            sides[side] = workdir / side / "src"
            shutil.copytree(src, sides[side],
                            ignore=shutil.ignore_patterns("__pycache__"))
        for run in METRICS:  # writes setup.cfg and run.cfg
            cfg = workloads.config_values(args.workload, args.seed, args.size,
                                          setup=run == "setup")
            (workdir / f"{run}.cfg").write_text(workloads.config_text(cfg))
        pts = workloads.points(args.workload, args.seed, args.size)
        if pts is not None:
            (workdir / "points.csv").write_text(workloads.points_text(pts))
        for src in sides.values():
            child(src, "setup.cfg", workdir)
        for i in range(args.pairs):
            order = ("old", "new") if i % 2 == 0 else ("new", "old")
            for side in order:
                for run, ms in METRICS.items():
                    result = child(sides[side], f"{run}.cfg", workdir)
                    for m in ms:
                        samples[side][run, m].append(result[m])
                    outputs.setdefault((side, run),
                                       (workdir / f"{run}.csv").read_bytes())
        for side, src in sides.items():
            for run in METRICS:
                live[side, run] = child(src, f"{run}.cfg", workdir,
                                        LIVE_PEAK)["peak_live_mb"]

    print(f"{args.workload} seed {args.seed} size {args.size}, {args.pairs} pairs")
    for key in samples["old"]:
        old, new = samples["old"][key], samples["new"][key]
        lower = sum(b < a for a, b in zip(old, new))
        q1, old_median, q3 = quartiles(old)
        move = quartiles(new)[1] - old_median
        halves = ", ".join(
            f"{statistics.median(new[part]) - statistics.median(old[part]):+.6g}"
            for part in (slice(None, args.pairs // 2), slice(args.pairs // 2, None))
            if old[part])
        if args.pairs < MIN_GAIN_PAIRS:
            verdict = f"unresolved (fewer than {MIN_GAIN_PAIRS} pairs)"
        else:
            gain = lower >= 0.9 * args.pairs and -move > q3 - q1
            verdict = "yes" if gain else "no"
            if (gain and key[1] == "peak_rss_mb"
                    and live["old", key[0]] - live["new", key[0]] <= LIVE_GAIN_MB):
                verdict = "no (peak_live_mb unchanged: heap placement)"
        print(f"{key[0]} {key[1]}: old {summary(old)}, new {summary(new)}, "
              f"new lower in {lower} of {args.pairs}, median move "
              f"{move:+.6g} (halves {halves}) against old spread "
              f"{q3 - q1:.6g}: gain {verdict}")
    for run in METRICS:
        print(f"{run} peak_live_mb: {live['old', run]:.4f} → "
              f"{live['new', run]:.4f}")
    for run in METRICS:
        same = outputs["old", run] == outputs["new", run]
        print(f"{run} CSV byte-identical: {'yes' if same else 'no'}")
        if not same:
            for line in moves(outputs["old", run], outputs["new", run]):
                print(f"  {run} {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
