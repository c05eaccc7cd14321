"""Compare two source trees on one benchmark workload, in alternating pairs.

Usage, from the root of a checkout:

    python .github/pairs.py OLD_SRC NEW_SRC --workload W --pairs N
        [--size toy] [--seed S]

OLD_SRC and NEW_SRC are directories that hold a `matcoh` package (the
`src` of two checkouts). The workload's inputs are written once, by
`perfbench/workloads.py`, into a temporary directory. After one untimed
set-up run of each tree, N pairs of full runs follow, each one a fresh
`perfbench/child.py` process with the thread variables pinned to 1. The
order within a pair alternates (old first, then new first), so a drift
in the host's speed does not favour one side.

It prints the median `cpu_s` and `peak_rss_mb` of each side, in how
many of the N pairs the new tree read lower, and whether the two
trees' CSVs are byte-identical. A failed child run stops it with an
error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from run import CHILD_TIMEOUT_S, THREAD_VARS  # noqa: E402

METRICS = ("cpu_s", "peak_rss_mb")


def child(src: Path, config: str, workdir: Path) -> dict:
    """One `matcoh run` of `config` in a fresh process importing `src`."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "MATCOH_OUTPUT_DIR")}
    env.update(THREAD_VARS, PYTHONPATH=str(src))
    result_path = workdir / "child.json"
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), config, str(result_path)],
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

    samples = {side: {m: [] for m in METRICS} for side in sides}
    csv = {}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        workdir = Path(tmp)
        for setup in (False, True):
            cfg = workloads.config_values(args.workload, args.seed, args.size,
                                          setup=setup)
            name = "setup.cfg" if setup else "run.cfg"
            (workdir / name).write_text(workloads.config_text(cfg))
        pts = workloads.points(args.workload, args.seed, args.size)
        if pts is not None:
            (workdir / "points.csv").write_text(workloads.points_text(pts))
        for src in sides.values():
            child(src, "setup.cfg", workdir)
        for i in range(args.pairs):
            order = ("old", "new") if i % 2 == 0 else ("new", "old")
            for side in order:
                result = child(sides[side], "run.cfg", workdir)
                for m in METRICS:
                    samples[side][m].append(result[m])
                csv.setdefault(side, (workdir / "run.csv").read_bytes())

    print(f"{args.workload} seed {args.seed} size {args.size}, {args.pairs} pairs")
    for m in METRICS:
        old, new = samples["old"][m], samples["new"][m]
        lower = sum(b < a for a, b in zip(old, new))
        print(f"{m}: old {statistics.median(old):.6g}, "
              f"new {statistics.median(new):.6g}, "
              f"new lower in {lower} of {args.pairs}")
    print(f"CSV byte-identical: {'yes' if csv['old'] == csv['new'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
