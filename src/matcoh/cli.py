"""Command-line entry point: run experiments, summarize, evaluate bounds."""

import argparse
import sys

from .coherence import sample_size_bound
from .experiment import (
    load_config,
    read_raw_csv,
    resolve_output_path,
    run_experiment,
    summarize,
    write_summary_csv,
)
from .linalg import DecompositionError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matcoh",
        description="Coherence estimation and column-sampled low-rank "
                    "approximation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config and write raw CSV")
    run.add_argument("config", help="flat key=value config file")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config key")
    run.add_argument("--output", help="override the output path")

    summ = sub.add_parser("summarize", help="aggregate a raw CSV into mean/std rows")
    summ.add_argument("raw", help="raw result CSV from 'run'")
    summ.add_argument("--output", help="summary CSV path (default: stdout)")

    bound = sub.add_parser("bound", help="evaluate the sample-size bound")
    bound.add_argument("--r", type=int, required=True, help="target rank")
    bound.add_argument("--mu0", type=float, required=True, help="row coherence")
    bound.add_argument("--delta", type=float, required=True,
                       help="failure probability")
    bound.add_argument("--c1", type=float, required=True)
    bound.add_argument("--c2", type=float, required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = list(args.overrides)
            if args.output:
                overrides.append(f"output={args.output}")
            config = load_config(args.config, overrides)
            if not config.output:
                raise ValueError("no output path (set 'output' or pass --output)")
            results = run_experiment(config)
            print(f"wrote {len(results)} rows to {resolve_output_path(config.output)}")
        elif args.command == "summarize":
            rows = summarize(read_raw_csv(args.raw))
            if args.output:
                path = resolve_output_path(args.output)
                write_summary_csv(path, rows)
                print(f"wrote {len(rows)} summary rows to {path}")
            else:
                write_summary_csv(sys.stdout, rows)
        else:
            print(sample_size_bound(args.r, args.mu0, args.delta, args.c1, args.c2))
    except (ValueError, OSError, DecompositionError) as exc:
        print(f"matcoh: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
