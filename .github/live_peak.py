"""One untimed `matcoh run` in a fresh process, reporting its live peak.

Usage: python live_peak.py CONFIG RESULT_JSON

Run by `pairs.py` like `perfbench/child.py`: the working directory holds
the generated inputs and PYTHONPATH points at one tree's `src`. After
`import matcoh.cli`, `tracemalloc` traces every Python allocation (numpy
arrays included) through `matcoh.cli.main(["run", CONFIG])`, and the
traced peak is written as `peak_live_mb` (MiB). Unlike the peak RSS it
does not move with where the allocator places the heap, so it tells
memory from placement. Tracing slows the run, which is why it is not
timed.

The cyclic garbage collector is disabled before tracing starts. Where
it runs depends on how many container objects the process has made, so
a change to code the run never calls could move a collection, and with
it the traced peak (by 0.017 MB on a workload that builds no kernel,
above `pairs.py`'s `LIVE_GAIN_MB`). With it off the peak is the same
from one tree to the next wherever the run's allocations are.
"""

import gc
import json
import sys
import tracemalloc
from pathlib import Path


def main(argv) -> int:
    config, result_path = argv[0], Path(argv[1])
    import matcoh.cli
    gc.disable()
    tracemalloc.start()
    rc = matcoh.cli.main(["run", config])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    result_path.write_text(json.dumps({"peak_live_mb": peak / 2**20,
                                       "matcoh_file": matcoh.cli.__file__}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
