"""One `matcoh run` in a fresh process, timed from inside.

Usage: python3 child.py CONFIG RESULT_JSON [--trace MAX_L]

Run by run.py with the working directory holding the generated inputs
and PYTHONPATH pointing at the checkout's `src`. The timed region is
`matcoh.cli.main(["run", CONFIG])` alone: interpreter start and imports
are excluded. It is read on two clocks: `cpu_s`, the process CPU time
(user + system, which excludes time the virtual machine's CPU was
stolen by its host), and `wall_s`. Peak RSS is read right after `main`
returns. With `--trace`, the layer functions are wrapped first and the
per-layer metrics are written alongside.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    config, result_path = argv[0], Path(argv[1])
    tracer = None
    import matcoh.cli
    if len(argv) == 4 and argv[2] == "--trace":
        from tracing import Tracer
        tracer = Tracer(max_l=int(argv[3]))
        tracer.install()
    start, cpu_start = time.perf_counter(), time.process_time()
    rc = matcoh.cli.main(["run", config])
    cpu_s = time.process_time() - cpu_start
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"rc": rc, "cpu_s": cpu_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb,
              "matcoh_file": matcoh.cli.__file__}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    result_path.write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
