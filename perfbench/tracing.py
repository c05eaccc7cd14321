"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps the public functions (`__all__`) of each matcoh
layer module and rebinds every name that refers to one, in every loaded
matcoh module. `from .linalg import thin_svd` in `coherence`, `lowrank`,
`kernels` and `sampling` therefore reaches the wrapper too. Spans stay
in memory as (name, start, end, parent) and `layer_metrics` reduces
them once the run is over.

Call counts are reported next to times, so a later refactor that stops
calling a wrapped function shows up as a changed count rather than a
silent zero. Flop and byte figures are computed from array shapes, not
measured by hardware counters. Spans are timed on the process CPU
clock, the clock run.py reports run_s on.
"""

import functools
import inspect
import sys
import time

LAYERS = ("linalg", "coherence", "sampling", "lowrank", "synthetic",
          "kernels", "experiment")

# Span name of an `estimate_coherence` call on the full source matrix.
TRUTH_SPAN = "coherence.truth"


def svd_flops(n: int, m: int) -> int:
    """Flops of a thin SVD with both factors (Golub-Van Loan R-SVD)."""
    big, small = max(n, m), min(n, m)
    return 6 * big * small * small + 20 * small ** 3


class Tracer:
    """Span recorder for one traced `matcoh run`.

    `max_l` is the largest sample size of the run: an `estimate_coherence`
    call on more columns than that is the full-matrix truth
    (`gamma_true`), any other is a sampled estimate.
    """

    def __init__(self, max_l: int):
        self.max_l = max_l
        self.spans = []          # [name, start, end, parent index]
        self.counters = {}
        self._stack = []

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _span_name(self, name, args):
        if name == "coherence.estimate_coherence":
            columns = args[0] if args else None
            if getattr(columns, "ndim", 0) == 2 and columns.shape[1] > self.max_l:
                return TRUTH_SPAN
        return name

    def _note(self, name, result):
        if name == "linalg.thin_svd":
            self.count("linalg.svd_flops",
                       svd_flops(result.U.shape[0], result.V.shape[0]))
        elif name == "linalg.as_dense":
            self.count("linalg.as_dense_bytes", result.nbytes)
        elif name == "sampling.nested_samples":
            self.count("sampling.samples_built", len(result))
            self.count("sampling.bytes_copied",
                       sum(s.submatrix.nbytes for s in result))
        elif name in ("sampling.uniform_sample", "sampling.exclusion_sample"):
            self.count("sampling.samples_built", 1)
            self.count("sampling.bytes_copied", result.submatrix.nbytes)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self._span_name(name, args), time.process_time(), None,
                    self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.process_time()
                self._stack.pop()
            self._note(name, result)
            return result
        return traced

    def install(self):
        """Wrap every public layer function and rebind it everywhere."""
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"matcoh.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    replacements[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "matcoh" and not mod_name.startswith("matcoh."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    setattr(module, attr, replacements[id(value)])

    def layer_metrics(self) -> dict:
        """Per-layer times and counts of the recorded spans."""
        spans = self.spans
        durations = [end - start for _, start, end, _ in spans]
        child_time = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[3] is not None:
                child_time[span[3]] += durations[i]

        def has_ancestor_in(i, names):
            parent = spans[i][3]
            while parent is not None:
                if spans[parent][0] in names:
                    return True
                parent = spans[parent][3]
            return False

        def inclusive(names):
            # Union of the spans' intervals: only outermost ones count.
            return sum(durations[i] for i, span in enumerate(spans)
                       if span[0] in names and not has_ancestor_in(i, names))

        def self_time(names):
            return sum(durations[i] - child_time[i]
                       for i, span in enumerate(spans) if span[0] in names)

        def calls(name):
            return sum(1 for span in spans if span[0] == name)

        all_names = {span[0] for span in spans}

        def layer(prefix, exclude=()):
            return {n for n in all_names
                    if n.startswith(prefix + ".") and n not in exclude}

        estimate = {"coherence.estimate_coherence"}
        estimate_calls = calls("coherence.estimate_coherence")
        built = self.counters.get("sampling.samples_built", 0)
        c = self.counters
        return {
            "linalg.svd_s": inclusive({"linalg.thin_svd"}),
            "linalg.svd_calls": calls("linalg.thin_svd"),
            "linalg.svd_flops": c.get("linalg.svd_flops", 0),
            "linalg.as_dense_s": inclusive({"linalg.as_dense"}),
            "linalg.as_dense_calls": calls("linalg.as_dense"),
            "linalg.as_dense_bytes": c.get("linalg.as_dense_bytes", 0),
            "linalg.pinv_s": inclusive({"linalg.pseudoinverse"}),
            "coherence.truth_s": inclusive({TRUTH_SPAN}),
            "coherence.estimate_s": inclusive(estimate),
            "coherence.estimate_calls": estimate_calls,
            "coherence.self_s": self_time(layer("coherence")),
            "sampling.nested_s": inclusive({"sampling.nested_samples"}),
            "sampling.nested_calls": calls("sampling.nested_samples"),
            "sampling.samples_built": built,
            "sampling.bytes_copied": c.get("sampling.bytes_copied", 0),
            "sampling.sample_use_ratio": estimate_calls / built if built else 0.0,
            "lowrank.column_projection_s":
                inclusive({"lowrank.column_projection"}),
            "lowrank.nystrom_s": inclusive({"lowrank.nystrom"}),
            "lowrank.errors_s": inclusive({"lowrank.approximation_errors"}),
            "lowrank.errors_calls": calls("lowrank.approximation_errors"),
            "synthetic.build_s": inclusive(layer("synthetic")),
            "kernels.build_s": inclusive(
                layer("kernels", exclude={"kernels.energy_rank"})),
            "kernels.energy_rank_s": inclusive({"kernels.energy_rank"}),
            "experiment.self_s": self_time({"experiment.run_experiment"}),
            "experiment.csv_write_s": inclusive({"experiment.write_raw_csv"}),
        }
