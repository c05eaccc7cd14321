"""Workload definitions: one pinned `matcoh run` config per workload.

Every workload is a closed loop with one client: the benchmark starts
one `matcoh run` child process, waits for it to finish, then starts the
next. Inputs (config files and, for the kernel workload, a point CSV)
are generated here from the workload seed alone; the program receives
only those files.

Why each workload exists, the layer it loads and the layer it bypasses:

- synth_tall_sweep: exactly low-rank, highly coherent synthetic matrix
  with a long nested sweep of sample sizes and no rank truncation.
  Loads `coherence.estimate_coherence` (untruncated SVD path) and
  `sampling.nested_samples` (O(n L^2) prefix copies, which set the
  peak memory). Bypasses `lowrank` entirely and `kernels`.
- kernel_rbf: RBF kernel on Gaussian points with an energy rank rule.
  Loads `lowrank` (column projection, Nystrom and their error metrics,
  each a full n x n SVD) and `kernels` (kernel build, `energy_rank`
  factorizing the same matrix as `gamma_true`). Takes the truncated
  estimator path, so it bypasses the untruncated estimator that
  synth_tall_sweep loads.
- noisy_wide: short, wide noisy matrix with an explicit rank and
  excluded columns, many trials. Set-up dominates (`synthetic.add_noise`
  and the 300 x m truth SVD), and the rest is the pure-Python
  Fisher-Yates shuffle of the whole column pool in `sampling`. Its
  truncated path bypasses the untruncated estimator, and it copies few
  samples, so it shows a `sampling` change that helps copying but costs
  the shuffle. Bypasses `lowrank` and `kernels`.

The sizes are scaled down from a first sketch (n=3000 sweep, n=1000
kernel, m=20000 pool) so that one run takes about two seconds and a
measuring window holds several runs whose median is steady.

Seeds: the workload seed given on the command line derives `base_seed`,
`matrix_seed` and the kernel points. Seed 7919 was never run
while the benchmark was written; keep it back for checking a later
claim on a seed the change was not tuned on.
"""

import hashlib

import numpy as np

NAMES = ("synth_tall_sweep", "kernel_rbf", "noisy_wide")

KERNEL_DIM = 8

# Source and sampling keys per workload and size. "full" is what the
# benchmark measures; "toy" is the smoke-test size of the same shape.
_SPECS = {
    "synth_tall_sweep": {
        "full": dict(kind="synth_exact", n=2000, m=600, rank=40,
                     coherence="high", r_policy="none",
                     l_values=tuple(range(10, 201, 10)), trials=3),
        "toy": dict(kind="synth_exact", n=150, m=80, rank=6,
                    coherence="high", r_policy="none",
                    l_values=tuple(range(4, 25, 4)), trials=2),
    },
    "kernel_rbf": {
        "full": dict(kind="kernel_suite", points=500, kernel="rbf",
                     r_policy="energy", energy_fraction=0.999,
                     l_values=(25, 50, 100, 200), trials=3),
        "toy": dict(kind="kernel_suite", points=60, kernel="rbf",
                    r_policy="energy", energy_fraction=0.999,
                    l_values=(5, 10, 20), trials=2),
    },
    "noisy_wide": {
        "full": dict(kind="synth_noisy", n=300, m=10000, rank=20, noise=0.1,
                     r_policy="explicit", r=20, exclude=(0, 1, 2, 3),
                     l_values=(20, 50, 100, 200), trials=20),
        "toy": dict(kind="synth_noisy", n=40, m=400, rank=5, noise=0.1,
                    r_policy="explicit", r=5, exclude=(0, 1, 2, 3),
                    l_values=(5, 10, 20), trials=3),
    },
}


def derive_seed(seed: int, label: str) -> int:
    """Stable 31-bit seed for one input of the workload, from its seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def config_values(name: str, seed: int, size: str = "full",
                  setup: bool = False) -> dict:
    """Config keys of the workload's `matcoh run`, as Python values.

    With `setup`, the same source and rank policy cut to one trial at
    l = 1. For the kernel workload that is a `coherence_only` run on the
    same data and kernel, so no approximation method runs.
    """
    spec = dict(_SPECS[name][size])
    n_points = spec.pop("points", None)
    cfg = {"id": name, **spec, "base_seed": derive_seed(seed, "base"),
           "timing": "off", "output": "setup.csv" if setup else "run.csv"}
    if n_points is None:
        cfg["matrix_seed"] = derive_seed(seed, "matrix")
    else:
        cfg["data"] = "points.csv"
    if setup:
        cfg.update(l_values=(1,), trials=1)
        if cfg["kind"] == "kernel_suite":
            cfg["kind"] = "coherence_only"
    return cfg


def points(name: str, seed: int, size: str = "full"):
    """Kernel point set (n x KERNEL_DIM) of the workload, or None."""
    n_points = _SPECS[name][size].get("points")
    if n_points is None:
        return None
    rng = np.random.default_rng(derive_seed(seed, "points"))
    return rng.standard_normal((n_points, KERNEL_DIM))


def config_text(cfg: dict) -> str:
    """Render config values in matcoh's flat `key = value` format."""
    lines = []
    for key, value in cfg.items():
        if isinstance(value, tuple):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def points_text(pts) -> str:
    """Point CSV with exact float round-trip (repr), no header."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in pts)
