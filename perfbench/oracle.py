"""Correctness oracle for the rows of a `matcoh run` CSV.

Recomputes every expected row directly with `np.linalg.svd`: the
full-matrix `gamma_true`, each sampled `gamma_est` from the row's seed
and the same rank rule, and for kernel runs each method's
`normalized_error` (column projection onto the sampled span; Nystrom
K1 pinv(W) K1^T with the pseudoinverse cut at the same threshold).
The sampled column indices come from an independent implementation of
the documented SplitMix64 Fisher-Yates prefix.

Synthetic sources are the inputs' definition, so they are rebuilt with
`matcoh.synthetic`; the RBF kernel is rebuilt here from the point file.

Tolerance: a float field matches when |got - want| <= ATOL + RTOL*|want|;
integer and text fields must match exactly.
"""

import csv
import math
from dataclasses import replace

import numpy as np
from scipy.spatial.distance import pdist, squareform

from matcoh.synthetic import SynthSpec, add_noise, low_rank_matrix

ATOL = 1e-9
RTOL = 1e-7

_EPS = np.finfo(np.float64).eps
_ZERO_SPECTRUM_FLOOR = 1e-12
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

RAW_HEADER = [
    "experiment_id", "kind", "trial", "seed", "l", "r_used",
    "gamma_true", "gamma_est", "abs_error", "method", "normalized_error",
    "rng_name", "wall_time_ms",
]
_FLOAT_FIELDS = {"gamma_true", "gamma_est", "abs_error", "normalized_error"}


def fisher_yates_prefix(pool, size, seed):
    """First `size` entries of the seeded SplitMix64 Fisher-Yates shuffle."""
    a = list(pool)
    seed &= _MASK64
    counter = 0
    for i in range(min(size, len(a) - 1)):
        bound = len(a) - i
        limit = (1 << 64) - (1 << 64) % bound
        while True:
            counter += 1
            x = (seed + counter * _GOLDEN) & _MASK64
            x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
            x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
            x ^= x >> 31
            if x < limit:
                break
        j = i + x % bound
        a[i], a[j] = a[j], a[i]
    return a[:size]


def rbf_kernel(points):
    """RBF kernel with the median pairwise distance as its width."""
    if points.shape[0] > 1000:
        raise ValueError("the program subsamples the width above 1000 points")
    dist = pdist(points)
    width = float(np.median(dist))
    d2 = squareform(dist) ** 2
    K = np.exp(-d2 / (2.0 * width * width))
    return (K + K.T) / 2.0


def source_matrix(cfg, workdir):
    """The matrix the workload's `matcoh run` builds from its inputs."""
    if "data" in cfg:
        points = np.loadtxt(workdir / cfg["data"], delimiter=",", ndmin=2)
        return rbf_kernel(points)
    spec = SynthSpec(n=cfg["n"], m=cfg["m"], rank=cfg["rank"],
                     coherence=cfg.get("coherence", "low"),
                     seed=cfg["matrix_seed"])
    X = low_rank_matrix(spec)
    if cfg["kind"] == "synth_noisy":
        X = add_noise(X, replace(spec, noise=cfg["noise"]))
    return X


def _svd(A):
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    tau = max(A.shape) * s[0] * _EPS
    keep = int(np.count_nonzero(s > (tau if tau > 0 else _ZERO_SPECTRUM_FLOOR)))
    return U, s, Vt, keep


def _gamma(A, cap):
    """(max leverage, basis size) of A's top min(numerical rank, cap) vectors."""
    U, _, _, keep = _svd(A)
    q = keep if cap is None else min(keep, cap)
    if q == 0:
        return 0.0, 0
    return min(float(np.max(np.sum(U[:, :q] ** 2, axis=1))), 1.0), q


def _energy_rank(X, fraction):
    s = np.linalg.svd(X, compute_uv=False)
    energies = np.cumsum(s * s)
    if energies[-1] == 0.0:
        return 0
    return int(np.argmax(energies >= fraction * energies[-1])) + 1


def _normalized(X, approx):
    return float(np.linalg.norm(X - approx) / np.linalg.norm(X))


def _column_projection_error(X, A):
    U, _, _, keep = _svd(A)
    U = U[:, :keep]
    return _normalized(X, U @ (U.T @ X))


def _nystrom_error(K, idx):
    A = K[:, idx]
    U, s, Vt, keep = _svd(K[np.ix_(idx, idx)])
    W_pinv = (Vt[:keep].T / s[:keep]) @ U[:, :keep].T
    W_pinv = (W_pinv + W_pinv.T) / 2.0
    return _normalized(K, A @ W_pinv @ A.T)


def expected_rows(cfg, X):
    """Every row the run should write, in output order, as field dicts."""
    r_eff = cfg["r"] if cfg["r_policy"] == "explicit" else None
    if cfg["r_policy"] == "energy":
        r_eff = _energy_rank(X, cfg["energy_fraction"])
    gamma_true, _ = _gamma(X, r_eff)
    excluded = set(cfg.get("exclude", ()))
    pool = [j for j in range(X.shape[1]) if j not in excluded]
    max_l = cfg["l_values"][-1]
    rows = []
    for trial in range(cfg["trials"]):
        seed = cfg["base_seed"] + trial
        perm = fisher_yates_prefix(pool, max_l, seed)
        for l in cfg["l_values"]:
            idx = perm[:l]
            A = X[:, idx]
            gamma_est, q = _gamma(A, r_eff)
            common = {
                "experiment_id": cfg["id"], "kind": cfg["kind"],
                "trial": str(trial), "seed": str(seed), "l": str(l),
                "r_used": str(q), "gamma_true": gamma_true,
                "gamma_est": gamma_est,
                "abs_error": abs(gamma_true - gamma_est),
                "method": "", "normalized_error": "",
                "rng_name": "splitmix64", "wall_time_ms": "",
            }
            rows.append(common)
            if cfg["kind"] == "kernel_suite":
                rows.append({**common, "method": "column_projection",
                             "normalized_error": _column_projection_error(X, A)})
                rows.append({**common, "method": "nystrom",
                             "normalized_error": _nystrom_error(X, idx)})
    return rows


def _field_ok(field, got, want):
    if field in _FLOAT_FIELDS and want != "":
        try:
            value = float(got)
        except ValueError:
            return False
        return math.isfinite(value) and abs(value - want) <= ATOL + RTOL * abs(want)
    return got == want


def check_csv(path, cfg, X):
    """(rows checked, rows failed, first mismatches) of one raw CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        got_rows = list(reader)
    want_rows = expected_rows(cfg, X)
    mismatches = []
    if header != RAW_HEADER:
        mismatches.append({"row": 0, "field": "header", "got": header})
    failed = 0
    for i in range(max(len(want_rows), len(got_rows))):
        got = got_rows[i] if i < len(got_rows) else None
        want = want_rows[i] if i < len(want_rows) else None
        bad = [] if got is not None and want is not None else ["row"]
        if not bad:
            if len(got) != len(RAW_HEADER):
                bad = ["width"]
            else:
                bad = [f for f, g in zip(RAW_HEADER, got)
                       if not _field_ok(f, g, want[f])]
        if bad:
            failed += 1
            if len(mismatches) < 5:
                mismatches.append({"row": i + 1, "fields": bad, "got": got,
                                   "want": want})
    checked = max(len(want_rows), len(got_rows))
    if header != RAW_HEADER:
        checked, failed = checked + 1, failed + 1
    return checked, failed, mismatches
