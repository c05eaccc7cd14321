"""Point-dataset ingestion and SPSD kernel matrix construction.

Datasets are plain CSV, one point per row; a first row with a token that
is not a number is a header. Matrices can also be read directly from
Matrix Market files. Kernels: linear (x . y), RBF (exp(-||x - y||^2 /
2w^2), w by default the median pairwise distance) and polynomial
((x . y + c)^d with c >= 0), all of which are symmetric positive
semidefinite by construction. One table, `_KERNEL_PARAMS`, lists each
kind with the `KernelSpec` parameters it reads; `KernelSpec` rejects any
other, and the experiment config's kernel keys and specs are read off
it.

A `PointDataset` holds its points as C-contiguous float64, so numpy
forms the Gram matrix P Pᵀ by a symmetric rank-k update and it is
exactly symmetric. Every later kernel step is elementwise or adds
‖x_i‖² + ‖x_j‖², whose bits do not depend on the order of the two
terms, so `build_kernel` returns an exactly symmetric K with no
symmetrization pass. The RBF's ‖x_i‖² are read off the Gram matrix's
own diagonal, so each point's squared distance from itself is exactly
0 and every RBF K has an exactly-1 diagonal, at any width.

An RBF spec with no `rbf_width` is at the default width, the median
pairwise distance (`default_rbf_width`), and `build_kernel` forms one
squared-distance matrix for it. Up to `_MEDIAN_MAX_POINTS` points the
width is read off K's own squared distances, which are then
exponentiated in place into K; beyond that the width's evenly spaced
subsample is read first, and only then are K's squared distances
formed. The median is taken by order statistics on the squared
distances, from one partition at the middle, and only the one or two
selected values are square-rooted. sqrt is monotone and correctly
rounded, so it commutes with order statistics, and the width has the
bits of `np.median` of the distances. Either way K has the bits of the
build at the explicit width `default_rbf_width(dataset)`.

Every kind is built through one flow, the Gram matrix and then the
kind's elementwise steps, under one float64 guard that turns an
overflow, a division by zero or an invalid value into ValueError
"<kind> kernel overflows float64 at ...", naming the stage that failed:
the points' largest entry for the steps read off the points alone (the
Gram matrix, the RBF's squared distances and median width), the kind's
parameters for the steps after them.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import _energy_rank, as_dense

__all__ = [
    "KERNEL_KINDS",
    "PointDataset",
    "KernelSpec",
    "load_csv",
    "save_csv",
    "load_matrix_market",
    "build_kernel",
    "standardize",
    "default_rbf_width",
    "spectrum_energy_rank",
]

# Each kernel kind and the `KernelSpec` parameters it reads, in one table.
_KERNEL_PARAMS = {"linear": (), "rbf": ("rbf_width",),
                  "polynomial": ("poly_degree", "poly_offset")}
KERNEL_KINDS = tuple(_KERNEL_PARAMS)

# `default_rbf_width` reads at most this many evenly spaced points.
_MEDIAN_MAX_POINTS = 1000
# Entries per temporary block of `_squared_distances` (0.5 MB of float64).
_BUILD_CHUNK = 1 << 16


@dataclass(frozen=True)
class PointDataset:
    """n points with d features each, one point per row.

    Stored as C-contiguous float64, read-only (see the module docstring):
    such an array is kept as the same object, any other is converted.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = self.points
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"need an n x d point array, got shape {pts.shape}")
        if np.iscomplexobj(pts):
            raise ValueError(f"dataset points must be real, got dtype {pts.dtype}")
        pts = np.ascontiguousarray(pts, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if not np.all(np.isfinite(pts)):
            raise ValueError("dataset contains non-finite values")
        pts.setflags(write=False)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice plus exactly the parameters that kind requires.

    A parameter that the kind's `_KERNEL_PARAMS` entry does not list is
    rejected as "<kind> kernel takes no <name>". An RBF kernel with no
    `rbf_width` is at the default width, the median pairwise distance
    (`default_rbf_width`).
    """

    kind: str
    rbf_width: float | None = None
    poly_degree: int | None = None
    poly_offset: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        for name in ("rbf_width", "poly_degree", "poly_offset"):
            value = getattr(self, name)
            if value is not None and name not in _KERNEL_PARAMS[self.kind]:
                raise ValueError(f"{self.kind} kernel takes no {name}")
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.rbf_width is not None and self.rbf_width <= 0:
            raise ValueError("rbf kernel needs a positive rbf_width")
        if self.kind == "polynomial":
            if self.poly_degree is None or self.poly_degree < 1:
                raise ValueError("polynomial kernel needs poly_degree >= 1")
            if self.poly_degree != int(self.poly_degree):
                raise ValueError("polynomial kernel needs a whole poly_degree, "
                                 f"got {self.poly_degree}")
            if self.poly_offset is None or self.poly_offset < 0:
                raise ValueError("polynomial kernel needs poly_offset >= 0")


def _parse_row(tokens, path, lineno):
    values = []
    for tok in tokens:
        try:
            v = float(tok)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number: {tok!r}") from None
        if not math.isfinite(v):
            raise ValueError(f"{path}:{lineno}: non-finite value: {tok!r}")
        values.append(v)
    return values


def load_csv(path) -> PointDataset:
    """Read a comma-separated point dataset, one point per row.

    The file is read as UTF-8, a leading byte-order mark dropped, and
    blank lines are skipped. A first row with a token that does not
    parse as a float is a header and is skipped. Malformed data rows,
    the first one included, raise ValueError with the line number. The
    dataset holds the points only; the file's name is not kept.
    """
    path = Path(path)
    rows = []
    first_row_seen = False
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, tokens in enumerate(csv.reader(fh), start=1):
            tokens = [t.strip() for t in tokens]
            if not tokens or tokens == [""]:
                continue
            if not first_row_seen:
                first_row_seen = True
                try:
                    list(map(float, tokens))
                except ValueError:
                    continue  # header row
            if rows and len(tokens) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(rows[0])} fields, got {len(tokens)}"
                )
            rows.append(_parse_row(tokens, path, lineno))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    points = np.array(rows, dtype=np.float64)
    return PointDataset(points=points)


def save_csv(dataset: PointDataset, path):
    """Write a dataset as plain CSV (no header); round-trips exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in dataset.points:
            writer.writerow([repr(float(v)) for v in row])


def load_matrix_market(path) -> np.ndarray:
    """Read a dense or coordinate real Matrix Market file as a matrix."""
    # Imported here: scipy.io is most of matcoh's import time, and only
    # this reader needs it.
    import scipy.io

    try:
        m = scipy.io.mmread(str(path))
    except Exception as exc:
        raise ValueError(f"{path}: cannot parse Matrix Market file: {exc}") from exc
    if hasattr(m, "toarray"):
        m = m.toarray()
    try:
        return as_dense(m)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def standardize(dataset: PointDataset) -> PointDataset:
    """Per-feature zero-mean unit-variance rescaling (constant features kept)."""
    pts = dataset.points
    mean = pts.mean(axis=0)
    std = pts.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return PointDataset(points=(pts - mean) / std)


def default_rbf_width(dataset: PointDataset) -> float:
    """Default RBF width: the median Euclidean pairwise distance.

    Beyond 1000 points it is the median over an evenly spaced
    subsample, which keeps the value reproducible without touching any
    random stream.
    """
    pts = dataset.points
    n = pts.shape[0]
    if n > _MEDIAN_MAX_POINTS:
        idx = np.unique(np.linspace(0, n - 1, _MEDIAN_MAX_POINTS).round().astype(int))
        pts = pts[idx]
    return _median_width(_squared_distances(pts @ pts.T))


def _median_width(d2: np.ndarray) -> float:
    """`np.median(np.sqrt(d2[np.triu_indices(n, k=1)]))`, bit for bit.

    `d2` is the n x n matrix of `_squared_distances`, left unchanged.
    Its strict upper triangle is gathered row slice by row slice and
    partitioned once, at the middle; for an even pair count the value
    below the middle is the largest of the lower part. sqrt is monotone
    and correctly rounded, so it commutes with order statistics, and
    only the one or two selected squares are square-rooted. The mean of
    two is formed as `np.mean` forms it, (a + b) / 2.
    """
    n = d2.shape[0]
    if n < 2:
        raise ValueError("need at least two points for a pairwise distance")
    upper = np.concatenate([d2[i, i + 1:] for i in range(n - 1)])
    mid = upper.size // 2
    upper.partition(mid)
    if upper.size % 2:
        med = float(np.sqrt(upper[mid]))
    else:
        med = float((np.sqrt(upper[:mid].max()) + np.sqrt(upper[mid])) / 2.0)
    if med <= 0.0:
        raise ValueError("median pairwise distance is zero (duplicate points)")
    return med


def _squared_distances(D: np.ndarray) -> np.ndarray:
    """max(‖x_i‖² + ‖x_j‖² − 2 x_i·x_j, 0) from the Gram matrix D = P Pᵀ.

    Formed in place in D, which is returned, with the bits of the
    whole-array formula; the row sums are formed one block of
    `_BUILD_CHUNK` entries at a time. ‖x_i‖² is read off D's own
    diagonal, so each point is exactly 0 from itself.
    """
    n = D.shape[0]
    sq = np.diagonal(D).copy()
    D *= 2.0
    step = max(1, _BUILD_CHUNK // n)
    for i in range(0, n, step):
        rows = D[i:i + step]
        np.subtract(sq[i:i + step, None] + sq, rows, out=rows)
    np.maximum(D, 0.0, out=D)
    return D


def build_kernel(dataset: PointDataset, spec: KernelSpec) -> np.ndarray:
    """SPSD kernel matrix K with K_ij = k(x_i, x_j), column-major.

    K is formed in place in the Gram matrix P Pᵀ (`_squared_distances`
    for RBF), with the bits of the whole-array formulas, so the build
    holds one n x n matrix. An RBF with no `rbf_width` reads the median
    pairwise distance off the same squared distances, or off its
    subsample's beyond `_MEDIAN_MAX_POINTS` points (see the module
    docstring). The points are C-contiguous, so K is exactly symmetric
    with no symmetrization pass and is returned as its transpose,
    column-major.

    Every kind is built under one float64 guard: an overflow, division
    by zero or invalid operation anywhere in the build, or an RBF width
    whose square overflows a Python float, raises ValueError
    "<kind> kernel overflows float64 at ...", naming the stage that
    failed. A failure in P Pᵀ, the RBF's squared distances or its median
    width names `point entries up to <max |P|>`; one after them names
    the kind's `_KERNEL_PARAMS` values (an unset `rbf_width` as the
    median width read). Only the RBF exponent's overflow is let
    through: exp maps its -inf to the exact 0, so a small enough width
    builds the identity.
    """
    P = dataset.points
    width = spec.rbf_width
    params = None  # the parameter values, once the points' steps are done
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if spec.kind == "rbf" and width is None and len(P) > _MEDIAN_MAX_POINTS:
                width = default_rbf_width(dataset)  # its distances freed before K's
            K = P @ P.T
            if spec.kind == "rbf":
                _squared_distances(K)
                if width is None:
                    width = _median_width(K)
            params = {**vars(spec), "rbf_width": width}
            if spec.kind == "polynomial":
                K += spec.poly_offset
                K **= spec.poly_degree
            elif spec.kind == "rbf":
                # d² / -(2w²) has the bits of (-d²) / (2w²), since rounding
                # is symmetric in sign; exp maps an exponent that overflows
                # to -inf to the exact 0.
                with np.errstate(over="ignore"):
                    K /= -(2.0 * width**2)
                np.exp(K, out=K)
    except (FloatingPointError, OverflowError):
        at = (" and ".join(f"{p} {params[p]}" for p in _KERNEL_PARAMS[spec.kind])
              if params else f"point entries up to {abs(P).max():g}")
        raise ValueError(f"{spec.kind} kernel overflows float64 at {at}") from None
    return K.T


def spectrum_energy_rank(singular_values, fraction: float) -> int:
    """Smallest r whose top-r singular values hold `fraction` of the energy.

    `singular_values` are a matrix's, sorted descending. Energy is the
    cumulative sum of squared singular values (Frobenius mass). A zero
    matrix has energy rank 0.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    return _energy_rank(np.asarray(singular_values, dtype=np.float64), fraction)
