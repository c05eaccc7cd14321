"""Point-dataset ingestion and SPSD kernel matrix construction.

Datasets are plain CSV, one point per row; a first row with a token that
is not a number is a header. Matrices can also be read directly from
Matrix Market files. Kernels: linear (x . y), RBF (exp(-||x - y||^2 /
2w^2), w by default the median pairwise distance) and polynomial
((x . y + c)^d with c >= 0), all of which are symmetric positive
semidefinite by construction.

A `PointDataset` holds its points C-contiguous, so numpy forms the Gram
matrix P Pᵀ by a symmetric rank-k update and it is exactly symmetric.
Every later kernel step is elementwise or adds ‖x_i‖² + ‖x_j‖², whose
bits do not depend on the order of the two terms, so `build_kernel`
returns an exactly symmetric K with no symmetrization pass.
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

KERNEL_KINDS = ("linear", "rbf", "polynomial")

# `default_rbf_width` reads at most this many evenly spaced points.
_MEDIAN_MAX_POINTS = 1000
# Entries per temporary block of `build_kernel` (0.5 MB of float64).
_BUILD_CHUNK = 1 << 16


@dataclass(frozen=True)
class PointDataset:
    """n points with d features each, one point per row.

    Stored C-contiguous and read-only (see the module docstring): a
    C-ordered array is kept as the same object, any other is copied.
    """

    points: np.ndarray
    name: str

    def __post_init__(self):
        pts = self.points
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"need an n x d point array, got shape {pts.shape}")
        pts = np.ascontiguousarray(pts)
        object.__setattr__(self, "points", pts)
        if not np.all(np.isfinite(pts)):
            raise ValueError("dataset contains non-finite values")
        pts.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice plus exactly the parameters that kind requires."""

    kind: str
    rbf_width: float | None = None
    poly_degree: int | None = None
    poly_offset: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        for name in ("rbf_width", "poly_degree", "poly_offset"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.kind == "rbf":
            if self.rbf_width is None or self.rbf_width <= 0:
                raise ValueError("rbf kernel needs a positive rbf_width")
            if self.poly_degree is not None or self.poly_offset is not None:
                raise ValueError("rbf kernel takes no polynomial parameters")
        elif self.kind == "polynomial":
            if self.poly_degree is None or self.poly_degree < 1:
                raise ValueError("polynomial kernel needs poly_degree >= 1")
            if self.poly_offset is None or self.poly_offset < 0:
                raise ValueError("polynomial kernel needs poly_offset >= 0")
            if self.rbf_width is not None:
                raise ValueError("polynomial kernel takes no rbf_width")
        else:
            if (self.rbf_width, self.poly_degree, self.poly_offset) != (None,) * 3:
                raise ValueError("linear kernel takes no parameters")


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


def load_csv(path, name=None) -> PointDataset:
    """Read a comma-separated point dataset, one point per row.

    A first row with a token that does not parse as a float is a header
    and is skipped. Malformed data rows, the first one included, raise
    ValueError with the line number.
    """
    path = Path(path)
    rows = []
    first_row_seen = False
    with open(path, newline="") as fh:
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
    return PointDataset(points=points, name=name or path.stem)


def save_csv(dataset: PointDataset, path):
    """Write a dataset as plain CSV (no header); round-trips exactly."""
    with open(path, "w", newline="") as fh:
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
    return PointDataset(points=(pts - mean) / std, name=dataset.name)


def default_rbf_width(dataset: PointDataset) -> float:
    """Default RBF width: the median Euclidean pairwise distance.

    Beyond 1000 points it is the median over an evenly spaced
    subsample, which keeps the value reproducible without touching any
    random stream.
    """
    pts = np.asarray(dataset.points, dtype=np.float64)
    n = pts.shape[0]
    if n > _MEDIAN_MAX_POINTS:
        idx = np.unique(np.linspace(0, n - 1, _MEDIAN_MAX_POINTS).round().astype(int))
        pts = pts[idx]
    sq = np.einsum("ij,ij->i", pts, pts)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    iu = np.triu_indices(pts.shape[0], k=1)
    if iu[0].size == 0:
        raise ValueError("need at least two points for a pairwise distance")
    med = _median(np.sqrt(np.maximum(d2[iu], 0.0)))
    if med <= 0.0:
        raise ValueError("median pairwise distance is zero (duplicate points)")
    return med


def _median(values: np.ndarray) -> float:
    """`np.median` of a finite 1-D array, bit for bit.

    The middle value, or the mean of the two middle values formed as
    `np.mean` forms it, (a + b) / 2. `np.median` would also run its NaN
    check, whose first use imports `numpy.ma`.
    """
    mid = values.size // 2
    if values.size % 2:
        return float(np.partition(values, mid)[mid])
    part = np.partition(values, (mid - 1, mid))
    return float((part[mid - 1] + part[mid]) / 2.0)


def build_kernel(dataset: PointDataset, spec: KernelSpec) -> np.ndarray:
    """SPSD kernel matrix K with K_ij = k(x_i, x_j), column-major.

    K is formed in place in the Gram matrix P Pᵀ, with the bits of the
    whole-array formulas. Only the RBF row sums ‖x_i‖² + ‖x_j‖² need a
    temporary, one block of about `_BUILD_CHUNK` entries at a time, so
    the build holds one n x n matrix. The points are C-contiguous, so K
    is exactly symmetric with no symmetrization pass (see the module
    docstring) and is returned as its transpose, column-major.
    """
    P = dataset.points
    K = P @ P.T
    if spec.kind == "rbf":
        n = K.shape[0]
        sq = np.einsum("ij,ij->i", P, P)
        K *= 2.0
        step = max(1, _BUILD_CHUNK // n)
        for i in range(0, n, step):
            rows = K[i:i + step]
            np.subtract(sq[i:i + step, None] + sq, rows, out=rows)
        np.maximum(K, 0.0, out=K)  # d2
        np.negative(K, out=K)
        K /= 2.0 * spec.rbf_width**2
        np.exp(K, out=K)
    elif spec.kind == "polynomial":
        K += spec.poly_offset
        K **= spec.poly_degree
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
