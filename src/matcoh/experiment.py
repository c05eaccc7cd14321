"""Config-driven experiment runner with flat CSV output.

An experiment builds one matrix (synthetic, adversarial, kernel from a
point file, or a Matrix Market file), then for every trial draws a
nested column-sample family and records the coherence estimate at each
requested sample size; kernel experiments additionally record both
low-rank approximation errors. Trials use seed = base_seed + trial, and
per-trial estimates share one permutation so each trial's curve is
non-decreasing in the sample size. Each `_SOURCES` build returns one
finished `_Source`: `columns(indices)`, the sampler's column pool (built
once per run, before the truth) and the truth (`gamma_true` and the
rank), read off one left factor of the source; the factor is not held
through the trials. How each kind of source gets its truth is its
builder's: `_synthetic` reads it off the factor the source was built
from, and `_dense` factors X. A dense source (a kernel, `worst_case`, a
Matrix Market file) keeps X, checked (`as_dense`) once at its build, and
a trial's columns are X's. A synthetic source keeps only its two factors
(`synthetic.low_rank_factors`), so a run never forms or scans its n x m
X: each trial forms the n x L block it samples, left @ right[indices]ᵀ,
and checks that block once. Each trial extracts its largest sample once,
through the sampler's private draw, and factors every size from one QR
of it through the sweep's private core (`coherence._prefix_factors`,
which `nested_factors` wraps in its checks: the block comes from the
checked source and the config has checked `l_values`). The run hands
the core its rank r, so where r truncates, a size whose R block is
certified full rank with a resolved gap at r takes one `eigh` of the
block's Gram instead of its SVD (the `coherence` module docstring gives
the two bounds); an untruncated run takes the SVDs that
`nested_factors` takes. That size's factor gives the estimate (the
gamma of its left basis, which the sweep built orthonormal and which is
therefore not re-checked) and, in a kernel experiment, the column
projection's basis, so no sample is factored twice. Every kernel
source is one `build_kernel` of its `KernelSpec`, whose parameters are
the config keys of the same names that `kernels._KERNEL_PARAMS` lists
for its kind; an RBF source with no `rbf_width` is at the median
pairwise distance, which `build_kernel` reads off K's own squared
distances. `build_kernel` makes K exactly symmetric, so a kernel run
does not scan it for asymmetry, and its builder declares it SPSD to
`_dense`. A kernel run's ‖X‖_F², read once at the build, serves both
method errors, which call `lowrank`'s private readers, not the public
methods with their per-call checks. Each trial makes one Householder
pass over K with its QR's reflectors (4 n² p flops, p = min(n, L)) and
forms G = Qᵀ K Q's top p rows from it (4 n p² flops), and K is read
nowhere else in the trial but its sampled columns. Every size reads
both errors off them: column projection through its core basis, Nystrom
through one `eigh` of W, read off the sampled columns, per size. An
estimate row's `wall_time_ms` is that size's step, its SVD or `eigh`
included, with the trial's QR charged to the first size; a method row's
is that approximation alone, with the trial's pass charged to the first
size's column-projection row and G to the first size's Nystrom row.

Config files are flat `key = value` text. '#' starts a comment at the
start of a line or after whitespace, so a value such as the path
`runs/#3/points.csv` keeps its '#'. Each key is one `ExperimentConfig`
field, and one table (`_SOURCES`) lists the keys and the value check of
each source: a key that the run's source or r_policy would not read, or
a value its spec rejects, fails when the config is built. All rows go
to a single fixed-schema CSV so one summarizer serves every kind. Its
columns are `TrialResult`'s fields, in order: the header, the writer
and the reader all read them from the dataclass.
"""

import csv
import math
import os
import re
import secrets
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple, get_args

from .coherence import _gamma, _prefix_factors, basis_coherence
from .kernels import (
    _KERNEL_PARAMS,
    KernelSpec,
    build_kernel,
    load_csv,
    load_matrix_market,
    standardize,
)
from .linalg import _energy_rank, _spsd_top, _squares, as_dense, left_svd
from .lowrank import _normalized, _nystrom, _projection_squares, _reflected_rows
from .sampling import RNG_NAME, _allowed_pool, _draw_columns
from .synthetic import SynthSpec, adversarial_spsd, low_rank_factors

__all__ = [
    "RAW_HEADER",
    "SUMMARY_HEADER",
    "EXPERIMENT_KINDS",
    "OUTPUT_DIR_ENV",
    "ExperimentConfig",
    "TrialResult",
    "parse_config_text",
    "config_from_dict",
    "load_config",
    "run_experiment",
    "resolve_output_path",
    "write_raw_csv",
    "read_raw_csv",
    "summarize",
    "write_summary_csv",
]

EXPERIMENT_KINDS = (
    "worst_case",
    "synth_exact",
    "synth_noisy",
    "kernel_suite",
    "coherence_only",
)

OUTPUT_DIR_ENV = "MATCOH_OUTPUT_DIR"

SUMMARY_HEADER = [
    "experiment_id", "l", "method", "trials",
    "mean_abs_error", "std_abs_error",
    "mean_normalized_error", "std_normalized_error",
]

@dataclass(frozen=True)
class TrialResult:
    """One raw CSV row: a coherence estimate, optionally with a method error.

    The fields, in order, are the raw columns (`RAW_HEADER`).
    """

    experiment_id: str
    kind: str
    trial: int
    seed: int
    l: int
    r_used: int
    gamma_true: float
    gamma_est: float
    abs_error: float
    method: str | None = None
    normalized_error: float | None = None
    rng_name: str = RNG_NAME
    wall_time_ms: int | None = None

    def __post_init__(self):
        if self.rng_name != RNG_NAME:
            raise ValueError(f"rows drawn by rng {self.rng_name!r}, "
                             f"not {RNG_NAME!r}, cannot be pooled")
        for v in (self.gamma_true, self.gamma_est, self.abs_error):
            if not math.isfinite(v):
                raise ValueError("result values must be finite")
        if abs(self.abs_error - abs(self.gamma_true - self.gamma_est)) > 1e-15:
            raise ValueError("abs_error does not match |gamma_true - gamma_est|")
        if not 0.0 <= (self.normalized_error or 0.0) < math.inf:  # None passes
            raise ValueError("normalized_error must be finite and >= 0, "
                             f"got {self.normalized_error}")


RAW_HEADER = [f.name for f in fields(TrialResult)]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment run.

    Each field is one config key (`experiment_id` is the key `id`); its
    annotation picks the parser, and an unread key must keep its default.
    """

    kind: str
    experiment_id: str
    l_values: tuple
    trials: int = 1
    base_seed: int = 0
    output: str | None = None
    timing: bool = True
    r_policy: str = "none"          # none | explicit | energy
    r: int | None = None
    energy_fraction: float = 0.99
    exclude: tuple = ()
    matrix_seed: int | None = None
    n: int | None = None
    m: int | None = None
    rank: int | None = None
    decay: str = "medium"
    coherence: str = "low"
    noise: float | None = None
    inflation: float = 1e3
    inner_dim: int | None = None
    matrix: str | None = None
    data: str | None = None
    kernel: str | None = None
    rbf_width: float | None = None
    poly_degree: int = 2
    poly_offset: float = 1.0
    standardize: bool = False

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not self.l_values:
            raise ValueError("l_values must not be empty")
        if list(self.l_values) != sorted(set(self.l_values)):
            raise ValueError("l_values must be strictly ascending")
        if self.l_values[0] < 1:
            raise ValueError("l values must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # SplitMix64 seeds are 64-bit: a seed outside [0, 2**64) would
        # draw the rows of another seed under its own name.
        if not 0 <= self.base_seed <= 2**64 - self.trials:
            raise ValueError(f"base_seed must be in [0, 2**64 - trials] = "
                             f"[0, {2**64 - self.trials}], got {self.base_seed}")
        if self.matrix_seed is not None and not 0 <= self.matrix_seed < 2**64:
            raise ValueError(f"matrix_seed must be in [0, 2**64), "
                             f"got {self.matrix_seed}")
        if self.r_policy not in _POLICY_KEYS:
            raise ValueError(f"unknown r_policy {self.r_policy!r}")
        if self.r_policy == "explicit" and (self.r is None or self.r < 1):
            raise ValueError("explicit r_policy needs r >= 1")
        if self.r_policy == "energy" and not 0.0 < self.energy_fraction <= 1.0:
            raise ValueError("energy_fraction must be in (0, 1]")
        name = _source_name(self)
        source = _SOURCES.get(name)
        missing = [k for k in (source.requires if source else _KERNEL_REQUIRES)
                   if getattr(self, k) is None]
        if missing:
            raise ValueError(f"experiment kind {self.kind!r} needs config keys: "
                             f"{', '.join(missing)}")
        if source is None:
            raise ValueError(f"unknown kernel {name!r}")
        reads = _COMMON_KEYS + source.reads + _POLICY_KEYS[self.r_policy]
        unread = [f.name for f in fields(self)
                  if f.name not in reads and getattr(self, f.name) != f.default]
        if unread:
            raise ValueError(f"source {name!r} with r_policy {self.r_policy!r} "
                             f"does not read config keys: {', '.join(unread)}")
        if source.spec:
            source.spec(self)


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw: str) -> tuple:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _parse_finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


# Parser per field annotation; a field of any other type keeps the string.
_PARSERS = {int: int, int | None: int, float: _parse_finite_float,
            float | None: _parse_finite_float, bool: _parse_bool,
            tuple: _parse_int_list}
# Config key -> its ExperimentConfig field.
_FIELDS = {"id" if f.name == "experiment_id" else f.name: f
           for f in fields(ExperimentConfig)}


def _matrix_seed(config) -> int:
    return config.base_seed if config.matrix_seed is None else config.matrix_seed


def _synth_spec(config) -> SynthSpec:
    return SynthSpec(n=config.n, m=config.m, rank=config.rank,
                     decay=config.decay, coherence=config.coherence,
                     noise=config.noise, seed=_matrix_seed(config))


class _Source(NamedTuple):
    """A run's finished source, as the run reads it.

    `columns(indices)` is X[:, indices], finite and column-major;
    `allowed` is the sampler's pool (`_allowed_pool`), built before the
    truth; `rank` (None for an untruncated run) and `gamma_true` are the
    truth. A dense source keeps X in `matrix`, checked once at its build,
    and ‖X‖_F² in `total` where a kernel run's methods or an SPSD energy
    cut read it. A synthetic one keeps only its two factors
    (`low_rank_factors`) and has no `matrix`, so a run forms only the
    columns it samples, and checks each block as it forms it. No source
    holds the factor its truth was read off.
    """

    columns: Callable
    allowed: list
    rank: int | None
    gamma_true: float
    matrix: object = None  # X, an ndarray, or None
    total: float | None = None


def _truth(config, factor, r):
    """(r, gamma_true) of a source from its left `factor`, truncated at r.

    Under the energy policy an r not yet read (None) is read off the
    factor's own singular values, so a fraction of 1 is reached through
    rounding. An all-zero source has no energy rank and is rejected here,
    before any trial.
    """
    if r is None and config.r_policy == "energy":
        r = _energy_rank(factor.singular_values, config.energy_fraction)
        if r == 0:
            raise ValueError("r_policy energy needs a source with nonzero "
                             "energy, but the source matrix is all zero")
    return r, basis_coherence(factor.left_basis(r)).gamma


def _dense(config, X, spsd=False) -> _Source:
    """The finished source of a dense X: SPSD by construction if `spsd`
    (an exactly symmetric Gram matrix).

    X is checked (`as_dense`) once, here. ‖X‖_F² is read once
    (`_squares`), and only where it is used: by the Krylov energy cut of
    an SPSD source, which otherwise reads X only through products X·Q,
    and by both method errors of a kernel run. An SPSD source under an
    explicit or energy rank takes its top eigenpairs by block Krylov
    (`_spsd_top`), which also gives the energy rank against that total.
    Any other source, or one the Krylov route declines (a small certified
    gap at the cut, or a space that reaches its cap of columns first),
    takes one `left_svd`: `eigh` for an SPSD source, the QR of Xᵀ for a
    wide one, one thin SVD otherwise. The truth is truncated as
    `estimate_coherence(X, rank)` would be, up to rounding.
    """
    X = as_dense(X)  # the run's one scan of a dense source
    allowed = _allowed_pool(X.shape[1], config.exclude, config.l_values[-1])
    energy = config.r_policy == "energy"
    total = (_squares(X) if config.kind == "kernel_suite" or (spsd and energy)
             else None)
    top = None
    if spsd and config.r_policy != "none":
        top = _spsd_top(X, rank=config.r, total=total,
                        fraction=config.energy_fraction if energy else None)
    r, factor = top or (config.r, left_svd(X, spsd=spsd))
    return _Source(lambda indices: X[:, indices], allowed,
                   *_truth(config, factor, r), matrix=X, total=total)


def _synthetic(config) -> _Source:
    """The finished source of a synthetic config, held as its two factors.

    The truth is read off the `ThinSVD` X was built from, so X is never
    formed nor factored. Where the rank splits a tie in the spectrum (a
    noisy source's equal tail), the top subspace is not unique and that
    factor gives the generator's seeded basis.
    """
    left, right, factor = low_rank_factors(_synth_spec(config))
    allowed = _allowed_pool(len(right), config.exclude, config.l_values[-1])
    return _Source(lambda indices: as_dense(left @ right[indices].T), allowed,
                   *_truth(config, factor, config.r))


def _kernel_spec(config):
    return KernelSpec(kind=config.kernel, **{
        p: getattr(config, p) for p in _KERNEL_PARAMS[config.kernel]})


def _kernel(config):
    dataset = load_csv(config.data)
    if config.standardize:
        dataset = standardize(dataset)
    return _dense(config, build_kernel(dataset, _kernel_spec(config)), spsd=True)


class _SourceKind(NamedTuple):
    reads: tuple       # keys read beyond _COMMON_KEYS
    requires: tuple    # keys that must be set
    build: Callable    # config -> its finished `_Source`
    spec: Callable | None = None  # config -> its spec, which checks the values


_COMMON_KEYS = ("kind", "experiment_id", "l_values", "trials", "base_seed",
                "output", "timing", "r_policy", "exclude")
_SYNTH_KEYS = ("n", "m", "rank", "decay", "coherence", "matrix_seed")
_KERNEL_KEYS = ("data", "kernel", "standardize")
_KERNEL_REQUIRES = ("data", "kernel")

# Keys each source reads and requires, its builder and the spec that checks
# its values. A kernel source is named by the `kernel` key (`_source_name`)
# and reads the config keys named as its kind's `KernelSpec` parameters.
# worst_case has no spec: `adversarial_spsd` checks its values first.
_SOURCES = {
    "synth_exact": _SourceKind(_SYNTH_KEYS, ("n", "m", "rank"), _synthetic,
                               _synth_spec),
    "synth_noisy": _SourceKind(_SYNTH_KEYS + ("noise",), ("n", "m", "rank", "noise"),
                               _synthetic, _synth_spec),
    "worst_case": _SourceKind(
        ("n", "inflation", "inner_dim", "matrix_seed"), ("n",),
        lambda c: _dense(c, adversarial_spsd(c.n, seed=_matrix_seed(c),
                                             inflation=c.inflation,
                                             inner_dim=c.inner_dim),
                         spsd=True)),
    "matrix": _SourceKind(("matrix",), ("matrix",),
                          lambda c: _dense(c, load_matrix_market(c.matrix))),
} | {kind: _SourceKind(_KERNEL_KEYS + params, _KERNEL_REQUIRES, _kernel,
                       _kernel_spec)
     for kind, params in _KERNEL_PARAMS.items()}
# r is read only under the explicit policy, energy_fraction only under energy.
_POLICY_KEYS = {"none": (), "explicit": ("r",), "energy": ("energy_fraction",)}


def _source_name(config):
    """The config's `_SOURCES` entry; None for a kernel source with no kernel."""
    if config.kind != "coherence_only":
        return config.kernel if config.kind == "kernel_suite" else config.kind
    if config.data:
        return config.kernel
    return "matrix" if config.matrix else "synth_exact"


# A comment starts at a '#' that begins the line or follows whitespace.
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_text(text: str) -> dict:
    """Parse flat `key = value` lines, each key set once, into a raw dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"config line {lineno}: key {key!r} is set twice")
        raw[key] = value
    return raw


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from raw string values."""
    if "kind" not in raw:
        raise ValueError("config needs a 'kind' key")
    kwargs = {"experiment_id": raw["kind"]}
    for key, value in raw.items():
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        field = _FIELDS[key]
        try:
            kwargs[field.name] = _PARSERS.get(field.type, str)(value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def load_config(path, overrides=None) -> ExperimentConfig:
    """Read a UTF-8 config file (a leading byte-order mark dropped),
    applying `key=value` overrides on top."""
    raw = parse_config_text(Path(path).read_text(encoding="utf-8-sig"))
    for item in overrides or ():
        if "=" not in item:
            raise ValueError(f"override must be key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _FIELDS:
            raise ValueError(f"unknown override key {key!r}")
        raw[key] = value
    return config_from_dict(raw)


def run_experiment(config: ExperimentConfig):
    """Execute all trials and return the result rows in deterministic order.

    Rows are ordered by (trial, l, method). The source is built and
    checked once (a synthetic source's blocks as each trial forms them),
    and each trial's block is drawn and swept by the private cores
    (`sampling._draw_columns`, `coherence._prefix_factors`), which check
    nothing again. A kernel run's K, exactly symmetric as built, is not
    checked for symmetry. If
    `config.output` is set the raw CSV is written as well; a failed run
    leaves any earlier file at that path intact.
    """
    # The run's one build of its source: the checked source, the
    # sampler's pool (before the truth) and the truth. Every trial draws
    # from them.
    source = _SOURCES[_source_name(config)].build(config)
    with_methods = config.kind == "kernel_suite"

    results = []
    for trial in range(config.trials):
        seed = config.base_seed + trial
        indices, block = _draw_columns(source.columns, source.allowed,
                                       config.l_values[-1], seed)
        factors = _prefix_factors(block, config.l_values, source.rank)
        head = G = None
        for l in config.l_values:
            start = time.perf_counter()
            factor = next(factors)
            basis = factor.left_basis(source.rank)
            r_used, gamma_est = basis.shape[1], _gamma(basis)
            del basis  # not held through the next size's factor
            est_ms = round((time.perf_counter() - start) * 1000)
            common = dict(
                experiment_id=config.experiment_id, kind=config.kind,
                trial=trial, seed=seed, l=l, r_used=r_used,
                gamma_true=source.gamma_true, gamma_est=gamma_est,
                abs_error=abs(source.gamma_true - gamma_est),
            )
            results.append(TrialResult(
                **common, wall_time_ms=est_ms if config.timing else None))
            if not with_methods:
                continue
            start = time.perf_counter()
            if head is None:  # the trial's one pass over K
                tail, head = _reflected_rows(source.matrix, factor.V, factor.T)
            projection = _projection_squares(tail, head, factor.core.left_basis())
            projection_ms = round((time.perf_counter() - start) * 1000)
            start = time.perf_counter()
            if G is None:  # head Q, read by every size's Nystrom error
                G = head - ((head @ factor.V) @ factor.T) @ factor.V.T
            nystrom = _nystrom(tail, head, G, list(indices[:l]), block[:, :l])[2]
            nystrom_ms = round((time.perf_counter() - start) * 1000)
            for method, squares, method_ms in (
                    ("column_projection", projection, projection_ms),
                    ("nystrom", nystrom, nystrom_ms)):
                results.append(TrialResult(
                    **common, method=method,
                    normalized_error=_normalized(squares, math.sqrt(source.total))[1],
                    wall_time_ms=method_ms if config.timing else None))

    if config.output:
        write_raw_csv(resolve_output_path(config.output), results)
    return results


def resolve_output_path(path) -> Path:
    """Apply the output-directory environment override to a path."""
    path = Path(path)
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir:
        path = Path(out_dir) / path.name
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(target, header, rows):
    """Write a header and rows to an open text stream, or to a path.

    A path's rows go to a temporary file beside it that replaces it only
    once complete, so a failed write leaves an earlier file intact.
    """
    if hasattr(target, "write"):
        writer = csv.writer(target, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    path = Path(target)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "x", newline="", encoding="utf-8")
    try:
        with fh:
            _write_csv(fh, header, rows)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_raw_csv(path, results):
    """Write result rows under the fixed raw schema, atomically.

    A failed write leaves an earlier file at `path` intact.
    """
    _write_csv(path, RAW_HEADER,
               ([_fmt(getattr(r, name)) for name in RAW_HEADER] for r in results))


# (name, parser, optional) of each raw column; an empty optional cell is None.
_COLUMNS = [(f.name, (get_args(f.type) or (f.type,))[0], bool(get_args(f.type)))
            for f in fields(TrialResult)]


def read_raw_csv(path):
    """Read a raw CSV back into TrialResult rows; a bad row names `path:line`.

    The file is read as UTF-8, a leading byte-order mark dropped, and
    empty rows are skipped. A row drawn by another generator than
    `RNG_NAME` is a bad row.
    """
    results = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RAW_HEADER:
            raise ValueError(f"{path}: not a raw result file (bad header)")
        for row in filter(None, reader):
            where = f"{path}:{reader.line_num}"
            if len(row) != len(RAW_HEADER):
                raise ValueError(f"{where}: expected "
                                 f"{len(RAW_HEADER)} fields, got {len(row)}")
            try:
                results.append(TrialResult(**{
                    name: None if optional and not cell else parse(cell)
                    for (name, parse, optional), cell in zip(_COLUMNS, row)}))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
    return results


def _mean_std(values):
    if not values:
        return None, None
    if len(values) == 1:
        return values[0], 0.0
    return statistics.mean(values), statistics.stdev(values)


def summarize(results):
    """Aggregate rows into mean/std per (experiment, l, method).

    Returns a list of dicts matching SUMMARY_HEADER. The standard
    deviation is the sample one (ddof 1), defined as 0 for one trial.
    """
    if not results:
        raise ValueError("no results to summarize")
    groups = {}
    for r in results:
        groups.setdefault((r.experiment_id, r.l, r.method or ""), []).append(r)
    rows = []
    for key in sorted(groups):
        bucket = groups[key]
        mean_abs, std_abs = _mean_std([r.abs_error for r in bucket])
        norm_values = [r.normalized_error for r in bucket
                       if r.normalized_error is not None]
        mean_norm, std_norm = _mean_std(norm_values)
        rows.append(dict(zip(SUMMARY_HEADER, (
            *key, len(bucket), mean_abs, std_abs, mean_norm, std_norm))))
    return rows


def write_summary_csv(path_or_file, summary_rows):
    """Write summary rows to an open text stream, or atomically to a path."""
    _write_csv(path_or_file, SUMMARY_HEADER,
               ([_fmt(row[k]) for k in SUMMARY_HEADER] for row in summary_rows))
