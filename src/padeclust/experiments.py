"""Named Monte Carlo protocols over the samplers, the approximant solver and
the clustering metrics.

Every protocol is one row of _TABLE: a stage function from a range of the
run's sample keys to a RecordBlock, and a summary of the whole block.  Key t
draws the stream (seed, t) and is trial t, except in
toeplitz-anticoncentration, whose key i*trials + t is trial t at the i-th n.
The config was checked when it was built, so run only runs, alike for every
row: _by_range splits the keys into one contiguous range per worker, and
_blocks samples each range in blocks of at most _BLOCK_ELEMS coefficients.
The stage function takes a block one stage at a time (one find_roots_batch
or log_abs_dets call per stage) and fills its RecordBlock in key order.  The
batched kernels give every root and determinant bitwise as the one-at-a-time
calls would, and the summaries use exact counts, medians of sorted values
and order-preserving maps, so neither the worker count, the block size nor
the batch composition reaches trials.csv or summary.json.

Probabilistic statements are checked as event shapes and monotone trends:
the theoretical constants behind them are far too large to verify directly
at desk scale, and summaries say so.  The deterministic clustering
inequalities, by contrast, must hold on every non-degenerate trial; a single
violation aborts the run.

Per-trial wall times are deliberately not written to trials.csv (they would
break byte-level reproducibility); the summary carries the aggregate.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .cluster import (
    DEFAULT_FAMILY,
    DEFAULT_GRID,
    DEFAULT_RHOS,
    EmpiricalMeasure,
    annulus_mass,
    clustering_report,
    radial_two_sided_check,
    radius_R_s,
    zero_counting_integral,
)
from .errors import (
    DegenerateInput,
    DegenerateSystem,
    EndCoefficientZero,
    InvariantViolation,
    NonConvergence,
)
from .pade import EtRatio, et_bound_chain, et_ratio, pade
from .poly import Polynomial, continue_extended, find_roots, find_roots_batch
from .sampler import (DISCRETE, GAUSSIAN, LOGCONCAVE, DistributionSpec, distribution, sample,
                      sample_block)
# sample, find_roots, build_triple, assoc_matrix, log_abs_det and
# radial_two_sided_check are not called here, but they stay module names:
# the benchmark tracer (perfbench/tracer.py) wraps them here by name.
from .toeplitz import WindowStack, assoc_matrix, build_triple, log_abs_det, log_abs_dets

SCHEMA_VERSION = 1

ET_CLUSTERING = "et-clustering"
DISCRETE_EXAMPLE = "discrete-example"
ANTICONCENTRATION = "toeplitz-anticoncentration"
DET_GROWTH = "det-growth"
ZERO_RADIUS = "zero-radius"
POLE_CLUSTERING = "pole-clustering"

PROTOCOLS = (ET_CLUSTERING, DISCRETE_EXAMPLE, ANTICONCENTRATION, DET_GROWTH, ZERO_RADIUS,
             POLE_CLUSTERING)

_METHOD_NOTE = (
    "probabilistic statements are checked as event shapes and monotone trends; "
    "the theoretical constants are too large to verify at desk scale"
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One protocol's config, checked in full when it is built; m, n and
    s_list are stored as int tuples, the other lists as float tuples.  A
    field the protocol does not read (see _READS) keeps its default, and
    to_dict echoes only the fields the protocol reads."""
    name: str
    spec: DistributionSpec
    trials: int = 100
    seed: int = 0
    m: Tuple[int, ...] = ()
    n: Tuple[int, ...] = ()
    N: Optional[int] = None
    delta: float = 0.5
    epsilon_grid: Tuple[float, ...] = (0.01, 0.05, 0.1)
    r_schedule: Tuple[float, ...] = (0.9, 0.95, 0.99, 0.995)
    s_list: Tuple[int, ...] = (4, 8, 16, 32, 64)
    rhos: Tuple[float, ...] = DEFAULT_RHOS
    grid_size: int = DEFAULT_GRID
    family_size: int = DEFAULT_FAMILY
    workers: int = 1
    precision: str = "double"

    def __post_init__(self) -> None:
        if self.name not in PROTOCOLS:
            raise ValueError(f"unknown experiment {self.name!r}; valid: {', '.join(PROTOCOLS)}")
        # types first, so a wrong JSON type is a ValueError naming its key
        # before any comparison or any sampling can trip over it
        if not isinstance(self.spec, DistributionSpec):
            raise ValueError(f"spec takes a distribution, got {self.spec!r}")
        for name in ("trials", "seed", "N", "grid_size", "family_size", "workers"):
            value = getattr(self, name)
            if not (value is None and name == "N") and (
                    isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} takes an integer, got {value!r}")
        _reals((self.delta,), "delta")
        # a fractional m, n or s_list entry would be truncated; a repeated
        # entry would repeat a trials.csv column or a summary key
        for name in ("m", "n", "s_list", "epsilon_grid", "r_schedule", "rhos"):
            values = (_as_tuple if name in ("m", "n", "s_list") else _reals)(
                getattr(self, name), name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} has duplicate entries: {list(values)}")
            object.__setattr__(self, name, values)
        for name, low in (("trials", 1), ("workers", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.precision not in ("double", "extended"):
            raise ValueError(f"precision must be 'double' or 'extended', got {self.precision!r}")
        _check_protocol(self)

    def to_dict(self) -> Dict:
        d: Dict = {"schema_version": SCHEMA_VERSION}
        for key in _READS[self.name]:
            val = getattr(self, key)
            d[key] = list(val) if isinstance(val, tuple) else val
        d["spec"] = self.spec.to_dict()
        return d

    @staticmethod
    def from_dict(d: Dict) -> "ExperimentConfig":
        """The config of a to_dict-shaped object; the protocol's defaults
        fill the keys it leaves out."""
        if d.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
        unknown = set(d) - {f.name for f in fields(ExperimentConfig)} - {"schema_version"}
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        rest = {k: v for k, v in d.items() if k not in ("schema_version", "name")}
        if "spec" in rest:
            spec = rest["spec"]
            if not isinstance(spec, dict):
                raise ValueError(f"spec takes an object with a kind and an M, got {spec!r}")
            try:
                rest["spec"] = DistributionSpec.from_dict(spec)
            except DegenerateInput as exc:
                raise ValueError(f"spec: {exc}") from exc
        return default_config(d.get("name"), **rest)


def _check_protocol(c: ExperimentConfig) -> None:
    """The checks of c's own protocol: each field it does not read (not in
    _READS) holds its default, its stage function gets the schedule shape it reads,
    and each field lies in the domain of the statement it enters (radii in
    (0, 1), eps > 0).  Every default lies in its domain, so each domain is
    checked alike for every protocol."""
    name, m, n, N, reads = c.name, c.m, c.n, c.N, _READS[c.name]
    for f in fields(c):
        if f.name not in reads and getattr(c, f.name) != f.default:
            raise ValueError(f"{name} does not read {f.name}; it must keep its default "
                             f"{f.default!r}, got {getattr(c, f.name)!r}")
    if name in (ET_CLUSTERING, DISCRETE_EXAMPLE, DET_GROWTH) and len(n) != 1:
        raise ValueError(f"{name} takes a single n, got {list(n)}")
    if name == POLE_CLUSTERING and len(m) != 1:
        raise ValueError(f"{name} takes a single m, got {list(m)}")
    # n >= 1 for discrete-example: the fit's abscissa is n*log(n*M)/m
    for key, values, low in (("m", m, int(name != POLE_CLUSTERING)),
                             ("n", n, int(name not in (ET_CLUSTERING, DET_GROWTH)))):
        if key in reads and (not values or min(values) < low):
            raise ValueError(f"{name} needs a schedule of {key} >= {low}, got {list(values)}")
    if name == DISCRETE_EXAMPLE and (c.spec.kind != DISCRETE or c.spec.M < 2):
        raise ValueError("discrete-example needs a discrete_pm_M distribution with M >= 2")
    # the et-style series runs to max(m) + n + 1 when N is not given
    if "N" in reads and (N is not None or name not in (ET_CLUSTERING, DISCRETE_EXAMPLE)):
        low = 8 if name == ZERO_RADIUS else max(m) + max(n) + 1
        if N is None or N < low:
            raise ValueError(f"N must be a series degree N >= {low} for {name}, got {N}")
    for key, ok, domain in (
            ("epsilon_grid", all(eps > 0.0 for eps in c.epsilon_grid), "each > 0"),
            ("r_schedule", all(0.0 < r < 1.0 for r in c.r_schedule), "each in (0, 1)"),
            # the normalization of R_s divides by log s
            ("s_list", c.s_list and min(c.s_list) >= 2, "entries, each >= 2"),
            ("rhos", c.rhos and all(0.0 < rho <= 1.0 for rho in c.rhos), "entries in (0, 1]"),
            ("grid_size", c.grid_size >= 4, ">= 4"), ("family_size", c.family_size >= 8, ">= 8")):
        if not ok:
            raise ValueError(f"{name} needs {key} {domain}, got {getattr(c, key)!r}")


# The fields each protocol reads.  Any other field must keep its default,
# so the config echo names only what shaped the run.
_RUN = ("name", "spec", "trials", "seed", "workers")
_ROOTS = ("rhos", "grid_size", "family_size", "precision")  # root finding, _check_clustering
_READS: Dict[str, Tuple[str, ...]] = {
    ET_CLUSTERING: (*_RUN, "m", "n", "N", "delta", *_ROOTS),
    DISCRETE_EXAMPLE: (*_RUN, "m", "n", "N", "delta", *_ROOTS),
    ANTICONCENTRATION: (*_RUN, "n", "epsilon_grid"),
    DET_GROWTH: (*_RUN, "m", "n"),
    ZERO_RADIUS: (*_RUN, "N", "r_schedule", "s_list", *_ROOTS),
    POLE_CLUSTERING: (*_RUN, "m", "n", "N", *_ROOTS),
}

_DEFAULTS: Dict[str, Dict] = {
    ET_CLUSTERING: dict(spec=distribution(GAUSSIAN), m=(50, 100, 200, 400), n=1, trials=200),
    DISCRETE_EXAMPLE: dict(spec=distribution(DISCRETE, M=100), m=(200, 400, 800), n=10, trials=100),
    ANTICONCENTRATION: dict(spec=distribution(GAUSSIAN), n=(2, 5, 10, 20), trials=10_000),
    DET_GROWTH: dict(spec=distribution(GAUSSIAN), n=2, m=(64, 128, 256, 512), trials=50),
    ZERO_RADIUS: dict(spec=distribution(GAUSSIAN), N=2048, trials=50),
    POLE_CLUSTERING: dict(spec=distribution(GAUSSIAN), m=1, n=(8, 16, 32), N=1024, trials=30),
}


def default_config(name: str, **overrides) -> ExperimentConfig:
    # spec=None lets an unknown (even unhashable) name fail in __post_init__
    defaults = _DEFAULTS[name] if name in PROTOCOLS else {}
    return ExperimentConfig(name=name, **{"spec": None, **defaults, **overrides})


class RecordBlock:
    """Trial units in columns, in trials.csv order: the base columns trial,
    degenerate, excluded and reason, and in values one list per protocol
    column.  None in a protocol column means "not computed" (an empty cell).

    Built empty, or from len(trial) clean units with the cells in values."""

    def __init__(self, columns: Sequence[str], trial: Sequence[int] = (),
                 values: Optional[Dict[str, List]] = None) -> None:
        k = len(trial)
        values = values or {}
        self.trial: List[int] = list(trial)
        self.degenerate: List[bool] = [False] * k
        self.excluded: List[bool] = [False] * k
        self.reason: List[str] = [""] * k
        self.values: Dict[str, List] = {c: list(values.get(c, [None] * k)) for c in columns}

    def __len__(self) -> int:
        return len(self.trial)

    def add(self, trial: int, values: Dict[str, object], degenerate: bool = False,
            excluded: bool = False, reason: str = "") -> int:
        """Append one unit with the cells in values (the other columns not
        computed); returns its slot."""
        self.trial.append(trial)
        self.degenerate.append(degenerate)
        self.excluded.append(excluded)
        self.reason.append(reason)
        for c, col in self.values.items():
            col.append(values.get(c))
        return len(self.trial) - 1

    def extend(self, other: "RecordBlock") -> None:
        self.trial += other.trial
        self.degenerate += other.degenerate
        self.excluded += other.excluded
        self.reason += other.reason
        for c, col in self.values.items():
            col += other.values[c]

    def flags(self) -> Tuple[np.ndarray, np.ndarray]:
        """The degenerate and excluded columns as boolean masks."""
        return np.array(self.degenerate, dtype=bool), np.array(self.excluded, dtype=bool)

    def floats(self, column: str) -> np.ndarray:
        """A protocol column as float64, NaN where not computed."""
        return np.array(self.values[column], dtype=float)


# ---------------------------------------------------------------------------
# shared plumbing


def _is_whole(x) -> bool:
    """Whether x is a whole real number (2 or 2.0), not a bool, a fraction,
    a string or None."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and (isinstance(x, numbers.Integral) or float(x).is_integer()))


def _as_tuple(v, key: str) -> Tuple[int, ...]:
    """The entries of an int field (one number, a list or None) as a tuple;
    ValueError naming the key for an entry that is not a whole number (a
    fraction, a string or None)."""
    values = () if v is None else tuple(v) if isinstance(v, (tuple, list)) else (v,)
    for x in values:
        if not _is_whole(x):
            raise ValueError(f"{key} takes whole numbers, got {x!r}")
    return tuple(int(x) for x in values)


def _reals(values, key: str) -> Tuple[float, ...]:
    """The entries of a float field (a list) as floats; ValueError naming the
    key for a non-list or an entry that is not a finite real number (a
    string, None, NaN or an int too large for a float)."""
    if not isinstance(values, (tuple, list)):
        raise ValueError(f"{key} takes a list, got {values!r}")
    for x in values:
        if (not isinstance(x, numbers.Real) or isinstance(x, bool)
                or not abs(x) <= sys.float_info.max):
            raise ValueError(f"{key} takes finite numbers, got {x!r}")
    return tuple(float(x) for x in values)


def _by_range(config: ExperimentConfig, keys: int, fn: Callable) -> RecordBlock:
    """fn (range -> RecordBlock) over the sample keys 0..keys-1 split into one contiguous range per
    worker, its record blocks concatenated in key order.  The worker count
    is capped at the key count and at os.cpu_count()."""
    parts = min(config.workers, keys, os.cpu_count() or 1)
    if parts == 1:
        return fn(range(keys))
    bounds = [keys * k // parts for k in range(parts + 1)]
    ranges = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    with ThreadPoolExecutor(max_workers=parts) as pool:
        first, *rest = pool.map(fn, ranges)
    for part in rest:
        first.extend(part)
    return first


# Coefficients per block: a block of a trial range holds at most
# _BLOCK_ELEMS // length trials of `length` coefficients (at least one).
_BLOCK_ELEMS = 1 << 15


def _blocks(config: ExperimentConfig, keys: range, length: int, k: int = 1):
    """The key range in blocks, each sampled into a WindowStack of k x k
    windows of rows of length coefficients: yields (block, stack); for k = 1,
    stack.coeffs is the plain (len(block), length) array."""
    step = max(1, _BLOCK_ELEMS // length)
    for lo in range(0, len(keys), step):
        block = keys[lo:lo + step]
        stack = WindowStack(len(block), length, k)
        sample_block(config.spec, length - 1, config.seed, np.asarray(block),
                     out=stack.coeffs)
        yield block, stack


def _roots_with_retry(polys: Sequence[Polynomial], precision: str) -> List:
    """find_roots_batch over polys; the rows that did not converge are solved
    again from rotated start points, and (for precision "extended") those
    still failing have their rotated-start iterates continued in extended
    precision.  A row that fails every tier stays a NonConvergence."""
    found = find_roots_batch(polys)
    failed = [i for i, r in enumerate(found) if isinstance(r, NonConvergence)]
    for i, roots in zip(failed, find_roots_batch([polys[i] for i in failed], start_offset=0.37)):
        found[i] = roots
    if precision == "extended":
        failed = [i for i in failed if isinstance(found[i], NonConvergence)]
        for i, roots in zip(failed, continue_extended([polys[i] for i in failed],
                                                      [found[i].partial for i in failed])):
            found[i] = roots
    return found


def _median(values: Sequence[float]) -> float:
    if len(values) == 0:
        return math.nan
    return float(np.median(np.sort(np.asarray(values, dtype=float))))


def _fraction(mask: np.ndarray) -> float:
    """The share of true entries, NaN for an empty mask."""
    return int(np.count_nonzero(mask)) / len(mask) if len(mask) else math.nan


def _check_clustering(et: EtRatio, mu: EmpiricalMeasure, config: ExperimentConfig,
                      context: str) -> Dict[str, float]:
    """Evaluate the deterministic clustering inequalities for the roots mu of
    a polynomial whose end-coefficient ratio is et; raise on breach, else
    return the report's trials.csv columns.

    Every flag of clustering_report is a theorem for every polynomial with
    nonzero end coefficients, so a single failure means a bug, not bad luck.
    """
    rep = clustering_report(mu, et, rhos=config.rhos, grid_size=config.grid_size,
                            family_size=config.family_size)
    failed = [k for k, ok in rep.inequality_flags.items() if not ok]
    if failed:
        raise InvariantViolation(
            f"deterministic clustering inequality broken ({', '.join(failed)}) in {context}"
        )
    return {"et_log": rep.et_log, "sector_discrepancy": rep.max_sector_discrepancy,
            "bl_upper": rep.bl_upper, "bl_lower": rep.bl_lower_estimate,
            "max_radial_defect": max(rep.radial_defect.values())}


def _check_mass_inequality(pair, context: str) -> None:
    """||p||_1 <= ||q||_1 sum_{j<=m} |a_j|, with the right side's sums from pade."""
    lhs = float(np.sum(np.abs(pair.p.coeffs)))
    rhs = pair.q_l1 * pair.a_l1
    if lhs > rhs * (1.0 + 1e-12):
        raise InvariantViolation(
            f"coefficient-mass inequality broken in {context}: {lhs:.6e} > {rhs:.6e}"
        )


# The cell text of each type a column may hold.  Columns hold Python
# scalars: under numpy 2 the repr of a numpy float is not its digits alone.
_CELL_FORMAT: Dict[type, Callable] = {
    float: repr, int: str, str: str, type(None): lambda v: "",
    bool: {True: "true", False: "false"}.__getitem__,
}

BASE_COLUMNS = ("trial", "degenerate", "excluded", "reason")

# Rows formatted at a time: the cell strings of one slice are freed before
# the next is formatted, so the writer's peak memory does not grow with the
# block.
_WRITE_ROWS = 4096


def _cells(column: List) -> List[str]:
    kinds = set(map(type, column))
    if len(kinds) == 1:
        return list(map(_CELL_FORMAT[kinds.pop()], column))
    return [_CELL_FORMAT[type(v)](v) for v in column]


def write_trials_csv(path: Path, block: RecordBlock) -> None:
    """Write the block's columns as comma-separated rows with a header, one
    column of a slice of rows at a time.  No cell is quoted: a header, reason
    or value that would need quoting (a comma, a double quote or a line
    break) raises ValueError before anything is written."""
    header = list(BASE_COLUMNS) + list(block.values)
    texts = [",".join(header) + "\n"]
    for lo in range(0, len(block), _WRITE_ROWS):
        rows = slice(lo, lo + _WRITE_ROWS)
        cells = [_cells(block.trial[rows]), _cells(block.degenerate[rows]),
                 _cells(block.excluded[rows]), block.reason[rows]]
        cells += [_cells(column[rows]) for column in block.values.values()]
        texts.append("\n".join(map(",".join, zip(*cells))) + "\n")
    if (sum(t.count(",") for t in texts) != (len(header) - 1) * (len(block) + 1)
            or sum(t.count("\n") for t in texts) != len(block) + 1
            or any('"' in t or "\r" in t for t in texts)):
        raise ValueError("a trials.csv header or cell contains a comma, a double quote "
                         "or a line break")
    with open(path, "w", newline="") as fh:
        fh.writelines(texts)


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# protocol: decay of the end-coefficient ratio (continuous coefficients)


ET_COLUMNS = ("m", "n", "et_log", "et_log_over_m", "log_l1_bound", "log_cauchy_binet_bound",
              "log_amgm_bound", "order_residual", "condition", "sector_discrepancy",
              "bl_upper", "bl_lower", "max_radial_defect")


def _et_style_records(config: ExperimentConfig, trials: range) -> RecordBlock:
    """Trial units (trial, m) for a contiguous trial range, one block and one
    stage at a time: pade, mass check and end-coefficient bounds for every
    unit, then one _roots_with_retry over the surviving numerators, then the
    clustering checks.  Units come in (trial, m) order.  The series runs to
    degree N, or to max(m) + n + 1 when N is not given."""
    m_values, n = config.m, config.n[0]
    N = max(m_values) + n + 1 if config.N is None else config.N
    out = RecordBlock(ET_COLUMNS)
    for batch, stack in _blocks(config, trials, N + 1):
        pending: List[Tuple[int, Polynomial, EtRatio]] = []  # (slot, numerator, ratio)
        for trial, coeffs in zip(batch, stack.coeffs):
            for m in m_values:
                values: Dict[str, object] = {"m": m, "n": n}
                try:
                    pair = pade(coeffs[: m + n + 2], m, n, precision=config.precision)
                except DegenerateSystem:
                    out.add(trial, values, degenerate=True, reason="degenerate_system")
                    continue
                _check_mass_inequality(pair, f"trial {trial}, m={m}, n={n}")
                values["order_residual"] = pair.diagnostics["order_residual"]
                values["condition"] = pair.diagnostics["condition"]
                try:
                    ratio = et_ratio(pair.p)
                    chain = et_bound_chain(pair)
                except EndCoefficientZero:
                    out.add(trial, values, excluded=True, reason="end_coefficient_zero")
                    continue
                except DegenerateSystem:
                    out.add(trial, values, excluded=True, reason="singular_window")
                    continue
                values.update(et_log=ratio.log_value, et_log_over_m=ratio.log_value / m,
                              log_l1_bound=chain.log_l1, log_amgm_bound=chain.log_amgm,
                              log_cauchy_binet_bound=chain.log_cauchy_binet)
                pending.append((out.add(trial, values), pair.p, ratio))
        found = _roots_with_retry([p for _, p, _ in pending], config.precision)
        for (slot, _, ratio), roots in zip(pending, found):
            if isinstance(roots, NonConvergence):
                out.excluded[slot], out.reason[slot] = True, "nonconvergence"
                continue
            context = f"trial {out.trial[slot]}, m={out.values['m'][slot]}, n={n}"
            for c, v in _check_clustering(ratio, EmpiricalMeasure(roots), config, context).items():
                out.values[c][slot] = v
    return out


def _summarize_et(config: ExperimentConfig, block: RecordBlock) -> Dict:
    per_m: Dict[str, Dict] = {}
    threshold = config.delta ** 4
    degenerate, excluded = block.flags()
    good = ~(degenerate | excluded)
    m_column = np.array(block.values["m"])
    ratios_all, amgm = block.floats("et_log_over_m"), block.floats("log_amgm_bound")
    for m in config.m:
        sub = m_column == m
        ratios = ratios_all[sub & good]
        per_m[str(m)] = {
            "trials": int(np.count_nonzero(sub)),
            "degenerate": int(np.count_nonzero(sub & degenerate)),
            "excluded": int(np.count_nonzero(sub & excluded)),
            "median_et_log_over_m": _median(ratios),
            "fraction_exceeding_delta4": _fraction(ratios > threshold),
            "median_log_amgm_bound": _median(amgm[sub & good]),
        }
    medians = [per_m[str(m)]["median_et_log_over_m"] for m in config.m]
    return {
        "per_m": per_m,
        "delta": config.delta,
        "medians_strictly_decreasing": bool(all(a > b for a, b in zip(medians[:-1], medians[1:]))),
    }


# ---------------------------------------------------------------------------
# protocol: discrete coefficients (atoms can make the window singular)


def _summarize_discrete(config: ExperimentConfig, block: RecordBlock) -> Dict:
    summary = _summarize_et(config, block)
    n, M = config.n[0], config.spec.M
    xs, ys = [], []
    for m in config.m:
        med = summary["per_m"][str(m)]["median_et_log_over_m"]
        if math.isfinite(med):
            xs.append(n * math.log(n * M) / m)
            ys.append(med)
    if len(xs) >= 2:
        slope, intercept = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
        summary["affine_model"] = {"x": "n*log(n*M)/m", "intercept": float(intercept),
                                   "slope": float(slope)}
    summary["degenerate_fraction"] = sum(block.degenerate) / len(block) if len(block) else math.nan
    return summary


# ---------------------------------------------------------------------------
# protocol: small-determinant probability of the square coefficient window


ANTICONC_COLUMNS = ("n", "det_abs_root", "singular")


def _anticonc_records(config: ExperimentConfig, keys: range) -> RecordBlock:
    """The n x n windows a_{n-1+i-j} of a range of sample keys, key
    i*trials + t being trial t at the i-th n: one stacked factorization per
    block of each n the range overlaps.  Units come in (n, trial) order."""
    trial, ns, roots, singular = [], [], [], []
    for i, n in enumerate(config.n):
        lo = i * config.trials
        part = range(max(keys.start, lo), min(keys.stop, lo + config.trials))
        for _, stack in _blocks(config, part, 2 * n - 1, n):
            log_abs, singular_b = (x.tolist() for x in log_abs_dets(stack.windows(n - 1)))
            roots += [0.0 if s else math.exp(v / n) for v, s in zip(log_abs, singular_b)]
            singular += singular_b
        trial += range(part.start - lo, part.stop - lo)
        ns += [n] * len(part)
    return RecordBlock(ANTICONC_COLUMNS, trial,
                       {"n": ns, "det_abs_root": roots, "singular": singular})


def _summarize_anticonc(config: ExperimentConfig, block: RecordBlock) -> Dict:
    """Per n, the cdf of |det|^(1/n) read from the n-th slice of the block."""
    per_n: Dict[str, Dict] = {}
    for i, n in enumerate(config.n):
        roots_ = np.sort(block.values["det_abs_root"][i * config.trials:(i + 1) * config.trials])
        cdf, bound, within = {}, {}, {}
        for eps in config.epsilon_grid:
            p_hat = float(np.searchsorted(roots_, eps, side="left")) / config.trials
            cdf[repr(eps)] = p_hat
            if math.isfinite(config.spec.levy_bound_K):
                cap = n * config.spec.levy_bound_K * eps
                se = math.sqrt(max(p_hat * (1 - p_hat), 1.0 / config.trials) / config.trials)
                bound[repr(eps)] = cap
                within[repr(eps)] = bool(p_hat <= cap + 3 * se)
        per_n[str(n)] = {"cdf": cdf, "bound_nK_eps": bound, "within_3se": within}
    summary: Dict = {"per_n": per_n}
    if config.spec.kind == LOGCONCAVE and len(config.n) >= 2:
        xs, ys = [], []
        for n in config.n:
            for eps in config.epsilon_grid:
                p_hat = per_n[str(n)]["cdf"][repr(eps)]
                if p_hat > 0:
                    xs.append(math.log(n))
                    ys.append(math.log(p_hat) - math.log(eps))
        if len(xs) >= 2:
            c, logC = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
            summary["fitted_power_law"] = {"form": "P(|det A|^(1/n) < eps) ~ C * n^c * eps",
                                           "C": float(math.exp(logC)), "c": float(c)}
    return summary


# ---------------------------------------------------------------------------
# protocol: growth of |det A_m^(n)|^(1/m) toward 1


DET_GROWTH_COLUMNS = ("m", "n", "log_abs_det", "growth", "deviation", "singular")


def _det_growth_records(config: ExperimentConfig, trials: range) -> RecordBlock:
    """The n x n windows a_{m+i-j} (a_l = 0 for l < 0) of a trial range for
    every m, one stacked factorization per (block, m); units in (trial, m)
    order."""
    m_values, n = config.m, config.n[0]
    out = RecordBlock(DET_GROWTH_COLUMNS)
    for batch, stack in _blocks(config, trials, max(m_values) + n, n):
        dets = [tuple(x.tolist() for x in log_abs_dets(stack.windows(m))) for m in m_values]
        for row, trial in enumerate(batch):
            for m, (log_abs, singular) in zip(m_values, dets):
                values: Dict[str, object] = {"m": m, "n": n, "singular": singular[row]}
                if singular[row]:
                    out.add(trial, values, degenerate=True, reason="singular_window")
                    continue
                growth = math.exp(log_abs[row] / m)
                values.update(log_abs_det=log_abs[row], growth=growth,
                              deviation=abs(growth - 1.0))
                out.add(trial, values)
    return out


def _summarize_det_growth(config: ExperimentConfig, block: RecordBlock) -> Dict:
    degenerate, _ = block.flags()
    m_column, deviation = np.array(block.values["m"]), block.floats("deviation")
    devs = {m: deviation[(m_column == m) & ~degenerate] for m in config.m}
    per_m = {str(m): {"median_deviation": _median(devs[m]), "count": len(devs[m])}
             for m in config.m}
    medians = [per_m[str(m)]["median_deviation"] for m in config.m]
    largest = devs[max(config.m)]
    return {
        "per_m": per_m,
        "medians_decreasing": bool(all(a > b for a, b in zip(medians[:-1], medians[1:]))),
        "max_deviation_at_largest_m": float(largest.max()) if len(largest) else math.nan,
    }


# ---------------------------------------------------------------------------
# protocol: zeros of the truncated random series near the unit circle


def _log_variance_profile(r: float, N: int) -> float:
    # log of sum_{k=0..N} r^(2k)
    return math.log1p(-r ** (2 * N + 2)) - math.log1p(-r * r)


def _zero_radius_records(config: ExperimentConfig, trials: range) -> RecordBlock:
    """One unit per trial of a contiguous range, one block at a time: the
    roots of every series of the block by one _roots_with_retry, then the
    checks and columns in trial order."""
    radii = [repr(r) for r in config.r_schedule]
    out = RecordBlock((
        "n_roots", "roots_in_unit_disc", "min_modulus", "et_log", "sector_discrepancy",
        "bl_upper", "bl_lower", "max_radial_defect", *(f"ratio_r{r}" for r in radii),
        *(f"profile_dev_r{r}" for r in radii), *(f"rs_norm_s{s}" for s in config.s_list)))
    for batch, stack in _blocks(config, trials, config.N + 1):
        polys = [Polynomial(c) for c in stack.coeffs]
        for trial, poly, roots in zip(batch, polys, _roots_with_retry(polys, config.precision)):
            values: Dict[str, object] = {}
            if isinstance(roots, NonConvergence):
                out.add(trial, values, excluded=True, reason="nonconvergence")
                continue
            moduli = roots.moduli
            values["n_roots"] = len(roots)
            values["roots_in_unit_disc"] = int(np.sum(moduli < 1.0))
            values["min_modulus"] = float(moduli[0])
            try:
                values.update(_check_clustering(et_ratio(poly), EmpiricalMeasure(roots), config,
                                                f"trial {trial}"))
            except EndCoefficientZero:
                out.add(trial, values, excluded=True, reason="end_coefficient_zero")
                continue
            for r in config.r_schedule:
                zci = zero_counting_integral(roots, r)
                values[f"ratio_r{r!r}"] = zci / (-math.log1p(-r * r))
                values[f"profile_dev_r{r!r}"] = (
                    zci - 0.5 * _log_variance_profile(r, config.N))
            for s in config.s_list:
                if s < len(roots):
                    r_s = radius_R_s(roots, s)
                    values[f"rs_norm_s{s}"] = (1.0 - r_s) * s / math.log(s)
            out.add(trial, values)
    return out


def _summarize_zero_radius(config: ExperimentConfig, block: RecordBlock) -> Dict:
    good = ~block.flags()[1]
    per_r: Dict[str, Dict] = {}
    for r in config.r_schedule:
        key = repr(r)
        ratios = block.floats(f"ratio_r{key}")[good]
        per_r[key] = {
            "median_ratio": _median(ratios),
            "fraction_in_bracket": _fraction((0.35 <= ratios) & (ratios <= 0.65)),
            "median_profile_dev": _median(block.floats(f"profile_dev_r{key}")[good]),
        }
    per_s: Dict[str, Dict] = {}
    for s in config.s_list:
        vals = block.floats(f"rs_norm_s{s}")[good]
        vals = vals[~np.isnan(vals)]  # R_s is computed only for s below the root count
        per_s[str(s)] = {"median_norm": _median(vals),
                         "fraction_in_window": _fraction((0.05 <= vals) & (vals <= 20.0))}
    frac_root_in_disc = _fraction(block.floats("roots_in_unit_disc")[good] >= 1)
    return {
        "per_r": per_r,
        "per_s": per_s,
        "ratio_bracket": [0.35, 0.65],
        "rs_window": [0.05, 20.0],
        "fraction_seeds_with_root_in_disc": frac_root_in_disc,
    }


# ---------------------------------------------------------------------------
# protocol: denominator zeros accumulating on the circle through the
# (m+1)-th smallest zero of the series


POLE_COLUMNS = ("n", "R_m", "annulus_mass", "median_abs_dev", "q_et_log")


def _pole_records(config: ExperimentConfig, trials: range) -> RecordBlock:
    """Units (trial, n) for a contiguous trial range, one block at a time:
    the series roots by one _roots_with_retry, the series check and R_m,
    pade for every unit, then one _roots_with_retry over all the block's
    denominators and their checks.  Units come in (trial, n) order."""
    n_values, m = config.n, config.m[0]
    out = RecordBlock(POLE_COLUMNS)
    rho = config.rhos[-1]
    for batch, stack in _blocks(config, trials, config.N + 1):
        polys = [Polynomial(c) for c in stack.coeffs]
        pending: List[Tuple[int, Polynomial, float]] = []  # (slot, denominator, R_m)
        for trial, poly, roots_f in zip(batch, polys, _roots_with_retry(polys, config.precision)):
            if isinstance(roots_f, NonConvergence):
                for n in n_values:
                    out.add(trial, {"n": n}, excluded=True, reason="nonconvergence")
                continue
            try:
                _check_clustering(et_ratio(poly), EmpiricalMeasure(roots_f), config,
                                  f"trial {trial} (series)")
            except EndCoefficientZero:
                for n in n_values:
                    out.add(trial, {"n": n}, excluded=True, reason="end_coefficient_zero")
                continue
            r_m = radius_R_s(roots_f, m)
            for n in n_values:
                values: Dict[str, object] = {"n": n, "R_m": r_m}
                try:
                    pair = pade(poly.coeffs[: m + n + 2], m, n, precision=config.precision)
                except DegenerateSystem:
                    out.add(trial, values, degenerate=True, reason="degenerate_system")
                    continue
                pending.append((out.add(trial, values), pair.q, r_m))
        denominators = _roots_with_retry([q for _, q, _ in pending], config.precision)
        for (slot, q, r_m), q_roots in zip(pending, denominators):
            if isinstance(q_roots, NonConvergence):
                out.excluded[slot], out.reason[slot] = True, "nonconvergence"
                continue
            mu_q = EmpiricalMeasure(q_roots)
            out.values["annulus_mass"][slot] = annulus_mass(mu_q, r_m, rho)
            out.values["median_abs_dev"][slot] = _median(np.abs(q_roots.moduli - r_m))
            try:
                q_et = et_ratio(q)
                _check_clustering(q_et, mu_q, config, f"trial {out.trial[slot]}, "
                                  f"n={out.values['n'][slot]} (denominator)")
                out.values["q_et_log"][slot] = q_et.log_value
            except EndCoefficientZero:
                pass
    return out


def _summarize_pole(config: ExperimentConfig, block: RecordBlock) -> Dict:
    n_values, m = config.n, config.m[0]
    degenerate, excluded = block.flags()
    good = ~(degenerate | excluded)
    n_column = np.array(block.values["n"])
    abs_dev, mass = block.floats("median_abs_dev"), block.floats("annulus_mass")
    per_n: Dict[str, Dict] = {}
    for n in n_values:
        sub = n_column == n
        per_n[str(n)] = {
            "median_abs_dev": _median(abs_dev[sub & good]),
            "median_annulus_mass": _median(mass[sub & good]),
            "cells": int(np.count_nonzero(sub & good)),
            "degenerate_cells": int(np.count_nonzero(sub & degenerate)),
        }
    summary: Dict = {"per_n": per_n, "m": m}
    if m >= 1:
        meds = [per_n[str(n)]["median_abs_dev"] for n in n_values]
        summary["deviation_medians_non_increasing"] = bool(
            all(a >= b - 1e-12 for a, b in zip(meds[:-1], meds[1:])))
    else:
        summary["control_arm"] = "m=0: zeros reported without clustering verdict"
    return summary


# ---------------------------------------------------------------------------
# dispatch and persistence


# Each protocol's stage function, over a range of sample keys, and summary.
_TABLE: Dict[str, Tuple[Callable, Callable]] = {
    ET_CLUSTERING: (_et_style_records, _summarize_et),
    DISCRETE_EXAMPLE: (_et_style_records, _summarize_discrete),
    ANTICONCENTRATION: (_anticonc_records, _summarize_anticonc),
    DET_GROWTH: (_det_growth_records, _summarize_det_growth),
    ZERO_RADIUS: (_zero_radius_records, _summarize_zero_radius),
    POLE_CLUSTERING: (_pole_records, _summarize_pole),
}


def run(config: ExperimentConfig) -> Tuple[RecordBlock, Dict]:
    """One protocol run: its stage function over the run's sample keys, then
    its summary with the entries every protocol shares."""
    records, summarize = _TABLE[config.name]
    keys = config.trials * (len(config.n) if config.name == ANTICONCENTRATION else 1)
    block = _by_range(config, keys, functools.partial(records, config))
    summary = summarize(config, block)
    summary.update(degenerate=sum(block.degenerate), excluded=sum(block.excluded),
                   note=_METHOD_NOTE)
    return block, summary


def execute(config: ExperimentConfig, out_dir: Optional[Union[str, Path]] = None) -> Dict:
    """Run one protocol; optionally persist trials.csv, summary.json and
    manifest.json under out_dir.  Returns the summary dict."""
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    block, summary = run(config)
    wall = time.perf_counter() - t0
    summary.update(protocol=config.name, trials=config.trials, records=len(block),
                   wall_time_s=round(wall, 3), workers=config.workers, seed=config.seed)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "trials.csv"
        write_trials_csv(csv_path, block)
        summary_path = out / "summary.json"
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "config": config.to_dict(),
            "version": __version__,
            "seed": config.seed,
            "started": started,
            "ended": datetime.now(timezone.utc).isoformat(),
            "digests": {"trials.csv": _sha256(csv_path), "summary.json": _sha256(summary_path)},
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return summary
