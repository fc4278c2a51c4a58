"""Named Monte Carlo protocols over the samplers, the approximant solver and
the clustering metrics.

Each protocol maps a batch of keyed trials (pure functions of
(seed, trial_index)) to a record block and a summary dict.  Aggregation uses
exact counts, medians of sorted values and order-preserving maps, so results
are bit-identical for any worker count.  Probabilistic statements are checked
as event shapes and monotone trends: the theoretical constants behind them
are far too large to verify directly at desk scale, and summaries say so.
The deterministic clustering inequalities, by contrast, must hold on every
non-degenerate trial; a single violation aborts the run.

Every protocol has one runner shape: its run_* function validates the
config, _by_range splits the trials into one contiguous range per worker,
and _blocks samples each range in blocks of at most _BLOCK_ELEMS
coefficients, one sample_block call per block.  The protocol's stage
function takes a whole block one stage at a time (one find_roots_batch or
log_abs_dets call per stage) and fills the columns of one RecordBlock in
trial order; _by_range concatenates the record blocks of the ranges.  The
batched kernels give every polynomial's roots and every window's
determinant bitwise as the one-at-a-time calls would, so neither the range
split, the block size nor the batch composition reaches trials.csv.  The
summaries read masked columns of the record block, and write_trials_csv
formats each column once.

Per-trial wall times are deliberately not written to trials.csv (they would
break byte-level reproducibility); the summary carries the aggregate.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
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

IntOrList = Union[int, Sequence[int]]


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    spec: DistributionSpec
    trials: int = 100
    seed: int = 0
    m: Optional[IntOrList] = None
    n: Optional[IntOrList] = None
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
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.precision not in ("double", "extended"):
            raise ValueError(f"precision must be 'double' or 'extended', got {self.precision!r}")
        # s_list entries name trials.csv columns and index sorted moduli
        object.__setattr__(self, "s_list", _as_tuple(self.s_list, "s_list"))
        # a fractional m or n entry would be truncated; a repeated schedule
        # entry would repeat a trials.csv column or a summary key
        for name in ("m", "n", "r_schedule", "s_list", "epsilon_grid", "rhos"):
            values = getattr(self, name)
            if name in ("m", "n"):
                _as_tuple(values, name)
            if isinstance(values, (tuple, list)) and len(set(values)) != len(values):
                raise ValueError(f"{name} has duplicate entries: {list(values)}")

    def to_dict(self) -> Dict:
        d: Dict = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):
            val = getattr(self, f.name)
            if f.name == "spec":
                val = val.to_dict()
            if val is not None:
                d[f.name] = list(val) if isinstance(val, (tuple, list)) else val
        return d

    @staticmethod
    def from_dict(d: Dict) -> "ExperimentConfig":
        if d.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
        name = d.get("name")
        if name not in PROTOCOLS:
            raise ValueError(f"unknown experiment {name!r}; valid: {', '.join(PROTOCOLS)}")
        kwargs: Dict = {key: d[key] for key in ("trials", "seed", "N", "delta", "grid_size",
                                                "family_size", "workers", "precision") if key in d}
        if "spec" in d:
            kwargs["spec"] = DistributionSpec.from_dict(d["spec"])
        for key in ("m", "n"):
            if key in d:
                v = d[key]
                kwargs[key] = tuple(v) if isinstance(v, (list, tuple)) else v
        for key in ("epsilon_grid", "r_schedule", "rhos", "s_list"):
            if key in d:
                if not isinstance(d[key], (list, tuple)):
                    raise ValueError(f"{key} takes a list, got {d[key]!r}")
                kwargs[key] = tuple(d[key] if key == "s_list" else map(float, d[key]))
        return replace(default_config(name), **kwargs)


_DEFAULTS: Dict[str, Dict] = {
    ET_CLUSTERING: dict(spec=distribution(GAUSSIAN), m=(50, 100, 200, 400), n=1, trials=200),
    DISCRETE_EXAMPLE: dict(spec=distribution(DISCRETE, M=100), m=(200, 400, 800), n=10, trials=100),
    ANTICONCENTRATION: dict(spec=distribution(GAUSSIAN), n=(2, 5, 10, 20), trials=10_000),
    DET_GROWTH: dict(spec=distribution(GAUSSIAN), n=2, m=(64, 128, 256, 512), trials=50),
    ZERO_RADIUS: dict(spec=distribution(GAUSSIAN), N=2048, trials=50),
    POLE_CLUSTERING: dict(spec=distribution(GAUSSIAN), m=1, n=(8, 16, 32), N=1024, trials=30),
}


def default_config(name: str, **overrides) -> ExperimentConfig:
    if name not in _DEFAULTS:
        raise ValueError(f"unknown experiment {name!r}; valid: {', '.join(PROTOCOLS)}")
    merged = dict(_DEFAULTS[name])
    merged.update(overrides)
    return ExperimentConfig(name=name, **merged)


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


def _as_tuple(v: Optional[IntOrList], key: str) -> Tuple[int, ...]:
    """The entries of an int field as a tuple; ValueError naming the key for
    an entry that is not a whole number (a fraction or a string)."""
    values = () if v is None else tuple(v) if isinstance(v, (tuple, list)) else (v,)
    for x in values:
        if isinstance(x, str) or not float(x).is_integer():
            raise ValueError(f"{key} takes whole numbers, got {x!r}")
    return tuple(int(x) for x in values)


def _single(config: ExperimentConfig, field: str, default: int) -> int:
    """The value of an int field that the protocol takes as one number."""
    values = _as_tuple(getattr(config, field), field) or (default,)
    if len(values) != 1:
        raise ValueError(f"{config.name} takes a single {field}, got {list(values)}")
    return values[0]


def _need_rhos(config: ExperimentConfig) -> None:
    """Check the fields _check_clustering reads, before any sampling."""
    if not config.rhos:
        raise ValueError(f"{config.name} needs at least one radius in rhos")
    if not all(0.0 < rho <= 1.0 for rho in config.rhos):
        raise ValueError(f"{config.name} needs every rho in rhos to lie in (0, 1], "
                         f"got {list(config.rhos)}")
    if config.grid_size < 4:
        raise ValueError(f"{config.name} needs grid_size >= 4, got {config.grid_size}")
    if config.family_size < 8:
        raise ValueError(f"{config.name} needs family_size >= 8, got {config.family_size}")


def _by_range(config: ExperimentConfig, fn: Callable[[range], RecordBlock]) -> RecordBlock:
    """fn over the trials split into one contiguous range per worker, its
    record blocks concatenated in trial order."""
    parts = min(config.workers, config.trials)
    if parts == 1:
        return fn(range(config.trials))
    bounds = [config.trials * k // parts for k in range(parts + 1)]
    ranges = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    with ThreadPoolExecutor(max_workers=parts) as pool:
        first, *rest = pool.map(fn, ranges)
    for part in rest:
        first.extend(part)
    return first


# Coefficients per block: a block of a trial range holds at most
# _BLOCK_ELEMS // length trials of `length` coefficients (at least one).
_BLOCK_ELEMS = 1 << 15


def _blocks(config: ExperimentConfig, trials: range, length: int, k: int = 1,
            key_offset: int = 0):
    """The trial range in blocks, each sampled into a WindowStack of k x k
    windows: yields (block, stack), trial t of the block drawn with key
    key_offset + t and length coefficients (for k = 1, stack.coeffs is the
    plain (len(block), length) array)."""
    step = max(1, _BLOCK_ELEMS // length)
    for lo in range(0, len(trials), step):
        block = trials[lo:lo + step]
        stack = WindowStack(len(block), length, k)
        sample_block(config.spec, length - 1, config.seed, key_offset + np.asarray(block),
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


def _counts(block: RecordBlock) -> Dict:
    """The summary entries every protocol shares."""
    return {"degenerate": sum(block.degenerate), "excluded": sum(block.excluded),
            "note": _METHOD_NOTE}


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


def write_trials_csv(path: Path, columns: Sequence[str], block: RecordBlock) -> None:
    """Write the block as comma-separated rows with a header, formatting one
    column of a slice of rows at a time.  No cell is quoted: a header, reason
    or value that would need quoting (a comma, a double quote or a line
    break) raises ValueError before anything is written."""
    header = list(BASE_COLUMNS) + list(columns)
    texts = [",".join(header) + "\n"]
    for lo in range(0, len(block), _WRITE_ROWS):
        rows = slice(lo, lo + _WRITE_ROWS)
        cells = [_cells(block.trial[rows]), _cells(block.degenerate[rows]),
                 _cells(block.excluded[rows]), block.reason[rows]]
        cells += [_cells(block.values[c][rows]) for c in columns]
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


def _et_style_records(config: ExperimentConfig, m_values: Tuple[int, ...], n: int,
                      trials: range) -> RecordBlock:
    """Trial units (trial, m) for a contiguous trial range, one block and one
    stage at a time: pade, mass check and end-coefficient bounds for every
    unit, then one _roots_with_retry over the surviving numerators, then the
    clustering checks.  Units come in (trial, m) order."""
    out = RecordBlock(ET_COLUMNS)
    for batch, stack in _blocks(config, trials, config.N + 1):
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
    m_values = _as_tuple(config.m, "m")
    per_m: Dict[str, Dict] = {}
    threshold = config.delta ** 4
    degenerate, excluded = block.flags()
    good = ~(degenerate | excluded)
    m_column = np.array(block.values["m"])
    ratios_all, amgm = block.floats("et_log_over_m"), block.floats("log_amgm_bound")
    for m in m_values:
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
    medians = [per_m[str(m)]["median_et_log_over_m"] for m in m_values]
    return {
        "per_m": per_m,
        "delta": config.delta,
        "medians_strictly_decreasing": bool(all(a > b for a, b in zip(medians[:-1], medians[1:]))),
        **_counts(block),
    }


def _run_et_style(config: ExperimentConfig, default_n: int, min_n: int):
    """Validate an et-style config, run it and summarize it; returns the
    config with N filled in, n, the record block and the summary."""
    m_values = _as_tuple(config.m, "m")
    n = _single(config, "n", default_n)
    if not m_values:
        raise ValueError(f"{config.name} needs at least one m value")
    if min(m_values) < 1 or n < min_n:
        raise ValueError(f"{config.name} needs m >= 1 and n >= {min_n}")
    _need_rhos(config)
    if config.N is None:
        config = replace(config, N=max(m_values) + n + 1)
    if config.N < max(m_values) + n + 1:
        raise ValueError("N must be at least max(m) + n + 1")
    block = _by_range(config, lambda trials: _et_style_records(config, m_values, n, trials))
    return config, n, block, _summarize_et(config, block)


def run_et_clustering(config: ExperimentConfig):
    _, _, block, summary = _run_et_style(config, 1, 0)
    return ET_COLUMNS, block, summary


# ---------------------------------------------------------------------------
# protocol: discrete coefficients (atoms can make the window singular)


def run_discrete_example(config: ExperimentConfig):
    if config.spec.kind != DISCRETE:
        raise ValueError("discrete-example needs a discrete_pm_M distribution")
    if config.spec.M < 2:
        raise ValueError("discrete-example needs M >= 2")
    # n >= 1: the fit's abscissa is n*log(n*M)/m
    config, n, block, summary = _run_et_style(config, 10, 1)
    m_values = _as_tuple(config.m, "m")
    xs, ys = [], []
    M = config.spec.M
    for m in m_values:
        med = summary["per_m"][str(m)]["median_et_log_over_m"]
        if math.isfinite(med):
            xs.append(n * math.log(n * M) / m)
            ys.append(med)
    if len(xs) >= 2:
        slope, intercept = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
        summary["affine_model"] = {"x": "n*log(n*M)/m", "intercept": float(intercept),
                                   "slope": float(slope)}
    summary["degenerate_fraction"] = summary["degenerate"] / len(block) if len(block) else math.nan
    return ET_COLUMNS, block, summary


# ---------------------------------------------------------------------------
# protocol: small-determinant probability of the square coefficient window


ANTICONC_COLUMNS = ("n", "det_abs_root", "singular")


def _anticonc_records(config: ExperimentConfig, n: int, offset: int,
                      trials: range) -> RecordBlock:
    """The n x n windows a_{n-1+i-j} of a trial range (sample keys offset +
    trial), one stacked factorization per block."""
    roots: List[float] = []
    singular: List[bool] = []
    for _, stack in _blocks(config, trials, 2 * n - 1, n, offset):
        log_abs, singular_b = log_abs_dets(stack.windows(n - 1))
        singular_b = singular_b.tolist()
        roots += [0.0 if s else math.exp(v / n) for v, s in zip(log_abs.tolist(), singular_b)]
        singular += singular_b
    return RecordBlock(ANTICONC_COLUMNS, trials,
                       {"n": [n] * len(trials), "det_abs_root": roots, "singular": singular})


def run_toeplitz_anticoncentration(config: ExperimentConfig):
    n_values = _as_tuple(config.n, "n")
    if not n_values or min(n_values) < 1:
        raise ValueError("toeplitz-anticoncentration needs n >= 1")
    block = RecordBlock(ANTICONC_COLUMNS)
    per_n: Dict[str, Dict] = {}
    for idx, n in enumerate(n_values):
        offset = idx * config.trials
        part = _by_range(config, lambda trials: _anticonc_records(config, n, offset, trials))
        block.extend(part)
        roots_ = np.sort(np.array(part.values["det_abs_root"]))
        cdf, bound, within = {}, {}, {}
        for eps in config.epsilon_grid:
            p_hat = float(np.searchsorted(roots_, eps, side="left")) / config.trials
            cdf[repr(float(eps))] = p_hat
            if math.isfinite(config.spec.levy_bound_K):
                cap = n * config.spec.levy_bound_K * eps
                se = math.sqrt(max(p_hat * (1 - p_hat), 1.0 / config.trials) / config.trials)
                bound[repr(float(eps))] = cap
                within[repr(float(eps))] = bool(p_hat <= cap + 3 * se)
        per_n[str(n)] = {"cdf": cdf, "bound_nK_eps": bound, "within_3se": within}
    summary: Dict = {"per_n": per_n, **_counts(block)}
    if config.spec.kind == LOGCONCAVE and len(n_values) >= 2:
        xs, ys = [], []
        for n in n_values:
            for eps in config.epsilon_grid:
                p_hat = per_n[str(n)]["cdf"][repr(float(eps))]
                if p_hat > 0:
                    xs.append(math.log(n))
                    ys.append(math.log(p_hat) - math.log(eps))
        if len(xs) >= 2:
            c, logC = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
            summary["fitted_power_law"] = {"form": "P(|det A|^(1/n) < eps) ~ C * n^c * eps",
                                           "C": float(math.exp(logC)), "c": float(c)}
    return ANTICONC_COLUMNS, block, summary


# ---------------------------------------------------------------------------
# protocol: growth of |det A_m^(n)|^(1/m) toward 1


DET_GROWTH_COLUMNS = ("m", "n", "log_abs_det", "growth", "deviation", "singular")


def _det_growth_records(config: ExperimentConfig, m_values: Tuple[int, ...], n: int,
                        trials: range) -> RecordBlock:
    """The n x n windows a_{m+i-j} (a_l = 0 for l < 0) of a trial range for
    every m, one stacked factorization per (block, m); units in (trial, m)
    order."""
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


def run_det_growth(config: ExperimentConfig):
    m_values = _as_tuple(config.m, "m")
    n = _single(config, "n", 2)
    if not m_values or min(m_values) < 1:
        raise ValueError("det-growth needs a schedule of m >= 1")
    if n < 0:
        raise ValueError("det-growth needs n >= 0")
    block = _by_range(config, lambda trials: _det_growth_records(config, m_values, n, trials))
    degenerate, _ = block.flags()
    m_column, deviation = np.array(block.values["m"]), block.floats("deviation")
    devs = {m: deviation[(m_column == m) & ~degenerate] for m in m_values}
    per_m = {str(m): {"median_deviation": _median(devs[m]), "count": len(devs[m])}
             for m in m_values}
    medians = [per_m[str(m)]["median_deviation"] for m in m_values]
    largest = devs[max(m_values)]
    return DET_GROWTH_COLUMNS, block, {
        "per_m": per_m,
        "medians_decreasing": bool(all(a > b for a, b in zip(medians[:-1], medians[1:]))),
        "max_deviation_at_largest_m": float(largest.max()) if len(largest) else math.nan,
        **_counts(block),
    }


# ---------------------------------------------------------------------------
# protocol: zeros of the truncated random series near the unit circle


def _zero_radius_columns(config: ExperimentConfig) -> Tuple[str, ...]:
    radii = [repr(float(r)) for r in config.r_schedule]
    return ("n_roots", "roots_in_unit_disc", "min_modulus", "et_log", "sector_discrepancy",
            "bl_upper", "bl_lower", "max_radial_defect", *(f"ratio_r{r}" for r in radii),
            *(f"profile_dev_r{r}" for r in radii), *(f"rs_norm_s{s}" for s in config.s_list))


def _log_variance_profile(r: float, N: int) -> float:
    # log of sum_{k=0..N} r^(2k)
    return math.log1p(-r ** (2 * N + 2)) - math.log1p(-r * r)


def _zero_radius_records(config: ExperimentConfig, trials: range) -> RecordBlock:
    """One unit per trial of a contiguous range, one block at a time: the
    roots of every series of the block by one _roots_with_retry, then the
    checks and columns in trial order."""
    out = RecordBlock(_zero_radius_columns(config))
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
                values[f"ratio_r{repr(float(r))}"] = zci / (-math.log1p(-r * r))
                values[f"profile_dev_r{repr(float(r))}"] = (
                    zci - 0.5 * _log_variance_profile(r, config.N))
            for s in config.s_list:
                if s < len(roots):
                    r_s = radius_R_s(roots, s)
                    values[f"rs_norm_s{s}"] = (1.0 - r_s) * s / math.log(s)
            out.add(trial, values)
    return out


def run_zero_radius(config: ExperimentConfig):
    if config.N is None or config.N < 8:
        raise ValueError("zero-radius needs a truncation degree N >= 8")
    if not config.s_list or min(config.s_list) < 2:
        raise ValueError("s_list needs entries, each >= 2 (normalization divides by log s)")
    _need_rhos(config)
    block = _by_range(config, lambda trials: _zero_radius_records(config, trials))
    good = ~block.flags()[1]
    per_r: Dict[str, Dict] = {}
    for r in config.r_schedule:
        key = repr(float(r))
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
    return _zero_radius_columns(config), block, {
        "per_r": per_r,
        "per_s": per_s,
        "ratio_bracket": [0.35, 0.65],
        "rs_window": [0.05, 20.0],
        "fraction_seeds_with_root_in_disc": frac_root_in_disc,
        **_counts(block),
    }


# ---------------------------------------------------------------------------
# protocol: denominator zeros accumulating on the circle through the
# (m+1)-th smallest zero of the series


POLE_COLUMNS = ("n", "R_m", "annulus_mass", "median_abs_dev", "q_et_log")


def _pole_records(config: ExperimentConfig, n_values: Tuple[int, ...], m: int,
                  trials: range) -> RecordBlock:
    """Units (trial, n) for a contiguous trial range, one block at a time:
    the series roots by one _roots_with_retry, the series check and R_m,
    pade for every unit, then one _roots_with_retry over all the block's
    denominators and their checks.  Units come in (trial, n) order."""
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


def run_pole_clustering(config: ExperimentConfig):
    n_values = _as_tuple(config.n, "n")
    m = _single(config, "m", 1)
    if not n_values or min(n_values) < 1:
        raise ValueError("pole-clustering needs an n schedule of n >= 1")
    if m < 0:
        raise ValueError("pole-clustering needs m >= 0")
    _need_rhos(config)
    if config.N is None or config.N < m + max(n_values) + 1:
        raise ValueError("N must be at least m + max(n) + 1")
    block = _by_range(config, lambda trials: _pole_records(config, n_values, m, trials))
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
    summary: Dict = {"per_n": per_n, "m": m, **_counts(block)}
    if m >= 1:
        meds = [per_n[str(n)]["median_abs_dev"] for n in n_values]
        summary["deviation_medians_non_increasing"] = bool(
            all(a >= b - 1e-12 for a, b in zip(meds[:-1], meds[1:])))
    else:
        summary["control_arm"] = "m=0: zeros reported without clustering verdict"
    return POLE_COLUMNS, block, summary


# ---------------------------------------------------------------------------
# dispatch and persistence


RUNNERS: Dict[str, Callable] = {
    ET_CLUSTERING: run_et_clustering,
    DISCRETE_EXAMPLE: run_discrete_example,
    ANTICONCENTRATION: run_toeplitz_anticoncentration,
    DET_GROWTH: run_det_growth,
    ZERO_RADIUS: run_zero_radius,
    POLE_CLUSTERING: run_pole_clustering,
}


def execute(config: ExperimentConfig, out_dir: Optional[Union[str, Path]] = None) -> Dict:
    """Run one protocol; optionally persist trials.csv, summary.json and
    manifest.json under out_dir.  Returns the summary dict."""
    if config.name not in RUNNERS:
        raise ValueError(f"unknown experiment {config.name!r}; valid: {', '.join(PROTOCOLS)}")
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    columns, block, summary = RUNNERS[config.name](config)
    wall = time.perf_counter() - t0
    summary.update(protocol=config.name, trials=config.trials, records=len(block),
                   wall_time_s=round(wall, 3), workers=config.workers, seed=config.seed)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "trials.csv"
        write_trials_csv(csv_path, columns, block)
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
