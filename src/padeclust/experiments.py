"""Named Monte Carlo protocols over the samplers, the approximant solver and
the clustering metrics.

Each protocol maps a batch of keyed trials (pure functions of
(seed, trial_index)) to TrialRecords and a summary dict.  Aggregation uses
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
log_abs_dets call per stage) and writes its records in trial order.  The batched kernels give every polynomial's
roots and every window's determinant bitwise as the one-at-a-time calls
would, so neither the range split, the block size nor the batch composition
reaches trials.csv.

Per-trial wall times are deliberately not written to trials.csv (they would
break byte-level reproducibility); the summary carries the aggregate.
"""

from __future__ import annotations

import csv
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
from .poly import Polynomial, find_roots, find_roots_batch
from .sampler import (DISCRETE, GAUSSIAN, LOGCONCAVE, DistributionSpec, distribution, sample,
                      sample_block)
# sample, find_roots, assoc_matrix and log_abs_det are not called here any
# more, but they stay module names: the benchmark tracer
# (perfbench/tracer.py) wraps them here.
from .toeplitz import WindowStack, assoc_matrix, build_triple, log_abs_det, log_abs_dets

SCHEMA_VERSION = 1

ET_CLUSTERING = "et-clustering"
DISCRETE_EXAMPLE = "discrete-example"
ANTICONCENTRATION = "toeplitz-anticoncentration"
DET_GROWTH = "det-growth"
ZERO_RADIUS = "zero-radius"
POLE_CLUSTERING = "pole-clustering"

PROTOCOLS = (
    ET_CLUSTERING,
    DISCRETE_EXAMPLE,
    ANTICONCENTRATION,
    DET_GROWTH,
    ZERO_RADIUS,
    POLE_CLUSTERING,
)

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
    rhos: Tuple[float, ...] = (0.05, 0.1, 0.2)
    grid_size: int = 256
    family_size: int = 16
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
        base = default_config(name)
        kwargs: Dict = {}
        if "spec" in d:
            kwargs["spec"] = DistributionSpec.from_dict(d["spec"])
        for key in ("trials", "seed", "N", "delta", "grid_size", "family_size",
                    "workers", "precision"):
            if key in d:
                kwargs[key] = d[key]
        for key in ("m", "n"):
            if key in d:
                v = d[key]
                kwargs[key] = tuple(v) if isinstance(v, (list, tuple)) else int(v)
        for key in ("epsilon_grid", "r_schedule", "rhos"):
            if key in d:
                kwargs[key] = tuple(float(x) for x in d[key])
        if "s_list" in d:
            kwargs["s_list"] = tuple(int(x) for x in d["s_list"])
        return replace(base, **kwargs)


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


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    degenerate: bool
    excluded: bool
    reason: str
    values: Dict[str, object]


# ---------------------------------------------------------------------------
# shared plumbing


def _as_tuple(v: Optional[IntOrList]) -> Tuple[int, ...]:
    if v is None:
        return ()
    if isinstance(v, (tuple, list)):
        return tuple(int(x) for x in v)
    return (int(v),)


def _single(config: ExperimentConfig, field: str, default: int) -> int:
    """The value of an int field that the protocol takes as one number."""
    values = _as_tuple(getattr(config, field)) or (default,)
    if len(values) != 1:
        raise ValueError(f"{config.name} takes a single {field}, got {list(values)}")
    return values[0]


def _need_rhos(config: ExperimentConfig) -> None:
    if not config.rhos:
        raise ValueError(f"{config.name} needs at least one radius in rhos")


def _by_range(config: ExperimentConfig, fn: Callable[[range], List]) -> List:
    """fn over the trials split into one contiguous range per worker, its
    records concatenated in trial order."""
    parts = min(config.workers, config.trials)
    if parts == 1:
        return fn(range(config.trials))
    bounds = [config.trials * k // parts for k in range(parts + 1)]
    ranges = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    with ThreadPoolExecutor(max_workers=parts) as pool:
        return [rec for part in pool.map(fn, ranges) for rec in part]


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
    still failing once more in extended precision.  A row that fails every
    tier stays a NonConvergence."""
    found = find_roots_batch(polys)
    retries = [dict(start_offset=0.37)]
    if precision == "extended":
        retries.append(dict(precision="extended"))
    for kwargs in retries:
        failed = [i for i, r in enumerate(found) if isinstance(r, NonConvergence)]
        for i, roots in zip(failed, find_roots_batch([polys[i] for i in failed], **kwargs)):
            found[i] = roots
    return found


def _median(values: Sequence[float]) -> float:
    if not values:
        return math.nan
    return float(np.median(np.sort(np.asarray(values, dtype=float))))


def _check_clustering(et: EtRatio, mu: EmpiricalMeasure, config: ExperimentConfig,
                      context: str) -> Dict[str, float]:
    """Evaluate the deterministic clustering inequalities for the roots mu of
    a polynomial whose end-coefficient ratio is et; raise on breach, else
    return the report's trials.csv columns.

    Enforced forms are theorems for every polynomial with nonzero end
    coefficients, so a single failure means a bug, not bad luck.  The radial
    inequality is enforced in its two-sided form: the sharper one-sided
    ceiling reported by clustering_report fails for end-unbalanced
    polynomials such as Pade denominators whose roots all sit well inside
    the unit disc (see radial_two_sided_check).
    """
    rep = clustering_report(mu, et, rhos=config.rhos, grid_size=config.grid_size,
                            family_size=config.family_size)
    failed = [k for k, ok in rep.inequality_flags.items()
              if not ok and not k.startswith("radial_")]
    for rho in config.rhos:
        if not radial_two_sided_check(mu, et, rho).holds:
            failed.append(f"radial_{rho:g}")
    if failed:
        raise InvariantViolation(
            f"deterministic clustering inequality broken ({', '.join(failed)}) in {context}"
        )
    return {
        "et_log": rep.et_log,
        "sector_discrepancy": rep.max_sector_discrepancy,
        "bl_upper": rep.bl_upper,
        "bl_lower": rep.bl_lower_estimate,
        "max_radial_defect": max(rep.radial_defect.values()),
    }


def _check_mass_inequality(coeffs: np.ndarray, pair, context: str) -> None:
    lhs = float(np.sum(np.abs(pair.p.coeffs)))
    rhs = float(np.sum(np.abs(pair.q.coeffs)) * np.sum(np.abs(coeffs[: pair.m + 1])))
    if lhs > rhs * (1.0 + 1e-12):
        raise InvariantViolation(
            f"coefficient-mass inequality broken in {context}: {lhs:.6e} > {rhs:.6e}"
        )


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


BASE_COLUMNS = ("trial", "degenerate", "excluded", "reason")


def write_trials_csv(path: Path, columns: Sequence[str], records: Sequence[TrialRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(BASE_COLUMNS) + list(columns))
        for rec in records:
            row = [
                str(rec.trial_index),
                _fmt(rec.degenerate),
                _fmt(rec.excluded),
                rec.reason,
            ]
            row += [_fmt(rec.values.get(c)) for c in columns]
            writer.writerow(row)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# protocol: decay of the end-coefficient ratio (continuous coefficients)


ET_COLUMNS = (
    "m", "n", "et_log", "et_log_over_m", "log_l1_bound", "log_cauchy_binet_bound",
    "log_amgm_bound", "order_residual", "condition", "sector_discrepancy",
    "bl_upper", "bl_lower", "max_radial_defect",
)


def _et_style_records(config: ExperimentConfig, m_values: Tuple[int, ...], n: int,
                      trials: range) -> List[TrialRecord]:
    """Trial units (trial, m) for a contiguous trial range, one block and one
    stage at a time: pade, mass check and end-coefficient bounds for every
    unit, then one find_roots_batch over the surviving numerators, then the
    clustering checks.  Records come back in (trial, m) order."""
    records: List[TrialRecord] = []
    for block, stack in _blocks(config, trials, config.N + 1):
        pending: List[Tuple[int, Polynomial, EtRatio]] = []  # (record slot, numerator, ratio)
        for trial, coeffs in zip(block, stack.coeffs):
            for m in m_values:
                values: Dict[str, object] = {"m": m, "n": n}
                window = coeffs[: m + n + 2]
                try:
                    pair = pade(window, m, n, precision=config.precision)
                except DegenerateSystem:
                    records.append(TrialRecord(trial, True, False, "degenerate_system", values))
                    continue
                _check_mass_inequality(window, pair, f"trial {trial}, m={m}, n={n}")
                values["order_residual"] = pair.diagnostics["order_residual"]
                values["condition"] = pair.diagnostics["condition"]
                try:
                    ratio = et_ratio(pair.p)
                    chain = et_bound_chain(window, build_triple(window, m, n), pair)
                except EndCoefficientZero:
                    records.append(TrialRecord(trial, False, True, "end_coefficient_zero", values))
                    continue
                except DegenerateSystem:
                    records.append(TrialRecord(trial, False, True, "singular_window", values))
                    continue
                values["et_log"] = ratio.log_value
                values["et_log_over_m"] = ratio.log_value / m
                values["log_l1_bound"] = chain.log_l1
                values["log_cauchy_binet_bound"] = chain.log_cauchy_binet
                values["log_amgm_bound"] = chain.log_amgm
                pending.append((len(records), pair.p, ratio))
                records.append(TrialRecord(trial, False, False, "", values))
        found = find_roots_batch([p for _, p, _ in pending])
        for (slot, _, ratio), roots in zip(pending, found):
            rec = records[slot]
            if isinstance(roots, NonConvergence):
                records[slot] = replace(rec, excluded=True, reason="nonconvergence")
                continue
            rec.values.update(_check_clustering(
                ratio, EmpiricalMeasure(roots), config,
                f"trial {rec.trial_index}, m={rec.values['m']}, n={n}"))
    return records


def _summarize_et(config: ExperimentConfig, records: List[TrialRecord]) -> Dict:
    m_values = _as_tuple(config.m)
    per_m: Dict[str, Dict] = {}
    threshold = config.delta ** 4
    for m in m_values:
        sub = [r for r in records if r.values.get("m") == m]
        good = [r for r in sub if not (r.degenerate or r.excluded)]
        ratios = [r.values["et_log_over_m"] for r in good]
        per_m[str(m)] = {
            "trials": len(sub),
            "degenerate": sum(1 for r in sub if r.degenerate),
            "excluded": sum(1 for r in sub if r.excluded),
            "median_et_log_over_m": _median(ratios),
            "fraction_exceeding_delta4": (
                sum(1 for v in ratios if v > threshold) / len(ratios) if ratios else math.nan
            ),
            "median_log_amgm_bound": _median([r.values["log_amgm_bound"] for r in good]),
        }
    medians = [per_m[str(m)]["median_et_log_over_m"] for m in m_values]
    return {
        "per_m": per_m,
        "delta": config.delta,
        "medians_strictly_decreasing": bool(
            all(a > b for a, b in zip(medians[:-1], medians[1:]))
        ),
        "degenerate": sum(1 for r in records if r.degenerate),
        "excluded": sum(1 for r in records if r.excluded),
        "note": _METHOD_NOTE,
    }


def _run_et_style(config: ExperimentConfig, default_n: int, min_n: int):
    """Validate an et-style config, run it and summarize it; returns the
    config with N filled in, n, the records and the summary."""
    m_values = _as_tuple(config.m)
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
    records = _by_range(config, lambda trials: _et_style_records(config, m_values, n, trials))
    return config, n, records, _summarize_et(config, records)


def run_et_clustering(config: ExperimentConfig):
    _, _, records, summary = _run_et_style(config, 1, 0)
    return ET_COLUMNS, records, summary


# ---------------------------------------------------------------------------
# protocol: discrete coefficients (atoms can make the window singular)


def run_discrete_example(config: ExperimentConfig):
    if config.spec.kind != DISCRETE:
        raise ValueError("discrete-example needs a discrete_pm_M distribution")
    if config.spec.M < 2:
        raise ValueError("discrete-example needs M >= 2")
    # n >= 1: the fit's abscissa is n*log(n*M)/m
    config, n, records, summary = _run_et_style(config, 10, 1)
    m_values = _as_tuple(config.m)
    xs, ys = [], []
    M = config.spec.M
    for m in m_values:
        med = summary["per_m"][str(m)]["median_et_log_over_m"]
        if math.isfinite(med):
            xs.append(n * math.log(n * M) / m)
            ys.append(med)
    if len(xs) >= 2:
        slope, intercept = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
        summary["affine_model"] = {
            "x": "n*log(n*M)/m",
            "intercept": float(intercept),
            "slope": float(slope),
        }
    summary["degenerate_fraction"] = (
        summary["degenerate"] / len(records) if records else math.nan
    )
    return ET_COLUMNS, records, summary


# ---------------------------------------------------------------------------
# protocol: small-determinant probability of the square coefficient window


ANTICONC_COLUMNS = ("n", "det_abs_root", "singular")


def _anticonc_records(config: ExperimentConfig, n: int, offset: int,
                      trials: range) -> List[TrialRecord]:
    """The n x n windows a_{n-1+i-j} of a trial range (sample keys offset +
    trial), one stacked factorization per block."""
    records: List[TrialRecord] = []
    for block, stack in _blocks(config, trials, 2 * n - 1, n, offset):
        log_abs, singular = log_abs_dets(stack.windows(n - 1))
        for trial, log_abs_t, singular_t in zip(block, log_abs.tolist(), singular.tolist()):
            root = 0.0 if singular_t else math.exp(log_abs_t / n)
            records.append(TrialRecord(trial, False, False, "", {
                "n": n, "det_abs_root": root, "singular": singular_t,
            }))
    return records


def run_toeplitz_anticoncentration(config: ExperimentConfig):
    n_values = _as_tuple(config.n)
    if not n_values or min(n_values) < 1:
        raise ValueError("toeplitz-anticoncentration needs n >= 1")
    records: List[TrialRecord] = []
    per_n: Dict[str, Dict] = {}
    for idx, n in enumerate(n_values):
        offset = idx * config.trials
        batch = _by_range(config, lambda trials: _anticonc_records(config, n, offset, trials))
        records.extend(batch)
        roots_ = np.sort(np.asarray([r.values["det_abs_root"] for r in batch]))
        cdf: Dict[str, float] = {}
        bound: Dict[str, float] = {}
        within: Dict[str, bool] = {}
        for eps in config.epsilon_grid:
            p_hat = float(np.searchsorted(roots_, eps, side="left")) / config.trials
            cdf[repr(float(eps))] = p_hat
            if math.isfinite(config.spec.levy_bound_K):
                cap = n * config.spec.levy_bound_K * eps
                se = math.sqrt(max(p_hat * (1 - p_hat), 1.0 / config.trials) / config.trials)
                bound[repr(float(eps))] = cap
                within[repr(float(eps))] = bool(p_hat <= cap + 3 * se)
        per_n[str(n)] = {"cdf": cdf, "bound_nK_eps": bound, "within_3se": within}
    summary: Dict = {
        "per_n": per_n,
        "degenerate": 0,
        "excluded": 0,
        "note": _METHOD_NOTE,
    }
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
            summary["fitted_power_law"] = {
                "form": "P(|det A|^(1/n) < eps) ~ C * n^c * eps",
                "C": float(math.exp(logC)),
                "c": float(c),
            }
    return ANTICONC_COLUMNS, records, summary


# ---------------------------------------------------------------------------
# protocol: growth of |det A_m^(n)|^(1/m) toward 1


DET_GROWTH_COLUMNS = ("m", "n", "log_abs_det", "growth", "deviation", "singular")


def _det_growth_records(config: ExperimentConfig, m_values: Tuple[int, ...], n: int,
                        trials: range) -> List[TrialRecord]:
    """The n x n windows a_{m+i-j} (a_l = 0 for l < 0) of a trial range for
    every m, one stacked factorization per (block, m); records in (trial, m)
    order."""
    out: List[TrialRecord] = []
    for block, stack in _blocks(config, trials, max(m_values) + n, n):
        dets = [tuple(x.tolist() for x in log_abs_dets(stack.windows(m))) for m in m_values]
        for row, trial in enumerate(block):
            for m, (log_abs, singular) in zip(m_values, dets):
                values: Dict[str, object] = {"m": m, "n": n, "singular": singular[row]}
                if singular[row]:
                    out.append(TrialRecord(trial, True, False, "singular_window", values))
                    continue
                growth = math.exp(log_abs[row] / m)
                values.update({
                    "log_abs_det": log_abs[row],
                    "growth": growth,
                    "deviation": abs(growth - 1.0),
                })
                out.append(TrialRecord(trial, False, False, "", values))
    return out


def run_det_growth(config: ExperimentConfig):
    m_values = _as_tuple(config.m)
    n = _single(config, "n", 2)
    if not m_values or min(m_values) < 1:
        raise ValueError("det-growth needs a schedule of m >= 1")
    if n < 0:
        raise ValueError("det-growth needs n >= 0")
    records = _by_range(config, lambda trials: _det_growth_records(config, m_values, n, trials))
    per_m: Dict[str, Dict] = {}
    for m in m_values:
        devs = [r.values["deviation"] for r in records
                if r.values.get("m") == m and not r.degenerate]
        per_m[str(m)] = {"median_deviation": _median(devs), "count": len(devs)}
    medians = [per_m[str(m)]["median_deviation"] for m in m_values]
    largest = [r.values["deviation"] for r in records
               if r.values.get("m") == max(m_values) and not r.degenerate]
    return DET_GROWTH_COLUMNS, records, {
        "per_m": per_m,
        "medians_decreasing": bool(all(a > b for a, b in zip(medians[:-1], medians[1:]))),
        "max_deviation_at_largest_m": max(largest) if largest else math.nan,
        "degenerate": sum(1 for r in records if r.degenerate),
        "excluded": 0,
        "note": _METHOD_NOTE,
    }


# ---------------------------------------------------------------------------
# protocol: zeros of the truncated random series near the unit circle


def _zero_radius_columns(config: ExperimentConfig) -> Tuple[str, ...]:
    cols = ["n_roots", "roots_in_unit_disc", "min_modulus", "et_log",
            "sector_discrepancy", "bl_upper", "bl_lower", "max_radial_defect"]
    cols += [f"ratio_r{repr(float(r))}" for r in config.r_schedule]
    cols += [f"profile_dev_r{repr(float(r))}" for r in config.r_schedule]
    cols += [f"rs_norm_s{s}" for s in config.s_list]
    return tuple(cols)


def _log_variance_profile(r: float, N: int) -> float:
    # log of sum_{k=0..N} r^(2k)
    return math.log1p(-r ** (2 * N + 2)) - math.log1p(-r * r)


def _zero_radius_records(config: ExperimentConfig, trials: range) -> List[TrialRecord]:
    """One record per trial of a contiguous range, one block at a time: the
    roots of every series of the block by one _roots_with_retry, then the
    checks and columns in trial order."""
    records: List[TrialRecord] = []
    for block, stack in _blocks(config, trials, config.N + 1):
        polys = [Polynomial(c) for c in stack.coeffs]
        for trial, poly, roots in zip(block, polys, _roots_with_retry(polys, config.precision)):
            values: Dict[str, object] = {}
            if isinstance(roots, NonConvergence):
                records.append(TrialRecord(trial, False, True, "nonconvergence", values))
                continue
            moduli = roots.moduli
            values["n_roots"] = len(roots)
            values["roots_in_unit_disc"] = int(np.sum(moduli < 1.0))
            values["min_modulus"] = float(moduli[0])
            try:
                values.update(_check_clustering(et_ratio(poly), EmpiricalMeasure(roots), config,
                                                f"trial {trial}"))
            except EndCoefficientZero:
                records.append(TrialRecord(trial, False, True, "end_coefficient_zero", values))
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
            records.append(TrialRecord(trial, False, False, "", values))
    return records


def run_zero_radius(config: ExperimentConfig):
    if config.N is None or config.N < 8:
        raise ValueError("zero-radius needs a truncation degree N >= 8")
    if not config.s_list or min(config.s_list) < 2:
        raise ValueError("s_list needs entries, each >= 2 (normalization divides by log s)")
    _need_rhos(config)
    records = _by_range(config, lambda trials: _zero_radius_records(config, trials))
    good = [r for r in records if not r.excluded]
    per_r: Dict[str, Dict] = {}
    for r in config.r_schedule:
        key = repr(float(r))
        ratios = [rec.values[f"ratio_r{key}"] for rec in good]
        devs = [rec.values[f"profile_dev_r{key}"] for rec in good]
        per_r[key] = {
            "median_ratio": _median(ratios),
            "fraction_in_bracket": (
                sum(1 for v in ratios if 0.35 <= v <= 0.65) / len(ratios) if ratios else math.nan
            ),
            "median_profile_dev": _median(devs),
        }
    per_s: Dict[str, Dict] = {}
    for s in config.s_list:
        vals = [rec.values[f"rs_norm_s{s}"] for rec in good if f"rs_norm_s{s}" in rec.values]
        per_s[str(s)] = {
            "median_norm": _median(vals),
            "fraction_in_window": (
                sum(1 for v in vals if 0.05 <= v <= 20.0) / len(vals) if vals else math.nan
            ),
        }
    frac_root_in_disc = (
        sum(1 for rec in good if rec.values["roots_in_unit_disc"] >= 1) / len(good)
        if good else math.nan
    )
    return _zero_radius_columns(config), records, {
        "per_r": per_r,
        "per_s": per_s,
        "ratio_bracket": [0.35, 0.65],
        "rs_window": [0.05, 20.0],
        "fraction_seeds_with_root_in_disc": frac_root_in_disc,
        "degenerate": 0,
        "excluded": sum(1 for r in records if r.excluded),
        "note": _METHOD_NOTE,
    }


# ---------------------------------------------------------------------------
# protocol: denominator zeros accumulating on the circle through the
# (m+1)-th smallest zero of the series


POLE_COLUMNS = ("n", "R_m", "annulus_mass", "median_abs_dev", "q_et_log")


def _pole_records(config: ExperimentConfig, n_values: Tuple[int, ...], m: int,
                  trials: range) -> List[TrialRecord]:
    """Units (trial, n) for a contiguous trial range, one block at a time:
    the series roots by one _roots_with_retry, the series check and R_m,
    pade for every unit, then one find_roots_batch over all the block's
    denominators and their checks.  Records come back in (trial, n) order."""
    out: List[TrialRecord] = []
    rho = config.rhos[-1]
    for block, stack in _blocks(config, trials, config.N + 1):
        polys = [Polynomial(c) for c in stack.coeffs]
        pending: List[Tuple[int, Polynomial, float]] = []  # (record slot, denominator, R_m)
        for trial, poly, roots_f in zip(block, polys, _roots_with_retry(polys, config.precision)):
            if isinstance(roots_f, NonConvergence):
                out.extend(TrialRecord(trial, False, True, "nonconvergence", {"n": n})
                           for n in n_values)
                continue
            try:
                _check_clustering(et_ratio(poly), EmpiricalMeasure(roots_f), config,
                                  f"trial {trial} (series)")
            except EndCoefficientZero:
                out.extend(TrialRecord(trial, False, True, "end_coefficient_zero", {"n": n})
                           for n in n_values)
                continue
            r_m = radius_R_s(roots_f, m)
            for n in n_values:
                values: Dict[str, object] = {"n": n, "R_m": r_m}
                try:
                    pair = pade(poly.coeffs[: m + n + 2], m, n, precision=config.precision)
                except DegenerateSystem:
                    out.append(TrialRecord(trial, True, False, "degenerate_system", values))
                    continue
                pending.append((len(out), pair.q, r_m))
                out.append(TrialRecord(trial, False, False, "", values))
        for (slot, q, r_m), q_roots in zip(pending, find_roots_batch([q for _, q, _ in pending])):
            rec = out[slot]
            if isinstance(q_roots, NonConvergence):
                out[slot] = replace(rec, excluded=True, reason="nonconvergence")
                continue
            mu_q = EmpiricalMeasure(q_roots)
            rec.values["annulus_mass"] = annulus_mass(mu_q, r_m, rho)
            rec.values["median_abs_dev"] = _median(list(np.abs(q_roots.moduli - r_m)))
            try:
                q_et = et_ratio(q)
                _check_clustering(q_et, mu_q, config,
                                  f"trial {rec.trial_index}, n={rec.values['n']} (denominator)")
                rec.values["q_et_log"] = q_et.log_value
            except (EndCoefficientZero, DegenerateInput):
                pass
    return out


def run_pole_clustering(config: ExperimentConfig):
    n_values = _as_tuple(config.n)
    m = _single(config, "m", 1)
    if not n_values or min(n_values) < 1:
        raise ValueError("pole-clustering needs an n schedule of n >= 1")
    if m < 0:
        raise ValueError("pole-clustering needs m >= 0")
    _need_rhos(config)
    if config.N is None or config.N < m + max(n_values) + 1:
        raise ValueError("N must be at least m + max(n) + 1")
    records = _by_range(config, lambda trials: _pole_records(config, n_values, m, trials))
    per_n: Dict[str, Dict] = {}
    for n in n_values:
        sub = [r for r in records if r.values.get("n") == n
               and not (r.degenerate or r.excluded)]
        per_n[str(n)] = {
            "median_abs_dev": _median([r.values["median_abs_dev"] for r in sub]),
            "median_annulus_mass": _median([r.values["annulus_mass"] for r in sub]),
            "cells": len(sub),
            "degenerate_cells": sum(
                1 for r in records if r.values.get("n") == n and r.degenerate
            ),
        }
    summary: Dict = {
        "per_n": per_n,
        "m": m,
        "degenerate": sum(1 for r in records if r.degenerate),
        "excluded": sum(1 for r in records if r.excluded),
        "note": _METHOD_NOTE,
    }
    if m >= 1:
        meds = [per_n[str(n)]["median_abs_dev"] for n in n_values]
        summary["deviation_medians_non_increasing"] = bool(
            all(a >= b - 1e-12 for a, b in zip(meds[:-1], meds[1:]))
        )
    else:
        summary["control_arm"] = "m=0: zeros reported without clustering verdict"
    return POLE_COLUMNS, records, summary


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
    columns, records, summary = RUNNERS[config.name](config)
    wall = time.perf_counter() - t0
    summary.setdefault("degenerate", 0)
    summary.setdefault("excluded", 0)
    summary.update({
        "protocol": config.name,
        "trials": config.trials,
        "records": len(records),
        "wall_time_s": round(wall, 3),
        "workers": config.workers,
        "seed": config.seed,
    })
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "trials.csv"
        write_trials_csv(csv_path, columns, records)
        summary_path = out / "summary.json"
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "config": config.to_dict(),
            "version": __version__,
            "seed": config.seed,
            "started": started,
            "ended": datetime.now(timezone.utc).isoformat(),
            "digests": {
                "trials.csv": _sha256(csv_path),
                "summary.json": _sha256(summary_path),
            },
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return summary
