"""Spans around the calls that ``padeclust.experiments`` makes into the other
layers.

The tracer replaces, for the duration of one traced run, the names that
``padeclust.experiments`` looks up at call time (``sample``, ``pade``,
``find_roots``, ...) with wrappers that time each call.  Nothing under
``src/`` changes: ``_find_roots_fallback`` looks ``find_roots`` up in the
module globals, so its retries are spanned too.  Spans nest (``workers=1``
runs everything on one thread), and a span's self time is its duration minus
the durations of the spans opened inside it.

Spans are aggregated in memory as they close and turned into metrics when
the benchmark ends; nothing is written to disk, so the traced run produces
the same artifacts as an untraced one.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from padeclust import experiments
from padeclust.errors import DegenerateSystem, NonConvergence

# Every name padeclust.experiments resolves at call time in another layer,
# plus its own artifact writer.
WRAPPED = (
    "sample",
    "pade",
    "et_ratio",
    "et_bound_chain",
    "build_triple",
    "assoc_matrix",
    "log_abs_det",
    "find_roots",
    "clustering_report",
    "radial_two_sided_check",
    "EmpiricalMeasure",
    "zero_counting_integral",
    "radius_R_s",
    "annulus_mass",
    "write_trials_csv",
)

EXECUTE = "experiments.execute"
FIND_ROOTS = "poly.find_roots"
ET_DEGREES = (50, 100, 200, 400)
LONG_DEGREE = 2048


class Stat:
    """Aggregate of the closed spans of one key."""

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.durations: List[float] = []
        self.counts: Dict[str, float] = {}
        self.by_degree: Dict[int, List[float]] = {}

    def bump(self, counter: str, by: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + by


def _observe_find_roots(stat: Stat, dur: float, args, kwargs, result, exc) -> None:
    stat.by_degree.setdefault(args[0].degree, []).append(dur)
    if kwargs.get("start_offset", 0.0):
        stat.bump("retries")
    if isinstance(exc, NonConvergence):
        stat.bump("nonconvergence")
    if result is not None:
        stat.bump("ok")
        stat.bump("roots", len(result))
        stat.bump("ok_s", dur)


def _observe_pade(stat: Stat, dur, args, kwargs, result, exc) -> None:
    if isinstance(exc, DegenerateSystem):
        stat.bump("degenerate")


def _observe_log_abs_det(stat: Stat, dur, args, kwargs, result, exc) -> None:
    if result is not None and result.singular:
        stat.bump("singular")


def _observe_write_trials_csv(stat: Stat, dur, args, kwargs, result, exc) -> None:
    stat.bump("bytes", os.path.getsize(args[0]))


OBSERVERS: Dict[str, Callable] = {
    "find_roots": _observe_find_roots,
    "pade": _observe_pade,
    "log_abs_det": _observe_log_abs_det,
    "write_trials_csv": _observe_write_trials_csv,
}


class Tracer:
    """Span recorder for traced ``execute`` calls; one per benchmark run."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.executes = 0
        self._stack: List[float] = []

    def _stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    def _wrap(self, key: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        stat = self._stat(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = exc = None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stat.calls += 1
                stat.self_s += dur - child
                stat.durations.append(dur)
                if observe is not None:
                    observe(stat, dur, args, kwargs, result, exc)

        return traced

    @contextmanager
    def traced_execute(self):
        """Wrap the layer entry points for one ``execute`` call, span the call
        itself, and put the original functions back afterwards."""
        saved = {name: getattr(experiments, name) for name in WRAPPED}
        for name, fn in saved.items():
            layer = fn.__module__.rsplit(".", 1)[-1]
            setattr(experiments, name, self._wrap(f"{layer}.{name}", fn, OBSERVERS.get(name)))
        top = self._stat(EXECUTE)
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            top.calls += 1
            top.self_s += dur - self._stack.pop()
            top.durations.append(dur)
            self.executes += 1
            for name, fn in saved.items():
                setattr(experiments, name, fn)
        if any(getattr(experiments, name) is not fn for name, fn in saved.items()):
            raise RuntimeError("traced names were not restored")

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> Dict[str, tuple]:
        """Per-layer metrics as name -> (value, unit).  Counts and times are
        per ``execute`` call (the mean over the traced calls), so they do not
        depend on how many calls fitted in the run."""
        runs = max(self.executes, 1)
        get = lambda key: self.stats.get(key, Stat())
        out: Dict[str, tuple] = {}

        def per_run(value: float) -> float:
            return value / runs

        def basic(key: str, *fields: str) -> None:
            st = get(key)
            for field in fields:
                if field == "calls":
                    out[f"{key}.calls"] = (per_run(st.calls), "count")
                elif field == "self_s":
                    out[f"{key}.self_s"] = (per_run(st.self_s), "s")
                elif field == "p50_us":
                    out[f"{key}.p50_us"] = (_p50(st.durations) * 1e6, "us")
                else:
                    unit = "bytes" if field == "bytes" else "count"
                    out[f"{key}.{field}"] = (per_run(st.counts.get(field, 0)), unit)

        fr = get(FIND_ROOTS)
        basic(FIND_ROOTS, "calls", "self_s", "retries", "nonconvergence")
        out[f"{FIND_ROOTS}.ok_ratio"] = (
            fr.counts.get("ok", 0) / fr.calls if fr.calls else 1.0, "ratio")
        ok_s = fr.counts.get("ok_s", 0.0)
        out[f"{FIND_ROOTS}.roots_per_s"] = (
            fr.counts.get("roots", 0) / ok_s if ok_s > 0 else 0.0, "1/s")
        for deg in ET_DEGREES:
            durs = fr.by_degree.get(deg, [])
            out[f"{FIND_ROOTS}.deg{deg}.p50_ms"] = (_p50(durs) * 1e3, "ms")
            out[f"{FIND_ROOTS}.deg{deg}.p90_ms"] = (_p90_or_zero(durs) * 1e3, "ms")
            out[f"{FIND_ROOTS}.deg{deg}.samples"] = (len(durs), "count")
        durs = fr.by_degree.get(LONG_DEGREE, [])
        out[f"{FIND_ROOTS}.deg{LONG_DEGREE}.p50_ms"] = (_p50(durs) * 1e3, "ms")
        out[f"{FIND_ROOTS}.deg{LONG_DEGREE}.samples"] = (len(durs), "count")

        basic("cluster.clustering_report", "calls", "self_s", "p50_us")
        basic("cluster.EmpiricalMeasure", "self_s")
        basic("cluster.radial_two_sided_check", "calls")
        basic("cluster.zero_counting_integral", "self_s")
        basic("cluster.radius_R_s", "self_s")
        basic("pade.pade", "calls", "self_s", "p50_us", "degenerate")
        basic("pade.et_bound_chain", "calls", "self_s")
        basic("pade.et_ratio", "calls", "self_s")
        basic("toeplitz.log_abs_det", "calls", "self_s", "p50_us", "singular")
        basic("toeplitz.assoc_matrix", "calls", "self_s")
        basic("toeplitz.build_triple", "calls", "self_s")
        basic("sampler.sample", "calls", "self_s", "p50_us")
        out["experiments.self_s"] = (per_run(get(EXECUTE).self_s), "s")
        basic("experiments.write_trials_csv", "self_s", "bytes")
        return out

    def layer_shares(self) -> Dict[str, float]:
        """Self time of each layer as a share of the traced ``execute`` time."""
        total = sum(self.stats[EXECUTE].durations) if EXECUTE in self.stats else 0.0
        shares: Dict[str, float] = {}
        for key, st in self.stats.items():
            layer = key.split(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + st.self_s
        return {k: v / total for k, v in shares.items()} if total > 0 else {}


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90_or_zero(values: List[float]) -> float:
    """The 90th percentile where at least ten samples lie beyond it, else 0
    (the matching ``.samples`` metric says how many there were)."""
    if len(values) < 100:
        return 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]
