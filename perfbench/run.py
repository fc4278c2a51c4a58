"""padeclust benchmark: run one protocol workload and print its metrics.

    python3 perfbench/run.py --workload et-sweep --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports ``padeclust`` from ``src/``.
Each workload is a protocol run through ``padeclust.experiments.execute``
with ``workers=1``, in this one process, writing its artifacts to a scratch
directory inside the repository that is removed afterwards.  The workload
seed becomes the protocol seed, so the same seed gives the same inputs.

``--trace 0`` measures the end-to-end metrics with tracing off: ``run_s``
(median wall time of one ``execute`` over the repeats that fit in
``--seconds``), ``setup_s`` (median start-to-ready time of fresh
interpreters), ``peak_rss_mb`` and ``ok_frac``.  ``--trace 1`` alternates
untraced and traced ``execute`` calls and reports the per-layer metrics
(see README.md).  Every ``execute`` is checked: it must raise nothing, write
the expected number of trial units with finite values, and write the same
``trials.csv`` bytes as every other call at that seed, traced or not.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every check passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

# Trial counts are sized so that one execute takes about 1 s (et-sweep,
# window-scan) to 4.5 s (long-series) on a 2-core x86 box, and so that the
# per-seed variation of the summed root-finding work stays a few percent.
WORKLOADS: Dict[str, Dict] = {
    "et-sweep": dict(protocol="et-clustering", trials=25, schedule="m"),
    "long-series": dict(protocol="zero-radius", trials=16, schedule=None),
    "window-scan": dict(protocol="toeplitz-anticoncentration", trials=10_000, schedule="n"),
}

SETUP_REPEATS = 11
MIN_REPEATS = 3
MIN_TRACED_PAIRS = 2
# Row reasons that mark a trial unit as excluded or degenerate by design;
# only nonconvergence counts as a failed unit.
FAILED_REASONS = {"nonconvergence"}
ALLOWED_REASONS = {"", "nonconvergence", "degenerate_system", "end_coefficient_zero",
                   "singular_window"}
BASE_COLUMNS = ("trial", "degenerate", "excluded", "reason")

SETUP_CODE = (
    "import sys\n"
    "src = sys.argv[1]\n"
    "sys.path.insert(0, src)\n"
    "import padeclust\n"
    "if not padeclust.__file__.startswith(src):\n"
    "    raise SystemExit('padeclust imported from ' + padeclust.__file__)\n"
    "padeclust.pade([1.0, 0.5, 0.25, 0.125], 1, 1)\n"
    "print('ready', flush=True)\n"
)


class CheckFailed(Exception):
    """The program raised or did not start, or its artifacts failed the
    output check."""


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_padeclust() -> None:
    if not (SRC / "padeclust" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no padeclust sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import padeclust

    if Path(padeclust.__file__).resolve().parent != SRC / "padeclust":
        raise SystemExit(f"perfbench: padeclust imported from {padeclust.__file__}")


# ---------------------------------------------------------------------------
# machine block


def _getconf(name: str) -> Optional[int]:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    value = out.stdout.strip()
    return int(value) if value.isdigit() and int(value) > 0 else None


def machine() -> Dict:
    import mpmath
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(count: int) -> Tuple[float, List[float]]:
    """Median time from starting a fresh interpreter until it reports ready,
    having imported padeclust and made one call that loads LAPACK, over
    ``count`` interpreters.  Interpreter exit is not part of set-up."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or not ready:
                raise CheckFailed("the set-up interpreter did not get ready")
    return statistics.median(times), times


def expected_units(workload: str, config) -> int:
    schedule = WORKLOADS[workload]["schedule"]
    return config.trials * (len(getattr(config, schedule)) if schedule else 1)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_output(out_dir: Path, units: int) -> Tuple[str, int]:
    """Check one execute's artifacts; return the trials.csv sha256 and the
    number of failed units.  Raises CheckFailed naming the first problem."""
    csv_path = out_dir / "trials.csv"
    digest = _sha256(csv_path)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if manifest["digests"]["trials.csv"] != digest:
        raise CheckFailed("manifest digest of trials.csv does not match the file")
    summary = json.loads((out_dir / "summary.json").read_text())
    if summary["records"] != units:
        raise CheckFailed(f"summary has {summary['records']} records, expected {units}")
    failed = rows = 0
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header[:4]) != BASE_COLUMNS or len(header) <= 4:
            raise CheckFailed(f"unexpected trials.csv header {header}")
        for row in reader:
            rows += 1
            reason = row[3]
            if reason not in ALLOWED_REASONS:
                raise CheckFailed(f"trial {row[0]}: unknown reason {reason!r}")
            failed += reason in FAILED_REASONS
            if reason:
                continue
            if len(row) != len(header):
                raise CheckFailed(f"trial {row[0]}: {len(row)} cells, expected {len(header)}")
            for col, cell in zip(header[4:], row[4:]):
                if cell in ("true", "false"):
                    continue
                try:
                    ok = math.isfinite(float(cell))
                except ValueError:
                    ok = False
                if not ok:
                    raise CheckFailed(f"trial {row[0]}: column {col} is {cell!r}, not finite")
    if rows != units:
        raise CheckFailed(f"trials.csv has {rows} rows, expected {units}")
    return digest, failed


class Runner:
    """Runs one workload's execute calls and keeps their times and checks."""

    def __init__(self, workload: str, seed: int, out_dir: Path, trials: Optional[int]):
        from padeclust.experiments import default_config

        spec = WORKLOADS[workload]
        self.config = default_config(spec["protocol"], trials=trials or spec["trials"],
                                     seed=seed, workers=1)
        self.units = expected_units(workload, self.config)
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, set] = {"untraced": set(), "traced": set()}
        self.times: Dict[str, List[float]] = {"untraced": [], "traced": []}

    def warm_up(self) -> None:
        from padeclust.experiments import execute

        try:
            execute(replace(self.config, trials=1), self.out_dir / "warm-up")
        except Exception as exc:
            raise CheckFailed(f"warm-up execute raised {type(exc).__name__}: {exc}") from exc

    def run(self, kind: str, tracer=None) -> None:
        from padeclust.experiments import execute

        # A fresh directory per call: rewriting a file in place can make the
        # file system flush the old contents, which a first run never pays.
        out = self.out_dir / f"{kind}-{self.attempted}"
        self.attempted += self.units
        try:
            t0 = time.perf_counter()
            if tracer is None:
                execute(self.config, out)
            else:
                with tracer.traced_execute():
                    execute(self.config, out)
            elapsed = time.perf_counter() - t0
            digest, failed = check_output(out, self.units)
        except CheckFailed:
            self.failed += self.units
            raise
        except Exception as exc:  # any raise, InvariantViolation included, fails the run
            self.failed += self.units
            raise CheckFailed(f"execute raised {type(exc).__name__}: {exc}") from exc
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.failed += failed
        self.times[kind].append(elapsed)
        self.digests[kind].add(digest)


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _reference_line(workload: str, seed: int, digest: str, trials: int) -> str:
    ref = json.loads(REFERENCE.read_text())
    pinned = ref["trials.csv sha256"].get(workload)
    if seed != ref["seed"] or trials != WORKLOADS[workload]["trials"] or pinned is None:
        return f"trials.csv sha256 {digest} (no reference at seed {seed}, {trials} trials)"
    verdict = "match" if digest == pinned else f"MISMATCH for workload {workload}"
    return f"trials.csv sha256 {digest} reference {pinned} {verdict}"


def main(argv: Optional[List[str]] = None, trials: Optional[int] = None) -> int:
    """Run the benchmark; ``trials`` overrides the workload's trial count
    (used by the smoke test)."""
    args = _parse(argv)
    _import_padeclust()
    from tracer import Tracer

    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, out_dir, trials)
    metrics: Dict[str, Tuple[float, str]] = {}
    problems: List[str] = []
    tracer = Tracer() if args.trace else None
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"workload {args.workload}: protocol {runner.config.name}, "
          f"{runner.config.trials} trials, {runner.units} units per execute, "
          f"seed {args.seed}, trace {args.trace}")
    try:
        if not args.trace:
            setup_s, setup_times = measure_setup(SETUP_REPEATS)
            metrics["setup_s"] = (setup_s, "s")
            print("setup_s samples " + " ".join(f"{t:.4f}" for t in setup_times))
        runner.warm_up()
        deadline = time.perf_counter() + args.seconds
        while True:
            if args.trace:
                runner.run("untraced")
                runner.run("traced", tracer)
                done, minimum = len(runner.times["traced"]), MIN_TRACED_PAIRS
                step = statistics.median(runner.times["untraced"]) + statistics.median(
                    runner.times["traced"])
            else:
                runner.run("untraced")
                done, minimum = len(runner.times["untraced"]), MIN_REPEATS
                step = statistics.median(runner.times["untraced"])
            if done >= minimum and time.perf_counter() + step > deadline:
                break
    except CheckFailed as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass

    all_digests = runner.digests["untraced"] | runner.digests["traced"]
    if len(runner.digests["untraced"]) > 1:
        problems.append("untraced trials.csv differs between repeats at one seed")
    if args.trace and runner.digests["traced"] != runner.digests["untraced"]:
        problems.append("traced trials.csv differs from the untraced one")
    for digest in sorted(all_digests):
        print(_reference_line(args.workload, args.seed, digest, runner.config.trials))

    untraced = runner.times["untraced"]
    failed_frac = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"failed_frac {failed_frac!r} ({runner.failed} of {runner.attempted} units)")
    if untraced:
        q1, q2, q3 = _quartiles(untraced)
        print(f"run_s median {q2:.4f} s, quartiles {q1:.4f} / {q3:.4f} s over "
              f"{len(untraced)} untraced execute calls (too few for a percentile above the median)")
    if args.trace and runner.times["traced"] and untraced:
        traced_med = statistics.median(runner.times["traced"])
        overhead = traced_med / statistics.median(untraced) - 1.0
        print(f"traced run_s median {traced_med:.4f} s over {len(runner.times['traced'])} calls")
        metrics.update(tracer.metrics())
        metrics["experiments.trace_overhead_frac"] = (overhead, "ratio")
        metrics["failed_frac"] = (failed_frac, "ratio")
        shares = tracer.layer_shares()
        print("self-time share of traced execute: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])))
    elif not args.trace and untraced:
        metrics["run_s"] = (statistics.median(untraced), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["ok_frac"] = (1.0 - failed_frac, "ratio")

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
