"""Command-line front end: approximant queries, experiment dispatch and SVG
plot emission.

Exit codes follow the error hierarchy: 0 success; 1 a usage or config
problem (ValueError) or an unusable path (any OSError); 2 any other
PadeclustError; 3 an InvariantViolation, a broken deterministic invariant.
All numeric output goes through repr/json formatting, so it is
locale-independent and round-trips exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__, svgplot
from .cluster import DEFAULT_FAMILY, DEFAULT_GRID, EmpiricalMeasure, clustering_report
from .errors import DegenerateInput, InvariantViolation, MissingData, PadeclustError
from .experiments import PROTOCOLS, ExperimentConfig, execute
from .pade import et_ratio, pade
from .poly import Polynomial, find_roots

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this front end reserves 2 for
    domain errors, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_value(tok: str):
    try:
        return float(tok)
    except ValueError:
        return complex(tok.replace(" ", ""))


def _coeffs_from_args(args) -> np.ndarray:
    if getattr(args, "coeffs", None) is not None:
        tokens = [t for t in args.coeffs.replace(";", ",").split(",") if t.strip()]
    else:
        text = Path(args.coeffs_file).read_text()
        tokens = text.replace(",", " ").split()
    values = [_parse_value(t.strip()) for t in tokens]
    if not values:
        raise DegenerateInput("no coefficients given")
    # complex128 when any token is complex, float64 otherwise
    return np.asarray(values)


def _num_list(arr: np.ndarray) -> List:
    if np.iscomplexobj(arr):
        return [[float(z.real), float(z.imag)] for z in arr]
    return [float(x) for x in arr]


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands


def cmd_pade(args) -> int:
    coeffs = _coeffs_from_args(args)
    pair = pade(coeffs, args.m, args.n, precision=args.precision)
    _emit({
        "m": pair.m,
        "n": pair.n,
        "p": _num_list(pair.p.coeffs[: pair.p.degree + 1]),
        "q": _num_list(pair.q.coeffs[: pair.q.degree + 1]),
        "diagnostics": {k: float(v) for k, v in pair.diagnostics.items()},
    })
    return EXIT_OK


def cmd_roots(args) -> int:
    coeffs = _coeffs_from_args(args)
    roots = find_roots(Polynomial(coeffs), precision=args.precision)
    rows = [
        (float(z.real), float(z.imag), float(abs(z)), float(np.mod(np.angle(z), 2 * np.pi)))
        for z in roots.roots
    ]
    text = "re,im,modulus,angle\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    out_path: Optional[Path] = None
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / "roots.csv"
        out_path.write_text(text, newline="")
    if args.format == "csv":
        print(text, end="")
    else:
        payload = {
            "count": len(rows),
            "converged": bool(roots.converged),
            "roots": [[r[0], r[1]] for r in rows],
        }
        if out_path is not None:
            payload["written"] = str(out_path)
        _emit(payload)
    return EXIT_OK


def cmd_cluster_report(args) -> int:
    coeffs = _coeffs_from_args(args)
    poly = Polynomial(coeffs)
    roots = find_roots(poly, precision=args.precision)
    rep = clustering_report(
        EmpiricalMeasure(roots), et_ratio(poly),
        grid_size=args.grid, family_size=args.family,
    )
    _emit({
        "et_log": rep.et_log,
        "radial": {
            repr(float(rho)): {
                "defect": rep.radial_defect[rho],
                "bound": rep.radial_bound[rho],
            }
            for rho in rep.radial_defect
        },
        "sector": {
            "max_discrepancy": rep.max_sector_discrepancy,
            "bound": rep.sector_bound,
        },
        "bl": {"upper": rep.bl_upper, "lower_estimate": rep.bl_lower_estimate},
        "flags": dict(rep.inequality_flags),
    })
    return EXIT_OK


def cmd_experiment_run(args) -> int:
    cfg_dict = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(cfg_dict, dict):
        raise ValueError("config file must hold a JSON object")
    if cfg_dict.setdefault("name", args.name) != args.name:
        raise ValueError(f"config name {cfg_dict['name']!r} is not the run's {args.name!r}")
    # the command-line values override the file's, and the config is built once
    cfg_dict.update({key: getattr(args, key) for key in ("trials", "seed", "workers", "precision")
                     if getattr(args, key) is not None})
    config = ExperimentConfig.from_dict(cfg_dict)
    out_dir = Path(args.out) if args.out else Path("runs") / args.name
    summary = execute(config, out_dir)
    _emit({"run_dir": str(out_dir), "summary": summary})
    return EXIT_OK


def _medians_by(rows: List[Dict[str, str]], key_col: str, val_col: str):
    buckets: Dict[float, List[float]] = {}
    for row in rows:
        key, val = row.get(key_col, ""), row.get(val_col, "")
        if key and val:
            buckets.setdefault(float(key), []).append(float(val))
    keys = sorted(buckets)
    return keys, [float(np.median(np.sort(np.asarray(buckets[k])))) for k in keys]


# The median line charts of a trials.csv: (file, title, x column, y label,
# logx, series), each series a (label, y column) pair.  A chart is drawn
# when one of its series has data.
_MEDIAN_CHARTS = (
    ("et_decay.svg", "End-coefficient ratio decay", "m", "log L / m", False,
     (("median log L / m", "et_log_over_m"),)),
    ("clustering_metrics.svg", "Clustering metrics vs m", "m", "median", False,
     (("max radial defect", "max_radial_defect"), ("sector discrepancy", "sector_discrepancy"))),
    ("pole_deviation.svg", "Denominator zeros vs target circle", "n", "deviation", False,
     (("median |modulus - R_m|", "median_abs_dev"),)),
    ("det_growth.svg", "Normalized determinant growth", "m", "deviation", True,
     (("median |growth - 1|", "deviation"),)),
)


def _plot_trials(rows: List[Dict[str, str]], columns: Sequence[str], out: Path) -> List[Path]:
    written: List[Path] = []

    def save(name: str, svg: str) -> None:
        path = out / name
        path.write_text(svg + "\n")
        written.append(path)

    for name, title, x_col, ylabel, logx, series in _MEDIAN_CHARTS:
        lines = [(label, *_medians_by(rows, x_col, col)) for label, col in series]
        lines = [line for line in lines if line[1]]
        if lines:
            save(name, svgplot.render_lines(lines, title=title, xlabel=x_col, ylabel=ylabel,
                                            logx=logx))
    rs_cols = [c for c in columns if c.startswith("rs_norm_s")]
    if rs_cols:
        ss, meds = [], []
        for col in sorted(rs_cols, key=lambda c: int(c[len("rs_norm_s"):])):
            vals = [float(r[col]) for r in rows if r.get(col)]
            if vals:
                ss.append(int(col[len("rs_norm_s"):]))
                meds.append(float(np.median(np.sort(np.asarray(vals)))))
        if ss:
            save("radius_norm.svg", svgplot.render_lines(
                [("median (1-R_s) s / log s", ss, meds)],
                title="Normalized radius of the s-th smallest zero",
                xlabel="s", ylabel="(1-R_s) s / log s", logx=True,
            ))
    if "det_abs_root" in columns:
        series = []
        by_n: Dict[str, List[float]] = {}
        for row in rows:
            if row.get("det_abs_root"):
                by_n.setdefault(row.get("n", "?"), []).append(float(row["det_abs_root"]))
        for n_key in sorted(by_n, key=lambda s: float(s)):
            vals = np.sort(np.asarray(by_n[n_key]))
            ranks = np.arange(1, len(vals) + 1) / len(vals)
            step = max(1, len(vals) // 200)
            series.append((f"n={n_key}", vals[::step], ranks[::step]))
        if series:
            save("det_cdf.svg", svgplot.render_lines(
                series, title="Empirical CDF of |det A|^(1/n)",
                xlabel="eps", ylabel="P(|det A|^(1/n) < eps)",
            ))
    return written


def cmd_plot(args) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():  # an unusable path, like every other (exit 1)
        raise NotADirectoryError(f"{run_dir} is not a directory")
    out = Path(args.out) if args.out else run_dir
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    roots_csv = run_dir / "roots.csv"
    if roots_csv.is_file():
        with open(roots_csv, newline="") as fh:
            pts = [complex(float(r["re"]), float(r["im"])) for r in csv.DictReader(fh)]
        if pts:
            path = out / "roots.svg"
            path.write_text(svgplot.render_scatter(pts, rings=(1.0,), title="Zeros") + "\n")
            written.append(path)
    trials_csv = run_dir / "trials.csv"
    if trials_csv.is_file():
        with open(trials_csv, newline="") as fh:
            reader = csv.DictReader(fh)
            columns = reader.fieldnames or []
            rows = list(reader)
        written += _plot_trials(rows, columns, out)
    if not written:
        raise MissingData(f"{run_dir} contains no roots.csv or plottable trials.csv")
    _emit({"written": [str(p) for p in written]})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def _add_coeff_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--coeffs", help="comma-separated coefficient list, constant term first")
    group.add_argument("--coeffs-file", help="file of whitespace/comma-separated coefficients")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="padeclust",
                     description="Pade approximants of random power series and "
                                 "clustering of their zeros and poles.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pade = sub.add_parser("pade", help="solve one [m,n] approximant")
    _add_coeff_flags(p_pade)
    p_pade.add_argument("--m", type=int, required=True)
    p_pade.add_argument("--n", type=int, required=True)
    p_pade.add_argument("--precision", choices=("double", "extended"), default="double")
    p_pade.set_defaults(fn=cmd_pade)

    p_roots = sub.add_parser("roots", help="zeros of the polynomial with given coefficients")
    _add_coeff_flags(p_roots)
    p_roots.add_argument("--precision", choices=("double", "extended"), default="double")
    p_roots.add_argument("--format", choices=("json", "csv"), default="json")
    p_roots.add_argument("--out", help="directory to receive roots.csv")
    p_roots.set_defaults(fn=cmd_roots)

    p_rep = sub.add_parser("cluster-report",
                           help="deterministic clustering bounds for one polynomial")
    _add_coeff_flags(p_rep)
    p_rep.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p_rep.add_argument("--family", type=int, default=DEFAULT_FAMILY)
    p_rep.add_argument("--precision", choices=("double", "extended"), default="double")
    p_rep.set_defaults(fn=cmd_cluster_report)

    p_exp = sub.add_parser("experiment", help="run a named Monte Carlo protocol")
    exp_sub = p_exp.add_subparsers(dest="action", required=True)
    p_run = exp_sub.add_parser("run")
    p_run.add_argument("name", choices=PROTOCOLS)
    p_run.add_argument("--config", help="JSON config file (schema_version 1)")
    p_run.add_argument("--trials", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", help="run directory (default: runs/<name>)")
    p_run.add_argument("--workers", type=int)
    p_run.add_argument("--precision", choices=("double", "extended"))
    p_run.set_defaults(fn=cmd_experiment_run)

    p_plot = sub.add_parser("plot", help="emit SVG charts for a run directory")
    p_plot.add_argument("run_dir")
    p_plot.add_argument("--out", help="directory for the SVG files (default: run_dir)")
    p_plot.set_defaults(fn=cmd_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with '-' (--coeffs -1,0,1) as an
    # option; the joined form --coeffs=-1,0,1 is always read as the value
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--coeffs" and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = [f"--coeffs={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ValueError as exc:
        print(f"padeclust: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"padeclust: path error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"padeclust: invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except PadeclustError as exc:
        print(f"padeclust: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
