import json

import numpy as np
import pytest

from padeclust import cli, svgplot
from padeclust.cluster import EmpiricalMeasure, radial_two_sided_check
from padeclust.errors import DegenerateInput, InvariantViolation, PadeclustError
from padeclust.pade import et_ratio
from padeclust.poly import Polynomial, find_roots


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pade_geometric_json(capsys):
    code, out, err = run_cli(capsys, "pade", "--coeffs", "1,1,1,1", "--m", "1", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == [1.0]
    assert payload["q"] == [1.0, -1.0]
    assert payload["diagnostics"]["order_residual"] <= 1e-14


def test_pade_singular_window_exit_2(capsys):
    code, out, err = run_cli(capsys, "pade", "--coeffs", "1,0,1,1", "--m", "1", "--n", "1")
    assert code == 2
    assert "A_1^(1)" in err


def test_pade_missing_n_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "pade", "--coeffs", "1,1,1,1", "--m", "1")
    assert code == 1
    assert "usage" in err


def test_pade_rejects_garbage_coeffs(capsys):
    code, out, err = run_cli(capsys, "pade", "--coeffs", "1,spam,3", "--m", "1", "--n", "1")
    assert code == 1


def test_roots_json_and_csv(capsys, tmp_path):
    coeffs = ",".join(["1"] + ["0"] * 15 + ["1"])  # 1 + z^16
    code, out, _ = run_cli(capsys, "roots", "--coeffs", coeffs)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 16
    assert payload["converged"] is True
    for re_, im_ in payload["roots"]:
        assert abs(complex(re_, im_)) == pytest.approx(1.0, abs=1e-9)

    code, out, _ = run_cli(capsys, "roots", "--coeffs", coeffs, "--format", "csv",
                           "--out", str(tmp_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,modulus,angle"
    assert len(lines) == 17
    assert (tmp_path / "roots.csv").is_file()


def test_roots_from_file(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("1 0 0 -1\n")
    code, out, _ = run_cli(capsys, "roots", "--coeffs-file", str(path))
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_cluster_report_flags(capsys):
    coeffs = ",".join(["1"] + ["0"] * 31 + ["1"])
    code, out, _ = run_cli(capsys, "cluster-report", "--coeffs", coeffs)
    assert code == 0
    payload = json.loads(out)
    assert payload["et_log"] == pytest.approx(np.log(2.0))
    assert all(payload["flags"].values())
    assert payload["sector"]["max_discrepancy"] <= payload["sector"]["bound"]


def test_cluster_report_flags_are_the_enforced_ceiling(capsys):
    # z^32 - 0.72^32: every root at modulus 0.72, so the defect at rho = 0.2
    # is 1.0; the runner accepts it under the two-sided ceiling
    coeffs = [-(0.72 ** 32)] + [0.0] * 31 + [1.0]
    code, out, _ = run_cli(capsys, "cluster-report", "--coeffs=" + ",".join(map(repr, coeffs)))
    assert code == 0
    payload = json.loads(out)
    assert all(payload["flags"].values())
    poly = Polynomial(coeffs)
    expected = radial_two_sided_check(EmpiricalMeasure(find_roots(poly)), et_ratio(poly), 0.2)
    assert payload["radial"]["0.2"] == {"defect": 1.0, "bound": expected.bound}
    assert expected.bound == pytest.approx(1.8018, abs=1e-4)


def test_cluster_report_non_finite_coeffs_exit_2(capsys):
    code, out, err = run_cli(capsys, "cluster-report", "--coeffs", "1,nan,1")
    assert code == 2
    assert "not finite" in err


@pytest.mark.parametrize("command, extra", [
    ("pade", ("--m", "1", "--n", "1")),
    ("roots", ()),
    ("cluster-report", ()),
])
def test_coeffs_value_may_start_with_a_minus_sign(capsys, command, extra):
    # --coeffs -1,1,1 is the same list as --coeffs=-1,1,1, not an option
    code, spaced, err = run_cli(capsys, command, "--coeffs", "-1,1,1", *extra)
    assert (code, err) == (0, "")
    assert run_cli(capsys, command, "--coeffs=-1,1,1", *extra) == (0, spaced, "")
    assert run_cli(capsys, command, *extra, "--coeffs", "-1,1,1") == (0, spaced, "")


def test_experiment_run_round_trip(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "m": [8, 16], "n": 1, "trials": 20}))
    out_a = tmp_path / "a"
    code, out, err = run_cli(capsys, "experiment", "run", "et-clustering",
                             "--config", str(cfg), "--trials", "6", "--seed", "42",
                             "--out", str(out_a))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["summary"]["trials"] == 6
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["config"]["trials"] == 6
    assert manifest["config"]["seed"] == 42
    assert manifest["seed"] == 42

    # manifest echo -> re-run reproduces identical digests
    out_b = tmp_path / "b"
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps(manifest["config"]))
    code, out, err = run_cli(capsys, "experiment", "run", "et-clustering",
                             "--config", str(cfg2), "--out", str(out_b))
    assert code == 0, err
    again = json.loads((out_b / "manifest.json").read_text())
    assert again["digests"]["trials.csv"] == manifest["digests"]["trials.csv"]
    assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()


def test_experiment_invalid_name_lists_valid(capsys):
    code, out, err = run_cli(capsys, "experiment", "run", "not-a-protocol")
    assert code == 1
    assert "et-clustering" in err


def test_experiment_bad_config_json(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, out, err = run_cli(capsys, "experiment", "run", "det-growth", "--config", str(cfg))
    assert code == 1


def test_experiment_negative_seed_is_a_config_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "experiment", "run", "toeplitz-anticoncentration",
                             "--seed", "-1", "--trials", "2", "--out", str(tmp_path / "run"))
    assert code == 1
    assert "config error" in err and "seed" in err
    assert not (tmp_path / "run").exists()


def test_experiment_fractional_config_entry_is_a_config_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": [1.5, 2]}))
    code, out, err = run_cli(capsys, "experiment", "run", "et-clustering",
                             "--config", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 1
    assert "config error: m takes whole numbers" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("entry, key", [
    ({"trials": "5"}, "trials"),
    ({"delta": "a"}, "delta"),
    ({"spec": "gaussian"}, "spec"),
    ({"epsilon_grid": [0.1, None]}, "epsilon_grid"),
])
def test_experiment_mistyped_config_entry_is_a_config_error(entry, key, capsys, tmp_path):
    # a wrong JSON type is caught when the config is built, before sampling
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    code, out, err = run_cli(capsys, "experiment", "run", "et-clustering",
                             "--config", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 1
    assert f"config error: {key} " in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_experiment_missing_config_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "experiment", "run", "det-growth",
                             "--config", str(tmp_path / "absent.json"))
    assert code == 1


def test_plot_scatter_marker_count(capsys, tmp_path):
    coeffs = ",".join(["1"] + ["0"] * 63 + ["1"])  # 1 + z^64
    code, _, _ = run_cli(capsys, "roots", "--coeffs", coeffs, "--out", str(tmp_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "plot", str(tmp_path))
    assert code == 0
    svg = (tmp_path / "roots.svg").read_text()
    assert svg.count('class="pt"') == 64
    assert svg.count('class="ring"') == 1
    assert "stroke-dasharray" in svg


def test_plot_et_run_emits_line_charts(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "experiment", "run", "et-clustering",
                           "--trials", "5", "--out", str(out_dir))
    assert code == 0, err
    code, out, _ = run_cli(capsys, "plot", str(out_dir))
    assert code == 0
    written = json.loads(out)["written"]
    names = {p.rsplit("/", 1)[-1] for p in written}
    assert "et_decay.svg" in names
    assert "clustering_metrics.svg" in names


def test_plot_zero_radius_run(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 48, "s_list": [4, 8], "r_schedule": [0.9]}))
    out_dir = tmp_path / "zr"
    code, _, err = run_cli(capsys, "experiment", "run", "zero-radius",
                           "--config", str(cfg), "--trials", "3", "--out", str(out_dir))
    assert code == 0, err
    code, out, _ = run_cli(capsys, "plot", str(out_dir))
    assert code == 0
    assert (out_dir / "radius_norm.svg").is_file()


@pytest.mark.parametrize("name, config, chart, series", [
    ("det-growth", {"m": [8, 16, 32], "trials": 3}, "det_growth.svg", 1),
    ("pole-clustering", {"N": 40, "n": [4, 6], "trials": 2}, "pole_deviation.svg", 1),
    ("toeplitz-anticoncentration", {"n": [2, 3], "trials": 20}, "det_cdf.svg", 2),
])
def test_plot_emits_the_protocol_chart(capsys, tmp_path, name, config, chart, series):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "experiment", "run", name, "--config", str(cfg),
                           "--out", str(out_dir))
    assert code == 0, err
    code, out, _ = run_cli(capsys, "plot", str(out_dir))
    assert code == 0
    assert [p.rsplit("/", 1)[-1] for p in json.loads(out)["written"]] == [chart]
    assert (out_dir / chart).read_text().count('class="series"') == series


def test_plot_empty_directory_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "plot", str(tmp_path))
    assert code == 2
    code, out, err = run_cli(capsys, "plot", str(tmp_path / "missing"))
    assert code == 2


def test_svg_scatter_empty_rejected():
    with pytest.raises(DegenerateInput):
        svgplot.render_scatter([])


def test_svg_lines_basic_and_degenerate():
    svg = svgplot.render_lines([("a", [1, 2, 3], [0.5, 0.25, 0.125])],
                               title="t", xlabel="x", ylabel="y")
    assert svg.startswith("<svg")
    assert svg.count('class="series"') == 1
    with pytest.raises(DegenerateInput):
        svgplot.render_lines([("a", [1.0], [float("nan")])])


def test_roots_converge_for_large_coefficients(capsys):
    code, out, err = run_cli(capsys, "roots", "--coeffs", "1e12,3e12,1e12")
    assert (code, err) == (0, "")
    assert json.loads(out)["converged"] is True


@pytest.mark.parametrize("name, entry, key", [
    # fields these protocols never read
    ("zero-radius", {"m": [5], "n": [3], "epsilon_grid": [-1.0], "N": 64}, "m"),
    ("det-growth", {"N": 3, "r_schedule": [7.0]}, "N"),
])
def test_experiment_unread_config_field_is_a_config_error(name, entry, key, capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**entry, "trials": 2}))
    code, out, err = run_cli(capsys, "experiment", "run", name, "--config", str(cfg),
                             "--out", str(tmp_path / "run"))
    assert code == 1
    assert f"config error: {name} does not read {key};" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name", ["toeplitz-anticoncentration", "det-growth"])
def test_experiment_precision_is_a_config_error_where_unread(name, capsys, tmp_path):
    # their LU solves and sampling never read precision
    code, out, err = run_cli(capsys, "experiment", "run", name, "--precision", "extended",
                             "--trials", "2", "--out", str(tmp_path / "run"))
    assert code == 1
    assert "config error:" in err and "precision" in err
    assert not (tmp_path / "run").exists()


def test_experiment_config_name_must_match_the_run(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "det-growth", "m": [8], "n": 2, "trials": 2}))
    code, out, err = run_cli(capsys, "experiment", "run", "et-clustering", "--config", str(cfg),
                             "--out", str(tmp_path / "et"))
    assert code == 1
    assert "config error:" in err and "name" in err
    assert not (tmp_path / "et").exists()
    code, out, err = run_cli(capsys, "experiment", "run", "det-growth", "--config", str(cfg),
                             "--out", str(tmp_path / "det"))
    assert code == 0, err
    assert json.loads((tmp_path / "det" / "manifest.json").read_text())["config"]["m"] == [8]


def _error_classes(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", sorted(set(_error_classes(PadeclustError)),
                                         key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_exit_code_follows_the_error_hierarchy(error, capsys, monkeypatch):
    # every PadeclustError, a future subclass included, is a domain error
    # (exit 2) except an InvariantViolation (exit 3)
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_roots", fail)
    code, out, err = run_cli(capsys, "roots", "--coeffs", "1,1")
    if issubclass(error, InvariantViolation):
        assert (code, err) == (3, "padeclust: invariant breach: boom\n")
    else:
        assert (code, err) == (2, "padeclust: boom\n")


@pytest.mark.parametrize("error", [ValueError, OSError, FileNotFoundError, IsADirectoryError,
                                   NotADirectoryError, PermissionError],
                         ids=lambda c: c.__name__)
def test_value_and_os_errors_exit_1(error, capsys, monkeypatch):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_roots", fail)
    code, out, err = run_cli(capsys, "roots", "--coeffs", "1,1")
    label = "config" if error is ValueError else "path"
    assert (code, err) == (1, f"padeclust: {label} error: boom\n")


def test_unusable_paths_are_config_errors(capsys, tmp_path):
    # a directory where a file is read, and a file where a directory is made
    a_file = tmp_path / "f.txt"
    a_file.write_text("1 1\n")
    for argv, os_error in [
        (("roots", "--coeffs-file", str(tmp_path)), "Is a directory"),
        (("experiment", "run", "det-growth", "--config", str(tmp_path)), "Is a directory"),
        (("experiment", "run", "det-growth", "--trials", "2", "--out", str(a_file / "x")),
         "Not a directory"),
        (("roots", "--coeffs", "1,1", "--out", str(a_file / "x")), "Not a directory"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("padeclust: path error: ") and os_error in err, err
        assert err.count("\n") == 1 and "Traceback" not in err
