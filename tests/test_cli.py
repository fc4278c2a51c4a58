import json

import numpy as np
import pytest

from padeclust import cli, svgplot
from padeclust.errors import DegenerateInput, MissingData


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


def test_cluster_report_non_finite_coeffs_exit_2(capsys):
    code, out, err = run_cli(capsys, "cluster-report", "--coeffs", "1,nan,1")
    assert code == 2
    assert "not finite" in err


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
    manifest = cli.RunManifest.load(out_a)
    assert manifest.config["trials"] == 6
    assert manifest.config["seed"] == 42
    assert manifest.seed == 42

    # manifest echo -> re-run reproduces identical digests
    out_b = tmp_path / "b"
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps(manifest.config))
    code, out, err = run_cli(capsys, "experiment", "run", "et-clustering",
                             "--config", str(cfg2), "--out", str(out_b))
    assert code == 0, err
    again = cli.RunManifest.load(out_b)
    assert again.digests["trials.csv"] == manifest.digests["trials.csv"]
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


def test_plot_empty_directory_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "plot", str(tmp_path))
    assert code == 2
    code, out, err = run_cli(capsys, "plot", str(tmp_path / "missing"))
    assert code == 2


def test_run_manifest_load_missing(tmp_path):
    with pytest.raises(MissingData):
        cli.RunManifest.load(tmp_path)


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
