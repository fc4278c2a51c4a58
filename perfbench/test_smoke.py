"""Smoke test of the benchmark at tiny trial counts.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the traced run writes the same trials.csv as the untraced one, and that
another seed gives other inputs while the output check still passes.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_TRIALS = {"et-sweep": 2, "long-series": 1, "window-scan": 20}


def _run(capsys, workload: str, seed: int, trace: int):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv, trials=TINY_TRIALS[workload])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def _digests(lines):
    return [line.split()[2] for line in lines if line.startswith("trials.csv sha256")]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_printed_with_unit(capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result, _ = _run(capsys, workload, 0, trace)
        assert code == 0 and result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCH[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_digest_matches_untraced(capsys, workload):
    code, result, lines = _run(capsys, workload, 0, 1)
    assert code == 0 and result["correct"] is True
    assert len(_digests(lines)) == 1
    assert not any(line.startswith("CHECK FAILED") for line in lines)


def test_traced_names_are_restored():
    run._import_padeclust()
    from padeclust import experiments
    from tracer import WRAPPED, Tracer

    before = {name: getattr(experiments, name) for name in WRAPPED}
    with Tracer().traced_execute():
        assert all(getattr(experiments, name) is not fn for name, fn in before.items())
    assert all(getattr(experiments, name) is fn for name, fn in before.items())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_seed_changes_inputs(capsys, workload):
    digests = []
    for seed in (0, 1):
        code, result, lines = _run(capsys, workload, seed, 0)
        assert code == 0 and result["correct"] is True
        digests += _digests(lines)
    assert len(digests) == 2 and digests[0] != digests[1]


def test_output_check_rejects_non_finite(tmp_path):
    (tmp_path / "trials.csv").write_text(
        "trial,degenerate,excluded,reason,n,det_abs_root\n0,false,false,,2,nan\n")
    digest = run._sha256(tmp_path / "trials.csv")
    (tmp_path / "manifest.json").write_text(json.dumps({"digests": {"trials.csv": digest}}))
    (tmp_path / "summary.json").write_text(json.dumps({"records": 1}))
    with pytest.raises(run.CheckFailed, match="not finite"):
        run.check_output(tmp_path, 1)
