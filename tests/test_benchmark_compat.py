"""The benchmark's tracer (perfbench/tracer.py) wraps names that
padeclust.experiments resolves at call time and reads their arguments, e.g.
``args[0].degree`` on every ``find_roots`` call.  A change to those names or
their call shapes makes every traced run fail; this test catches it in
tier-1, with the tracer loaded unedited from the benchmark directory."""

import importlib.util
from pathlib import Path

from padeclust import experiments as ex

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_execute_matches_untraced(tmp_path):
    tracer = _load_tracer().Tracer()
    for name, overrides in ((ex.ET_CLUSTERING, dict(m=(8, 16), n=1, trials=3)),
                            (ex.ZERO_RADIUS, dict(N=48, trials=2))):
        cfg = ex.default_config(name, **overrides)
        ex.execute(cfg, tmp_path / name / "plain")
        with tracer.traced_execute():
            ex.execute(cfg, tmp_path / name / "traced")
        plain, traced = ((tmp_path / name / tag / "trials.csv").read_bytes()
                         for tag in ("plain", "traced"))
        assert traced == plain
    metrics = tracer.metrics()
    assert metrics["poly.find_roots.nonconvergence"][0] == 0
    assert metrics["pade.pade.calls"][0] > 0
