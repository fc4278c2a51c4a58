import csv
import dataclasses
import hashlib
import json
import math
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padeclust import experiments as ex
from padeclust.errors import DegenerateInput, InvariantViolation, NonConvergence
from padeclust.sampler import DISCRETE, GAUSSIAN, distribution, sample


def test_default_config_known_names():
    for name in ex.PROTOCOLS:
        cfg = ex.default_config(name)
        assert cfg.name == name
        assert cfg.trials >= 1
    with pytest.raises(ValueError, match="unknown experiment"):
        ex.default_config("no-such-protocol")
    with pytest.raises(ValueError, match="unknown experiment"):
        ex.ExperimentConfig(name="no-such-protocol", spec=distribution(GAUSSIAN))


def test_config_json_round_trip():
    for name in ex.PROTOCOLS:
        cfg = ex.default_config(name, trials=7, seed=42)
        blob = json.dumps(cfg.to_dict())
        back = ex.ExperimentConfig.from_dict(json.loads(blob))
        assert back.to_dict() == cfg.to_dict()


def test_config_from_dict_rejects_bad_input():
    with pytest.raises(ValueError):
        ex.ExperimentConfig.from_dict({"name": "bogus"})
    with pytest.raises(ValueError):
        ex.ExperimentConfig.from_dict({"name": ex.ET_CLUSTERING, "schema_version": 99})


@pytest.mark.parametrize("override, field", [
    (dict(trials=0), "trials"),
    (dict(trials=-3), "trials"),
    (dict(workers=0), "workers"),
    (dict(workers=-1), "workers"),
    (dict(precision="foo"), "precision"),
    (dict(seed=-1), "seed"),
    (dict(seed=1.5), "seed"),
    (dict(trials=2.5), "trials"),
    (dict(seed=True), "seed"),
    (dict(trials=np.bool_(True)), "trials"),
    (dict(workers=math.nan), "workers"),
    (dict(trials=[2]), "trials"),
    (dict(trials="2"), "trials"),
    (dict(N=2.5), r"\bN\b"),
    (dict(delta=float("nan")), "delta"),
    (dict(r_schedule="1"), "r_schedule"),
    (dict(m=(10, 10)), r"\bm has duplicate"),
    (dict(n=(3, 3)), r"\bn has duplicate"),
    (dict(r_schedule=(0.9, 0.95, 0.9)), "r_schedule has duplicate"),
    (dict(s_list=(4, 4)), "s_list has duplicate"),
    (dict(epsilon_grid=(0.1, 0.1)), "epsilon_grid has duplicate"),
    (dict(rhos=(0.05, 0.05)), "rhos has duplicate"),
])
def test_config_rejects_out_of_range_fields(override, field):
    with pytest.raises(ValueError, match=field):
        ex.default_config(ex.DET_GROWTH, **override)
    with pytest.raises(ValueError, match=field):
        ex.ExperimentConfig.from_dict({**ex.default_config(ex.DET_GROWTH).to_dict(), **override})


@pytest.mark.parametrize("build, key", [
    (lambda: ex.ExperimentConfig.from_dict({"name": ex.ET_CLUSTERING, "m": [1.5, 2]}), r"\bm\b"),
    (lambda: ex.default_config(ex.DET_GROWTH, n=2.7), r"\bn\b"),
    (lambda: ex.ExperimentConfig.from_dict({"name": ex.ZERO_RADIUS, "s_list": [4.5, 8]}),
     "s_list"),
    (lambda: ex.ExperimentConfig.from_dict({"name": ex.ZERO_RADIUS, "r_schedule": "1"}),
     "r_schedule"),
    (lambda: ex.ExperimentConfig.from_dict({"name": ex.DET_GROWTH, "trails": 5}), "trails"),
], ids=["fractional-m", "fractional-n", "fractional-s", "string-for-a-list", "unknown-key"])
def test_config_rejects_entries_it_would_truncate_or_split(build, key):
    # each of these used to run: m = (1, 2), n = 2, s_list = (4, 8),
    # r_schedule = (1.0,) read one character at a time, and a misspelt
    # key dropped without a word
    with pytest.raises(ValueError, match=key):
        build()


def test_whole_float_s_list_entries_are_stored_as_ints():
    # s = 8.0 would name the column rs_norm_s8.0 and index the moduli with a float
    cfg = ex.default_config(ex.ZERO_RADIUS, s_list=(8.0, 4), N=32, r_schedule=(0.9,), trials=2)
    assert cfg.s_list == (8, 4) and all(type(s) is int for s in cfg.s_list)
    block, _ = ex.run(cfg)
    assert tuple(block.values)[-2:] == ("rs_norm_s8", "rs_norm_s4")


@pytest.mark.parametrize("name, overrides, field", [
    (ex.POLE_CLUSTERING, dict(n=(0,)), r"\bn\b"),
    (ex.POLE_CLUSTERING, dict(n=(8, 0)), r"\bn\b"),
    (ex.POLE_CLUSTERING, dict(m=-1), r"\bm\b"),
    (ex.POLE_CLUSTERING, dict(m=(1, 2)), r"\bm\b"),
    (ex.POLE_CLUSTERING, dict(rhos=()), "rhos"),
    (ex.ZERO_RADIUS, dict(rhos=()), "rhos"),
    (ex.ZERO_RADIUS, dict(s_list=()), "s_list"),
    (ex.ET_CLUSTERING, dict(n=(1, 2)), r"\bn\b"),
    (ex.ET_CLUSTERING, dict(m=(0, 8)), r"\bm\b"),
    (ex.ET_CLUSTERING, dict(rhos=()), "rhos"),
    (ex.DISCRETE_EXAMPLE, dict(n=(1, 2)), r"\bn\b"),
    (ex.DISCRETE_EXAMPLE, dict(n=0), r"\bn\b"),
    (ex.DET_GROWTH, dict(n=(1, 2)), r"\bn\b"),
    (ex.ET_CLUSTERING, dict(grid_size=3), "grid_size"),
    (ex.ET_CLUSTERING, dict(family_size=7), "family_size"),
    (ex.ET_CLUSTERING, dict(rhos=(0.1, 0.0)), "rhos"),
    (ex.ET_CLUSTERING, dict(rhos=(1.5,)), "rhos"),
    (ex.DISCRETE_EXAMPLE, dict(grid_size=0), "grid_size"),
    (ex.DISCRETE_EXAMPLE, dict(rhos=(-0.1,)), "rhos"),
    (ex.ZERO_RADIUS, dict(family_size=4), "family_size"),
    (ex.ZERO_RADIUS, dict(rhos=(0.05, 2.0)), "rhos"),
    (ex.POLE_CLUSTERING, dict(grid_size=2), "grid_size"),
    (ex.POLE_CLUSTERING, dict(rhos=(math.nan,)), "rhos"),
    # log1p(-r^2) has no value at r >= 1, and the zero-counting integral
    # none at r = 0
    (ex.ZERO_RADIUS, dict(r_schedule=(1.5,)), "r_schedule"),
    (ex.ZERO_RADIUS, dict(r_schedule=(0.0,)), "r_schedule"),
    # P(|det A|^(1/n) < eps) <= nK eps is a statement about eps > 0
    (ex.ANTICONCENTRATION, dict(n=(2,), epsilon_grid=(-0.1,)), "epsilon_grid"),
])
def test_protocol_rejects_bad_schedule_before_sampling(name, overrides, field):
    # the config is checked when it is built, so nothing can be sampled
    with pytest.raises(ValueError, match=field):
        ex.default_config(name, trials=2, **overrides)


def test_et_clustering_structure_and_decay():
    cfg = ex.default_config(ex.ET_CLUSTERING, m=(10, 40), n=1, trials=30)
    recs, summ = ex.run(cfg)
    assert tuple(recs.values) == ex.ET_COLUMNS
    assert len(recs) == 30 * 2
    assert set(recs.values["m"]) == {10, 40}
    med10 = summ["per_m"]["10"]["median_et_log_over_m"]
    med40 = summ["per_m"]["40"]["median_et_log_over_m"]
    assert med40 < med10
    assert summ["medians_strictly_decreasing"] is True
    # the chain bounds are recorded alongside the ratio on every good row
    good = [i for i in range(len(recs)) if not (recs.degenerate[i] or recs.excluded[i])]
    assert good
    for i in good:
        assert recs.values["et_log"][i] <= recs.values["log_l1_bound"][i] + 1e-6
        assert recs.values["max_radial_defect"][i] >= 0.0


def test_et_clustering_rejects_short_series():
    with pytest.raises(ValueError, match="N must be"):
        ex.default_config(ex.ET_CLUSTERING, m=(10,), n=1, trials=2, N=5)


def test_discrete_example_runs_and_fits():
    cfg = ex.default_config(ex.DISCRETE_EXAMPLE, spec=distribution(DISCRETE, M=3),
                            m=(12, 24, 48), n=3, trials=25)
    recs, summ = ex.run(cfg)
    assert len(recs) == 25 * 3
    assert "affine_model" in summ
    assert summ["affine_model"]["x"] == "n*log(n*M)/m"
    assert 0.0 <= summ["degenerate_fraction"] <= 1.0


def test_discrete_example_requires_discrete_spec():
    with pytest.raises(ValueError, match="discrete_pm_M"):
        ex.default_config(ex.DISCRETE_EXAMPLE, spec=distribution(GAUSSIAN))


def test_anticoncentration_matches_scalar_law():
    # n = 1 makes the window a single draw: P(|a_0| < eps) = erf(eps / sqrt(2))
    cfg = ex.default_config(ex.ANTICONCENTRATION, n=(1,), trials=4000,
                            epsilon_grid=(0.1, 0.5))
    recs, summ = ex.run(cfg)
    assert len(recs) == 4000
    for eps in (0.1, 0.5):
        p_hat = summ["per_n"]["1"]["cdf"][repr(eps)]
        expected = math.erf(eps / math.sqrt(2.0))
        assert abs(p_hat - expected) < 0.03
        assert summ["per_n"]["1"]["within_3se"][repr(eps)] in (True, False)


def test_anticoncentration_bound_holds_small_n():
    cfg = ex.default_config(ex.ANTICONCENTRATION, n=(2, 4), trials=2000)
    recs, summ = ex.run(cfg)
    assert len(recs) == 2 * 2000
    for n in ("2", "4"):
        for flag in summ["per_n"][n]["within_3se"].values():
            assert flag is True


def test_det_growth_deviation_shrinks():
    cfg = ex.default_config(ex.DET_GROWTH, m=(8, 32, 128), n=2, trials=12)
    recs, summ = ex.run(cfg)
    assert tuple(recs.values) == ex.DET_GROWTH_COLUMNS
    meds = [summ["per_m"][k]["median_deviation"] for k in ("8", "32", "128")]
    assert meds[0] > meds[1] > meds[2]
    assert summ["max_deviation_at_largest_m"] < 0.5


def test_zero_radius_columns_and_stats():
    cfg = ex.default_config(ex.ZERO_RADIUS, N=96, trials=5,
                            r_schedule=(0.9,), s_list=(4, 8))
    recs, summ = ex.run(cfg)
    assert "ratio_r0.9" in recs.values and "rs_norm_s8" in recs.values
    good = [i for i, excluded in enumerate(recs.excluded) if not excluded]
    assert good
    for i in good:
        assert recs.values["n_roots"][i] == 96
        assert recs.values["ratio_r0.9"][i] > 0.0
        assert math.isfinite(recs.values["profile_dev_r0.9"][i])
    assert summ["fraction_seeds_with_root_in_disc"] == 1.0
    assert 0.0 <= summ["per_r"]["0.9"]["fraction_in_bracket"] <= 1.0


def test_zero_radius_input_validation():
    with pytest.raises(ValueError, match="N >= 8"):
        ex.default_config(ex.ZERO_RADIUS, N=4, trials=2)
    with pytest.raises(ValueError, match="s_list"):
        ex.default_config(ex.ZERO_RADIUS, N=64, trials=2, s_list=(1, 4))


@pytest.mark.parametrize("name, overrides, partial", [
    # discrete_pm_1 draws a_0 = 0 with probability 1/3
    (ex.ZERO_RADIUS, dict(spec=distribution(DISCRETE, M=1), N=24, r_schedule=(0.9,), s_list=(4,)),
     {"n_roots", "roots_in_unit_disc", "min_modulus"}),
    (ex.DISCRETE_EXAMPLE, dict(spec=distribution(DISCRETE, M=2), m=(8, 16), n=2),
     {"m", "n", "order_residual", "condition"}),
])
def test_end_coefficient_exclusion_keeps_partial_columns(name, overrides, partial):
    cfg = ex.default_config(name, trials=12, seed=6, **overrides)
    block, _ = ex.run(cfg)
    excluded = [i for i, reason in enumerate(block.reason) if reason == "end_coefficient_zero"]
    assert excluded
    for i in excluded:
        assert {c for c, col in block.values.items() if col[i] is not None} == partial


def test_log_variance_profile_matches_direct_sum():
    for r, N in ((0.9, 50), (0.5, 12), (0.995, 2048)):
        direct = math.log(sum(r ** (2 * k) for k in range(N + 1)))
        assert abs(ex._log_variance_profile(r, N) - direct) < 1e-12


def test_pole_clustering_sharpens_with_n():
    cfg = ex.default_config(ex.POLE_CLUSTERING, N=96, trials=6, n=(4, 16))
    recs, summ = ex.run(cfg)
    assert tuple(recs.values) == ex.POLE_COLUMNS
    assert len(recs) == 6 * 2
    # paired design: R_m is a property of the trial, not of n
    by_trial = {}
    for trial, r_m in zip(recs.trial, recs.values["R_m"]):
        if r_m is not None:
            by_trial.setdefault(trial, set()).add(r_m)
    assert all(len(v) == 1 for v in by_trial.values())
    assert summ["per_n"]["16"]["median_abs_dev"] <= summ["per_n"]["4"]["median_abs_dev"]
    assert summ["deviation_medians_non_increasing"] is True


def test_pole_clustering_control_arm_m0():
    cfg = ex.default_config(ex.POLE_CLUSTERING, N=64, trials=3, m=0, n=(4, 8))
    recs, summ = ex.run(cfg)
    assert "control_arm" in summ
    assert "deviation_medians_non_increasing" not in summ


def test_execute_without_out_dir_returns_summary():
    cfg = ex.default_config(ex.DET_GROWTH, m=(8, 16), n=2, trials=4)
    summ = ex.execute(cfg)
    for key in ("protocol", "trials", "degenerate", "excluded", "wall_time_s",
                "workers", "seed", "records"):
        assert key in summ
    assert summ["protocol"] == ex.DET_GROWTH
    assert summ["records"] == 8


def test_execute_writes_artifacts(tmp_path):
    cfg = ex.default_config(ex.ET_CLUSTERING, m=(8, 16), n=1, trials=5)
    out = tmp_path / "run"
    ex.execute(cfg, out)
    assert (out / "trials.csv").is_file()
    assert (out / "summary.json").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["name"] == ex.ET_CLUSTERING
    assert manifest["version"]
    digest = manifest["digests"]["trials.csv"]
    assert len(digest) == 64
    assert hashlib.sha256((out / "trials.csv").read_bytes()).hexdigest() == digest
    # summary on disk parses and echoes the counts
    summ = json.loads((out / "summary.json").read_text())
    assert summ["trials"] == 5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, field, value, kind", [
    pytest.param(name, field, value, kind, id=f"{name}-{field}-{type(value).__name__}")
    for name, field, value, kind in [
        (ex.DET_GROWTH, "trials", np.int64(3), int),
        (ex.ET_CLUSTERING, "trials", np.int32(2), int),
        (ex.ET_CLUSTERING, "seed", np.int64(7), int),
        (ex.ET_CLUSTERING, "N", np.int64(12), int),
        (ex.ET_CLUSTERING, "grid_size", np.int16(64), int),
        (ex.ET_CLUSTERING, "family_size", np.uint8(8), int),
        (ex.ET_CLUSTERING, "workers", np.int64(2), int),
        (ex.ET_CLUSTERING, "delta", np.float32(0.25), float),
        (ex.ET_CLUSTERING, "delta", np.float64(0.25), float),
        (ex.ET_CLUSTERING, "delta", np.int64(1), float),
        # a whole float is an integer, as it is for an m, n or s_list entry
        (ex.DET_GROWTH, "trials", 2.0, int),
        (ex.ET_CLUSTERING, "seed", np.float64(7.0), int),
        (ex.ET_CLUSTERING, "N", 12.0, int),
        (ex.ET_CLUSTERING, "grid_size", 64.0, int),
        (ex.ET_CLUSTERING, "family_size", np.float32(8.0), int),
        (ex.ET_CLUSTERING, "workers", 2.0, int),
    ]
])
def test_numpy_scalar_config_numbers_are_stored_as_python_values(name, field, value, kind,
                                                                  tmp_path):
    # a numpy scalar used to be stored as given, so summary.json failed to
    # serialize it after trials.csv was written, and no manifest followed
    small = {"m": [8], "n": 1} if name == ex.ET_CLUSTERING else {"m": [8], "n": 2}
    cfg = ex.default_config(name, **{**small, "trials": 2, field: value})
    assert type(getattr(cfg, field)) is kind and getattr(cfg, field) == value
    ex.execute(cfg, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "summary.json",
                                                          "trials.csv"]
    assert json.loads((tmp_path / "manifest.json").read_text())["config"][field] == value


def test_trials_csv_is_byte_identical_across_workers_and_reruns(tmp_path):
    cfg1 = ex.default_config(ex.ET_CLUSTERING, m=(8, 16), n=1, trials=8, workers=1)
    cfg3 = ex.default_config(ex.ET_CLUSTERING, m=(8, 16), n=1, trials=8, workers=3)
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    ex.execute(cfg1, dirs[0])
    ex.execute(cfg3, dirs[1])
    ex.execute(cfg1, dirs[2])
    blobs = [(d / "trials.csv").read_bytes() for d in dirs]
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("cpus, ranges", [(2, [range(0, 2), range(2, 5)]), (None, [range(0, 5)])])
def test_by_range_caps_the_workers_at_the_cpu_count(monkeypatch, cpus, ranges):
    """A worker count far above the machine's CPUs starts one thread per CPU
    (one in-process range when the count is unknown), and the ranges still
    cover the trials in order."""
    monkeypatch.setattr(ex.os, "cpu_count", lambda: cpus)
    config = ex.default_config(ex.ANTICONCENTRATION, trials=5, workers=10**6)
    seen = []

    def fn(trials):
        seen.append(trials)
        return ex.RecordBlock(("x",), trials, {"x": list(trials)})

    block = ex._by_range(config, config.trials, fn)
    assert sorted(seen, key=lambda r: r.start) == ranges
    assert block.trial == block.values["x"] == list(range(5))


@pytest.mark.parametrize("name, overrides", [
    (ex.ET_CLUSTERING, dict(m=(8, 16), n=1, trials=8)),
    # M=2 mixes degenerate_system and end_coefficient_zero rows into the batch
    (ex.DISCRETE_EXAMPLE, dict(spec=distribution(DISCRETE, M=2), m=(8, 16), n=2, trials=12)),
    # 7*16 gives B=4 for the degree-24 series
    (ex.ZERO_RADIUS, dict(N=24, trials=9, r_schedule=(0.9,), s_list=(4,))),
    # B=2 for the degree-40 series, 28 and 14 for the degree-4 and -8 denominators
    (ex.POLE_CLUSTERING, dict(N=40, n=(4, 8), trials=8)),
])
def test_trials_csv_is_byte_identical_across_batch_caps(name, overrides, tmp_path, monkeypatch):
    from padeclust import poly

    cfg = ex.default_config(name, **overrides)
    blobs = []
    # an element cap of 1 runs every numerator alone; 7*16 gives B=14 at
    # m=8 and B=7 at m=16 with a short last chunk; 10**9 is one batch per m
    for cap in (1, 7 * 16, 10**9):
        monkeypatch.setattr(poly, "_BATCH_ELEMS", cap)
        ex.execute(cfg, tmp_path / str(cap))
        blobs.append((tmp_path / str(cap) / "trials.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    reasons = {line.split(",")[3] for line in blobs[0].decode().splitlines()[1:]}
    assert "" in reasons


@st.composite
def root_runs(draw):
    """A small zero-radius or et-clustering config of 1-8 trials and budgets
    for the batch cap, the repulsion blocks and the Horner expansion blocks."""
    name = draw(st.sampled_from([ex.ZERO_RADIUS, ex.ET_CLUSTERING]))
    spec = draw(st.sampled_from([distribution(GAUSSIAN), distribution(DISCRETE, M=1)]))
    if name == ex.ZERO_RADIUS:
        schedule = dict(N=draw(st.integers(8, 40)), r_schedule=(0.9,), s_list=(4,))
    else:
        schedule = dict(m=tuple(draw(st.lists(st.integers(2, 30), min_size=1, max_size=3,
                                              unique=True))),
                        n=draw(st.integers(1, 2)))
    config = ex.default_config(name, spec=spec, trials=draw(st.integers(1, 8)),
                               seed=draw(st.integers(0, 2**32)), **schedule)
    budgets = dict(_BATCH_ELEMS=draw(st.integers(1, 200)),
                   _REPULSION_ELEMS=draw(st.integers(1, 200)),
                   _HORNER_ELEMS=draw(st.integers(1, 400)))
    return config, budgets


@settings(max_examples=100)
@given(root_runs())
def test_root_protocol_output_is_independent_of_kernel_budgets(run):
    """trials.csv equals the run at the default batch and block budgets."""
    from padeclust import poly

    config, budgets = run
    with tempfile.TemporaryDirectory() as tmp:
        ex.execute(config, Path(tmp, "reference"))
        with pytest.MonkeyPatch.context() as mp:
            for attr, elems in budgets.items():
                mp.setattr(poly, attr, elems)
            ex.execute(config, Path(tmp, "run"))
        assert (Path(tmp, "run", "trials.csv").read_bytes()
                == Path(tmp, "reference", "trials.csv").read_bytes())


@pytest.mark.parametrize("name, overrides", [
    (ex.ZERO_RADIUS, dict(N=24, r_schedule=(0.9,), s_list=(4, 8))),
    (ex.POLE_CLUSTERING, dict(N=40, n=(4, 8, 16))),
    (ex.ET_CLUSTERING, dict(m=(8, 16), n=1)),
    # M=2 mixes degenerate_system and end_coefficient_zero rows into the blocks
    (ex.DISCRETE_EXAMPLE, dict(spec=distribution(DISCRETE, M=2), m=(8, 16), n=2)),
    # 74 sample keys split 24/25/25: the middle range crosses from n=2 to n=5
    (ex.ANTICONCENTRATION, dict(n=(2, 5))),
    (ex.DET_GROWTH, dict(spec=distribution(DISCRETE, M=1), m=(1, 2, 6), n=3)),
])
def test_root_protocols_do_not_depend_on_workers_or_blocks(name, overrides, tmp_path,
                                                           monkeypatch):
    """Every protocol: 37 trials split 12/12/13 across three workers (74
    anticoncentration keys split 24/25/25); a budget of 100 coefficients
    gives blocks of 2 to 33 series, so the last block of a range is
    partial."""
    monkeypatch.setattr(ex.os, "cpu_count", lambda: 3)
    blocks, ranges = ex._blocks, set()

    def logged(config, keys, *args):
        ranges.add(keys)
        return blocks(config, keys, *args)

    monkeypatch.setattr(ex, "_blocks", logged)
    blobs = {}
    for elems in (ex._BLOCK_ELEMS, 100):
        monkeypatch.setattr(ex, "_BLOCK_ELEMS", elems)
        for workers in (1, 3):
            out = tmp_path / f"{elems}-{workers}"
            ex.execute(ex.default_config(name, trials=37, seed=6, workers=workers, **overrides),
                       out)
            blobs[elems, workers] = (out / "trials.csv").read_bytes()
    assert len(set(blobs.values())) == 1
    if name == ex.ANTICONCENTRATION:
        assert {range(24, 37), range(37, 49)} <= ranges


def _inject_series_failures(monkeypatch, config, failing):
    """Wrap ex.find_roots_batch so that the series of the trials in
    failing[tier] come back as NonConvergence in that tier (tier 0: offset
    0, tier 1: offset 0.37), and log ex.continue_extended; returns the log
    of series calls as (kwargs, trials of the rows), the extended
    continuation's kwargs being "continue_extended"."""
    real, real_extended = ex.find_roots_batch, ex.continue_extended
    trial_of = {sample(config.spec, config.N, config.seed, t).coeffs.tobytes(): t
                for t in range(config.trials)}
    calls = []

    def log(kwargs, polys):
        trials = [trial_of.get(p.coeffs.tobytes()) for p in polys]
        if any(t is not None for t in trials):
            calls.append((kwargs, trials))
        return trials

    def wrapped(polys, **kwargs):
        out = real(polys, **kwargs)
        trials = log(kwargs, polys)
        tier = {0.0: 0, 0.37: 1}.get(kwargs.get("start_offset", 0.0))
        fail = failing.get(tier, ()) if kwargs.get("precision", "double") == "double" else ()
        return [NonConvergence("injected", partial=r) if t in fail else r
                for t, r in zip(trials, out)]

    def extended(polys, partials):
        log("continue_extended", polys)
        return real_extended(polys, partials)

    monkeypatch.setattr(ex, "find_roots_batch", wrapped)
    monkeypatch.setattr(ex, "continue_extended", extended)
    return calls


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("retry_fails", [False, True])
@pytest.mark.parametrize("name, overrides", [
    (ex.ZERO_RADIUS, dict(N=16, r_schedule=(0.9,), s_list=(4,))),
    (ex.POLE_CLUSTERING, dict(N=16, n=(2, 4))),
])
def test_series_retry_tiers(name, overrides, retry_fails, precision, monkeypatch):
    config = ex.default_config(name, trials=7, seed=3, precision=precision, **overrides)
    clean, _ = ex.run(config)
    chosen = [1, 4, 5]
    failing = {0: chosen, 1: chosen if retry_fails else ()}
    calls = _inject_series_failures(monkeypatch, config, failing)
    block, _ = ex.run(config)

    expected = [({}, list(range(config.trials))), ({"start_offset": 0.37}, chosen)]
    if retry_fails and precision == "extended":
        expected.append(("continue_extended", chosen))
    assert calls == expected
    assert block.trial == clean.trial
    for i, trial in enumerate(block.trial):
        got = (block.degenerate[i], block.excluded[i], block.reason[i])
        want = (clean.degenerate[i], clean.excluded[i], clean.reason[i])
        if trial not in chosen:
            assert got == want
            assert all(block.values[c][i] == clean.values[c][i] for c in clean.values)
        elif retry_fails and precision == "double":
            assert got[1:] == (True, "nonconvergence")
        else:
            # solved by a later tier: other start points, the same roots
            assert got == want
            for key, col in clean.values.items():
                value = block.values[key][i]
                assert (value is None) == (col[i] is None), key
                if value is not None:
                    assert value == pytest.approx(col[i], rel=1e-6, abs=1e-9), key


def test_extended_tier_continues_the_rotated_iterates(monkeypatch):
    """The extended tier continues the rotated tier's partial iterates in
    mpmath: bit for bit the result of a fresh extended call from the rotated
    starts, with one double Aberth run fewer per failing row."""
    from padeclust import poly

    config = ex.default_config(ex.ZERO_RADIUS, N=16, r_schedule=(0.9,), s_list=(4,),
                               trials=7, seed=3, precision="extended")
    polys = [poly.Polynomial(sample(config.spec, config.N, config.seed, t).coeffs)
             for t in range(config.trials)]
    chosen = [1, 4, 5]
    want = poly.find_roots_batch([polys[i] for i in chosen], precision="extended",
                                 start_offset=0.37)
    _inject_series_failures(monkeypatch, config, {0: chosen, 1: chosen})
    real_aberth, rows = poly._aberth, []

    def counted(C, *args):
        rows.append(len(C))
        return real_aberth(C, *args)

    monkeypatch.setattr(poly, "_aberth", counted)
    found = ex._roots_with_retry(polys, "extended")
    # tier 0 runs every row, tier 1 the failing ones, the extended tier none
    assert sum(rows) == len(polys) + len(chosen)
    for i, w in zip(chosen, want):
        assert found[i].roots.tobytes() == w.roots.tobytes()
        assert found[i].residual == w.residual and found[i].converged == w.converged


def test_pole_denominators_retry_from_rotated_starts(monkeypatch):
    # a denominator that does not settle from the first start points is
    # solved again from rotated ones, as the series are
    config = ex.default_config(ex.POLE_CLUSTERING, N=24, n=(2, 4), trials=5, seed=2)
    clean, _ = ex.run(config)
    real, calls = ex.find_roots_batch, []

    def denominators_fail_first(polys, **kwargs):
        out = real(polys, **kwargs)
        short = [len(p.coeffs) <= 5 for p in polys]
        if any(short):
            calls.append((kwargs, sum(short)))
        if kwargs:
            return out
        return [NonConvergence("injected", partial=r) if s else r for s, r in zip(short, out)]

    monkeypatch.setattr(ex, "find_roots_batch", denominators_fail_first)
    block, _ = ex.run(config)
    pending = sum(not (d or e) for d, e in zip(clean.degenerate, clean.excluded))
    assert calls == [({}, pending), ({"start_offset": 0.37}, pending)]
    assert block.reason == clean.reason and "nonconvergence" not in block.reason
    for key, col in clean.values.items():
        got = block.values[key]
        assert [v is None for v in got] == [v is None for v in col], key
        assert [v for v in got if v is not None] == pytest.approx(
            [v for v in col if v is not None], rel=1e-6, abs=1e-9), key


def test_et_style_numerators_retry_from_rotated_starts(monkeypatch):
    # a numerator that does not settle from the first start points is solved
    # again from rotated ones, as the series protocols' roots are
    config = ex.default_config(ex.ET_CLUSTERING, m=(8, 16), n=1, trials=4)
    clean, _ = ex.run(config)
    real, calls = ex.find_roots_batch, []

    def first_tier_fails(polys, **kwargs):
        calls.append(kwargs)
        out = real(polys, **kwargs)
        return out if kwargs else [NonConvergence("injected", partial=r) for r in out]

    monkeypatch.setattr(ex, "find_roots_batch", first_tier_fails)
    block, _ = ex.run(config)
    assert calls == [{}, {"start_offset": 0.37}]
    assert block.reason == clean.reason and "nonconvergence" not in block.reason
    for key, col in clean.values.items():
        got = block.values[key]
        assert [v is None for v in got] == [v is None for v in col], key
        assert [v for v in got if v is not None] == pytest.approx(
            [v for v in col if v is not None], rel=1e-6, abs=1e-9), key


def test_trials_csv_round_trips_through_float_parse(tmp_path):
    cfg = ex.default_config(ex.ZERO_RADIUS, N=48, trials=3,
                            r_schedule=(0.9,), s_list=(4,))
    ex.execute(cfg, tmp_path)
    lines = (tmp_path / "trials.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["trial", "degenerate", "excluded", "reason"]
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] in ("true", "false")
        for cell in cells[4:]:
            if cell:
                float(cell)  # every populated numeric cell parses back


def test_invariant_violation_aborts_run(monkeypatch):
    bad = types.SimpleNamespace(
        et_log=1.0, radial_defect={0.05: 1.0}, radial_bound={0.05: 0.0},
        max_sector_discrepancy=1.0, sector_bound=0.0, bl_upper=0.0,
        bl_lower_estimate=1.0, inequality_flags={"sector": False},
    )
    monkeypatch.setattr(ex, "clustering_report", lambda *a, **k: bad)
    cfg = ex.default_config(ex.ET_CLUSTERING, m=(6,), n=1, trials=2)
    with pytest.raises(InvariantViolation):
        ex.run(cfg)


def test_invariant_violation_on_radial_breach(monkeypatch):
    from padeclust import cluster
    from padeclust.cluster import RadialCheck

    monkeypatch.setattr(
        cluster, "radial_two_sided_check",
        lambda mu, et, rho: RadialCheck(defect=1.0, bound=0.0, holds=False),
    )
    cfg = ex.default_config(ex.ET_CLUSTERING, m=(6,), n=1, trials=2)
    with pytest.raises(InvariantViolation, match="radial"):
        ex.run(cfg)


def test_invariant_violation_on_mass_breach(monkeypatch):
    # the mass check reads ||q||_1 from the pair that pade returns
    pade = ex.pade
    monkeypatch.setattr(ex, "pade", lambda *a, **k: dataclasses.replace(pade(*a, **k), q_l1=0.0))
    cfg = ex.default_config(ex.ET_CLUSTERING, m=(6,), n=1, trials=2)
    with pytest.raises(InvariantViolation, match="coefficient-mass inequality broken"):
        ex.run(cfg)


def test_pole_clustering_does_not_swallow_denominator_faults(monkeypatch):
    # only an end coefficient at zero excludes a denominator from its check
    et_ratio = ex.et_ratio

    def failing_on_denominators(p):
        if len(p.coeffs) == 5:
            raise DegenerateInput("injected fault")
        return et_ratio(p)

    monkeypatch.setattr(ex, "et_ratio", failing_on_denominators)
    cfg = ex.default_config(ex.POLE_CLUSTERING, N=40, n=(4,), trials=2)
    with pytest.raises(DegenerateInput, match="injected"):
        ex.run(cfg)


def test_unknown_protocol_in_execute():
    # a config of an unknown protocol cannot be built, so execute never sees one
    cfg = ex.default_config(ex.DET_GROWTH, m=(8,), n=2, trials=2)
    with pytest.raises(ValueError, match="unknown experiment"):
        ex.ExperimentConfig(**{**cfg.__dict__, "name": "mystery"})


def _cell_text(value):
    """The trials.csv text of one cell, written out independently of the
    column writer; a numpy scalar (a cell of an array column) is written as
    the Python scalar it holds."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("name, overrides", [
    (ex.ET_CLUSTERING, dict(m=(8, 16), n=1, trials=4)),
    (ex.DISCRETE_EXAMPLE, dict(spec=distribution(DISCRETE, M=2), m=(8, 16), n=2, trials=12)),
    (ex.ANTICONCENTRATION, dict(n=(1, 3), trials=50)),
    (ex.DET_GROWTH, dict(spec=distribution(DISCRETE, M=1), m=(1, 2, 6), n=3, trials=20)),
    # N = 8 roots: R_s is not computed for s = 8 or 16
    (ex.ZERO_RADIUS, dict(N=8, s_list=(4, 8, 16), trials=5)),
    (ex.POLE_CLUSTERING, dict(spec=distribution(DISCRETE, M=1), N=40, n=(4, 8), trials=10)),
])
def test_trials_csv_reads_back_through_csv_reader(name, overrides, tmp_path, monkeypatch):
    block, _ = ex.run(ex.default_config(name, seed=5, **overrides))
    columns = tuple(block.values)
    path = tmp_path / "trials.csv"
    monkeypatch.setattr(ex, "_WRITE_ROWS", 7)  # slices that do not divide the rows
    ex.write_trials_csv(path, block)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(ex.BASE_COLUMNS) + list(columns)
    assert len(rows) == len(block) + 1
    for i, row in enumerate(rows[1:]):
        want = [block.trial[i], block.degenerate[i], block.excluded[i], block.reason[i]]
        want += [block.values[c][i] for c in columns]
        assert row == [_cell_text(v) for v in want]
    if name == ex.ZERO_RADIUS:
        good = [row for row in rows[1:] if row[3] == ""]
        assert good
        header = rows[0]
        for row in good:
            assert row[header.index("rs_norm_s4")] != ""
            assert row[header.index("rs_norm_s8")] == row[header.index("rs_norm_s16")] == ""


@pytest.mark.parametrize("columns, reason, value", [
    (("x,y",), "", 1.0),
    (("x",), "bad,reason", 1.0),
    (("x",), 'say "no"', 1.0),
    (("x",), "", "two\nlines"),
    (("x",), "", "carriage\rreturn"),
    (("x\r",), "", 1.0),
])
def test_write_trials_csv_rejects_cells_that_need_quoting(columns, reason, value, tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(ex, "_WRITE_ROWS", 1)  # the bad row is in the second slice
    block = ex.RecordBlock(columns)
    block.add(0, {columns[0]: 2.5})
    block.add(1, {columns[0]: value}, excluded=bool(reason), reason=reason)
    path = tmp_path / "trials.csv"
    with pytest.raises(ValueError, match="comma, a double quote or a line break"):
        ex.write_trials_csv(path, block)
    assert not path.exists()


def test_writer_and_digest_memory_stays_below_the_file_size(tmp_path, monkeypatch):
    """The writer formats and writes one slice of rows at a time from array
    columns, and the digest reads the file in chunks, so neither holds the
    whole file (about 895 KB here) as the parent's read_bytes and text list
    did."""
    monkeypatch.setattr(ex, "_WRITE_ROWS", 256)
    block, _ = ex.run(ex.default_config(ex.ANTICONCENTRATION, n=(2, 5), trials=10_000))
    assert isinstance(block.values["det_abs_root"], np.ndarray)
    path = tmp_path / "trials.csv"
    peaks = {}
    for name, call in (("writer", lambda: ex.write_trials_csv(path, block)),
                       ("digest", lambda: ex._sha256(path))):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size > 800_000
    assert peaks["writer"] < size / 2 and peaks["digest"] < size / 2, (peaks, size)
    assert ex._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_block_of_array_columns_holds_constant_base_columns():
    """A block built from array columns (clean units only) keeps degenerate,
    excluded and reason as constants, not as lists of one cell per unit
    (480 KB here), and run still counts them into plain ints."""
    k = 20_000
    trial = np.arange(k)
    values = {"n": np.full(k, 2), "det_abs_root": np.ones(k), "singular": np.zeros(k, bool)}
    tracemalloc.start()
    try:
        block = ex.RecordBlock(ex.ANTICONC_COLUMNS, trial, values)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 10_000, held
    assert len(block.degenerate) == len(block.excluded) == len(block.reason) == k
    assert not any(block.degenerate) and not any(block.excluded) and set(block.reason) == {""}
    _, summary = ex.run(ex.default_config(ex.ANTICONCENTRATION, n=(2, 3), trials=50))
    assert (type(summary["degenerate"]), type(summary["excluded"])) == (int, int)


# The fields each protocol reads, as the README states them; every other
# field must keep its default and stays out of the config echo.
_RUN_FIELDS = {"name", "spec", "trials", "seed", "workers"}
_ROOT_FIELDS = {"rhos", "grid_size", "family_size", "precision"}
READS = {
    ex.ET_CLUSTERING: _RUN_FIELDS | {"m", "n", "N", "delta"} | _ROOT_FIELDS,
    ex.DISCRETE_EXAMPLE: _RUN_FIELDS | {"m", "n", "N", "delta"} | _ROOT_FIELDS,
    ex.ANTICONCENTRATION: _RUN_FIELDS | {"n", "epsilon_grid"},
    ex.DET_GROWTH: _RUN_FIELDS | {"m", "n"},
    ex.ZERO_RADIUS: _RUN_FIELDS | {"N", "r_schedule", "s_list"} | _ROOT_FIELDS,
    ex.POLE_CLUSTERING: _RUN_FIELDS | {"m", "n", "N"} | _ROOT_FIELDS,
}

# A value off each field's default that lies in the field's domain.
OFF_DEFAULT = dict(m=(3,), n=(2,), N=600, delta=0.25, epsilon_grid=(0.2,), r_schedule=(0.5,),
                   s_list=(4,), rhos=(0.3,), grid_size=64, family_size=32,
                   precision="extended")


def test_settable_values_number_58():
    # name picks the protocol, so it is not a settable value
    assert sum(len(reads - {"name"}) for reads in READS.values()) == 58
    assert sum(len(fields) - 1 for fields in ex._READS.values()) == 58


@pytest.mark.parametrize("name", ex.PROTOCOLS)
def test_protocol_rejects_every_field_it_does_not_read(name):
    fields = {f.name: f.default for f in dataclasses.fields(ex.ExperimentConfig)}
    assert set(OFF_DEFAULT) == set(fields) - _RUN_FIELDS
    for key, value in OFF_DEFAULT.items():
        if key in READS[name]:
            # a field the protocol reads may fail its domain, never as unread
            try:
                ex.default_config(name, **{key: value})
            except ValueError as exc:
                assert "does not read" not in str(exc), (name, key)
            continue
        with pytest.raises(ValueError, match=rf"does not read {key}\b"):
            ex.default_config(name, **{key: value})
        with pytest.raises(ValueError, match=rf"does not read {key}\b"):
            ex.ExperimentConfig.from_dict({"name": name, key: OFF_DEFAULT[key]})
        assert getattr(ex.default_config(name, **{key: fields[key]}), key) == fields[key]


@pytest.mark.parametrize("name", ex.PROTOCOLS)
def test_config_echo_holds_the_read_fields_and_reads_back(name):
    overrides = {ex.ZERO_RADIUS: dict(N=64, r_schedule=(0.9,), s_list=(4, 8)),
                 ex.POLE_CLUSTERING: dict(N=64, n=(4, 8))}.get(name, {})
    for cfg in (ex.default_config(name), ex.default_config(name, trials=2, seed=3, **overrides)):
        echo = cfg.to_dict()
        assert set(echo) == READS[name] | {"schema_version"}
        assert ex.ExperimentConfig.from_dict(json.loads(json.dumps(echo))) == cfg


def test_an_echo_of_every_field_reads_back_when_the_unread_ones_hold_defaults():
    # a config echo written before the echo held only the read fields
    for name in ex.PROTOCOLS:
        cfg = ex.default_config(name)
        full = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
        full = {k: v.to_dict() if k == "spec" else list(v) if isinstance(v, tuple) else v
                for k, v in full.items() if v is not None}
        assert ex.ExperimentConfig.from_dict({"schema_version": 1, **full}) == cfg


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([10**400, -10**400]),  # whole numbers too large for a float
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)

# values near each key's domain, so that some configs build
_NEAR = dict(
    name=st.sampled_from(ex.PROTOCOLS), trials=st.integers(0, 3), seed=st.integers(-1, 3),
    workers=st.integers(0, 3), m=st.lists(st.integers(-1, 40), max_size=3) | st.integers(-1, 40),
    n=st.lists(st.integers(-1, 20), max_size=3) | st.integers(-1, 20),
    N=st.none() | st.integers(0, 4096), delta=st.floats(0, 1),
    epsilon_grid=st.lists(st.floats(-1, 1), max_size=3),
    r_schedule=st.lists(st.floats(-1, 2), max_size=3), s_list=st.lists(st.integers(0, 64),
                                                                       max_size=3),
    rhos=st.lists(st.floats(-1, 2), max_size=3), grid_size=st.integers(0, 300),
    family_size=st.integers(0, 40), precision=st.sampled_from(["double", "extended", "quad"]),
    spec=st.fixed_dictionaries({"kind": st.sampled_from(["gaussian", "discrete_pm_M", "x"])},
                               optional={"M": st.integers(-1, 5) | st.floats(-1, 5)}),
    schema_version=st.sampled_from([1, 2]))


@settings(max_examples=300)
@given(st.fixed_dictionaries({"name": _NEAR["name"] | _JSON},
                             optional={k: v | _JSON for k, v in _NEAR.items() if k != "name"}))
def test_from_dict_returns_a_config_or_raises_value_error(d):
    try:
        cfg = ex.ExperimentConfig.from_dict(d)
    except ValueError:
        return
    assert ex.ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize("key, value", [
    ("delta", 10**400), ("rhos", [0.1, -10**400]), ("m", [8, 10**400]),
    ("spec", {"kind": "discrete_pm_M", "M": 10**400}),
])
def test_numbers_past_the_float_range_are_no_overflow_error(key, value):
    # a JSON integer has no size limit; one past the float range is a config
    # error naming its key, or (as a whole m) a plain int
    try:
        ex.ExperimentConfig.from_dict({"name": ex.DISCRETE_EXAMPLE, key: value})
    except ValueError as exc:
        assert key in str(exc)
