"""Acceptance gate: ten numbered criteria, one visible pass/fail line each.

Each test prints its verdict line through capsys.disabled() so the line shows
up even under captured output, then asserts.  Statistical criteria are desk-
scale renderings of asymptotic statements: trends and event shapes, not the
theoretical constants.
"""

import math
import time

import numpy as np
import pytest

from padeclust import experiments as ex
from padeclust.cluster import EmpiricalMeasure, clustering_report
from padeclust.errors import DegenerateSystem, EndCoefficientZero, NonConvergence
from padeclust.pade import et_ratio, pade
from padeclust.poly import Polynomial, circle_log_average, find_roots, find_roots_batch, jensen_rhs
from padeclust.sampler import (
    DISCRETE,
    GAUSSIAN,
    LAPLACE,
    LOGCONCAVE,
    UNIFORM,
    distribution,
    sample,
)


def _report(capsys, idx: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nCRITERION {idx}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_01_order_condition(capsys):
    spec = distribution(GAUSSIAN)
    pairs = [(m, n) for n in range(13) for m in range(41 - n)]
    assert len(pairs) == 455
    t0 = time.perf_counter()
    worst = 0.0
    degenerate = 0
    for trial in range(1000):
        coeffs = sample(spec, 64, 0, trial).coeffs
        for m, n in pairs:
            try:
                pair = pade(coeffs, m, n, cond_cap=math.inf)
            except DegenerateSystem:
                degenerate += 1
                continue
            resid = pair.diagnostics["order_residual"]
            if resid > worst:
                worst = resid
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and degenerate == 0 and elapsed < 60.0
    _report(capsys, 1, ok,
            f"order residual over 1000 Gaussian vectors x 455 (m,n) windows: "
            f"max {worst:.2e} (cap 1e-8), degenerate {degenerate}, {elapsed:.0f}s")
    assert worst <= 1e-8
    assert degenerate == 0
    assert elapsed < 60.0


def test_criterion_02_closed_forms(capsys):
    exp_coeffs = [1.0, 1.0, 0.5, 1.0 / 6.0]
    pair = pade(exp_coeffs, 1, 1)
    gap = max(
        abs(pair.p.coeffs[0] - 1.0), abs(pair.p.coeffs[1] - 0.5),
        abs(pair.q.coeffs[0] - 1.0), abs(pair.q.coeffs[1] + 0.5),
    )
    geo = pade([1.0, 1.0, 1.0, 1.0], 1, 1)
    geo_exact = (
        geo.p.degree == 0 and geo.p.coeffs[0] == 1.0
        and geo.q.coeffs[0] == 1.0 and geo.q.coeffs[1] == -1.0
    )
    ok = gap <= 1e-12 and geo_exact
    _report(capsys, 2, ok,
            f"closed forms: exponential [1,1] off by {gap:.1e} (cap 1e-12), "
            f"geometric exact: {geo_exact}")
    assert gap <= 1e-12
    assert geo_exact


def test_criterion_03_deterministic_inequality_suite(capsys):
    specs = [
        distribution(GAUSSIAN),
        distribution(UNIFORM),
        distribution(LAPLACE),
        distribution(DISCRETE, M=10),
        distribution(LOGCONCAVE),
    ]
    per_sampler = 2000
    t0 = time.perf_counter()
    violations = 0
    checked = 0
    mass_checked = 0
    skipped_end = 0
    for spec in specs:
        accepted = []
        trial = 0
        while len(accepted) < per_sampler:
            coeffs = sample(spec, 64, 11, trial).coeffs
            trial += 1
            poly = Polynomial(coeffs)
            try:
                et = et_ratio(poly)
            except EndCoefficientZero:
                skipped_end += 1  # bounds need nonzero end coefficients
                continue
            accepted.append((coeffs, poly, et))
        # one batched solve per sampler; each row is bitwise find_roots(poly)
        found = find_roots_batch([poly for _, poly, _ in accepted])
        for (coeffs, poly, et), roots in zip(accepted, found):
            if isinstance(roots, NonConvergence):
                raise roots
            rep = clustering_report(EmpiricalMeasure(roots), et,
                                    rhos=(0.05, 0.1, 0.2),
                                    grid_size=256, family_size=16)
            # the report enforces the two-sided radial ceiling; the sharper
            # one-sided log L / (rho N) is checked here too
            one_sided = all(d <= et.log_value / (rho * len(roots)) + 1e-12
                            for rho, d in rep.radial_defect.items())
            if not (all(rep.inequality_flags.values()) and one_sided):
                violations += 1
            try:
                pair = pade(coeffs, 8, 4)
                lhs = float(np.sum(np.abs(pair.p.coeffs)))
                rhs = float(np.sum(np.abs(pair.q.coeffs)) * np.sum(np.abs(coeffs[:9])))
                if lhs > rhs * (1.0 + 1e-12):
                    violations += 1
                mass_checked += 1
            except DegenerateSystem:
                pass
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and checked == 10_000 and elapsed < 300.0
    _report(capsys, 3, ok,
            f"radial/sector/BL bounds + coefficient-mass bound on {checked} "
            f"polynomials (5 samplers): {violations} violations, "
            f"{mass_checked} mass checks, {skipped_end} zero-end skips, {elapsed:.0f}s")
    assert violations == 0
    assert checked == 10_000
    assert elapsed < 300.0


def _quad_points(moduli: np.ndarray, r: float, max_q: int = 1 << 22) -> int:
    # trapezoid aliasing decays like (2/Q) exp(-Q d / r) per root at gap d
    q = 4096
    while q < max_q:
        bound = float(np.sum((2.0 / q) * np.exp(-q * np.abs(moduli - r) / r)))
        if bound <= 2e-7:
            return q
        q *= 2
    return max_q


def test_criterion_04_jensen_identity(capsys):
    spec = distribution(GAUSSIAN)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(500):
        deg = 8 + (i % 57)
        coeffs = sample(spec, deg, 7, i).coeffs
        poly = Polynomial(coeffs)
        roots = find_roots(poly)
        for r in (0.5, 0.9, 1.1):
            q = _quad_points(roots.moduli, r)
            gap = abs(circle_log_average(poly, r, q) - jensen_rhs(roots, abs(coeffs[0]), r))
            if gap > worst:
                worst = gap
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(capsys, 4, ok,
            f"Jensen identity on 500 polynomials (deg <= 64) at r in {{0.5, 0.9, 1.1}}: "
            f"max gap {worst:.2e} (cap 1e-6), {elapsed:.0f}s")
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_05_toeplitz_anticoncentration(capsys):
    cfg = ex.default_config(ex.ANTICONCENTRATION, n=(2, 5, 10, 20),
                            trials=10_000, epsilon_grid=(0.01, 0.05, 0.1))
    t0 = time.perf_counter()
    _, _, summ = ex.run_toeplitz_anticoncentration(cfg)
    elapsed = time.perf_counter() - t0
    worst_margin = -math.inf
    failures = []
    for n in (2, 5, 10, 20):
        for eps in (0.01, 0.05, 0.1):
            p_hat = summ["per_n"][str(n)]["cdf"][repr(eps)]
            se = math.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
            cap = n * 0.7979 * eps + 3.0 * se
            worst_margin = max(worst_margin, p_hat - cap)
            if p_hat > cap:
                failures.append((n, eps, p_hat, cap))
    ok = not failures and elapsed < 120.0
    _report(capsys, 5, ok,
            f"P(|det A|^(1/n) < eps) vs n*0.7979*eps + 3se over 12 cells "
            f"(10k trials each): worst margin {worst_margin:+.2e}, {elapsed:.0f}s")
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_06_et_ratio_decay(capsys):
    t0 = time.perf_counter()
    medians = {}
    counts = {"degenerate": 0, "excluded": 0}
    for n in (1, 2):
        cfg = ex.default_config(ex.ET_CLUSTERING, m=(50, 100, 200, 400), n=n, trials=200)
        _, _, summ = ex.run_et_clustering(cfg)
        medians[n] = [summ["per_m"][str(m)]["median_et_log_over_m"]
                      for m in (50, 100, 200, 400)]
        counts["degenerate"] += summ["degenerate"]
        counts["excluded"] += summ["excluded"]
    elapsed = time.perf_counter() - t0
    decreasing = all(
        a > b for med in medians.values() for a, b in zip(med[:-1], med[1:])
    )
    final = medians[1][-1]
    ok = decreasing and final <= 0.08 and elapsed < 300.0
    _report(capsys, 6, ok,
            f"median log L(P)/m strictly decreasing over m=50..400 for n=1,2: "
            f"{decreasing}; m=400 n=1 median {final:.4f} (cap 0.08); "
            f"degenerate {counts['degenerate']}, excluded {counts['excluded']}, {elapsed:.0f}s")
    assert decreasing
    assert final <= 0.08
    assert elapsed < 300.0


def test_criterion_07_discrete_example(capsys):
    cfg = ex.default_config(ex.DISCRETE_EXAMPLE, spec=distribution(DISCRETE, M=100),
                            m=(200, 400, 800), n=10, trials=100)
    t0 = time.perf_counter()
    _, _, summ = ex.run_discrete_example(cfg)
    elapsed = time.perf_counter() - t0
    meds = [summ["per_m"][str(m)]["median_et_log_over_m"] for m in (200, 400, 800)]
    decreasing = all(a > b for a, b in zip(meds[:-1], meds[1:]))
    frac = summ["degenerate_fraction"]
    ok = decreasing and elapsed < 300.0
    _report(capsys, 7, ok,
            f"discrete M=100, n=10: medians {[round(v, 4) for v in meds]} decreasing: "
            f"{decreasing}; degenerate fraction {frac:.4f}; {elapsed:.0f}s")
    assert decreasing
    assert elapsed < 300.0


def test_criterion_08_zero_radius_laws(capsys):
    t0 = time.perf_counter()
    cfg = ex.default_config(ex.ZERO_RADIUS, trials=50, precision="extended")
    _, block, summ = ex.run_zero_radius(cfg)
    good = [i for i, excluded in enumerate(block.excluded) if not excluded]
    frac_a = summ["per_r"]["0.99"]["fraction_in_bracket"]
    in_window = [
        all(0.05 <= block.values[f"rs_norm_s{s}"][i] <= 20.0 for s in (4, 8, 16, 32, 64))
        for i in good
    ]
    frac_b = sum(in_window) / len(in_window)
    cfg_c = ex.default_config(ex.ZERO_RADIUS, N=512, trials=50,
                              r_schedule=(0.9,), s_list=(4, 8), precision="extended")
    _, _, summ_c = ex.run_zero_radius(cfg_c)
    frac_c = summ_c["fraction_seeds_with_root_in_disc"]
    elapsed = time.perf_counter() - t0
    ok_a = frac_a >= 0.80
    ok_b = frac_b >= 0.90
    ok_c = frac_c >= 0.99
    ok = ok_a and ok_b and ok_c and elapsed < 600.0
    _report(capsys, 8, ok,
            f"zero-radius laws, 50 Gaussian seeds at N=2048: "
            f"(a) ratio-at-0.99 in [0.35,0.65] for {frac_a:.0%} of seeds (need 80%; "
            f"known gap: at any fixed r the end-coefficient noise is order-one "
            f"against |log(1-r^2)|, so the bracket only binds in the r->1 limit) "
            f"{'PASS' if ok_a else 'FAIL'}; "
            f"(b) (1-R_s)s/log s in [0.05,20] for all s for {frac_b:.0%} (need 90%) "
            f"{'PASS' if ok_b else 'FAIL'}; "
            f"(c) root in unit disc at N=512 for {frac_c:.0%} (need 99%) "
            f"{'PASS' if ok_c else 'FAIL'}; {elapsed:.0f}s")
    assert ok_b
    assert ok_c
    assert elapsed < 600.0
    assert ok_a, (
        f"fixed-radius rendering of the r->1 law: {frac_a:.0%} of seeds in bracket, "
        "need 80% (documented blocking analysis; tolerances not weakened)"
    )


def test_criterion_09_pole_clustering(capsys):
    cfg = ex.default_config(ex.POLE_CLUSTERING, m=1, n=(8, 16, 32), N=1024, trials=30)
    t0 = time.perf_counter()
    _, _, summ = ex.run_pole_clustering(cfg)
    elapsed = time.perf_counter() - t0
    meds = [summ["per_n"][str(n)]["median_abs_dev"] for n in (8, 16, 32)]
    non_increasing = all(a >= b - 1e-12 for a, b in zip(meds[:-1], meds[1:]))
    ok = non_increasing and elapsed < 600.0
    _report(capsys, 9, ok,
            f"median |denominator-zero modulus - R_1| over n=8,16,32: "
            f"{[round(v, 4) for v in meds]} non-increasing: {non_increasing}; "
            f"degenerate {summ['degenerate']}, {elapsed:.0f}s")
    assert non_increasing
    assert elapsed < 600.0


def test_criterion_10_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    outcomes = []
    for name, overrides in (
        (ex.ET_CLUSTERING, dict(m=(8, 16), n=1, trials=8)),
        (ex.ZERO_RADIUS, dict(N=48, trials=4, r_schedule=(0.9,), s_list=(4,))),
    ):
        digests = set()
        for tag, workers in (("w1", 1), ("w3", 3), ("w1b", 1)):
            out = tmp_path / f"{name}-{tag}"
            ex.execute(ex.default_config(name, workers=workers, **overrides), out)
            digests.add(ex._sha256(out / "trials.csv"))
        outcomes.append((name, len(digests)))
    elapsed = time.perf_counter() - t0
    ok = all(count == 1 for _, count in outcomes)
    _report(capsys, 10, ok,
            f"byte-identical trials.csv across worker counts 1/3 and rerun: "
            f"{', '.join(f'{n}: {c} distinct digest(s)' for n, c in outcomes)}; "
            f"{elapsed:.0f}s")
    for name, count in outcomes:
        assert count == 1, name
