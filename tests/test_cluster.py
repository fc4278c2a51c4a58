import math

import numpy as np
import pytest
from scipy.integrate import quad

from padeclust import DegenerateInput, IndexOutOfRange, Polynomial, find_roots
from padeclust.cluster import (
    ClusteringReport,
    EmpiricalMeasure,
    annulus_mass,
    bl_lower_estimate,
    bl_upper,
    clustering_report,
    radial_two_sided_check,
    radius_R_s,
    sector_discrepancy,
    zero_counting_integral,
)
from padeclust.pade import EtRatio, et_ratio


def ratio_like(log_value: float) -> EtRatio:
    return EtRatio(log_value=log_value)


def unit_roots(N: int, offset: float = 0.0) -> np.ndarray:
    return np.exp(1j * (2.0 * np.pi * np.arange(N) / N + offset))


# ---------------------------------------------------------------- measures

def test_measure_rejects_empty_input():
    with pytest.raises(DegenerateInput):
        EmpiricalMeasure([])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, math.nan),
                                 complex(-math.inf, 0.0)])
def test_measure_rejects_non_finite_roots(bad):
    # a NaN root used to give a clustering report with every flag True
    with pytest.raises(DegenerateInput, match="non-finite root"):
        EmpiricalMeasure([bad, 1.0, -1.0, 1j])


def test_annulus_mass_examples():
    mu = EmpiricalMeasure(unit_roots(12))
    assert annulus_mass(mu, 1.0, 0.1) == 1.0
    mu2 = EmpiricalMeasure([0.5, 1.0, 1.05])
    assert annulus_mass(mu2, 1.0, 0.1) == pytest.approx(2.0 / 3.0)
    assert annulus_mass(mu2, 10.0, 0.1) == 0.0


def test_annulus_boundary_is_open():
    mu = EmpiricalMeasure([0.9, 1.1])
    assert annulus_mass(mu, 1.0, 0.1) == 0.0


def test_annulus_partition_sums_to_one():
    rng = np.random.default_rng(3)
    mu = EmpiricalMeasure(rng.standard_normal(40) + 1j * rng.standard_normal(40))
    edges = [0.0, 0.5, 1.0, 2.0, 4.0, 100.0]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        # open annulus (lo, hi) around r = (lo+hi)/2; add boundary atoms
        r = 0.5 * (lo + hi)
        rho = (hi - lo) / (lo + hi)
        total += annulus_mass(mu, r, rho)
    boundary = np.isin(np.abs(mu.roots), edges).sum() / mu.N
    assert total + boundary == pytest.approx(1.0)


def test_sector_discrepancy_examples():
    # eight equispaced roots off the grid fill every grid sector exactly; a
    # triple root at Arg pi puts mass 1 in (3 pi/4, pi], of length 1/8
    mu = EmpiricalMeasure(np.exp(1j * (2.0 * np.arange(8) + 1.0) * np.pi / 8.0))
    assert sector_discrepancy(mu, grid_size=8) == 0.0
    assert sector_discrepancy(EmpiricalMeasure([-1.0, -1.0, -1.0]), grid_size=8) == 0.875


def test_sector_lower_boundary_excluded_upper_included():
    # grid sectors are (theta_i, theta_j]: Arg(1) = 0 falls in (3 pi/2, 2 pi]
    # and Arg(i) = pi/2 in (0, pi/2], so each pair below spans two adjacent
    # grid sectors (0.5); the opposite convention would put both roots in
    # one sector of length 1/4 (0.75)
    eighth = np.exp(1j * np.pi / 4.0)
    assert sector_discrepancy(EmpiricalMeasure([1.0, eighth]), grid_size=4) == 0.5
    assert sector_discrepancy(EmpiricalMeasure([1j, 1j * eighth]), grid_size=4) == 0.5
    assert sector_discrepancy(EmpiricalMeasure([eighth, 1j * eighth]), grid_size=4) == 0.5


# ---------------------------------------------------------------- radial bound

def test_radial_bound_binomial_has_zero_defect():
    N = 32
    mu = EmpiricalMeasure(find_roots(Polynomial([1.0] + [0.0] * (N - 1) + [1.0])))
    et = et_ratio(Polynomial([1.0] + [0.0] * (N - 1) + [1.0]))
    chk = radial_two_sided_check(mu, et, 0.05)
    assert chk.defect == 0.0
    assert chk.holds


def test_radial_bound_worst_case_is_vacuous():
    mu = EmpiricalMeasure([100.0, 0.001])
    et = ratio_like(float(mu.N))
    chk = radial_two_sided_check(mu, et, 0.5)
    one_sided = et.log_value / (0.5 * mu.N)
    assert one_sided >= 1.0 / 0.5 - 1e-12
    assert chk.bound >= one_sided
    assert chk.holds


def test_radial_bound_holds_on_gaussian_polynomials():
    # both the enforced ceiling and the sharper one-sided log L / (rho N)
    rng = np.random.default_rng(5)
    for _ in range(60):
        coeffs = rng.standard_normal(65)
        poly = Polynomial(coeffs)
        mu = EmpiricalMeasure(find_roots(poly))
        et = et_ratio(poly)
        for rho in (0.05, 0.1, 0.2):
            chk = radial_two_sided_check(mu, et, rho)
            assert chk.holds
            assert chk.defect <= et.log_value / (rho * mu.N) + 1e-12


def _end_unbalanced(N=32, c=0.72):
    # z^N - c^N: all roots at modulus c, first coefficient tiny
    poly = Polynomial([-(c ** N)] + [0.0] * (N - 1) + [1.0])
    return EmpiricalMeasure(find_roots(poly)), et_ratio(poly)


def test_radial_two_sided_survives_end_unbalanced_polynomial():
    # The one-sided ceiling log L / (rho N) is smaller than the defect here,
    # the symmetric ceiling 2 log L / (N log(1+rho)) is not.
    mu, et = _end_unbalanced()
    two = radial_two_sided_check(mu, et, 0.2)
    assert two.defect == 1.0
    assert two.defect > et.log_value / (0.2 * mu.N)
    assert two.holds


def test_clustering_report_holds_on_end_unbalanced_polynomial():
    mu, et = _end_unbalanced()
    rep = clustering_report(mu, et)
    assert all(rep.inequality_flags.values())
    for rho in (0.05, 0.1, 0.2):
        chk = radial_two_sided_check(mu, et, rho)
        assert (rep.radial_defect[rho], rep.radial_bound[rho]) == (chk.defect, chk.bound)
    assert rep.radial_bound[0.2] == pytest.approx(1.8018, abs=1e-4)


def test_radial_two_sided_is_weaker_everywhere():
    rng = np.random.default_rng(11)
    for _ in range(20):
        poly = Polynomial(rng.standard_normal(33))
        mu = EmpiricalMeasure(find_roots(poly))
        et = et_ratio(poly)
        for rho in (0.05, 0.2, 0.8):
            two = radial_two_sided_check(mu, et, rho)
            assert two.bound >= et.log_value / (rho * mu.N)
            assert two.defect == 1.0 - annulus_mass(mu, 1.0, rho)


def test_radial_two_sided_rejects_bad_rho():
    mu = EmpiricalMeasure([1.0, -1.0])
    et = ratio_like(1.0)
    with pytest.raises(ValueError):
        radial_two_sided_check(mu, et, 0.0)
    with pytest.raises(ValueError):
        radial_two_sided_check(mu, et, 1.5)


# ---------------------------------------------------------------- sector discrepancy

def test_sector_discrepancy_uniform_roots():
    N = 16
    mu = EmpiricalMeasure(unit_roots(N, offset=np.pi / N))
    assert sector_discrepancy(mu, grid_size=4 * N) <= 1.0 / N


def test_sector_discrepancy_point_mass_is_near_one():
    mu = EmpiricalMeasure([1.0] * 10)
    d = sector_discrepancy(mu, grid_size=256)
    assert d >= 1.0 - 2.0 / 256


def test_sector_discrepancy_respects_theorem_bound():
    rng = np.random.default_rng(7)
    for _ in range(40):
        coeffs = rng.standard_normal(65)
        poly = Polynomial(coeffs)
        mu = EmpiricalMeasure(find_roots(poly))
        et = et_ratio(poly)
        cap = 16.0 * math.sqrt(et.log_value / mu.N)
        assert sector_discrepancy(mu) <= cap + 1e-12


def test_sector_discrepancy_validates_grid():
    with pytest.raises(ValueError):
        sector_discrepancy(EmpiricalMeasure([1.0]), grid_size=3)


# ---------------------------------------------------------------- BL bracket

def test_bl_upper_arithmetic():
    assert bl_upper(ratio_like(1.0), 256) == pytest.approx(8.0)
    assert bl_upper(ratio_like(64.0), 64) == pytest.approx(32.0)
    assert bl_upper(ratio_like(16.0), 4096) == pytest.approx(32.0 * (16.0 / 4096.0) ** 0.25)


def test_bl_lower_equispaced_circle_is_small():
    mu = EmpiricalMeasure(unit_roots(4096))
    assert bl_lower_estimate(mu) <= 0.01


def test_bl_lower_point_mass_at_origin():
    mu = EmpiricalMeasure([0.0])
    est = bl_lower_estimate(mu)
    assert est == pytest.approx(1.0 / 3.0)
    assert est > 0.3


def test_bl_bracket_on_polynomial_measures():
    rng = np.random.default_rng(11)
    for _ in range(25):
        coeffs = rng.standard_normal(33)
        poly = Polynomial(coeffs)
        mu = EmpiricalMeasure(find_roots(poly))
        et = et_ratio(poly)
        assert bl_lower_estimate(mu) <= bl_upper(et, mu.N) + 1e-12


def test_bl_lower_validates_family_size():
    with pytest.raises(ValueError):
        bl_lower_estimate(EmpiricalMeasure([1.0]), family_size=4)


# ---------------------------------------------------------------- zero radii

def test_radius_examples():
    rs = find_roots(Polynomial(np.poly([0.3, 0.5, 0.9])[::-1]))
    assert radius_R_s(rs, 0) == pytest.approx(0.3)
    assert radius_R_s(rs, 1) == pytest.approx(0.5)
    assert radius_R_s(rs, 2) == pytest.approx(0.9)
    with pytest.raises(IndexOutOfRange):
        radius_R_s(rs, 3)
    with pytest.raises(IndexOutOfRange):
        radius_R_s(rs, -1)


def test_radius_is_monotone_in_s():
    rng = np.random.default_rng(13)
    rs = find_roots(Polynomial(rng.standard_normal(20)))
    values = [radius_R_s(rs, s) for s in range(len(rs))]
    assert all(a <= b for a, b in zip(values[:-1], values[1:]))


def test_count_below_radius_matches_s():
    rng = np.random.default_rng(17)
    rs = find_roots(Polynomial(rng.standard_normal(20)))
    for s in range(len(rs)):
        r = radius_R_s(rs, s)
        assert np.sum(rs.moduli < r - 1e-9) <= s


def test_zero_counting_examples():
    one_root = find_roots(Polynomial([-0.5, 1.0]))
    assert zero_counting_integral(one_root, 1.0) == pytest.approx(math.log(2.0))
    assert zero_counting_integral(one_root, 0.25) == 0.0


def test_zero_counting_rejects_origin_roots():
    rs = find_roots(Polynomial([0.0, 0.0, 1.0]))
    with pytest.raises(DegenerateInput):
        zero_counting_integral(rs, 1.0)


def test_zero_counting_matches_quadrature_oracle():
    rng = np.random.default_rng(19)
    for _ in range(10):
        roots = rng.uniform(0.1, 2.0, size=8) * np.exp(2j * np.pi * rng.uniform(size=8))
        rs = find_roots(Polynomial(np.poly(roots)[::-1]))
        r = float(rng.uniform(0.5, 2.5))
        moduli = np.sort(rs.moduli)

        def step_over_t(t):
            return np.searchsorted(moduli, t, side="right") / t

        lo = 0.5 * moduli[0]
        pts = [m for m in moduli if lo < m < r]
        expected, err = quad(step_over_t, lo, r, points=pts, limit=200)
        got = zero_counting_integral(rs, r)
        assert got == pytest.approx(expected, abs=max(1e-9, 10 * err))


# ---------------------------------------------------------------- report

def test_clustering_report_flags_and_bracket():
    rng = np.random.default_rng(23)
    coeffs = rng.standard_normal(65)
    poly = Polynomial(coeffs)
    mu = EmpiricalMeasure(find_roots(poly))
    et = et_ratio(poly)
    rep = clustering_report(mu, et)
    assert isinstance(rep, ClusteringReport)
    assert set(rep.radial_defect) == {0.05, 0.1, 0.2}
    assert all(rep.inequality_flags.values())
    assert rep.bl_lower_estimate <= rep.bl_upper + 1e-12
    assert rep.et_log == et.log_value
