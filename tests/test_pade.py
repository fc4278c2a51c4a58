import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padeclust import (
    DegenerateInput,
    DegenerateSystem,
    EndCoefficientZero,
    InsufficientCoefficients,
    Polynomial,
    assoc_matrix,
    build_triple,
    log_abs_det,
)
from padeclust.pade import et_bound_chain, et_ratio, pade


# ---------------------------------------------------------------- oracle

def full_system_pair(coeffs, m, n):
    """Solve for (p_0..p_m, q_1..q_n) from the raw order conditions
    coeff_j(f q - p) = 0, j = 0..m+n, assembled as one dense system.
    Independent of the window-matrix route used by the package."""
    a = np.asarray(coeffs, dtype=complex)
    size = m + n + 1
    M = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    for j in range(size):
        if j <= m:
            M[j, j] = -1.0
        for i in range(1, n + 1):
            if j - i >= 0:
                M[j, m + i] = a[j - i]
        rhs[j] = -a[j]
    x = np.linalg.solve(M, rhs)
    return x[: m + 1], np.concatenate([[1.0 + 0j], x[m + 1 :]])


def test_oracle_reproduces_geometric_example():
    p, q = full_system_pair([1.0, 1.0, 1.0], 1, 1)
    np.testing.assert_allclose(q, [1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------- pade

def test_pade_geometric_series():
    pair = pade([1.0, 1.0, 1.0], m=1, n=1)
    np.testing.assert_allclose(pair.q.coeffs, [1.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(pair.p.coeffs, [1.0, 0.0], atol=1e-14)
    assert pair.p.degree == 0


def test_pade_exponential_series():
    coeffs = [1.0, 1.0, 0.5, 1.0 / 6.0]
    pair = pade(coeffs, m=1, n=1)
    np.testing.assert_allclose(pair.q.coeffs, [1.0, -0.5], atol=1e-14)
    np.testing.assert_allclose(pair.p.coeffs, [1.0, 0.5], atol=1e-14)


def test_pade_taylor_section_for_n0():
    coeffs = [2.0, -1.0, 3.0, 0.5]
    pair = pade(coeffs, m=3, n=0)
    np.testing.assert_array_equal(pair.p.coeffs, coeffs)
    np.testing.assert_array_equal(pair.q.coeffs, [1.0])
    assert pair.diagnostics["order_residual"] == 0.0


def test_pade_denominator_constant_term_is_exactly_one():
    rng = np.random.default_rng(3)
    pair = pade(rng.standard_normal(11), m=5, n=5)
    assert pair.q.coeffs[0] == 1.0


def test_pade_matches_full_system_oracle():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(40):
        m = int(rng.integers(0, 8))
        n = int(rng.integers(1, 8))
        coeffs = rng.standard_normal(m + n + 1)
        try:
            pair = pade(coeffs, m, n)
        except DegenerateSystem:
            continue
        if pair.diagnostics["condition"] > 1e8:
            continue
        p_ref, q_ref = full_system_pair(coeffs, m, n)
        np.testing.assert_allclose(pair.q.coeffs, q_ref.real, atol=1e-8)
        np.testing.assert_allclose(pair.p.coeffs, p_ref.real, atol=1e-8)
        checked += 1
    assert checked >= 25


def test_pade_insufficient_coefficients():
    with pytest.raises(InsufficientCoefficients):
        pade([1.0, 2.0], m=1, n=1)


@pytest.mark.parametrize("m, n", [(2.0, 1), (True, 1), (2, 1.0), (2, np.bool_(True)), (-1, 1),
                                  (2, -1)])
def test_pade_orders_must_be_integers(m, n):
    # 2.0 used to raise a raw TypeError from slicing, and True to return a
    # pair with m == True
    a = np.random.default_rng(3).standard_normal(8)
    with pytest.raises(ValueError, match="integers >= 0"):
        pade(a, m, n)


def test_pade_accepts_numpy_integer_orders():
    a = np.random.default_rng(3).standard_normal(8)
    pair = pade(a, np.int64(2), np.int32(1))
    assert pair.p.coeffs.tolist() == pade(a, 2, 1).p.coeffs.tolist()


def test_pade_degenerate_system_propagates():
    with pytest.raises(DegenerateSystem):
        pade([1.0, 0.0, 1.0, 1.0], m=1, n=1)


def test_pade_extended_precision_matches_double():
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(9)
    pd = pade(coeffs, m=4, n=4)
    pe = pade(coeffs, m=4, n=4, precision="extended")
    np.testing.assert_allclose(pe.q.coeffs, pd.q.coeffs, atol=1e-11)


def test_pade_diagnostics_are_recorded():
    coeffs = [1.0, 1.0, 0.5, 1.0 / 6.0]
    pair = pade(coeffs, m=1, n=1)
    triple = build_triple(coeffs, 1, 1)

    assert pair.diagnostics["logdet_A"] == log_abs_det(triple.A).log_abs
    assert pair.diagnostics["condition"] >= 1.0
    assert pair.diagnostics["order_residual"] <= 1e-14
    np.testing.assert_array_equal(pair.triple.T, triple.T)
    np.testing.assert_array_equal(pair.triple.A, triple.A)
    # W is the order n+1 window that et_bound_chain factors
    np.testing.assert_array_equal(pair.triple.W, assoc_matrix(coeffs, 1, 2))


@settings(max_examples=150)
@given(st.sampled_from([np.float64, np.float32, np.complex128]), st.integers(0, 59),
       st.integers(0, 399), st.integers(0, 2**32 - 1))
def test_pade_solve_determinant_is_log_abs_det_bitwise(dtype, n, m, seed):
    # et_bound_chain reads logdet_A from the pair in place of factoring A again
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(m + n + 1)
    if dtype is np.complex128:
        coeffs = coeffs + 1j * rng.standard_normal(m + n + 1)
    coeffs = coeffs.astype(dtype)
    try:
        pair = pade(coeffs, m, n, cond_cap=math.inf)
    except DegenerateSystem:
        assume(False)
    det = log_abs_det(build_triple(coeffs, m, n).A)
    assert pair.diagnostics["logdet_A"] == det.log_abs
    assert pair.diagnostics["condition"] == det.condition_estimate


# ---------------------------------------------------------------- order residual

def test_order_residual_exact_pair_is_tiny():
    pair = pade([1.0, 1.0, 1.0], m=1, n=1)
    assert pair.diagnostics["order_residual"] <= 1e-14


def test_order_residual_zero_for_taylor_section():
    rng = np.random.default_rng(13)
    pair = pade(rng.standard_normal(7), m=6, n=0)
    assert pair.diagnostics["order_residual"] == 0.0


@pytest.mark.parametrize("m, n", [(3, 2), (6, 4), (20, 3)])
def test_order_residual_ignores_coefficients_past_m_plus_n(m, n):
    # the scale is 1 + max_{j<=m+n} |a_j|, so a longer slice of the same
    # series, its tail far larger than the window, gives the same residual
    rng = np.random.default_rng(m + n)
    coeffs = rng.standard_normal(m + n + 21)
    coeffs[m + n + 1:] *= 1e6
    short, long = pade(coeffs[: m + n + 1], m, n), pade(coeffs, m, n)
    assert short.diagnostics["order_residual"] > 0.0
    assert long.diagnostics["order_residual"] == short.diagnostics["order_residual"]


def random_coefficients(kind, size, seed):
    rng = np.random.default_rng(seed)
    if kind == "integer":
        return rng.integers(-9, 10, size)
    coeffs = rng.standard_normal(size)
    return coeffs + 1j * rng.standard_normal(size) if kind == "complex" else coeffs


@settings(max_examples=300)
@given(st.sampled_from(["real", "integer", "complex"]), st.integers(0, 40), st.integers(0, 12),
       st.integers(0, 2**32 - 1))
def test_order_condition_and_coefficient_mass_on_random_windows(kind, m, n, seed):
    # coeff_j(f q - p) = 0 for j <= m+n up to rounding, and
    # ||p||_1 <= ||q||_1 * sum_{j<=m} |a_j| on every successful solve
    coeffs = random_coefficients(kind, m + n + 1, seed)
    try:
        pair = pade(coeffs, m, n)
    except DegenerateSystem:
        assume(False)
    assert pair.diagnostics["order_residual"] <= 1e-8
    lhs = np.sum(np.abs(pair.p.coeffs))
    rhs = np.sum(np.abs(pair.q.coeffs)) * np.sum(np.abs(coeffs[: m + 1]))
    assert lhs <= rhs * (1 + 1e-12)


@pytest.mark.parametrize("kind", ["real", "integer", "complex"])
def test_pade_takes_the_l1_sums_of_the_mass_inequality(kind):
    # q_l1 = ||q||_1 and a_l1 = sum_{j<=m} |a_j|, the sums that the runner's
    # mass check and et_bound_chain read from the pair
    coeffs = random_coefficients(kind, 12, 41)
    pair = pade(coeffs, 6, 4)
    assert pair.q_l1 == float(np.sum(np.abs(pair.q.coeffs)))
    assert pair.a_l1 == float(np.sum(np.abs(coeffs[:7])))
    assert pade(coeffs, 11, 0).q_l1 == 1.0


def test_coefficient_mass_inequality_on_random_solves():
    # the fixed-seed windows the inequality was first checked on, kept as a
    # regression set beside the property above
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = int(rng.integers(0, 10))
        n = int(rng.integers(0, 10))
        coeffs = rng.standard_normal(m + n + 1)
        try:
            pair = pade(coeffs, m, n)
        except DegenerateSystem:
            continue
        lhs = np.sum(np.abs(pair.p.coeffs))
        rhs = np.sum(np.abs(pair.q.coeffs)) * np.sum(np.abs(coeffs[: m + 1]))
        assert lhs <= rhs * (1 + 1e-12)


# ---------------------------------------------------------------- et_ratio

def test_et_ratio_examples():
    assert et_ratio(Polynomial([1.0, 0.0, 0.0, 1.0])).log_value == pytest.approx(math.log(2.0))
    assert et_ratio(Polynomial([2.0, 1.0])).log_value == pytest.approx(
        math.log(3.0 / math.sqrt(2.0)))
    assert et_ratio(Polynomial([1.0, 1.0, 1.0])).log_value == pytest.approx(math.log(3.0))


def test_et_ratio_is_at_least_two():
    rng = np.random.default_rng(19)
    for _ in range(200):
        c = rng.standard_normal(int(rng.integers(2, 30)))
        try:
            r = et_ratio(Polynomial(c))
        except EndCoefficientZero:
            continue
        assert r.log_value >= math.log(2.0) - 1e-12


def test_et_ratio_rejects_vanishing_end_coefficients():
    with pytest.raises(EndCoefficientZero):
        et_ratio(Polynomial([0.0, 1.0, 1.0]))
    with pytest.raises(EndCoefficientZero):
        et_ratio(Polynomial([1.0, 1.0, 0.0]))
    with pytest.raises(DegenerateInput):
        et_ratio(Polynomial([3.0]))


@pytest.mark.parametrize("bad, problem", [
    ([1.0, math.nan, 1.0], "not finite"),
    ([1.0, -math.inf, 1.0], "not finite"),
    (np.ones((3, 3)), "1-D"),
])
def test_et_ratio_rejects_malformed_coefficients(bad, problem):
    # a NaN ratio would read as an invariant breach downstream
    with pytest.raises(DegenerateInput, match=problem):
        et_ratio(bad)


@pytest.mark.parametrize("bad, problem", [
    (np.ones((3, 3)), "1-D"),
    ([1.0, 0.5, math.nan, 0.125], "not finite"),
    ([1.0, 0.5, 0.25, math.inf], "not finite"),
])
def test_pade_rejects_malformed_coefficients(bad, problem):
    with pytest.raises(DegenerateInput, match=problem):
        pade(bad, 1, 1)


def test_pade_rejects_an_overflowing_pair():
    # A = [1e-300] is perfectly conditioned, but q_1 = -1e300 / 1e-300 = -inf
    with pytest.raises(DegenerateInput, match="overflows"):
        pade([1.0, 1e-300, 1e300], 1, 1)


def test_et_ratio_of_taylor_section_closed_form():
    rng = np.random.default_rng(23)
    coeffs = rng.standard_normal(6)
    pair = pade(coeffs, m=5, n=0)
    r = et_ratio(pair.p)
    expected = np.sum(np.abs(coeffs)) / math.sqrt(abs(coeffs[0]) * abs(coeffs[5]))
    assert r.log_value == pytest.approx(math.log(expected), abs=1e-14)


# ---------------------------------------------------------------- bound chain

def test_cauchy_binet_identity_on_random_windows():
    # det(T T*) equals the sum of squared maximal minors of T
    rng = np.random.default_rng(29)
    for _ in range(30):
        m = int(rng.integers(0, 6))
        n = int(rng.integers(1, 6))
        t = build_triple(rng.standard_normal(m + n + 1), m, n)
        gram = float(np.linalg.det(t.T @ t.T.conj().T).real)
        minors = sum(
            float(np.linalg.det(np.delete(t.T, k, axis=1)).real) ** 2
            for k in range(n + 1)
        )
        assert gram == pytest.approx(minors, rel=1e-9, abs=1e-12)


def test_cauchy_binet_n1_reduces_to_two_subdeterminants():
    t = build_triple([3.0, 5.0, 7.0], m=1, n=1)
    gram = float((t.T @ t.T.T)[0, 0])
    assert gram == pytest.approx(7.0**2 + 5.0**2)


def test_bound_chain_dominates_ratio_and_is_monotone():
    rng = np.random.default_rng(31)
    evaluated = 0
    for _ in range(1000):
        m = int(rng.integers(1, 13))
        n = int(rng.integers(1, 13))
        coeffs = rng.standard_normal(m + n + 1)
        try:
            pair = pade(coeffs, m, n)
            chain = et_bound_chain(pair)
            ratio = et_ratio(pair.p)
        except (DegenerateSystem, EndCoefficientZero):
            continue
        evaluated += 1
        slack = 1e-9 + 1e-12 * pair.diagnostics["condition"]
        assert ratio.log_value <= chain.log_l1 + slack
        assert chain.log_l1 <= chain.log_cauchy_binet + slack
        assert chain.log_cauchy_binet <= chain.log_amgm + slack
    assert evaluated >= 900


_RNG = np.random.default_rng(5)
_REAL = _RNG.standard_normal(12)
_COMPLEX = _RNG.standard_normal(10) + 1j * _RNG.standard_normal(10)


@pytest.mark.parametrize("coeffs, m, n, expected", [
    ([3.0, 5.0, 7.0, 2.0], 1, 1, ("0x1.4232d1faa1763p+1", "0x1.43f3b99b26b43p+1", "0x1.6e8f57f895ea3p+1")),
    (_REAL, 6, 3, ("0x1.4e162b94c54aap+1", "0x1.67cb450771a21p+1", "0x1.bf8590713a0fap+2")),
    (_REAL, 4, 5, ("0x1.caae6ab51eecfp+1", "0x1.d220c15f2fe35p+1", "0x1.c3b62eb52fceep+3")),
    (_REAL, 9, 0, ("0x1.e9f083071fe11p+0", "0x1.e9f083071fe12p+0", "0x1.e9f083071fe12p+0")),
    (_COMPLEX, 5, 4, ("0x1.63a64fea2fd80p+1", "0x1.6b5efbbe937cap+1", "0x1.3639745daeca8p+3")),
])
def test_bound_chain_keeps_its_values_on_fixed_windows(coeffs, m, n, expected):
    # reading log|det A|, a_0 and the l1 sums from the pair must not move a bit
    chain = et_bound_chain(pade(coeffs, m, n))
    assert (chain.log_l1, chain.log_cauchy_binet, chain.log_amgm) == \
        tuple(float.fromhex(h) for h in expected)


def test_et_style_unit_factors_each_window_once(monkeypatch):
    # pade factors A; et_bound_chain factors A_{n+1} and T T* and reads A's
    # log|det| from the pair
    from padeclust import experiments as ex
    from padeclust import toeplitz

    shapes = []
    getrf = toeplitz._getrf
    monkeypatch.setattr(toeplitz, "_getrf", lambda M: shapes.append(M.shape) or getrf(M))
    cfg = ex.default_config(ex.ET_CLUSTERING, m=(8, 16), n=2, trials=3)
    block = ex._et_style_records(cfg, range(cfg.trials))
    assert set(block.reason) <= {"", "nonconvergence"}
    assert shapes == [(2, 2), (3, 3), (2, 2)] * len(block.reason)


def test_bound_chain_requires_nonsingular_windows():
    coeffs = [1.0, 1.0, 1.0]
    pair = pade(coeffs, 1, 1)
    # A_1^(2) = [[1,1],[1,1]] is singular for the all-ones sequence
    with pytest.raises((DegenerateSystem, EndCoefficientZero)):
        et_bound_chain(pair)
