import math

import numpy as np
import pytest

from padeclust import (
    DegenerateInput,
    DegenerateSystem,
    EndCoefficientZero,
    InsufficientCoefficients,
    Polynomial,
    build_triple,
)
from padeclust.pade import EtBoundChain, et_bound_chain, et_ratio, pade, validate_order


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
    from padeclust import log_abs_det

    assert pair.diagnostics["logdet_A"] == pytest.approx(log_abs_det(triple.A).log_abs)
    assert pair.diagnostics["condition"] >= 1.0
    assert pair.diagnostics["order_residual"] <= 1e-14


# ---------------------------------------------------------------- validate_order

def test_validate_order_exact_pair_is_tiny():
    pair = pade([1.0, 1.0, 1.0], m=1, n=1)
    assert validate_order([1.0, 1.0, 1.0], pair) <= 1e-14


def test_validate_order_sees_perturbation_at_j0():
    coeffs = [1.0, 1.0, 1.0]
    pair = pade(coeffs, m=1, n=1)
    perturbed = type(pair)(
        p=Polynomial(pair.p.coeffs + np.array([1.0, 0.0])),
        q=pair.q, m=pair.m, n=pair.n, diagnostics=dict(pair.diagnostics),
    )
    denom = (1.0 + 1.0) * np.sum(np.abs(pair.q.coeffs))
    assert validate_order(coeffs, perturbed) >= 0.99 / denom


def test_validate_order_zero_for_taylor_section():
    rng = np.random.default_rng(13)
    coeffs = rng.standard_normal(7)
    pair = pade(coeffs, m=6, n=0)
    assert validate_order(coeffs, pair) == 0.0


def test_coefficient_mass_inequality_on_random_solves():
    # ||p||_1 <= ||q||_1 * sum_{j<=m} |a_j| on every successful solve
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
    assert et_ratio(Polynomial([1.0, 0.0, 0.0, 1.0])).value == pytest.approx(2.0)
    assert et_ratio(Polynomial([2.0, 1.0])).value == pytest.approx(3.0 / math.sqrt(2.0))
    assert et_ratio(Polynomial([1.0, 1.0, 1.0])).value == pytest.approx(3.0)


def test_et_ratio_is_at_least_two():
    rng = np.random.default_rng(19)
    for _ in range(200):
        c = rng.standard_normal(int(rng.integers(2, 30)))
        try:
            r = et_ratio(Polynomial(c))
        except EndCoefficientZero:
            continue
        assert r.value >= 2.0 - 1e-12
        assert r.log_value == pytest.approx(math.log(r.value))
        assert r.n_coeffs == len(c)


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


def test_et_ratio_of_taylor_section_closed_form():
    rng = np.random.default_rng(23)
    coeffs = rng.standard_normal(6)
    pair = pade(coeffs, m=5, n=0)
    r = et_ratio(pair.p)
    expected = np.sum(np.abs(coeffs)) / math.sqrt(abs(coeffs[0]) * abs(coeffs[5]))
    assert r.value == pytest.approx(expected, rel=1e-14)


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
        triple = build_triple(coeffs, m, n)
        try:
            pair = pade(coeffs, m, n)
            chain = et_bound_chain(coeffs, triple, pair)
            ratio = et_ratio(pair.p)
        except (DegenerateSystem, EndCoefficientZero):
            continue
        evaluated += 1
        slack = 1e-9 + 1e-12 * pair.diagnostics["condition"]
        assert ratio.log_value <= chain.log_l1 + slack
        assert chain.log_l1 <= chain.log_cauchy_binet + slack
        assert chain.log_cauchy_binet <= chain.log_amgm + slack
    assert evaluated >= 900


def test_bound_chain_requires_nonsingular_windows():
    coeffs = [1.0, 1.0, 1.0]
    triple = build_triple(coeffs, 1, 1)
    pair = pade(coeffs, 1, 1)
    # A_1^(2) = [[1,1],[1,1]] is singular for the all-ones sequence
    with pytest.raises((DegenerateSystem, EndCoefficientZero)):
        et_bound_chain(coeffs, triple, pair)


def test_bound_chain_values_overflow_to_inf():
    chain = EtBoundChain(log_l1=800.0, log_cauchy_binet=900.0, log_amgm=1000.0)
    assert chain.l1 == math.inf
    assert EtBoundChain(log_l1=0.0, log_cauchy_binet=0.0, log_amgm=1.0).amgm == pytest.approx(math.e)
