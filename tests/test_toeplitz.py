import math

import numpy as np
import pytest

from padeclust import (
    DegenerateSystem,
    InsufficientCoefficients,
    assoc_matrix,
    build_triple,
    log_abs_det,
    solve_denominator,
)


# ---------------------------------------------------------------- oracle

def cofactor_det(M):
    """Textbook cofactor expansion along the first row.  Exact on integer
    input (Python scalars), used as the independent determinant oracle."""
    M = [list(row) for row in M]
    k = len(M)
    if k == 0:
        return 1
    if k == 1:
        return M[0][0]
    total = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * cofactor_det(minor)
    return total


def test_oracle_agrees_with_closed_forms():
    assert cofactor_det([[3]]) == 3
    assert cofactor_det([[1, 2], [3, 4]]) == 1 * 4 - 2 * 3
    assert cofactor_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert cofactor_det([[1, 2], [2, 4]]) == 0


# ---------------------------------------------------------------- build_triple

def test_build_triple_m1_n1():
    t = build_triple([2.0, 3.0, 5.0], m=1, n=1)
    assert t.A.shape == (1, 1) and t.A[0, 0] == 3.0
    np.testing.assert_array_equal(t.T, [[5.0, 3.0]])


def test_build_triple_m0_n2_pads_negative_indices():
    t = build_triple([2.0, 3.0, 5.0], m=0, n=2)
    np.testing.assert_array_equal(t.A, [[2.0, 0.0], [3.0, 2.0]])
    np.testing.assert_array_equal(t.T, [[3.0, 2.0, 0.0], [5.0, 3.0, 2.0]])


def test_build_triple_n0_degenerate_shapes():
    t = build_triple([2.0, 3.0, 5.0], m=2, n=0)
    assert t.A.shape == (0, 0)
    assert t.T.shape == (0, 1)


def test_build_triple_rejects_short_input():
    with pytest.raises(InsufficientCoefficients):
        build_triple([1.0, 2.0], m=1, n=1)


def test_columns_of_T_bitwise_equal_A():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(0, 9))
        n = int(rng.integers(1, 7))
        coeffs = rng.standard_normal(m + n + 1)
        t = build_triple(coeffs, m, n)
        assert np.array_equal(t.T[:, 1:], t.A)
        assert np.array_equal(assoc_matrix(coeffs, m, n), t.A)


def test_assoc_matrix_only_needs_leading_coefficients():
    coeffs = [1.0, 2.0, 3.0, 4.0]
    full = assoc_matrix(coeffs, m=1, k=3)
    assert full.shape == (3, 3)
    with pytest.raises(InsufficientCoefficients):
        assoc_matrix(coeffs, m=2, k=3)


# ---------------------------------------------------------------- log_abs_det

def test_logdet_identity():
    res = log_abs_det(np.eye(5))
    assert res.log_abs == 0.0
    assert res.sign_or_phase == 1.0
    assert not res.singular
    assert res.condition_estimate == pytest.approx(1.0)


def test_logdet_diag():
    res = log_abs_det(np.diag([2.0, 3.0]))
    assert res.log_abs == pytest.approx(math.log(6.0), rel=1e-14)


def test_logdet_empty_matrix_is_det_one():
    res = log_abs_det(np.zeros((0, 0)))
    assert res.log_abs == 0.0
    assert not res.singular


def test_logdet_exactly_singular():
    res = log_abs_det([[1.0, 1.0], [1.0, 1.0]])
    assert res.singular
    assert res.log_abs == -math.inf
    assert res.sign_or_phase == 0.0
    assert res.condition_estimate == math.inf


def test_logdet_complex_phase():
    res = log_abs_det([[1j]])
    assert res.log_abs == pytest.approx(0.0, abs=1e-15)
    assert res.sign_or_phase == pytest.approx(1j)


def test_logdet_sign_tracks_row_swaps():
    res = log_abs_det([[0.0, 1.0], [1.0, 0.0]])
    assert res.sign_or_phase == -1.0
    assert res.log_abs == pytest.approx(0.0, abs=1e-15)


def test_logdet_rejects_non_square():
    with pytest.raises(ValueError):
        log_abs_det(np.ones((2, 3)))


def test_logdet_random_4x4_matches_cofactor_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        M = rng.standard_normal((4, 4))
        res = log_abs_det(M)
        signed = math.exp(res.log_abs) * res.sign_or_phase
        expected = cofactor_det(M.tolist())
        assert signed == pytest.approx(expected, rel=1e-10)


def test_logdet_small_integer_matrices_vs_oracle():
    rng = np.random.default_rng(13)
    for _ in range(500):
        k = int(rng.integers(1, 6))
        M = rng.integers(-2, 3, size=(k, k))
        expected = cofactor_det(M.tolist())
        res = log_abs_det(M)
        if res.singular:
            assert expected == 0
            continue
        signed = math.exp(res.log_abs) * res.sign_or_phase
        assert abs(signed - expected) <= 1e-9 * (1 + abs(expected))


# ---------------------------------------------------------------- solve

def test_solve_all_ones_coefficients():
    t = build_triple([1.0, 1.0, 1.0, 1.0], m=1, n=1)
    q = solve_denominator(t)
    np.testing.assert_allclose(q, [1.0, -1.0], atol=1e-14)


def test_solve_exponential_series():
    t = build_triple([1.0, 1.0, 0.5, 1.0 / 6.0], m=1, n=1)
    q = solve_denominator(t)
    np.testing.assert_allclose(q, [1.0, -0.5], atol=1e-14)


def test_solve_pathological_zero_pivot():
    t = build_triple([1.0, 0.0, 1.0, 1.0], m=1, n=1)
    with pytest.raises(DegenerateSystem):
        solve_denominator(t)


def test_solve_condition_cap_double_vs_extended():
    # A = [[1, 1], [1 + 1e-13, 1]] has determinant -1e-13: past the double
    # cap but fine for the extended route.
    coeffs = [1.0, 1.0, 1.0 + 1e-13, 0.25]
    t = build_triple(coeffs, m=1, n=2)
    with pytest.raises(DegenerateSystem):
        solve_denominator(t)
    q = solve_denominator(t, precision="extended")
    assert q[0] == 1.0
    resid = t.T @ q
    assert np.max(np.abs(resid)) <= 1e-10 * (1 + np.max(np.abs(coeffs)) * np.sum(np.abs(q)))


def test_solve_rejects_unknown_precision():
    t = build_triple([1.0, 1.0, 1.0, 1.0], m=1, n=1)
    with pytest.raises(ValueError):
        solve_denominator(t, precision="quad")


def test_solve_n0_returns_trivial_denominator():
    t = build_triple([2.0, 3.0, 5.0], m=2, n=0)
    q = solve_denominator(t)
    np.testing.assert_array_equal(q, [1.0])


def test_solve_residual_invariant_random():
    rng = np.random.default_rng(17)
    solved = 0
    for _ in range(200):
        m = int(rng.integers(0, 13))
        n = int(rng.integers(1, 13))
        coeffs = rng.standard_normal(m + n + 1)
        t = build_triple(coeffs, m, n)
        try:
            q = solve_denominator(t)
        except DegenerateSystem:
            continue
        solved += 1
        assert q[0] == 1.0
        resid = np.abs(t.T @ q)
        bound = 1e-10 * (1 + np.max(np.abs(coeffs)) * np.sum(np.abs(q)))
        assert np.max(resid) <= bound
    assert solved > 150


def test_solve_complex_coefficients():
    rng = np.random.default_rng(19)
    coeffs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    t = build_triple(coeffs, m=3, n=4)
    q = solve_denominator(t)
    assert q.dtype.kind == "c"
    resid = np.abs(t.T @ q)
    assert np.max(resid) <= 1e-10 * (1 + np.max(np.abs(coeffs)) * np.sum(np.abs(q)))


def test_solve_extended_matches_double_when_well_conditioned():
    rng = np.random.default_rng(23)
    coeffs = rng.standard_normal(10)
    t = build_triple(coeffs, m=4, n=5)
    qd = solve_denominator(t)
    qe = solve_denominator(t, precision="extended")
    np.testing.assert_allclose(qe, qd, atol=1e-12)
