import math

import numpy as np
import pytest

from padeclust import (
    DegenerateInput,
    DegenerateSystem,
    InsufficientCoefficients,
    assoc_matrix,
    build_triple,
    log_abs_det,
    log_abs_dets,
    pade,
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


# ---------------------------------------------------------------- non-finite input
# Each public entry point raises DegenerateInput naming itself; NaN or inf
# would otherwise come back as a log|det| of nan or inf flagged non-singular.

def test_assoc_matrix_rejects_non_finite_coefficients():
    with pytest.raises(DegenerateInput, match="assoc_matrix: coefficient 1 is not finite"):
        assoc_matrix([1.0, math.nan, 2.0, 3.0], 1, 2)


def test_build_triple_rejects_non_finite_coefficients():
    with pytest.raises(DegenerateInput, match="build_triple: coefficient 2 is not finite"):
        build_triple([1.0, 2.0, math.nan, 3.0], 1, 1)


def test_log_abs_det_rejects_non_finite_entries():
    with pytest.raises(DegenerateInput, match=r"log_abs_det: element \(0, 0\) is not finite"):
        log_abs_det([[math.inf, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_log_abs_dets_rejects_non_finite_entries_at_every_position(k, bad):
    rng = np.random.default_rng(k)
    for dtype in (float, complex):
        for i in range(k):
            for j in range(k):
                W = rng.standard_normal((3, k, k)).astype(dtype)
                W[1, i, j] = bad
                with pytest.raises(DegenerateInput, match=rf"log_abs_dets: element \(1, {i}, {j}\)"):
                    log_abs_dets(W)


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
# pade's denominator solve: q = pair.q.coeffs with q_0 = 1 solving T q = 0

def test_solve_all_ones_coefficients():
    q = pade([1.0, 1.0, 1.0, 1.0], m=1, n=1).q.coeffs
    np.testing.assert_allclose(q, [1.0, -1.0], atol=1e-14)


def test_solve_exponential_series():
    q = pade([1.0, 1.0, 0.5, 1.0 / 6.0], m=1, n=1).q.coeffs
    np.testing.assert_allclose(q, [1.0, -0.5], atol=1e-14)


def test_solve_pathological_zero_pivot():
    with pytest.raises(DegenerateSystem):
        pade([1.0, 0.0, 1.0, 1.0], m=1, n=1)


def test_solve_condition_cap_double_vs_extended():
    # A = [[1, 1], [1 + 1e-13, 1]] has determinant -1e-13: past the double
    # cap but fine for the extended route.
    coeffs = [1.0, 1.0, 1.0 + 1e-13, 0.25]
    with pytest.raises(DegenerateSystem):
        pade(coeffs, m=1, n=2)
    pair = pade(coeffs, m=1, n=2, precision="extended")
    q = pair.q.coeffs
    assert q[0] == 1.0
    resid = pair.triple.T @ q
    assert np.max(np.abs(resid)) <= 1e-10 * (1 + np.max(np.abs(coeffs)) * np.sum(np.abs(q)))


def test_solve_rejects_unknown_precision():
    with pytest.raises(ValueError):
        pade([1.0, 1.0, 1.0, 1.0], m=1, n=1, precision="quad")


def test_solve_n0_returns_trivial_denominator():
    q = pade([2.0, 3.0, 5.0], m=2, n=0).q.coeffs
    np.testing.assert_array_equal(q, [1.0])


def test_solve_residual_invariant_random():
    rng = np.random.default_rng(17)
    solved = 0
    for _ in range(200):
        m = int(rng.integers(0, 13))
        n = int(rng.integers(1, 13))
        coeffs = rng.standard_normal(m + n + 1)
        try:
            pair = pade(coeffs, m, n)
        except DegenerateSystem:
            continue
        solved += 1
        q = pair.q.coeffs
        assert q[0] == 1.0
        resid = np.abs(pair.triple.T @ q)
        bound = 1e-10 * (1 + np.max(np.abs(coeffs)) * np.sum(np.abs(q)))
        assert np.max(resid) <= bound
    assert solved > 150


def test_solve_complex_coefficients():
    rng = np.random.default_rng(19)
    coeffs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    pair = pade(coeffs, m=3, n=4)
    q = pair.q.coeffs
    assert q.dtype.kind == "c"
    resid = np.abs(pair.triple.T @ q)
    assert np.max(resid) <= 1e-10 * (1 + np.max(np.abs(coeffs)) * np.sum(np.abs(q)))


def test_solve_extended_matches_double_when_well_conditioned():
    rng = np.random.default_rng(23)
    coeffs = rng.standard_normal(10)
    qd = pade(coeffs, m=4, n=5).q.coeffs
    qe = pade(coeffs, m=4, n=5, precision="extended").q.coeffs
    np.testing.assert_allclose(qe, qd, atol=1e-12)
