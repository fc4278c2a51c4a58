"""Unit tests for polynomial arithmetic, root finding and circle averages.

Oracles used here are independent of the implementation under test:
companion-matrix eigenvalues and mpmath.polyroots for roots, and the two
sides of Jensen's identity against each other.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from padeclust import (
    DegenerateInput,
    NonConvergence,
    Polynomial,
    circle_log_average,
    evaluate,
    find_roots,
    find_roots_batch,
    jensen_rhs,
)
from padeclust.poly import EXTENDED_DPS, ZERO_REL, _aberth_extended
from padeclust.sampler import DISCRETE, GAUSSIAN, distribution, sample


def companion_roots(coeffs):
    """Oracle: eigenvalues of the companion matrix via a dense eigensolver."""
    c = np.asarray(coeffs, dtype=complex)
    c = c / c[-1]
    d = len(c) - 1
    M = np.zeros((d, d), dtype=complex)
    M[1:, :-1] = np.eye(d - 1)
    M[:, -1] = -c[:-1]
    return np.linalg.eigvals(M)


def match_distance(a, b):
    """Max over a of the distance to the nearest element of b."""
    a = np.asarray(a)
    b = np.asarray(b)
    return max(np.min(np.abs(b - x)) for x in a)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_examples():
    assert abs(evaluate(Polynomial([1, 0, 1]), 1j)) < 1e-15
    assert evaluate(Polynomial([1.0]), 123.4 + 5j) == 1.0
    assert evaluate(Polynomial([1, 1, 1, 1]), 2.0) == 15.0


def test_evaluate_at_zero_is_exact():
    p = Polynomial([0.1 + 0.2j, 3.0, -7.0])
    assert evaluate(p, 0.0) == p.coeffs[0]


def test_evaluate_vectorized():
    p = Polynomial([1, 2, 3])
    z = np.array([0.0, 1.0, -1.0])
    np.testing.assert_allclose(evaluate(p, z), [1.0, 6.0, 2.0])


def test_degree_thresholding():
    assert Polynomial([1.0, 1.0, 1e-20]).degree == 1
    assert Polynomial([0.0]).degree == -1
    assert Polynomial([3.0]).degree == 0


# ---------------------------------------------------------------------------
# find_roots


def test_find_roots_quadratic():
    rs = find_roots(Polynomial([-1, 0, 1]))
    np.testing.assert_allclose(sorted(rs.roots.real), [-1.0, 1.0], atol=1e-12)
    assert np.abs(rs.roots.imag).max() < 1e-12
    assert rs.converged


def test_find_roots_eighth_roots_of_minus_one():
    p = Polynomial([1, 0, 0, 0, 0, 0, 0, 0, 1])
    rs = find_roots(p)
    assert len(rs) == 8
    np.testing.assert_allclose(rs.moduli, np.ones(8), atol=1e-10)
    expected = np.exp(1j * (2 * np.arange(8) + 1) * np.pi / 8)
    assert match_distance(expected, rs.roots) < 1e-10


def test_find_roots_against_companion_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        c = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        rs = find_roots(Polynomial(c))
        oracle = companion_roots(c)
        assert match_distance(oracle, rs.roots) < 1e-8
        assert match_distance(rs.roots, oracle) < 1e-8


def test_find_roots_origin_zeros_split_exactly():
    # z^2 (z + 1): two exact zeros at the origin plus -1
    rs = find_roots(Polynomial([0.0, 0.0, 1.0, 1.0]))
    assert len(rs) == 3
    assert rs.roots[0] == 0.0 and rs.roots[1] == 0.0
    assert abs(rs.roots[2] + 1.0) < 1e-12


def test_find_roots_cardinality_equals_degree():
    rng = np.random.default_rng(3)
    for deg in (1, 2, 5, 17):
        c = rng.standard_normal(deg + 1)
        rs = find_roots(Polynomial(c))
        assert len(rs) == Polynomial(c).degree
        assert np.all(np.diff(rs.moduli) >= -1e-15)  # sorted by modulus


def test_find_roots_monic_reconstruction():
    rng = np.random.default_rng(5)
    for deg in (8, 33, 64):
        c = rng.standard_normal(deg + 1)
        rs = find_roots(Polynomial(c))
        rec = np.ones(1, dtype=complex)
        for z0 in rs.roots:
            rec = np.convolve(rec, [-z0, 1.0])
        target = c / c[-1]
        err = np.abs(rec - target) / max(1.0, np.abs(target).max())
        assert err.max() < 1e-6


def test_find_roots_nonconvergence_carries_partial():
    # impossible tolerance: the residual of an inexact double root set on a
    # degree-3 polynomial cannot be 0, so the call must raise
    with pytest.raises(NonConvergence) as exc:
        find_roots(Polynomial([1.0, 2.0, 3.0, 4.0]), tol=0.0, max_iter=8)
    partial = exc.value.partial
    assert partial is not None and len(partial) == 3 and not partial.converged


def test_find_roots_multiple_root():
    # |p/p'| never drops below the step rule's 1e-12*(1+|z|) at an 8-fold
    # root; the iterates settle on the backward-error stop instead
    rs = find_roots(np.poly(np.ones(8))[::-1])  # (z - 1)**8
    assert rs.converged and len(rs) == 8
    # an 8-fold root is conditioned to about eps**(1/8)
    assert np.abs(rs.roots - 1.0).max() < 0.1


def test_colliding_iterates_on_a_simple_root_are_kicked_apart(monkeypatch):
    # two start points on the same simple root 1, where p is exactly 0:
    # both are within the evaluation error, but their repulsion sum is not
    # finite.  Settling both there would return 1 twice and miss a root
    # (the residual cannot see that); they are kicked apart instead
    from padeclust import poly as P

    roots = np.array([1.0, 2.0, -3j])
    monkeypatch.setattr(P, "_start_points",
                        lambda c, offset, real=None: np.array([1.0, 1.0, 0.5j]))
    rs = find_roots(np.poly(roots)[::-1])
    assert rs.converged and match_distance(roots, rs.roots) < 1e-12


@pytest.mark.parametrize("seed, trials, trial, m", [(0, 200, 103, 100), (7, 25, 24, 200)])
def test_find_roots_settles_close_real_pairs_at_the_noise_floor(seed, trials, trial, m):
    """Two et-clustering numerators (n = 1, m up to 400) whose close real
    root pairs (0.40710 and 0.40759 in the first) fell into a 2-cycle at the
    step rule's noise floor from both retry offsets: criterion 6's trial 103
    at m = 100, and et-sweep seed 7's trial 24 at m = 200.  The
    backward-error stop settles both from the first start points."""
    from padeclust import experiments as ex
    from padeclust.pade import pade

    cfg = ex.default_config(ex.ET_CLUSTERING, m=(50, 100, 200, 400), n=1, trials=trials,
                            seed=seed)
    coeffs = sample(cfg.spec, 402, cfg.seed, trial).coeffs
    (rs,) = find_roots_batch([pade(coeffs[:m + 3], m, 1).p])
    assert not isinstance(rs, NonConvergence) and rs.converged
    assert len(rs) == m


def test_find_roots_degenerate_input():
    with pytest.raises(DegenerateInput):
        find_roots(Polynomial([2.0]))
    with pytest.raises(DegenerateInput):
        find_roots(Polynomial([0.0, 0.0]))


@pytest.mark.parametrize("bad, problem", [
    ([1.0, math.nan, 1.0], "not finite"),
    ([1.0, math.inf, 1.0], "not finite"),
    (np.ones((3, 3)), "1-D"),
])
def test_find_roots_rejects_malformed_coefficients(bad, problem):
    with pytest.raises(DegenerateInput, match=problem):
        find_roots(bad)
    with pytest.raises(DegenerateInput, match=problem):
        find_roots_batch([[1.0, 2.0, 3.0], bad])


def _mixed_polys():
    """Degrees 2-400 with repeats, complex coefficients, origin zeros, a
    linear and a pure-origin polynomial, and integer coefficients whose top
    entries fall below the zero threshold (numerical degree < length - 1)."""
    rng = np.random.default_rng(2024)
    polys = [rng.standard_normal(d + 1) for d in (2, 3, 7, 7, 7, 50, 50, 50, 120, 400)]
    polys.append(rng.standard_normal(31) + 1j * rng.standard_normal(31))
    polys.append(np.concatenate([np.zeros(3), rng.standard_normal(8)]))
    polys.append(np.array([0.5, -2.0]))
    polys.append(np.array([0.0, 0.0, 1.0]))
    spec = distribution(DISCRETE, M=2)
    short = next(c for c in (sample(spec, 12, 0, t).coeffs for t in range(50))
                 if c[0] != 0 and abs(c[-1]) <= ZERO_REL * np.abs(c).max())
    assert Polynomial(short).degree < len(short) - 1
    polys.append(short)
    return polys


@pytest.mark.parametrize("max_iter, precision", [(150, "double"), (8, "double"),
                                                 (150, "extended")])
def test_find_roots_batch_matches_find_roots_bitwise(max_iter, precision):
    polys = _mixed_polys()
    if precision == "extended":
        # the mpmath continuation costs about d^2 mp operations per sweep:
        # keep the degrees up to 50, repeats included
        polys = [p for p in polys if len(p) <= 51]
    batch = find_roots_batch(polys, max_iter=max_iter, precision=precision)
    assert len(batch) == len(polys)
    unsettled = 0
    for p, got in zip(polys, batch):
        try:
            want = find_roots(p, max_iter=max_iter, precision=precision)
        except NonConvergence as exc:
            assert isinstance(got, NonConvergence) and str(got) == str(exc)
            want, got = exc.partial, got.partial
            unsettled += "did not settle" in str(exc)
        assert got.roots.tobytes() == want.roots.tobytes()
        assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()
        assert got.converged == want.converged
    # the short budget must leave some rows unsettled, so partial iterates
    # are compared too
    assert (unsettled > 0) == (max_iter == 8)


def test_find_roots_extended_precision_matches_double():
    rng = np.random.default_rng(13)
    c = rng.standard_normal(9)
    a = find_roots(Polynomial(c))
    b = find_roots(Polynomial(c), precision="extended")
    assert match_distance(a.roots, b.roots) < 1e-12


def _mp_roots(c):
    """Oracle: mpmath.polyroots (Durand-Kerner) at EXTENDED_DPS digits."""
    with mpmath.workdps(EXTENDED_DPS):
        roots = mpmath.polyroots([mpmath.mpc(complex(v)) for v in c[::-1]],
                                 maxsteps=200, extraprec=100)
        return np.array([complex(v) for v in roots])


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_find_roots_extended_matches_mpmath_polyroots(kind):
    rng = np.random.default_rng(31)
    polys = [rng.standard_normal(d + 1) for d in (2, 3, 5, 8, 12)]
    if kind == "complex":
        polys = [c + 1j * rng.standard_normal(len(c)) for c in polys]
    else:
        # (z-1)...(z-6): exact integer coefficients, and double precision
        # alone does not settle on these ill-conditioned roots
        polys.append(np.poly(np.arange(1.0, 7.0))[::-1])
    for c in polys:
        got = find_roots(c, precision="extended").roots
        want = _mp_roots(c)
        cost = np.abs(got[:, None] - want[None, :])
        i, j = linear_sum_assignment(cost)
        assert np.all(cost[i, j] <= 1e-14 * (1.0 + np.abs(want[j])))


def test_find_roots_extended_settles_on_backward_error():
    # (z-1)...(z-8): 30-digit corrections of the ill-conditioned roots hover
    # above the relative-step rule, while |p(z)| is at rounding level.
    # Iterates started off the real axis take complex steps throughout.
    c = np.poly(np.arange(1.0, 9.0))[::-1]
    z, settled = _aberth_extended(c.astype(complex), np.arange(1.0, 9.0) * (1 + 1e-7j), 150)
    assert settled and np.abs(z - np.arange(1.0, 9.0)).max() < 1e-14
    rs = find_roots(c, precision="extended")
    assert rs.converged and len(rs) == 8
    assert np.abs(rs.roots - np.arange(1.0, 9.0)).max() < 1e-14


def test_find_roots_extended_keeps_exactly_real_roots_real():
    # 8 double sweeps leave this polynomial unsettled, with one exactly real
    # iterate per real root (one per sign change); the mpmath continuation
    # moves those along the real axis only
    c = np.random.default_rng(0).standard_normal(41)
    real_roots = np.count_nonzero(np.abs(companion_roots(c).imag) < 1e-9)
    assert real_roots == 4
    rs = find_roots(c, max_iter=8, precision="extended")
    assert np.count_nonzero(rs.roots.imag == 0) == real_roots


def test_find_roots_extended_continues_unsettled_double_iterates():
    # 8 double sweeps leave this degree-40 polynomial unsettled; extended
    # precision continues those iterates and settles within its own 8
    c = np.random.default_rng(0).standard_normal(41)
    with pytest.raises(NonConvergence, match="did not settle"):
        find_roots(c, max_iter=8)
    rs = find_roots(c, max_iter=8, precision="extended")
    assert rs.converged and len(rs) == 40
    assert match_distance(rs.roots, find_roots(c).roots) < 1e-12


def test_extended_precision_continues_the_double_roots(monkeypatch):
    # 2 sweeps leave these unsettled in either precision (origin zeros
    # included); the extended call runs the double iteration once and hands
    # mpmath each row's double roots, origin zeros split off, in the sorted
    # order of the partial RootSet the double call returns
    from padeclust import poly as P

    rng = np.random.default_rng(0)
    polys = [rng.standard_normal(41), np.r_[0.0, 0.0, rng.standard_normal(31)],
             rng.standard_normal(21) + 1j * rng.standard_normal(21)]
    double = find_roots_batch(polys, max_iter=2, start_offset=0.37)
    assert all(isinstance(r, NonConvergence) for r in double)
    calls, seen = [], []
    real_aberth, real_extended = P._aberth, P._aberth_extended
    monkeypatch.setattr(P, "_aberth", lambda C, *a: calls.append(len(C)) or real_aberth(C, *a))
    monkeypatch.setattr(P, "_aberth_extended",
                        lambda c, z, n: seen.append((c, z)) or real_extended(c, z, n))
    find_roots_batch(polys, max_iter=2, precision="extended", start_offset=0.37)
    assert sorted(calls) == [1, 1, 1]
    assert len(seen) == 3
    for (c, z), p, d in zip(seen, polys, double):
        k0 = len(p) - len(c)
        assert c.tobytes() == np.asarray(p[k0:], dtype=complex).tobytes()
        assert z.tobytes() == d.partial.roots[k0:].tobytes()


def test_find_roots_tiny_leading_coefficient_keeps_the_real_count_parity():
    # c_20 = 2e-13 lies below the real grid's sign tolerance 4 d eps sum|c_j|,
    # but p(+-inf) has the exact sign of c_20, so the sign-change count keeps
    # the parity of d and finds both real roots, -1 and about -5e12
    c = np.r_[np.ones(20), 2e-13]
    rs = find_roots(c)
    assert rs.converged and len(rs) == 20
    want = _mp_roots(c)
    cost = np.abs(rs.roots[:, None] - want[None, :])
    i, j = linear_sum_assignment(cost)
    assert np.all(cost[i, j] <= 1e-12 * (1.0 + np.abs(want[j])))
    assert np.count_nonzero(rs.roots.imag == 0) == 2
    batched = find_roots_batch([c, np.r_[np.ones(20), 1.0], c])
    assert all(np.array_equal(b.roots, rs.roots) for b in batched[::2])


def test_find_roots_frees_a_real_iterate_whose_root_was_taken():
    # A U pair of this real degree-64 sample reaches the real root -22.6
    # before the real iterate of its sign-change bracket (-inf, -3.24) does.
    # After the row unfolds a freed mirror takes that root, and the real
    # iterate, pinned at its bracket's end, must go free to take the
    # complex root left over.
    c = sample(distribution(GAUSSIAN), 64, 11, 552).coeffs
    rs = find_roots(c)
    assert rs.converged
    assert match_distance(companion_roots(c), rs.roots) < 1e-9


def test_find_roots_large_start_radius_stays_finite():
    # tiny leading coefficient pushes the Cauchy start radius to ~1e8; the
    # reversed-polynomial evaluation must keep the iteration finite
    c = np.array([1.0, 2.0, -0.7, 1e-8])
    rs = find_roots(Polynomial(c))
    oracle = companion_roots(c)
    assert match_distance(oracle, rs.roots) < 1e-6


# ---------------------------------------------------------------------------
# circle_log_average / jensen_rhs


def test_circle_log_average_examples():
    got = circle_log_average(Polynomial([1, -2]), 1.0, quad_points=128)
    assert abs(got - math.log(2)) < 1e-12
    assert abs(circle_log_average(Polynomial([-3.5]), 2.7) - math.log(3.5)) < 1e-12
    assert abs(circle_log_average(Polynomial([1, 1]), 0.5, quad_points=128)) < 1e-12


def test_circle_log_average_zero_poly_and_grid_pre():
    with pytest.raises(DegenerateInput):
        circle_log_average(Polynomial([0.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        circle_log_average(Polynomial([1.0, 1.0]), 1.0, quad_points=4)


def test_circle_log_average_root_on_grid_node_is_finite():
    # p = z - 1 has its root exactly on the theta=0 node for r=1
    val = circle_log_average(Polynomial([-1.0, 1.0]), 1.0, quad_points=64)
    assert np.isfinite(val)
    assert abs(val) < 0.05  # exact circle average is 0


def test_jensen_rhs_examples():
    assert abs(jensen_rhs(np.array([0.5]), 1.0, 1.0) - math.log(2)) < 1e-15
    assert abs(jensen_rhs(np.array([2.0]), 3.0, 1.0) - math.log(3)) < 1e-15
    expected = math.log(1 / 0.3) + math.log(1 / 0.5) + math.log(1 / 0.9)
    got = jensen_rhs(np.array([0.3, 0.5, 0.9]), 1.0, 1.0)
    assert abs(got - expected) < 1e-12


def test_jensen_rhs_degenerate():
    with pytest.raises(DegenerateInput):
        jensen_rhs(np.array([0.5]), 0.0, 1.0)
    with pytest.raises(DegenerateInput):
        jensen_rhs(np.array([0.0, 0.5]), 1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.1, math.nan)])
def test_jensen_rhs_rejects_non_finite_roots(bad):
    # [nan, 0.5] used to give log 2, the NaN root dropped from the sum
    with pytest.raises(DegenerateInput, match="finite"):
        jensen_rhs(np.array([bad, 0.5]), 1.0, 1.0)


def test_jensen_identity_between_the_two_routes():
    """circle_log_average and jensen_rhs are dual routes to the same number;
    they must agree to 1e-6 once r stays 1e-3 away from every root modulus."""
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(60):
        deg = int(rng.integers(16, 49))
        c = rng.standard_normal(deg + 1)
        p = Polynomial(c)
        if abs(c[0]) < 1e-6:
            continue
        rs = find_roots(p)
        quad = 8 * p.degree
        for r in (0.5, 0.9, 1.1):
            # The aliasing error of the Q-node trapezoid rule with a root at
            # distance d from the circle is ~(2/Q)exp(-Q d/r), so hitting
            # 1e-6 with Q = 8*degree needs d >= ~13.5 r/Q.  Nudge r until the
            # gap clears that; the stated premise (gap >= 1e-3) still holds.
            need = 13.5 * r / quad
            for _ in range(30):
                if np.min(np.abs(rs.moduli - r)) >= need:
                    break
                r += 0.6 * need
                need = 13.5 * r / quad
            else:
                continue
            lhs = circle_log_average(p, r, quad_points=quad)
            rhs = jensen_rhs(rs, abs(c[0]), r)
            assert abs(lhs - rhs) < 1e-6, (r, lhs, rhs)
            checked += 1
    assert checked > 100


def test_jensen_identity_complex_coefficients():
    rng = np.random.default_rng(23)
    c = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    p = Polynomial(c)
    rs = find_roots(p)
    quad = 8 * p.degree
    checked = 0
    for r in (0.5, 0.9, 1.1):
        need = 13.5 * r / quad
        for _ in range(30):
            if np.min(np.abs(rs.moduli - r)) >= need:
                break
            r += 0.6 * need
            need = 13.5 * r / quad
        else:
            continue
        lhs = circle_log_average(p, r, quad_points=quad)
        rhs = jensen_rhs(rs, abs(c[0]), r)
        assert abs(lhs - rhs) < 1e-6
        checked += 1
    assert checked >= 2


@pytest.mark.parametrize("k", [-60, 0, 40, 80])
def test_find_roots_converges_at_any_coefficient_scale(k):
    # the residual max|p(z)|/(1+|z|)^d scales with the coefficients, so the
    # tolerance is held relative to max_j |c_j|
    base = find_roots(np.array([1.0, 3.0, 1.0]))
    rs = find_roots(np.array([1.0, 3.0, 1.0]) * 2.0**k)
    assert rs.converged
    assert np.abs(rs.roots - base.roots).max() <= 1e-15 * np.abs(base.roots).max()


def test_settled_row_above_tol_names_the_scaled_tolerance():
    # a row that settled is not reported as having used up its iterations
    with pytest.raises(NonConvergence) as exc:
        find_roots(Polynomial([1.0, 2.0, 3.0, 4.0]), tol=0.0)
    assert "tol * max|c_j|" in str(exc.value)
    assert "iterations" not in str(exc.value) and "did not settle" not in str(exc.value)
