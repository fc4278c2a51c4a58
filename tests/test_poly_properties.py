"""Property and differential tests of find_roots on random polynomials, and
the oracle properties of Jensen's identity and et_ratio.

Hypothesis draws the degree and the seed of a coefficient vector; the
examples are derandomized so a run is reproducible.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from padeclust import NonConvergence, circle_log_average, et_ratio, find_roots, jensen_rhs
from padeclust import poly as P
from padeclust.sampler import DISCRETE, GAUSSIAN, distribution, sample

PROPERTY = settings(max_examples=200)


@st.composite
def gaussian_polys(draw):
    """Complex Gaussian coefficients of degree 2-50, low-to-high, with both
    end coefficients at least 1e-3 in modulus."""
    degree = draw(st.integers(min_value=2, max_value=50))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    for k in (0, degree):
        if abs(c[k]) < 1e-3:
            c[k] = 1.0
    return c


def paired_gap(a, b):
    """|a_i - b_pi(i)| under the nearest-neighbour pairing pi of the two root
    sets (the assignment minimising the summed distances)."""
    dist = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert len(rows) == len(a) == len(b)
    return dist[rows, cols], a[rows]


@PROPERTY
@given(gaussian_polys())
def test_find_roots_matches_numpy_roots(c):
    ours = find_roots(c).roots
    theirs = np.roots(c[::-1])  # np.roots takes high-to-low coefficients
    gap, z = paired_gap(ours, theirs)
    assert np.all(gap <= 1e-8 * (1.0 + np.abs(z)))


@PROPERTY
@given(gaussian_polys())
def test_reversed_coefficients_give_reciprocal_roots(c):
    roots = find_roots(c).roots
    reversed_roots = find_roots(c[::-1]).roots
    gap, w = paired_gap(reversed_roots, 1.0 / roots)
    assert np.all(gap <= 1e-8 * (1.0 + np.abs(w)))


@st.composite
def real_sampled_polys(draw):
    """Real coefficients of degree 2-200 from the Gaussian or the
    discrete_pm_1 sampler, zero end coefficients trimmed."""
    degree = draw(st.integers(min_value=2, max_value=200))
    kind = draw(st.sampled_from([GAUSSIAN, DISCRETE]))
    spec = distribution(kind, M=1 if kind == DISCRETE else None)
    c = np.trim_zeros(sample(spec, degree, draw(st.integers(0, 2**31 - 1)), 0).coeffs)
    assume(len(c) >= 3)
    return c


def isolated(z, tol):
    """Mask of the entries of z farther than tol from every other entry."""
    gap = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(len(z), np.inf))
    return gap.min(axis=1) > tol


@PROPERTY
@given(real_sampled_polys())
def test_real_coefficient_roots_are_conjugate_symmetric(c):
    # A root shared by two or more factors is conditioned to about
    # sqrt(eps) or worse, in np.roots as much as here; the 1e-9 match is
    # asserted on the simple roots, and every root must still be paired.
    theirs = np.roots(c[::-1])
    simple = isolated(theirs, 1e-4)
    try:
        roots = find_roots(c).roots
    except NonConvergence:
        # a sample the double iteration cannot settle must have a repeated
        # root; the extended continuation settles it
        assert not simple.all()
        roots = find_roots(c, precision="extended").roots
    dist = np.abs(theirs[:, None] - roots[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert len(rows) == len(theirs) == len(roots)
    gap = dist[rows, cols]
    assert np.all(gap[simple[rows]] <= 1e-9 * (1.0 + np.abs(theirs[rows][simple[rows]])))
    # closed under conjugation: mirrors are conj(U) until a row unfolds, then
    # they converge on their own
    gap, z = paired_gap(roots, np.conj(roots))
    keep = isolated(roots, 1e-4)
    assert np.all(gap[keep] <= 1e-9 * (1.0 + np.abs(z[keep])))
    # the iterates of the R slots, the last r of the row, are exactly real;
    # the one exception is an R whose real root a freed mirror took, which
    # goes free to a non-real root whose conjugate the row also holds
    C = np.trim_zeros(c, "f")[None, :].astype(complex)
    r = P._real_brackets(P._horner_table(C), np.array([0]))[0].shape[1]
    Z = P._aberth(C, 150, 0.0)[0][0]
    for i in range(len(Z) - r, len(Z)):
        others = np.delete(Z, i)
        assert Z[i].imag == 0.0 or (
            np.min(np.abs(others - np.conj(Z[i]))) <= 1e-9 * (1.0 + abs(Z[i])))


@pytest.mark.parametrize("kind, degree, seed", [
    (GAUSSIAN, 4, 24), (GAUSSIAN, 8, 11), (GAUSSIAN, 15, 4), (DISCRETE, 18, 0)])
def test_low_degree_real_slots_end_exactly_real(kind, degree, seed):
    # With d/4 grid points per side alone (1 to 4 here), these samples'
    # brackets are coarse enough that a U pair reaches a real root before
    # its R iterate and the R ends freed and non-real; the 16-point floor
    # keeps every R slot of each of them exactly real
    spec = distribution(kind, M=1 if kind == DISCRETE else None)
    C = np.trim_zeros(sample(spec, degree, seed, 0).coeffs)[None, :].astype(complex)
    r = P._real_brackets(P._horner_table(C), np.array([0]))[0].shape[1]
    Z, settled = P._aberth(C, 150, 0.0)
    assert r > 0 and settled[0]
    assert np.all(Z[0, -r:].imag == 0.0)


def test_complex_coefficient_row_is_bitwise_unchanged():
    """A complex row keeps every slot free and the golden-angle starts: its
    iterates, settled and partial, hash as they did before real rows were
    laid out conjugate-symmetrically (digests taken from that code)."""
    rng = np.random.default_rng(41)
    c = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    rs = find_roots(c)
    assert hashlib.sha256(rs.roots.tobytes()).hexdigest() == (
        "9d0f157d695bf52280e2d32bac46483070795fed4c048a2323e01675c9e8a35b")
    assert rs.residual.hex() == "0x1.1e2848fbb15bfp-62"
    with pytest.raises(NonConvergence) as exc:
        find_roots(c, max_iter=4)
    assert hashlib.sha256(exc.value.partial.roots.tobytes()).hexdigest() == (
        "5acd9b3dfe67c7647068b5c4c9bd633161184728ad4a20f2127e939db0e49dde")


@PROPERTY
@given(gaussian_polys(), st.booleans(), st.floats(min_value=0.2, max_value=5.0))
def test_jensen_identity_against_found_roots(c, real, r):
    # The Q-node trapezoid rule errs by about (2/Q) exp(-Q gap / r) when the
    # nearest root modulus is gap away from r; Q = 40 r / gap puts that
    # below 1e-17, so the two sides differ only by rounding.
    if real:
        c = c.real
    roots = find_roots(c)
    gap = np.min(np.abs(roots.moduli - r))
    assume(gap >= 1e-3 * r)
    quad = max(2 * (len(c) - 1) + 16, int(np.ceil(40 * r / gap)))
    lhs = circle_log_average(c, r, quad_points=quad)
    rhs = jensen_rhs(roots, abs(c[0]), r)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


@PROPERTY
@given(gaussian_polys(), st.floats(min_value=-6.0, max_value=6.0),
       st.floats(min_value=0.0, max_value=6.283))
def test_et_ratio_is_scale_and_reversal_invariant(c, log_scale, phase):
    base = et_ratio(c).log_value
    scaled = et_ratio(np.exp(log_scale + 1j * phase) * c).log_value
    assert abs(scaled - base) <= 1e-12 * (1.0 + abs(base))
    assert abs(et_ratio(c[::-1]).log_value - base) <= 1e-12 * (1.0 + abs(base))
    assert abs(et_ratio(c.real[::-1]).log_value - et_ratio(c.real).log_value) <= (
        1e-12 * (1.0 + abs(base)))
