"""Property and differential tests of find_roots on random polynomials.

Hypothesis draws the degree and the seed of a complex Gaussian coefficient
vector; the examples are derandomized so a run is reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from padeclust import find_roots

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


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
