"""The window protocols against exact laws, run through ex.run.

toeplitz-anticoncentration takes the n x n window W[i, j] = a_{n-1+i-j} of
each series; det-growth takes the order-m window a_{m+i-j}, which at n = 1
is the single coefficient a_m.

* discrete_pm_M (atoms -M..M, equally likely): every window at n = 2 and
  n = 3 is enumerated over its 2n - 1 entries, giving P(det = 0) and
  P(|det|^(1/n) < eps) = P(|det| < eps^n) exactly, as rationals.
* Gaussian, n = 2: det = a1^2 - a0 a2 = X^2 + (V^2 - U^2)/2 with X, U, V
  independent standard normals, so its characteristic function is
  phi(t) = (1 - 2it)^(-1/2) (1 + t^2)^(-1/2), and Gil-Pelaez inversion
  gives P(|det| < c) = (2/pi) int_0^inf Re phi(t) sin(tc) / t dt.
* det-growth, n = 1: log|det| = log|a_m|, with mean -(gamma + log 2)/2 for
  the Gaussian; for discrete_pm_M the window is singular with probability
  1/(2M+1), and log|a_m| has mean log(M!)/M over the other rows.

Each proportion must lie within 4 binomial standard errors of its oracle
(from the oracle's p), each mean within 4 standard errors from the sample
spread.  A transposed window has the same determinant, so no determinant
law can tell it apart.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from padeclust import experiments as ex
from padeclust.sampler import DISCRETE, GAUSSIAN, distribution

TRIALS = 10_000  # binomial standard error at most 0.005 at every p
EPS = (0.5, 1.5, 2.5)  # no |det|^(1/n) lies within 0.01 of these


def _det(W):
    """The integer determinant of a small square matrix, by Leibniz."""
    k = len(W)
    total = 0
    for perm in itertools.permutations(range(k)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        total += sign * math.prod(W[i][perm[i]] for i in range(k))
    return total


def _abs_det_law(n, M):
    """The exact law of |det W| over all (2M+1)^(2n-1) windows, as
    {|det|: probability}."""
    counts = Counter(
        abs(_det([[a[n - 1 + i - j] for j in range(n)] for i in range(n)]))
        for a in itertools.product(range(-M, M + 1), repeat=2 * n - 1))
    total = (2 * M + 1) ** (2 * n - 1)
    return {d: Fraction(c, total) for d, c in counts.items()}


def _gaussian_n2_cdf(eps):
    """P(|det W|^(1/2) < eps) for the Gaussian 2 x 2 window."""
    c = eps * eps

    def re_phi(t):
        return math.cos(math.atan(2.0 * t) / 2.0) / ((1.0 + 4.0 * t * t) ** 0.25
                                                      * math.sqrt(1.0 + t * t))

    head, _ = quad(lambda t: re_phi(t) * c * np.sinc(t * c / math.pi), 0.0, 1.0,
                   epsabs=1e-12)
    tail, _ = quad(lambda t: re_phi(t) / t, 1.0, math.inf, weight="sin", wvar=c)
    return 2.0 / math.pi * (head + tail)


def _within(p_hat, p, trials, what):
    se = math.sqrt(float(p) * (1.0 - float(p)) / trials)
    assert abs(p_hat - float(p)) <= 4.0 * se, (what, p_hat, float(p), se)


def test_enumeration_gives_the_known_singular_rates():
    assert [_abs_det_law(n, M)[0] for M in (1, 2) for n in (2, 3)] == [
        Fraction(1, 3), Fraction(69, 243), Fraction(17, 125), Fraction(269, 3125)]


@pytest.mark.parametrize("M", [1, 2])
def test_discrete_anticoncentration_matches_enumeration(M):
    config = ex.default_config(ex.ANTICONCENTRATION, spec=distribution(DISCRETE, M=M),
                               n=(2, 3), trials=TRIALS, epsilon_grid=EPS, seed=11)
    block, summary = ex.run(config)
    for i, n in enumerate(config.n):
        law = _abs_det_law(n, M)
        singular = block.values["singular"][i * TRIALS:(i + 1) * TRIALS]
        _within(sum(singular) / TRIALS, law[0], TRIALS, (M, n, "singular"))
        for eps in EPS:
            exact = sum(p for d, p in law.items() if d < eps ** n)
            _within(summary["per_n"][str(n)]["cdf"][repr(eps)], exact, TRIALS, (M, n, eps))


def test_gaussian_n2_anticoncentration_matches_the_inversion():
    grid = (0.1, 0.5, 1.0)
    config = ex.default_config(ex.ANTICONCENTRATION, spec=distribution(GAUSSIAN), n=(2,),
                               trials=TRIALS, epsilon_grid=grid, seed=12)
    _, summary = ex.run(config)
    for eps in grid:
        _within(summary["per_n"]["2"]["cdf"][repr(eps)], _gaussian_n2_cdf(eps), TRIALS, eps)


@pytest.mark.parametrize("M", [None, 1, 2])
def test_det_growth_at_n1_matches_the_coefficient_law(M):
    spec = distribution(GAUSSIAN) if M is None else distribution(DISCRETE, M=M)
    # a_1..a_8 of one series are independent, so every unit is one draw
    config = ex.default_config(ex.DET_GROWTH, spec=spec, n=1, m=tuple(range(1, 9)),
                               trials=TRIALS // 8, seed=13)
    block, _ = ex.run(config)
    singular = np.array(block.values["singular"])
    if M is None:
        exact_mean = -(np.euler_gamma + math.log(2.0)) / 2.0
        assert not singular.any()
    else:
        exact_mean = math.lgamma(M + 1) / M
        _within(singular.mean(), Fraction(1, 2 * M + 1), len(block), "singular")
    assert list(block.degenerate) == singular.tolist()
    log_abs = block.floats("log_abs_det")[~singular]
    se = log_abs.std(ddof=1) / math.sqrt(len(log_abs))
    assert abs(log_abs.mean() - exact_mean) <= 4.0 * se + 1e-12, (M, log_abs.mean(), se)
