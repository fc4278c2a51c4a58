"""The zero-radius columns against their exact means for real Gaussian series.

For f(z) = sum_{k<=N} a_k z^k with independent standard Gaussian a_k,
f(re^{it}) = X + iY is a centred Gaussian vector whose covariance has the
eigenvalues lam+- = (V +- |S(t)|) / 2, with V = sum_k r^(2k) and
S(t) = sum_k r^(2k) e^(2ikt).  E log(lam1 Z1^2 + lam2 Z2^2) equals
2 log((sqrt(lam1) + sqrt(lam2)) / 2) + log 2 - gamma, and Jensen's formula
with E log|a_0| = -(gamma + log 2) / 2 gives

    E zci(r) = (1/2) (1/2pi) int E log|f(re^{it})|^2 dt + (gamma + log 2) / 2.

The quadrature below is the trapezoidal rule on a uniform periodic grid.
"""

import math

import numpy as np

from padeclust import experiments as ex

N = 256
TRIALS = 400


def _expected_zci(r, N, points=1 << 16):
    """E zci(r) and log V, with S(t) summed in closed form."""
    t = 2.0 * np.pi * np.arange(points) / points
    w = r * r * np.exp(2j * t)
    S = np.abs((1.0 - w ** (N + 1)) / (1.0 - w))
    V = (1.0 - r ** (2 * N + 2)) / (1.0 - r * r)
    lam_plus, lam_minus = (V + S) / 2.0, np.maximum((V - S) / 2.0, 0.0)
    e_log = 2.0 * np.log((np.sqrt(lam_plus) + np.sqrt(lam_minus)) / 2.0) + math.log(2.0) - np.euler_gamma
    return 0.5 * e_log.mean() + (np.euler_gamma + math.log(2.0)) / 2.0, math.log(V)


def test_quadrature_reproduces_the_long_series_values():
    """At N = 2048 the quadrature gives E profile_dev = 0.3275 at r = 0.9 and
    0.3447 at r = 0.99, and E ratio = 0.588 at r = 0.99."""
    zci, log_v = _expected_zci(0.9, 2048)
    assert abs(zci - 0.5 * log_v - 0.3275) < 5e-5
    zci, log_v = _expected_zci(0.99, 2048)
    assert abs(zci - 0.5 * log_v - 0.3447) < 5e-5
    assert abs(zci / -math.log1p(-0.99 ** 2) - 0.588) < 5e-4


def test_zero_radius_means_match_the_exact_mean():
    """One fixed-seed run: the trial mean of every ratio_r and profile_dev_r
    column lies within 3 standard errors (from the sample spread) of its
    exact mean."""
    config = ex.default_config(ex.ZERO_RADIUS, N=N, trials=TRIALS, seed=0)
    block, _ = ex.run(config)
    good = ~block.flags()[1]
    assert good.sum() >= 0.95 * TRIALS
    for r in config.r_schedule:
        zci, log_v = _expected_zci(r, N)
        for column, exact in ((f"ratio_r{r!r}", zci / -math.log1p(-r * r)),
                              (f"profile_dev_r{r!r}", zci - 0.5 * log_v)):
            values = block.floats(column)[good]
            se = values.std(ddof=1) / math.sqrt(len(values))
            assert abs(values.mean() - exact) < 3.0 * se, (column, values.mean(), exact, se)
