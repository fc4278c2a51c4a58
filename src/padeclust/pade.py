"""[m,n] rational approximants of a power series, the order-condition
residual, and the end-coefficient ratio whose size controls how the numerator
roots cluster around the unit circle.

For a coefficient sequence (a_j) the pair (p, q) satisfies
coeff_j(f q - p) = 0 for 0 <= j <= m+n, with q normalized to q(0) = 1.

pade checks the coefficients, builds the windows W, T and A, factors A,
forms f*q and takes the l1 sums ||q||_1 and sum_{j<=m} |a_j| once each;
et_bound_chain reads W, T, log|det A| and the sums from the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import DegenerateInput, DegenerateSystem, EndCoefficientZero
from .poly import Polynomial, _as_poly, coeff_vector
from .toeplitz import ToeplitzTriple, _denominator, _triple, log_abs_dets


@dataclass(frozen=True)
class PadePair:
    """Numerator p (degree <= m, stored with m+1 coefficients), denominator q
    with q(0) = 1, solve diagnostics (logdet_A, condition, order_residual),
    the Toeplitz windows W, T and A of the solve, and the two sums of the
    coefficient-mass inequality ||p||_1 <= q_l1 * a_l1: q_l1 = ||q||_1 and
    a_l1 = sum_{j<=m} |a_j|."""

    p: Polynomial
    q: Polynomial
    m: int
    n: int
    diagnostics: Dict[str, float]
    triple: ToeplitzTriple
    q_l1: float
    a_l1: float


@dataclass(frozen=True)
class EtRatio:
    log_value: float


@dataclass(frozen=True)
class EtBoundChain:
    """Three nested upper bounds for the end-coefficient ratio of the
    numerator, from coarsest derivation step to the final product-norm form,
    in log form (the plain values overflow for large windows):

    * ``log_l1``: the coefficient-mass bound ``||q||_1 * sum|a_j|`` over the
      end-coefficient normalization of p,
    * ``log_cauchy_binet``: the subdeterminant form with the Gram determinant
      of the order-condition window,
    * ``log_amgm``: the entry-sum form obtained from the singular values.
    """

    log_l1: float
    log_cauchy_binet: float
    log_amgm: float


def pade(coeffs, m: int, n: int, precision: str = "double",
         cond_cap: Optional[float] = None) -> PadePair:
    """Compute the [m, n] pair of the series with the given coefficients.

    The one check of the coefficients (coeff_vector) and the one pass over
    the l1 sums of a Pade unit: callers read q_l1 and a_l1 from the pair.
    q comes from the normalized window solve (q = (1,) when n = 0) and p is
    the product f*q truncated to degree m.  DegenerateSystem propagates from
    the solve; DegenerateInput is raised when f*q overflows.  cond_cap
    overrides the per-precision default condition limit; the order residual
    stays at rounding level even for ill-conditioned windows
    (backward-stable solve), so callers that only need the order condition
    can raise the cap.
    """
    arr = coeff_vector(coeffs)
    triple = _triple(arr, m, n)
    q, logdet, cond = _denominator(triple, precision, cond_cap)
    fq = np.convolve(arr[: m + n + 1], q)
    if not np.isfinite(fq[: m + n + 1]).all():
        raise DegenerateInput(f"the [{m}, {n}] pair overflows: f*q has a non-finite coefficient")
    q_l1 = float(np.abs(q).sum())
    # p is f*q through degree m, so f*q - p is f*q's coefficients m+1..m+n:
    # the order residual is their largest modulus over (1 + max_{j<=m+n}
    # |a_j|) ||q||_1, so coefficients past a_{m+n} do not change it.
    residual = float(np.abs(fq[m + 1 : m + n + 1]).max(initial=0.0)
                     / ((1.0 + float(np.abs(arr[: m + n + 1]).max())) * q_l1))
    return PadePair(
        p=Polynomial._checked(fq[: m + 1]), q=Polynomial._checked(q), m=m, n=n,
        diagnostics={"logdet_A": logdet, "condition": cond, "order_residual": residual},
        triple=triple, q_l1=q_l1, a_l1=float(np.abs(arr[: m + 1]).sum()),
    )


def et_ratio(p) -> EtRatio:
    """(sum of |coefficients|) / sqrt(|first| * |last|) for the stored
    coefficient window; both end coefficients must clear the zero threshold."""
    poly = _as_poly(p)
    c = poly.coeffs
    if len(c) < 2:
        raise DegenerateInput("end-coefficient ratio needs degree >= 1")
    thresh = poly.zero_threshold
    a0, aN = abs(complex(c[0])), abs(complex(c[-1]))
    if a0 <= thresh or aN <= thresh:
        raise EndCoefficientZero(
            f"end coefficients ({a0:.3e}, {aN:.3e}) at or below threshold {thresh:.3e}"
        )
    log_value = math.log(float(np.sum(np.abs(c)))) - 0.5 * (math.log(a0) + math.log(aN))
    return EtRatio(log_value=log_value)


def et_bound_chain(pair: PadePair) -> EtBoundChain:
    """Evaluate the three-step upper-bound chain for et_ratio(pair.p).

    Reads everything but two factorizations from the pair: the l1 sums
    q_l1 and a_l1, a_0 as p_0 (= a_0 q_0 with q_0 = 1 exactly), and the
    windows W, T and log|det A|.  Factors W (the order n+1 window at offset
    m) and the Gram matrix T T*; raises DegenerateSystem when either is
    singular, EndCoefficientZero when p_0 or p_m vanishes.
    """
    m, n, T = pair.m, pair.n, pair.triple.T
    a0, p_m = abs(complex(pair.p.coeffs[0])), abs(complex(pair.p.coeffs[m]))
    if a0 <= pair.p.zero_threshold or p_m <= pair.p.zero_threshold:
        raise EndCoefficientZero(
            f"numerator end coefficients ({a0:.3e}, {p_m:.3e}) below threshold"
        )
    log_S = math.log(pair.a_l1)
    log_l1 = math.log(pair.q_l1) + log_S - 0.5 * (math.log(a0) + math.log(p_m))

    (log_n1,), (singular,) = log_abs_dets(pair.triple.W[None])
    if singular:
        raise DegenerateSystem("window determinant of order n+1 is singular")
    (log_gram,), (singular,) = log_abs_dets((T @ T.conj().T)[None])
    if singular:
        raise DegenerateSystem("order-condition window has deficient rank")
    common = log_S - 0.5 * math.log(a0) + 0.5 * math.log(n + 1) \
        - 0.5 * (pair.diagnostics["logdet_A"] + float(log_n1))
    log_cb = common + 0.5 * float(log_gram)
    entry_sum = float(np.sum(np.abs(T)))
    log_amgm = common + (n * (math.log(entry_sum) - 0.5 * math.log(n)) if n > 0 else 0.0)
    return EtBoundChain(log_l1=log_l1, log_cauchy_binet=log_cb, log_amgm=log_amgm)
