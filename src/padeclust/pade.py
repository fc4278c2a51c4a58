"""[m,n] rational approximants of a power series, the order-condition
residual, and the end-coefficient ratio whose size controls how the numerator
roots cluster around the unit circle.

For a coefficient sequence (a_j) the pair (p, q) satisfies
coeff_j(f q - p) = 0 for 0 <= j <= m+n, with q normalized to q(0) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateInput, DegenerateSystem, EndCoefficientZero, InsufficientCoefficients
from .poly import Polynomial, _as_poly, coeff_vector, truncated_product
from .toeplitz import (
    COND_CAP_DOUBLE,
    COND_CAP_EXTENDED,
    ToeplitzTriple,
    _solve_normalized,
    _solve_normalized_extended,
    assoc_matrix,
    log_abs_det,
)

_LOG_OVERFLOW = 709.0


@dataclass(frozen=True)
class PadePair:
    """Numerator p (degree <= m, stored with m+1 coefficients), denominator q
    with q(0) = 1, and solve diagnostics (logdet_A, condition, order_residual)."""

    p: Polynomial
    q: Polynomial
    m: int
    n: int
    diagnostics: Dict[str, float]


@dataclass(frozen=True)
class EtRatio:
    value: float
    log_value: float
    n_coeffs: int


@dataclass(frozen=True)
class EtBoundChain:
    """Three nested upper bounds for the end-coefficient ratio of the
    numerator, from coarsest derivation step to the final product-norm form:

    * ``l1``: the coefficient-mass bound ``||q||_1 * sum|a_j|`` over the
      end-coefficient normalization of p,
    * ``cauchy_binet``: the subdeterminant form with the Gram determinant of
      the order-condition window,
    * ``amgm``: the entry-sum form obtained from the singular values.

    All three are carried in log form; the plain values overflow to inf for
    large windows.
    """

    log_l1: float
    log_cauchy_binet: float
    log_amgm: float

    def _exp(self, v: float) -> float:
        return math.inf if v > _LOG_OVERFLOW else math.exp(v)

    @property
    def l1(self) -> float:
        return self._exp(self.log_l1)

    @property
    def cauchy_binet(self) -> float:
        return self._exp(self.log_cauchy_binet)

    @property
    def amgm(self) -> float:
        return self._exp(self.log_amgm)


def pade(coeffs, m: int, n: int, precision: str = "double",
         cond_cap: Optional[float] = None) -> PadePair:
    """Compute the [m, n] pair of the series with the given coefficients.

    q comes from the normalized window solve (q = (1,) when n = 0) and p is
    the product f*q truncated to degree m.  DegenerateSystem propagates from
    the solve.  cond_cap overrides the per-precision default condition limit;
    the order residual stays at rounding level even for ill-conditioned
    windows (backward-stable solve), so callers that only need the order
    condition can raise the cap.
    """
    arr = coeff_vector(coeffs)
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    if len(arr) < m + n + 1:
        raise InsufficientCoefficients(
            f"need at least m+n+1 = {m + n + 1} coefficients, got {len(arr)}"
        )
    if n == 0:
        q_arr = np.ones(1, dtype=arr.dtype)
        logdet, cond = 0.0, 1.0
    else:
        A = assoc_matrix(arr, m, n)
        rhs = -arr[m + 1 : m + n + 1]
        try:
            if precision == "extended":
                tail, logdet, cond = _solve_normalized_extended(
                    A, rhs, COND_CAP_EXTENDED if cond_cap is None else cond_cap)
            elif precision == "double":
                tail, logdet, cond = _solve_normalized(
                    A, rhs, COND_CAP_DOUBLE if cond_cap is None else cond_cap)
            else:
                raise ValueError("precision must be 'double' or 'extended'")
        except DegenerateSystem as exc:
            raise DegenerateSystem(
                f"coefficient window A_{m}^({n}) is singular or too ill-conditioned: {exc}"
            ) from exc
        q_arr = np.concatenate([np.ones(1, dtype=tail.dtype), tail])
    q = Polynomial(q_arr)
    p = truncated_product(Polynomial(arr[: m + n + 1]), q, m)
    resid = _order_residual(arr, p, q, m, n)
    return PadePair(
        p=p, q=q, m=m, n=n,
        diagnostics={"logdet_A": logdet, "condition": cond, "order_residual": resid},
    )


def _order_residual(arr: np.ndarray, p: Polynomial, q: Polynomial, m: int, n: int) -> float:
    diff = np.convolve(arr[: m + n + 1], q.coeffs)[: m + n + 1]
    diff[: len(p.coeffs)] = diff[: len(p.coeffs)] - p.coeffs
    denom = (1.0 + float(np.max(np.abs(arr)))) * float(np.sum(np.abs(q.coeffs)))
    return float(np.max(np.abs(diff)) / denom)


def validate_order(coeffs, pair: PadePair) -> float:
    """Scale-free residual of the defining order condition: the largest
    coefficient of f*q - p through index m+n, divided by
    (1 + max|a_j|) * ||q||_1."""
    arr = coeff_vector(coeffs)
    if len(arr) < pair.m + pair.n + 1:
        raise InsufficientCoefficients(
            f"need at least m+n+1 = {pair.m + pair.n + 1} coefficients, got {len(arr)}"
        )
    return _order_residual(arr, pair.p, pair.q, pair.m, pair.n)


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
    value = math.inf if log_value > _LOG_OVERFLOW else math.exp(log_value)
    return EtRatio(value=value, log_value=log_value, n_coeffs=len(c))


def et_bound_chain(coeffs, triple: ToeplitzTriple, pair: PadePair) -> EtBoundChain:
    """Evaluate the three-step upper-bound chain for et_ratio(pair.p).

    Needs the two window determinants (orders n and n+1 at offset m); raises
    DegenerateSystem when either is singular, EndCoefficientZero when the
    numerator's coefficient at index m vanishes.
    """
    arr = coeff_vector(coeffs)
    m, n = triple.m, triple.n
    a0 = abs(complex(arr[0]))
    p_m = abs(complex(pair.p.coeffs[m])) if len(pair.p.coeffs) > m else 0.0
    if a0 <= pair.p.zero_threshold or p_m <= pair.p.zero_threshold:
        raise EndCoefficientZero(
            f"numerator end coefficients ({a0:.3e}, {p_m:.3e}) below threshold"
        )
    log_S = math.log(float(np.sum(np.abs(arr[: m + 1]))))
    log_q1 = math.log(float(np.sum(np.abs(pair.q.coeffs))))
    log_l1 = log_q1 + log_S - 0.5 * (math.log(a0) + math.log(p_m))

    det_n = log_abs_det(triple.A)
    det_n1 = log_abs_det(assoc_matrix(arr, m, n + 1))
    if det_n.singular or det_n1.singular:
        raise DegenerateSystem("window determinant of order n or n+1 is singular")
    gram = triple.T @ triple.T.conj().T
    det_gram = log_abs_det(gram)
    if det_gram.singular:
        raise DegenerateSystem("order-condition window has deficient rank")
    common = log_S - 0.5 * math.log(a0) + 0.5 * math.log(n + 1) \
        - 0.5 * (det_n.log_abs + det_n1.log_abs)
    log_cb = common + 0.5 * det_gram.log_abs
    entry_sum = float(np.sum(np.abs(triple.T)))
    log_amgm = common + (n * (math.log(entry_sum) - 0.5 * math.log(n)) if n > 0 else 0.0)
    return EtBoundChain(log_l1=log_l1, log_cauchy_binet=log_cb, log_amgm=log_amgm)
