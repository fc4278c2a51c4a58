"""Polynomials with complex coefficients: evaluation, truncated products,
simultaneous root finding, and circle averages of log|p|.

Conventions used throughout the package:

* coefficient vectors are stored low-to-high: ``coeffs[k]`` multiplies z**k;
* the numerical degree is the highest index whose coefficient exceeds the
  relative zero threshold ``ZERO_REL * max|coeffs|``;
* root sets are multisets sorted by (modulus, argument).

The root finder is the Aberth-Ehrlich simultaneous iteration with initial
guesses on Newton-polygon radii at golden-angle phases.  For |z| > 1 the
Newton ratio p/p' is evaluated through the reversed polynomial at w = 1/z,
which keeps Horner finite at any start radius and any degree.  Horner runs
once per sweep over every active iterate: a (d+1, 2B) table holds the B
forward coefficient columns next to the B reversed ones, and each iterate
reads the forward column at z or the reversed column at 1/z.
find_roots_batch iterates a (B, d) stack of same-degree polynomials at once,
sharing the Python-level Horner loop; find_roots is its B = 1 call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateInput, NonConvergence

# Relative magnitude below which a coefficient counts as zero.
ZERO_REL = 1e-13

# Golden angle in radians, 2*pi*(1 - 1/phi).  Irrational rotation, so the
# start points never align with roots of unity of any small order.
_GOLDEN_ANGLE = 2.0 * math.pi * (1.0 - 2.0 / (1.0 + math.sqrt(5.0)))

_STEP_REL = 1e-14  # per-root stopping threshold on the Aberth step


def coeff_vector(coeffs) -> np.ndarray:
    """Coefficients as a finite 1-D float or complex array (low-to-high).

    Raises DegenerateInput naming the problem for a non-1-D input or a NaN or
    infinite entry; such input would otherwise surface later as a misleading
    degree error or as a NaN statistic.
    """
    arr = np.atleast_1d(np.asarray(coeffs))
    if arr.ndim != 1:
        raise DegenerateInput(f"coefficients must form a 1-D vector, got shape {arr.shape}")
    if arr.dtype.kind not in "fc":
        arr = arr.astype(float)
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise DegenerateInput(f"coefficient {bad} is not finite ({arr[bad]})")
    return arr


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial; ``coeffs[k]`` is the coefficient of z**k."""

    coeffs: np.ndarray

    def __init__(self, coeffs: Union[Sequence, np.ndarray]):
        arr = coeff_vector(coeffs)
        if arr.size == 0:
            raise DegenerateInput("empty coefficient vector")
        object.__setattr__(self, "coeffs", arr)

    @property
    def zero_threshold(self) -> float:
        m = float(np.max(np.abs(self.coeffs)))
        return ZERO_REL * m

    @property
    def degree(self) -> int:
        """Highest index with |coefficient| above the zero threshold; -1 for
        the zero polynomial."""
        mags = np.abs(self.coeffs)
        m = float(mags.max())
        if m == 0.0:
            return -1
        nz = np.nonzero(mags > ZERO_REL * m)[0]
        return int(nz[-1]) if nz.size else -1

    def __call__(self, z):
        return evaluate(self, z)

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class RootSet:
    """Multiset of roots, sorted by (modulus, argument).

    ``residual`` is max |P(root)| / (1 + |root|)**degree over the set and
    ``converged`` records whether it met the tolerance of the producing call.
    """

    roots: np.ndarray
    residual: float
    converged: bool

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(self.roots)

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


def _as_poly(p) -> Polynomial:
    return p if isinstance(p, Polynomial) else Polynomial(p)


def evaluate(p, z):
    """Evaluate p at z (scalar or array) by Horner's scheme.

    evaluate(p, 0) returns coeffs[0] exactly.
    """
    p = _as_poly(p)
    zs = np.asarray(z)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    if zs.dtype.kind not in "fc":
        zs = zs.astype(float)
    rtype = np.result_type(p.coeffs.dtype, zs.dtype)
    acc = np.zeros(zs.shape, dtype=rtype)
    for ck in p.coeffs[::-1]:
        acc = acc * zs + ck
    return acc[0] if scalar else acc


def truncated_product(f, g, order: int) -> Polynomial:
    """Coefficients of f*g through z**order, zero-padded to length order+1."""
    if order < 0:
        raise ValueError("order must be >= 0")
    f = _as_poly(f)
    g = _as_poly(g)
    full = np.convolve(f.coeffs, g.coeffs)
    out = np.zeros(order + 1, dtype=full.dtype)
    k = min(order + 1, full.size)
    out[:k] = full[:k]
    return Polynomial(out)


# ---------------------------------------------------------------------------
# stable evaluation helpers


def _horner_table(C: np.ndarray) -> np.ndarray:
    """(d+1, 2B) Horner table of a (B, d+1) coefficient stack: column b holds
    polynomial b and column B + b its reversal, both low-to-high."""
    return np.concatenate([C.T, C.T[::-1]], axis=1)


def _fold(table: np.ndarray, z: np.ndarray, rows: Optional[np.ndarray]):
    """Point, table column and outer mask for one Horner pass over z.

    Points with |z| > 1 are evaluated at w = 1/z on the reversed column, the
    rest at z on the forward one.  ``rows`` gives each point's polynomial;
    None means polynomial 0 for every point.
    """
    B = table.shape[1] // 2
    outer = np.abs(z) > 1.0
    x = z.copy()
    x[outer] = 1.0 / z[outer]
    cols = B * outer if rows is None else rows + B * outer
    return x, cols, outer


def _horner_pair(table: np.ndarray, x: np.ndarray, cols: np.ndarray):
    """p(x) and p'(x), point x[i] evaluated on table column cols[i].

    Each element sees the same sequence of floating-point operations however
    many points share the call.  The products stay out of place: numpy's
    in-place complex multiply rounds a one-element array differently from a
    longer one.
    """
    p = np.zeros_like(x)
    dp = np.zeros_like(x)
    for ck in table[::-1]:
        dp = dp * x + p
        p = p * x + ck[cols]
    return p, dp


def _horner(table: np.ndarray, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """p(x) alone, by the same out-of-place steps as _horner_pair."""
    p = np.zeros_like(x)
    for ck in table[::-1]:
        p = p * x + ck[cols]
    return p


def _newton_ratio(table: np.ndarray, z: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """p(z)/p'(z), through the reversed polynomial for |z| > 1.

    With w = 1/z:  p(z) = z^d p_rev(w)  and
    p/p' = z * p_rev(w) / (d * p_rev(w) - w * p_rev'(w)).
    ``table`` and ``rows`` are as in _horner_table and _fold.
    """
    d = len(table) - 1
    x, cols, outer = _fold(table, z, rows)
    p, dp = _horner_pair(table, x, cols)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(outer, z * p / (d * p - x * dp), p / dp)


def _log_abs_eval(table: np.ndarray, z: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """log|p(z)| through the direct or reversed polynomial, overflow-free.
    ``table`` and ``rows`` are as in _horner_table and _fold."""
    d = len(table) - 1
    x, cols, outer = _fold(table, z, rows)
    p = _horner(table, x, cols)
    with np.errstate(divide="ignore"):
        log_p = np.log(np.abs(p))
        return np.where(outer, d * np.log(np.abs(z)) + log_p, log_p)


# Entries per repulsion block: a block holds _REPULSION_ELEMS // n rows
# (4 at n = 2048, 163 at n = 50), so each complex temporary is 128 KB at
# any degree.
_REPULSION_ELEMS = 8192


def _repulsion(z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """S_i = sum_{j != i} 1/(z_i - z_j) for i in idx, as conj(z_i - z_j)/|.|^2.

    The conjugated differences are taken from conj(z) directly, and each is
    multiplied by the real reciprocal 1/|.|^2.  Numpy divides by a complex
    with zero imaginary part by Smith's formula, which reduces to that same
    product, so the multiply gives the bits of a complex division by |.|^2,
    NaN on a collision included, without its per-entry cost.  A diagonal
    entry has |.|^2 = inf and adds zero.
    """
    zc = np.conjugate(z)
    step = max(1, _REPULSION_ELEMS // len(z))
    S = np.empty(len(idx), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s0 in range(0, len(idx), step):
            rows = idx[s0:s0 + step]
            d = zc[rows, None] - zc[None, :]
            mag = d.real * d.real + d.imag * d.imag
            mag[np.arange(len(rows)), rows] = np.inf
            np.divide(1.0, mag, out=mag)
            d *= mag
            S[s0:s0 + len(rows)] = d.sum(axis=1)
    return S


def _scaled_residual_log(C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Per row, log of max |P(root)| / (1+|root|)**degree in log space, for
    a (B, d+1) coefficient stack C and the (B, d) stack R of its roots."""
    d = C.shape[1] - 1
    rows = np.repeat(np.arange(len(C)), d)
    vals = _log_abs_eval(_horner_table(C), R.ravel(), rows) - d * np.log1p(np.abs(R.ravel()))
    return vals.reshape(R.shape).max(axis=1)


# ---------------------------------------------------------------------------
# Aberth-Ehrlich iteration


def _start_points(c: np.ndarray, offset: float) -> np.ndarray:
    """Initial guesses: Newton-polygon radii with golden-angle phases.

    The radii come from the upper convex hull of (j, log|c_j|): a hull
    segment from j=a to j=b contributes b-a start radii |c_a/c_b|^(1/(b-a)),
    which tracks the moduli of the actual roots.  A plain Cauchy-bound circle
    is a valid but far start whose radial collapse costs O(degree)
    iterations; the hull start removes that transient.  Radii are capped by
    the Cauchy bound.
    """
    d = len(c) - 1
    mags = np.abs(c)
    with np.errstate(divide="ignore"):
        logm = np.log(mags).tolist()
    hull = [0]
    for j in range(1, d + 1):
        if logm[j] == -math.inf and j < d:
            continue
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (logm[b] - logm[a]) * (j - a) <= (logm[j] - logm[a]) * (b - a):
                hull.pop()
            else:
                break
        hull.append(j)
    radii = np.empty(d)
    pos = 0
    for a, b in zip(hull[:-1], hull[1:]):
        radii[pos:pos + (b - a)] = math.exp((logm[a] - logm[b]) / (b - a))
        pos += b - a
    cauchy = 1.0 + float(np.max(mags[:-1]) / mags[-1])
    np.clip(radii, 1e-12, cauchy, out=radii)
    k = np.arange(d)
    return radii * np.exp(1j * (offset + _GOLDEN_ANGLE * k))


def _aberth(C: np.ndarray, max_iter: int, offset: float):
    """Aberth-Ehrlich iteration on the rows of C, a (B, d+1) stack of
    degree-d coefficient vectors with nonzero end coefficients.

    Every row keeps its own start points, Cauchy radius, per-root active
    flags and collision kicks, and its repulsion sums run over its own
    iterates only, so each row's iterates are bitwise those of a B = 1 call:
    batching shares the Python-level Horner loop, not the arithmetic.  The
    Horner table is built once for the whole stack.
    Returns the (B, d) iterates and a per-row flag telling whether every
    root of that row settled within max_iter sweeps.
    """
    B, d = C.shape[0], C.shape[1] - 1
    table = _horner_table(C)
    radius = 1.0 + np.max(np.abs(C[:, :-1]), axis=1) / np.abs(C[:, -1])
    Z = np.stack([_start_points(c, offset) for c in C])
    active = np.ones((B, d), dtype=bool)
    for it in range(max_iter):
        rows, cols = np.nonzero(active)
        if rows.size == 0:
            break
        z = Z[rows, cols]
        s = _newton_ratio(table, z, rows)
        S = np.empty_like(z)
        bounds = np.searchsorted(rows, np.arange(B + 1))
        for b in np.flatnonzero(bounds[1:] > bounds[:-1]):
            lo, hi = bounds[b], bounds[b + 1]
            S[lo:hi] = _repulsion(Z[b], cols[lo:hi])
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = s / (1.0 - s * S)
        bad = ~np.isfinite(corr)
        if bad.any():
            # derivative hit a saddle or two iterates collided: kick those
            # points deterministically and keep going
            kick = 1e-3 * radius[rows[bad]] * np.exp(1j * _GOLDEN_ANGLE * (it + cols[bad]))
            corr[bad] = -kick
        z -= corr
        Z[rows, cols] = z
        # settled means both the Aberth step and the Newton ratio are tiny;
        # the ratio check keeps collided pairs (tiny step, large ratio) alive
        done = (np.abs(corr) <= _STEP_REL * (1.0 + np.abs(z))) & (
            np.abs(s) <= 1e-12 * (1.0 + np.abs(z))
        )
        active[rows[done], cols[done]] = False
    return Z, ~active.any(axis=1)


def _aberth_extended(c: np.ndarray, max_iter: int, offset: float, dps: int):
    """Scalar mpmath version of the same iteration; slow but arbitrary
    precision.  Intended for modest degrees or as a retry path."""
    import mpmath as mp

    with mp.workdps(dps):
        cm = [mp.mpc(complex(v)) for v in c]
        crm = cm[::-1]
        d = len(cm) - 1
        radius = 1 + max(abs(v) for v in cm[:-1]) / abs(cm[-1])
        z = [mp.mpc(complex(v)) for v in _start_points(c, offset)]
        stop = mp.mpf(10) ** (-dps + 2)

        def ratio(zi):
            if abs(zi) <= 1:
                p = dp = mp.mpc(0)
                for ck in reversed(cm):
                    dp = dp * zi + p
                    p = p * zi + ck
                return p / dp if dp != 0 else None
            w = 1 / zi
            pr = dpr = mp.mpc(0)
            for ck in reversed(crm):
                dpr = dpr * w + pr
                pr = pr * w + ck
            den = d * pr - w * dpr
            return zi * pr / den if den != 0 else None

        active = [True] * d
        for it in range(max_iter):
            for i in range(d):
                if not active[i]:
                    continue
                s = ratio(z[i])
                if s is None:
                    z[i] += 1e-3 * radius * mp.expjpi(_GOLDEN_ANGLE * (it + i) / mp.pi)
                    continue
                S = mp.mpc(0)
                for j in range(d):
                    if j != i:
                        S += 1 / (z[i] - z[j])
                den = 1 - s * S
                if den == 0:
                    z[i] += 1e-3 * radius * mp.expjpi(_GOLDEN_ANGLE * (it + i) / mp.pi)
                    continue
                corr = s / den
                z[i] -= corr
                if abs(corr) <= stop * (1 + abs(z[i])) and abs(s) <= stop * 100 * (1 + abs(z[i])):
                    active[i] = False
            if not any(active):
                break
        return (
            np.array([complex(v) for v in z], dtype=complex),
            not any(active),
        )


def _sorted_roots(roots: np.ndarray) -> np.ndarray:
    mod = np.abs(roots)
    ang = np.angle(roots)
    order = np.lexsort((ang, mod))
    return roots[order]


# Cap on B*d, the number of iterates one batched Aberth run holds: it bounds
# the Horner temporaries, while repulsion stays per polynomial.
_BATCH_ELEMS = 4096


def find_roots_batch(
    polys: Sequence,
    tol: float = 1e-10,
    max_iter: int = 150,
    precision: str = "double",
    dps: int = 30,
    start_offset: float = 0.0,
) -> List[Union[RootSet, NonConvergence]]:
    """find_roots for each polynomial of ``polys``, in input order.

    Polynomials of equal reduced degree (numerical degree minus the zeros at
    the origin) are iterated together in (B, d) stacks of at most
    _BATCH_ELEMS iterates, and each result is bitwise the one find_roots
    gives.  A polynomial that does not converge yields its NonConvergence
    (carrying the partial RootSet) in place of a RootSet rather than raising.
    Degree < 1 or malformed coefficients raise DegenerateInput for the call.
    """
    if precision not in ("double", "extended"):
        raise ValueError("precision must be 'double' or 'extended'")
    full: List[np.ndarray] = []
    roots: List[np.ndarray] = []
    by_degree: Dict[int, List[int]] = {}
    for i, p in enumerate(polys):
        p = _as_poly(p)
        deg = p.degree
        if deg < 1:
            raise DegenerateInput("root finding needs degree >= 1")
        c = np.asarray(p.coeffs[: deg + 1], dtype=complex)
        thresh = p.zero_threshold
        k0 = 0
        while k0 < deg and abs(c[k0]) <= thresh:
            k0 += 1
        full.append(c)
        roots.append(np.zeros(k0, dtype=complex))
        if deg - k0 == 1:
            roots[i] = np.concatenate([roots[i], [-c[k0] / c[k0 + 1]]])
        elif deg - k0 > 1:
            by_degree.setdefault(deg - k0, []).append(i)
    settled = [True] * len(full)
    for d, members in by_degree.items():
        for chunk in _chunks(members, d):
            C = np.stack([full[i][-d - 1:] for i in chunk])
            if precision == "double":
                Z, row_ok = _aberth(C, max_iter, start_offset)
            else:
                Z, row_ok = zip(*(_aberth_extended(c, max_iter, start_offset, dps) for c in C))
            for i, z, ok in zip(chunk, Z, row_ok):
                roots[i] = np.concatenate([roots[i], z])
                settled[i] = bool(ok)
    roots = [_sorted_roots(r) for r in roots]
    # residuals of the full polynomials, origin zeros included
    log_res = [0.0] * len(full)
    by_length: Dict[int, List[int]] = {}
    for i, c in enumerate(full):
        by_length.setdefault(len(c) - 1, []).append(i)
    for d, members in by_length.items():
        for chunk in _chunks(members, d):
            vals = _scaled_residual_log(np.stack([full[i] for i in chunk]),
                                        np.stack([roots[i] for i in chunk]))
            for i, v in zip(chunk, vals):
                log_res[i] = float(v)
    out: List[Union[RootSet, NonConvergence]] = []
    for r, lr, done in zip(roots, log_res, settled):
        residual = float(np.exp(min(lr, 700.0))) if np.isfinite(lr) else 0.0
        rs = RootSet(roots=r, residual=residual, converged=done and residual <= tol)
        if rs.converged:
            out.append(rs)
        else:
            why = "residual above tol" if done else "iteration did not settle"
            out.append(NonConvergence(
                f"{why} after {max_iter} iterations (residual {residual:.3e}, tol {tol:.3e})",
                partial=rs,
            ))
    return out


def _chunks(members: List[int], d: int):
    """Consecutive slices of members holding at most _BATCH_ELEMS // d each."""
    step = max(1, _BATCH_ELEMS // d)
    return (members[s0:s0 + step] for s0 in range(0, len(members), step))


def find_roots(
    p,
    tol: float = 1e-10,
    max_iter: int = 150,
    precision: str = "double",
    dps: int = 30,
    start_offset: float = 0.0,
) -> RootSet:
    """All roots of p, with zeros at the origin split off exactly.

    Raises NonConvergence (carrying the partial RootSet) if the iteration
    budget runs out with the residual above tol; the caller may retry with a
    different ``start_offset`` or with precision="extended".
    """
    (rs,) = find_roots_batch([p], tol, max_iter, precision, dps, start_offset)
    if isinstance(rs, NonConvergence):
        raise rs
    return rs


# ---------------------------------------------------------------------------
# circle averages


def circle_log_average(p, r: float, quad_points: Optional[int] = None) -> float:
    """Trapezoid average of log|p(r e^{i theta})| over theta in [0, 2 pi).

    Nodes where log|p| comes out non-finite (a root sits on the node, or the
    value overflowed) are re-evaluated half a grid step away so the result is
    always finite.
    """
    p = _as_poly(p)
    deg = p.degree
    if deg < 0:
        raise DegenerateInput("circle average of the zero polynomial")
    if r <= 0:
        raise ValueError("radius must be positive")
    min_q = 2 * deg + 16
    if quad_points is None:
        quad_points = min_q
    if quad_points < min_q:
        raise ValueError(f"quad_points must be >= 2*degree+16 = {min_q}")
    table = _horner_table(np.asarray(p.coeffs[: deg + 1], dtype=complex)[None, :])
    theta = np.linspace(0.0, 2.0 * math.pi, quad_points, endpoint=False)
    vals = _log_abs_eval(table, r * np.exp(1j * theta))
    bad = ~np.isfinite(vals)
    if bad.any():
        jitter = theta[bad] + math.pi / quad_points
        vals[bad] = _log_abs_eval(table, r * np.exp(1j * jitter))
    # uniform grid over the full period: trapezoid rule = plain mean
    return float(np.mean(vals))


def jensen_rhs(roots, p0_abs: float, r: float) -> float:
    """log(p0_abs) + sum over |z_j| < r of log(r / |z_j|).

    This is the root side of Jensen's identity for a polynomial with
    |p(0)| = p0_abs; it must match circle_log_average away from root moduli.
    """
    if p0_abs <= 0.0:
        raise DegenerateInput("jensen_rhs needs p0_abs > 0")
    if r <= 0:
        raise ValueError("radius must be positive")
    arr = roots.roots if isinstance(roots, RootSet) else np.asarray(roots, dtype=complex)
    mod = np.abs(arr)
    if np.any(mod == 0.0):
        raise DegenerateInput("root at the origin contradicts p0_abs > 0")
    inside = mod < r
    return float(math.log(p0_abs) + np.sum(np.log(r / mod[inside])))
