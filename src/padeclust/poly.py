"""Polynomials with complex coefficients: evaluation, simultaneous root
finding, and circle averages of log|p|.

Conventions used throughout the package:

* coefficient vectors are stored low-to-high: ``coeffs[k]`` multiplies z**k;
* the numerical degree is the highest index whose coefficient exceeds the
  relative zero threshold ``ZERO_REL * max|coeffs|``;
* root sets are multisets sorted by (modulus, argument).

The root finder is the Aberth-Ehrlich simultaneous iteration with initial
guesses on Newton-polygon radii at golden-angle phases.  For |z| > 1 the
Newton ratio p/p' is evaluated through the reversed polynomial at w = 1/z,
which keeps every power finite at any start radius and any degree.  One
evaluation pass per sweep covers every active iterate: a table holds the B
forward coefficient columns next to the B reversed ones, and each iterate
reads the forward column at z or the reversed column at 1/z.  Below degree
_BLOCKED_FROM the pass is Horner's rule; from there on it is blocked
(Paterson-Stockmeyer, baby-step/giant-step): p = sum_b y^b q_b with
y = x^s, s = ceil(sqrt(d+1)), the inner sums q_b taken by one np.einsum per
column, so a sweep makes about 2 sqrt(d) Python-level steps, not d + 1.
An iterate settles on a tiny Aberth step and Newton ratio, or on the
backward-error stop |p| <= k eps sum_j |c_j| |x|^j with k from the pass's
error bound (_Table.noise).  For real coefficients _aberth iterates one
root of each conjugate pair, and one exactly real root per sign change of p
on a real grid.  find_roots_batch iterates a (B, d) stack of same-degree
polynomials at once, sharing the Python-level steps; find_roots is its
B = 1 call.  precision="extended" continues each row's double iterates in
mpmath at EXTENDED_DPS digits until they settle there.

The repulsion sums S_i = sum_{j != i} 1/(z_i - z_j) of a sweep are taken
per polynomial.  _repulsion forms every pair.  From degree _FAR_FROM, a
polynomial whose active iterates times degree reach _FAR_PAIRS in the
sweep takes them from _far_repulsion instead: the roots of a random series
cluster at |z| = 1, so the iterates near the circle fall into angular
sectors whose far pairs enter through local expansions (one-level
multipole), and only near sectors and off-circle iterates are summed pair
by pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateInput, NonConvergence

# Relative magnitude below which a coefficient counts as zero.
ZERO_REL = 1e-13

# Golden angle in radians, 2*pi*(1 - 1/phi).  Irrational rotation, so the
# start points never align with roots of unity of any small order.
_GOLDEN_ANGLE = 2.0 * math.pi * (1.0 - 2.0 / (1.0 + math.sqrt(5.0)))

_STEP_REL = 1e-14  # per-root stopping threshold on the Aberth step

EXTENDED_DPS = 30  # digits of precision="extended" here and in toeplitz


def coeff_vector(coeffs, entry: str = "", stack: bool = False) -> np.ndarray:
    """Coefficients as a finite 1-D float or complex array (low-to-high), or
    with stack=True a finite float or complex array of any shape.

    Raises DegenerateInput, prefixed "entry: " when entry is given, for a
    non-1-D vector or a NaN or infinite entry; such input would otherwise
    surface later as a misleading degree error or as a NaN statistic.
    """
    arr = np.atleast_1d(np.asarray(coeffs))
    prefix = f"{entry}: " if entry else ""
    if arr.ndim != 1 and not stack:
        raise DegenerateInput(f"{prefix}coefficients must form a 1-D vector, got shape {arr.shape}")
    if arr.dtype.kind not in "fc":
        arr = arr.astype(float)
    if not np.isfinite(arr).all():
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        where = f"element {bad}" if stack else f"coefficient {bad[0]}"
        raise DegenerateInput(f"{prefix}{where} is not finite ({arr[bad]})")
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

    @classmethod
    def _checked(cls, arr: np.ndarray) -> "Polynomial":
        """Wrap a non-empty, finite 1-D float or complex array that the caller
        has already checked, without checking it again."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", arr)
        return poly

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


# ---------------------------------------------------------------------------
# stable evaluation helpers


@dataclass(frozen=True)
class _Table:
    """Evaluation table of a (B, d+1) coefficient stack, for _horner_steps.

    ``coef`` is the (d+1, 2B) table: column b holds polynomial b and column
    B + b its reversal, both low-to-high.  p is evaluated in nb blocks of s
    coefficients, block b holding c_{bs} .. c_{bs+s-1} (zero-padded to
    nb*s): s = 1, Horner's rule, below degree _BLOCKED_FROM and
    s = ceil(sqrt(d+1)) from there on.  Then ``blocks[i, b, 0, c]`` is
    c_{bs+i} of column c, ``blocks[i, b, 1, c]`` (in a Newton table) the
    same entry of its derivative's table, whose entry k-1 is k c_k, and
    ``has_imag[c]`` tells whether column c has an imaginary part; with
    s = 1 both are None.  A Newton table also holds what the stop needs:
    ``mags[i, b, c]`` = |c_{bs+i}| (|coef| itself when s = 1) and
    ``mass[c]`` = sum_j |c_j|; a p-only table has neither.
    """

    coef: np.ndarray
    s: int
    nb: int
    blocks: Optional[np.ndarray]
    has_imag: Optional[np.ndarray]
    mags: Optional[np.ndarray]
    mass: Optional[np.ndarray]

    @property
    def d(self) -> int:
        return len(self.coef) - 1

    @property
    def B(self) -> int:
        return self.coef.shape[1] // 2

    @property
    def noise(self) -> float:
        """k eps with |fl(p(x)) - p(x)| <= k eps sum_j |c_j| |x|^j for the
        kernel of _horner_steps at |x| <= 1.  In units u = eps/2, to first
        order, term j = bs + i of p picks up at most: 3(i-1)u from the i-1
        complex multiplies of x^i (each within 2 sqrt(2) u, FMA or not), u
        from its real coefficient, sqrt(2)(s-1)u from the componentwise
        inner sum (none of these three when s = 1), and (3s + 1)u from each
        of its b outer steps (y = x^s carries 3(s-1)u, the multiply 3u, the
        add u).  With bs <= d and b < nb, below (3d + nb + 6s)u."""
        return (1.5 * self.d + 0.5 * self.nb + 3 * self.s) * np.finfo(float).eps


# From this degree on p and p' are evaluated in blocks of s = ceil(sqrt(d+1))
# coefficients whose inner sums take one np.einsum per column in use; below
# it s = 1 and the kernel is Horner's rule.  Call-count model of one pass
# over the points: Horner makes 4 ufunc calls per coefficient, 4(d + 1); the
# blocked form makes an einsum call per column in use, and a batch of
# same-degree rows has up to 2 _BATCH_ELEMS / d = 8192 / d columns, plus
# about 3(s + nb) ~ 6 sqrt(d) calls for the powers and the outer steps:
# 4d = 8192/d + 6 sqrt(d) at d ~ 55.  An einsum call costs several ufunc
# calls, and timing both forms on full same-degree batches puts the
# crossover between d = 100 and 128.  Every row of a batch shares d, so the
# choice never depends on the batch.
_BLOCKED_FROM = 120


def _blocked(table: np.ndarray, s: int) -> np.ndarray:
    """The (s, nb, ...) blocks of s rows of a (d+1, ...) table, zero-padded."""
    nb = -(-len(table) // s)
    padded = np.zeros((nb * s,) + table.shape[1:], dtype=table.dtype)
    padded[:len(table)] = table
    return np.ascontiguousarray(np.moveaxis(padded.reshape((nb, s) + table.shape[1:]), 1, 0))


def _horner_table(C: np.ndarray, newton: bool = True) -> _Table:
    """The _Table of a (B, d+1) coefficient stack C: with ``newton`` for
    p, p' and the stop, else for p alone (log|p| and the real grid's
    signs)."""
    coef = np.concatenate([C.T, C.T[::-1]], axis=1)
    d = len(coef) - 1
    table = _Table(coef, 1, d + 1, None, None, None, None)
    if newton:
        # rows of a contiguous copy, so a column's sum takes the same steps
        # in a stack of any size
        mags = np.abs(np.concatenate([C, C[:, ::-1]]))
        table = replace(table, mags=np.ascontiguousarray(mags.T), mass=mags.sum(axis=1))
    if d < _BLOCKED_FROM:
        return table
    s = math.isqrt(d) + 1  # ceil(sqrt(d + 1))
    parts = [coef]
    if newton:
        deriv = np.zeros_like(coef)
        deriv.real[:d], deriv.imag[:d] = (part[1:] * np.arange(1, d + 1)[:, None]
                                          for part in (coef.real, coef.imag))
        parts.append(deriv)
        table = replace(table, mags=_blocked(table.mags, s))
    return replace(table, s=s, nb=-(-(d + 1) // s), blocks=_blocked(np.stack(parts, axis=1), s),
                   has_imag=coef.imag.any(axis=0))


def _fold(table: _Table, z: np.ndarray, rows: Optional[np.ndarray]):
    """Point, table column and outer mask for one evaluation pass over z.

    Points with |z| > 1 are evaluated at w = 1/z on the reversed column, the
    rest at z on the forward one.  ``rows`` gives each point's polynomial;
    None means polynomial 0 for every point.
    """
    B = table.B
    outer = np.abs(z) > 1.0
    x = z.copy()
    x[outer] = 1.0 / z[outer]
    cols = B * outer if rows is None else rows + B * outer
    return x, cols, outer


# Complex entries per chunk of points in the blocked kernels: a chunk holds
# _HORNER_ELEMS // (s + 2 nb) points (240 at degree 2048), and Horner's rule
# expands blocks of _HORNER_ELEMS // n table rows for n points, so the
# temporaries stay within 512 KB at any degree.
_HORNER_ELEMS = 32768


def _block_sums(T: np.ndarray, cc: np.ndarray, V: np.ndarray, w: int) -> np.ndarray:
    """S[r, w i + c] = sum_j T[j, r, cc[i]] V[j, w i + c] for the sorted
    columns cc of one chunk of points: one np.einsum per column in use.  T
    is an (s, rows, columns) real block table and V is (s, w m), w = 2 for
    complex powers viewed as floats.  np.einsum accumulates each entry over
    j in order from zero with separate multiplies and adds, whatever the
    number of points, so each point sees the same floating-point operations
    however many points or columns share the call (a BLAS matmul does not,
    nor a 3-D einsum padded across columns)."""
    m = len(cc)
    S = np.empty((T.shape[1], w * m))
    used, first = np.unique(cc, return_index=True)
    for c, a, e in zip(used.tolist(), (w * first).tolist(), (w * np.r_[first[1:], m]).tolist()):
        np.einsum("jb,jm->bm", T[:, :, c], V[:, a:e], out=S[:, a:e])
    return S


def _powers(x: np.ndarray, s: int) -> np.ndarray:
    """The (s, m) powers x^0 .. x^(s-1), one multiply each into its own row."""
    X = np.empty((s, len(x)), dtype=x.dtype)
    X[0] = 1.0
    X[1:2] = x
    for i in range(2, s):
        np.multiply(X[i - 1], x, out=X[i])
    return X


def _horner_steps(table: _Table, x: np.ndarray, cols: np.ndarray, what: str):
    """p(x) = sum_b y^b q_b(x), y = x^s, q_b(x) = sum_i c_{bs+i} x^i, by
    Horner's rule in y, point x[i] (|x[i]| <= 1) on table column cols[i]:
    p alone (``what`` "p"), p and p' ("pair") or the bound
    sum_j |c_j| |x|^j by the same steps on |c| at |x| in real arithmetic
    ("bound"), as a list of 1 or 2 arrays; "pair" and "bound" need a Newton
    table.  The points are visited sorted by column and the results
    scattered back to the input order.

    With s = 1 (q_b = c_b) each step is p' <- p' x + p, p <- p x + c_b on
    the table rows expanded to the points, a block of rows at a time.  With
    s > 1 (Paterson-Stockmeyer) the points go in chunks of _HORNER_ELEMS //
    (s + 2 nb): the powers x^0..x^(s-1) and y take s multiplies, and
    _block_sums gives every q_b from the real parts (of the k c_k table's
    too for p'), plus a second share from the imaginary parts for the points
    of a column with complex coefficients.  Each of the nb outer steps is
    one multiply and one add over p and p' side by side.  Every multiply
    writes to a 1-D buffer distinct from its inputs: numpy's in-place
    complex multiply, or one on a (1, m) array, can round a short array
    differently from a longer one.
    """
    order = np.argsort(cols, kind="stable")
    xs, cs = x[order], cols[order]
    if what == "bound":
        xs = np.abs(xs)
    s, nb, n, k = table.s, table.nb, len(xs), 2 if what == "pair" else 1
    if s == 1:
        counts = np.bincount(cs, minlength=table.coef.shape[1])
        p, u = np.zeros_like(xs), np.empty_like(xs)
        dp, t = (np.zeros_like(xs), np.empty_like(xs)) if k == 2 else (None, None)
        step = max(1, _HORNER_ELEMS // max(n, 1))
        rows = table.mags if what == "bound" else table.coef
        for hi in range(nb, 0, -step):
            for ek in np.repeat(rows[max(0, hi - step):hi], counts, axis=1)[::-1]:
                if k == 2:
                    np.multiply(dp, xs, out=t)
                    np.add(t, p, out=t)
                    dp, t = t, dp
                np.multiply(p, xs, out=u)
                np.add(u, ek, out=u)
                p, u = u, p
        vals = [p, dp][:k]
    else:
        vals = np.empty((k, n), dtype=xs.dtype)
        step = max(1, _HORNER_ELEMS // (s + 2 * nb))
        T = table.mags if what == "bound" else table.blocks[:, :, :k].reshape(s, nb * k, -1)
        for lo in range(0, n, step):
            xc, cc = xs[lo:lo + step], cs[lo:lo + step]
            m = len(xc)
            X = _powers(xc, s)
            if what == "bound":
                Q = _block_sums(T, cc, X, 1)
            else:
                Qf = _block_sums(T.real, cc, X.view(float), 2)
                hi = table.has_imag[cc]
                if hi.any():
                    # (a + ib) x^i: the imaginary table's sums t enter as i t
                    t = _block_sums(T.imag, cc[hi], np.ascontiguousarray(X[:, hi]).view(float), 2)
                    Q2, t = Qf.reshape(nb * k, m, 2), t.reshape(nb * k, -1, 2)
                    Q2[:, hi, 0] -= t[..., 1]
                    Q2[:, hi, 1] += t[..., 0]
                Q = Qf.view(complex).reshape(nb, k * m)
            y = np.tile(X[s - 1] * xc, k)
            acc, tmp = Q[nb - 1].copy(), np.empty_like(y)
            for b in range(nb - 2, -1, -1):
                np.multiply(acc, y, out=tmp)
                np.add(tmp, Q[b], out=acc)
            vals[:, lo:lo + m] = acc.reshape(k, m)
    out = []
    for v in vals:
        out.append(np.empty_like(v))
        out[-1][order] = v
    return out


def _newton_ratio(table: _Table, z: np.ndarray, rows: Optional[np.ndarray] = None):
    """p(z)/p'(z), through the reversed polynomial for |z| > 1, and whether
    |p| is within the evaluation's error bound: |p(x)| <= table.noise
    sum_j |c_j| |x|^j at the folded point x.  The flags are those of
    evaluating the bound at every point, but it is evaluated only where two
    cheaper tests leave the answer open.  In the unit disk the bound is at
    most sum_j |c_j| (table.mass), so a point with |p| above twice
    table.noise times that is out (the 2 covers the rounding of both sums).
    And the computed bound is never below |c_0|: it adds nonnegative terms
    to |c_0| x^0 = |c_0|, and rounding is monotone; so a point with
    |p| <= table.noise |c_0| is in.  At a settled root |p| is mostly the
    evaluation's own rounding, which grows like sqrt(d) and not like the
    worst case d of table.noise, so the second test decides most of them.

    With w = 1/z:  p(z) = z^d p_rev(w)  and
    p/p' = z * p_rev(w) / (d * p_rev(w) - w * p_rev'(w)).
    ``table`` and ``rows`` are as in _horner_table and _fold.
    """
    d = table.d
    x, cols, outer = _fold(table, z, rows)
    p, dp = _horner_steps(table, x, cols, "pair")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(outer, z * p / (d * p - x * dp), p / dp)
    ap = np.abs(p)
    noise = ap <= (2 * table.noise * table.mass)[cols]
    if noise.any():
        open_ = noise & (ap > (table.noise * np.abs(table.coef[0]))[cols])
        if open_.any():
            noise[open_] = ap[open_] <= table.noise * _horner_steps(
                table, x[open_], cols[open_], "bound")[0]
    return ratio, noise


def _log_abs_eval(table: _Table, z: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """log|p(z)| through the direct or reversed polynomial, overflow-free.
    ``table`` and ``rows`` are as in _horner_table and _fold."""
    d = table.d
    x, cols, outer = _fold(table, z, rows)
    p = _horner_steps(table, x, cols, "p")[0]
    with np.errstate(divide="ignore"):
        log_p = np.log(np.abs(p))
        return np.where(outer, d * np.log(np.abs(z)) + log_p, log_p)


# Entries per repulsion block: a block holds _REPULSION_ELEMS // n rows
# (4 at n = 2048, 163 at n = 50), so each complex temporary is 128 KB at
# any degree.
_REPULSION_ELEMS = 8192


def _repulsion(z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """S_i = sum_{j != i} 1/(z_i - z_j) for i in idx, as conj(z_i - z_j)/|.|^2.

    The conjugated differences are taken from conj(z) directly.  A row
    block's differences come from contiguous operands, each row's conj(z_i)
    repeated n times minus conj(z) tiled once per call, not from a
    (rows, 1) - (1, n) broadcast; |.|^2 squares the real and imaginary parts
    through a float view.  Each difference is multiplied by the real
    reciprocal 1/|.|^2.  Numpy divides by a complex with zero imaginary part
    by Smith's formula, which reduces to that same product, so the multiply
    gives the bits of a complex division by |.|^2, NaN on a collision
    included, without its per-entry cost.  A diagonal entry has |.|^2 = inf
    and adds zero.
    """
    zc = np.conjugate(z)
    n = len(z)
    step = max(1, _REPULSION_ELEMS // n)
    tiled = np.repeat(zc[None, :], min(step, len(idx)), axis=0).ravel()
    diff = np.empty_like(tiled)
    S = np.empty(len(idx), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s0 in range(0, len(idx), step):
            rows = idx[s0:s0 + step]
            r = len(rows)
            d = np.subtract(np.repeat(zc[rows], n), tiled[:r * n], out=diff[:r * n]).reshape(r, n)
            sq = np.square(d.view(float)).reshape(r, n, 2)
            mag = sq[..., 0] + sq[..., 1]
            mag[np.arange(r), rows] = np.inf
            np.divide(1.0, mag, out=mag)
            d *= mag
            S[s0:s0 + r] = d.sum(axis=1)
    return S


# Far-field repulsion (one-level multipole: Greengard and Rokhlin, J. Comput.
# Phys. 73, 1987; Carrier, Greengard and Rokhlin, SIAM J. Sci. Stat. Comput.
# 9, 1988).  Iterates within _FAR_BAND of |z| = 1 fall into _FAR_SECTORS
# equal angular sectors centred at c_t = exp(i pi (2t + 1) / K) on the unit
# circle; every such iterate is within rho = |(1 + h) e^{i pi/K} - 1| of its
# centre.  Sectors t and t + D are far when 2 rho <= _FAR_KAPPA |c_t - c_{t+D}|,
# which with K = 32, h = 0.02 and kappa = 0.52 leaves D = 0, +-1 near.
# A far pair's series then shrinks by |z_j - c|/(|c_t - c_s| - rho) <= 0.35
# per term, so _FAR_TERMS = 32 terms put the truncation (0.35^32, about
# 2.5e-15) below the rounding (relative error in S about 3e-14 on start
# points and converged roots at degrees 1024 and 2048, as at 30 terms; 28
# terms gave 3.5e-14, 24 terms 1.6e-12).  The translation between sectors
# is diagonal in the DFT over the sector axis (FFT-accelerated M2L: Ying,
# Biros and Zorin, J. Comput. Phys. 196, 2004), so its cost is two length-K
# FFTs and K small (p, p) products.
#
# The far path pays only where the pairs it saves outweigh its fixed cost
# (moments, translation and one _repulsion call per sector with targets),
# so it serves a polynomial from degree _FAR_FROM whose active iterates
# times degree, the pairs of the all-pairs sum, reach _FAR_PAIRS in the
# sweep.  Far time over direct time per call, best of 9, on converged roots
# and start points of a real Gaussian series, two runs on a 2-core x86_64
# box: at d = 1024 and 100, 200, 300, 400 targets 1.7-2.3, 1.0-1.6,
# 0.79-0.82, 0.54-0.69; at d = 1536 and 100, 150, 200, 300, 400 targets
# 1.5, 1.0-1.1, 0.76-0.88, 0.50-0.77, 0.40-0.49; at d = 2048 and 100, 150,
# 200, 400 targets 1.1-1.2, 0.79-0.84, 0.59-0.66, 0.31-0.40.  Break-even
# sits at 2.2-2.6e5 pairs at all three degrees.  Both are properties of one
# polynomial in one sweep, so a row's choice never depends on the batch.
_FAR_FROM = 1024
_FAR_PAIRS = 300_000
_FAR_SECTORS = 32
_FAR_TERMS = 32
_FAR_BAND = 0.02
_FAR_KAPPA = 0.52


def _far_tables(K: int, p: int, h: float, kappa: float):
    """Sector centres, near sector offsets, and the real (K, p, p)
    translation kernel W of the far offsets in frequency space.

    In a sector's rotated frame u = z conj(c) - 1, the moments of sector s
    are m_k = sum_j u_j^k, and the local expansion of the far sectors'
    sum_j 1/(z - z_j) about c_t is conj(c_t) sum_l L[l, t] u^l with
    L[l, t] = sum_D sum_k A[D, l, k] m_k(t + D), w = e^{2 pi i/K} and
    A[D, l, k] = (-1)^l binom(k + l, l) w^{Dk} (1 - w^D)^{-(k+l+1)}:
    the multipole series of 1/(z - z_j) about c_s, re-expanded about c_t
    (c_t - c_s = c_t (1 - w^D)).  A depends on the offset D alone, so the
    translation is a circular correlation over the sector axis, and a
    length-K DFT diagonalises it: L is the inverse DFT of W[f] applied to
    the DFT of the moments at each frequency f, with W[f] = sum_D A[D] w^{fD}
    over the far D.  That is W[f, l, k] = (-1)^l binom(k + l, l)
    g(f + k, k + l + 1), g(m, e) = sum_D w^{Dm} (1 - w^D)^{-e}, and g is
    real because the far offsets come in pairs +-D whose terms are complex
    conjugates.  Each term of g is its modulus times the cosine of its
    angle, an integer multiple of pi/(2K) reduced mod 2 pi in integer
    arithmetic, not a product of complex powers."""
    centres = np.exp(1j * math.pi * (2 * np.arange(K) + 1) / K)
    rho = abs((1 + h) * complex(math.cos(math.pi / K), math.sin(math.pi / K)) - 1)
    offsets = np.arange(K)
    far = 2 * rho <= kappa * 2 * np.sin(math.pi * np.minimum(offsets, K - offsets) / K)
    near = np.sort(np.where(offsets > K // 2, offsets - K, offsets)[~far])
    k = np.arange(p)
    e = np.arange(2 * p)
    g = np.zeros((K, 2 * p))
    for D in offsets[far].tolist():
        # 1 - w^D = 2 sin(pi D/K) e^{i (pi D/K - pi/2)}, so the angle of the
        # term is pi/(2K) times 4 D m - 2 e D + e K
        mag = (2 * math.sin(math.pi * D / K)) ** -e.astype(float)
        quarter = (4 * D * offsets[:, None] - 2 * e * D + e * K) % (4 * K)
        g += mag * np.cos((math.pi / (2 * K)) * quarter)
    binom = np.array([[math.comb(i + j, j) for i in range(p)] for j in range(p)], dtype=float)
    sign = np.where(k % 2, -1.0, 1.0)[:, None]
    W = g[(offsets[:, None, None] + k) % K, k[:, None] + k + 1]  # [f, l, k]
    W *= sign * binom
    return centres, near, W


_FAR_CENTRES, _FAR_NEAR, _FAR_KERNEL = _far_tables(
    _FAR_SECTORS, _FAR_TERMS, _FAR_BAND, _FAR_KAPPA)


def _far_local(M: np.ndarray) -> np.ndarray:
    """The (p, K) local expansion coefficients L[l, t] of the far sectors of
    every sector t, from the (p, K) sector moments M[k, s]: one FFT over the
    sector axis, the real kernel applied to the real and imaginary parts by
    one np.einsum without optimize, and one inverse FFT.  pocketfft and
    np.einsum use neither BLAS nor threads, so no bit depends on them."""
    Mf = np.ascontiguousarray(np.fft.fft(M).T)  # strided operands slow the einsum 10x
    Lf = np.einsum("flk,fck->fcl", _FAR_KERNEL, np.stack([Mf.real, Mf.imag], axis=1))
    return np.fft.ifft((Lf[:, 0] + 1j * Lf[:, 1]).T)


def _far_repulsion(z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """S_i = sum_{j != i} 1/(z_i - z_j) for i in idx, as _repulsion gives
    it to within rounding, from a one-level far-field expansion.

    Iterates off the band are sources for every target and, as targets,
    take _repulsion over all of z.  A band target in sector t takes
    _repulsion over the band iterates of its near sectors and the off-band
    iterates (an exact collision there gives a non-finite S, as it does in
    _repulsion), plus its sector's local expansion by Horner's rule in u.
    The moments come from every band iterate of z, and the local expansion
    of every sector is formed at fixed shapes by _far_local (two length-K
    FFTs and one np.einsum of the (K, p, p) kernel), so no bit depends on
    threading or on which iterates are active: S_i depends on z and i
    alone.  Each multiply writes to a buffer distinct from its inputs, as
    in _horner_steps.
    """
    K, p = _FAR_SECTORS, _FAR_TERMS
    n = len(z)
    band = np.abs(np.abs(z) - 1.0) <= _FAR_BAND
    sec = np.full(n, K, dtype=np.intp)
    sec[band] = np.floor(np.angle(z[band]) * (K / (2 * math.pi))).astype(np.intp) % K
    order = np.argsort(sec, kind="stable")
    starts = np.searchsorted(sec[order], np.arange(K + 1))
    zs, nb = z[order], starts[K]
    u = np.multiply(zs[:nb], _FAR_CENTRES[sec[order[:nb]]].conj()) - 1.0
    M = np.zeros((p, K), dtype=complex)
    counts = np.diff(starts)
    M[0] = counts
    full = np.flatnonzero(counts)
    pw = u
    for k in range(1, p):
        M[k, full] = np.add.reduceat(pw, starts[full])
        pw = np.multiply(pw, u)
    L = _far_local(M)

    S = np.empty(len(idx), dtype=complex)
    on = band[idx]
    if not on.all():
        S[~on] = _repulsion(z, idx[~on])
    targets = idx[on]
    tsec = sec[targets]
    conj_c = _FAR_CENTRES[tsec].conj()
    ut = np.multiply(z[targets], conj_c) - 1.0
    acc = L[p - 1][tsec]
    for l in range(p - 2, -1, -1):
        acc = np.add(np.multiply(acc, ut), L[l][tsec])
    far = np.multiply(acc, conj_c)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    near = np.empty(len(targets), dtype=complex)
    off_band = zs[nb:]
    # band targets by sector, so each sector's targets are one slice
    by_sector = np.argsort(tsec, kind="stable")
    tstarts = np.searchsorted(tsec[by_sector], np.arange(K + 1))
    at = np.searchsorted(_FAR_NEAR, 0)
    for t in np.flatnonzero(tstarts[1:] > tstarts[:-1]).tolist():
        parts = [zs[starts[s]:starts[s + 1]] for s in ((t + _FAR_NEAR) % K).tolist()]
        mine = by_sector[tstarts[t]:tstarts[t + 1]]
        before = sum(len(part) for part in parts[:at])
        near[mine] = _repulsion(np.concatenate(parts + [off_band]),
                                before + rank[targets[mine]] - starts[t])
    S[on] = near + far
    return S


def _scaled_residual_log(C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Per row, log of max |P(root)| / (1+|root|)**degree in log space, for
    a (B, d+1) coefficient stack C and the (B, d) stack R of its roots."""
    d = C.shape[1] - 1
    rows = np.repeat(np.arange(len(C)), d)
    table = _horner_table(C, newton=False)
    vals = _log_abs_eval(table, R.ravel(), rows) - d * np.log1p(np.abs(R.ravel()))
    return vals.reshape(R.shape).max(axis=1)


# ---------------------------------------------------------------------------
# Aberth-Ehrlich iteration


def _start_points(c: np.ndarray, offset: float, real: Optional[np.ndarray] = None) -> np.ndarray:
    """Initial guesses on Newton-polygon radii.

    The radii come from the upper convex hull of (j, log|c_j|): a hull
    segment from j=a to j=b contributes b-a start radii |c_a/c_b|^(1/(b-a)),
    which tracks the moduli of the actual roots.  A plain Cauchy-bound circle
    is a valid but far start whose radial collapse costs O(degree)
    iterations; the hull start removes that transient.  Radii are capped by
    the Cauchy bound.  Radius j gets phase offset + GA j, or with ``real``
    the start is [U | conj(U) | real], U on the middle radius of each of
    (d - r)/2 equal slices of the radii, at (offset + GA (j + 1/2)) mod pi.
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
    if real is None:
        k = np.arange(d)
        return radii * np.exp(1j * (offset + _GOLDEN_ANGLE * k))
    k = (d - len(real)) // 2
    j = np.arange(k)
    upper = radii[(2 * j + 1) * d // max(2 * k, 1)] * np.exp(
        1j * np.mod(offset + _GOLDEN_ANGLE * (j + 0.5), math.pi))
    return np.concatenate([upper, upper.conj(), real])


def _real_brackets(table: _Table, rows: np.ndarray) -> List[np.ndarray]:
    """Per real row of the evaluation table named by ``rows``, the (3, r) array
    of lower ends, upper ends and midpoints (in u) of the brackets where p
    changes sign on a grid of u in [-2, 2]: x = u for |u| <= 1, else
    1/(sign(u)(2-|u|)) on the reversed column, log-spaced toward x = +-1 with
    d/4 points per side, 16 to 64.  A value within 4 d eps sum|c_j| of zero
    has no certain sign and is skipped, so every bracket holds a real root;
    the ends x = +-inf are exact (c_d) and kept, so r has the parity of d.
    """
    B, d = table.B, table.d
    g = np.geomspace(1.0, 0.25 / d, max(16, min(64, d // 4)))
    u = np.unique(np.outer([-1.0, 1.0], np.r_[1.0 - g, 1.0 + g, 1.0]))
    outer = np.abs(u) > 1.0
    def to_x(v):
        with np.errstate(divide="ignore"):
            return np.where(np.abs(v) > 1.0, 1.0 / (np.sign(v) * (2.0 - np.abs(v))), v)
    w = np.where(outer, np.sign(u) * (2.0 - np.abs(u)), u)
    (vals,) = _horner_steps(table, np.tile(w + 0j, len(rows)),
                            (rows[:, None] + B * outer).ravel(), "p")
    vals = vals.real.reshape(len(rows), len(u))
    tol = 4 * d * np.finfo(float).eps * table.mass[rows]
    sign = np.where((np.abs(vals) > tol[:, None]) | (np.abs(u) == 2.0), np.sign(vals), 0.0)
    sign *= np.where(outer, np.sign(u) ** d, 1.0)
    x, brackets = to_x(u), []
    for s in sign:
        keep = np.flatnonzero(s)
        change = s[keep[:-1]] != s[keep[1:]]
        lo, hi = keep[:-1][change], keep[1:][change]
        brackets.append(np.stack([x[lo], x[hi], to_x(0.5 * (u[lo] + u[hi]))]))
    return brackets


def _aberth(C: np.ndarray, max_iter: int, offset: float):
    """Aberth-Ehrlich iteration on the rows of C, a (B, d+1) stack of
    degree-d coefficient vectors with nonzero end coefficients.

    A real row's slots are [U | conj(U) | R], R one start per _real_brackets
    sign change.  Only U and R are iterated; the mirrors enter the repulsion
    sums as others and are reset to conj(U) after each sweep.  R moves by the
    real part of its correction, at most half way to its bracket's ends.  A
    U pair stalls on real roots the count missed: once a row's unsettled U
    and R fall to 2% of them, or by under 10% in a sweep after sweep 5, its
    unsettled mirrors become free (nudged) iterates, and so does an R pinned
    at its bracket's end after that, its root taken by a freed mirror.

    Every row keeps its own start points, Cauchy radius, per-root active
    flags, collision kicks and unfold, and its repulsion sums run over its
    own iterates only, so each row's iterates are bitwise those of a B = 1
    call: batching shares the Python-level evaluation steps, not the
    arithmetic.  The evaluation table is built once for the whole stack.
    A row's repulsion sums come from _far_repulsion when d >= _FAR_FROM and
    the row's active iterates times d reach _FAR_PAIRS in the sweep, else
    from _repulsion; either depends on the row's own iterates alone.
    Returns the (B, d) iterates and a per-row flag telling whether every
    root of that row settled within max_iter sweeps.
    """
    B, d = C.shape[0], C.shape[1] - 1
    table = _horner_table(C)
    radius = 1.0 + np.max(np.abs(C[:, :-1]), axis=1) / np.abs(C[:, -1])
    is_real = ~C.imag.any(axis=1)
    reals = _real_brackets(table, np.flatnonzero(is_real))
    k = np.zeros(B, dtype=int)
    k[is_real] = [(d - x.shape[1]) // 2 for x in reals]
    mirror = (np.arange(d) >= k[:, None]) & (np.arange(d) < 2 * k[:, None])
    on_axis = is_real[:, None] & (np.arange(d) >= 2 * k[:, None])
    ends = np.multiply.outer([-np.inf, np.inf], np.ones((B, d)))
    ends[:, on_axis] = np.concatenate([np.empty((2, 0))] + [x[:2] for x in reals], axis=1)
    Z = np.stack([_start_points(c, offset, reals.pop(0)[2] if real else None)
                  for c, real in zip(C, is_real)])
    mrows, mcols = np.nonzero(mirror)
    folded, active = k > 0, ~mirror
    owners = unsettled = np.count_nonzero(active, axis=1)
    for it in range(max_iter):
        rows, cols = np.nonzero(active)
        if rows.size == 0:
            break
        z = Z[rows, cols]
        s, noise = _newton_ratio(table, z, rows)
        S = np.empty_like(z)
        bounds = np.searchsorted(rows, np.arange(B + 1))
        for b in np.flatnonzero(bounds[1:] > bounds[:-1]):
            lo, hi = bounds[b], bounds[b + 1]
            far = d >= _FAR_FROM and (hi - lo) * d >= _FAR_PAIRS
            S[lo:hi] = (_far_repulsion if far else _repulsion)(Z[b], cols[lo:hi])
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = s / (1.0 - s * S)
        bad = ~np.isfinite(corr)
        if bad.any():
            # two iterates collided or the derivative hit a saddle: kick
            # those points deterministically and keep them going, except a
            # non-finite Newton ratio within the evaluation error (p' = 0 at
            # a multiple root), which settles where it is
            kicked = bad & ~(noise & ~np.isfinite(s))
            kick = 1e-3 * radius[rows[bad]] * np.exp(1j * _GOLDEN_ANGLE * (it + cols[bad]))
            corr[bad] = np.where(kicked[bad], -kick, 0.0)
            noise &= ~kicked
        real = on_axis[rows, cols]
        x, (a, e), step = z[real].real, ends[:, rows[real], cols[real]], (z - corr)[real].real
        new = np.where(step <= a, 0.5 * (x + a), np.where(step >= e, 0.5 * (x + e), step))
        corr[real] = x - new
        lost = (new != step) & ~folded[rows[real]] & (k[rows[real]] > 0)
        on_axis[rows[real][lost], cols[real][lost]] = False
        z -= corr
        Z[rows, cols] = z
        # settled means |p| was within its evaluation error (a root of a
        # polynomial table.noise away: the backward-error stop), or both the
        # Aberth step and the Newton ratio are tiny.  The ratio check keeps
        # close pairs (tiny step, large ratio) alive under the step rule,
        # but the stop overrides it: two iterates in one such region settle
        # as a multiple root of that nearby polynomial, as in MPSolve
        done = noise | (np.abs(corr) <= _STEP_REL * (1.0 + np.abs(z))) & (
            np.abs(s) <= 1e-12 * (1.0 + np.abs(z))
        )
        active[rows[done], cols[done]] = False
        m = folded[mrows]
        Z[mrows[m], mcols[m]] = np.conj(Z[mrows[m], mcols[m] - k[mrows[m]]])
        before, unsettled = unsettled, np.count_nonzero(active, axis=1)
        stall = folded & ((unsettled <= 0.02 * owners) | ((it >= 5) & (unsettled > 0.9 * before)))
        m = stall[mrows] & active[mrows, mcols - k[mrows]]
        r, c = mrows[m], mcols[m]
        Z[r, c] *= 1.0 + 1e-3 * np.exp(1j * (0.7 + _GOLDEN_ANGLE * c))
        active[r, c] = True
        folded &= ~stall
    return Z, ~active.any(axis=1)


def _aberth_extended(c: np.ndarray, z: np.ndarray, max_iter: int):
    """Continue the Aberth sweep of row c from its double iterates z in
    mpmath at EXTENDED_DPS digits, where p and p' cannot overflow at any |z|.
    A zero division (p' = 0, a collision, a zero denominator) kicks the
    iterate as _aberth does; an exactly real iterate of a real row moves by
    real parts only.  An iterate settles on a tiny step and Newton ratio, or
    on |p(z)| <= 10^(2 - EXTENDED_DPS) sum |c_j| |z|^j.  Returns the iterates
    rounded to double and whether all settled within max_iter sweeps."""
    import mpmath as mp

    with mp.workdps(EXTENDED_DPS):
        cm = [mp.mpc(complex(v)) for v in c[::-1]]
        radius = 1 + max(abs(v) for v in cm[1:]) / abs(cm[0])
        cabs = [abs(v) for v in cm]
        zm = [mp.mpc(complex(v)) for v in z]
        on_axis = [not c.imag.any() and v.imag == 0 for v in z]
        stop = mp.mpf(10) ** (2 - EXTENDED_DPS)
        active = [True] * len(zm)
        for it in range(max_iter):
            for i, zi in enumerate(zm):
                if not active[i]:
                    continue
                try:
                    p, dp = mp.polyval(cm, zi, derivative=True)
                    s = p / dp
                    corr = s / (1 - s * mp.fsum(1 / (zi - zj) for j, zj in enumerate(zm) if j != i))
                except ZeroDivisionError:
                    kick = 1e-3 * radius * mp.expjpi(_GOLDEN_ANGLE * (it + i) / mp.pi)
                    zm[i] = zi + (kick.real if on_axis[i] else kick)
                    continue
                if on_axis[i]:
                    corr = corr.real
                zm[i] = zi - corr
                tiny = stop * (1 + abs(zm[i]))
                if (abs(corr) <= tiny and abs(s) <= 100 * tiny) or (
                        abs(p) <= stop * mp.polyval(cabs, abs(zi))):
                    active[i] = False
            if not any(active):
                break
        return np.array([complex(v) for v in zm], dtype=complex), not any(active)


def _sorted_roots(roots: np.ndarray) -> np.ndarray:
    mod = np.abs(roots)
    ang = np.angle(roots)
    order = np.lexsort((ang, mod))
    return roots[order]


# Cap on B*d, the number of iterates one batched Aberth run holds: it bounds
# the evaluation temporaries, while repulsion stays per polynomial.
_BATCH_ELEMS = 4096


def find_roots_batch(
    polys: Sequence,
    tol: float = 1e-10,
    max_iter: int = 150,
    precision: str = "double",
    start_offset: float = 0.0,
) -> List[Union[RootSet, NonConvergence]]:
    """find_roots for each polynomial of ``polys``, in input order.

    Polynomials of equal reduced degree (numerical degree minus the zeros at
    the origin) are iterated together in (B, d) stacks of at most
    _BATCH_ELEMS iterates, and each result is bitwise the one find_roots
    gives.  A polynomial that does not converge yields its NonConvergence
    (carrying the partial RootSet) in place of a RootSet rather than raising.
    Degree < 1 or malformed coefficients raise DegenerateInput for the call.
    precision="extended" hands every row's double roots (settled or not) to
    continue_extended.
    """
    if precision not in ("double", "extended"):
        raise ValueError("precision must be 'double' or 'extended'")
    split = [_split_origin(p) for p in polys]
    full = [c for c, _ in split]
    roots: List[np.ndarray] = []
    by_degree: Dict[int, List[int]] = {}
    for i, (c, k0) in enumerate(split):
        roots.append(np.zeros(k0, dtype=complex))
        if len(c) - k0 == 2:
            roots[i] = np.concatenate([roots[i], [-c[k0] / c[k0 + 1]]])
        elif len(c) - k0 > 2:
            by_degree.setdefault(len(c) - 1 - k0, []).append(i)
    settled = [True] * len(full)
    for d, members in by_degree.items():
        for chunk in _chunks(members, d):
            Z, row_ok = _aberth(np.stack([full[i][-d - 1:] for i in chunk]), max_iter, start_offset)
            for i, z, ok in zip(chunk, Z, row_ok):
                roots[i] = np.concatenate([roots[i], z])
                settled[i] = bool(ok)
    found = _root_sets(full, roots, settled, tol, max_iter)
    if precision == "extended":
        return continue_extended(polys, [getattr(r, "partial", r) for r in found], tol, max_iter)
    return found


def continue_extended(polys: Sequence, partials: Sequence[RootSet], tol: float = 1e-10,
                      max_iter: int = 150) -> List[Union[RootSet, NonConvergence]]:
    """Each row's roots continued in mpmath by _aberth_extended, from the
    RootSet (settled or partial) of a double find_roots_batch call over
    polys: its roots other than the zeros at the origin, in their sorted
    order.  find_roots_batch(..., precision="extended") is this after its
    double phase; a retry holding a failed double call's partials calls it
    directly, without repeating that phase."""
    full, roots, settled = [], [], []
    for p, rs in zip(polys, partials):
        c, k0 = _split_origin(p)
        z, ok = rs.roots, True
        if len(c) - k0 > 2:
            z, ok = _aberth_extended(c[k0:], z[k0:], max_iter)
            z = np.concatenate([np.zeros(k0, dtype=complex), z])
        full.append(c)
        roots.append(z)
        settled.append(bool(ok))
    return _root_sets(full, roots, settled, tol, max_iter)


def _split_origin(p):
    """The coefficients of p through its numerical degree, as complex, and
    the number of zeros at the origin split off exactly."""
    p = _as_poly(p)
    deg = p.degree
    if deg < 1:
        raise DegenerateInput("root finding needs degree >= 1")
    c = np.asarray(p.coeffs[: deg + 1], dtype=complex)
    thresh = p.zero_threshold
    k0 = 0
    while k0 < deg and abs(c[k0]) <= thresh:
        k0 += 1
    return c, k0


def _root_sets(full, roots, settled, tol, max_iter) -> List[Union[RootSet, NonConvergence]]:
    """RootSets (or NonConvergences carrying them) of the full polynomials,
    origin zeros included, with their residuals.  The residual scales with
    the coefficients, so it is held to tol * max_j |c_j|."""
    roots = [_sorted_roots(r) for r in roots]
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
    for c, r, lr, done in zip(full, roots, log_res, settled):
        residual = float(np.exp(min(lr, 700.0))) if np.isfinite(lr) else 0.0
        scaled_tol = tol * float(np.abs(c).max())
        rs = RootSet(roots=r, residual=residual, converged=done and residual <= scaled_tol)
        if rs.converged:
            out.append(rs)
        else:
            why = ("settled with the residual above tol * max|c_j|" if done
                   else f"iteration did not settle after {max_iter} iterations")
            out.append(NonConvergence(
                f"{why} (residual {residual:.3e}, tol * max|c_j| {scaled_tol:.3e})",
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
    start_offset: float = 0.0,
) -> RootSet:
    """All roots of p, with zeros at the origin split off exactly.

    Raises NonConvergence (carrying the partial RootSet) if the iteration
    budget runs out or the residual exceeds tol * max_j |c_j|; the caller
    may retry with a different ``start_offset`` or precision="extended".
    """
    (rs,) = find_roots_batch([p], tol, max_iter, precision, start_offset)
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
    table = _horner_table(np.asarray(p.coeffs[: deg + 1], dtype=complex)[None, :], newton=False)
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
    if not np.isfinite(mod).all():
        raise DegenerateInput("jensen_rhs needs finite roots")
    if np.any(mod == 0.0):
        raise DegenerateInput("root at the origin contradicts p0_abs > 0")
    inside = mod < r
    return float(math.log(p0_abs) + np.sum(np.log(r / mod[inside])))
