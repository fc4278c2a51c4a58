"""Toeplitz windows of a coefficient sequence and the dense linear algebra
used on them: pivoted-LU log-determinants, condition estimates and the
denominator solve of the [m, n] problem.

Window protocols work on stacks: WindowStack holds the coefficients of a
block of trials and hands out the (B, k, k) windows of every row as one
strided view, and log_abs_dets factors such a stack.  _lu_stack is the one
getrf call site (log_abs_det is its B = 1 call, and the double denominator
solve factors through it), so a determinant has the same bits alone, in a
stack or from pade.  Public entry points reject non-finite input with
DegenerateInput; internal callers pass arrays that are already checked.

Index conventions (a_l = 0 for l < 0 throughout):

* ``W`` is (n+1) x (n+1) with W[i][j] = a_{m+i-j}
* ``T`` is  n    x (n+1) with T[i][j] = a_{m+1+i-j}, i.e. rows 2..n+1 of W
* ``A`` is  n    x  n    with A[i][j] = a_{m+i-j}, i.e. columns 2..n+1 of T

The denominator solve fixes q_0 = 1 and solves
A (q_1..q_n)^T = -(a_{m+1}, ..., a_{m+n})^T, which is exactly T q = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import lapack

from .errors import DegenerateSystem, InsufficientCoefficients
from .poly import EXTENDED_DPS, coeff_vector

COND_CAP_DOUBLE = 1e12
COND_CAP_EXTENDED = 1e28


@dataclass(frozen=True)
class ToeplitzTriple:
    m: int
    n: int
    T: np.ndarray
    A: np.ndarray
    W: np.ndarray


@dataclass(frozen=True)
class DetResult:
    """log|det| with sign/phase, singularity flag and 1-norm condition.

    ``log_abs`` is -inf exactly when ``singular``; ``sign_or_phase`` is a
    unit scalar (+-1 for real input) and 0 when singular.
    """

    log_abs: float
    sign_or_phase: complex
    singular: bool
    condition_estimate: float


def _assoc(arr: np.ndarray, m: int, k: int) -> np.ndarray:
    """The k x k window W[i, j] = a_{m+i-j} of a checked coefficient array,
    with a_l = 0 for l < 0."""
    if k > 0 and len(arr) < m + k:
        raise InsufficientCoefficients(
            f"need at least {m + k} coefficients for the {k}x{k} window at m={m}, got {len(arr)}"
        )
    # seg[t] = a_{m+k-1-t} for t = 0..2k-2, so W[i, j] = seg[k-1-i+j].
    seg = np.zeros(max(2 * k - 1, 0), dtype=arr.dtype)
    top = arr[max(m - k + 1, 0) : max(m + k, 0)][::-1]
    seg[: len(top)] = top
    i = np.arange(k)
    return seg[np.add.outer(i[::-1], i)]


def assoc_matrix(coeffs, m: int, k: int) -> np.ndarray:
    """The k x k window matrix with entries a_{m+i-j}; needs len >= m+k.
    A NaN or infinite coefficient raises DegenerateInput."""
    return _assoc(coeff_vector(coeffs, "assoc_matrix"), m, k)


def _triple(arr: np.ndarray, m: int, n: int) -> ToeplitzTriple:
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    W = _assoc(arr, m, n + 1)
    return ToeplitzTriple(m=m, n=n, T=W[1:], A=W[1:, 1:].copy(), W=W)


def build_triple(coeffs, m: int, n: int) -> ToeplitzTriple:
    """Build the T, A windows for the [m, n] problem.  A NaN or infinite
    coefficient raises DegenerateInput."""
    return _triple(coeff_vector(coeffs, "build_triple"), m, n)


def _getrf(M: np.ndarray):
    return (lapack.zgetrf if M.dtype.kind == "c" else lapack.dgetrf)(M)


def _condition(M: np.ndarray, lu: np.ndarray) -> float:
    """1-norm condition estimate of M from its LU factors."""
    gecon = lapack.zgecon if lu.dtype.kind == "c" else lapack.dgecon
    rcond, _ = gecon(lu, float(np.abs(M).sum(axis=0).max()), norm="1")
    return float(1.0 / rcond) if rcond > 0 else math.inf


class WindowStack:
    """Coefficient rows of a block of trials and their k x k windows.

    Row b of ``coeffs`` (shape (B, length), float) holds a_0..a_{length-1}
    of one trial; callers fill it in place.  It is the right part of a
    zeroed buffer with k - 1 extra columns on the left, so the windows read
    a_l = 0 for l < 0 without a copy.
    """

    def __init__(self, rows: int, length: int, k: int):
        self.k = k
        self._buf = np.zeros((rows, max(k - 1, 0) + length))
        self.coeffs = self._buf[:, max(k - 1, 0):]

    def windows(self, m: int) -> np.ndarray:
        """(B, k, k) view W[b, i, j] = a_{m+i-j} of row b; needs length >= m+k."""
        k = self.k
        rows, length = self.coeffs.shape
        if k == 0:
            return np.zeros((rows, 0, 0), dtype=self._buf.dtype)
        if length < m + k:
            raise InsufficientCoefficients(
                f"need at least {m + k} coefficients for the {k}x{k} window at m={m}, got {length}"
            )
        # Slide over the reversed rows: start s reads a_{L-k-s-j} at column j
        # (L the padded row length), so W's row i is start L-k-m-i.
        slid = sliding_window_view(self._buf[:, ::-1], k, axis=1)
        top = self._buf.shape[1] - k - m
        return slid[:, top : (top - k if top >= k else None) : -1]


def _lu_stack(W: np.ndarray):
    """Partial-pivot LU of every matrix of a (B, k, k) stack, one getrf call
    each: the (B, k) LU diagonals, the info codes, and the last matrix's
    (lu, piv).  getrf works in double (complex) precision whatever the
    input's, so the diagonals keep the precision it returns."""
    rows, k = W.shape[:2]
    diag = np.empty((rows, k), dtype=complex if W.dtype.kind == "c" else float)
    info = np.empty(rows, dtype=int)
    lu = piv = None
    for b in range(rows):
        lu, piv, info[b] = _getrf(W[b])
        diag[b] = lu.diagonal()
    return diag, info, lu, piv


def _log_abs(diag: np.ndarray, info: np.ndarray):
    singular = (info > 0) | (diag == 0).any(axis=1)
    if not singular.any():
        return np.log(np.abs(diag)).sum(axis=1), singular
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(diag)).sum(axis=1)
    return np.where(singular, -math.inf, log_abs), singular


def log_abs_dets(W) -> Tuple[np.ndarray, np.ndarray]:
    """log|det| of every matrix of a (B, k, k) stack, and which are singular.

    A matrix is singular when getrf reports an exactly zero pivot or its LU
    diagonal holds a zero; its log|det| is -inf.  Each entry has the bits
    log_abs_det gives for that matrix alone.  A NaN or infinite element
    raises DegenerateInput.
    """
    W = coeff_vector(W, "log_abs_dets", stack=True)
    if W.ndim != 3 or W.shape[1] != W.shape[2]:
        raise ValueError("log_abs_dets needs a (B, k, k) stack")
    if W.shape[1] == 0:
        return np.zeros(len(W)), np.zeros(len(W), dtype=bool)
    diag, info, _, _ = _lu_stack(W)
    return _log_abs(diag, info)


def log_abs_det(M) -> DetResult:
    """Partial-pivot LU determinant in log form, with a 1-norm condition
    estimate from the same factorization.  det of the 0x0 matrix is 1.  A
    NaN or infinite element raises DegenerateInput."""
    M = coeff_vector(np.atleast_2d(M), "log_abs_det", stack=True)
    r, c = M.shape
    if r != c:
        raise ValueError("log_abs_det needs a square matrix")
    if r == 0:
        return DetResult(log_abs=0.0, sign_or_phase=1.0, singular=False, condition_estimate=1.0)
    diag, info, lu, piv = _lu_stack(M[None])
    (log_abs,), (singular,) = _log_abs(diag, info)
    if singular:
        return DetResult(
            log_abs=-math.inf, sign_or_phase=0.0, singular=True, condition_estimate=math.inf
        )
    diag = diag[0]
    swaps = int(np.sum(piv != np.arange(r)))
    phase = complex(np.prod(diag / np.abs(diag))) * (-1.0) ** swaps
    if M.dtype.kind != "c":
        phase = float(np.real(phase))
    return DetResult(log_abs=float(log_abs), sign_or_phase=phase, singular=False,
                     condition_estimate=_condition(M, lu))


def _solve_normalized(A: np.ndarray, rhs: np.ndarray):
    """LAPACK solve of A x = rhs; returns (x, logdet, cond), the LU and its
    log|det| from _lu_stack and _log_abs, so logdet has log_abs_det's bits."""
    diag, info, lu, piv = _lu_stack(A[None])
    (logdet,), (singular,) = _log_abs(diag, info)
    if singular:
        raise DegenerateSystem("denominator window matrix is singular")
    getrs = lapack.zgetrs if lu.dtype.kind == "c" else lapack.dgetrs
    x, _ = getrs(lu, piv, rhs)
    return x, float(logdet), _condition(A, lu)


def _solve_normalized_extended(A: np.ndarray, rhs: np.ndarray):
    """mpmath route: LU solve at EXTENDED_DPS significant digits, exact 1-norm
    condition via the inverse (sizes here are small), rounded back to double."""
    import mpmath as mp

    nn = A.shape[0]
    kind = complex if A.dtype.kind == "c" else float
    to_mp = mp.mpc if kind is complex else mp.mpf
    with mp.workdps(EXTENDED_DPS):
        Am = mp.matrix([[to_mp(kind(v)) for v in row] for row in A])
        bm = mp.matrix([to_mp(kind(v)) for v in rhs])
        try:
            x = mp.lu_solve(Am, bm)
            Ainv = Am ** -1
        except ZeroDivisionError as exc:
            raise DegenerateSystem("denominator window matrix is singular") from exc
        det = mp.det(Am)  # nonzero: the same LU just succeeded in lu_solve
        norm1 = max(sum(abs(Am[i, j]) for i in range(nn)) for j in range(nn))
        inv1 = max(sum(abs(Ainv[i, j]) for i in range(nn)) for j in range(nn))
        cond = float(norm1 * inv1)
        logdet = float(mp.log(abs(det)))
        out = np.array([kind(v) for v in x], dtype=kind)
    return out, logdet, cond


def _denominator(triple: ToeplitzTriple, precision: str, cond_cap: Optional[float]):
    """pade's denominator solve: q (length n+1, q_0 = 1) solving T q = 0,
    with log|det A| and A's condition.  Raises DegenerateSystem when A is
    singular or its condition exceeds cond_cap, by default the precision's
    cap (1e12 double, 1e28 extended)."""
    if precision == "extended":
        solve, cap = _solve_normalized_extended, COND_CAP_EXTENDED
    elif precision == "double":
        solve, cap = _solve_normalized, COND_CAP_DOUBLE
    else:
        raise ValueError("precision must be 'double' or 'extended'")
    if triple.n == 0:
        return np.ones(1, dtype=triple.T.dtype), 0.0, 1.0
    where = f"coefficient window A_{triple.m}^({triple.n})"
    try:
        tail, logdet, cond = solve(triple.A, -triple.T[:, 0])
    except DegenerateSystem as exc:
        raise DegenerateSystem(f"{where} is singular") from exc
    cap = cap if cond_cap is None else cond_cap
    if cond > cap:
        raise DegenerateSystem(f"{where} has condition {cond:.3e}, above the cap {cap:.1e}")
    return np.concatenate([np.ones(1, dtype=tail.dtype), tail]), logdet, cond
