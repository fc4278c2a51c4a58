"""Toeplitz windows of a coefficient sequence and the dense linear algebra
used on them: pivoted-LU log-determinants, condition estimates and the
normalized denominator solve.

Window protocols work on stacks: WindowStack holds the coefficients of a
block of trials and hands out the (B, k, k) windows of every row as one
strided view, and log_abs_dets factors such a stack.  log_abs_det is its
B = 1 call, so a determinant comes out the same bits alone or in a stack.

Index conventions (a_l = 0 for l < 0 throughout):

* ``C`` is (m+1) x (n+1) with C[i][j] = a_{i-j}         (numerator product)
* ``T`` is  n    x (n+1) with T[i][j] = a_{m+1+i-j}     (order conditions)
* ``A`` is  n    x  n    with A[i][j] = a_{m+i-j}, i.e. columns 2..n+1 of T

The denominator solve fixes q_0 = 1 and solves
A (q_1..q_n)^T = -(a_{m+1}, ..., a_{m+n})^T, which is exactly T q = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import lapack

from .errors import DegenerateSystem, InsufficientCoefficients

COND_CAP_DOUBLE = 1e12
COND_CAP_EXTENDED = 1e28


@dataclass(frozen=True)
class ToeplitzTriple:
    m: int
    n: int
    C: np.ndarray
    T: np.ndarray
    A: np.ndarray


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


def _as_coeff_array(coeffs) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(coeffs))
    if arr.dtype.kind not in "fc":
        arr = arr.astype(float)
    return arr


def _window(arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """arr[idx] with negative indices reading as zero."""
    out = np.zeros(idx.shape, dtype=arr.dtype)
    mask = idx >= 0
    out[mask] = arr[idx[mask]]
    return out


def assoc_matrix(coeffs, m: int, k: int) -> np.ndarray:
    """The k x k window matrix with entries a_{m+i-j}; needs len >= m+k."""
    arr = _as_coeff_array(coeffs)
    if k == 0:
        return np.zeros((0, 0), dtype=arr.dtype)
    if len(arr) < m + k:
        raise InsufficientCoefficients(
            f"need at least {m + k} coefficients for the {k}x{k} window at m={m}, got {len(arr)}"
        )
    i = np.arange(k)[:, None]
    j = np.arange(k)[None, :]
    return _window(arr, m + i - j)


def build_triple(coeffs, m: int, n: int) -> ToeplitzTriple:
    """Build the C, T, A windows for the [m, n] problem."""
    arr = _as_coeff_array(coeffs)
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    if len(arr) < m + n + 1:
        raise InsufficientCoefficients(
            f"need at least m+n+1 = {m + n + 1} coefficients, got {len(arr)}"
        )
    i_c = np.arange(m + 1)[:, None]
    j_c = np.arange(n + 1)[None, :]
    C = _window(arr, i_c - j_c)
    i_t = np.arange(n)[:, None]
    T = _window(arr, m + 1 + i_t - j_c)
    A = T[:, 1:].copy() if n > 0 else np.zeros((0, 0), dtype=arr.dtype)
    return ToeplitzTriple(m=m, n=n, C=C, T=T, A=A)


def _getrf(M: np.ndarray):
    if M.dtype.kind == "c":
        return lapack.zgetrf(M)
    return lapack.dgetrf(M)


def _gecon(lu: np.ndarray, anorm: float):
    if lu.dtype.kind == "c":
        rcond, _ = lapack.zgecon(lu, anorm, norm="1")
    else:
        rcond, _ = lapack.dgecon(lu, anorm, norm="1")
    return rcond


def _getrs(lu: np.ndarray, piv: np.ndarray, b: np.ndarray):
    if lu.dtype.kind == "c":
        x, _ = lapack.zgetrs(lu, piv, b)
    else:
        x, _ = lapack.dgetrs(lu, piv, b)
    return x


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
    log_abs_det gives for that matrix alone.
    """
    W = np.asarray(W)
    if W.dtype.kind not in "fc":
        W = W.astype(float)
    if W.ndim != 3 or W.shape[1] != W.shape[2]:
        raise ValueError("log_abs_dets needs a (B, k, k) stack")
    if W.shape[1] == 0:
        return np.zeros(len(W)), np.zeros(len(W), dtype=bool)
    diag, info, _, _ = _lu_stack(W)
    return _log_abs(diag, info)


def log_abs_det(M) -> DetResult:
    """Partial-pivot LU determinant in log form, with a 1-norm condition
    estimate from the same factorization.  det of the 0x0 matrix is 1."""
    M = np.atleast_2d(np.asarray(M))
    if M.dtype.kind not in "fc":
        M = M.astype(float)
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
    rcond = _gecon(lu, float(np.abs(M).sum(axis=0).max()))
    cond = float(1.0 / rcond) if rcond > 0 else math.inf
    return DetResult(log_abs=float(log_abs), sign_or_phase=phase, singular=False,
                     condition_estimate=cond)


def _solve_normalized(A: np.ndarray, rhs: np.ndarray):
    """LAPACK solve of A x = rhs; returns (x, logdet, cond)."""
    anorm = float(np.abs(A).sum(axis=0).max())
    lu, piv, info = _getrf(A)
    diag = np.diagonal(lu)
    if info > 0 or np.any(diag == 0):
        raise DegenerateSystem("denominator window matrix is singular")
    rcond = _gecon(lu, anorm)
    cond = float(1.0 / rcond) if rcond > 0 else math.inf
    x = _getrs(lu, piv, rhs)
    logdet = float(np.sum(np.log(np.abs(diag))))
    return x, logdet, cond


def _solve_normalized_extended(A: np.ndarray, rhs: np.ndarray, dps: int = 30):
    """mpmath route: LU solve at >= 30 significant digits, exact 1-norm
    condition via the inverse (sizes here are small), rounded back to double."""
    import mpmath as mp

    nn = A.shape[0]
    complex_field = A.dtype.kind == "c"
    with mp.workdps(dps):
        Am = mp.matrix([[mp.mpc(complex(v)) if complex_field else mp.mpf(float(v)) for v in row] for row in A])
        bm = mp.matrix([mp.mpc(complex(v)) if complex_field else mp.mpf(float(v)) for v in rhs])
        try:
            x = mp.lu_solve(Am, bm)
            Ainv = Am ** -1
        except ZeroDivisionError as exc:
            raise DegenerateSystem("denominator window matrix is singular") from exc
        det = mp.det(Am)
        if det == 0:
            raise DegenerateSystem("denominator window matrix is singular")
        norm1 = max(sum(abs(Am[i, j]) for i in range(nn)) for j in range(nn))
        inv1 = max(sum(abs(Ainv[i, j]) for i in range(nn)) for j in range(nn))
        cond = float(norm1 * inv1)
        logdet = float(mp.log(abs(det)))
        if complex_field:
            out = np.array([complex(v) for v in x], dtype=complex)
        else:
            out = np.array([float(v) for v in x], dtype=float)
    return out, logdet, cond


def _solve_window(A: np.ndarray, rhs: np.ndarray, precision: str,
                  cond_cap: Optional[float] = None):
    """Solve the (n >= 1) normalized window system A x = rhs at the given
    precision; returns (x, logdet, cond).  Raises DegenerateSystem when A is
    singular or its condition exceeds cond_cap, by default the precision's
    cap (1e12 double, 1e28 extended)."""
    if precision == "extended":
        x, logdet, cond = _solve_normalized_extended(A, rhs)
        cap = COND_CAP_EXTENDED if cond_cap is None else cond_cap
    elif precision == "double":
        x, logdet, cond = _solve_normalized(A, rhs)
        cap = COND_CAP_DOUBLE if cond_cap is None else cond_cap
    else:
        raise ValueError("precision must be 'double' or 'extended'")
    if cond > cap:
        raise DegenerateSystem(
            f"denominator window matrix condition {cond:.3e} exceeds cap {cap:.1e}")
    return x, logdet, cond


def solve_denominator(
    triple: ToeplitzTriple,
    cond_cap: Optional[float] = None,
    precision: str = "double",
) -> np.ndarray:
    """Denominator coefficients q (length n+1, q_0 = 1) solving T q = 0.

    Raises DegenerateSystem when A is singular or its condition estimate
    exceeds the cap (1e12 double, 1e28 extended).
    """
    n = triple.n
    dtype = triple.A.dtype if n > 0 else triple.T.dtype
    q = np.zeros(n + 1, dtype=dtype)
    q[0] = 1.0
    if n == 0:
        return q
    q[1:] = _solve_window(triple.A, -triple.T[:, 0], precision, cond_cap)[0]
    return q
