"""Seeded coefficient-vector samplers for the random-series experiments.

Five kinds cover the coefficient laws the experiments exercise:
independent isotropic coordinates with a linear concentration bound
(gaussian, uniform_continuous, laplace), a discrete uniform family whose
concentration does not shrink with the window (discrete_pm_M), and a
dependent isotropic log-concave family (uniform on a scaled l1 ball).

Streams are keyed by (seed, trial_index): every vector is a pure function of
those plus the spec and N, so trials can run on any number of threads in any
order and reproduce bit-exactly.  Trial t's stream is Philox keyed by
SeedSequence(entropy=(seed, t)).generate_state(2, np.uint64), counter 0.
sample_block derives the keys of a whole block of trials in one vectorised
pass of SeedSequence's hash and draws every row through one reused
Generator reset to the row's key; the streams, and so every coefficient,
are those of one SeedSequence, Philox and Generator per trial.  The reset
state is built once per block from plain Python ints, and each row is drawn
straight into its slot of the output block.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateInput

GAUSSIAN = "gaussian"
UNIFORM = "uniform_continuous"
LAPLACE = "laplace"
DISCRETE = "discrete_pm_M"
LOGCONCAVE = "logconcave_l1ball"

KINDS = (GAUSSIAN, UNIFORM, LAPLACE, DISCRETE, LOGCONCAVE)

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class DistributionSpec:
    """One coefficient distribution: its kind, atom parameter M (discrete
    kind only), isotropy flag, Lévy-concentration slope K with
    sup_t P(|a - t| < eps) <= K*eps (inf when no such slope exists), and an
    upper bound gamma for E|a|."""

    kind: str
    M: Optional[int]
    isotropic: bool
    levy_bound_K: float
    mean_abs_bound_gamma: float

    def to_dict(self) -> Dict:
        d = {"kind": self.kind}
        if self.M is not None:
            d["M"] = self.M
        return d

    @staticmethod
    def from_dict(d: Dict) -> "DistributionSpec":
        return distribution(d.get("kind"), M=d.get("M"))


def distribution(kind: str, M: Optional[int] = None) -> DistributionSpec:
    """Build the spec for one of the five supported kinds.  M, where given,
    must be a whole number in the float range; only the discrete kind reads it."""
    if M is not None:
        if (isinstance(M, bool) or not isinstance(M, numbers.Real)
                or not abs(M) <= sys.float_info.max or not float(M).is_integer()):
            raise DegenerateInput(f"the atom parameter M takes a whole number, got {M!r}")
        M = int(M)
    if kind == GAUSSIAN:
        return DistributionSpec(kind, None, True, 2.0 / math.sqrt(2.0 * math.pi),
                                math.sqrt(2.0 / math.pi))
    if kind == UNIFORM:
        return DistributionSpec(kind, None, True, 1.0 / _SQRT3, _SQRT3 / 2.0)
    if kind == LAPLACE:
        # density peak 1/sqrt(2) at unit variance, so the window mass
        # P(|a - t| < eps) is at most 2 * (1/sqrt(2)) * eps
        return DistributionSpec(kind, None, True, math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    if kind == DISCRETE:
        if M is None or M < 1:
            raise DegenerateInput("discrete_pm_M needs an atom parameter M >= 1")
        gamma = M * (M + 1) / (2 * M + 1)
        return DistributionSpec(kind, int(M), False, math.inf, gamma)
    if kind == LOGCONCAVE:
        # coordinate marginal peaks below 1/sqrt(2) for every dimension, and
        # E|a| <= sqrt(3)/2 with the worst case at dimension 1
        return DistributionSpec(kind, None, True, math.sqrt(2.0), _SQRT3 / 2.0)
    raise DegenerateInput(f"unknown distribution kind {kind!r}")


@dataclass(frozen=True)
class CoefficientSample:
    coeffs: np.ndarray
    seed: int
    trial_index: int
    spec: DistributionSpec


# SeedSequence's hash (numpy.random.SeedSequence, pool size 4).  The keys
# _trial_keys derives must stay bitwise equal to
# SeedSequence(entropy=(seed, t)).generate_state(2, np.uint64): they are
# the Philox keys of every stream the experiments have drawn.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _uint32_words(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """SeedSequence's split of non-negative integers into little-endian
    32-bit words: a (W, B) uint32 array, zero past each value's own words,
    and each value's word count (one word for 0)."""
    words, counts = [], np.ones(len(values), dtype=np.intp)
    while True:
        words.append((values & _MASK32).astype(np.uint32))
        values = values >> 32
        more = values != 0
        if not more.any():
            return np.array(words), counts
        counts += more


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The running hash constant before each of `calls` hash calls and
    after the last, as a (calls + 1, 1) uint32 column: it depends only on
    the number of calls made before it."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    v = (values ^ before) * after
    return v ^ (v >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> np.uint32(16))


# mix_entropy's first 16 hash calls: one per pool word, then in round src
# (0..3) pool word src hashed once for each other word, in word order.
_A = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)


def _cross_constants(src: int) -> Tuple[np.ndarray, np.ndarray]:
    """Round src's hash constants by destination word (a (4, 1) column
    each).  Word src itself takes a neighbour's; its result is discarded."""
    words = np.arange(_POOL)
    calls = _POOL + (_POOL - 1) * src + words - (words >= src)
    return _A[calls], _A[calls + 1]


_CROSS = [_cross_constants(src) for src in range(_POOL)]
_B = _hash_constants(_INIT_B, _MULT_B, _POOL)


def _trial_keys(seed: int, trials: Sequence[int]) -> np.ndarray:
    """The (B, 2) uint64 Philox keys of the trials, row b equal to
    SeedSequence(entropy=(seed, trials[b])).generate_state(2, np.uint64),
    for all rows in one vectorised pass over the pool words."""
    seed = int(seed)
    trials = np.asarray(trials)
    if trials.ndim != 1 or trials.dtype.kind not in "iuO":
        raise TypeError("trial indices must be a 1-D sequence of integers")
    if seed < 0 or (trials < 0).any():
        raise ValueError("seed and trial indices must be non-negative integers")
    seed_words = _uint32_words(np.array([seed], dtype=object))[0]
    trial_words, trial_counts = _uint32_words(trials)
    # entropy word i of every trial in row i: the seed's words, then the
    # trial's, zero-padded to the pool size (SeedSequence hashes 0 there)
    used = len(seed_words) + len(trial_words)
    entropy = np.zeros((max(_POOL, used), len(trials)), dtype=np.uint32)
    entropy[:len(seed_words)] = seed_words
    entropy[len(seed_words):used] = trial_words
    pool = _hashmix(entropy[:_POOL], _A[:_POOL], _A[1:_POOL + 1])
    for src, (before, after) in enumerate(_CROSS):
        mixed = _mix(pool, _hashmix(pool[src], before, after))
        mixed[src] = pool[src]
        pool = mixed
    # entropy words past the pool, each hashed into every pool word on the
    # rows whose entropy reaches that far
    extra = _hash_constants(int(_A[-1, 0]), _MULT_A, _POOL * (len(entropy) - _POOL))
    lengths = len(seed_words) + trial_counts
    for src in range(_POOL, len(entropy)):
        k = _POOL * (src - _POOL)
        mixed = _mix(pool, _hashmix(entropy[src], extra[k:k + _POOL], extra[k + 1:k + _POOL + 1]))
        pool = np.where(src < lengths, mixed, pool)
    # generate_state(2, np.uint64): the four pool words hashed, paired low
    # word first
    state = _hashmix(pool, _B[:-1], _B[1:]).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def _l1ball_radius(dim: int) -> float:
    # unit coordinate variance: uniform on B_1^d has E x_i^2 = 2/((d+1)(d+2))
    return math.sqrt((dim + 1) * (dim + 2) / 2.0)


def _draw(rng: np.random.Generator, spec: DistributionSpec, dim: int,
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """dim coefficients of the spec's law from rng, written into out (a
    C-contiguous float64 row of length dim) or into a fresh row; returns
    the row."""
    if out is None:
        out = np.empty(dim)
    if spec.kind == GAUSSIAN:
        rng.standard_normal(out=out)
    elif spec.kind == UNIFORM:
        out[:] = rng.uniform(-_SQRT3, _SQRT3, dim)
    elif spec.kind == LAPLACE:
        out[:] = rng.laplace(0.0, 1.0 / math.sqrt(2.0), dim)
    elif spec.kind == DISCRETE:
        out[:] = rng.integers(-spec.M, spec.M + 1, dim)
    elif spec.kind == LOGCONCAVE:
        # exponential-spacing construction: (g_1..g_d)/(g_1+..+g_{d+1}) with
        # random signs is uniform on the solid l1 ball
        g = rng.standard_exponential(dim + 1)
        signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
        out[:] = _l1ball_radius(dim) * signs * g[:dim] / np.sum(g)
    else:
        raise DegenerateInput(f"unknown distribution kind {spec.kind!r}")
    return out


def sample_block(spec: DistributionSpec, N: int, seed: int, trials: Sequence[int],
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Draw the coefficient vectors (a_0..a_N) of several trials into the
    rows of a (len(trials), N + 1) array (out, when given).

    Row b is the stream of Philox keyed by (seed, trials[b]).  The keys of
    all rows come from one _trial_keys pass; the rows are drawn through one
    Generator whose Philox is reset to each row's key before its draw.  The
    reset state is held as plain Python ints, which the Philox state setter
    takes without a per-element numpy-scalar conversion.  Each row is drawn
    in place when out's rows are C-contiguous float64; any other out is
    filled from a fresh block in one copy.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    keys = _trial_keys(seed, trials)
    dim = N + 1
    if out is None:
        out = np.empty((len(keys), dim))
    elif out.shape != (len(keys), dim):
        raise ValueError(f"out has shape {out.shape}, expected {(len(keys), dim)}")
    in_place = (out.dtype == np.float64 and out.flags.aligned and out.flags.writeable
                and (dim == 1 or out.strides[1] == out.itemsize))
    rows = out if in_place else np.empty(out.shape)
    bitgen = np.random.Philox()
    rng = np.random.Generator(bitgen)
    # a fresh Philox's state: counter 0, empty buffer, no buffered 32-bit
    # half; only the key differs from row to row
    state = bitgen.state
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    for row, key in zip(rows, keys.tolist()):
        state["state"]["key"] = key
        bitgen.state = state
        _draw(rng, spec, dim, row)
    if not in_place:
        out[...] = rows
    return out


def sample(spec: DistributionSpec, N: int, seed: int, trial_index: int) -> CoefficientSample:
    """Draw the coefficient vector (a_0..a_N) for one trial."""
    coeffs = sample_block(spec, N, seed, [int(trial_index)])[0]
    return CoefficientSample(coeffs=coeffs, seed=int(seed), trial_index=int(trial_index), spec=spec)
