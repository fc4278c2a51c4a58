"""Empirical root measures and the clustering metrics: annulus and sector
masses, the radial / sector-discrepancy / bounded-Lipschitz bounds, and the
zero-radius statistics used by the random-series experiments.

clustering_report evaluates every bound in the form that holds for each
polynomial with nonzero end coefficients, so a false flag is a bug; the
experiment runner enforces exactly its flags.

Conventions: Arg is mapped to [0, 2*pi); sectors are half-open (theta, phi]
with the lower boundary ray excluded; annuli are open.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateInput, IndexOutOfRange
from .pade import EtRatio
from .poly import RootSet, _check_count

DEFAULT_GRID = 256
DEFAULT_FAMILY = 16
DEFAULT_RHOS = (0.05, 0.1, 0.2)

_TENT_CENTERS = (0.0, 0.5, 1.0, 1.5, 2.0)
_TENT_WIDTH = 0.5


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform probability measure on a finite multiset of complex roots."""

    roots: np.ndarray
    N: int
    _moduli: np.ndarray
    _args: np.ndarray

    def __init__(self, roots):
        if isinstance(roots, RootSet):
            arr = np.asarray(roots.roots, dtype=complex)
        else:
            arr = np.atleast_1d(np.asarray(roots, dtype=complex))
        if arr.size == 0:
            raise DegenerateInput("empty root multiset has no empirical measure")
        moduli = np.sort(np.abs(arr))
        if not math.isfinite(moduli[-1]):  # NaN and inf sort last
            raise DegenerateInput("a non-finite root has no empirical measure")
        object.__setattr__(self, "roots", arr)
        object.__setattr__(self, "N", int(arr.size))
        object.__setattr__(self, "_moduli", moduli)
        object.__setattr__(self, "_args", np.sort(np.mod(np.angle(arr), 2.0 * np.pi)))


class RadialCheck(NamedTuple):
    defect: float
    bound: float
    holds: bool


def annulus_mass(mu: EmpiricalMeasure, r: float, rho: float) -> float:
    """Fraction of roots in the open annulus (1-rho)r < |z| < (1+rho)r."""
    if not (0 < r < math.inf and 0 < rho < math.inf):
        raise ValueError("r and rho must be positive and finite")
    lo, hi = (1.0 - rho) * r, (1.0 + rho) * r
    count = np.searchsorted(mu._moduli, hi, side="left") - np.searchsorted(
        mu._moduli, lo, side="right"
    )
    return float(count) / mu.N


def radial_two_sided_check(mu: EmpiricalMeasure, et: EtRatio, rho: float) -> RadialCheck:
    """Mass defect outside the unit annulus of relative width rho against the
    ceiling 2 log(L) / (N log(1+rho)).

    Jensen's formula, applied from both ends of the coefficient vector,
    charges the inside and outside zero counts to log L together, so this
    ceiling holds for every polynomial with nonzero end coefficients.  The
    sharper log(L) / (rho N) is no theorem: z^N - c with small c > 0 puts
    every root at modulus c^(1/N) while log L ~ -log(c)/2, half of what the
    one-sided zero count needs.
    """
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must lie in (0, 1]")
    defect = 1.0 - annulus_mass(mu, 1.0, rho)
    bound = 2.0 * et.log_value / (mu.N * math.log1p(rho))
    return RadialCheck(defect=defect, bound=bound, holds=bool(defect <= bound + 1e-12))


def sector_discrepancy(mu: EmpiricalMeasure, grid_size: int = DEFAULT_GRID) -> float:
    """Largest deviation |sector length / 2*pi - sector mass| over all sectors
    with endpoints on the uniform angular grid."""
    _check_count(grid_size, "grid_size", 4)
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    counts = np.searchsorted(mu._args, thetas, side="right")
    deltas = np.arange(grid_size) / grid_size - counts / mu.N
    return float(np.max(deltas) - np.min(deltas))


def bl_upper(et: EtRatio, N: int) -> float:
    """Theoretical ceiling 32 (log L / N)^(1/4) for the bounded-Lipschitz
    distance to the uniform circle measure."""
    _check_count(N, "N", 1)
    return 32.0 * (et.log_value / N) ** 0.25


def _tent(x: np.ndarray, center: float) -> np.ndarray:
    return np.maximum(0.0, 1.0 - np.abs(x - center) / _TENT_WIDTH)


def _radial_clamp(rho: np.ndarray) -> np.ndarray:
    # rises 0 -> 1 on [0, 1], falls back to 0 on [1, 2]; slope magnitude <= 1
    return np.maximum(0.0, np.minimum(rho, 2.0 - rho))


def bl_lower_estimate(mu: EmpiricalMeasure, family_size: int = DEFAULT_FAMILY) -> float:
    """Best deviation |integral f d(mu) - integral f d(uniform circle)| over a
    fixed family of test functions normalized to Lipschitz + sup norm <= 1.

    The family holds angular harmonics cos/sin(k Arg z) damped by a radial
    clamp (their circle averages vanish) and radial tent functions on a fixed
    modulus grid (circle averages in closed form).  Any member certifies a
    lower bound for the bounded-Lipschitz distance.
    """
    _check_count(family_size, "family_size", 8)
    moduli = np.abs(mu.roots)
    clamp = _radial_clamp(moduli)
    # harmonics k = 1 .. family_size/2, a row each: Lipschitz constant
    # <= k + 1, sup <= 1
    k = np.arange(1, family_size // 2 + 1)
    phases = k[:, None] * np.angle(mu.roots)
    scale = 1.0 / (k + 2.0)
    harmonics = [np.mean(clamp * trig(phases), axis=1) * scale for trig in (np.cos, np.sin)]
    # tents, a row each: Lipschitz constant 2, sup 1
    centers = np.asarray(_TENT_CENTERS)
    scale = 1.0 / 3.0
    tents = (np.mean(_tent(moduli, centers[:, None]), axis=1) * scale
             - _tent(np.asarray(1.0), centers) * scale)
    return float(np.max(np.abs(np.concatenate(harmonics + [tents]))))


def radius_R_s(roots: RootSet, s: int) -> float:
    """Largest radius enclosing at most s roots: the modulus of the (s+1)-th
    smallest root."""
    moduli = roots.moduli
    if isinstance(s, bool) or not isinstance(s, numbers.Integral) or not 0 <= s < len(moduli):
        raise IndexOutOfRange(f"s must be an integer in [0, {len(moduli) - 1}], got {s!r}")
    return float(moduli[s])


def zero_counting_integral(roots: RootSet, r: float) -> float:
    """Integral of (roots inside radius t) / t from 0 to r, evaluated in
    closed form as the sum of log(r / |z_j|) over roots strictly inside."""
    if not 0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    moduli = np.asarray(roots.moduli, dtype=float)
    if np.any(moduli == 0.0):
        raise DegenerateInput("split off roots at the origin before integrating")
    inside = moduli[moduli < r]
    if inside.size == 0:
        return 0.0
    return float(np.sum(np.log(r / inside)))


@dataclass(frozen=True)
class ClusteringReport:
    """All clustering metrics of one root measure in one record."""

    et_log: float
    radial_defect: Dict[float, float]
    radial_bound: Dict[float, float]
    max_sector_discrepancy: float
    sector_bound: float
    bl_upper: float
    bl_lower_estimate: float
    inequality_flags: Dict[str, bool]


def clustering_report(
    mu: EmpiricalMeasure,
    et: EtRatio,
    rhos: Sequence[float] = DEFAULT_RHOS,
    grid_size: int = DEFAULT_GRID,
    family_size: int = DEFAULT_FAMILY,
) -> ClusteringReport:
    """Evaluate every deterministic clustering inequality for one measure:
    the radial defect per rho against radial_two_sided_check's ceiling, the
    sector discrepancy against 16 sqrt(log L / N) and the bounded-Lipschitz
    estimate against bl_upper."""
    defects: Dict[float, float] = {}
    bounds: Dict[float, float] = {}
    flags: Dict[str, bool] = {}
    for rho in rhos:
        chk = radial_two_sided_check(mu, et, rho)
        defects[rho] = chk.defect
        bounds[rho] = chk.bound
        flags[f"radial_{rho:g}"] = chk.holds
    disc = sector_discrepancy(mu, grid_size)
    sector_cap = 16.0 * math.sqrt(et.log_value / mu.N)
    flags["sector"] = bool(disc <= sector_cap + 1e-12)
    up = bl_upper(et, mu.N)
    low = bl_lower_estimate(mu, family_size)
    flags["bl"] = bool(low <= up + 1e-12)
    return ClusteringReport(
        et_log=et.log_value,
        radial_defect=defects,
        radial_bound=bounds,
        max_sector_discrepancy=disc,
        sector_bound=sector_cap,
        bl_upper=up,
        bl_lower_estimate=low,
        inequality_flags=flags,
    )
