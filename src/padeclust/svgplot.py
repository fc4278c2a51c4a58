"""Minimal static SVG emission: root scatters and line charts.

No plotting dependency; the two figures this package needs (complex-plane
scatter with reference circles, small multi-series line charts) are a few
dozen SVG elements, written with fixed decimal formatting so output is
locale-independent and byte-stable.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateInput

_SIZE, _WIDTH, _HEIGHT = 520, 640, 420  # px: the scatter's square, a line chart's canvas
_PALETTE = ("#1f6fb2", "#c2452d", "#3d8c40", "#7b4fa6", "#b0822a", "#3a949c")


def _f(v: float) -> str:
    return f"{float(v):.4f}".rstrip("0").rstrip(".")


def _ticks(lo: float, hi: float, count: int = 5) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return np.asarray([lo])
    return np.linspace(lo, hi, count)


def render_scatter(points: Sequence[complex], rings: Sequence[float] = (1.0,),
                   title: str = "") -> str:
    """Complex-plane scatter with dashed reference circles at the given radii."""
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        raise DegenerateInput("nothing to plot: no points")
    reach = max(float(np.max(np.abs(pts))), max(rings, default=0.0)) * 1.1
    reach = max(reach, 1e-9)
    half = _SIZE / 2.0
    scale = (half - 20.0) / reach

    def sx(re: float) -> str:
        return _f(half + re * scale)

    def sy(im: float) -> str:
        return _f(half - im * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<line x1="0" y1="{_f(half)}" x2="{_SIZE}" y2="{_f(half)}" stroke="#ccc"/>',
        f'<line x1="{_f(half)}" y1="0" x2="{_f(half)}" y2="{_SIZE}" stroke="#ccc"/>',
    ]
    for r in rings:
        parts.append(
            f'<circle class="ring" cx="{_f(half)}" cy="{_f(half)}" r="{_f(r * scale)}" '
            f'fill="none" stroke="#888" stroke-dasharray="6 4"/>'
        )
    for z in pts:
        parts.append(
            f'<circle class="pt" cx="{sx(z.real)}" cy="{sy(z.imag)}" r="2.5" '
            f'fill="{_PALETTE[0]}" fill-opacity="0.75"/>'
        )
    if title:
        parts.append(f'<text x="10" y="18" font-size="13" font-family="sans-serif">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


Series = Tuple[str, Sequence[float], Sequence[float]]


def render_lines(series: Sequence[Series], title: str = "", xlabel: str = "",
                 ylabel: str = "", logx: bool = False) -> str:
    """Line chart for a handful of (label, xs, ys) triples with shared axes."""
    cleaned = []
    for label, xs, ys in series:
        xa = np.asarray(xs, dtype=float)
        ya = np.asarray(ys, dtype=float)
        keep = np.isfinite(xa) & np.isfinite(ya)
        if logx:
            keep &= xa > 0
        if np.any(keep):
            xa = xa[keep]
            ya = ya[keep]
            cleaned.append((label, np.log10(xa) if logx else xa, ya))
    if not cleaned:
        raise DegenerateInput("nothing to plot: no finite series")
    all_x = np.concatenate([c[1] for c in cleaned])
    all_y = np.concatenate([c[2] for c in cleaned])
    x_lo, x_hi = float(np.min(all_x)), float(np.max(all_x))
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.06 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y
    left, right, top, bottom = 64, 16, 30, 46

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - left - right)

    def py(y: float) -> float:
        return _HEIGHT - bottom - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{left}" y1="{_HEIGHT - bottom}" x2="{_WIDTH - right}" '
        f'y2="{_HEIGHT - bottom}" stroke="#444"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{_HEIGHT - bottom}" stroke="#444"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        label = 10.0 ** t if logx else t
        parts.append(
            f'<text x="{_f(px(t))}" y="{_HEIGHT - bottom + 16}" font-size="10" '
            f'font-family="sans-serif" text-anchor="middle">{label:.4g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{left - 6}" y="{_f(py(t) + 3)}" font-size="10" '
            f'font-family="sans-serif" text-anchor="end">{t:.4g}</text>'
        )
    for i, (label, xa, ya) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{_f(px(x))},{_f(py(y))}" for x, y in zip(xa, ya))
        parts.append(
            f'<polyline class="series" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        for x, y in zip(xa, ya):
            parts.append(
                f'<circle cx="{_f(px(x))}" cy="{_f(py(y))}" r="2.2" fill="{color}"/>'
            )
        if label:
            parts.append(
                f'<text x="{_WIDTH - right - 4}" y="{top + 14 + 14 * i}" font-size="11" '
                f'font-family="sans-serif" text-anchor="end" fill="{color}">{label}</text>'
            )
    if title:
        parts.append(
            f'<text x="{left}" y="18" font-size="13" font-family="sans-serif">{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_f((left + _WIDTH - right) / 2)}" y="{_HEIGHT - 10}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{_f((top + _HEIGHT - bottom) / 2)}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle" '
            f'transform="rotate(-90 14 {_f((top + _HEIGHT - bottom) / 2)})">{ylabel}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
