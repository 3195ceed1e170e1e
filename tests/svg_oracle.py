"""Reference implementation of the scatter figure, on tuples.

This is the figure code as it was before ``threadtone.svgplot`` moved onto
arrays: ``ScatterData`` holds tuples of Python floats, ``_band`` computes
the confidence band one grid point at a time through the scalar
``band_half_width``, and the ranges are Python ``min``/``max`` over lists.
``nice_ticks`` still takes its tick target as a parameter. It is kept as the
oracle whose exact SVG string ``threadtone.svgplot.scatter_svg`` must
reproduce. The formatting helpers and the circle writer, which the array
rewrite left as they were, are imported.

Three lines were added to ``nice_ticks``. One stops the loop once a step no
longer moves the tick value. Without it, a range only a few ulps wide (two
x values 1 ulp apart near 1e6) looped forever. The line is reached only
where the loop would never have ended, so every output the old code
returned is unchanged. The other keeps only ticks at or above
``lo - step * 1e-9``, the lower twin of the loop's upper bound. On that same
range the first tick, ``ceil(lo / step) * step``, rounded below ``lo`` and
was drawn far left of the plot; a tick the old code drew inside the range
is kept. The third returns ``[lo]`` when the loop keeps no tick, so that
range still has one labelled tick; where the old code returned a tick, it
returns the same ticks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from threadtone.svgplot import (
    HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    WIDTH,
    _circles,
    _fmt,
    _fmt_tick,
)


def band_half_width(x: float, vcov: Sequence[Sequence[float]],
                    z: float) -> float:
    """z * sqrt([1, x] V [1, x]') for a 2-coefficient model."""
    v = vcov
    quad = v[0][0] + 2.0 * x * v[0][1] + x * x * v[1][1]
    return z * math.sqrt(max(quad, 0.0))


def nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Ticks on a 1/2/5 ladder covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        if value >= lo - step * 1e-9:  # an addition, see above
            ticks.append(round(value, 10))
        if value + step == value:  # an addition, see above
            break
        value += step
    return ticks or [lo]  # an addition, see above


@dataclass(frozen=True)
class ScatterData:
    x: tuple[float, ...]
    y: tuple[float, ...]
    intercept: float
    slope: float
    vcov: tuple[tuple[float, float], tuple[float, float]]
    x_label: str
    y_label: str
    title: str


def _band(data: ScatterData, z: float, x_lo: float, x_hi: float,
          band_points: int) -> list[tuple[float, float, float]]:
    """(x, lower, upper) of the band at band_points + 1 even steps of x."""
    band = []
    for t in range(band_points + 1):
        gx = x_lo + (x_hi - x_lo) * t / band_points
        gy = data.intercept + data.slope * gx
        half = band_half_width(gx, data.vcov, z)
        band.append((gx, gy - half, gy + half))
    return band


def scatter_svg(data: ScatterData, z: float, band_points: int = 64) -> str:
    """A self-contained SVG document for one simple-regression scatter, its
    band drawn at +-z standard errors of the fitted line."""
    if not data.x:
        raise ValueError("no points to plot")
    x_lo, x_hi = min(data.x), max(data.x)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    # the y-range holds the band over the data's x-range; the band drawn
    # below spans the padded x-range, a grid of other x values
    y_candidates = list(data.y)
    for _gx, lower, upper in _band(data, z, x_lo, x_hi, band_points):
        y_candidates += [lower, upper]
    y_lo, y_hi = min(y_candidates), max(y_candidates)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_pad = 0.04 * (x_hi - x_lo)
    y_pad = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(f'<text x="{WIDTH / 2:.1f}" y="20" font-family="sans-serif" '
               f'font-size="14" text-anchor="middle">{data.title}</text>')

    # confidence band, across the padded x-range
    band = _band(data, z, x_lo, x_hi, band_points)
    outline = ([(gx, upper) for gx, _lower, upper in band]
               + [(gx, lower) for gx, lower, _upper in band[::-1]])
    path = " ".join(f"{_fmt(sx(gx))},{_fmt(sy(gy))}" for gx, gy in outline)
    out.append(f'<polygon points="{path}" fill="#bfbfbf" fill-opacity="0.5" '
               f'stroke="none"/>')

    # axes
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" '
               f'stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" '
               f'stroke="black" stroke-width="1"/>')
    for tick in nice_ticks(x_lo, x_hi):
        px = sx(tick)
        out.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" '
                   f'y2="{y0 + 4}" stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(px)}" y="{y0 + 18}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="middle">{_fmt_tick(tick)}</text>')
    for tick in nice_ticks(y_lo, y_hi):
        py = sy(tick)
        out.append(f'<line x1="{x0 - 4}" y1="{_fmt(py)}" x2="{x0}" '
                   f'y2="{_fmt(py)}" stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="end">{_fmt_tick(tick)}</text>')

    # points
    out += _circles(sx(np.asarray(data.x)), sy(np.asarray(data.y)))

    # fitted line
    lx0, lx1 = x_lo, x_hi
    out.append(f'<line x1="{_fmt(sx(lx0))}" y1="{_fmt(sy(data.intercept + data.slope * lx0))}" '
               f'x2="{_fmt(sx(lx1))}" y2="{_fmt(sy(data.intercept + data.slope * lx1))}" '
               f'stroke="#cc0000" stroke-width="1.8"/>')

    out.append(f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 14}" '
               f'font-family="sans-serif" font-size="12" '
               f'text-anchor="middle">{data.x_label}</text>')
    out.append(f'<text x="16" y="{MARGIN_TOP + plot_h / 2:.1f}" '
               f'font-family="sans-serif" font-size="12" text-anchor="middle" '
               f'transform="rotate(-90 16 {MARGIN_TOP + plot_h / 2:.1f})">'
               f'{data.y_label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
