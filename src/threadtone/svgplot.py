"""Minimal deterministic SVG scatter plots: points, fit line, 95% CI band.

Hand-rolled on purpose: the output must be byte-identical across runs and
machines, so no plotting toolkit (whose output embeds ids, dates or
library-version quirks) is involved. The confidence band around the fitted
line of a simple regression is the pointwise +-z * se(yhat(x)) with
se(yhat(x))^2 = [1, x] V [1, x]' for the 2x2 coefficient covariance V.
The scatter data are arrays (a fit's regressor column, response and V), and
the band and every coordinate are computed on them elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN_LEFT, MARGIN_RIGHT = 64, 16
MARGIN_TOP, MARGIN_BOTTOM = 36, 56
BAND_POINTS = 64  # the band is drawn at BAND_POINTS + 1 even steps of x
TICK_TARGET = 5


def band_half_width(x, vcov: Sequence[Sequence[float]], z: float):
    """z * sqrt([1, x] V [1, x]') for a 2-coefficient model, elementwise
    over an array x; a negative quadratic form reads as 0."""
    quad = vcov[0][0] + 2.0 * x * vcov[0][1] + x * x * vcov[1][1]
    return z * np.sqrt(np.maximum(quad, 0.0))


def nice_ticks(lo: float, hi: float) -> list[float]:
    """About TICK_TARGET ticks on a 1/2/5 ladder covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / TICK_TARGET
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        if value >= lo - step * 1e-9:  # ceil(lo / step) * step may round below lo
            ticks.append(round(value, 10))
        if value + step == value:  # below half an ulp: it would loop forever
            break
        value += step
    return ticks or [lo]  # a range a few ulps wide can keep none


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _circles(cx: np.ndarray, cy: np.ndarray) -> list[str]:
    """One ``<circle>`` per point. Each distinct coordinate is formatted
    once: the y values are means of a few integers and x is often discrete,
    so they repeat. (``np.unique`` would merge -0.0 with 0.0, but every
    coordinate lies inside the plot, away from 0.)"""
    (ux, ix), (uy, iy) = (np.unique(c, return_inverse=True) for c in (cx, cy))
    xs, ys = ([_fmt(v) for v in u.tolist()] for u in (ux, uy))
    return [f'<circle cx="{xs[i]}" cy="{ys[j]}" r="2.5" '
            f'fill="#33547a" fill-opacity="0.55" stroke="none"/>'
            for i, j in zip(ix.tolist(), iy.tolist())]


def _fmt_tick(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:g}"


@dataclass(frozen=True, eq=False)
class ScatterData:
    x: np.ndarray
    y: np.ndarray
    intercept: float
    slope: float
    vcov: np.ndarray  # 2 x 2
    x_label: str
    y_label: str
    title: str


def scatter_svg(data: ScatterData, z: float) -> str:
    """A self-contained SVG document for one simple-regression scatter, its
    band drawn at +-z standard errors of the fitted line."""
    x, y = np.asarray(data.x, float), np.asarray(data.y, float)
    if not len(x):
        raise ValueError("no points to plot")
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    x_pad = 0.04 * (x_hi - x_lo)
    # the band at BAND_POINTS + 1 even steps of x across the data's x-range
    # (row 0), which the y-range holds, and across the padded x-range
    # (row 1), where it is drawn
    lo = np.array([[x_lo], [x_lo - x_pad]])
    hi = np.array([[x_hi], [x_hi + x_pad]])
    gx = lo + (hi - lo) * np.arange(BAND_POINTS + 1) / BAND_POINTS
    gy = data.intercept + data.slope * gx
    half = band_half_width(gx, data.vcov, z)
    lower, upper = gy - half, gy + half
    y_lo = float(min(y.min(), lower[0].min()))
    y_hi = float(max(y.max(), upper[0].max()))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_pad = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x):  # a float or an array
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(f'<text x="{WIDTH / 2:.1f}" y="20" font-family="sans-serif" '
               f'font-size="14" text-anchor="middle">{data.title}</text>')

    # confidence band across the padded x-range: upper edge, then lower back
    px = sx(gx[1]).tolist()
    outline = zip(px + px[::-1],
                  sy(upper[1]).tolist() + sy(lower[1])[::-1].tolist())
    path = " ".join(f"{_fmt(bx)},{_fmt(by)}" for bx, by in outline)
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
    out += _circles(sx(x), sy(y))

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
