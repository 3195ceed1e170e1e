"""``svgplot.scatter_svg`` on arrays against the tuple-based oracle.

The bundled corpus's golden bundle covers 12 figures; these draw random
scatters instead, including the degenerate ranges (all-equal x, all-equal
y, values a few ulps apart), a zero and a not positive definite
covariance, and coordinates from 1e-6 to 1e6, and require the exact same
SVG string.
"""

from __future__ import annotations

import math
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import svg_oracle
from threadtone.svgplot import WIDTH, ScatterData, band_half_width, scatter_svg

magnitudes = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def coordinates(draw, n: int) -> list[float]:
    """n values: distinct draws, a few values repeated, values at most a
    few ulps apart, or one value."""
    def signed():
        return draw(magnitudes) * draw(st.sampled_from((-1.0, 1.0)))

    kind = draw(st.sampled_from(("free", "repeated", "ulps", "equal")))
    if kind == "equal":
        return [signed()] * n
    pool = [signed() for _ in range(draw(st.integers(1, 4)))]
    if kind == "ulps":
        pool = [pool[0]]
        for _ in range(draw(st.integers(1, 3))):
            pool.append(math.nextafter(pool[-1], math.inf))
    if kind != "free":
        return [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    return [signed() for _ in range(n)]


@st.composite
def scatters(draw) -> tuple[ScatterData, float]:
    n = draw(st.integers(1, 300))
    x, y = draw(coordinates(n)), draw(coordinates(n))
    coefficient = st.one_of(st.just(0.0), magnitudes,
                            magnitudes.map(lambda v: -v))
    intercept, slope = draw(coefficient), draw(coefficient)
    kind = draw(st.sampled_from(("zero", "flat", "any")))
    if kind == "any":  # any symmetric matrix: the form may be negative
        v00, v01, v11 = (draw(coefficient) for _ in range(3))
        vcov = ((v00, v01), (v01, v11))
    else:
        vcov = ((0.0, 0.0), (0.0, 0.0))
        if kind == "flat":  # the band is the data's one y value
            y, intercept, slope = [y[0]] * n, y[0], 0.0
    z = draw(st.one_of(st.just(1.96), st.floats(1.96, 12.71)))
    data = ScatterData(x=np.array(x), y=np.array(y), intercept=intercept,
                       slope=slope, vcov=np.array(vcov), x_label="x",
                       y_label="y", title="t")
    return data, z


@settings(max_examples=300, deadline=None)
@given(scatters())
def test_scatter_svg_matches_the_tuple_oracle(scatter):
    data, z = scatter
    oracle = svg_oracle.ScatterData(
        x=tuple(data.x.tolist()), y=tuple(data.y.tolist()),
        intercept=data.intercept, slope=data.slope,
        vcov=tuple(map(tuple, data.vcov.tolist())),
        x_label=data.x_label, y_label=data.y_label, title=data.title)
    assert scatter_svg(data, z) == svg_oracle.scatter_svg(oracle, z)


def test_a_range_a_few_ulps_wide_is_drawn():
    # nice_ticks used to loop forever once a tick step fell below half an
    # ulp of the tick value, then returned a first tick below the range,
    # drawn at x = -496, and then no tick at all
    close = np.array([1e6, math.nextafter(1e6, math.inf)])
    data = ScatterData(x=close, y=close, intercept=1e6, slope=0.0,
                       vcov=np.zeros((2, 2)), x_label="x", y_label="y",
                       title="t")
    svg = scatter_svg(data, 1.96)
    assert svg.count("<circle") == 2
    xs = re.findall(r'<(?:line x1="([^"]*)" y1="[^"]*" x2="([^"]*)"'
                    r'|text x="([^"]*)")', svg)
    xs = [float(x) for match in xs for x in match if x]
    assert xs and all(0 <= x <= WIDTH for x in xs)
    assert re.search(r'<text x="[^"]*" y="[^"]*" font-family="sans-serif" '
                     r'font-size="11" text-anchor="middle">', svg)  # x tick


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       st.tuples(*[st.floats(-1e6, 1e6)] * 3), st.floats(1.96, 12.71))
def test_band_half_width_on_arrays_matches_each_scalar(xs, v, z):
    vcov = ((v[0], v[1]), (v[1], v[2]))
    widths = band_half_width(np.array(xs), np.array(vcov), z)
    assert widths.tolist() == [svg_oracle.band_half_width(x, vcov, z)
                               for x in xs]
