"""Beltrami-coordinate oracle for `ckgeom export-geodesics`, independent of ckgeom.

Each chart point is mapped to the ambient quadric
s0**2 + k1 s1**2 + k1 k2 s2**2 = 1 with the plain circular, parabolic or
hyperbolic cosine/sine that its label's sign selects (math.cos/sin,
1/x, math.cosh/sinh), then projected to the Beltrami plane s0 = 1.  Only
the normalized labels -1, 0, +1 are covered, which is what the workload
uses.  The chart layout (`coordinate_lines`) transcribes the documented
sampling of export-geodesics so each CSV row can be checked in place.
"""

from __future__ import annotations

import math

import numpy as np

CHARTS = ("parallel1", "parallel2", "polar")

# Points within this distance of a chart edge, or with |s0| below it, may be
# reported either way; further in they must have values, further out not.
EDGE = 1e-6


def cos_sin(kappa: float, x: float) -> tuple[float, float]:
    """(cosine, sine) of x at a normalized label kappa in {-1, 0, +1}."""
    if kappa == 1.0:
        return math.cos(x), math.sin(x)
    if kappa == -1.0:
        return math.cosh(x), math.sinh(x)
    if kappa == 0.0:
        return 1.0, x
    raise ValueError(f"oracle covers labels -1, 0, +1 only, got {kappa!r}")


def _half_period(kappa: float) -> float:
    return math.pi if kappa > 0.0 else math.inf


def chart_labels(k1: float, k2: float, chart: str) -> tuple[float, float]:
    """Labels of the chart's first and second coordinate."""
    if chart == "polar":
        return k1, k2
    return k1, k1 * k2


def ambient(k1: float, k2: float, chart: str, u: float, v: float) -> tuple[float, float, float]:
    """Ambient triple (s0, s1, s2) of the chart point (u, v)."""
    ka, kb = chart_labels(k1, k2, chart)
    cu, su = cos_sin(ka, u)
    cv, sv = cos_sin(kb, v)
    if chart == "parallel1":
        return cu * cv, su * cv, sv
    if chart == "parallel2":
        return cu * cv, su, cu * sv
    if chart == "polar":
        return cu, su * cv, su * sv
    raise ValueError(f"unknown chart {chart!r}")


def domain_margin(k1: float, k2: float, chart: str, u: float, v: float) -> float:
    """Distance of (u, v) inside the chart's coordinate domain (negative outside)."""
    ka, kb = chart_labels(k1, k2, chart)
    if chart == "parallel1":
        margins = [_half_period(ka) - abs(u)]
        if kb > 0.0:
            margins.append(0.5 * math.pi - abs(v))
    elif chart == "parallel2":
        margins = [_half_period(kb) - abs(v)]
        if ka > 0.0:
            margins.append(0.5 * math.pi - abs(u))
    else:
        margins = [u, _half_period(ka) - u, _half_period(kb) - abs(v)]
    return min(margins)


def beltrami(k1: float, k2: float, chart: str, u: float, v: float):
    """(b1, b2, s0) for a point the chart covers, or None outside its domain."""
    if domain_margin(k1, k2, chart, u, v) < 0.0:
        return None
    s0, s1, s2 = ambient(k1, k2, chart, u, v)
    if s0 == 0.0:
        return None
    return s1 / s0, s2 / s0, s0


def coordinate_lines(k1: float, k2: float, chart: str, span: float, lines: int, points: int):
    """(family label, point(t) -> (u, v), t grid) for each coordinate line."""
    ka, kb = chart_labels(k1, k2, chart)

    def bound(label: float) -> float:
        return span * (math.pi / math.sqrt(label)) if label > 0.0 else 2.0 * span

    b1, b2 = bound(ka), bound(kb)
    if chart == "polar":
        consts1, lo1 = np.linspace(b1 / lines, b1, lines), 0.0
    else:
        consts1, lo1 = np.linspace(-b1, b1, lines), -b1
    out = []
    for c in np.linspace(-b2, b2, lines):
        out.append((f"{chart}:line1:{c:+.3f}", lambda t, c=float(c): (t, c), np.linspace(lo1, b1, points)))
    for c in consts1:
        out.append((f"{chart}:line2:{c:+.3f}", lambda t, c=float(c): (c, t), np.linspace(-b2, b2, points)))
    return out


def row_agrees(k1: float, k2: float, chart: str, u: float, v: float,
               truncated: bool, b1: float | None, b2: float | None) -> bool:
    """Whether one exported row is what the oracle expects at (u, v).

    A row must carry values when the point is clearly inside the domain and
    away from s0 = 0, and must be truncated when it is clearly outside.
    Values are compared with a relative tolerance that grows as 1/|s0|,
    the conditioning of the projection."""
    margin = domain_margin(k1, k2, chart, u, v)
    if margin < -EDGE:
        return truncated
    s0, s1, s2 = ambient(k1, k2, chart, u, v)
    if truncated:
        return margin <= EDGE or abs(s0) <= EDGE
    if s0 == 0.0:
        return False
    rel = 1e-10 * (1.0 + 1.0 / abs(s0))
    return all(abs(got - want) <= rel * (1.0 + abs(want))
               for got, want in ((b1, s1 / s0), (b2, s2 / s0)))
