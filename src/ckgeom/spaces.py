"""Charts, metrics and symmetry fields of the nine homogeneous planes.

The point space sits inside ambient 3-space as the quadric
s0**2 + k1 s1**2 + k1 k2 s2**2 = 1 through the base point (1, 0, 0).
Three local charts are provided: two "parallel" (geodesic-parallel
translation) charts and a polar one.  The ambient triple is the canonical
interchange format; every conversion goes through it.

Chart domains are enforced, not wrapped: parallel-type charts need the
cosine factor of their second coordinate positive, the polar chart needs
a nonzero radial sine, and every chart needs a finite ambient triple.
Violations raise ChartDomainError.

Each map here is one transcription over the steps of ktrig (see there):
the chart maps (_ambient_of), their inverses (_chart_of), the metric, the
symmetry fields, the curvature stencil and the operator stencil.  The
public functions are their calls with ktrig as the steps, at one point;
called with a ktrig._Flag they are stack forms, and to_ambient_batch is
the one public stack form.  The geometry checks of the sweep evaluate their
samples, and a flagged sample again, through these transcriptions, so a
sweep calls to_ambient 2 times and from_ambient 4 times, all in its domain
guards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import ktrig
from .algebra import KappaPair
from .errors import ChartDomainError, DegenerateMetricError, OffCurveError, OffSurfaceError
from .group import DEFAULT_CHART_TOL, DEFAULT_SURFACE_TOL, _ambient_defect_stack

CURVATURE_STEP = 1e-3
OPERATOR_STEP = 1e-4


@dataclass(frozen=True)
class Ambient:
    """Point on the quadric in ambient coordinates."""

    s0: float
    s1: float
    s2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.s0, self.s1, self.s2], dtype=float)


@dataclass(frozen=True)
class ParallelI:
    """Geodesic-parallel coordinates of the first kind (a1, a2)."""

    a1: float
    a2: float


@dataclass(frozen=True)
class ParallelII:
    """Geodesic-parallel coordinates of the second kind (b1, b2)."""

    b1: float
    b2: float


@dataclass(frozen=True)
class Polar:
    """Geodesic polar coordinates (r, phi), r >= 0."""

    r: float
    phi: float


ChartPoint = Union[Ambient, ParallelI, ParallelII, Polar]

# chart name -> point class; the one table of charts
CHARTS: dict[str, type] = {
    "ambient": Ambient,
    "parallel1": ParallelI,
    "parallel2": ParallelII,
    "polar": Polar,
}
CHART_NAMES = tuple(CHARTS)


@dataclass(frozen=True)
class MetricValue:
    """Symmetric 2x2 metric components (g11, g12, g22) at a point."""

    g11: float
    g12: float
    g22: float

    def as_matrix(self) -> np.ndarray:
        """[[g11, g12], [g12, g22]], of shape (..., 2, 2) for components
        that broadcast to shape (...)."""
        return _matrix([[self.g11, self.g12], [self.g12, self.g22]])


def _floats(p: ChartPoint) -> ChartPoint:
    """The chart point p with its coordinates as Python floats, as a message
    prints it."""
    return type(p)(*(float(x) for x in vars(p).values()))


# Chart domain tests of a float or an array of values, through steps (see
# ktrig).
def _in_period(steps, value, kappa: float, label: str) -> None:
    half = ktrig.half_period(kappa)
    if steps.fails(abs(value) > half + DEFAULT_CHART_TOL):
        raise ChartDomainError(f"{label} = {float(value)!r} outside principal period (+-{half!r})")


def _below_quarter(steps, value, kappa: float, label: str) -> None:
    # Positive cosine factor needed for invertibility of the chart.
    if steps.fails(kappa > 0.0 and abs(value) >= 0.5 * math.pi / math.sqrt(kappa) - DEFAULT_CHART_TOL):
        raise ChartDomainError(f"{label} = {float(value)!r} reaches the cosine zero of its curvature {kappa!r}")


def _ambient_of(kp: KappaPair, p: ChartPoint, steps) -> tuple:
    """The ambient triple of a two-coordinate chart point, through steps
    (see ktrig): written once for to_ambient and to_ambient_batch, whose
    points hold floats and arrays."""
    k1, k12, k2 = kp.k1, kp.k12, kp.k2
    if isinstance(p, ParallelI):
        _in_period(steps, p.a1, k1, "a1")
        _below_quarter(steps, p.a2, k12, "a2")
        c2, s2 = steps.ck(k12, p.a2), steps.sk(k12, p.a2)
        s = steps.ck(k1, p.a1) * c2, steps.sk(k1, p.a1) * c2, s2
    elif isinstance(p, ParallelII):
        _below_quarter(steps, p.b1, k1, "b1")
        _in_period(steps, p.b2, k12, "b2")
        c1 = steps.ck(k1, p.b1)
        s = c1 * steps.ck(k12, p.b2), steps.sk(k1, p.b1), c1 * steps.sk(k12, p.b2)
    elif isinstance(p, Polar):
        if steps.fails(p.r < 0.0):
            raise ChartDomainError(f"polar radius must be nonnegative, got {float(p.r)!r}")
        _in_period(steps, p.r, k1, "r")
        _in_period(steps, p.phi, k2, "phi")
        sr = steps.sk(k1, p.r)
        s = steps.ck(k1, p.r), sr * steps.ck(k2, p.phi), sr * steps.sk(k2, p.phi)
    else:
        raise TypeError(f"unsupported chart point {type(p).__name__}")
    # x * 0.0 is 0.0 for a finite x and nan otherwise
    if steps.fails(s[0] * 0.0 + s[1] * 0.0 + s[2] * 0.0 != 0.0):
        raise ChartDomainError(f"{_floats(p)} has the non-finite ambient triple ({s[0]!r}, {s[1]!r}, {s[2]!r})")
    return s


def to_ambient(kp: KappaPair, p: ChartPoint) -> Ambient:
    """Ambient coordinates of a chart point; validates the chart domain."""
    if isinstance(p, Ambient):
        return p
    return Ambient(*_ambient_of(kp, p, ktrig))


@ktrig.quiet()
def to_ambient_batch(kp: KappaPair, chart: str, x1, x2) -> tuple[np.ndarray, np.ndarray]:
    """to_ambient of the points with coordinates (x1, x2) of a two-coordinate
    chart, for arrays x1 and x2 that broadcast together to shape.

    Returns the ambient triples, shape (3, *shape), and the mask, of shape
    shape, of the points where to_ambient raises.  A flagged triple is nan;
    the others equal to_ambient's bit for bit.
    """
    cls = CHARTS.get(chart)
    if cls not in (ParallelI, ParallelII, Polar):
        raise ValueError(f"chart {chart!r} has no two-coordinate map, expected parallel1, parallel2 or polar")
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    flag = ktrig._Flag(np.broadcast_shapes(x1.shape, x2.shape))
    triple = np.stack(np.broadcast_arrays(*_ambient_of(kp, cls(x1, x2), flag)))
    return np.where(flag.bad, np.nan, triple), flag.bad


@ktrig.quiet()
def from_ambient(kp: KappaPair, s: Ambient, target: str) -> ChartPoint:
    """Convert an ambient point to the named chart by inverting the pair maps."""
    return _floats(_chart_of(kp, float(s.s0), float(s.s1), float(s.s2), target, ktrig))


def _chart_of(kp: KappaPair, s0, s1, s2, target: str, steps) -> ChartPoint:
    """The target chart point of the ambient triples (s0, s1, s2), through
    steps (see ktrig): written once for from_ambient and its stack form,
    whose triples hold floats and arrays."""
    defect = _ambient_defect_stack(kp, np.stack(np.broadcast_arrays(s0, s1, s2), axis=-1))
    if steps.fails(defect > DEFAULT_SURFACE_TOL):
        raise OffSurfaceError(f"from_ambient: point misses the quadric by {defect:.3e}")
    if target == "ambient":
        return Ambient(s0, s1, s2)
    try:
        if target == "parallel1":
            c2 = np.sqrt(np.maximum(s0 * s0 + kp.k1 * s1 * s1, 0.0))
            if steps.fails(c2 < DEFAULT_CHART_TOL):
                raise ChartDomainError("parallel1 chart: cosine factor of a2 vanishes here")
            a2 = steps.kinv(kp.k12, s2, c2)
            return ParallelI(steps.kinv(kp.k1, s1 / c2, s0 / c2), a2)
        if target == "parallel2":
            c1 = np.sqrt(np.maximum(s0 * s0 + kp.k12 * s2 * s2, 0.0))
            if steps.fails(c1 < DEFAULT_CHART_TOL):
                raise ChartDomainError("parallel2 chart: cosine factor of b1 vanishes here")
            b1 = steps.kinv(kp.k1, s1, c1)
            return ParallelII(b1, steps.kinv(kp.k12, s2 / c1, s0 / c1))
        if target == "polar":
            sr_sq = s1 * s1 + kp.k2 * s2 * s2
            if steps.fails(sr_sq < DEFAULT_CHART_TOL * DEFAULT_CHART_TOL):
                raise ChartDomainError(
                    "polar chart: radial sine vanishes (origin, antipode or null sector), phi undefined"
                )
            sr = np.sqrt(sr_sq)
            r = steps.kinv(kp.k1, sr, s0)
            return Polar(r, steps.kinv(kp.k2, s2 / sr, s1 / sr))
    except OffCurveError as exc:
        # negative-label inversions reject points outside the chart's wedge
        raise ChartDomainError(f"{target} chart does not cover this point: {exc}") from exc
    raise ValueError(f"unknown chart {target!r}, expected one of {CHART_NAMES}")


def convert(kp: KappaPair, p: ChartPoint, target: str) -> ChartPoint:
    """Chart-to-chart conversion through the ambient format."""
    return from_ambient(kp, to_ambient(kp, p), target)


def _convert(kp: KappaPair, p: ChartPoint, target: str, steps) -> ChartPoint:
    """convert of two-coordinate chart points through steps (see ktrig)."""
    return _chart_of(kp, *_ambient_of(kp, p, steps), target, steps)


def _as_parallel1(kp: KappaPair, p: ChartPoint) -> ParallelI:
    if isinstance(p, ParallelI):
        return p
    q = convert(kp, p, "parallel1")
    assert isinstance(q, ParallelI)
    return q


def metric_main(kp: KappaPair, p: ChartPoint) -> MetricValue:
    """Main metric components in the chart the point is given in.

    Ambient input is answered in parallel-I components after conversion.
    A component that overflows raises ChartDomainError, as in to_ambient.
    """
    if isinstance(p, Ambient):
        p = _as_parallel1(kp, p)
    return _metric_of(kp, p, ktrig)


def _metric_of(kp: KappaPair, p: ChartPoint, steps) -> MetricValue:
    """metric_main of a two-coordinate chart point, through steps (see
    ktrig): written once for metric_main and its stack form, whose points
    and components hold floats and arrays."""
    k1, k12, k2 = kp.k1, kp.k12, kp.k2
    if isinstance(p, ParallelI):
        _below_quarter(steps, p.a2, k12, "a2")
        c = steps.ck(k12, p.a2)
        g = c * c, 0.0, k2
    elif isinstance(p, ParallelII):
        _below_quarter(steps, p.b1, k1, "b1")
        c = steps.ck(k1, p.b1)
        g = 1.0, 0.0, k2 * c * c
    elif isinstance(p, Polar):
        s = steps.sk(k1, p.r)
        g = 1.0, 0.0, k2 * s * s
    else:
        raise TypeError(f"unsupported chart point {type(p).__name__}")
    # x * 0.0 is 0.0 for a finite x and nan otherwise
    if steps.fails(g[0] * 0.0 + g[1] * 0.0 + g[2] * 0.0 != 0.0):
        raise ChartDomainError(f"{_floats(p)} has the non-finite metric ({g[0]!r}, {g[1]!r}, {g[2]!r})")
    return MetricValue(*g)


def _matrix(rows: list) -> np.ndarray:
    """The matrix of rows of floats and arrays, of shape (..., len(rows),
    len(rows[0])) for entries that broadcast to shape (...)."""
    m = np.empty(np.broadcast(*(x for row in rows for x in row)).shape + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            m[..., i, j] = x
    return m


def metric_subsidiary(kp: KappaPair, p: ChartPoint) -> MetricValue:
    """Subsidiary metric: main metric divided by k2 when k2 != 0.

    At k2 = 0 the subsidiary metric only lives on the leaves a1 = const of
    the invariant foliation; the returned value is the leaf metric da2**2
    in parallel-I components.
    """
    if kp.k2 == 0.0:
        return MetricValue(0.0, 0.0, 1.0)
    main = metric_main(kp, p)
    inv = 1.0 / kp.k2
    return MetricValue(inv * main.g11, inv * main.g12, inv * main.g22)


def _ambient_fields(kp: KappaPair, s0, s1, s2) -> tuple:
    """The ambient components of the quadric-tangent fields of (J01, J02,
    J12) at the ambient triples (s0, s1, s2), for floats and arrays."""
    return (kp.k1 * s1, -s0, 0.0), (kp.k12 * s2, 0.0, -s0), (0.0, kp.k2 * s2, -s1)


def _fields_of(kp: KappaPair, q: ParallelI, steps) -> tuple:
    """The (d/da1, d/da2) components of the fields of (J01, J02, J12) at the
    parallel1 point q, of floats or arrays, through steps (see ktrig)."""
    k1, k12 = kp.k1, kp.k12
    _below_quarter(steps, q.a2, k12, "a2")
    c1, s1 = steps.ck(k1, q.a1), steps.sk(k1, q.a1)
    t2 = steps.tk(k12, q.a2)
    return (-1.0, 0.0), (-k12 * s1 * t2, -c1), (kp.k2 * c1 * t2, -s1)


@ktrig.quiet()
def gaussian_curvature(kp: KappaPair, p: ChartPoint) -> float:
    """Gaussian curvature at p from second differences of the main metric.

    Combines two stencil widths (CURVATURE_STEP and twice it) to cancel the
    leading quadratic truncation term; needs an invertible metric, so k2 = 0
    raises DegenerateMetricError.
    """
    return float(_curvature_of(kp, p, ktrig))


def _curvature_of(kp: KappaPair, p: ChartPoint, steps):
    """gaussian_curvature through steps (see ktrig): written once for it and
    its stack form, whose parallel1 points hold arrays."""
    if kp.k2 == 0.0:
        raise DegenerateMetricError("curvature of the degenerate main metric is undefined")
    q = _as_parallel1(kp, p)
    coarse = _brioschi_curvature(kp, q, 2.0 * CURVATURE_STEP, steps)
    fine = _brioschi_curvature(kp, q, CURVATURE_STEP, steps)
    return (4.0 * fine - coarse) / 3.0


def _brioschi_curvature(kp: KappaPair, q: ParallelI, step: float, steps):
    # determinant form of the curvature of a 2D metric; signature-agnostic
    u, v, h = q.a1, q.a2, step

    def components(uu, vv) -> np.ndarray:
        m = _metric_of(kp, ParallelI(uu, vv), steps)
        return np.array(np.broadcast_arrays(m.g11, m.g12, m.g22))

    center = components(u, v)
    up, um = components(u + h, v), components(u - h, v)
    vp, vm = components(u, v + h), components(u, v - h)
    d_u = (up - um) / (2.0 * h)
    d_v = (vp - vm) / (2.0 * h)
    d_uu = (up - 2.0 * center + um) / (h * h)
    d_vv = (vp - 2.0 * center + vm) / (h * h)
    pp = components(u + h, v + h)
    pm = components(u + h, v - h)
    mp = components(u - h, v + h)
    mm = components(u - h, v - h)
    d_uv = (pp - pm - mp + mm) / (4.0 * h * h)

    e, f, g = center
    e_u, f_u, g_u = d_u
    e_v, f_v, g_v = d_v
    e_vv = d_vv[0]
    g_uu = d_uu[2]
    f_uv = d_uv[1]

    det = e * g - f * f
    if steps.fails(abs(det) < 1e-12):
        raise DegenerateMetricError(f"metric determinant {det:.3e} too small for curvature")
    m1 = _matrix(
        [
            [-0.5 * e_vv + f_uv - 0.5 * g_uu, 0.5 * e_u, f_u - 0.5 * e_v],
            [f_v - 0.5 * g_u, e, f],
            [0.5 * g_v, f, g],
        ]
    )
    m2 = _matrix(
        [
            [0.0, 0.5 * e_v, 0.5 * g_u],
            [0.5 * e_v, e, f],
            [0.5 * g_u, f, g],
        ]
    )
    return (np.linalg.det(m1) - np.linalg.det(m2)) / (det * det)


@ktrig.quiet()
def laplace_beltrami_apply(kp: KappaPair, f: Callable[[float, float], float], p: ChartPoint) -> float:
    """Apply the invariant second-order operator to a scalar field f(a1, a2).

    The operator is k2/ck(k12, a2)**2 d^2/da1^2 + d^2/da2^2
    - k1 k2 tk(k12, a2) d/da2, evaluated with central differences of step
    OPERATOR_STEP.
    """
    return _laplacian_of(kp, f, _as_parallel1(kp, p), ktrig)


def _laplacian_of(kp: KappaPair, f: Callable, q: ParallelI, steps):
    """laplace_beltrami_apply at the parallel1 point q through steps (see
    ktrig): written once for it and its stack form, whose points hold floats
    and arrays, and whose f takes arrays."""
    a1, a2, h = q.a1, q.a2, OPERATOR_STEP
    c = steps.ck(kp.k12, a2)
    if steps.fails(abs(c) < ktrig.DEFAULT_POLE_TOL):
        raise ChartDomainError("operator coefficient diverges where the a2 cosine factor vanishes")
    f0 = f(a1, a2)
    d2_a1 = (f(a1 + h, a2) - 2.0 * f0 + f(a1 - h, a2)) / (h * h)
    f_vp, f_vm = f(a1, a2 + h), f(a1, a2 - h)
    d2_a2 = (f_vp - 2.0 * f0 + f_vm) / (h * h)
    d_a2 = (f_vp - f_vm) / (2.0 * h)
    return kp.k2 / (c * c) * d2_a1 + d2_a2 - kp.k12 * steps.tk(kp.k12, a2) * d_a2
