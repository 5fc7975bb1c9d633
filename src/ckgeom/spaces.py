"""Charts, metrics and symmetry fields of the nine homogeneous planes.

The point space sits inside ambient 3-space as the quadric
s0**2 + k1 s1**2 + k1 k2 s2**2 = 1 through the base point (1, 0, 0).
Three local charts are provided: two "parallel" (geodesic-parallel
translation) charts and a polar one.  The ambient triple is the canonical
interchange format; every conversion goes through it.

Chart domains are enforced, not wrapped: parallel-type charts need the
cosine factor of their second coordinate positive, the polar chart needs
a nonzero radial sine.  Violations raise ChartDomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import ktrig
from .algebra import KappaPair
from .errors import ChartDomainError, DegenerateMetricError, OffCurveError, OffSurfaceError
from .group import DEFAULT_CHART_TOL, DEFAULT_SURFACE_TOL, ambient_defect

CURVATURE_STEP = 1e-3
OPERATOR_STEP = 1e-4

CHART_NAMES = ("ambient", "parallel1", "parallel2", "polar")


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


@dataclass(frozen=True)
class MetricValue:
    """Symmetric 2x2 metric components (g11, g12, g22) at a point."""

    g11: float
    g12: float
    g22: float

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.g11, self.g12], [self.g12, self.g22]])


def _check_period(value: float, kappa: float, label: str, tol: float) -> None:
    limit = ktrig.half_period(kappa)
    if abs(value) > limit + tol:
        raise ChartDomainError(f"{label} = {value!r} outside principal period (+-{limit!r})")


def _check_quarter(value: float, kappa: float, label: str, tol: float) -> None:
    # Positive cosine factor needed for invertibility of the chart.
    if kappa > 0.0 and abs(value) >= 0.5 * math.pi / math.sqrt(kappa) - tol:
        raise ChartDomainError(
            f"{label} = {value!r} reaches the cosine zero of its curvature {kappa!r}"
        )


def to_ambient(kp: KappaPair, p: ChartPoint, tol: float = DEFAULT_CHART_TOL) -> Ambient:
    """Ambient coordinates of a chart point; validates the chart domain."""
    k1, k12, k2 = kp.k1, kp.k12, kp.k2
    if isinstance(p, Ambient):
        return p
    if isinstance(p, ParallelI):
        _check_period(p.a1, k1, "a1", tol)
        _check_quarter(p.a2, k12, "a2", tol)
        c2, s2 = ktrig.ck(k12, p.a2), ktrig.sk(k12, p.a2)
        return Ambient(
            ktrig.ck(k1, p.a1) * c2,
            ktrig.sk(k1, p.a1) * c2,
            s2,
        )
    if isinstance(p, ParallelII):
        _check_quarter(p.b1, k1, "b1", tol)
        _check_period(p.b2, k12, "b2", tol)
        c1 = ktrig.ck(k1, p.b1)
        return Ambient(
            c1 * ktrig.ck(k12, p.b2),
            ktrig.sk(k1, p.b1),
            c1 * ktrig.sk(k12, p.b2),
        )
    if isinstance(p, Polar):
        if p.r < 0.0:
            raise ChartDomainError(f"polar radius must be nonnegative, got {p.r!r}")
        _check_period(p.r, k1, "r", tol)
        _check_period(p.phi, k2, "phi", tol)
        sr = ktrig.sk(k1, p.r)
        return Ambient(
            ktrig.ck(k1, p.r),
            sr * ktrig.ck(k2, p.phi),
            sr * ktrig.sk(k2, p.phi),
        )
    raise TypeError(f"unsupported chart point {type(p).__name__}")


def from_ambient(
    kp: KappaPair,
    s: Ambient,
    target: str,
    tol: float = DEFAULT_CHART_TOL,
    surface_tol: float = DEFAULT_SURFACE_TOL,
) -> ChartPoint:
    """Convert an ambient point to the named chart by inverting the pair maps."""
    arr = s.as_array()
    defect = ambient_defect(kp, arr)
    if defect > surface_tol:
        raise OffSurfaceError(f"from_ambient: point misses the quadric by {defect:.3e}")
    s0, s1, s2 = float(arr[0]), float(arr[1]), float(arr[2])
    if target == "ambient":
        return Ambient(s0, s1, s2)
    try:
        if target == "parallel1":
            c2 = math.sqrt(max(s0 * s0 + kp.k1 * s1 * s1, 0.0))
            if c2 < tol:
                raise ChartDomainError("parallel1 chart: cosine factor of a2 vanishes here")
            a2 = ktrig.kinv(kp.k12, s2, c2)
            a1 = ktrig.kinv(kp.k1, s1 / c2, s0 / c2)
            return ParallelI(a1, a2)
        if target == "parallel2":
            c1 = math.sqrt(max(s0 * s0 + kp.k12 * s2 * s2, 0.0))
            if c1 < tol:
                raise ChartDomainError("parallel2 chart: cosine factor of b1 vanishes here")
            b1 = ktrig.kinv(kp.k1, s1, c1)
            b2 = ktrig.kinv(kp.k12, s2 / c1, s0 / c1)
            return ParallelII(b1, b2)
        if target == "polar":
            sr_sq = s1 * s1 + kp.k2 * s2 * s2
            if sr_sq < tol * tol:
                raise ChartDomainError(
                    "polar chart: radial sine vanishes (origin, antipode or null sector), phi undefined"
                )
            sr = math.sqrt(sr_sq)
            r = ktrig.kinv(kp.k1, sr, s0)
            phi = ktrig.kinv(kp.k2, s2 / sr, s1 / sr)
            return Polar(r, phi)
    except OffCurveError as exc:
        # negative-label inversions reject points outside the chart's wedge
        raise ChartDomainError(f"{target} chart does not cover this point: {exc}") from exc
    raise ValueError(f"unknown chart {target!r}, expected one of {CHART_NAMES}")


def convert(kp: KappaPair, p: ChartPoint, target: str) -> ChartPoint:
    """Chart-to-chart conversion through the ambient format."""
    return from_ambient(kp, to_ambient(kp, p), target)


def _as_parallel1(kp: KappaPair, p: ChartPoint) -> ParallelI:
    if isinstance(p, ParallelI):
        return p
    q = convert(kp, p, "parallel1")
    assert isinstance(q, ParallelI)
    return q


def metric_main(kp: KappaPair, p: ChartPoint) -> MetricValue:
    """Main metric components in the chart the point is given in.

    Ambient input is answered in parallel-I components after conversion.
    """
    k1, k12, k2 = kp.k1, kp.k12, kp.k2
    if isinstance(p, Ambient):
        return metric_main(kp, _as_parallel1(kp, p))
    if isinstance(p, ParallelI):
        _check_quarter(p.a2, k12, "a2", DEFAULT_CHART_TOL)
        c = ktrig.ck(k12, p.a2)
        return MetricValue(c * c, 0.0, k2)
    if isinstance(p, ParallelII):
        _check_quarter(p.b1, k1, "b1", DEFAULT_CHART_TOL)
        c = ktrig.ck(k1, p.b1)
        return MetricValue(1.0, 0.0, k2 * c * c)
    if isinstance(p, Polar):
        s = ktrig.sk(k1, p.r)
        return MetricValue(1.0, 0.0, k2 * s * s)
    raise TypeError(f"unsupported chart point {type(p).__name__}")


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


def killing_fields(
    kp: KappaPair, p: ChartPoint, chart: str = "parallel1"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluated symmetry vector fields of (J01, J02, J12) at p.

    chart selects the component frame: "parallel1" gives (d/da1, d/da2)
    components, "ambient" gives ambient components of the quadric-tangent
    fields.
    """
    k1, k2, k12 = kp.k1, kp.k2, kp.k12
    if chart == "ambient":
        s = to_ambient(kp, p)
        j01 = np.array([k1 * s.s1, -s.s0, 0.0])
        j02 = np.array([k12 * s.s2, 0.0, -s.s0])
        j12 = np.array([0.0, k2 * s.s2, -s.s1])
        return j01, j02, j12
    if chart == "parallel1":
        q = _as_parallel1(kp, p)
        _check_quarter(q.a2, k12, "a2", DEFAULT_CHART_TOL)
        c1, s1 = ktrig.ck(k1, q.a1), ktrig.sk(k1, q.a1)
        t2 = ktrig.tk(k12, q.a2)
        j01 = np.array([-1.0, 0.0])
        j02 = np.array([-k12 * s1 * t2, -c1])
        j12 = np.array([k2 * c1 * t2, -s1])
        return j01, j02, j12
    raise ValueError(f"unsupported field frame {chart!r}, expected 'parallel1' or 'ambient'")


def gaussian_curvature(kp: KappaPair, p: ChartPoint, step: float = CURVATURE_STEP) -> float:
    """Gaussian curvature at p from second differences of the main metric.

    Combines two stencil widths (step and 2*step) to cancel the leading
    quadratic truncation term; needs an invertible metric, so k2 = 0
    raises DegenerateMetricError.
    """
    coarse = _brioschi_curvature(kp, p, 2.0 * step)
    fine = _brioschi_curvature(kp, p, step)
    return (4.0 * fine - coarse) / 3.0


def _brioschi_curvature(kp: KappaPair, p: ChartPoint, step: float) -> float:
    # determinant form of the curvature of a 2D metric; signature-agnostic
    if kp.k2 == 0.0:
        raise DegenerateMetricError("curvature of the degenerate main metric is undefined")
    q = _as_parallel1(kp, p)
    u, v, h = q.a1, q.a2, step

    def components(uu: float, vv: float) -> np.ndarray:
        m = metric_main(kp, ParallelI(uu, vv))
        return np.array([m.g11, m.g12, m.g22])

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
    if abs(det) < 1e-12:
        raise DegenerateMetricError(f"metric determinant {det:.3e} too small for curvature")
    m1 = np.array(
        [
            [-0.5 * e_vv + f_uv - 0.5 * g_uu, 0.5 * e_u, f_u - 0.5 * e_v],
            [f_v - 0.5 * g_u, e, f],
            [0.5 * g_v, f, g],
        ]
    )
    m2 = np.array(
        [
            [0.0, 0.5 * e_v, 0.5 * g_u],
            [0.5 * e_v, e, f],
            [0.5 * g_u, f, g],
        ]
    )
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / (det * det))


def laplace_beltrami_apply(
    kp: KappaPair,
    f: Callable[[float, float], float],
    p: ChartPoint,
    step: float = OPERATOR_STEP,
) -> float:
    """Apply the invariant second-order operator to a scalar field f(a1, a2).

    The operator is k2/ck(k12, a2)**2 d^2/da1^2 + d^2/da2^2
    - k1 k2 tk(k12, a2) d/da2, evaluated with central differences.
    """
    q = _as_parallel1(kp, p)
    a1, a2, h = q.a1, q.a2, step
    c = ktrig.ck(kp.k12, a2)
    if abs(c) < 1e-12:
        raise ChartDomainError("operator coefficient diverges where the a2 cosine factor vanishes")
    f0 = f(a1, a2)
    d2_a1 = (f(a1 + h, a2) - 2.0 * f0 + f(a1 - h, a2)) / (h * h)
    f_vp, f_vm = f(a1, a2 + h), f(a1, a2 - h)
    d2_a2 = (f_vp - 2.0 * f0 + f_vm) / (h * h)
    d_a2 = (f_vp - f_vm) / (2.0 * h)
    return kp.k2 / (c * c) * d2_a1 + d2_a2 - kp.k12 * ktrig.tk(kp.k12, a2) * d_a2
