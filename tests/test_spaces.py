"""Homogeneous spaces: charts, metrics, curvature, symmetry fields."""

import math

import numpy as np
import pytest

from ckgeom import (
    Ambient,
    ChartDomainError,
    DegenerateMetricError,
    KappaPair,
    OffSurfaceError,
    ParallelI,
    ParallelII,
    Polar,
    convert,
    from_ambient,
    gaussian_curvature,
    killing_fields,
    laplace_beltrami_apply,
    metric_main,
    metric_subsidiary,
    to_ambient,
    to_ambient_batch,
)
from ckgeom.group import DEFAULT_CHART_TOL
from ckgeom.spaces import CHARTS

from helpers import (
    NINE,
    NONDEGENERATE,
    killing_rows,
    parallel1_metric,
    polar_metric,
    ref_ck,
    ref_sk,
)

RNG = np.random.default_rng(31)


def sample_points(kp: KappaPair, n=12, frac=0.3):
    def bound(label):
        if label > 1e-12:
            return frac * math.pi / math.sqrt(label)
        return 1.0

    for _ in range(n):
        yield ParallelI(
            RNG.uniform(-bound(kp.k1), bound(kp.k1)),
            RNG.uniform(-bound(kp.k12), bound(kp.k12)),
        )


def test_parallel1_embedding_closed_form():
    # s = (ck(k1,a1) ck(k12,a2), sk(k1,a1) ck(k12,a2), sk(k12,a2)/ ...) checked
    # against an independent composition of the defining one-parameter flows
    kp = KappaPair(1.0, 1.0)
    a1, a2 = 0.3, 0.2
    s = to_ambient(kp, ParallelI(a1, a2))
    want = (
        math.cos(a1) * math.cos(a2),
        math.sin(a1) * math.cos(a2),
        math.sin(a2),
    )
    assert (s.s0, s.s1, s.s2) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_embedding_satisfies_the_quadric(kp):
    for p in sample_points(kp):
        s = to_ambient(kp, p)
        lhs = s.s0**2 + kp.k1 * s.s1**2 + kp.k12 * s.s2**2
        assert abs(lhs - 1.0) < 1e-12


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_chart_roundtrips(kp):
    for p in sample_points(kp):
        for target in ("parallel1", "parallel2"):
            try:
                q = convert(kp, p, target)
            except ChartDomainError:
                continue
            back = convert(kp, q, "parallel1")
            assert abs(back.a1 - p.a1) < 1e-10
            assert abs(back.a2 - p.a2) < 1e-10


def test_polar_roundtrip_on_the_sphere():
    kp = KappaPair(1.0, 1.0)
    p = Polar(0.7, 0.4)
    q = convert(kp, p, "parallel1")
    back = convert(kp, q, "polar")
    assert abs(back.r - 0.7) < 1e-12
    assert abs(back.phi - 0.4) < 1e-12


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_main_metric_parallel1(kp):
    for p in sample_points(kp):
        m = metric_main(kp, p)
        g11, g12, g22 = parallel1_metric(kp, p.a1, p.a2)
        assert abs(m.g11 - g11) < 1e-12
        assert abs(m.g12 - g12) < 1e-12
        assert abs(m.g22 - g22) < 1e-12


@pytest.mark.parametrize("kp", NONDEGENERATE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_main_metric_polar(kp):
    for _ in range(8):
        r = RNG.uniform(0.15, 0.8)
        phi = RNG.uniform(-0.7, 0.7)
        m = metric_main(kp, Polar(r, phi))
        g11, g12, g22 = polar_metric(kp, r, phi)
        assert abs(m.g11 - g11) < 1e-12
        assert abs(m.g12 - g12) < 1e-12
        assert abs(m.g22 - g22) < 1e-12


def test_subsidiary_metric_on_degenerate_planes():
    # at k2 = 0 the main metric collapses to da1^2; the subsidiary metric
    # measures the fibre coordinate instead
    for kp in (KappaPair(1.0, 0.0), KappaPair(0.0, 0.0), KappaPair(-1.0, 0.0)):
        p = ParallelI(0.3, 0.4)
        main = metric_main(kp, p)
        sub = metric_subsidiary(kp, p)
        assert main.g22 == 0.0
        assert sub.g22 != 0.0


@pytest.mark.parametrize("kp", NONDEGENERATE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_gaussian_curvature_equals_first_label(kp):
    for p in sample_points(kp, n=4, frac=0.25):
        assert abs(gaussian_curvature(kp, p) - kp.k1) < 1e-6


def test_gaussian_curvature_rejects_degenerate_metric():
    with pytest.raises(DegenerateMetricError):
        gaussian_curvature(KappaPair(1.0, 0.0), ParallelI(0.2, 0.1))


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_killing_fields_match_reference_rows(kp):
    for p in sample_points(kp):
        got = killing_fields(kp, p, chart="parallel1")
        want = killing_rows(kp, p.a1, p.a2)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - np.array(w))) < 1e-12


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_ambient_killing_fields_are_tangent(kp):
    for p in sample_points(kp, n=6):
        s = to_ambient(kp, p).as_array()
        grad = np.array([2 * s[0], 2 * kp.k1 * s[1], 2 * kp.k12 * s[2]])
        for v in killing_fields(kp, p, chart="ambient"):
            assert abs(grad @ v) < 1e-12


def test_laplacian_flat_reference():
    # Euclidean plane: operator reduces to the ordinary Laplacian
    kp = KappaPair(0.0, 1.0)
    p = ParallelI(0.4, -0.2)
    f = lambda a1, a2: a1 * a1 + 3.0 * a2 * a2
    assert laplace_beltrami_apply(kp, f, p) == pytest.approx(8.0, abs=1e-6)


def test_laplacian_annihilates_coordinates_on_minkowskian_plane():
    kp = KappaPair(0.0, -1.0)
    p = ParallelI(0.3, 0.5)
    assert laplace_beltrami_apply(kp, lambda a1, a2: a1 * a2, p) == pytest.approx(
        0.0, abs=1e-9
    )


def test_degenerate_fibration_is_preserved():
    # k2 = 0: isotropy flows keep the base coordinate a1 fixed
    for kp in (KappaPair(1.0, 0.0), KappaPair(0.0, 0.0), KappaPair(-1.0, 0.0)):
        p = ParallelI(0.4, 0.3)
        fields = killing_fields(kp, p, chart="parallel1")
        assert fields[1][0] == 0.0
        assert fields[2][0] == 0.0


def test_from_ambient_rejects_off_surface_points():
    with pytest.raises(OffSurfaceError):
        from_ambient(KappaPair(1.0, 1.0), Ambient(2.0, 0.0, 0.0), "parallel1")


def test_polar_chart_domain_errors():
    kp = KappaPair(1.0, 1.0)
    with pytest.raises(ChartDomainError):
        from_ambient(kp, Ambient(1.0, 0.0, 0.0), "polar")  # angle undefined
    with pytest.raises(ChartDomainError):
        to_ambient(kp, Polar(-0.3, 0.1))  # negative radius
    with pytest.raises(ChartDomainError):
        # left wedge is not covered when the angle label is negative
        from_ambient(KappaPair(1.0, -1.0), Ambient(-1.0, 0.0, 0.0), "polar")


def test_parallel1_pole_is_excluded():
    kp = KappaPair(1.0, 1.0)
    with pytest.raises(ChartDomainError):
        from_ambient(kp, Ambient(0.0, 0.0, 1.0), "parallel1")


def test_sphere_distances_along_axes():
    kp = KappaPair(1.0, 1.0)
    # a1 runs along a geodesic through the origin: metric length = |a1|
    s = to_ambient(kp, ParallelI(0.8, 0.0))
    assert s.s0 == pytest.approx(math.cos(0.8), abs=1e-15)
    assert s.s1 == pytest.approx(math.sin(0.8), abs=1e-15)


def _edge_values(kappa: float) -> np.ndarray:
    """Coordinate values past both ends of a label's window, through zero
    and negative values, exactly on the quarter and half periods and one
    chart tolerance to either side of them.  An unbounded direction also
    gets values where a hyperbolic cosh or sinh (800) or a product of two
    (400) overflows a double."""
    if kappa <= 0.0:
        return np.concatenate([np.linspace(-2.5, 2.5, 31), [-0.0, -800.0, -400.0, 400.0, 800.0]])
    half = math.pi / math.sqrt(kappa)
    edges = [edge + d for edge in (0.5 * half, half) for d in (-DEFAULT_CHART_TOL, 0.0, DEFAULT_CHART_TOL)]
    edges.append(0.5 * math.pi / math.sqrt(kappa))  # the quarter as _below_quarter computes it
    return np.concatenate([np.linspace(-1.25 * half, 1.25 * half, 31), edges, np.negative(edges), [-0.0]])


@pytest.mark.parametrize("chart", ["parallel1", "parallel2", "polar"])
@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_batched_map_matches_to_ambient_bit_for_bit(kp, chart):
    labels = (kp.k1, kp.k2) if chart == "polar" else (kp.k1, kp.k12)
    x1, x2 = _edge_values(labels[0]), _edge_values(labels[1])
    s, bad = to_ambient_batch(kp, chart, x1[:, None], x2[None, :])
    assert s.shape == (3, len(x1), len(x2))
    assert bad.shape == (len(x1), len(x2))
    make = CHARTS[chart]
    for i, u in enumerate(x1.tolist()):
        for j, v in enumerate(x2.tolist()):
            try:
                want = to_ambient(kp, make(u, v)).as_array()
            except ChartDomainError:
                assert bad[i, j], (u, v)
                assert np.isnan(s[:, i, j]).all()
                continue
            assert not bad[i, j], (u, v)
            assert s[:, i, j].tobytes() == want.tobytes(), (u, v)
    # a coordinate line: one coordinate an array, the other a float
    line, line_bad = to_ambient_batch(kp, chart, x1, float(x2[3]))
    assert line.tobytes() == np.ascontiguousarray(s[:, :, 3]).tobytes()
    assert line_bad.tolist() == bad[:, 3].tolist()
