import math

import pytest

import oracle
from workloads import Geodesics


def test_sphere_parallel1_hand_values():
    # s = (cos a1 cos a2, sin a1 cos a2, sin a2), so b = (tan a1, tan a2 / cos a1)
    b1, b2, _ = oracle.beltrami(1.0, 1.0, "parallel1", 0.3, 0.2)
    assert b1 == pytest.approx(0.309336249609623, rel=1e-13)
    assert b2 == pytest.approx(0.212187054316545, rel=1e-13)


def test_euclidean_parallel1_is_the_identity():
    assert oracle.beltrami(0.0, 0.0, "parallel1", 0.3, 0.2)[:2] == (0.3, 0.2)


def test_hyperbolic_polar_hand_values():
    # s = (cosh r, sinh r cos phi, sinh r sin phi), so b = tanh r (cos phi, sin phi)
    b1, b2, _ = oracle.beltrami(-1.0, 1.0, "polar", 0.5, 0.4)
    assert b1 == pytest.approx(0.425638088211692, rel=1e-13)
    assert b2 == pytest.approx(0.179956897332579, rel=1e-13)


def test_points_on_the_quadric():
    for k1 in (-1.0, 0.0, 1.0):
        for k2 in (-1.0, 0.0, 1.0):
            for chart in oracle.CHARTS:
                s0, s1, s2 = oracle.ambient(k1, k2, chart, 0.4, -0.3)
                assert s0 * s0 + k1 * s1 * s1 + k1 * k2 * s2 * s2 == pytest.approx(1.0, abs=1e-14)


def test_rows_outside_the_domain_must_be_truncated():
    # a2 past the quarter period of the sphere
    assert oracle.beltrami(1.0, 1.0, "parallel1", 0.1, 1.6) is None
    assert oracle.row_agrees(1.0, 1.0, "parallel1", 0.1, 1.6, True, None, None)
    assert not oracle.row_agrees(1.0, 1.0, "parallel1", 0.1, 1.6, False, 1.0, 1.0)
    # truncating a point well inside the domain is a disagreement
    assert not oracle.row_agrees(1.0, 1.0, "parallel1", 0.3, 0.2, True, None, None)
    # at the edge either outcome is accepted
    assert oracle.row_agrees(1.0, 1.0, "parallel1", 0.1, 0.5 * math.pi, True, None, None)


def test_check_accepts_the_export_and_flags_a_corrupted_row(capsys):
    import ckgeom.cli as cli

    w = Geodesics()
    argv = ["export-geodesics", "--k1", "1.0", "--k2", "-1.0", "--chart", "parallel2",
            "--format", "csv", "--points", str(w.points), "--lines", str(w.lines), "--span", "0.55"]
    status = cli.main(argv)
    text = capsys.readouterr().out
    out = w.check(argv, status, text)
    assert (out.units, out.failed, out.problems) == (2 * w.lines * w.points, 0, [])
    assert "true" in text  # the span reaches past the parallel2 edge

    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.endswith(",false") and i > 1)
    fields = lines[i].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    lines[i] = ",".join(fields)
    bad = w.check(argv, status, "\n".join(lines) + "\n")
    assert bad.failed == 1 and bad.problems
