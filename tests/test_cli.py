"""Command-line interface: report shapes, formats, exit codes, determinism."""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ckgeom import checks, cli
from ckgeom.cli import main
from ckgeom.errors import ChartDomainError

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_classify_example(capsys):
    status, out = run(capsys, "classify", "--k1", "0", "--k2", "-1")
    assert status == 0
    doc = json.loads(out)
    assert doc["schema"] == 2
    entry = doc["geometries"][0]
    assert entry["name"] == "minkowskian"
    assert entry["group"] == "ISO(1,1)"
    assert entry["h0"] == "SO(1,1)"
    assert entry["h01"] == "R"


def test_phs_example(capsys):
    status, out = run(capsys, "phs", "--kind", "first", "--k1", "1", "--k2", "1", "--a2", "0.5")
    assert status == 0
    doc = json.loads(out)
    value = doc["phs"][0]["bracket"]
    assert value == pytest.approx(0.1 * math.tan(0.5), abs=1e-15)


def test_classify_defaults_to_the_full_grid(capsys):
    status, out = run(capsys, "classify")
    assert status == 0
    assert len(json.loads(out)["geometries"]) == 9


def test_sweep_all_report_shape(capsys):
    status, out = run(capsys, "sweep-all", "--grid", "normalized9", "--z", "0.1", "--samples", "4")
    assert status == 0
    doc = json.loads(out)
    assert doc["schema"] == 2
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert len(names) == len(doc["checks"])
    for suite, row in doc["suites"].items():
        assert {"max_defect", "passed"} <= set(row)
    suites = {c["suite"] for c in doc["checks"]}
    assert suites == set(doc["suites"])


def test_sweep_all_is_byte_deterministic(capsys):
    a = run(capsys, "sweep-all", "--samples", "4", "--seed", "3")
    b = run(capsys, "sweep-all", "--samples", "4", "--seed", "3")
    assert a == b
    c = run(capsys, "sweep-all", "--samples", "4", "--seed", "4")
    assert c[1] != a[1]


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("sweep_all_samples4_seed3.json", ["sweep-all", "--samples", "4", "--seed", "3"]),
        (
            "sklyanin_normalized9_z0.3_samples4_seed0.json",
            ["sklyanin", "--grid", "normalized9", "--z", "0.3", "--samples", "4", "--seed", "0"],
        ),
        # anti-de Sitter parallel2 at span 0.6 passes the chart edge: truncation rows
        (
            "export_geodesics_k1_1_k2_-1_parallel2_span0.6.csv",
            ["export-geodesics", "--k1", "1", "--k2", "-1", "--chart", "parallel2", "--span", "0.6",
             "--format", "csv"],
        ),
        # hyperbolic polar lines: cosh and sinh must round as libm does
        (
            "export_geodesics_k1_-1_k2_1_polar_span0.6.csv",
            ["export-geodesics", "--k1", "-1", "--k2", "1", "--chart", "polar", "--span", "0.6",
             "--format", "csv"],
        ),
        # Galilean plane: both labels zero, the Taylor branch of ck and sk
        (
            "export_geodesics_k1_0_k2_0_parallel1.csv",
            ["export-geodesics", "--k1", "0", "--k2", "0", "--chart", "parallel1", "--format", "csv"],
        ),
        # sphere polar rays through s0 = 0, where the projection truncates
        (
            "export_geodesics_k1_1_k2_1_polar_span0.8_points9_lines2.json",
            ["export-geodesics", "--k1", "1", "--k2", "1", "--chart", "polar", "--span", "0.8",
             "--points", "9", "--lines", "2"],
        ),
    ],
)
def test_report_matches_the_golden_bytes(capsys, golden, argv):
    status, out = run(capsys, *argv)
    assert status == 0
    assert out == (GOLDEN / golden).read_text()


def test_render_csv_spells_each_cell_type():
    row = {
        "str": "a,b",
        "float": 0.1,
        "np_float": np.float64(-0.0),
        "nan": math.nan,
        "inf": -math.inf,
        "np_inf": np.float64(math.inf),
        "bool": True,
        "np_bool": np.bool_(False),
        "int": 3,
        "np_int": np.int64(-4),
        "none": None,
        "list": [np.float64(1.5), math.nan, np.bool_(True)],
    }
    text = cli.render_csv(cli.Report({}, [row, {"str": "only"}], True))
    assert text.splitlines() == [
        ",".join(row),
        '"a,b",0.1,-0.0,nan,-inf,inf,true,false,3,-4,,"[1.5, \'nan\', True]"',
        "only" + "," * (len(row) - 1),
    ]


def test_sklyanin_counts_every_pair_when_the_fields_fail(capsys, monkeypatch):
    def unavailable(kp, gc):
        raise ChartDomainError("fields unavailable")

    monkeypatch.setattr(checks, "invariant_fields_numeric", unavailable)
    status, out = run(capsys, "sklyanin", "--k1", "1", "--k2", "1", "--z", "0.3", "--samples", "2")
    assert status == 0
    row = json.loads(out)["sklyanin"][0]
    assert row["domain_errors"] == 6
    assert row["max_defect"] == 0.0


@pytest.mark.parametrize("k1, k2", [("1", "-1"), ("-0.0", "1")])
def test_sklyanin_row_is_the_same_alone_and_in_the_grid(capsys, k1, k2):
    # each pair seeds its stream from its own labels, with -0.0 read as 0.0
    argv = ("--z", "0.3", "--samples", "4", "--seed", "2")
    _, grid = run(capsys, "sklyanin", "--grid", "normalized9", *argv)
    _, single = run(capsys, "sklyanin", "--k1", k1, "--k2", k2, *argv)
    rows = {(r["k1"], r["k2"]): r for r in json.loads(grid)["sklyanin"]}
    assert json.loads(single)["sklyanin"][0] == rows[(float(k1), float(k2))]


def test_tolerance_override_fails_the_run(capsys, monkeypatch):
    monkeypatch.setitem(checks.DEFAULT_TOLERANCES, "geometry_curvature", 1e-18)
    status, out = run(capsys, "sweep-all", "--samples", "4")
    assert status == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    row = next(c for c in doc["checks"] if c["name"] == "geometry_curvature")
    assert row["tolerance"] == 1e-18
    assert not row["passed"]


def test_unknown_tolerance_is_a_config_error(capsys):
    # tolerances are fixed per check; a --tol-* flag is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["sweep-all", "--tol-nonsense", "1"])
    assert exc.value.code == 2


def test_mismatched_kappa_flags_are_a_config_error(capsys):
    assert main(["classify", "--k1", "1"]) == 2


def test_zero_z_is_a_config_error(capsys):
    assert main(["sweep-all", "--z", "0"]) == 2


def test_csv_format(capsys):
    status, out = run(capsys, "bracket", "--k1", "1", "--k2", "-1", "--format", "csv")
    assert status == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["x"] == "J01"
    assert "\r" not in out
    # dot-decimal floats, comma separation
    assert rows[0]["k1"] == "1.0"


def test_convert_domain_error_becomes_report_entry(capsys):
    status, out = run(
        capsys,
        "convert",
        "--k1", "1", "--k2", "1",
        "--from", "ambient", "--to", "polar",
        "--coords", "1,0,0",
    )
    assert status == 0
    doc = json.loads(out)
    assert "ChartDomainError" in doc["conversion"]["error"]


@pytest.mark.parametrize(
    "argv",
    [
        # cosh(800) overflows a double
        ["convert", "--from", "parallel1", "--to", "polar", "--coords", "800,0"],
        ["metric", "--coords", "0,800"],
        ["curvature", "--coords", "0,800"],
        # cosh(500) is finite but the ambient s0 = cosh(500)**2 is not
        ["convert", "--from", "parallel1", "--to", "polar", "--coords", "500,500"],
        # cosh(400) is finite but the metric entry cosh(400)**2 is not
        ["metric", "--coords", "0,400"],
        ["curvature", "--coords", "0,400"],
    ],
)
def test_hyperbolic_overflow_becomes_an_error_entry(capsys, argv):
    status, out = run(capsys, *argv, "--k1", "-1", "--k2", "1", "--format", "csv")
    assert status == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["error"].startswith("ChartDomainError: ")


def test_coproduct_overflow_is_an_error_row(capsys):
    status, out = run(capsys, "coproduct", "--k1", "1", "--k2", "1", "--z", "1e308", "--format", "csv")
    assert status == 1
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["error"].startswith("ConvergenceError: ")


@pytest.mark.parametrize("span", ["nan", "inf", "0", "-0.3"])
def test_geodesics_span_must_be_finite_and_positive(capsys, span):
    status, out = run(capsys, "export-geodesics", "--k1", "-1", "--k2", "1", "--span", span)
    assert status == 2
    assert out == ""


def test_geodesics_past_the_overflow_are_truncation_rows(capsys):
    status, out = run(capsys, "export-geodesics", "--k1", "-1", "--k2", "1", "--span", "400", "--format", "csv")
    assert status == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    regular = [r for r in rows if r["truncated"] == "false"]
    assert regular and len(regular) < len(rows)
    assert all(math.isfinite(float(r["beltrami1"])) for r in regular)


def test_curvature_matches_the_label(capsys):
    status, out = run(capsys, "curvature", "--k1", "-1", "--k2", "1", "--coords", "0.2,0.3")
    assert status == 0
    doc = json.loads(out)
    assert doc["curvature"]["curvature"] == pytest.approx(-1.0, abs=1e-6)


def test_duality_report_lists_all_maps(capsys):
    status, out = run(capsys, "duality", "--k1", "1", "--k2", "1")
    assert status == 0
    doc = json.loads(out)
    assert len(doc["dualities"]) == 6
    assert all(d["morphism_defect"] == 0.0 for d in doc["dualities"])


def test_geodesics_csv_has_truncation_column(capsys):
    status, out = run(
        capsys,
        "export-geodesics",
        "--k1", "1", "--k2", "1",
        "--chart", "parallel1",
        "--points", "9", "--lines", "3", "--span", "0.8",
        "--format", "csv",
    )
    assert status == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert set(rows[0]) == {"family", "t", "beltrami1", "beltrami2", "truncated"}
    truncated = [r for r in rows if r["truncated"] == "true"]
    regular = [r for r in rows if r["truncated"] == "false"]
    assert truncated and regular
    assert all(r["beltrami1"] == "" for r in truncated)
    float(regular[0]["beltrami1"])


def test_geodesics_sphere_rays_pass_through_the_origin(capsys):
    status, out = run(
        capsys,
        "export-geodesics",
        "--k1", "1", "--k2", "1",
        "--chart", "polar", "--points", "3", "--lines", "2",
    )
    doc = json.loads(out)
    starts = [r for r in doc["points"] if r["t"] == 0.0 and "line1" in r["family"]]
    assert starts
    for row in starts:
        assert row["beltrami1"] == 0.0
        assert abs(row["beltrami2"]) == 0.0


def test_euclidean_grid_is_straight(capsys):
    status, out = run(
        capsys,
        "export-geodesics",
        "--k1", "0", "--k2", "1",
        "--chart", "parallel1", "--points", "5", "--lines", "2",
    )
    doc = json.loads(out)
    by_family = {}
    for row in doc["points"]:
        by_family.setdefault(row["family"], []).append(row)
    for family, rows in by_family.items():
        if "line1" in family:
            assert len({r["beltrami2"] for r in rows}) == 1
        else:
            assert len({r["beltrami1"] for r in rows}) == 1


def test_out_flag_writes_the_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    status = main(["classify", "--k1", "1", "--k2", "1", "--out", str(target)])
    assert status == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["geometries"][0]["name"] == "spherical"


@pytest.mark.parametrize(
    "name, command", [("bialgebra_dual_jacobi", "bialgebra"), ("bialgebra_schouten", "ybe")]
)
def test_each_defect_is_judged_by_its_own_checks_tolerance(capsys, monkeypatch, name, command):
    # the defects here are exactly 0.0, so only a negative tolerance can fail them
    monkeypatch.setitem(checks.DEFAULT_TOLERANCES, name, -1.0)
    status, out = run(capsys, command, "--k1", "1", "--k2", "1", "--kind", "first")
    assert status == 1
    (row,) = json.loads(out)[command]
    assert row["passed"] is False
