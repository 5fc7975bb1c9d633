"""Command-line front end.

Subcommands cover single-geometry reports (classify, bracket, convert,
metric, curvature, duality, bialgebra, ybe, sklyanin, phs, coproduct),
the full verification sweep (sweep-all) and plot-ready exports of chart
coordinate lines (export-geodesics).

Reports are deterministic for a fixed seed and configuration: no
timestamps, sorted keys, repr-exact floats.  Exit status is 0 when every
asserted defect stays within tolerance, 1 when a check fails and 2 for
configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import ktrig
from .algebra import (
    BASIS,
    GENERATOR_NAMES,
    AlgebraElement,
    KappaPair,
    bracket,
    casimir_coeffs,
    classify,
)
from .checks import (
    CHECK_NAMES,
    DEFAULT_TOLERANCES,
    SweepConfig,
    kappa_grid_from_name,
    run_all,
    sample_group_coords,
    suite_summary,
)
from .dualities import (
    DUALITIES,
    DualityName,
    duality_kappa,
    duality_matrix,
)
from .errors import (
    ChartDomainError,
    ConfigError,
    GeometryError,
    PoleError,
    ProjectionError,
    UndefinedDualityError,
)
from .poisson import (
    DeformationKind,
    bialgebra_check,
    cocommutator_map,
    coisotropy_check,
    invariant_fields_numeric,
    mcybe_defect,
    phs_points_bracket,
    rmatrix,
    schouten,
    sklyanin_closed,
    sklyanin_numeric,
)
from .quantum import (
    coassociativity_defect,
    deformed_relation_defect,
)
from .spaces import (
    CHART_NAMES,
    Ambient,
    ParallelI,
    ParallelII,
    Polar,
    from_ambient,
    gaussian_curvature,
    metric_main,
    metric_subsidiary,
    to_ambient,
)

SCHEMA_VERSION = 1

SUBCOMMANDS = (
    "classify",
    "bracket",
    "convert",
    "metric",
    "curvature",
    "duality",
    "bialgebra",
    "ybe",
    "sklyanin",
    "phs",
    "coproduct",
    "sweep-all",
    "export-geodesics",
)

_KIND_FLAGS = {"first": DeformationKind.FIRST_KIND, "second": DeformationKind.SECOND_KIND}


@dataclass
class ReportRequest:
    """Everything one subcommand invocation needs, already validated."""

    command: str
    sweep: SweepConfig
    output_format: str = "json"
    out_path: str | None = None
    options: dict = field(default_factory=dict)


@dataclass
class Report:
    payload: dict
    rows: list[dict]
    passed: bool


# --- serialization -----------------------------------------------------------


def _clean(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def render_json(report: Report) -> str:
    return json.dumps(_clean(report.payload), indent=2, sort_keys=True) + "\n"


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    if not report.rows:
        return ""
    fields = list(report.rows[0].keys())
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in report.rows:
        out = {}
        for key in fields:
            v = _clean(row.get(key, ""))
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            out[key] = v
        writer.writerow(out)
    return buf.getvalue()


def _base_payload(req: ReportRequest) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": req.command,
        "config": {
            "kappa_grid": [[kp.k1, kp.k2] for kp in req.sweep.kappa_grid],
            "z_values": list(req.sweep.z_values),
            "sample_count": req.sweep.sample_count,
            "seed": req.sweep.seed,
            "tolerances": dict(sorted(req.sweep.tolerances.items())),
        },
    }


def _tol(req: ReportRequest, name: str) -> float:
    return req.sweep.tolerance_for(name)


def _single_pair(req: ReportRequest) -> KappaPair:
    if len(req.sweep.kappa_grid) != 1:
        raise ConfigError(f"{req.command} needs exactly one kappa pair, got {len(req.sweep.kappa_grid)}")
    return req.sweep.kappa_grid[0]


def _single_z(req: ReportRequest) -> float:
    return req.sweep.z_values[0]


# --- subcommand implementations ----------------------------------------------


def _cmd_classify(req: ReportRequest) -> Report:
    payload = _base_payload(req)
    entries = []
    for kp in req.sweep.kappa_grid:
        label = classify(kp)
        entries.append(
            {
                "k1": kp.k1,
                "k2": kp.k2,
                "name": label.name.value,
                "display_name": label.display_name,
                "kinematical_name": label.kinematical_name or "",
                "group": label.group_name,
                "h0": label.h0,
                "h01": label.h01,
                "h02": label.h02,
            }
        )
    payload["geometries"] = entries
    return Report(payload, entries, True)


def _cmd_bracket(req: ReportRequest) -> Report:
    payload = _base_payload(req)
    rows = []
    for kp in req.sweep.kappa_grid:
        for i in range(3):
            for j in range(i + 1, 3):
                out = bracket(kp, BASIS[i], BASIS[j])
                rows.append(
                    {
                        "k1": kp.k1,
                        "k2": kp.k2,
                        "x": GENERATOR_NAMES[i],
                        "y": GENERATOR_NAMES[j],
                        "c01": out.c01,
                        "c02": out.c02,
                        "c12": out.c12,
                    }
                )
    payload["brackets"] = rows
    payload["casimir_coefficients"] = {
        f"({kp.k1:g},{kp.k2:g})": list(casimir_coeffs(kp)) for kp in req.sweep.kappa_grid
    }
    return Report(payload, rows, True)


def _parse_point(chart: str, coords: Sequence[float]):
    if chart == "ambient":
        if len(coords) != 3:
            raise ConfigError("ambient chart needs three coordinates")
        return Ambient(*coords)
    if len(coords) != 2:
        raise ConfigError(f"{chart} chart needs two coordinates")
    cls = {"parallel1": ParallelI, "parallel2": ParallelII, "polar": Polar}[chart]
    return cls(*coords)


def _point_values(p) -> list[float]:
    return [float(getattr(p, f)) for f in p.__dataclass_fields__]


def _cmd_convert(req: ReportRequest) -> Report:
    kp = _single_pair(req)
    source = req.options["source_chart"]
    target = req.options["target_chart"]
    coords = req.options["coords"]
    payload = _base_payload(req)
    row = {"k1": kp.k1, "k2": kp.k2, "source": source, "target": target}
    try:
        p = _parse_point(source, coords)
        ambient = to_ambient(kp, p) if source != "ambient" else p
        out = from_ambient(kp, ambient, target)
        row["ambient"] = list(ambient.as_array())
        row["coords_in"] = list(coords)
        row["coords_out"] = _point_values(out)
        back = from_ambient(kp, to_ambient(kp, out) if target != "ambient" else out, source)
        row["roundtrip_defect"] = max(
            abs(a - b) for a, b in zip(_point_values(back), _point_values(p))
        )
    except GeometryError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    payload["conversion"] = row
    return Report(payload, [row], True)


def _cmd_metric(req: ReportRequest) -> Report:
    kp = _single_pair(req)
    chart = req.options.get("chart", "parallel1")
    coords = req.options["coords"]
    payload = _base_payload(req)
    row = {"k1": kp.k1, "k2": kp.k2, "chart": chart, "coords": list(coords)}
    try:
        p = _parse_point(chart, coords)
        m = metric_main(kp, p)
        row.update({"g11": m.g11, "g12": m.g12, "g22": m.g22})
        row["determinant"] = m.g11 * m.g22 - m.g12 * m.g12
        if kp.k2 == 0.0:
            sub = metric_subsidiary(kp, p)
            row.update({"sub_g11": sub.g11, "sub_g12": sub.g12, "sub_g22": sub.g22})
    except GeometryError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    payload["metric"] = row
    return Report(payload, [row], True)


def _cmd_curvature(req: ReportRequest) -> Report:
    kp = _single_pair(req)
    coords = req.options["coords"]
    payload = _base_payload(req)
    tol = _tol(req, "geometry_curvature")
    row = {"k1": kp.k1, "k2": kp.k2, "coords": list(coords), "tolerance": tol}
    passed = True
    try:
        p = _parse_point(req.options.get("chart", "parallel1"), coords)
        value = gaussian_curvature(kp, p)
        row["curvature"] = value
        row["expected"] = kp.k1
        row["defect"] = abs(value - kp.k1)
        passed = row["defect"] <= tol
        row["passed"] = passed
    except GeometryError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    payload["curvature"] = row
    return Report(payload, [row], passed)


def _cmd_duality(req: ReportRequest) -> Report:
    kp = _single_pair(req)
    wanted = req.options.get("name")
    names = [DualityName(wanted)] if wanted else list(DUALITIES)
    payload = _base_payload(req)
    tol = _tol(req, "duality_morphism")
    rows = []
    passed = True
    rng = np.random.default_rng(req.sweep.seed)
    for name in names:
        row = {"k1": kp.k1, "k2": kp.k2, "duality": name.value, "tolerance": tol}
        try:
            kpd = duality_kappa(name, kp)
            m = duality_matrix(name, kp)
            row["target_k1"] = kpd.k1
            row["target_k2"] = kpd.k2
            row["matrix"] = [list(map(float, r)) for r in m]
            worst = 0.0
            for _ in range(req.sweep.sample_count):
                x = AlgebraElement(*rng.uniform(-2, 2, 3))
                y = AlgebraElement(*rng.uniform(-2, 2, 3))
                lhs = m @ bracket(kpd, x, y).as_array()
                rhs = bracket(
                    kp,
                    AlgebraElement(*(m @ x.as_array())),
                    AlgebraElement(*(m @ y.as_array())),
                ).as_array()
                worst = max(worst, float(np.abs(lhs - rhs).max()))
            row["morphism_defect"] = worst
            row["passed"] = worst <= tol
            passed = passed and row["passed"]
        except UndefinedDualityError as exc:
            row["error"] = f"UndefinedDualityError: {exc}"
        rows.append(row)
    payload["dualities"] = rows
    return Report(payload, rows, passed)


def _cmd_bialgebra(req: ReportRequest) -> Report:
    payload = _base_payload(req)
    kinds = _selected_kinds(req)
    tol = _tol(req, "bialgebra_cocycle")
    rows = []
    passed = True
    for kp in req.sweep.kappa_grid:
        for z in req.sweep.z_values:
            for kind in kinds:
                cm = cocommutator_map(kp, rmatrix(kind, z))
                rep = bialgebra_check(kp, cm)
                verdicts = {
                    gen: coisotropy_check(kp, cm, gen).value
                    for gen in GENERATOR_NAMES
                }
                ok = rep.cocycle_defect <= tol and rep.dual_jacobi_defect <= tol
                passed = passed and ok
                rows.append(
                    {
                        "k1": kp.k1,
                        "k2": kp.k2,
                        "z": z,
                        "kind": kind.value,
                        "cocycle_defect": rep.cocycle_defect,
                        "dual_jacobi_defect": rep.dual_jacobi_defect,
                        "tolerance": tol,
                        "coisotropy_J01": verdicts["J01"],
                        "coisotropy_J02": verdicts["J02"],
                        "coisotropy_J12": verdicts["J12"],
                        "passed": ok,
                    }
                )
    payload["bialgebra"] = rows
    return Report(payload, rows, passed)


def _cmd_ybe(req: ReportRequest) -> Report:
    payload = _base_payload(req)
    kinds = _selected_kinds(req)
    tol = _tol(req, "bialgebra_mcybe")
    rows = []
    passed = True
    for kp in req.sweep.kappa_grid:
        for z in req.sweep.z_values:
            for kind in kinds:
                r = rmatrix(kind, z)
                coeff = schouten(kp, r).coefficient
                expected = z * z * kp.k2 if kind is DeformationKind.FIRST_KIND else z * z
                defect = mcybe_defect(kp, r)
                ok = defect <= tol and abs(coeff - expected) <= tol
                passed = passed and ok
                rows.append(
                    {
                        "k1": kp.k1,
                        "k2": kp.k2,
                        "z": z,
                        "kind": kind.value,
                        "schouten_coefficient": coeff,
                        "schouten_expected": expected,
                        "mcybe_defect": defect,
                        "tolerance": tol,
                        "passed": ok,
                    }
                )
    payload["ybe"] = rows
    return Report(payload, rows, passed)


def _cmd_sklyanin(req: ReportRequest) -> Report:
    payload = _base_payload(req)
    tol = _tol(req, "sklyanin_closed_vs_numeric")
    rows = []
    passed = True
    pairs = (("a1", "a2"), ("a1", "xi"), ("a2", "xi"))
    for kp in req.sweep.kappa_grid:
        for z in req.sweep.z_values:
            r = rmatrix(DeformationKind.FIRST_KIND, z)
            rng = np.random.default_rng([req.sweep.seed, hash((kp.k1, kp.k2)) % (2**32)])
            worst = 0.0
            errors = 0
            for _ in range(req.sweep.sample_count):
                gc = sample_group_coords(rng, kp, 0.35)
                try:
                    iv = invariant_fields_numeric(kp, gc)
                except GeometryError:
                    errors += len(pairs)  # every pair at this point needs the fields
                    continue
                for pair in pairs:
                    try:
                        closed = sklyanin_closed(kp, z, pair, gc)
                        numeric = sklyanin_numeric(kp, r, pair[0], pair[1], gc, fields=iv)
                    except GeometryError:
                        errors += 1
                        continue
                    worst = max(worst, abs(closed - numeric))
            ok = worst <= tol
            passed = passed and ok
            rows.append(
                {
                    "k1": kp.k1,
                    "k2": kp.k2,
                    "z": z,
                    "max_defect": worst,
                    "tolerance": tol,
                    "domain_errors": errors,
                    "passed": ok,
                }
            )
    payload["sklyanin"] = rows
    return Report(payload, rows, passed)


def _cmd_phs(req: ReportRequest) -> Report:
    payload = _base_payload(req)
    kind = _KIND_FLAGS[req.options.get("kind", "first")]
    a1 = req.options.get("a1", 0.0)
    a2 = req.options.get("a2", 0.0)
    rows = []
    for kp in req.sweep.kappa_grid:
        for z in req.sweep.z_values:
            row = {"k1": kp.k1, "k2": kp.k2, "z": z, "kind": kind.value, "a1": a1, "a2": a2}
            try:
                row["bracket"] = phs_points_bracket(kp, z, kind, a1, a2)
            except GeometryError as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    payload["phs"] = rows
    return Report(payload, rows, True)


def _cmd_coproduct(req: ReportRequest) -> Report:
    payload = _base_payload(req)
    rel_tol = _tol(req, "quantum_relations")
    co_tol = _tol(req, "quantum_coassociativity")
    rows = []
    passed = True
    for kp in req.sweep.kappa_grid:
        for z in req.sweep.z_values:
            row = {"k1": kp.k1, "k2": kp.k2, "z": z}
            try:
                row["relation_defect"] = deformed_relation_defect(kp, z)
                row["coassociativity_defect"] = coassociativity_defect(kp, z)
                row["relation_tolerance"] = rel_tol
                row["coassociativity_tolerance"] = co_tol
                ok = (
                    row["relation_defect"] <= rel_tol
                    and row["coassociativity_defect"] <= co_tol
                )
                row["passed"] = ok
                passed = passed and ok
            except (ValueError, ProjectionError, GeometryError) as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
                passed = False
            rows.append(row)
    payload["coproduct"] = rows
    return Report(payload, rows, passed)


def _cmd_sweep_all(req: ReportRequest) -> Report:
    payload = _base_payload(req)
    results = run_all(req.sweep)
    rows = []
    for r in results:
        rows.append(
            {
                "suite": r.suite,
                "name": r.name,
                "max_defect": r.max_defect,
                "tolerance": r.tolerance,
                "passed": r.passed,
                "samples": r.samples,
                "detail": r.detail,
            }
        )
    payload["checks"] = rows
    payload["suites"] = suite_summary(results)
    payload["passed"] = all(r.passed for r in results)
    return Report(payload, rows, bool(payload["passed"]))


def _beltrami(kp: KappaPair, p) -> tuple[float, float]:
    s = to_ambient(kp, p)
    if abs(s.s0) < 1e-12:
        raise ProjectionError("projection plane s0 = 1 unreachable from s0 = 0")
    return s.s1 / s.s0, s.s2 / s.s0


def _span_bound(label: float, span: float) -> float:
    """Half-width of the coordinate window: span is a fraction of the half
    period for compact directions, a plain unit for unbounded ones.  Spans
    past the chart boundary are allowed; samples beyond it become rows
    flagged as truncation points."""
    if label > 1e-12:
        return span * ktrig.half_period(label)
    return 2.0 * span


def _geodesic_families(kp: KappaPair, chart: str, lines: int, span: float):
    if chart == "parallel1":
        b1, b2 = _span_bound(kp.k1, span), _span_bound(kp.k12, span)
        make = lambda u, v: ParallelI(u, v)
    elif chart == "parallel2":
        b1, b2 = _span_bound(kp.k1, span), _span_bound(kp.k12, span)
        make = lambda u, v: ParallelII(u, v)
    elif chart == "polar":
        b1, b2 = _span_bound(kp.k1, span), _span_bound(kp.k2, span)
        make = lambda u, v: Polar(u, v)
    else:
        raise ConfigError(f"chart {chart!r} has no coordinate lines, expected one of "
                          "('parallel1', 'parallel2', 'polar')")
    if chart == "polar":
        # radial coordinate is nonnegative; rays fan out from the origin
        consts1 = np.linspace(b1 / lines, b1, lines)
        line1_lo = 0.0
    else:
        consts1 = np.linspace(-b1, b1, lines)
        line1_lo = -b1
    consts2 = np.linspace(-b2, b2, lines)
    families = []
    for c in consts2:
        families.append((f"{chart}:line1:{c:+.3f}", lambda t, c=c: make(t, c), line1_lo, b1))
    for c in consts1:
        families.append((f"{chart}:line2:{c:+.3f}", lambda t, c=c: make(c, t), -b2, b2))
    return families


def _cmd_export_geodesics(req: ReportRequest) -> Report:
    kp = _single_pair(req)
    chart = req.options.get("chart", "parallel1")
    n = req.options.get("points", 64)
    lines = req.options.get("lines", 5)
    span = req.options.get("span", 0.45)
    if n < 2:
        raise ConfigError(f"need at least 2 points per line, got {n}")
    if lines < 1:
        raise ConfigError(f"need at least one coordinate line, got {lines}")
    payload = _base_payload(req)
    rows = []
    for family, make, lo, hi in _geodesic_families(kp, chart, lines, span):
        for t in np.linspace(lo, hi, n):
            row = {"family": family, "t": float(t)}
            try:
                b1, b2 = _beltrami(kp, make(float(t)))
                row["beltrami1"] = b1
                row["beltrami2"] = b2
                row["truncated"] = False
            except (ChartDomainError, PoleError, ProjectionError):
                row["beltrami1"] = ""
                row["beltrami2"] = ""
                row["truncated"] = True
            rows.append(row)
    payload["chart"] = chart
    payload["points"] = rows
    return Report(payload, rows, True)


def _selected_kinds(req: ReportRequest) -> tuple[DeformationKind, ...]:
    kind = req.options.get("kind", "both")
    if kind == "both":
        return (DeformationKind.FIRST_KIND, DeformationKind.SECOND_KIND)
    return (_KIND_FLAGS[kind],)


_HANDLERS: dict[str, Callable[[ReportRequest], Report]] = {
    "classify": _cmd_classify,
    "bracket": _cmd_bracket,
    "convert": _cmd_convert,
    "metric": _cmd_metric,
    "curvature": _cmd_curvature,
    "duality": _cmd_duality,
    "bialgebra": _cmd_bialgebra,
    "ybe": _cmd_ybe,
    "sklyanin": _cmd_sklyanin,
    "phs": _cmd_phs,
    "coproduct": _cmd_coproduct,
    "sweep-all": _cmd_sweep_all,
    "export-geodesics": _cmd_export_geodesics,
}


def run_report(command: str, req: ReportRequest) -> tuple[int, str]:
    """Execute one subcommand and serialize its report.

    Returns (exit status, rendered text).  Domain errors inside single
    evaluations become report entries; configuration problems raise
    ConfigError for the caller to map to exit status 2.
    """
    handler = _HANDLERS.get(command)
    if handler is None:
        raise ConfigError(f"unknown subcommand {command!r}")
    report = handler(req)
    text = render_json(report) if req.output_format == "json" else render_csv(report)
    return (0 if report.passed else 1), text


# --- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckgeom",
        description="Verifiable computations on the nine two-dimensional "
        "constant-curvature planes and their Poisson and quantum deformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, grid_default: bool) -> None:
        p.add_argument("--k1", type=float, action="append", help="first curvature label (repeatable)")
        p.add_argument("--k2", type=float, action="append", help="second curvature label (repeatable)")
        if grid_default:
            p.add_argument("--grid", choices=["normalized9"], help="named kappa grid")
        p.add_argument("--z", type=float, action="append", help="deformation parameter (repeatable)")
        p.add_argument("--samples", type=int, default=20, help="sample count per check")
        p.add_argument("--seed", type=int, default=0, help="random stream seed")
        p.add_argument("--format", choices=["json", "csv"], default="json", dest="output_format")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    for name in ("classify", "bracket", "bialgebra", "ybe", "sklyanin", "phs", "coproduct", "sweep-all"):
        p = sub.add_parser(name)
        common(p, grid_default=True)
        if name in ("bialgebra", "ybe"):
            p.add_argument("--kind", choices=["first", "second", "both"], default="both")
        if name == "phs":
            p.add_argument("--kind", choices=["first", "second"], default="first")
            p.add_argument("--a1", type=float, default=0.0)
            p.add_argument("--a2", type=float, default=0.0)

    for name in ("convert", "metric", "curvature", "duality", "export-geodesics"):
        p = sub.add_parser(name)
        common(p, grid_default=False)
        if name == "convert":
            p.add_argument("--from", dest="source_chart", choices=CHART_NAMES, required=True)
            p.add_argument("--to", dest="target_chart", choices=CHART_NAMES, required=True)
            p.add_argument("--coords", required=True, help="comma-separated source coordinates")
        if name == "metric":
            p.add_argument("--chart", choices=CHART_NAMES, default="parallel1")
            p.add_argument("--coords", required=True)
        if name == "curvature":
            p.add_argument("--chart", choices=CHART_NAMES, default="parallel1")
            p.add_argument("--coords", required=True)
        if name == "duality":
            p.add_argument("--name", choices=[d.value for d in DUALITIES])
        if name == "export-geodesics":
            p.add_argument("--chart", choices=["parallel1", "parallel2", "polar"], default="parallel1")
            p.add_argument("--points", type=int, default=64, help="samples per coordinate line")
            p.add_argument("--lines", type=int, default=5, help="coordinate lines per family")
            p.add_argument("--span", type=float, default=0.45, help="fraction of the quarter period to cover")
    return parser


def _extract_tolerances(extras: list[str]) -> dict[str, float]:
    tolerances: dict[str, float] = {}
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--tol-"):
            raise ConfigError(f"unrecognized argument {token!r}")
        if "=" in token:
            flag, raw = token.split("=", 1)
            i += 1
        else:
            flag = token
            if i + 1 >= len(extras):
                raise ConfigError(f"flag {flag!r} needs a value")
            raw = extras[i + 1]
            i += 2
        name = flag[len("--tol-"):].replace("-", "_")
        if name not in CHECK_NAMES:
            raise ConfigError(f"unknown check name in {flag!r}")
        try:
            tolerances[name] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value {raw!r} for {flag!r}") from exc
    return tolerances


def _resolve_grid(args: argparse.Namespace) -> tuple[KappaPair, ...]:
    k1s = args.k1 or []
    k2s = args.k2 or []
    named = getattr(args, "grid", None)
    if named:
        if k1s or k2s:
            raise ConfigError("give either --grid or explicit --k1/--k2 values, not both")
        return kappa_grid_from_name(named)
    if k1s or k2s:
        if len(k1s) != len(k2s):
            raise ConfigError(f"--k1 given {len(k1s)} times but --k2 {len(k2s)} times")
        return tuple(KappaPair(a, b) for a, b in zip(k1s, k2s))
    if args.command in ("sweep-all", "classify", "bracket", "bialgebra", "ybe", "sklyanin", "phs", "coproduct"):
        return kappa_grid_from_name("normalized9")
    raise ConfigError(f"{args.command} needs --k1 and --k2")


def _parse_coords(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad coordinate list {raw!r}") from exc


def _request_from_args(args: argparse.Namespace, tolerances: dict[str, float]) -> ReportRequest:
    grid = _resolve_grid(args)
    zs = tuple(args.z) if args.z else (0.1,)
    sweep = SweepConfig(
        kappa_grid=grid,
        z_values=zs,
        sample_count=args.samples,
        seed=args.seed,
        tolerances=tolerances,
    ).validated()
    options: dict = {}
    for key in ("source_chart", "target_chart", "chart", "name", "kind", "a1", "a2", "points", "lines", "span"):
        if hasattr(args, key) and getattr(args, key) is not None:
            options[key] = getattr(args, key)
    if hasattr(args, "coords"):
        options["coords"] = _parse_coords(args.coords)
    return ReportRequest(
        command=args.command,
        sweep=sweep,
        output_format=args.output_format,
        out_path=args.out,
        options=options,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        tolerances = _extract_tolerances(list(extras))
        req = _request_from_args(args, tolerances)
        status, text = run_report(args.command, req)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if req.out_path:
        with open(req.out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def entrypoint() -> None:
    raise SystemExit(main())
