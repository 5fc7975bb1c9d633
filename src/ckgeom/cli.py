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
import functools
import io
import json
import math
import struct
import sys
from dataclasses import astuple, dataclass, field, fields
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
    KAPPA_GRID_NAMES,
    SCHOUTEN_COEFFICIENTS,
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
    ConfigError,
    GeometryError,
    ProjectionError,
    UndefinedDualityError,
)
from .poisson import (
    GROUP_COORD_PAIRS,
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
    CHARTS,
    from_ambient,
    gaussian_curvature,
    metric_main,
    metric_subsidiary,
    to_ambient,
    to_ambient_batch,
)

SCHEMA_VERSION = 1

# subcommands that run on the normalized9 grid when no --k1/--k2 is given
_GRID_COMMANDS = ("classify", "bracket", "bialgebra", "ybe", "sklyanin", "phs", "coproduct", "sweep-all")

_KIND_FLAGS = {"first": DeformationKind.FIRST_KIND, "second": DeformationKind.SECOND_KIND}

# the two-coordinate charts, the ones with coordinate lines
_LINE_CHARTS = tuple(name for name in CHARTS if name != "ambient")


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


# csv.writer spells cells of these types as _clean would: str as is, int
# by str and float by repr, which gives nan, inf and -inf
_CSV_PLAIN = frozenset((str, int, float))


def _csv_cell(value):
    """A cell of any other type: bools as true/false, numpy scalars as their
    Python values, containers through _clean."""
    value = _clean(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


def render_csv(report: Report) -> str:
    if not report.rows:
        return ""
    header = list(report.rows[0])
    blanks = [""] * len(header)  # a key a row lacks is an empty cell
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [v if type(v) in _CSV_PLAIN else _csv_cell(v) for v in map(row.get, header, blanks)]
        for row in report.rows
    )
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


def _single_pair(req: ReportRequest) -> KappaPair:
    if len(req.sweep.kappa_grid) != 1:
        raise ConfigError(f"{req.command} needs exactly one kappa pair, got {len(req.sweep.kappa_grid)}")
    return req.sweep.kappa_grid[0]


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
    make = CHARTS[chart]
    count = len(fields(make))
    if len(coords) != count:
        raise ConfigError(f"{chart} chart needs {('two', 'three')[count - 2]} coordinates")
    return make(*coords)


def _cmd_convert(req: ReportRequest) -> Report:
    kp = _single_pair(req)
    source = req.options["source_chart"]
    target = req.options["target_chart"]
    coords = req.options["coords"]
    payload = _base_payload(req)
    row = {"k1": kp.k1, "k2": kp.k2, "source": source, "target": target}
    try:
        p = _parse_point(source, coords)
        ambient = to_ambient(kp, p)
        out = from_ambient(kp, ambient, target)
        row["ambient"] = list(ambient.as_array())
        row["coords_in"] = list(coords)
        row["coords_out"] = astuple(out)
        back = from_ambient(kp, to_ambient(kp, out), source)
        row["roundtrip_defect"] = max(abs(a - b) for a, b in zip(astuple(back), astuple(p)))
    except GeometryError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    payload["conversion"] = row
    return Report(payload, [row], True)


def _cmd_metric(req: ReportRequest) -> Report:
    kp = _single_pair(req)
    chart = req.options["chart"]
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
    tol = req.sweep.tolerance_for("geometry_curvature")
    row = {"k1": kp.k1, "k2": kp.k2, "coords": list(coords), "tolerance": tol}
    passed = True
    try:
        p = _parse_point(req.options["chart"], coords)
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
    wanted = req.options["name"]
    names = [DualityName(wanted)] if wanted else list(DUALITIES)
    payload = _base_payload(req)
    tol = req.sweep.tolerance_for("duality_morphism")
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
    tol = req.sweep.tolerance_for("bialgebra_cocycle")
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
    tol = req.sweep.tolerance_for("bialgebra_mcybe")
    rows = []
    passed = True
    for kp in req.sweep.kappa_grid:
        for z in req.sweep.z_values:
            for kind in kinds:
                r = rmatrix(kind, z)
                coeff = schouten(kp, r).coefficient
                expected = SCHOUTEN_COEFFICIENTS[kind](kp, z)
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
    tol = req.sweep.tolerance_for("sklyanin_closed_vs_numeric")
    rows = []
    passed = True
    for kp in req.sweep.kappa_grid:
        for z in req.sweep.z_values:
            r = rmatrix(DeformationKind.FIRST_KIND, z)
            # the bit patterns of the labels; + 0.0 folds -0.0 into 0.0
            label_bits = struct.unpack("<2Q", struct.pack("<2d", kp.k1 + 0.0, kp.k2 + 0.0))
            rng = np.random.default_rng([req.sweep.seed, *label_bits])
            worst = 0.0
            errors = 0
            for _ in range(req.sweep.sample_count):
                gc = sample_group_coords(rng, kp, 0.35)
                try:
                    iv = invariant_fields_numeric(kp, gc)
                except GeometryError:
                    errors += len(GROUP_COORD_PAIRS)  # every pair at this point needs the fields
                    continue
                for pair in GROUP_COORD_PAIRS:
                    try:
                        closed = sklyanin_closed(kp, z, pair, gc)
                        numeric = sklyanin_numeric(r, pair[0], pair[1], iv)
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
    kind = _KIND_FLAGS[req.options["kind"]]
    a1 = req.options["a1"]
    a2 = req.options["a2"]
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
    rel_tol = req.sweep.tolerance_for("quantum_relations")
    co_tol = req.sweep.tolerance_for("quantum_coassociativity")
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


def _span_bound(label: float, span: float) -> float:
    """Half-width of the coordinate window: span is a fraction of the half
    period for compact directions and of 2 units for unbounded ones.  Spans
    past the chart boundary are allowed; samples beyond it become rows
    flagged as truncation points."""
    if label > 1e-12:
        return span * ktrig.half_period(label)
    return 2.0 * span


def _cmd_export_geodesics(req: ReportRequest) -> Report:
    kp = _single_pair(req)
    chart = req.options["chart"]
    n = req.options["points"]
    lines = req.options["lines"]
    span = req.options["span"]
    if n < 2:
        raise ConfigError(f"need at least 2 points per line, got {n}")
    if lines < 1:
        raise ConfigError(f"need at least one coordinate line, got {lines}")
    if chart not in _LINE_CHARTS:
        raise ConfigError(f"chart {chart!r} has no coordinate lines, expected one of {_LINE_CHARTS}")
    payload = _base_payload(req)
    b1 = _span_bound(kp.k1, span)
    b2 = _span_bound(kp.k2 if chart == "polar" else kp.k12, span)
    if chart == "polar":
        # radial coordinate is nonnegative; rays fan out from the origin
        consts1 = np.linspace(b1 / lines, b1, lines)
        lo1 = 0.0
    else:
        consts1 = np.linspace(-b1, b1, lines)
        lo1 = -b1
    t1, t2 = np.linspace(lo1, b1, n), np.linspace(-b2, b2, n)
    # line1 runs the first coordinate at a constant second one; line2 the reverse
    coordinate_lines = [("line1", c, t1, (t1, c)) for c in np.linspace(-b2, b2, lines)]
    coordinate_lines += [("line2", c, t2, (c, t2)) for c in consts1]
    rows = []
    for family, c, t, coords in coordinate_lines:
        s, inside = to_ambient_batch(kp, chart, *coords)
        # the projection plane s0 = 1 is unreachable from s0 = 0
        kept = inside & (np.abs(s[0]) >= 1e-12)
        with np.errstate(divide="ignore", invalid="ignore"):
            beltrami = s[1:] / s[0]
        label = f"{chart}:{family}:{c:+.3f}"
        for ti, ok, u, v in zip(t.tolist(), kept.tolist(), *beltrami.tolist()):
            rows.append(
                {
                    "family": label,
                    "t": ti,
                    "beltrami1": u if ok else "",
                    "beltrami2": v if ok else "",
                    "truncated": not ok,
                }
            )
    payload["chart"] = chart
    payload["points"] = rows
    return Report(payload, rows, True)


def _selected_kinds(req: ReportRequest) -> tuple[DeformationKind, ...]:
    kind = req.options["kind"]
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


@functools.cache
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
            p.add_argument("--grid", choices=KAPPA_GRID_NAMES, help="named kappa grid")
        p.add_argument("--z", type=float, action="append", help="deformation parameter (repeatable)")
        p.add_argument("--samples", type=int, default=20, help="sample count per check")
        p.add_argument("--seed", type=int, default=0, help="random stream seed")
        p.add_argument("--format", choices=["json", "csv"], default="json", dest="output_format")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    for name in _GRID_COMMANDS:
        p = sub.add_parser(name)
        common(p, grid_default=True)
        if name in ("bialgebra", "ybe"):
            p.add_argument("--kind", choices=["first", "second", "both"], default="both")
        if name == "phs":
            p.add_argument("--kind", choices=["first", "second"], default="first")
            p.add_argument("--a1", type=float, default=0.0)
            p.add_argument("--a2", type=float, default=0.0)

    for name in [cmd for cmd in _HANDLERS if cmd not in _GRID_COMMANDS]:
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
            p.add_argument("--chart", choices=_LINE_CHARTS, default="parallel1")
            p.add_argument("--points", type=int, default=64, help="samples per coordinate line")
            p.add_argument("--lines", type=int, default=5, help="coordinate lines per family")
            p.add_argument(
                "--span",
                type=float,
                default=0.45,
                help="half-width of each line: a fraction of the half period pi/sqrt(kappa) "
                "of a compact direction, or of 2 units of an unbounded one",
            )
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
    if args.command in _GRID_COMMANDS:
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
    # every subcommand option argparse defined, None included; argparse holds the defaults
    options = {
        key: getattr(args, key)
        for key in ("source_chart", "target_chart", "chart", "name", "kind", "a1", "a2", "points", "lines", "span")
        if hasattr(args, key)
    }
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
