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
from dataclasses import astuple, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    BASIS,
    GENERATOR_NAMES,
    KappaPair,
    bracket,
    casimir_coeffs,
    classify,
)
from .checks import (
    DEFAULT_TOLERANCES,
    KAPPA_GRID_NAMES,
    SCHOUTEN_COEFFICIENTS,
    SweepConfig,
    duality_morphism_defects,
    kappa_grid_from_name,
    run_all,
    sample_group_coords,
    sklyanin_pair_defects,
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
    UndefinedDualityError,
)
from .ktrig import span_bound
from .poisson import (
    _PAIRS,
    GROUP_COORD_PAIRS,
    DeformationKind,
    bialgebra_check,
    cocommutator_map,
    coisotropy_check,
    mcybe_defect,
    phs_points_bracket,
    rmatrix,
    schouten,
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

SCHEMA_VERSION = 2

# subcommands that run on the normalized9 grid when no --k1/--k2 is given
_GRID_COMMANDS = ("classify", "bracket", "bialgebra", "ybe", "sklyanin", "phs", "coproduct", "sweep-all")

# the two-coordinate charts, the ones with coordinate lines
_LINE_CHARTS = tuple(name for name in CHARTS if name != "ambient")


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


def _base_payload(args: argparse.Namespace, sweep: SweepConfig) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "config": {
            "kappa_grid": [[kp.k1, kp.k2] for kp in sweep.kappa_grid],
            "z_values": list(sweep.z_values),
            "sample_count": sweep.sample_count,
            "seed": sweep.seed,
        },
    }


def _single_pair(args: argparse.Namespace, sweep: SweepConfig) -> KappaPair:
    if len(sweep.kappa_grid) != 1:
        raise ConfigError(f"{args.command} needs exactly one kappa pair, got {len(sweep.kappa_grid)}")
    return sweep.kappa_grid[0]


# --- subcommand implementations ----------------------------------------------


def _cmd_classify(args: argparse.Namespace, sweep: SweepConfig) -> Report:
    payload = _base_payload(args, sweep)
    entries = []
    for kp in sweep.kappa_grid:
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


def _cmd_bracket(args: argparse.Namespace, sweep: SweepConfig) -> Report:
    payload = _base_payload(args, sweep)
    rows = []
    for kp in sweep.kappa_grid:
        for i, j in _PAIRS:
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
        f"({kp.k1:g},{kp.k2:g})": list(casimir_coeffs(kp)) for kp in sweep.kappa_grid
    }
    return Report(payload, rows, True)


def _parse_point(chart: str, coords: Sequence[float]):
    make = CHARTS[chart]
    count = len(fields(make))
    if len(coords) != count:
        raise ConfigError(f"{chart} chart needs {('two', 'three')[count - 2]} coordinates")
    return make(*coords)


def _cmd_convert(args: argparse.Namespace, sweep: SweepConfig) -> Report:
    kp = _single_pair(args, sweep)
    source = args.source_chart
    target = args.target_chart
    coords = _parse_coords(args.coords)
    payload = _base_payload(args, sweep)
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


def _cmd_metric(args: argparse.Namespace, sweep: SweepConfig) -> Report:
    kp = _single_pair(args, sweep)
    chart = args.chart
    coords = _parse_coords(args.coords)
    payload = _base_payload(args, sweep)
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


def _cmd_curvature(args: argparse.Namespace, sweep: SweepConfig) -> Report:
    kp = _single_pair(args, sweep)
    coords = _parse_coords(args.coords)
    payload = _base_payload(args, sweep)
    tol = DEFAULT_TOLERANCES["geometry_curvature"]
    row = {"k1": kp.k1, "k2": kp.k2, "coords": list(coords), "tolerance": tol}
    passed = True
    try:
        p = _parse_point(args.chart, coords)
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


def _cmd_duality(args: argparse.Namespace, sweep: SweepConfig) -> Report:
    kp = _single_pair(args, sweep)
    wanted = args.name
    names = [DualityName(wanted)] if wanted else list(DUALITIES)
    payload = _base_payload(args, sweep)
    tol = DEFAULT_TOLERANCES["duality_morphism"]
    rows = []
    passed = True
    rng = np.random.default_rng(sweep.seed)
    for name in names:
        row = {"k1": kp.k1, "k2": kp.k2, "duality": name.value, "tolerance": tol}
        try:
            kpd = duality_kappa(name, kp)
            m = duality_matrix(name, kp)
            row["target_k1"] = kpd.k1
            row["target_k2"] = kpd.k2
            row["matrix"] = [list(map(float, r)) for r in m]
            worst = functools.reduce(max, duality_morphism_defects(kp, kpd, m, rng, sweep.sample_count), 0.0)
            row["morphism_defect"] = worst
            row["passed"] = worst <= tol
            passed = passed and row["passed"]
        except UndefinedDualityError as exc:
            row["error"] = f"UndefinedDualityError: {exc}"
        rows.append(row)
    payload["dualities"] = rows
    return Report(payload, rows, passed)


def _cmd_bialgebra(args: argparse.Namespace, sweep: SweepConfig) -> Report:
    payload = _base_payload(args, sweep)
    kinds = tuple(DeformationKind) if args.kind == "both" else (DeformationKind(args.kind),)
    tol = DEFAULT_TOLERANCES["bialgebra_cocycle"]
    jacobi_tol = DEFAULT_TOLERANCES["bialgebra_dual_jacobi"]
    rows = []
    passed = True
    for kp in sweep.kappa_grid:
        for z in sweep.z_values:
            for kind in kinds:
                cm = cocommutator_map(kp, rmatrix(kind, z))
                rep = bialgebra_check(kp, cm)
                verdicts = {
                    gen: coisotropy_check(kp, cm, gen).value
                    for gen in GENERATOR_NAMES
                }
                ok = rep.cocycle_defect <= tol and rep.dual_jacobi_defect <= jacobi_tol
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


def _cmd_ybe(args: argparse.Namespace, sweep: SweepConfig) -> Report:
    payload = _base_payload(args, sweep)
    kinds = tuple(DeformationKind) if args.kind == "both" else (DeformationKind(args.kind),)
    tol = DEFAULT_TOLERANCES["bialgebra_mcybe"]
    schouten_tol = DEFAULT_TOLERANCES["bialgebra_schouten"]
    rows = []
    passed = True
    for kp in sweep.kappa_grid:
        for z in sweep.z_values:
            for kind in kinds:
                r = rmatrix(kind, z)
                coeff = schouten(kp, r).coefficient
                expected = SCHOUTEN_COEFFICIENTS[kind](kp, z)
                defect = mcybe_defect(kp, r)
                ok = defect <= tol and abs(coeff - expected) <= schouten_tol
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


def _cmd_sklyanin(args: argparse.Namespace, sweep: SweepConfig) -> Report:
    payload = _base_payload(args, sweep)
    tol = DEFAULT_TOLERANCES["sklyanin_closed_vs_numeric"]
    rows = []
    passed = True
    for kp in sweep.kappa_grid:
        for z in sweep.z_values:
            r = rmatrix(DeformationKind.FIRST_KIND, z)
            # the bit patterns of the labels; + 0.0 folds -0.0 into 0.0
            label_bits = struct.unpack("<2Q", struct.pack("<2d", kp.k1 + 0.0, kp.k2 + 0.0))
            rng = np.random.default_rng([sweep.seed, *label_bits])
            worst = 0.0
            errors = 0
            for _ in range(sweep.sample_count):
                gc = sample_group_coords(rng, kp, 0.35)
                try:
                    defects = sklyanin_pair_defects(kp, z, r, gc)
                except GeometryError:
                    errors += len(GROUP_COORD_PAIRS)  # every pair at this point needs the fields
                    continue
                errors += defects.count(None)
                worst = functools.reduce(max, (d for d in defects if d is not None), worst)
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


def _cmd_phs(args: argparse.Namespace, sweep: SweepConfig) -> Report:
    payload = _base_payload(args, sweep)
    kind = DeformationKind(args.kind)
    a1 = args.a1
    a2 = args.a2
    rows = []
    for kp in sweep.kappa_grid:
        for z in sweep.z_values:
            row = {"k1": kp.k1, "k2": kp.k2, "z": z, "kind": kind.value, "a1": a1, "a2": a2}
            try:
                row["bracket"] = phs_points_bracket(kp, z, kind, a1, a2)
            except GeometryError as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    payload["phs"] = rows
    return Report(payload, rows, True)


def _cmd_coproduct(args: argparse.Namespace, sweep: SweepConfig) -> Report:
    payload = _base_payload(args, sweep)
    rel_tol = DEFAULT_TOLERANCES["quantum_relations"]
    co_tol = DEFAULT_TOLERANCES["quantum_coassociativity"]
    rows = []
    passed = True
    for kp in sweep.kappa_grid:
        for z in sweep.z_values:
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
            except (ValueError, GeometryError) as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
                passed = False
            rows.append(row)
    payload["coproduct"] = rows
    return Report(payload, rows, passed)


def _cmd_sweep_all(args: argparse.Namespace, sweep: SweepConfig) -> Report:
    payload = _base_payload(args, sweep)
    results = run_all(sweep)
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


def _cmd_export_geodesics(args: argparse.Namespace, sweep: SweepConfig) -> Report:
    kp = _single_pair(args, sweep)
    chart = args.chart
    n = args.points
    lines = args.lines
    span = args.span
    if n < 2:
        raise ConfigError(f"need at least 2 points per line, got {n}")
    if lines < 1:
        raise ConfigError(f"need at least one coordinate line, got {lines}")
    if not (math.isfinite(span) and span > 0.0):
        raise ConfigError(f"span must be a finite positive number, got {span!r}")
    if chart not in _LINE_CHARTS:
        raise ConfigError(f"chart {chart!r} has no coordinate lines, expected one of {_LINE_CHARTS}")
    payload = _base_payload(args, sweep)
    # windows may pass the chart boundary; samples beyond it become truncation rows
    b1 = span_bound(kp.k1, span)
    b2 = span_bound(kp.k2 if chart == "polar" else kp.k12, span)
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


_HANDLERS: dict[str, Callable[[argparse.Namespace, SweepConfig], Report]] = {
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


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and write its report.

    Returns the exit status.  Domain errors inside single evaluations become
    report entries; a ConfigError becomes exit status 2, as argparse's own
    usage errors do.
    """
    args = _build_parser().parse_args(argv)
    try:
        sweep = SweepConfig(
            kappa_grid=_resolve_grid(args),
            z_values=tuple(args.z) if args.z else (0.1,),
            sample_count=args.samples,
            seed=args.seed,
        ).validated()
        report = _HANDLERS[args.command](args, sweep)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    text = render_json(report) if args.output_format == "json" else render_csv(report)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def entrypoint() -> None:
    raise SystemExit(main())
