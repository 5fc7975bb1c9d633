"""Command-line front end.

Subcommands cover single-geometry reports (classify, bracket, convert,
metric, curvature, duality, bialgebra, ybe, sklyanin, phs, coproduct),
the full verification sweep (sweep-all) and plot-ready exports of chart
coordinate lines (export-geodesics).

A handler returns only its command's payload entries, one of which holds
its report rows: a list of dicts, or one dict for a single-row command.
main adds the envelope (schema, command and config) and writes the report:
JSON writes the whole payload, CSV the rows.

Reports are deterministic for a fixed seed and configuration: no
timestamps, sorted keys, repr-exact floats.  Exit status is 1 exactly when
some report row has a false `passed`, 2 for configuration errors and 0
otherwise.  A configuration error is an argument that no evaluation could
accept: a label, coordinate or PHS point that is not a finite number, a
coordinate list of the wrong length for its chart, a negative seed.  It is
raised before any evaluation; a domain error of an evaluation at valid
arguments becomes an `error` entry of its report row.

JSON is what `json.dumps(indent=2, sort_keys=True)` writes: a 2-space
indent, sorted keys and ASCII escapes.  It spells a float by its repr, a
non-finite one as the string "nan", "inf" or "-inf", a tuple as a list and a
numpy scalar as the Python one.  CSV spells a float by its repr (so nan, inf
and -inf), a bool as `true`/`false` and a missing cell or None as an empty
cell, and quotes minimally, as `csv.writer` does with a newline line
terminator.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import struct
import sys
from dataclasses import asdict, astuple, dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Sequence

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
    kind_stack,
    run_all,
    sample_group_stack,
    sklyanin_pair_defects,
    suite_summary,
    worst_defect,
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
from .ktrig import _Flag, quiet, span_bound
from .poisson import (
    _PAIRS,
    _mcybe_defect,
    _schouten_coefficient,
    _schouten_tensor,
    GROUP_COORD_PAIRS,
    DeformationKind,
    bialgebra_check,
    cocommutator_map,
    coisotropy_check,
    phs_points_bracket,
    rmatrix,
)
from .quantum import (
    _coassociativity_defect,
    _image_stack,
    _relation_stack,
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


def _quote(text: str) -> str:
    """A cell as csv.writer's minimal quoting writes it: quoted, with each
    `"` doubled, when it holds a comma, a quote or a newline.  A carriage
    return alone stays bare, since the line terminator is a newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _spell_other(value) -> str:
    """A CSV cell of a type _CSV_SPELLERS lacks (numpy scalars, containers,
    None), spelled from its _clean form."""
    value = _clean(value)
    if value is None:
        return ""
    speller = _CSV_SPELLERS.get(type(value))
    return speller(value) if speller else _quote(str(value))


_BOOLS = {True: "true", False: "false"}.__getitem__

# the spelling of each cell type; float repr gives nan, inf and -inf
_CSV_SPELLERS = {float: float.__repr__, bool: _BOOLS, int: int.__repr__, str: _quote}


def _json_float(x: float) -> str:
    """A float as json.dumps spells its _clean form: repr, quoted if not finite."""
    return float.__repr__(x) if math.isfinite(x) else f'"{x!r}"'


# json.dumps's spelling of each scalar type
_JSON_SPELLERS = {
    float: _json_float, bool: _BOOLS, int: int.__repr__, str: encode_basestring_ascii, type(None): lambda _: "null",
}


def _spell_column(cells: list, spellers: dict, other: Callable) -> Iterable[str]:
    """Each cell by the speller of its type in spellers, other for the rest."""
    kinds = set(map(type, cells))
    if kinds == {str}:
        # few distinct values (labels, error texts): quote each once
        quoted = {text: spellers[str](text) for text in set(cells)}
        return map(quoted.__getitem__, cells)
    if len(kinds) == 1:
        speller = spellers.get(kinds.pop(), other)
        if speller is _json_float and all(map(math.isfinite, cells)):
            # one C-level test spares each cell its own
            speller = float.__repr__
        return map(speller, cells)
    return (spellers.get(type(v), other)(v) for v in cells)


def _json_dicts(dicts: list, indent: str) -> list[str]:
    """Dicts with one non-empty key set, each as json.dumps spells it at
    indent: one template, filled a column at a time."""
    keys = sorted(dicts[0])
    inner = indent + "  "
    entries = (encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys)
    template = "{\n" + inner + (",\n" + inner).join(entries) + "\n" + indent + "}"
    other = functools.partial(_json_text, indent=inner)
    columns = [_spell_column([d[key] for d in dicts], _JSON_SPELLERS, other) for key in keys]
    return list(map(template.__mod__, zip(*columns)))


def _json_text(value, indent: str = "") -> str:
    """value as json.dumps(_clean(value), indent=2, sort_keys=True) spells it at indent."""
    speller = _JSON_SPELLERS.get(type(value))
    if speller:
        return speller(value)
    if not isinstance(value, (dict, list, tuple)):
        # numpy scalars and str or int subclasses, by the C encoder
        return json.dumps(_clean(value))
    if isinstance(value, dict):
        return _json_dicts([value], indent)[0] if value else "{}"
    if not value:
        return "[]"
    inner = indent + "  "
    if all(type(v) is dict and v and v.keys() == value[0].keys() for v in value):
        # report rows
        items = _json_dicts(value, inner)
    else:
        items = [_json_text(v, inner) for v in value]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def render_json(report: Report) -> str:
    return _json_text(report.payload) + "\n"


def render_csv(report: Report) -> str:
    rows = report.rows
    if not rows:
        return ""
    header = list(rows[0])
    if len(set().union(*rows)) > len(header):
        # keys that first appear after the first row follow its keys, in order
        header = list(dict.fromkeys(key for row in rows for key in row))
    if not header:
        return "\n" * (len(rows) + 1)
    # spelled a column at a time; a key a row lacks is an empty cell
    columns = [_spell_column([row.get(key, "") for row in rows], _CSV_SPELLERS, _spell_other) for key in header]
    lines = [",".join(_spell_column(header, _CSV_SPELLERS, _spell_other)), *map(",".join, zip(*columns))]
    if len(header) == 1:
        # csv.writer quotes a row whose one cell is empty
        lines = [line or '""' for line in lines]
    return "\n".join(lines) + "\n"


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


def _cmd_classify(args: argparse.Namespace, sweep: SweepConfig) -> dict:
    rows = []
    for kp in sweep.kappa_grid:
        label = classify(kp)
        rows.append(
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
    return {"geometries": rows}


def _cmd_bracket(args: argparse.Namespace, sweep: SweepConfig) -> dict:
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
    casimir = {f"({kp.k1:g},{kp.k2:g})": list(casimir_coeffs(kp)) for kp in sweep.kappa_grid}
    return {"brackets": rows, "casimir_coefficients": casimir}


def _parse_point(chart: str, coords: Sequence[float]):
    make = CHARTS[chart]
    count = len(fields(make))
    if len(coords) != count:
        raise ConfigError(f"{chart} chart needs {('two', 'three')[count - 2]} coordinates")
    return make(*coords)


def _cmd_convert(args: argparse.Namespace, sweep: SweepConfig) -> dict:
    kp = _single_pair(args, sweep)
    source = args.source_chart
    target = args.target_chart
    coords = _parse_coords(args.coords)
    p = _parse_point(source, coords)
    row = {"k1": kp.k1, "k2": kp.k2, "source": source, "target": target}
    try:
        ambient = to_ambient(kp, p)
        out = from_ambient(kp, ambient, target)
        row["ambient"] = list(ambient.as_array())
        row["coords_in"] = list(coords)
        row["coords_out"] = astuple(out)
        back = from_ambient(kp, to_ambient(kp, out), source)
        row["roundtrip_defect"] = max(abs(a - b) for a, b in zip(astuple(back), astuple(p)))
    except GeometryError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return {"conversion": row}


def _cmd_metric(args: argparse.Namespace, sweep: SweepConfig) -> dict:
    kp = _single_pair(args, sweep)
    chart = args.chart
    coords = _parse_coords(args.coords)
    p = _parse_point(chart, coords)
    row = {"k1": kp.k1, "k2": kp.k2, "chart": chart, "coords": list(coords)}
    try:
        m = metric_main(kp, p)
        row.update({"g11": m.g11, "g12": m.g12, "g22": m.g22})
        row["determinant"] = m.g11 * m.g22 - m.g12 * m.g12
        if kp.k2 == 0.0:
            sub = metric_subsidiary(kp, p)
            row.update({"sub_g11": sub.g11, "sub_g12": sub.g12, "sub_g22": sub.g22})
    except GeometryError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return {"metric": row}


def _cmd_curvature(args: argparse.Namespace, sweep: SweepConfig) -> dict:
    kp = _single_pair(args, sweep)
    coords = _parse_coords(args.coords)
    p = _parse_point(args.chart, coords)
    tol = DEFAULT_TOLERANCES["geometry_curvature"]
    row = {"k1": kp.k1, "k2": kp.k2, "coords": list(coords), "tolerance": tol}
    try:
        value = gaussian_curvature(kp, p)
        row["curvature"] = value
        row["expected"] = kp.k1
        row["defect"] = abs(value - kp.k1)
        row["passed"] = row["defect"] <= tol
    except GeometryError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return {"curvature": row}


def _cmd_duality(args: argparse.Namespace, sweep: SweepConfig) -> dict:
    kp = _single_pair(args, sweep)
    wanted = args.name
    names = [DualityName(wanted)] if wanted else list(DUALITIES)
    tol = DEFAULT_TOLERANCES["duality_morphism"]
    rows = []
    rng = np.random.default_rng(sweep.seed)
    for name in names:
        row = {"k1": kp.k1, "k2": kp.k2, "duality": name.value, "tolerance": tol}
        try:
            kpd = duality_kappa(name, kp)
            m = duality_matrix(name, kp)
            row["target_k1"] = kpd.k1
            row["target_k2"] = kpd.k2
            row["matrix"] = [list(map(float, r)) for r in m]
            worst, _ = worst_defect(duality_morphism_defects(kp, kpd, m, rng, sweep.sample_count))
            row["morphism_defect"] = worst
            row["passed"] = worst <= tol
        except UndefinedDualityError as exc:
            row["error"] = f"UndefinedDualityError: {exc}"
        rows.append(row)
    return {"dualities": rows}


def _cmd_bialgebra(args: argparse.Namespace, sweep: SweepConfig) -> dict:
    kinds = tuple(DeformationKind) if args.kind == "both" else (DeformationKind(args.kind),)
    tol = DEFAULT_TOLERANCES["bialgebra_cocycle"]
    jacobi_tol = DEFAULT_TOLERANCES["bialgebra_dual_jacobi"]
    rows = []
    for kp in sweep.kappa_grid:
        images = cocommutator_map(kp, kind_stack(rmatrix, sweep.z_values, kinds))
        cocycle, jacobi, _ = bialgebra_check(kp, images)
        verdicts = [coisotropy_check(kp, images, gen).ravel() for gen in GENERATOR_NAMES]
        for (z, kind), c, j, *v in zip(
            itertools.product(sweep.z_values, kinds), cocycle.ravel().tolist(), jacobi.ravel().tolist(), *verdicts
        ):
            rows.append(
                {
                    "k1": kp.k1,
                    "k2": kp.k2,
                    "z": z,
                    "kind": kind.value,
                    "cocycle_defect": c,
                    "dual_jacobi_defect": j,
                    "tolerance": tol,
                    **{f"coisotropy_{gen}": verdict.value for gen, verdict in zip(GENERATOR_NAMES, v)},
                    "passed": c <= tol and j <= jacobi_tol,
                }
            )
    return {"bialgebra": rows}


def _cmd_ybe(args: argparse.Namespace, sweep: SweepConfig) -> dict:
    kinds = tuple(DeformationKind) if args.kind == "both" else (DeformationKind(args.kind),)
    tol = DEFAULT_TOLERANCES["bialgebra_mcybe"]
    schouten_tol = DEFAULT_TOLERANCES["bialgebra_schouten"]
    rows = []
    for kp in sweep.kappa_grid:
        # one Schouten tensor per stack, projected twice
        t = _schouten_tensor(kp, kind_stack(rmatrix, sweep.z_values, kinds))
        expected = kind_stack(lambda kind, z: SCHOUTEN_COEFFICIENTS[kind](kp, z), sweep.z_values, kinds)
        for (z, kind), coeff, want, defect in zip(
            itertools.product(sweep.z_values, kinds),
            _schouten_coefficient(t).ravel().tolist(),
            expected.ravel().tolist(),
            _mcybe_defect(kp, t).ravel().tolist(),
        ):
            rows.append(
                {
                    "k1": kp.k1,
                    "k2": kp.k2,
                    "z": z,
                    "kind": kind.value,
                    "schouten_coefficient": coeff,
                    "schouten_expected": want,
                    "mcybe_defect": defect,
                    "tolerance": tol,
                    "passed": defect <= tol and abs(coeff - want) <= schouten_tol,
                }
            )
    return {"ybe": rows}


def _cmd_sklyanin(args: argparse.Namespace, sweep: SweepConfig) -> dict:
    tol = DEFAULT_TOLERANCES["sklyanin_closed_vs_numeric"]
    rows = []
    for kp in sweep.kappa_grid:
        for z in sweep.z_values:
            # the bit patterns of the labels; + 0.0 folds -0.0 into 0.0
            label_bits = struct.unpack("<2Q", struct.pack("<2d", kp.k1 + 0.0, kp.k2 + 0.0))
            rng = np.random.default_rng([sweep.seed, *label_bits])
            flag = _Flag(sweep.sample_count)
            defects = sklyanin_pair_defects(kp, z, sample_group_stack(rng, kp, 0.35, sweep.sample_count), flag)
            worst, _ = worst_defect(defects[~flag.bad])
            # every pair at a flagged point failed
            errors = len(GROUP_COORD_PAIRS) * int(np.count_nonzero(flag.bad))
            rows.append(
                {
                    "k1": kp.k1,
                    "k2": kp.k2,
                    "z": z,
                    "max_defect": worst,
                    "tolerance": tol,
                    "domain_errors": errors,
                    # a row that evaluated no pair verified nothing
                    "passed": worst <= tol and errors < len(GROUP_COORD_PAIRS) * sweep.sample_count,
                }
            )
    return {"sklyanin": rows}


def _cmd_phs(args: argparse.Namespace, sweep: SweepConfig) -> dict:
    kind = DeformationKind(args.kind)
    a1 = _finite("a1", args.a1)
    a2 = _finite("a2", args.a2)
    rows = []
    for kp in sweep.kappa_grid:
        for z in sweep.z_values:
            row = {"k1": kp.k1, "k2": kp.k2, "z": z, "kind": kind.value, "a1": a1, "a2": a2}
            try:
                row["bracket"] = phs_points_bracket(kp, z, kind, a1, a2)
            except GeometryError as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    return {"phs": rows}


def _cmd_coproduct(args: argparse.Namespace, sweep: SweepConfig) -> dict:
    rel_tol = DEFAULT_TOLERANCES["quantum_relations"]
    co_tol = DEFAULT_TOLERANCES["quantum_coassociativity"]
    z_values = np.array(sweep.z_values)
    rows = []
    for kp in sweep.kappa_grid:
        parts, bad = _image_stack(kp, z_values)
        relation, bad = _relation_stack(kp, z_values, parts, bad)
        coassociativity = _coassociativity_defect(*parts)
        for z, rel, co, flagged in zip(sweep.z_values, relation.tolist(), coassociativity.tolist(), bad):
            row = {"k1": kp.k1, "k2": kp.k2, "z": z}
            try:
                # a flagged z is evaluated again, which raises its error
                row["relation_defect"] = deformed_relation_defect(kp, z) if flagged else rel
                row["coassociativity_defect"] = co
                row["relation_tolerance"] = rel_tol
                row["coassociativity_tolerance"] = co_tol
                row["passed"] = row["relation_defect"] <= rel_tol and co <= co_tol
            except GeometryError as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
                row["passed"] = False
            rows.append(row)
    return {"coproduct": rows}


def _cmd_sweep_all(args: argparse.Namespace, sweep: SweepConfig) -> dict:
    results = run_all(sweep)
    return {
        "checks": list(map(asdict, results)),
        "suites": suite_summary(results),
        "passed": all(r.passed for r in results),
    }


def _cmd_export_geodesics(args: argparse.Namespace, sweep: SweepConfig) -> dict:
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
    # windows may pass the chart boundary; samples beyond it become truncation rows
    b1 = span_bound(kp.k1, span)
    b2 = span_bound(kp.k2 if chart == "polar" else kp.k12, span)
    if not math.isfinite(2.0 * max(b1, b2)):
        raise ConfigError(f"span {span!r} makes a coordinate window wider than the largest double")
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
        s, _ = to_ambient_batch(kp, chart, *coords)
        # the projection plane s0 = 1 is unreachable from s0 = 0; a point
        # outside the chart has the nan triple, which fails the test too
        kept = np.abs(s[0]) >= 1e-12
        beltrami = s[1:] / s[0]
        # fixed point while it spells at most 17 significant digits
        label = f"{chart}:{family}:{c:+.3f}" if abs(c) < 1e14 else f"{chart}:{family}:{c:+.3e}"
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
    return {"chart": chart, "points": rows}


# each command's handler and the payload key of its report rows, in --help
# order: the grid commands first
_HANDLERS: dict[str, tuple[Callable[[argparse.Namespace, SweepConfig], dict], str]] = {
    "classify": (_cmd_classify, "geometries"),
    "bracket": (_cmd_bracket, "brackets"),
    "bialgebra": (_cmd_bialgebra, "bialgebra"),
    "ybe": (_cmd_ybe, "ybe"),
    "sklyanin": (_cmd_sklyanin, "sklyanin"),
    "phs": (_cmd_phs, "phs"),
    "coproduct": (_cmd_coproduct, "coproduct"),
    "sweep-all": (_cmd_sweep_all, "checks"),
    "convert": (_cmd_convert, "conversion"),
    "metric": (_cmd_metric, "metric"),
    "curvature": (_cmd_curvature, "curvature"),
    "duality": (_cmd_duality, "dualities"),
    "export-geodesics": (_cmd_export_geodesics, "points"),
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

    for name in _HANDLERS:
        p = sub.add_parser(name)
        common(p, grid_default=name in _GRID_COMMANDS)
        if name in ("bialgebra", "ybe"):
            p.add_argument("--kind", choices=["first", "second", "both"], default="both")
        if name == "phs":
            p.add_argument("--kind", choices=["first", "second"], default="first")
            p.add_argument("--a1", type=float, default=0.0)
            p.add_argument("--a2", type=float, default=0.0)
        if name == "convert":
            p.add_argument("--from", dest="source_chart", choices=CHART_NAMES, required=True)
            p.add_argument("--to", dest="target_chart", choices=CHART_NAMES, required=True)
            p.add_argument("--coords", required=True, help="comma-separated source coordinates")
        if name in ("metric", "curvature"):
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
        try:
            return tuple(KappaPair(a, b) for a, b in zip(k1s, k2s))
        except ValueError as exc:  # a non-finite label
            raise ConfigError(str(exc)) from exc
    if args.command in _GRID_COMMANDS:
        return kappa_grid_from_name("normalized9")
    raise ConfigError(f"{args.command} needs --k1 and --k2")


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _parse_coords(raw: str) -> tuple[float, ...]:
    try:
        coords = tuple(float(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad coordinate list {raw!r}") from exc
    return tuple(_finite("a coordinate", x) for x in coords)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and write its report.

    Returns the exit status.  Domain errors inside single evaluations become
    report entries; a ConfigError becomes exit status 2, as argparse's own
    usage errors do.  The handler runs under the package's floating-point
    policy (ktrig.quiet).
    """
    args = _build_parser().parse_args(argv)
    try:
        sweep = SweepConfig(
            kappa_grid=_resolve_grid(args),
            z_values=tuple(args.z) if args.z else (0.1,),
            sample_count=args.samples,
            seed=args.seed,
        ).validated()
        handler, key = _HANDLERS[args.command]
        with quiet():
            entries = handler(args, sweep)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    rows = entries[key]
    report = Report({**_base_payload(args, sweep), **entries}, rows if isinstance(rows, list) else [rows])
    text = render_json(report) if args.output_format == "json" else render_csv(report)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if any(not row.get("passed", True) for row in report.rows) else 0


def entrypoint() -> None:
    raise SystemExit(main())
