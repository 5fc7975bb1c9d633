"""Scan the homogeneous-space point bracket over coordinate grids.

For each geometry in the normalized family, tabulates {a1, a2} on a
regular grid of geodesic parallel coordinates for one or both
deformation kinds, and records where the bracket degenerates.  The
first kind must vanish identically whenever k2 = 0; the scan asserts
this instead of assuming it.

  python3 scripts/phs_bracket_scan.py --out /tmp/phs_scan.csv
  python3 scripts/phs_bracket_scan.py --kind second --z 0.25 --grid-n 41
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from ckgeom import NORMALIZED_PAIRS, DeformationKind, KappaPair, classify
from ckgeom.errors import ChartDomainError
from ckgeom.ktrig import span_bound
from ckgeom.poisson import phs_points_bracket

def axis(args: argparse.Namespace, label: float) -> np.ndarray:
    bound = span_bound(label, args.span)
    return np.linspace(-bound, bound, args.grid_n)


def scan_pair(args: argparse.Namespace, kp: KappaPair, kind: DeformationKind) -> tuple[list[dict], dict]:
    rows = []
    worst = 0.0
    poles = 0
    for a1 in axis(args, kp.k1):
        for a2 in axis(args, kp.k12):
            row = {
                "k1": kp.k1,
                "k2": kp.k2,
                "kind": kind.value,
                "a1": float(a1),
                "a2": float(a2),
            }
            try:
                val = phs_points_bracket(kp, args.z, kind, float(a1), float(a2))
            except ChartDomainError:
                poles += 1
                row["bracket"] = ""
                row["defined"] = "false"
            else:
                worst = max(worst, abs(val))
                row["bracket"] = repr(float(val))
                row["defined"] = "true"
            rows.append(row)
    summary = {
        "geometry": classify(kp).display_name,
        "kind": kind.value,
        "max_abs": worst,
        "pole_points": poles,
    }
    if kind is DeformationKind.FIRST_KIND and kp.k2 == 0.0 and worst != 0.0:
        raise AssertionError(f"first-kind bracket must vanish at k2=0, got {worst}")
    return rows, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--z", type=float, default=0.1)
    parser.add_argument("--kind", choices=["both", *(kind.value for kind in DeformationKind)], default="both")
    parser.add_argument("--grid-n", type=int, default=21)
    parser.add_argument("--span", type=float, default=0.45)
    parser.add_argument("--out", type=Path, default=Path("phs_scan.csv"))
    args = parser.parse_args(argv)

    if not math.isfinite(args.z) or args.z == 0.0:
        parser.error("z must be finite and nonzero")

    kinds = list(DeformationKind) if args.kind == "both" else [DeformationKind(args.kind)]
    all_rows: list[dict] = []
    for kp in NORMALIZED_PAIRS:
        for kind in kinds:
            rows, summary = scan_pair(args, kp, kind)
            all_rows.extend(rows)
            print(
                f"{summary['geometry']:<28} {summary['kind']:<7} "
                f"max|{{a1,a2}}| = {summary['max_abs']:.6e}  poles = {summary['pole_points']}"
            )

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(all_rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(all_rows)
    print(f"wrote {args.out} ({len(all_rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
