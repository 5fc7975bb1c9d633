"""Measure the traffic claims that later optimisations are sized from.

    python3 perfbench/claims.py --seed 0

Prints one JSON object.  The host's speed drifts by tens of percent from
one second to the next, so every share is a median over commands of a
ratio of two times taken back to back: each command runs untraced, then
at once traced or alongside the part it is compared with.  A traced span
is set against the untraced wall time, because tracing inflates the
callers of small functions far more than the functions themselves.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

import oracle
import run
from tracer import Tracer
from workloads import WORKLOADS, Sweep


def commands(name: str, seed: int, count: int) -> list[list[str]]:
    gen = WORKLOADS[name].commands(np.random.default_rng([seed, list(WORKLOADS).index(name)]))
    return [next(gen) for _ in range(count)]


def untraced_then_traced(cli, argv: list[str]) -> tuple[float, dict]:
    """(untraced wall seconds, per-name span totals of a traced rerun)."""
    run.run_command(cli, argv)  # warm caches and lazy imports
    elapsed = run.run_command(cli, argv)[2]
    with Tracer() as tracer:
        run.run_command(cli, argv)
    return elapsed, tracer.name_totals()


def chart_map_seconds(argv: list[str]) -> float:
    """Untraced wall time of spaces.to_ambient on every sample point of one export."""
    from ckgeom import GeometryError, KappaPair, ParallelI, ParallelII, Polar, to_ambient

    point_type = {"parallel1": ParallelI, "parallel2": ParallelII, "polar": Polar}
    w = WORKLOADS["geodesics"]
    opt = dict(zip(argv[1::2], argv[2::2]))
    k1, k2, chart = float(opt["--k1"]), float(opt["--k2"]), opt["--chart"]
    kp, make = KappaPair(k1, k2), point_type[chart]
    points = [make(*point(float(t)))
              for _, point, ts in oracle.coordinate_lines(k1, k2, chart, float(opt["--span"]), w.lines, w.points)
              for t in ts]
    t0 = time.perf_counter()
    for p in points:
        try:
            to_ambient(kp, p)
        except GeometryError:
            pass
    return time.perf_counter() - t0


def sweep_claims(cli, seed: int) -> dict:
    from ckgeom.checks import SweepConfig, kappa_grid_from_name, run_all, run_check

    validation, closed_vs_numeric, walls, calls = [], [], [], []
    for argv in commands("sweep", seed, 3):
        wall, names = untraced_then_traced(cli, argv)
        post_init = names["group.GroupElement.__post_init__"]
        walls.append(wall)
        calls.append(post_init["calls"])
        validation.append(post_init["self_s"] / wall)
        cfg = SweepConfig(kappa_grid=kappa_grid_from_name("normalized9"), z_values=(0.1,), seed=Sweep.seed_of(argv))
        t0 = time.perf_counter()
        run_check("sklyanin_closed_vs_numeric", cfg)
        t1 = time.perf_counter()
        run_all(cfg)
        closed_vs_numeric.append((t1 - t0) / (time.perf_counter() - t1))
    return {
        "sweep_wall_s": statistics.median(walls),
        "GroupElement.__post_init__.calls_per_sweep": statistics.median(calls),
        "GroupElement.__post_init__.share_of_sweep_wall": statistics.median(validation),
        "sklyanin_closed_vs_numeric.share_of_run_all": statistics.median(closed_vs_numeric),
    }


def deformation_claims(cli, seed: int) -> dict:
    totals: dict[str, int] = {}
    for argv in commands("deformation", seed, len(WORKLOADS["deformation"].subcommands)):
        for name, t in untraced_then_traced(cli, argv)[1].items():
            totals[name] = totals.get(name, 0) + t["calls"]
    return {
        "structure_tensor.calls_per_pass": totals["algebra.structure_tensor"],
        "bracket.calls_per_pass": totals["algebra.bracket"],
    }


def geodesics_claims(cli, seed: int) -> dict:
    w = WORKLOADS["geodesics"]
    render, chart, rates = [], [], []
    for argv in commands("geodesics", seed, 27):
        wall, names = untraced_then_traced(cli, argv)
        rates.append(2 * w.lines * w.points / wall)
        render.append(names["cli.render_csv"]["total_s"] / wall)
        chart.append(chart_map_seconds(argv) / run.run_command(cli, argv)[2])
    return {
        "rows_per_s": statistics.median(rates),
        "render_csv.share_of_wall": statistics.median(render),
        "to_ambient.share_of_wall": statistics.median(chart),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    cli = run.import_cli()
    print(json.dumps({
        "seed": args.seed,
        "sweep": sweep_claims(cli, args.seed),
        "deformation": deformation_claims(cli, args.seed),
        "geodesics": geodesics_claims(cli, args.seed),
    }, indent=2))


if __name__ == "__main__":
    main()
