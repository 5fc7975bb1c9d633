"""Alternating parent/change runs of the repository benchmark.

For each workload and each pair i, runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in the working tree (the change) and once in --parent-tree, a git
checkout of the parent commit, with one seed S per pair on both sides: the
parent first for even i, the change first for odd i.  It then writes
BENCH_<first workload>.json at the root of the repository, with the median,
quartiles and runs of every end-to-end metric that BENCHMARK.json declares,
the pairs the change wins in the metric's better direction, the attempted
and failed work units, and as the claim the first workload's units_per_cal.

The two trees must have paths of one length, since peak_rss_mb moves by
about 3% with the length of the tree's path alone: a checkout ../prnt
beside a working tree named repo, say.

  git clone --quiet . ../prnt && git -C ../prnt checkout --quiet PARENT_COMMIT
  python3 scripts/bench_pairs.py --parent-tree ../prnt --workload deformation \\
      --workload sweep --workload geodesics --description "..."
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIMED_METRIC = "units_per_cal"


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object perfbench/run.py prints last, run in tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(runs: list[float]) -> dict:
    """Median and quartiles (linear interpolation between order statistics)."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(r, 4) for r in runs]}


def summarize(end_to_end: list[dict], pairs: list[dict]) -> dict:
    """One workload's record from its pairs, each {"seed", "parent",
    "change"} with the two run.py results; end_to_end is BENCHMARK.json's
    list of {"name", "unit", "better"}."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        p_row, c_row = spread(parent), spread(change)
        metrics[name] = {
            "parent": p_row,
            "change": c_row,
            "change_wins": sum(sign * (c - p) > 0.0 for p, c in zip(parent, change)),
            "relative_change_of_median": round(c_row["median"] / p_row["median"] - 1.0, 4),
            "unit": spec["unit"],
        }
    record = {"seeds": [p["seed"] for p in pairs], "pairs": len(pairs), "metrics": metrics}
    for side in ("parent", "change"):
        record[f"{side}_attempted"] = sum(p[side]["attempted"] for p in pairs)
        record[f"{side}_failed"] = sum(p[side]["failed"] for p in pairs)
        record[f"{side}_correct"] = all(p[side]["correct"] for p in pairs)
    return record


def claim(workloads: dict, workload: str) -> dict:
    row = workloads[workload]["metrics"][CLAIMED_METRIC]
    p = row["parent"]
    return {
        "workload": workload,
        "metric": CLAIMED_METRIC,
        "parent_median": p["median"],
        "change_median": row["change"]["median"],
        "parent_iqr": round(p["q3"] - p["q1"], 4),
        "change_wins": f"{row['change_wins']} of {workloads[workload]['pairs']} pairs",
    }


def _rev(tree: Path) -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-tree", required=True,
                        help="a git checkout of the parent commit, at a path as long as the working tree's")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of perfbench/run.py; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--description", default="alternating parent/change runs of the repository benchmark")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least 2 pairs for quartiles")
    trees = {"parent": Path(args.parent_tree).resolve(), "change": ROOT}
    if trees["parent"] == ROOT:
        parser.error("--parent-tree names the working tree under test")
    # read before the runs: a parent tree that is not a checkout fails here, not after them
    parent_rev = _rev(trees["parent"])
    if len(str(trees["parent"])) != len(str(ROOT)):
        parser.error(f"--parent-tree {trees['parent']} and the working tree {ROOT} have paths of different "
                     "lengths, which alone move peak_rss_mb")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    workloads = {}
    seed = args.seed
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, args.seconds)
                print(f"{workload} pair {i} seed {seed} {side}: "
                      f"{json.dumps({k: v['value'] for k, v in pair[side]['metrics'].items()})}",
                      file=sys.stderr)
            pairs.append(pair)
            seed += 1
        workloads[workload] = summarize(end_to_end, pairs)

    record = {
        "description": args.description,
        "command": f"python3 perfbench/run.py --workload {{{','.join(args.workload)}}} --seed N "
                   f"--seconds {args.seconds:g} --trace 0",
        "parent": parent_rev,
        "host": f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}, "
                f"numpy {metadata.version('numpy')}",
        "order": "pair i runs the parent first for even i and the change first for odd i; "
                 "each pair uses one seed on both sides",
        "claim": claim(workloads, args.workload[0]),
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.workload[0]}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
