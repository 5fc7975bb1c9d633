"""The three benchmark workloads: how each draws its CLI commands from the
workload seed and how each checks the text a command printed.

Every operation is one `ckgeom` command line.  A workload yields them from
a numpy generator seeded by the benchmark; a timed run takes the first
`timed_ops` of them and a traced run the first `trace_ops`.  `check` turns
one command's exit status and output into work units, failed units and
problems.  A failed unit is a result the program itself or the oracle
marks wrong; a problem is output that cannot be read as the command's
report at all.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

import oracle

NORMALIZED_PAIRS = tuple((k1, k2) for k1 in (-1.0, 0.0, 1.0) for k2 in (-1.0, 0.0, 1.0))


@dataclass
class Outcome:
    units: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _status_problem(status: int, failed: int) -> list[str]:
    # Exit status 1 means some asserted defect is out of tolerance, so it must
    # agree with the rows: a failing row if and only if status 1.
    if status != (1 if failed else 0):
        return [f"exit status {status} with {failed} failing rows"]
    return []


class Sweep:
    """`sweep-all` on normalized9 at z = 0.1, a fresh sweep seed per command.

    Sweep seeds are a permutation of range(1000), so the seeds with known
    failing checks are drawn as often as any other."""

    name = "sweep"
    checks = 45
    timed_ops = 8
    trace_ops = 2

    def commands(self, rng: np.random.Generator):
        for seed in rng.permutation(1000):
            yield ["sweep-all", "--grid", "normalized9", "--z", "0.1", "--seed", str(int(seed))]

    @staticmethod
    def seed_of(argv: list[str]) -> int:
        return int(argv[argv.index("--seed") + 1])

    def check(self, argv: list[str], status: int, text: str) -> Outcome:
        try:
            rows = json.loads(text)["checks"]
        except (ValueError, KeyError) as exc:
            return Outcome(problems=[f"unreadable sweep report: {exc!r}"])
        if len(rows) != self.checks:
            return Outcome(problems=[f"{len(rows)} check rows, expected {self.checks}"])
        failed = sum(row.get("passed") is not True for row in rows)
        return Outcome(len(rows), failed, _status_problem(status, failed))


class Geodesics:
    """`export-geodesics --format csv` over the 27 (pair, chart) combinations.

    Each pass visits the combinations in a fresh random order; each command
    draws its span from [0.3, 0.6], so some samples pass the chart edge and
    come back as truncation rows."""

    name = "geodesics"
    timed_ops = 54
    trace_ops = 27
    lines = 5
    points = 400
    header = ["family", "t", "beltrami1", "beltrami2", "truncated"]

    def commands(self, rng: np.random.Generator):
        combos = [(k1, k2, chart) for (k1, k2) in NORMALIZED_PAIRS for chart in oracle.CHARTS]
        while True:
            for i in rng.permutation(len(combos)):
                k1, k2, chart = combos[i]
                span = float(rng.uniform(0.3, 0.6))
                yield ["export-geodesics", "--k1", repr(k1), "--k2", repr(k2), "--chart", chart,
                       "--format", "csv", "--points", str(self.points), "--lines", str(self.lines),
                       "--span", repr(span)]

    def check(self, argv: list[str], status: int, text: str) -> Outcome:
        opt = dict(zip(argv[1::2], argv[2::2]))
        k1, k2, chart, span = float(opt["--k1"]), float(opt["--k2"]), opt["--chart"], float(opt["--span"])
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != self.header:
            return Outcome(problems=[f"unexpected CSV header {rows[:1]}"])
        expected = [(family, point, float(t))
                    for family, point, ts in oracle.coordinate_lines(k1, k2, chart, span, self.lines, self.points)
                    for t in ts]
        body = rows[1:]
        out = Outcome(units=len(body), problems=[] if status == 0 else [f"exit status {status}"])
        if len(body) != len(expected):
            out.problems.append(f"{len(body)} rows, expected {len(expected)}")
            return out
        for row, (family, point, t) in zip(body, expected):
            try:
                got_t = float(row[1])
                truncated = {"true": True, "false": False}[row[4]]
                b1 = None if truncated else float(row[2])
                b2 = None if truncated else float(row[3])
            except (ValueError, KeyError, IndexError):
                out.problems.append(f"unreadable row {row}")
                continue
            if row[0] != family or abs(got_t - t) > 1e-12 * (1.0 + abs(t)):
                out.problems.append(f"row {row[:2]} is not sample {family} t={t!r}")
                continue
            u, v = point(got_t)
            if not oracle.row_agrees(k1, k2, chart, u, v, truncated, b1, b2):
                out.failed += 1
        if out.failed:
            out.problems.append(f"{out.failed} rows disagree with the Beltrami oracle")
        return out


class Deformation:
    """`bialgebra`, `ybe` and `coproduct` on normalized9, 16 seeded z in (0, 1.5].

    The three commands of one pass share their z values."""

    name = "deformation"
    timed_ops = 24
    trace_ops = 6
    subcommands = ("bialgebra", "ybe", "coproduct")
    z_count = 16

    def commands(self, rng: np.random.Generator):
        while True:
            zs = 1.5 * (1.0 - rng.random(self.z_count))
            zargs = list(itertools.chain.from_iterable(("--z", repr(float(z))) for z in zs))
            for sub in self.subcommands:
                yield [sub, "--grid", "normalized9", *zargs]

    def check(self, argv: list[str], status: int, text: str) -> Outcome:
        sub = argv[0]
        kinds = 1 if sub == "coproduct" else 2
        expected = len(NORMALIZED_PAIRS) * self.z_count * kinds
        try:
            rows = json.loads(text)[sub]
        except (ValueError, KeyError) as exc:
            return Outcome(problems=[f"unreadable {sub} report: {exc!r}"])
        if len(rows) != expected:
            return Outcome(problems=[f"{len(rows)} {sub} rows, expected {expected}"])
        failed = sum(row.get("passed") is not True or "error" in row for row in rows)
        return Outcome(len(rows), failed, _status_problem(status, failed))


WORKLOADS = {w.name: w for w in (Sweep(), Geodesics(), Deformation())}
