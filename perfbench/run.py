"""ckgeom benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a ckgeom checkout; the package is imported from its
`src/`.  Operations run in this process on one thread, in a closed loop:
each `ckgeom` command (argv in, rendered report text out, through
`ckgeom.cli.main`) starts after the previous one returned.  Outputs are
checked outside the timed region.  The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` (work units) and
`metrics`:

--trace 0  setup_s        median cold `import ckgeom.cli` in fresh interpreters,
                          in nominal seconds (see below)
           op_p50_cal     median time of one command, in calibration units
           units_per_cal  work units per calibration unit of command time
           peak_rss_mb    peak resident memory of this process
--trace 1  <layer>.calls / .self_s / .raised for the nine package modules,
           checks.suite.<suite>.s (sweep only), trace_overhead, and the
           plain wall-clock op_p50_s, units_per_s and calibration_s of the
           untraced pass.

A --trace 0 run draws the workload's timed_ops commands from the seed and
cycles over them for the given seconds; `attempted` and `failed` count each
of those commands once, so the same seed gives the same counts.  A
workload's failure share is `failed / attempted` of such runs; for sweep
each run covers timed_ops sweep seeds.

A calibration unit ("cal") is the wall time of `calibration_kernel`, a
fixed mix of interpreter, math, numpy and rendering work.  It is sampled
while each command runs, from a timer signal, and right after it.  On a
shared host whose speed drifts by half from one second to the next,
command time in these units repeats to a few percent where seconds do
not; calibration_s converts back.  The same holds over minutes, so
setup_s is the import time in calibration units, measured inside the
fresh interpreter, times CALIBRATION_NOMINAL_S: seconds on a host where
one calibration takes 6 ms, about the fast state of the 2-vCPU host the
benchmark was defined on.

`--workload all` runs each workload in its own process and prints one
JSON object keyed by workload.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in child processes.
os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import Tracer, leftover_wrappers
from workloads import WORKLOADS, Sweep

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 9
WARMUP_OPS = 2
CALIBRATION_STEPS = 150
CALIBRATION_REPEATS = 3
CALIBRATION_INTERVAL = 0.05
CALIBRATION_NOMINAL_S = 0.006
SUITE_NAMES = ("trig", "algebra", "duality", "group", "geometry", "bialgebra", "sklyanin", "quantum")

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import ckgeom.cli; dt = time.perf_counter() - t; "
    "import run; print(repr(dt), repr(run.calibration()))"
)


def cold_import() -> tuple[float, float]:
    """(wall seconds of `import ckgeom.cli`, calibration seconds right after it)
    in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)])),
                          capture_output=True, text=True, timeout=60, check=True)
    seconds, cal = map(float, proc.stdout.split())
    return seconds, cal


def import_cli():
    if not (SRC / "ckgeom" / "__init__.py").is_file():
        raise SystemExit(f"no ckgeom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ckgeom.cli

    if Path(ckgeom.cli.__file__).resolve().parent != SRC / "ckgeom":
        raise SystemExit(f"imported ckgeom from {ckgeom.cli.__file__}, not from {SRC}")
    return ckgeom.cli


def run_command(cli, argv: list[str]) -> tuple[int, str, float]:
    """(exit status, printed text, wall seconds) of one command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        status = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return status, buf.getvalue(), elapsed


def calibration_kernel() -> float:
    """Wall seconds of a fixed mix of the work ckgeom commands do: scalar
    math, 3x3 and 9x9 numpy products, finiteness tests, dicts, repr, CSV
    and JSON rendering.  It never calls ckgeom, so a change to the program
    cannot move it."""
    t0 = time.perf_counter()
    acc, m = 0.0, np.eye(3)
    step = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1e-9], [0.0, 0.0, 1.0]])
    rows = []
    for i in range(CALIBRATION_STEPS):
        x = i * 1e-3
        acc += math.cos(x) * math.sinh(x) + math.atan2(x, 1.0)
        m = m @ step
        acc += float(np.max(np.abs(np.kron(m, step)))) + float(np.all(np.isfinite(m)))
        rows.append({"i": i, "acc": acc, "text": repr(acc)})
    csv.DictWriter(io.StringIO(), fieldnames=["i", "acc", "text"]).writerows(rows)
    json.dumps(rows, sort_keys=True)
    return time.perf_counter() - t0


def calibration() -> float:
    return statistics.median(calibration_kernel() for _ in range(CALIBRATION_REPEATS))


class CalibratedTimer:
    """Times commands in calibration units.

    While a command runs, a SIGALRM handler runs `calibration_kernel` every
    CALIBRATION_INTERVAL seconds; the handler's time is taken out of the
    command's.  A command's calibration unit is the mean of those samples
    and of the calibrations just before and just after it, so it follows
    speed changes of the host that happen in the middle of a long command.
    With only the before and after calibrations, the spread of sweep's
    op_p50_cal over ten runs rose from 0.02-0.03 to up to 0.1 (BASELINE.md)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_spans: list[tuple[float, float]] = []
        self.before = calibration()

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibration_kernel())
        self.handler_spans.append((t0, time.perf_counter() - t0))

    def recalibrate(self) -> None:
        self.before = calibration()

    def run(self, cli, argv: list[str]) -> tuple[int, str, float, float]:
        """(exit status, printed text, wall seconds, calibration units)."""
        self.samples, self.handler_spans = [], []
        buf = io.StringIO()
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            with contextlib.redirect_stdout(buf):
                signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL, CALIBRATION_INTERVAL)
                t0 = time.perf_counter()
                try:
                    status = cli.main(argv)
                finally:
                    t1 = time.perf_counter()
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
        finally:
            signal.signal(signal.SIGALRM, previous)
        elapsed = t1 - t0 - sum(d for start, d in self.handler_spans if start < t1)
        after = calibration()
        cal = statistics.mean([self.before, *self.samples, after])
        self.before = after
        return status, buf.getvalue(), elapsed, elapsed / cal


class Tally:
    """Units and problems over the checked commands of one run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.units = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, argv: list[str], status: int, text: str) -> int:
        """Checks one command's output; returns its work units."""
        out = self.workload.check(argv, status, text)
        self.units += out.units
        self.failed += out.failed
        self.problems.extend(f"{' '.join(argv[:3])}: {p}" for p in out.problems)
        return out.units


def timed_run(cli, ops: list[list[str]], seconds: float, tally: Tally) -> dict:
    """Commands until their summed wall time reaches seconds, cycling over ops.

    Each op is checked the first time it runs and counts once in the tally,
    so `attempted` and `failed` depend on the seed alone, not on how many
    commands fit in the time.  Every later run of an op must print the same
    bytes as the first; the loop runs at least one such repeat.  The
    SETUP_REPEATS cold imports behind setup_s are spread between the
    commands, so that they sample the host over the whole run rather than
    over one moment of it."""
    cold_import()  # compiles the bytecode the timed imports then find
    timer = CalibratedTimer()
    times, scaled, setup = [], [], []
    first, units = [], []
    while len(times) <= len(ops) or sum(times) < seconds:
        i = len(times) % len(ops)
        argv = ops[i]
        gc.collect()
        status, text, elapsed, cal_units = timer.run(cli, argv)
        times.append(elapsed)
        scaled.append(cal_units)
        # A digest, not the text, so that kept outputs do not add to peak_rss_mb.
        digest = (status, hashlib.sha256(text.encode()).digest())
        if len(first) < len(ops):
            first.append(digest)
            units.append(tally.add(argv, status, text))
        elif digest != first[i]:
            tally.problems.append(f"{' '.join(argv[:3])}: a second run printed different output")
        if len(setup) < SETUP_REPEATS * min(sum(times) / seconds, 1.0):
            import_s, import_cal = cold_import()
            setup.append(import_s / import_cal * CALIBRATION_NOMINAL_S)
            timer.recalibrate()
    timed_units = sum(units[i % len(ops)] for i in range(len(times)))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_cal": (statistics.median(scaled), "cal"),
        "units_per_cal": (timed_units / sum(scaled), "1/cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(cli, workload, argvs: list[list[str]], tally: Tally) -> dict:
    """The workload's trace_ops commands untraced, then again traced."""
    times, outputs = [], []
    cal = calibration()
    for argv in argvs:
        status, text, elapsed = run_command(cli, argv)
        times.append(elapsed)
        outputs.append((status, text))
        tally.add(argv, status, text)
    cal = 0.5 * (cal + calibration())
    tracer = Tracer()
    traced = 0.0
    with tracer:
        for argv, expected in zip(argvs, outputs):
            status, text, elapsed = run_command(cli, argv)
            traced += elapsed
            if (status, text) != expected:
                tally.problems.append(f"{' '.join(argv[:3])}: traced output differs")
    left = leftover_wrappers()
    if left:
        tally.problems.append(f"tracer left {len(left)} bindings wrapped, e.g. {left[:3]}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.dump(str(OUT_DIR / f"trace-{workload.name}.npz"))

    metrics = {}
    for layer, totals in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = (totals["calls"], "count")
        metrics[f"{layer}.self_s"] = (totals["self_s"], "s")
        metrics[f"{layer}.raised"] = (totals["raised"], "count")
    metrics.update(suite_times(argvs) if workload is WORKLOADS["sweep"]
                   else {f"checks.suite.{s}.s": (0.0, "s") for s in SUITE_NAMES})
    metrics["trace_overhead"] = (traced / sum(times), "ratio")
    metrics["op_p50_s"] = (statistics.median(times), "s")
    metrics["units_per_s"] = (tally.units / sum(times), "1/s")
    metrics["calibration_s"] = (cal, "s")
    return metrics


def suite_times(argvs: list[list[str]]) -> dict:
    """Mean seconds per sweep of each suite, through the public run_suite."""
    from ckgeom.checks import SweepConfig, kappa_grid_from_name, run_suite

    totals = dict.fromkeys(SUITE_NAMES, 0.0)
    for argv in argvs:
        cfg = SweepConfig(kappa_grid=kappa_grid_from_name("normalized9"), z_values=(0.1,),
                          seed=Sweep.seed_of(argv))
        for suite in SUITE_NAMES:
            t0 = time.perf_counter()
            run_suite(suite, cfg)
            totals[suite] += time.perf_counter() - t0
    return {f"checks.suite.{s}.s": (t / len(argvs), "s") for s, t in totals.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    cli = import_cli()
    commands = workload.commands(np.random.default_rng([seed, list(WORKLOADS).index(name)]))
    ops = [next(commands) for _ in range(workload.trace_ops if trace else workload.timed_ops)]
    for argv in ops[:WARMUP_OPS]:
        run_command(cli, argv)
    tally = Tally(workload)
    if trace:
        metrics = traced_run(cli, workload, ops, tally)
    else:
        metrics = timed_run(cli, ops, seconds, tally)
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": not tally.problems,
        "attempted": tally.units,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all_workloads(args) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=True)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all_workloads(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
