"""The helper scripts under scripts/: a smoke run of the bracket scan and
the aggregation of the benchmark pairs, which runs no benchmark."""

import csv
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "phs_bracket_scan.py"


def test_phs_bracket_scan_writes_every_grid_row(tmp_path, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("phs_bracket_scan", SCRIPT)
    scan = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules while the body runs
    monkeypatch.setitem(sys.modules, spec.name, scan)
    spec.loader.exec_module(scan)

    out = tmp_path / "scan.csv"
    # exit 0 includes the scan's own assertion that the first kind vanishes at k2 = 0
    assert scan.main(["--out", str(out), "--grid-n", "5"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9 * 2 * 5 * 5
    assert {row["kind"] for row in rows} == {"first", "second"}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPT.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summarizes_alternating_runs():
    bench = _load("bench_pairs")
    end_to_end = [
        {"name": "op_p50_cal", "unit": "cal", "better": "lower"},
        {"name": "units_per_cal", "unit": "1/cal", "better": "higher"},
    ]

    def result(op, units, attempted=10, failed=0):
        return {"correct": True, "attempted": attempted, "failed": failed,
                "metrics": {"op_p50_cal": {"value": op}, "units_per_cal": {"value": units}}}

    pairs = [
        {"seed": 7, "parent": result(10.0, 2.0), "change": result(5.0, 4.0)},
        {"seed": 8, "parent": result(12.0, 1.0), "change": result(6.0, 1.0, failed=1)},
        {"seed": 9, "parent": result(11.0, 3.0), "change": result(13.0, 5.0)},
        {"seed": 10, "parent": result(9.0, 2.0), "change": result(4.0, 3.0)},
    ]
    record = bench.summarize(end_to_end, pairs)
    assert record["seeds"] == [7, 8, 9, 10] and record["pairs"] == 4
    op = record["metrics"]["op_p50_cal"]
    # inclusive quartiles: linear between the order statistics 9, 10, 11, 12
    assert op["parent"] == {"median": 10.5, "q1": 9.75, "q3": 11.25, "runs": [10.0, 12.0, 11.0, 9.0]}
    assert op["change"]["median"] == 5.5
    assert op["change_wins"] == 3
    assert op["relative_change_of_median"] == round(5.5 / 10.5 - 1.0, 4)
    units = record["metrics"]["units_per_cal"]
    # higher is better here, and a tie is no win
    assert units["change_wins"] == 3
    assert (record["change_attempted"], record["change_failed"], record["parent_failed"]) == (40, 1, 0)
    assert bench.claim({"deformation": record}, "deformation") == {
        "workload": "deformation",
        "metric": "units_per_cal",
        "parent_median": 2.0,
        "change_median": 3.5,
        "parent_iqr": 0.5,
        "change_wins": "3 of 4 pairs",
    }


def test_bench_pairs_reads_the_parent_revision_before_any_run(tmp_path, monkeypatch):
    bench = _load("bench_pairs")
    runs = []
    monkeypatch.setattr(bench, "run_once", lambda *args: runs.append(args))
    # tmp_path is not a git checkout, and git may not look above it: git rev-parse fails
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    with pytest.raises(subprocess.CalledProcessError):
        bench.main(["--parent-tree", str(tmp_path), "--workload", "sweep", "--pairs", "2"])
    assert runs == []


def test_bench_pairs_refuses_trees_whose_paths_differ_in_length(tmp_path, monkeypatch, capsys):
    bench = _load("bench_pairs")
    runs = []

    class Ran(Exception):
        pass

    def run_once(tree, *args):
        runs.append(tree)
        raise Ran

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "_rev", lambda tree: "0" * 40)
    monkeypatch.setattr(bench, "ROOT", tmp_path / "repo")
    (tmp_path / "repo").mkdir()
    (tmp_path / "repo" / "BENCHMARK.json").write_text('{"end_to_end": []}')
    argv = ["--workload", "sweep", "--pairs", "2"]
    with pytest.raises(SystemExit) as exc:
        bench.main(["--parent-tree", str(tmp_path / "parent"), *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--parent-tree {tmp_path / 'parent'} and the working tree {tmp_path / 'repo'}" in err
    assert runs == []
    # a parent path of the same length gets to the first run
    with pytest.raises(Ran):
        bench.main(["--parent-tree", str(tmp_path / "prnt"), *argv])
    assert runs == [tmp_path / "prnt"]
