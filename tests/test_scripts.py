"""Smoke test of the helper script under scripts/."""

import csv
import importlib.util
import sys
from pathlib import Path

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
