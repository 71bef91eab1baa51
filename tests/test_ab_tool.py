"""A smoke run of tools/ab.py: the working tree against itself, at a tiny
size.  It checks the layout of the table and of the JSON it writes, and
claims no verdict: with the same code on both sides the wins are noise."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNGS = ["ladder k=2", "ladder k=8", "ladder k=16", "far", "batch"]


def test_an_a_a_run_prints_and_writes_the_table(tmp_path):
    out = tmp_path / "ab.json"
    argv = [sys.executable, "tools/ab.py", ".", ".", "--blocks", "2", "--json", str(out)]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.split() == ["rung", "parent_us", "change_us", "ratio", "wins", "sign_p"]
    assert [row[:12].strip() for row in rows] == RUNGS
    for row in rows:
        assert re.fullmatch(r"\s*[\d.]+\s+[\d.]+\s+[\d.]+\s+[0-2]/2\s+\S+", row[12:]), row
    doc = json.loads(out.read_text())
    assert doc["parent"] == doc["change"] == "." and list(doc["blocks"]) == RUNGS
    for cell in doc["blocks"].values():
        assert set(cell) == {"parent_median_us", "change_median_us", "ratio", "wins", "blocks", "sign_test_p"}
        assert cell["blocks"] == 2 and 0 <= cell["wins"] <= 2 and 0.0 < cell["sign_test_p"] <= 1.0
