"""A smoke run of tools/ab.py: the working tree against itself, at a tiny
size.  It checks the layout of the table and of the JSON it writes, and
claims no verdict: with the same code on both sides the wins are noise.
The Holm verdict is checked on fixed block times, with no timing."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import ab  # noqa: E402

RUNGS = ["ladder k=2", "ladder k=8", "ladder k=16", "far", "mixed k=16", "mixed batch", "every cusp", "batch"]


def test_an_a_a_run_prints_and_writes_the_table(tmp_path):
    out = tmp_path / "ab.json"
    argv = [sys.executable, "tools/ab.py", ".", ".", "--blocks", "2", "--json", str(out)]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.split() == ["rung", "parent_us", "change_us", "ratio", "wins", "sign_p", "holm"]
    assert [row[:12].strip() for row in rows] == RUNGS
    # two blocks give p >= 0.5, which Holm never rejects
    for row in rows:
        assert re.fullmatch(r"\s*[\d.]+\s+[\d.]+\s+[\d.]+\s+[0-2]/2\s+\S+\s+-", row[12:]), row
    doc = json.loads(out.read_text())
    assert doc["parent"] == doc["change"] == "." and list(doc["blocks"]) == RUNGS
    assert doc["holm_level"] == 0.05
    for cell in doc["blocks"].values():
        assert set(cell) == {"parent_median_us", "change_median_us", "ratio", "wins", "blocks", "sign_test_p", "holm"}
        assert cell["blocks"] == 2 and 0 <= cell["wins"] <= 2 and 0.0 < cell["sign_test_p"] <= 1.0
        assert cell["holm"] == "-"


def blocks(wins, n=40):
    """Block times of one rung where the change is faster in `wins` of n."""
    return {"parent": [2.0] * n, "change": [1.0] * wins + [3.0] * (n - wins)}


@pytest.mark.parametrize("wins, verdicts", [
    # 40 of 40 (p 1.8e-12) is rejected at 0.05/8; 10 of 40 (p 0.0022) then
    # at 0.05/7; 13 of 40 (p 0.038), below 0.05 alone, is not at 0.05/6,
    # and the rungs after it are not tested
    ([40, 10, 13, 20, 21, 19, 22, 18], ["faster", "slower", "-", "-", "-", "-", "-", "-"]),
    # 11 of 40 (p 0.0064) is the smallest p and above 0.05/8: no rung is called
    ([11, 13, 20, 21, 19, 22, 18, 20], ["-"] * 8),
    # every rung at p 1.8e-12
    ([40, 0, 40, 0, 40, 0, 40, 0], ["faster", "slower"] * 4),
])
def test_holm_verdict_over_the_rungs(capsys, wins, verdicts):
    table = ab.summarize({rung: blocks(w) for rung, w in zip(RUNGS, wins)})
    assert [table[rung]["holm"] for rung in RUNGS] == verdicts
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[-1] for row in rows] == verdicts
    assert ab.sign_test(13, 40) < 0.05 < ab.sign_test(14, 40)


def test_holm_steps_down_from_the_smallest_p():
    # the thresholds at 0.05 over three are 0.0167, 0.025 and 0.05
    assert ab.holm({"a": 0.01, "b": 0.03, "c": 0.02}, 0.05) == {"a", "b", "c"}
    assert ab.holm({"a": 0.01, "b": 0.06, "c": 0.02}, 0.05) == {"a", "c"}
    # 0.03 misses 0.025 and stops the procedure before 0.04
    assert ab.holm({"a": 0.001, "b": 0.03, "c": 0.04}, 0.05) == {"a"}
    assert ab.holm({"a": 0.02, "b": 0.02, "c": 0.02}, 0.05) == set()
    assert ab.holm({}, 0.05) == set()
