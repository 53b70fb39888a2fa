"""tools/side_by_side.py, run on the repository's own src as both sides."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "side_by_side.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"), str(ROOT / "src"), *args],
                          capture_output=True, text=True, timeout=300)


def test_one_pass_of_one_rule_times_both_sides():
    done = run_tool("--passes", "1", "--rules", "borda")
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout.splitlines()[-1])
    assert list(rows) == ["lib:aggregate:borda"]
    row = rows["lib:aggregate:borda"]
    assert row["parent_ms"] > 0 and row["change_ms"] > 0
    assert row["ratio"] == pytest.approx(row["change_ms"] / row["parent_ms"])
    assert "lib:aggregate:borda" in done.stdout.splitlines()[2]


def test_a_rule_no_op_names_is_refused():
    done = run_tool("--passes", "1", "--rules", "no_such_rule")
    assert done.returncode == 2
    assert "no op of the workload names those rules" in done.stderr
