"""tools/side_by_side.py, run on the repository's own src as both sides."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "side_by_side.py"


def run_tool(*args, change=ROOT / "src"):
    return subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"), str(change), *args],
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


def test_cli_ops_whose_output_differs_are_counted_and_named(tmp_path):
    """A change tree whose to_json appends a space differs on every JSON CLI
    op; the repository's own src against itself differs on none."""
    shutil.copytree(ROOT / "src" / "voteboard", tmp_path / "voteboard",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with (tmp_path / "voteboard" / "io.py").open("a") as handle:
        handle.write("\n_to_json = to_json\n\n\ndef to_json(payload):\n"
                     "    return _to_json(payload) + \" \"\n")
    args = ("--workload", "glue-cli", "--passes", "1", "--rules", "borda")
    changed = run_tool(*args, change=tmp_path)
    assert changed.returncode == 0, changed.stderr
    lines = changed.stdout.splitlines()
    assert lines[0].startswith("24 of 24 CLI ops differ in stdout or exit code: glue0:rank:borda, ")
    assert lines[0].endswith(", ...")
    rows = json.loads(lines[-1])
    assert set(rows) == {"cli:rank:borda", "cli:two_step:borda", "cli:compare:borda"}
    same = run_tool(*args)
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines()[0] == "0 of 24 CLI ops differ in stdout or exit code"
    assert set(json.loads(same.stdout.splitlines()[-1])) == set(rows)
