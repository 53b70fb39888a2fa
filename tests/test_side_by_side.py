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


def copy_of_src(tmp_path, patch):
    """A copy of the repository's voteboard package with code appended to
    its modules: patch maps a module's file name to the code."""
    shutil.copytree(ROOT / "src" / "voteboard", tmp_path / "voteboard",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name, code in patch.items():
        with (tmp_path / "voteboard" / name).open("a") as handle:
            handle.write(code)
    return tmp_path


# a to_json that appends a space, appended to io.py
SPACED_JSON = {"io.py": "\n_to_json = to_json\n\n\ndef to_json(payload):\n"
                        "    return _to_json(payload) + \" \"\n"}


def test_one_pass_of_one_rule_times_both_sides():
    done = run_tool("--passes", "1", "--rules", "borda")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "0 of 4 library ops differ in rendered output"
    rows = json.loads(lines[-1])
    assert list(rows) == ["all ops", "lib:aggregate:borda"]
    row = rows["lib:aggregate:borda"]
    assert row["parent_ms"] > 0 and row["change_ms"] > 0
    assert row["ratio"] == pytest.approx(row["change_ms"] / row["parent_ms"])
    assert "lib:aggregate:borda" in lines[3]
    assert lines[4].startswith("all ops ") and rows["all ops"] == pytest.approx(row)


def test_a_rule_no_op_names_is_refused():
    done = run_tool("--passes", "1", "--rules", "no_such_rule")
    assert done.returncode == 2
    assert "no op of the workload names those rules" in done.stderr


def test_cli_ops_whose_output_differs_are_counted_and_named(tmp_path):
    """A change tree whose to_json appends a space differs on every JSON CLI
    op, and the tool exits 1; the repository's own src against itself
    differs on none, and it exits 0."""
    args = ("--workload", "glue-cli", "--passes", "1", "--rules", "borda")
    changed = run_tool(*args, change=copy_of_src(tmp_path, SPACED_JSON))
    assert changed.returncode == 1, changed.stderr
    lines = changed.stdout.splitlines()
    assert lines[0].startswith("24 of 24 CLI ops differ in stdout or exit code: glue0:rank:borda, ")
    assert lines[0].endswith(", ...")
    rows = json.loads(lines[-1])
    assert set(rows) == {"cli:rank:borda", "cli:two_step:borda", "cli:compare:borda", "all ops"}
    assert rows["all ops"]["parent_ms"] == pytest.approx(
        sum(row["parent_ms"] for key, row in rows.items() if key != "all ops"))
    same = run_tool(*args)
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines()[0] == "0 of 24 CLI ops differ in stdout or exit code"
    assert set(json.loads(same.stdout.splitlines()[-1])) == set(rows)


def test_library_ops_whose_output_differs_are_counted_and_named(tmp_path):
    """A change tree whose positional totals are doubled renders every borda
    outcome differently; weakly_stable, unchanged and refused on wide0 with
    the same error on both sides, does not differ."""
    change = copy_of_src(tmp_path, {"scoring.py": (
        "\n_totals = _integer_totals\n\n\ndef _integer_totals(table, entries, lcm):\n"
        "    totals, unit = _totals(table, entries, lcm)\n"
        "    return [2 * x for x in totals], unit\n")})
    done = run_tool("--passes", "1", "--rules", "borda", "weakly_stable", change=change)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[0] == (
        "4 of 8 library ops differ in rendered output: "
        "wide0:borda, wide1:borda, wide2:borda, wide3:borda")


def test_experiment_reports_whose_json_differs_are_counted(tmp_path):
    """A change tree whose to_json appends a space differs on each board's
    iia op of the rule."""
    done = run_tool("--workload", "perturb", "--passes", "1", "--rules", "borda",
                    change=copy_of_src(tmp_path, SPACED_JSON))
    assert done.returncode == 1, done.stderr
    first = done.stdout.splitlines()[0]
    assert first.startswith("12 of 12 library ops differ in rendered output: perturb0:iia:borda, ")
    assert first.endswith(", ...")
