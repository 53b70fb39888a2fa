import csv
import enum
import io
import json
import math
import os
import random
import subprocess
import sys
import time

from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voteboard as vb
from voteboard import ParseError
from voteboard import io as vio
from voteboard.cli import build_parser, main
from voteboard.io import (
    jsonify,
    load_leaderboard,
    outcome_to_dict,
    render_outcome_table,
    to_json,
)
from voteboard.model import LazyScores

import reference

BASIC_CSV = """system,t1,t2,t3
#direction,max,max,min
#weight,1,0.5,2
alpha,91.2,88.0,4.0
beta,90.1,,3.5
gamma,89.9,91.0,5.0
"""


@pytest.fixture
def csv_path(tmp_path):
    p = tmp_path / "board.csv"
    p.write_text(BASIC_CSV)
    return p


@pytest.fixture
def full_csv(tmp_path):
    # no holes, so score-based rules work too
    p = tmp_path / "full.csv"
    p.write_text(
        "system,t1,t2,t3\nalpha,91.2,88.0,70.0\nbeta,90.1,92.5,71.0\n"
        "gamma,89.9,91.0,69.5\n"
    )
    return p


def test_load_leaderboard(csv_path):
    lb = load_leaderboard(csv_path)
    assert lb.systems == ("alpha", "beta", "gamma")
    assert lb.tasks == ("t1", "t2", "t3")
    assert lb.score("beta", "t2") is None
    assert lb.direction("t3") == "min"
    assert lb.task_weight("t2") == vb.as_fraction("0.5")
    assert lb.task_weight("t3") == 2


def test_normalize_divides_by_100(csv_path):
    lb = load_leaderboard(csv_path, normalize=True)
    assert lb.score("alpha", "t1") == pytest.approx(0.912)


def test_sidecar_groups_and_weights(tmp_path, csv_path):
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"t1": "lang", "t2": "lang", "t3": "speed"}))
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"t1": 3}))
    lb = load_leaderboard(csv_path, groups_path=groups, weights_path=weights)
    assert reference.group_map(lb) == {"lang": ("t1", "t2"), "speed": ("t3",)}
    assert lb.task_weight("t1") == 3  # sidecar wins over the #weight row
    assert lb.task_weight("t3") == 2


def test_files_with_a_utf8_byte_order_mark_load(tmp_path, csv_path, capsys):
    """A CSV saved as "CSV UTF-8", and a sidecar saved so, start with a BOM."""
    bom = b"\xef\xbb\xbf"
    marked = tmp_path / "marked.csv"
    marked.write_bytes(bom + csv_path.read_bytes())
    assert load_leaderboard(marked) == load_leaderboard(csv_path)
    weights = tmp_path / "weights.json"
    weights.write_bytes(bom + json.dumps({"t1": 3}).encode())
    groups = tmp_path / "groups.json"
    groups.write_bytes(bom + json.dumps({"t1": "lang", "t2": "lang", "t3": "speed"}).encode())
    lb = load_leaderboard(marked, weights_path=weights, groups_path=groups)
    assert lb.task_weight("t1") == 3
    assert reference.group_map(lb) == {"lang": ("t1", "t2"), "speed": ("t3",)}
    outputs = []
    for path in (csv_path, marked):
        assert main(["rank", "-i", str(path), "--rule", "copeland", "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_parse_errors(tmp_path):
    cases = [
        "",  # empty
        "model,t1\na,1\n",  # wrong first header
        "system\na\n",  # no tasks
        "system,t1,t1\na,1,2\n",  # duplicate task
        "system,t1\na,1\na,2\n",  # duplicate system
        "system,t1\na,nan\n",  # non-finite
        "system,t1\na,inf\n",
        "system,t1\na,xyz\n",  # not a number
        "system,t1\na,1,2\n",  # ragged row
        "system,t1\n#direction,sideways\n",  # bad direction
        "system,t1\n#volume,1\na,1\n",  # unknown metadata row
        "system,t1\n#weight,-2\na,1\n",  # negative weight
        "system,t1\n#weight,1/0\na,1\n",  # zero denominator
    ]
    for body in cases:
        p = tmp_path / "bad.csv"
        p.write_text(body)
        with pytest.raises(ParseError):
            load_leaderboard(p)


def test_sidecar_unknown_task(tmp_path, csv_path):
    sidecar = tmp_path / "groups.json"
    sidecar.write_text(json.dumps({"t9": "g"}))
    with pytest.raises(ParseError) as caught:
        load_leaderboard(csv_path, groups_path=sidecar)
    assert str(caught.value) == f"{sidecar}: unknown tasks ['t9']"
    with pytest.raises(ParseError) as caught:
        load_leaderboard(csv_path, weights_path=sidecar)
    assert str(caught.value) == f"{sidecar}: unknown tasks ['t9']"


def test_outcome_round_trip(toy):
    for rule in ("borda", "plurality", "minimax", "condorcet", "minimal_dominant"):
        out = vb.aggregate(toy, rule)
        data = outcome_to_dict(out)
        back = reference.outcome_from_dict(data)
        assert back.ranking == out.ranking
        assert back.unranked == out.unranked
        assert back.rule_id == out.rule_id
        assert back.mode == out.mode


def test_to_json_is_stable(toy):
    out = vb.aggregate(toy, "borda")
    assert to_json(outcome_to_dict(out)) == to_json(outcome_to_dict(out))


def test_render_table_marks_movement(toy):
    table = render_outcome_table(
        vb.aggregate(toy, "minimax"), baseline=vb.aggregate(toy, "plurality")
    )
    assert "vs plurality" in table
    assert "down" in table or "up" in table


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_survives_a_usage_error(full_csv, capsys):
    assert build_parser() is build_parser()
    request = ["rank", "--input", str(full_csv), "--rule", "copeland", "--format", "json"]
    code, before, _ = run_cli(request, capsys)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--input", str(full_csv), "--rule", "borda", "--gamma", "x"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert run_cli(request, capsys) == (0, before, "")


def test_cli_rank_table(full_csv, capsys):
    code, out, err = run_cli(
        ["rank", "--input", str(full_csv), "--rule", "borda"], capsys
    )
    assert code == 0
    assert "rank" in out and "alpha" in out


def test_cli_rank_json_deterministic(csv_path, capsys):
    args = ["rank", "--input", str(csv_path), "--rule", "minimax", "--format", "json"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    code, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["rule"] == "minimax"
    assert payload["ranking"][0]["rank"] == 1


def test_cli_winner_no_condorcet(tmp_path, capsys):
    p = tmp_path / "cycle.csv"
    p.write_text(
        "system,t1,t2,t3\na,3,1,2\nb,2,3,1\nc,1,2,3\n"
    )
    code, out, err = run_cli(
        ["winner", "--input", str(p), "--rule", "condorcet"], capsys
    )
    assert code == 0
    assert "no Condorcet winner" in out


def test_cli_rank_against_a_baseline_that_leaves_systems_unranked(tmp_path, capsys):
    """condorcet ranks no one on a cyclic board, so every system is new to it."""
    p = tmp_path / "cycle.csv"
    p.write_text("system,t1,t2,t3\na,3,1,2\nb,2,3,1\nc,1,2,3\n")
    request = ["rank", "--input", str(p), "--rule", "borda", "--baseline", "condorcet"]
    code, out, err = run_cli(request, capsys)
    assert code == 0, err
    assert out.splitlines()[2:] == ["1     a       3      new", "1     b       3      new",
                                    "1     c       3      new"]
    code, out, err = run_cli(request + ["--format", "json"], capsys)
    assert code == 0, err
    baseline = json.loads(out)["baseline"]
    assert baseline["rule"] == "condorcet" and baseline["ranking"] == []
    assert baseline["diagnostics"]["unranked"] == ["a", "b", "c"]


def test_cli_rank_of_a_rule_that_leaves_systems_unranked(full_csv, capsys):
    """The systems condorcet leaves unranked print as - rows with no movement."""
    request = ["rank", "--input", str(full_csv), "--rule", "condorcet", "--baseline", "borda"]
    code, out, err = run_cli(request, capsys)
    assert code == 0, err
    assert out.splitlines()[2:] == ["1     beta           same", "-     alpha", "-     gamma"]
    code, out, err = run_cli(request + ["--format", "json"], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["ranking"] == [{"rank": 1, "score": None, "systems": ["beta"]}]
    assert payload["diagnostics"]["unranked"] == ["alpha", "gamma"]
    assert [item["systems"] for item in payload["baseline"]["ranking"]] == [
        ["beta"], ["alpha"], ["gamma"]
    ]


def test_python_dash_m_runs_the_command_line(full_csv, capsys):
    """python -m voteboard prints what main prints, under -X dev -W error."""
    request = ["rank", "--input", str(full_csv), "--rule", "borda", "--format", "json"]
    _, expected, _ = run_cli(request, capsys)
    src = str(Path(vb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "voteboard", *request],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


# run with site-packages off, voteboard's src put on sys.path by hand
NO_SITE_RUN = """
import importlib.util, sys
sys.path.insert(0, sys.argv[1])
import voteboard
from voteboard.cli import main
assert importlib.util.find_spec("pytest") is None, "site-packages is on the path"
code = main(["rank", "--input", sys.argv[2], "--rule", "borda", "--format", "json"])
loaded = {name.partition(".")[0] for name in sys.modules}
print(sorted(loaded - set(sys.stdlib_module_names) - {"__main__", "voteboard"}))
sys.exit(code)
"""


def test_the_library_and_the_command_line_run_on_the_standard_library_alone(full_csv, capsys):
    """No runtime dependencies: under python -I -S, which leaves site-packages
    off the path, voteboard and its CLI import and rank, and every module
    they load is voteboard's or the standard library's. -I ignores
    PYTHONDONTWRITEBYTECODE, so -B keeps the run from writing bytecode
    caches into the source tree."""
    request = ["rank", "--input", str(full_csv), "--rule", "borda", "--format", "json"]
    _, expected, _ = run_cli(request, capsys)
    src = Path(vb.__file__).resolve().parents[1]
    caches = set(src.rglob("__pycache__"))
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", NO_SITE_RUN, str(src),
                           str(full_csv)], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == expected + "[]\n"
    assert set(src.rglob("__pycache__")) == caches


def test_cli_exit_codes(csv_path, tmp_path, capsys):
    code, _, err = run_cli(
        ["rank", "--input", str(tmp_path / "nope.csv"), "--rule", "borda"], capsys
    )
    assert code == 1
    code, _, err = run_cli(
        ["rank", "--input", str(csv_path), "--rule", "nosuch"], capsys
    )
    assert code == 2
    code, _, err = run_cli(
        ["rank", "--input", str(csv_path), "--rule", "borda", "--mode", "two_step"],
        capsys,
    )
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--rule", "borda"])  # missing --input
    assert exc.value.code == 1


def test_cli_cw_weights(csv_path, capsys):
    code, out, _ = run_cli(
        ["cw-weights", "--input", str(csv_path), "--system", "alpha",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] in ("prospective", "non_prospective")


def test_cli_compare(full_csv, capsys):
    code, out, _ = run_cli(
        ["compare", "--input", str(full_csv), "--rules", "borda", "minimax",
         "--top-k", "2"],
        capsys,
    )
    assert code == 0
    assert "kendall_tau" in out


def test_cli_robustness_clamps_top_k_to_the_system_count(tmp_path, capsys):
    """--top-k above the number of systems reads as that number, where the
    library's robustness_experiment refuses it."""
    board = tmp_path / "four.csv"
    board.write_text("system,t1,t2,t3\na,4,1,3\nb,3,4,1\nc,2,3,4\nd,1,2,2\n")
    outs = []
    for k in ("9", "4"):
        code, out, err = run_cli(["experiment", "robustness", "-i", str(board), "--rules",
                                  "copeland", "mean", "--omit", "2", "--trials", "6",
                                  "--seed", "3", "--top-k", k, "--format", "json"], capsys)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["params"]["top_k"] == 4


def test_cli_experiment_seed_env(full_csv, capsys, monkeypatch):
    args = ["experiment", "iia", "--input", str(full_csv), "--rule", "borda",
            "--trials", "4", "--format", "json"]
    monkeypatch.setenv("VNR_SEED", "123")
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 123
    monkeypatch.setenv("VNR_SEED", "not-a-number")
    code, _, err = run_cli(args, capsys)
    assert code == 1
    # explicit flag beats the env var
    monkeypatch.setenv("VNR_SEED", "123")
    code, out, _ = run_cli(args + ["--seed", "5"], capsys)
    assert json.loads(out)["seed"] == 5


def test_cli_robustness(full_csv, capsys):
    code, out, _ = run_cli(
        ["experiment", "robustness", "--input", str(full_csv),
         "--rules", "minimax", "mean", "--omit", "1", "--trials", "5",
         "--seed", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "robustness"
    assert set(payload["series"]) == {"minimax", "mean"}


def cyclic_csv(n):
    """n systems scoring (i - j) mod n on task j: a regular majority tournament.

    Every system beats the n // 2 systems after it, so the minimal dominant
    set holds all n systems.
    """
    header = ",".join(["system", *[f"t{j}" for j in range(n)]])
    rows = [",".join([f"s{i}", *[str((i - j) % n) for j in range(n)]]) for i in range(n)]
    return "\n".join([header, *rows]) + "\n"


# one row per failure class: (id, files the request reads, argv after the
# file flags are filled in, documented exit code)
FAILURE_FILES = {
    "holed": BASIC_CSV,
    "full": "system,t1,t2,t3\nalpha,91.2,88.0,70.0\nbeta,90.1,92.5,71.0\n"
            "gamma,89.9,91.0,69.5\n",
    "pair": "system,t1,t2\nalpha,1,2\nbeta,2,1\n",
    # a, b and c form a majority cycle above d, which minimal_dominant leaves unranked
    "cycle_above_last": "system,x,y,z\na,3,1,2\nb,2,3,1\nc,1,2,3\nd,0,0,0\n",
    "ragged": "system,t1,t2\nalpha,1\n",
    "zero": "system,t1\nalpha,0\nbeta,1\n",
    "groups": json.dumps({"t1": "g", "t2": "g", "t3": "h"}),
    "zero_weight": json.dumps({"t1": "1/0"}),
    "inf_weight": json.dumps({"t1": "inf"}),
    "inf_weight_row": "system,t1,t2\n#weight,inf,1\nalpha,1,2\nbeta,2,1\n",
    "huge_weight_row": "system,t1,t2\n#weight,1e10000000,1\nalpha,1,2\nbeta,2,1\n",
    "long_field": "system,t1\nalpha," + "1" * 131073 + "\nbeta,2\n",
    "cycle19": cyclic_csv(19),
    "long_int_weight": '{"t1": 1' + "0" * 5000 + "}",
    "binary_weights": b'{"t1": "\xff"}',
    "binary_csv": b"system,t1\nalpha,1\n\xff,2\n",
    # every pair ties, so the set rules choose all three
    "tied3": "system,t1,t2\ns0,3,1\ns1,1,3\ns2,2,2\n",
    "far_weights": "system,t1,t2\n#weight,1,1e-7\nalpha,0.5,0.3\nbeta,0.25,0.9\n",
    "huge_and_unit_weights": "system,t1,t2\n#weight,1e300,1\nalpha,0.5,0.3\nbeta,0.25,0.9\n",
    # two middle cells of t near the float limit: their median overflows
    "near_limit": "system,t,u\na,1.7e308,0\nb,1.7e308,1\nc,1.0,2\nd,1.6e308,3\ne,1.5e308,4\n",
    # a positive cell whose float is 0.0
    "below_floats": "system,t1\nalpha,1e-400\nbeta,1\n",
    "below_limit": "system,t1\nalpha,1e-1001\nbeta,1\n",
    "beyond_floats": "system,t1\nalpha,1.8e308\nbeta,1\n",
    "one_heavy_task": "system,t1\n#weight,1e7\n" + "".join(
        f"s{i},0.{917 - 13 * i}\n" for i in range(6)
    ),
    "short_weight_row": "system,t1,t2\n#weight,1\nalpha,1,2\n",
    "empty_name": "system,t1\nalpha,1\n,2\n",
    "header_only": "system,t1,t2\n",
    "unknown_task_weight": json.dumps({"t9": 1}),
    "list_weights": json.dumps([1, 2, 3]),
}
FAILURES = [
    ("malformed csv", ["rank", "-i", "{ragged}", "--rule", "borda"], 1),
    ("bad flag value", ["rank", "-i", "{full}", "--rule", "borda", "--gamma", "x"], 1),
    ("unknown rule", ["winner", "-i", "{full}", "--rule", "nosuch"], 2),
    ("set rule in two_step",
     ["rank", "-i", "{full}", "--groups", "{groups}", "--rule", "uncovered",
      "--mode", "two_step"], 2),
    ("score rule on a hole", ["rank", "-i", "{holed}", "--rule", "mean"], 2),
    ("custom without a vector", ["rank", "-i", "{full}", "--rule", "custom"], 2),
    ("gmean on a zero score", ["rank", "-i", "{zero}", "--rule", "gmean"], 2),
    ("optimality gap out of range", ["rank", "-i", "{full}", "--rule", "optimality_gap"], 2),
    ("optimality gap with gamma nan",
     ["rank", "-i", "{full}", "--rule", "optimality_gap", "--gamma", "nan"], 2),
    ("iia optimality gap with gamma inf",
     ["experiment", "iia", "-i", "{full}", "--rule", "optimality_gap", "--gamma", "inf"], 2),
    ("sidecar weight with a zero denominator",
     ["rank", "-i", "{full}", "--weights", "{zero_weight}", "--rule", "borda"], 1),
    ("sidecar weight inf",
     ["rank", "-i", "{full}", "--weights", "{inf_weight}", "--rule", "borda"], 1),
    ("weight row cell inf", ["rank", "-i", "{inf_weight_row}", "--rule", "borda"], 1),
    ("weight row cell with a huge exponent",
     ["rank", "-i", "{huge_weight_row}", "--rule", "borda"], 1),
    ("csv field over the csv module's size limit",
     ["rank", "-i", "{long_field}", "--rule", "borda"], 1),
    ("optimality gap with gamma 0",
     ["rank", "-i", "{full}", "--normalize", "--rule", "optimality_gap", "--gamma", "0"], 2),
    ("compare top-k 0",
     ["compare", "-i", "{full}", "--rules", "borda", "mean", "--top-k", "0"], 2),
    ("cw unknown system", ["cw-weights", "-i", "{full}", "--system", "nosuch"], 2),
    ("cw negative margin",
     ["cw-weights", "-i", "{full}", "--system", "alpha", "--margin", "-1"], 2),
    ("cw negative lower bound",
     ["cw-weights", "-i", "{full}", "--system", "alpha", "--lower", "-0.5"], 2),
    ("cw contradictory bounds",
     ["cw-weights", "-i", "{full}", "--system", "alpha", "--lower", "0.5"], 2),
    ("cw non-finite margin",
     ["cw-weights", "-i", "{full}", "--system", "alpha", "--margin", "nan"], 2),
    ("cw non-finite upper bound",
     ["cw-weights", "-i", "{full}", "--system", "alpha", "--upper", "inf"], 2),
    ("iia trials 0",
     ["experiment", "iia", "-i", "{full}", "--rule", "borda", "--trials", "0"], 2),
    ("iia on two systems", ["experiment", "iia", "-i", "{pair}", "--rule", "borda"], 2),
    ("iia on a set rule",
     ["experiment", "iia", "-i", "{full}", "--rule", "minimal_dominant"], 2),
    ("robustness top-k 0",
     ["experiment", "robustness", "-i", "{full}", "--rules", "minimax", "--top-k", "0"], 2),
    ("robustness negative omit",
     ["experiment", "robustness", "-i", "{full}", "--rules", "minimax", "--omit", "-1"], 2),
    ("robustness omits too many",
     ["experiment", "robustness", "-i", "{full}", "--rules", "minimax", "--omit", "99"], 2),
    ("robustness rule without missing support",
     ["experiment", "robustness", "-i", "{full}", "--rules", "borda"], 2),
    ("robustness rule named twice",
     ["experiment", "robustness", "-i", "{full}", "--rules", "copeland", "copeland"], 2),
    # refused up front, though copeland does not read gamma
    ("robustness with gamma nan",
     ["experiment", "robustness", "-i", "{full}", "--rules", "copeland", "--gamma", "nan",
      "--format", "json"], 2),
    ("robustness with gamma 0",
     ["experiment", "robustness", "-i", "{full}", "--rules", "copeland", "--gamma", "0"], 2),
    ("sidecar weight with 5,001 digits",
     ["rank", "-i", "{full}", "--weights", "{long_int_weight}", "--rule", "borda"], 1),
    ("sidecar weights that are not UTF-8",
     ["rank", "-i", "{full}", "--weights", "{binary_weights}", "--rule", "borda"], 1),
    ("csv that is not UTF-8", ["rank", "-i", "{binary_csv}", "--rule", "borda"], 1),
    ("weakly_stable over a dominant set too large to search",
     ["rank", "-i", "{cycle19}", "--rule", "weakly_stable"], 2),
    ("robustness with a set rule that ranks everyone until cells go",
     ["experiment", "robustness", "-i", "{tied3}", "--rules", "uncovered", "--omit", "2",
      "--top-k", "3", "--trials", "2", "--seed", "0"], 2),
    ("robustness with a set rule that leaves a system unranked on the intact board",
     ["experiment", "robustness", "-i", "{cycle_above_last}", "--rules", "minimal_dominant",
      "--omit", "1", "--top-k", "2", "--trials", "2"], 2),
    ("robustness with condorcet",
     ["experiment", "robustness", "-i", "{tied3}", "--rules", "condorcet", "--omit", "2",
      "--top-k", "3", "--trials", "2", "--seed", "0"], 2),
    ("gmean under weights 1 and 1e-7",
     ["rank", "-i", "{far_weights}", "--rule", "gmean"], 2),
    ("gmean under weights 1e300 and 1",
     ["rank", "-i", "{huge_and_unit_weights}", "--rule", "gmean"], 2),
    ("robustness whose median of a task overflows",
     ["experiment", "robustness", "-i", "{near_limit}", "--rules", "mean", "--omit", "1",
      "--trials", "2", "--top-k", "2", "--seed", "1"], 2),
    ("gmean with one task of weight 1e7", ["rank", "-i", "{one_heavy_task}", "--rule", "gmean"], 0),
    ("gmean on a positive cell whose float is 0.0",
     ["rank", "-i", "{below_floats}", "--rule", "gmean"], 2),
    ("score cell below 1e-1000", ["rank", "-i", "{below_limit}", "--rule", "borda"], 1),
    ("score cell beyond the float range", ["rank", "-i", "{beyond_floats}", "--rule", "borda"], 1),
    ("weight row shorter than the header", ["rank", "-i", "{short_weight_row}", "--rule", "borda"],
     1),
    ("empty system name", ["rank", "-i", "{empty_name}", "--rule", "borda"], 1),
    ("csv with a header and no systems", ["rank", "-i", "{header_only}", "--rule", "borda"], 1),
    ("sidecar weight for an unknown task",
     ["rank", "-i", "{full}", "--weights", "{unknown_task_weight}", "--rule", "borda"], 1),
    ("sidecar weights that are a JSON list",
     ["rank", "-i", "{full}", "--weights", "{list_weights}", "--rule", "borda"], 1),
    ("sidecar weights that cannot be read",
     ["rank", "-i", "{full}", "--weights", "{full}.missing", "--rule", "borda"], 1),
]


@pytest.mark.parametrize("argv,expected", [
    pytest.param(argv, code, id=name) for name, argv, code in FAILURES
])
def test_cli_failure_classes_exit_with_documented_code(tmp_path, capsys, argv, expected):
    paths = {}
    for name, text in FAILURE_FILES.items():
        paths[name] = tmp_path / name
        if isinstance(text, bytes):
            paths[name].write_bytes(text)
        else:
            paths[name].write_text(text)
    args = [a.format(**paths) for a in argv]
    start = time.perf_counter()
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected, err
    assert "internal error" not in err
    assert time.perf_counter() - start < 5.0


def test_gmean_refuses_a_cell_whose_float_is_zero_before_its_log(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(FAILURE_FILES["below_floats"])
    lb = load_leaderboard(path)
    assert lb.score("alpha", "t1") == F(1, 10**400)
    with pytest.raises(vb.NonPositiveScore, match="'alpha' on 't1' is 0.0"):
        vb.aggregate(lb, "gmean")
    # the rank rules still tell it from zero
    assert vb.aggregate(lb, "borda").ranking == (frozenset({"beta"}), frozenset({"alpha"}))


# (id, board, argv after -i, the ranking's JSON): exact cells decide ties
CLI_RANKINGS = [
    ("mean ties a and b", "system,x,y\na,4.9,2.9\nb,3.1,4.7\n", ["--rule", "mean"],
     [{"rank": 1, "systems": ["a", "b"], "score": 3.9}]),
    ("mean ties a and b under --normalize", "system,x,y\na,4.9,2.9\nb,3.1,4.7\n",
     ["--rule", "mean", "--normalize"],
     [{"rank": 1, "systems": ["a", "b"], "score": 0.039}]),
    ("borda tells 2**53 + 1 from 2**53", f"system,x\na,{2**53 + 1}\nb,{2**53}\n",
     ["--rule", "borda"],
     [{"rank": 1, "systems": ["a"], "score": 1.0}, {"rank": 2, "systems": ["b"], "score": 0.0}]),
]


@pytest.mark.parametrize("board,argv,ranking", [
    pytest.param(board, argv, ranking, id=name) for name, board, argv, ranking in CLI_RANKINGS
])
def test_cli_rankings_on_exact_cells(tmp_path, capsys, board, argv, ranking):
    path = tmp_path / "board.csv"
    path.write_text(board)
    code, out, err = run_cli(["rank", "-i", str(path), *argv, "--format", "json"], capsys)
    assert code == 0, err
    assert json.loads(out)["ranking"] == ranking


@settings(max_examples=200, deadline=None, database=None)
@given(tenths=st.lists(st.integers(0, 1000), min_size=1, max_size=4))
@example(tenths=[7])
@example(tenths=[49, 29])
def test_normalize_reads_one_decimal_percentages_as_exact_hundredths(tmp_path_factory, tenths):
    """Each of 0.0, 0.1, ..., 100.0 under --normalize is k/1000 exactly, on a
    board equal to one built from those Fractions."""
    path = tmp_path_factory.mktemp("normalize") / "board.csv"
    tasks = [f"t{j}" for j in range(len(tenths))]
    cells = [f"{k // 10}.{k % 10}" for k in tenths]
    path.write_text(",".join(["system", *tasks]) + "\n" + ",".join(["a", *cells]) + "\n")
    lb = load_leaderboard(path, normalize=True)
    assert [lb.score("a", t) for t in tasks] == [F(k, 1000) for k in tenths]
    assert lb == vb.Leaderboard.from_scores({"a": {t: F(k, 1000) for t, k in zip(tasks, tenths)}})


@pytest.mark.parametrize("argv", [
    ["rank", "-i", "{full}", "--rule", "custom"],
    ["rank", "-i", "{full}", "--rule", "borda", "--baseline", "custom"],
    ["winner", "-i", "{full}", "--rule", "custom"],
    ["compare", "-i", "{full}", "--rules", "borda", "custom"],
    ["experiment", "iia", "-i", "{full}", "--rule", "custom"],
    ["experiment", "robustness", "-i", "{full}", "--rules", "copeland", "custom"],
], ids=["rank", "baseline", "winner", "compare", "iia", "robustness"])
def test_custom_is_an_unknown_rule_on_the_command_line(full_csv, capsys, argv):
    """The CLI has no flag for a scoring vector, so it offers no custom rule;
    the library keeps it."""
    code, _, err = run_cli([a.format(full=full_csv) for a in argv], capsys)
    assert code == 2
    assert "unknown rule: 'custom'" in err


def test_rank_help_lists_every_rule_but_custom(capsys):
    with pytest.raises(SystemExit):
        main(["rank", "--help"])
    listed = " ".join(capsys.readouterr().out.split()).split("one of: ")[1]
    assert "custom" not in listed
    assert all(rule in listed for rule in vb.rule_ids() if rule != "custom")


SCORE_STRINGS = st.one_of(
    st.builds(
        "{}{}{}".format,
        st.from_regex(r"\A[+-]?[0-9]{1,6}(\.[0-9]{0,6})?\Z"),
        st.sampled_from(["e", "E"]),
        st.integers(-2000, 2000) | st.integers(-10**9, 10**9),
    ),
    st.sampled_from(["inf", "-inf", "nan", "sNaN", "1_000.5", "0e-999999999", "1e308",
                     "1.8e308", "5e-324", "1e-400", "-0"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@settings(max_examples=150, deadline=None, database=None)
@given(cell=SCORE_STRINGS)
def test_no_score_string_is_an_internal_error(tmp_path_factory, cell):
    """A score cell parses, or exits 1, promptly; a parsed board ranks."""
    root = tmp_path_factory.mktemp("score")
    rows = io.StringIO()
    csv.writer(rows).writerows([["system", "t1", "t2"], ["alpha", cell, "2"], ["beta", "1", "1"]])
    (root / "board.csv").write_text(rows.getvalue(), encoding="utf-8")
    for rule in ("borda", "mean", "gmean"):
        start = time.perf_counter()
        code = main(["rank", "-i", str(root / "board.csv"), "--rule", rule])
        assert time.perf_counter() - start < 2.0, cell
        assert code in (0, 1, 2), cell


def test_scores_beyond_the_float_range_render_as_infinity(tmp_path, capsys):
    path = tmp_path / "heavy.csv"
    path.write_text("system,t1,t2\n#weight,1e400,1\nalpha,1,2\nbeta,2,1\n")
    code, out, _ = run_cli(["rank", "-i", str(path), "--rule", "borda"], capsys)
    assert code == 0
    assert out.splitlines()[2].split() == ["1", "beta", "inf"]
    code, out, _ = run_cli(["rank", "-i", str(path), "--rule", "borda", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["ranking"][0] == {"rank": 1, "systems": ["beta"], "score": math.inf}


def test_infinite_scores_print_as_json_spells_them(tmp_path, capsys):
    """Under a 1e400 weight, scores past the float range show as inf in the
    table and as json's Infinity and -Infinity in the JSON text."""
    path = tmp_path / "heavy.csv"
    path.write_text("system,t1,t2\n#weight,1e400,1\nalpha,1,2\nbeta,2,1\ngamma,3,0\n")
    for rule, table_scores, json_scores in (
        ("borda", ["inf", "inf", "2"], ["Infinity,", "Infinity,", "2.0,"]),
        ("minimax", ["0", "-inf", "-inf"], ["0.0,", "-Infinity,"]),
    ):
        code, out, _ = run_cli(["rank", "-i", str(path), "--rule", rule], capsys)
        assert code == 0
        assert [line.split()[2] for line in out.splitlines()[2:]] == table_scores, rule
        code, out, _ = run_cli(["rank", "-i", str(path), "--rule", rule, "--format", "json"],
                               capsys)
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()
                if line.lstrip().startswith('"score"')] == json_scores, rule


# integers at and past the float range, 0 and negatives, over units up to 10**400
SCORE_INTEGERS = st.one_of(
    st.integers(-10**6, 10**6),
    st.integers(-2**1100, 2**1100),
    st.sampled_from([0, -1, 2**1024 - 2**970, 2**1024, -2**1024, 10**400, -10**400]),
)
UNITS = st.one_of(st.integers(1, 10**6), st.integers(1, 10**400),
                  st.sampled_from([1, 2**970, 10**308, 10**400]))


@settings(max_examples=300, deadline=None, database=None)
@given(row=st.lists(SCORE_INTEGERS, max_size=6), unit=UNITS)
@example(row=[0, -7, 2**1024, -2**1024, 10**400, -10**400, 1], unit=1)
@example(row=[0, -7, 2**1024, -2**1030, 10**800, -10**800, 1], unit=10**400)
def test_lazy_scores_read_as_the_floats_of_their_fractions(row, unit):
    """jsonify reads a LazyScores from its integers, as x / unit, and gets the
    float, or the infinity, that the reference reads from each Fraction."""
    names = [f"s{i}" for i in range(len(row))]
    floats = jsonify(LazyScores(names, row, unit))
    assert list(floats) == names
    for name, x in zip(names, row):
        expected = reference._as_float(F(x, unit))
        assert floats[name] == expected and math.copysign(1, floats[name]) == (
            math.copysign(1, expected)), (x, unit)


JSON_TEXT = st.text(st.characters(blacklist_categories=()), max_size=8)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]),
    JSON_TEXT, st.fractions(),
    st.builds(lambda row, unit: LazyScores([f"s{i}" for i in range(len(row))], row, unit),
              st.lists(SCORE_INTEGERS, max_size=4), UNITS),
)
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(JSON_TEXT | st.integers(-3, 3), inner, max_size=4),
        st.frozensets(JSON_TEXT, max_size=3),
    ),
    max_leaves=24,
)


class Label(str):
    pass


class Level(enum.IntEnum):
    HIGH = 2


class Share(float):
    pass


@settings(max_examples=400, deadline=None, database=None)
@given(payload=JSON_PAYLOADS)
@example(payload={"": [], "a": {}, "\u00e9\x00\n\ud800": [[], {}, -0.0, math.nan]})
@example(payload=[Label("\u00e9"), Level.HIGH, Share(0.5), Share("inf"), {Label("k"): Level.HIGH}])
def test_to_json_writes_the_json_dumps_text(payload):
    """to_json's own emitter writes what json.dumps(..., sort_keys=True,
    indent=2) wrote from the Fraction-dict read, byte for byte."""
    assert to_json(payload) == reference.to_json(payload)


@pytest.mark.parametrize("payload", [object(), {"a": [1, {"b": b"bytes"}]}, [{"c": 1j}],
                                     {"d": (F(1, 2), Decimal(1))}])
def test_to_json_refuses_what_json_dumps_refuses(payload):
    with pytest.raises(TypeError) as caught:
        reference.to_json(payload)
    with pytest.raises(TypeError) as ours:
        to_json(payload)
    assert str(ours.value) == str(caught.value)


def test_every_cli_payload_renders_as_json_dumps_did(tmp_path, capsys, monkeypatch):
    """The payloads of rank (with a baseline), winner, compare, cw-weights,
    iia and robustness print the bytes the json.dumps path printed."""
    board = tmp_path / "board.csv"
    board.write_text(glue_shaped_csv(0, 0.5))
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps(GLUE_GROUPS))
    written = []

    def record(payload):
        written.append((payload, to_json(payload)))
        return written[-1][1]

    monkeypatch.setattr(vio, "to_json", record)
    common = ["-i", str(board), "--groups", str(groups), "--format", "json"]
    for argv in (
        ["rank", "--rule", "threshold", "--baseline", "borda", "--mode", "two_step"],
        ["rank", "--rule", "baldwin", "--baseline", "gmean"],
        ["rank", "--rule", "uncovered", "--mode", "weighted"],
        ["winner", "--rule", "condorcet"],
        ["compare", "--rules", "borda", "optimality_gap", "--top-k", "3"],
        ["cw-weights", "--system", "sys00"],
        ["cw-weights", "--system", "sys00", "--lower", "0.05"],
        ["experiment", "iia", "--rule", "copeland", "--trials", "3", "--seed", "1"],
        ["experiment", "robustness", "--rules", "copeland", "mean", "--omit", "2",
         "--trials", "3", "--seed", "1"],
    ):
        code, out, err = run_cli([*argv, *common], capsys)
        assert code == 0, (argv, err)
        payload, text = written[-1]
        assert out == text == reference.to_json(payload), argv
    assert len(written) == 9


WEIGHT_STRINGS = st.one_of(
    st.builds(
        "{}{}{}".format,
        st.from_regex(r"\A[+-]?[0-9]{1,6}(\.[0-9]{0,6})?\Z"),
        st.sampled_from(["e", "E"]),
        st.integers(-2000, 2000) | st.integers(-10**9, 10**9),
    ),
    st.sampled_from(["inf", "-inf", "+Inf", "Infinity", "-infinity", "INF",
                     "nan", "-NaN", "snan", "sNaN", " inf "]),
    st.builds("{}/{}".format, st.integers(-10**6, 10**6), st.integers(0, 10**6)),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@settings(max_examples=150, deadline=None, database=None)
@given(weight=WEIGHT_STRINGS)
def test_no_weight_string_is_an_internal_error(tmp_path_factory, weight):
    """In a #weight cell or a sidecar file, a weight parses, or exits 1, promptly."""
    root = tmp_path_factory.mktemp("weight")
    rows = io.StringIO()
    csv.writer(rows).writerows([
        ["system", "t1", "t2"], ["#weight", weight, "1"], ["alpha", "1", "2"], ["beta", "2", "1"],
    ])
    (root / "row.csv").write_text(rows.getvalue(), encoding="utf-8")
    (root / "plain.csv").write_text("system,t1,t2\nalpha,1,2\nbeta,2,1\n")
    (root / "weights.json").write_text(json.dumps({"t1": weight}))
    for argv in (["-i", str(root / "row.csv")],
                 ["-i", str(root / "plain.csv"), "--weights", str(root / "weights.json")]):
        start = time.perf_counter()
        code = main(["rank", *argv, "--rule", "borda"])
        assert time.perf_counter() - start < 2.0, weight
        assert code in (0, 1), weight


def glue_shaped_csv(seed, spread):
    """A 20 x 9 board like GLUE's: three-decimal cells, so ties occur; two min tasks."""
    rng = random.Random(f"glue-shaped:{seed}:{spread}")
    tasks = [f"t{j}" for j in range(9)]
    lines = [
        ",".join(["system", *tasks]),
        ",".join(["#direction", *("min" if j in (4, 7) else "max" for j in range(9))]),
        ",".join(["#weight", *(("1", "1/2", "2")[j % 3] for j in range(9))]),
    ]
    for i in range(20):
        skill = rng.gauss(0.0, spread)
        cells = []
        for j in range(9):
            p = 1 / (1 + math.exp(-(skill + rng.gauss(0.0, 1.0))))
            p = min(max(round(p, 3), 0.001), 0.999)
            cells.append(f"{1 - p if j in (4, 7) else p:.3f}")
        lines.append(",".join([f"sys{i:02d}", *cells]))
    return "\n".join(lines) + "\n"


GLUE_GROUPS = {"t0": "a", "t1": "a", "t2": "a", "t3": "b", "t4": "b", "t5": "b",
               "t6": "c", "t7": "c", "t8": "c"}


@pytest.mark.parametrize("seed,spread", [(0, 0.0), (1, 0.0), (0, 0.5), (1, 0.5), (0, 2.0)])
def test_iterative_json_is_the_all_dict_outcome_json(tmp_path, capsys, seed, spread):
    """Stage and round scores built on read print the bytes the dict diagnostics printed."""
    board = tmp_path / "board.csv"
    board.write_text(glue_shaped_csv(seed, spread))
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps(GLUE_GROUPS))
    lb = load_leaderboard(board, groups_path=groups)
    for rule in ("threshold", "baldwin", "nanson", "hare", "coombs"):
        for mode in ("basic", "weighted", "two_step"):
            code, out, err = run_cli(["rank", "-i", str(board), "--groups", str(groups),
                                      "--rule", rule, "--mode", mode, "--format", "json"], capsys)
            assert code == 0, err
            old = reference.run_rule(lb, reference.RULES[rule], mode)
            assert out == reference.outcome_json(old), (rule, mode)
            back = reference.outcome_from_dict(json.loads(out))
            assert back == reference.outcome_from_dict(json.loads(reference.outcome_json(old)))
            assert to_json(outcome_to_dict(back)) == out
