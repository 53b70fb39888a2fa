"""The argument checkers of voteboard.model, the one place an argument's kind
is decided, and the public entries that call them.

Each checker, and each public entry on each argument it checks, is called
with one shared palette of bad values. A value is either accepted or
refused with the documented class; a bare TypeError, AttributeError,
KeyError or IndexError is never the answer. A guard test keeps the kind
checks inside the checkers.
"""

import ast
import math
import re
from enum import IntEnum
from fractions import Fraction as F
from pathlib import Path

import pytest

import voteboard as vb
from voteboard import (
    EmptySubset,
    ExperimentConfig,
    InfeasibleBounds,
    InvalidParameter,
    Leaderboard,
    RankTable,
    UnknownSystem,
    build_profile,
)
from voteboard import model
from voteboard.metrics import checked_gamma

PALETTE = ["xy", None, 5, 1.5, True, math.nan, [["a"]], {}, (0, 0, 0)]
PALETTE_IDS = ["str", "None", "int", "float", "bool", "nan", "nested list", "empty dict",
               "triple"]


class Small(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


def _board():
    return Leaderboard(("a", "b", "c"), ("x", "y"), ((3, 1), (2, 3), (1, 2)), ("max", "max"),
                       (1, 1))


def _refused_or_accepted(call, value, accepted, errors):
    if accepted:
        call(value)
    else:
        with pytest.raises(errors):
            call(value)


# (id, a checker call, the indices of the palette it accepts, the class it raises)
CHECKERS = [
    ("number", lambda v: model._number(v, "entry"), {2, 3}, InvalidParameter),
    ("sequence", lambda v: model._sequence(v, "field"), {6, 7, 8}, ValueError),
    ("mapping", lambda v: model._mapping(v, "weights", ("t",)), {7}, ValueError),
    ("cell", model._cell, set(), ValueError),
    ("built-on names", lambda v: model._task_names("owner", v), {7}, ValueError),
]


@pytest.mark.parametrize("call,accepts,error", [
    pytest.param(call, accepts, error, id=name) for name, call, accepts, error in CHECKERS
])
@pytest.mark.parametrize("index", range(len(PALETTE)), ids=PALETTE_IDS)
def test_checkers_accept_or_refuse_with_their_class(call, accepts, error, index):
    _refused_or_accepted(call, PALETTE[index], index in accepts, error)


def test_the_int_checker_takes_ints_and_int_subclasses_but_not_bools():
    assert [v for v in PALETTE if model._int(v)] == [5]
    assert model._int(Small.TWO) and model._int(-(2**80))
    assert not model._int(False) and not model._int(2.0) and not model._int(F(2))


def test_the_mapping_checker_names_a_key_off_the_tasks():
    with pytest.raises(ValueError, match=r"^weights name an unknown task: 'u'$"):
        model._mapping({"t": 1, "u": 2}, "weights", ("t",))
    # without tasks, any key is accepted
    assert model._mapping({"u": 2}, "scores of 'a'") == {"u": 2}


def test_the_cell_checker_takes_pairs_only():
    assert model._cell((0, 1)) == (0, 1) and model._cell(["a", "x"]) == ["a", "x"]
    for bad in ["ax", (0,), (0, 1, 2), {0, 1}, 5]:
        with pytest.raises(ValueError, match="must be a pair"):
            model._cell(bad)


# (id, a public entry on one argument, the indices of the palette it accepts,
# the documented classes it refuses the others with). Leaderboard's weight
# entries are left out: as_fraction's TypeError for a weight that is a bool
# or not a number is documented, and the weights sequence itself has a
# BOARD_REFUSALS row.
TABLE = build_profile(_board())
MATRIX = vb.build_dominance_matrix(_board(), "a")
SCORES = {"a": {"x": 1, "y": 2}, "b": {"x": 2, "y": 1}}
FIELDS = {"systems": ("a", "b"), "tasks": ("x",), "scores": ((1,), (2,)),
          "directions": ("max",), "weights": (1,), "groups": None}
TABLE_FIELDS = {"systems": ("a", "b"), "tasks": ("t",), "orders": (((0,), (1,)),),
                "weights": (1,), "scale": 1}


def _board_with(name):
    return lambda v: Leaderboard(**{**FIELDS, name: v})


def _table_with(name):
    return lambda v: RankTable(**{**TABLE_FIELDS, name: v})


ENTRIES = [
    ("Leaderboard systems", _board_with("systems"), set(), ValueError),
    ("Leaderboard tasks", _board_with("tasks"), set(), ValueError),
    ("Leaderboard scores", _board_with("scores"), set(), ValueError),
    ("Leaderboard directions", _board_with("directions"), set(), ValueError),
    ("Leaderboard groups", _board_with("groups"), {1, 7}, ValueError),
    ("from_scores scores", Leaderboard.from_scores, set(), ValueError),
    ("from_scores tasks", lambda v: Leaderboard.from_scores(SCORES, tasks=v), {1}, ValueError),
    ("from_scores weights", lambda v: Leaderboard.from_scores(SCORES, weights=v), {1, 7},
     ValueError),
    ("from_scores directions", lambda v: Leaderboard.from_scores(SCORES, directions=v), {1, 7},
     ValueError),
    ("from_scores groups", lambda v: Leaderboard.from_scores(SCORES, groups=v), {1, 7},
     ValueError),
    ("restrict_systems", _board().restrict_systems, set(), (ValueError, UnknownSystem)),
    ("without_cells", _board().without_cells, {7}, (ValueError, UnknownSystem)),
    ("build_profile subset", lambda v: build_profile(_board(), v), {1},
     (ValueError, EmptySubset)),
    ("RankTable systems", _table_with("systems"), set(), ValueError),
    ("RankTable tasks", _table_with("tasks"), set(), ValueError),
    ("RankTable orders", _table_with("orders"), set(), ValueError),
    ("RankTable weights", _table_with("weights"), set(), ValueError),
    ("RankTable scale", _table_with("scale"), {2}, ValueError),
    ("prefix", TABLE.prefix, set(), ValueError),
    ("without", TABLE.without, {7}, ValueError),
    ("ExperimentConfig seed", lambda v: ExperimentConfig(seed=v), {2}, InvalidParameter),
    ("end_set", lambda v: vb.end_set(vb.aggregate(_board(), "borda"), v), set(),
     InvalidParameter),
    ("checked_gamma", checked_gamma, {2, 3}, InvalidParameter),
    ("custom vector", lambda v: vb.aggregate(_board(), "custom", vector=v), set(),
     InvalidParameter),
    ("robustness rules", lambda v: vb.robustness_experiment(_board(), v), set(),
     (InvalidParameter, vb.UnknownRule)),
    ("cw lower bounds", lambda v: vb.find_cw_weights(MATRIX, lower_bounds=v), {1},
     (InvalidParameter, InfeasibleBounds)),
    ("cw objective", lambda v: vb.find_cw_weights(MATRIX, objective=v), {1},
     InvalidParameter),
    ("cw margin", lambda v: vb.find_cw_weights(MATRIX, margin=v), {2, 3}, InvalidParameter),
]


@pytest.mark.parametrize("call,accepts,errors", [
    pytest.param(call, accepts, errors, id=name) for name, call, accepts, errors in ENTRIES
])
@pytest.mark.parametrize("index", range(len(PALETTE)), ids=PALETTE_IDS)
def test_public_entries_accept_or_refuse_with_documented_classes(call, accepts, errors, index):
    _refused_or_accepted(call, PALETTE[index], index in accepts, errors)


def test_int_subclasses_are_ints_wherever_an_int_is_asked_for():
    """The int rule is isinstance(v, int) and not a bool, so an IntEnum member
    is its int: table sites that read type(v) is int refused it."""
    lb = _board()
    table = build_profile(lb)
    assert table.prefix(Small.TWO) == table.prefix(2)
    assert table.without([(Small.ONE, Small.ZERO)]) == table.without([(1, 0)])
    enum_table = RankTable(("a", "b"), ("t",), (((Small.ONE,), (Small.ZERO,)),), (Small.TWO,),
                           Small.ONE)
    assert enum_table.pairwise() == RankTable(("a", "b"), ("t",), (((1,), (0,)),), (2,),
                                              1).pairwise()
    assert ExperimentConfig(seed=Small.TWO, top_k=Small.ONE).top_k == 1
    outcome = vb.aggregate(lb, "borda")
    assert vb.end_set(outcome, Small.TWO) == vb.end_set(outcome, 2)
    with pytest.raises(ValueError, match="a prefix holds 1 to 3 systems: True"):
        table.prefix(True)


# the acceptance pattern for a kind check written outside the checkers
KIND_CHECK = re.compile(r"isinstance\([^)]*, bool\)|type\([^)]*\) is (not )?int|not the string"
                        r"|except \(TypeError, ValueError\)|_check_unique|_check_known")
ALLOWED_FUNCTIONS = {"_int", "_number", "_sequence", "_mapping", "_cell", "as_fraction"}
SRC = Path(__file__).resolve().parents[1] / "src" / "voteboard"


def _allowed_lines(path: Path, text: str) -> set[int]:
    """The lines where a kind check may be written: model.py's checkers and
    as_fraction, and io.py's wrapper that makes a sidecar file's bad weight a
    ParseError naming the file."""
    tree = ast.parse(text)
    allowed: set[int] = set()
    for node in ast.walk(tree):
        if (path.name == "model.py" and isinstance(node, ast.FunctionDef)
                and node.name in ALLOWED_FUNCTIONS):
            allowed.update(range(node.lineno, node.end_lineno + 1))
        if (path.name == "io.py" and isinstance(node, ast.ExceptHandler)
                and "ParseError(" in ast.get_source_segment(text, node)
                and "bad weight" in ast.get_source_segment(text, node)):
            allowed.add(node.lineno)
    return allowed


def kind_checks_outside_the_checkers(src: Path) -> list[str]:
    strays = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        allowed = _allowed_lines(path, text)
        for number, line in enumerate(text.splitlines(), 1):
            if KIND_CHECK.search(line) and number not in allowed:
                strays.append(f"{path.name}:{number}: {line.strip()}")
    return strays


def test_argument_kinds_are_decided_by_the_checkers_alone(tmp_path):
    assert kind_checks_outside_the_checkers(SRC) == []
    for gone in ("_names", "_check_unique", "_check_known"):
        assert not hasattr(model, gone), gone
    # the guard sees a second spelling of the int check
    copy = tmp_path / "voteboard"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (copy / "extra.py").write_text("def f(v):\n    return type(v) is int\n", encoding="utf-8")
    assert kind_checks_outside_the_checkers(copy) == ["extra.py:2: return type(v) is int"]
