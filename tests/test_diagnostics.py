"""Diagnostics are built when first read, and read as the eager reference's.

The elimination, threshold, named positional and custom rules keep their
diagnostics as a LazyDiagnostics, and two_step adds its electors to one.
While every diagnostic builder, and LazyScores' Fraction build, raises
(conftest.diagnostics_unbuilt), the iia experiment on borda, baldwin,
threshold and hare, the robustness experiment, the CLI's compare and
aggregate with a ranking-only read must all return. The outcomes the
experiments made there must equal, once read, tests/reference.py's eager
outcome on the same systems; the ladder tests in test_kernels.py hold
aggregate's outcomes to the same standard.

An unread outcome must pickle, deep-copy, print, compare and convert to a
dict exactly as one whose diagnostics were read, on every lazy rule in
every mode, coombs' majority stop included, and its kept state must hold
no RankTable or Leaderboard. threshold's stages, on tables with holes,
must read as the reference's.
"""

import contextlib
import copy
import functools
import pickle
from fractions import Fraction as F
from types import FunctionType

import pytest

import voteboard as vb
from voteboard import registry
from voteboard.cli import main
from voteboard.io import jsonify, outcome_to_dict, render_outcome_table, to_json
from voteboard.model import LazyDiagnostics, LazyScores
from voteboard.modes import BASIC, TWO_STEP, WEIGHTED

import reference
from conftest import board_from_orders, diagnostics_unbuilt
from test_kernels import ladder_board

# the rules whose outcome keeps its diagnostics unbuilt
LAZY = ("threshold", "baldwin", "nanson", "hare", "coombs",
        "plurality", "two_approval", "antiplurality", "borda", "dowdall", "custom")


def params_for(rule, lb):
    """custom's vector on lb's systems, with a fractional entry; no
    parameter for the other rules."""
    if rule != "custom":
        return {}
    n = len(lb.systems)
    return {"vector": ["7/3"] + [F(n - 1 - p, 5 * n) for p in range(n - 1)]}


def test_the_guard_raises_on_a_read_and_lets_a_later_read_through():
    lb = ladder_board(8, 5, 0)
    with diagnostics_unbuilt():
        out = vb.aggregate(lb, "baldwin", TWO_STEP)
        with pytest.raises(AssertionError, match="before anything read"):
            dict(out.diagnostics)
        with pytest.raises(AssertionError, match="before anything read"):
            vb.aggregate(lb, "borda").scores["s00"]
        custom = vb.aggregate(lb, "custom", **params_for("custom", lb))
        assert custom.winners
        with pytest.raises(AssertionError, match="before anything read"):
            custom.diagnostics["vector"]
    assert out == reference.run_rule(lb, reference.RULES["baldwin"], TWO_STEP)
    assert custom == reference.run_rule(lb, reference.RULES["custom"], **params_for("custom", lb))


@contextlib.contextmanager
def recording():
    """Inside the block, every result a rule core makes, as it is made, with
    the rule and the systems of the data it ranked, to be named later."""
    made = []

    def recorded(rule):
        core = rule.run

        @functools.wraps(core)
        def run(data, **params):
            result = core(data, **params)
            made.append((rule.rule_id, data.systems, result))
            return result

        return run

    with pytest.MonkeyPatch.context() as patch:
        for rule in registry.RULES.values():
            # a Rule is frozen, so its runner is swapped in its __dict__
            patch.setitem(rule.__dict__, "run", recorded(rule))
        yield made


@pytest.mark.parametrize("rule", ["borda", "baldwin", "threshold", "hare", "copeland", "minimax"])
@pytest.mark.parametrize("n,t,seed", [(8, 5, 0), (14, 6, 1)])
def test_iia_builds_no_diagnostics_and_its_outcomes_read_as_the_reference(rule, n, t, seed):
    lb = ladder_board(n, t, seed)
    cfg = vb.ExperimentConfig(seed=seed, trials=2)
    with recording() as made, diagnostics_unbuilt():
        report = vb.iia_experiment(lb, rule, cfg)
    assert report == reference.iia_experiment(lb, rule, cfg)
    # iia folds a PairScore's running form, and borda's as the net wins, with
    # no core call; every other rule's core runs once per step of each trial
    running = rule == "borda" or rule in vb.majority.PAIR_SCORES
    assert len(made) == (0 if running else 2 * (n - 1))
    for rid, systems, result in made:
        out = result.named(systems, rid, BASIC)
        # the present systems in the step's own order, the trial's arrival order
        assert out.all_systems == frozenset(systems)
        present = vb.Leaderboard(systems, lb.tasks, [lb.scores[lb.systems.index(m)] for m in systems],
                                 lb.directions, lb.weights, lb.groups)
        assert out == reference.run_rule(present, reference.RULES[rule]), sorted(out.all_systems)


def test_robustness_builds_no_diagnostics():
    made = []
    # mean, which the bench runs too, needs a board without holes
    for holes, rules in ((False, ["copeland", "minimax", "mean"]), (True, ["copeland", "minimax"])):
        lb = ladder_board(14, 6, 0, holes=holes)
        cfg = vb.ExperimentConfig(seed=2, trials=3, omit_count=5, top_k=7)
        with recording() as calls, diagnostics_unbuilt():
            report = vb.robustness_experiment(lb, rules, cfg)
        made += calls
        assert report == reference.robustness_experiment(lb, rules, cfg)
    assert len(made) == 4 * 3 + 4 * 2


@pytest.mark.parametrize("mode", ["basic", "weighted", "two_step"])
def test_compare_builds_no_diagnostics(tmp_path, capsys, mode):
    board = tmp_path / "board.csv"
    board.write_text("system,t1,t2,t3,t4\nA,4,1,3,2\nB,3,4,1,4\nC,2,3,4,1\n"
                     "D,1,2,2,3\nE,0,0,0,4\n")
    groups = tmp_path / "groups.json"
    groups.write_text('{"t1": "g", "t2": "g", "t3": "h", "t4": "h"}')
    argv = ["compare", "-i", str(board), "--groups", str(groups), "--mode", mode,
            "--top-k", "2"]
    for pair in (["baldwin", "threshold"], ["borda", "coombs"], ["dowdall", "nanson"]):
        for form in ("table", "json"):
            with diagnostics_unbuilt():
                code = main([*argv, "--rules", *pair, "--format", form])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            assert "internal error" not in captured.err


def majority_board():
    # A holds two of three first places, so coombs stops at once
    return board_from_orders({"t1": ["A", "B", "C"], "t2": ["A", "C", "B"],
                              "t3": ["B", "A", "C"]})


def kept_state(value):
    """Every object a LazyDiagnostics keeps, however deeply."""
    if isinstance(value, LazyDiagnostics):
        yield value._build
        for item in value._state:
            yield from kept_state(item)
    elif isinstance(value, (list, tuple, frozenset)):
        for item in value:
            yield from kept_state(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from kept_state(item)
    else:
        yield value


def boards():
    yield "majority", majority_board()
    yield "8x5", ladder_board(8, 5, 0)
    yield "20x6", ladder_board(20, 6, 0)


def test_lazy_scores_list_their_names_unbuilt_and_copy_as_lazy_scores():
    """Iterating a LazyScores and taking its length read the names alone; a
    pickled or copied one, read or not, is a LazyScores that jsonify reads
    from the integers, as it reads the original."""
    lb = ladder_board(8, 5, 0)
    with diagnostics_unbuilt():
        scores = vb.aggregate(lb, "copeland").scores
        assert list(scores) == list(lb.systems) and len(scores) == len(lb.systems)
        assert scores._dict is None
    expected = jsonify(scores)
    names, row, unit = scores.over_unit()
    for read in (False, True):
        if read:
            assert scores[names[0]] == F(row[0], unit)
        twins = (pickle.loads(pickle.dumps(scores)), copy.copy(scores), copy.deepcopy(scores))
        for twin in twins:
            assert type(twin) is LazyScores and twin == scores
            assert jsonify(twin) == expected


@pytest.mark.parametrize("rule", LAZY)
def test_an_unread_outcome_copies_prints_and_compares_as_a_read_one(rule):
    for name, lb in boards():
        for mode in (BASIC, WEIGHTED, TWO_STEP):
            if mode != BASIC and not lb.groups:
                continue
            params = params_for(rule, lb)
            unread = vb.aggregate(lb, rule, mode, **params)
            lazy = unread.diagnostics
            assert type(lazy) is LazyDiagnostics and lazy._dict is None, (name, mode)
            kinds = {type(v) for v in kept_state(lazy)}
            assert not kinds & {vb.RankTable, vb.Leaderboard}, kinds
            assert kinds <= {str, int, type(None), FunctionType}, kinds
            pickled = pickle.loads(pickle.dumps(unread))
            copied = copy.deepcopy(unread)
            assert lazy._dict is None  # pickling and copying read nothing
            assert pickled.diagnostics._dict is None and copied.diagnostics._dict is None

            read = vb.aggregate(lb, rule, mode, **params)
            assert type(dict(read.diagnostics)) is dict
            eager = reference.run_rule(lb, reference.RULES[rule], mode, **params)
            for a, b in ((unread, read), (pickled, pickle.loads(pickle.dumps(read))),
                         (copied, copy.deepcopy(read))):
                # a frozenset prints in an order its construction decides,
                # so the reference's outcome prints differently
                assert repr(a) == repr(b), (name, mode)
                assert a == b == eager
                assert dict(a.diagnostics) == dict(b.diagnostics) == dict(eager.diagnostics)
                assert list(a.diagnostics) == list(eager.diagnostics)
                assert to_json(outcome_to_dict(a)) == to_json(outcome_to_dict(b)) == (
                    reference.outcome_json(eager))
                assert render_outcome_table(a) == render_outcome_table(b)


def test_coombs_majority_share_is_read_as_a_fraction():
    out = vb.aggregate(majority_board(), "coombs")
    assert out.diagnostics._dict is None
    assert out.diagnostics["majority_winner"] == "A"
    assert out.diagnostics["majority_share"] == F(2, 3)
    assert out.diagnostics["trace"].rounds == ()


def test_two_step_adds_electors_to_the_unread_second_step():
    lb = ladder_board(8, 5, 0)
    out = vb.aggregate(lb, "borda", TWO_STEP)
    inner = out.diagnostics._state[0]
    assert type(inner) is LazyDiagnostics and inner._dict is None
    assert list(out.diagnostics) == ["vector", "electors"]
    assert list(out.diagnostics["electors"]) == [name for name, _ in lb.groups]
    assert out.diagnostics["vector"] == tuple([F(p) for p in range(len(lb.systems) - 1, -1, -1)])
    # a rule whose diagnostics are a plain dict keeps it, with the electors added
    plain = vb.aggregate(lb, "copeland", TWO_STEP)
    assert type(plain.diagnostics._state[0]) is dict
    assert plain == reference.run_rule(lb, reference.RULES["copeland"], TWO_STEP)


def test_holed_and_tied_threshold_stages_read_as_the_reference():
    """threshold on holed boards, whose derived tables unrank cells, keeps
    each stage's scores as a LazyScores over the stage's candidates."""
    for n, t, seed in ((8, 5, 1), (14, 6, 0), (20, 6, 0)):
        lb = ladder_board(n, t, seed, holes=True)
        table = vb.build_profile(lb, missing_ok=True)
        out = vb.get_rule("threshold").run(table).named(table.systems, "", "")
        assert out.diagnostics._dict is None
        first = out.diagnostics["repetitions"][0]["stages"]
        assert all(type(stage["scores"]) is LazyScores for stage in first)
        assert out.diagnostics["first_round_scores"] is (first[0]["scores"] if first else None)
        assert out == reference.mass_threshold_run(table)
