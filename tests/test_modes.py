from fractions import Fraction as F

import pytest

import voteboard as vb
from voteboard import MissingGroups, MissingScore, RuleUnsupportedForMode, aggregate, build_profile

from conftest import TOY_ORDERS, board_from_orders
from test_kernels import LADDER_BOARDS, ladder_board


@pytest.fixture
def grouped():
    return board_from_orders(
        TOY_ORDERS, groups={"g1": ["t1", "t2"], "g2": ["t3", "t4", "t5"]}
    )


def test_weighted_mode_scales_by_group_size(grouped):
    out = aggregate(grouped, "borda", mode="weighted")
    # g1 tasks count 1/2 each, g2 tasks 1/3 each
    assert out.scores["A"] == F(3)
    assert out.scores["B"] == F(10, 3)
    assert out.scores["C"] == F(19, 6)
    assert out.scores["D"] == F(5, 2)
    assert out.winners == {"B"}


def test_weighted_composes_with_task_weights():
    lb = board_from_orders(
        TOY_ORDERS,
        weights={"t1": 2, "t2": 1, "t3": 1, "t4": 1, "t5": 1},
        groups={"g1": ["t1", "t2"], "g2": ["t3", "t4", "t5"]},
    )
    out = aggregate(lb, "plurality", mode="weighted")
    # A keeps 2*1/2 from t1 plus 1/2 from t2
    assert out.scores["A"] == F(3, 2)
    assert out.scores["B"] == F(1, 3)


def test_equal_group_sizes_reduce_to_basic():
    lb = board_from_orders(
        TOY_ORDERS,
        groups={"g1": ["t1"], "g2": ["t2"], "g3": ["t3"], "g4": ["t4"], "g5": ["t5"]},
    )
    basic = aggregate(lb, "borda")
    weighted = aggregate(lb, "borda", mode="weighted")
    assert weighted.ranking == basic.ranking


def test_weighted_needs_total_group_cover(toy):
    with pytest.raises(MissingGroups):
        aggregate(toy, "borda", mode="weighted")
    partial = board_from_orders(TOY_ORDERS, groups={"g1": ["t1", "t2"]})
    with pytest.raises(MissingGroups):
        aggregate(partial, "borda", mode="weighted")


def test_two_step_borda(grouped):
    out = aggregate(grouped, "borda", mode="two_step")
    assert out.winners == {"B"}
    assert out.scores == {"A": F(3), "B": F(4), "C": F(3), "D": F(2)}
    electors = out.diagnostics["electors"]
    assert electors["g1"] == [["A"], ["C"], ["B"], ["D"]]
    assert electors["g2"] == [["B"], ["D"], ["C"], ["A"]]


def test_two_step_single_group_matches_basic_order():
    lb = board_from_orders(TOY_ORDERS, groups={"all": list(TOY_ORDERS)})
    basic = aggregate(lb, "baldwin")
    stepped = aggregate(lb, "baldwin", mode="two_step")
    # one elector: the second step just echoes the interim ranking
    assert stepped.ranking == basic.ranking


def test_two_step_rejects_score_rules(grouped):
    for rule in ("borda", "plurality"):
        aggregate(grouped, rule, mode="two_step")  # fine, profile-based
    for rule in ("mean", "gmean", "optimality_gap"):
        with pytest.raises(RuleUnsupportedForMode):
            aggregate(grouped, rule, mode="two_step")


def test_two_step_rejects_set_valued_electors(grouped):
    for rule in ("condorcet", "minimal_dominant", "uncovered", "weakly_stable"):
        with pytest.raises(RuleUnsupportedForMode):
            aggregate(grouped, rule, mode="two_step")


def test_two_step_elimination_rule(grouped):
    out = aggregate(grouped, "baldwin", mode="two_step")
    assert out.mode == "two_step"
    assert out.winners  # nonempty, sanity
    assert set().union(*out.ranking) == set(grouped.systems)


def test_the_score_baselines_alone_run_on_the_board():
    """mean, gmean and optimality_gap alone read the board, and the rules
    take the parameters they took when a rule had two runner fields."""
    rules = vb.registry.RULES
    assert {rid for rid, rule in rules.items() if rule.on_board} == {
        "mean", "gmean", "optimality_gap"}
    assert {rid: rule.params for rid, rule in rules.items() if rule.params} == {
        "custom": {"vector"}, "optimality_gap": {"gamma"}}


@pytest.mark.parametrize("n,t,seed", LADDER_BOARDS)
def test_rule_data_is_the_board_or_its_profile(n, t, seed):
    """Rule.data is the board itself for the score baselines, and for every
    other rule build_profile's table on the tasks, or its MissingScore, with
    holes allowed exactly when the rule handles them: on plain and holed
    boards, on every task and on task subsets."""
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        for tasks in (None, lb.tasks[::2], lb.tasks[-1:]):
            for rid, rule in vb.registry.RULES.items():
                if rule.on_board:
                    assert rule.data(lb, tasks) is lb, rid
                    continue
                try:
                    table = build_profile(lb, tasks, missing_ok=rule.handles_missing)
                except MissingScore as exc:
                    assert not rule.handles_missing
                    with pytest.raises(MissingScore) as caught:
                        rule.data(lb, tasks)
                    assert str(caught.value) == str(exc), rid
                else:
                    assert rule.data(lb, tasks) == table, rid


def test_unknown_mode(toy):
    with pytest.raises(ValueError):
        aggregate(toy, "borda", mode="fancy")


def test_mode_recorded_on_outcome(grouped):
    assert aggregate(grouped, "borda").mode == "basic"
    assert aggregate(grouped, "borda", mode="weighted").mode == "weighted"
    assert aggregate(grouped, "borda", mode="two_step").mode == "two_step"
