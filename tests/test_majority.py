import dataclasses
import random
import re
from fractions import Fraction as F

import pytest

import voteboard as vb
from voteboard import (
    build_majority_graph,
    condorcet_winner,
    minimal_dominant_set,
    minimal_undominated_set,
    minimal_weakly_stable_set,
    fishburn_set,
    richelson_set,
    uncovered_set,
)

import oracle
import reference
from conftest import board_from_orders, random_board
from test_kernels import LADDER_BOARDS, ladder_board

TOY_EDGES = {
    ("B", "A"), ("C", "A"), ("D", "A"),
    ("B", "C"), ("B", "D"), ("C", "D"),
}


def cycle_board():
    return board_from_orders(
        {
            "t1": ["a", "b", "c"],
            "t2": ["b", "c", "a"],
            "t3": ["c", "a", "b"],
        }
    )


def test_toy_edges_and_margins(toy):
    g = build_majority_graph(toy)
    assert set(g.edges()) == TOY_EDGES
    assert g.margin("B", "A") == F(1)
    assert g.margin("A", "B") == F(-1)
    assert g.margin("B", "C") == F(1)
    assert g.support("B", "A") == F(3)
    assert g.support("A", "B") == F(0)
    assert g.beats("B", "C")
    assert not g.beats("C", "B")


def test_missing_cell_recounts_margin(toy):
    holed = reference.with_score(toy, "B", "t1", None)
    g = build_majority_graph(holed)
    # A vs B decided on t2..t5 only: B still leads 3-1
    assert g.margin("B", "A") == F(2)
    assert ("B", "A") in set(g.edges())


def test_counter_sets(toy):
    g = build_majority_graph(toy)
    assert g.dominated("C") == {"A", "D"}
    assert g.dominators("C") == {"B"}


def test_toy_condorcet_and_copeland(toy):
    g = build_majority_graph(toy)
    assert condorcet_winner(g) == "B"
    out = vb.aggregate(toy, "copeland")
    assert out.scores == {"A": F(-3), "B": F(3), "C": F(1), "D": F(-1)}
    out2 = vb.aggregate(toy, "copeland2")
    assert out2.scores == {"A": F(0), "B": F(3), "C": F(2), "D": F(1)}
    out3 = vb.aggregate(toy, "copeland3")
    assert out3.scores == {"A": F(3), "B": F(0), "C": F(1), "D": F(2)}
    # all three agree on the toy ranking
    assert out.ranking == out2.ranking == out3.ranking


def test_toy_minimax(toy):
    out = vb.aggregate(toy, "minimax")
    assert out.scores == {"A": F(-3), "B": F(0), "C": F(-3), "D": F(-3)}
    assert out.winners == {"B"}


def test_edgeless_graph_ties_everyone():
    lb = vb.Leaderboard.from_scores(
        {"a": {"t1": 1.0, "t2": 0.0}, "b": {"t1": 0.0, "t2": 1.0}},
        tasks=["t1", "t2"],
    )
    g = build_majority_graph(lb)
    assert g.edges() == ()
    assert condorcet_winner(g) is None
    for rule in ("copeland", "copeland2", "copeland3", "minimax"):
        assert vb.aggregate(lb, rule).winners == {"a", "b"}
    assert vb.aggregate(lb, "condorcet").winners == frozenset()


def test_three_cycle_sets():
    g = build_majority_graph(cycle_board())
    everyone = {"a", "b", "c"}
    assert minimal_dominant_set(g) == everyone
    assert uncovered_set(g, "I") == everyone
    assert minimal_undominated_set(g) == everyone
    with pytest.raises(ValueError, match="variant must be 'I' or 'II'"):
        uncovered_set(g, "III")
    assert minimal_weakly_stable_set(g) == everyone


def test_condorcet_winner_is_every_selection(toy):
    g = build_majority_graph(toy)
    assert minimal_dominant_set(g) == {"B"}
    assert minimal_undominated_set(g) == {"B"}
    assert uncovered_set(g, "I") == {"B"}
    assert uncovered_set(g, "II") == {"B"}
    assert richelson_set(g) == {"B"}
    assert fishburn_set(g) == {"B"}
    assert minimal_weakly_stable_set(g) == {"B"}


def test_condorcet_rule_outcome_shape(toy):
    out = vb.aggregate(toy, "condorcet")
    assert out.ranking == (frozenset({"B"}),)
    assert out.unranked == {"A", "C", "D"}
    assert out.diagnostics["condorcet_winner"] == "B"


def test_set_rules_match_subset_enumeration():
    rng = random.Random(91)
    for _ in range(60):
        lb = random_board(rng, allow_weights=True)
        g = build_majority_graph(lb)
        assert minimal_dominant_set(g) == oracle.minimal_dominant(lb)
        assert minimal_undominated_set(g) == oracle.minimal_undominated(lb)
        assert minimal_weakly_stable_set(g) == oracle.minimal_weakly_stable(lb)
        assert uncovered_set(g, "I") == oracle.uncovered(lb, 1)
        assert uncovered_set(g, "II") == oracle.uncovered(lb, 2)
        assert richelson_set(g) == oracle.uncovered(lb, 3)
        assert fishburn_set(g) == oracle.uncovered(lb, 4)


def test_pairwise_rules_match_oracle():
    rng = random.Random(92)
    for _ in range(60):
        lb = random_board(rng, allow_weights=True, allow_min_direction=True)
        g = build_majority_graph(lb)
        mg = oracle.margins(lb)
        for a in lb.systems:
            for b in lb.systems:
                if a != b:
                    assert g.margin(a, b) == mg[(a, b)]
        assert condorcet_winner(g) == oracle.condorcet_winner(lb)
        assert vb.aggregate(lb, "copeland").winners == oracle.copeland_winners(lb, 1)
        assert vb.aggregate(lb, "copeland2").winners == oracle.copeland_winners(lb, 2)
        assert vb.aggregate(lb, "copeland3").winners == oracle.copeland_winners(lb, 3)
        assert vb.aggregate(lb, "minimax").winners == oracle.minimax_winners(lb)


def test_majority_graph_is_the_graph_of_the_boards_table():
    """build_majority_graph ranks under the board's weights, as build_profile does."""
    lb = vb.Leaderboard.from_scores({"a": {"t1": 1, "t2": 2}, "b": {"t1": 2, "t2": 1}},
                                    weights={"t1": 2})
    assert build_majority_graph(lb).edges() == (("b", "a"),)
    rng = random.Random(94)
    for _ in range(40):
        lb = random_board(rng, allow_weights=True, allow_min_direction=True)
        if rng.random() < 0.5:
            lb = vb.Leaderboard.from_scores(
                {m: dict(zip(lb.tasks, row)) for m, row in zip(lb.systems, lb.scores)},
                weights={t: rng.choice([F(0), F(1, 3), F(5, 7)]) for t in lb.tasks[1:]},
            )
        cells = lb.present_cells()
        lb = lb.without_cells(rng.sample(cells, rng.randint(0, len(cells) // 3)))
        table = vb.build_profile(lb, missing_ok=True)
        assert build_majority_graph(lb) == vb.MajorityGraph(
            table.systems, table.pairwise(), table.scale
        )


def test_margin_antisymmetry_and_support_consistency():
    rng = random.Random(93)
    for _ in range(30):
        lb = random_board(rng)
        g = build_majority_graph(lb)
        for a in lb.systems:
            for b in lb.systems:
                if a == b:
                    continue
                assert g.margin(a, b) == -g.margin(b, a)
                if g.beats(a, b):
                    assert g.support(a, b) > 0
                    assert g.support(b, a) == 0
                elif not g.beats(b, a):
                    assert g.support(a, b) == 0


# the set rules' public choosers, which the rules run on index labels
CHOOSERS = {
    "minimal_dominant": minimal_dominant_set,
    "minimal_undominated": minimal_undominated_set,
    "uncovered": lambda g: uncovered_set(g, "I"),
    "uncovered2": lambda g: uncovered_set(g, "II"),
    "richelson": richelson_set,
    "fishburn": fishburn_set,
    "weakly_stable": minimal_weakly_stable_set,
}


def cyclic_board(n):
    """n systems on n tasks, task j scoring system i (i + j) mod n: a system
    beats the rivals more than n/2 places after it, cyclically, so every
    system is in the minimal dominant set."""
    systems = [f"s{i:02d}" for i in range(n)]
    tasks = [f"t{j}" for j in range(n)]
    return vb.Leaderboard.from_scores(
        {m: {tk: (i + j) % n for j, tk in enumerate(tasks)} for i, m in enumerate(systems)},
        tasks=tasks,
    )


def against_index_order(lb):
    """lb with its systems renamed so their names sort in reverse index order."""
    n = len(lb.systems)
    return dataclasses.replace(lb, systems=tuple([f"z{n - 1 - i:02d}" for i in range(n)]))


@pytest.mark.parametrize("n,t,seed", LADDER_BOARDS)
def test_rules_on_index_labels_choose_as_the_choosers_on_names(n, t, seed):
    """condorcet, black's Condorcet winner and the set rules, which run the
    choosers on index labels, agree with the choosers on build_majority_graph,
    whose labels are the names; weakly_stable refuses alike on both."""
    refused = []
    boards = ((ladder_board(n, t, seed), False), (ladder_board(n, t, seed, holes=True), True),
              (cyclic_board(n), False))
    for lb, holes in boards:
        lb = against_index_order(lb)
        graph = build_majority_graph(lb)
        winner = condorcet_winner(graph)
        out = vb.aggregate(lb, "condorcet")
        assert out.winners == (frozenset() if winner is None else {winner})
        assert out.diagnostics["condorcet_winner"] == winner
        if not holes:
            black = vb.aggregate(lb, "black")
            assert black.diagnostics["condorcet_winner"] == winner
            assert winner is None or black.winners == {winner}
        for rid, chooser in CHOOSERS.items():
            try:
                expected = chooser(graph)
            except vb.SearchTooLarge as exc:
                with pytest.raises(vb.SearchTooLarge, match=f"^{re.escape(str(exc))}$"):
                    vb.aggregate(lb, rid)
                refused.append(rid)
                continue
            out = vb.aggregate(lb, rid)
            assert out.winners == expected, rid
            assert out.unranked == frozenset(lb.systems) - expected, rid
    # the cyclic board's dominant set is all of it
    assert refused.count("weakly_stable") >= (n > 18)
    assert set(refused) <= {"weakly_stable"}
