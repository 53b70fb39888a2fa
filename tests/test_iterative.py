import random
from fractions import Fraction as F

import pytest

import voteboard as vb

import oracle
from conftest import board_from_orders, random_board
from reference import ScoringVector
from test_kernels import ladder_board


def eliminated_order(outcome):
    trace = outcome.diagnostics["trace"]
    return [set(r.eliminated) for r in trace.rounds]


def test_toy_threshold(toy):
    out = vb.aggregate(toy, "threshold")
    assert out.winners == {"C"}
    first = out.diagnostics["first_round_scores"]
    assert first == {"A": F(2), "B": F(4), "C": F(5), "D": F(4)}
    # repeated application ranks everybody
    assert out.is_total()
    assert out.ranking == tuple(
        frozenset(g) for g in ({"C"}, {"B"}, {"D"}, {"A"})
    )


def test_toy_baldwin(toy):
    out = vb.aggregate(toy, "baldwin")
    assert out.winners == {"B"}
    assert eliminated_order(out) == [{"A"}, {"D"}, {"C"}]
    assert out.ranking == tuple(
        frozenset(g) for g in ({"B"}, {"C"}, {"D"}, {"A"})
    )


def test_toy_hare(toy):
    out = vb.aggregate(toy, "hare")
    # round one: A holds 2 first places, everyone else 1, so B, C, D all drop
    assert out.winners == {"A"}
    assert eliminated_order(out) == [{"B", "C", "D"}]


def test_toy_coombs(toy):
    out = vb.aggregate(toy, "coombs")
    assert out.winners == {"B"}
    # no strict majority in any round; A leaves first (3 last places),
    # then C and D tie on last-place mass and leave together
    assert eliminated_order(out) == [{"A"}, {"C", "D"}]
    assert "majority_winner" not in out.diagnostics


def test_coombs_majority_short_circuit():
    lb = board_from_orders(
        {
            "t1": ["A", "B", "C"],
            "t2": ["A", "C", "B"],
            "t3": ["B", "A", "C"],
        }
    )
    out = vb.aggregate(lb, "coombs")
    assert out.winners == {"A"}
    assert out.diagnostics["majority_winner"] == "A"
    assert out.diagnostics["majority_share"] == F(2, 3)


def test_toy_nanson(toy):
    out = vb.aggregate(toy, "nanson")
    # mean borda is 7.5: A (6) and D (7) go, then C, leaving B
    assert out.winners == {"B"}
    assert eliminated_order(out) == [{"A", "D"}, {"C"}]


def test_toy_black_uses_condorcet_winner(toy):
    out = vb.aggregate(toy, "black")
    assert out.winners == {"B"}
    assert out.diagnostics["path"] == "condorcet"
    # remaining places follow borda among the rest
    assert out.ranking == tuple(
        frozenset(g) for g in ({"B"}, {"C"}, {"D"}, {"A"})
    )


def test_black_falls_back_to_borda_on_cycle():
    lb = board_from_orders(
        {
            "t1": ["A", "B", "C"],
            "t2": ["B", "C", "A"],
            "t3": ["C", "A", "B"],
        }
    )
    out = vb.aggregate(lb, "black")
    assert out.diagnostics["path"] == "borda"
    assert out.diagnostics["condorcet_winner"] is None
    assert out.winners == {"A", "B", "C"}


def test_all_tied_board_stops_cleanly():
    lb = vb.Leaderboard.from_scores(
        {"a": {"t": 1.0}, "b": {"t": 1.0}, "c": {"t": 1.0}}, tasks=["t"]
    )
    for rule in ("baldwin", "hare", "coombs", "nanson", "threshold"):
        out = vb.aggregate(lb, rule)
        assert out.winners == {"a", "b", "c"}, rule


def test_two_system_rules_agree_with_majority():
    rng = random.Random(77)
    for _ in range(40):
        lb = random_board(rng, min_systems=2, max_systems=2)
        margin = oracle.margins(lb)[(lb.systems[0], lb.systems[1])]
        if margin > 0:
            expect = {lb.systems[0]}
        elif margin < 0:
            expect = {lb.systems[1]}
        else:
            expect = set(lb.systems)
        for rule in ("baldwin", "coombs", "nanson", "black"):
            assert vb.aggregate(lb, rule).winners == expect


def test_iterative_rules_match_oracle():
    rng = random.Random(78)
    for _ in range(60):
        lb = random_board(rng, allow_weights=True)
        assert vb.aggregate(lb, "threshold").winners == oracle.threshold_winners(lb)
        assert vb.aggregate(lb, "baldwin").winners == oracle.baldwin_winners(lb)
        assert vb.aggregate(lb, "hare").winners == oracle.hare_winners(lb)
        assert vb.aggregate(lb, "coombs").winners == oracle.coombs_winners(lb)
        assert vb.aggregate(lb, "nanson").winners == oracle.nanson_winners(lb)
        assert vb.aggregate(lb, "black").winners == oracle.black_winners(lb)


def test_ranking_is_reverse_elimination(toy):
    out = vb.aggregate(toy, "baldwin")
    tiers = eliminated_order(out)
    # last eliminated sits right behind the survivors
    assert list(out.ranking[1:]) == [frozenset(t) for t in reversed(tiers)]


# the scoring vector each elimination rule's rounds report, on k places
ROUND_VECTORS = {
    "baldwin": lambda k: ScoringVector.borda(k).entries,
    "nanson": lambda k: ScoringVector.borda(k).entries,
    "hare": lambda k: ScoringVector.plurality(k).entries,
    # the last-place one-hot
    "coombs": lambda k: tuple([F(1 if p == k - 1 else 0) for p in range(k)]),
}


@pytest.mark.parametrize("rule", sorted(ROUND_VECTORS))
def test_every_round_reports_the_reference_vector(rule):
    """A round's vector is the reference ScoringVector on as many places as
    the round has survivors, as Fractions, on ladder and random boards."""
    rng = random.Random(f"round-vectors:{rule}")
    boards = [ladder_board(n, t, 0) for n, t in ((5, 3), (8, 5), (20, 6))]
    boards += [random_board(rng, max_systems=9, allow_weights=True) for _ in range(20)]
    sizes = set()
    for lb in boards:
        for round_ in vb.aggregate(lb, rule).diagnostics["trace"].rounds:
            k = len(round_.survivors)
            sizes.add(k)
            assert round_.vector == ROUND_VECTORS[rule](k), (rule, lb.systems, k)
            assert all(type(e) is F for e in round_.vector)
    assert len(sizes) > 3, sizes
