import math
import random
from fractions import Fraction as F

import pytest

import voteboard as vb
from voteboard import (
    InvalidParameter,
    MissingScore,
    VectorLengthMismatch,
    build_profile,
)

from voteboard.io import load_leaderboard
from voteboard.scoring import NAMED_ENTRIES, _custom_entries, _integer_totals

import oracle
import reference
from conftest import random_board
from reference import ScoringVector


def test_named_vectors():
    assert ScoringVector.plurality(4).entries == (F(1), F(0), F(0), F(0))
    assert ScoringVector.two_approval(4).entries == (F(1), F(1), F(0), F(0))
    assert ScoringVector.antiplurality(4).entries == (F(1), F(1), F(1), F(0))
    assert ScoringVector.borda(4).entries == (F(3), F(2), F(1), F(0))
    assert ScoringVector.dowdall(4).entries == (F(1), F(1, 2), F(1, 3), F(1, 4))


def test_named_integer_entries_are_the_scaled_vectors():
    """Each named rule sums integer entries: ScoringVector.<rule>(n).entries
    scaled by the LCM of their denominators, for n = 1 to 60, and its
    "vector" diagnostic reads back as those entries."""
    assert set(NAMED_ENTRIES) == {"plurality", "two_approval", "antiplurality", "borda", "dowdall"}
    for rule, scaled in NAMED_ENTRIES.items():
        for n in range(1, 61):
            entries, lcm = scaled(n)
            vector = getattr(ScoringVector, rule)(n).entries
            assert lcm == math.lcm(*[e.denominator for e in vector]), (rule, n)
            assert entries == [e.numerator * (lcm // e.denominator) for e in vector], (rule, n)
            assert all(type(e) is int for e in entries)
    assert NAMED_ENTRIES["dowdall"](60)[1] == math.lcm(*range(1, 61))
    lb = vb.Leaderboard.from_scores({f"m{i}": {"t": i} for i in range(7)})
    for rule in NAMED_ENTRIES:
        diagnostics = vb.aggregate(lb, rule).diagnostics
        assert diagnostics == {"vector": getattr(ScoringVector, rule)(7).entries}, rule
    assert ScoringVector.top_k(5, 3).entries == (F(1),) * 3 + (F(0),) * 2
    assert ScoringVector.top_k(5, 5).entries == (F(1),) * 5
    for k in (0, 6):
        with pytest.raises(InvalidParameter, match="k must be between 1 and n"):
            ScoringVector.top_k(5, k)


def test_vector_validation(toy):
    with pytest.raises(InvalidParameter, match="non-increasing"):
        _custom_entries([1, 2, 3])
    with pytest.raises(InvalidParameter, match="must not be constant"):
        _custom_entries([2, 2, 2])
    for vector in ([1, 1, 1, 1], [0, 1, 2, 3]):
        with pytest.raises(InvalidParameter):
            vb.aggregate(toy, "custom", vector=vector)
    # the checks run in order: a str, a bad entry, empty, non-increasing, constant
    for vector, message in (("543210", "a sequence of entries, not the string '543210'"),
                            ([], "cannot be empty"), ([3, "x", 4], "bad scoring vector"),
                            ([1, 2, 2], "non-increasing"), ([5], "must not be constant")):
        with pytest.raises(InvalidParameter, match=message):
            vb.aggregate(toy, "custom", vector=vector)
    for places in (0, -3):
        with pytest.raises(InvalidParameter):
            ScoringVector.antiplurality(places)
    # degenerate named vectors are fine, e.g. single-system boards
    assert ScoringVector.antiplurality(1).entries == (F(0),)
    assert ScoringVector.two_approval(2).entries == (F(1), F(1))
    assert NAMED_ENTRIES["antiplurality"](1) == ([0], 1)
    assert NAMED_ENTRIES["two_approval"](2) == ([1, 1], 1)
    assert _custom_entries(["12", 10, 8, 7, 6]) == ([12, 10, 8, 7, 6], 1)
    assert _custom_entries(["1/2", 0.25, 0]) == ([2, 1, 0], 4)
    out = vb.aggregate(toy, "custom", vector=["12", 10, 8, 7])
    assert out.diagnostics["vector"][0] == F(12)


BOARD_3 = vb.Leaderboard.from_scores(
    {"a": {"t": 0.9}, "b": {"t": 0.5}, "c": {"t": 0.1}}, tasks=["t"]
)


@pytest.mark.parametrize("rule,params", [
    pytest.param("custom", {"vector": ["abc", 1, 0]}, id="custom, not a number"),
    pytest.param("custom", {"vector": [math.nan, 1, 0]}, id="custom, nan"),
    pytest.param("custom", {"vector": [math.inf, 1, 0]}, id="custom, inf"),
    pytest.param("custom", {"vector": [True, 0, 0]}, id="custom, boolean"),
    pytest.param("custom", {"vector": ["1/0", 1, 0]}, id="custom, zero denominator"),
    pytest.param("custom", {"vector": 3}, id="custom, not a sequence"),
    # holds its entries but is not iterable
    pytest.param("custom", {"vector": ScoringVector.borda(3)}, id="custom, a ScoringVector"),
    pytest.param("custom", {"vector": [2, 1, 0], "gamma": 0.9}, id="custom with gamma"),
    pytest.param("borda", {"vector": [2, 1, 0]}, id="borda with a vector"),
    pytest.param("copeland", {"gamma": 0.9}, id="copeland with gamma"),
    pytest.param("threshold", {"k": 1}, id="threshold with k"),
    pytest.param("mean", {"gamma": 0.9}, id="mean with gamma"),
    pytest.param("optimality_gap", {"vector": [2, 1, 0]}, id="optimality_gap with a vector"),
    pytest.param("optimality_gap", {"gamma": "abc"}, id="gamma, not a number"),
    pytest.param("optimality_gap", {"gamma": math.nan}, id="gamma, nan"),
    pytest.param("optimality_gap", {"gamma": math.inf}, id="gamma, inf"),
    pytest.param("optimality_gap", {"gamma": True}, id="gamma, boolean"),
    pytest.param("optimality_gap", {"gamma": "1/0"}, id="gamma, zero denominator"),
    pytest.param("optimality_gap", {"gamma": "inf"}, id="gamma, the string inf"),
    pytest.param("optimality_gap", {"gamma": 0}, id="gamma 0"),
    pytest.param("optimality_gap", {"gamma": -1}, id="gamma -1"),
    pytest.param("custom", {"vector": ["inf", 1, 0]}, id="custom, the string inf"),
])
def test_bad_rule_parameters_are_invalid(rule, params):
    with pytest.raises(InvalidParameter):
        vb.aggregate(BOARD_3, rule, **params)


def test_rule_parameters_come_from_the_runners():
    accepting = {rid: vb.get_rule(rid).params for rid in vb.rule_ids()}
    assert {rid: p for rid, p in accepting.items() if p} == {
        "custom": {"vector"},
        "optimality_gap": {"gamma"},
    }


def test_toy_plurality_scores(toy):
    out = vb.aggregate(toy, "plurality")
    assert out.scores == {"A": F(2), "B": F(1), "C": F(1), "D": F(1)}
    assert out.winners == {"A"}


def test_toy_borda_scores(toy):
    out = vb.aggregate(toy, "borda")
    assert out.scores == {"A": F(6), "B": F(9), "C": F(8), "D": F(7)}
    assert out.ranking == tuple(
        frozenset(g) for g in ({"B"}, {"C"}, {"D"}, {"A"})
    )


def test_toy_dowdall_tie(toy):
    out = vb.aggregate(toy, "dowdall")
    assert out.scores["A"] == F(11, 4)
    assert out.scores["B"] == F(11, 4)
    assert out.scores["C"] == F(5, 2)
    assert out.scores["D"] == F(29, 12)
    assert out.ranking[0] == {"A", "B"}


def test_toy_two_approval_and_antiplurality(toy):
    out = vb.aggregate(toy, "two_approval")
    assert out.scores == {"A": F(2), "B": F(4), "C": F(2), "D": F(2)}
    out = vb.aggregate(toy, "antiplurality")
    assert out.scores == {"A": F(2), "B": F(4), "C": F(5), "D": F(4)}
    assert out.winners == {"C"}


def test_custom_vector_rule(toy):
    out = vb.aggregate(toy, "custom", vector=[3, 1, 1, 0])
    # A first twice and last otherwise: 3+3+0+0+0; C: 1+1+1+3+1
    assert out.scores["A"] == F(6)
    assert out.scores["C"] == F(7)
    assert out.winners == {"C"}
    with pytest.raises(InvalidParameter):
        vb.aggregate(toy, "custom")


def test_borda_tells_2_53_plus_1_from_2_53(tmp_path):
    """Integers past the float mantissa stay distinct, from dicts and from a CSV."""
    big = 2**53
    path = tmp_path / "big.csv"
    path.write_text(f"system,x,y\na,{big + 1},{big}\nb,{big},{big}\n")
    scores = {"a": {"x": big + 1, "y": big}, "b": {"x": big, "y": big}}
    for lb in (vb.Leaderboard.from_scores(scores),
               load_leaderboard(path)):
        out = vb.aggregate(lb, "borda")
        assert out.ranking == (frozenset({"a"}), frozenset({"b"}))
        assert out.scores == {"a": F(3, 2), "b": F(1, 2)}
        assert vb.aggregate(lb, "mean").ranking == out.ranking


def test_tied_task_splits_vector_mass():
    lb = vb.Leaderboard.from_scores(
        {"a": {"t": 2.0}, "b": {"t": 2.0}, "c": {"t": 1.0}}, tasks=["t"]
    )
    out = vb.aggregate(lb, "borda")
    assert out.scores == {"a": F(3, 2), "b": F(3, 2), "c": F(0)}


def test_vector_length_mismatch(toy):
    prof = build_profile(toy)
    with pytest.raises(VectorLengthMismatch):
        _integer_totals(prof, *_custom_entries(ScoringVector.borda(3).entries))
    with pytest.raises(VectorLengthMismatch, match="vector has 3 entries for 4 systems"):
        vb.aggregate(toy, "custom", vector=[2, 1, 0])


def test_missing_score_rejected(toy):
    holed = reference.with_score(toy, "C", "t2", None)
    with pytest.raises(MissingScore):
        vb.aggregate(holed, "borda")
    table = build_profile(holed, missing_ok=True)
    with pytest.raises(MissingScore, match="task 't2' does not rank every system"):
        _integer_totals(table, *_custom_entries(ScoringVector.borda(len(holed.systems)).entries))
    # each positional core, custom included, names the first task that
    # misses a system, on a table built with holes or unranked from a whole one
    holed = reference.with_score(reference.with_score(toy, "A", "t4", None), "C", "t3", None)
    tables = [build_profile(holed, missing_ok=True), build_profile(toy).without([(3, 3), (0, 2)])]
    for table in tables:
        for rule_id, rule in vb.scoring.RULES.items():
            params = {"vector": [3, 2, 1, 0]} if rule_id == "custom" else {}
            with pytest.raises(MissingScore, match="task 't3' does not rank every system"):
                rule.run(table, **params)


def test_score_with_vector_matches_reference():
    rng = random.Random(35)
    for _ in range(30):
        lb = random_board(rng, allow_weights=True, allow_min_direction=True)
        weights = reference.base_weights(lb)
        table = build_profile(lb)
        n = len(lb.systems)
        falling = ScoringVector.custom([F(7, 3)] + [F(n - 1 - p, 5 * n) for p in range(n - 1)])
        for vector in (ScoringVector.borda(n), ScoringVector.dowdall(n), falling):
            totals, unit = _integer_totals(table, *_custom_entries(vector.entries))
            got = {m: F(x, unit) for m, x in zip(table.systems, totals)}
            want = reference.score_with_vector(reference.build_profile(lb), vector, weights)
            assert got == want and list(got) == list(lb.systems)
            assert vb.aggregate(lb, "custom", vector=vector.entries).scores == want


def mixed_tie_board(n, seed):
    """Seeded n x 6 board with untied, partly tied and fully tied tasks, min
    directions, and weights 0, 1/3, 1, 5/7 and 2."""
    rng = random.Random(f"mixed-ties:{n}:{seed}")
    systems = [f"s{i:02d}" for i in range(n)]
    levels = (rng.sample(range(n), n), [rng.randint(0, n // 3) for _ in systems], [4] * n,
              rng.sample(range(n), n), [rng.randint(0, 2) for _ in systems],
              [rng.randint(0, n) for _ in systems])
    tasks = [f"t{j}" for j in range(len(levels))]
    scores = {m: {tk: column[i] for tk, column in zip(tasks, levels)}
              for i, m in enumerate(systems)}
    weights = dict(zip(tasks, [F(1), F(1, 3), F(2), F(0), F(5, 7), F(1)]))
    directions = {tk: rng.choice(["max", "min"]) for tk in tasks}
    return vb.Leaderboard.from_scores(scores, tasks=tasks, weights=weights,
                                      directions=directions)


@pytest.mark.parametrize("n", [2, 5, 20, 50])
def test_integer_totals_match_reference_on_mixed_ties(n):
    """_integer_totals, read over its unit, equals reference.score_with_vector
    for borda, dowdall and a custom vector, on boards whose tasks are
    untied, partly tied and fully tied."""
    for seed in range(3):
        lb = mixed_tie_board(n, seed)
        table = build_profile(lb)
        assert {len(groups) for groups in table.orders} >= {1, n}
        ref_profile = reference.build_profile(lb)
        custom = ScoringVector.custom([F(9, 2)] + [F(n - p, 3 * n) for p in range(1, n)])
        for vector in (ScoringVector.borda(n), ScoringVector.dowdall(n), custom):
            totals, unit = _integer_totals(table, *_custom_entries(vector.entries))
            want = reference.score_with_vector(ref_profile, vector, reference.base_weights(lb))
            assert {m: F(x, unit) for m, x in zip(table.systems, totals)} == want, (seed, vector)


def test_score_mass_is_conserved():
    # every task hands out exactly sum(vector) x weight
    rng = random.Random(33)
    for _ in range(40):
        lb = random_board(rng, allow_weights=True, allow_min_direction=True)
        n = len(lb.systems)
        out = vb.aggregate(lb, "borda")
        expected = reference.total_weight(lb) * F(n * (n - 1), 2)
        assert sum(out.scores.values(), F(0)) == expected


def test_unanimity_strict_for_borda_and_dowdall():
    rng = random.Random(34)
    checked = 0
    for _ in range(80):
        lb = random_board(rng)
        borda = vb.aggregate(lb, "borda").scores
        dowdall = vb.aggregate(lb, "dowdall").scores
        plur = vb.aggregate(lb, "plurality").scores
        for a in lb.systems:
            for b in lb.systems:
                if a == b:
                    continue
                if all(lb.score(a, t) > lb.score(b, t) for t in lb.tasks):
                    checked += 1
                    assert borda[a] > borda[b]
                    assert dowdall[a] > dowdall[b]
                    assert plur[a] >= plur[b]
    assert checked > 10


def test_argmax_invariant_under_affine_vector_change(toy):
    base = vb.aggregate(toy, "borda")
    # 2*borda + 1 entrywise
    shifted = vb.aggregate(toy, "custom", vector=[7, 5, 3, 1])
    assert shifted.ranking == base.ranking


def test_matches_oracle_on_random_boards():
    rng = random.Random(35)
    for _ in range(50):
        lb = random_board(rng, allow_weights=True, allow_min_direction=True)
        n = len(lb.systems)
        pairs = [
            ("plurality", oracle.plurality_entries(n)),
            ("borda", oracle.borda_entries(n)),
            ("dowdall", oracle.dowdall_entries(n)),
            ("antiplurality", oracle.antiplurality_entries(n)),
            ("two_approval", oracle.two_approval_entries(n)),
        ]
        for rule, entries in pairs:
            got = vb.aggregate(lb, rule).scores
            want = oracle.vector_scores(lb, entries)
            assert got == want, (rule, lb.scores)
