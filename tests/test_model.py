import copy
import dataclasses
import random
import time
from fractions import Fraction as F

import pytest

import voteboard
from voteboard import (
    EmptySubset,
    Leaderboard,
    MissingScore,
    RankTable,
    RuleOutcome,
    UnknownSystem,
    as_fraction,
    build_profile,
    fractional_ranks_of,
    rho_from_rank_vectors,
)
from voteboard.io import to_json
from voteboard.iterative import EliminationRound
from voteboard.model import LazyScores

import reference
from conftest import TOY_ORDERS, board_from_orders, is_complete, random_board, tie_groups


def test_as_fraction_uses_decimal_text_for_floats():
    assert as_fraction(0.1) == F(1, 10)
    assert as_fraction(0.95) == F(19, 20)
    assert as_fraction(2) == F(2)
    assert as_fraction("1/4") == F(1, 4)
    assert as_fraction("0.5") == F(1, 2)
    assert as_fraction(F(3, 7)) == F(3, 7)


@pytest.mark.parametrize("text", [
    "inf", "-Infinity", "nan", "sNaN", "1e1001", "-1e1001", "1e-1001", "1e100000000",
    "1e-999999999",
])
def test_as_fraction_refuses_non_finite_and_out_of_range_decimals(text):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        as_fraction(text)
    assert time.perf_counter() - start < 1.0


def test_as_fraction_keeps_decimals_inside_the_exponent_limit():
    assert as_fraction("9.5e1000") == F(95 * 10**999)
    assert as_fraction("1e-1000") == F(1, 10**1000)
    assert as_fraction("0e100000000") == 0
    assert as_fraction("0.000123") == F(123, 10**6)


def test_zero_denominator_weights_are_value_errors():
    """A "1/0" weight is refused as a ValueError, not a bare ZeroDivisionError."""
    for run in (
        lambda: as_fraction("1/0"),
        lambda: as_fraction(" -3/0 "),
        lambda: Leaderboard.from_scores({"a": {"t": 1.0}}, weights={"t": "1/0"}),
    ):
        with pytest.raises(ValueError, match="zero denominator") as caught:
            run()
        assert not isinstance(caught.value, ZeroDivisionError)


def test_as_fraction_rejects_bool():
    with pytest.raises(TypeError):
        as_fraction(True)


def test_leaderboard_validation():
    with pytest.raises(ValueError):
        Leaderboard.from_scores({"a": {"t": 1.0}}, tasks=["t", "t"])
    with pytest.raises(ValueError):
        Leaderboard.from_scores({"a": {"t": float("nan")}}, tasks=["t"])
    with pytest.raises(ValueError):
        Leaderboard.from_scores(
            {"a": {"t": 1.0}}, tasks=["t"], directions={"t": "up"}
        )
    with pytest.raises(ValueError):
        Leaderboard.from_scores({"a": {"t": 1.0}}, tasks=["t"], weights={"t": -1})
    with pytest.raises(ValueError):
        Leaderboard.from_scores({"a": {"t": 1.0}}, tasks=["t"], weights={"t": 0})
    with pytest.raises(ValueError):
        Leaderboard.from_scores(
            {"a": {"t": 1.0}}, tasks=["t"], groups={"g": ["t"], "h": ["t"]}
        )
    with pytest.raises(ValueError):
        Leaderboard.from_scores({"a": {"t": 1.0}}, tasks=["t"], groups={"g": ["zz"]})


def test_toy_profile_positions(toy):
    prof = build_profile(toy)
    assert is_complete(prof)
    assert prof.position("t1", "A") == 1
    assert prof.position("t1", "B") == 2
    assert prof.position("t2", "B") == 4
    assert prof.position("t5", "A") == 4
    assert tie_groups(prof, "t3") == (("B",), ("D",), ("C",), ("A",))


def test_tied_scores_get_mean_position():
    lb = Leaderboard.from_scores(
        {"a": {"t": 3.0}, "b": {"t": 3.0}, "c": {"t": 1.0}}, tasks=["t"]
    )
    prof = build_profile(lb)
    assert prof.position("t", "a") == F(3, 2)
    assert prof.position("t", "b") == F(3, 2)
    assert prof.position("t", "c") == 3
    assert tie_groups(prof, "t") == (("a", "b"), ("c",))


def test_min_direction_reverses_order():
    lb = Leaderboard.from_scores(
        {"a": {"t": 3.0}, "b": {"t": 1.0}},
        tasks=["t"],
        directions={"t": "min"},
    )
    prof = build_profile(lb)
    assert prof.position("t", "b") == 1
    assert prof.position("t", "a") == 2


def test_position_sums_are_conserved():
    # complete task: positions over all systems sum to n(n+1)/2
    rng = random.Random(101)
    for _ in range(60):
        lb = random_board(rng, allow_min_direction=True)
        prof = build_profile(lb)
        n = len(lb.systems)
        for task in lb.tasks:
            total = sum(prof.position(task, m) for m in lb.systems)
            assert total == F(n * (n + 1), 2)


def test_build_profile_subset_and_errors(toy):
    prof = build_profile(toy, task_subset=["t1", "t2"])
    assert prof.tasks == ("t1", "t2")
    with pytest.raises(EmptySubset):
        build_profile(toy, task_subset=[])
    holed = reference.with_score(toy, "B", "t1", None)
    with pytest.raises(MissingScore):
        build_profile(holed)
    prof = build_profile(holed, missing_ok=True)
    assert prof.position("t1", "B") is None
    assert prof.position("t1", "A") == 1
    assert prof.position("t1", "C") == 2


def test_position_counts_toy(toy):
    prof = build_profile(toy)
    assert reference.table_position_counts(prof, "A") == (F(2), F(0), F(0), F(3))
    assert reference.table_position_counts(prof, "B") == (F(1), F(3), F(0), F(1))
    with pytest.raises(UnknownSystem):
        reference.table_position_counts(prof, "Z")


def test_position_counts_split_ties():
    lb = Leaderboard.from_scores(
        {"a": {"t": 2.0}, "b": {"t": 2.0}, "c": {"t": 1.0}}, tasks=["t"]
    )
    prof = build_profile(lb)
    assert reference.table_position_counts(prof, "a") == (F(1, 2), F(1, 2), F(0))
    assert reference.table_position_counts(prof, "c") == (F(0), F(0), F(1))


def test_profile_restrict_reranks():
    lb = board_from_orders(TOY_ORDERS)
    # systems B, C, D, A; keep the first three, B, C and D
    order = ["B", "C", "D", "A"]
    prof = build_profile(Leaderboard(order, lb.tasks, [lb.scores[lb.systems.index(m)] for m in order],
                                     lb.directions, lb.weights))
    sub = prof.prefix(3)
    assert sub.position("t1", "B") == 1
    assert sub.position("t1", "D") == 3
    assert set(sub.systems) == {"B", "C", "D"}


# (id, derivation on a 4-system, 5-task table whose system 1 is unranked on
# task 0, the ValueError's message): refused when called, not when read
PREFIX_REFUSAL = r"a prefix holds 1 to 4 systems: "
BAD_DERIVATIONS = [
    ("restrict nobody", lambda t: t.prefix(0), PREFIX_REFUSAL + "0$"),
    ("restrict beyond the last system", lambda t: t.prefix(5), PREFIX_REFUSAL + "5$"),
    ("prefix of a negative length", lambda t: t.prefix(-1), PREFIX_REFUSAL + "-1$"),
    ("prefix of a float length", lambda t: t.prefix(2.0), PREFIX_REFUSAL + r"2\.0$"),
    ("prefix of a boolean length", lambda t: t.prefix(True), PREFIX_REFUSAL + "True$"),
    ("unrank an unranked cell", lambda t: t.without([(1, 0)]), r"cell \(1, 0\) is not ranked"),
    ("unrank a cell of no system", lambda t: t.without([(0, 1), (4, 1)]), r"cell \(4, 1\)"),
    ("unrank a cell of no task", lambda t: t.without([(0, 5)]), r"cell \(0, 5\)"),
    ("unrank a cell of a negative task", lambda t: t.without([(0, -1)]), r"cell \(0, -1\)"),
    ("unrank a cell once unranked", lambda t: t.without([(2, 2)]).without([(2, 2)]),
     r"cell \(2, 2\) is not ranked"),
]


@pytest.mark.parametrize("derive,message", [
    pytest.param(derive, message, id=name) for name, derive, message in BAD_DERIVATIONS
])
def test_derived_tables_refuse_bad_indices(derive, message):
    lb = board_from_orders(TOY_ORDERS).without_cells([("B", "t1")])
    table = build_profile(lb, missing_ok=True)
    assert table.tasks[0] == "t1" and len(table.systems) == 4 and len(table.tasks) == 5
    with pytest.raises(ValueError, match=message):
        derive(table)


# (id, RankTable arguments on systems a and b, the ValueError's message)
BAD_TABLES = [
    ("fewer orders than tasks", (("t", "u"), (((0, 1),),), (1, 1), 1), "of one length"),
    ("fewer weights than tasks", (("t",), (((0, 1),),), (), 1), "of one length"),
    ("a negative weight", (("t",), (((0, 1),),), (-1,), 1), "non-negative ints"),
    ("a Fraction weight", (("t",), (((0, 1),),), (F(1),), 1), "non-negative ints"),
    ("a boolean weight", (("t",), (((0, 1),),), (True,), 1), "non-negative ints"),
    ("a zero scale", (("t",), (((0, 1),),), (1,), 0), "scale must be an int of at least 1"),
    ("an empty group", (("t",), (((0,), ()),), (1,), 1), "task 't' has an empty tie group"),
    ("a system twice", (("t",), (((0,), (0,)),), (1,), 1), "task 't' ranks a system twice"),
    ("a system twice in a group", (("t",), (((1, 1),),), (1,), 1), "ranks a system twice"),
    ("an index past the last", (("t",), (((0,), (5,)),), (1,), 1), r"outside 0\.\.1"),
    ("a negative index", (("t",), (((-1,), (0,)),), (1,), 1), r"outside 0\.\.1"),
]


@pytest.mark.parametrize("fields,message", [
    pytest.param(fields, message, id=name) for name, fields, message in BAD_TABLES
])
def test_rank_table_constructor_refuses_inconsistent_orders(fields, message):
    with pytest.raises(ValueError, match=message):
        RankTable(("a", "b"), *fields)


def test_rank_table_constructor_accepts_what_build_profile_builds(toy):
    lb = with_weights(toy, t1=F(1, 2)).without_cells([("B", "t1")])
    built = build_profile(lb, missing_ok=True)
    table = RankTable(built.systems, built.tasks, built.orders, built.weights, built.scale)
    assert table == built and table.pairwise() == built.pairwise()
    assert RankTable(("a", "b"), ("t",), (((1,),),), (0,), 1).pairwise() == ((0, 0), (0, 0))


def test_public_names_resolve_once():
    names = voteboard.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(voteboard, name) is not None, name
    assert "RankTable" in names and "RankProfile" not in names


def with_weights(lb, **weights):
    """The board with the named tasks' weights replaced, the others kept."""
    return dataclasses.replace(lb, weights=tuple([
        weights.get(t, w) for t, w in zip(lb.tasks, lb.weights)
    ]))


def test_build_profile_returns_the_exported_table(toy):
    table = build_profile(toy, missing_ok=True)
    assert type(table) is RankTable
    assert table.weights == (1,) * len(toy.tasks) and table.scale == 1
    weighted = build_profile(with_weights(toy, t1=F(1, 2), t2=3), ["t2", "t1"])
    assert weighted.tasks == ("t2", "t1")
    assert weighted.weights == (6, 1) and weighted.scale == 2
    assert weighted.orders == build_profile(toy, ["t2", "t1"]).orders
    assert reference.table_position_counts(weighted, "A") == (F(7, 2), F(0), F(0), F(0))


def test_build_profile_carries_the_boards_weights():
    scores = {"a": {"t1": 1, "t2": 2}, "b": {"t1": 2, "t2": 1}}
    table = build_profile(Leaderboard.from_scores(scores, weights={"t1": 2}))
    assert table.weights == (2, 1) and table.scale == 1
    assert table.pairwise() == ((0, 1), (2, 0))
    table = build_profile(Leaderboard.from_scores(scores, weights={"t1": F(1, 2), "t2": "1/3"}))
    assert table.weights == (3, 2) and table.scale == 6


def test_build_profile_refuses_repeated_tasks_and_ranks_zero_weight_groups(toy):
    with pytest.raises(ValueError, match="duplicate task id: 't1'"):
        build_profile(toy, ["t1", "t1"])
    # a group whose tasks all weigh 0 still ranks, as two_step needs
    zero = build_profile(with_weights(toy, t1=0), ["t1"])
    assert zero.weights == (0,) and zero.pairwise()[0] == (0, 0, 0, 0)


def test_build_profile_reads_a_subsets_weights_from_the_board(toy):
    # the tasks outside the subset weigh nothing in the table, whatever
    # their weight on the board
    table = build_profile(with_weights(toy, t1=F(2, 3), t2=5), ["t1"])
    assert table.weights == (2,) and table.scale == 3


def test_from_scores_refuses_keys_for_tasks_off_the_board():
    scores = {"a": {"t1": 1, "t2": 2}, "b": {"t1": 2, "t2": 1}}
    with pytest.raises(ValueError, match="weights name an unknown task: 'T1'"):
        Leaderboard.from_scores(scores, weights={"T1": 5})
    with pytest.raises(ValueError, match="directions name an unknown task: 'T2'"):
        Leaderboard.from_scores(scores, directions={"T2": "min"})
    # a task of the rows left out of tasks is off the board too
    with pytest.raises(ValueError, match="weights name an unknown task: 't2'"):
        Leaderboard.from_scores(scores, tasks=["t1"], weights={"t2": 3})
    lb = Leaderboard.from_scores(scores, weights={"t1": 5}, directions={"t2": "min"})
    assert lb.weights == (5, 1) and lb.directions == ("max", "min")


def test_board_edits(toy):
    fewer = toy.restrict_systems(["A", "B"])
    assert fewer.systems == ("A", "B")
    assert fewer.score("A", "t1") == 4.0
    narrowed = reference.restrict_tasks(toy, ["t2", "t4"])
    assert narrowed.tasks == ("t2", "t4")
    poked = toy.without_cells([("A", "t1"), ("B", "t2")])
    assert poked.score("A", "t1") is None
    assert poked.score("B", "t2") is None
    assert toy.score("A", "t1") == 4.0
    assert len(toy.present_cells()) == 20
    assert len(poked.present_cells()) == 18


def test_group_by_score_and_fractional_ranks():
    groups = reference.group_by_score({"a": F(3), "b": F(1), "c": F(3)})
    assert groups == (frozenset({"a", "c"}), frozenset({"b"}))
    groups = reference.group_by_score({"a": F(3), "b": F(1), "c": F(3)}, ascending=True)
    assert groups == (frozenset({"b"}), frozenset({"a", "c"}))
    ranks = fractional_ranks_of([frozenset({"a", "c"}), frozenset({"b"})])
    assert ranks == {"a": F(3, 2), "c": F(3, 2), "b": F(3)}


def test_outcome_accessors(toy):
    import voteboard as vb

    out = vb.aggregate(toy, "borda")
    assert out.winners == frozenset({"B"})
    assert out.is_total()
    assert out.competition_ranks() == {"B": 1, "C": 2, "D": 3, "A": 4}
    rel = reference.pair_relations(out)
    # +1 means the first system of the sorted pair sits lower in the ranking
    assert rel[("A", "B")] == 1
    assert rel[("A", "C")] == 1
    plur = vb.aggregate(toy, "plurality")
    assert plur.competition_ranks() == {"A": 1, "B": 2, "C": 2, "D": 2}
    assert plur.fractional_ranks()["B"] == F(3)
    assert reference.pair_relations(plur)[("B", "C")] == 0


@pytest.mark.parametrize("fields,message", [
    pytest.param({"ranking": (frozenset("a"), frozenset())}, "empty tie group", id="empty group"),
    pytest.param({"ranking": (frozenset("ab"), frozenset("b"))}, "disjoint", id="shared system"),
    pytest.param({"ranking": (frozenset("a"),), "unranked": frozenset("a")},
                 "both ranked and unranked", id="ranked and unranked"),
])
def test_outcome_refuses_inconsistent_groups(fields, message):
    with pytest.raises(ValueError, match=message):
        RuleOutcome(**fields)


def test_lazy_scores_read_as_the_dict_they_stand_for():
    plain = {"a": F(3, 4), "b": F(-1), "c": F(3, 2)}
    lazy = LazyScores(("a", "b", "c"), [3, -4, 6], 4)
    assert list(lazy) == ["a", "b", "c"] and len(lazy) == 3
    assert lazy._dict is None  # nothing built until a value is read
    assert "b" in lazy and "d" not in lazy
    assert lazy == plain and plain == lazy and dict(lazy) == plain
    assert lazy != {"a": F(3, 4)} and lazy != {**plain, "c": F(1)}
    assert repr(lazy) == repr(plain)
    with pytest.raises(TypeError):
        lazy["a"] = F(0)
    with pytest.raises(KeyError):
        lazy["d"]
    assert to_json(lazy) == to_json(plain)
    assert copy.deepcopy(lazy) == plain
    rounds = [EliminationRound(("a", "b", "c"), (F(1), F(0), F(0)), scores, frozenset("b"))
              for scores in (lazy, plain)]
    assert rounds[0] == rounds[1] and repr(rounds[0]) == repr(rounds[1])
    assert dataclasses.asdict(rounds[0]) == dataclasses.asdict(rounds[1])
    assert to_json(rounds[0]) == to_json(rounds[1])


def test_cells_are_stored_once_as_integers_over_one_denominator():
    """A float cell is its shortest decimal repr, an int or Fraction its own
    value, and the integers and their denominator share no factor."""
    lb = Leaderboard.from_scores({"a": {"x": 0.5, "y": F(1, 3)}, "b": {"x": 2, "y": None}})
    assert lb.cells == ((3, 2), (12, None)) and lb.denominator == 6
    assert lb.scores == ((F(1, 2), F(1, 3)), (F(2), None))
    assert lb.score("a", "x") == F(1, 2) and type(lb.score("a", "x")) is F
    assert lb.score("b", "y") is None
    # the Fraction view round-trips through the constructor
    again = Leaderboard(lb.systems, lb.tasks, lb.scores, lb.directions, lb.weights, lb.groups)
    assert again == lb and repr(again) == repr(lb)
    assert Leaderboard.from_scores({"a": {"x": 0.1}}).cells == ((1,),)
    assert Leaderboard.from_scores({"a": {"x": 0.1}}).denominator == 10


def test_derived_boards_are_in_lowest_terms_like_fresh_ones():
    """Dropping or setting cells can change the common factor; the derived
    board divides it out, so it equals, and prints as, the board built fresh."""
    lb = Leaderboard.from_scores({"a": {"x": 0.5, "y": 0.25}, "b": {"x": 1.5, "y": 0.75}})
    assert lb.denominator == 4
    cases = (
        (lb.without_cells([("a", "y"), ("b", "y")]),
         {"a": {"x": 0.5, "y": None}, "b": {"x": 1.5, "y": None}}),
        (reference.restrict_tasks(lb, ["x"]), {"a": {"x": 0.5}, "b": {"x": 1.5}}),
        (reference.with_score(lb.restrict_systems(["b"]), "b", "y", 3), {"b": {"x": 1.5, "y": 3}}),
        (reference.with_score(lb, "a", "x", F(1, 3)),
         {"a": {"x": F(1, 3), "y": 0.25}, "b": {"x": 1.5, "y": 0.75}}),
    )
    for derived, scores in cases:
        fresh = Leaderboard.from_scores(scores)
        assert derived == fresh and repr(derived) == repr(fresh)
    assert cases[0][0].denominator == 2 and cases[2][0].denominator == 2
    assert cases[3][0].denominator == 12


def test_a_cell_whose_float_is_not_finite_is_a_value_error():
    """The accepted range is the float range, checked at every way in."""
    limit = 2**1024 - 2**970
    assert Leaderboard.from_scores({"a": {"x": limit - 1}}).score("a", "x") == limit - 1
    lb = Leaderboard.from_scores({"a": {"x": 1}, "b": {"x": 2}})
    for build in (
        lambda: Leaderboard.from_scores({"a": {"x": 2**1100}, "b": {"x": 1}}),
        lambda: Leaderboard.from_scores({"a": {"x": -limit}}),
        lambda: Leaderboard.from_scores({"a": {"x": F(limit * 3 + 1, 3)}}),
        lambda: Leaderboard.from_scores({"a": {"x": float("inf")}}),
        lambda: Leaderboard(("a",), ("x",), ((float("nan"),),), ("max",), (F(1),)),
        lambda: reference.with_score(lb, "a", "x", 10**400),
        lambda: reference.with_score(lb, "a", "x", -float("inf")),
    ):
        with pytest.raises(ValueError, match="scores must be finite or None") as caught:
            build()
        assert not isinstance(caught.value, OverflowError)


def test_boolean_cells_are_refused_as_boolean_weights_are():
    with pytest.raises(TypeError):
        Leaderboard(("a", "b"), ("x",), ((True,), (0.5,)), ("max",), (F(1),))
    with pytest.raises(TypeError):
        Leaderboard.from_scores({"a": {"x": False}})
    with pytest.raises(TypeError):
        reference.with_score(Leaderboard.from_scores({"a": {"x": 1}}), "a", "x", True)


def two_systems(scores=((0.5, 2), (F(1, 3), None)), directions=("max", "min"),
                weights=(F(1), F(1, 2)), groups=None, systems=("a", "b"), tasks=("x", "y")):
    return Leaderboard(systems, tasks, scores, directions, weights, groups)


def test_replace_builds_the_board_the_constructor_builds():
    lb = two_systems()
    edits = {"weights": (F(2), F(0)), "directions": ("min", "max"),
             "groups": (("g", ("x",)), ("h", ("y",)))}
    edited = dataclasses.replace(lb, **edits)
    assert edited == two_systems(**edits) and repr(edited) == repr(two_systems(**edits))
    assert edited.cells == lb.cells and edited.denominator == lb.denominator
    with pytest.raises(ValueError, match="task weights must be non-negative"):
        dataclasses.replace(lb, weights=(F(1), F(-1)))


@pytest.mark.parametrize("groups,pairs", [
    # each key is a group's name, however long, and never unpacked
    ({"tu": ["x"]}, (("tu", ("x",)),)),
    ({"g": ["x"]}, (("g", ("x",)),)),
    ({"gg": ["x"], "h": ("y",)}, (("gg", ("x",)), ("h", ("y",)))),
])
def test_constructor_reads_groups_as_a_mapping(groups, pairs):
    lb = two_systems(groups=groups)
    assert lb.groups == pairs and lb == two_systems(groups=pairs)
    assert Leaderboard.from_scores({"a": {"x": 1, "y": 2}}, groups=groups).groups == pairs


def test_replace_round_trips_the_groups():
    lb = two_systems(groups={"g": ["y"], "h": ["x"]})
    assert dataclasses.replace(lb) == lb and dataclasses.replace(lb).groups == lb.groups
    moved = dataclasses.replace(lb, groups={"all": ("x", "y")})
    assert moved.groups == (("all", ("x", "y")),)
    assert dataclasses.replace(moved, groups=lb.groups) == lb


def test_board_reads_weights_exactly_and_keeps_its_fields_as_tuples():
    assert two_systems(weights=(1, "1/2")).weights == (F(1), F(1, 2))
    assert reference.total_weight(two_systems(weights=(0.1, 0.2))) == F(3, 10)
    with pytest.raises(TypeError, match="booleans"):
        two_systems(weights=(True, 1))
    with pytest.raises(TypeError, match="booleans"):
        dataclasses.replace(two_systems(), weights=(1, False))
    assert dataclasses.replace(two_systems(), weights=[0.1, "1/5"]).weights == (F(1, 10), F(1, 5))
    listed = Leaderboard(["a", "b"], ["x", "y"], [[0.5, 2], [F(1, 3), None]], ["max", "min"],
                         [1, 0.5], [["g", ["x", "y"]]])
    assert listed == two_systems(groups=(("g", ("x", "y")),))
    assert hash(listed) == hash(two_systems(groups=(("g", ("x", "y")),)))
    for name in ("systems", "tasks", "directions", "weights", "groups"):
        assert type(getattr(listed, name)) is tuple, name
    assert listed.groups[0] == ("g", ("x", "y"))
    with pytest.raises(AttributeError):
        listed.systems.append("c")


# (id, a call on or building a two-system board, or on two systems' ranks,
# the ValueError's message)
BOARD_REFUSALS = [
    ("one row per system", lambda: two_systems(scores=((1, 2),)),
     "score matrix must have one row per system"),
    ("row length", lambda: two_systems(scores=((1, 2), (3,))),
     "score row length must match task count"),
    ("one direction per task", lambda: two_systems(directions=("max",)),
     "one direction per task required"),
    ("one weight per task", lambda: two_systems(weights=(F(1),)),
     "one weight per task required"),
    ("at least one system", lambda: two_systems(systems=(), scores=()),
     "leaderboard needs at least one system"),
    ("at least one task", lambda: two_systems(tasks=(), scores=((), ()), directions=(),
                                              weights=()),
     "leaderboard needs at least one task"),
    ("a NaN weight", lambda: two_systems(weights=(F(1), float("nan"))),
     "non-finite value: nan"),
    ("a group with no tasks", lambda: two_systems(groups=(("g", ()),)),
     "group 'g' has no tasks"),
    ("a group's tasks as one string", lambda: Leaderboard.from_scores(
        {"a": {"x": 1, "y": 2}, "b": {"x": 2, "y": 1}}, groups={"g": "xy"}),
     "group 'g': tasks must be a sequence of names, not the string 'xy'"),
    ("a group's one task as a string", lambda: Leaderboard.from_scores(
        {"a": {"t1": 1}, "b": {"t1": 2}}, groups={"g": "t1"}),
     "group 'g': tasks must be a sequence of names, not the string 't1'"),
    ("a task subset as one string",
     lambda: build_profile(two_systems(scores=((1, 2), (3, 4))), "xy"),
     "task subset: tasks must be a sequence of names, not the string 'xy'"),
    ("score on an unknown task", lambda: two_systems().score("a", "nope"),
     "unknown task: 'nope'"),
    ("restrict to no systems", lambda: two_systems().restrict_systems([]),
     "cannot drop every system"),
    ("restrict to no tasks", lambda: reference.restrict_tasks(two_systems(), []),
     "cannot drop every task"),
    ("two systems' ranks holding a NaN", lambda: rho_from_rank_vectors([1.0, float("nan")], [1, 2]),
     "ranks must be ints, Fractions or finite floats"),
    ("two systems' ranks as strings", lambda: rho_from_rank_vectors(["1", "2"], [1, 2]),
     "ranks must be ints, Fractions or finite floats"),
    ("a board's systems as one string", lambda: two_systems(systems="ab"),
     "leaderboard: systems must be a sequence of names, not the string 'ab'"),
    ("a board's tasks as one string", lambda: two_systems(tasks="xy"),
     "leaderboard: tasks must be a sequence of names, not the string 'xy'"),
    ("from_scores' tasks as one string", lambda: Leaderboard.from_scores(
        {"a": {"x": 1, "y": 2}, "b": {"x": 2, "y": 1}}, tasks="xy"),
     "from_scores: tasks must be a sequence of names, not the string 'xy'"),
    ("restrict to systems as one string", lambda: two_systems().restrict_systems("ab"),
     "restrict_systems: systems must be a sequence of names, not the string 'ab'"),
    ("a rank table's systems as one string",
     lambda: RankTable("ab", ("t",), (((0,), (1,)),), (1,), 1),
     "rank table: systems must be a sequence of names, not the string 'ab'"),
    ("a rank table's tasks as one string",
     lambda: RankTable(("a", "b"), "t", (((0,), (1,)),), (1,), 1),
     "rank table: tasks must be a sequence of names, not the string 't'"),
    ("a position on an unknown task",
     lambda: build_profile(two_systems(scores=((1, 2), (3, 4)))).position("zz", "a"),
     "unknown task: 'zz'"),
    ("aggregate with a list for a rule",
     lambda: voteboard.aggregate(two_systems(scores=((1, 2), (3, 4))), ["borda"]),
     "unknown rule: ['borda']"),
    ("get_rule with a list", lambda: voteboard.get_rule(["borda"]), "unknown rule: ['borda']"),
    ("iia with a list for a rule", lambda: voteboard.iia_experiment(
        Leaderboard.from_scores({"a": {"x": 1}, "b": {"x": 2}, "c": {"x": 3}}), ["borda"]),
     "unknown rule: ['borda']"),
    ("robustness with a list for a rule",
     lambda: voteboard.robustness_experiment(two_systems(), [["copeland"]]),
     "unknown rule: ['copeland']"),
    # a name that is not hashable is an unknown one, not a bare TypeError
    ("restrict to a list for a system", lambda: two_systems().restrict_systems([["a"]]),
     "unknown system: ['a']", UnknownSystem),
    ("a task subset holding a list", lambda: build_profile(two_systems(scores=((1, 2), (3, 4))),
                                                           [["x"]]),
     "unknown task: ['x']"),
    # a falsy config is not the default one
    ("iia with an int for a config", lambda: voteboard.iia_experiment(
        Leaderboard.from_scores({"a": {"x": 1}, "b": {"x": 2}, "c": {"x": 3}}), "borda", cfg=5),
     "cfg must be an ExperimentConfig, not 5", voteboard.InvalidParameter),
    ("robustness with a zero for a config",
     lambda: voteboard.robustness_experiment(two_systems(), ["copeland"], cfg=0),
     "cfg must be an ExperimentConfig, not 0", voteboard.InvalidParameter),
]


@pytest.mark.parametrize("call,message,error", [
    # a row's error is ValueError unless it names another after the message
    pytest.param(call, message, *error or [ValueError], id=name)
    for name, call, message, *error in BOARD_REFUSALS
])
def test_board_refusals(call, message, error):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
