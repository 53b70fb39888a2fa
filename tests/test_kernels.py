"""The integer kernels against the Fraction code they replaced.

tests/reference.py keeps the Fraction implementations as they were, from
the profile build and the modes up. Every rewired rule must produce an
equal RuleOutcome, diagnostics included, and the cw dominance matrix equal
rows. The library's outcomes are made, and their rankings read, while
every diagnostic builder raises, so the diagnostics compared are built on
that later read. All of this holds on a seeded ladder of boards from 5 to
60 systems with ties, min directions, weights 1, 1/2 and 1/3, and missing
cells for the rules that accept them. The dominance rows, compared from the integer cells, also
match on seeded random boards whose int, float and Fraction cells tie
across types (-0.0 with 0.0 among them), on min tasks and with holes.
The larger boards run in fewer modes, and the largest gets its missing
cells only in the graph check, because the reference is slow there. The rules also run on one 50 x 20 board, the wide benchmark's shape,
with and without holes. On the 60-system board, dowdall's vector is scaled by the LCM of
1..60, a 25-digit integer.

The score baselines, which sum integers over one common denominator, are
held to the same standard on the same ladder with its levels mapped to
many-decimal and extreme cells, and on boards built directly with int and
Fraction cells; a refusal must match the reference's type and message.
Spearman rho must return the same float, and so must Kendall tau, counted
on integer competition ranks in one walk, as the Fraction version that
walked the pairs three times: on seeded random outcomes with ties and on
pairs of rule outcomes on the ladder. The robustness experiment's median
imputation, which takes each median from the intact board leaving out the
deleted cells, must build the same board as the loop that rebuilt the
board without them once per deleted cell, on the ladder boards with holes.

Both experiments run on tables derived from one full-board RankTable and
on boards derived without rechecks. Every derived table and board must
equal the one built from scratch, and the experiments must give the same
report, or the same refusal, as the loops that rebuilt a board per step or
trial, on every ladder board with and without holes. A second call must
repeat the first.

The packed pairwise counts must equal the pair-by-pair loop's on every
ladder board, on 200 seeded random boards of 2 to 30 systems with ties,
holes and weights 1, 1/3 and 5/7, on boards whose scaled total passes
2**32 and 2**63, and on boards whose totals sit on each side of 2**8,
2**16, 2**32 and 2**64, the edges of the 8-, 16-, 32- and 64-bit fields,
and on the tables prefix and without derive from those. On the random
boards the bitmask relation (edges, dominated and dominator sets, the
Condorcet winner) and every set rule must equal the reference's frozenset
versions.
Boards whose weights several tasks share check that each weight class is
multiplied out once.

build_profile must give the same table (orders, weights and scale), or the
same MissingScore, as the groupby builder in reference.build_table, on the
ladder and on 200 seeded random boards with ties, holes, min tasks, -0.0
and 0.0 cells, int and Fraction cells, zero-weight tasks and task subsets.
On the same tables, RankTable.edge_masses must equal the first and last
columns of reference.masses, the place-mass table RankTable built before,
on random survivor sets. A scored outcome, whose scores build their
Fractions when read, must equal, print, serialise and render as the
outcome holding a plain dict. Every rule's outcome on the ladder, in every
mode the rung runs, full and holed, must serialise to the bytes of
reference.to_json, which read each score map through its Fractions and
wrote the text with json.dumps.

threshold, which reads one place column per stage from slot rows it
trims as systems win, must give the outcome, every stage's scores and
tied set and the repr of reference.mass_threshold_run, which rebuilt the
masses for every repetition; reference.table_position_counts must equal
the masses' rows.
Both hold on the holed ladder boards, built missing-tolerant and derived
with without and prefix, and on 200 seeded random boards with ties, min
tasks, holes and weights 0, 1/3, 5/7 and 2.
"""

import copy
import dataclasses
import functools
import itertools
import pickle
import random
from fractions import Fraction as F

import pytest

import voteboard as vb
from voteboard.errors import MissingScore, RuleUnsupportedForMode, VoteboardError
from voteboard.experiments import _impute_medians as impute_medians
from voteboard.io import outcome_to_dict, render_outcome_table, to_json
from voteboard.model import LazyScores, build_profile, exact_cells
from voteboard.modes import BASIC, TWO_STEP, WEIGHTED

import reference
from conftest import diagnostics_unbuilt, is_complete, random_board, tie_groups

PAIRWISE = tuple(rid for rid, rule in reference.RULES.items() if rule.handles_missing)
# the rules that need complete profiles; custom also needs a vector
COMPLETE = tuple(
    rid for rid, rule in reference.RULES.items() if not rule.handles_missing and rid != "custom"
)
ALL_MODES = (BASIC, WEIGHTED, TWO_STEP)

# (systems, tasks, seeds, modes, whether the pairwise rules also run with holes)
LADDER = (
    (5, 3, range(6), ALL_MODES, True),
    (8, 5, range(2), ALL_MODES, True),
    (14, 6, range(2), ALL_MODES, True),
    (20, 6, range(1), ALL_MODES, True),
    (35, 5, range(1), (BASIC,), True),
    (60, 4, range(1), (BASIC,), False),
)


def ladder_board(n, t, seed, *, holes=False):
    """Seeded n x t board: few score levels so ties are common, two groups."""
    rng = random.Random(f"kernel-ladder:{n}:{t}:{seed}")
    systems = [f"s{i:02d}" for i in range(n)]
    tasks = [f"t{j}" for j in range(t)]
    levels = max(3, n // 3)
    scores = {m: {tk: rng.randint(0, levels) for tk in tasks} for m in systems}
    directions = {tk: rng.choice(["max", "min"]) for tk in tasks}
    weights = {tk: rng.choice([F(1), F(1, 2), F(1, 3)]) for tk in tasks}
    groups = {"g0": tasks[: t // 2 + 1], "g1": tasks[t // 2 + 1:]}
    lb = vb.Leaderboard.from_scores(
        scores, tasks=tasks, directions=directions, weights=weights, groups=groups
    )
    if holes:
        lb = lb.without_cells(rng.sample(lb.present_cells(), n * t // 5))
    return lb


def cell_indices(lb, cells):
    """(system, task) names as the (system index, task index) pairs the experiments pass."""
    return [(lb.systems.index(m), lb.tasks.index(tk)) for m, tk in cells]


def ladder():
    for n, t, seeds, modes, holes in LADDER:
        for seed in seeds:
            yield pytest.param(n, t, seed, modes, holes, id=f"{n}x{t}-{seed}")


LADDER_BOARDS = [
    pytest.param(n, t, seed, id=f"{n}x{t}-{seed}")
    for n, t, seeds, _, _ in LADDER
    for seed in seeds
]


def outcome_or_refusal(run):
    # weakly_stable refuses large dominant sets; both sides must refuse alike
    try:
        return run()
    except RuntimeError as exc:
        return ("refused", str(exc))


def ranking_only(run):
    """run()'s outcome, or its refusal, with only the ranking read."""
    out = outcome_or_refusal(run)
    if not isinstance(out, tuple):
        out.competition_ranks()
    return out


def assert_same_outcomes(lb, rule_ids, modes, **params):
    """The library's outcomes, made and read for their rankings alone while
    the diagnostic builders raise, equal the reference's once read in full."""
    for rid in rule_ids:
        ref_rule = reference.RULES[rid]
        for mode in modes:
            if mode == TWO_STEP and not ref_rule.elector:
                continue
            with diagnostics_unbuilt():
                new = ranking_only(lambda: vb.aggregate(lb, rid, mode, **params))
            old = outcome_or_refusal(lambda: reference.run_rule(lb, ref_rule, mode, **params))
            assert new == old, (rid, mode)


# a wide-lib shaped rung, for the rules only: the reference threshold and
# elimination rounds re-score every stage, and the loops' tests run them often
WIDE_RUNG = pytest.param(50, 20, 0, (BASIC,), True, id="50x20-0")


@pytest.mark.parametrize("n,t,seed,modes,holes", [*ladder(), WIDE_RUNG])
def test_rules_match_reference(n, t, seed, modes, holes):
    assert_same_outcomes(ladder_board(n, t, seed), PAIRWISE + COMPLETE, modes)
    if holes:
        assert_same_outcomes(ladder_board(n, t, seed, holes=True), PAIRWISE, modes)


@pytest.mark.parametrize("n,t,seed", LADDER_BOARDS)
def test_elector_cores_rank_every_system_on_group_tables(n, t, seed):
    """two_step takes each group's result as a total ballot unchecked: every
    elector rule's core ranks each system once on each group's table, on the
    plain board and, where the rule handles missing scores, on the holed one."""
    electors = {rid: rule for rid, rule in vb.registry.RULES.items()
                if rule.elector and not rule.on_board}
    assert {"borda", "copeland", "minimax", "threshold", "baldwin", "custom"} <= set(electors)
    for holed in (False, True):
        lb = ladder_board(n, t, seed, holes=holed)
        for rid, rule in electors.items():
            if holed and not rule.handles_missing:
                continue
            params = {"vector": list(range(n, 0, -1))} if rid == "custom" else {}
            for _, members in lb.groups:
                out = rule.run(rule.data(lb, members), **params)
                assert not out.unranked, (rid, holed)
                assert sorted(itertools.chain.from_iterable(out.groups)) == list(range(n))


@pytest.mark.parametrize("n,t,seed,modes,holes", ladder())
def test_custom_vectors_match_reference(n, t, seed, modes, holes):
    lb = ladder_board(n, t, seed)
    exact = [F(5, 2)] * (n // 3) + [F(2, 3)] * (n - n // 3 - 1) + [F(0)]
    from_floats = [1 / (p + 1.5) - 0.1 for p in range(n)]
    for vector in (exact, from_floats):
        assert_same_outcomes(lb, ("custom",), modes, vector=vector)


def assert_weighted_is_basic_on_the_scaled_board(lb):
    """Every rule, the baselines and custom among them, ranks in weighted mode
    as in basic mode on the board whose weights are divided by their group
    sizes, or refuses alike: a mode only chooses the board."""
    scaled = dataclasses.replace(lb, weights=tuple(reference.group_weights(lb).values()))
    vector = [3, 1] + [0] * (len(lb.systems) - 2)
    for rid in vb.rule_ids():
        params = {"vector": vector} if rid == "custom" else {}
        weighted = outcome_or_error(lambda: vb.aggregate(lb, rid, WEIGHTED, **params))
        basic = outcome_or_error(lambda: vb.aggregate(scaled, rid, BASIC, **params))
        if not isinstance(weighted, tuple):
            assert weighted.mode == WEIGHTED
            weighted = dataclasses.replace(weighted, mode=BASIC)
        assert weighted == basic, rid


@pytest.mark.parametrize("n,t,seed", [
    pytest.param(n, t, seed, id=f"{n}x{t}-{seed}")
    for n, t, seeds, modes, _ in LADDER if WEIGHTED in modes
    for seed in seeds
])
def test_weighted_mode_is_basic_mode_on_the_group_scaled_board(n, t, seed):
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        assert_weighted_is_basic_on_the_scaled_board(lb)


def test_weighted_mode_is_basic_mode_on_the_group_scaled_random_board():
    rng = random.Random("weighted-is-basic")
    for _ in range(40):
        lb = random_board(rng, allow_weights=True, allow_min_direction=True)
        tasks = list(lb.tasks)
        rng.shuffle(tasks)
        cuts = sorted(rng.sample(range(1, len(tasks)), min(len(tasks) - 1, rng.randint(0, 2))))
        groups = {f"g{k}": tasks[a:b] for k, (a, b) in enumerate(zip([0] + cuts, cuts + [None]))}
        lb = dataclasses.replace(lb, groups=groups)
        if rng.random() < 0.3:
            lb = lb.without_cells(rng.sample(lb.present_cells(), 1))
        assert_weighted_is_basic_on_the_scaled_board(lb)


@pytest.mark.parametrize("n,t,seed", [
    pytest.param(n, t, seed, id=f"{n}x{t}-{seed}")
    for n, t, seeds, _, _ in LADDER
    for seed in seeds
])
def test_profile_views_match_reference(n, t, seed):
    rng = random.Random(f"restrict:{n}:{t}:{seed}")
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        new = vb.build_profile(lb, missing_ok=True)
        old = reference.build_profile(lb, missing_ok=True)
        k = rng.randint(1, n)
        for new_view, old_view in ((new, old), (new.prefix(k), old.restrict(lb.systems[:k]))):
            assert new_view.systems == old_view.systems
            assert new_view.tasks == old_view.tasks
            assert new_view.positions == old_view.positions
            assert is_complete(new_view) == old_view.is_complete()
            for task in lb.tasks:
                assert tie_groups(new_view, task) == old_view.tie_groups(task)


@pytest.mark.parametrize("n,t,seed", [
    pytest.param(n, t, seed, id=f"{n}x{t}-{seed}")
    for n, t, seeds, _, _ in LADDER
    for seed in seeds
])
def test_graph_and_position_counts_match_reference(n, t, seed):
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        weights = reference.base_weights(lb)
        profile = vb.build_profile(lb, missing_ok=True)
        ref_profile = reference.build_profile(lb, missing_ok=True)
        old = reference.majority_graph_from_profile(ref_profile, weights)
        new = vb.build_majority_graph(lb)
        for a in lb.systems:
            for b in lb.systems:
                if a != b:
                    assert new.margin(a, b) == old.margins[(a, b)], (a, b)
                    assert new.support(a, b) == old.supports[(a, b)], (a, b)
        assert new.edges() == old.edges()
        for m in lb.systems:
            assert new.dominated(m) == old.dominated(m)
            assert new.dominators(m) == old.dominators(m)
            assert reference.table_position_counts(profile, m) == reference.position_counts(
                ref_profile, m, weights
            )


def table_of(lb):
    return build_profile(lb, missing_ok=True)


def loop_counts(table):
    return reference.pairwise_counts(table.orders, table.weights, len(table.systems))


@pytest.mark.parametrize("n,t,seed", [
    pytest.param(n, t, seed, id=f"{n}x{t}-{seed}")
    for n, t, seeds, _, _ in LADDER
    for seed in seeds
])
def test_packed_counts_match_loop_kernel(n, t, seed):
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        table = table_of(lb)
        assert table.pairwise() == loop_counts(table)


def relation_board(seed):
    """Seeded board of 2 to 30 systems with ties, holes and weights 1, 1/3, 5/7."""
    rng = random.Random(f"relation:{seed}")
    n, t = rng.randint(2, 30), rng.randint(1, 9)
    tasks = [f"t{j}" for j in range(t)]
    levels = rng.randint(1, max(1, n // 2))
    scores = {f"s{i:02d}": {tk: rng.randint(0, levels) for tk in tasks} for i in range(n)}
    weights = {tk: rng.choice([F(1), F(1, 3), F(5, 7)]) for tk in tasks}
    lb = vb.Leaderboard.from_scores(scores, tasks=tasks, weights=weights)
    cells = lb.present_cells()
    return lb.without_cells(rng.sample(cells, rng.randint(0, len(cells) // 3)))


SET_RULES = (
    ("minimal_dominant_set", vb.minimal_dominant_set, reference.minimal_dominant_set),
    ("minimal_undominated_set", vb.minimal_undominated_set, reference.minimal_undominated_set),
    ("uncovered I", lambda g: vb.uncovered_set(g, "I"), lambda g: reference.uncovered_set(g, "I")),
    ("uncovered II", lambda g: vb.uncovered_set(g, "II"),
     lambda g: reference.uncovered_set(g, "II")),
    ("richelson_set", vb.richelson_set, reference.richelson_set),
    ("fishburn_set", vb.fishburn_set, reference.fishburn_set),
)


@pytest.mark.parametrize("block", range(4))
def test_packed_counts_and_mask_relation_match_reference_on_random_boards(block):
    """50 seeded boards per block: the counts equal the loop's, and the
    relation and every set rule equal the reference's frozenset versions."""
    for seed in range(50 * block, 50 * block + 50):
        lb = relation_board(seed)
        table = table_of(lb)
        assert table.pairwise() == loop_counts(table), seed
        new = vb.build_majority_graph(lb)
        old = reference.majority_graph_from_profile(
            reference.build_profile(lb, missing_ok=True), reference.base_weights(lb)
        )
        assert new.edges() == old.edges(), seed
        for m in lb.systems:
            assert new.dominated(m) == old.dominated(m), (seed, m)
            assert new.dominators(m) == old.dominators(m), (seed, m)
        assert vb.condorcet_winner(new) == reference.condorcet_winner(old), seed
        for name, rule, ref_rule in SET_RULES:
            assert rule(new) == ref_rule(old), (seed, name)
        # the reference search is slow on large dominant sets; beyond the
        # cap both sides refuse
        if not 12 < len(vb.minimal_dominant_set(new)) <= 18:
            assert outcome_or_refusal(lambda: vb.minimal_weakly_stable_set(new)) == (
                outcome_or_refusal(lambda: reference.minimal_weakly_stable_set(old))
            ), seed


def test_packed_counts_beyond_32_and_63_bits():
    """Totals of 2**32 or more pack into 64-bit fields, and totals of 2**64
    or more into fields of the next multiple of 32 bits. Each board has
    counts above 2**32, and the first a task of weight 0, which the packed
    kernel skips. The boards of six tasks mix weights that several tasks
    share, so the kernel's per-weight rows are multiplied out with more
    than one task in a class."""
    for weights, total in (
        ([F(2**33), F(1, 3), F(5, 7), F(0)], 2**33 * 21 + 7 + 15),
        ([F(2**62), F(2**62), F(1), F(0)], 2**63 + 1),
        ([F(2**70), F(1, 3), F(5, 7), F(1)], (2**70 + 1) * 21 + 7 + 15),
        ([F(2**33), F(1, 3), F(2**33), F(5, 7), F(1, 3), F(0)], 2**34 * 21 + 14 + 15),
        ([F(3 * 2**31), F(2), F(3 * 2**31), F(1), F(2), F(1)], 3 * 2**32 + 6),
        ([F(2**61), F(1, 3), F(2**61), F(2**61), F(1, 3), F(2**61)], 2**63 * 3 + 2),
    ):
        for holes in (False, True):
            lb = ladder_board(14, len(weights), 0, holes=holes)
            lb = vb.Leaderboard(lb.systems, lb.tasks, lb.scores, lb.directions,
                                tuple(weights), lb.groups)
            table = table_of(lb)
            assert table.total == total
            counts = table.pairwise()
            assert counts == loop_counts(table)
            assert max(map(max, counts)) > 2**32
            assert vb.aggregate(lb, "uncovered") == reference.run_rule(
                lb, reference.RULES["uncovered"]
            )


def field_board(weights, seed, *, holes):
    """Seeded 14-system board, one task per weight, with ties and untied
    places. s00 tops every task and s01 is ranked on every task, so
    counts[0][1] equals the scaled total; with holes, other cells go."""
    rng = random.Random(f"field:{seed}")
    systems = [f"s{i:02d}" for i in range(14)]
    tasks = [f"t{j}" for j in range(len(weights))]
    scores = {m: {tk: rng.randint(0, 9) for tk in tasks} for m in systems}
    scores["s00"] = dict.fromkeys(tasks, 10)
    lb = vb.Leaderboard.from_scores(scores, tasks=tasks, weights=dict(zip(tasks, weights)))
    if holes:
        cells = [c for c in lb.present_cells() if c[0] not in ("s00", "s01")]
        lb = lb.without_cells(rng.sample(cells, len(cells) // 5))
    return lb


@pytest.mark.parametrize("total", [
    2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**64 - 1, 2**64,
])
def test_packed_counts_at_each_field_width_boundary(total):
    """Totals on each side of 2**8, 2**16, 2**32 and 2**64 pack into the
    narrowest field that holds them (8, 16, 32, 64 or 96 bits), and the
    counts reach the total. They equal the loop's on the full table, on a
    prefix and on an unranking of it, with and without holes and with
    a zero-weight task; the second board shares a weight between tasks."""
    for seed, weights in enumerate((
        [F(total - 3), F(1), F(2), F(0)],
        [F(total - 4), F(1), F(2), F(1), F(0)],
    )):
        for holes in (False, True):
            table = table_of(field_board(weights, seed, holes=holes))
            assert table.total == total
            counts = table.pairwise()
            assert counts == loop_counts(table)
            assert counts[0][1] == max(map(max, counts)) == total
            cells = [(i, j) for j, groups in enumerate(table.orders) for group in groups
                     for i in group if i > 1 and (i + j) % 3 == 0]
            for derived in (table.prefix(7), table.without(cells)):
                assert derived.pairwise() == loop_counts(derived)
                assert derived.pairwise()[0][1] == total


# -- the table builder, the weight-grouped counts, the edge masses ------------


def kernel_board(seed):
    """Seeded board of 2 to 30 systems for the table kernels.

    Level k of a cell is k/2 as a float, an int (even k) or a Fraction, and
    level 0 is also -0.0, so equal cells of different types tie. It has
    min tasks, weights 0, 1/3, 1, 5/7 and 2 (at least one positive) and
    holes.
    """
    rng = random.Random(f"kernel:{seed}")
    n, t = rng.randint(2, 30), rng.randint(1, 8)
    levels = rng.randint(1, max(1, n // 2))

    def cell(k):
        forms = [k / 2, F(k, 2)] + ([k // 2] if k % 2 == 0 else []) + ([-0.0] if k == 0 else [])
        return rng.choice(forms)

    systems = tuple([f"s{i:02d}" for i in range(n)])
    tasks = tuple([f"t{j}" for j in range(t)])
    rows = tuple([tuple([cell(rng.randint(0, levels)) for _ in tasks]) for _ in systems])
    directions = tuple([rng.choice(["max", "min"]) for _ in tasks])
    weights = [rng.choice([F(0), F(1, 3), F(1), F(5, 7), F(2)]) for _ in tasks]
    weights[rng.randrange(t)] = F(1)
    lb = vb.Leaderboard(systems, tasks, rows, directions, tuple(weights))
    cells = lb.present_cells()
    return lb.without_cells(rng.sample(cells, rng.randint(0, len(cells) // 3)))


def assert_same_table(lb, subset=None):
    """build_profile equals the groupby builder given the board's weights, or
    refuses alike, with and without missing_ok; returns the missing-tolerant
    table."""
    weights = reference.base_weights(lb)
    for missing_ok in (False, True):
        new = outcome_or_error(lambda: build_profile(lb, subset, missing_ok=missing_ok))
        old = outcome_or_error(
            lambda: reference.build_table(lb, subset, missing_ok=missing_ok, weights=weights)
        )
        assert new == old, (subset, missing_ok)
    return new


def assert_edge_columns(table, rng):
    """edge_masses equals the first and last columns of masses on random
    survivor sets, the whole board among them."""
    n = len(table.systems)
    for survivors in [list(range(n))] + [
        sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(4)
    ]:
        masses = reference.masses(table, survivors)
        k = len(survivors)
        assert table.edge_masses(survivors) == [masses[a][0] for a in survivors], survivors
        assert table.edge_masses(survivors, last=True) == [
            masses[a][k - 1] for a in survivors
        ], survivors


@pytest.mark.parametrize("n,t,seed", LADDER_BOARDS)
def test_table_kernels_match_reference_on_the_ladder(n, t, seed):
    rng = random.Random(f"table:{n}:{t}:{seed}")
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        assert_edge_columns(assert_same_table(lb), rng)
        subset = rng.sample(lb.tasks, rng.randint(1, t))
        assert_same_table(lb, subset)


@pytest.mark.parametrize("block", range(4))
def test_table_kernels_match_reference_on_random_boards(block):
    """50 seeded boards per block, each in full and on a shuffled task subset:
    the table, or the MissingScore refusal, equals the groupby builder's;
    the counts equal the pair-by-pair loop's; the edge masses equal the
    columns of reference.masses."""
    for seed in range(50 * block, 50 * block + 50):
        lb = kernel_board(seed)
        rng = random.Random(seed)
        for subset in (None, rng.sample(lb.tasks, rng.randint(1, len(lb.tasks)))):
            table = assert_same_table(lb, subset)
            assert table.pairwise() == loop_counts(table), (seed, subset)
            assert_edge_columns(table, rng)


# -- threshold's slot rows ----------------------------------------------------


def assert_slot_kernels(table):
    """threshold and table_position_counts equal the masses-based code they
    replaced, and a second threshold call repeats the first."""
    def threshold(table):
        return vb.get_rule("threshold").run(table).named(table.systems, "", "")

    new = threshold(table)
    old = reference.mass_threshold_run(table)
    assert new == old
    assert repr(new) == repr(old)
    assert threshold(table) == new
    rows = reference.masses(table, range(len(table.systems)))
    for a, m in enumerate(table.systems):
        counts = tuple([F(x, table.mass_unit) for x in rows[a]])
        assert reference.table_position_counts(table, m) == counts, m


def derived_tables(table, rng):
    """The table, a copy with a quarter of its ranked cells unranked, a
    random prefix of its systems, and that prefix with cells unranked."""
    def holed(t):
        cells = [(i, j) for j, groups in enumerate(t.orders) for group in groups for i in group]
        return t.without(rng.sample(cells, len(cells) // 4))

    n = len(table.systems)
    kept = table.prefix(rng.randint(1, n))
    return [table, holed(table), kept, holed(kept)]


@pytest.mark.parametrize("n,t,seed", LADDER_BOARDS)
def test_threshold_slots_match_masses_on_the_holed_ladder(n, t, seed):
    rng = random.Random(f"slots:{n}:{t}:{seed}")
    for table in derived_tables(table_of(ladder_board(n, t, seed, holes=True)), rng):
        assert_slot_kernels(table)


@pytest.mark.parametrize("block", range(4))
def test_threshold_slots_match_masses_on_random_boards(block):
    """50 seeded boards per block, missing-tolerant, in full and derived."""
    for seed in range(50 * block, 50 * block + 50):
        rng = random.Random(f"slots:{seed}")
        for table in derived_tables(table_of(kernel_board(seed)), rng):
            assert_slot_kernels(table)


# the rules whose outcome carries scores
SCORED = ("plurality", "borda", "dowdall", "copeland", "minimax", "black", "mean")


def test_scored_outcomes_read_as_their_plain_dict_versions():
    """A rule's scores build their Fractions when read, yet the outcome
    equals, prints, serialises and renders as the one holding a plain dict."""
    for lb in (ladder_board(5, 3, 0), ladder_board(20, 6, 0), ladder_board(50, 20, 0)):
        for rid in SCORED:
            plain = vb.aggregate(lb, rid)
            plain = dataclasses.replace(plain, scores=dict(plain.scores))
            assert type(plain.scores) is dict
            assert isinstance(vb.aggregate(lb, rid).scores, LazyScores), rid
            assert vb.aggregate(lb, rid) == plain, rid
            assert list(vb.aggregate(lb, rid).scores.items()) == list(plain.scores.items())
            assert repr(vb.aggregate(lb, rid)) == repr(plain), rid
            assert to_json(outcome_to_dict(vb.aggregate(lb, rid))) == (
                to_json(outcome_to_dict(plain))
            ) == reference.outcome_json(plain), rid
            assert render_outcome_table(vb.aggregate(lb, rid)) == render_outcome_table(plain)


@pytest.mark.parametrize("n,t,seed,modes,holes", ladder())
def test_outcome_json_and_table_match_the_fraction_read(n, t, seed, modes, holes):
    """Every rule's outcome, in every mode the rung runs, full and holed,
    renders the JSON bytes of the json.dumps path that read each score map
    through its Fractions, and the table of the outcome holding a plain dict."""
    boards = [ladder_board(n, t, seed)] + ([ladder_board(n, t, seed, holes=True)] if holes else [])
    for lb in boards:
        vector = [3, 1] + [0] * (len(lb.systems) - 2)
        for rid in vb.rule_ids():
            params = {"vector": vector} if rid == "custom" else {}
            for mode in modes:
                out = outcome_or_error(lambda: vb.aggregate(lb, rid, mode, **params))
                if isinstance(out, tuple):
                    continue
                assert to_json(outcome_to_dict(out)) == (
                    reference.to_json(reference.outcome_to_dict(out))), (rid, mode)
                if out.scores is not None:
                    plain = dataclasses.replace(out, scores=dict(out.scores))
                    assert render_outcome_table(out) == render_outcome_table(plain), (rid, mode)


# values equal across types tie: 0, 0.0, -0.0 and F(0); 1, 1.0 and F(1); 0.1 and F(1, 10)
MIXED_CELLS = (0, 0.0, -0.0, F(0), 1, 1.0, F(1), 0.5, F(1, 2), 0.1, F(1, 10), -2, -2.0,
               F(-7, 3), 1e-300, 2**53, float(2**53), 2**53 + 1)


def mixed_board(seed):
    """Seeded board of 2 to 12 systems whose int, float and Fraction cells
    often tie, on max and min tasks, with about one cell in six missing."""
    rng = random.Random(f"mixed-cells:{seed}")
    n, t = rng.randint(2, 12), rng.randint(1, 6)
    rows = [[None if rng.random() < 0.15 else rng.choice(MIXED_CELLS) for _ in range(t)]
            for _ in range(n)]
    return vb.Leaderboard(tuple([f"s{i}" for i in range(n)]), tuple([f"t{j}" for j in range(t)]),
                          rows, tuple([rng.choice(["max", "min"]) for _ in range(t)]),
                          (F(1),) * t)


@pytest.mark.parametrize("n,t,seed", [
    pytest.param(n, t, seed, id=f"{n}x{t}-{seed}")
    for n, t, seeds, _, _ in LADDER
    for seed in seeds
])
def test_dominance_rows_match_reference(n, t, seed):
    mixed = [mixed_board(f"{n}:{t}:{seed}:{k}") for k in range(10)]
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True), *mixed):
        for m in lb.systems:
            assert vb.build_dominance_matrix(lb, m) == reference.build_dominance_matrix(lb, m), m


ELIMINATION_RULES = ("baldwin", "nanson", "hare", "coombs")


def test_ladder_reaches_every_branch():
    """The ladder exercises both Black paths, Coombs' majority stop, and in
    every elimination rule the stop that leaves two or more survivors tied:
    the round that would drop all of them (in nanson, none of them)."""
    paths, coombs_majority, tied_stop = set(), False, set()
    for n, t, seeds, _, _ in LADDER[:2]:
        for seed in seeds:
            lb = ladder_board(n, t, seed)
            paths.add(vb.aggregate(lb, "black").diagnostics["path"])
            coombs_majority |= "majority_winner" in vb.aggregate(lb, "coombs").diagnostics
            for rule in ELIMINATION_RULES:
                out = vb.aggregate(lb, rule)
                if len(out.winners) > 1 and "majority_winner" not in out.diagnostics:
                    tied_stop.add(rule)
    assert paths == {"borda", "condorcet"}
    assert coombs_majority
    assert tied_stop == set(ELIMINATION_RULES)


# -- score baselines, rho and the spoiler check --------------------------------

# level k of a ladder board becomes CELLS[kind][k % len]: equal levels stay tied
CELLS = {
    "decimals": [0.1234567890123457 * (k + 1) / 7 for k in range(7)] + [0.98765432109876],
    "extreme": [1e300, 1e-300, 5e-324, 2.5, 1e-300, 7e299],
    "unit": [1.0, 1e-300, 5e-324, 0.0, 0.333333333333333, 0.95, 0.9500000000000001],
}
# the cells each baseline accepts; og needs [0, 1], gmean positive scores
KINDS = {
    "mean": ("decimals", "extreme", "unit"),
    "gmean": ("decimals", "extreme"),
    "optimality_gap": ("decimals", "unit"),
}
GAMMAS = ({}, {"gamma": F(2, 3)}, {"gamma": "0.9500000000000001"}, {"gamma": 1e-300})


def mapped_rows(lb, values):
    return tuple([
        tuple([None if c is None else values[int(c) % len(values)] for c in row])
        for row in lb.scores
    ])


def mapped(lb, values):
    return vb.Leaderboard(lb.systems, lb.tasks, mapped_rows(lb, values), lb.directions,
                          lb.weights, lb.groups)


def outcome_or_error(run):
    try:
        return run()
    except VoteboardError as exc:
        return (type(exc), str(exc))


def assert_same_baseline(lb, rid, **params):
    for mode in (BASIC, WEIGHTED):
        new = outcome_or_error(lambda: vb.aggregate(lb, rid, mode, **params))
        old = outcome_or_error(
            lambda: reference.run_rule(lb, reference.SCORE_RULES[rid], mode, **params)
        )
        assert new == old, (rid, mode, params)
        if not isinstance(new, tuple):
            assert list(new.scores.items()) == list(old.scores.items())


@pytest.mark.parametrize("n,t,seed", [
    pytest.param(n, t, seed, id=f"{n}x{t}-{seed}")
    for n, t, seeds, _, _ in LADDER
    for seed in seeds
])
def test_score_baselines_match_reference(n, t, seed):
    lb = ladder_board(n, t, seed)
    for rid, kinds in KINDS.items():
        for kind in kinds:
            board = mapped(lb, CELLS[kind])
            for params in GAMMAS if rid == "optimality_gap" else ({},):
                assert_same_baseline(board, rid, **params)
    # refusals: zero and out-of-range cells, holes
    raw, holed = lb, mapped(ladder_board(n, t, seed, holes=True), CELLS["decimals"])
    for rid in KINDS:
        assert_same_baseline(raw, rid)
        assert_same_baseline(holed, rid)


def direct_board(n, t, seed, cell):
    """A Leaderboard built directly, its cells from cell(level): int or Fraction."""
    lb = ladder_board(n, t, seed)
    rows = tuple([tuple([cell(int(c)) for c in row]) for row in lb.scores])
    return vb.Leaderboard(lb.systems, lb.tasks, rows, lb.directions, lb.weights, lb.groups)


@pytest.mark.parametrize("n,t,seed", [(5, 3, 0), (14, 6, 1), (35, 5, 0)])
def test_score_baselines_on_int_and_fraction_cells(n, t, seed):
    ints = direct_board(n, t, seed, lambda k: 3 * k + 1)
    fractions = direct_board(n, t, seed, lambda k: F(k + 1, 3 * k + 7))
    unit_ints = direct_board(n, t, seed, lambda k: k % 2)
    for rid in ("mean", "gmean"):
        assert_same_baseline(ints, rid)
        assert_same_baseline(fractions, rid)
    for params in GAMMAS:
        assert_same_baseline(fractions, "optimality_gap", **params)
        assert_same_baseline(unit_ints, "optimality_gap", **params)
    exact = vb.aggregate(fractions, "mean")
    assert all(isinstance(v, F) for v in exact.scores.values())


def assert_same_cells(lb, rows):
    """The board's cells equal what reference.exact_cells made of the rows it
    was built from, or both refuse alike; each cell reads back as its exact
    value."""
    new = outcome_or_error(lambda: exact_cells(lb))
    old = outcome_or_error(lambda: reference.exact_cells(lb.systems, lb.tasks, rows))
    if isinstance(old, tuple) and isinstance(old[0], type):
        assert new == old
    else:
        assert ([list(row) for row in new[0]], new[1]) == old
    assert lb.scores == tuple([
        tuple([None if c is None else vb.as_fraction(c) for c in row]) for row in rows
    ])


@pytest.mark.parametrize("n,t,seed", LADDER_BOARDS)
def test_exact_cells_match_reference_on_the_ladder(n, t, seed):
    for holes in (False, True):
        lb = ladder_board(n, t, seed, holes=holes)
        for values in CELLS.values():
            rows = mapped_rows(lb, values)
            assert_same_cells(
                vb.Leaderboard(lb.systems, lb.tasks, rows, lb.directions, lb.weights, lb.groups),
                rows,
            )


def float_board(seed):
    """Seeded board of 3 to 10 systems with float cells, tied half the time.

    Cells are positive and at most 1 on most boards, so every baseline
    runs; the rest are signed, of any size, or rounded to few decimals.
    A third of the boards have holes; tasks are max or min, weights 1, 1/2
    or 1/3.
    """
    rng = random.Random(f"float-cells:{seed}")
    n, t = rng.randint(3, 10), rng.randint(1, 5)
    kind = rng.choice(["unit", "unit", "unit", "signed", "rounded"])

    def fresh():
        if kind == "unit":
            return rng.choice([rng.random(), 1.0, 0.5, 1 - rng.random() / 1e9]) or 1.0
        if kind == "signed":
            return rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300)
        return round(rng.uniform(0, 100), rng.randint(0, 3))

    palette = [fresh() for _ in range(rng.randint(2, 4))]
    systems = tuple([f"s{i}" for i in range(n)])
    tasks = tuple([f"t{j}" for j in range(t)])
    rows = tuple([tuple([rng.choice(palette) if rng.random() < 0.5 else fresh() for _ in tasks])
                  for _ in systems])
    if seed % 3 == 0:
        holes = {(rng.randrange(n), rng.randrange(t)) for _ in range(rng.randint(1, n))}
        rows = tuple([tuple([None if (i, j) in holes else c for j, c in enumerate(row)])
                      for i, row in enumerate(rows)])
    lb = vb.Leaderboard(systems, tasks, rows, tuple([rng.choice(["max", "min"]) for _ in tasks]),
                        tuple([rng.choice([F(1), F(1, 2), F(1, 3)]) for _ in tasks]))
    return lb, rows


@pytest.mark.parametrize("chunk", range(4))
def test_float_boards_match_reference(chunk):
    """On 200 seeded boards of float cells: the cells, every baseline outcome
    or refusal, and, on every tenth board, the iia and robustness reports of
    a baseline and a rank rule equal the reference's."""
    for seed in range(chunk * 50, chunk * 50 + 50):
        lb, rows = float_board(seed)
        assert_same_cells(lb, rows)
        for rid in KINDS:
            for params in GAMMAS[:2] if rid == "optimality_gap" else ({},):
                assert_same_baseline(lb, rid, **params)
        if seed % 10:
            continue
        cfg = vb.ExperimentConfig(seed=seed, trials=3, omit_count=2, top_k=3)
        for rule in ("mean", "optimality_gap", "copeland"):
            new = outcome_or_error(lambda: vb.iia_experiment(lb, rule, cfg))
            old = outcome_or_error(lambda: reference.iia_experiment(lb, rule, cfg))
            assert new == old, (seed, rule)
            new = outcome_or_error(lambda: vb.robustness_experiment(lb, [rule], cfg))
            old = outcome_or_error(lambda: reference.robustness_experiment(lb, [rule], cfg))
            assert new == old, (seed, rule)


@pytest.mark.parametrize("n", [5, 8, 14, 20, 35, 60])
def test_rho_matches_reference(n):
    rng = random.Random(f"rho:{n}")
    for _ in range(20):
        vectors = []
        for _ in range(2):
            order, groups = rng.sample(range(n), n), []
            while order:
                cut = rng.randint(1, min(4, len(order)))
                groups.append(order[:cut])
                order = order[cut:]
            ranks = vb.fractional_ranks_of(groups)
            vectors.append([ranks[i] for i in range(n)])
        x, y = vectors
        for a, b in ((x, y), (x, x), (x, [F(1)] * n), ([v * F(2, 3) for v in x], y)):
            assert vb.rho_from_rank_vectors(a, b) == reference.rho_from_rank_vectors(a, b)
    ints = list(range(n))
    assert vb.rho_from_rank_vectors(ints, ints[::-1]) == reference.rho_from_rank_vectors(
        ints, ints[::-1]
    ) == -1.0


def random_outcome(rng, names):
    """The names in seeded tie groups of one to four, as a rule's outcome."""
    order, groups = rng.sample(names, len(names)), []
    while order:
        cut = rng.randint(1, min(4, len(order)))
        groups.append(frozenset(order[:cut]))
        order = order[cut:]
    return vb.RuleOutcome(ranking=tuple(groups))


@pytest.mark.parametrize("n", [1, 2, 5, 8, 14, 20, 35, 60])
def test_kendall_tau_matches_reference(n):
    rng = random.Random(f"tau:{n}")
    names = [f"s{i:02d}" for i in range(n)]
    flat = vb.RuleOutcome(ranking=(frozenset(names),))
    for _ in range(20):
        a, b = random_outcome(rng, names), random_outcome(rng, names)
        backwards = vb.RuleOutcome(ranking=a.ranking[::-1])
        for x, y in ((a, b), (a, a), (a, backwards), (a, flat), (flat, b), (flat, flat)):
            assert vb.kendall_tau(x, y) == reference.kendall_tau(x, y)


# rules whose outcomes rank everyone, and condorcet, which leaves systems unranked
TAU_RULES = ("plurality", "borda", "copeland", "minimax", "threshold", "hare", "black", "mean",
             "condorcet")


@pytest.mark.parametrize("n,t,seed", LADDER_BOARDS)
def test_kendall_tau_matches_reference_on_rule_pairs(n, t, seed):
    lb = ladder_board(n, t, seed)
    outcomes = [vb.aggregate(lb, rid) for rid in TAU_RULES]
    for x, y in itertools.product(outcomes, repeat=2):
        assert outcome_or_error(lambda: vb.kendall_tau(x, y)) == (
            outcome_or_error(lambda: reference.kendall_tau(x, y))
        ), (x.rule_id, y.rule_id)


# one rule of each family: positional, elimination (on either kernel),
# pairwise, set, baseline
IIA_RULES = ("borda", "hare", "baldwin", "copeland", "minimax", "uncovered", "mean")


@pytest.mark.parametrize("n,t,seed", [
    pytest.param(n, t, seed, id=f"{n}-{t}-{seed}") for n, t, seeds, _, _ in LADDER for seed in seeds
])
def test_iia_matches_reference_loop(n, t, seed):
    """Reports, or refusals, equal the loop that rebuilt a board per step.

    On a board with holes, a rule that needs complete profiles must refuse
    with the type and message that build_profile gives the first step whose
    restricted board holds a hole.
    """
    cfg = vb.ExperimentConfig(seed=seed, trials=4 if n <= 20 else 2)
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        for rule in IIA_RULES:
            try:
                old = reference.iia_experiment(lb, rule, cfg)
            except ValueError as exc:
                # the old check raised a bare ValueError for an unranked system
                with pytest.raises(RuleUnsupportedForMode):
                    vb.iia_experiment(lb, rule, cfg)
                assert "unranked" in str(exc)
                continue
            except VoteboardError as exc:
                with pytest.raises(type(exc)) as caught:
                    vb.iia_experiment(lb, rule, cfg)
                assert str(caught.value) == str(exc)
                continue
            assert vb.iia_experiment(lb, rule, cfg) == old, rule


RUNNING = tuple(vb.majority.PAIR_SCORES)


@pytest.mark.parametrize("n,t,seed", LADDER_BOARDS)
def test_pair_scores_match_the_replaced_cores(n, t, seed):
    """Each PairScore's core equals the row scan it replaced, and NET the net
    wins, on the ladder boards, plain and holed, and on their prefixes."""
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        table = table_of(lb)
        for k in sorted({1, 2, n // 2, n}):
            prefix = table.prefix(k)
            for rid in RUNNING:
                assert vb.majority.PAIR_SCORES[rid].run(prefix) == reference.INDEX_CORES[rid](prefix)
            assert vb.majority.NET.scores(prefix.pairwise()) == reference.net_wins(prefix.pairwise())


@pytest.mark.parametrize("block", range(4))
def test_running_scores_order_each_prefix_as_its_whole_table_scores(block):
    """50 seeded kernel boards per block: ties, min tasks, zero weights,
    holes. The running form gives each prefix's tie groups as the whole-table
    scores of its counts order them, for the copeland rules, minimax and NET."""
    for seed in range(50 * block, 50 * block + 50):
        table = table_of(kernel_board(seed))
        counts = table.pairwise()
        for pair in (*vb.majority.PAIR_SCORES.values(), vb.majority.NET):
            wanted = [vb.model.tie_groups(pair.scores([row[:k] for row in counts[:k]]),
                                          ascending=pair.ascending)
                      for k in range(2, len(counts) + 1)]
            assert list(pair.running(counts)) == wanted, (seed, pair)


def tie_heavy_board(n, t, seed, *, holes=False):
    """Seeded n x t board of two score levels, min tasks and zero weights."""
    rng = random.Random(f"tie-heavy:{n}:{t}:{seed}")
    systems = [f"s{i:02d}" for i in range(n)]
    tasks = [f"t{j}" for j in range(t)]
    scores = {m: {tk: rng.randint(0, 1) for tk in tasks} for m in systems}
    directions = {tk: rng.choice(["max", "min"]) for tk in tasks}
    weights = {tk: rng.choice([F(0), F(1), F(2, 3)]) for tk in tasks}
    weights[tasks[0]] = F(1)
    lb = vb.Leaderboard.from_scores(scores, tasks=tasks, directions=directions, weights=weights)
    return lb.without_cells(rng.sample(lb.present_cells(), n * t // 4)) if holes else lb


@pytest.mark.parametrize("n,t,seed", LADDER_BOARDS)
def test_running_iia_matches_the_reference_loop(n, t, seed):
    """The iia reports of the rules folded step by step, or their refusals,
    equal the loop that rebuilt a board per step: on the ladder boards, plain
    and holed, and on tie-heavy boards with min tasks and zero weights."""
    cfg = vb.ExperimentConfig(seed=seed, trials=3 if n <= 20 else 1)
    boards = [ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True),
              tie_heavy_board(n, t, seed), tie_heavy_board(n, t, seed, holes=True)]
    for lb in boards:
        for rule in (*RUNNING, "borda"):
            try:
                old = reference.iia_experiment(lb, rule, cfg)
            except VoteboardError as exc:
                with pytest.raises(type(exc)) as caught:
                    vb.iia_experiment(lb, rule, cfg)
                assert str(caught.value) == str(exc)
                continue
            assert vb.iia_experiment(lb, rule, cfg) == old, rule


def test_iia_refuses_a_hole_only_once_it_is_present():
    """With two holes, a rule needing complete profiles refuses at the first
    step whose systems hold one, naming the first task with a hole there."""
    lb = ladder_board(8, 5, 0).without_cells([("s03", "t4"), ("s05", "t2")])
    named = set()
    for seed in range(8):
        cfg = vb.ExperimentConfig(seed=seed, trials=1)
        with pytest.raises(MissingScore) as caught:
            vb.iia_experiment(lb, "borda", cfg)
        with pytest.raises(MissingScore) as expected:
            reference.iia_experiment(lb, "borda", cfg)
        assert str(caught.value) == str(expected.value)
        named.add(str(caught.value))
    assert named == {"system 's03' has no score on task 't4'",
                     "system 's05' has no score on task 't2'"}


@pytest.mark.parametrize("n,t,seed", LADDER_BOARDS)
def test_derived_boards_and_tables_match_fresh_builds(n, t, seed):
    """What the experiments derive equals what the validating paths build.

    Boards from _derived equal, and repr like, the ones the validating
    constructor builds. A prefix or trimmed table equals the table
    built from the derived board, pairwise counts and mass unit included.
    """
    rng = random.Random(f"derive:{n}:{t}:{seed}")
    for lb in (mapped(ladder_board(n, t, seed), CELLS["decimals"]),
               ladder_board(n, t, seed, holes=True)):
        table = build_profile(lb, missing_ok=True)

        def same_table(derived, board):
            fresh = build_profile(board, missing_ok=True)
            assert derived == fresh
            assert derived.pairwise() == fresh.pairwise()
            assert derived.mass_unit == fresh.mass_unit

        def same_board(derived, fresh):
            assert derived == fresh and repr(derived) == repr(fresh)

        for _ in range(6):
            kept = sorted(rng.sample(range(n), rng.randint(1, n)))
            names = [lb.systems[i] for i in kept]
            fresh = reference.restrict_systems(lb, names)
            same_board(lb.restrict_systems(names), fresh)
            k = len(kept)
            same_table(table.prefix(k), reference.restrict_systems(lb, lb.systems[:k]))

            present = lb.present_cells()
            deleted = rng.sample(present, rng.randint(1, min(3 * t, len(present))))
            fresh = reference.without_cells(lb, deleted)
            same_board(lb.without_cells(deleted), fresh)
            cells = cell_indices(lb, deleted)
            same_table(table.without(cells), fresh)
            same_board(impute_medians(lb, reference.by_task(cells)),
                       reference.impute_medians(fresh, deleted))


# the rules that read a table; custom also needs a vector, and weakly_stable
# reads the counts as the other set rules do, with an exhaustive search
PROFILE_RULES = tuple(sorted(
    rid for rid, rule in vb.registry.RULES.items()
    if not rule.on_board and rid not in ("custom", "weakly_stable")
))


def ranked_cells(table):
    return [(i, j) for j, groups in enumerate(table.orders) for group in groups for i in group]


def assert_lazy_derivation(derive, eager):
    """A table derive() builds equals the eager reference's table and counts,
    with its counts read before its orders or after them, and every profile
    rule it supports ranks it as it ranks the reference table."""
    table, counts = eager
    counted = derive()
    assert counted.pairwise() == counts
    assert "orders" not in counted.__dict__
    assert counted == table and repr(counted) == repr(table)
    ordered = derive()
    assert ordered.orders == table.orders
    assert ordered.pairwise() == counts == table.pairwise()
    assert ordered.mass_unit == table.mass_unit
    complete = is_complete(table)
    for rid in PROFILE_RULES:
        run = vb.get_rule(rid).run
        if complete or vb.get_rule(rid).handles_missing:
            assert outcome_or_refusal(lambda: run(derive())) == (
                outcome_or_refusal(lambda: run(table))), rid


def assert_lazy_derivations(table, rng, draws):
    """prefix, without, and both chained, on random prefixes and cells,
    against reference.restrict and reference.without."""
    n = len(table.systems)
    for _ in range(draws):
        k = rng.randint(1, n)
        kept = list(range(k))
        assert_lazy_derivation(lambda: table.prefix(k), reference.restrict(table, kept))
        cells = ranked_cells(table)
        gone = rng.sample(cells, rng.randint(0, len(cells) // 3))
        assert_lazy_derivation(lambda: table.without(gone), reference.without(table, gone))
        sub, _ = reference.restrict(table, kept)
        cells = ranked_cells(sub)
        sub_gone = rng.sample(cells, rng.randint(0, len(cells) // 3))
        assert_lazy_derivation(lambda: table.prefix(k).without(sub_gone),
                               reference.without(sub, sub_gone))
        trimmed, _ = reference.without(table, gone)
        assert_lazy_derivation(lambda: table.without(gone).prefix(k),
                               reference.restrict(trimmed, kept))


@pytest.mark.parametrize("n,t,seed", LADDER_BOARDS)
def test_lazy_derived_tables_match_eager_reference_on_the_ladder(n, t, seed):
    rng = random.Random(f"lazy:{n}:{t}:{seed}")
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        assert_lazy_derivations(table_of(lb), rng, draws=2)


@pytest.mark.parametrize("block", range(4))
def test_lazy_derived_tables_match_eager_reference_on_random_boards(block):
    """50 seeded boards per block: ties, min tasks, zero weights, holes."""
    for seed in range(50 * block, 50 * block + 50):
        rng = random.Random(f"lazy:{seed}")
        assert_lazy_derivations(table_of(kernel_board(seed)), rng, draws=1)


def test_pairwise_rules_never_build_derived_orders(monkeypatch):
    """copeland, minimax, baldwin and nanson read only the counts, and iia
    folds borda's net wins from the trial table's counts, so their iia steps
    and the robustness trials of copeland and minimax build no derived
    table's orders; hare's iia steps (on prefixes) do, and so does a
    without table's positions. Only a derived table reads the orders
    property: a table built from orders holds them in its __dict__."""
    built = []
    real = vb.RankTable.__dict__["orders"].func

    def counted(self):
        parent, k, dropped = self._source
        built.append("without" if dropped else "prefix")
        return real(self)

    patched = functools.cached_property(counted)
    patched.__set_name__(vb.RankTable, "orders")
    monkeypatch.setattr(vb.RankTable, "orders", patched)
    cfg = vb.ExperimentConfig(seed=3, trials=3, omit_count=6, top_k=5)
    complete, holed = ladder_board(14, 6, 0), ladder_board(14, 6, 0, holes=True)
    for rid in ("copeland", "minimax", "baldwin", "nanson", "borda"):
        vb.iia_experiment(complete, rid, cfg)
    for rid in ("copeland", "minimax"):
        vb.iia_experiment(holed, rid, cfg)
    for lb in (complete, holed):
        vb.robustness_experiment(lb, ["copeland", "minimax"], cfg)
    assert built == []
    vb.iia_experiment(complete, "hare", cfg)
    assert set(built) == {"prefix"}
    table = table_of(holed)
    assert table.without(ranked_cells(table)[:3]).positions
    assert set(built) == {"prefix", "without"}


@pytest.mark.parametrize("n,t,seed", LADDER_BOARDS)
def test_derived_tables_pickle_and_copy_read_or_unread(n, t, seed):
    """A prefix, a without table and both chained survive pickle and deep
    copy, unread (the copy builds from its copied source) or read (the copy
    holds what was built), and equal reference.restrict and
    reference.without, counts included."""
    rng = random.Random(f"copy:{n}:{t}:{seed}")
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        table = table_of(lb)
        k = rng.randint(1, n)
        kept = list(range(k))
        gone = rng.sample(ranked_cells(table), rng.randint(1, len(ranked_cells(table)) // 3))
        sub, _ = reference.restrict(table, kept)
        sub_gone = rng.sample(ranked_cells(sub), rng.randint(1, len(ranked_cells(sub)) // 3 + 1))
        trimmed, _ = reference.without(table, gone)
        cases = (
            (lambda: table.prefix(k), reference.restrict(table, kept)),
            (lambda: table.without(gone), reference.without(table, gone)),
            (lambda: table.prefix(k).without(sub_gone), reference.without(sub, sub_gone)),
            (lambda: table.without(gone).prefix(k), reference.restrict(trimmed, kept)),
        )
        for derive, (expected, counts) in cases:
            for read in (False, True):
                derived = derive()
                if read:
                    derived.pairwise(), derived.orders
                for twin in (pickle.loads(pickle.dumps(derived)), copy.deepcopy(derived)):
                    assert ("orders" in twin.__dict__) is read
                    assert ("_counts" in twin.__dict__) is read
                    assert twin.pairwise() == counts
                    assert twin == expected and repr(twin) == repr(expected)
                    assert twin.positions == expected.positions


def test_reading_derived_tables_leaves_the_parent_unchanged():
    """A derived table caches what it builds on itself; the parent keeps
    exactly what it held, its own counts included."""
    lb = ladder_board(14, 6, 1, holes=True)
    parent = table_of(lb)
    assert parent.pairwise()
    before = dict(parent.__dict__)
    rng = random.Random(7)
    cells = rng.sample(ranked_cells(parent), 8)
    for _ in range(2):
        restricted = parent.prefix(9)
        for table in (restricted, parent.without(cells),
                      restricted.without(ranked_cells(restricted)[:5])):
            table.pairwise(), table.orders, table.positions, table.mass_unit
            table.place_slots(), table.edge_masses([0, 1], last=True)
            assert parent.__dict__.keys() == before.keys()
            assert all(parent.__dict__[k] is v for k, v in before.items())
    # unread, the parent builds its own counts once, for every derived table
    fresh = table_of(lb)
    held = set(fresh.__dict__)
    fresh.prefix(9).pairwise()
    fresh.without(cells).orders
    assert set(fresh.__dict__) - held == {"_counts"}


def test_derived_orders_reuse_what_they_keep():
    """A task that loses nothing keeps the parent's tuple, and a kept
    untied group is the parent's group, not a copy."""
    parent = table_of(ladder_board(14, 6, 1, holes=True))
    cells = random.Random(3).sample(ranked_cells(parent), 8)
    touched = {j for _, j in cells}
    trimmed = parent.without(cells)
    for table, kept in ((parent.prefix(14), range(6)), (trimmed, set(range(6)) - touched)):
        assert all(table.orders[j] is parent.orders[j] for j in kept)
    for table in (trimmed, parent.prefix(9)):
        for mine, theirs in zip(table.orders, parent.orders):
            reused = {id(group) for group in mine}
            members = set(itertools.chain.from_iterable(mine))
            assert all(id(group) in reused for group in theirs
                       if len(group) == 1 and group[0] in members)


def test_robustness_refuses_a_rule_named_twice():
    lb = ladder_board(8, 5, 0)
    cfg = vb.ExperimentConfig(trials=3, omit_count=2, top_k=3)
    with pytest.raises(vb.InvalidParameter, match="'copeland' is named twice"):
        vb.robustness_experiment(lb, ["copeland", "copeland"], cfg)
    with pytest.raises(vb.InvalidParameter, match="'mean' is named twice"):
        vb.robustness_experiment(lb, ["mean", "minimax", "mean"], cfg)
    assert len(vb.robustness_experiment(lb, ["copeland"], cfg).series["copeland"]) == 3


ROBUSTNESS_RULES = ("copeland", "minimax", "mean", "optimality_gap")


@pytest.mark.parametrize("n,t,seed", LADDER_BOARDS)
def test_robustness_matches_reference_loop(n, t, seed):
    """Reports, or refusals, equal the loop that rebuilt the boards per trial.

    The baselines see the ladder's levels mapped into [0, 1], where both
    accept them; on the holed boards they refuse the full board.
    """
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        unit = mapped(lb, CELLS["unit"])
        for omit in range(1, 6):
            cfg = vb.ExperimentConfig(seed=seed, trials=3, omit_count=omit, top_k=min(4, n))
            for rule in ROBUSTNESS_RULES:
                board = unit if rule in ("mean", "optimality_gap") else lb
                new = outcome_or_error(lambda: vb.robustness_experiment(board, [rule], cfg))
                old = outcome_or_error(lambda: reference.robustness_experiment(board, [rule], cfg))
                assert new == old, (rule, omit)
    # every rule on the same deletions in one call, on a complete board
    cfg = vb.ExperimentConfig(seed=seed, trials=4, omit_count=5, top_k=min(4, n))
    unit = mapped(ladder_board(n, t, seed), CELLS["decimals"])
    assert vb.robustness_experiment(unit, ROBUSTNESS_RULES, cfg) == (
        reference.robustness_experiment(unit, ROBUSTNESS_RULES, cfg)
    )


def test_robustness_refuses_an_overflowing_median_as_the_reference_does():
    """The mean of two cells near the float limit is not a finite score."""
    near_limit = [1.7e308, 1.7e308, 1.0, 1.6e308, 1.5e308]
    lb = vb.Leaderboard.from_scores(
        {m: {"t": v, "u": float(i)} for i, (m, v) in enumerate(zip("abcde", near_limit))}
    )
    refused = 0
    for seed in range(8):
        cfg = vb.ExperimentConfig(seed=seed, trials=2, omit_count=1, top_k=2)
        try:
            old = reference.robustness_experiment(lb, ["mean"], cfg)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                vb.robustness_experiment(lb, ["mean"], cfg)
            refused += 1
            continue
        assert vb.robustness_experiment(lb, ["mean"], cfg) == old
    assert 0 < refused < 8


def test_experiments_repeat_exactly():
    """A second call on the same board gives the same report: no call leaves
    state behind for the next."""
    complete = mapped(ladder_board(14, 6, 0), CELLS["unit"])
    holed = ladder_board(14, 6, 0, holes=True)
    for lb, rules in ((complete, ("baldwin", "copeland", "minimax", "mean")),
                      (holed, ("baldwin", "copeland", "minimax"))):
        for rule in rules:
            cfg = vb.ExperimentConfig(seed=5, trials=3)
            first = outcome_or_error(lambda: vb.iia_experiment(lb, rule, cfg))
            assert outcome_or_error(lambda: vb.iia_experiment(lb, rule, cfg)) == first
        robust = [r for r in rules if r != "baldwin"]
        cfg = vb.ExperimentConfig(seed=5, trials=3, omit_count=4, top_k=4)
        first = vb.robustness_experiment(lb, robust, cfg)
        assert vb.robustness_experiment(lb, robust, cfg) == first


@pytest.mark.parametrize("n,t,seed", [
    pytest.param(n, t, seed, id=f"{n}x{t}-{seed}")
    for n, t, seeds, _, _ in LADDER
    for seed in seeds
])
def test_median_imputation_matches_reference_loop(n, t, seed):
    rng = random.Random(f"impute:{n}:{t}:{seed}")
    holed = ladder_board(n, t, seed, holes=True)
    ints = direct_board(n, t, seed, lambda k: 3 * k + 1)
    for lb in (holed, ints.without_cells(set(ints.present_cells()) - set(holed.present_cells()))):
        for omit in range(1, 6):
            deleted = rng.sample(lb.present_cells(), omit)
            new = repr(impute_medians(lb, reference.by_task(cell_indices(lb, deleted))))
            old = repr(reference.impute_medians(lb.without_cells(deleted), deleted))
            assert new == old, omit
    # a task that loses every cell is filled with 0.0
    column = [(m, "t0") for m in holed.systems if holed.score(m, "t0") is not None]
    assert impute_medians(holed, reference.by_task(cell_indices(holed, column))) == (
        reference.impute_medians(holed.without_cells(column), column)
    )
