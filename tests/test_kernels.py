"""The integer kernels against the Fraction code they replaced.

tests/reference.py keeps the Fraction implementations as they were, from
the profile build and the modes up. Every rewired rule must produce an
equal RuleOutcome, diagnostics included, and the cw dominance matrix equal
rows, on a seeded ladder of boards from 5 to 60 systems with ties, min
directions, weights 1, 1/2 and 1/3, and missing cells for the rules that
accept them. The larger boards run in fewer modes, and the largest gets
its missing cells only in the graph check, because the reference is slow
there. On the 60-system board, dowdall's vector is scaled by the LCM of
1..60, a 25-digit integer.

The score baselines, which sum integers over one common denominator, are
held to the same standard on the same ladder with its levels mapped to
many-decimal and extreme cells, and on boards built directly with int and
Fraction cells; a refusal must match the reference's type and message.
Spearman rho must return the same float, and the spoiler experiment the
same report as the loop that compared pair_relations. The robustness
experiment's median imputation must build the same board as the loop that
rebuilt it once per deleted cell, on the ladder boards with holes.
"""

import random
from fractions import Fraction as F

import pytest

import voteboard as vb
from voteboard.errors import RuleUnsupportedForMode, VoteboardError
from voteboard.experiments import _impute_medians as impute_medians
from voteboard.modes import BASIC, TWO_STEP, WEIGHTED

import reference

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


def ladder():
    for n, t, seeds, modes, holes in LADDER:
        for seed in seeds:
            yield pytest.param(n, t, seed, modes, holes, id=f"{n}x{t}-{seed}")


def outcome_or_refusal(run):
    # weakly_stable refuses large dominant sets; both sides must refuse alike
    try:
        return run()
    except RuntimeError as exc:
        return ("refused", str(exc))


def assert_same_outcomes(lb, rule_ids, modes, **params):
    for rid in rule_ids:
        ref_rule = reference.RULES[rid]
        for mode in modes:
            if mode == TWO_STEP and not ref_rule.elector:
                continue
            new = outcome_or_refusal(lambda: vb.aggregate(lb, rid, mode, **params))
            old = outcome_or_refusal(lambda: reference.run_rule(lb, ref_rule, mode, **params))
            assert new == old, (rid, mode)


@pytest.mark.parametrize("n,t,seed,modes,holes", ladder())
def test_rules_match_reference(n, t, seed, modes, holes):
    assert_same_outcomes(ladder_board(n, t, seed), PAIRWISE + COMPLETE, modes)
    if holes:
        assert_same_outcomes(ladder_board(n, t, seed, holes=True), PAIRWISE, modes)


@pytest.mark.parametrize("n,t,seed,modes,holes", ladder())
def test_custom_vectors_match_reference(n, t, seed, modes, holes):
    lb = ladder_board(n, t, seed)
    exact = [F(5, 2)] * (n // 3) + [F(2, 3)] * (n - n // 3 - 1) + [F(0)]
    from_floats = [1 / (p + 1.5) - 0.1 for p in range(n)]
    for vector in (exact, from_floats):
        assert_same_outcomes(lb, ("custom",), modes, vector=vector)


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
        keep = rng.sample(lb.systems, rng.randint(1, n))
        for new_view, old_view in ((new, old), (new.restrict(keep), old.restrict(keep))):
            assert new_view.systems == old_view.systems
            assert new_view.tasks == old_view.tasks
            assert new_view.positions == old_view.positions
            assert new_view.is_complete() == old_view.is_complete()
            for task in lb.tasks:
                assert new_view.tie_groups(task) == old_view.tie_groups(task)


@pytest.mark.parametrize("n,t,seed", [
    pytest.param(n, t, seed, id=f"{n}x{t}-{seed}")
    for n, t, seeds, _, _ in LADDER
    for seed in seeds
])
def test_graph_and_position_counts_match_reference(n, t, seed):
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        profile = vb.build_profile(lb, missing_ok=True)
        ref_profile = reference.build_profile(lb, missing_ok=True)
        weights = vb.base_weights(lb)
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
            assert vb.position_counts(profile, m, weights) == reference.position_counts(
                ref_profile, m, weights
            )


@pytest.mark.parametrize("n,t,seed", [
    pytest.param(n, t, seed, id=f"{n}x{t}-{seed}")
    for n, t, seeds, _, _ in LADDER
    for seed in seeds
])
def test_dominance_rows_match_reference(n, t, seed):
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        for m in lb.systems:
            assert vb.build_dominance_matrix(lb, m) == reference.build_dominance_matrix(lb, m), m


def test_ladder_reaches_every_branch():
    """The ladder exercises both Black paths and Coombs' majority stop."""
    paths, coombs_majority = set(), False
    for n, t, seeds, _, _ in LADDER[:2]:
        for seed in seeds:
            lb = ladder_board(n, t, seed)
            paths.add(vb.aggregate(lb, "black").diagnostics["path"])
            coombs_majority |= "majority_winner" in vb.aggregate(lb, "coombs").diagnostics
    assert paths == {"borda", "condorcet"}
    assert coombs_majority


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


def mapped(lb, values):
    rows = tuple([
        tuple([None if c is None else values[int(c) % len(values)] for c in row])
        for row in lb.scores
    ])
    return vb.Leaderboard(lb.systems, lb.tasks, rows, lb.directions, lb.weights, lb.groups)


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


# one rule of each family: positional, elimination, pairwise, set, baseline
IIA_RULES = ("borda", "hare", "copeland", "uncovered", "mean")


@pytest.mark.parametrize("n,t,seed", [(5, 3, 0), (8, 5, 1), (20, 6, 0)])
def test_iia_matches_reference_loop(n, t, seed):
    lb = ladder_board(n, t, seed)
    cfg = vb.ExperimentConfig(seed=seed, trials=4)
    for rule in IIA_RULES:
        try:
            old = reference.iia_experiment(lb, rule, cfg)
        except ValueError as exc:
            # the old check raised a bare ValueError for an unranked system
            with pytest.raises(RuleUnsupportedForMode):
                vb.iia_experiment(lb, rule, cfg)
            assert "unranked" in str(exc)
            continue
        assert vb.iia_experiment(lb, rule, cfg) == old, rule


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
            corrupted = lb.without_cells(deleted)
            # repr tells a float median from an int one
            new = repr(impute_medians(corrupted, deleted))
            assert new == repr(reference.impute_medians(corrupted, deleted)), omit
    # a task that loses every cell is filled with 0.0
    column = [(m, "t0") for m in holed.systems if holed.score(m, "t0") is not None]
    emptied = holed.without_cells(column)
    assert impute_medians(emptied, column) == reference.impute_medians(emptied, column)
