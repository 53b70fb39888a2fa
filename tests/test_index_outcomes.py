"""Rule cores on system indices, named once at the edge.

Every rule's core returns a model.IndexOutcome, and only modes.run_rule
names it, at its one return. tests/reference.py keeps the packaging on
names that it replaced: ranked_by over a name -> integer dict and chosen,
each a checked RuleOutcome, and the iia and robustness loops that named
every outcome, compared iia's steps by name tie groups and read Fraction
ranks by name.

ranked_by, chosen and tie_groups must give, once named, the reference
packaging's outcome on seeded score lists of 1 to 60 systems with ties.
On the 5-60-system ladder, plain, holed, scaled into (0, 1] and with
zero-weight tasks, every rule's named outcome in every mode must pass
RuleOutcome's own checks, partition the systems, and, where the rule
ranks by its scores, group as the reference ranked_by groups those
scores; on the scaled and zero-weight rungs up to 20 systems it must
equal the Fraction reference's outcome. Both experiments must give the
named loops' report, or their refusal, at several seeds and omit counts.

iia, which numbers each trial's systems in arrival order, must refuse as
the named loop, on the present systems in board order, on boards where a
system with a larger index arrives first and both hold a hole or a cell
outside the baselines' domain, and at three more seeds where the first
two arrivals hold holes on different tasks, where the one hole arrives
last, and where holes on different tasks arrive third and fifth.

Every rule is anonymous: permuting the board's systems leaves its ranking
by name, its scores and the kind of its refusal as they were, in every
mode. And the experiment loops name no outcome: with IndexOutcome.named
patched to raise, iia runs every rule it accepts and robustness every
rule set it accepts.
"""

import dataclasses
import random
from fractions import Fraction as F

import pytest

import voteboard as vb
from voteboard.errors import (
    MissingScore, RuleUnsupportedForMode, VectorLengthMismatch, VoteboardError,
)
from voteboard.experiments import IMPUTABLE, trial_rng
from voteboard.model import LazyScores, chosen, ranked_by, tie_groups
from voteboard.modes import BASIC, MODES

import reference
from conftest import diagnostics_unbuilt, outcomes_unnamed
from test_kernels import LADDER, ladder_board

SIZES = (1, 2, 5, 8, 14, 20, 35, 60)
# rules that rank lowest scores first
ASCENDING = ("copeland3", "optimality_gap")


def outcome_or_error(run):
    try:
        return run()
    except VoteboardError as exc:
        return (type(exc), str(exc))


def outcome_or_refusal(run):
    # the reference's weakly_stable refuses with a RuntimeError of the library's message
    try:
        return run()
    except (VoteboardError, RuntimeError) as exc:
        return ("refused", str(exc))


def params_for(rule, lb):
    if rule != "custom":
        return {}
    n = len(lb.systems)
    return {"vector": [F(7, 3)] + [F(n - 1 - p, 5 * n) for p in range(n - 1)]}


def stamped(outcome, rule_id="r", mode=BASIC):
    return dataclasses.replace(outcome, rule_id=rule_id, mode=mode)


@pytest.mark.parametrize("n", SIZES)
def test_index_packaging_names_as_the_name_packaging(n):
    rng = random.Random(f"packaging:{n}")
    systems = tuple([f"s{i:02d}" for i in range(n)])
    for _ in range(30):
        scores = [rng.randint(-3, max(1, n // 4)) for _ in systems]
        for ascending in (False, True):
            unit = rng.choice([1, 6, 35])
            new = ranked_by(scores, unit, ascending=ascending).named(systems, "r", BASIC)
            old = reference.ranked_by(dict(zip(systems, scores)), unit, ascending=ascending)
            assert new == stamped(old)
            assert type(new.scores) is LazyScores and list(new.scores) == list(systems)
            groups = tie_groups(scores, ascending=ascending)
            assert all(list(g) == sorted(g) for g in groups)
            assert sorted(i for g in groups for i in g) == list(range(n))
        winners = sorted(rng.sample(range(n), rng.randint(0, n)))
        diagnostics = {"condorcet_winner": None}
        new = chosen(winners, n, diagnostics).named(systems, "r", BASIC)
        named = frozenset([systems[i] for i in winners])
        assert new == stamped(reference.chosen(systems, named, diagnostics=diagnostics))
        assert new.diagnostics is diagnostics


def zero_weighted(lb):
    """lb with every third task's weight zero; the others keep theirs."""
    weights = tuple([F(0) if j % 3 == 1 else w for j, w in enumerate(lb.weights)])
    return dataclasses.replace(lb, weights=weights)


def ladder_rungs():
    for n, t, seeds, modes, holes in LADDER:
        for seed in seeds[:2]:
            yield pytest.param(n, t, seed, modes, holes, id=f"{n}x{t}-{seed}")


def assert_named_as_packaged(lb, modes, against_reference):
    for rid in vb.rule_ids():
        params = params_for(rid, lb)
        for mode in modes:
            with diagnostics_unbuilt():
                new = outcome_or_refusal(lambda: vb.aggregate(lb, rid, mode, **params))
            if against_reference:
                ref_rule = reference.RULES.get(rid) or reference.SCORE_RULES[rid]
                old = outcome_or_refusal(
                    lambda: reference.run_rule(lb, ref_rule, mode, **params))
                assert new == old, (rid, mode)
            if isinstance(new, tuple):
                continue
            fields = {f.name: getattr(new, f.name) for f in dataclasses.fields(new)}
            assert vb.RuleOutcome(**fields) == new, (rid, mode)
            assert new.all_systems == frozenset(lb.systems)
            # gmean ranks by its products, not the floats it shows, and black
            # puts a Condorcet winner first, whatever its Borda score
            by_score = new.scores is not None and rid != "gmean" and (
                rid != "black" or new.diagnostics["path"] == "borda")
            if not by_score:
                continue
            names, ints, unit = new.scores.over_unit()
            regrouped = reference.ranked_by(dict(zip(names, ints)), unit,
                                            ascending=rid in ASCENDING)
            assert regrouped.ranking == new.ranking, (rid, mode)
            assert regrouped.scores == new.scores, (rid, mode)


def unit_board(lb):
    """lb with its cells c, ints from 0 up, mapped to (c + 1) / (top + 1),
    in (0, 1], so optimality_gap and gmean take them."""
    top = max(c for row in lb.scores for c in row if c is not None)
    rows = [[None if c is None else (c + 1) / (top + 1) for c in row] for row in lb.scores]
    return vb.Leaderboard(lb.systems, lb.tasks, rows, lb.directions, lb.weights, lb.groups)


@pytest.mark.parametrize("n,t,seed,modes,holes", ladder_rungs())
def test_every_rule_names_as_the_name_packaging(n, t, seed, modes, holes):
    lb = ladder_board(n, t, seed)
    assert_named_as_packaged(lb, modes, against_reference=False)
    assert_named_as_packaged(unit_board(lb), modes, against_reference=n <= 20)
    assert_named_as_packaged(zero_weighted(lb), modes, against_reference=n <= 20)
    if holes:
        assert_named_as_packaged(ladder_board(n, t, seed, holes=True), modes,
                                 against_reference=False)


ROBUSTNESS_SETS = (["copeland", "minimax", "mean"], ["copeland2", "copeland3", "optimality_gap"],
                   ["copeland", "copeland2", "minimax"], ["condorcet"], ["uncovered"],
                   ["copeland", "borda"])


@pytest.mark.parametrize("n,t,seed", [(5, 3, 0), (5, 3, 1), (8, 5, 0), (14, 6, 1), (20, 6, 0)])
def test_experiments_report_as_the_named_loops(n, t, seed):
    for holes in (False, True):
        lb = ladder_board(n, t, seed, holes=holes)
        cfg = vb.ExperimentConfig(seed=seed, trials=2)
        for rid in vb.rule_ids():
            params = params_for(rid, lb)
            new = outcome_or_error(lambda: vb.iia_experiment(lb, rid, cfg, **params))
            old = outcome_or_error(
                lambda: reference.named_iia_experiment(lb, rid, cfg, **params))
            if rid == "custom":
                # the named loop met a hole or the vector's length at a step;
                # iia refuses custom up front
                assert new[0] is RuleUnsupportedForMode
                assert old[0] in (MissingScore, VectorLengthMismatch)
                continue
            assert new == old, (holes, rid)
        unit = unit_board(lb)
        for omit in (0, 1, 3, 10):
            cfg = vb.ExperimentConfig(seed=seed + omit, trials=3, omit_count=omit,
                                      top_k=min(7, n))
            for rules in ROBUSTNESS_SETS:
                new = outcome_or_error(lambda: vb.robustness_experiment(unit, rules, cfg))
                old = outcome_or_error(
                    lambda: reference.named_robustness_experiment(unit, rules, cfg))
                assert new == old, (holes, omit, rules)


def test_iia_refuses_as_on_the_present_systems_in_board_order():
    """iia numbers a trial's systems in their arrival order, yet every rule it
    accepts refuses, or reports, as the named loop on the present systems in
    board order. In trial 0 at seed 2, m2 arrives before m1, and every
    system but m0 holds a hole on t1 on one board, and a cell above 1 on t1
    and a 0 on t2 on the other, so the first step's refusal must name m1."""
    cfg = vb.ExperimentConfig(seed=2, trials=3)
    order = list(range(6))
    trial_rng(cfg.seed, 0).shuffle(order)
    assert order[:2] == [2, 1]
    rng = random.Random("board-order refusals")
    systems, tasks = [f"m{i}" for i in range(6)], ["t0", "t1", "t2"]
    rows = [[F(rng.randint(1, 9), 10) for _ in tasks] for _ in systems]
    holed = [[None if i and j == 1 else c for j, c in enumerate(row)]
             for i, row in enumerate(rows)]
    outside = [[F(2) if i and j == 1 else F(0) if i and j == 2 else c for j, c in enumerate(row)]
               for i, row in enumerate(rows)]
    refused = set()
    for cells in (holed, outside):
        lb = vb.Leaderboard(systems, tasks, cells, ["max"] * 3, [F(1)] * 3)
        for rid in vb.rule_ids():
            if rid == "custom":
                continue
            new = outcome_or_error(lambda: vb.iia_experiment(lb, rid, cfg))
            old = outcome_or_error(lambda: reference.named_iia_experiment(lb, rid, cfg))
            assert new == old, rid
            if isinstance(new, tuple) and new[0] is not RuleUnsupportedForMode:
                assert "'m1'" in new[1], (rid, new)
                refused.add((rid, new[0].__name__))
    # every rule without missing-score support refuses the holed board
    assert {rid for rid, _ in refused} == {
        rid for rid in vb.rule_ids() if rid != "custom" and not vb.get_rule(rid).handles_missing}
    assert {("optimality_gap", "ScoreOutOfRange"), ("gmean", "NonPositiveScore")} <= refused
    # more seeds and boards, holes (arrival position, task index) on seven
    # systems: the first two arrivals holed on t1 and t0, so the second is
    # named, a hole arriving last, and holes on t2 and t0 arriving third
    # and fifth, so the third is named
    for seed in (0, 1, 5):
        cfg = vb.ExperimentConfig(seed=seed, trials=2)
        order = list(range(7))
        trial_rng(cfg.seed, 0).shuffle(order)
        rows = [[F(rng.randint(1, 9), 10) for _ in tasks] for _ in range(7)]
        for holes, named in ((((0, 1), (1, 0)), (1, 0)), (((6, 2),), (6, 2)),
                             (((2, 2), (4, 0)), (2, 2))):
            gone = {(order[p], j) for p, j in holes}
            cells = [[None if (i, j) in gone else c for j, c in enumerate(row)]
                     for i, row in enumerate(rows)]
            lb = vb.Leaderboard([f"m{i}" for i in range(7)], tasks, cells, ["max"] * 3,
                                [F(1)] * 3)
            message = f"system 'm{order[named[0]]}' has no score on task 't{named[1]}'"
            for rid in vb.rule_ids():
                if rid == "custom":
                    continue
                new = outcome_or_error(lambda: vb.iia_experiment(lb, rid, cfg))
                old = outcome_or_error(lambda: reference.named_iia_experiment(lb, rid, cfg))
                assert new == old, (seed, holes, rid)
                rule = vb.get_rule(rid)
                if not (rule.on_board or rule.handles_missing):
                    assert new == (MissingScore, message), (seed, holes, rid)


def anonymity_board(seed):
    """A seeded board with ties, min tasks, zero and fractional weights,
    two groups, and on odd seeds at most one hole per task."""
    rng = random.Random(f"anonymity:{seed}")
    n, t = rng.randint(4, 14), rng.randint(3, 6)
    systems = [f"m{i:02d}" for i in range(n)]
    tasks = [f"t{j}" for j in range(t)]
    rows = [[F(rng.randint(1, 5), 5) for _ in tasks] for _ in systems]
    if seed % 2:
        for j in range(t):
            if rng.random() < 0.6:
                rows[rng.randrange(n)][j] = None
    weights = [rng.choice([F(0), F(1, 3), F(1), F(5, 7), F(2)]) for _ in tasks]
    weights[rng.randrange(t)] = F(1)
    directions = [rng.choice(["max", "min"]) for _ in tasks]
    groups = {"g0": tasks[: t // 2], "g1": tasks[t // 2:]}
    return vb.Leaderboard(systems, tasks, rows, directions, weights, groups)


def decision(run):
    """An outcome's ranking, unranked systems and scores, or the type of
    its refusal: a refusal's message names the first offending system in
    board order, which a permutation may change."""
    try:
        out = run()
    except VoteboardError as exc:
        return type(exc)
    return out.ranking, out.unranked, None if out.scores is None else dict(out.scores)


@pytest.mark.parametrize("seed", range(12))
def test_every_rule_is_anonymous(seed):
    lb = anonymity_board(seed)
    rng = random.Random(seed)
    order = rng.sample(range(len(lb.systems)), len(lb.systems))
    permuted = vb.Leaderboard([lb.systems[i] for i in order], lb.tasks,
                              [lb.scores[i] for i in order], lb.directions, lb.weights,
                              lb.groups)
    for rid in vb.rule_ids():
        params = params_for(rid, lb)
        for mode in MODES:
            before = decision(lambda: vb.aggregate(lb, rid, mode, **params))
            after = decision(lambda: vb.aggregate(permuted, rid, mode, **params))
            assert before == after, (rid, mode)


def test_the_naming_guard_raises_on_a_named_outcome():
    lb = ladder_board(8, 5, 0)
    with outcomes_unnamed():
        with pytest.raises(AssertionError, match="named inside the block"):
            vb.aggregate(lb, "borda")
        vb.get_rule("borda").run(vb.build_profile(lb))
    assert vb.aggregate(lb, "borda").winners


def test_the_experiment_loops_name_no_outcome():
    lb = ladder_board(8, 5, 0)
    unit = unit_board(lb)
    iia = vb.ExperimentConfig(seed=1, trials=2)
    robust = vb.ExperimentConfig(seed=1, trials=3, omit_count=3, top_k=5)
    iia_refused, robustness_accepted = set(), []
    for rid in vb.rule_ids():
        params = params_for(rid, lb)
        with outcomes_unnamed():
            try:
                vb.iia_experiment(unit, rid, iia, **params)
            except VoteboardError:
                iia_refused.add(rid)
            try:
                vb.robustness_experiment(unit, [rid], robust)
                robustness_accepted.append(rid)
            except VoteboardError:
                pass
    # the set rules leave systems unranked on this board, and custom's vector
    # fits the full board alone; the others take part
    assert iia_refused <= {"condorcet", "minimal_dominant", "minimal_undominated", "uncovered",
                           "uncovered2", "richelson", "fishburn", "weakly_stable", "custom"}
    assert {"copeland", "minimax", *IMPUTABLE} <= set(robustness_accepted)
    with outcomes_unnamed():
        report = vb.robustness_experiment(unit, robustness_accepted, robust)
    assert set(report.series) == set(robustness_accepted)
