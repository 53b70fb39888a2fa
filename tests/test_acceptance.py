"""Acceptance gate: one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion. Each test also prints a one-line summary with its key numbers.
"""

import itertools
import random
import time
from fractions import Fraction as F

import voteboard as vb
from voteboard import (
    agreement_rate,
    build_dominance_matrix,
    build_majority_graph,
    condorcet_winner,
    discriminative_power,
    find_cw_weights,
    kendall_tau,
    spearman_rho,
)
from voteboard.experiments import ExperimentConfig, iia_experiment, robustness_experiment

import oracle
import reference
from conftest import random_board

CONDORCET_CONSISTENT = (
    "baldwin", "nanson", "black", "copeland", "copeland2", "copeland3",
    "minimax", "minimal_dominant", "minimal_undominated", "uncovered",
    "uncovered2", "richelson", "fishburn", "weakly_stable",
)

MONOTONE_RULES = ("plurality", "borda", "dowdall", "threshold", "copeland", "minimax")


def custom_entries(n):
    # distinct from every named vector for n >= 3
    return [n] + [1] * (n - 2) + [0] if n >= 2 else [1]


def winner_checks(lb):
    """(rule kwargs, package winner set, oracle winner set) per rule."""
    n = len(lb.systems)
    cw = oracle.condorcet_winner(lb)
    yield "plurality", {}, oracle.argmax_set(
        oracle.vector_scores(lb, oracle.plurality_entries(n)))
    yield "two_approval", {}, oracle.argmax_set(
        oracle.vector_scores(lb, oracle.two_approval_entries(n)))
    yield "antiplurality", {}, oracle.argmax_set(
        oracle.vector_scores(lb, oracle.antiplurality_entries(n)))
    yield "borda", {}, oracle.argmax_set(
        oracle.vector_scores(lb, oracle.borda_entries(n)))
    yield "dowdall", {}, oracle.argmax_set(
        oracle.vector_scores(lb, oracle.dowdall_entries(n)))
    yield "custom", {"vector": custom_entries(n)}, oracle.argmax_set(
        oracle.vector_scores(lb, custom_entries(n)))
    yield "threshold", {}, oracle.threshold_winners(lb)
    yield "baldwin", {}, oracle.baldwin_winners(lb)
    yield "hare", {}, oracle.hare_winners(lb)
    yield "coombs", {}, oracle.coombs_winners(lb)
    yield "nanson", {}, oracle.nanson_winners(lb)
    yield "black", {}, oracle.black_winners(lb)
    yield "condorcet", {}, set() if cw is None else {cw}
    yield "copeland", {}, oracle.copeland_winners(lb, 1)
    yield "copeland2", {}, oracle.copeland_winners(lb, 2)
    yield "copeland3", {}, oracle.copeland_winners(lb, 3)
    yield "minimax", {}, oracle.minimax_winners(lb)
    yield "minimal_dominant", {}, oracle.minimal_dominant(lb)
    yield "minimal_undominated", {}, oracle.minimal_undominated(lb)
    yield "uncovered", {}, oracle.uncovered(lb, 1)
    yield "uncovered2", {}, oracle.uncovered(lb, 2)
    yield "richelson", {}, oracle.uncovered(lb, 3)
    yield "fishburn", {}, oracle.uncovered(lb, 4)
    yield "weakly_stable", {}, oracle.minimal_weakly_stable(lb)
    yield "mean", {}, oracle.mean_winners(lb)
    yield "gmean", {}, oracle.gmean_winners(lb)


def scaled_unit_copy(lb):
    scores = {
        m: {t: lb.score(m, t) / 10.0 for t in lb.tasks} for m in lb.systems
    }
    return vb.Leaderboard.from_scores(scores, tasks=list(lb.tasks))


def test_criterion_1_golden_toy_table(toy):
    start = time.perf_counter()

    out = vb.aggregate(toy, "plurality")
    assert out.scores == {"A": F(2), "B": F(1), "C": F(1), "D": F(1)}

    out = vb.aggregate(toy, "borda")
    assert out.scores == {"A": F(6), "B": F(9), "C": F(8), "D": F(7)}
    assert out.winners == {"B"}

    out = vb.aggregate(toy, "dowdall")
    assert out.scores == {
        "A": F(11, 4), "B": F(11, 4), "C": F(5, 2), "D": F(7, 4) + F(2, 3)
    }
    assert out.ranking[0] == {"A", "B"}

    out = vb.aggregate(toy, "threshold")
    assert out.winners == {"C"}
    assert out.diagnostics["first_round_scores"] == {
        "A": F(2), "B": F(4), "C": F(5), "D": F(4)
    }

    out = vb.aggregate(toy, "baldwin")
    rounds = out.diagnostics["trace"].rounds
    assert set(rounds[0].eliminated) == {"A"}
    assert set(rounds[1].eliminated) == {"D"}
    assert out.winners == {"B"}

    graph = build_majority_graph(toy)
    assert condorcet_winner(graph) == "B"
    assert set(graph.edges()) == {
        ("B", "A"), ("C", "A"), ("D", "A"), ("B", "C"), ("B", "D"), ("C", "D")
    }

    out = vb.aggregate(toy, "copeland")
    assert out.scores == {"A": F(-3), "B": F(3), "C": F(1), "D": F(-1)}

    out = vb.aggregate(toy, "minimax")
    assert out.scores == {"A": F(-3), "B": F(0), "C": F(-3), "D": F(-3)}

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\ncriterion 1: PASS, golden toy table exact in {elapsed:.3f}s")


def test_criterion_2_winner_sets_match_brute_force():
    start = time.perf_counter()
    rng = random.Random(20240501)
    boards = 0
    checks = 0
    while boards < 500:
        lb = random_board(rng, allow_weights=True)
        boards += 1
        for rule, kwargs, want in winner_checks(lb):
            got = vb.aggregate(lb, rule, **kwargs).winners
            assert got == set(want), (rule, lb.scores)
            checks += 1
        unit = scaled_unit_copy(lb)
        got = vb.aggregate(unit, "optimality_gap").winners
        assert got == oracle.og_winners(unit)
        checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\ncriterion 2: PASS, {boards} boards, {checks} winner sets, {elapsed:.1f}s")


def test_criterion_3_condorcet_consistency():
    rng = random.Random(3)
    instances = 0
    while instances < 1000:
        lb = random_board(rng, min_systems=3)
        cw = oracle.condorcet_winner(lb)
        if cw is None:
            continue
        instances += 1
        for rule in CONDORCET_CONSISTENT:
            got = vb.aggregate(lb, rule).winners
            assert got == {cw}, (rule, cw, lb.scores)
    print(f"\ncriterion 3: PASS, {instances} strict-CW instances, "
          f"{len(CONDORCET_CONSISTENT)} rules each")


def permuted_tasks(lb, rng):
    tasks = list(lb.tasks)
    rng.shuffle(tasks)
    scores = {m: {t: lb.score(m, t) for t in tasks} for m in lb.systems}
    return vb.Leaderboard.from_scores(
        scores,
        tasks=tasks,
        weights={t: lb.task_weight(t) for t in tasks},
    )


def single_step_improvements(lb, winner):
    """(task, rival) pairs where winner can swap up one strict place."""
    out = []
    for task in lb.tasks:
        mine = lb.score(winner, task)
        tier = [m for m in lb.systems if lb.score(m, task) == mine]
        if len(tier) != 1:
            continue
        above = [s for s in {lb.score(m, task) for m in lb.systems} if s > mine]
        if not above:
            continue
        nxt = min(above)
        rivals = [m for m in lb.systems if lb.score(m, task) == nxt]
        if len(rivals) == 1:
            out.append((task, rivals[0]))
    return out


def swap_scores(lb, task, a, b):
    sa, sb = lb.score(a, task), lb.score(b, task)
    return reference.with_score(reference.with_score(lb, a, task, sb), b, task, sa)


def rule_calls(n):
    calls = [(rid, {}) for rid in vb.rule_ids()
             if rid not in ("custom", "optimality_gap")]
    calls.append(("custom", {"vector": custom_entries(n)}))
    return calls


def test_criterion_4_axioms():
    rng = random.Random(4)
    anonymity_checks = 0
    unanimity_pairs = 0
    monotone_probes = 0
    for _ in range(500):
        lb = random_board(rng, min_systems=3, allow_weights=True)
        shuffled = permuted_tasks(lb, rng)

        for rule, kwargs in rule_calls(len(lb.systems)):
            a = vb.aggregate(lb, rule, **kwargs)
            b = vb.aggregate(shuffled, rule, **kwargs)
            assert a == b, rule
            anonymity_checks += 1
        unit = scaled_unit_copy(lb)
        assert vb.aggregate(unit, "optimality_gap") == vb.aggregate(
            permuted_tasks(unit, rng), "optimality_gap"
        )

        borda = vb.aggregate(lb, "borda").scores
        dowdall = vb.aggregate(lb, "dowdall").scores
        plur = vb.aggregate(lb, "plurality").scores
        for a, b in itertools.permutations(lb.systems, 2):
            if all(lb.score(a, t) > lb.score(b, t) for t in lb.tasks):
                unanimity_pairs += 1
                assert borda[a] > borda[b]
                assert dowdall[a] > dowdall[b]
                assert plur[a] >= plur[b]

        for rule in MONOTONE_RULES:
            out = vb.aggregate(lb, rule)
            if len(out.winners) != 1:
                continue
            (w,) = out.winners
            moves = single_step_improvements(lb, w)
            if not moves:
                continue
            task, rival = moves[rng.randrange(len(moves))]
            better = swap_scores(lb, task, w, rival)
            after = vb.aggregate(better, rule)
            assert after.winners == {w}, (rule, w, task, rival, lb.scores)
            monotone_probes += 1

    assert unanimity_pairs > 100
    assert monotone_probes > 300
    print(f"\ncriterion 4: PASS, {anonymity_checks} anonymity checks, "
          f"{unanimity_pairs} unanimity pairs, {monotone_probes} monotone probes")


def test_criterion_5_cw_weights_soundness():
    rng = random.Random(5)
    statuses = {"prospective": 0, "non_prospective": 0}
    dominated_checked = 0
    for i in range(300):
        lb = random_board(rng, max_systems=4, max_tasks=4, lo=0, hi=5,
                          min_systems=2)
        if i % 3 == 0 and len(lb.systems) >= 2:
            # plant a strictly dominated system
            loser, ref = lb.systems[0], lb.systems[1]
            for t in lb.tasks:
                lb = reference.with_score(lb, loser, t, lb.score(ref, t) - 1.0)
            mat = build_dominance_matrix(lb, loser)
            res = find_cw_weights(mat)
            assert not res.prospective
            dominated_checked += 1
        for m in lb.systems:
            mat = build_dominance_matrix(lb, m)
            res = find_cw_weights(mat)
            assert res.prospective == oracle.vertex_feasible(mat), (m, lb.scores)
            statuses[res.status] += 1
            if res.witness is not None:
                w = res.witness
                assert sum(w, F(0)) == 1
                assert all(v >= 0 for v in w)
                for row in mat.rows:
                    assert sum(F(c) * v for c, v in zip(row, w)) >= 0
    print(f"\ncriterion 5: PASS, 300 boards, {statuses['prospective']} prospective, "
          f"{statuses['non_prospective']} non-prospective, "
          f"{dominated_checked} planted dominated systems")


def test_criterion_6_iia_baselines_are_exactly_zero():
    rng = random.Random(6)
    boards = 0
    for _ in range(8):
        n = rng.randint(3, 8)
        t = rng.randint(1, 7)
        scores = {
            f"m{i}": {f"t{j}": round(rng.uniform(0.05, 0.99), 3) for j in range(t)}
            for i in range(n)
        }
        lb = vb.Leaderboard.from_scores(scores, tasks=[f"t{j}" for j in range(t)])
        boards += 1
        cfg = ExperimentConfig(seed=rng.randrange(2**32), trials=50)
        for rule in ("mean", "gmean", "optimality_gap"):
            rep = iia_experiment(lb, rule, cfg)
            assert rep.series[rule] == (0.0,) * 50, rule
            assert rep.mean[rule] == 0.0
            assert rep.sd[rule] == 0.0
    print(f"\ncriterion 6: PASS, {boards} boards, 50 trials each, all-zero series")


def test_criterion_7_robustness_harness():
    rng = random.Random(7)
    # 20 systems x 9 tasks, scores clustered near the top like real suites
    systems = [f"m{i:02d}" for i in range(20)]
    tasks = [f"t{j}" for j in range(9)]
    scores = {
        m: {t: round(min(0.999, max(0.2, rng.gauss(0.82, 0.09))), 3) for t in tasks}
        for m in systems
    }
    lb = vb.Leaderboard.from_scores(scores, tasks=tasks)

    cfg0 = ExperimentConfig(seed=70, trials=20, omit_count=0, top_k=7)
    rep0 = robustness_experiment(lb, ["copeland", "mean"], cfg0)
    assert rep0.series["copeland"] == (1.0,) * 20
    assert rep0.series["mean"] == (1.0,) * 20

    cfg1 = ExperimentConfig(seed=71, trials=30, omit_count=5, top_k=7)
    assert robustness_experiment(lb, ["copeland", "mean"], cfg1) == \
        robustness_experiment(lb, ["copeland", "mean"], cfg1)

    start = time.perf_counter()
    curve = {}
    for n_omit in range(1, 21):
        cfg = ExperimentConfig(seed=7000 + n_omit, trials=100, omit_count=n_omit,
                               top_k=7)
        rep = robustness_experiment(lb, ["copeland", "mean"], cfg)
        curve[n_omit] = (rep.mean["copeland"], rep.mean["mean"])
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0

    # descriptive artifact only: no ground-truth curve exists for a random
    # board, so the shape is printed rather than asserted
    lines = [f"    N={n:2d} copeland={c:.3f} mean={m:.3f}" for n, (c, m) in curve.items()]
    print(f"\ncriterion 7: PASS, N sweep 1..20 x 100 trials in {elapsed:.1f}s")
    print("\n".join(lines))


def test_criterion_8_metric_identities_exhaustive():
    total = 0
    for n in range(2, 6):
        names = [f"s{i}" for i in range(n)]
        for perm in itertools.permutations(names):
            ranking = tuple(frozenset([m]) for m in perm)
            r = vb.RuleOutcome(rule_id="r", mode="basic", ranking=ranking)
            rev = vb.RuleOutcome(
                rule_id="r", mode="basic", ranking=tuple(reversed(ranking))
            )
            assert kendall_tau(r, r) == 1.0
            assert spearman_rho(r, r) == 1.0
            assert kendall_tau(r, rev) == -1.0
            assert spearman_rho(r, rev) == -1.0
            assert discriminative_power(r) == 0
            for k in range(1, n + 1):
                assert agreement_rate(r, r, k) == 1.0
            total += 1
    print(f"\ncriterion 8: PASS, {total} strict orders checked exhaustively")
