import math
import random
from fractions import Fraction as F

import pytest
import scipy.stats

import voteboard as vb
from voteboard import (
    InvalidParameter,
    MismatchedSystems,
    NonPositiveScore,
    ScoreOutOfRange,
    agreement_rate,
    discriminative_power,
    end_set,
    kendall_tau,
    spearman_rho,
)

import oracle
import reference
from conftest import random_board


def outcome_from_order(order, rule_id="x"):
    """Total order as a RuleOutcome, best first; nested lists mean ties."""
    ranking = tuple(
        frozenset(g) if isinstance(g, (list, tuple, set)) else frozenset([g])
        for g in order
    )
    return vb.RuleOutcome(rule_id=rule_id, mode="basic", ranking=ranking)


def test_mean_is_exact(toy):
    out = vb.aggregate(toy, "mean")
    assert out.scores["B"] == F(14, 5)
    assert out.winners == {"B"}


def test_gmean_rejects_nonpositive():
    lb = vb.Leaderboard.from_scores(
        {"a": {"t": 0.0}, "b": {"t": 1.0}}, tasks=["t"]
    )
    with pytest.raises(NonPositiveScore):
        vb.aggregate(lb, "gmean")


def test_gmean_matches_log_mean(toy):
    out = vb.aggregate(toy, "gmean")
    for m in toy.systems:
        logs = [math.log(toy.score(m, t)) for t in toy.tasks]
        assert out.scores[m] == pytest.approx(math.exp(sum(logs) / len(logs)))


def test_optimality_gap_worked_example():
    lb = vb.Leaderboard.from_scores(
        {"x": {"a": 1.0, "b": 0.90, "c": 0.80}}, tasks=["a", "b", "c"]
    )
    out = vb.aggregate(lb, "optimality_gap")
    assert out.scores["x"] == F(1, 15)  # (0 + 0.05 + 0.15) / 3
    assert float(out.scores["x"]) == pytest.approx(0.0667, abs=5e-5)


def test_optimality_gap_orders_ascending():
    lb = vb.Leaderboard.from_scores(
        {"good": {"t": 0.99}, "bad": {"t": 0.2}}, tasks=["t"]
    )
    out = vb.aggregate(lb, "optimality_gap")
    assert out.winners == {"good"}
    assert out.diagnostics["score_order"] == "ascending"


def test_optimality_gap_range_check(toy):
    with pytest.raises(ScoreOutOfRange):
        vb.aggregate(toy, "optimality_gap")
    lb = vb.Leaderboard.from_scores({"a": {"t": -0.1}}, tasks=["t"])
    with pytest.raises(ScoreOutOfRange):
        vb.aggregate(lb, "optimality_gap")


def test_scores_above_gamma_incur_no_gap():
    lb = vb.Leaderboard.from_scores(
        {"a": {"t1": 0.99, "t2": 0.97}, "b": {"t1": 0.95, "t2": 0.96}},
        tasks=["t1", "t2"],
    )
    out = vb.aggregate(lb, "optimality_gap", gamma=0.95)
    assert out.scores["a"] == F(0)
    assert out.scores["b"] == F(0)


def test_agreement_rate_basics():
    r1 = outcome_from_order(["a", "b", "c", "d"])
    r2 = outcome_from_order(["a", "b", "d", "c"])
    assert agreement_rate(r1, r1, 3) == 1.0
    assert agreement_rate(r1, r2, 2) == 1.0
    r3 = outcome_from_order(["d", "c", "b", "a"])
    assert agreement_rate(r1, r3, 2) == 0.0
    # top-3 sets share 2 of 3
    r4 = outcome_from_order(["a", "b", "d", "c"])
    assert agreement_rate(r1, r4, 3) == pytest.approx(2 / 3)


def test_agreement_rate_grows_boundary_ties():
    tied = outcome_from_order([["a", "b", "c"], "d"])
    strict = outcome_from_order(["a", "b", "c", "d"])
    # k=2 pulls the whole 3-way tie in, denominator becomes 3
    assert end_set(tied, 2) == {"a", "b", "c"}
    assert agreement_rate(tied, strict, 2) == pytest.approx(2 / 3)


def test_agreement_rate_least_end():
    r1 = outcome_from_order(["a", "b", "c", "d"])
    r2 = outcome_from_order(["b", "a", "d", "c"])
    assert agreement_rate(r1, r2, 2, end="least") == 1.0
    assert end_set(r1, 1, end="least") == {"d"}


def test_end_set_k_out_of_range_is_invalid():
    r = outcome_from_order(["a", "b", "c"])
    for k in (0, 4):
        with pytest.raises(InvalidParameter, match="k must be between 1 and 3"):
            end_set(r, k)
    for k in ("1", True, 1.5, None):
        with pytest.raises(InvalidParameter, match=f"k must be an int, not {k!r}"):
            end_set(r, k)
    with pytest.raises(InvalidParameter, match="k must be an int, not None"):
        agreement_rate(r, r, None)


def test_end_set_unknown_end_is_invalid():
    r = outcome_from_order(["a", "b", "c"])
    with pytest.raises(InvalidParameter, match="end must be"):
        end_set(r, 1, end="middle")
    # a set rule's outcome leaves the losers unranked, so it has no ends
    chosen = vb.RuleOutcome(ranking=(frozenset("a"),), unranked=frozenset("bc"))
    with pytest.raises(MismatchedSystems, match="^outcome must rank every system$"):
        end_set(chosen, 1)


def test_agreement_rate_symmetry_and_mismatch():
    r1 = outcome_from_order(["a", "b", "c"])
    r2 = outcome_from_order([["a", "b"], "c"])
    for k in (1, 2, 3):
        assert agreement_rate(r1, r2, k) == agreement_rate(r2, r1, k)
    with pytest.raises(MismatchedSystems):
        agreement_rate(r1, outcome_from_order(["a", "b"]), 1)
    with pytest.raises(ValueError):
        agreement_rate(r1, r2, 0)


def test_tau_identities():
    r = outcome_from_order(["a", "b", "c", "d"])
    assert kendall_tau(r, r) == 1.0
    rev = outcome_from_order(["d", "c", "b", "a"])
    assert kendall_tau(r, rev) == -1.0
    swap = outcome_from_order(["a", "c", "b", "d"])
    assert kendall_tau(r, swap) == pytest.approx(1 - 2 * 1 / 6)


def test_rho_identities():
    r = outcome_from_order(["a", "b", "c", "d"])
    assert spearman_rho(r, r) == 1.0
    rev = outcome_from_order(["d", "c", "b", "a"])
    assert spearman_rho(r, rev) == -1.0
    with pytest.raises(ValueError, match="rank vectors differ in length"):
        vb.rho_from_rank_vectors([F(1), F(2)], [F(1), F(2), F(3)])
    # a float rank is read as its exact ratio
    assert vb.rho_from_rank_vectors([0.5, 1.0, 2.0], [1.0, 0.5, 2.0]) == vb.rho_from_rank_vectors(
        [F(1, 2), F(1), F(2)], [F(1), F(1, 2), F(2)])


def test_tau_rho_constant_ranking_is_zero():
    flat = outcome_from_order([["a", "b", "c"]])
    strict = outcome_from_order(["a", "b", "c"])
    assert kendall_tau(flat, strict) == 0.0
    assert spearman_rho(flat, strict) == 0.0


@pytest.mark.filterwarnings("ignore::scipy.stats.ConstantInputWarning")
def test_tau_rho_match_scipy_with_ties():
    rng = random.Random(44)
    for _ in range(80):
        n = rng.randint(2, 7)
        systems = [f"s{i}" for i in range(n)]
        x = {m: rng.randint(1, 4) for m in systems}
        y = {m: rng.randint(1, 4) for m in systems}
        r1 = vb.RuleOutcome(
            rule_id="x", mode="basic", ranking=reference.group_by_score(x)
        )
        r2 = vb.RuleOutcome(
            rule_id="y", mode="basic", ranking=reference.group_by_score(y)
        )
        xr = [float(r1.fractional_ranks()[m]) for m in systems]
        yr = [float(r2.fractional_ranks()[m]) for m in systems]
        want_tau = scipy.stats.kendalltau(xr, yr).statistic
        want_rho = scipy.stats.spearmanr(xr, yr).statistic
        got_tau = kendall_tau(r1, r2)
        got_rho = spearman_rho(r1, r2)
        # scipy yields nan for constant inputs; we pin those to 1.0 for
        # identical rankings and 0.0 otherwise
        degenerate = 1.0 if xr == yr else 0.0
        if math.isnan(want_tau):
            assert got_tau == degenerate
        else:
            assert got_tau == pytest.approx(want_tau, abs=1e-12)
        if math.isnan(want_rho):
            assert got_rho == degenerate
        else:
            assert got_rho == pytest.approx(want_rho, abs=1e-12)


def test_tau_rho_invariant_under_relabeling():
    rng = random.Random(45)
    for _ in range(20):
        n = rng.randint(2, 6)
        systems = [f"s{i}" for i in range(n)]
        x = {m: rng.randint(1, 4) for m in systems}
        y = {m: rng.randint(1, 4) for m in systems}
        relabel = {m: f"z{i}" for i, m in enumerate(rng.sample(systems, n))}
        r1 = vb.RuleOutcome(rule_id="x", mode="basic", ranking=reference.group_by_score(x))
        r2 = vb.RuleOutcome(rule_id="y", mode="basic", ranking=reference.group_by_score(y))
        m1 = vb.RuleOutcome(
            rule_id="x", mode="basic",
            ranking=tuple(frozenset(relabel[m] for m in g) for g in r1.ranking),
        )
        m2 = vb.RuleOutcome(
            rule_id="y", mode="basic",
            ranking=tuple(frozenset(relabel[m] for m in g) for g in r2.ranking),
        )
        assert kendall_tau(r1, r2) == kendall_tau(m1, m2)
        assert spearman_rho(r1, r2) == spearman_rho(m1, m2)


def test_metric_ranges():
    rng = random.Random(46)
    for _ in range(40):
        n = rng.randint(2, 6)
        systems = [f"s{i}" for i in range(n)]
        x = {m: rng.randint(1, 3) for m in systems}
        y = {m: rng.randint(1, 3) for m in systems}
        r1 = vb.RuleOutcome(rule_id="x", mode="basic", ranking=reference.group_by_score(x))
        r2 = vb.RuleOutcome(rule_id="y", mode="basic", ranking=reference.group_by_score(y))
        assert -1.0 <= kendall_tau(r1, r2) <= 1.0
        assert -1.0 <= spearman_rho(r1, r2) <= 1.0
        for k in range(1, n + 1):
            assert 0.0 <= agreement_rate(r1, r2, k) <= 1.0


def test_discriminative_power():
    assert discriminative_power(outcome_from_order(["a", "b", "c"])) == 0
    assert discriminative_power(outcome_from_order([["a", "b", "c"]])) == 2
    assert discriminative_power(outcome_from_order([["a", "b"], "c", "d"])) == 1


def test_discriminative_power_counts_unranked_block(toy):
    out = vb.aggregate(toy, "minimal_dominant")
    # one winner group plus one unranked block of three
    assert discriminative_power(out) == 2


def test_baselines_match_oracle():
    rng = random.Random(47)
    for _ in range(40):
        lb = random_board(rng, allow_weights=True)
        assert vb.aggregate(lb, "mean").winners == oracle.mean_winners(lb)
        assert vb.aggregate(lb, "gmean").winners == oracle.gmean_winners(lb)
