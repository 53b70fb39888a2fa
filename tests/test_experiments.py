import math
import random
import statistics
import sys
from fractions import Fraction

import pytest

import voteboard as vb
from voteboard import (
    ExperimentConfig,
    RuleUnsupportedForMode,
    TooFewSystems,
    TooManyOmissions,
    iia_experiment,
    robustness_experiment,
    trial_rng,
)

from voteboard.experiments import _stdev

from conftest import board_from_orders


def unit_board(rng, n=6, t=5):
    systems = [f"m{i}" for i in range(n)]
    tasks = [f"t{j}" for j in range(t)]
    return vb.Leaderboard.from_scores(
        {m: {tk: round(rng.uniform(0.05, 0.99), 3) for tk in tasks} for m in systems},
        tasks=tasks,
    )


def test_trial_rng_is_stable():
    a = trial_rng(42, 7)
    b = trial_rng(42, 7)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    assert trial_rng(42, 7).random() != trial_rng(42, 8).random()


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(omit_count=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(top_k=0)


@pytest.mark.parametrize("name,value", [
    ("trials", 2.5), ("trials", "3"), ("trials", True), ("omit_count", 1.5),
    ("omit_count", False), ("top_k", "3"), ("top_k", 2.5), ("top_k", None),
    ("seed", [1]), ("seed", True), ("seed", 1.0), ("seed", "1"),
])
def test_config_refuses_a_count_that_is_not_an_int(name, value):
    with pytest.raises(vb.InvalidParameter) as caught:
        ExperimentConfig(**{name: value})
    assert str(caught.value) == f"{name} must be an int, not {value!r}"


def test_iia_needs_three_systems():
    lb = board_from_orders({"t": ["a", "b"]})
    with pytest.raises(TooFewSystems):
        iia_experiment(lb, "borda")


def test_iia_mean_is_exactly_zero():
    rng = random.Random(5)
    for _ in range(5):
        lb = unit_board(rng)
        cfg = ExperimentConfig(seed=11, trials=20)
        for rule in ("mean", "gmean", "optimality_gap"):
            rep = iia_experiment(lb, rule, cfg)
            assert rep.series[rule] == (0.0,) * 20
            assert rep.mean[rule] == 0.0
            assert rep.sd[rule] == 0.0


def test_iia_deterministic(toy):
    cfg = ExperimentConfig(seed=9, trials=12)
    a = iia_experiment(toy, "borda", cfg)
    b = iia_experiment(toy, "borda", cfg)
    assert a == b


def test_iia_plurality_spoiler():
    # d splits a's first places; adding it flips the a/b order
    lb = board_from_orders(
        {
            "t1": ["a", "d", "b", "c"],
            "t2": ["d", "a", "b", "c"],
            "t3": ["a", "b", "c", "d"],
            "t4": ["b", "c", "a", "d"],
            "t5": ["b", "a", "c", "d"],
        }
    )
    cfg = ExperimentConfig(seed=0, trials=30)
    rep = iia_experiment(lb, "plurality", cfg)
    assert max(rep.series["plurality"]) >= 1.0


def test_robustness_zero_omissions_is_identity(toy):
    cfg = ExperimentConfig(seed=3, trials=8, omit_count=0, top_k=4)
    rep = robustness_experiment(toy, ["minimax", "mean", "copeland"], cfg)
    for rule in ("minimax", "mean", "copeland"):
        assert rep.series[rule] == (1.0,) * 8


def test_robustness_deterministic(toy):
    cfg = ExperimentConfig(seed=3, trials=10, omit_count=4, top_k=4)
    a = robustness_experiment(toy, ["minimax", "mean"], cfg)
    b = robustness_experiment(toy, ["minimax", "mean"], cfg)
    assert a == b
    assert a.params["omit_count"] == 4


def test_robustness_rejects_unsupported_rules(toy):
    cfg = ExperimentConfig(seed=3, trials=2, omit_count=1, top_k=4)
    with pytest.raises(RuleUnsupportedForMode):
        robustness_experiment(toy, ["borda"], cfg)
    with pytest.raises(RuleUnsupportedForMode):
        robustness_experiment(toy, ["hare"], cfg)


def test_robustness_refuses_a_rule_that_leaves_systems_unranked_on_the_intact_board():
    """minimal_dominant's winners on this 4 x 3 board are a cycle, with d
    unranked below it, so the intact board already has no ranks to
    correlate: the refusal names the rule, as a trial's does, where end_set
    raised MismatchedSystems."""
    lb = vb.Leaderboard.from_scores({
        "a": {"x": 3, "y": 1, "z": 2}, "b": {"x": 2, "y": 3, "z": 1},
        "c": {"x": 1, "y": 2, "z": 3}, "d": {"x": 0, "y": 0, "z": 0},
    })
    assert vb.aggregate(lb, "minimal_dominant").unranked == {"d"}
    cfg = ExperimentConfig(trials=2, omit_count=1, top_k=2)
    with pytest.raises(RuleUnsupportedForMode,
                       match="rule 'minimal_dominant' leaves systems unranked on the intact board"):
        robustness_experiment(lb, ["minimal_dominant"], cfg)
    with pytest.raises(RuleUnsupportedForMode, match="'minimal_dominant'"):
        robustness_experiment(lb, ["copeland", "minimal_dominant"], cfg)


def test_robustness_refuses_an_empty_rule_list(toy):
    cfg = ExperimentConfig(seed=3, trials=2, omit_count=1, top_k=4)
    with pytest.raises(vb.InvalidParameter, match="at least one rule"):
        robustness_experiment(toy, [], cfg)
    # a str is not split into one-letter rule ids
    with pytest.raises(vb.InvalidParameter) as caught:
        robustness_experiment(toy, "copeland", cfg)
    assert str(caught.value) == "rules must be a sequence of rule ids, not the string 'copeland'"


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0, -1, "x"])
def test_robustness_refuses_a_bad_gamma_whether_or_not_a_rule_reads_it(toy, gamma):
    cfg = ExperimentConfig(seed=3, trials=2, omit_count=1, top_k=4)
    for rules in (["copeland"], ["minimax", "optimality_gap"]):
        with pytest.raises(vb.InvalidParameter, match="gamma"):
            robustness_experiment(toy, rules, cfg, gamma=gamma)


def test_robustness_too_many_omissions(toy):
    cfg = ExperimentConfig(seed=3, trials=2, omit_count=21, top_k=4)
    with pytest.raises(TooManyOmissions):
        robustness_experiment(toy, ["minimax"], cfg)


def test_robustness_top_k_above_the_system_count(toy):
    cfg = ExperimentConfig(seed=3, trials=2, omit_count=1, top_k=len(toy.systems) + 1)
    with pytest.raises(vb.InvalidParameter, match="top_k cannot exceed the number of systems"):
        robustness_experiment(toy, ["minimax"], cfg)


def test_robustness_without_a_config_takes_top_k_at_most_the_system_count(toy):
    """The default top_k is 7, or every system on a smaller board; an
    explicit top_k above the system count is still refused (above)."""
    report = robustness_experiment(toy, ["minimax"])
    assert len(toy.systems) == 4
    assert report.params["top_k"] == 4
    assert report.trials == 100 and report.params["omit_count"] == 1
    lb = unit_board(random.Random(7), n=9, t=3)
    assert robustness_experiment(lb, ["minimax"]).params["top_k"] == 7


def test_robustness_handles_heavy_deletion():
    rng = random.Random(6)
    lb = unit_board(rng, n=5, t=4)
    cfg = ExperimentConfig(seed=12, trials=15, omit_count=10, top_k=5)
    rep = robustness_experiment(lb, ["minimax", "mean", "optimality_gap"], cfg)
    for series in rep.series.values():
        assert len(series) == 15
        assert all(-1.0 <= v <= 1.0 for v in series)


def test_report_shape(toy):
    cfg = ExperimentConfig(seed=1, trials=3, omit_count=2, top_k=3)
    rep = robustness_experiment(toy, ["copeland2"], cfg)
    assert rep.kind == "robustness"
    assert rep.seed == 1
    assert rep.trials == 3
    assert rep.params["top_k"] == 3
    assert set(rep.series) == {"copeland2"}


def test_a_partial_config_deletes_one_cell_per_trial():
    """ExperimentConfig deletes one cell per trial unless told otherwise, as
    the command line's --omit does."""
    lb = unit_board(random.Random(3), n=9, t=4)
    report = robustness_experiment(lb, ["copeland", "mean"], ExperimentConfig(seed=3))
    assert report.params["omit_count"] == 1
    assert report == robustness_experiment(
        lb, ["copeland", "mean"], ExperimentConfig(seed=3, omit_count=1))
    assert any([rho != 1.0 for series in report.series.values() for rho in series])


def test_iia_refuses_custom_before_the_first_trial():
    """custom's vector fits one number of systems, and iia ranks 2, 3, ...
    of them, so it is refused before any step runs."""
    lb = unit_board(random.Random(4), n=8, t=3)

    def run(table, *, vector=None):
        raise AssertionError("custom ran a step")

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(vb.get_rule("custom").__dict__, "run", run)
        with pytest.raises(RuleUnsupportedForMode, match="vector for one number of systems"):
            iia_experiment(lb, "custom", vector=list(range(8, 0, -1)))


def stdev_series(count):
    """Seeded series of 2 to 100 floats of both signs, exponents up to ±30,
    a fifth of them drawn from two values, so that many repeat."""
    rng = random.Random("stdev")
    for _ in range(count):
        values = [math.ldexp(rng.uniform(-1, 1), rng.randint(-30, 30))
                  for _ in range(rng.randint(2, 100))]
        if rng.random() < 0.2:
            values = [rng.choice(values[:2]) for _ in values]
        yield values


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.stdev rounds twice before 3.11")
def test_report_sd_is_statistics_stdev():
    for values in stdev_series(2000):
        assert _stdev(values) == statistics.stdev(values), values
    assert _stdev([0.25, 0.25]) == 0.0


def test_report_sd_is_the_exact_root_correctly_rounded():
    """The exact root lies within half an ulp of the result: between the
    midpoints to its neighbouring floats, compared as exact squares."""
    for values in [*stdev_series(500), [1.0, 2.0], [0.1, 0.2, 0.3], [1e-300, 3e-300, 2e-300]]:
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / len(exact)
        variance = sum([(v - mean) ** 2 for v in exact]) / (len(exact) - 1)
        sd = _stdev(values)
        low = (Fraction(sd) + Fraction(math.nextafter(sd, -math.inf))) / 2 if sd else Fraction(0)
        high = (Fraction(sd) + Fraction(math.nextafter(sd, math.inf))) / 2
        assert low * low <= variance <= high * high, values
