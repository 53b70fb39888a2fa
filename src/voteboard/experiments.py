"""Seeded counterfactual experiments on leaderboards.

Both experiments derive one independent RNG substream per trial from the
master seed, so results do not depend on trial order and re-runs are
bit-identical. Substreams come from string-seeded stdlib generators, which
are stable across platforms and hash seeds.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .errors import (
    InvalidParameter,
    RuleUnsupportedForMode,
    TooFewSystems,
    TooManyOmissions,
)
from .metrics import end_set, rho_from_rank_vectors
from .model import Leaderboard, RuleOutcome
from .modes import BASIC, run_rule
from .registry import get_rule

# score aggregators repaired by per-task median imputation instead of
# native missing-score handling
IMPUTABLE = ("mean", "optimality_gap")


def trial_rng(seed: int, trial: int) -> random.Random:
    """Independent, platform-stable substream for one trial."""
    return random.Random(f"{seed}:{trial}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    trials: int = 50
    omit_count: int = 0
    top_k: int = 7

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InvalidParameter("trials must be at least 1")
        if self.omit_count < 0:
            raise InvalidParameter("omit_count must be non-negative")
        if self.top_k < 1:
            raise InvalidParameter("top_k must be at least 1")


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    seed: int
    trials: int
    series: Mapping[str, tuple[float, ...]]
    mean: Mapping[str, float]
    sd: Mapping[str, float]
    params: Mapping[str, Any] = field(default_factory=dict)


def _report(
    kind: str,
    cfg: ExperimentConfig,
    series: Mapping[str, Sequence[float]],
    **params: Any,
) -> ExperimentReport:
    fixed = {k: tuple(float(v) for v in vals) for k, vals in series.items()}
    mean = {k: statistics.fmean(v) for k, v in fixed.items()}
    sd = {k: statistics.stdev(v) if len(v) > 1 else 0.0 for k, v in fixed.items()}
    return ExperimentReport(kind, cfg.seed, cfg.trials, fixed, mean, sd, dict(params))


def iia_experiment(
    lb: Leaderboard,
    rule: str,
    cfg: ExperimentConfig | None = None,
    **rule_params: Any,
) -> ExperimentReport:
    """How often adding one more system reshuffles the systems already there.

    Each trial shuffles the systems, starts from the first two, and adds the
    rest one at a time. After every addition the rule is re-run and its
    ranking restricted to the previously present systems; the trial counts
    additions that change any pairwise relation among them. Two weak orders
    agree on every pair exactly when their restricted tie groups form the
    same sequence, so that is what is compared. A rule that leaves a present
    system unranked raises RuleUnsupportedForMode.
    """
    cfg = cfg or ExperimentConfig()
    if len(lb.systems) < 3:
        raise TooFewSystems("spoiler probing needs at least three systems")
    rule_obj = get_rule(rule)
    counts: list[float] = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        order = list(lb.systems)
        rng.shuffle(order)
        present = order[:2]
        prev = run_rule(lb.restrict_systems(present), rule_obj, BASIC, **rule_params)
        changed = 0
        for newcomer in order[2:]:
            now = present + [newcomer]
            out = run_rule(lb.restrict_systems(now), rule_obj, BASIC, **rule_params)
            kept = frozenset(present)
            if _tie_order(out, kept) != _tie_order(prev, kept):
                changed += 1
            present = now
            prev = out
        counts.append(float(changed))
    return _report("iia", cfg, {rule: counts})


def _tie_order(outcome: RuleOutcome, systems: frozenset[str]) -> list[frozenset[str]]:
    """The outcome's tie groups restricted to systems, empty groups dropped."""
    groups = [kept for kept in (group & systems for group in outcome.ranking) if kept]
    if sum(map(len, groups)) != len(systems):
        raise RuleUnsupportedForMode(
            f"rule {outcome.rule_id!r} leaves systems unranked, so it has no "
            "pairwise relations to probe"
        )
    return groups


def _impute_medians(
    corrupted: Leaderboard, deleted: Sequence[tuple[str, str]]
) -> Leaderboard:
    """The corrupted board with each deleted cell set to its task's median.

    Each median is taken once over the cells the corrupted board still holds
    and written into one copy of the rows, so the trial builds one board.
    """
    rows = [list(row) for row in corrupted.scores]
    medians: dict[int, float] = {}
    for system, task in deleted:
        j = corrupted.tasks.index(task)
        if j not in medians:
            remaining = [row[j] for row in corrupted.scores if row[j] is not None]
            # a column emptied entirely becomes constant, hence uninformative
            medians[j] = float(statistics.median(remaining)) if remaining else 0.0
        rows[corrupted.systems.index(system)][j] = medians[j]
    return replace(corrupted, scores=tuple([tuple(row) for row in rows]))


def robustness_experiment(
    lb: Leaderboard,
    rules: Sequence[str],
    cfg: ExperimentConfig | None = None,
    *,
    gamma: float = 0.95,
) -> ExperimentReport:
    """Rank stability of the intact top-k under random score deletion.

    Per trial, omit_count present cells are deleted (the same cells for
    every rule). Majority-based rules rerun natively on the holes; the mean
    and optimality-gap baselines get each deleted cell imputed with its
    task's median over the remaining systems. The trial result per rule is
    the Spearman correlation between the reference ranks of the intact
    top-k systems and their ranks after deletion.
    """
    cfg = cfg or ExperimentConfig(trials=100)
    if cfg.top_k > len(lb.systems):
        raise InvalidParameter("top_k cannot exceed the number of systems")
    rule_objs = {}
    for rid in rules:
        rule_obj = get_rule(rid)
        if not rule_obj.handles_missing and rid not in IMPUTABLE:
            raise RuleUnsupportedForMode(
                f"rule {rid!r} can neither tolerate missing scores nor be imputed"
            )
        rule_objs[rid] = rule_obj
    present = lb.present_cells()
    if cfg.omit_count > len(present):
        raise TooManyOmissions(
            f"cannot delete {cfg.omit_count} of {len(present)} present cells"
        )

    def params_for(rid: str) -> dict[str, Any]:
        return {"gamma": gamma} if "gamma" in rule_objs[rid].params else {}

    ref_ranks: dict[str, dict[str, Fraction]] = {}
    ref_sets: dict[str, tuple[str, ...]] = {}
    for rid in rules:
        out = run_rule(lb, rule_objs[rid], BASIC, **params_for(rid))
        ref_ranks[rid] = out.fractional_ranks()
        ref_sets[rid] = tuple(sorted(end_set(out, cfg.top_k)))

    series: dict[str, list[float]] = {rid: [] for rid in rules}
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        deleted = rng.sample(present, cfg.omit_count)
        corrupted = lb.without_cells(deleted)
        imputed: Leaderboard | None = None
        for rid in rules:
            if rid in IMPUTABLE:
                if imputed is None:
                    imputed = _impute_medians(corrupted, deleted)
                board = imputed
            else:
                board = corrupted
            out = run_rule(board, rule_objs[rid], BASIC, **params_for(rid))
            ranks = out.fractional_ranks()
            chosen = ref_sets[rid]
            rho = rho_from_rank_vectors(
                [ref_ranks[rid][m] for m in chosen],
                [ranks[m] for m in chosen],
            )
            series[rid].append(rho)
    return _report(
        "robustness", cfg, series, omit_count=cfg.omit_count, top_k=cfg.top_k, gamma=gamma
    )
