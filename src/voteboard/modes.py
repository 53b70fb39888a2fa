"""Aggregation modes: basic, weighted, and two-step.

basic applies a rule once with the raw task weights. weighted scales each
task's weight by 1 / |its group| so every group contributes equally in total.
two_step runs the rule inside each group to get an interim ranking, then
treats each group as a single voter whose ballot is that ranking, a tie
order over the systems, and applies the rule once more. Both grouped modes
require a grouping that covers every task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Mapping

from .errors import MissingGroups, RuleUnsupportedForMode, UnknownRule
from .model import (
    Leaderboard,
    RankProfile,
    RuleOutcome,
    build_profile,
)

BASIC = "basic"
WEIGHTED = "weighted"
TWO_STEP = "two_step"
MODES = (BASIC, WEIGHTED, TWO_STEP)


@dataclass(frozen=True)
class RuleParts:
    """What a rule engine returns before mode/outcome packaging."""

    ranking: tuple[frozenset[str], ...]
    scores: Mapping[str, Fraction] | None = None
    unranked: frozenset[str] = frozenset()
    diagnostics: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Rule:
    """A registered rule.

    profile_run consumes (profile, weights, **params); score_run consumes
    (leaderboard, weights, **params) for aggregators that need raw scores.
    elector marks rules whose full output is a total preorder, the only kind
    that can vote in the second step of two_step.
    """

    rule_id: str
    profile_run: Callable[..., RuleParts] | None = None
    score_run: Callable[..., RuleParts] | None = None
    handles_missing: bool = False
    elector: bool = True

    def __post_init__(self) -> None:
        if (self.profile_run is None) == (self.score_run is None):
            raise ValueError("a rule needs exactly one of profile_run/score_run")


@dataclass(frozen=True)
class GroupWeighting:
    """Per-task scale factors (1 / |group|) and the resulting weights."""

    factors: Mapping[str, Fraction]
    effective: Mapping[str, Fraction]


def base_weights(lb: Leaderboard) -> dict[str, Fraction]:
    return {t: lb.weights[j] for j, t in enumerate(lb.tasks)}


def _covering_groups(lb: Leaderboard) -> tuple[tuple[str, tuple[str, ...]], ...]:
    if not lb.groups:
        raise MissingGroups("this mode needs task groups")
    covered = {t for _, members in lb.groups for t in members}
    missing = [t for t in lb.tasks if t not in covered]
    if missing:
        raise MissingGroups(f"tasks outside any group: {missing}")
    return lb.groups


def group_weighting(lb: Leaderboard) -> GroupWeighting:
    """Scale each task weight by one over its group size."""
    groups = _covering_groups(lb)
    size = {t: len(members) for _, members in groups for t in members}
    factors = {t: Fraction(1, size[t]) for t in lb.tasks}
    weights = base_weights(lb)
    effective = {t: weights[t] * factors[t] for t in lb.tasks}
    return GroupWeighting(factors=factors, effective=effective)


def run_rule(lb: Leaderboard, rule: Rule, mode: str = BASIC, **params: Any) -> RuleOutcome:
    """Apply a rule under a mode and package the outcome."""
    if mode not in MODES:
        raise UnknownRule(f"unknown mode: {mode!r}")
    if mode == TWO_STEP:
        return _run_two_step(lb, rule, **params)
    if mode == BASIC:
        weights: Mapping[str, Fraction] = base_weights(lb)
    else:
        weights = group_weighting(lb).effective
    if rule.score_run is not None:
        parts = rule.score_run(lb, weights, **params)
    else:
        profile = build_profile(lb, missing_ok=rule.handles_missing)
        parts = rule.profile_run(profile, weights, **params)
    return RuleOutcome(
        rule_id=rule.rule_id,
        mode=mode,
        ranking=parts.ranking,
        scores=parts.scores,
        unranked=parts.unranked,
        diagnostics=parts.diagnostics,
    )


def _run_two_step(lb: Leaderboard, rule: Rule, **params: Any) -> RuleOutcome:
    if rule.score_run is not None:
        raise RuleUnsupportedForMode(
            f"rule {rule.rule_id!r} aggregates raw scores and has no second-step ballot form"
        )
    if not rule.elector:
        raise RuleUnsupportedForMode(
            f"rule {rule.rule_id!r} does not produce a total ranking usable as a ballot"
        )
    groups = _covering_groups(lb)
    weights = base_weights(lb)
    index = {m: i for i, m in enumerate(lb.systems)}
    electors: dict[str, list[list[str]]] = {}
    orders = []
    for name, members in groups:
        profile = build_profile(lb, members, missing_ok=rule.handles_missing)
        parts = rule.profile_run(profile, {t: weights[t] for t in members}, **params)
        if parts.unranked:
            raise RuleUnsupportedForMode(
                f"rule {rule.rule_id!r} left systems unranked inside group {name!r}"
            )
        electors[name] = [sorted(group) for group in parts.ranking]
        orders.append(tuple([
            tuple(sorted([index[m] for m in group])) for group in parts.ranking
        ]))
    synthetic = RankProfile(
        systems=lb.systems,
        tasks=tuple([name for name, _ in groups]),
        orders=tuple(orders),
    )
    unit = {name: Fraction(1) for name, _ in groups}
    parts = rule.profile_run(synthetic, unit, **params)
    diagnostics = dict(parts.diagnostics)
    diagnostics["electors"] = electors
    return RuleOutcome(
        rule_id=rule.rule_id,
        mode=TWO_STEP,
        ranking=parts.ranking,
        scores=parts.scores,
        unranked=parts.unranked,
        diagnostics=diagnostics,
    )
