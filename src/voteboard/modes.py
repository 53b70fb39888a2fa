"""Aggregation modes: basic, weighted, and two-step.

A rule reads the task weights of the board it is given, and a mode only
chooses that board. basic applies a rule once to the board as it is.
weighted applies it once to the board with each task's weight divided by
the size of its group, so every group contributes equally in total.
two_step runs the rule inside each group to get an interim ranking, then
treats each group as a single voter whose ballot is that ranking, a tie
order over the systems, and applies the rule once more. Both grouped modes
require a grouping that covers every task.

The runner contract: every rule has one runner, its core, called as
run(data, **params). data is what Rule.data gives for the mode's board:
that board for an on_board rule, else its RankTable, built once with
build_profile. The core returns a model.IndexOutcome on the data's
system indices, which run_rule names at its one return, as a RuleOutcome
stamped with the rule and mode; the experiment loops call the core and
name nothing. two_step's groups vote with their index tie groups, and it
adds the "electors" diagnostic to the second step's IndexOutcome through
a model.LazyDiagnostics over that step's diagnostics, so neither is
built before they are read.
"""

from __future__ import annotations

import inspect
from dataclasses import KW_ONLY, dataclass
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

from .errors import InvalidParameter, MissingGroups, RuleUnsupportedForMode, UnknownRule
from .model import IndexOutcome, LazyDiagnostics, Leaderboard, RankTable, RuleOutcome
from .model import build_profile

BASIC = "basic"
WEIGHTED = "weighted"
TWO_STEP = "two_step"
MODES = (BASIC, WEIGHTED, TWO_STEP)


@dataclass(frozen=True)
class Rule:
    """A registered rule.

    run(data, **params) -> IndexOutcome is its core, and data(lb) what it
    reads: a RankTable built from the mode's board, or with on_board set
    that board, for the score baselines. elector marks rules whose full output is a total
    preorder, the only kind that can vote in the second step of two_step.
    The keyword-only parameters of run are the only params the rule accepts.
    """

    rule_id: str
    run: Callable[..., IndexOutcome]
    _: KW_ONLY
    on_board: bool = False
    handles_missing: bool = False
    elector: bool = True

    @cached_property
    def params(self) -> frozenset[str]:
        """Names of the keyword parameters the rule accepts."""
        return frozenset([
            name for name, p in inspect.signature(self.run).parameters.items()
            if p.kind is p.KEYWORD_ONLY
        ])

    def data(self, lb: Leaderboard, tasks: Sequence[str] | None = None) -> RankTable | Leaderboard:
        """What the core reads of the board: the board itself for an on_board
        rule, else its table on the tasks (default: all), built with
        build_profile, which refuses a hole unless the rule handles missing
        scores."""
        if self.on_board:
            return lb
        return build_profile(lb, tasks, missing_ok=self.handles_missing)


def _covering_groups(lb: Leaderboard) -> tuple[tuple[str, tuple[str, ...]], ...]:
    if not lb.groups:
        raise MissingGroups("this mode needs task groups")
    covered = {t for _, members in lb.groups for t in members}
    missing = [t for t in lb.tasks if t not in covered]
    if missing:
        raise MissingGroups(f"tasks outside any group: {missing}")
    return lb.groups


def _weighted(lb: Leaderboard) -> Leaderboard:
    """The board with each task weight divided by the size of its group."""
    size = {t: len(members) for _, members in _covering_groups(lb) for t in members}
    return lb._derived(lb.systems, lb.cells, lb.denominator,
                       tuple([w / size[t] for t, w in zip(lb.tasks, lb.weights)]))


def check_params(rule: Rule, params: Mapping[str, Any]) -> None:
    stray = params.keys() - rule.params
    if stray:
        raise InvalidParameter(
            f"rule {rule.rule_id!r} takes no parameter {', '.join(sorted(stray))}"
        )


def run_rule(lb: Leaderboard, rule: Rule, mode: str = BASIC, **params: Any) -> RuleOutcome:
    """Apply a rule under a mode and stamp the outcome with the rule and mode."""
    if mode not in MODES:
        raise UnknownRule(f"unknown mode: {mode!r}")
    check_params(rule, params)
    if mode == TWO_STEP:
        data, ballots = _second_step(lb, rule, **params)
        out = rule.run(data, **params)
        out = out._replace(diagnostics=LazyDiagnostics(
            _with_electors, out.diagnostics, lb.systems, ballots
        ))
    else:
        data = rule.data(_weighted(lb) if mode == WEIGHTED else lb)
        out = rule.run(data, **params)
    return out.named(data.systems, rule.rule_id, mode)


def _with_electors(diagnostics: Mapping[str, Any] | None, systems: tuple[str, ...],
                   ballots: list[tuple[str, list[tuple[int, ...]]]]) -> dict[str, Any]:
    """The second step's diagnostics, if any, plus "electors": each group's
    ranking, its tie groups as sorted lists of names."""
    electors = {name: [sorted([systems[i] for i in group]) for group in groups]
                for name, groups in ballots}
    return {**(diagnostics or {}), "electors": electors}


def _second_step(
    lb: Leaderboard, rule: Rule, **params: Any
) -> tuple[RankTable, list[tuple[str, list[tuple[int, ...]]]]]:
    """The second step's table, whose tasks are the groups, and each group's
    name and index tie groups, its elector ballot."""
    if rule.on_board:
        raise RuleUnsupportedForMode(
            f"rule {rule.rule_id!r} aggregates raw scores and has no second-step ballot form"
        )
    if not rule.elector:
        raise RuleUnsupportedForMode(
            f"rule {rule.rule_id!r} does not produce a total ranking usable as a ballot"
        )
    groups = _covering_groups(lb)
    # an elector's core ranks every system, so each ballot is a total preorder
    ballots = [(name, rule.run(rule.data(lb, members), **params).groups)
               for name, members in groups]
    # every group votes with unit weight
    table = RankTable._unchecked(
        systems=lb.systems,
        tasks=tuple([name for name, _ in groups]),
        orders=tuple([tuple(ballot) for _, ballot in ballots]),
        weights=(1,) * len(groups),
        scale=1,
    )
    return table, ballots
