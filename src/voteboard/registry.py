"""All named rules in one table, plus the aggregate() entry point."""

from __future__ import annotations

from typing import Any

from . import iterative, majority, metrics, scoring
from .errors import UnknownRule
from .model import Leaderboard, RuleOutcome
from .modes import BASIC, Rule, run_rule

RULES: dict[str, Rule] = {
    **scoring.RULES,
    **iterative.RULES,
    **majority.RULES,
    **metrics.RULES,
}


def rule_ids() -> tuple[str, ...]:
    return tuple(sorted(RULES))


def get_rule(rule_id: str) -> Rule:
    try:
        return RULES[rule_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id, such as a list
        raise UnknownRule(f"unknown rule: {rule_id!r}") from None


def aggregate(
    lb: Leaderboard, rule: str, mode: str = BASIC, **params: Any
) -> RuleOutcome:
    """Apply a registered rule to a leaderboard under the chosen mode.

    params are the rule's keyword parameters: vector for custom, gamma for
    optimality_gap. Any other keyword raises InvalidParameter.
    """
    return run_rule(lb, get_rule(rule), mode, **params)
