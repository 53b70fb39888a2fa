"""Positional scoring rules.

A scoring vector c assigns c[p] points for finishing in place p. A system's
total is the weighted sum over tasks; a tie group of size g spanning places
p..p+g-1 earns each member the mean of those entries, which is the same as
splitting the group's position mass evenly.

Totals are summed in integers from a RankTable's tie orders: the vector
entries are scaled by the LCM L of their denominators and the task weights
by the table's mass unit, and each tie group adds the sum of the scaled
entries over the places it spans; an untied system adds its one place's
entry times the weight, without the per-member split. The totals and their
unit, mass_unit * L, go to model.ranked_by, which makes each total a
Fraction once.

The named rules build their scaled entries as integers, with L computed
once per call (the LCM of 1..n for dowdall, 1 for the others), and build
no ScoringVector: their "vector" diagnostic, the Fractions e / L, is made
when the outcome's diagnostics are first read. custom checks its vector
as a ScoringVector and keeps its entries as its diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

from .errors import InvalidParameter, MissingScore, VectorLengthMismatch
from .model import LazyDiagnostics, RankTable, RuleOutcome, as_fraction, ranked_by
from .modes import Rule


@dataclass(frozen=True)
class ScoringVector:
    """Non-increasing score-per-place vector with at least one entry.

    The constructors build entries from lists, for the reason the model
    module gives.
    """

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise InvalidParameter("a scoring vector cannot be empty")
        for a, b in zip(self.entries, self.entries[1:]):
            if b > a:
                raise InvalidParameter("scoring vector entries must be non-increasing")

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def plurality(cls, n: int) -> "ScoringVector":
        return cls._top_k(n, 1)

    @classmethod
    def two_approval(cls, n: int) -> "ScoringVector":
        return cls._top_k(n, 2)

    @classmethod
    def antiplurality(cls, n: int) -> "ScoringVector":
        # everything but last place scores a point
        return cls._top_k(n, n - 1) if n != 1 else cls((Fraction(0),))

    @classmethod
    def top_k(cls, n: int, k: int) -> "ScoringVector":
        if not 1 <= k <= n:
            raise InvalidParameter("k must be between 1 and n")
        return cls._top_k(n, k)

    @classmethod
    def _top_k(cls, n: int, k: int) -> "ScoringVector":
        k = min(k, n)
        return cls(tuple([Fraction(1 if p < k else 0) for p in range(n)]))

    @classmethod
    def borda(cls, n: int) -> "ScoringVector":
        return cls(tuple([Fraction(n - 1 - p) for p in range(n)]))

    @classmethod
    def dowdall(cls, n: int) -> "ScoringVector":
        return cls(tuple([Fraction(1, p + 1) for p in range(n)]))

    @classmethod
    def custom(cls, values: Sequence[int | float | Fraction | str]) -> "ScoringVector":
        try:
            entries = tuple([as_fraction(v) for v in values])
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(f"bad scoring vector: {exc}") from None
        vec = cls(entries)
        if len(set(vec.entries)) == 1:
            raise InvalidParameter("a custom scoring vector must not be constant")
        return vec


def _scaled(vector: ScoringVector) -> tuple[list[int], int]:
    """The vector's entries scaled by the LCM of their denominators, and that LCM."""
    lcm = math.lcm(*{e.denominator for e in vector.entries})
    return [e.numerator * (lcm // e.denominator) for e in vector.entries], lcm


def _integer_totals(
    table: RankTable, entries: Sequence[int], lcm: int
) -> tuple[dict[str, int], int]:
    """Per-system totals as integers, and the denominator they share, for
    the vector whose entries scaled by lcm are entries.

    A tie group of size g adds w / g times the scaled entries it spans, a
    whole number since mass_unit / scale is divisible by every group size.
    """
    n = len(table.systems)
    if len(entries) != n:
        raise VectorLengthMismatch(f"vector has {len(entries)} entries for {n} systems")
    for task, groups in zip(table.tasks, table.orders):
        if sum(map(len, groups)) != n:
            raise MissingScore(f"task {task!r} does not rank every system")
    prefix = [0]
    for e in entries:
        prefix.append(prefix[-1] + e)
    per_weight = table.mass_unit // table.scale
    totals = [0] * n
    for groups, w in zip(table.orders, table.weights):
        w *= per_weight
        place = 0
        for group in groups:
            if len(group) == 1:
                totals[group[0]] += (prefix[place + 1] - prefix[place]) * w
                place += 1
                continue
            share = (prefix[place + len(group)] - prefix[place]) * (w // len(group))
            for a in group:
                totals[a] += share
            place += len(group)
    return dict(zip(table.systems, totals)), table.mass_unit * lcm


def score_with_vector(table: RankTable, vector: ScoringVector) -> dict[str, Fraction]:
    """Exact per-system totals for one vector over a complete table, under
    the table's task weights."""
    totals, unit = _integer_totals(table, *_scaled(vector))
    return {m: Fraction(x, unit) for m, x in totals.items()}


def _dowdall(n: int) -> tuple[list[int], int]:
    lcm = math.lcm(*range(1, n + 1))
    return [lcm // p for p in range(1, n + 1)], lcm


# each named rule's entries on n places as integers, and the scale they share:
# ScoringVector.<rule>(n).entries times the LCM of their denominators
NAMED_ENTRIES: dict[str, Callable[[int], tuple[list[int], int]]] = {
    "plurality": lambda n: ([1] + [0] * (n - 1), 1),
    "two_approval": lambda n: ([1] * min(2, n) + [0] * (n - 2), 1),
    # everything but last place scores a point
    "antiplurality": lambda n: ([1] * (n - 1) + [0], 1),
    "borda": lambda n: (list(range(n - 1, -1, -1)), 1),
    "dowdall": _dowdall,
}


def _vector_diagnostics(entries: list[int], lcm: int) -> dict[str, Any]:
    """A named rule's diagnostics: its vector, the scaled entries over lcm."""
    return {"vector": tuple([Fraction(e, lcm) for e in entries])}


def _named(rule_id: str) -> Rule:
    scaled = NAMED_ENTRIES[rule_id]

    def run(table: RankTable) -> RuleOutcome:
        entries, lcm = scaled(len(table.systems))
        return ranked_by(*_integer_totals(table, entries, lcm),
                         diagnostics=LazyDiagnostics(_vector_diagnostics, entries, lcm))

    return Rule(rule_id, profile_run=run)


def _custom_run(
    table: RankTable,
    *,
    vector: ScoringVector | Sequence[int | float | Fraction | str] | None = None,
) -> RuleOutcome:
    if vector is None:
        raise InvalidParameter("custom scoring needs a vector")
    if not isinstance(vector, ScoringVector):
        vector = ScoringVector.custom(vector)
    return ranked_by(*_integer_totals(table, *_scaled(vector)),
                     diagnostics={"vector": vector.entries})


RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        *[_named(rule_id) for rule_id in NAMED_ENTRIES],
        Rule("custom", profile_run=_custom_run),
    )
}
