"""Positional scoring rules.

A scoring vector c assigns c[p] points for finishing in place p. A system's
total is the weighted sum over tasks; a tie group of size g spanning places
p..p+g-1 earns each member the mean of those entries, which is the same as
splitting the group's position mass evenly.

A scoring vector has one form here, (entries, L): its entries times L, the
LCM of their denominators, as integers. The named rules build theirs as
integers (L is the LCM of 1..n for dowdall, 1 for the others);
_custom_entries checks custom's vector= and scales it. Totals are summed
in integers from a RankTable's tie orders, with the task weights scaled by
the table's mass unit: each tie group adds the sum of the scaled entries
over the places it spans, and an untied system adds its one place's entry
times the weight, without the per-member split. The totals, a list in
system index order, and their unit, mass_unit * L, go to model.ranked_by,
which groups the indices on them; naming the result makes each total a
Fraction once, when read. The "vector" diagnostic, the Fractions e / L, is
made when the outcome's diagnostics are first read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, Sequence

from .errors import InvalidParameter, MissingScore, VectorLengthMismatch
from .model import (IndexOutcome, LazyDiagnostics, RankTable, _number, _sequence, integer_weights,
                    ranked_by)
from .modes import Rule


def _custom_entries(values: Sequence[int | float | Fraction | str]) -> tuple[list[int], int]:
    """custom's vector as integer entries over their LCM, once every entry
    is a finite number and the vector is non-empty, non-increasing and not
    constant. A str is refused, not read as its characters."""
    exact = [_number(v, "scoring vector")
             for v in _sequence(values, "a scoring vector", "entries", InvalidParameter)]
    if not exact:
        raise InvalidParameter("a scoring vector cannot be empty")
    if any(b > a for a, b in zip(exact, exact[1:])):
        raise InvalidParameter("scoring vector entries must be non-increasing")
    # non-increasing, so constant when its ends are equal
    if exact[0] == exact[-1]:
        raise InvalidParameter("a custom scoring vector must not be constant")
    entries, lcm = integer_weights(exact)
    return list(entries), lcm


def _integer_totals(
    table: RankTable, entries: Sequence[int], lcm: int
) -> tuple[list[int], int]:
    """Each system's total as an integer, in index order, and the
    denominator they share, for the vector whose entries scaled by lcm are
    entries.

    A tie group of size g adds w / g times the scaled entries it spans, a
    whole number since mass_unit / scale is divisible by every group size.
    """
    n = len(table.systems)
    if len(entries) != n:
        raise VectorLengthMismatch(f"vector has {len(entries)} entries for {n} systems")
    if not all(table._complete):
        task = table.tasks[table._complete.index(False)]
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
    return totals, table.mass_unit * lcm


def _dowdall(n: int) -> tuple[list[int], int]:
    lcm = math.lcm(*range(1, n + 1))
    return [lcm // p for p in range(1, n + 1)], lcm


# each named rule's entries on n places as integers, and the LCM they are over
NAMED_ENTRIES: dict[str, Callable[[int], tuple[list[int], int]]] = {
    "plurality": lambda n: ([1] + [0] * (n - 1), 1),
    "two_approval": lambda n: ([1] * min(2, n) + [0] * (n - 2), 1),
    # everything but last place scores a point
    "antiplurality": lambda n: ([1] * (n - 1) + [0], 1),
    "borda": lambda n: (list(range(n - 1, -1, -1)), 1),
    "dowdall": _dowdall,
}


def _vector_diagnostics(entries: list[int], lcm: int) -> dict[str, Any]:
    """A positional rule's diagnostics: its vector, the entries over lcm."""
    return {"vector": tuple([Fraction(e, lcm) for e in entries])}


def _scored(table: RankTable, entries: list[int], lcm: int) -> IndexOutcome:
    """Every positional rule's outcome: the ranking by the vector's totals,
    with its "vector" diagnostic built on first read."""
    return ranked_by(*_integer_totals(table, entries, lcm),
                     diagnostics=LazyDiagnostics(_vector_diagnostics, entries, lcm))


def _named(rule_id: str) -> Rule:
    entries_on = NAMED_ENTRIES[rule_id]
    return Rule(rule_id, lambda table: _scored(table, *entries_on(len(table.systems))))


def _custom_run(
    table: RankTable,
    *,
    vector: Sequence[int | float | Fraction | str] | None = None,
) -> IndexOutcome:
    if vector is None:
        raise InvalidParameter("custom scoring needs a vector")
    return _scored(table, *_custom_entries(vector))


RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        *[_named(rule_id) for rule_id in NAMED_ENTRIES],
        Rule("custom", _custom_run),
    )
}
