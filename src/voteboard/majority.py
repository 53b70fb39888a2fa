"""Pairwise-majority relation and the rules built on it.

For systems a and b, each task contributes its weight with sign +1 when it
ranks a strictly above b, -1 when strictly below, and 0 on a tie or when
either score is missing. a dominates b when the signed sum is positive, so
missing cells shrink the evidence for a pair instead of being imputed.

The relation is held as one integer matrix of pairwise counts in
LCM-scaled weight units (RankTable.pairwise). A margin or support becomes a
Fraction only when read, and each system's dominated and dominator sets are
computed once per graph from the integer rows. The copeland rules and
minimax read their integer scores straight from the rows, without a graph,
and hand them to model.ranked_by; condorcet and the set rules hand their
winners to model.chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import gt
from typing import Callable, Mapping

from .errors import SearchTooLarge
from .model import Leaderboard, RankTable, RuleOutcome, build_profile, chosen, ranked_by
from .modes import Rule, base_weights

# exhaustive weakly-stable search is exponential in the dominant component
_WEAKLY_STABLE_LIMIT = 18


@dataclass(frozen=True)
class MajorityGraph:
    """Pairwise counts of a profile, read as a majority relation.

    counts[i][j] is the weight of the tasks ranking systems[i] strictly above
    systems[j], in units of 1/scale. margin(a, b) is the weighted signed
    comparison count; an edge a -> b exists when it is positive.
    support(a, b) is the weight of tasks ranking a strictly above b if that
    edge exists, else 0. Both are returned as exact Fractions.
    """

    systems: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]
    scale: int

    @cached_property
    def _index(self) -> dict[str, int]:
        return {m: i for i, m in enumerate(self.systems)}

    @cached_property
    def _lower_upper(self) -> tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]]:
        names = self.systems
        lower: dict[str, frozenset[str]] = {}
        upper: dict[str, frozenset[str]] = {}
        for a, row, col in zip(names, self.counts, zip(*self.counts)):
            lower[a] = frozenset(b for b, x, y in zip(names, row, col) if x > y)
            upper[a] = frozenset(b for b, x, y in zip(names, row, col) if y > x)
        return lower, upper

    def margin(self, a: str, b: str) -> Fraction:
        i, j = self._index[a], self._index[b]
        return Fraction(self.counts[i][j] - self.counts[j][i], self.scale)

    def support(self, a: str, b: str) -> Fraction:
        i, j = self._index[a], self._index[b]
        above, below = self.counts[i][j], self.counts[j][i]
        return Fraction(above if above > below else 0, self.scale)

    def beats(self, a: str, b: str) -> bool:
        i, j = self._index[a], self._index[b]
        return self.counts[i][j] > self.counts[j][i]

    def dominated(self, m: str) -> frozenset[str]:
        """L(m): systems that m beats."""
        return self._lower_upper[0][m]

    def dominators(self, m: str) -> frozenset[str]:
        """U(m): systems that beat m."""
        return self._lower_upper[1][m]

    def edges(self) -> tuple[tuple[str, str], ...]:
        names = self.systems
        return tuple(
            (a, b)
            for a, row, col in zip(names, self.counts, zip(*self.counts))
            for b, x, y in zip(names, row, col)
            if x > y
        )


def majority_graph_from_table(table: RankTable) -> MajorityGraph:
    return MajorityGraph(table.systems, table.pairwise(), table.scale)


def build_majority_graph(lb: Leaderboard) -> MajorityGraph:
    """Majority graph of a leaderboard, tolerating missing cells."""
    table = RankTable.of(build_profile(lb, missing_ok=True), base_weights(lb))
    return majority_graph_from_table(table)


def condorcet_winner(graph: MajorityGraph) -> str | None:
    """The system beating every other one strictly, if any."""
    rivals = len(graph.systems) - 1
    for m in graph.systems:
        if len(graph.dominated(m)) == rivals:
            return m
    return None


def _closure(seed: str, expand: Mapping[str, frozenset[str]]) -> frozenset[str]:
    seen = {seed}
    todo = [seed]
    while todo:
        fresh = expand[todo.pop()] - seen
        seen |= fresh
        todo.extend(fresh)
    return frozenset(seen)


def minimal_dominant_set(graph: MajorityGraph) -> frozenset[str]:
    """Smallest set whose members all beat every outside system.

    A member of a dominant set D beats all n - |D| outsiders, and an
    outsider beats at most n - |D| - 1 systems, none of them in D. So every
    dominant set is a prefix of the systems in order of wins, and the
    minimal one is the shortest prefix whose members beat everyone after it.
    """
    order = sorted(graph.systems, key=lambda m: len(graph.dominated(m)), reverse=True)
    for k in range(1, len(order)):
        rest = frozenset(order[k:])
        if all(rest <= graph.dominated(m) for m in order[:k]):
            return frozenset(order[:k])
    return frozenset(order)


def minimal_undominated_set(graph: MajorityGraph) -> frozenset[str]:
    """Union of all inclusion-minimal sets no outsider beats into."""
    upper = {m: graph.dominators(m) for m in graph.systems}
    distinct = {_closure(m, upper) for m in graph.systems}
    minimal = [c for c in distinct if not any(o < c for o in distinct)]
    out: set[str] = set()
    for c in minimal:
        out |= c
    return frozenset(out)


def _undominated_under(
    graph: MajorityGraph, wins_over: Callable[[str, str], bool]
) -> frozenset[str]:
    return frozenset(
        a
        for a in graph.systems
        if not any(b != a and wins_over(b, a) for b in graph.systems)
    )


def uncovered_set(graph: MajorityGraph, variant: str = "I") -> frozenset[str]:
    """Systems not covered: variant I compares the sets they beat, variant II
    additionally requires a majority edge and compares the sets beating them."""
    if variant not in ("I", "II"):
        raise ValueError("variant must be 'I' or 'II'")
    lower = {m: graph.dominated(m) for m in graph.systems}
    upper = {m: graph.dominators(m) for m in graph.systems}
    if variant == "I":
        return _undominated_under(graph, lambda b, a: lower[b] > lower[a])
    return _undominated_under(
        graph, lambda b, a: a in lower[b] and upper[b] <= upper[a]
    )


def richelson_set(graph: MajorityGraph) -> frozenset[str]:
    lower = {m: graph.dominated(m) for m in graph.systems}
    upper = {m: graph.dominators(m) for m in graph.systems}

    def wins(b: str, a: str) -> bool:
        return (
            lower[b] >= lower[a]
            and upper[b] <= upper[a]
            and (lower[b] > lower[a] or upper[b] < upper[a])
        )

    return _undominated_under(graph, wins)


def fishburn_set(graph: MajorityGraph) -> frozenset[str]:
    upper = {m: graph.dominators(m) for m in graph.systems}
    return _undominated_under(graph, lambda b, a: upper[b] < upper[a])


def _is_weakly_stable(graph: MajorityGraph, candidate: frozenset[str]) -> bool:
    for x in candidate:
        for y in graph.dominators(x) - candidate:
            if not graph.dominators(y) & candidate:
                return False
    return True


def minimal_weakly_stable_set(graph: MajorityGraph) -> frozenset[str]:
    """Union of all inclusion-minimal weakly stable sets.

    A set is weakly stable when every outside threat to a member is itself
    beaten from inside. Every minimal weakly stable set lives inside the
    minimal dominant set, which keeps the subset search small.
    """
    pool = sorted(minimal_dominant_set(graph))
    if len(pool) > _WEAKLY_STABLE_LIMIT:
        raise SearchTooLarge(
            f"dominant component of size {len(pool)} is too large for exhaustive search"
        )
    found: list[frozenset[str]] = []
    for size in range(1, len(pool) + 1):
        for combo in combinations(pool, size):
            candidate = frozenset(combo)
            if any(smaller <= candidate for smaller in found):
                continue
            if _is_weakly_stable(graph, candidate):
                found.append(candidate)
    union: set[str] = set()
    for q in found:
        union |= q
    return frozenset(union)


# -- registry wiring ------------------------------------------------------


def _condorcet_run(table: RankTable) -> RuleOutcome:
    winner = condorcet_winner(majority_graph_from_table(table))
    winners = frozenset() if winner is None else frozenset({winner})
    return chosen(table.systems, winners, diagnostics={"condorcet_winner": winner})


def _copeland_run(score: Callable[[int, int], int], *, ascending: bool = False):
    """A rule ranking by score(wins, losses), each the count of rivals."""

    def run(table: RankTable) -> RuleOutcome:
        counts = table.pairwise()
        scores = {}
        for m, row, col in zip(table.systems, counts, zip(*counts)):
            # m beats a rival when its count over it (row) beats the rival's (col)
            scores[m] = score(sum(map(gt, row, col)), sum(map(gt, col, row)))
        order = "ascending" if ascending else "descending"
        return ranked_by(scores, 1, ascending=ascending, diagnostics={"score_order": order})

    return run


def _minimax_run(table: RankTable) -> RuleOutcome:
    """0 for undefeated systems, else minus the strongest defeat's support."""
    counts = table.pairwise()
    scores = {}
    for m, row, col in zip(table.systems, counts, zip(*counts)):
        # a rival defeats m when its count over m (col) beats m's over it (row)
        scores[m] = -max([x for x, lost in zip(col, row) if x > lost], default=0)
    return ranked_by(scores, table.scale)


def _set_rule_run(chooser: Callable[[MajorityGraph], frozenset[str]]):
    def run(table: RankTable) -> RuleOutcome:
        return chosen(table.systems, chooser(majority_graph_from_table(table)))

    return run


RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule("condorcet", profile_run=_condorcet_run, handles_missing=True, elector=False),
        Rule("copeland", profile_run=_copeland_run(lambda wins, losses: wins - losses),
             handles_missing=True),
        Rule("copeland2", profile_run=_copeland_run(lambda wins, losses: wins),
             handles_missing=True),
        # copeland3 counts losses, so fewer is better
        Rule("copeland3", profile_run=_copeland_run(lambda wins, losses: losses, ascending=True),
             handles_missing=True),
        Rule("minimax", profile_run=_minimax_run, handles_missing=True),
        Rule("minimal_dominant", profile_run=_set_rule_run(minimal_dominant_set),
             handles_missing=True, elector=False),
        Rule("minimal_undominated", profile_run=_set_rule_run(minimal_undominated_set),
             handles_missing=True, elector=False),
        Rule("uncovered", profile_run=_set_rule_run(lambda g: uncovered_set(g, "I")),
             handles_missing=True, elector=False),
        Rule("uncovered2", profile_run=_set_rule_run(lambda g: uncovered_set(g, "II")),
             handles_missing=True, elector=False),
        Rule("richelson", profile_run=_set_rule_run(richelson_set),
             handles_missing=True, elector=False),
        Rule("fishburn", profile_run=_set_rule_run(fishburn_set),
             handles_missing=True, elector=False),
        Rule("weakly_stable", profile_run=_set_rule_run(minimal_weakly_stable_set),
             handles_missing=True, elector=False),
    )
}
