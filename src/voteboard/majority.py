"""Pairwise-majority relation and the rules built on it.

For systems a and b, each task contributes its weight with sign +1 when it
ranks a strictly above b, -1 when strictly below, and 0 on a tie or when
either score is missing. a dominates b when the signed sum is positive, so
missing cells shrink the evidence for a pair instead of being imputed.

The relation is held as one integer matrix of pairwise counts in
LCM-scaled weight units (RankTable.pairwise). A margin or support becomes a
Fraction only when read, and each system's dominated and dominator sets are
computed once per graph from the integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, Mapping

from .errors import SearchTooLarge
from .model import Leaderboard, RankTable, RuleOutcome, build_profile, group_by_score
from .modes import Rule, base_weights

COPELAND_VARIANTS = ("I", "II", "III")

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


def copeland_scores(graph: MajorityGraph, variant: str = "I") -> dict[str, Fraction]:
    if variant not in COPELAND_VARIANTS:
        raise ValueError(f"variant must be one of {COPELAND_VARIANTS}")
    scores: dict[str, Fraction] = {}
    for m in graph.systems:
        wins = len(graph.dominated(m))
        losses = len(graph.dominators(m))
        if variant == "I":
            scores[m] = Fraction(wins - losses)
        elif variant == "II":
            scores[m] = Fraction(wins)
        else:
            scores[m] = Fraction(losses)
    return scores


def minimax_scores(graph: MajorityGraph) -> dict[str, Fraction]:
    """0 for undefeated systems, else minus the strongest defeat's support."""
    counts = graph.counts
    scores: dict[str, Fraction] = {}
    for i, m in enumerate(graph.systems):
        # rival j defeats m when counts[j][i] > counts[i][j], with support counts[j][i]
        defeats = [row[i] for row, lost in zip(counts, counts[i]) if row[i] > lost]
        scores[m] = Fraction(-max(defeats, default=0), graph.scale)
    return scores


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

    Dominant sets are totally ordered by inclusion, so the minimal one is
    the smallest closure of a single system under "fails to beat".
    """
    everyone = frozenset(graph.systems)
    needs = {x: everyone - graph.dominated(x) - {x} for x in graph.systems}
    best: frozenset[str] | None = None
    for m in graph.systems:
        c = _closure(m, needs)
        if best is None or len(c) < len(best):
            best = c
    assert best is not None
    return best


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
    if winner is None:
        return RuleOutcome(
            unranked=frozenset(table.systems),
            diagnostics={"condorcet_winner": None},
        )
    return RuleOutcome(
        ranking=(frozenset({winner}),),
        unranked=frozenset(m for m in table.systems if m != winner),
        diagnostics={"condorcet_winner": winner},
    )


def _copeland_run(variant: str):
    # copeland3 counts losses, so fewer is better
    ascending = variant == "III"

    def run(table: RankTable) -> RuleOutcome:
        scores = copeland_scores(majority_graph_from_table(table), variant)
        return RuleOutcome(
            ranking=group_by_score(scores, ascending=ascending),
            scores=scores,
            diagnostics={"score_order": "ascending" if ascending else "descending"},
        )

    return run


def _minimax_run(table: RankTable) -> RuleOutcome:
    scores = minimax_scores(majority_graph_from_table(table))
    return RuleOutcome(ranking=group_by_score(scores), scores=scores)


def _set_rule_run(chooser: Callable[[MajorityGraph], frozenset[str]]):
    def run(table: RankTable) -> RuleOutcome:
        winners = chooser(majority_graph_from_table(table))
        return RuleOutcome(
            ranking=(winners,),
            unranked=frozenset(m for m in table.systems if m not in winners),
        )

    return run


RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule("condorcet", profile_run=_condorcet_run, handles_missing=True, elector=False),
        Rule("copeland", profile_run=_copeland_run("I"), handles_missing=True),
        Rule("copeland2", profile_run=_copeland_run("II"), handles_missing=True),
        Rule("copeland3", profile_run=_copeland_run("III"), handles_missing=True),
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
