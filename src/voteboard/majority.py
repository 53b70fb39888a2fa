"""Pairwise-majority relation and the rules built on it.

For systems a and b, each task contributes its weight with sign +1 when it
ranks a strictly above b, -1 when strictly below, and 0 on a tie or when
either score is missing. a dominates b when the signed sum is positive, so
missing cells shrink the evidence for a pair instead of being imputed.

The counts are one integer matrix in LCM-scaled weight units
(RankTable.pairwise); a margin or support becomes a Fraction only when read.
Each graph builds two bitmasks per system once: the systems it beats and
those beating it. condorcet counts their bits, and the set rules are subset
tests on them; dominated, dominators and edges build frozensets from them
when read. The copeland rules and minimax are each one PairScore, a term
per rival folded over its row and column of counts, without a graph: its
whole-table scores go, in system index order, to model.ranked_by, and iia
folds each newcomer into its running scores; NET, the net wins, is Borda's
order for baldwin, black and iia. condorcet and the set rules run the
choosers on index_graph, so they hand winning indices to model.chosen. Both
return a model.IndexOutcome on the system indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import combinations, compress, repeat
from operator import add, gt, lt, mul, or_, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import SearchTooLarge
from .model import IndexOutcome, Leaderboard, RankTable, build_profile, chosen, ranked_by
from .model import tie_groups
from .modes import Rule

# exhaustive weakly-stable search is exponential in the dominant component
_WEAKLY_STABLE_LIMIT = 18


def _picked(items: Sequence, mask: int) -> Iterator:
    """The items at the set bits of mask, in order: bit i picks items[i]."""
    return compress(items, map("1".__eq__, reversed(f"{mask:b}")))


@dataclass(frozen=True)
class MajorityGraph:
    """Pairwise counts of a rank table, read as a majority relation.

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
    def _masks(self) -> tuple[list[int], list[int]]:
        """(beats, beaten): bit j of beats[i] is set when systems[i] beats
        systems[j], and bit j of beaten[i] when systems[j] beats systems[i]."""
        bits = [1 << j for j in range(len(self.systems))]
        beats, beaten = [], []
        for row, col in zip(self.counts, zip(*self.counts)):
            beats.append(sum(compress(bits, map(gt, row, col))))
            beaten.append(sum(compress(bits, map(gt, col, row))))
        return beats, beaten

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
        return frozenset(_picked(self.systems, self._masks[0][self._index[m]]))

    def dominators(self, m: str) -> frozenset[str]:
        """U(m): systems that beat m."""
        return frozenset(_picked(self.systems, self._masks[1][self._index[m]]))

    def edges(self) -> tuple[tuple[str, str], ...]:
        names = self.systems
        return tuple([(a, b) for a, mask in zip(names, self._masks[0])
                      for b in _picked(names, mask)])


def index_graph(table: RankTable) -> MajorityGraph:
    """The table's majority graph with system i labelled i."""
    return MajorityGraph(tuple(range(len(table.systems))), table.pairwise(), table.scale)


def build_majority_graph(lb: Leaderboard) -> MajorityGraph:
    """Majority graph of a leaderboard, tolerating missing cells."""
    table = build_profile(lb, missing_ok=True)
    return MajorityGraph(table.systems, table.pairwise(), table.scale)


def condorcet_winner(graph: MajorityGraph) -> str | None:
    """The system beating every other one strictly, if any."""
    rivals = len(graph.systems) - 1
    for m, mask in zip(graph.systems, graph._masks[0]):
        if mask.bit_count() == rivals:
            return m
    return None


def minimal_dominant_set(graph: MajorityGraph) -> frozenset[str]:
    """Smallest set whose members all beat every outside system.

    A member of a dominant set D beats all n - |D| outsiders, and an
    outsider beats at most n - |D| - 1 systems, none of them in D. So every
    dominant set is a prefix of the systems in order of wins, and the
    minimal one is the shortest prefix whose members beat everyone after it.
    """
    beats = graph._masks[0]
    order = sorted(range(len(beats)), key=lambda i: beats[i].bit_count(), reverse=True)
    everyone = rest = common = (1 << len(beats)) - 1
    for i in order[:-1]:
        rest ^= 1 << i
        common &= beats[i]
        if common & rest == rest:
            return frozenset(_picked(graph.systems, everyone ^ rest))
    return frozenset(graph.systems)


def minimal_undominated_set(graph: MajorityGraph) -> frozenset[str]:
    """Union of all inclusion-minimal sets no outsider beats into.

    reach[i], the closure of system i under "is beaten by", is the OR
    fixpoint of the beaten masks, found for all systems by Warshall's sweep.
    """
    reach = [(1 << i) | mask for i, mask in enumerate(graph._masks[1])]
    for k in range(len(reach)):
        bit, via = 1 << k, reach[k]
        for i, r in enumerate(reach):
            if r & bit:
                reach[i] = r | via
    distinct = set(reach)
    minimal = [c for c in distinct if not any(o & c == o and o != c for o in distinct)]
    return frozenset(_picked(graph.systems, reduce(or_, minimal, 0)))


def _uncovered_under(graph: MajorityGraph, covers: Callable[[int, int], bool]) -> frozenset[str]:
    """The systems a that no system b covers; covers(b, a) is false for b == a.
    In the covering tests on masks, x & y == x says x is a subset of y."""
    every = range(len(graph.systems))
    return frozenset([graph.systems[a] for a in every if not any(covers(b, a) for b in every)])


def uncovered_set(graph: MajorityGraph, variant: str = "I") -> frozenset[str]:
    """Systems not covered: variant I compares the sets they beat, variant II
    additionally requires a majority edge and compares the sets beating them."""
    if variant not in ("I", "II"):
        raise ValueError("variant must be 'I' or 'II'")
    beats, beaten = graph._masks
    if variant == "I":
        return _uncovered_under(graph, lambda b, a: beats[a] & beats[b] == beats[a] != beats[b])
    return _uncovered_under(
        graph, lambda b, a: beats[b] >> a & 1 and beaten[b] & beaten[a] == beaten[b])


def richelson_set(graph: MajorityGraph) -> frozenset[str]:
    beats, beaten = graph._masks
    return _uncovered_under(graph, lambda b, a: (
        beats[a] & beats[b] == beats[a] and beaten[b] & beaten[a] == beaten[b]
        and (beats[a], beaten[a]) != (beats[b], beaten[b])
    ))


def fishburn_set(graph: MajorityGraph) -> frozenset[str]:
    beaten = graph._masks[1]
    return _uncovered_under(graph, lambda b, a: beaten[b] & beaten[a] == beaten[b] != beaten[a])


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
    index, beaten = graph._index, graph._masks[1]
    found: list[int] = []
    for size in range(1, len(pool) + 1):
        for combo in combinations([index[m] for m in pool], size):
            candidate = sum([1 << i for i in combo])
            if any(smaller & candidate == smaller for smaller in found):
                continue
            threats = reduce(or_, [beaten[i] for i in combo]) & ~candidate
            if all(mask & candidate for mask in _picked(beaten, threats)):
                found.append(candidate)
    return frozenset(_picked(graph.systems, reduce(or_, found, 0)))


# -- registry wiring ------------------------------------------------------


def _condorcet_run(table: RankTable) -> IndexOutcome:
    w = condorcet_winner(index_graph(table))
    named = None if w is None else table.systems[w]
    return chosen(() if w is None else (w,), len(table.systems), {"condorcet_winner": named})


# per row (system), whether it beats, or loses to, each rival
_wins, _losses = partial(map, map, repeat(gt)), partial(map, map, repeat(lt))


class PairScore(NamedTuple):
    """A score folding one term per rival: plus and minus, or None for no
    terms, map rows and columns of counts (a system's over each rival, mine,
    and each rival's over it, theirs) to each row's terms, which count where
    when, if given, is true. fold, sum or the largest, folds each side from 0:
    the score is plus's fold less minus's, the lowest first if ascending."""

    plus: Callable | None
    minus: Callable | None = None
    fold: Callable[[Iterable[int]], int] = sum
    when: Callable | None = None
    ascending: bool = False

    def scores(self, counts: Sequence[Sequence[int]]) -> list[int]:
        """Each system's score on a whole table's counts, in index order."""
        cols = list(zip(*counts))
        folds = [repeat(0) if side is None else map(self.fold, side(counts, cols) if not self.when
                 else map(compress, side(counts, cols), self.when(counts, cols)))
                 for side in (self.plus, self.minus)]
        return list(map(sub, *folds))

    def running(self, counts: Sequence[Sequence[int]]) -> Iterator[list[tuple[int, ...]]]:
        """The tie groups of each prefix of two systems or more, the newcomer
        folding one term into each earlier system's sides and its own."""
        join = add if self.fold is sum else max
        kept: list[list[int]] = [[], []]
        for c, (row, col) in enumerate(zip(counts, zip(*counts))):
            # the earlier systems' counts over the newcomer are its column
            rows, cols = (col[:c], row[:c]), (row[:c], col[:c])
            for i, side in enumerate((self.plus, self.minus)):
                if side is None:
                    kept[i].append(0)
                    continue
                # the earlier systems' terms against the newcomer, and the newcomer's
                earlier, own = side(rows, cols)
                if self.when:
                    earlier_counted, own_counted = self.when(rows, cols)
                    earlier, own = map(mul, earlier, earlier_counted), compress(own, own_counted)
                kept[i] = [*map(join, kept[i], earlier), self.fold(own)]
            if c:
                yield tie_groups(list(map(sub, *kept)), ascending=self.ascending)

    def run(self, table: RankTable) -> IndexOutcome:
        """The core: minimax in scaled weight, copeland rules in rivals and their order."""
        scores = self.scores(table.pairwise())
        if self.fold is not sum:
            return ranked_by(scores, table.scale)
        order = "ascending" if self.ascending else "descending"
        return ranked_by(scores, 1, ascending=self.ascending, diagnostics={"score_order": order})


# wins less losses in scaled weight, which orders a complete table as Borda
NET = PairScore(lambda rows, cols: rows, lambda rows, cols: cols)
PAIR_SCORES = {
    "copeland": PairScore(_wins, _losses),
    "copeland2": PairScore(_wins),
    # copeland3 counts losses, so fewer is better
    "copeland3": PairScore(_losses, ascending=True),
    # 0 for undefeated systems, else minus the strongest defeat's support
    "minimax": PairScore(None, lambda rows, cols: cols, partial(max, default=0), _losses),
}


def _set_rule(rule_id: str, chooser: Callable[[MajorityGraph], frozenset[int]]) -> Rule:
    """A rule whose chosen systems tie first, the others left unranked."""

    def run(table: RankTable) -> IndexOutcome:
        return chosen(sorted(chooser(index_graph(table))), len(table.systems))

    return Rule(rule_id, run, handles_missing=True, elector=False)


RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule("condorcet", _condorcet_run, handles_missing=True, elector=False),
        *[Rule(rid, pair.run, handles_missing=True) for rid, pair in PAIR_SCORES.items()],
        _set_rule("minimal_dominant", minimal_dominant_set),
        _set_rule("minimal_undominated", minimal_undominated_set),
        _set_rule("uncovered", lambda g: uncovered_set(g, "I")),
        _set_rule("uncovered2", lambda g: uncovered_set(g, "II")),
        _set_rule("richelson", richelson_set),
        _set_rule("fishburn", fishburn_set),
        _set_rule("weakly_stable", minimal_weakly_stable_set),
    )
}
