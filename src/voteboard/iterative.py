"""Iterative rules: threshold tie-breaking and elimination procedures.

baldwin, nanson, hare and coombs run one elimination loop. Each round drops
every survivor at the losing score (the least, below the mean, or the most)
at once, and the loop stops when a round would drop none of them or all of
them, or, in coombs, when a survivor holds a strict majority of the
first-place mass. The final ranking reads the elimination order backwards,
best group first.

Every rule here reads the RankTable that run_rule builds. threshold takes
each task's slot rows from RankTable.place_slots once per call: stage z of
a repetition among k candidates reads only slot k - z (counting from 0) of
every row, and the repetition's winners are then deleted from the rows.
hare and coombs take only the first- or last-place mass column, from
RankTable.edge_masses, which walks each task from that end only as far as
its first surviving group. baldwin, nanson and black take Borda scores
from the pairwise counts, where dropping a system deletes its column.
Both kernels sum integers in LCM-scaled weight units. The diagnostics are
a model.LazyDiagnostics: the loops keep only each threshold stage's
integer scores and pool, and each elimination round's survivor indices
and integer scores. _threshold_diagnostics and _elimination_diagnostics
build the diagnostics dict from them, every score map a model.LazyScores,
when the diagnostics are first read. A round's vector comes from the
integer entries scoring.NAMED_ENTRIES gives (borda for baldwin and
nanson, plurality for hare), or from _last_place for coombs; the loops
keep only its name. Every rule here returns a model.IndexOutcome, its
tie groups and eliminated tiers as system indices, named only when the
diagnostics are built. black groups its Borda scores with model.ranked_by
and trims its Condorcet winner's index from those index groups.

Tuples are built from lists, for the reason the model module gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import sub
from typing import Any, Callable, Mapping, Sequence

from .majority import NET, condorcet_winner, index_graph
from .model import IndexOutcome, LazyDiagnostics, LazyScores, RankTable, ranked_by
from .modes import Rule
from .scoring import NAMED_ENTRIES


@dataclass(frozen=True)
class EliminationRound:
    survivors: tuple[str, ...]
    vector: tuple[Fraction, ...]
    scores: Mapping[str, Fraction]
    eliminated: frozenset[str]


@dataclass(frozen=True)
class EliminationTrace:
    """One entry per round that actually eliminated somebody."""

    rounds: tuple[EliminationRound, ...]


# -- threshold -------------------------------------------------------------


def _threshold_winner(
    rows: list[list[tuple[int, ...]]],
    weights: list[int],
    scores: list[int],
    index: list[int],
) -> tuple[Sequence[int], list[list[int]], list[list[int]]]:
    """Tied set left after the top-k tie-break cascade among the candidates.

    rows are the tasks' slot rows, holding only the k candidates, and
    weights the tasks' weights. scores are the candidates' total masses,
    in candidate order; index[a] is system a's position in that order.
    Stage z scores each candidate by its mass on the top k - z places: the
    previous stage's score less its mass in slot k - z (counting from 0)
    of every row that long. Returns the winners' positions, and each
    stage's scores and pool, positions again.
    """
    k = len(scores)
    pool: Sequence[int] = range(k)
    scored: list[list[int]] = []
    pools: list[list[int]] = []
    for zeros in range(1, k):
        p = k - zeros
        column = [0] * k
        for row, w in zip(rows, weights):
            if len(row) > p:
                group = row[p]
                if len(group) == 1:
                    column[index[group[0]]] += w
                else:
                    share = w // len(group)
                    for a in group:
                        column[index[a]] += share
        # a new list per stage, so each stage keeps its own row
        scores = list(map(sub, scores, column))
        best = max([scores[i] for i in pool])
        pool = [i for i in pool if scores[i] == best]
        scored.append(scores)
        pools.append(pool)
        if len(pool) == 1:
            break
    return pool, scored, pools


def _threshold_diagnostics(
    names: tuple[str, ...],
    unit: int,
    repetitions: list[tuple[list[int], list[list[int]], list[list[int]]]],
) -> dict[str, Any]:
    """threshold's diagnostics from each repetition's candidates (system
    indices) and its stages' scores and pools (candidate positions)."""
    out = []
    for remaining, scored, pools in repetitions:
        candidates = tuple([names[a] for a in remaining])
        stages = []
        for zeros, (scores, pool) in enumerate(zip(scored, pools), 1):
            stages.append({
                "zeros": zeros,
                "scores": LazyScores(candidates, scores, unit),
                "tied": tuple(sorted([candidates[i] for i in pool])),
            })
        out.append({"candidates": candidates, "stages": stages})
    first = out[0]["stages"]
    return {
        "repetitions": out,
        "first_round_scores": first[0]["scores"] if first else None,
    }


def _drop_from_slots(rows: list[list[tuple[int, ...]]], gone: list[int]) -> None:
    """Delete the systems gone from every slot row.

    An untied system leaves its one slot. A tied one leaves its group, which
    becomes the smaller group in one slot fewer; a system the task leaves
    unranked is in none of its slots.
    """
    for row in rows:
        for a in gone:
            try:
                del row[row.index((a,))]
            except ValueError:
                for p, group in enumerate(row):
                    if a in group:
                        smaller = tuple([b for b in group if b != a])
                        row[p:p + len(group)] = [smaller] * len(smaller)
                        break


def _threshold_run(table: RankTable) -> IndexOutcome:
    names = table.systems
    unit = table.mass_unit
    per_weight = unit // table.scale
    weights = [w * per_weight for w in table.weights]
    rows, mass = table.place_slots()
    index = [0] * len(names)
    remaining = list(range(len(names)))
    groups: list[tuple[int, ...]] = []
    repetitions = []
    while remaining:
        for i, a in enumerate(remaining):
            index[a] = i
        pool, scored, pools = _threshold_winner(
            rows, weights, [mass[a] for a in remaining], index
        )
        winners = [remaining[i] for i in pool]
        groups.append(tuple(winners))
        repetitions.append((remaining, scored, pools))
        remaining = [a for a in remaining if a not in winners]
        if remaining:
            _drop_from_slots(rows, winners)
    return IndexOutcome(
        groups, diagnostics=LazyDiagnostics(_threshold_diagnostics, names, unit, repetitions)
    )


# -- elimination rules ------------------------------------------------------

def _elimination(scorer: Callable[[RankTable], tuple[Callable, int, str]],
                 pick: Callable[[list[int]], list[bool]], majority: bool = False):
    """A rule that runs the elimination loop, with coombs' majority stop if
    majority is set.

    scorer(table) gives score(survivors, dropped), each survivor's integer
    score once the systems the last round dropped are gone, the scores'
    unit, and the scoring vector the rounds report: a key of
    scoring.NAMED_ENTRIES, or "last" for coombs' last-place vector. pick
    marks the round's losers from the scores.
    """

    def run(table: RankTable) -> IndexOutcome:
        names = table.systems
        score, unit, vector = scorer(table)
        whole = table.total * (unit // table.scale)
        survivors = list(range(len(names)))
        dropped: list[int] = []
        tiers: list[tuple[int, ...]] = []
        # each round's survivors and scores; a new list each, never mutated
        alive: list[list[int]] = []
        scored: list[list[int]] = []
        stop = None
        while len(survivors) > 1:
            if majority:
                firsts = table.edge_masses(survivors)
                top = max(firsts)
                # at most one system can clear half the weight
                if 2 * top > whole:
                    best = survivors[firsts.index(top)]
                    tiers.append(tuple([a for a in survivors if a != best]))
                    stop = (best, top, whole)
                    survivors = [best]
                    break
            scores = score(survivors, dropped)
            out = pick(scores)
            dropped = list(compress(survivors, out))
            if not dropped or len(dropped) == len(survivors):
                break
            tiers.append(tuple(dropped))
            alive.append(survivors)
            scored.append(scores)
            survivors = [a for a, gone in zip(survivors, out) if not gone]
        return IndexOutcome([tuple(survivors), *reversed(tiers)], diagnostics=LazyDiagnostics(
            _elimination_diagnostics, names, unit, vector, alive, scored, tiers, stop
        ))

    return run


def _elimination_diagnostics(
    names: tuple[str, ...],
    unit: int,
    vector: str,
    alive: list[list[int]],
    scored: list[list[int]],
    tiers: list[tuple[int, ...]],
    stop: tuple[int, int, int] | None,
) -> dict[str, Any]:
    """The elimination rules' diagnostics: an EliminationRound per round from
    its survivors, scores and losers (indices, named here), each round's
    vector from its entries
    on that many places, and, where coombs stopped at a majority, its
    winner and share."""
    entries_on = _last_place if vector == "last" else NAMED_ENTRIES[vector]
    # every entry is an int in 0..n-1 over 1, so each round indexes these
    places = [Fraction(p) for p in range(len(names))]
    rounds = []
    for survivors, scores, gone in zip(alive, scored, tiers):
        here = tuple([names[a] for a in survivors])
        entries, _ = entries_on(len(here))
        rounds.append(EliminationRound(
            here, tuple([places[e] for e in entries]), LazyScores(here, scores, unit),
            frozenset([names[a] for a in gone]),
        ))
    diagnostics: dict[str, Any] = {"trace": EliminationTrace(tuple(rounds))}
    if stop is not None:
        best, top, whole = stop
        diagnostics["majority_winner"] = names[best]
        diagnostics["majority_share"] = Fraction(top, whole)
    return diagnostics


def _doubled_borda(net: list[int], survivors: Sequence[int], total: int) -> list[int]:
    """2 * scale * Borda score of each survivor of a complete table, where
    net[a] is a's wins minus losses against the other survivors.

    A rival b adds the weight of the tasks ranking a above it plus half the
    weight of those tying, so 2 * scale * Borda(a) is the sum over rivals of
    total + counts[a][b] - counts[b][a].
    """
    base = (len(survivors) - 1) * total
    return [base + net[a] for a in survivors]


def _last_place(n: int) -> tuple[list[int], int]:
    """coombs' entries on n places: one point for the last place."""
    return [0] * (n - 1) + [1], 1


def _borda_scorer(table: RankTable):
    """Doubled Borda scores, in units of 2 * scale, from the net wins, which
    lose the dropped systems' columns each round; the Borda vector."""
    counts = table.pairwise()
    net = NET.scores(counts)
    total = table.total

    def score(survivors: list[int], dropped: list[int]) -> list[int]:
        if dropped:
            for a in survivors:
                net[a] -= sum([counts[a][b] - counts[b][a] for b in dropped])
        return _doubled_borda(net, survivors, total)

    return score, 2 * table.scale, "borda"


def _edge_scorer(last: bool):
    """First-place (hare) or last-place (coombs) masses, in mass_unit units,
    and the one-hot vector on that place."""
    vector = "last" if last else "plurality"

    def scorer(table: RankTable):
        return lambda alive, _: table.edge_masses(alive, last=last), table.mass_unit, vector

    return scorer


def _least(scores: list[int]) -> list[bool]:
    low = min(scores)
    return [x == low for x in scores]


def _most(scores: list[int]) -> list[bool]:
    high = max(scores)
    return [x == high for x in scores]


def _below_mean(scores: list[int]) -> list[bool]:
    # k * score < sum of scores
    total = sum(scores)
    return [len(scores) * x < total for x in scores]


def _black_run(table: RankTable) -> IndexOutcome:
    graph = index_graph(table)
    w = condorcet_winner(graph)
    doubled = _doubled_borda(NET.scores(graph.counts), range(len(table.systems)), table.total)
    if w is None:
        return ranked_by(doubled, 2 * table.scale,
                         diagnostics={"path": "borda", "condorcet_winner": None})
    borda = ranked_by(doubled, 2 * table.scale)
    trimmed = [g for g in [tuple([a for a in group if a != w]) for group in borda.groups] if g]
    return borda._replace(groups=[(w,), *trimmed], diagnostics={
        "path": "condorcet", "condorcet_winner": table.systems[w]})


RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule("threshold", _threshold_run),
        Rule("baldwin", _elimination(_borda_scorer, _least)),
        Rule("hare", _elimination(_edge_scorer(last=False), _least)),
        Rule("coombs", _elimination(_edge_scorer(last=True), _most, majority=True)),
        Rule("nanson", _elimination(_borda_scorer, _below_mean)),
        Rule("black", _black_run),
    )
}
