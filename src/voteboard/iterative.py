"""Iterative rules: threshold tie-breaking and elimination procedures.

Elimination rules drop every survivor at the losing score simultaneously,
re-rank the rest, and repeat. If a round would eliminate everyone, the
survivors stop as one tie group instead. The final ranking reads the
elimination order backwards, best group first.

Every rule here reads the RankTable that run_rule builds. threshold takes
each task's slot rows from RankTable.place_slots once per call: stage z of
a repetition among k candidates reads only slot k - z (counting from 0) of
every row, and the repetition's winners are then deleted from the rows.
hare and coombs take only the first- or last-place mass column, from
RankTable.edge_masses, which walks each task from that end only as far as
its first surviving group. baldwin, nanson and black take Borda scores
from the pairwise counts, where dropping a system deletes its column.
Both kernels sum integers in LCM-scaled weight units. Each threshold stage
and elimination round keeps its integer scores and their unit in a
model.LazyScores, which builds the Fractions when it is read; black
packages its Borda scores with model.ranked_by, whose scores are a
LazyScores too.

Tuples are built from lists, for the reason the model module gives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import sub
from typing import Any, Callable, Mapping, Sequence

from .majority import condorcet_winner, majority_graph_from_table
from .model import LazyScores, RankTable, RuleOutcome, ranked_by
from .modes import Rule


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
    names: tuple[str, ...],
    unit: int,
) -> tuple[Sequence[int], list[dict[str, Any]]]:
    """Tied set left after the top-k tie-break cascade among the candidates.

    rows are the tasks' slot rows, holding only the k candidates, and
    weights the tasks' weights. scores are the candidates' total masses
    and names their names, in candidate order; index[a] is system a's
    position in that order. Every mass is in units of unit. Stage z scores
    each candidate by its mass on the top k - z places: the previous
    stage's score less its mass in slot k - z (counting from 0) of every
    row that long. Returns the winners' positions.
    """
    k = len(names)
    pool: Sequence[int] = range(k)
    stages: list[dict[str, Any]] = []
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
        stages.append({
            "zeros": zeros,
            "scores": LazyScores(names, scores, unit),
            "tied": tuple(sorted([names[i] for i in pool])),
        })
        if len(pool) == 1:
            break
    return pool, stages


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


def _threshold_run(table: RankTable) -> RuleOutcome:
    names = table.systems
    unit = table.mass_unit
    per_weight = unit // table.scale
    weights = [w * per_weight for w in table.weights]
    rows, mass = table.place_slots()
    index = [0] * len(names)
    remaining = list(range(len(names)))
    groups: list[frozenset[str]] = []
    repetitions: list[dict[str, Any]] = []
    while remaining:
        candidates = tuple([names[a] for a in remaining])
        for i, a in enumerate(remaining):
            index[a] = i
        pool, stages = _threshold_winner(
            rows, weights, [mass[a] for a in remaining], index, candidates, unit
        )
        winners = [remaining[i] for i in pool]
        groups.append(frozenset(names[a] for a in winners))
        repetitions.append({"candidates": candidates, "stages": stages})
        remaining = [a for a in remaining if a not in winners]
        if remaining:
            _drop_from_slots(rows, winners)
    first = repetitions[0]["stages"]
    diagnostics = {
        "repetitions": repetitions,
        "first_round_scores": first[0]["scores"] if first else None,
    }
    return RuleOutcome(ranking=tuple(groups), diagnostics=diagnostics)


# -- elimination rules ------------------------------------------------------


def _finish(
    survivors: list[str],
    tiers: list[frozenset[str]],
    rounds: list[EliminationRound],
    extra: Mapping[str, Any] | None = None,
) -> RuleOutcome:
    ranking = (frozenset(survivors), *reversed(tiers))
    diagnostics = {"trace": EliminationTrace(tuple(rounds)), **(extra or {})}
    return RuleOutcome(ranking=ranking, diagnostics=diagnostics)


def _net_wins(counts: tuple[tuple[int, ...], ...]) -> dict[int, int]:
    """Each system's pairwise wins minus losses, in scaled weight: row minus column sum."""
    return {a: sum(row) - sum(col) for a, (row, col) in enumerate(zip(counts, zip(*counts)))}


def _drop(net: dict[int, int], counts: tuple[tuple[int, ...], ...], gone: list[int]) -> None:
    """Delete the columns of the eliminated systems from the net wins."""
    for a in gone:
        del net[a]
    for a in net:
        net[a] -= sum(counts[a][b] - counts[b][a] for b in gone)


def _doubled_borda(net: dict[int, int], total: int) -> dict[int, int]:
    """2 * scale * Borda score of each survivor of a complete table.

    A rival b adds the weight of the tasks ranking a above it plus half the
    weight of those tying, so 2 * scale * Borda(a) is the sum over rivals of
    total + counts[a][b] - counts[b][a].
    """
    rivals = len(net) - 1
    return {a: rivals * total + x for a, x in net.items()}


def _borda_elimination(losers: Callable[[dict[int, int]], list[int]]):
    """A rule that drops losers(scores) from the survivors until it names nobody."""

    def run(table: RankTable) -> RuleOutcome:
        names = table.systems
        counts = table.pairwise()
        net = _net_wins(counts)
        n = len(names)
        # ScoringVector.borda(k).entries, without its checks, is the last k of these
        borda = tuple([Fraction(p) for p in range(n - 1, -1, -1)])
        tiers: list[frozenset[str]] = []
        rounds: list[EliminationRound] = []
        while True:
            scores = _doubled_borda(net, table.total)
            gone = losers(scores)
            if not gone:
                break
            tiers.append(frozenset(names[a] for a in gone))
            survivors = tuple([names[a] for a in scores])
            rounds.append(EliminationRound(
                survivors,
                borda[n - len(scores):],
                LazyScores(survivors, list(scores.values()), 2 * table.scale),
                tiers[-1],
            ))
            _drop(net, counts, gone)
        return _finish([names[a] for a in net], tiers, rounds)

    return run


def _baldwin_losers(scores: dict[int, int]) -> list[int]:
    low = min(scores.values())
    gone = [a for a, x in scores.items() if x == low]
    return gone if len(gone) < len(scores) else []


def _nanson_losers(scores: dict[int, int]) -> list[int]:
    # below the mean score: k * score < sum of scores
    total = sum(scores.values())
    return [a for a, x in scores.items() if len(scores) * x < total]


def _mass_elimination(from_last: bool):
    """A rule that drops survivors by their place mass until one would drop all.

    hare (from_last False) drops the survivors with the least first-place
    mass. coombs (from_last True) drops those with the most last-place mass,
    and stops as soon as one survivor holds a strict first-place majority.
    """

    def run(table: RankTable) -> RuleOutcome:
        names = table.systems
        unit = table.mass_unit
        total = table.total * (unit // table.scale)
        n = len(names)
        survivors = list(range(n))
        # each round's one-hot vector is a slice of this, whose 1 is at n - 1
        hot = (Fraction(0),) * (n - 1) + (Fraction(1),) + (Fraction(0),) * (n - 1)
        tiers: list[frozenset[str]] = []
        rounds: list[EliminationRound] = []
        while len(survivors) > 1:
            k = len(survivors)
            if from_last:
                firsts = table.edge_masses(survivors)
                top = max(firsts)
                if 2 * top > total:
                    # at most one system can clear half the weight
                    best = survivors[firsts.index(top)]
                    rest = frozenset(names[a] for a in survivors if a != best)
                    return _finish([names[best]], [*tiers, rest], rounds, {
                        "majority_winner": names[best],
                        "majority_share": Fraction(top, total),
                    })
            place = k - 1 if from_last else 0
            column = table.edge_masses(survivors, last=from_last)
            edge = max(column) if from_last else min(column)
            gone = frozenset(names[a] for a, x in zip(survivors, column) if x == edge)
            if len(gone) == k:
                break
            alive = tuple([names[a] for a in survivors])
            start = n - 1 - place
            rounds.append(EliminationRound(
                alive, hot[start:start + k], LazyScores(alive, column, unit), gone
            ))
            tiers.append(gone)
            survivors = [a for a in survivors if names[a] not in gone]
        return _finish([names[a] for a in survivors], tiers, rounds)

    return run


def _black_run(table: RankTable) -> RuleOutcome:
    graph = majority_graph_from_table(table)
    winner = condorcet_winner(graph)
    names = table.systems
    doubled = _doubled_borda(_net_wins(graph.counts), table.total)
    borda = ranked_by(
        {names[a]: x for a, x in doubled.items()},
        2 * table.scale,
        diagnostics={"path": "borda", "condorcet_winner": None},
    )
    if winner is None:
        return borda
    trimmed = [g for g in (group - {winner} for group in borda.ranking) if g]
    return replace(
        borda,
        ranking=(frozenset({winner}), *trimmed),
        diagnostics={"path": "condorcet", "condorcet_winner": winner},
    )


RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule("threshold", profile_run=_threshold_run),
        Rule("baldwin", profile_run=_borda_elimination(_baldwin_losers)),
        Rule("hare", profile_run=_mass_elimination(from_last=False)),
        Rule("coombs", profile_run=_mass_elimination(from_last=True)),
        Rule("nanson", profile_run=_borda_elimination(_nanson_losers)),
        Rule("black", profile_run=_black_run),
    )
}
