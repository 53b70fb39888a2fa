"""The Fraction implementations the integer kernels replaced, kept as a reference.

These are the rank profile with Fraction positions and its build_profile,
the aggregation modes that run rules on it, the pairwise loop with the
majority-graph rules built on it, the RankTable builder that ranked each
task with groupby, the integer pairwise counts summed pair
by pair as RankTable built them before they were packed into one integer
per row, the integer place masses RankTable rebuilt for every threshold
repetition with the threshold cascade that read them, RankTable's restrict
and without as they stood while they built a derived table's orders at
once, with the counts they derived from the parent's, the positional
scoring loop with the Fraction ScoringVector and its constructors, which
left the library for integer entries over their LCM, the
threshold cascade, the baldwin, nanson, hare, coombs and black rounds,
position_counts (with table_position_counts, the RankTable version that
left the library), and the cw dominance matrix compared from raw scores, as
they stood before the rules moved to integer tie orders and RankTable. They
re-rank and re-score the profile with Fractions at every step, so they are
slow; tests compare the library against them on boards larger than the
oracle's. Only data types and unchanged helpers come from
the library. Its rule runners take (profile, weights) and return the
RuleParts defined here, which its own run_rule packages into a RuleOutcome.

exact_cells follows as it stood while a board stored its cells as given:
it read each cell through its shortest decimal repr and took the LCM of
the denominators on every call. After it come the score baselines (mean,
gmean, optimality_gap) summing Fractions cell by cell, the Fraction
Spearman rho, the Kendall tau that walked the pairs of the Fraction ranks
three times, and the spoiler loop that compares pair_relations of the
present systems, as they stood before those moved to integers over one
common denominator. A board now stores exact cells, so where the old code
read a stored float (the gmean refusal's message, the median imputation)
these read the cell's float. The spoiler loop runs the library's rules on
a board rebuilt, and revalidated, at every step, as it did before the
experiments moved to tables derived from one full-board RankTable. After
it come the robustness experiment's median imputation, which rebuilt the
board once per deleted cell, and the robustness loop, which ran the
library's rules on boards rebuilt once per trial.

Next comes the outcome packaging on names, as it stood before rule cores
returned system indices that only call_rule named: ranked_by over a
name -> integer dict and chosen, each returning a checked RuleOutcome, and
the iia and robustness loops that named every outcome they made, compared
iia's steps by name tie groups (_tie_order) and read robustness's ranks as
Fractions by name.

Then comes the outcome's JSON text as the CLI printed it while every
diagnostic mapping was a dict, whose dataclasses went through
dataclasses.asdict. After it come outcome_to_dict and to_json as they stood
while every score map was read through its Fraction dict and
json.dumps(..., sort_keys=True, indent=2) wrote the text, and
outcome_from_dict, which rebuilds an outcome from its JSON form for the
round-trip tests.

Then come the whole-table cores of copeland, copeland2, copeland3 and
minimax, and the net wins baldwin and black read as Borda, as they stood
before each became a majority.PairScore: one scan of each system's row
and column per table, which iia reran on every step's prefix.

Last comes the two-phase simplex that pivoted a dense tableau of Fractions,
as it stood before linprog moved to fraction-free integer pivots; the
status strings come from the library.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, groupby
from operator import gt, itemgetter, sub
from typing import Any, Callable, Iterable, Mapping, Sequence

from voteboard.cw import DominanceMatrix
from voteboard.errors import (
    EmptySubset,
    InvalidParameter,
    MissingScore,
    NonPositiveScore,
    RuleUnsupportedForMode,
    ScoreOutOfRange,
    TooFewSystems,
    TooManyOmissions,
    UnknownRule,
    UnknownSystem,
    VectorLengthMismatch,
)
from voteboard.experiments import (
    IMPUTABLE,
    ExperimentConfig,
    ExperimentReport,
    _impute_medians,
    _report,
    trial_rng,
)
from voteboard.iterative import EliminationRound, EliminationTrace
from voteboard.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, Constraint
from voteboard.metrics import _check_pair, _signed_root, checked_gamma, end_set
from voteboard.metrics import rho_from_rank_vectors as library_rho
from voteboard.model import (
    MINIMIZE,
    Counts,
    IndexOutcome,
    LazyScores,
    Leaderboard,
    RankTable,
    RuleOutcome,
    as_fraction,
    cell_ratio,
    missing_score,
)
from voteboard.model import build_profile as library_build_profile
from voteboard.model import ranked_by as index_ranked_by
from voteboard.modes import BASIC, MODES, TWO_STEP, _covering_groups, check_params
from voteboard.modes import Rule as LibraryRule
from voteboard.modes import run_rule as run_library_rule
from voteboard.registry import get_rule

COPELAND_VARIANTS = ("I", "II", "III")
_WEAKLY_STABLE_LIMIT = 18


def _check_unique(names: Sequence[str], kind: str) -> None:
    """model._check_unique as it was, before model._task_names absorbed it."""
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate {kind} id: {name!r}")
        seen.add(name)


# -- task weights as name-keyed maps ------------------------------------------


def base_weights(lb: Leaderboard) -> dict[str, Fraction]:
    """modes.base_weights as it stood while a mode passed its weights as a map."""
    return {t: lb.weights[j] for j, t in enumerate(lb.tasks)}


def group_weights(lb: Leaderboard) -> dict[str, Fraction]:
    """modes.group_weights: each task weight scaled by one over its group size."""
    size = {t: len(members) for _, members in _covering_groups(lb) for t in members}
    return {t: w * Fraction(1, size[t]) for t, w in base_weights(lb).items()}


def integer_weights(
    tasks: Sequence[str],
    weights: Mapping[str, int | float | Fraction | str] | None = None,
) -> tuple[tuple[int, ...], int]:
    """model.integer_weights as it stood while it read a map: task weights
    (default 1) times the LCM of their denominators, and that LCM."""
    exact = [as_fraction(1 if weights is None else weights.get(t, 1)) for t in tasks]
    scale = math.lcm(*{w.denominator for w in exact})
    return tuple([w.numerator * (scale // w.denominator) for w in exact]), scale


def _check_weights(weights: Iterable[int | Fraction]) -> None:
    if any(w < 0 for w in weights):
        raise ValueError("task weights must be non-negative")


# -- board and outcome readers only the tests use ---------------------------


def total_weight(lb: Leaderboard) -> Fraction:
    """Leaderboard.total_weight as it was: the sum of the task weights."""
    return sum(lb.weights, Fraction(0))


def group_map(lb: Leaderboard) -> dict[str, tuple[str, ...]]:
    """Leaderboard.group_map as it was: group name -> its tasks, {} without groups."""
    return dict(lb.groups) if lb.groups else {}


def restrict_tasks(lb: Leaderboard, keep: Iterable[str]) -> Leaderboard:
    """Leaderboard.restrict_tasks as it was: the board on the tasks kept, in
    board order, with each group cut to them and emptied groups dropped."""
    wanted = set(keep)
    for t in wanted:
        lb._task_index(t)
    idx = [j for j, t in enumerate(lb.tasks) if t in wanted]
    if not idx:
        raise ValueError("cannot drop every task")
    tasks = tuple(lb.tasks[j] for j in idx)
    rows = tuple(tuple(row[j] for j in idx) for row in lb.cells)
    dirs = tuple(lb.directions[j] for j in idx)
    wts = tuple(lb.weights[j] for j in idx)
    groups = tuple([(name, inside) for name, members in lb.groups or ()
                    if (inside := tuple([t for t in members if t in wanted]))]) or None
    return Leaderboard._of_cells(lb.systems, tasks, rows, lb.denominator, dirs, wts, groups)


def with_score(lb: Leaderboard, system: str, task: str,
               value: int | float | Fraction | None) -> Leaderboard:
    """Leaderboard.with_score as it was: the board with one cell set, or
    unranked with None."""
    i, j = lb._sys_index(system), lb._task_index(task)
    return lb._with_cells({(i, j): None if value is None else cell_ratio(value)})


def pair_relations(
    outcome: RuleOutcome, systems: Iterable[str] | None = None
) -> dict[tuple[str, str], int]:
    """RuleOutcome.pair_relations as it was: -1, 0, +1 per ordered pair of
    the systems (default all), the sign of rank(a) - rank(b)."""
    ranks = outcome.fractional_ranks()
    pool = sorted(ranks) if systems is None else sorted(systems)
    for m in pool:
        if m not in ranks:
            raise ValueError(f"system {m!r} is unranked in this outcome")
    rel = {}
    for a, b in combinations(pool, 2):
        ra, rb = ranks[a], ranks[b]
        rel[(a, b)] = (ra > rb) - (ra < rb)
    return rel


# -- profiles ---------------------------------------------------------------


def _fractional_positions(ordered_groups: Sequence[Sequence[str]]) -> dict[str, Fraction]:
    # mean of the integer places a tie group spans: place + (g - 1) / 2
    positions: dict[str, Fraction] = {}
    place = 1
    for group in ordered_groups:
        g = len(group)
        pos = Fraction(2 * place + g - 1, 2)
        for member in group:
            positions[member] = pos
        place += g
    return positions


@dataclass(frozen=True)
class RankProfile:
    """Per-task fractional rankings: positions[task][system] -> place.

    Best place is 1. A system missing from a task simply has no entry for
    it (missing-tolerant profiles); a complete task covers every system and
    its positions sum to n(n+1)/2.
    """

    systems: tuple[str, ...]
    tasks: tuple[str, ...]
    positions: Mapping[str, Mapping[str, Fraction]]

    def position(self, task: str, system: str) -> Fraction | None:
        return self.positions[task].get(system)

    def tie_groups(self, task: str) -> tuple[tuple[str, ...], ...]:
        """Ordered tie groups for one task, best first, members sorted."""
        entries = self.positions[task]
        by_pos: dict[Fraction, list[str]] = {}
        for system, pos in entries.items():
            by_pos.setdefault(pos, []).append(system)
        return tuple([tuple(sorted(by_pos[p])) for p in sorted(by_pos)])

    def is_complete(self) -> bool:
        n = len(self.systems)
        return all(len(self.positions[t]) == n for t in self.tasks)

    def restrict(self, keep: Sequence[str]) -> "RankProfile":
        """Drop systems and re-rank the rest, preserving order and ties."""
        wanted = set(keep)
        systems = tuple([m for m in self.systems if m in wanted])
        positions = {}
        for task in self.tasks:
            surviving = [
                [m for m in group if m in wanted]
                for group in self.tie_groups(task)
            ]
            positions[task] = _fractional_positions([g for g in surviving if g])
        return RankProfile(systems, self.tasks, positions)


def build_profile(
    lb: Leaderboard,
    task_subset: Sequence[str] | None = None,
    *,
    missing_ok: bool = False,
) -> RankProfile:
    """Rank every task of the subset (default: all tasks) by adjusted score.

    Minimize-direction tasks are negated first. Equal scores tie and share
    the mean of the places they span. A missing cell raises MissingScore
    unless missing_ok is set, in which case the system is simply unranked
    on that task.
    """
    if task_subset is None:
        tasks = lb.tasks
    else:
        tasks = tuple(task_subset)
        if not tasks:
            raise EmptySubset("task subset is empty")
        for t in tasks:
            lb._task_index(t)
    positions: dict[str, dict[str, Fraction]] = {}
    for task in tasks:
        j = lb._task_index(task)
        sign = -1.0 if lb.directions[j] == MINIMIZE else 1.0
        scored: list[tuple[float, str]] = []
        for i, system in enumerate(lb.systems):
            cell = lb.scores[i][j]
            if cell is None:
                if not missing_ok:
                    raise MissingScore(f"system {system!r} has no score on task {task!r}")
                continue
            scored.append((sign * cell, system))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        groups: list[list[str]] = []
        last: float | None = None
        for value, system in scored:
            if last is None or value != last:
                groups.append([])
                last = value
            groups[-1].append(system)
        positions[task] = _fractional_positions(groups)
    return RankProfile(lb.systems, tasks, positions)


def group_by_score(
    scores: Mapping[str, Fraction | float | int],
    *,
    ascending: bool = False,
) -> tuple[frozenset[str], ...]:
    """Partition systems into tie groups ordered best-first by exact score."""
    distinct = sorted(set(scores.values()), reverse=not ascending)
    return tuple([frozenset(m for m, s in scores.items() if s == v) for v in distinct])


# -- modes ------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """modes.Rule as it stood with two runner fields, for the rules here:
    profile_run reads a RankProfile, score_run the board."""

    rule_id: str
    profile_run: Callable[..., RuleParts] | None = None
    score_run: Callable[..., RuleParts] | None = None
    handles_missing: bool = False
    elector: bool = True

    def __post_init__(self) -> None:
        if (self.profile_run is None) == (self.score_run is None):
            raise ValueError("a rule needs exactly one of profile_run/score_run")


@dataclass(frozen=True)
class RuleParts:
    """What a rule engine returns before mode/outcome packaging."""

    ranking: tuple[frozenset[str], ...]
    scores: Mapping[str, Fraction] | None = None
    unranked: frozenset[str] = frozenset()
    diagnostics: Mapping[str, Any] = field(default_factory=dict)


def run_rule(lb: Leaderboard, rule: Rule, mode: str = BASIC, **params: Any) -> RuleOutcome:
    """Apply a rule under a mode and package the outcome."""
    if mode not in MODES:
        raise UnknownRule(f"unknown mode: {mode!r}")
    if mode == TWO_STEP:
        return _run_two_step(lb, rule, **params)
    if mode == BASIC:
        weights: Mapping[str, Fraction] = base_weights(lb)
    else:
        weights = group_weights(lb)
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
    electors: dict[str, list[list[str]]] = {}
    positions: dict[str, dict[str, Fraction]] = {}
    for name, members in groups:
        profile = build_profile(lb, members, missing_ok=rule.handles_missing)
        parts = rule.profile_run(profile, {t: weights[t] for t in members}, **params)
        if parts.unranked:
            raise RuleUnsupportedForMode(
                f"rule {rule.rule_id!r} left systems unranked inside group {name!r}"
            )
        electors[name] = [sorted(group) for group in parts.ranking]
        positions[name] = _fractional_positions(parts.ranking)
    synthetic = RankProfile(
        systems=lb.systems,
        tasks=tuple(name for name, _ in groups),
        positions=positions,
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


@dataclass(frozen=True)
class MajorityGraph:
    """Signed pairwise margins plus the supporting task weight per edge.

    margins[(a, b)] is the weighted signed comparison count; an edge a -> b
    exists when it is positive. supports[(a, b)] is the weight of tasks
    ranking a strictly above b if that edge exists, else 0.
    """

    systems: tuple[str, ...]
    margins: Mapping[tuple[str, str], Fraction]
    supports: Mapping[tuple[str, str], Fraction]

    def margin(self, a: str, b: str) -> Fraction:
        return self.margins.get((a, b), Fraction(0))

    def support(self, a: str, b: str) -> Fraction:
        return self.supports.get((a, b), Fraction(0))

    def beats(self, a: str, b: str) -> bool:
        return self.margin(a, b) > 0

    def dominated(self, m: str) -> frozenset[str]:
        """L(m): systems that m beats."""
        return frozenset(x for x in self.systems if x != m and self.beats(m, x))

    def dominators(self, m: str) -> frozenset[str]:
        """U(m): systems that beat m."""
        return frozenset(x for x in self.systems if x != m and self.beats(x, m))

    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (a, b)
            for a in self.systems
            for b in self.systems
            if a != b and self.beats(a, b)
        )


def majority_graph_from_profile(
    profile: RankProfile,
    weights: Mapping[str, int | float | Fraction | str] | None = None,
) -> MajorityGraph:
    tasks = profile.tasks
    wts = {t: as_fraction(1 if weights is None else weights.get(t, 1)) for t in tasks}
    margins: dict[tuple[str, str], Fraction] = {}
    supports: dict[tuple[str, str], Fraction] = {}
    zero = Fraction(0)
    for a, b in combinations(profile.systems, 2):
        above = zero
        below = zero
        for t in tasks:
            entries = profile.positions[t]
            pa = entries.get(a)
            pb = entries.get(b)
            if pa is None or pb is None:
                continue
            if pa < pb:
                above += wts[t]
            elif pb < pa:
                below += wts[t]
        margins[(a, b)] = above - below
        margins[(b, a)] = below - above
        supports[(a, b)] = above if above > below else zero
        supports[(b, a)] = below if below > above else zero
    return MajorityGraph(profile.systems, margins, supports)


def pairwise_counts(
    orders: Sequence[Sequence[Sequence[int]]], weights: Sequence[int], n: int
) -> tuple[tuple[int, ...], ...]:
    """counts[a][b]: summed integer weight of the tasks ranking a strictly
    above b, from each task's tie groups of system indices, best first."""
    counts = [[0] * n for _ in range(n)]
    for groups, w in zip(orders, weights):
        below = [b for group in groups for b in group]
        start = 0
        for group in groups:
            start += len(group)
            rest = below[start:]
            for a in group:
                row = counts[a]
                for b in rest:
                    row[b] += w
    return tuple([tuple(row) for row in counts])


def build_table(
    lb: Leaderboard,
    task_subset: Sequence[str] | None = None,
    *,
    missing_ok: bool = False,
    weights: Mapping[str, int | float | Fraction | str] | None = None,
) -> RankTable:
    """model.build_profile as it stood while it ranked each task with a
    sort of (cell, index) pairs and itertools.groupby."""
    if task_subset is None:
        tasks = lb.tasks
    else:
        tasks = tuple(task_subset)
        if not tasks:
            raise EmptySubset("task subset is empty")
        _check_unique(tasks, "task")
        for t in tasks:
            lb._task_index(t)
    scaled, scale = integer_weights(tasks, weights)
    _check_weights(scaled)
    orders = []
    for task in tasks:
        j = lb._task_index(task)
        scored: list[tuple[float, int]] = []
        for i, row in enumerate(lb.scores):
            cell = row[j]
            if cell is None:
                if not missing_ok:
                    raise missing_score(lb.systems[i], task)
                continue
            scored.append((cell, i))
        scored.sort(key=itemgetter(0), reverse=lb.directions[j] != MINIMIZE)
        orders.append(tuple([
            tuple([i for _, i in group]) for _, group in groupby(scored, itemgetter(0))
        ]))
    return RankTable(lb.systems, tasks, tuple(orders), scaled, scale)


def masses(table: RankTable, survivors: Sequence[int]) -> dict[int, list[int]]:
    """RankTable.masses as it stood: the weighted mass each survivor holds at
    each place, in mass_unit units, rows[a][p - 1] at place p.

    The tasks are re-ranked on the survivors alone: a surviving tie group
    of size g spanning places p..p+g-1 gives each member w/g at each of
    those places.
    """
    alive = set(survivors)
    rows = {a: [0] * len(survivors) for a in survivors}
    per_weight = table.mass_unit // table.scale
    for groups, w in zip(table.orders, table.weights):
        w *= per_weight
        place = 0
        for group in groups:
            if len(group) == 1:
                # untied, the common case: skip the set and range work
                if group[0] in alive:
                    rows[group[0]][place] += w
                    place += 1
                continue
            live = alive.intersection(group)
            if not live:
                continue
            g = len(live)
            share = w // g
            for a in live:
                row = rows[a]
                for p in range(place, place + g):
                    row[p] += share
            place += g
    return rows


def _mass_threshold_winner(
    table: RankTable, candidates: list[int], names: tuple[str, ...]
) -> tuple[list[int], list[dict[str, Any]]]:
    """The integer threshold cascade as it stood, on the candidates' masses
    rebuilt from the orders for every repetition."""
    k = len(candidates)
    if k == 1:
        return candidates, []
    by_system = masses(table, candidates)
    rows = [by_system[a] for a in candidates]
    # places[p][i] is candidate i's mass at place p + 1
    places = list(zip(*rows))
    scores = list(map(sum, rows))
    pool = range(k)
    stages: list[dict[str, Any]] = []
    for zeros in range(1, k):
        scores = list(map(sub, scores, places[k - zeros]))
        best = max([scores[i] for i in pool])
        pool = [i for i in pool if scores[i] == best]
        stages.append({
            "zeros": zeros,
            "scores": LazyScores(names, scores, table.mass_unit),
            "tied": tuple(sorted([names[i] for i in pool])),
        })
        if len(pool) == 1:
            break
    return [candidates[i] for i in pool], stages


def mass_threshold_run(table: RankTable) -> RuleOutcome:
    """The library's threshold rule as it stood on a RankTable, before its
    cascade read place columns from slot rows."""
    names = table.systems
    remaining = list(range(len(names)))
    groups: list[frozenset[str]] = []
    repetitions: list[dict[str, Any]] = []
    while remaining:
        candidates = tuple([names[a] for a in remaining])
        winners, stages = _mass_threshold_winner(table, remaining, candidates)
        groups.append(frozenset(names[a] for a in winners))
        repetitions.append({"candidates": candidates, "stages": stages})
        remaining = [a for a in remaining if a not in winners]
    first = repetitions[0]["stages"]
    diagnostics = {
        "repetitions": repetitions,
        "first_round_scores": first[0]["scores"] if first else None,
    }
    return RuleOutcome(ranking=tuple(groups), diagnostics=diagnostics)


def renumbered(
    orders: tuple[tuple[tuple[int, ...], ...], ...], kept: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """model._renumbered as it stood: the orders of the systems at ascending
    indices kept, system kept[k] renumbered k. Groups keep their order and
    ties; emptied groups go."""
    index = {i: k for k, i in enumerate(kept)}
    out = []
    for groups in orders:
        left = []
        for group in groups:
            if len(group) == 1:
                # untied, the common case
                if group[0] in index:
                    left.append((index[group[0]],))
                continue
            group = tuple([index[i] for i in group if i in index])
            if group:
                left.append(group)
        out.append(tuple(left))
    return tuple(out)


def restrict(table: RankTable, kept: Sequence[int]) -> tuple[RankTable, Counts]:
    """RankTable.restrict as it stood before derived tables built their
    orders on first read, and before RankTable.prefix replaced it: the table
    of the systems at ascending indices kept, its orders renumbered at once,
    and its counts, the submatrix of the table's."""
    rows = table.pairwise()
    counts = tuple([tuple([row[b] for b in kept]) for row in [rows[a] for a in kept]])
    return RankTable(tuple([table.systems[i] for i in kept]), table.tasks,
                     renumbered(table.orders, kept), table.weights, table.scale), counts


def without(table: RankTable, cells: Iterable[tuple[int, int]]) -> tuple[RankTable, Counts]:
    """RankTable.without as it stood: the table with each ranked cell
    (system index, task index) unranked, every touched task's orders rebuilt
    at once, and its counts, the table's less each dropped cell's pairs."""
    dropped: dict[int, set[int]] = {}
    for i, j in cells:
        dropped.setdefault(j, set()).add(i)
    orders = list(table.orders)
    for j, gone in dropped.items():
        groups = [tuple([i for i in group if i not in gone]) for group in orders[j]]
        orders[j] = tuple([group for group in groups if group])
    rows = [list(row) for row in table.pairwise()]
    for j, gone in dropped.items():
        w = table.weights[j]
        level = {i: p for p, group in enumerate(table.orders[j]) for i in group}
        for a in gone:
            here = level.pop(a)
            for b, there in level.items():
                if here < there:
                    rows[a][b] -= w
                elif there < here:
                    rows[b][a] -= w
    return (RankTable(table.systems, table.tasks, tuple(orders), table.weights, table.scale),
            tuple([tuple(row) for row in rows]))


def condorcet_winner(graph: MajorityGraph) -> str | None:
    """The system beating every other one strictly, if any."""
    for m in graph.systems:
        if all(graph.beats(m, x) for x in graph.systems if x != m):
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


def copeland(graph: MajorityGraph, variant: str = "I") -> RuleOutcome:
    scores = copeland_scores(graph, variant)
    ascending = variant == "III"
    rule_id = {"I": "copeland", "II": "copeland2", "III": "copeland3"}[variant]
    return RuleOutcome(
        rule_id=rule_id,
        mode=BASIC,
        ranking=group_by_score(scores, ascending=ascending),
        scores=scores,
        diagnostics={"score_order": "ascending" if ascending else "descending"},
    )


def minimax_scores(graph: MajorityGraph) -> dict[str, Fraction]:
    """0 for undefeated systems, else minus the strongest defeat's support."""
    scores: dict[str, Fraction] = {}
    for m in graph.systems:
        foes = graph.dominators(m)
        if not foes:
            scores[m] = Fraction(0)
        else:
            scores[m] = -max(graph.support(b, m) for b in foes)
    return scores


def minimax(graph: MajorityGraph) -> RuleOutcome:
    scores = minimax_scores(graph)
    return RuleOutcome(
        rule_id="minimax",
        mode=BASIC,
        ranking=group_by_score(scores),
        scores=scores,
    )


def _closure(seeds: Iterable[str], expand: Callable[[str], Iterable[str]]) -> frozenset[str]:
    seen = set(seeds)
    todo = list(seen)
    while todo:
        x = todo.pop()
        for y in expand(x):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return frozenset(seen)


def minimal_dominant_set(graph: MajorityGraph) -> frozenset[str]:
    """Smallest set whose members all beat every outside system.

    Dominant sets are totally ordered by inclusion, so the minimal one is
    the smallest closure of a single system under "fails to beat".
    """
    def needs(x: str) -> list[str]:
        return [y for y in graph.systems if y != x and not graph.beats(x, y)]

    best: frozenset[str] | None = None
    for m in graph.systems:
        c = _closure([m], needs)
        if best is None or len(c) < len(best):
            best = c
    assert best is not None
    return best


def minimal_undominated_set(graph: MajorityGraph) -> frozenset[str]:
    """Union of all inclusion-minimal sets no outsider beats into."""
    closures = {m: _closure([m], graph.dominators) for m in graph.systems}
    distinct = set(closures.values())
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
        graph, lambda b, a: graph.beats(b, a) and upper[b] <= upper[a]
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
        for y in graph.dominators(x):
            if y in candidate:
                continue
            if not any(graph.beats(z, y) for z in candidate):
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
        raise RuntimeError(
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


def _graph_of(profile: RankProfile, weights: Mapping[str, Fraction]) -> MajorityGraph:
    return majority_graph_from_profile(profile, weights)


def _condorcet_run(profile: RankProfile, weights: Mapping[str, Fraction]) -> RuleParts:
    graph = _graph_of(profile, weights)
    winner = condorcet_winner(graph)
    if winner is None:
        return RuleParts(
            ranking=(),
            unranked=frozenset(profile.systems),
            diagnostics={"condorcet_winner": None},
        )
    return RuleParts(
        ranking=(frozenset({winner}),),
        unranked=frozenset(m for m in profile.systems if m != winner),
        diagnostics={"condorcet_winner": winner},
    )


def _copeland_run(variant: str):
    def run(profile: RankProfile, weights: Mapping[str, Fraction]) -> RuleParts:
        outcome = copeland(_graph_of(profile, weights), variant)
        return RuleParts(
            ranking=outcome.ranking,
            scores=outcome.scores,
            diagnostics=dict(outcome.diagnostics),
        )

    return run


def _minimax_run(profile: RankProfile, weights: Mapping[str, Fraction]) -> RuleParts:
    outcome = minimax(_graph_of(profile, weights))
    return RuleParts(ranking=outcome.ranking, scores=outcome.scores)


def _set_rule_run(chooser: Callable[[MajorityGraph], frozenset[str]]):
    def run(profile: RankProfile, weights: Mapping[str, Fraction]) -> RuleParts:
        graph = _graph_of(profile, weights)
        winners = chooser(graph)
        return RuleParts(
            ranking=(winners,),
            unranked=frozenset(m for m in profile.systems if m not in winners),
        )

    return run


def position_counts(
    profile: RankProfile,
    system: str,
    weights: Mapping[str, int | float | Fraction | str] | None = None,
) -> tuple[Fraction, ...]:
    """Weighted mass the system places at each integer rank 1..n.

    A tie group of size g spanning places p..p+g-1 contributes w/g of the
    task's weight w at each spanned place, so the total mass equals the
    weight of the tasks that rank the system.
    """
    if system not in profile.systems:
        raise UnknownSystem(f"unknown system: {system!r}")
    n = len(profile.systems)
    counts = [Fraction(0)] * n
    for task in profile.tasks:
        entries = profile.positions[task]
        pos = entries.get(system)
        if pos is None:
            continue
        w = as_fraction(1 if weights is None else weights.get(task, 1))
        g = sum(1 for p in entries.values() if p == pos)
        start = int(pos - Fraction(g - 1, 2))
        share = w / g
        for place in range(start, start + g):
            counts[place - 1] += share
    return tuple(counts)


def table_position_counts(table: RankTable, system: str) -> tuple[Fraction, ...]:
    """model.position_counts as it stood on a RankTable, read from its slot
    rows, before it left the library for having no caller there.

    Weighted mass the system places at each integer rank 1..n. A tie group
    of size g spanning places p..p+g-1 contributes w/g of the task's weight
    w at each spanned place, so the total mass equals the weight of the
    tasks that rank the system.
    """
    if system not in table.systems:
        raise UnknownSystem(f"unknown system: {system!r}")
    a = table.systems.index(system)
    per_weight = table.mass_unit // table.scale
    counts = [0] * len(table.systems)
    for row, w in zip(table.place_slots()[0], table.weights):
        for p, group in enumerate(row):
            if a in group:
                counts[p] += w * per_weight // len(group)
    return tuple(Fraction(x, table.mass_unit) for x in counts)


def _total_weight(profile: RankProfile, weights: Mapping[str, Fraction]) -> Fraction:
    return sum((weights.get(t, Fraction(1)) for t in profile.tasks), Fraction(0))


# -- positional rules -------------------------------------------------------


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


def score_with_vector(
    profile: RankProfile,
    vector: ScoringVector,
    weights: Mapping[str, int | float | Fraction | str] | None = None,
) -> dict[str, Fraction]:
    """Exact per-system totals for one vector over a complete profile."""
    n = len(profile.systems)
    if len(vector) != n:
        raise VectorLengthMismatch(
            f"vector has {len(vector)} entries for {n} systems"
        )
    entries = vector.entries
    totals = {m: Fraction(0) for m in profile.systems}
    for task in profile.tasks:
        if len(profile.positions[task]) != n:
            raise MissingScore(f"task {task!r} does not rank every system")
        w = as_fraction(1 if weights is None else weights.get(task, 1))
        place = 0
        for group in profile.tie_groups(task):
            g = len(group)
            share = sum(entries[place:place + g], Fraction(0)) / g * w
            for member in group:
                totals[member] += share
            place += g
    return totals




def _parts_for_vector(
    profile: RankProfile,
    weights: Mapping[str, Fraction],
    vector: ScoringVector,
) -> RuleParts:
    scores = score_with_vector(profile, vector, weights)
    return RuleParts(
        ranking=group_by_score(scores),
        scores=scores,
        diagnostics={"vector": vector.entries},
    )


def _named(rule_id: str, factory) -> Rule:
    def run(profile: RankProfile, weights: Mapping[str, Fraction]) -> RuleParts:
        return _parts_for_vector(profile, weights, factory(len(profile.systems)))

    return Rule(rule_id, profile_run=run)


def _custom_run(
    profile: RankProfile,
    weights: Mapping[str, Fraction],
    *,
    vector: ScoringVector | Sequence[int | float | Fraction | str] | None = None,
) -> RuleParts:
    if vector is None:
        raise InvalidParameter("custom scoring needs a vector")
    if not isinstance(vector, ScoringVector):
        vector = ScoringVector.custom(vector)
    return _parts_for_vector(profile, weights, vector)


# -- threshold -------------------------------------------------------------


def _threshold_winner(
    profile: RankProfile, weights: Mapping[str, Fraction]
) -> tuple[frozenset[str], list[dict[str, Any]]]:
    """Tied set left after the top-k tie-break cascade on this profile."""
    systems = profile.systems
    n = len(systems)
    if n == 1:
        return frozenset(systems), []
    stages: list[dict[str, Any]] = []
    tied: frozenset[str] | None = None
    for zeros in range(1, n):
        vector = ScoringVector.top_k(n, n - zeros)
        scores = score_with_vector(profile, vector, weights)
        pool = systems if tied is None else tied
        best = max(scores[m] for m in pool)
        tied = frozenset(m for m in pool if scores[m] == best)
        stages.append({"zeros": zeros, "scores": scores, "tied": tuple(sorted(tied))})
        if len(tied) == 1:
            break
    assert tied is not None
    return tied, stages


def _threshold_run(profile: RankProfile, weights: Mapping[str, Fraction]) -> RuleParts:
    remaining = list(profile.systems)
    groups: list[frozenset[str]] = []
    repetitions: list[dict[str, Any]] = []
    while remaining:
        sub = profile.restrict(remaining)
        winners, stages = _threshold_winner(sub, weights)
        groups.append(winners)
        repetitions.append({"candidates": tuple(remaining), "stages": stages})
        remaining = [m for m in remaining if m not in winners]
    first = repetitions[0]["stages"]
    diagnostics = {
        "repetitions": repetitions,
        "first_round_scores": dict(first[0]["scores"]) if first else None,
    }
    return RuleParts(ranking=tuple(groups), diagnostics=diagnostics)


# -- elimination rules ------------------------------------------------------


def _finish(
    survivors: list[str],
    tiers: list[frozenset[str]],
    rounds: list[EliminationRound],
    extra: Mapping[str, Any] | None = None,
) -> RuleParts:
    ranking = (frozenset(survivors), *reversed(tiers))
    diagnostics: dict[str, Any] = {"trace": EliminationTrace(tuple(rounds))}
    if extra:
        diagnostics.update(extra)
    return RuleParts(ranking=ranking, diagnostics=diagnostics)


def _baldwin_run(profile: RankProfile, weights: Mapping[str, Fraction]) -> RuleParts:
    survivors = list(profile.systems)
    tiers: list[frozenset[str]] = []
    rounds: list[EliminationRound] = []
    while len(survivors) > 1:
        sub = profile.restrict(survivors)
        vector = ScoringVector.borda(len(survivors))
        scores = score_with_vector(sub, vector, weights)
        low = min(scores.values())
        gone = frozenset(m for m in survivors if scores[m] == low)
        if len(gone) == len(survivors):
            break
        rounds.append(EliminationRound(tuple(survivors), vector.entries, scores, gone))
        tiers.append(gone)
        survivors = [m for m in survivors if m not in gone]
    return _finish(survivors, tiers, rounds)


def _hare_run(profile: RankProfile, weights: Mapping[str, Fraction]) -> RuleParts:
    survivors = list(profile.systems)
    tiers: list[frozenset[str]] = []
    rounds: list[EliminationRound] = []
    while len(survivors) > 1:
        sub = profile.restrict(survivors)
        vector = ScoringVector.plurality(len(survivors))
        scores = score_with_vector(sub, vector, weights)
        low = min(scores.values())
        gone = frozenset(m for m in survivors if scores[m] == low)
        if len(gone) == len(survivors):
            break
        rounds.append(EliminationRound(tuple(survivors), vector.entries, scores, gone))
        tiers.append(gone)
        survivors = [m for m in survivors if m not in gone]
    return _finish(survivors, tiers, rounds)


def _coombs_run(profile: RankProfile, weights: Mapping[str, Fraction]) -> RuleParts:
    survivors = list(profile.systems)
    tiers: list[frozenset[str]] = []
    rounds: list[EliminationRound] = []
    total = _total_weight(profile, weights)
    while len(survivors) > 1:
        sub = profile.restrict(survivors)
        k = len(survivors)
        plur = score_with_vector(sub, ScoringVector.plurality(k), weights)
        best = max(plur.values())
        if 2 * best > total:
            # strict first-place majority short-circuits the eliminations;
            # at most one system can clear half the weight
            winner = next(m for m in survivors if plur[m] == best)
            rest = frozenset(m for m in survivors if m != winner)
            ranking = (frozenset({winner}), rest, *reversed(tiers))
            diagnostics = {
                "trace": EliminationTrace(tuple(rounds)),
                "majority_winner": winner,
                "majority_share": plur[winner] / total,
            }
            return RuleParts(ranking=ranking, diagnostics=diagnostics)
        last = {m: position_counts(sub, m, weights)[k - 1] for m in survivors}
        worst = max(last.values())
        gone = frozenset(m for m in survivors if last[m] == worst)
        if len(gone) == len(survivors):
            break
        vector = tuple(Fraction(1 if p == k - 1 else 0) for p in range(k))
        rounds.append(EliminationRound(tuple(survivors), vector, last, gone))
        tiers.append(gone)
        survivors = [m for m in survivors if m not in gone]
    return _finish(survivors, tiers, rounds)


def _nanson_run(profile: RankProfile, weights: Mapping[str, Fraction]) -> RuleParts:
    survivors = list(profile.systems)
    tiers: list[frozenset[str]] = []
    rounds: list[EliminationRound] = []
    while True:
        sub = profile.restrict(survivors)
        vector = ScoringVector.borda(len(survivors))
        scores = score_with_vector(sub, vector, weights)
        mean = sum(scores.values(), Fraction(0)) / len(survivors)
        gone = frozenset(m for m in survivors if scores[m] < mean)
        if not gone:
            break
        rounds.append(EliminationRound(tuple(survivors), vector.entries, scores, gone))
        tiers.append(gone)
        survivors = [m for m in survivors if m not in gone]
    return _finish(survivors, tiers, rounds)


def _black_run(profile: RankProfile, weights: Mapping[str, Fraction]) -> RuleParts:
    graph = majority_graph_from_profile(profile, weights)
    winner = condorcet_winner(graph)
    n = len(profile.systems)
    scores = score_with_vector(profile, ScoringVector.borda(n), weights)
    borda_groups = group_by_score(scores)
    if winner is None:
        return RuleParts(
            ranking=borda_groups,
            scores=scores,
            diagnostics={"path": "borda", "condorcet_winner": None},
        )
    trimmed = tuple(
        g for g in (group - {winner} for group in borda_groups) if g
    )
    return RuleParts(
        ranking=(frozenset({winner}), *trimmed),
        scores=scores,
        diagnostics={"path": "condorcet", "condorcet_winner": winner},
    )


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
        _named("plurality", ScoringVector.plurality),
        _named("two_approval", ScoringVector.two_approval),
        _named("antiplurality", ScoringVector.antiplurality),
        _named("borda", ScoringVector.borda),
        _named("dowdall", ScoringVector.dowdall),
        Rule("custom", profile_run=_custom_run),
        Rule("threshold", profile_run=_threshold_run),
        Rule("baldwin", profile_run=_baldwin_run),
        Rule("hare", profile_run=_hare_run),
        Rule("coombs", profile_run=_coombs_run),
        Rule("nanson", profile_run=_nanson_run),
        Rule("black", profile_run=_black_run),
    )
}


# -- cw dominance matrix ----------------------------------------------------


def build_dominance_matrix(lb: Leaderboard, system: str) -> DominanceMatrix:
    i = lb._sys_index(system)
    rivals = tuple(m for m in lb.systems if m != system)
    rows = []
    for rival in rivals:
        r = lb._sys_index(rival)
        row = []
        for j in range(len(lb.tasks)):
            mine = lb.scores[i][j]
            theirs = lb.scores[r][j]
            if mine is None or theirs is None or mine == theirs:
                row.append(0)
                continue
            better = mine > theirs
            if lb.directions[j] == MINIMIZE:
                better = not better
            row.append(1 if better else -1)
        rows.append(tuple(row))
    return DominanceMatrix(system, rivals, lb.tasks, tuple(rows))


# -- score baselines ----------------------------------------------------------


def _ratio(cell: int | float | Fraction) -> tuple[int, int]:
    """A cell's exact value as (numerator, denominator)."""
    # as_fraction's own conversion for floats, without the Fraction
    exact = Decimal(repr(cell)) if isinstance(cell, float) else as_fraction(cell)
    return exact.as_integer_ratio()


def exact_cells(
    systems: Sequence[str], tasks: Sequence[str], scores: Sequence[Sequence[Any]]
) -> tuple[list[list[int]], int]:
    """model.exact_cells as it stood while a board stored its cells as given
    (floats, ints or Fractions): each cell's _ratio, over their LCM.

    It takes the rows the board was built from. A missing cell raises
    MissingScore.
    """
    ratios = []
    for system, row in zip(systems, scores):
        out = []
        for task, cell in zip(tasks, row):
            if cell is None:
                raise missing_score(system, task)
            out.append(_ratio(cell))
        ratios.append(out)
    den = math.lcm(*{d for out in ratios for _, d in out})
    return [[n * (den // d) for n, d in out] for out in ratios], den


def _complete_columns(lb: Leaderboard) -> None:
    for i, system in enumerate(lb.systems):
        for j, task in enumerate(lb.tasks):
            if lb.scores[i][j] is None:
                raise MissingScore(f"system {system!r} has no score on task {task!r}")


def _weight_total(weights: Mapping[str, Fraction], tasks: Sequence[str]) -> Fraction:
    return sum((as_fraction(weights.get(t, 1)) for t in tasks), Fraction(0))


def _mean_run(lb: Leaderboard, weights: Mapping[str, Fraction]) -> RuleParts:
    _complete_columns(lb)
    total = _weight_total(weights, lb.tasks)
    scores: dict[str, Fraction] = {}
    for i, system in enumerate(lb.systems):
        acc = Fraction(0)
        for j, task in enumerate(lb.tasks):
            acc += as_fraction(weights.get(task, 1)) * as_fraction(lb.scores[i][j])
        scores[system] = acc / total
    return RuleParts(ranking=group_by_score(scores), scores=scores)


def _gmean_run(lb: Leaderboard, weights: Mapping[str, Fraction]) -> RuleParts:
    _complete_columns(lb)
    wts = [as_fraction(weights.get(t, 1)) for t in lb.tasks]
    # clear denominators so the ordering can use exact integer exponents:
    # ranking by prod(score^n_j) equals ranking by the geometric mean
    scale = math.lcm(*(w.denominator for w in wts))
    exps = [int(w * scale) for w in wts]
    n_total = sum(exps)
    products: dict[str, Fraction] = {}
    display: dict[str, float] = {}
    for i, system in enumerate(lb.systems):
        prod = Fraction(1)
        terms = []
        for j, task in enumerate(lb.tasks):
            cell = lb.scores[i][j]
            if cell <= 0:
                # the cell's float, as the board stored it
                raise NonPositiveScore(
                    f"geometric mean needs positive scores; {system!r} on {task!r} is "
                    f"{float(cell)}"
                )
            prod *= as_fraction(cell) ** exps[j]
            terms.append(exps[j] * math.log(cell))
        products[system] = prod
        # fsum is correctly rounded, so the report does not depend on task order
        display[system] = math.exp(math.fsum(terms) / n_total)
    return RuleParts(ranking=group_by_score(products), scores=display)


def _og_run(
    lb: Leaderboard,
    weights: Mapping[str, Fraction],
    *,
    gamma: int | float | Fraction | str = 0.95,
) -> RuleParts:
    _complete_columns(lb)
    g = as_fraction(gamma)
    total = _weight_total(weights, lb.tasks)
    scores: dict[str, Fraction] = {}
    for i, system in enumerate(lb.systems):
        acc = Fraction(0)
        for j, task in enumerate(lb.tasks):
            cell = as_fraction(lb.scores[i][j])
            if cell < 0 or cell > 1:
                raise ScoreOutOfRange(
                    f"optimality gap expects scores in [0, 1]; {system!r} on {task!r} is {float(cell)}"
                )
            acc += as_fraction(weights.get(task, 1)) * max(Fraction(0), g - cell)
        scores[system] = acc / total
    return RuleParts(
        ranking=group_by_score(scores, ascending=True),
        scores=scores,
        diagnostics={"gamma": g, "score_order": "ascending"},
    )


SCORE_RULES: dict[str, Rule] = {
    "mean": Rule("mean", score_run=_mean_run, elector=False),
    "gmean": Rule("gmean", score_run=_gmean_run, elector=False),
    "optimality_gap": Rule("optimality_gap", score_run=_og_run, elector=False),
}


# -- comparison measures and experiments --------------------------------------


def rho_from_rank_vectors(x: Sequence[Fraction], y: Sequence[Fraction]) -> float:
    if len(x) != len(y):
        raise ValueError("rank vectors differ in length")
    if list(x) == list(y):
        return 1.0
    n = len(x)
    sx = sum(x, Fraction(0))
    sy = sum(y, Fraction(0))
    sxx = sum((v * v for v in x), Fraction(0))
    syy = sum((v * v for v in y), Fraction(0))
    sxy = sum((a * b for a, b in zip(x, y)), Fraction(0))
    num = n * sxy - sx * sy
    den_x = n * sxx - sx * sx
    den_y = n * syy - sy * sy
    if den_x == 0 or den_y == 0:
        return 0.0
    return _signed_root(num, den_x * den_y)


def kendall_tau(r1: RuleOutcome, r2: RuleOutcome) -> float:
    """metrics.kendall_tau as it was: three walks over the pairs of the Fraction ranks."""
    order = _check_pair(r1, r2)
    f1, f2 = r1.fractional_ranks(), r2.fractional_ranks()
    x, y = [f1[m] for m in order], [f2[m] for m in order]
    if x == y:
        return 1.0
    n = len(x)
    concordant = discordant = 0
    for i, j in combinations(range(n), 2):
        sx = (x[i] > x[j]) - (x[i] < x[j])
        sy = (y[i] > y[j]) - (y[i] < y[j])
        prod = sx * sy
        if prod > 0:
            concordant += 1
        elif prod < 0:
            discordant += 1
    pairs = n * (n - 1) // 2
    ties_x = pairs - sum(1 for i, j in combinations(range(n), 2) if x[i] != x[j])
    ties_y = pairs - sum(1 for i, j in combinations(range(n), 2) if y[i] != y[j])
    den_x = pairs - ties_x
    den_y = pairs - ties_y
    if den_x == 0 or den_y == 0:
        return 0.0
    return _signed_root(Fraction(concordant - discordant), Fraction(den_x * den_y))


def restrict_systems(lb: Leaderboard, keep: Iterable[str]) -> Leaderboard:
    """Leaderboard.restrict_systems as it was, through the validating constructor."""
    wanted = set(keep)
    for m in wanted:
        lb._sys_index(m)
    systems = tuple([m for m in lb.systems if m in wanted])
    if not systems:
        raise ValueError("cannot drop every system")
    rows = tuple([lb.scores[lb.systems.index(m)] for m in systems])
    return Leaderboard(systems, lb.tasks, rows, lb.directions, lb.weights, lb.groups)


def without_cells(lb: Leaderboard, cells: Iterable[tuple[str, str]]) -> Leaderboard:
    """Leaderboard.without_cells as it was, through the validating constructor."""
    rows = [list(row) for row in lb.scores]
    for system, task in cells:
        rows[lb._sys_index(system)][lb._task_index(task)] = None
    return Leaderboard(lb.systems, lb.tasks, tuple([tuple(r) for r in rows]),
                       lb.directions, lb.weights, lb.groups)


def iia_experiment(
    lb: Leaderboard,
    rule: str,
    cfg: ExperimentConfig | None = None,
    **rule_params: Any,
) -> ExperimentReport:
    """How often adding one more system reshuffles the systems already there.

    Each trial shuffles the systems, starts from the first two, and adds the
    rest one at a time. After every addition the rule is re-run and its
    ranking restricted to the previously present systems; the trial counts
    additions that change any pairwise relation among them.
    """
    cfg = cfg or ExperimentConfig()
    if len(lb.systems) < 3:
        raise TooFewSystems("spoiler probing needs at least three systems")
    rule_obj = get_rule(rule)
    counts: list[float] = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        order = list(lb.systems)
        rng.shuffle(order)
        present = order[:2]
        prev = run_library_rule(restrict_systems(lb, present), rule_obj, BASIC, **rule_params)
        changed = 0
        for newcomer in order[2:]:
            now = present + [newcomer]
            out = run_library_rule(restrict_systems(lb, now), rule_obj, BASIC, **rule_params)
            if pair_relations(out, present) != pair_relations(prev, present):
                changed += 1
            present = now
            prev = out
        counts.append(float(changed))
    return _report("iia", cfg, {rule: counts})


def by_task(cells: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """(system index, task index) cells as robustness groups a trial's deleted
    ones: each task index mapped to its system indices."""
    gone: dict[int, set[int]] = {}
    for i, j in cells:
        gone.setdefault(j, set()).add(i)
    return gone


def impute_medians(corrupted: Leaderboard, deleted: Sequence[tuple[str, str]]) -> Leaderboard:
    """robustness_experiment's imputation, rebuilding the board once per deleted cell."""
    by_task: dict[str, list[str]] = {}
    for system, task in deleted:
        by_task.setdefault(task, []).append(system)
    board = corrupted
    for task, systems in by_task.items():
        j = corrupted.tasks.index(task)
        # the median of the cells' floats, as the board stored them
        remaining = [float(row[j]) for row in corrupted.scores if row[j] is not None]
        value = statistics.median(remaining) if remaining else 0.0
        for system in systems:
            board = with_score(board, system, task, value)
    return board


def robustness_experiment(
    lb: Leaderboard,
    rules: Sequence[str],
    cfg: ExperimentConfig | None = None,
    *,
    gamma: float = 0.95,
) -> ExperimentReport:
    """The robustness loop that ran every rule on a board rebuilt per trial."""
    cfg = cfg or ExperimentConfig(trials=100)
    if cfg.top_k > len(lb.systems):
        raise InvalidParameter("top_k cannot exceed the number of systems")
    rule_objs = {}
    for rid in rules:
        rule_obj = get_rule(rid)
        if not rule_obj.handles_missing and rid not in IMPUTABLE:
            raise RuleUnsupportedForMode(
                f"rule {rid!r} can neither tolerate missing scores nor be imputed"
            )
        rule_objs[rid] = rule_obj
    present = lb.present_cells()
    if cfg.omit_count > len(present):
        raise TooManyOmissions(
            f"cannot delete {cfg.omit_count} of {len(present)} present cells"
        )

    def params_for(rid: str) -> dict[str, Any]:
        return {"gamma": gamma} if "gamma" in rule_objs[rid].params else {}

    ref_ranks: dict[str, dict[str, Fraction]] = {}
    ref_sets: dict[str, tuple[str, ...]] = {}
    for rid in rules:
        out = run_library_rule(lb, rule_objs[rid], BASIC, **params_for(rid))
        ref_ranks[rid] = out.fractional_ranks()
        ref_sets[rid] = tuple(sorted(end_set(out, cfg.top_k)))

    series: dict[str, list[float]] = {rid: [] for rid in rules}
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        deleted = rng.sample(present, cfg.omit_count)
        corrupted = without_cells(lb, deleted)
        imputed: Leaderboard | None = None
        for rid in rules:
            if rid in IMPUTABLE:
                if imputed is None:
                    imputed = impute_medians(corrupted, deleted)
                board = imputed
            else:
                board = corrupted
            out = run_library_rule(board, rule_objs[rid], BASIC, **params_for(rid))
            ranks = out.fractional_ranks()
            chosen = ref_sets[rid]
            series[rid].append(library_rho(
                [ref_ranks[rid][m] for m in chosen],
                [ranks[m] for m in chosen],
            ))
    return _report(
        "robustness", cfg, series, omit_count=cfg.omit_count, top_k=cfg.top_k, gamma=gamma
    )


# -- outcome packaging on names ---------------------------------------------


def ranked_by(
    scores: Mapping[str, int],
    unit: int,
    *,
    ascending: bool = False,
    diagnostics: Mapping[str, Any] | None = None,
) -> RuleOutcome:
    """model.ranked_by as it stood while it took a name -> integer dict and
    returned a checked RuleOutcome."""
    return RuleOutcome(
        ranking=group_by_score(scores, ascending=ascending),
        scores=LazyScores(list(scores), list(scores.values()), unit),
        diagnostics={} if diagnostics is None else diagnostics,
    )


def chosen(
    systems: Iterable[str],
    winners: frozenset[str],
    *,
    diagnostics: Mapping[str, Any] | None = None,
) -> RuleOutcome:
    """model.chosen as it stood while it returned a checked RuleOutcome."""
    return RuleOutcome(
        ranking=(winners,) if winners else (),
        unranked=frozenset([m for m in systems if m not in winners]),
        diagnostics={} if diagnostics is None else diagnostics,
    )


def call_rule(rule: LibraryRule, mode: str, data: RankTable | Leaderboard,
              **params: Any) -> RuleOutcome:
    """modes.call_rule as it stood before run_rule named the core's result at
    its one return: the rule's outcome on a table or a board, named and
    stamped with the rule and mode."""
    return rule.run(data, **params).named(data.systems, rule.rule_id, mode)


def _tie_order(outcome: RuleOutcome, systems: frozenset[str]) -> list[frozenset[str]]:
    """The outcome's tie groups restricted to systems, empty groups dropped."""
    groups = [kept for kept in (group & systems for group in outcome.ranking) if kept]
    if sum(map(len, groups)) != len(systems):
        raise RuleUnsupportedForMode(
            f"rule {outcome.rule_id!r} leaves systems unranked, so it has no "
            "pairwise relations to probe"
        )
    return groups


def _named_on_systems(
    lb: Leaderboard, rule: LibraryRule, params: Mapping[str, Any]
) -> Callable[[Sequence[str]], RuleOutcome]:
    """experiments._on_systems as it stood while it named every outcome."""
    if rule.on_board:
        return lambda present: call_rule(rule, BASIC, lb.restrict_systems(present), **params)
    table = library_build_profile(lb, missing_ok=True)
    index = {m: i for i, m in enumerate(lb.systems)}
    holes = []
    if not rule.handles_missing:
        for j, task in enumerate(lb.tasks):
            gone = frozenset([i for i, row in enumerate(lb.cells) if row[j] is None])
            if gone:
                holes.append((task, gone))

    def run(present: Sequence[str]) -> RuleOutcome:
        kept = sorted([index[m] for m in present])
        for task, gone in holes:
            hit = [i for i in kept if i in gone]
            if hit:
                raise missing_score(lb.systems[hit[0]], task)
        return call_rule(rule, BASIC, restrict(table, kept)[0], **params)

    return run


def named_iia_experiment(
    lb: Leaderboard,
    rule: str,
    cfg: ExperimentConfig | None = None,
    **rule_params: Any,
) -> ExperimentReport:
    """iia_experiment as it stood while it named every step's outcome and
    compared the name tie groups of the present systems (_tie_order)."""
    cfg = cfg or ExperimentConfig()
    if len(lb.systems) < 3:
        raise TooFewSystems("spoiler probing needs at least three systems")
    rule_obj = get_rule(rule)
    check_params(rule_obj, rule_params)
    run = _named_on_systems(lb, rule_obj, rule_params)
    counts: list[float] = []
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        order = list(lb.systems)
        rng.shuffle(order)
        present = order[:2]
        prev = run(present)
        changed = 0
        for newcomer in order[2:]:
            now = present + [newcomer]
            out = run(now)
            kept = frozenset(present)
            if _tie_order(out, kept) != _tie_order(prev, kept):
                changed += 1
            present = now
            prev = out
        counts.append(float(changed))
    return _report("iia", cfg, {rule: counts})


def named_robustness_experiment(
    lb: Leaderboard,
    rules: Sequence[str],
    cfg: ExperimentConfig | None = None,
    *,
    gamma: float = 0.95,
) -> ExperimentReport:
    """robustness_experiment as it stood while it named every outcome and
    read each system's Fraction rank by name (its default config deleted no
    cells; the tests pass a config)."""
    cfg = cfg or ExperimentConfig(trials=100, top_k=min(7, len(lb.systems)))
    if not rules:
        raise InvalidParameter("robustness needs at least one rule")
    checked_gamma(gamma)
    if cfg.top_k > len(lb.systems):
        raise InvalidParameter("top_k cannot exceed the number of systems")
    rule_objs = {}
    for rid in rules:
        if rid in rule_objs:
            raise InvalidParameter(f"rule {rid!r} is named twice")
        rule_obj = get_rule(rid)
        if not rule_obj.handles_missing and rid not in IMPUTABLE:
            raise RuleUnsupportedForMode(
                f"rule {rid!r} can neither tolerate missing scores nor be imputed"
            )
        rule_objs[rid] = rule_obj
    present = [(i, j) for i, row in enumerate(lb.cells)
               for j, cell in enumerate(row) if cell is not None]
    if cfg.omit_count > len(present):
        raise TooManyOmissions(
            f"cannot delete {cfg.omit_count} of {len(present)} present cells"
        )
    table = None
    if any(rid not in IMPUTABLE for rid in rules):
        table = library_build_profile(lb, missing_ok=True)

    def run(rid: str, data: RankTable | Leaderboard) -> RuleOutcome:
        params = {"gamma": gamma} if "gamma" in rule_objs[rid].params else {}
        return call_rule(rule_objs[rid], BASIC, data, **params)

    ref_ranks: dict[str, dict[str, Fraction]] = {}
    ref_sets: dict[str, tuple[str, ...]] = {}
    for rid in rules:
        out = run(rid, lb if rid in IMPUTABLE else table)
        if not out.is_total():
            raise RuleUnsupportedForMode(
                f"rule {rid!r} leaves systems unranked on the intact board, "
                "so it has no ranks to correlate"
            )
        ref_ranks[rid] = out.fractional_ranks()
        ref_sets[rid] = tuple(sorted(end_set(out, cfg.top_k)))

    series: dict[str, list[float]] = {rid: [] for rid in rules}
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        deleted = rng.sample(present, cfg.omit_count)
        trimmed = None if table is None else table.without(deleted)
        imputed: Leaderboard | None = None
        for rid in rules:
            if rid in IMPUTABLE:
                if imputed is None:
                    imputed = _impute_medians(lb, by_task(deleted))
                out = run(rid, imputed)
            else:
                out = run(rid, trimmed)
            if not out.is_total():
                raise RuleUnsupportedForMode(
                    f"rule {rid!r} leaves systems unranked once cells are deleted, "
                    "so it has no ranks to correlate"
                )
            ranks = out.fractional_ranks()
            chosen_ = ref_sets[rid]
            series[rid].append(library_rho(
                [ref_ranks[rid][m] for m in chosen_],
                [ranks[m] for m in chosen_],
            ))
    return _report(
        "robustness", cfg, series, omit_count=cfg.omit_count, top_k=cfg.top_k, gamma=gamma
    )


# -- outcome JSON -------------------------------------------------------------


def _as_float(value: Fraction | float) -> float:
    """io._as_float as it stood while it read a value through float(): a
    value beyond the float range rounds to an infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def jsonify(value: Any) -> Any:
    """io.jsonify as it stood while every diagnostic mapping was a dict."""
    if isinstance(value, Fraction):
        return _as_float(value)
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: jsonify(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def outcome_json(outcome: RuleOutcome) -> str:
    """The text `voteboard rank --format json` printed for the outcome, through that jsonify."""
    ranking = []
    place = 1
    for group in outcome.ranking:
        members = sorted(group)
        score = None if outcome.scores is None else jsonify(outcome.scores[members[0]])
        ranking.append({"rank": place, "systems": members, "score": score})
        place += len(group)
    diagnostics = jsonify(dict(outcome.diagnostics))
    if outcome.unranked:
        diagnostics["unranked"] = sorted(outcome.unranked)
    payload = {"rule": outcome.rule_id, "mode": outcome.mode, "ranking": ranking,
               "diagnostics": diagnostics, "seed": None}
    return json.dumps(jsonify(payload), sort_keys=True, indent=2) + "\n"


def mapping_jsonify(value: Any) -> Any:
    """io.jsonify as it stood before it read a LazyScores from its integers:
    every Mapping, a LazyScores included, is read through its items, so a
    LazyScores builds its Fraction dict and each Fraction becomes a float."""
    if isinstance(value, Fraction):
        return _as_float(value)
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: mapping_jsonify(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(k): mapping_jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [mapping_jsonify(v) for v in value]
    return value


def outcome_to_dict(outcome: RuleOutcome) -> dict[str, Any]:
    """io.outcome_to_dict as it stood while it read each group's score through
    the scores' Fraction dict."""
    ranking = []
    place = 1
    for group in outcome.ranking:
        members = sorted(group)
        score = None
        if outcome.scores is not None:
            score = mapping_jsonify(outcome.scores[members[0]])
        ranking.append({"rank": place, "systems": members, "score": score})
        place += len(group)
    diagnostics = mapping_jsonify(dict(outcome.diagnostics))
    if outcome.unranked:
        diagnostics["unranked"] = sorted(outcome.unranked)
    return {"rule": outcome.rule_id, "mode": outcome.mode, "ranking": ranking,
            "diagnostics": diagnostics, "seed": None}


def to_json(payload: Any) -> str:
    """io.to_json as it stood while json.dumps' pure-Python encoder wrote the text."""
    return json.dumps(mapping_jsonify(payload), sort_keys=True, indent=2) + "\n"


def outcome_from_dict(data: Mapping[str, Any]) -> RuleOutcome:
    """Rebuild an outcome from its JSON form (scores become floats)."""
    ranking = []
    scores: dict[str, float] = {}
    has_scores = True
    for item in data["ranking"]:
        group = frozenset(item["systems"])
        ranking.append(group)
        if item.get("score") is None:
            has_scores = False
        else:
            for m in group:
                scores[m] = item["score"]
    diagnostics = dict(data.get("diagnostics", {}))
    unranked = frozenset(diagnostics.pop("unranked", ()))
    return RuleOutcome(
        rule_id=data["rule"],
        mode=data["mode"],
        ranking=tuple(ranking),
        scores=scores if has_scores and scores else None,
        unranked=unranked,
        diagnostics=diagnostics,
    )


# -- the whole-table pairwise-score cores ------------------------------------


def index_copeland_run(score: Callable[[int, int], int], *, ascending: bool = False):
    """majority._copeland_run: a rule ranking by score(wins, losses), each the count of rivals."""

    def run(table: RankTable) -> IndexOutcome:
        counts = table.pairwise()
        # a system beats a rival when its count over it (row) beats the rival's (col)
        scores = [score(sum(map(gt, row, col)), sum(map(gt, col, row)))
                  for row, col in zip(counts, zip(*counts))]
        order = "ascending" if ascending else "descending"
        return index_ranked_by(scores, 1, ascending=ascending, diagnostics={"score_order": order})

    return run


INDEX_CORES = {
    "copeland": index_copeland_run(lambda wins, losses: wins - losses),
    "copeland2": index_copeland_run(lambda wins, losses: wins),
    "copeland3": index_copeland_run(lambda wins, losses: losses, ascending=True),
}


def index_minimax_run(table: RankTable) -> IndexOutcome:
    """majority._minimax_run: 0 for undefeated systems, else minus the strongest defeat's support."""
    counts = table.pairwise()
    # a rival defeats a system when its count over it (col) beats the system's (row)
    scores = [-max([x for x, lost in zip(col, row) if x > lost], default=0)
              for row, col in zip(counts, zip(*counts))]
    return index_ranked_by(scores, table.scale)


INDEX_CORES["minimax"] = index_minimax_run


def net_wins(counts: Counts) -> list[int]:
    """iterative._net_wins: each system's pairwise wins minus losses, in scaled
    weight, its row sum minus its column sum."""
    return [sum(row) - sum(col) for row, col in zip(counts, zip(*counts))]


# -- exact simplex --------------------------------------------------------------


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(rows: list[list[Fraction]], z: list[Fraction] | None,
           basis: list[int], r: int, col: int) -> None:
    inv = _ONE / rows[r][col]
    rows[r] = row = [v * inv for v in rows[r]]
    for i, other in enumerate(rows):
        if i != r and other[col] != 0:
            f = other[col]
            rows[i] = [u - f * v for u, v in zip(other, row)]
    if z is not None and z[col] != 0:
        f = z[col]
        for j, v in enumerate(row):
            z[j] -= f * v
    basis[r] = col


def _iterate(rows: list[list[Fraction]], z: list[Fraction],
             basis: list[int], width: int) -> str:
    while True:
        col = next((j for j in range(width) if z[j] < 0), None)
        if col is None:
            return OPTIMAL
        pivot_row = None
        best_ratio: Fraction | None = None
        for i, row in enumerate(rows):
            a = row[col]
            if a > 0:
                ratio = row[width] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[pivot_row])
                ):
                    pivot_row, best_ratio = i, ratio
        if pivot_row is None:
            return UNBOUNDED
        _pivot(rows, z, basis, pivot_row, col)


def solve_lp(
    objective: Sequence[Fraction],
    constraints: Sequence[Constraint],
    num_vars: int,
) -> tuple[str, list[Fraction] | None]:
    """Minimize objective . x over the constraints with x >= 0."""
    if len(objective) != num_vars:
        raise ValueError("objective length must match num_vars")
    slack_count = sum(1 for _, rel, _ in constraints if rel != "==")
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_at = 0
    for coeffs, rel, b in constraints:
        if len(coeffs) != num_vars:
            raise ValueError("constraint length must match num_vars")
        row = [Fraction(v) for v in coeffs] + [_ZERO] * slack_count
        if rel == "<=":
            row[num_vars + slack_at] = _ONE
            slack_at += 1
        elif rel == ">=":
            row[num_vars + slack_at] = -_ONE
            slack_at += 1
        elif rel != "==":
            raise ValueError(f"unknown relation: {rel!r}")
        rows.append(row)
        rhs.append(Fraction(b))

    m = len(rows)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # one artificial per row keeps the setup uniform; phase 1 removes them
    n_real = num_vars + slack_count
    total = n_real + m
    for i, row in enumerate(rows):
        row.extend(_ONE if k == i else _ZERO for k in range(m))
        row.append(rhs[i])
    basis = [n_real + i for i in range(m)]

    z = [_ONE if j >= n_real else _ZERO for j in range(total)] + [_ZERO]
    for row in rows:
        for j, v in enumerate(row):
            z[j] -= v
    _iterate(rows, z, basis, total)
    if -z[total] > 0:
        return INFEASIBLE, None

    # drive leftover artificials out of the basis; drop redundant rows
    i = 0
    while i < len(rows):
        if basis[i] >= n_real:
            col = next((j for j in range(n_real) if rows[i][j] != 0), None)
            if col is None:
                del rows[i]
                del basis[i]
                continue
            _pivot(rows, None, basis, i, col)
        i += 1
    rows = [row[:n_real] + [row[total]] for row in rows]

    z = [Fraction(v) for v in objective] + [_ZERO] * slack_count + [_ZERO]
    for i, row in enumerate(rows):
        b = basis[i]
        cost = Fraction(objective[b]) if b < num_vars else _ZERO
        if cost != 0:
            for j, v in enumerate(row):
                z[j] -= cost * v
    status = _iterate(rows, z, basis, n_real)
    if status == UNBOUNDED:
        return UNBOUNDED, None
    x = [_ZERO] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            x[b] = rows[i][n_real]
    return OPTIMAL, x
