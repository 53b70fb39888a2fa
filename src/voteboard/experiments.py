"""Seeded counterfactual experiments on leaderboards.

Both experiments derive one independent RNG substream per trial from the
master seed, so results do not depend on trial order and re-runs are
bit-identical. Substreams come from string-seeded stdlib generators, which
are stable across platforms and hash seeds.

iia permutes the board into each trial's arrival order and builds its
RankTable once per trial; step k runs the rule on the first k systems
(RankTable.prefix), so the newcomer is system k - 1. The copeland rules,
minimax and borda run no core there: step k folds the newcomer into
running scores over the trial table's counts (majority.PairScore.running),
borda's as the net wins, which order a complete prefix as Borda does.
robustness builds one
RankTable per op and runs each trial on it with the deleted cells
unranked. A derived table builds its tie orders and pairwise counts from
its parent's when each is first read, so a rule that reads only the
counts (copeland, minimax, baldwin, nanson) never builds the orders.
The score baselines read boards derived from the board without rechecks,
whose integer cells are sliced or set: a robustness trial names its deleted
cells by (system, task) index, and the board it imputes is derived from the
full board once, each deleted cell set to its task's median's exact
ratio. Nothing outlives the op.
The loops call each rule's core and read its index result unnamed: iia
compares index tie groups, robustness doubled integer ranks.
"""

from __future__ import annotations

import math
import random
import statistics
from decimal import Decimal
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .errors import (
    InvalidParameter,
    MissingScore,
    RuleUnsupportedForMode,
    ScoreOutOfRange,
    TooFewSystems,
    TooManyOmissions,
    VoteboardError,
)
from .majority import NET, PAIR_SCORES
from .metrics import DEFAULT_GAMMA, checked_gamma, rho_from_rank_vectors
from .model import (IndexOutcome, Leaderboard, RankTable, build_profile, doubled_ranks,
                    first_groups)
from .modes import check_params
from .registry import get_rule

# score aggregators repaired by per-task median imputation instead of
# native missing-score handling
IMPUTABLE = ("mean", "optimality_gap")


def trial_rng(seed: int, trial: int) -> random.Random:
    """Independent, platform-stable substream for one trial."""
    return random.Random(f"{seed}:{trial}")


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment's seed and trials; robustness alone reads omit_count and
    top_k. Each is an int, and not a bool."""

    seed: int = 0
    trials: int = 50
    omit_count: int = 1
    top_k: int = 7

    def __post_init__(self) -> None:
        for name in ("seed", "trials", "omit_count", "top_k"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidParameter(f"{name} must be an int, not {value!r}")
        if self.trials < 1:
            raise InvalidParameter("trials must be at least 1")
        if self.omit_count < 0:
            raise InvalidParameter("omit_count must be non-negative")
        if self.top_k < 1:
            raise InvalidParameter("top_k must be at least 1")


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    seed: int
    trials: int
    series: Mapping[str, tuple[float, ...]]
    mean: Mapping[str, float]
    sd: Mapping[str, float]
    params: Mapping[str, Any] = field(default_factory=dict)


def _stdev(values: Sequence[float]) -> float:
    """The sample standard deviation, correctly rounded: the variance exact
    over the floats' largest denominator, a power of two common to all, and
    its root to 109 bits, rounded to odd, so that one rounding is left."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max([d for _, d in ratios])
    nums = [n * (den // d) for n, d in ratios]
    m = len(nums)
    top, bottom = m * sum([x * x for x in nums]) - sum(nums) ** 2, m * (m - 1) * den * den
    q = (top.bit_length() - bottom.bit_length() - 109) // 2
    top, bottom = (top, bottom << 2 * q) if q >= 0 else (top << -2 * q, bottom)
    root = math.isqrt(top // bottom)
    root |= root * root * bottom != top
    return float(root << q) if q >= 0 else root / (1 << -q)


def _report(
    kind: str,
    cfg: ExperimentConfig,
    series: Mapping[str, Sequence[float]],
    **params: Any,
) -> ExperimentReport:
    fixed = {k: tuple([float(v) for v in vals]) for k, vals in series.items()}
    mean = {k: statistics.fmean(v) for k, v in fixed.items()}
    sd = {k: _stdev(v) if len(v) > 1 else 0.0 for k, v in fixed.items()}
    return ExperimentReport(kind, cfg.seed, cfg.trials, fixed, mean, sd, dict(params))


def iia_experiment(
    lb: Leaderboard,
    rule: str,
    cfg: ExperimentConfig | None = None,
    **rule_params: Any,
) -> ExperimentReport:
    """How often adding one more system reshuffles the systems already there.

    Each trial shuffles the systems into their arrival order, starts from
    the first two, and adds the rest one at a time, numbering each system by
    its arrival. After every addition the rule is re-run and its
    ranking restricted to the previously present systems; the trial counts
    additions that change any pairwise relation among them. Two weak orders
    agree on every pair exactly when their restricted tie groups form the
    same sequence, so that is what is compared. A rule that leaves a present
    system unranked raises RuleUnsupportedForMode, and so does custom, whose
    vector fits one number of systems, before the first trial.

    A step's refusal is the one the rule gives, as aggregate would, on the
    present systems in board order: a step that refuses, because the rule
    raises or, for a rule without missing-score support, a system with a
    hole is present, is rerun there on Rule.data.
    """
    cfg = cfg or ExperimentConfig()
    n = len(lb.systems)
    if n < 3:
        raise TooFewSystems("spoiler probing needs at least three systems")
    rule_obj = get_rule(rule)
    check_params(rule_obj, rule_params)
    if "vector" in rule_obj.params:
        raise RuleUnsupportedForMode(f"rule {rule!r} has a vector for one number of systems")
    # the rules whose scores iia folds step by step; borda orders as the net
    # term on a complete prefix, the only kind it ranks
    running = NET if rule == "borda" else PAIR_SCORES.get(rule)
    holed = set() if rule_obj.on_board or rule_obj.handles_missing else {
        i for i, row in enumerate(lb.cells) if None in row}
    counts: list[float] = []
    for trial in range(cfg.trials):
        order = list(range(n))
        trial_rng(cfg.seed, trial).shuffle(order)
        hole_at = next((p for p, i in enumerate(order) if i in holed), n)
        table = None if rule_obj.on_board else build_profile(lb._rows(order), missing_ok=True)
        steps = running and running.running(table.pairwise())
        changed = 0
        for k in range(2, n + 1):
            try:
                if k > hole_at:
                    # the rerun below names the present system with a hole
                    raise MissingScore
                out = IndexOutcome(next(steps)) if steps else rule_obj.run(
                    lb._rows(order[:k]) if table is None else table.prefix(k), **rule_params)
            except VoteboardError:
                rule_obj.run(rule_obj.data(lb._rows(sorted(order[:k]))), **rule_params)
                raise
            if k > 2:
                if prev.unranked or any([i != k - 1 for i in out.unranked]):
                    raise RuleUnsupportedForMode(
                        f"rule {rule!r} leaves systems unranked, so it has no "
                        "pairwise relations to probe"
                    )
                # out's groups without the newcomer, k - 1, the last member of its group
                kept = [group[:-1] if group[-1] == k - 1 else group for group in out.groups]
                if [group for group in kept if group] != prev.groups:
                    changed += 1
            prev = out
        counts.append(float(changed))
    return _report("iia", cfg, {rule: counts})


def _impute_medians(lb: Leaderboard, deleted: Sequence[tuple[int, int]]) -> Leaderboard:
    """The board with each deleted cell (system index, task index) set to its
    task's median.

    Each median, of the floats of the task's cells that are neither missing
    nor deleted, is taken once from the intact board, and the imputed board
    is derived from it once."""
    gone: dict[int, set[int]] = {}
    for i, j in deleted:
        gone.setdefault(j, set()).add(i)
    den = lb.denominator
    cells: dict[tuple[int, int], tuple[int, int]] = {}
    for j, rows in gone.items():
        # int true division rounds correctly: each is the cell's float
        remaining = [row[j] / den for i, row in enumerate(lb.cells)
                     if row[j] is not None and i not in rows]
        # a column emptied entirely becomes constant, hence uninformative
        median = float(statistics.median(remaining)) if remaining else 0.0
        if not math.isfinite(median):
            # the mean of two cells near the float limit overflows
            raise ScoreOutOfRange("scores must be finite or None")
        # the median's exact ratio, as cell_ratio gives it, without a Fraction
        cells.update(dict.fromkeys([(i, j) for i in rows], Decimal(repr(median)).as_integer_ratio()))
    return lb._with_cells(cells)


def robustness_experiment(
    lb: Leaderboard,
    rules: Sequence[str],
    cfg: ExperimentConfig | None = None,
    *,
    gamma: float = DEFAULT_GAMMA,
) -> ExperimentReport:
    """Rank stability of the intact top-k under random score deletion.

    Per trial, omit_count present cells are deleted (the same cells for
    every rule). Majority-based rules rerun natively on the holes, on the
    full board's table with the deleted cells unranked; the mean and
    optimality-gap baselines get each deleted cell imputed with its task's
    median over the cells neither missing nor deleted. The trial result per
    rule is the Spearman correlation between the reference ranks of the
    intact top-k systems and their ranks after deletion. A rule that leaves
    a system unranked, on the intact board or after a trial's deletions, is
    refused, and so are an empty rule list, a rule named twice and a gamma
    that is not a finite positive number, whether a rule reads it or not
    (InvalidParameter), and so is a top_k above the number of systems.
    Without cfg, 100 trials delete one cell each, as the command line's
    --omit does by default, and top_k is 7, or the number of systems if
    that is smaller.
    """
    cfg = cfg or ExperimentConfig(trials=100, top_k=min(7, len(lb.systems)))
    if isinstance(rules, str):
        raise InvalidParameter(f"rules must be a sequence of rule ids, not the string {rules!r}")
    if not rules:
        raise InvalidParameter("robustness needs at least one rule")
    checked_gamma(gamma)
    if cfg.top_k > len(lb.systems):
        raise InvalidParameter("top_k cannot exceed the number of systems")
    rule_objs = {}
    for rid in rules:
        # looked up first: an unhashable id is an unknown rule, not a duplicate
        rule_obj = get_rule(rid)
        if rid in rule_objs:
            raise InvalidParameter(f"rule {rid!r} is named twice")
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
        # the rules that tolerate missing scores are profile rules
        table = build_profile(lb, missing_ok=True)

    params = {rid: {"gamma": gamma} if "gamma" in rule.params else {}
              for rid, rule in rule_objs.items()}

    def ranked(rid: str, data: RankTable | Leaderboard, when: str) -> IndexOutcome:
        """The rule's result on data, refused on every call if it leaves a
        system unranked: a set rule's intact winners may be everyone."""
        out = rule_objs[rid].run(data, **params[rid])
        if out.unranked:
            raise RuleUnsupportedForMode(
                f"rule {rid!r} leaves systems unranked {when}, so it has no ranks to correlate"
            )
        return out

    # each rule's intact top-k, grown to whole tie groups, and their doubled ranks
    top: dict[str, list[int]] = {}
    ref_ranks: dict[str, list[int]] = {}
    for rid in rules:
        out = ranked(rid, lb if rid in IMPUTABLE else table, "on the intact board")
        top[rid] = first_groups(out.groups, cfg.top_k)
        ranks = doubled_ranks(out.groups)
        ref_ranks[rid] = [ranks[i] for i in top[rid]]

    series: dict[str, list[float]] = {rid: [] for rid in rules}
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        deleted = rng.sample(present, cfg.omit_count)
        trimmed = None if table is None else table.without(deleted)
        imputed: Leaderboard | None = None
        for rid in rules:
            if rid in IMPUTABLE and imputed is None:
                imputed = _impute_medians(lb, deleted)
            out = ranked(rid, imputed if rid in IMPUTABLE else trimmed, "once cells are deleted")
            # both vectors doubled, so rho is what it is of the fractional ranks
            ranks = doubled_ranks(out.groups)
            series[rid].append(rho_from_rank_vectors(ref_ranks[rid], [ranks[i] for i in top[rid]]))
    return _report(
        "robustness", cfg, series, omit_count=cfg.omit_count, top_k=cfg.top_k, gamma=gamma
    )
