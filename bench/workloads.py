"""The benchmark's workloads: which boards each one generates and which ops it issues.

Every op is one closed-loop request. An op names its board, so its inputs
depend only on the seed that generated the boards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from boards import BoardSpec

# the 27 rule ids by family (the module that implements them)
POSITIONAL = ("plurality", "two_approval", "antiplurality", "borda", "dowdall", "custom")
ELIMINATION = ("baldwin", "nanson", "hare", "coombs")
SCORERS = ("condorcet", "copeland", "copeland2", "copeland3", "minimax")
SET_RULES = ("minimal_dominant", "minimal_undominated", "uncovered", "uncovered2",
             "richelson", "fishburn", "weakly_stable")
BASELINES = ("mean", "gmean", "optimality_gap")
RULE_IDS = tuple(sorted(
    POSITIONAL + ELIMINATION + SCORERS + SET_RULES + BASELINES + ("threshold", "black")
))
# rules whose full output is a total preorder, so they can vote in two_step
ELECTOR_RULES = (
    "antiplurality", "baldwin", "black", "borda", "coombs", "copeland",
    "copeland2", "copeland3", "custom", "dowdall", "hare", "minimax",
    "nanson", "plurality", "threshold", "two_approval",
)
COMPARED_RULES = ("borda", "copeland", "minimax", "threshold", "baldwin")

# Ops that fail, for a documented reason, at the commit that added this
# benchmark. A failing op counts in `failed`; a failure outside this list
# makes the run incorrect.
#  - the CLI has no flag for a custom scoring vector, so `rank --rule custom`
#    exits 3 in every mode;
#  - weakly_stable refuses (RuntimeError, exit 3 through the CLI) when the
#    minimal dominant set has more than 18 systems, as on low-skill boards.
KNOWN_FAILURES = {
    "cli:rank:custom": "the CLI cannot pass a custom scoring vector",
    "cli:two_step:custom": "the CLI cannot pass a custom scoring vector",
    "cli:rank:weakly_stable": "dominant set larger than 18 systems",
    "lib:aggregate:weakly_stable": "dominant set larger than 18 systems",
}


@dataclass(frozen=True)
class Op:
    """One request. `kind` picks the adapter call; `key` names its family."""

    op_id: str
    kind: str
    board: str
    key: str
    args: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    boards: tuple[BoardSpec, ...]
    ops: tuple[Op, ...]


def _cycle(values, n):
    return tuple(values[j % len(values)] for j in range(n))


# Skill spreads run from CYCLIC (no common skill; every task favours its own
# arc of a circle of systems, so all of them form one top cycle on every
# seed) to 2.0 (strongly transitive). Spreads between about 0.3 and 0.8 are
# left out on purpose: there the top cycle's size is a lottery over the
# seed, and weakly_stable's exhaustive search costs 2^k, from milliseconds
# to several seconds per op, which would swamp every metric of the run.
CYCLIC = None
CYCLE_AMPLITUDE = 3.0
# Each workload repeats its ladder of spreads over enough boards for 20 to
# 40 s of ops in one pass and at least 100 ops, so p90 has ten ops beyond
# it. What an op costs varies with its board's noise (threshold on a
# transitive 50 x 20 board takes 5 to 8 s), and a seed's boards are a
# sample of that variation: the more boards in a pass, the less a run's
# figures depend on the seed.
SPREAD_LADDER = (CYCLIC, 1.0, 1.5, 2.0)


def _shaped(*, name, systems, tasks, spread, **rest) -> BoardSpec:
    if spread is CYCLIC:
        return BoardSpec(name=name, systems=systems, tasks=tasks, spread=0.0,
                         cycle=CYCLE_AMPLITUDE, **rest)
    return BoardSpec(name=name, systems=systems, tasks=tasks, spread=spread, **rest)


# -- glue-cli ----------------------------------------------------------------
# GLUE-shaped boards, every op one CLI request. Per-request layers (argument
# parsing, CSV parse, Leaderboard checks, profile, outcome packaging, render)
# and the exact simplex behind cw-weights carry most of the time; the kernels
# are small at 20 systems, so a kernel change should barely move this one.

GLUE_TASKS = ("cola", "sst2", "mrpc", "stsb", "qqp", "mnli", "qnli", "rte", "wnli")
GLUE_GROUPS = (
    ("single", ("cola", "sst2")),
    ("similarity", ("mrpc", "stsb", "qqp")),
    ("inference", ("mnli", "qnli", "rte", "wnli")),
)
GLUE_SPREADS = SPREAD_LADDER * 2


def _glue_board(k: int, spread: float) -> BoardSpec:
    return _shaped(
        name=f"glue{k}",
        systems=20,
        tasks=GLUE_TASKS,
        spread=spread,
        weights=_cycle((Fraction(1), Fraction(1, 2), Fraction(2)), len(GLUE_TASKS)),
        directions=tuple("min" if t in ("stsb", "rte") else "max" for t in GLUE_TASKS),
        groups=GLUE_GROUPS,
    )


def _glue_ops(board: BoardSpec) -> list[Op]:
    ops = []
    for rule in RULE_IDS:
        ops.append(Op(f"{board.name}:rank:{rule}", "cli", board.name, f"cli:rank:{rule}",
                      {"command": "rank", "rule": rule, "mode": "basic"}))
    for rule in ELECTOR_RULES:
        ops.append(Op(f"{board.name}:two_step:{rule}", "cli", board.name,
                      f"cli:two_step:{rule}",
                      {"command": "rank", "rule": rule, "mode": "two_step"}))
    for rule in COMPARED_RULES:
        ops.append(Op(f"{board.name}:compare:{rule}", "cli", board.name, f"cli:compare:{rule}",
                      {"command": "compare", "rules": (rule, "mean")}))
    width = len(str(board.systems - 1))
    for i in range(0, board.systems, 5):
        system = f"sys{i:0{width}d}"
        ops.append(Op(f"{board.name}:cw-weights:{system}", "cli", board.name,
                      "cli:cw-weights", {"command": "cw-weights", "system": system}))
    return ops


# -- wide-lib ----------------------------------------------------------------
# 50 x 20 boards through the library. The n^2 pairwise kernel and the
# superquadratic iterative rules (threshold, coombs, baldwin) do nearly all
# the work; parse, render and the simplex do none, so a change to those
# should leave this workload unmoved.

WIDE_SPREADS = SPREAD_LADDER


def _wide_board(k: int, spread: float) -> BoardSpec:
    tasks = tuple(f"t{j:02d}" for j in range(20))
    return _shaped(
        name=f"wide{k}",
        systems=50,
        tasks=tasks,
        spread=spread,
        weights=_cycle((Fraction(1), Fraction(1, 2), Fraction(1, 3)), len(tasks)),
        directions=("max",) * len(tasks),
    )


def custom_vector(n: int) -> tuple[int, ...]:
    """Fixed non-increasing vector for `custom`: 3 for the top fifth, then 2, 1, 0."""
    return tuple(3 - min(3, (4 * p) // n) for p in range(n))


def _wide_ops(board: BoardSpec) -> list[Op]:
    ops = []
    for rule in RULE_IDS:
        args: dict[str, Any] = {"rule": rule}
        if rule == "custom":
            args["vector"] = custom_vector(board.systems)
        ops.append(Op(f"{board.name}:{rule}", "aggregate", board.name,
                      f"lib:aggregate:{rule}", args))
    return ops


# -- perturb -----------------------------------------------------------------
# Criterion-7-shaped boards under the IIA and robustness experiments. The
# same profile and pairwise layers as wide-lib run hundreds of times per op,
# on small derived boards with missing cells, so a change that buys wide-lib
# speed with per-board set-up work (precomputation, caching) loses here.

PERTURB_SPREADS = SPREAD_LADDER * 3
ROBUST_RULES = ("copeland", "minimax", "mean")
ROBUST_OMITS = (1, 5, 10, 20)
ROBUST_TRIALS = 6
IIA_RULES = ("borda", "copeland", "minimax", "baldwin", "mean")
IIA_TRIALS = 2


def _perturb_board(k: int, spread: float) -> BoardSpec:
    tasks = tuple(f"t{j}" for j in range(9))
    return _shaped(
        name=f"perturb{k}",
        systems=20,
        tasks=tasks,
        spread=spread,
        weights=(Fraction(1),) * len(tasks),
        directions=("max",) * len(tasks),
    )


def _perturb_ops(board: BoardSpec, index: int) -> list[Op]:
    ops = []
    for omit in ROBUST_OMITS:
        ops.append(Op(f"{board.name}:robustness:{omit}", "robustness", board.name,
                      "lib:robustness",
                      {"rules": ROBUST_RULES, "omit": omit, "trials": ROBUST_TRIALS,
                       "top_k": 7, "seed": 100 * index + omit}))
    for rule in IIA_RULES:
        ops.append(Op(f"{board.name}:iia:{rule}", "iia", board.name, f"lib:iia:{rule}",
                      {"rule": rule, "trials": IIA_TRIALS, "seed": 100 * index}))
    return ops


def _workload(name, make_board, spreads, make_ops) -> Workload:
    boards = tuple(make_board(k, s) for k, s in enumerate(spreads))
    ops: list[Op] = []
    for k, board in enumerate(boards):
        ops.extend(make_ops(board, k))
    return Workload(name, boards, tuple(ops))


WORKLOADS = {
    w.name: w
    for w in (
        _workload("glue-cli", _glue_board, GLUE_SPREADS, lambda b, k: _glue_ops(b)),
        _workload("wide-lib", _wide_board, WIDE_SPREADS, lambda b, k: _wide_ops(b)),
        _workload("perturb", _perturb_board, PERTURB_SPREADS, _perturb_ops),
    )
}
