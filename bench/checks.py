"""Output checks, run outside the timed region.

Every op's output is reduced to its decision: tie groups, the unranked set,
exact scores, compare statistics, the cw-weights status and witness, or an
experiment's series. Diagnostics are left out. A digest of the decision
must be the same on every repetition of the op in a run, in the traced and
the untraced flow, and, for the seeds in `digests.json`, equal to the
recorded one.

On top of that:
- winner sets of the rank requests on glue-cli boards are cross-checked
  against `tests/oracle.py`, for every rule whose oracle does not enumerate
  subsets;
- each cw-weights witness is verified with the benchmark's own exact
  arithmetic, so a different valid vertex still passes;
- a failing op must be one of the documented known failures.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Callable

from workloads import KNOWN_FAILURES

WEAKLY_STABLE_LIMIT = 18
# digest of a failed op, whatever the exit code or exception: a known failure
# may change its error type (ROADMAP item 5) without the run turning incorrect
FAILED = "failed"


def digest(decision: Any) -> str:
    """Short hash of a decision.

    A cw-weights witness is left out: any vertex of the feasible region is a
    valid answer, so only its status is pinned and the witness is verified
    by `check_cw` instead.
    """
    if isinstance(decision, dict) and "weights" in decision:
        decision = {k: v for k, v in decision.items() if k != "weights"}
    text = json.dumps(decision, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def cli_decision(command: str, stdout: str) -> Any:
    """The decision part of a successful CLI reply."""
    if command == "rank-table":
        return {"table": stdout}
    data = json.loads(stdout)
    if command == "rank":
        return {
            "ranking": [[g["systems"], g["score"]] for g in data["ranking"]],
            "unranked": data["diagnostics"].get("unranked", []),
        }
    if command == "compare":
        return {"stats": data["stats"]}
    return {"status": data["status"], "weights": data["weights"]}


def outcome_decision(outcome) -> Any:
    scores = None
    if outcome.scores is not None:
        scores = {m: str(v) for m, v in sorted(outcome.scores.items())}
    return {
        "ranking": [sorted(g) for g in outcome.ranking],
        "unranked": sorted(outcome.unranked),
        "scores": scores,
    }


def report_decision(report) -> Any:
    return {"series": {k: list(v) for k, v in report.series.items()}}


def winners_of(decision: Any) -> list[str] | None:
    """Top tie group of a rank or aggregate decision."""
    ranking = decision.get("ranking") if isinstance(decision, dict) else None
    if ranking is None:
        return None
    if not ranking:
        return []
    top = ranking[0]
    return list(top[0] if isinstance(top[0], list) else top)


class CheckLog:
    """Collects check failures; the run is correct only if none occur."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)

    @property
    def ok(self) -> bool:
        return not self.problems


def check_known_failures(failed: dict[str, str], ops_by_id, decisions, log: CheckLog) -> None:
    """Every failing op must be a documented known failure.

    A weakly_stable refusal counts as known only when the same board's
    minimal_dominant result has more than 18 systems.
    """
    for op_id, reason in failed.items():
        op = ops_by_id[op_id]
        if op.key not in KNOWN_FAILURES:
            log.fail(f"{op_id}: unexpected failure ({reason})")
            continue
        if op.key.endswith(":weakly_stable"):
            sibling = op_id.rsplit(":", 1)[0] + ":minimal_dominant"
            top = winners_of(decisions.get(sibling))
            if top is None or len(top) <= WEAKLY_STABLE_LIMIT:
                log.fail(f"{op_id}: refused although the dominant set has "
                         f"{None if top is None else len(top)} systems")


def check_partition(op_id: str, decision: Any, systems: tuple[str, ...], log: CheckLog) -> None:
    seen = [m for group in decision["ranking"] for m in group] + decision["unranked"]
    if sorted(seen) != sorted(systems):
        log.fail(f"{op_id}: ranking and unranked set do not partition the systems")


def check_series(op_id: str, decision: Any, trials: int, lo: float, hi: float,
                 log: CheckLog) -> None:
    for name, values in decision["series"].items():
        if len(values) != trials or not all(lo <= v <= hi for v in values):
            log.fail(f"{op_id}: series {name} has wrong length or a value outside [{lo}, {hi}]")


# -- oracle cross-check --------------------------------------------------------


def oracle_rules(oracle) -> dict[str, Callable[[Any], Any]]:
    """Rule id -> oracle winner function, for rules the oracle does not enumerate."""
    def positional(entries):
        return lambda lb: oracle.argmax_set(
            oracle.vector_scores(lb, entries(len(lb.systems))))

    def condorcet(lb):
        w = oracle.condorcet_winner(lb)
        return set() if w is None else {w}

    return {
        "plurality": positional(oracle.plurality_entries),
        "two_approval": positional(oracle.two_approval_entries),
        "antiplurality": positional(oracle.antiplurality_entries),
        "borda": positional(oracle.borda_entries),
        "dowdall": positional(oracle.dowdall_entries),
        "threshold": oracle.threshold_winners,
        "baldwin": oracle.baldwin_winners,
        "hare": oracle.hare_winners,
        "coombs": oracle.coombs_winners,
        "nanson": oracle.nanson_winners,
        "black": oracle.black_winners,
        "condorcet": condorcet,
        "copeland": lambda lb: oracle.copeland_winners(lb, 1),
        "copeland2": lambda lb: oracle.copeland_winners(lb, 2),
        "copeland3": lambda lb: oracle.copeland_winners(lb, 3),
        "minimax": oracle.minimax_winners,
        "uncovered": lambda lb: oracle.uncovered(lb, 1),
        "uncovered2": lambda lb: oracle.uncovered(lb, 2),
        "richelson": lambda lb: oracle.uncovered(lb, 3),
        "fishburn": lambda lb: oracle.uncovered(lb, 4),
        "mean": oracle.mean_winners,
        "gmean": oracle.gmean_winners,
        "optimality_gap": oracle.og_winners,
    }


def check_against_oracle(oracle, board_name: str, lb, decisions, log: CheckLog) -> int:
    """Compare winner sets of the board's basic rank requests; returns rules checked."""
    checked = 0
    for rule, winners_fn in oracle_rules(oracle).items():
        op_id = f"{board_name}:rank:{rule}"
        top = winners_of(decisions.get(op_id))
        if top is None:
            continue
        expected = winners_fn(lb)
        if set(top) != set(expected):
            log.fail(f"{op_id}: winners {sorted(top)} differ from the oracle's {sorted(expected)}")
        checked += 1
    return checked


# -- cw-weights witness ----------------------------------------------------------


def dominance_rows(lb, system: str) -> list[list[int]]:
    """Sign of system-vs-rival per task, from the raw cells."""
    rows = []
    for rival in lb.systems:
        if rival == system:
            continue
        row = []
        for task in lb.tasks:
            mine, theirs = lb.score(system, task), lb.score(rival, task)
            if mine is None or theirs is None or mine == theirs:
                row.append(0)
                continue
            better = (mine > theirs) != (lb.direction(task) == "min")
            row.append(1 if better else -1)
        rows.append(row)
    return rows


def check_cw(op_id: str, decision: Any, lb, system: str, solve, log: CheckLog) -> None:
    """Re-solve exactly and verify the witness against rows built here.

    `solve(lb, system)` returns (status, exact witness or None). The CLI's
    reply must carry the same status and the witness rounded to floats.
    """
    status, witness = solve(lb, system)
    if status != decision["status"]:
        log.fail(f"{op_id}: status {decision['status']} but the exact solve gives {status}")
        return
    if witness is None:
        if decision["weights"] is not None:
            log.fail(f"{op_id}: weights printed without a witness")
        return
    printed = [decision["weights"][t] for t in lb.tasks]
    if printed != [float(w) for w in witness]:
        log.fail(f"{op_id}: printed weights differ from the exact witness")
    w = [Fraction(v) for v in witness]
    if any(v < 0 for v in w) or sum(w) != 1:
        log.fail(f"{op_id}: witness is not a probability vector")
    for row in dominance_rows(lb, system):
        if sum(c * v for c, v in zip(row, w)) < 0:
            log.fail(f"{op_id}: witness loses a duel")
            return
