"""Weight feasibility: can any task weighting make a system the majority champion?

For a fixed system m, each rival contributes one constraint row: the signed
per-task comparison pattern of m against that rival, read straight from
the board's exact integer cells. m is prospective when
some weight vector w (non-negative, summing to one, optionally box-bounded)
satisfies G w >= margin elementwise. At the default margin 0 that makes m a
weak Condorcet winner: every row's weighted sum is non-negative, so no
rival beats m under w, though some may tie it. A positive margin asks for a
strict win, by at least that weighted margin, against every rival.
Feasibility is decided by an exact simplex and the witness is re-verified
arithmetically before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InfeasibleBounds, InvalidParameter
from .linprog import INFEASIBLE, OPTIMAL, solve_lp
from .model import MINIMIZE, Leaderboard, _number, _sequence, integer_weights

PROSPECTIVE = "prospective"
NON_PROSPECTIVE = "non_prospective"


@dataclass(frozen=True)
class DominanceMatrix:
    """Rows of {-1, 0, +1}: system-vs-rival comparison per task.

    +1 where the system strictly beats the rival on the task (after
    direction adjustment), -1 where it strictly loses, 0 on ties and
    wherever either score is missing.
    """

    system: str
    rivals: tuple[str, ...]
    tasks: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FeasibilityResult:
    status: str
    witness: tuple[Fraction, ...] | None
    active_constraints: tuple[int, ...]

    @property
    def prospective(self) -> bool:
        return self.status == PROSPECTIVE


def build_dominance_matrix(lb: Leaderboard, system: str) -> DominanceMatrix:
    """The system's row against each rival, compared from the exact cells.

    A task's sign compares the two integer cells, negated on a min task; a
    cell missing on either side ties.
    """
    i = lb._sys_index(system)
    signs = [-1 if d == MINIMIZE else 1 for d in lb.directions]
    mine = lb.cells[i]
    rows = tuple([
        tuple([0 if a is None or b is None else s * ((a > b) - (a < b))
               for a, b, s in zip(mine, row, signs)])
        for r, row in enumerate(lb.cells) if r != i
    ])
    rivals = tuple([m for m in lb.systems if m != system])
    return DominanceMatrix(system, rivals, lb.tasks, rows)


def _per_task(values: Sequence | float | Fraction | str | None, size: int, what: str, *,
              blanks: bool = False, blank: Fraction | None = None) -> tuple:
    """values read by as_fraction, one per task. Where blanks are allowed,
    None or a single value stands for every task, and None reads as blank."""
    if blanks and (values is None or isinstance(values, (int, float, Fraction, str))):
        values = [values] * size
    out = tuple([blank if blanks and v is None else _number(v, what)
                 for v in _sequence(values, what, "numbers", InvalidParameter)])
    if len(out) != size:
        raise InvalidParameter(f"{what} length must match the task count")
    return out


def find_cw_weights(
    matrix: DominanceMatrix,
    *,
    lower_bounds=None,
    upper_bounds=None,
    margin: int | float | Fraction | str = 0,
    objective: Sequence[int | float | Fraction | str] | None = None,
) -> FeasibilityResult:
    """Solve { G w >= margin, lower <= w <= upper, sum w = 1 } exactly.

    With an objective, the returned witness additionally minimizes that
    linear functional over the feasible region. Contradictory bounds raise
    InfeasibleBounds; an empty region otherwise is a normal non-prospective
    answer.
    """
    t = len(matrix.tasks)
    (eps,) = _per_task([margin], 1, "margin")
    if eps < 0:
        raise InvalidParameter("margin must be non-negative")
    lower = _per_task(lower_bounds, t, "bound", blanks=True, blank=Fraction(0))
    upper = _per_task(upper_bounds, t, "bound", blanks=True)
    for lo, up in zip(lower, upper):
        if lo < 0:
            raise InvalidParameter("lower bounds must be non-negative")
        if up is not None and up < lo:
            raise InfeasibleBounds("upper bound below lower bound")
    low_sum = sum(lower, Fraction(0))
    if low_sum > 1:
        raise InfeasibleBounds("lower bounds sum beyond 1")
    if all(u is not None for u in upper) and sum(upper, Fraction(0)) < 1:
        raise InfeasibleBounds("upper bounds cannot reach a total of 1")

    # substitute v = w - lower, v >= 0; a row's shift is an integer over lower's denominator
    constraints = [((1,) * t, "==", 1 - low_sum)]
    low_nums, low_den = integer_weights(lower)
    for row in matrix.rows:
        shift = Fraction(sum([c * n for c, n in zip(row, low_nums)]), low_den)
        constraints.append((row, ">=", eps - shift))
    for j, up in enumerate(upper):
        if up is None:
            continue
        unit = tuple([1 if k == j else 0 for k in range(t)])
        constraints.append((unit, "<=", up - lower[j]))

    if objective is None:
        cost: list[Fraction] = [Fraction(0)] * t
    else:
        cost = list(_per_task(objective, t, "objective"))

    status, v = solve_lp(cost, constraints, t)
    if status == INFEASIBLE:
        return FeasibilityResult(NON_PROSPECTIVE, None, ())
    if status != OPTIMAL or v is None:
        raise RuntimeError(f"unexpected solver status: {status}")

    witness = tuple([value + lo for value, lo in zip(v, lower)])
    active = _verify(matrix, witness, lower, upper, eps)
    return FeasibilityResult(PROSPECTIVE, witness, active)


def _verify(
    matrix: DominanceMatrix,
    witness: tuple[Fraction, ...],
    lower: tuple[Fraction, ...],
    upper: tuple[Fraction | None, ...],
    eps: Fraction,
) -> tuple[int, ...]:
    """Check the witness exactly; return the rows it meets with equality.

    The rows hold only -1, 0 and +1, so with the witness written as integers
    over its common denominator each row sum is an integer sum.
    """
    nums, den = integer_weights(witness)
    if sum(nums) != den:
        raise RuntimeError("witness does not sum to 1")
    for w, lo, up in zip(witness, lower, upper):
        if w < lo or (up is not None and w > up):
            raise RuntimeError("witness violates a bound")
    floor = eps * den
    totals = [sum([c * n for c, n in zip(row, nums)]) for row in matrix.rows]
    if any(total < floor for total in totals):
        raise RuntimeError("witness violates a dominance row")
    return tuple([i for i, total in enumerate(totals) if total == floor])


def is_prospective(
    lb: Leaderboard,
    system: str,
    *,
    margin: int | float | Fraction | str = 0,
) -> bool:
    """Whether some task weighting makes the system a weak Condorcet winner.

    A positive margin asks for a strict win by at least that much instead.
    """
    result = find_cw_weights(build_dominance_matrix(lb, system), margin=margin)
    return result.prospective
