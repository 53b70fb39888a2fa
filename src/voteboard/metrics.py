"""Baseline score aggregators and ranking comparison measures.

The aggregators (weighted arithmetic mean, geometric mean, optimality gap)
order systems by their raw scores and exist mostly as references to compare
the voting rules against. They read the board's stored cells, integers over
one common denominator (model.exact_cells refuses a missing one), and the
board's task weights scaled to integers by the LCM of theirs, sum integers (or
multiply integer powers, for the geometric mean's order) and hand the
integers, in system index order, to model.ranked_by, which groups the
indices on them; naming the result gives each system one Fraction. The
geometric mean groups its products with model.tie_groups itself, because
the scores it reports are floats, each read from cell / denominator.

The comparison measures operate on pairs of finished outcomes, are
tie-aware throughout and compute correlations exactly, so that identities
like rho(r, r) = 1 hold bit-for-bit: Spearman rho from integer sums over the
fractional rank vectors scaled by the LCM of their denominators, Kendall tau
from the integer competition ranks, which order and tie as those do.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Sequence

from .errors import (
    InvalidParameter,
    MismatchedSystems,
    NonPositiveScore,
    ProductTooLarge,
    ScoreOutOfRange,
)
from .model import (
    IndexOutcome,
    Leaderboard,
    RuleOutcome,
    _int,
    _number,
    exact_cells,
    first_groups,
    integer_weights,
    ranked_by,
    tie_groups,
)
from .modes import Rule

TOP = "top"
LEAST = "least"
DEFAULT_GAMMA = 0.95
# gmean refuses a product estimated, as sum(n_j * bit_length(cell_j)), above
# this many bits; one such product takes about 4 ms on a 2-vCPU x86 VM
GMEAN_PRODUCT_BITS = 1 << 18


def _mean_run(lb: Leaderboard) -> IndexOutcome:
    cells, den = exact_cells(lb)
    wts, _ = integer_weights(lb.weights)
    return ranked_by([sum(map(mul, wts, row)) for row in cells], den * sum(wts))


def _gmean_run(lb: Leaderboard) -> IndexOutcome:
    cells, den = exact_cells(lb)
    # integer exponents: ranking by prod(cell^n_j) equals ranking by the
    # geometric mean, and the common denominator^sum(n_j) divides out; so
    # does a common factor of the n_j, whose root keeps the order
    exps, _ = integer_weights(lb.weights)
    common = math.gcd(*exps)
    exps = [n // common for n in exps]
    n_total = sum(exps)
    products: list[int] = []
    display: list[float] = []
    for system, row in zip(lb.systems, cells):
        # int true division rounds correctly: each cell's float, which is
        # 0.0 for a positive cell below the float range
        floats = [num / den for num in row]
        for task, cell in zip(lb.tasks, floats):
            if cell <= 0:
                raise NonPositiveScore(
                    f"geometric mean needs positive scores; {system!r} on {task!r} is {cell}"
                )
        bits = sum(map(mul, exps, [num.bit_length() for num in row]))
        if bits > GMEAN_PRODUCT_BITS:
            raise ProductTooLarge(
                f"geometric mean of {system!r} needs an exact product of more than "
                f"{GMEAN_PRODUCT_BITS} bits: the task weights, scaled to coprime "
                "integers, are too large"
            )
        products.append(math.prod(map(pow, row, exps)))
        # fsum is correctly rounded, so the report does not depend on task order
        display.append(math.exp(math.fsum(map(mul, exps, map(math.log, floats))) / n_total))
    return IndexOutcome(tie_groups(products), (), display)


def checked_gamma(gamma: int | float | Fraction | str) -> Fraction:
    """optimality_gap's gamma as an exact Fraction; a value that is not a
    finite positive number raises InvalidParameter."""
    g = _number(gamma, "gamma")
    if g <= 0:
        raise InvalidParameter(f"gamma must be positive, got {gamma!r}")
    return g


def _og_run(lb: Leaderboard, *, gamma: int | float | Fraction | str = DEFAULT_GAMMA) -> IndexOutcome:
    cells, den = exact_cells(lb)
    g = checked_gamma(gamma)
    wts, _ = integer_weights(lb.weights)
    # over den * g.denominator, gamma is g.numerator * den and a cell c * g.denominator
    top = g.numerator * den
    sums: list[int] = []
    for system, row in zip(lb.systems, cells):
        acc = 0
        for task, num, w in zip(lb.tasks, row, wts):
            if num < 0 or num > den:
                raise ScoreOutOfRange(
                    "optimality gap expects scores in [0, 1]; "
                    f"{system!r} on {task!r} is {num / den}"
                )
            acc += w * max(0, top - num * g.denominator)
        sums.append(acc)
    return ranked_by(
        sums,
        den * g.denominator * sum(wts),
        ascending=True,
        diagnostics={"gamma": g, "score_order": "ascending"},
    )


RULES: dict[str, Rule] = {
    "mean": Rule("mean", _mean_run, on_board=True),
    "gmean": Rule("gmean", _gmean_run, on_board=True),
    "optimality_gap": Rule("optimality_gap", _og_run, on_board=True),
}


# -- comparison measures ----------------------------------------------------


def _check_pair(r1: RuleOutcome, r2: RuleOutcome) -> list[str]:
    if not r1.is_total() or not r2.is_total():
        raise MismatchedSystems("both outcomes must rank every system")
    a, b = r1.ranked_systems, r2.ranked_systems
    if a != b:
        raise MismatchedSystems("outcomes rank different system sets")
    return sorted(a)


def end_set(outcome: RuleOutcome, k: int, end: str = TOP) -> frozenset[str]:
    """The k best (or worst) systems, grown to whole tie groups; k an int, not a bool."""
    if end not in (TOP, LEAST):
        raise InvalidParameter("end must be 'top' or 'least'")
    if not outcome.is_total():
        raise MismatchedSystems("outcome must rank every system")
    if not _int(k):
        raise InvalidParameter(f"k must be an int, not {k!r}")
    n = len(outcome.ranked_systems)
    if not 1 <= k <= n:
        raise InvalidParameter(f"k must be between 1 and {n}")
    groups = outcome.ranking if end == TOP else reversed(outcome.ranking)
    return frozenset(first_groups(groups, k))


def agreement_rate(r1: RuleOutcome, r2: RuleOutcome, k: int, end: str = TOP) -> float:
    """Overlap of the two end-k sets, normalized by the larger set.

    Tie groups straddling the k boundary are included whole, so the sets
    can exceed k; without boundary ties the denominator is exactly k.
    """
    _check_pair(r1, r2)
    s1 = end_set(r1, k, end)
    s2 = end_set(r2, k, end)
    return len(s1 & s2) / max(len(s1), len(s2))


def _signed_root(num: int | Fraction, den: int | Fraction) -> float:
    # sign(num) * sqrt(num^2 / den), exact when the ratio is 0 or 1
    if num == 0:
        return 0.0
    ratio = Fraction(num * num, den)
    root = math.sqrt(float(ratio))
    return root if num > 0 else -root


def kendall_tau(r1: RuleOutcome, r2: RuleOutcome) -> float:
    """Tie-corrected pairwise agreement in [-1, 1], counted in one walk over
    the pairs of the integer competition ranks."""
    order = _check_pair(r1, r2)
    c1, c2 = r1.competition_ranks(), r2.competition_ranks()
    x, y = [c1[m] for m in order], [c2[m] for m in order]
    if x == y:
        return 1.0
    concordant = discordant = ties_x = ties_y = 0
    for (xa, ya), (xb, yb) in combinations(zip(x, y), 2):
        sign = (xa - xb) * (ya - yb)
        if sign > 0:
            concordant += 1
        elif sign < 0:
            discordant += 1
        else:
            ties_x += xa == xb
            ties_y += ya == yb
    pairs = len(x) * (len(x) - 1) // 2
    den_x, den_y = pairs - ties_x, pairs - ties_y
    if den_x == 0 or den_y == 0:
        return 0.0
    return _signed_root(concordant - discordant, den_x * den_y)


def spearman_rho(r1: RuleOutcome, r2: RuleOutcome) -> float:
    """Pearson correlation of the fractional rank vectors."""
    order = _check_pair(r1, r2)
    f1, f2 = r1.fractional_ranks(), r2.fractional_ranks()
    return rho_from_rank_vectors([f1[m] for m in order], [f2[m] for m in order])


def rho_from_rank_vectors(x: Sequence[int | Fraction | float],
                          y: Sequence[int | Fraction | float]) -> float:
    if len(x) != len(y):
        raise ValueError("rank vectors differ in length")
    # scaling both vectors by one factor scales num^2 and den_x * den_y alike
    n = len(x)
    if not all([isinstance(v, (int, Fraction)) or isinstance(v, float) and math.isfinite(v)
                for v in (*x, *y)]):
        raise InvalidParameter("ranks must be ints, Fractions or finite floats")
    scaled, _ = integer_weights([*x, *y])
    xs, ys = scaled[:n], scaled[n:]
    if xs == ys:
        return 1.0
    sx, sy = sum(xs), sum(ys)
    num = n * sum(map(mul, xs, ys)) - sx * sy
    den_x = n * sum(map(mul, xs, xs)) - sx * sx
    den_y = n * sum(map(mul, ys, ys)) - sy * sy
    if den_x == 0 or den_y == 0:
        return 0.0
    return _signed_root(num, den_x * den_y)


def discriminative_power(outcome: RuleOutcome) -> int:
    """How many strict separations the outcome draws: |M| minus #tie groups."""
    groups = len(outcome.ranking) + (1 if outcome.unranked else 0)
    return len(outcome.all_systems) - groups
