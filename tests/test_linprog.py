"""The fraction-free simplex against the Fraction simplex it replaced.

tests/reference.py keeps the two-phase simplex that pivoted a dense tableau
of Fractions. linprog.solve_lp makes the same Bland choices on integer rows
over one common denominator, so it must return the same (status, x) on:

- the problems find_cw_weights builds from the dominance matrices of the
  5-60-system kernel ladder, with holes and min tasks, under margins
  (1/7 and "1e-300"), box bounds, lower = upper and objectives;
- seeded random problems with fractional and tiny coefficients, negative
  right-hand sides, bounds and objectives;
- the degenerate cases: an artificial left basic at zero after phase 1 and
  driven out by a positive or a negative pivot, a redundant equality row,
  duplicate rival rows, all-zero rows and infeasible or unbounded problems.
"""

import random
from fractions import Fraction as F

import pytest

from voteboard import cw, linprog
from voteboard.errors import InfeasibleBounds

import reference
from test_kernels import LADDER, ladder_board


def assert_same(objective, constraints, num_vars):
    got = linprog.solve_lp(objective, constraints, num_vars)
    assert got == reference.solve_lp(objective, constraints, num_vars)
    return got


@pytest.fixture
def cross_checked(monkeypatch):
    """find_cw_weights with every solve checked against the reference; counts solves."""
    solves = []

    def both(objective, constraints, num_vars):
        solves.append(num_vars)
        return assert_same(objective, constraints, num_vars)

    monkeypatch.setattr(cw, "solve_lp", both)
    return solves


def cw_variants(t):
    """Keyword sets for find_cw_weights on t tasks: margins, bounds and objectives."""
    return (
        {"margin": F(1, 7)},
        {"margin": "1e-300"},
        {"lower_bounds": F(1, 4 * t), "upper_bounds": F(1, 2)},
        {"lower_bounds": F(1, t), "upper_bounds": F(1, t)},
        {"objective": [(-1) ** j * (j + 1) for j in range(t)]},
        {"objective": [F(j, 3) for j in range(t)], "upper_bounds": F(2, 3)},
    )


@pytest.mark.parametrize("n,t,seed", [
    pytest.param(n, t, seed, id=f"{n}x{t}-{seed}")
    for n, t, seeds, _, _ in LADDER
    for seed in seeds
])
def test_ladder_solves_match_reference(cross_checked, n, t, seed):
    # the reference takes 0.4-2 s per solve at 35 and 60 systems, so those
    # boards solve for one system each, and the parameter variants run for
    # one system per board up to 20 systems
    for lb in (ladder_board(n, t, seed), ladder_board(n, t, seed, holes=True)):
        systems = (lb.systems[0], lb.systems[n // 2], lb.systems[-1])
        for system in systems if n <= 20 else systems[:1]:
            cw.find_cw_weights(cw.build_dominance_matrix(lb, system))
        matrix = cw.build_dominance_matrix(lb, lb.systems[-1])
        for params in cw_variants(t) if n <= 20 else ():
            try:
                cw.find_cw_weights(matrix, **params)
            except InfeasibleBounds:
                pass
    assert len(cross_checked) >= 2


def random_problem(rng):
    n = rng.randint(1, 5)
    values = (0, 0, 1, -1, 2, -3, F(1, 7), F(-2, 3), F(5, 2), "1e-300")
    constraints = []
    for _ in range(rng.randint(0, 6)):
        coeffs = [rng.choice(values) for _ in range(n)]
        constraints.append((coeffs, rng.choice(("<=", ">=", "==")), rng.choice(values)))
    # bounds on one variable, sometimes pinned: lower = upper
    j = rng.randrange(n)
    unit = [1 if k == j else 0 for k in range(n)]
    low = rng.choice((0, F(1, 7), 1))
    high = low if rng.random() < 0.3 else low + rng.choice((F(1, 3), 2))
    constraints += [(unit, ">=", low), (unit, "<=", high)]
    objective = [rng.choice(values) for _ in range(n)]
    return objective, constraints, n


def test_random_problems_match_reference():
    rng = random.Random("linprog-cross-check")
    statuses = set()
    for _ in range(300):
        status, _ = assert_same(*random_problem(rng))
        statuses.add(status)
    assert statuses == {linprog.OPTIMAL, linprog.INFEASIBLE, linprog.UNBOUNDED}


DEGENERATE = {
    # x0 >= 0 and x0 == 0 leave an artificial basic at zero; a +1 pivot drives it out
    "drive_out_positive": ([1, 0], [([-1, 0], ">=", 0), ([-1, 0], "==", 0),
                                    ([0, 1], "<=", 2)], 2),
    # the artificial of 0 >= 0 is driven out on its slack, whose entry is -1 there
    "drive_out_negative": ([0], [([2], ">=", 2), ([0], ">=", 0), ([1], "==", 1)], 1),
    "drive_out_negative_with_fractions": (
        [F(1, 3), -1], [([F(2, 3), 0], ">=", F(2, 3)), ([0, 0], ">=", 0),
                        ([1, 0], "==", 1), ([0, 1], "<=", F(5, 7))], 2),
    "redundant_equality": ([1, 2], [([1, 1], "==", 1), ([2, 2], "==", 2)], 2),
    "all_zero_equality": ([-1, -1], [([0, 0], "==", 0), ([1, 1], "<=", F(3, 2))], 2),
    "all_zero_inequalities": ([1], [([0], "<=", 1), ([0], ">=", 0), ([1], ">=", F(1, 9))], 1),
    "all_zero_infeasible": ([0], [([0], ">=", 1)], 1),
    "negative_rhs": ([1, 1], [([-1, -1], ">=", -1), ([1, -1], "<=", F(-1, 2))], 2),
    "infeasible": ([0, 0], [([1, 1], "<=", 1), ([1, 1], ">=", 2)], 2),
    "unbounded": ([-1, 0], [([1, -1], "<=", 1)], 2),
    "no_constraints": ([1, 0, 2], [], 3),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_cases_match_reference(case):
    assert_same(*DEGENERATE[case])


@pytest.mark.parametrize("objective,constraints,message", [
    pytest.param([1], [([1, 1], "<=", 1)], "objective length must match num_vars", id="objective"),
    pytest.param([1, 1], [([1], "<=", 1)], "constraint length must match num_vars", id="row"),
    pytest.param([1, 1], [([1, 1], "<", 1)], "unknown relation: '<'", id="relation"),
])
def test_solve_lp_refuses_malformed_input(objective, constraints, message):
    with pytest.raises(ValueError, match=message):
        linprog.solve_lp(objective, constraints, 2)


def test_degenerate_cases_reach_their_branches(monkeypatch):
    """The drive-out cases pivot outside the Bland loop, on a positive or a
    negative entry, and the redundant rows are deleted."""
    drive_outs, tableaus, in_loop = [], [], []
    pivot, iterate, init = (linprog._Tableau.pivot, linprog._Tableau.iterate,
                            linprog._Tableau.__init__)

    def spy_pivot(self, r, col):
        if not in_loop:
            drive_outs.append(self.rows[r][col])
        pivot(self, r, col)

    def spy_iterate(self, width):
        in_loop.append(width)
        try:
            return iterate(self, width)
        finally:
            in_loop.pop()

    def spy_init(self, *args):
        init(self, *args)
        tableaus.append(self)

    monkeypatch.setattr(linprog._Tableau, "pivot", spy_pivot)
    monkeypatch.setattr(linprog._Tableau, "iterate", spy_iterate)
    monkeypatch.setattr(linprog._Tableau, "__init__", spy_init)
    for case, sign in (("drive_out_positive", 1), ("drive_out_negative", -1),
                       ("drive_out_negative_with_fractions", -1)):
        drive_outs.clear()
        assert linprog.solve_lp(*DEGENERATE[case])[0] == linprog.OPTIMAL
        assert any(p * sign > 0 for p in drive_outs)
    for case in ("redundant_equality", "all_zero_equality"):
        objective, constraints, n = DEGENERATE[case]
        linprog.solve_lp(objective, constraints, n)
        assert len(tableaus[-1].rows) < len(constraints)


def test_duplicate_rival_rows_match_reference(cross_checked):
    rows = ((1, -1, 0), (1, -1, 0), (-1, 1, 1), (-1, 1, 1), (0, 0, 0))
    matrix = cw.DominanceMatrix("a", tuple("bcdef"), ("x", "y", "z"), rows)
    for params in ({}, *cw_variants(3)):
        try:
            cw.find_cw_weights(matrix, **params)
        except InfeasibleBounds:
            pass
    assert len(cross_checked) == 7


def test_witness_is_over_the_basis_determinant():
    # L = 7 scales the tableau; the answer is rhs / D, not rhs / (D * L)
    status, x = assert_same([0, 0], [([F(1, 7), F(2, 7)], "==", F(3, 7))], 2)
    assert (status, x) == (linprog.OPTIMAL, [F(3), F(0)])
