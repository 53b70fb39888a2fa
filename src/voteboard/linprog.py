"""A small two-phase simplex, exact, with fraction-free integer pivots.

Dense tableau, Bland's rule for both the entering and leaving choices, so
the method terminates without cycling. There are no tolerances anywhere
and no Fraction inside the pivot loop: the tableau and the cost row are
integer rows over one common denominator D > 0, the absolute value of the
current basis determinant. A pivot on entry p updates every other row as
(p * row - f * pivot_row) / D, a division that is always exact (Edmonds
1967; Bareiss 1968, Math. Comp. 22), and sets D to |p|. The initial
constraint rows are scaled by the LCM of their denominators, one uniform
positive scale, and the objective by the LCM of its own, so every sign,
ratio comparison and thus every pivot choice is the one the same method
makes over Fractions. Fractions are built only for the solution. Sized
for desk problems (tens of variables), not production LP work.

Problems are stated as: minimize c . x subject to rows of the form
(coeffs, relation, rhs) with relation one of "<=", ">=", "==", and x >= 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Relation = str
Constraint = tuple[Sequence[Fraction], Relation, Fraction]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _integers(values: Sequence) -> list[int]:
    """The values times the LCM of their denominators: a positive multiple."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values]


class _Tableau:
    """Integer rows, a cost row and a basis, all over the denominator d."""

    def __init__(self, rows: list[list[int]], z: list[int], basis: list[int]) -> None:
        self.rows, self.z, self.basis, self.d = rows, z, basis, 1

    def pivot(self, r: int, col: int) -> None:
        rows, d = self.rows, self.d
        prow = rows[r]
        p = prow[col]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[col]
            if f:
                rows[i] = [(p * u - f * v) // d for u, v in zip(row, prow)]
            elif p != d:
                rows[i] = [p * u // d for u in row]
        f = self.z[col]
        if f:
            self.z = [(p * u - f * v) // d for u, v in zip(self.z, prow)]
        elif p != d:
            self.z = [p * u // d for u in self.z]
        if p < 0:
            self.rows = [[-u for u in row] for row in rows]
            self.z = [-u for u in self.z]
            p = -p
        self.d = p
        self.basis[r] = col

    def iterate(self, width: int) -> str:
        basis = self.basis
        while True:
            z = self.z
            col = next((j for j in range(width) if z[j] < 0), None)
            if col is None:
                return OPTIMAL
            pivot_row = None
            best_b = best_a = 0
            for i, row in enumerate(self.rows):
                a = row[col]
                if a > 0:
                    # b / a against the best ratio so far, cross-multiplied: a > 0
                    lhs, rhs = row[width] * best_a, best_b * a
                    if pivot_row is None or lhs < rhs or (
                        lhs == rhs and basis[i] < basis[pivot_row]
                    ):
                        pivot_row, best_b, best_a = i, row[width], a
            if pivot_row is None:
                return UNBOUNDED
            self.pivot(pivot_row, col)


def solve_lp(
    objective: Sequence[Fraction],
    constraints: Sequence[Constraint],
    num_vars: int,
) -> tuple[str, list[Fraction] | None]:
    """Minimize objective . x over the constraints with x >= 0."""
    if len(objective) != num_vars:
        raise ValueError("objective length must match num_vars")
    slack_count = sum(1 for _, rel, _ in constraints if rel != "==")
    values: list = []
    slacks: list[int] = []
    for coeffs, rel, b in constraints:
        if len(coeffs) != num_vars:
            raise ValueError("constraint length must match num_vars")
        if rel not in ("<=", ">=", "=="):
            raise ValueError(f"unknown relation: {rel!r}")
        values.extend(coeffs)
        values.append(b)
        slacks.append(1 if rel == "<=" else -1 if rel == ">=" else 0)

    m = len(constraints)
    n_real = num_vars + slack_count
    total = n_real + m
    flat = _integers(values)
    rows: list[list[int]] = []
    slack_at = 0
    for i, sign in enumerate(slacks):
        start = i * (num_vars + 1)
        row = flat[start:start + num_vars] + [0] * slack_count
        b = flat[start + num_vars]
        if sign:
            row[num_vars + slack_at] = sign
            slack_at += 1
        if b < 0:
            row = [-v for v in row]
            b = -b
        # one artificial per row keeps the setup uniform; phase 1 removes them
        row.extend(1 if k == i else 0 for k in range(m))
        row.append(b)
        rows.append(row)

    z = [0] * n_real + [1] * m + [0]
    for row in rows:
        z = [u - v for u, v in zip(z, row)]
    t = _Tableau(rows, z, [n_real + i for i in range(m)])
    t.iterate(total)
    if t.z[total] < 0:
        return INFEASIBLE, None

    # drive leftover artificials out of the basis; drop redundant rows
    i = 0
    while i < len(t.rows):
        if t.basis[i] >= n_real:
            row = t.rows[i]
            col = next((j for j in range(n_real) if row[j] != 0), None)
            if col is None:
                del t.rows[i]
                del t.basis[i]
                continue
            t.pivot(i, col)
        i += 1
    t.rows = [row[:n_real] + [row[total]] for row in t.rows]

    cost = _integers(objective)
    z = [t.d * c for c in cost] + [0] * (slack_count + 1)
    for b, row in zip(t.basis, t.rows):
        c = cost[b] if b < num_vars else 0
        if c:
            z = [u - c * v for u, v in zip(z, row)]
    t.z = z
    if t.iterate(n_real) == UNBOUNDED:
        return UNBOUNDED, None
    x = [Fraction(0)] * num_vars
    for b, row in zip(t.basis, t.rows):
        if b < num_vars:
            x[b] = Fraction(row[n_real], t.d)
    return OPTIMAL, x
