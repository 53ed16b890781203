"""Exact linear programming on integer data via the two-phase revised simplex.

Variables have distinct names and are implicitly nonnegative.  Rows are
">=" or "==" constraints with int right-hand sides, and the coefficients
and the objective are ints too; a caller with rational data multiplies each
row by a positive common denominator first, which keeps the constraint.

The program is held by columns: the caller passes `Constraint`s (relation
and right-hand side only) and a column source, whose entries it guarantees
to be Python ints.  A right-hand side or objective entry of any other type
(a Fraction, a float, a bool, a numpy integer) is refused with ValueError,
as are duplicate variable names.  A column source has `len` (the number of
columns) and two methods:

  * ``column(j)``: column j's nonzeros as (row, coefficient) pairs, asked
    for when j enters the basis;
  * ``pricer(duals)``: for the nonzero duals [(row, y)], a function of j
    giving the sum of y times column j's entry on that row.

The simplex keeps the basis inverse on ints, one primitive row per
constraint, and prices the columns in index order through the nonzero
duals, stopping at the first negative reduced cost, so a column is built
only when it is priced.  Bland's rule (smallest index enters, smallest
basic index leaves on ratio ties) guarantees termination despite the heavy
degeneracy of feasibility systems whose right-hand sides are mostly zero.
The pivots are those of the dense tableau, and each value becomes a
Fraction once, at the end.  Chvatal, *Linear Programming* (1983), ch. 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from .model import require_ints

GE = ">="
EQ = "=="


class InfeasibleError(Exception):
    """The constraint system has no nonnegative solution."""


class UnboundedError(Exception):
    """The objective is unbounded below on the feasible set."""


@dataclass(frozen=True)
class Constraint:
    """One row's relation and int rhs; its coefficients are in the columns."""

    relation: str
    rhs: int

    def __post_init__(self):
        if self.relation not in (GE, EQ):
            raise ValueError(f"relation must be {GE!r} or {EQ!r}")
        require_ints((self.rhs,), "a row")


@dataclass(frozen=True)
class LinearProgram:
    variables: tuple[str, ...]
    rows: tuple[Constraint, ...]
    columns: Any  # a column source, one column per variable
    objective: Optional[tuple[int, ...]] = None  # minimized; None = feasibility

    def __post_init__(self):
        n = len(self.variables)
        if len(set(self.variables)) != n:
            raise ValueError("variable names must be distinct")
        if len(self.columns) != n:
            raise ValueError("column count does not match variable count")
        if self.objective is not None:
            if len(self.objective) != n:
                raise ValueError("objective length does not match variable count")
            require_ints(self.objective, "the objective")


class _RevisedSimplex:
    """The simplex on the basis inverse; the dense tableau is never built.

    The columns are the program's n columns, then a slack per ">=" row and
    an artificial per row without a basic slack, all on the rows as the
    program states them; a flipped row's slack or artificial carries its
    sign.  Tableau row i is R[i] times [A | b] for A those columns and b
    the right-hand sides.  Every row k has a column that is a signed unit
    vector on k, so R[i]'s entries are, up to sign, entries of tableau row
    i, and R[i] primitive makes the tableau row primitive: each kept row is
    the dense int tableau's, entry for entry.  Kept per row: R[i], its rhs
    R[i] b and its basic entry, which stays positive.

    The objective row is z0 cost + y [A | b] for the phase's costs, z0 > 0
    and the duals y, known up to a positive factor: its entries have the
    signs of the reduced costs, and its last entry y b is zero exactly at
    a zero objective value.
    """

    def __init__(self, lp: LinearProgram):
        n, m = len(lp.variables), len(lp.rows)
        # each row flips to rhs >= 0; a ">=" row with b <= 0 becomes
        # "-a x + s = -b" with a free basic slack, other ">=" rows keep a
        # surplus, and every row without a basic slack receives an artificial
        flips = [r.rhs <= 0 if r.relation == GE else r.rhs < 0 for r in lp.rows]
        slacks = [i for i, r in enumerate(lp.rows) if r.relation == GE]
        arts = [i for i, (r, f) in enumerate(zip(lp.rows, flips)) if r.relation == EQ or not f]
        self.n, self.nslack, self.nart = n, len(slacks), len(arts)
        self.source = lp.columns
        # the one entry (row, coefficient) of each slack and artificial column
        self.extra = [(i, -1) for i in slacks] + [(i, -1 if flips[i] else 1) for i in arts]
        self.b = [r.rhs for r in lp.rows]
        # each row's basic column is its flipped slack or its artificial
        self.basis = [0] * m
        for c, i in enumerate(slacks, start=n):
            if flips[i]:
                self.basis[i] = c
        for c, i in enumerate(arts, start=n + len(slacks)):
            self.basis[i] = c
        self.R = [[0] * m for _ in range(m)]
        for i, flip in enumerate(flips):
            self.R[i][i] = -1 if flip else 1
        self.beta = [abs(v) for v in self.b]  # R[i] b
        self.basic = [1] * m  # R[i] times the basic column
        self.objective([0] * (n + len(self.extra)))

    def objective(self, cost: list[int]) -> None:
        """Start a phase: minimize cost, one entry per column."""
        self.cost, self.z0, self.y = cost, 1, [0] * len(self.b)

    def column(self, c: int):
        return self.source.column(c) if c < self.n else (self.extra[c - self.n],)

    def reduced(self, c: int, col) -> int:
        """The objective row's entry in column c, whose nonzeros are col."""
        y = self.y
        return self.z0 * self.cost[c] + sum(y[i] * a for i, a in col)

    def first(self, y: list[int], z0: int, limit: int, negative: bool) -> int:
        """The first column c < limit whose entry in the row z0 cost +
        y [A | b] is negative (or nonzero), -1 if none."""
        price = self.source.pricer([(i, v) for i, v in enumerate(y) if v])
        n, extra, cost = self.n, self.extra, self.cost
        for c in range(limit):
            if c < n:
                d = price(c) + z0 * cost[c]
            else:
                i, a = extra[c - n]
                d = a * y[i] + z0 * cost[c]
            if d < 0 or (d and not negative):
                return c
        return -1

    def entering(self, c: int):
        """Column c's nonzeros and its tableau column R A_c."""
        col = list(self.column(c))
        return col, [sum(r[i] * a for i, a in col) for r in self.R]

    def pivot(self, r: int, c: int, col, alpha: list[int]) -> None:
        """Make column c basic in row r; col and alpha are `entering(c)`."""
        R, beta, basic = self.R, self.beta, self.basic
        row, p = R[r], alpha[r]
        if p < 0:  # the new basic entry must be positive
            R[r] = row = [-v for v in row]
            beta[r], p = -beta[r], -p
        br = beta[r]
        for i, f in enumerate(alpha):
            if f and i != r:
                # p times the row's old basic entry is the new one
                new = [p * a - f * v for a, v in zip(R[i], row)]
                g = math.gcd(*new)
                if g > 1:
                    new = [v // g for v in new]
                R[i], beta[i] = new, (p * beta[i] - f * br) // g
                basic[i] = p * basic[i] // g
        basic[r] = p
        self.combine(p, self.reduced(c, col), row)
        self.basis[r] = c

    def combine(self, p: int, f: int, row: list[int]) -> None:
        # the objective row times p less f times the tableau row of R's row
        if f:
            y = [p * a - f * v for a, v in zip(self.y, row)]
            z0 = p * self.z0
            g = math.gcd(z0, *y)
            self.z0, self.y = z0 // g, [v // g for v in y] if g > 1 else y

    def eliminate(self, i: int) -> None:
        """Make the objective's entry in row i's basic column zero."""
        b = self.basis[i]
        self.combine(self.basic[i], self.reduced(b, self.column(b)), self.R[i])

    def solve(self, limit: int) -> None:
        """Minimize the objective with Bland's rule over the columns below limit."""
        while True:
            enter = self.first(self.y, self.z0, limit, negative=True)
            if enter < 0:
                return
            col, alpha = self.entering(enter)
            leave, top, bottom = -1, 0, 1  # the best ratio rhs / a so far
            for i, a in enumerate(alpha):
                if a > 0:
                    # beta[i] / a against top / bottom, both denominators positive
                    this, best = self.beta[i] * bottom, top * a
                    if leave < 0 or this < best or (
                        this == best and self.basis[i] < self.basis[leave]
                    ):
                        leave, top, bottom = i, self.beta[i], a
            if leave < 0:
                raise UnboundedError("objective unbounded below")
            self.pivot(leave, enter, col, alpha)


def solve_lp(lp: LinearProgram) -> dict[str, Fraction]:
    """A vertex solution: feasible for None objective, optimal otherwise."""
    simplex = _RevisedSimplex(lp)
    n, nslack, nart = simplex.n, simplex.nslack, simplex.nart
    limit = n + nslack + nart
    if nart:
        # phase 1: minimize the sum of artificials
        simplex.objective([0] * (n + nslack) + [1] * nart)
        for i, b in enumerate(simplex.basis):
            if b >= n + nslack:  # make the objective row canonical
                simplex.eliminate(i)
        simplex.solve(limit)
        if sum(y * b for y, b in zip(simplex.y, simplex.b)):
            raise InfeasibleError("phase-1 optimum is nonzero")
        # pivot surviving artificials out of the basis (or drop redundant rows)
        for i, b in enumerate(simplex.basis):
            if b >= n + nslack:
                piv = simplex.first(simplex.R[i], 0, n + nslack, negative=False)
                if piv >= 0:
                    simplex.pivot(i, piv, *simplex.entering(piv))
        limit = n + nslack

    if lp.objective is not None and any(lp.objective):
        simplex.objective([*lp.objective, *[0] * (nslack + nart)])
        for i in range(len(lp.rows)):
            simplex.eliminate(i)
        simplex.solve(limit)

    values = dict.fromkeys(lp.variables, Fraction(0))
    for i, b in enumerate(simplex.basis):
        if b < n:
            values[lp.variables[b]] = Fraction(simplex.beta[i], simplex.basic[i])
    return values
