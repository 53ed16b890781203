"""Exact linear programming on integer data via the two-phase simplex method.

Variables have distinct names and are implicitly nonnegative.  Rows are
">=" or "==" constraints whose coefficients and right-hand sides are Python
ints, as is the objective; a caller with rational data multiplies each row
by a positive common denominator first, which keeps the constraint.  A row
or objective with any other entry (a Fraction, a float, a bool, a numpy
integer) is refused with ValueError when it is built, as are duplicate
variable names.  Each row enters the tableau once, as it is,
and the simplex pivots fraction-free on ints; each value becomes a Fraction
once, at the end.  Bland's rule (smallest index enters, smallest basic
index leaves on ratio ties) guarantees termination despite the heavy
degeneracy of feasibility systems whose right-hand sides are mostly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import require_ints

GE = ">="
EQ = "=="


class InfeasibleError(Exception):
    """The constraint system has no nonnegative solution."""


class UnboundedError(Exception):
    """The objective is unbounded below on the feasible set."""


@dataclass(frozen=True)
class LinRow:
    """One constraint, stored as given: int coefficients, relation, int rhs."""

    coeffs: tuple[int, ...]
    relation: str
    rhs: int

    def __post_init__(self):
        if self.relation not in (GE, EQ):
            raise ValueError(f"relation must be {GE!r} or {EQ!r}")
        require_ints((*self.coeffs, self.rhs), "a row")


@dataclass(frozen=True)
class LinearProgram:
    variables: tuple[str, ...]
    rows: tuple[LinRow, ...]
    objective: Optional[tuple[int, ...]] = None  # minimized; None = feasibility

    def __post_init__(self):
        n = len(self.variables)
        if len(set(self.variables)) != n:
            raise ValueError("variable names must be distinct")
        for i, row in enumerate(self.rows):
            if len(row.coeffs) != n:
                raise ValueError(f"row {i} has {len(row.coeffs)} coefficients, want {n}")
        if self.objective is not None:
            if len(self.objective) != n:
                raise ValueError("objective length does not match variable count")
            require_ints(self.objective, "the objective")


class _Tableau:
    """Dense simplex tableau on ints; row 0 is the objective row.

    Every row is known up to a positive factor.  A constraint row's values
    are its entries divided by its basic entry, which stays positive; the
    objective row's entries have the signs of the reduced costs and its
    last entry is zero exactly at a zero objective value.
    """

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows = rows
        self.basis = basis

    def pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        p = row[c]
        if p < 0:  # the new basic entry must be positive
            self.rows[r] = row = [-v for v in row]
            p = -p
        for i, other in enumerate(self.rows):
            if i == r:
                continue
            f = other[c]
            if f:
                # p times the row's old basic entry is the new one
                self.rows[i] = _primitive([p * a - f * b for a, b in zip(other, row)])
        self.basis[r - 1] = c

    def solve(self, allowed: Sequence[bool]) -> None:
        """Minimize the row-0 objective with Bland's rule over allowed columns."""
        ncols = len(self.rows[0]) - 1  # last column is rhs
        while True:
            obj = self.rows[0]
            enter = -1
            for c in range(ncols):
                if allowed[c] and obj[c] < 0:
                    enter = c
                    break
            if enter < 0:
                return
            leave, top, bottom = -1, 0, 1  # the best ratio rhs / a so far
            for i in range(1, len(self.rows)):
                row = self.rows[i]
                a = row[enter]
                if a > 0:
                    # row[-1] / a against top / bottom, both denominators positive
                    this, best = row[-1] * bottom, top * a
                    if leave < 0 or this < best or (
                        this == best and self.basis[i - 1] < self.basis[leave - 1]
                    ):
                        leave, top, bottom = i, row[-1], a
            if leave < 0:
                raise UnboundedError("objective unbounded below")
            self.pivot(leave, enter)

    def eliminate(self, i: int) -> None:
        """Make the objective's entry in row i's basic column zero."""
        row, b = self.rows[i], self.basis[i - 1]
        f, p = self.rows[0][b], row[b]
        if f:
            self.rows[0] = _primitive([p * a - f * v for a, v in zip(self.rows[0], row)])


def _primitive(row: list[int]) -> list[int]:
    # the same row divided by the gcd of its entries
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def solve_lp(lp: LinearProgram) -> dict[str, Fraction]:
    """A vertex solution: feasible for None objective, optimal otherwise."""
    n = len(lp.variables)
    # each row flips to rhs >= 0; a ">=" row with b <= 0 becomes
    # "-a x + s = -b" with a free basic slack, other ">=" rows keep a surplus,
    # and every row without a basic slack receives an artificial variable
    flips = [r.rhs <= 0 if r.relation == GE else r.rhs < 0 for r in lp.rows]
    nslack = sum(r.relation == GE for r in lp.rows)
    nart = sum(r.relation == EQ or not f for r, f in zip(lp.rows, flips))
    ncols = n + nslack + nart + 1
    rows, basis = [[0] * ncols], [-1] * len(lp.rows)

    si = n
    ai = n + nslack
    pad = [0] * (nslack + nart)
    for i, (row, flip) in enumerate(zip(lp.rows, flips)):
        r = [*row.coeffs, *pad, row.rhs]
        if flip:
            r = [-v for v in r]
        rows.append(r)
        if row.relation == GE:
            r[si] = 1 if flip else -1
            if flip:
                basis[i] = si
            si += 1
        if basis[i] < 0:
            r[ai] = 1
            basis[i] = ai
            ai += 1
    tab = _Tableau(rows, basis)

    allowed = [True] * (ncols - 1)
    if nart:
        # phase 1: minimize the sum of artificials
        tab.rows[0][n + nslack:-1] = [1] * nart
        for i in range(1, len(tab.rows)):
            if tab.basis[i - 1] >= n + nslack:  # make the objective row canonical
                tab.eliminate(i)
        tab.solve(allowed)
        if tab.rows[0][-1] != 0:
            raise InfeasibleError("phase-1 optimum is nonzero")
        # pivot surviving artificials out of the basis (or drop redundant rows)
        for i in range(1, len(tab.rows)):
            if tab.basis[i - 1] >= n + nslack:
                piv = next(
                    (c for c in range(n + nslack) if tab.rows[i][c] != 0), None
                )
                if piv is not None:
                    tab.pivot(i, piv)
        for c in range(n + nslack, ncols - 1):
            allowed[c] = False

    tab.rows[0] = [0] * ncols
    if lp.objective is not None and any(lp.objective):
        tab.rows[0][:n] = lp.objective
        for i in range(1, len(tab.rows)):
            tab.eliminate(i)
        tab.solve(allowed)

    values = dict.fromkeys(lp.variables, Fraction(0))
    for i, b in enumerate(tab.basis):
        if 0 <= b < n:
            row = tab.rows[i + 1]
            values[lp.variables[b]] = Fraction(row[-1], row[b])
    return values
