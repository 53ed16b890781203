"""Exact-rational linear programming via the two-phase simplex method.

Variables are implicitly nonnegative.  Rows are ">=" or "==" constraints
whose coefficients (Fraction or int) are taken as given and written into the
tableau once; only the right-hand side becomes a Fraction.  Bland's rule
(smallest index enters, smallest basic index leaves on ratio ties)
guarantees termination despite the heavy degeneracy of feasibility systems
whose right-hand sides are mostly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

GE = ">="
EQ = "=="

_ZERO = Fraction(0)
_ONE = Fraction(1)


class InfeasibleError(Exception):
    """The constraint system has no nonnegative solution."""


class UnboundedError(Exception):
    """The objective is unbounded below on the feasible set."""


@dataclass(frozen=True)
class LinRow:
    """One constraint, stored as given: coefficients (Fraction or int) and rhs."""

    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in (GE, EQ):
            raise ValueError(f"relation must be {GE!r} or {EQ!r}")


@dataclass(frozen=True)
class LinearProgram:
    variables: tuple[str, ...]
    rows: tuple[LinRow, ...]
    objective: Optional[tuple[Fraction, ...]] = None  # minimized; None = feasibility

    def __post_init__(self):
        n = len(self.variables)
        for i, row in enumerate(self.rows):
            if len(row.coeffs) != n:
                raise ValueError(f"row {i} has {len(row.coeffs)} coefficients, want {n}")
        if self.objective is not None and len(self.objective) != n:
            raise ValueError("objective length does not match variable count")


class _Tableau:
    """Dense simplex tableau; row 0 is the objective row."""

    def __init__(self, nrows: int, ncols: int):
        self.rows = [[_ZERO] * ncols for _ in range(nrows)]
        self.basis: list[int] = [-1] * (nrows - 1)

    def pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        inv = _ONE / row[c]
        if inv != 1:
            self.rows[r] = row = [v * inv for v in row]
        for i, other in enumerate(self.rows):
            if i == r:
                continue
            f = other[c]
            if f:
                self.rows[i] = [a - f * b for a, b in zip(other, row)]
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
            leave = -1
            best: Optional[Fraction] = None
            for i in range(1, len(self.rows)):
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.rows[i][-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i - 1] < self.basis[leave - 1]
                    ):
                        best, leave = ratio, i
            if leave < 0:
                raise UnboundedError("objective unbounded below")
            self.pivot(leave, enter)


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
    tab = _Tableau(len(lp.rows) + 1, ncols)

    si = n
    ai = n + nslack
    for i, (row, flip) in enumerate(zip(lp.rows, flips)):
        r = tab.rows[i + 1]
        for j, c in enumerate(row.coeffs):
            if c:
                r[j] = -c if flip else c
        r[-1] = Fraction(-row.rhs if flip else row.rhs)
        if row.relation == GE:
            r[si] = _ONE if flip else -_ONE
            if flip:
                tab.basis[i] = si
            si += 1
        if tab.basis[i] < 0:
            r[ai] = _ONE
            tab.basis[i] = ai
            ai += 1

    allowed = [True] * (ncols - 1)
    if nart:
        # phase 1: minimize the sum of artificials
        obj = tab.rows[0]
        for c in range(n + nslack, n + nslack + nart):
            obj[c] = _ONE
        for i, row in enumerate(tab.rows[1:], start=1):
            if tab.basis[i - 1] >= n + nslack:  # make the objective row canonical
                tab.rows[0] = obj = [a - b for a, b in zip(obj, row)]
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

    tab.rows[0] = [_ZERO] * ncols
    if lp.objective is not None and any(lp.objective):
        obj = tab.rows[0]
        obj[:n] = lp.objective
        for i in range(1, len(tab.rows)):
            b = tab.basis[i - 1]
            f = tab.rows[0][b]
            if f:
                tab.rows[0] = [a - f * v for a, v in zip(tab.rows[0], tab.rows[i])]
        tab.solve(allowed)

    values = {v: _ZERO for v in lp.variables}
    for i, b in enumerate(tab.basis):
        if 0 <= b < n:
            values[lp.variables[b]] = tab.rows[i + 1][-1]
    return values

