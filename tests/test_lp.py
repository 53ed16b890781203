"""Exact rational linear programming: feasibility, optimality, degeneracy."""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import oracles
from cmfg import lp as lp_module
from cmfg.lp import (
    EQ,
    GE,
    InfeasibleError,
    LinearProgram,
    LinRow,
    UnboundedError,
    solve_lp,
)
from oracles import check_solution, fraction_lp, lp_debug_dump


def sparse(names, pairs, relation, rhs):
    dense = [0] * len(names)
    for name, coef in pairs:
        dense[names.index(name)] = coef
    return LinRow(tuple(dense), relation, rhs)


def test_feasibility_only():
    names = ("x", "y")
    lp = LinearProgram(
        variables=names,
        rows=(
            sparse(names, [("x", 1), ("y", 1)], EQ, 1),
            sparse(names, [("x", 4)], GE, 1),  # x >= 1/4
        ),
    )
    sol = solve_lp(lp)
    assert check_solution(lp, sol)
    # the vertex Bland's rule picks among the feasible segment's two ends
    assert sol == {"x": F(1, 4), "y": F(3, 4)}


def test_degenerate_feasibility_vertex():
    """Zero-rhs rows as in the CE system, so every ratio test ties at 0.

    Both (0, 1/2, 1/2, 0) and (2/11, 7/22, 3/22, 4/11) are feasible vertices:
    the column order and Bland's entering and leaving rules fix which one
    comes back.  The data are ints, and the values still come back as
    Fractions.
    """
    lp = LinearProgram(
        variables=("a", "b", "c", "d"),
        rows=(
            LinRow((-1, 2, 2, -2), GE, 0),
            LinRow((-1, 2, -2, 0), GE, 0),
            LinRow((1, -1, 1, 0), EQ, 0),
            LinRow((1, 1, -1, -1), EQ, 0),
            LinRow((-1, -1, -1, -1), EQ, -1),
        ),
    )
    sol = solve_lp(lp)
    assert sol == {"a": F(2, 11), "b": F(7, 22), "c": F(3, 22), "d": F(4, 11)}
    assert all(type(v) is F for v in sol.values())
    assert check_solution(lp, sol)


def test_optimum_exact():
    # min -x - 2y  s.t.  x + y <= 4, y <= 3, x,y >= 0  ->  (1, 3), value -7
    names = ("x", "y")
    lp = LinearProgram(
        variables=names,
        rows=(
            sparse(names, [("x", -1), ("y", -1)], GE, -4),
            sparse(names, [("y", -1)], GE, -3),
        ),
        objective=(-1, -2),
    )
    sol = solve_lp(lp)
    assert sol == {"x": F(1), "y": F(3)}
    assert check_solution(lp, sol)


def test_fractional_data():
    # 2/3 x = 5/7, times 21
    lp = LinearProgram(
        variables=("x",),
        rows=(LinRow((14,), EQ, 15),),
        objective=(1,),
    )
    assert solve_lp(lp) == {"x": F(15, 14)}


def test_infeasible():
    lp = LinearProgram(
        variables=("x",),
        rows=(LinRow((1,), GE, 1), LinRow((-2,), GE, -1)),  # x >= 1, x <= 1/2
    )
    with pytest.raises(InfeasibleError):
        solve_lp(lp)


def test_unbounded():
    lp = LinearProgram(
        variables=("x",),
        rows=(LinRow((1,), GE, 0),),
        objective=(-1,),
    )
    with pytest.raises(UnboundedError):
        solve_lp(lp)


def test_negative_rhs_inequality():
    # x - y >= -2 is active at the optimum of min x once y is pinned at 5
    names = ("x", "y")
    lp = LinearProgram(
        variables=names,
        rows=(
            sparse(names, [("x", 1), ("y", -1)], GE, -2),
            sparse(names, [("y", 1)], EQ, 5),
        ),
        objective=(1, 0),
    )
    assert solve_lp(lp) == {"x": F(3), "y": F(5)}


def test_redundant_equalities():
    names = ("x", "y")
    lp = LinearProgram(
        variables=names,
        rows=(
            sparse(names, [("x", 1), ("y", 1)], EQ, 1),
            sparse(names, [("x", 2), ("y", 2)], EQ, 2),
        ),
        objective=(1, 0),
    )
    sol = solve_lp(lp)
    assert sol["x"] == 0 and sol["y"] == 1


def test_check_solution_rejects_wrong_values():
    lp = LinearProgram(variables=("x",), rows=(LinRow((1,), EQ, 1),))
    assert not check_solution(lp, {"x": F(1, 2)})
    assert check_solution(lp, {"x": F(1)})
    assert not check_solution(lp, {"x": F(-1)})


def test_row_length_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearProgram(variables=("x",), rows=(LinRow((1, 2), GE, 0),))


def test_duplicate_variable_names_rejected():
    # solve_lp keys its values by name, so a second "x" would lose its value
    with pytest.raises(ValueError, match="distinct"):
        LinearProgram(variables=("x", "x"), rows=(LinRow((1, 1), EQ, 1),))


def test_bad_relation_rejected():
    with pytest.raises(ValueError):
        LinRow((1,), "<=", 0)


def test_row_keeps_its_coefficients():
    coeffs = (2, -1, 0)
    row = LinRow(coeffs, GE, 0)
    assert row.coeffs is coeffs


@pytest.mark.parametrize(
    "coeffs, rhs, objective",
    [
        ((F(1, 2), 1), 0, None),
        ((0.5, 1), 0, None),
        ((1, 1), F(1, 2), None),
        ((1, 1), 1.0, None),
        ((1, 1), 1, (F(1, 3), 0)),
        ((1, 1), 1, (0.0, 1)),
        ((np.int64(1), 1), 0, None),
    ],
    ids=["fraction-coeff", "float-coeff", "fraction-rhs", "float-rhs",
         "fraction-objective", "float-objective", "numpy-int-coeff"],
)
def test_non_int_data_refused(coeffs, rhs, objective):
    with pytest.raises(ValueError, match="ints only"):
        LinearProgram(("x", "y"), (LinRow(coeffs, GE, rhs),), objective)


def test_debug_dump_mentions_rows():
    lp = LinearProgram(
        variables=("x", "y"),
        rows=(LinRow((1, 1), EQ, 1),),
        objective=(1, 0),
    )
    text = lp_debug_dump(lp)
    assert "x" in text and "==" in text


def test_against_float_solver():
    """Random min-cost LPs agree with scipy.linprog in status and value.

    Rows mix ">=" and "==" with negative, zero and positive rhs, so every
    row normalization (flipped or not, slack or artificial) is exercised;
    the data are ints and the values come back as Fractions.
    """
    rng = random.Random(20250825)
    kinds = set()
    for _ in range(150):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        names = tuple(f"v{i}" for i in range(n))
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-4, 4) for _ in range(m)]
        rel = [rng.choice((GE, GE, EQ)) for _ in range(m)]
        c = [rng.randint(-2, 3) for _ in range(n)]
        lp = LinearProgram(
            variables=names,
            rows=tuple(LinRow(tuple(row), r, rhs) for row, r, rhs in zip(a, rel, b)),
            objective=tuple(c),
        )
        ge = [i for i in range(m) if rel[i] == GE]
        eq = [i for i in range(m) if rel[i] == EQ]
        ref = linprog(
            c,
            A_ub=[[-v for v in a[i]] for i in ge] or None,
            b_ub=[-b[i] for i in ge] or None,
            A_eq=[a[i] for i in eq] or None,
            b_eq=[b[i] for i in eq] or None,
            bounds=[(0, None)] * n,
            method="highs",
        )
        try:
            sol = solve_lp(lp)
        except InfeasibleError:
            assert ref.status == 2
        except UnboundedError:
            assert ref.status == 3
        else:
            assert ref.status == 0
            assert all(type(v) is F for v in sol.values())
            value = sum(ci * sol[name] for ci, name in zip(c, names))
            assert abs(float(value) - ref.fun) < 1e-7
            assert check_solution(lp, sol)
            kinds.update((r, (rhs > 0) - (rhs < 0)) for r, rhs in zip(rel, b))
    assert kinds == {(r, s) for r in (GE, EQ) for s in (-1, 0, 1)}


def recorded(solver, tableau, lp):
    """The solver's values (or exception class) and its (row, column) pivots."""
    pivots = []
    pivot = tableau.pivot

    def spy(self, r, c):
        pivots.append((r, c))
        pivot(self, r, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tableau, "pivot", spy)
        try:
            return solver(lp), pivots
        except (InfeasibleError, UnboundedError) as exc:
            return type(exc), pivots


# ints, zero often, negative as often as positive, small and larger
coefficient = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-60, 60))


@st.composite
def random_lps(draw):
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 8))
    rows = [
        LinRow(
            tuple(draw(st.lists(coefficient, min_size=n, max_size=n))),
            draw(st.sampled_from((GE, EQ))),
            draw(coefficient),
        )
        for _ in range(m)
    ]
    if draw(st.booleans()):  # a duplicated row, somewhere
        rows.insert(draw(st.integers(0, m)), rows[draw(st.integers(0, m - 1))])
    objective = draw(st.one_of(st.none(), st.lists(coefficient, min_size=n, max_size=n)))
    names = tuple(f"v{j}" for j in range(n))
    return LinearProgram(names, tuple(rows), None if objective is None else tuple(objective))


class TestAgainstTheFractionTableau:
    @settings(max_examples=400, deadline=None)
    @given(random_lps())
    def test_same_values_and_same_pivots(self, lp):
        got, pivots = recorded(solve_lp, lp_module._Tableau, lp)
        want, want_pivots = recorded(fraction_lp, oracles._FractionTableau, lp)
        assert got == want
        assert pivots == want_pivots
        if isinstance(got, dict):
            assert all(type(v) is F for v in got.values())
            assert check_solution(lp, got)

    def test_artificial_leaves_on_a_negative_entry(self):
        """-x - y - z = 0 pins every variable to 0.  Its artificial ends
        phase 1 basic at level 0 and leaves the basis on the entry -1, which
        must become a positive basic entry: phase 2 is bounded."""
        lp = LinearProgram(
            ("x", "y", "z"),
            (LinRow((-1, -1, -1), EQ, 0), LinRow((2, 0, 0), GE, 0)),
            (0, -3, 0),
        )
        got, pivots = recorded(solve_lp, lp_module._Tableau, lp)
        assert got == {"x": 0, "y": 0, "z": 0}
        assert pivots[0] == (1, 0)
        assert (got, pivots) == recorded(fraction_lp, oracles._FractionTableau, lp)

    def test_tableau_holds_ints(self):
        # 2/3 x - 1/4 y >= 1/6 and x + y = 5/2, minimizing x/3 - y/7, each
        # row times the lcm of its denominators
        lp = LinearProgram(
            ("x", "y"),
            (LinRow((8, -3), GE, 2), LinRow((2, 2), EQ, 5)),
            (7, -3),
        )
        seen = []
        pivot = lp_module._Tableau.pivot

        def spy(self, r, c):
            pivot(self, r, c)
            seen.extend(type(v) for row in self.rows for v in row)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp_module._Tableau, "pivot", spy)
            assert solve_lp(lp) == fraction_lp(lp)
        assert seen and set(seen) == {int}
