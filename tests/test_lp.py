"""Exact rational linear programming: feasibility, optimality, degeneracy."""

import random
from fractions import Fraction as F

import pytest
from scipy.optimize import linprog

from cmfg.lp import (
    EQ,
    GE,
    InfeasibleError,
    LinearProgram,
    LinRow,
    UnboundedError,
    check_solution,
    solve_lp,
)
from oracles import lp_debug_dump


def sparse(names, pairs, relation, rhs):
    dense = [F(0)] * len(names)
    for name, coef in pairs:
        dense[names.index(name)] = F(coef)
    return LinRow(tuple(dense), relation, rhs)


def test_feasibility_only():
    names = ("x", "y")
    lp = LinearProgram(
        variables=names,
        rows=(
            sparse(names, [("x", 1), ("y", 1)], EQ, 1),
            sparse(names, [("x", 1)], GE, F(1, 4)),
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
        objective=(F(-1), F(-2)),
    )
    sol = solve_lp(lp)
    assert sol == {"x": F(1), "y": F(3)}
    assert check_solution(lp, sol)


def test_fractional_data():
    lp = LinearProgram(
        variables=("x",),
        rows=(LinRow((F(2, 3),), EQ, F(5, 7)),),
        objective=(F(1),),
    )
    assert solve_lp(lp) == {"x": F(15, 14)}


def test_infeasible():
    lp = LinearProgram(
        variables=("x",),
        rows=(LinRow((F(1),), GE, 1), LinRow((F(-1),), GE, F(-1, 2))),
    )
    with pytest.raises(InfeasibleError):
        solve_lp(lp)


def test_unbounded():
    lp = LinearProgram(
        variables=("x",),
        rows=(LinRow((F(1),), GE, 0),),
        objective=(F(-1),),
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
        objective=(F(1), F(0)),
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
        objective=(F(1), F(0)),
    )
    sol = solve_lp(lp)
    assert sol["x"] == 0 and sol["y"] == 1


def test_check_solution_rejects_wrong_values():
    lp = LinearProgram(variables=("x",), rows=(LinRow((F(1),), EQ, 1),))
    assert not check_solution(lp, {"x": F(1, 2)})
    assert check_solution(lp, {"x": F(1)})
    assert not check_solution(lp, {"x": F(-1)})


def test_row_length_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearProgram(variables=("x",), rows=(LinRow((F(1), F(2)), GE, 0),))


def test_bad_relation_rejected():
    with pytest.raises(ValueError):
        LinRow((F(1),), "<=", 0)


def test_row_keeps_its_coefficients():
    coeffs = (F(1), F(-1, 2), 0)
    row = LinRow(coeffs, GE, 0)
    assert row.coeffs is coeffs


def test_debug_dump_mentions_rows():
    lp = LinearProgram(
        variables=("x", "y"),
        rows=(LinRow((F(1), F(1)), EQ, 1),),
        objective=(F(1), F(0)),
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
