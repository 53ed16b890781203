"""Exact 1-Wasserstein distances between correlated flows.

The ground space is (strategy, flow trajectory) pairs with

    d((phi, m), (phi', m')) = 1_{phi != phi'} + sum_t dist(m_t, m'_t)

and the optimal coupling is found with a transportation-tree simplex on
Python integers.  `solve_transport` takes integer masses and integer costs
as they are (any other entry is refused with ValueError), and its value,
plan and duals are integers too.  The simplex starts from the least-cost
tree: the cells taken in (cost, i, j) order, each cell of an open row and
an open column given all the mass it can take and closing its row or its
column, m+n-1 cells in all.  `flow_space_distance` is the one place that
knows denominators: it puts the renormalized masses of both correlated
flows on one common denominator, and every flow weight of both on another,
D, so the ground costs from one atom to all the atoms of the other flow
(`atom_distance`, one cost row) are integers over 2D; the integer value is
divided back into a `Fraction` at the end.  Positive scaling keeps every
sign and tie, so the start's cell order and Bland's arc ordering
(row-major, first negative reduced cost enters, smallest tied arc leaves)
take the pivots they would take on the rationals, and Bland rules out
cycling.
Every result is re-certified by `verify_transport` before it is returned:
the marginals, the value, the duals' feasibility and complementary
slackness, all on the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Sequence

from .mfg import CorrelatedFlow, _frame
from .model import DEFAULT_OT_CAP, FLOAT, CapacityError, require_ints, scaled


@dataclass(frozen=True)
class TransportResult:
    value: int
    plan: tuple[tuple[int, int, int], ...]  # (source, sink, mass), mass > 0
    row_duals: tuple[int, ...]
    col_duals: tuple[int, ...]


def solve_transport(
    supply: Sequence[int],
    demand: Sequence[int],
    cost: Sequence[Sequence[int]],
    *,
    cap: int = DEFAULT_OT_CAP,
) -> TransportResult:
    """Minimum-cost coupling of two nonnegative integer mass vectors with
    equal totals, under integer costs; every entry must be a Python int."""
    m, n = len(supply), len(demand)
    if m == 0 or n == 0:
        raise ValueError("empty marginal")
    if m + n > cap:
        raise CapacityError(f"{m + n} transport atoms exceed cap {cap}")
    require_ints((*supply, *demand), "the masses")
    if min(supply) < 0 or min(demand) < 0:
        raise ValueError("negative mass")
    if sum(supply) != sum(demand):
        raise ValueError("unbalanced marginals")
    if len(cost) != m or any(len(row) != n for row in cost):
        raise ValueError("cost matrix shape mismatch")
    for row in cost:
        require_ints(row, "a cost row")

    flow, pot = _simplex(supply, demand, cost)
    result = TransportResult(
        sum(cost[i][j] * f for (i, j), f in flow.items()),
        tuple((i, j, f) for (i, j), f in sorted(flow.items()) if f),
        tuple(pot[:m]),
        tuple(pot[m:]),
    )
    if not verify_transport(supply, demand, cost, result):
        raise AssertionError("transport certificate failed")  # pragma: no cover
    return result


def _simplex(
    supply: Sequence[int], demand: Sequence[int], cost: Sequence[Sequence[int]]
) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Transportation simplex on integers: the basis flows and the potentials.

    Nodes 0..m-1 are the rows and m..m+n-1 the columns; the potentials are
    the tree duals, u = pot[:m] with u[0] = 0 and v = pot[m:].  The basis is
    kept as node adjacency and updated by the entering and leaving arcs.
    """
    m, n = len(supply), len(demand)
    # least-cost start: the cells of open lines in (cost, i, j) order, each
    # given min(s_i, d_j), down to the cell of the last open row and column;
    # always m+n-1 arcs, zeros kept for the tree
    flow: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = [[] for _ in range(m + n)]
    s, d = list(supply), list(demand)
    rows, cols = set(range(m)), set(range(n))  # the open lines
    for _, i, j in sorted((c, i, j) for i, row in enumerate(cost) for j, c in enumerate(row)):
        if i not in rows or j not in cols:
            continue
        t = min(s[i], d[j])
        flow[(i, j)] = t
        adj[i].append(m + j)
        adj[m + j].append(i)
        s[i] -= t
        d[j] -= t
        if len(rows) == len(cols) == 1:
            break
        # the row closes if its supply is used up and another row is open,
        # or if its column is the only one open; the column otherwise
        if s[i] == 0 and len(rows) > 1 or len(cols) == 1:
            rows.remove(i)
        else:
            cols.remove(j)

    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    pot = [0] * (m + n)
    _hang(adj, cost, m, 0, parent, depth, pot)
    while True:
        v = pot[m:]
        for ei in range(m):
            row, ui = cost[ei], pot[ei]
            if min(map(sub, row, v)) < ui:
                # Bland: the first arc in row-major order with c - u - v < 0
                # (tree arcs have c - u - v = 0)
                ej = next(j for j in range(n) if row[j] - v[j] < ui)
                break
        else:
            return flow, pot
        # the tree cycle closed by the entering arc, oriented along it: arcs
        # walked from a column to a row lose mass, the others gain it
        minus, plus = [], []
        a, b = ei, m + ej
        while a != b:
            if depth[b] >= depth[a]:
                p = parent[b]
                if b >= m:
                    minus.append((p, b - m))
                else:
                    plus.append((b, p - m))
                b = p
            else:
                p = parent[a]
                if a < m:
                    minus.append((a, p - m))
                else:
                    plus.append((p, a - m))
                a = p
        theta = min(flow[arc] for arc in minus)
        li, lj = min(arc for arc in minus if flow[arc] == theta)
        for arc in minus:
            flow[arc] -= theta
        for arc in plus:
            flow[arc] += theta
        del flow[(li, lj)]
        flow[(ei, ej)] = theta
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        # the leaving arc cut off the subtree below one of its ends; that
        # subtree holds one end of the entering arc (the column's end if the
        # cut-off end is a column) and is hung again from the other end
        cut_column = parent[li] != m + lj
        top, below = (m + ej, ei) if cut_column else (ei, m + ej)
        _hang(adj, cost, m, top, parent, depth, pot, below)


def _hang(adj, cost, m, top, parent, depth, pot, below=-1) -> None:
    """Re-root the subtree containing `top` at `top`, hung below the node
    `below` (-1 for the whole tree at row 0), setting parent, depth and the
    potentials: each tree arc (i, j) has pot[i] + pot[m + j] = cost[i][j]."""
    parent[top] = below
    if below == -1:
        depth[top], pot[top] = 0, 0
    else:
        depth[top] = depth[below] + 1
        pot[top] = (cost[top][below - m] if top < m else cost[below][top - m]) - pot[below]
    queue = [top]
    for k in queue:
        pk, dk, uk = parent[k], depth[k] + 1, pot[k]
        for nb in adj[k]:
            if nb != pk:
                parent[nb] = k
                depth[nb] = dk
                pot[nb] = (cost[k][nb - m] if k < m else cost[nb][k - m]) - uk
                queue.append(nb)


def verify_transport(
    supply: Sequence[int],
    demand: Sequence[int],
    cost: Sequence[Sequence[int]],
    result: TransportResult,
) -> bool:
    """Exact primal-dual optimality certificate on the integers: every plan
    cell lies in the matrix with nonnegative mass, the plan meets the
    marginals and the value, and the duals (one per row and one per column)
    are feasible and tight on every cell the plan uses."""
    m, n = len(supply), len(demand)
    u, v = result.row_duals, result.col_duals
    if len(u) != m or len(v) != n:
        return False
    row_sum, col_sum = [0] * m, [0] * n
    total = 0
    for i, j, f in result.plan:
        if not (0 <= i < m and 0 <= j < n) or f < 0:
            return False
        row_sum[i] += f
        col_sum[j] += f
        total += cost[i][j] * f
    if row_sum != list(supply) or col_sum != list(demand) or total != result.value:
        return False
    if any(min(map(sub, row, v), default=ui) < ui for row, ui in zip(cost, u)):
        return False
    # strong duality on the coupling's support
    return all(cost[i][j] == u[i] + v[j] for i, j, f in result.plan if f > 0)


def atom_distance(atom, others, two_den: int) -> list[int]:
    """Ground costs from one atom to each of `others`, as integers over two_den.

    An atom comes as (strategy id, flow weights): the weights of all times
    and states in one row, as integers over two_den / 2.  A cost is two_den
    for a strategy mismatch plus the summed |a - b| of the weights.
    """
    sa, fa = atom
    return [(two_den if sa != sb else 0) + sum(map(abs, map(sub, fa, fb))) for sb, fb in others]


def flow_space_distance(
    rho_a: CorrelatedFlow, rho_b: CorrelatedFlow, *, cap: int = DEFAULT_OT_CAP
):
    """1-Wasserstein distance between two correlated flows.

    Float weights are promoted to exact rationals (and renormalized to unit
    mass) so the optimum carries an exact certificate either way; the value
    comes back as a float when either input is float-mode.  The masses of
    both go on one common denominator, and every flow weight of both on
    another, D, so each row of ground costs is an `atom_distance` row of
    integers over 2D; the transport on those integers costs 2D times the
    mass denominator times the distance, and makes the same pivots.
    """
    # each correlated flow's atoms share one frame, so their first atoms tell
    if _frame(rho_a.atoms[0][1]) != _frame(rho_b.atoms[0][1]):
        raise ValueError("flows live on different spaces")
    atoms = rho_a.atoms + rho_b.atoms
    m = len(rho_a.atoms)
    supply = [Fraction(w) for _, _, w in rho_a.atoms]
    demand = [Fraction(w) for _, _, w in rho_b.atoms]
    ta, tb = sum(supply), sum(demand)
    masses = [w / ta for w in supply] + [w / tb for w in demand]
    mass_den = math.lcm(*(w.denominator for w in masses))
    masses = [scaled(w, mass_den) for w in masses]
    flows = [[Fraction(x) for pv in flow.measures for x in pv.weights] for _, flow, _ in atoms]
    den = math.lcm(*(x.denominator for flow in flows for x in flow))
    ids: dict = {}
    keyed = [
        (ids.setdefault(phi.actions, len(ids)), [scaled(x, den) for x in flow])
        for (phi, _, _), flow in zip(atoms, flows)
    ]
    keyed_a, keyed_b = keyed[:m], keyed[m:]
    two_den = 2 * den
    cost = [atom_distance(a, keyed_b, two_den) for a in keyed_a]
    result = solve_transport(masses[:m], masses[m:], cost, cap=cap)
    value = Fraction(result.value, two_den * mass_den)
    if rho_a.mode == FLOAT or rho_b.mode == FLOAT:
        return float(value)
    return value
