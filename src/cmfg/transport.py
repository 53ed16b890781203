"""Exact 1-Wasserstein distances between correlated flows.

The ground space is (strategy, flow trajectory) pairs with

    d((phi, m), (phi', m')) = 1_{phi != phi'} + sum_t dist(m_t, m'_t)

and the optimal coupling is found with a transportation-tree simplex.  The
simplex pivots on Python integers: the costs are put on one common
denominator and the masses on another, once, and the value, plan and duals
are divided back into `Fraction`s at the end.  `flow_space_distance` builds
the costs as integers from the start: every flow weight of both correlated
flows goes on one common denominator D, and each cost (`atom_distance`) is an
integer over 2D.  Positive scaling keeps every sign and tie, so Bland's arc
ordering (row-major, first negative reduced cost enters, smallest tied arc
leaves) takes the pivots it would take on the rationals, and rules out
cycling.
Every result is re-certified by `verify_transport` before it is returned:
the marginals and the value in `Fraction`s, the duals' feasibility and
complementary slackness on integers over one denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Sequence

from .mfg import CorrelatedFlow, _frame
from .model import DEFAULT_OT_CAP, FLOAT, CapacityError, scaled

_ZERO = Fraction(0)


@dataclass(frozen=True)
class TransportResult:
    value: Fraction
    plan: tuple[tuple[int, int, Fraction], ...]  # (source, sink, mass), mass > 0
    row_duals: tuple[Fraction, ...]
    col_duals: tuple[Fraction, ...]


def solve_transport(
    supply: Sequence[Fraction],
    demand: Sequence[Fraction],
    cost: Sequence[Sequence[Fraction]],
    *,
    cap: int = DEFAULT_OT_CAP,
) -> TransportResult:
    """Minimum-cost coupling of two equal-mass nonnegative vectors."""
    supply = [Fraction(s) for s in supply]
    demand = [Fraction(d) for d in demand]
    m, n = len(supply), len(demand)
    if m == 0 or n == 0:
        raise ValueError("empty marginal")
    if m + n > cap:
        raise CapacityError(f"{m + n} transport atoms exceed cap {cap}")
    if any(s < 0 for s in supply) or any(d < 0 for d in demand):
        raise ValueError("negative mass")
    if sum(supply) != sum(demand):
        raise ValueError("unbalanced marginals")
    cost = [[Fraction(c) for c in row] for row in cost]
    if len(cost) != m or any(len(row) != n for row in cost):
        raise ValueError("cost matrix shape mismatch")

    # one common denominator for the costs and another for the masses:
    # positive scaling keeps the sign of every reduced cost and every tie in
    # flow, so the integer simplex takes the pivots it would on the rationals
    cost_den = math.lcm(*(c.denominator for row in cost for c in row))
    mass_den = math.lcm(*(w.denominator for w in supply + demand))
    int_cost = [[scaled(c, cost_den) for c in row] for row in cost]
    flow, pot = _simplex(
        [scaled(w, mass_den) for w in supply],
        [scaled(w, mass_den) for w in demand],
        int_cost,
    )
    total = sum(int_cost[i][j] * f for (i, j), f in flow.items())
    result = TransportResult(
        Fraction(total, cost_den * mass_den),
        tuple((i, j, Fraction(f, mass_den)) for (i, j), f in sorted(flow.items()) if f),
        tuple(Fraction(p, cost_den) for p in pot[:m]),
        tuple(Fraction(p, cost_den) for p in pot[m:]),
    )
    if not verify_transport(supply, demand, cost, result):
        raise AssertionError("transport certificate failed")  # pragma: no cover
    return result


def _simplex(
    supply: list[int], demand: list[int], cost: list[list[int]]
) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Transportation simplex on integers: the basis flows and the potentials.

    Nodes 0..m-1 are the rows and m..m+n-1 the columns; the potentials are
    the tree duals, u = pot[:m] with u[0] = 0 and v = pot[m:].  The basis is
    kept as node adjacency and updated by the entering and leaving arcs.
    """
    m, n = len(supply), len(demand)
    # northwest-corner start: always m+n-1 arcs, zeros kept for the tree
    flow: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = [[] for _ in range(m + n)]
    s, d = list(supply), list(demand)
    i = j = 0
    while True:
        t = min(s[i], d[j])
        flow[(i, j)] = t
        adj[i].append(m + j)
        adj[m + j].append(i)
        s[i] -= t
        d[j] -= t
        if i == m - 1 and j == n - 1:
            break
        if s[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1

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
    supply: Sequence[Fraction],
    demand: Sequence[Fraction],
    cost: Sequence[Sequence[Fraction]],
    result: TransportResult,
) -> bool:
    """Exact primal-dual optimality certificate.  The plan's marginals and
    value are checked in `Fraction`s; dual feasibility and complementary
    slackness on integers over the lcm of the costs' and the duals'
    denominators."""
    m, n = len(supply), len(demand)
    row_sum = [_ZERO] * m
    col_sum = [_ZERO] * n
    total = _ZERO
    for i, j, f in result.plan:
        if f < 0:
            return False
        row_sum[i] += f
        col_sum[j] += f
        total += cost[i][j] * f
    if row_sum != list(supply) or col_sum != list(demand):
        return False
    if total != result.value:
        return False
    u, v = result.row_duals, result.col_duals
    if len(u) != m or len(v) != n:
        return False
    den = math.lcm(*(c.denominator for row in cost for c in row))
    lcd = math.lcm(den, *(w.denominator for w in u + v))
    int_cost = [[scaled(c, lcd) for c in row] for row in cost]
    u, v = [scaled(w, lcd) for w in u], [scaled(w, lcd) for w in v]
    if any(min(map(sub, row, v), default=ui) < ui for row, ui in zip(int_cost, u)):
        return False
    # strong duality on the coupling's support
    return all(int_cost[i][j] == u[i] + v[j] for i, j, f in result.plan if f > 0)


def atom_distance(atom_a, atom_b, two_den: int) -> int:
    """Ground cost between two atoms, as an integer over two_den.

    An atom comes as (strategy id, flow weights): the weights of all times
    and states in one row, as integers over two_den / 2.  The cost is
    two_den for a strategy mismatch plus the summed |a - b| of the weights.
    """
    (sa, fa), (sb, fb) = atom_a, atom_b
    return (two_den if sa != sb else 0) + sum(map(abs, map(sub, fa, fb)))


def flow_space_distance(
    rho_a: CorrelatedFlow, rho_b: CorrelatedFlow, *, cap: int = DEFAULT_OT_CAP
):
    """1-Wasserstein distance between two correlated flows.

    Float weights are promoted to exact rationals (and renormalized to unit
    mass) so the optimum carries an exact certificate either way; the value
    comes back as a float when either input is float-mode.  Every flow
    weight of both is put once on one common denominator D, so each ground
    cost is an integer `atom_distance` over 2D; the transport on those
    integers costs 2D times the distance and makes the same pivots.
    """
    # each correlated flow's atoms share one frame, so their first atoms tell
    if _frame(rho_a.atoms[0][1]) != _frame(rho_b.atoms[0][1]):
        raise ValueError("flows live on different spaces")
    atoms = rho_a.atoms + rho_b.atoms
    supply = [Fraction(w) for _, _, w in rho_a.atoms]
    demand = [Fraction(w) for _, _, w in rho_b.atoms]
    ta, tb = sum(supply), sum(demand)
    supply = [w / ta for w in supply]
    demand = [w / tb for w in demand]
    flows = [[Fraction(x) for pv in flow.measures for x in pv.weights] for _, flow, _ in atoms]
    den = math.lcm(*(x.denominator for flow in flows for x in flow))
    ids: dict = {}
    keyed = [
        (ids.setdefault(phi.actions, len(ids)), [scaled(x, den) for x in flow])
        for (phi, _, _), flow in zip(atoms, flows)
    ]
    keyed_a, keyed_b = keyed[: len(supply)], keyed[len(supply):]
    two_den = 2 * den
    cost = [[atom_distance(a, b, two_den) for b in keyed_b] for a in keyed_a]
    value = solve_transport(supply, demand, cost, cap=cap).value / two_den
    if rho_a.mode == FLOAT or rho_b.mode == FLOAT:
        return float(value)
    return value
