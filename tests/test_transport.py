"""Exact optimal transport on finite atom sets and the flow-space W1 metric."""

import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import atom_distance, fraction_transport, random_correlated_flow, random_game
from scipy.optimize import linprog
from test_nplayer import float_via_io

from cmfg.limits import empirical_rho_n, lift
from cmfg.model import (
    EXACT,
    CapacityError,
    FiniteSpace,
    FlowTrajectory,
    ProbabilityVector,
    RestrictedStrategy,
)
from cmfg.mfg import CorrelatedFlow
from cmfg.nplayer import SimulationConfig
from cmfg.transport import (
    TransportResult,
    flow_space_distance,
    solve_transport,
    verify_transport,
)
from cmfg.transport import atom_distance as int_atom_distance


def test_tiny_instance_by_hand():
    # moving 1/2 across unit distance and keeping 1/2 in place costs 1/2
    supply = (F(1, 2), F(1, 2))
    demand = (F(1), F(0))
    cost = ((F(0), F(2)), (F(1), F(3)))
    res = solve_transport(supply, demand, cost)
    assert res.value == F(1, 2)
    assert dict(((i, j), m) for i, j, m in res.plan) == {
        (0, 0): F(1, 2),
        (1, 0): F(1, 2),
    }


def test_identity_is_free():
    supply = demand = (F(1, 4), F(1, 4), F(1, 2))
    cost = tuple(
        tuple(F(0) if i == j else F(1) for j in range(3)) for i in range(3)
    )
    assert solve_transport(supply, demand, cost).value == 0


def test_unbalanced_rejected():
    with pytest.raises(ValueError):
        solve_transport((F(1),), (F(1, 2), F(1, 4)), ((F(0), F(1)),))


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        solve_transport((F(3, 2), F(-1, 2)), (F(1),), ((F(0),), (F(0),)))


def test_cap_enforced():
    supply = (F(1, 2), F(1, 2))
    demand = (F(1), F(0))
    cost = ((F(0), F(1)), (F(1), F(0)))
    with pytest.raises(CapacityError):
        solve_transport(supply, demand, cost, cap=1)


CERTIFIED = ((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)), ((F(1), F(4)), (F(2), F(1, 2))))


def test_duals_certify_optimality():
    res = solve_transport(*CERTIFIED)
    assert verify_transport(*CERTIFIED, res)


def _moved(plan, mass):
    """The plan with `mass` moved from its first cell to its second."""
    (i0, j0, f0), (i1, j1, f1), *rest = plan
    return ((i0, j0, f0 - mass), (i1, j1, f1 + mass), *rest)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda r: replace(r, row_duals=(r.row_duals[0] + F(1, 7),) + r.row_duals[1:]),
        lambda r: replace(r, col_duals=r.col_duals[:-1] + (r.col_duals[-1] - F(1, 7),)),
        lambda r: replace(r, plan=_moved(r.plan, F(1, 12))),
        lambda r: replace(r, value=r.value + F(1, 100)),
        lambda r: replace(r, col_duals=r.col_duals[:-1]),
    ],
    ids=["row-dual-off", "col-dual-off", "mass-moved", "wrong-value", "col-dual-missing"],
)
def test_certificate_refuses_tampered_results(tamper):
    res = solve_transport(*CERTIFIED)
    assert len(res.plan) >= 2
    assert not verify_transport(*CERTIFIED, tamper(res))


# row 0 carries no mass, so its one zero reduced cost sits on the degenerate
# tree arc (0, 0), which the plan leaves out; the costs' denominator is 2
DEGENERATE = (
    (F(0), F(1, 3), F(2, 3)),
    (F(1, 2), F(1, 2)),
    ((F(1), F(4)), (F(1), F(4)), (F(2), F(1, 2))),
)


def cost_denominator(cost):
    return math.lcm(*(c.denominator for row in cost for c in row))


def test_certificate_refuses_a_dual_off_by_a_third_of_the_cost_denominator():
    supply, demand, cost = DEGENERATE
    den = cost_denominator(cost)
    res = solve_transport(*DEGENERATE)
    assert res.row_duals[0] == 0 and all(i != 0 for i, _, _ in res.plan)
    # the shift lies below the costs' denominator, so only the common
    # denominator of the costs and the duals sees it
    off = replace(res, row_duals=(res.row_duals[0] + F(1, 3 * den),) + res.row_duals[1:])
    negative = [
        (i, j)
        for i, (row, u) in enumerate(zip(cost, off.row_duals))
        for j, (c, v) in enumerate(zip(row, off.col_duals))
        if c - u - v < 0
    ]
    assert negative == [(0, 0)]
    assert verify_transport(*DEGENERATE, res)
    assert not verify_transport(*DEGENERATE, off)


@pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0)], ids=["first", "last"])
def test_certificate_refuses_a_result_without_the_zero_mass_rows_dual(order):
    # the plan never touches the zero-mass row, so only the duals' count
    # shows that its dual is missing; placed last, every other dual still
    # lines up with its own row
    supply, demand, cost = DEGENERATE
    instance = ([supply[i] for i in order], demand, [cost[i] for i in order])
    res = solve_transport(*instance)
    k = order.index(0)
    cut = replace(res, row_duals=res.row_duals[:k] + res.row_duals[k + 1:])
    assert all(i != k for i, _, _ in res.plan)
    assert verify_transport(*instance, res)
    assert not verify_transport(*instance, cut)


def test_certificate_accepts_duals_on_a_coarser_denominator():
    # costs over 3 and integer duals: tight on the diagonal plan, 2/3 slack
    # on the other two cells
    supply = demand = (F(1, 2), F(1, 2))
    cost = ((F(1), F(5, 3)), (F(5, 3), F(1)))
    res = TransportResult(F(1), ((0, 0, F(1, 2)), (1, 1, F(1, 2))), (F(0), F(0)), (F(1), F(1)))
    assert res.value == solve_transport(supply, demand, cost).value
    assert cost_denominator(cost) == 3
    assert verify_transport(supply, demand, cost, res)


@st.composite
def transport_instances(draw):
    """Balanced instances with zero masses, coprime cost denominators and
    ties: masses are small counts over their total, costs small numerators
    over a few denominators."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    counts = st.integers(0, 3)
    supply = draw(st.lists(counts, min_size=m, max_size=m).filter(any))
    demand = draw(st.lists(counts, min_size=n, max_size=n).filter(any))
    dens = st.sampled_from((1, 2, 3, 5, 7))
    cost = [[F(draw(st.integers(0, 4)), draw(dens)) for _ in range(n)] for _ in range(m)]
    return (
        [F(s, sum(supply)) for s in supply],
        [F(d, sum(demand)) for d in demand],
        cost,
    )


@given(transport_instances())
@example(  # zero masses: the northwest-corner start is degenerate
    ([F(1, 2), F(0), F(1, 2)], [F(0), F(1, 2), F(1, 2)],
     [[F(1), F(0), F(2)], [F(0), F(1), F(1)], [F(2), F(1), F(0)]])
)
@example(([F(1)], [F(1, 3), F(0), F(2, 3)], [[F(1, 2), F(1, 3), F(1, 5)]]))  # m = 1
@example(([F(1, 4), F(3, 4)], [F(1)], [[F(2, 7)], [F(3, 11)]]))  # n = 1
@example(  # coprime cost denominators
    ([F(1, 3), F(1, 3), F(1, 3)], [F(1, 2), F(1, 2)],
     [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)], [F(2, 11), F(3, 13)]])
)
@example(([F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)], [[F(1)] * 2] * 2))  # all costs tied
@settings(max_examples=200, deadline=None)
def test_matches_fraction_oracle(instance):
    assert solve_transport(*instance) == fraction_transport(*instance)


def test_matches_fraction_oracle_on_empirical_flow(game, rho, m0):
    # a sampled empirical flow of the lift against rho, the transport that
    # `limits converge` solves, with costs from the oracle
    cfg = SimulationConfig(master_seed=3, replications=60)
    emp = empirical_rho_n(game, lift(rho, 5), m0, cfg).flow
    supply = [F(w) for _, _, w in emp.atoms]
    demand = [F(w) for _, _, w in rho.atoms]
    cost = [
        [atom_distance(sa, fa, sb, fb) for sb, fb, _ in rho.atoms]
        for sa, fa, _ in emp.atoms
    ]
    assert len(supply) > len(demand) > 1
    res = solve_transport(supply, demand, cost)
    assert res == fraction_transport(supply, demand, cost)
    assert res.value == flow_space_distance(emp, rho)


def test_against_float_solver():
    """Random balanced instances match scipy's LP solution value."""
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        supply_raw = [rng.randint(1, 9) for _ in range(m)]
        demand_raw = [rng.randint(1, 9) for _ in range(n)]
        ts, td = sum(supply_raw), sum(demand_raw)
        supply = tuple(F(v, ts) for v in supply_raw)
        demand = tuple(F(v, td) for v in demand_raw)
        cost = tuple(
            tuple(F(rng.randint(0, 20), 4) for _ in range(n)) for _ in range(m)
        )
        res = solve_transport(supply, demand, cost)
        # LP over vectorized plan: marginals as equality constraints
        a_eq, b_eq = [], []
        for i in range(m):
            row = [0.0] * (m * n)
            for j in range(n):
                row[i * n + j] = 1.0
            a_eq.append(row)
            b_eq.append(float(supply[i]))
        for j in range(n):
            row = [0.0] * (m * n)
            for i in range(m):
                row[i * n + j] = 1.0
            a_eq.append(row)
            b_eq.append(float(demand[j]))
        c = [float(cost[i][j]) for i in range(m) for j in range(n)]
        ref = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * (m * n), method="highs")
        assert ref.status == 0
        assert abs(float(res.value) - ref.fun) < 1e-9


@pytest.fixture(scope="module")
def dirac_rho(game, rho):
    phi, flow, _ = rho.atoms[0]
    return CorrelatedFlow(((phi, flow, F(1)),))


def test_atom_distance_components(rho):
    """Between two one-atom flows the distance is the ground cost of their
    atoms: the strategy mismatch plus the summed half-L1 gaps of the laws.
    The integer ground cost, over twice the flows' common denominator, is
    the same number."""
    pa, fa, _ = rho.atoms[0]
    pb, fb = rho.atoms[4][0], rho.atoms[1][1]
    law_gap = sum(
        sum(abs(x - y) for x, y in zip(ma.weights, mb.weights)) / 2
        for ma, mb in zip(fa.measures, fb.measures)
    )
    assert pa != pb and law_gap > 0
    den = math.lcm(*(x.denominator for f in (fa, fb) for pv in f.measures for x in pv.weights))
    assert den > 1

    def keyed(phi, flow):
        return phi.actions, [int(x * den) for pv in flow.measures for x in pv.weights]
    for (p, f), (q, g), want in [
        ((pa, fa), (pa, fa), 0),
        ((pa, fa), (pb, fa), 1),
        ((pa, fa), (pa, fb), law_gap),
        ((pa, fa), (pb, fb), 1 + law_gap),
    ]:
        assert atom_distance(p, f, q, g) == want
        assert F(int_atom_distance(keyed(p, f), keyed(q, g), 2 * den), 2 * den) == want
        assert flow_space_distance(
            CorrelatedFlow(((p, f, F(1)),)), CorrelatedFlow(((q, g, F(1)),))
        ) == want


def test_flow_space_metric_axioms(rho, dirac_rho):
    assert flow_space_distance(rho, rho) == 0
    d_ab = flow_space_distance(rho, dirac_rho)
    assert d_ab == flow_space_distance(dirac_rho, rho) > 0


def test_distance_to_dirac_is_forced_plan(rho, dirac_rho):
    # against a single atom every unit of mass has a fixed destination
    tphi, tflow, _ = dirac_rho.atoms[0]
    expected = sum(
        w * atom_distance(phi, flow, tphi, tflow) for phi, flow, w in rho.atoms
    )
    assert expected > 0
    assert flow_space_distance(rho, dirac_rho) == expected


def test_triangle_inequality_on_conditionals(rho):
    from cmfg.mfg import factor_flow

    flows, _, conditionals = factor_flow(rho)
    a, b, c = (
        CorrelatedFlow(tuple((phi, flow, w) for phi, w in cond))
        for flow, cond in zip(flows[:3], conditionals[:3])
    )
    assert flow_space_distance(a, c) <= flow_space_distance(a, b) + flow_space_distance(b, c)


def test_float_mode_result_is_float(game, rho, dirac_rho):
    rho_f = float_via_io(game, dirac_rho)
    exact = flow_space_distance(rho, dirac_rho)
    d = flow_space_distance(rho, rho_f)
    assert isinstance(d, float)
    assert abs(d - float(exact)) < 1e-12


def oracle_distance(rho_a, rho_b):
    """W1 by `oracles.fraction_transport` over the `oracles.atom_distance`
    costs, the atom weights promoted and renormalized to unit mass."""
    supply, demand = (
        [w / sum(ws) for w in ws]
        for ws in ([F(w) for _, _, w in rho.atoms] for rho in (rho_a, rho_b))
    )
    cost = [
        [atom_distance(pa, fa, pb, fb) for pb, fb, _ in rho_b.atoms]
        for pa, fa, _ in rho_a.atoms
    ]
    return fraction_transport(supply, demand, cost).value


@given(
    seed=st.integers(0, 2**32),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2)),
    sizes=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    dens=st.tuples(*[st.sampled_from((None, 4, 6, 7, 9))] * 2),
    float_side=st.sampled_from((None, 0, 1)),
)
@example(seed=0, shape=(2, 2, 2), sizes=(5, 4), dens=(7, 9), float_side=None)  # coprime
@example(seed=1, shape=(3, 2, 2), sizes=(6, 6), dens=(4, 9), float_side=1)
@settings(max_examples=150, deadline=None)
def test_flow_space_distance_matches_the_fraction_oracle(seed, shape, sizes, dens, float_side):
    """Random correlated flows on random games, weights on coprime or shared
    denominators, one side possibly a float copy read back through io."""
    game = random_game(seed, *shape)
    pair = [
        random_correlated_flow(seed + k + 1, game, n, den)
        for k, (n, den) in enumerate(zip(sizes, dens))
    ]
    if float_side is not None:
        pair[float_side] = float_via_io(game, pair[float_side])
    want = oracle_distance(*pair)
    got = flow_space_distance(*pair)
    if float_side is None:
        assert isinstance(got, F) and got == want
    else:
        assert isinstance(got, float) and got == float(want)


def one_atom_flow(labels, horizon):
    space = FiniteSpace(labels)
    flow = FlowTrajectory((ProbabilityVector.uniform(space, EXACT),) * (horizon + 1))
    return CorrelatedFlow(((RestrictedStrategy(((0,) * len(labels),) * horizon), flow, F(1)),))


@pytest.mark.parametrize(
    "labels, horizon",
    [(("x0", "x1", "x2"), 2), (("x0", "x1"), 3), (("y0", "y1"), 2)],
    ids=["unequal-state-count", "unequal-horizon", "relabelled-states"],
)
def test_flows_on_different_spaces_rejected(labels, horizon):
    base, other = one_atom_flow(("x0", "x1"), 2), one_atom_flow(labels, horizon)
    for pair in ((base, other), (other, base)):
        with pytest.raises(ValueError, match="flows live on different spaces"):
            flow_space_distance(*pair)
