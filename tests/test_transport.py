"""Exact optimal transport on finite atom sets and the flow-space W1 metric."""

import math
import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import atom_distance, fraction_transport, random_correlated_flow, random_game
from scipy.optimize import linprog
from test_nplayer import float_via_io

from cmfg import transport
from cmfg.limits import convergence_report, empirical_rho_n, lift
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


def times(x, k) -> int:
    """x * k, which must be an integer."""
    y = F(x) * k
    assert y.denominator == 1
    return y.numerator


def on_integers(supply, demand, cost):
    """A rational instance with the masses times their lcm and the costs
    times theirs, and those two denominators."""
    mass_den = math.lcm(*(F(w).denominator for w in (*supply, *demand)))
    cost_den = math.lcm(*(F(c).denominator for row in cost for c in row))
    return (
        [times(w, mass_den) for w in supply],
        [times(w, mass_den) for w in demand],
        [[times(c, cost_den) for c in row] for row in cost],
    ), mass_den, cost_den


def oracle_on_integers(supply, demand, cost, mass_den, cost_den):
    """`oracles.fraction_transport` on a rational instance, carried over to
    its integer form: plan masses times the mass denominator, duals times
    the cost denominator, value times both."""
    res = fraction_transport(supply, demand, cost)
    return TransportResult(
        times(res.value, mass_den * cost_den),
        tuple((i, j, times(f, mass_den)) for i, j, f in res.plan),
        tuple(times(u, cost_den) for u in res.row_duals),
        tuple(times(v, cost_den) for v in res.col_duals),
    )


def test_tiny_instance_by_hand():
    # moving 1 across unit distance and keeping 1 in place costs 1
    supply = (1, 1)
    demand = (2, 0)
    cost = ((0, 2), (1, 3))
    res = solve_transport(supply, demand, cost)
    assert res.value == 1
    assert dict(((i, j), m) for i, j, m in res.plan) == {(0, 0): 1, (1, 0): 1}
    numbers = (res.value, *res.row_duals, *res.col_duals, *(f for _, _, f in res.plan))
    assert {type(x) for x in numbers} == {int}


def test_identity_is_free():
    supply = demand = (1, 1, 2)
    cost = tuple(tuple(0 if i == j else 1 for j in range(3)) for i in range(3))
    assert solve_transport(supply, demand, cost).value == 0


def test_unbalanced_rejected():
    with pytest.raises(ValueError, match="unbalanced"):
        solve_transport((4,), (2, 1), ((0, 1),))


def test_negative_mass_rejected():
    with pytest.raises(ValueError, match="negative"):
        solve_transport((3, -1), (2,), ((0,), (0,)))


def test_cap_enforced():
    with pytest.raises(CapacityError):
        solve_transport((1, 1), (2, 0), ((0, 1), (1, 0)), cap=1)


@pytest.mark.parametrize(
    "where, entry",
    [
        ("supply", F(1)), ("supply", 1.0), ("supply", True), ("supply", np.int64(1)),
        ("demand", F(1)), ("cost", F(1, 2)), ("cost", 0.5), ("cost", False),
        ("cost", np.int64(1)),
    ],
    ids=["fraction-supply", "float-supply", "bool-supply", "numpy-int-supply",
         "fraction-demand", "fraction-cost", "float-cost", "bool-cost", "numpy-int-cost"],
)
def test_non_int_data_refused(where, entry):
    instance = {"supply": [1, 1], "demand": [1, 1], "cost": [[0, 1], [1, 0]]}
    if where == "cost":
        instance["cost"][1][0] = entry
    else:
        instance[where][0] = entry
    with pytest.raises(ValueError, match="ints only"):
        solve_transport(**instance)


# the masses (1/3, 2/3) and (1/2, 1/2) times 6, the costs
# ((1, 4), (2, 1/2)) times 2
CERTIFIED = ((2, 4), (3, 3), ((2, 8), (4, 1)))


def test_duals_certify_optimality():
    res = solve_transport(*CERTIFIED)
    assert res.value == 11
    assert verify_transport(*CERTIFIED, res)


def _moved(plan, mass):
    """The plan with `mass` moved from its first cell to its second."""
    (i0, j0, f0), (i1, j1, f1), *rest = plan
    return ((i0, j0, f0 - mass), (i1, j1, f1 + mass), *rest)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda r: replace(r, row_duals=(r.row_duals[0] + 1,) + r.row_duals[1:]),
        lambda r: replace(r, col_duals=r.col_duals[:-1] + (r.col_duals[-1] - 1,)),
        lambda r: replace(r, plan=_moved(r.plan, 1)),
        lambda r: replace(r, value=r.value + 1),
        lambda r: replace(r, col_duals=r.col_duals[:-1]),
        # rows 0 and 1 renumbered -2 and -1, which Python's indexing reads back
        lambda r: replace(r, plan=tuple((i - 2, j, f) for i, j, f in r.plan)),
        lambda r: replace(r, plan=((2, *r.plan[0][1:]), *r.plan[1:])),
    ],
    ids=["row-dual-off", "col-dual-off", "mass-moved", "wrong-value", "col-dual-missing",
         "row-index-negative", "row-index-out-of-range"],
)
def test_certificate_refuses_tampered_results(tamper):
    res = solve_transport(*CERTIFIED)
    assert len(res.plan) >= 2
    assert not verify_transport(*CERTIFIED, tamper(res))


# the masses (0, 1/3, 2/3) and (1/2, 1/2) times 6, the costs
# ((1, 4), (1, 4), (2, 1/2)) times 2; row 0 carries no mass, so its one zero
# reduced cost sits on the degenerate tree arc (0, 0), which the plan leaves out
DEGENERATE = ((0, 2, 4), (3, 3), ((2, 8), (2, 8), (4, 1)))


def test_certificate_refuses_a_dual_off_by_one_on_the_degenerate_tree_arc():
    supply, demand, cost = DEGENERATE
    res = solve_transport(*DEGENERATE)
    assert res.row_duals[0] == 0 and all(i != 0 for i, _, _ in res.plan)
    assert cost[0][0] == res.row_duals[0] + res.col_duals[0]
    off = replace(res, row_duals=(res.row_duals[0] + 1,) + res.row_duals[1:])
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


def test_certificate_accepts_a_second_optimal_dual_pair():
    # the diagonal plan is optimal; the solver's tree duals are tight on its
    # degenerate arc (1, 0), the other pair is tight on the diagonal only
    supply = demand = (1, 1)
    cost = ((3, 5), (5, 3))
    res = solve_transport(supply, demand, cost)
    assert res.plan == ((0, 0, 1), (1, 1, 1)) and res.value == 6
    other = replace(res, row_duals=(0, 0), col_duals=(3, 3))
    assert other != res
    assert verify_transport(supply, demand, cost, other)


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
@example(  # zero masses: the least-cost start gives three cells no mass
    ([F(1, 2), F(0), F(1, 2)], [F(0), F(1, 2), F(1, 2)],
     [[F(1), F(0), F(2)], [F(0), F(1), F(1)], [F(2), F(1), F(0)]])
)
@example(  # the start's first cell uses up its row and its column together
    ([F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)], [[F(0), F(5)], [F(5), F(0)]])
)
@example(  # a zero-mass row holds the cheapest cell, taken first with no mass
    ([F(0), F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)],
     [[F(0), F(3)], [F(1), F(2)], [F(2), F(1)]])
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
    ints, mass_den, cost_den = on_integers(*instance)
    assert solve_transport(*ints) == oracle_on_integers(*instance, mass_den, cost_den)


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
    ints, mass_den, cost_den = on_integers(supply, demand, cost)
    res = solve_transport(*ints)
    assert res == oracle_on_integers(supply, demand, cost, mass_den, cost_den)
    assert F(res.value, mass_den * cost_den) == flow_space_distance(emp, rho)


@pytest.mark.parametrize(
    "n, pivots, w1", [(5, 58, F(1971, 3200)), (20, 110, F(987, 3200)), (50, 115, F(29179, 156800))]
)
def test_pivots_on_the_converge_sample(monkeypatch, game, rho, m0, n, pivots, w1):
    """The transport pivots of `limits converge` on the example at 200
    replications and program seed 0: `_hang` hangs the start's tree once and
    each pivot's subtree once."""
    hangs = 0
    hang = transport._hang

    def counted(*args):
        nonlocal hangs
        hangs += 1
        hang(*args)

    monkeypatch.setattr(transport, "_hang", counted)
    (row,) = convergence_report(game, rho, m0, (n,), SimulationConfig(0, 200))
    assert row.w1 == w1
    assert hangs - 1 == pivots


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
        ints, mass_den, cost_den = on_integers(supply, demand, cost)
        value = F(solve_transport(*ints).value, mass_den * cost_den)
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
        assert abs(float(value) - ref.fun) < 1e-9


@pytest.fixture(scope="module")
def dirac_rho(game, rho):
    phi, flow, _ = rho.atoms[0]
    return CorrelatedFlow(((phi, flow, F(1)),))


def test_atom_distance_components(rho):
    """Between two one-atom flows the distance is the ground cost of their
    atoms: the strategy mismatch plus the summed half-L1 gaps of the laws.
    The integer cost row from one atom to several, over twice the flows'
    common denominator, holds the same numbers in the same order."""
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
    targets = [(pa, fa), (pb, fa), (pa, fb), (pb, fb)]
    wants = [0, 1, law_gap, 1 + law_gap]
    row = int_atom_distance(keyed(pa, fa), [keyed(q, g) for q, g in targets], 2 * den)
    assert {type(c) for c in row} == {int}
    assert [F(c, 2 * den) for c in row] == wants
    assert int_atom_distance(keyed(pa, fa), [], 2 * den) == []
    for (q, g), want in zip(targets, wants):
        assert atom_distance(pa, fa, q, g) == want
        assert flow_space_distance(
            CorrelatedFlow(((pa, fa, F(1)),)), CorrelatedFlow(((q, g, F(1)),))
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


@pytest.mark.parametrize("seed, d", [(0, 2), (1, 3), (2, 3)])
@pytest.mark.parametrize("n_players", [3, 5])
def test_empirical_flow_of_a_random_game(seed, d, n_players):
    """The sampled law of a lift on a random game: every flow entry is a
    count over N-1, the weights sum to 1, and its W1 to the lifted flow is
    the oracle's."""
    game = random_game(seed, d, 2, 2)
    rho = random_correlated_flow(seed + 1, game, 4)
    m0 = ProbabilityVector.uniform(game.states, EXACT)
    cfg = SimulationConfig(master_seed=seed, replications=40)
    emp = empirical_rho_n(game, lift(rho, n_players), m0, cfg).flow
    assert sum(w for _, _, w in emp.atoms) == 1
    for _, flow, _ in emp.atoms:
        for pv in flow.measures:
            assert all(F(x * (n_players - 1)).denominator == 1 for x in pv.weights)
    assert flow_space_distance(emp, rho) == oracle_distance(emp, rho)


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
