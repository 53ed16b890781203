"""Slow reference forms that the tests hold the package's fast paths to.

  * `uniform`: one counter-based uniform at a time, the scalar form of
    `rng.uniform_block`;
  * `count_chain_cost` and `candidate_costs`: player 0's expected cost by
    one propagation of the count chain per candidate strategy, which
    `nplayer.exact_joint_propagate` replaces by one walk of the deviator's
    action tree for all candidates;
  * `LinRow` and `dense_lp`: a linear program written as dense rows, each
    coefficient written out, handed to `lp.LinearProgram` as `Constraint`s
    and the rows' columns (`DenseColumns`);
  * `ce_constraints`: the full correlated-equilibrium system over ordered
    strategy assignments, with costs from `candidate_costs`, of which
    `nplayer.solve_symmetric_ce` solves the multiset reduction;
  * `dense_rows`: a linear program's rows with every coefficient written
    out, rebuilt from its columns;
  * `check_solution`: an exact feasibility re-check of a linear program's
    solution, independent of `lp.solve_lp`'s simplex;
  * `fraction_lp`: the two-phase simplex on a dense `Fraction` tableau with
    every row normalized to a basic entry of 1, which `lp.solve_lp` runs,
    pivot for pivot, on an integer basis inverse with each tableau row
    known up to a positive factor and each column priced on demand;
  * `recorded` and `by_the_oracle`: a solver's values and (row, column)
    pivots, and `fraction_lp`'s, for comparing the two pivot for pivot;
  * `lp_debug_dump`: a readable listing of a linear program;
  * `random_game`: seeded random valid games whose kernels and costs depend
    on the measure;
  * `malformed_game`: a game document with one shape fault of the kinds in
    `MALFORMED_GAMES`, each of which `io.game_from_json` must refuse;
  * `deviation_costs_by_candidate`: the Monte Carlo deviation audit with one
    simulation per candidate strategy, which
    `nplayer._MonteCarlo.deviation_costs` replaces by one walk of the
    deviator's action tree;
  * `random_correlated_flow`: a seeded correlated flow on a game, with random
    strategies, flows and weights (not a solution), the flow weights
    optionally all counts over one given denominator;
  * `flow_cost`: J(phi, mu), the expected total cost of one strategy against
    a frozen flow, from `mfg.state_law`'s laws;
  * `optimality_rows`: the mean-field optimality rows from a running minimum
    over the candidates, one recommendation at a time, with costs from
    `flow_cost`, which
    `mfg.optimality_gap` replaces by one value vector per recommendation and
    the shared `mfg.gap_rows`;
  * `fraction_transport`: the transportation simplex in `Fraction`s from the
    same least-cost start, with the basis rebuilt on every pivot, which
    `transport.solve_transport` runs on integer data (the masses and the
    costs each times a common denominator) with the basis kept between
    pivots;
  * `atom_distance`: the flow-space ground metric in `Fraction`s, one pair of
    (strategy, flow) atoms at a time, which `transport.atom_distance` computes
    one cost row at a time, as integers over twice the common denominator of
    all the flow weights that `transport.flow_space_distance` puts on it once;
  * `expand`: a profile as atoms over ordered strategy tuples, sum_k |c_k|^N
    of them for a factored profile, which the exact audits replace by one
    player's anonymous draws (own strategy, others-multiset, weight);
  * `expanded_deviation_gain` and `expanded_exchangeability_check`: the
    exact audits atom by atom over `expand`, and `brute_is_symmetric`, the
    symmetry test over all N! permutations of each atom.
"""

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from cmfg.lp import EQ, GE, Constraint, InfeasibleError, LinearProgram, UnboundedError
from cmfg.mfg import CorrelatedFlow, GapRow, gap_rows, state_law
from cmfg.model import (
    DEFAULT_JOINT_CAP,
    DEFAULT_LP_CAP,
    DEFAULT_STRATEGY_CAP,
    EXACT,
    AffineCost,
    AffineSimplexMap,
    CapacityError,
    FiniteSpace,
    FlowTrajectory,
    GameSpec,
    ProbabilityVector,
    ThresholdTransition,
    arith,
    enumerate_strategies,
    require_ints,
    zero,
)
from cmfg.nplayer import (
    DeviationGainResult,
    ExchangeabilityReport,
    ExchangeabilityRow,
    ExplicitProfile,
    count_chain_laws,
)
from cmfg.rng import stream_value
from cmfg.transport import TransportResult


def uniform(seed: int, rep: int, slot: int) -> float:
    """One uniform in [0, 1) with 53 random bits."""
    return (stream_value(seed, rep, slot) >> 11) * 2.0 ** -53


def count_chain_cost(game, strategies, m0n, joint_cap: int = DEFAULT_JOINT_CAP):
    """Player 0's expected total cost by propagating the count chain (its
    state, then per distinct strategy of the others the d-tuple of their
    state counts) with player 0 on strategies[0] alone: kernel rows memoized
    within the call only, each group's next counts built by adding its
    players one at a time, groups combined as independent parts."""
    n, d = len(strategies), len(game.states)
    if d ** n > joint_cap:
        raise CapacityError(f"{d}^{n} joint states exceed cap {joint_cap}")
    ratio = arith(game.arithmetic).ratio
    own, others = strategies[0], strategies[1:]
    groups = list(dict.fromkeys(s.actions for s in others))
    sizes = Counter(s.actions for s in others)
    blank = {(0,) * d: arith(game.arithmetic).scalar(1)}

    def seen(counts, x):
        return tuple(ratio(c - (y == x), n - 1) for y, c in enumerate(counts))

    def inclusive(key):
        counts = [sum(by_group) for by_group in zip(*key[1:])]
        counts[key[0]] += 1
        return tuple(counts)

    def add_players(law, count, entries):
        for _ in range(count):
            out = {}
            for c, w in law.items():
                for y, k in entries:
                    nc = (*c[:y], c[y] + 1, *c[y + 1 :])
                    out[nc] = out.get(nc, 0) + w * k
            law = out
        return law

    def product(heads, parts):
        for part in parts:
            heads = [(h + (c,), p * q) for h, p in heads for c, q in part]
        return heads

    moves = {}

    def move(t, counts, x, a):
        if (t, counts, x, a) not in moves:
            m = seen(counts, x)
            row = game.raw_kernel(t, x, m, a)
            moves[t, counts, x, a] = (
                [(y, k) for y, k in enumerate(row) if k], game.raw_running_cost(t, x, m, a)
            )
        return moves[t, counts, x, a]

    start = [(y, w) for y, w in enumerate(m0n.weights) if w]
    law = dict(product(
        [((x,), w) for x, w in start],
        [add_players(blank, sizes[g], start).items() for g in groups],
    ))
    cost = zero(game.arithmetic)
    for t in range(game.horizon):
        nxt = {}
        for key, w in law.items():
            counts = inclusive(key)
            row, running = move(t, counts, key[0], own.actions[t][key[0]])
            cost += w * running
            parts = []
            for g, c in zip(groups, key[1:]):
                spread = blank
                for x, cx in enumerate(c):
                    if cx:
                        spread = add_players(spread, cx, move(t, counts, x, g[t][x])[0])
                parts.append(spread.items())
            for nk, p in product([((y,), w * k) for y, k in row], parts):
                nxt[nk] = nxt.get(nk, 0) + p
        law = nxt
    for key, w in law.items():
        cost += w * game.raw_terminal_cost(key[0], seen(inclusive(key), key[0]))
    return cost


def candidate_costs(game, candidates, others, m0n) -> tuple:
    """Player 0's cost on each candidate against the others, one
    `count_chain_cost` per candidate."""
    return tuple(count_chain_cost(game, (psi, *others), m0n) for psi in candidates)


def expand(profile) -> ExplicitProfile:
    """The profile's atoms over ordered strategy tuples: a factored profile
    integrates its flow out into one atom per flow and tuple of draws, with
    the product of the weights; an explicit profile is returned as it is."""
    if isinstance(profile, ExplicitProfile):
        return profile
    atoms = []
    for wf, cond in zip(profile.flow_weights, profile.conditionals):
        for combo in itertools.product(cond, repeat=profile.n_players):
            atoms.append((tuple(s for s, _ in combo), math.prod((w for _, w in combo), start=wf)))
    return ExplicitProfile(profile.n_players, tuple(atoms))


def expanded_deviation_gain(game, profile, player, m0n) -> DeviationGainResult:
    """The exact deviation audit atom by atom over `expand`: each atom's
    others costed by `candidate_costs`, memoized per others-multiset."""
    candidates = enumerate_strategies(game)
    index = {s.actions: i for i, s in enumerate(candidates)}
    memo = {}
    by_rec = {}
    for vec, w in expand(profile).atoms:
        others = vec[:player] + vec[player + 1 :]
        key = tuple(sorted(s.actions for s in others))
        if key not in memo:
            memo[key] = candidate_costs(game, candidates, others, m0n)
        rec = index[vec[player].actions]
        values = by_rec.get(rec, [zero(game.arithmetic)] * len(candidates))
        by_rec[rec] = [v + w * c for v, c in zip(values, memo[key])]
    rows = gap_rows(candidates, sorted(by_rec.items()))
    return DeviationGainResult(
        sum((r.gap for r in rows), zero(game.arithmetic)), rows, "exact"
    )


def expanded_exchangeability_check(game, profile, m0n, t) -> ExchangeabilityReport:
    """`nplayer.exchangeability_check` with one walk per atom of `expand`."""
    ar = arith(game.arithmetic)
    n, d = profile.n_players, len(game.states)
    by_counts = {}
    for vec, w in expand(profile).atoms:
        for key, p in count_chain_laws(game, vec, m0n)[t].items():
            counts = [sum(by_group) for by_group in zip(*key[1:])]
            counts[key[0]] += 1
            cond = by_counts.setdefault(tuple(counts), [zero(ar.mode)] * d)
            cond[key[0]] += w * p
    rows = []
    for counts in sorted(by_counts):
        cond = by_counts[counts]
        mass = sum(cond)
        empirical = tuple(ar.ratio(c, n) for c in counts)
        rows.append(ExchangeabilityRow(
            empirical, mass, max(abs(c / mass - e) for c, e in zip(cond, empirical))
        ))
    return ExchangeabilityReport(all(r.worst_gap <= ar.tol for r in rows), t, tuple(rows))


def brute_is_symmetric(profile) -> bool:
    """Every permutation of every atom carries the atom's weight, within the
    mode's tolerance."""
    if not isinstance(profile, ExplicitProfile):
        return True
    table = {tuple(s.actions for s in vec): w for vec, w in profile.atoms}
    tol = arith(profile.mode).tol
    return all(
        p in table and abs(table[p] - w) <= tol
        for vec, w in profile.atoms
        for p in itertools.permutations(tuple(s.actions for s in vec))
    )


@dataclass(frozen=True)
class LinRow:
    """One constraint written out in full: coefficients, relation, rhs."""

    coeffs: tuple[int, ...]
    relation: str
    rhs: int


class DenseColumns:
    """The column source of dense rows: column j as {row: nonzero entry}."""

    def __init__(self, rows: Sequence[LinRow], n: int):
        self.columns: list[dict[int, int]] = [{} for _ in range(n)]
        for i, row in enumerate(rows):
            for j, a in enumerate(row.coeffs):
                if a:
                    self.columns[j][i] = a

    def __len__(self) -> int:
        return len(self.columns)

    def column(self, j: int):
        return self.columns[j].items()

    def pricer(self, duals):
        columns = self.columns
        return lambda j: sum(y * columns[j].get(i, 0) for i, y in duals)


def dense_lp(variables, rows: Sequence[LinRow], objective=None) -> LinearProgram:
    """The program of dense rows: their relations and right-hand sides as
    `Constraint`s, their coefficients as `DenseColumns`.  A row of the
    wrong length, or a coefficient other than a Python int, is refused with
    ValueError, since a column source's entries must be ints."""
    n = len(variables)
    for i, row in enumerate(rows):
        if len(row.coeffs) != n:
            raise ValueError(f"row {i} has {len(row.coeffs)} coefficients, want {n}")
        require_ints(row.coeffs, "a row")
    constraints = tuple(Constraint(row.relation, row.rhs) for row in rows)
    return LinearProgram(tuple(variables), constraints, DenseColumns(rows, n), objective)


def ce_constraints(
    game,
    n_players: int,
    m0n,
    *,
    lp_cap: int = DEFAULT_LP_CAP,
    joint_cap: int = DEFAULT_JOINT_CAP,
    strategy_cap: int = DEFAULT_STRATEGY_CAP,
) -> LinearProgram:
    """Full correlated-equilibrium feasibility system over gamma in P(R^N).

    One variable per ordered strategy assignment; one row per (player,
    recommendation, deviation) triple plus the unit-mass equality.  The
    gamma >= 0 part is implicit: LP variables are nonnegative.  Each
    incentive row is its cost gaps times the lcm of their denominators, so
    the rows hold ints, as `dense_lp` requires.
    """
    if game.arithmetic != EXACT:
        raise ValueError("the equilibrium LP needs exact arithmetic")
    strategies = enumerate_strategies(game, strategy_cap)
    n_r = len(strategies)
    n_vars = n_r ** n_players
    if n_vars > lp_cap:
        raise CapacityError(f"{n_vars} LP variables exceed cap {lp_cap}")
    assignments = list(itertools.product(range(n_r), repeat=n_players))
    names = tuple("g_" + "_".join(map(str, vec)) for vec in assignments)
    memo: dict[tuple, Fraction] = {}

    def d_cost(own_i: int, others: tuple[int, ...]) -> Fraction:
        key = (own_i, tuple(sorted(others)))
        if key not in memo:
            memo[key] = count_chain_cost(
                game, [strategies[j] for j in (own_i, *key[1])], m0n, joint_cap
            )
        return memo[key]

    rows = []
    for i in range(n_players):
        for rec in range(n_r):
            for psi in range(n_r):
                if psi == rec:
                    continue
                coeffs = []
                for vec in assignments:
                    if vec[i] != rec:
                        coeffs.append(Fraction(0))
                        continue
                    others = vec[:i] + vec[i + 1 :]
                    coeffs.append(d_cost(psi, others) - d_cost(rec, others))
                q = math.lcm(*(c.denominator for c in coeffs))
                rows.append(LinRow(tuple(int(c * q) for c in coeffs), GE, 0))
    rows.append(LinRow((1,) * len(names), EQ, 1))
    return dense_lp(names, rows)


def dense_rows(lp: LinearProgram) -> tuple[LinRow, ...]:
    """The program's rows with every coefficient written out, rebuilt from
    its columns: the rows as given for a program from `dense_lp`."""
    coeffs = [[0] * len(lp.variables) for _ in lp.rows]
    for j in range(len(lp.variables)):
        for i, a in lp.columns.column(j):
            coeffs[i][j] = a
    return tuple(LinRow(tuple(c), row.relation, row.rhs) for c, row in zip(coeffs, lp.rows))


def check_solution(lp: LinearProgram, values: dict) -> bool:
    """Exact feasibility re-check of an LP solution, independent of the
    solver internals."""
    x = [values.get(v, Fraction(0)) for v in lp.variables]
    if any(v < 0 for v in x):
        return False
    for row in dense_rows(lp):
        lhs = sum(c * v for c, v in zip(row.coeffs, x) if c)
        if row.relation == EQ and lhs != row.rhs:
            return False
        if row.relation == GE and lhs < row.rhs:
            return False
    return True


def lp_debug_dump(lp: LinearProgram) -> str:
    """Readable listing of the whole system with rational entries."""
    lines = [f"minimize: " + (
        " + ".join(f"{c}*{v}" for c, v in zip(lp.objective, lp.variables) if c)
        if lp.objective and any(lp.objective) else "0 (feasibility)"
    )]
    lines.append(f"subject to ({len(lp.rows)} rows, {len(lp.variables)} nonnegative variables):")
    for row in dense_rows(lp):
        terms = " + ".join(
            f"{c}*{v}" for c, v in zip(row.coeffs, lp.variables) if c
        ) or "0"
        lines.append(f"  {terms} {row.relation} {row.rhs}")
    return "\n".join(lines)


def random_game(seed: int, d: int, n_actions: int, horizon: int) -> GameSpec:
    """A valid exact game with d states, n_actions actions and the horizon.

    Each kernel row is a vertex mixture (1 - s) base + s sum_y m(y) v_y, so
    it depends on the measure and stays a probability vector on the whole
    simplex.  About half of the rows put zero weight on a random nonempty
    set of states, for every measure, so samplers meet zero entries.
    """
    r = random.Random(seed)

    def pvec(support):
        raw = [r.randint(1, 4) if i in support else 0 for i in range(d)]
        return [Fraction(v, sum(raw)) for v in raw]

    def row():
        support = set(range(d))
        if d > 1 and r.random() < 0.5:
            support = set(r.sample(range(d), r.randint(1, d - 1)))
        base = pvec(support)
        vertices = [pvec(support) for _ in range(d)]
        s = Fraction(r.randint(1, 4), 4)
        coef = tuple(
            tuple(s * (vertices[y][i] - base[i]) for y in range(d)) for i in range(d)
        )
        return AffineSimplexMap(tuple(base), coef)

    def cost():
        return Fraction(r.randint(-4, 4), 8)

    rows = tuple(
        tuple(tuple(row() for _ in range(n_actions)) for _ in range(d))
        for _ in range(horizon)
    )
    costs = AffineCost(
        tuple(tuple(tuple(cost() for _ in range(n_actions)) for _ in range(d))
              for _ in range(horizon)),
        tuple(tuple(tuple(tuple(cost() for _ in range(d)) for _ in range(n_actions))
                    for _ in range(d)) for _ in range(horizon)),
        tuple(cost() for _ in range(d)),
        tuple(tuple(cost() for _ in range(d)) for _ in range(d)),
    )
    return GameSpec(
        horizon,
        FiniteSpace(tuple(f"x{i}" for i in range(d))),
        FiniteSpace(tuple(f"a{i}" for i in range(n_actions))),
        ThresholdTransition(rows), costs, EXACT,
    )


def deviation_costs_by_candidate(mc, strat_rows, x0, noise, player):
    """`_MonteCarlo.deviation_costs` with one `run` per candidate strategy on
    the same chunk of random inputs."""
    costs = np.empty((len(x0), len(mc.strategies)), dtype=np.float64)
    rows = strat_rows.copy()
    for c in range(len(mc.strategies)):
        rows[:, player] = c
        costs[:, c] = mc.run(rows, x0, noise, player)[0]
    return costs


def random_correlated_flow(
    seed: int, game: GameSpec, n_atoms: int, den: Optional[int] = None
) -> CorrelatedFlow:
    """Up to n_atoms (strategy, flow) atoms with random rational flows and
    weights; three strategies at most, so recommendations carry several flows.
    With `den`, every flow weight is a count over den."""
    r = random.Random(seed)
    strategies = enumerate_strategies(game)
    d = len(game.states)

    def measure():
        if den is None:
            raw = [r.randint(0, 3) for _ in range(d)]
            raw[r.randrange(d)] += 1
        else:
            cuts = sorted(r.randint(0, den) for _ in range(d - 1))
            raw = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
        return ProbabilityVector(game.states, tuple(Fraction(v, sum(raw)) for v in raw), EXACT)

    pool = r.sample(strategies, min(3, len(strategies)))
    atoms = {}
    for _ in range(n_atoms):
        flow = FlowTrajectory(tuple(measure() for _ in range(game.horizon + 1)))
        atoms[(r.choice(pool), flow)] = r.randint(1, 5)
    total = sum(atoms.values())
    return CorrelatedFlow(tuple((phi, flow, Fraction(w, total)) for (phi, flow), w in atoms.items()))


def atom_distance(strategy_a, flow_a, strategy_b, flow_b) -> Fraction:
    """Ground metric: strategy mismatch indicator plus summed state-law gaps,
    with float weights promoted to exact rationals."""
    d = Fraction(strategy_a.actions != strategy_b.actions)
    for ma, mb in zip(flow_a.measures, flow_b.measures):
        d += sum(abs(Fraction(x) - Fraction(y)) for x, y in zip(ma.weights, mb.weights)) / 2
    return d


def flow_cost(game, phi, flow, m0):
    """J(phi, mu): the expected total cost of playing phi against the frozen
    flow from m0, summed over `mfg.state_law`'s laws in the order in which
    `mfg._walk` sums them, so that float games agree bit for bit."""
    laws, T = state_law(game, phi, flow, m0), game.horizon
    total = zero(game.arithmetic)
    for t in range(T):
        m = flow[t].weights
        for x, p in enumerate(laws[t].weights):
            if p:
                total += p * game.raw_running_cost(t, x, m, phi.actions[t][x])
    m = flow[T].weights
    for x, p in enumerate(laws[T].weights):
        if p:
            total += p * game.raw_terminal_cost(x, m)
    return total


def optimality_rows(game, rho, m0, cap: int = DEFAULT_STRATEGY_CAP) -> tuple:
    """Per recommendation in enumeration order: the cost of obeying as its own
    atom sum, and the best response as the first strict running minimum over
    every candidate, counting the candidates that tie with it."""
    candidates = enumerate_strategies(game, cap)
    support = sorted({phi for phi, _, _ in rho.atoms}, key=lambda s: s.actions)
    rows = []
    for phi in support:
        flows = [(flow, w) for p, flow, w in rho.atoms if p == phi]
        own = sum(w * flow_cost(game, phi, flow, m0) for flow, w in flows)
        best_i = best_val = None
        tied = 0
        for i, psi in enumerate(candidates):
            val = sum(w * flow_cost(game, psi, flow, m0) for flow, w in flows)
            if best_val is None or val < best_val:
                best_i, best_val, tied = i, val, 1
            elif val == best_val:
                tied += 1
        rows.append(GapRow(
            phi, candidates.index(phi), own, candidates[best_i], best_i, best_val,
            own - best_val, tied,
        ))
    return tuple(rows)


def malformed_game(doc, edit):
    """A copy of the game document with one shape fault."""
    doc = json.loads(json.dumps(doc))
    base, coef = doc["transition"]["base"], doc["transition"]["coef"]
    if edit == "not-an-object":
        return []
    if edit == "base-one-step-short":
        base.pop()
    if edit == "base-and-coef-one-step-long":
        base.append(base[0])
        coef.append(coef[0])
    if edit == "base-row-is-scalar":
        base[0] = 5
    if edit == "states-is-string":
        doc["states"] = "ab"
    if edit == "horizon-is-float":
        doc["horizon"] = 2.7
    if edit == "horizon-is-bool":
        doc["horizon"] = True
    if edit == "horizon-is-negative":
        doc["horizon"] = -1
    return doc


MALFORMED_GAMES = (
    "not-an-object", "base-one-step-short", "base-and-coef-one-step-long",
    "base-row-is-scalar", "states-is-string", "horizon-is-float", "horizon-is-bool",
    "horizon-is-negative",
)


def fraction_transport(supply, demand, cost) -> TransportResult:
    """The transportation simplex of `transport.solve_transport` in
    `Fraction`s, pivot for pivot: the least-cost start, Bland's pivots
    (row-major first negative reduced cost enters, smallest tied arc leaves),
    and the tree duals and cycle rebuilt from the basis on every pivot."""
    supply = [Fraction(s) for s in supply]
    demand = [Fraction(d) for d in demand]
    cost = [[Fraction(c) for c in row] for row in cost]
    m, n = len(supply), len(demand)
    # least-cost start: the cells in (cost, i, j) order, skipping those of a
    # closed row or column, each given min(s_i, d_j); the row closes when its
    # supply is used up and another row is open, or when its column is the
    # only one open, the column otherwise; the cell that leaves one row and one column
    # open is the last.  Always m+n-1 arcs, zeros kept for the tree
    flow: dict[tuple[int, int], Fraction] = {}
    s, d = list(supply), list(demand)
    rows, cols = set(range(m)), set(range(n))
    for _, i, j in sorted((c, i, j) for i in range(m) for j, c in enumerate(cost[i])):
        if i not in rows or j not in cols:
            continue
        t = min(s[i], d[j])
        flow[(i, j)] = t
        s[i] -= t
        d[j] -= t
        if len(rows) == len(cols) == 1:
            break
        if s[i] == 0 and len(rows) > 1 or len(cols) == 1:
            rows.remove(i)
        else:
            cols.remove(j)

    while True:
        u, v = _fraction_duals(flow, cost, m, n)
        entering = None
        for ei in range(m):
            ci, ui = cost[ei], u[ei]
            for ej in range(n):
                if (ei, ej) not in flow and ci[ej] - ui - v[ej] < 0:
                    entering = (ei, ej)
                    break
            if entering:
                break
        if entering is None:
            break
        _fraction_pivot(flow, entering, m, n)

    value = sum(cost[i][j] * f for (i, j), f in flow.items())
    plan = tuple(sorted((i, j, f) for (i, j), f in flow.items() if f > 0))
    return TransportResult(value, plan, tuple(u), tuple(v))


def _fraction_duals(
    flow: dict[tuple[int, int], Fraction],
    cost: Sequence[Sequence[Fraction]],
    m: int,
    n: int,
) -> tuple[list[Fraction], list[Fraction]]:
    """Tree duals with u[0] = 0, via breadth-first walk of the basis arcs."""
    by_row: list[list[int]] = [[] for _ in range(m)]
    by_col: list[list[int]] = [[] for _ in range(n)]
    for (i, j) in flow:
        by_row[i].append(j)
        by_col[j].append(i)
    u: list[Optional[Fraction]] = [None] * m
    v: list[Optional[Fraction]] = [None] * n
    u[0] = Fraction(0)
    queue = [("r", 0)]
    while queue:
        kind, k = queue.pop()
        if kind == "r":
            for j in by_row[k]:
                if v[j] is None:
                    v[j] = cost[k][j] - u[k]
                    queue.append(("c", j))
        else:
            for i in by_col[k]:
                if u[i] is None:
                    u[i] = cost[i][k] - v[k]
                    queue.append(("r", i))
    if any(x is None for x in u) or any(x is None for x in v):
        raise AssertionError("basis is not a spanning tree")  # pragma: no cover
    return u, v  # type: ignore[return-value]


def _fraction_pivot(
    flow: dict[tuple[int, int], Fraction], entering: tuple[int, int], m: int, n: int
) -> None:
    """Push mass around the unique tree cycle closed by the entering arc."""
    ei, ej = entering
    by_row: list[list[int]] = [[] for _ in range(m)]
    by_col: list[list[int]] = [[] for _ in range(n)]
    for (i, j) in flow:
        by_row[i].append(j)
        by_col[j].append(i)
    # path from row ei to column ej through basis arcs
    parent: dict[tuple[str, int], tuple[str, int]] = {}
    stack = [("r", ei)]
    seen = {("r", ei)}
    while stack:
        node = stack.pop()
        kind, k = node
        nbrs = (
            [("c", j) for j in by_row[k]] if kind == "r" else [("r", i) for i in by_col[k]]
        )
        for nxt in nbrs:
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = node
                stack.append(nxt)
    path = [("c", ej)]
    while path[-1] != ("r", ei):
        path.append(parent[path[-1]])
    # cycle arcs alternate -,+,-,... walking back from (entering sink)
    minus: list[tuple[int, int]] = []
    plus: list[tuple[int, int]] = [entering]
    for step, (node_a, node_b) in enumerate(zip(path, path[1:])):
        arc = (
            (node_b[1], node_a[1]) if node_a[0] == "c" else (node_a[1], node_b[1])
        )
        (minus if step % 2 == 0 else plus).append(arc)
    theta = min(flow[a] for a in minus)
    leaving = min(a for a in minus if flow[a] == theta)
    for a in minus:
        flow[a] -= theta
    for a in plus:
        if a != entering:
            flow[a] += theta
    del flow[leaving]
    flow[entering] = theta


_ZERO = Fraction(0)
_ONE = Fraction(1)


class _FractionTableau:
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


def recorded(solver, simplex, lp: LinearProgram, first_row: int = 0):
    """The solver's values (or exception class) and its (row, column)
    pivots, spied on `simplex.pivot`, rows counted from 0; the oracle's
    tableau counts them from 1, its objective row being row 0."""
    pivots = []
    pivot = simplex.pivot

    def spy(self, r, c, *entering):
        pivots.append((r - first_row, c))
        pivot(self, r, c, *entering)

    simplex.pivot = spy
    try:
        return solver(lp), pivots
    except (InfeasibleError, UnboundedError) as exc:
        return type(exc), pivots
    finally:
        simplex.pivot = pivot


def by_the_oracle(lp: LinearProgram):
    """`fraction_lp`'s values (or exception class) and pivots."""
    return recorded(fraction_lp, _FractionTableau, lp, first_row=1)


def fraction_lp(lp: LinearProgram) -> dict[str, Fraction]:
    """`lp.solve_lp` on a dense `Fraction` tableau, pivot for pivot: the same
    column layout, phase-1 and phase-2 objectives and Bland's rule, with
    every row kept normalized to a basic entry of 1, on the dense rows
    rebuilt from the program's columns."""
    n = len(lp.variables)
    rows = dense_rows(lp)
    # each row flips to rhs >= 0; a ">=" row with b <= 0 becomes
    # "-a x + s = -b" with a free basic slack, other ">=" rows keep a surplus,
    # and every row without a basic slack receives an artificial variable
    flips = [r.rhs <= 0 if r.relation == GE else r.rhs < 0 for r in rows]
    nslack = sum(r.relation == GE for r in rows)
    nart = sum(r.relation == EQ or not f for r, f in zip(rows, flips))
    ncols = n + nslack + nart + 1
    tab = _FractionTableau(len(rows) + 1, ncols)

    si = n
    ai = n + nslack
    for i, (row, flip) in enumerate(zip(rows, flips)):
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

