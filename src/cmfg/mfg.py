"""Mean-field limit model: state laws, costs, solution checks, backward
induction against one flow and forward propagation.

A candidate solution is a correlated flow: a joint distribution over
(restricted strategy, trajectory of population measures).  Verification has
two halves: optimality (no strategy modification improves the representative
player's cost) and consistency (each flow in the support regenerates itself
when the conditional strategy mix is propagated forward).  The best response
to each recommendation is read off the optimality rows (`GapRow`).
`factor_flow` splits a flow into the fields of `nplayer.FactoredProfile`.

Inputs are validated at the edge: each public function checks the modes and
lengths of its flows once, and the recursions then run on raw weight tuples
through one single-player step, `GameSpec.raw_step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import (
    DEFAULT_STRATEGY_CAP,
    FlowTrajectory,
    GameSpec,
    ProbabilityVector,
    RestrictedStrategy,
    Scalar,
    arith,
    enumerate_strategies,
    require_initial_law,
    zero,
)


def _flow_key(flow: FlowTrajectory) -> tuple:
    return tuple(m.weights for m in flow.measures)


def _frame(flow: FlowTrajectory) -> tuple:
    return len(flow.measures), flow.measures[0].space.labels


def _flows_close(a: FlowTrajectory, b: FlowTrajectory, tol: Scalar) -> bool:
    # with tol 0 (exact mode) only equal flows are close
    return _flow_key(a) == _flow_key(b) or bool(tol) and all(
        abs(x - y) <= tol
        for ma, mb in zip(a.measures, b.measures)
        for x, y in zip(ma.weights, mb.weights)
    )


@dataclass(frozen=True)
class CorrelatedFlow:
    """Distribution over (strategy, flow) pairs; atoms are kept in canonical
    order, on (strategy table, flow weights), whatever the input order."""

    atoms: tuple[tuple[RestrictedStrategy, FlowTrajectory, Scalar], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("correlated flow needs at least one atom")
        mode = self.atoms[0][1].mode
        frame = _frame(self.atoms[0][1])
        for phi, flow, w in self.atoms:
            if flow.mode != mode:
                raise ValueError("atoms mix arithmetic modes")
            if _frame(flow) != frame:
                raise ValueError("atoms' flows live on different spaces")
            if w <= 0:
                raise ValueError(f"atom weight {w} is not positive")
        tol = arith(mode).tol
        merged: list[list] = []
        for phi, flow, w in sorted(self.atoms, key=lambda a: (a[0].actions, _flow_key(a[1]))):
            last = merged[-1] if merged else None
            if last and last[0] == phi and (
                last[1] == flow or tol and _flows_close(last[1], flow, tol)
            ):
                # a close neighbour merges into the first flow in canonical
                # order; in exact mode (tol 0) only an equal one is close,
                # and it is a duplicate
                if not tol:
                    raise ValueError("duplicate (strategy, flow) atom")
                last[2] += w
            else:
                merged.append([phi, flow, w])
        arith(mode).check_mass([w for _, _, w in merged], "atom")
        object.__setattr__(self, "atoms", tuple(map(tuple, merged)))

    @property
    def mode(self) -> str:
        return self.atoms[0][1].mode


def factor_flow(rho: CorrelatedFlow) -> tuple[tuple, tuple, tuple]:
    """The (rho_2, rho_1) split: the distinct flows, their weights and, per
    flow, the strategy conditional (atom weights renormalized), in the order
    of `nplayer.FactoredProfile`'s fields."""
    flows: list[FlowTrajectory] = []
    groups: list[list] = []
    tol = arith(rho.mode).tol
    for phi, flow, w in rho.atoms:
        for i, known in enumerate(flows):
            if _flows_close(known, flow, tol):
                groups[i].append((phi, w))
                break
        else:
            flows.append(flow)
            groups.append([(phi, w)])
    weights = tuple(sum(w for _, w in g) for g in groups)
    conds = tuple(
        tuple((phi, w / fw) for phi, w in g) for g, fw in zip(groups, weights)
    )
    return tuple(flows), weights, conds


def _require_game_mode(game: GameSpec, mode: str) -> None:
    if game.arithmetic != mode:
        raise ValueError(f"mixing arithmetic modes: game {game.arithmetic}, data {mode}")


def _require_flow(game: GameSpec, flow: FlowTrajectory) -> None:
    if len(flow) != game.horizon + 1:
        raise ValueError(f"flow must have {game.horizon + 1} measures, got {len(flow)}")
    if flow.measures[0].space.labels != game.states.labels:
        raise ValueError("flow and game live on different spaces")
    _require_game_mode(game, flow.mode)


def _walk(game: GameSpec, actions: tuple, flow: tuple, law: tuple) -> tuple[list, Scalar]:
    """The state laws at t = 0..T, from law at 0, of a player who takes the
    actions against the flow's weights, and its expected total cost; the
    data are raw tuples, checked by the caller."""
    laws = [law]
    total = zero(game.arithmetic)
    for t in range(game.horizon):
        m, acts = flow[t], actions[t]
        for x, p in enumerate(law):
            if p:
                total += p * game.raw_running_cost(t, x, m, acts[x])
        law = game.raw_step(t, law, acts, m)
        laws.append(law)
    m = flow[game.horizon]
    for x, p in enumerate(law):
        if p:
            total += p * game.raw_terminal_cost(x, m)
    return laws, total


def state_law(
    game: GameSpec,
    phi: RestrictedStrategy,
    flow: FlowTrajectory,
    m0: ProbabilityVector,
) -> FlowTrajectory:
    """Law of the representative state when the strategy and the flow are frozen."""
    _require_flow(game, flow)
    require_initial_law(game, m0)
    laws, _ = _walk(game, phi.actions, _flow_key(flow), m0.weights)
    return FlowTrajectory(
        (m0, *(ProbabilityVector(game.states, w, game.arithmetic) for w in laws[1:]))
    )


@dataclass(frozen=True)
class GapRow:
    """One recommendation's obedience check; every value is unnormalized."""

    recommendation: RestrictedStrategy
    rec_index: int  # position among the candidates
    cost: Scalar  # cost of obeying
    best: RestrictedStrategy
    best_index: int
    best_value: Scalar
    gap: Scalar
    tied: int  # number of candidates achieving the minimal value


def gap_rows(
    candidates: Sequence[RestrictedStrategy],
    values_by_rec: Sequence[tuple[int, Sequence[Scalar]]],
) -> tuple[GapRow, ...]:
    """One row per (recommendation index, values of every candidate) pair;
    the best response is the first minimum, the smallest of tied candidates."""
    rows = []
    for rec_i, values in values_by_rec:
        best = min(values)
        best_i = values.index(best)
        rows.append(GapRow(
            candidates[rec_i], rec_i, values[rec_i], candidates[best_i], best_i,
            best, values[rec_i] - best, values.count(best),
        ))
    return tuple(rows)


@dataclass(frozen=True)
class OptimalityReport:
    ok: bool
    gap: Scalar
    rows: tuple[GapRow, ...]

    @property
    def has_tie(self) -> bool:
        return any(r.tied > 1 for r in self.rows)


def optimality_gap(
    game: GameSpec,
    rho: CorrelatedFlow,
    m0: ProbabilityVector,
    cap: int = DEFAULT_STRATEGY_CAP,
) -> OptimalityReport:
    """Total improvement available over all recommendations; zero means
    optimal.  Each candidate is costed once against each distinct flow."""
    _require_game_mode(game, rho.mode)
    require_initial_law(game, m0)
    candidates = enumerate_strategies(game, cap)
    nil = zero(game.arithmetic)
    costs: dict[tuple, list[Scalar]] = {}  # flow weights -> cost of each candidate
    by_rec: dict[RestrictedStrategy, list] = {}  # phi -> [(its flow's costs, weight)]
    for phi, flow, w in rho.atoms:
        key = _flow_key(flow)
        if key not in costs:
            _require_flow(game, flow)
            costs[key] = [_walk(game, psi.actions, key, m0.weights)[1] for psi in candidates]
        by_rec.setdefault(phi, []).append((costs[key], w))
    rows = gap_rows(candidates, [
        (candidates.index(phi), [
            sum((w * c[i] for c, w in flows), nil) for i in range(len(candidates))
        ])
        for phi, flows in by_rec.items()
    ])
    gap = sum((r.gap for r in rows), nil)
    return OptimalityReport(gap <= arith(game.arithmetic).tol, gap, rows)


@dataclass(frozen=True)
class ConsistencyRow:
    flow: FlowTrajectory
    weight: Scalar
    residual: Scalar  # max over t of dist(mixed law, flow(t))


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    rows: tuple[ConsistencyRow, ...]

    @property
    def max_residual(self) -> Scalar:
        return max(r.residual for r in self.rows)


def consistency_check(
    game: GameSpec, rho: CorrelatedFlow, m0: ProbabilityVector
) -> ConsistencyReport:
    """Each supported flow must equal the mixture of the per-strategy state laws."""
    _require_game_mode(game, rho.mode)
    require_initial_law(game, m0)
    rows = []
    rules = arith(game.arithmetic)
    for flow, fw, cond in zip(*factor_flow(rho)):
        _require_flow(game, flow)
        key = _flow_key(flow)
        laws = [(_walk(game, phi.actions, key, m0.weights)[0], w) for phi, w in cond]
        residual = zero(game.arithmetic)
        for t, target in enumerate(key):
            mixed = [sum(law[t][x] * w for law, w in laws) for x in range(len(target))]
            # half the L1 gap between the mixed law and the flow at t
            r = rules.ratio(sum(abs(a - b) for a, b in zip(mixed, target)), 2)
            if r > residual:
                residual = r
        rows.append(ConsistencyRow(flow, fw, residual))
    return ConsistencyReport(all(r.residual <= rules.tol for r in rows), tuple(rows))


@dataclass(frozen=True)
class SolutionVerdict:
    is_solution: bool
    optimality: OptimalityReport
    consistency: ConsistencyReport


def verify_solution(
    game: GameSpec,
    rho: CorrelatedFlow,
    m0: ProbabilityVector,
    cap: int = DEFAULT_STRATEGY_CAP,
) -> SolutionVerdict:
    """Definition of a correlated MFG solution: optimal and consistent."""
    opt = optimality_gap(game, rho, m0, cap)
    cons = consistency_check(game, rho, m0)
    return SolutionVerdict(opt.ok and cons.ok, opt, cons)


@dataclass(frozen=True)
class DpResult:
    strategy: RestrictedStrategy
    values: tuple[tuple[Scalar, ...], ...]  # V[t][x] for t = 0..T


def dp_best_response(game: GameSpec, flow: FlowTrajectory) -> DpResult:
    """Backward induction against a single frozen flow.

    Only valid when the conditional flow given the recommendation is a Dirac;
    with several flows in the conditional the player cannot condition on the
    flow and enumeration must be used instead.
    """
    _require_flow(game, flow)
    dx, da = len(game.states), len(game.actions)
    T = game.horizon
    values: list[tuple[Scalar, ...]] = [
        tuple(game.raw_terminal_cost(x, flow[T].weights) for x in range(dx))
    ]
    table: list[tuple[int, ...]] = []
    nxt = values[0]
    for t in range(T - 1, -1, -1):
        row_vals = []
        row_acts = []
        m = flow[t].weights
        for x in range(dx):
            best_v = None
            best_a = 0
            for a in range(da):
                v = game.raw_running_cost(t, x, m, a) + sum(
                    k * nxt[y] for y, k in enumerate(game.raw_kernel(t, x, m, a)) if k
                )
                if best_v is None or v < best_v:  # ties keep the smaller action
                    best_v, best_a = v, a
            row_vals.append(best_v)
            row_acts.append(best_a)
        values.insert(0, tuple(row_vals))
        table.insert(0, tuple(row_acts))
        nxt = values[0]
    return DpResult(RestrictedStrategy(tuple(table)), tuple(values))


def mkv_propagate(
    game: GameSpec,
    conditional: Sequence[tuple[RestrictedStrategy, Scalar]],
    m0: ProbabilityVector,
) -> FlowTrajectory:
    """Forward McKean-Vlasov recursion: per-strategy laws evolve against their
    own mix; returns the mixed flow."""
    require_initial_law(game, m0)
    if not conditional:
        raise ValueError("empty strategy conditional")
    strategies = [phi for phi, _ in conditional]
    weights = [w for _, w in conditional]
    arith(game.arithmetic).check_mass(weights, "conditional", positive=True)

    dx = len(game.states)
    laws = [m0.weights for _ in strategies]

    def mix(rows) -> ProbabilityVector:
        return ProbabilityVector(
            game.states,
            tuple(sum(r[x] * w for r, w in zip(rows, weights)) for x in range(dx)),
            game.arithmetic,
        )

    mixed_path = [mix(laws)]
    for t in range(game.horizon):
        h_t = mixed_path[t].weights
        laws = [
            game.raw_step(t, cur, phi.actions[t], h_t)
            for phi, cur in zip(strategies, laws)
        ]
        mixed_path.append(mix(laws))
    return FlowTrajectory(tuple(mixed_path))
