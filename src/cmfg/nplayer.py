"""The finite N-player game built from one shared game specification.

Players are coupled only through the exclusive empirical measure of the other
N-1 states.  This module provides

  * exact propagation of the count chain (one player's state and the
    others' state counts per strategy), which every exact caller uses; one
    walk of the deviator's action tree on it costs every candidate strategy
    against one multiset of the others' strategies,
  * a vectorized Monte Carlo simulator with counter-based random streams,
  * deviation gains (the epsilon in epsilon-correlated equilibrium),
    decomposed per recommendation, exactly (one walk per multiset of the
    others) or by simulation with common random numbers (one walk of the
    action tree per chunk), and
  * symmetric correlated equilibria via an exact-rational feasibility LP
    reduced to strategy multisets, whose rows come from one walk per
    multiset of the others.

Exact audits read a profile as one player's anonymous draws (own strategy,
others-multiset, weight), never as atoms over ordered strategy tuples.

Profiles and initial laws are validated once, when they are built; the
exact propagation then reads kernel rows and costs through the raw
`GameSpec` methods and carries its weights as integer numerators over one
denominator per time step, divided once at the end.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import rng
from .lp import EQ, GE, InfeasibleError, LinRow, LinearProgram, solve_lp
from .mfg import DeviationMap, GapRow, gap_rows
from .model import (
    DEFAULT_ATOM_CAP,
    DEFAULT_JOINT_CAP,
    DEFAULT_LP_CAP,
    DEFAULT_STRATEGY_CAP,
    EXACT,
    CapacityError,
    FlowTrajectory,
    GameSpec,
    ProbabilityVector,
    RestrictedStrategy,
    Scalar,
    arith,
    arith_of,
    enumerate_strategies,
    map_nested,
    require_initial_law,
    scaled,
    zero,
)

_CHUNK = 4096
_COST_MATRIX_BYTES_CAP = 1 << 29  # 512 MiB of per-replication candidate costs


# ---------------------------------------------------------------------------
# profiles


def _distinct_sorted(strategies: Iterable[RestrictedStrategy]) -> tuple[RestrictedStrategy, ...]:
    """The distinct strategies, in enumeration order."""
    return tuple(sorted(set(strategies), key=lambda s: s.actions))


@dataclass(frozen=True)
class ExplicitProfile:
    """Distribution over length-N strategy assignments, one atom per tuple."""

    n_players: int
    atoms: tuple[tuple[tuple[RestrictedStrategy, ...], Scalar], ...]

    def __post_init__(self):
        if self.n_players < 2:
            raise ValueError("need at least two players")
        if not self.atoms:
            raise ValueError("profile needs at least one atom")
        merged: dict[tuple, list] = {}
        for vec, w in self.atoms:
            if len(vec) != self.n_players:
                raise ValueError(f"atom has {len(vec)} strategies, want {self.n_players}")
            key = tuple(s.actions for s in vec)
            if key in merged:
                merged[key][1] = merged[key][1] + w
            else:
                merged[key] = [tuple(vec), w]
        atoms = tuple(tuple(merged[key]) for key in sorted(merged))
        weights = [w for _, w in atoms]
        arith_of(weights).check_mass(weights, "profile", positive=True)
        object.__setattr__(self, "atoms", atoms)

    @property
    def mode(self) -> str:
        return arith_of(w for _, w in self.atoms).mode

    def support_strategies(self) -> tuple[RestrictedStrategy, ...]:
        return _distinct_sorted(s for vec, _ in self.atoms for s in vec)


@dataclass(frozen=True)
class FactoredProfile:
    """Mediator draws a flow, then hands out i.i.d. strategies given the flow."""

    n_players: int
    flows: tuple[FlowTrajectory, ...]
    flow_weights: tuple[Scalar, ...]
    conditionals: tuple[tuple[tuple[RestrictedStrategy, Scalar], ...], ...]

    def __post_init__(self):
        if self.n_players < 2:
            raise ValueError("need at least two players")
        if not (len(self.flows) == len(self.flow_weights) == len(self.conditionals)):
            raise ValueError("flows, weights and conditionals must align")
        if not self.flows:
            raise ValueError("factored profile needs at least one flow")
        arith_of(self.flow_weights).check_mass(self.flow_weights, "flow", positive=True)
        for cond in self.conditionals:
            if not cond:
                raise ValueError("empty strategy conditional")
            weights = [w for _, w in cond]
            arith_of(weights).check_mass(weights, "conditional", positive=True)

    def support_strategies(self) -> tuple[RestrictedStrategy, ...]:
        return _distinct_sorted(s for cond in self.conditionals for s, _ in cond)


CorrelatedProfile = Union[ExplicitProfile, FactoredProfile]


def _multinomial(counts: Iterable[int]) -> int:
    """Distinct orderings of a multiset with these multiplicities."""
    counts = tuple(counts)
    return math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))


def _arrangements(items: Sequence) -> set[tuple]:
    """The distinct orderings of a multiset, built by inserting one item at
    a time; no stage holds more orderings than the result."""
    arranged = {()}
    for x in items:
        arranged = {a[:i] + (x,) + a[i:] for a in arranged for i in range(len(a) + 1)}
    return arranged


def _anonymous_draws(profile: CorrelatedProfile, player: int) -> list[tuple]:
    """What `player` draws: (own strategy, the others in enumeration order,
    weight), merged over equal own strategy and others-multiset.

    A player sees the others only through their multiset, so the draws carry
    all that an exact audit needs.  An explicit profile groups its atoms; a
    factored one takes, per flow and recommendation, each count vector of
    the others over the conditional, with its multinomial weight.
    """
    if not 0 <= player < profile.n_players:
        raise ValueError(f"player index {player} out of range")
    if isinstance(profile, ExplicitProfile):
        raw = [(vec[player], vec[:player] + vec[player + 1 :], w) for vec, w in profile.atoms]
    else:
        raw, n_others = [], profile.n_players - 1
        for wf, cond in zip(profile.flow_weights, profile.conditionals):
            for picks in itertools.combinations_with_replacement(range(len(cond)), n_others):
                counts = Counter(picks)
                w = wf * _multinomial(counts.values())
                w = math.prod((cond[i][1] ** c for i, c in counts.items()), start=w)
                raw.extend((own, tuple(cond[i][0] for i in picks), w * wo) for own, wo in cond)
    merged: dict[tuple, Scalar] = {}
    for own, others, w in raw:
        key = (own, tuple(sorted(others, key=lambda s: s.actions)))
        merged[key] = merged[key] + w if key in merged else w
    return [(own, others, w) for (own, others), w in merged.items()]


def symmetrize(profile: ExplicitProfile, cap: int = DEFAULT_ATOM_CAP) -> ExplicitProfile:
    """Average the profile over all coordinate permutations."""
    n_atoms = sum(_multinomial(Counter(vec).values()) for vec, _ in profile.atoms)
    if n_atoms > cap:
        raise CapacityError(f"symmetrization needs {n_atoms} atoms, cap {cap}")
    atoms = []
    ratio = arith(profile.mode).ratio
    for vec, w in profile.atoms:
        arranged = _arrangements(vec)
        share = ratio(w, len(arranged))
        atoms.extend((arr, share) for arr in arranged)
    return ExplicitProfile(profile.n_players, tuple(atoms))


def is_symmetric(profile: CorrelatedProfile) -> bool:
    """Permutation invariance of the joint strategy law: every multiset of
    an explicit profile holds all its arrangements, with equal weights."""
    if isinstance(profile, FactoredProfile):
        return True  # i.i.d. given the flow
    orbits: dict[tuple, list] = {}
    for vec, w in profile.atoms:
        orbits.setdefault(tuple(sorted(s.actions for s in vec)), []).append(w)
    tol = arith(profile.mode).tol
    return all(
        len(ws) == _multinomial(Counter(key).values()) and max(ws) - min(ws) <= tol
        for key, ws in orbits.items()
    )


@dataclass(frozen=True)
class SimulationConfig:
    """Reproducible Monte Carlo run parameters."""

    master_seed: int
    replications: int

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        object.__setattr__(self, "master_seed", self.master_seed & 0xFFFFFFFFFFFFFFFF)


# ---------------------------------------------------------------------------
# exact propagation of the count chain


@dataclass(frozen=True)
class CountPropagation:
    """Player 0's expected costs and the law of the count chain at times 0..T.

    The groups are the distinct strategies of players 1..N-1 in order of
    first appearance.  A chain state is the tuple (x0, c_0, c_1, ...):
    player 0's state, then for each group g the d-tuple c_g of how many of
    its players sit in each state.  `costs` holds player 0's total expected
    cost on each candidate, in order.  `laws` is the law with player 0 on
    strategies[0], built and divided on first read.  The walk costs its last
    step on expected terminal costs and keeps no law at T, so that law is
    one push of the law at T-1 under strategies[0]'s actions.
    """

    costs: tuple[Scalar, ...]
    build_laws: Callable[[], tuple] = field(repr=False, compare=False)

    @cached_property
    def laws(self) -> tuple[dict[tuple, Scalar], ...]:  # times 0..T
        return self.build_laws()


def exact_joint_propagate(
    game: GameSpec,
    strategies: Sequence[RestrictedStrategy],
    m0n: ProbabilityVector,
    *,
    candidates: Optional[Sequence[RestrictedStrategy]] = None,
    memo: Optional[_ChainSteps] = None,
    joint_cap: int = DEFAULT_JOINT_CAP,
) -> CountPropagation:
    """Exact law of the count chain and player 0's expected total cost under
    every candidate strategy (default: strategies[0] alone), in one walk.

    Each player moves with the kernel evaluated at the empirical measure of
    the other N-1 players, independently given the current states, and a
    player sees the others only through that measure.  So (player 0's state,
    the others' state counts per strategy) is itself a Markov chain.  Player
    0's action changes only its own kernel row, so a step builds the
    others' next-count law once per chain state (a group's players added
    one at a time, groups combined as independent parts) and pairs it with
    the row of each action that player 0 may play.

    The walk is the deviator's action tree: it splits the law by the set of
    candidates that agree with player 0's history ((x_0, a_0), ...,
    (x_{t-1}, a_{t-1})), that is with a_s = psi(s, x_s) at every s.  From
    state x at time t the law moves on under each action that some
    candidate of its set plays at (t, x), into the set of those that play
    it, and a candidate's cost is the sum of the running and terminal costs
    over the sets it belongs to.  With one candidate the walk is the plain
    propagation.  The last step, from T-1, builds no law at T: each (set,
    chain state, action) adds its weight times the running cost and times
    the expected terminal cost one step on (`_ChainSteps.expected`), as the
    Monte Carlo tree costs its leaves at the last internal level.  `memo`, a
    `_ChainSteps` of the same game, carries kernel rows, costs, the others'
    count laws and those expectations from one walk to the next.  Inputs
    with more than `joint_cap` joint states |X|^N are refused.

    The weights are integer numerators over one denominator per time step
    (`_ChainSteps.start`) and the costs integers over the last one times
    qc (N-1), so a walk divides once at the end: one `Fraction` per
    candidate and none per successor.  The laws are pushed to T and divided
    only when read.  A float game runs the same loop with every scale 1.
    """
    n = len(strategies)
    if n < 2:
        raise ValueError("need at least two players")
    require_initial_law(game, m0n)
    d = len(game.states)
    if d ** n > joint_cap:
        raise CapacityError(f"{d ** n} joint states exceed cap {joint_cap}")
    steps = _ChainSteps(game) if memo is None else memo
    own, others = strategies[0], strategies[1:]
    candidates = (own,) if candidates is None else tuple(candidates)
    walked = tuple({s.actions: s for s in (own, *candidates)})  # own first
    groups = tuple({s.actions: s for s in others}.values())
    sizes = Counter(s.actions for s in others)
    splits: dict[tuple, list] = {}  # (candidate set, t, x) -> [(action, subset)]

    def split(cands, t, x):
        hit = splits.get((cands, t, x))
        if hit is None:
            by_action: dict[int, list] = {}
            for i in cands:
                by_action.setdefault(walked[i][t][x], []).append(i)
            hit = splits[cands, t, x] = [(a, tuple(sub)) for a, sub in by_action.items()]
        return hit

    start, den, step, cost_den = steps.start(m0n, n)
    law = dict(_product(
        [((x,), w) for x, w in start],
        [_add_players({(0,) * d: 1}, sizes[s.actions], start).items() for s in groups],
    ))
    nodes = {tuple(range(len(walked))): law}  # candidate set -> its part of the law
    laws = []  # player 0's own law at times 0..T-1
    spent: dict[tuple, Scalar] = {}  # candidate set -> running cost numerator on its histories
    ends: dict[tuple, Scalar] = {}  # candidate set -> terminal cost numerator on its histories
    last = game.horizon - 1
    for t in range(game.horizon):
        mine = [law for cands, law in nodes.items() if cands[0] == 0]
        laws.append(mine[0] if len(mine) == 1 else _summed(mine))
        acts = tuple(s.actions[t] for s in groups)
        nxt: dict[tuple, dict] = {}
        for cands, law in nodes.items():
            for key, w in law.items():
                x = key[0]
                counts, spread = steps.others(t, key, acts)
                for a, sub in split(cands, t, x):
                    row, running = steps.move(t, counts, x, a)
                    c = w * running
                    spent[sub] = spent[sub] + c if sub in spent else c
                    if t == last:
                        c = w * steps.expected(key, acts, a)
                        ends[sub] = ends[sub] + c if sub in ends else c
                        continue
                    into = nxt.get(sub)
                    if into is None:
                        into = nxt[sub] = {}
                    get = into.get
                    for y, k in row:
                        wk = w * k
                        for oc, q in spread:
                            nk = (y, *oc)
                            into[nk] = get(nk, 0) + wk * q
        nodes = nxt
        spent = {sub: c * step for sub, c in spent.items()}  # onto the next denominator
    totals = [0] * len(walked)
    for part in (spent, ends):
        for cands, c in part.items():
            for i in cands:
                totals[i] += c
    ratio, dens = steps.ratio, [den * step ** t for t in range(game.horizon + 1)]
    totals = [ratio(c, dens[-1] * cost_den) for c in totals]
    index = {a: i for i, a in enumerate(walked)}

    def build_laws():
        # the law at T: one push of player 0's law at T-1 under its own actions
        acts, final = tuple(s.actions[last] for s in groups), {}
        for key, w in laws[-1].items():
            counts, spread = steps.others(last, key, acts)
            for y, k in steps.move(last, counts, key[0], own.actions[last][key[0]])[0]:
                for oc, q in spread:
                    nk = (y, *oc)
                    final[nk] = final.get(nk, 0) + w * k * q
        return tuple({k: ratio(w, q) for k, w in law.items()} for law, q in zip((*laws, final), dens))

    return CountPropagation(tuple(totals[index[s.actions]] for s in candidates), build_laws)


class _ChainSteps:
    """The count chain's one-step pieces for one game, memoized across walks.

    Kernel rows and running costs per (t, inclusive counts, x, a), the
    others' next-count law per (t, chain state, the groups' actions at t),
    terminal costs per chain state, and player 0's expected terminal cost
    after the last step per (chain state at T-1, the groups' actions, a),
    built from the other three.  A player sees the measure
    counts/(n-1), so in an exact game a kernel entry times qk (n-1) and a
    cost times qc (n-1) are integers, with qk the lcm of the transition
    tables' denominators and qc that of the cost tables'.  The pieces come
    so scaled, and the others' count law holds integer products of N-1
    kernel entries.  In a float game every scale is 1.  A chain state fixes
    the inclusive counts and so N, so walks of any N may share one memo.
    """

    def __init__(self, game: GameSpec):
        self.game = game
        self.ratio = arith(game.arithmetic).ratio
        self.exact = game.arithmetic == EXACT
        tables = game.tables()
        self.qk, self.qc = (
            _denominator_lcm(tables[part]) if self.exact else 1 for part in ("transition", "cost")
        )
        self.moves: dict[tuple, tuple] = {}
        self.spreads: dict[tuple, tuple] = {}
        self.terminals: dict[tuple, Scalar] = {}
        self.expectations: dict[tuple, Scalar] = {}

    def start(self, m0n: ProbabilityVector, n: int) -> tuple:
        """The initial law's nonzero entries [(y, w)] scaled by the lcm L0 of
        their denominators, and a walk of n players' denominators: L0^n at
        time 0, times (qk (n-1))^n per step, one factor per player's kernel
        entry, and times qc (n-1) for the costs."""
        if not self.exact:
            return [(y, w) for y, w in enumerate(m0n.weights) if w], 1, 1, 1
        l0 = _denominator_lcm(m0n.weights)
        start = [(y, scaled(w, l0)) for y, w in enumerate(m0n.weights) if w]
        return start, l0 ** n, (self.qk * (n - 1)) ** n, self.qc * (n - 1)

    def _scaled(self, v: Scalar, q: int, counts: tuple[int, ...]) -> Scalar:
        # v * q * (n-1), an integer in an exact game
        return scaled(v, q * (sum(counts) - 1)) if self.exact else v

    def seen(self, counts: tuple[int, ...], x: int) -> tuple[Scalar, ...]:
        # a player in state x sees the others' measure (counts - e_x) / (n - 1)
        n = sum(counts)
        return tuple(self.ratio(c - (y == x), n - 1) for y, c in enumerate(counts))

    def move(self, t: int, counts: tuple[int, ...], x: int, a: int) -> tuple:
        """Nonzero kernel entries [(y, k)] and running cost of a player in
        state x playing a, scaled by qk (n-1) and qc (n-1)."""
        hit = self.moves.get((t, counts, x, a))
        if hit is None:
            m = self.seen(counts, x)
            row = self.game.raw_kernel(t, x, m, a)
            hit = self.moves[t, counts, x, a] = (
                [(y, self._scaled(k, self.qk, counts)) for y, k in enumerate(row) if k],
                self._scaled(self.game.raw_running_cost(t, x, m, a), self.qc, counts),
            )
        return hit

    def others(self, t: int, key: tuple, acts: tuple) -> tuple:
        """Inclusive counts of a chain state and the law of the others' next
        counts, one d-tuple per group, when group g plays acts[g] at t."""
        hit = self.spreads.get((t, key, acts))
        if hit is None:
            counts = _inclusive(key)
            parts = []
            for act, c in zip(acts, key[1:]):
                # the group's c[x] players in state x play act[x]
                law = {(0,) * len(c): 1}
                for x, cx in enumerate(c):
                    if cx:
                        law = _add_players(law, cx, self.move(t, counts, x, act[x])[0])
                parts.append(law.items())
            hit = self.spreads[t, key, acts] = (counts, _product([((), 1)], parts))
        return hit

    def terminal(self, key: tuple) -> Scalar:
        """Terminal cost of player 0 in a chain state, scaled by qc (n-1)."""
        hit = self.terminals.get(key)
        if hit is None:
            x, counts = key[0], _inclusive(key)
            cost = self.game.raw_terminal_cost(x, self.seen(counts, x))
            hit = self.terminals[key] = self._scaled(cost, self.qc, counts)
        return hit

    def expected(self, key: tuple, acts: tuple, a: int) -> Scalar:
        """Player 0's expected terminal cost after the last step from chain
        state key at T-1, playing a with group g on acts[g]: the sum over y
        and the others' next counts oc of k_y q_oc terminal((y, *oc)), scaled
        by the step's (qk (n-1))^n times qc (n-1)."""
        hit = self.expectations.get((key, acts, a))
        if hit is None:
            hit = self.expectations[key, acts, a] = self._expectation(key, acts, a)
        return hit

    def _expectation(self, key: tuple, acts: tuple, a: int) -> Scalar:
        t, terminal = self.game.horizon - 1, self.terminal
        counts, spread = self.others(t, key, acts)
        return sum(
            k * sum(q * terminal((y, *oc)) for oc, q in spread)
            for y, k in self.move(t, counts, key[0], a)[0]
        )


def _add_players(law: dict, count: int, entries) -> dict:
    """Law of a group's counts after `count` more players, each of which
    lands in state y with probability k for each (y, k) in entries."""
    for _ in range(count):
        out: dict = {}
        for c, w in law.items():
            for y, k in entries:
                nc = (*c[:y], c[y] + 1, *c[y + 1 :])
                out[nc] = out[nc] + w * k if nc in out else w * k
        law = out
    return law


def _product(heads: list, parts) -> list:
    """Joint law of independent parts: every head extended by one entry of
    each part, with the product of the probabilities."""
    for part in parts:
        heads = [(h + (c,), p * q) for h, p in heads for c, q in part]
    return heads


def _denominator_lcm(table) -> int:
    """The lcm of the denominators of every Fraction in a nested table."""
    dens: set[int] = set()
    map_nested(table, lambda v: dens.add(v.denominator))
    return math.lcm(*dens)


def _inclusive(key: tuple) -> tuple[int, ...]:
    """State counts of all N players from a count-chain state."""
    counts = [sum(by_group) for by_group in zip(*key[1:])]
    counts[key[0]] += 1
    return tuple(counts)


def _summed(laws: list) -> dict:
    """Pointwise sum of laws over chain states."""
    out: dict = {}
    for law in laws:
        for key, w in law.items():
            out[key] = out[key] + w if key in out else w
    return out


class _AnonymousCostTable:
    """Player 0's costs on a fixed tuple of candidate strategies, memoized
    per multiset of the others' strategies.

    All players share one game, so a player's expected cost depends on the
    other strategies only through their multiset.  One walk of the count
    chain per multiset costs every candidate, and every walk of the table
    shares one memo of kernel rows, costs and count laws.
    """

    def __init__(self, game, m0n, candidates, joint_cap=DEFAULT_JOINT_CAP):
        self.game = game
        self.m0n = m0n
        self.candidates = tuple(candidates)
        self.index = {s.actions: i for i, s in enumerate(self.candidates)}
        self.joint_cap = joint_cap
        self.steps = _ChainSteps(game)
        self.memo: dict[tuple, tuple[Scalar, ...]] = {}

    def costs(self, others: Sequence[RestrictedStrategy]) -> tuple[Scalar, ...]:
        """The candidates' costs, in order, against the others, given in
        enumeration order (sorted on `RestrictedStrategy.actions`)."""
        key = tuple(s.actions for s in others)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = exact_joint_propagate(
                self.game, (self.candidates[0], *others), self.m0n,
                candidates=self.candidates, memo=self.steps, joint_cap=self.joint_cap,
            ).costs
        return hit


def profile_cost_exact(
    game: GameSpec,
    profile: CorrelatedProfile,
    player: int,
    u: DeviationMap,
    m0n: ProbabilityVector,
    *,
    joint_cap: int = DEFAULT_JOINT_CAP,
) -> Scalar:
    """Expected cost of `player` when it applies modification u to its draw."""
    draws = [(u.apply(own), others, w) for own, others, w in _anonymous_draws(profile, player)]
    table = _AnonymousCostTable(game, m0n, _distinct_sorted(s for s, _, _ in draws), joint_cap)
    total = zero(game.arithmetic)
    for own, others, w in draws:
        total += w * table.costs(others)[table.index[own.actions]]
    return total


# ---------------------------------------------------------------------------
# vectorized Monte Carlo engine


class _MonteCarlo:
    """The vectorized Monte Carlo engine for one table of strategies.

    Holds float64 views of the game and a row-index table for strategies;
    `batches` draws each chunk's random inputs, `run` simulates them with one
    player on its strategy row, and `deviation_costs` walks that player's
    action tree to cost every strategy of the table at once.  Both share the
    step `_node`, which evaluates kernel rows once per (replication, state,
    action), since a player sees the others only through its own state and
    the state counts.  The tree carries the others' counts down to a node's
    children and costs its leaves at the last internal level.  Every Monte
    Carlo caller goes through these methods.
    """

    def __init__(self, game: GameSpec, strategies: Sequence[RestrictedStrategy]):
        self.game = game
        self.horizon, self.d, self.n_actions = game.horizon, len(game.states), len(game.actions)
        tables = game.float_tables()
        kernel, cost = tables["transition"], tables["cost"]
        self.kb, self.kc = (np.array(kernel[k], dtype=np.float64) for k in ("base", "coef"))
        self.rb, self.rc, self.tb, self.tc = (np.array(v, dtype=np.float64) for v in cost.values())
        self.eye = np.eye(self.d, dtype=np.int64)
        self.strategies = tuple(strategies)
        self.act = np.array([s.actions for s in self.strategies], dtype=np.int64)
        self.index = {s.actions: i for i, s in enumerate(strategies)}

    def batches(
        self, profile: CorrelatedProfile, m0n: ProbabilityVector, cfg: SimulationConfig
    ):
        """Per chunk of replications, (start, strategy rows, initial states,
        noise) of shapes (count, N), (count, N) and (count, T, N), drawn from
        the slot layout documented in `rng`.  The noise is a copy, so the
        chunk's uniform block is freed before the walk; a caller drops its
        chunk before asking for the next, which is drawn only then."""
        require_initial_law(self.game, m0n)
        n, T = profile.n_players, self.horizon
        sampler = _ProfileSampler(profile, self)
        w0 = np.array([float(v) for v in m0n.weights])
        slots = np.arange(2 * n + 1 + T * n, dtype=np.uint64)
        reps = cfg.replications
        for start in range(0, reps, _CHUNK):
            count = min(_CHUNK, reps - start)
            uni = rng.uniform_block(cfg.master_seed, start, count, slots)
            strat_rows = sampler.draw(uni[:, : n + 1])
            x0 = _pick(w0, uni[:, n + 1 : 2 * n + 1])
            noise = uni[:, 2 * n + 1 :].reshape(count, T, n).copy()
            del uni
            yield start, strat_rows, x0, noise
            del strat_rows, x0, noise

    def _count(self, states: np.ndarray) -> np.ndarray:
        """State counts (reps, d) of the states (reps, N)."""
        reps = len(states)
        bins = self.d * np.arange(reps)[:, None]  # one bin per (replication, state)
        counts = np.bincount((bins + states).ravel(), minlength=reps * self.d)
        return counts.reshape(reps, self.d)

    def _node(self, t: int, states: np.ndarray, counts: Optional[np.ndarray] = None):
        """The step at time t from the states (reps, N), counted unless given:
        state counts (reps, d), the measures (reps, d, d) whose row x a player
        in state x sees and, before the horizon, the `_thresholds` (reps, d,
        A, d-1) of the kernel row at every (replication, state, action)."""
        if counts is None:
            counts = self._count(states)
        m = (counts[:, None, :] - self.eye) / (states.shape[1] - 1)
        if t == self.horizon:
            return counts, m, None
        w = _affine_eval(self.kb[t], self.kc[t], m[:, :, None, None, :])
        return counts, m, _thresholds(w)

    def run(
        self, strat_rows: np.ndarray, x0: np.ndarray, noise: np.ndarray, player: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Walk t = 0..T once from per-player strategy rows and noises.

        Returns the realized total cost of `player` and the exclusive counts
        of the other N-1 players that it sees, shape (reps, T+1, d).
        """
        rep = np.arange(len(x0))
        seen = np.empty((len(x0), self.horizon + 1, self.d), dtype=np.int64)
        cost = np.zeros(len(x0), dtype=np.float64)
        states = x0
        for t in range(self.horizon + 1):
            counts, m, th = self._node(t, states)
            xi = states[:, player]
            seen[:, t] = counts - self.eye[xi]
            if th is None:
                break
            acts = self.act[strat_rows, t, states]
            ai = acts[:, player]
            cost += _affine_eval(self.rb[t, xi, ai], self.rc[t, xi, ai], m[rep, xi])
            states = _count_below(th[rep[:, None], states, acts], noise[:, t])
        cost += _affine_eval(self.tb[xi], self.tc[xi], m[rep, xi])
        return cost, seen

    def deviation_costs(
        self, strat_rows: np.ndarray, x0: np.ndarray, noise: np.ndarray, player: int
    ) -> np.ndarray:
        """Realized total cost (reps, strategies) of `player` under every
        strategy of the table, the others on their rows.  A strategy changes
        the path only through the actions it plays, so one depth-first walk of
        the action tree (|A|^T leaves) serves all: each reads the leaf that its
        realized actions select."""
        reps, A = len(x0), self.n_actions
        visited = [np.empty((reps, A ** t), dtype=np.int64) for t in range(self.horizon)]
        leaves = np.empty((reps, A ** self.horizon), dtype=np.float64)
        self._visit(0, 0, x0, None, np.zeros(reps), (strat_rows, noise, player, visited, leaves))
        leaf = np.zeros((reps, len(self.act)), dtype=np.int64)
        rows = np.arange(len(self.act))
        for t, xs in enumerate(visited):
            leaf = leaf * A + self.act[rows, t, np.take_along_axis(xs, leaf, axis=1)]
        return np.take_along_axis(leaves, leaf, axis=1)

    def _visit(self, t, node, states, counts, cost, walk):
        """Node `node` (the player's actions so far, base |A|) at time t < T,
        `counts` those of `states` or None: one step and N-player draw, then
        per action only the player's own draw.  The children share the others'
        next counts; at t = T-1 they are leaves, costed here on those over N-1."""
        strat_rows, noise, player, visited, leaves = walk
        rep = np.arange(len(states))
        _, m, th = self._node(t, states, counts)
        x = states[:, player]
        visited[t][:, node] = x
        acts = self.act[strat_rows, t, states]
        nxt = _count_below(th[rep[:, None], states, acts], noise[:, t])
        seen = self._count(nxt) - self.eye[nxt[:, player]]
        end = seen / (states.shape[1] - 1) if t + 1 == self.horizon else None
        for a in range(self.n_actions):
            y = _count_below(th[rep, x, a], noise[:, t, player])
            child = node * self.n_actions + a
            step = cost + _affine_eval(self.rb[t, x, a], self.rc[t, x, a], m[rep, x])
            if end is not None:
                leaves[:, child] = step + _affine_eval(self.tb[y], self.tc[y], end)
            else:
                nxt[:, player] = y
                self._visit(t + 1, child, nxt, seen + self.eye[y], step, walk)


def _thresholds(weights: np.ndarray) -> np.ndarray:
    """Thresholds over the last axis (one fewer than weights) whose count
    below z is `categorical_pick(weights, z)`: -inf before the first positive
    weight, +inf from the last one on, the cumulative positive weight between."""
    positive = weights > 0
    cum = np.cumsum(np.where(positive, weights, 0.0), axis=-1)[..., :-1]
    later = np.logical_or.accumulate(positive[..., :0:-1], axis=-1)[..., ::-1]
    started = np.logical_or.accumulate(positive, axis=-1)[..., :-1]
    return np.where(started, np.where(later, cum, np.inf), -np.inf)


def _count_below(thresholds: np.ndarray, z: np.ndarray) -> np.ndarray:
    return (thresholds < z[..., None]).sum(axis=-1)


def _pick(weights: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized categorical_pick over the last axis (identical semantics)."""
    return _count_below(_thresholds(weights), z)


def _affine_eval(base: np.ndarray, coef: np.ndarray, m: np.ndarray) -> np.ndarray:
    # accumulate coefficient terms in state order, then add the base, matching
    # the scalar evaluation order bit for bit
    acc = 0.0
    for y in range(m.shape[-1]):
        acc = acc + coef[..., y] * m[..., y]
    return base + acc


class _ProfileSampler:
    """Draws strategy assignments from a profile using slots 0..N."""

    def __init__(self, profile: CorrelatedProfile, tables: _MonteCarlo):
        index = tables.index
        if isinstance(profile, ExplicitProfile):
            self.top = _thresholds(np.array([float(w) for _, w in profile.atoms]))
            self.rows = np.array(
                [[index[s.actions] for s in vec] for vec, _ in profile.atoms],
                dtype=np.int64,
            )
            self.cond = None
            return
        self.top = _thresholds(np.array([float(w) for w in profile.flow_weights]))
        width = max(len(c) for c in profile.conditionals)
        cond = np.zeros((len(profile.flows), width))
        self.rows = np.zeros((len(profile.flows), width), dtype=np.int64)
        for k, strategies in enumerate(profile.conditionals):
            for s_local, (s, w) in enumerate(strategies):
                cond[k, s_local] = float(w)
                self.rows[k, s_local] = index[s.actions]
        self.cond = _thresholds(cond)

    def draw(self, uniforms: np.ndarray) -> np.ndarray:
        """Strategy rows (reps, N); uniforms holds slots 0..N per replication:
        slot 0 picks the atom (or flow), slots 1..N each player's strategy."""
        top = _count_below(self.top, uniforms[:, 0])
        if self.cond is None:
            return self.rows[top]
        local = _count_below(self.cond[top][:, None, :], uniforms[:, 1:])
        return self.rows[top[:, None], local]


def mc_profile_cost(
    game: GameSpec,
    profile: CorrelatedProfile,
    player: int,
    u: DeviationMap,
    m0n: ProbabilityVector,
    cfg: SimulationConfig,
) -> tuple[float, float]:
    """Monte Carlo estimate and standard error of one player's expected cost
    when it plays u(recommendation) and the others their recommendations."""
    if not 0 <= player < profile.n_players:
        raise ValueError(f"player index {player} out of range")
    support = profile.support_strategies()
    images = [u.apply(s) for s in support]
    # support first: recommendation rows are 0..len(support)-1
    mc = _MonteCarlo(game, tuple({s.actions: s for s in (*support, *images)}.values()))
    remap = np.array([mc.index[s.actions] for s in images], dtype=np.int64)
    reps = cfg.replications
    total = 0.0
    costs = np.empty(reps, dtype=np.float64)
    for start, strat_rows, x0, noise in mc.batches(profile, m0n, cfg):
        strat_rows[:, player] = remap[strat_rows[:, player]]
        cost, _ = mc.run(strat_rows, x0, noise, player)
        total += float(np.sum(cost))
        costs[start:start + len(cost)] = cost
        del strat_rows, x0, noise
    return total / reps, _stderr(costs)


def _stderr(samples: np.ndarray) -> float:
    """Standard error of the mean of the samples, with the variance taken
    about their mean (two passes), so a large common offset cancels; 0.0 for
    one sample."""
    reps = len(samples)
    if reps < 2:
        return 0.0
    mean = float(samples.mean())
    var = float(np.sum((samples - mean) ** 2)) / (reps - 1)
    return math.sqrt(var / reps)


# ---------------------------------------------------------------------------
# deviation gains


@dataclass(frozen=True)
class DeviationGainResult:
    epsilon: Scalar
    rows: tuple[GapRow, ...]
    method: str  # "exact" | "mc"
    stderr: Optional[float] = None
    replications: Optional[int] = None


def deviation_gain(
    game: GameSpec,
    profile: CorrelatedProfile,
    player: int,
    m0n: ProbabilityVector,
    method: str = "exact",
    cfg: Optional[SimulationConfig] = None,
    *,
    joint_cap: int = DEFAULT_JOINT_CAP,
    strategy_cap: int = DEFAULT_STRATEGY_CAP,
) -> DeviationGainResult:
    """Largest total gain any strategy modification offers to one player.

    The gain decomposes over recommendations: epsilon equals the sum over
    recommendations phi of (cost contribution under phi) minus (best
    contribution any deviation psi achieves on the event {recommended phi}).
    """
    if method == "exact":
        return _deviation_gain_exact(game, profile, player, m0n, joint_cap, strategy_cap)
    if method == "mc":
        if cfg is None:
            raise ValueError("Monte Carlo method needs a SimulationConfig")
        return _deviation_gain_mc(game, profile, player, m0n, cfg, strategy_cap)
    raise ValueError(f"unknown method {method!r}")


def _deviation_gain_exact(
    game, profile, player, m0n, joint_cap, strategy_cap
) -> DeviationGainResult:
    draws = _anonymous_draws(profile, player)
    candidates = enumerate_strategies(game, strategy_cap)
    table = _AnonymousCostTable(game, m0n, candidates, joint_cap)
    zeros = [zero(game.arithmetic)] * len(candidates)
    by_rec: dict[int, list] = {}  # recommendation -> every candidate's value on it
    for own, others, w in draws:
        rec_i = table.index[own.actions]
        by_rec[rec_i] = [v + w * c for v, c in zip(by_rec.get(rec_i, zeros), table.costs(others))]
    rows = gap_rows(candidates, sorted(by_rec.items()))
    epsilon = sum((r.gap for r in rows), zero(game.arithmetic))
    return DeviationGainResult(epsilon, rows, "exact")


def _deviation_gain_mc(
    game, profile, player, m0n, cfg: SimulationConfig, strategy_cap
) -> DeviationGainResult:
    if not 0 <= player < profile.n_players:
        raise ValueError(f"player index {player} out of range")
    candidates = enumerate_strategies(game, strategy_cap)
    mc = _MonteCarlo(game, candidates)
    reps = cfg.replications
    n_cand = len(candidates)
    if reps * n_cand * 8 > _COST_MATRIX_BYTES_CAP:
        raise CapacityError(
            f"{reps} replications x {n_cand} candidates exceed the cost-matrix cap"
        )
    costs = np.empty((reps, n_cand), dtype=np.float64)
    rec_rows = np.empty(reps, dtype=np.int64)
    for start, strat_rows, x0, noise in mc.batches(profile, m0n, cfg):
        stop = start + len(strat_rows)
        rec_rows[start:stop] = strat_rows[:, player]
        costs[start:stop] = mc.deviation_costs(strat_rows, x0, noise, player)
        del strat_rows, x0, noise
    recs = sorted(set(rec_rows.tolist()))
    masks = [rec_rows == rec_i for rec_i in recs]
    rows = gap_rows(candidates, [
        (rec_i, (costs[mask].sum(axis=0) / reps).tolist())  # unnormalized sums
        for rec_i, mask in zip(recs, masks)
    ])
    epsilon = sum((r.gap for r in rows), 0.0)
    gains = np.zeros(reps, dtype=np.float64)
    for row, mask in zip(rows, masks):
        gains[mask] = costs[mask, row.rec_index] - costs[mask, row.best_index]
    return DeviationGainResult(epsilon, rows, "mc", stderr=_stderr(gains), replications=reps)


# ---------------------------------------------------------------------------
# correlated-equilibrium LP


def solve_symmetric_ce(
    game: GameSpec,
    n_players: int,
    m0n: ProbabilityVector,
    *,
    minimize_total_cost: bool = False,
    lp_cap: int = DEFAULT_LP_CAP,
    joint_cap: int = DEFAULT_JOINT_CAP,
    strategy_cap: int = DEFAULT_STRATEGY_CAP,
) -> ExplicitProfile:
    """A symmetric correlated equilibrium, exact.

    Works on the multiset (orbit) reduction of the symmetric feasibility
    system: variables are strategy multisets; the player-1 constraints carry
    all the content because the system is permutation-covariant.  The result
    expands to explicit atoms with weight w(multiset)/#arrangements.

    The system is built on ints: with every cost over one denominator D,
    the incentive row of (rec, psi) has coefficient count(rec) (C[psi] -
    C[rec]) on a multiset, for C the numerators, which is N D times rec's
    share count(rec)/N of the cost gap; the total-cost objective is D times
    the cost.  Positive scaling keeps every vertex and every pivot.
    """
    if n_players < 2:
        raise ValueError("need at least two players")
    if arith(game.arithmetic).scalar is not Fraction:
        raise ValueError("the equilibrium LP needs exact arithmetic")
    strategies = enumerate_strategies(game, strategy_cap)
    n_r = len(strategies)
    multisets = list(
        itertools.combinations_with_replacement(range(n_r), n_players)
    )
    if len(multisets) > lp_cap:
        raise CapacityError(f"{len(multisets)} LP variables exceed cap {lp_cap}")
    index_of = {m: k for k, m in enumerate(multisets)}
    numerators = _cost_numerators(game, m0n, strategies, n_players - 1, joint_cap)

    def costs(m_key: tuple[int, ...], rec: int) -> tuple[int, ...]:
        # every strategy's cost against the multiset m_key less one rec
        others = list(m_key)
        others.remove(rec)
        return numerators[tuple(others)]

    rows = []
    for rec in range(n_r):
        # every multiset containing rec: (its variable, rec's count, the
        # costs against the others-multiset)
        contributions = [
            (k, m_key.count(rec), costs(m_key, rec))
            for m_key, k in index_of.items() if rec in m_key
        ]
        for psi in range(n_r):
            if psi == rec:
                continue
            coeffs = [0] * len(multisets)
            for k, count, c in contributions:
                coeffs[k] = count * (c[psi] - c[rec])
            rows.append(LinRow(tuple(coeffs), GE, 0))
    rows.append(LinRow((1,) * len(multisets), EQ, 1))
    names = tuple("w_" + "_".join(map(str, m)) for m in multisets)
    objective = None
    if minimize_total_cost:
        objective = tuple(
            sum(m_key.count(rec) * costs(m_key, rec)[rec] for rec in set(m_key))
            for m_key in multisets
        )
    lp = LinearProgram(names, tuple(rows), objective)
    try:
        solution = solve_lp(lp)
    except InfeasibleError as exc:  # pragma: no cover - contradicts existence
        raise RuntimeError(
            "internal error: symmetric CE system is infeasible"
        ) from exc
    atoms = []
    for m_key, name in zip(multisets, names):
        w = solution[name]
        if w == 0:
            continue
        arrangements = _arrangements(m_key)
        share = w / len(arrangements)
        atoms.extend((tuple(strategies[j] for j in arr), share) for arr in arrangements)
    return ExplicitProfile(n_players, tuple(atoms))


def _cost_numerators(game, m0n, strategies, n_others, joint_cap) -> dict:
    """Player 0's costs of every strategy against every multiset of n_others
    other strategies (index tuples in enumeration order), as integer
    numerators over one denominator, the lcm of the costs' denominators."""
    table = _AnonymousCostTable(game, m0n, strategies, joint_cap)
    costs = {
        others: table.costs(tuple(strategies[j] for j in others))
        for others in itertools.combinations_with_replacement(range(len(strategies)), n_others)
    }
    den = math.lcm(*(c.denominator for cs in costs.values() for c in cs))
    return {others: tuple(scaled(c, den) for c in cs) for others, cs in costs.items()}


# ---------------------------------------------------------------------------
# exchangeability


@dataclass(frozen=True)
class ExchangeabilityRow:
    empirical: tuple[Scalar, ...]  # inclusive empirical measure of all N states
    mass: Scalar
    worst_gap: Scalar


@dataclass(frozen=True)
class ExchangeabilityReport:
    ok: bool
    time: int
    rows: tuple[ExchangeabilityRow, ...]


def exchangeability_check(
    game: GameSpec,
    profile: CorrelatedProfile,
    m0n: ProbabilityVector,
    t: int,
    *,
    joint_cap: int = DEFAULT_JOINT_CAP,
) -> ExchangeabilityReport:
    """Conditional law of player 0 given the empirical measure equals it.

    Requires a symmetric profile and a product initial law; checks every empirical measure with positive mass at time t.
    """
    if not is_symmetric(profile):
        raise ValueError("profile is not symmetric")
    if not 0 <= t <= game.horizon:
        raise ValueError(f"time {t} outside 0..{game.horizon}")
    ar = arith(game.arithmetic)
    d = len(game.states)
    by_counts: dict[tuple[int, ...], list] = {}  # counts of all N -> mass per x0
    steps = _ChainSteps(game)
    for own, others, w in _anonymous_draws(profile, 0):
        walk = exact_joint_propagate(game, (own, *others), m0n, memo=steps, joint_cap=joint_cap)
        for key, p in walk.laws[t].items():
            cond = by_counts.setdefault(_inclusive(key), [zero(ar.mode)] * d)
            cond[key[0]] += w * p
    rows = []
    for counts in sorted(by_counts):
        cond = by_counts[counts]
        mass = sum(cond)
        empirical = tuple(ar.ratio(c, profile.n_players) for c in counts)
        worst = max(abs(c / mass - e) for c, e in zip(cond, empirical))
        rows.append(ExchangeabilityRow(empirical, mass, worst))
    ok = all(row.worst_gap <= ar.tol for row in rows)
    return ExchangeabilityReport(ok, t, tuple(rows))
