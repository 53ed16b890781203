"""The finite N-player game built from one shared game specification.

Players are coupled only through the exclusive empirical measure of the other
N-1 states.  This module provides

  * exact propagation of the count chain (one player's state and the
    others' state counts per strategy), which every exact caller uses; one
    walk of the deviator's action tree on it costs every candidate strategy
    against one multiset of the others' strategies, and one push of one
    player's own strategy gives the chain's laws,
  * a vectorized Monte Carlo simulator with counter-based random streams,
  * deviation gains (the epsilon in epsilon-correlated equilibrium),
    decomposed per recommendation, exactly (one walk per multiset of the
    others) or by simulation with common random numbers (one walk of the
    action tree per chunk), and
  * symmetric correlated equilibria via an exact-rational feasibility LP
    reduced to strategy multisets, whose columns are built, when the
    simplex prices them, from one walk per multiset of the others.

Exact audits read a profile as one player's anonymous draws (own strategy,
others-multiset, weight), never as atoms over ordered strategy tuples.

Profiles and initial laws are validated once, when they are built.  Each
exact request (a deviation gain, the CE, the exchangeability check) is
admitted once, by `_admit`, before its draws, multisets or walks;
the walks of the count chain take admitted inputs and check nothing.  They
read kernel rows and costs through the raw `GameSpec` methods and carry
their weights as integer numerators over one denominator per time step,
divided once at the end.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import rng
from .lp import EQ, GE, Constraint, InfeasibleError, LinearProgram, solve_lp
from .mfg import GapRow, gap_rows
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

_CHUNK = 4096  # replications per chunk, at most
_CHUNK_BYTES = 1 << 27  # 128 MiB of uniforms per chunk, at most
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


def _spread(items: Sequence, w: Scalar, ratio) -> list[tuple]:
    """Weight w spread evenly over the distinct orderings of a multiset,
    built by inserting one item at a time; no stage holds more orderings
    than the result."""
    arranged = {()}
    for x in items:
        arranged = {a[:i] + (x,) + a[i:] for a in arranged for i in range(len(a) + 1)}
    share = ratio(w, len(arranged))
    return [(arr, share) for arr in arranged]


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
    ratio = arith(profile.mode).ratio
    atoms = tuple(atom for vec, w in profile.atoms for atom in _spread(vec, w, ratio))
    return ExplicitProfile(profile.n_players, atoms)


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


def exact_joint_propagate(
    game: GameSpec,
    strategies: Sequence[RestrictedStrategy],
    m0n: ProbabilityVector,
    *,
    candidates: Sequence[RestrictedStrategy],
    memo: _ChainSteps,
    divide: bool = True,
) -> tuple:
    """Player 0's expected total cost under every candidate strategy, in
    order, in one walk of the count chain.

    Each player moves with the kernel evaluated at the empirical measure of
    the other N-1 players, independently given the current states, and a
    player sees the others only through that measure.  So (player 0's state,
    the others' state counts per strategy) is itself a Markov chain.  Player
    0's action changes only its own kernel row, so a step builds the
    others' next-count law once per chain state (a group's players added
    one at a time, groups combined as independent parts) and pairs it with
    the row of each action that player 0 may play.

    The walk is the deviator's action tree: it splits the law by the set of
    distinct candidates that agree with player 0's history ((x_0, a_0), ...,
    (x_{t-1}, a_{t-1})), that is with a_s = psi(s, x_s) at every s.  From
    state x at time t the law moves on under each action that some
    candidate of its set plays at (t, x), into the set of those that play
    it, and a candidate's cost is the sum of the running and terminal costs
    over the sets it belongs to.  The last step, from T-1, builds no law at
    T: each (set, chain state, action) adds its weight times the running
    cost and times the expected terminal cost one step on
    (`_ChainSteps.expected`), as the Monte Carlo tree costs its leaves at
    the last internal level.  `memo`, a `_ChainSteps` of the same game,
    carries kernel rows, costs, the others' count laws and those
    expectations from one walk to the next.  The inputs come admitted
    (`_admit`, once per request) and the walk checks nothing.

    The weights are integer numerators over one denominator per time step
    (`_ChainSteps.start`) and the costs integers over the last one times
    qc (N-1), so a walk divides once at the end: one `Fraction` per
    candidate and none per successor.  A float game runs the same loop with
    every scale 1.  With `divide` false, an exact game's walk returns the
    candidates' integer numerators and that denominator, den step^T qc
    (N-1), the same for every walk of one game, initial law and N.  The
    chain's laws come from `count_chain_laws`.
    """
    walked = tuple(dict.fromkeys(s.actions for s in candidates))
    splits: dict[tuple, list] = {}  # (candidate set, t, x) -> [(action, subset)]

    def split(cands, t, x):
        hit = splits.get((cands, t, x))
        if hit is None:
            by_action: dict[int, list] = {}
            for i in cands:
                by_action.setdefault(walked[i][t][x], []).append(i)
            hit = splits[cands, t, x] = [(a, tuple(sub)) for a, sub in by_action.items()]
        return hit

    law, groups, den, step, cost_den = memo.start(m0n, strategies[1:])
    nodes = {tuple(range(len(walked))): law}  # candidate set -> its part of the law
    spent: dict[tuple, Scalar] = {}  # candidate set -> running cost numerator on its histories
    ends: dict[tuple, Scalar] = {}  # candidate set -> terminal cost numerator on its histories
    last = game.horizon - 1
    for t in range(game.horizon):
        acts = tuple(g[t] for g in groups)
        nxt: dict[tuple, dict] = {}
        for cands, law in nodes.items():
            for key, w in law.items():
                x = key[0]
                counts, spread = memo.others(t, key, acts)
                for a, sub in split(cands, t, x):
                    row, running = memo.move(t, counts, x, a)
                    c = w * running
                    spent[sub] = spent[sub] + c if sub in spent else c
                    if t == last:
                        c = w * memo.expected(key, acts, a)
                        ends[sub] = ends[sub] + c if sub in ends else c
                        continue
                    _push(nxt.setdefault(sub, {}), w, row, spread)
        nodes = nxt
        spent = {sub: c * step for sub, c in spent.items()}  # onto the next denominator
    totals = [0] * len(walked)
    for part in (spent, ends):
        for cands, c in part.items():
            for i in cands:
                totals[i] += c
    scale = den * step ** game.horizon * cost_den
    if not divide:
        numerators = dict(zip(walked, totals))
        return tuple(numerators[s.actions] for s in candidates), scale
    costs = {a: memo.ratio(c, scale) for a, c in zip(walked, totals)}
    return tuple(costs[s.actions] for s in candidates)


def count_chain_laws(
    game: GameSpec,
    strategies: Sequence[RestrictedStrategy],
    m0n: ProbabilityVector,
    *,
    memo: Optional[_ChainSteps] = None,
) -> tuple[dict[tuple, Scalar], ...]:
    """The law of the count chain at times 0..T, player 0 on strategies[0].

    The groups are the distinct strategies of players 1..N-1 in order of
    first appearance.  A chain state is the tuple (x0, c_0, c_1, ...):
    player 0's state, then for each group g the d-tuple c_g of how many of
    its players sit in each state.  The push takes the admitted inputs,
    `memo` and integer weights of `exact_joint_propagate`, divided once per
    entry.
    """
    steps = _ChainSteps(game) if memo is None else memo
    own = strategies[0].actions
    law, groups, den, step, _ = steps.start(m0n, strategies[1:])
    laws = [law]
    for t in range(game.horizon):
        acts = tuple(g[t] for g in groups)
        nxt: dict[tuple, Scalar] = {}
        for key, w in law.items():
            counts, spread = steps.others(t, key, acts)
            _push(nxt, w, steps.move(t, counts, key[0], own[t][key[0]])[0], spread)
        laws.append(law := nxt)
    ratio, dens = steps.ratio, [den * step ** t for t in range(game.horizon + 1)]
    return tuple({k: ratio(w, q) for k, w in law.items()} for law, q in zip(laws, dens))


def _admit(game: GameSpec, n_players: int, m0n: ProbabilityVector, joint_cap: int) -> None:
    """Admit one exact request on n_players before any of its work: a
    product initial law and |X|^N <= `joint_cap`.  Every walk of the
    request then takes its inputs as given.  The refusal names d and N,
    since d**N may have more digits than Python will format."""
    require_initial_law(game, m0n)
    d = len(game.states)
    if d ** min(n_players, joint_cap.bit_length()) > joint_cap:
        raise CapacityError(f"{d}^{n_players} joint states exceed cap {joint_cap}")


def _push(into: dict, w: Scalar, row, spread) -> None:
    """Add to `into` the chain states (y, *oc) one step on from a state of
    weight w: player 0's row [(y, k)] times the others' spread [(oc, q)]."""
    get = into.get
    for y, k in row:
        wk = w * k
        for oc, q in spread:
            nk = (y, *oc)
            into[nk] = get(nk, 0) + wk * q


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

    def start(self, m0n: ProbabilityVector, others: Sequence[RestrictedStrategy]) -> tuple:
        """The initial chain law against `others`, the groups' action tables
        and the denominators of a walk of n = len(others) + 1 players: L0^n
        at time 0, for L0 the lcm of the initial law's denominators, times
        (qk (n-1))^n per step, one factor per player's kernel entry, and
        times qc (n-1) for the costs."""
        n = len(others) + 1
        if self.exact:
            l0 = _denominator_lcm(m0n.weights)
            first = [(y, scaled(w, l0)) for y, w in enumerate(m0n.weights) if w]
            dens = l0 ** n, (self.qk * (n - 1)) ** n, self.qc * (n - 1)
        else:
            first, dens = [(y, w) for y, w in enumerate(m0n.weights) if w], (1, 1, 1)
        sizes, empty = Counter(s.actions for s in others), (0,) * len(m0n.weights)
        law = dict(_product(
            [((x,), w) for x, w in first],
            [_add_players({empty: 1}, c, first).items() for c in sizes.values()],
        ))
        return law, tuple(sizes), *dens

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


class _AnonymousCostTable:
    """Player 0's costs on a fixed tuple of candidate strategies, memoized
    per multiset of the others' strategies.

    All players share one game, so a player's expected cost depends on the
    other strategies only through their multiset.  One walk of the count
    chain per multiset costs every candidate, and every walk of the table
    shares one memo of kernel rows, costs and count laws.
    """

    def __init__(self, game, m0n, candidates):
        self.game = game
        self.m0n = m0n
        self.candidates = tuple(candidates)
        self.index = {s.actions: i for i, s in enumerate(self.candidates)}
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
                candidates=self.candidates, memo=self.steps,
            )
        return hit


# ---------------------------------------------------------------------------
# vectorized Monte Carlo engine


class _MonteCarlo:
    """The vectorized Monte Carlo engine for one table of strategies.

    Holds float64 views of the game and a row-index table for strategies;
    `batches` draws each chunk's random inputs (one uniform block per slot
    range, from one mix of the chunk's replication seeds), `run` walks the
    realized path and counts the states that one player sees, and
    `deviation_costs` walks that player's action tree to cost every strategy
    of the table at once: the tree is the one costing walk.  A player sees
    the others only through its own state and the state counts, so both
    walks share the step tables `_step` (pick thresholds and running costs
    at every state and action, or terminal costs), built once per distinct
    count row, and draw every player's next state from them by flat
    gathers.  The tree carries the others' counts down to a node's children
    and costs its leaves at the last internal level.  Every Monte Carlo
    caller goes through these methods.
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
        # act[t][row * d + x]: the action of strategy row in state x at time t
        self.act = np.array([[a for s in self.strategies for a in s.actions[t]]
                             for t in range(self.horizon)], dtype=np.int64)
        self.index = {s.actions: i for i, s in enumerate(strategies)}

    def batches(
        self, profile: CorrelatedProfile, m0n: ProbabilityVector, cfg: SimulationConfig
    ):
        """Per chunk of replications, (start, strategy rows, initial states,
        noise) of shapes (count, N), (count, N) and (count, T, N), drawn from
        one uniform block per slot range of `rng`'s layout, each read where it
        is drawn: the noise is its block, reshaped.  A chunk holds `_CHUNK`
        rows, or fewer when its uniforms would pass `_CHUNK_BYTES`.  Nothing
        here holds a yielded chunk; a caller drops it before asking for the
        next, which is drawn only then."""
        require_initial_law(self.game, m0n)
        n, T = profile.n_players, self.horizon
        sampler = _ProfileSampler(profile, self)
        w0 = np.array([float(v) for v in m0n.weights])
        slots = np.arange(2 * n + 1 + T * n, dtype=np.uint64)
        reps, seed = cfg.replications, cfg.master_seed
        rows = min(_CHUNK, max(1, _CHUNK_BYTES // (8 * len(slots))))
        for start in range(0, reps, rows):
            seeds = rng.rep_seeds(seed, start, min(rows, reps - start))
            yield (start, sampler.draw(rng.uniform_block(seeds, slots[: n + 1])),
                   _pick(w0, rng.uniform_block(seeds, slots[n + 1 : 2 * n + 1])),
                   rng.uniform_block(seeds, slots[2 * n + 1 :]).reshape(len(seeds), T, n))

    def _count(self, states: np.ndarray) -> np.ndarray:
        """State counts (reps, d) of the states (reps, N)."""
        reps = len(states)
        bins = self.d * np.arange(reps)[:, None]  # one bin per (replication, state)
        counts = np.bincount((bins + states).ravel(), minlength=reps * self.d)
        return counts.reshape(reps, self.d)

    def _step(self, t: int, counts: np.ndarray, n: int):
        """Each replication's row among the k distinct rows of the counts
        (reps, d) and, flat over (row, state, action), the pick thresholds
        (k d A, d-1) and running costs (k d A) of time t < T, on all N
        players' counts, or, flat over (row, state), the terminal costs
        (k d) at t = T, on the others' counts."""
        inv, rows = _distinct_rows(counts, n)
        if t == self.horizon:
            return inv, None, _affine_eval(self.tb, self.tc, rows[:, None, :] / (n - 1)).ravel()
        m = (rows[:, None, :] - self.eye) / (n - 1)
        w = _affine_eval(self.kb[t], self.kc[t], m[:, :, None, None, :]).reshape(-1, self.d)
        return inv, _thresholds(w), _affine_eval(self.rb[t], self.rc[t], m[:, :, None, :]).ravel()

    def _draw(self, t, inv, th, strat_rows, states, z):
        """Every player's next state at time t from the `_step` tables, by
        flat gathers of its action and then of its thresholds."""
        cells = (inv[:, None] * self.d + states) * self.n_actions  # (row, state, action)
        cells += self.act[t].take(strat_rows * self.d + states)
        return _count_below(th.take(cells, axis=0), z)

    def run(
        self, strat_rows: np.ndarray, x0: np.ndarray, noise: np.ndarray, player: int
    ) -> np.ndarray:
        """Walk t = 0..T once from per-player strategy rows and noises and
        count the states that `player` sees: the exclusive counts of the
        other N-1 players, shape (reps, T+1, d), the empirical flows of
        `limits`.  It costs nothing; `deviation_costs` does.
        """
        n, T = strat_rows.shape[1], self.horizon
        seen = np.empty((len(x0), T + 1, self.d), dtype=np.int64)
        states = x0
        for t in range(T):
            counts = self._count(states)
            seen[:, t] = counts - self.eye[states[:, player]]
            inv, th, _ = self._step(t, counts, n)
            states = self._draw(t, inv, th, strat_rows, states, noise[:, t])
        seen[:, T] = self._count(states) - self.eye[states[:, player]]
        return seen

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
        walk = (strat_rows, noise, player, visited, leaves)
        self._visit(0, 0, x0, self._count(x0), np.zeros(reps), walk)
        leaf = np.zeros((reps, len(self.strategies)), dtype=np.int64)
        rows = np.arange(len(self.strategies)) * self.d
        r = np.arange(reps)[:, None]  # flat gathers: row r of a (reps, k) array starts at r k
        for t, xs in enumerate(visited):
            leaf = leaf * A + self.act[t].take(rows + xs.take(r * A ** t + leaf))
        return leaves.take(r * A ** self.horizon + leaf)

    def _visit(self, t, node, states, counts, cost, walk):
        """Node `node` (the player's actions so far, base |A|) at time t < T
        with the state counts of `states`: one step and N-player draw, then
        per action only the player's own draw.  The children share the others'
        next counts; at t = T-1 they are leaves, costed here on those over N-1."""
        strat_rows, noise, player, visited, leaves = walk
        n, A = states.shape[1], self.n_actions
        inv, th, running = self._step(t, counts, n)
        x = states[:, player]
        visited[t][:, node] = x
        nxt = self._draw(t, inv, th, strat_rows, states, noise[:, t])
        seen = self._count(nxt) - self.eye[nxt[:, player]]
        last = t + 1 == self.horizon
        if last:
            end, _, terminal = self._step(self.horizon, seen, n)
        cells = (inv * self.d + x) * A
        for a in range(A):
            y = _count_below(th.take(cells + a, axis=0), noise[:, t, player])
            child = node * A + a
            step = cost + running.take(cells + a)
            if last:
                leaves[:, child] = step + terminal.take(end * self.d + y)
            else:
                nxt[:, player] = y
                self._visit(t + 1, child, nxt, seen + self.eye[y], step, walk)


def _distinct_rows(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(each row's index into the distinct rows, the distinct rows) of count
    rows (reps, d) in 0..n with one common sum, which fixes the last entry:
    the key is the first d-1 in base n+1 where (n+1)^(d-1) fits an int64."""
    d = counts.shape[1]
    if (n + 1) ** (d - 1) >= 2 ** 63:
        rows, inv = np.unique(counts, axis=0, return_inverse=True)
        return inv.reshape(-1), rows
    keys, inv = np.unique(counts[:, :-1] @ (n + 1) ** np.arange(d - 1), return_inverse=True)
    rows = np.empty((len(keys), d), dtype=counts.dtype)
    rows[inv] = counts
    return inv, rows


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
    # one comparison per threshold column: a sum over a short last axis is slow
    below = np.zeros(np.broadcast_shapes(thresholds.shape[:-1], z.shape), dtype=np.int64)
    for j in range(thresholds.shape[-1]):
        below += thresholds[..., j] < z
    return below


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
    _admit(game, profile.n_players, m0n, joint_cap)
    candidates = enumerate_strategies(game, strategy_cap)
    draws = _anonymous_draws(profile, player)
    table = _AnonymousCostTable(game, m0n, candidates)
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

    The system is on ints: with every cost over one denominator D, the
    incentive row of (rec, psi) has coefficient count(rec) (C[psi] -
    C[rec]) on a multiset, for C the numerators, which is N D times rec's
    share count(rec)/N of the cost gap; the total-cost objective is D times
    the cost.  Positive scaling keeps every vertex and every pivot.  The
    LP gets the rows' relations and right-hand sides, and builds a
    multiset's column from the numerators only when it prices it
    (`_ObedienceColumns`).
    """
    if n_players < 2:
        raise ValueError("need at least two players")
    if arith(game.arithmetic).scalar is not Fraction:
        raise ValueError("the equilibrium LP needs exact arithmetic")
    _admit(game, n_players, m0n, joint_cap)
    strategies = enumerate_strategies(game, strategy_cap)
    n_r = len(strategies)
    n_vars = math.comb(n_r + n_players - 1, n_players)
    if n_vars > lp_cap:
        raise CapacityError(f"{n_vars} LP variables exceed cap {lp_cap}")
    multisets = list(itertools.combinations_with_replacement(range(n_r), n_players))
    columns = _ObedienceColumns(
        multisets, _cost_numerators(game, m0n, strategies, n_players - 1), n_r
    )
    rows = (Constraint(GE, 0),) * (n_r * (n_r - 1)) + (Constraint(EQ, 1),)
    names = tuple("w_" + "_".join(map(str, m)) for m in multisets)
    objective = None
    if minimize_total_cost:
        objective = tuple(
            sum(count * c[rec] for rec, count, c in columns.parts(k))
            for k in range(len(multisets))
        )
    lp = LinearProgram(names, rows, columns, objective)
    try:
        solution = solve_lp(lp)
    except InfeasibleError as exc:  # pragma: no cover - contradicts existence
        raise RuntimeError(
            "internal error: symmetric CE system is infeasible"
        ) from exc
    atoms = []
    for m_key, name in zip(multisets, names):
        if solution[name]:
            atoms += _spread(tuple(strategies[j] for j in m_key), solution[name], Fraction)
    return ExplicitProfile(n_players, tuple(atoms))


class _ObedienceColumns:
    """The symmetric CE's LP by columns, one per strategy multiset, each
    built from the cost numerators when the simplex asks for it.

    Row (rec, psi), at index rec (R-1) + psi - (psi > rec) for R strategies,
    is rec's obedience against psi, and row R (R-1) is the unit mass.  A
    column is a share and a cost vector per recommendation: for each rec in
    the multiset, with C the numerators of every strategy's cost against the
    multiset less one rec, count(rec) (C[psi] - C[rec]) on row (rec, psi),
    and 1 on the mass row.
    """

    def __init__(self, multisets: list[tuple[int, ...]], numerators: dict, n_r: int):
        self.multisets, self.numerators, self.n_r = multisets, numerators, n_r
        self.mass = n_r * (n_r - 1)

    def __len__(self) -> int:
        return len(self.multisets)

    def parts(self, k: int) -> list[tuple[int, int, tuple[int, ...]]]:
        """(rec, count(rec), C) for each distinct rec of multiset k."""
        m_key, numerators = self.multisets[k], self.numerators
        return [
            (rec, m_key.count(rec), numerators[m_key[:i] + m_key[i + 1:]])
            for i, rec in enumerate(m_key) if i == 0 or m_key[i - 1] != rec
        ]

    def column(self, k: int) -> list[tuple[int, int]]:
        out, width = [(self.mass, 1)], self.n_r - 1
        for rec, count, c in self.parts(k):
            own, base = c[rec], rec * width
            out += [
                (base + psi - (psi > rec), count * (v - own))
                for psi, v in enumerate(c) if v != own
            ]
        return out

    def pricer(self, duals: list[tuple[int, int]]):
        # the duals of rec's rows as weights on C: y on C[psi] for row
        # (rec, psi), and minus their sum on C[rec]
        width, mass, by_rec, mass_y = self.n_r - 1, self.mass, {}, 0
        for i, y in duals:
            if i == mass:
                mass_y = y
                continue
            rec, j = divmod(i, width)
            by_rec.setdefault(rec, []).append((j + (j >= rec), y))
        for rec, weights in by_rec.items():
            weights.append((rec, -sum(y for _, y in weights)))
        parts = self.parts

        def price(k: int) -> int:
            return mass_y + sum(
                count * sum(y * c[psi] for psi, y in by_rec[rec])
                for rec, count, c in parts(k) if rec in by_rec
            )

        return price


def _cost_numerators(game, m0n, strategies, n_others) -> dict:
    """Player 0's costs of every strategy against every multiset of n_others
    other strategies (index tuples in enumeration order), as integer
    numerators over one denominator, the lcm of the costs' denominators.
    Every walk puts its costs over the same denominator, so dividing it and
    all the walks' numerators by their gcd gives that lcm."""
    steps = _ChainSteps(game)
    walks = {}
    for others in itertools.combinations_with_replacement(range(len(strategies)), n_others):
        walks[others], scale = exact_joint_propagate(
            game, (strategies[0], *(strategies[j] for j in others)), m0n,
            candidates=strategies, memo=steps, divide=False,
        )
    g = math.gcd(scale, *(c for cs in walks.values() for c in cs))
    return {others: tuple(c // g for c in cs) for others, cs in walks.items()}


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
    _admit(game, profile.n_players, m0n, joint_cap)
    if not is_symmetric(profile):
        raise ValueError("profile is not symmetric")
    if not 0 <= t <= game.horizon:
        raise ValueError(f"time {t} outside 0..{game.horizon}")
    ar = arith(game.arithmetic)
    d = len(game.states)
    by_counts: dict[tuple[int, ...], list] = {}  # counts of all N -> mass per x0
    steps = _ChainSteps(game)
    for own, others, w in _anonymous_draws(profile, 0):
        laws = count_chain_laws(game, (own, *others), m0n, memo=steps)
        for key, p in laws[t].items():
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
