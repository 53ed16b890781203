"""Bridges between the mean-field solution and finite N-player games.

Lifting turns a correlated flow rho into an N-player profile (draw a flow from
the marginal, then hand out strategies i.i.d. from the conditional).  The
epsilon curve quantifies how far the lifted profile is from an exact
equilibrium as N grows; the convergence report runs the reverse experiment,
measuring how fast the empirical law of (recommendation, empirical flow)
regenerates rho.  Both curves return a tuple of rows, one per distinct N in
increasing order.  Empirical flow entries are counts over N-1 by
construction, with one measure built per distinct count row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import rng
from .mfg import CorrelatedFlow, factor_flow, verify_solution
from .model import (
    DEFAULT_ATOM_CAP,
    DEFAULT_JOINT_CAP,
    DEFAULT_OT_CAP,
    DEFAULT_STRATEGY_CAP,
    EXACT,
    FlowTrajectory,
    GameSpec,
    ProbabilityVector,
    Scalar,
)
from .nplayer import FactoredProfile, SimulationConfig, _MonteCarlo, deviation_gain
from .transport import flow_space_distance

def lift(rho: CorrelatedFlow, n_players: int) -> FactoredProfile:
    """The N-player profile that draws one flow, then i.i.d. recommendations."""
    return FactoredProfile(n_players, *factor_flow(rho))


@dataclass(frozen=True)
class EpsilonRow:
    n_players: int
    epsilon: Scalar
    stderr: Optional[float]  # None means the value is exact
    replications: Optional[int]
    seconds: float
    method: str  # "exact" | "mc"

    @property
    def exact(self) -> bool:
        return self.stderr is None


# a fixed heuristic price for the exact route under --method auto (atoms times
# squared joint size), kept as it is so that auto keeps its pinned choices
_EXACT_WORK_CAP = 32768


def _sub_seed(master: int, n: int) -> int:
    # one stream family per N so rows are independent experiments
    return rng.stream_value(master, n, 0)


def epsilon_curve(
    game: GameSpec,
    rho: CorrelatedFlow,
    m0: ProbabilityVector,
    ns: Sequence[int],
    cfg: SimulationConfig,
    method: str = "auto",
    *,
    joint_cap: int = DEFAULT_JOINT_CAP,
    atom_cap: int = DEFAULT_ATOM_CAP,
    strategy_cap: int = DEFAULT_STRATEGY_CAP,
) -> tuple[EpsilonRow, ...]:
    """Deviation gain of the lifted profile at each population size.

    With method "auto", the exact engine when the joint-state space, the
    atom count sum_k |c_k|^N of the lift and a fixed heuristic price (that
    count times the squared joint size) all fit their caps; Monte Carlo with
    common random numbers otherwise.  Lifted profiles are exchangeable, so
    player 1's gain equals every player's gain.
    """
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    d = len(game.states)
    rows = []
    for n in sorted(set(int(n) for n in ns)):
        profile = lift(rho, n)
        if method == "auto":
            joint = d ** n
            atoms = sum(len(c) ** n for c in profile.conditionals)
            fits_work = atoms * joint * joint <= _EXACT_WORK_CAP
            use = "exact" if (joint <= joint_cap and atoms <= atom_cap and fits_work) else "mc"
        else:
            use = method
        started = time.perf_counter()
        sub = SimulationConfig(_sub_seed(cfg.master_seed, n), cfg.replications)
        gain = deviation_gain(
            game, profile, 0, m0, use, sub, joint_cap=joint_cap, strategy_cap=strategy_cap
        )
        rows.append(EpsilonRow(
            n, gain.epsilon, gain.stderr, gain.replications,
            time.perf_counter() - started, gain.method,
        ))
    return tuple(rows)


@dataclass(frozen=True)
class EmpiricalCorrelatedFlow:
    """Sampled law of (player 1's recommendation, exclusive empirical flow).

    Every flow entry is a count over N-1 by construction, and every weight a
    multiplicity over `samples`."""

    flow: CorrelatedFlow
    samples: int
    n_players: int


def empirical_rho_n(
    game: GameSpec,
    profile: FactoredProfile,
    m0n: ProbabilityVector,
    cfg: SimulationConfig,
) -> EmpiricalCorrelatedFlow:
    """Simulate the N-player system under identity and bin the observations.

    Each replication contributes one atom (recommendation of player 1, the
    empirical flow of the other N-1 players at times 0..T); identical
    observations merge with summed weights, all exact.  One measure is built
    per distinct count row and shared by every path that holds it.  The atoms
    go to `CorrelatedFlow` sorted on their integer keys, already its order on
    (strategy table, flow weights), so its sort finds them in order: strategy
    rows are in enumeration order, every flow entry a count over the same N-1.
    """
    n = profile.n_players
    mc = _MonteCarlo(game, profile.support_strategies())
    buckets: dict[tuple, int] = {}
    for _, strat_rows, x0, noise in mc.batches(profile, m0n, cfg):
        _, seen = mc.run(strat_rows, x0, noise, 0)  # exclusive of player 1
        for rec_row, path in zip(strat_rows[:, 0].tolist(), seen.tolist()):
            key = (rec_row, tuple(map(tuple, path)))
            buckets[key] = buckets.get(key, 0) + 1
        del strat_rows, x0, noise, seen
    measures = {
        row: ProbabilityVector(game.states, tuple(Fraction(c, n - 1) for c in row), EXACT)
        for row in {row for _, count_rows in buckets for row in count_rows}
    }
    atoms = tuple(
        (
            mc.strategies[rec_row],
            FlowTrajectory(tuple(measures[row] for row in count_rows)),
            Fraction(mult, cfg.replications),
        )
        for (rec_row, count_rows), mult in sorted(buckets.items())
    )
    return EmpiricalCorrelatedFlow(CorrelatedFlow(atoms), cfg.replications, n)


@dataclass(frozen=True)
class ConvergenceRow:
    n_players: int
    w1: Scalar
    replications: int
    seconds: float


def convergence_report(
    game: GameSpec,
    rho: CorrelatedFlow,
    m0: ProbabilityVector,
    ns: Sequence[int],
    cfg: SimulationConfig,
    *,
    strategy_cap: int = DEFAULT_STRATEGY_CAP,
    ot_cap: int = DEFAULT_OT_CAP,
) -> tuple[ConvergenceRow, ...]:
    """W1 distance between the sampled N-player law and rho, per N.

    Refuses flows that are not correlated MFG solutions under m0: the
    experiment is only meaningful for a solution's lift.
    """
    verdict = verify_solution(game, rho, m0, strategy_cap)
    if not verdict.is_solution:
        raise ValueError("rho is not a correlated MFG solution")
    rows = []
    for n in sorted(set(int(n) for n in ns)):
        started = time.perf_counter()
        sub = SimulationConfig(_sub_seed(cfg.master_seed, n), cfg.replications)
        emp = empirical_rho_n(game, lift(rho, n), m0, sub)
        w1 = flow_space_distance(emp.flow, rho, cap=ot_cap)
        rows.append(
            ConvergenceRow(n, w1, cfg.replications, time.perf_counter() - started)
        )
    return tuple(rows)
