"""Seeded generator of a random valid game and a factored N-player profile.

The built-in two-state example has transition coefficients that are all zero
and only 16 restricted strategies.  The generated game has three states, two
actions and horizon two (64 restricted strategies), and every kernel row
depends on the population measure.  Each row is a mixture of vertex kernels:
with vertices v_0..v_{d-1} (probability vectors), ``base = v_0`` and
``coef[:, y] = v_y - v_0``, so the row at measure m is sum_y m(y) v_y.  That
construction meets every invariant ``validate_game`` checks: the base has
mass one, each coefficient column sums to zero, and base + coef[:, y] = v_y
is nonnegative.

Only public constructors are used, and the files are written through
``cmfg.io`` so the command line reads them exactly as users' files.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from cmfg import io
from cmfg.model import (
    EXACT,
    AffineCost,
    AffineSimplexMap,
    FiniteSpace,
    FlowTrajectory,
    GameSpec,
    ProbabilityVector,
    ThresholdTransition,
    enumerate_strategies,
)
from cmfg.nplayer import FactoredProfile

STATES = 3
ACTIONS = 2
HORIZON = 2
DENOM = 16  # every generated rational has this denominator
FLOWS = 2  # flow atoms of the factored profile
SUPPORT = 3  # recommended strategies per flow


def _simplex_point(r: random.Random, d: int) -> tuple[Fraction, ...]:
    cuts = sorted(r.randint(0, DENOM) for _ in range(d - 1))
    edges = [0, *cuts, DENOM]
    return tuple(Fraction(b - a, DENOM) for a, b in zip(edges, edges[1:]))


def _positive_weights(r: random.Random, k: int) -> tuple[Fraction, ...]:
    raw = [r.randint(1, DENOM) for _ in range(k)]
    total = sum(raw)
    return tuple(Fraction(w, total) for w in raw)


def _kernel_row(r: random.Random, d: int) -> AffineSimplexMap:
    vertices = [_simplex_point(r, d) for _ in range(d)]
    v0 = vertices[0]
    coef = tuple(
        tuple(vertices[y][i] - v0[i] for y in range(d)) for i in range(d)
    )
    return AffineSimplexMap(v0, coef)


def _signed(r: random.Random) -> Fraction:
    return Fraction(r.randint(-DENOM // 2, DENOM // 2), DENOM)


def generate_game(r: random.Random) -> GameSpec:
    d, A, T = STATES, ACTIONS, HORIZON
    transition = ThresholdTransition(
        tuple(
            tuple(tuple(_kernel_row(r, d) for _ in range(A)) for _ in range(d))
            for _ in range(T)
        )
    )
    cost = AffineCost(
        running_base=tuple(
            tuple(tuple(Fraction(r.randint(0, DENOM), DENOM) for _ in range(A))
                  for _ in range(d))
            for _ in range(T)
        ),
        running_coef=tuple(
            tuple(tuple(tuple(_signed(r) for _ in range(d)) for _ in range(A))
                  for _ in range(d))
            for _ in range(T)
        ),
        terminal_base=tuple(Fraction(r.randint(0, DENOM), DENOM) for _ in range(d)),
        terminal_coef=tuple(tuple(_signed(r) for _ in range(d)) for _ in range(d)),
    )
    return GameSpec(
        T,
        FiniteSpace(tuple(f"s{i}" for i in range(d))),
        FiniteSpace(tuple(f"a{i}" for i in range(A))),
        transition,
        cost,
        EXACT,
    )


def generate_profile(r: random.Random, game: GameSpec, n_players: int) -> FactoredProfile:
    strategies = enumerate_strategies(game)
    flows, conditionals = [], []
    for _ in range(FLOWS):
        flows.append(
            FlowTrajectory(
                tuple(
                    ProbabilityVector(game.states, _simplex_point(r, STATES), EXACT)
                    for _ in range(game.horizon + 1)
                )
            )
        )
        support = r.sample(strategies, SUPPORT)
        conditionals.append(tuple(zip(support, _positive_weights(r, SUPPORT))))
    return FactoredProfile(
        n_players, tuple(flows), _positive_weights(r, FLOWS), tuple(conditionals)
    )


def write_game_and_profile(out_dir: str, seed: int, n_players: int) -> None:
    """Write ``game.json`` and ``profile.json`` for one seed into out_dir."""
    r = random.Random(seed)
    game = generate_game(r)
    profile = generate_profile(r, game, n_players)
    io.write_json_atomic(os.path.join(out_dir, "game.json"), io.game_to_json(game))
    io.write_json_atomic(
        os.path.join(out_dir, "profile.json"), io.profile_to_json(profile, game)
    )
