"""File formats: JSON for models and distributions, CSV for report tables.

Conventions
  * exact mode serializes every number as a string "p/q" (or "p" for whole
    numbers) and refuses non-integer JSON floats on input;
  * float mode serializes plain JSON numbers;
  * CSV cells print floats with 17 significant digits and carry an `exact`
    flag column wherever a value may be rational;
  * every writer is atomic: write to a temp file in the same directory, then
    rename over the target.

Documents
  game:    {horizon, states, actions, transition: {base[t][x][a][i],
            coef[t][x][a][i][y]}, cost: {running_base[t][x][a],
            running_coef[t][x][a][y], terminal_base[x], terminal_coef[x][y]},
            arithmetic: "exact" | "float"}
  flow:    {atoms: [{weight, strategy: [t][x] action labels,
            flow: [T+1][x] weights}]}
  profile: {explicit: [{weight, strategies: [player][t][x] action labels]}}
        or {factored: {flows: [{weight, flow}],
            conditionals: [[{weight, strategy}]]}}
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from typing import Optional, Sequence

from .mfg import CorrelatedFlow
from .model import (
    EXACT,
    FLOAT,
    AffineCost,
    AffineSimplexMap,
    FiniteSpace,
    FlowTrajectory,
    GameSpec,
    ProbabilityVector,
    RestrictedStrategy,
    Scalar,
    ThresholdTransition,
)
from .nplayer import CorrelatedProfile, ExplicitProfile, FactoredProfile


# ---------------------------------------------------------------------------
# scalars


def parse_scalar(value, mode: str) -> Scalar:
    """One number from JSON; exact mode accepts only integers and "p/q"."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if mode == EXACT:
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            raise ValueError(
                f"exact mode requires integers or 'p/q' strings, got {value!r}"
            )
        if isinstance(value, str):
            return _rational(value)
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        return float(_rational(value))
    raise ValueError(f"not a number: {value!r}")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def scalar_json(value: Scalar):
    """JSON form: rational -> "p/q" string, float -> number."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(Fraction(value))
    return float(value)


def csv_cell(value) -> str:
    """Decimal CSV cell with 17 significant digits for floats."""
    if isinstance(value, (Fraction, int)):
        return f"{float(value):.17g}"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def is_exact_value(value: Scalar) -> bool:
    return isinstance(value, (Fraction, int))


# ---------------------------------------------------------------------------
# atomic writers


def _atomic_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    _atomic_bytes(path, (json.dumps(obj, indent=2) + "\n").encode())


def write_csv_atomic(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_cell(c) for c in row))
    _atomic_bytes(path, ("\n".join(lines) + "\n").encode())


def write_text_atomic(path: str, text: str) -> None:
    _atomic_bytes(path, text.encode())


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# games


def game_to_json(game: GameSpec) -> dict:
    mode = game.arithmetic
    tr = game.transition
    base = [
        [[list(map(scalar_json, tr.rows[t][x][a].base)) for a in range(len(game.actions))]
         for x in range(len(game.states))]
        for t in range(game.horizon)
    ]
    coef = [
        [[[list(map(scalar_json, r)) for r in tr.rows[t][x][a].coef]
          for a in range(len(game.actions))]
         for x in range(len(game.states))]
        for t in range(game.horizon)
    ]
    c = game.cost
    return {
        "horizon": game.horizon,
        "states": list(game.states.labels),
        "actions": list(game.actions.labels),
        "transition": {"base": base, "coef": coef},
        "cost": {
            "running_base": [
                [[scalar_json(v) for v in by_x] for by_x in by_t]
                for by_t in c.running_base
            ],
            "running_coef": [
                [[[scalar_json(v) for v in by_a] for by_a in by_x] for by_x in by_t]
                for by_t in c.running_coef
            ],
            "terminal_base": [scalar_json(v) for v in c.terminal_base],
            "terminal_coef": [[scalar_json(v) for v in row] for row in c.terminal_coef],
        },
        "arithmetic": mode,
    }


def game_from_json(doc: dict) -> GameSpec:
    mode = doc.get("arithmetic", EXACT)
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    states = FiniteSpace(tuple(doc["states"]))
    actions = FiniteSpace(tuple(doc["actions"]))
    horizon = int(doc["horizon"])
    tr = doc["transition"]
    rows = tuple(
        tuple(
            tuple(
                AffineSimplexMap(
                    tuple(parse_scalar(v, mode) for v in tr["base"][t][x][a]),
                    tuple(
                        tuple(parse_scalar(v, mode) for v in r)
                        for r in tr["coef"][t][x][a]
                    ),
                )
                for a in range(len(actions))
            )
            for x in range(len(states))
        )
        for t in range(horizon)
    )
    c = doc["cost"]
    cost = AffineCost(
        tuple(
            tuple(tuple(parse_scalar(v, mode) for v in by_x) for by_x in by_t)
            for by_t in c["running_base"]
        ),
        tuple(
            tuple(
                tuple(tuple(parse_scalar(v, mode) for v in by_a) for by_a in by_x)
                for by_x in by_t
            )
            for by_t in c["running_coef"]
        ),
        tuple(parse_scalar(v, mode) for v in c["terminal_base"]),
        tuple(
            tuple(parse_scalar(v, mode) for v in row) for row in c["terminal_coef"]
        ),
    )
    return GameSpec(horizon, states, actions, ThresholdTransition(rows), cost, mode)


# ---------------------------------------------------------------------------
# strategies, flows, profiles


def strategy_to_json(s: RestrictedStrategy, game: GameSpec) -> list:
    return [[game.actions.labels[a] for a in row] for row in s.actions]


def strategy_from_json(doc, game: GameSpec) -> RestrictedStrategy:
    """Table [t][x] of action labels; refuses any shape but horizon x |X|."""
    rows, width = game.horizon, len(game.states)
    if not isinstance(doc, list) or len(doc) != rows or any(
        not isinstance(row, list) or len(row) != width for row in doc
    ):
        raise ValueError(
            f"strategy table must have {rows} rows (one per time) of {width} "
            "action labels (one per state)"
        )
    idx = game.actions.index
    return RestrictedStrategy(tuple(tuple(idx(lbl) for lbl in row) for row in doc))


def _trajectory_to_json(flow: FlowTrajectory) -> list:
    return [[scalar_json(w) for w in pv.weights] for pv in flow.measures]


def _trajectory_from_json(doc, game: GameSpec) -> FlowTrajectory:
    """Measures at t = 0..T; refuses any other count."""
    if not isinstance(doc, list) or len(doc) != game.horizon + 1:
        raise ValueError(f"flow must have {game.horizon + 1} measures (one per time)")
    mode = game.arithmetic
    return FlowTrajectory(
        tuple(
            ProbabilityVector(
                game.states, tuple(parse_scalar(w, mode) for w in row), mode
            )
            for row in doc
        )
    )


def flow_to_json(rho: CorrelatedFlow, game: GameSpec) -> dict:
    return {
        "atoms": [
            {
                "weight": scalar_json(w),
                "strategy": strategy_to_json(s, game),
                "flow": _trajectory_to_json(flow),
            }
            for s, flow, w in rho.atoms
        ]
    }


def flow_from_json(doc: dict, game: GameSpec) -> CorrelatedFlow:
    mode = game.arithmetic
    atoms = tuple(
        (
            strategy_from_json(a["strategy"], game),
            _trajectory_from_json(a["flow"], game),
            parse_scalar(a["weight"], mode),
        )
        for a in doc["atoms"]
    )
    return CorrelatedFlow(atoms)


def profile_to_json(profile: CorrelatedProfile, game: GameSpec) -> dict:
    if isinstance(profile, ExplicitProfile):
        return {
            "explicit": [
                {
                    "weight": scalar_json(w),
                    "strategies": [strategy_to_json(s, game) for s in vec],
                }
                for vec, w in profile.atoms
            ]
        }
    return {
        "factored": {
            "n_players": profile.n_players,
            "flows": [
                {"weight": scalar_json(w), "flow": _trajectory_to_json(f)}
                for f, w in zip(profile.flows, profile.flow_weights)
            ],
            "conditionals": [
                [
                    {"weight": scalar_json(w), "strategy": strategy_to_json(s, game)}
                    for s, w in cond
                ]
                for cond in profile.conditionals
            ],
        }
    }


def profile_from_json(
    doc: dict, game: GameSpec, n_players: Optional[int] = None
) -> CorrelatedProfile:
    mode = game.arithmetic
    if "explicit" in doc:
        atoms = tuple(
            (
                tuple(strategy_from_json(s, game) for s in a["strategies"]),
                parse_scalar(a["weight"], mode),
            )
            for a in doc["explicit"]
        )
        if not atoms:
            raise ValueError("explicit profile needs at least one atom")
        n = n_players if n_players is not None else len(atoms[0][0])
        return ExplicitProfile(n, atoms)
    if "factored" in doc:
        body = doc["factored"]
        n = n_players if n_players is not None else int(body["n_players"])
        flows = tuple(_trajectory_from_json(f["flow"], game) for f in body["flows"])
        weights = tuple(parse_scalar(f["weight"], mode) for f in body["flows"])
        conds = tuple(
            tuple(
                (strategy_from_json(c["strategy"], game), parse_scalar(c["weight"], mode))
                for c in cond
            )
            for cond in body["conditionals"]
        )
        return FactoredProfile(n, flows, weights, conds)
    raise ValueError("profile document needs an 'explicit' or 'factored' key")


def measure_from_text(text: str, game: GameSpec) -> ProbabilityVector:
    """Comma-separated weights over the game's states, e.g. '1/2,1/2'."""
    parts = [p for p in text.split(",") if p.strip()]
    mode = game.arithmetic
    weights = tuple(parse_scalar(p.strip(), mode) for p in parts)
    return ProbabilityVector(game.states, weights, mode)


def common_initial_measure(rho: CorrelatedFlow) -> ProbabilityVector:
    """The shared time-0 measure of all atoms; refuses disagreeing flows."""
    first = rho.atoms[0][1].measures[0]
    for _, flow, _ in rho.atoms[1:]:
        if flow.measures[0].weights != first.weights:
            raise ValueError("atoms disagree at time 0; pass the initial law explicitly")
    return first
