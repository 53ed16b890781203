"""File formats: JSON for models and distributions, CSV for report tables.

Conventions
  * exact mode serializes every number as a string "p/q" (or "p" for whole
    numbers) and refuses non-integer JSON floats on input;
  * float mode serializes plain JSON numbers;
  * CSV cells print floats with 17 significant digits and carry an `exact`
    flag column wherever a value may be rational;
  * every writer is atomic: write to a temp file in the same directory, then
    rename over the target;
  * every reader checks shapes through one table reader: each nested list
    must have the lengths its horizon, states and actions give, a scalar
    where a list belongs (or the reverse) is refused, and integer fields
    (horizon, n_players) must be JSON integers.  Any such fault raises
    ValueError, which the command line reports with exit code 2.

Documents
  game:    {horizon, states: [labels], actions: [labels], transition: {base[t][x][a][i],
            coef[t][x][a][i][y]}, cost: {running_base[t][x][a],
            running_coef[t][x][a][y], terminal_base[x], terminal_coef[x][y]},
            arithmetic: "exact" | "float"}
  flow:    {atoms: [{weight, strategy: [t][x] action labels,
            flow: [T+1][x] weights}]}
  profile: {explicit: [{weight, strategies: [player][t][x] action labels]}}
        or {factored: {n_players, flows: [{weight, flow}],
            conditionals: [[{weight, strategy}]]}}
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from fractions import Fraction
from typing import Sequence

from .mfg import CorrelatedFlow
from .model import (
    EXACT,
    FiniteSpace,
    FlowTrajectory,
    GameSpec,
    ProbabilityVector,
    RestrictedStrategy,
    Scalar,
    arith,
    map_nested,
)
from .nplayer import CorrelatedProfile, ExplicitProfile, FactoredProfile


# ---------------------------------------------------------------------------
# scalars


def parse_scalar(value, mode: str) -> Scalar:
    """One number from JSON or a command line: an integer, a "p/q" string or,
    in float mode only, a JSON float; a float must be finite."""
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a number: {value!r}")
    elif mode == EXACT and isinstance(value, float):
        raise ValueError(f"exact mode requires integers or 'p/q' strings, got {value!r}")
    if mode == EXACT:
        return Fraction(value)
    try:
        out = float(value)
    except OverflowError:
        raise ValueError("number outside the float range") from None
    if not math.isfinite(out):
        raise ValueError(f"not a finite number: {out}")
    return out


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


# ---------------------------------------------------------------------------
# document shapes


def _table(doc, shape: tuple, leaf, error: str) -> tuple:
    """Nested tuples of leaf(entry) from nested JSON lists whose lengths are
    shape (None: any length); any other nesting raises ValueError(error).
    Each leaf parser refuses the values it cannot read, lists among them."""
    if not shape:
        return leaf(doc)
    if not isinstance(doc, list) or shape[0] not in (None, len(doc)):
        raise ValueError(error)
    return tuple(_table(entry, shape[1:], leaf, error) for entry in doc)


def _field(doc, key: str):
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object with key {key!r}, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"missing key {key!r}")
    return doc[key]


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def list_from_text(text: str, parse) -> tuple:
    """Comma-separated items, each read by parse, e.g. '1/2,1/2'; blank items are skipped."""
    values = tuple(parse(p.strip()) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


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


# ---------------------------------------------------------------------------
# games


def game_to_json(game: GameSpec) -> dict:
    return {
        "horizon": game.horizon,
        "states": list(game.states.labels),
        "actions": list(game.actions.labels),
        **map_nested(game.tables(), scalar_json, list),
        "arithmetic": game.arithmetic,
    }


def game_from_json(doc: dict) -> GameSpec:
    horizon = _integer(_field(doc, "horizon"), "horizon")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    states, actions = (
        FiniteSpace(_table(_field(doc, key), (None,), lambda v: v, f"{key} must be a label list"))
        for key in ("states", "actions")
    )
    mode = arith(doc.get("arithmetic", EXACT)).mode
    shapes = GameSpec.table_shapes(horizon, len(states), len(actions))
    tables = {
        part: {
            key: _table(
                _field(_field(doc, part), key), shape, lambda v: parse_scalar(v, mode),
                f"{part}.{key} must be a {' x '.join(map(str, shape))} table",
            )
            for key, shape in by_key.items()
        }
        for part, by_key in shapes.items()
    }
    return GameSpec.from_tables(horizon, states, actions, tables, mode)


# ---------------------------------------------------------------------------
# strategies, flows, profiles


def strategy_to_json(s: RestrictedStrategy, game: GameSpec) -> list:
    return [[game.actions.labels[a] for a in row] for row in s.actions]


def strategy_from_json(doc, game: GameSpec) -> RestrictedStrategy:
    """Table [t][x] of action labels; refuses any shape but horizon x |X|."""
    rows, width = game.horizon, len(game.states)
    return RestrictedStrategy(_table(
        doc, (rows, width), game.actions.index,
        f"strategy table must have {rows} rows (one per time) of {width} "
        "action labels (one per state)",
    ))


def _trajectory_to_json(flow: FlowTrajectory) -> list:
    return [[scalar_json(w) for w in pv.weights] for pv in flow.measures]


def _trajectory_from_json(doc, game: GameSpec) -> FlowTrajectory:
    """Measures at t = 0..T; refuses any other count."""
    mode, steps, d = game.arithmetic, game.horizon + 1, len(game.states)
    rows = _table(
        doc, (steps, d), lambda w: parse_scalar(w, mode),
        f"flow must have {steps} measures (one per time) of {d} weights (one per state)",
    )
    return FlowTrajectory(tuple(ProbabilityVector(game.states, row, mode) for row in rows))


def _weight(doc, game: GameSpec) -> Scalar:
    return parse_scalar(_field(doc, "weight"), game.arithmetic)


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
    return CorrelatedFlow(_table(
        _field(doc, "atoms"), (None,),
        lambda a: (
            strategy_from_json(_field(a, "strategy"), game),
            _trajectory_from_json(_field(a, "flow"), game),
            _weight(a, game),
        ),
        "flow atoms must be a list of objects",
    ))


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


def profile_from_json(doc: dict, game: GameSpec) -> CorrelatedProfile:
    if not isinstance(doc, dict) or not {"explicit", "factored"} & doc.keys():
        raise ValueError("profile document needs an 'explicit' or 'factored' key")
    if "explicit" in doc:
        atoms = _table(
            doc["explicit"], (None,),
            lambda a: (
                _table(_field(a, "strategies"), (None,),
                       lambda s: strategy_from_json(s, game), "strategies must be a list"),
                _weight(a, game),
            ),
            "explicit profile must be a list of atoms",
        )
        if not atoms:
            raise ValueError("explicit profile needs at least one atom")
        return ExplicitProfile(len(atoms[0][0]), atoms)
    body = doc["factored"]
    n = _integer(_field(body, "n_players"), "n_players")
    flows = _table(
        _field(body, "flows"), (None,),
        lambda f: (_trajectory_from_json(_field(f, "flow"), game), _weight(f, game)),
        "factored flows must be a list",
    )
    conds = _table(
        _field(body, "conditionals"), (len(flows), None),
        lambda c: (strategy_from_json(_field(c, "strategy"), game), _weight(c, game)),
        f"conditionals must be {len(flows)} lists, one per flow",
    )
    return FactoredProfile(n, tuple(f for f, _ in flows), tuple(w for _, w in flows), conds)


def measure_from_text(text: str, game: GameSpec) -> ProbabilityVector:
    """Comma-separated weights over the game's states, e.g. '1/2,1/2'."""
    mode = game.arithmetic
    weights = list_from_text(text, lambda p: parse_scalar(p, mode))
    return ProbabilityVector(game.states, weights, mode)


def common_initial_measure(rho: CorrelatedFlow) -> ProbabilityVector:
    """The shared time-0 measure of all atoms; refuses disagreeing flows."""
    first = rho.atoms[0][1].measures[0]
    for _, flow, _ in rho.atoms[1:]:
        if flow.measures[0].weights != first.weights:
            raise ValueError("atoms disagree at time 0; pass the initial law explicitly")
    return first
