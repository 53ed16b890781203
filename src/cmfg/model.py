"""Finite-state game model with exact-rational and float64 arithmetic.

The model is a finite-horizon anonymous game: a finite state space X, a finite
action space, a transition kernel that is affine in the population measure
(realized through a threshold coupling against uniform noise), and stage costs
that are affine in the population measure.  Every numeric object carries an
arithmetic mode, either ``exact`` (``fractions.Fraction``) or ``float``
(float64); mixing modes inside one operation is an error.  `Arithmetic` holds
the rules that differ between the two modes.

Inputs are validated at the edge: the dataclasses check shapes, signs, mass
and modes once, when they are built.  The ``raw_*`` methods of `GameSpec`
are its evaluation API: kernel rows and costs on plain weight tuples, with
no check, as the engines use them inside their loops.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

Scalar = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"

FLOAT_TOL = 1e-9        # float-mode tolerance for equality checks
FLOAT_SUM_TOL = 1e-12   # float-mode tolerance for probability mass

DEFAULT_STRATEGY_CAP = 4096
DEFAULT_JOINT_CAP = 4096
DEFAULT_ATOM_CAP = 4096
DEFAULT_LP_CAP = 65536
DEFAULT_OT_CAP = 10_000


class CapacityError(RuntimeError):
    """Raised when an enumeration or state-space bound would be exceeded."""


@dataclass(frozen=True)
class Arithmetic:
    """The rules of one arithmetic mode.

    ``ratio(c, n)`` is c/n as a Fraction or as a float division, ``tol`` the
    tolerance of equality checks and ``mass_tol`` that of total probability
    mass; both tolerances are 0 in exact mode.
    """

    mode: str
    scalar: type
    ratio: Callable[[Scalar, int], Scalar]
    tol: Scalar
    mass_tol: Scalar

    def check_mass(self, weights: Sequence[Scalar], what: str, *, positive=False) -> None:
        """Weights must be nonnegative (positive if asked) with total mass one."""
        for i, w in enumerate(weights):
            if w < 0 or (positive and not w):
                sign = "positive" if positive else "nonnegative"
                raise ValueError(f"{what} weight {w} at index {i} is not {sign}")
        total = sum(weights)
        if not abs(total - 1) <= self.mass_tol:
            raise ValueError(f"{self.mode} {what} weights sum to {total}, not 1")


_ARITHMETIC = {
    EXACT: Arithmetic(EXACT, Fraction, Fraction, Fraction(0), Fraction(0)),
    FLOAT: Arithmetic(FLOAT, float, operator.truediv, FLOAT_TOL, FLOAT_SUM_TOL),
}


def arith(mode: str) -> Arithmetic:
    """The rules of a mode; unknown modes are rejected."""
    try:
        return _ARITHMETIC[mode]
    except (KeyError, TypeError):
        raise ValueError(f"unknown arithmetic mode {mode!r}") from None


def arith_of(weights: Iterable[Scalar]) -> Arithmetic:
    """Float rules if any weight is a float, exact rules otherwise."""
    return _ARITHMETIC[FLOAT if any(isinstance(w, float) for w in weights) else EXACT]


def coerce_scalar(value, mode: str) -> Scalar:
    """Coerce a number into the given mode; cross-mode values are rejected."""
    kind = arith(mode).scalar
    if isinstance(value, kind):
        return value
    if isinstance(value, int):
        return kind(value)
    raise ValueError(
        f"{mode} mode requires {kind.__name__} or int, got {type(value).__name__}"
    )


def zero(mode: str) -> Scalar:
    return arith(mode).scalar(0)


@dataclass(frozen=True)
class FiniteSpace:
    """Ordered set of distinct labels; the order defines the index bijection."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("a finite space needs at least one label")
        if not all(isinstance(l, str) for l in self.labels):
            raise ValueError("labels must be strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"label {label!r} not in space {self.labels}") from None


@dataclass(frozen=True)
class ProbabilityVector:
    """Measure on a FiniteSpace: nonnegative weights with total mass one.

    In exact mode the mass constraint is literal; in float mode the total may
    deviate from 1 by at most ``FLOAT_SUM_TOL``.
    """

    space: FiniteSpace
    weights: tuple[Scalar, ...]
    mode: str

    def __post_init__(self):
        if len(self.weights) != len(self.space):
            raise ValueError("weight count does not match space size")
        object.__setattr__(
            self, "weights", tuple(coerce_scalar(w, self.mode) for w in self.weights)
        )
        arith(self.mode).check_mass(self.weights, "measure")

    @staticmethod
    def uniform(space: FiniteSpace, mode: str) -> "ProbabilityVector":
        d = len(space)
        return ProbabilityVector(space, (arith(mode).ratio(1, d),) * d, mode)

    def __getitem__(self, index: int) -> Scalar:
        return self.weights[index]


def _require_same_frame(m: ProbabilityVector, n: ProbabilityVector) -> None:
    if m.space.labels != n.space.labels:
        raise ValueError("measures live on different spaces")
    if m.mode != n.mode:
        raise ValueError(f"mixing arithmetic modes: {m.mode} vs {n.mode}")


def dist(m: ProbabilityVector, n: ProbabilityVector) -> Scalar:
    """Total-variation style metric: half the L1 distance between weights."""
    _require_same_frame(m, n)
    total = sum(abs(a - b) for a, b in zip(m.weights, n.weights))
    return arith(m.mode).ratio(total, 2)


@dataclass(frozen=True)
class FlowTrajectory:
    """A time-indexed path of measures m(0), ..., m(T)."""

    measures: tuple[ProbabilityVector, ...]

    def __post_init__(self):
        if not self.measures:
            raise ValueError("empty trajectory")
        first = self.measures[0]
        for m in self.measures[1:]:
            _require_same_frame(first, m)

    @property
    def mode(self) -> str:
        return self.measures[0].mode

    def __len__(self) -> int:
        return len(self.measures)

    def __getitem__(self, t: int) -> ProbabilityVector:
        return self.measures[t]


@dataclass(frozen=True)
class RestrictedStrategy:
    """Feedback rule (t, x) -> action index, the table of a Markov open-loop strategy."""

    actions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.actions:
            raise ValueError("strategy table must cover at least one period")
        width = len(self.actions[0])
        for row in self.actions:
            if len(row) != width:
                raise ValueError("ragged strategy table")
            for a in row:
                if not isinstance(a, int) or a < 0:
                    raise ValueError("actions must be nonnegative indices")

    def sort_key(self) -> tuple[int, ...]:
        # row-major flattening; tuple order gives the lexicographic order
        return tuple(a for row in self.actions for a in row)


@dataclass(frozen=True)
class AffineSimplexMap:
    """Row of an affine-in-measure kernel: a_i(m) = base_i + sum_y coef[i][y] m(y)."""

    base: tuple[Scalar, ...]
    coef: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        d = len(self.base)
        if len(self.coef) != d or any(len(row) != d for row in self.coef):
            raise ValueError("coef must be a d x d table matching base")

    def weights_at(self, m: Sequence[Scalar]) -> tuple[Scalar, ...]:
        return tuple(
            b + sum(c * w for c, w in zip(row, m) if c)
            for b, row in zip(self.base, self.coef)
        )

    def violations(self, mode: str) -> list[str]:
        """Messages for each violated simplex-map invariant (empty if valid)."""
        out = []
        tol = arith(mode).mass_tol
        total = sum(self.base)
        if abs(total - 1) > tol:
            out.append(f"base weights sum to {total}, not 1")
        for y in range(len(self.base)):
            col = sum(row[y] for row in self.coef)
            if abs(col) > tol:
                out.append(f"coef column y={y} sums to {col}, not 0")
        for i, (b, row) in enumerate(zip(self.base, self.coef)):
            for y, c in enumerate(row):
                if b + c < -tol:
                    out.append(f"negative value {b + c} at vertex y={y}, target i={i}")
        return out


@dataclass(frozen=True)
class ThresholdTransition:
    """Transition kernel rows indexed by (t, x, a)."""

    rows: tuple[tuple[tuple[AffineSimplexMap, ...], ...], ...]


@dataclass(frozen=True)
class AffineCost:
    """Stage costs affine in the measure, plus an affine terminal cost.

    running(t, x, m, a) = running_base[t][x][a] + sum_y running_coef[t][x][a][y] m(y)
    terminal(x, m)      = terminal_base[x] + sum_y terminal_coef[x][y] m(y)
    """

    running_base: tuple[tuple[tuple[Scalar, ...], ...], ...]
    running_coef: tuple[tuple[tuple[tuple[Scalar, ...], ...], ...], ...]
    terminal_base: tuple[Scalar, ...]
    terminal_coef: tuple[tuple[Scalar, ...], ...]


@dataclass(frozen=True)
class GameSpec:
    """Complete description of one anonymous mean-field game instance."""

    horizon: int
    states: FiniteSpace
    actions: FiniteSpace
    transition: ThresholdTransition
    cost: AffineCost
    arithmetic: str

    def __post_init__(self):
        arith(self.arithmetic)  # refuses an unknown mode
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        T, d, A = self.horizon, len(self.states), len(self.actions)
        if not _has_shape(self.transition.rows, (T, d, A)):
            raise ValueError("transition table shape does not match (T, |X|, |A|)")
        tables = self.tables()
        for part, shapes in self.table_shapes(T, d, A).items():
            for key, shape in shapes.items():
                if not _has_shape(tables[part][key], shape):
                    raise ValueError(f"{part}.{key} does not have shape {shape}")
        self._check_scalar_types(tables)

    def _check_scalar_types(self, tables: dict):
        want = arith(self.arithmetic).scalar

        def check(v):
            if not isinstance(v, want):
                raise ValueError(
                    f"{self.arithmetic} mode game contains {type(v).__name__} entry {v!r}"
                )

        map_nested(tables, check)

    @staticmethod
    def table_shapes(horizon: int, d: int, n_actions: int) -> dict:
        """The lengths of every table of `tables()`, nested the same way."""
        T, A = horizon, n_actions
        return {
            "transition": {"base": (T, d, A, d), "coef": (T, d, A, d, d)},
            "cost": {"running_base": (T, d, A), "running_coef": (T, d, A, d),
                     "terminal_base": (d,), "terminal_coef": (d, d)},
        }

    def tables(self) -> dict:
        """Every numeric table, indexed as in the document: transition base[t][x][a][i]
        and coef[t][x][a][i][y], then the cost tables by their field names."""
        rows = self.transition.rows
        return {
            "transition": {
                "base": tuple(tuple(tuple(r.base for r in by_a) for by_a in by_x) for by_x in rows),
                "coef": tuple(tuple(tuple(r.coef for r in by_a) for by_a in by_x) for by_x in rows),
            },
            "cost": vars(self.cost).copy(),
        }

    @staticmethod
    def from_tables(horizon, states, actions, tables: dict, arithmetic: str) -> "GameSpec":
        """The game whose `tables()` are the given ones."""
        tr = tables["transition"]
        rows = tuple(
            tuple(tuple(map(AffineSimplexMap, b_a, c_a)) for b_a, c_a in zip(b_x, c_x))
            for b_x, c_x in zip(tr["base"], tr["coef"])
        )
        cost = AffineCost(**tables["cost"])
        return GameSpec(horizon, states, actions, ThresholdTransition(rows), cost, arithmetic)

    def raw_kernel(self, t: int, x: int, m: Sequence[Scalar], a: int) -> tuple[Scalar, ...]:
        """Next-state weights from (t, x) under action a and measure weights m."""
        return self.transition.rows[t][x][a].weights_at(m)

    def raw_running_cost(self, t: int, x: int, m: Sequence[Scalar], a: int) -> Scalar:
        coef = self.cost.running_coef[t][x][a]
        return self.cost.running_base[t][x][a] + sum(c * w for c, w in zip(coef, m) if c)

    def raw_terminal_cost(self, x: int, m: Sequence[Scalar]) -> Scalar:
        coef = self.cost.terminal_coef[x]
        return self.cost.terminal_base[x] + sum(c * w for c, w in zip(coef, m) if c)

    def raw_step(
        self, t: int, law: Sequence[Scalar], actions: Sequence[int], m: Sequence[Scalar]
    ) -> tuple[Scalar, ...]:
        """One player's state law at t+1 from its law at t, playing actions[x]
        in state x against the frozen measure weights m."""
        nxt = [zero(self.arithmetic)] * len(law)
        for x, px in enumerate(law):
            if px:
                for y, k in enumerate(self.raw_kernel(t, x, m, actions[x])):
                    if k:
                        nxt[y] += px * k
        return tuple(nxt)

    def float_tables(self) -> dict:
        """`tables()` in floats; a number outside the float range is a
        ValueError that names its table."""
        out: dict = {}
        for group, by_name in self.tables().items():
            for name, table in by_name.items():
                try:
                    out.setdefault(group, {})[name] = map_nested(table, float)
                except OverflowError:
                    raise ValueError(
                        f"{group}.{name} holds a number outside the float range"
                    ) from None
        return out


def map_nested(node, fn: Callable, container: type = tuple):
    """The dicts and tuples of node rebuilt, tuples as container, with fn
    applied to every other value: the one walk over a game's `tables()`."""
    if isinstance(node, dict):
        return {k: map_nested(v, fn, container) for k, v in node.items()}
    if isinstance(node, tuple):
        return container(map_nested(v, fn, container) for v in node)
    return fn(node)


def scaled(x: Fraction, den: int) -> int:
    """x * den as an integer, for a multiple den of x's denominator."""
    return x.numerator * (den // x.denominator)


def require_ints(values: Sequence[int], what: str) -> None:
    """Refuse values that are not all Python ints, in one C-level pass over
    the types: a numpy integer, which would wrap around in exact pivots, is
    refused as well as a bool, a Fraction or a float."""
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"{what} must hold Python ints only")


def _has_shape(node, shape: tuple) -> bool:
    """Whether node nests tuples of the lengths in shape, with no tuple below."""
    if not shape:
        return not isinstance(node, tuple)
    return isinstance(node, tuple) and len(node) == shape[0] and all(
        _has_shape(v, shape[1:]) for v in node
    )


def categorical_pick(weights: Sequence[Scalar], z) -> int:
    """Index whose cumulative-weight interval (cum_{j-1}, cum_j] contains z.

    Zero-weight indices are never returned; the first positive interval also
    contains z = 0, and in float mode a cumulative sum that falls short of z
    by rounding yields the last positive index.
    """
    cum = 0
    last_positive = None
    for j, w in enumerate(weights):
        if w > 0:
            cum = cum + w
            last_positive = j
            if cum >= z:
                return j
    if last_positive is None:
        raise ValueError("no positive weight to sample from")
    return last_positive


def psi_sample(game: GameSpec, t: int, x: int, m: ProbabilityVector, a: int, z) -> int:
    """Threshold realization of the kernel: the state whose cumulative-weight
    interval (cum_{j-1}, cum_j] contains z; the first nonempty interval
    also contains z = 0."""
    if z < 0 or z > 1:
        raise ValueError(f"noise draw {z!r} outside [0, 1]")
    return categorical_pick(game.raw_kernel(t, x, m.weights, a), z)


def lipschitz_modulus(game: GameSpec) -> Scalar:
    """Diagnostic bound 2 * max |coef| on the measure-sensitivity of kernel rows."""
    coefs = (
        abs(c) for by_x in game.transition.rows for by_a in by_x for row in by_a
        for r in row.coef for c in r
    )
    return 2 * max(coefs, default=zero(game.arithmetic))


def enumerate_strategies(
    game: GameSpec, cap: int = DEFAULT_STRATEGY_CAP
) -> tuple[RestrictedStrategy, ...]:
    """All restricted strategies in lexicographic order of their flattened tables."""
    T, dx, da = game.horizon, len(game.states), len(game.actions)
    count = da ** (T * dx)
    if count > cap:
        raise CapacityError(
            f"strategy enumeration needs {count} strategies, cap is {cap}"
        )
    return tuple(
        RestrictedStrategy(tuple(flat[t * dx:(t + 1) * dx] for t in range(T)))
        for flat in itertools.product(range(da), repeat=T * dx)
    )


@dataclass(frozen=True)
class Violation:
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    lipschitz: Scalar


def validate_game(game: GameSpec) -> ValidationReport:
    """Check every kernel row's simplex-map invariants; never raises."""
    violations = []
    for t, by_x in enumerate(game.transition.rows):
        for x, by_a in enumerate(by_x):
            for a, row in enumerate(by_a):
                for msg in row.violations(game.arithmetic):
                    violations.append(Violation(f"transition[t={t}][x={x}][a={a}]", msg))
    return ValidationReport(not violations, tuple(violations), lipschitz_modulus(game))
