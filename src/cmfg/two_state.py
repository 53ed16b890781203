"""The two-state benchmark family with a known correlated-solution construction.

States are {+1, -1} (in that index order) over horizon 2, actions {0, 1} where
action 1 ("hold") cuts the switch probability from 1/2 to 1/4 at a price.
The family is parametrized by positive weights beta_1..beta_4 with
sum = 1/2 plus action prices c0 (paid at t=0) and c1 (paid at t=1); running
and terminal costs also pay -x * mean(m), rewarding alignment with the crowd.

For parameters satisfying the balance equation

    (5 b1 + 4 b2) / (8 (b1 + b2)) = (5 b3 + 4 b4) / (8 (b3 + b4))

the eight-atom correlated flow built here is consistent, and it is optimal
exactly when c1 < 5 b1 / (32 (b1 + b2)) and c0 < b1 / (8 (b1 + b2)).
The correlation shows in the NEVER_HOLD atoms: given that recommendation
the flow is still random, with weights b2, b2, b4, b4 over 2 (b2 + b4) on
four flows; when b2 = b4 = 0 nobody is told to stay passive.
Everything is constructed in exact arithmetic; a float copy is read through
`io.game_from_json` from a game document whose arithmetic is "float".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .mfg import (
    CorrelatedFlow,
    DpResult,
    SolutionVerdict,
    dp_best_response,
    verify_solution,
)
from .model import (
    EXACT,
    AffineCost,
    AffineSimplexMap,
    FiniteSpace,
    FlowTrajectory,
    GameSpec,
    ProbabilityVector,
    RestrictedStrategy,
    ThresholdTransition,
)

STATES = FiniteSpace(("1", "-1"))
ACTIONS = FiniteSpace(("0", "1"))

# hold at +1 every period / only at t=0; mirrored; never hold
HOLD_PLUS = RestrictedStrategy(((1, 0), (1, 0)))
HOLD_PLUS_ONCE = RestrictedStrategy(((1, 0), (0, 0)))
HOLD_MINUS = RestrictedStrategy(((0, 1), (0, 1)))
HOLD_MINUS_ONCE = RestrictedStrategy(((0, 1), (0, 0)))
NEVER_HOLD = RestrictedStrategy(((0, 0), (0, 0)))


@dataclass(frozen=True)
class ExampleParams:
    beta: tuple[Fraction, Fraction, Fraction, Fraction]
    c0: Fraction
    c1: Fraction

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(Fraction(b) for b in self.beta))
        object.__setattr__(self, "c0", Fraction(self.c0))
        object.__setattr__(self, "c1", Fraction(self.c1))
        b1, b2, b3, b4 = self.beta
        if b1 <= 0 or b3 <= 0 or b2 < 0 or b4 < 0:
            raise ValueError("beta_1, beta_3 must be positive; beta_2, beta_4 nonnegative")
        if self.c0 <= 0 or self.c1 <= 0:
            raise ValueError("c0 and c1 must be positive")
        if sum(self.beta) != Fraction(1, 2):
            raise ValueError(f"beta weights sum to {sum(self.beta)}, not 1/2")
        lhs = Fraction(5 * b1 + 4 * b2, 1) / (8 * (b1 + b2))
        rhs = Fraction(5 * b3 + 4 * b4, 1) / (8 * (b3 + b4))
        if lhs != rhs:
            raise ValueError(
                "balance equation violated: "
                f"(5b1+4b2)/(8(b1+b2)) = {lhs} but (5b3+4b4)/(8(b3+b4)) = {rhs}"
            )

    @staticmethod
    def from_alpha(alpha: Fraction, c0: Fraction, c1: Fraction) -> "ExampleParams":
        alpha = Fraction(alpha)
        if not 0 < alpha < 1:
            raise ValueError("alpha must lie strictly between 0 and 1")
        return ExampleParams(
            (alpha / 4, alpha / 4, (1 - alpha) / 4, (1 - alpha) / 4), c0, c1
        )

    @property
    def hold_share(self) -> Fraction:
        """q = beta_1 / (beta_1 + beta_2), the holders' share in the + flow."""
        b1, b2, _, _ = self.beta
        return b1 / (b1 + b2)

    @property
    def c1_threshold(self) -> Fraction:
        return 5 * self.hold_share / 32

    @property
    def c0_threshold(self) -> Fraction:
        return self.hold_share / 8


def _measure(p1: Fraction) -> ProbabilityVector:
    return ProbabilityVector(STATES, (p1, 1 - p1), EXACT)


def _mirror(m: ProbabilityVector) -> ProbabilityVector:
    return ProbabilityVector(STATES, (m.weights[1], m.weights[0]), EXACT)


def example_flows(p: ExampleParams):
    """(m0, m1+, m2+, m1-, m2-) closed forms."""
    b1, b2, _, _ = p.beta
    m0 = ProbabilityVector.uniform(STATES, EXACT)
    m1p = _measure(Fraction(5 * b1 + 4 * b2, 1) / (8 * (b1 + b2)))
    m2p = _measure(Fraction(21 * b1 + 16 * b2, 1) / (32 * (b1 + b2)))
    return m0, m1p, m2p, _mirror(m1p), _mirror(m2p)


def build_game(p: ExampleParams) -> GameSpec:
    f0, f1 = Fraction(0), Fraction(1)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    zero_coef = ((f0, f0), (f0, f0))

    def row(p_stay_plus: Fraction) -> AffineSimplexMap:
        return AffineSimplexMap((p_stay_plus, 1 - p_stay_plus), zero_coef)

    per_t = (
        (row(half), row(3 * quarter)),   # x = +1: free, hold
        (row(half), row(quarter)),       # x = -1: free, hold
    )
    transition = ThresholdTransition((per_t, per_t))

    zero_row = (f0, f0)
    align_plus = (-f1, f1)    # -x * mean(m) for x = +1
    align_minus = (f1, -f1)
    cost = AffineCost(
        running_base=(((f0, p.c0), (f0, p.c0)), ((f0, p.c1), (f0, p.c1))),
        running_coef=(
            ((zero_row, zero_row), (zero_row, zero_row)),
            ((align_plus, align_plus), (align_minus, align_minus)),
        ),
        terminal_base=(f0, f0),
        terminal_coef=(align_plus, align_minus),
    )
    return GameSpec(2, STATES, ACTIONS, transition, cost, EXACT)


def build_example(p: ExampleParams):
    """Returns (game, rho, m0) with the eight-atom correlated flow."""
    game = build_game(p)
    m0, m1p, m2p, m1m, m2m = example_flows(p)
    flow_plus = FlowTrajectory((m0, m1p, m2p))
    flow_plus_once = FlowTrajectory((m0, m1p, m0))
    flow_minus = FlowTrajectory((m0, m1m, m2m))
    flow_minus_once = FlowTrajectory((m0, m1m, m0))
    b1, b2, b3, b4 = p.beta
    raw = [
        (HOLD_PLUS, flow_plus, b1),
        (NEVER_HOLD, flow_plus, b2),
        (HOLD_PLUS_ONCE, flow_plus_once, b3),
        (NEVER_HOLD, flow_plus_once, b4),
        (HOLD_MINUS, flow_minus, b1),
        (NEVER_HOLD, flow_minus, b2),
        (HOLD_MINUS_ONCE, flow_minus_once, b3),
        (NEVER_HOLD, flow_minus_once, b4),
    ]
    rho = CorrelatedFlow(tuple(a for a in raw if a[2] > 0))
    return game, rho, m0


def closed_form_values(p: ExampleParams):
    """The hand-derived value tables (V_plus, V_plus_once) as [t][x] arrays.

    V_plus rows for t = 0 substitute the hold branch at (1, +1) and are valid
    only when c1 <= 5q/32; rows for t >= 1 and the whole V_plus_once table
    hold for every parameter choice.
    """
    q = p.hold_share
    c0, c1 = p.c0, p.c1
    v2 = (-5 * q / 16, 5 * q / 16)
    v11 = min(-q / 4, c1 - q / 4 - 5 * q / 32)
    v1 = (v11, q / 4)
    d = 5 * q / 32 - c1
    v0 = (min(-d / 2, c0 - 3 * d / 4 - q / 8), min(-d / 2, c0 - d / 4 + q / 8))
    v_plus = (v0, v1, v2)

    vh1 = (min(-q / 4, c1 - q / 4), q / 4)
    vh0 = (min(Fraction(0), c0 - q / 8), min(Fraction(0), c0 + q / 8))
    v_plus_once = (vh0, vh1, (Fraction(0), Fraction(0)))
    return v_plus, v_plus_once


@dataclass(frozen=True)
class ExampleVerdict:
    params: ExampleParams
    verdict: str  # "solution" | "boundary" | "not_solution"
    solution: SolutionVerdict
    v_plus: DpResult
    v_plus_once: DpResult
    closed_forms_match: bool
    game: GameSpec
    rho: CorrelatedFlow

    @property
    def margins(self) -> tuple[Fraction, Fraction]:
        p = self.params
        return p.c0_threshold - p.c0, p.c1_threshold - p.c1


def verify_example(p: ExampleParams) -> ExampleVerdict:
    game, rho, m0 = build_example(p)
    sol = verify_solution(game, rho, m0)
    # beta_1, beta_3 > 0: the HOLD_PLUS and HOLD_PLUS_ONCE atoms carry the DP flows
    flows = {phi: flow for phi, flow, _ in rho.atoms}
    dp_plus = dp_best_response(game, flows[HOLD_PLUS])
    dp_once = dp_best_response(game, flows[HOLD_PLUS_ONCE])

    cf_plus, cf_once = closed_form_values(p)
    match = dp_once.values == cf_once and dp_plus.values[1:] == cf_plus[1:]
    if p.c1 <= p.c1_threshold:
        match = match and dp_plus.values[0] == cf_plus[0]

    if not sol.optimality.ok or not sol.consistency.ok:
        verdict = "not_solution"
    elif sol.optimality.has_tie:
        # a tie means some recommendation sits exactly on a threshold; the
        # construction is only proven optimal for strict inequalities
        verdict = "boundary"
    else:
        verdict = "solution"
    return ExampleVerdict(p, verdict, sol, dp_plus, dp_once, match, game, rho)

