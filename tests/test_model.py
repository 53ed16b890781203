"""Core model types: spaces, measures, strategies, kernels, sampling."""

import json
import re
from contextlib import redirect_stderr
from dataclasses import replace
from fractions import Fraction as F
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfg import cli, io, limits, mfg, model, nplayer, transport, two_state
from cmfg.model import (
    EXACT,
    FLOAT,
    AffineSimplexMap,
    CapacityError,
    FiniteSpace,
    FlowTrajectory,
    ProbabilityVector,
    RestrictedStrategy,
    ThresholdTransition,
    categorical_pick,
    dist,
    enumerate_strategies,
    lipschitz_modulus,
    psi_sample,
    validate_game,
)

from oracles import dense_lp, random_game
from test_nplayer import float_via_io


# exact probability vectors: nonneg integers normalized by their sum
def simplex_fractions(size):
    return (
        st.lists(st.integers(0, 12), min_size=size, max_size=size)
        .filter(lambda ws: sum(ws) > 0)
        .map(lambda ws: tuple(F(w, sum(ws)) for w in ws))
    )


class TestFiniteSpace:
    def test_labels_and_index(self):
        sp = FiniteSpace(("a", "b", "c"))
        assert len(sp) == 3
        assert sp.index("b") == 1
        with pytest.raises(ValueError):
            sp.index("z")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            FiniteSpace(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FiniteSpace(())


class TestProbabilityVector:
    def test_exact_sum_enforced(self):
        sp = FiniteSpace(("x", "y"))
        ProbabilityVector(sp, (F(1, 3), F(2, 3)), EXACT)
        with pytest.raises(ValueError):
            ProbabilityVector(sp, (F(1, 3), F(1, 3)), EXACT)

    def test_negative_rejected(self):
        sp = FiniteSpace(("x", "y"))
        with pytest.raises(ValueError):
            ProbabilityVector(sp, (F(3, 2), F(-1, 2)), EXACT)

    def test_float_sum_tolerance(self):
        sp = FiniteSpace(("x", "y"))
        ProbabilityVector(sp, (0.5 + 1e-13, 0.5 - 1e-13), FLOAT)
        with pytest.raises(ValueError):
            ProbabilityVector(sp, (0.6, 0.5), FLOAT)

    def test_mode_of_entries_checked(self):
        sp = FiniteSpace(("x", "y"))
        with pytest.raises(ValueError):
            ProbabilityVector(sp, (0.5, 0.5), EXACT)

    @pytest.mark.parametrize("mode, kind", [(EXACT, F), (FLOAT, float)])
    def test_int_weights_take_the_mode(self, mode, kind):
        pv = ProbabilityVector(FiniteSpace(("x", "y")), (1, 0), mode)
        assert pv.weights == (1, 0)
        assert [type(w) for w in pv.weights] == [kind, kind]

    def test_uniform_and_its_float_copy(self):
        game = random_game(0, 3, 2, 1)
        u = ProbabilityVector.uniform(game.states, EXACT)
        assert u.weights == (F(1, 3),) * 3
        assert float_via_io(game, u).weights == (1 / 3, 1 / 3, 1 / 3)
        assert float_via_io(game, u) == ProbabilityVector.uniform(game.states, FLOAT)


class TestDist:
    def test_known_value(self):
        sp = FiniteSpace(("x", "y"))
        m = ProbabilityVector(sp, (F(3, 4), F(1, 4)), EXACT)
        n = ProbabilityVector(sp, (F(1, 4), F(3, 4)), EXACT)
        assert dist(m, n) == F(1, 2)
        assert dist(m, m) == 0

    def test_frame_mismatch_rejected(self):
        a = ProbabilityVector(FiniteSpace(("x", "y")), (F(1), F(0)), EXACT)
        b = ProbabilityVector(FiniteSpace(("u", "v")), (F(1), F(0)), EXACT)
        with pytest.raises(ValueError):
            dist(a, b)

    @given(simplex_fractions(3), simplex_fractions(3), simplex_fractions(3))
    def test_metric_axioms(self, wa, wb, wc):
        sp = FiniteSpace(("x", "y", "z"))
        a = ProbabilityVector(sp, wa, EXACT)
        b = ProbabilityVector(sp, wb, EXACT)
        c = ProbabilityVector(sp, wc, EXACT)
        assert dist(a, b) == dist(b, a) >= 0
        assert (dist(a, b) == 0) == (wa == wb)
        assert dist(a, c) <= dist(a, b) + dist(b, c)
        assert dist(a, b) <= 1


class TestCategoricalPick:
    def test_zero_maps_to_first_positive(self):
        assert categorical_pick((F(0), F(1, 2), F(1, 2)), F(0)) == 1

    def test_right_closed_boundaries(self):
        w = (F(1, 4), F(1, 4), F(1, 2))
        assert categorical_pick(w, F(1, 4)) == 0
        assert categorical_pick(w, F(1, 4) + F(1, 1000)) == 1
        assert categorical_pick(w, F(1, 2)) == 1
        assert categorical_pick(w, F(1)) == 2

    def test_zero_weight_never_selected(self):
        w = (F(1, 2), F(0), F(1, 2))
        grid = [F(k, 37) for k in range(38)]
        assert all(categorical_pick(w, z) != 1 for z in grid)

    def test_float_slack_falls_to_last_positive(self):
        assert categorical_pick((0.5, 0.5, 0.0), 1.0 - 1e-16) == 1
        # float rounding can push z past the last cumsum; fall back, never raise
        assert categorical_pick((0.3, 0.7 - 1e-12, 0.0), 1.0) == 1

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            categorical_pick((0.0, 0.0), 0.5)

    @given(
        st.lists(st.integers(0, 9), min_size=2, max_size=5).filter(lambda w: sum(w) > 0),
        st.integers(0, 1000),
    )
    def test_interval_measures_match_weights(self, raw, znum):
        total = sum(raw)
        w = tuple(F(v, total) for v in raw)
        z = F(znum, 1000)
        j = categorical_pick(w, z)
        assert w[j] > 0
        # z must lie in the half-open cell of j (left-closed only for the first
        # positive index, which also absorbs z = 0)
        cum = [sum(w[: k + 1]) for k in range(len(w))]
        lo = cum[j] - w[j]
        assert lo < z <= cum[j] or (z == lo == 0)


def psi_preimage_measures(game, t, x, m, a):
    """Black-box interval measure of each psi_sample preimage.

    Cuts [0,1] at every kernel cumsum, checks psi is constant on each cell
    (midpoint and right endpoint agree), and adds up cell lengths per state.
    """
    row = game.raw_kernel(t, x, m.weights, a)
    cums = (sum(row[: k + 1]) for k in range(len(row)))
    cuts = sorted({F(0), F(1), *cums})
    cuts = [c for c in cuts if 0 <= c <= 1]
    measures = [F(0)] * len(game.states)
    prev = cuts[0]
    for cut in cuts[1:]:
        mid = (prev + cut) / 2
        y = psi_sample(game, t, x, m, a, mid)
        assert psi_sample(game, t, x, m, a, cut) == y
        measures[y] += cut - prev
        prev = cut
    assert psi_sample(game, t, x, m, a, F(0)) == psi_sample(game, t, x, m, a, cuts[1] / 2)
    return tuple(measures)


class TestPsiKernelCoupling:
    @settings(max_examples=50)
    @given(simplex_fractions(2), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    def test_preimage_measures_equal_kernel(self, game, wm, t, x, a):
        m = ProbabilityVector(game.states, wm, EXACT)
        assert psi_preimage_measures(game, t, x, m, a) == game.raw_kernel(t, x, wm, a)

    def test_z_outside_unit_interval_rejected(self, game, m0):
        with pytest.raises(ValueError):
            psi_sample(game, 0, 0, m0, 0, F(3, 2))


class TestAffineSimplexMap:
    def test_weights_at(self):
        row = AffineSimplexMap(
            base=(F(1, 4), F(3, 4)), coef=((F(1, 4), F(0)), (F(-1, 4), F(0)))
        )
        assert row.weights_at((F(1), F(0))) == (F(1, 2), F(1, 2))
        assert row.weights_at((F(0), F(1))) == (F(1, 4), F(3, 4))

    @given(simplex_fractions(2))
    def test_simplex_preserved_inside(self, wm):
        row = AffineSimplexMap(
            base=(F(1, 4), F(3, 4)), coef=((F(1, 4), F(0)), (F(-1, 4), F(0)))
        )
        out = row.weights_at(wm)
        assert sum(out) == 1 and all(w >= 0 for w in out)
        assert row.violations(EXACT) == []

    def test_violations_flagged(self):
        bad = AffineSimplexMap(base=(F(1, 2), F(1, 4)), coef=((F(0),) * 2,) * 2)
        assert bad.violations(EXACT)


class TestGameSpec:
    def test_kernel_rows(self, game):
        u = ProbabilityVector.uniform(game.states, EXACT).weights
        hold = game.actions.index("1")
        free = game.actions.index("0")
        plus = game.states.index("1")
        minus = game.states.index("-1")
        assert game.raw_kernel(0, plus, u, hold) == (F(3, 4), F(1, 4))
        assert game.raw_kernel(1, plus, u, free) == (F(1, 2), F(1, 2))
        assert game.raw_kernel(0, minus, u, hold) == (F(1, 4), F(3, 4))

    def test_costs(self, game):
        sp = game.states
        m = (F(5, 8), F(3, 8))
        hold = game.actions.index("1")
        free = game.actions.index("0")
        plus, minus = sp.index("1"), sp.index("-1")
        assert game.raw_running_cost(0, plus, m, hold) == F(1, 32)
        assert game.raw_running_cost(0, plus, m, free) == 0
        # t >= 1 adds the crowd-seeking term -x * mean(m)
        assert game.raw_running_cost(1, plus, m, hold) == F(1, 16) - F(1, 4)
        assert game.raw_running_cost(1, minus, m, free) == F(1, 4)
        assert game.raw_terminal_cost(plus, m) == -F(1, 4)
        assert game.raw_terminal_cost(minus, m) == F(1, 4)

    def test_float_copy_through_io(self, game):
        # the float copy read through io holds float_tables()'s numbers
        fg = float_via_io(game)
        assert fg.arithmetic == FLOAT
        assert fg.tables() == game.float_tables()
        assert fg.raw_kernel(0, 0, (0.5, 0.5), 1) == (0.75, 0.25)

    def test_float_tables_name_a_table_beyond_the_float_range(self, game):
        huge = replace(game, cost=replace(game.cost, terminal_base=(F(10**400), F(0))))
        with pytest.raises(ValueError, match="cost.terminal_base"):
            huge.float_tables()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda g: replace(g, horizon=3),
            lambda g: replace(g, transition=ThresholdTransition(g.transition.rows[:1])),
            lambda g: replace(g, cost=replace(g.cost, running_coef=g.cost.running_coef[:1])),
            lambda g: replace(g, cost=replace(
                g.cost, terminal_coef=(g.cost.terminal_coef[0], g.cost.terminal_coef[1][:1]))),
            lambda g: replace(g, cost=replace(g.cost, terminal_base=((F(0),), F(0)))),
            lambda g: replace(g, cost=replace(g.cost, terminal_base=(0.5, F(0)))),
        ],
        ids=["horizon", "transition-steps", "running-coef-steps", "terminal-coef-row",
             "tuple-entry", "float-entry"],
    )
    def test_tables_of_wrong_shape_or_type_rejected(self, game, edit):
        with pytest.raises(ValueError):
            edit(game)

    def test_validate_game_ok(self, game):
        report = validate_game(game)
        assert report.ok and report.violations == ()
        assert report.lipschitz >= 0

    def test_validate_flags_bad_kernel(self, game):
        bad_row = AffineSimplexMap(base=(F(1, 2), F(1, 4)), coef=((F(0),) * 2,) * 2)
        rows = [[list(by_a) for by_a in by_x] for by_x in game.transition.rows]
        rows[0][0][0] = bad_row
        bad = model.ThresholdTransition(
            tuple(tuple(tuple(by_a) for by_a in by_x) for by_x in rows)
        )
        report = validate_game(
            model.GameSpec(
                game.horizon, game.states, game.actions, bad, game.cost, EXACT
            )
        )
        assert not report.ok
        assert any("t=0" in v.location for v in report.violations)

    def test_lipschitz_modulus_measures_coef(self, game):
        # kernels of this game ignore the measure entirely
        assert lipschitz_modulus(game) == 0
        row = AffineSimplexMap(
            base=(F(1, 4), F(3, 4)), coef=((F(1, 4), F(0)), (F(-1, 4), F(0)))
        )
        bent = model.ThresholdTransition(
            tuple(
                tuple(tuple(row for _ in by_a) for by_a in by_x)
                for by_x in game.transition.rows
            )
        )
        sensitive = model.GameSpec(
            game.horizon, game.states, game.actions, bent, game.cost, EXACT
        )
        assert lipschitz_modulus(sensitive) == F(1, 2)


class TestStrategies:
    def test_count_and_enumeration(self, game):
        strategies = enumerate_strategies(game)
        assert len(strategies) == 16
        assert len(set(strategies)) == 16
        keys = [s.actions for s in strategies]
        assert keys == sorted(keys)
        # tables of one shape order as their row-major flattenings do
        assert [sum(k, ()) for k in keys] == sorted(sum(k, ()) for k in keys)

    def test_strategy_index_roundtrip(self, game):
        # a strategy's index is its position in the enumeration, as in the
        # optimality rows and the CE variable names
        strategies = enumerate_strategies(game)
        for i, s in enumerate(strategies):
            assert strategies.index(s) == i
        assert enumerate_strategies(game) == strategies

    def test_cap_enforced(self, game):
        with pytest.raises(CapacityError):
            enumerate_strategies(game, cap=8)

    def test_action_lookup(self):
        # the table is indexed [t][x]
        phi = RestrictedStrategy(((1, 0), (0, 1)))
        assert phi.actions[0][0] == 1 and phi.actions[0][1] == 0
        assert phi.actions[1][1] == 1
        for bad in (((1, -1), (0, 0)), ((1, 0), (0, 1.0))):
            with pytest.raises(ValueError):
                RestrictedStrategy(bad)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            RestrictedStrategy(())

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            RestrictedStrategy(((1, 0), (0,)))


class TestFlowTrajectory:
    def test_distance_and_indexing(self, game):
        sp = game.states
        u = ProbabilityVector.uniform(sp, EXACT)
        d = ProbabilityVector(sp, (F(1), F(0)), EXACT)
        a = FlowTrajectory((u, u, u))
        b = FlowTrajectory((u, d, u))
        assert len(a) == len(b) == 3
        assert b[1] == d and b[2] == u
        assert [dist(a[t], b[t]) for t in range(3)] == [0, F(1, 2), 0]

    def test_mixed_modes_rejected(self, game):
        u = ProbabilityVector.uniform(game.states, EXACT)
        f = ProbabilityVector.uniform(game.states, FLOAT)
        with pytest.raises(ValueError):
            FlowTrajectory((u, f))


def _masses(k, mode, delta):
    """k weights of total mass 1 + delta."""
    share = F(1, k) if mode == EXACT else 1 / k
    return (share,) * (k - 1) + (share + delta,)


def _flat_flow(game, mode):
    return FlowTrajectory((ProbabilityVector.uniform(game.states, mode),) * (game.horizon + 1))


_HOLD = RestrictedStrategy(((1, 0), (1, 0)))
_IDLE = RestrictedStrategy(((0, 0), (0, 0)))

# every constructor or check that enforces unit mass, fed two (four) weights
MASS_SITES = {
    "ProbabilityVector": lambda game, mode, delta: ProbabilityVector(
        game.states, _masses(2, mode, delta), mode
    ),
    "ExplicitProfile": lambda game, mode, delta: nplayer.ExplicitProfile(
        2, tuple(zip(((_HOLD, _HOLD), (_IDLE, _IDLE)), _masses(2, mode, delta)))
    ),
    "FactoredProfile.flows": lambda game, mode, delta: nplayer.FactoredProfile(
        2, (_flat_flow(game, mode),) * 2, _masses(2, mode, delta),
        (((_HOLD, *_masses(1, mode, 0)),),) * 2,
    ),
    "FactoredProfile.conditionals": lambda game, mode, delta: nplayer.FactoredProfile(
        2, (_flat_flow(game, mode),), _masses(1, mode, 0),
        (tuple(zip((_HOLD, _IDLE), _masses(2, mode, delta))),),
    ),
    "CorrelatedFlow": lambda game, mode, delta: mfg.CorrelatedFlow(
        tuple((phi, _flat_flow(game, mode), w)
              for phi, w in zip((_HOLD, _IDLE), _masses(2, mode, delta)))
    ),
    "mkv_propagate": lambda game, mode, delta: mfg.mkv_propagate(
        game if mode == EXACT else float_via_io(game),
        tuple(zip((_HOLD, _IDLE), _masses(2, mode, delta))),
        ProbabilityVector.uniform(game.states, mode),
    ),
}


@pytest.mark.parametrize("site", sorted(MASS_SITES))
@pytest.mark.parametrize(
    "mode, delta, accepted",
    [(EXACT, F(0), True), (EXACT, F(1, 10 ** 9), False),
     (FLOAT, 1e-13, True), (FLOAT, 1e-11, False)],
    ids=["exact-unit", "exact-off-1e-9", "float-off-1e-13", "float-off-1e-11"],
)
def test_unit_mass_rule_is_shared(game, site, mode, delta, accepted):
    build = MASS_SITES[site]
    if accepted:
        build(game, mode, delta)
    else:
        with pytest.raises(ValueError, match="sum to"):
            build(game, mode, delta)


# every public request that takes an initial law, called on the example with
# a cheap configuration (N=2, a few replications); the count-chain walks take
# the laws that their request admitted, and check nothing
_CFG = nplayer.SimulationConfig(master_seed=0, replications=8)
INITIAL_LAW_SITES = {
    "mfg.state_law": lambda g, rho, m0: mfg.state_law(g, *rho.atoms[0][:2], m0),
    "mfg.optimality_gap": lambda g, rho, m0: mfg.optimality_gap(g, rho, m0),
    "mfg.consistency_check": lambda g, rho, m0: mfg.consistency_check(g, rho, m0),
    "mfg.verify_solution": lambda g, rho, m0: mfg.verify_solution(g, rho, m0),
    "mfg.mkv_propagate": lambda g, rho, m0: mfg.mkv_propagate(
        g, mfg.factor_flow(rho)[2][0], m0),
    "nplayer.profile_cost_exact": lambda g, rho, m0: nplayer.profile_cost_exact(
        g, limits.lift(rho, 2), 0, mfg.DeviationMap.identity(), m0),
    "nplayer.mc_profile_cost": lambda g, rho, m0: nplayer.mc_profile_cost(
        g, limits.lift(rho, 2), 0, mfg.DeviationMap.identity(), m0, _CFG),
    "nplayer.deviation_gain-exact": lambda g, rho, m0: nplayer.deviation_gain(
        g, limits.lift(rho, 2), 0, m0, "exact"),
    "nplayer.deviation_gain-mc": lambda g, rho, m0: nplayer.deviation_gain(
        g, limits.lift(rho, 2), 0, m0, "mc", _CFG),
    "nplayer.solve_symmetric_ce": lambda g, rho, m0: nplayer.solve_symmetric_ce(g, 2, m0),
    "nplayer.exchangeability_check": lambda g, rho, m0: nplayer.exchangeability_check(
        g, limits.lift(rho, 2), m0, 0),
    "limits.epsilon_curve-exact": lambda g, rho, m0: limits.epsilon_curve(
        g, rho, m0, (2,), _CFG, "exact"),
    "limits.epsilon_curve-mc": lambda g, rho, m0: limits.epsilon_curve(
        g, rho, m0, (2,), _CFG, "mc"),
    "limits.empirical_rho_n": lambda g, rho, m0: limits.empirical_rho_n(
        g, limits.lift(rho, 2), m0, _CFG),
    "limits.convergence_report": lambda g, rho, m0: limits.convergence_report(
        g, rho, m0, (2,), _CFG),
}

BAD_INITIAL_LAWS = {
    "raw-weights": (lambda g, m0: m0.weights, "product initial law"),
    "relabelled-states": (
        lambda g, m0: ProbabilityVector(FiniteSpace(("y0", "y1")), m0.weights, EXACT),
        "initial law lives on different states",
    ),
    "three-states": (
        lambda g, m0: ProbabilityVector.uniform(
            FiniteSpace((*g.states.labels, "x2")), EXACT),
        "initial law lives on different states",
    ),
    "other-mode": (
        lambda g, m0: ProbabilityVector.uniform(g.states, FLOAT), "mixing arithmetic modes"
    ),
}


@pytest.mark.parametrize("site", sorted(INITIAL_LAW_SITES))
@pytest.mark.parametrize("bad", sorted(BAD_INITIAL_LAWS))
def test_initial_law_rule_is_shared(game, rho, m0, site, bad):
    make, error = BAD_INITIAL_LAWS[bad]
    INITIAL_LAW_SITES[site](game, rho, m0)  # the example's own law is accepted
    with pytest.raises(ValueError, match=error):
        INITIAL_LAW_SITES[site](game, rho, make(game, m0))


def _cli(tmp, argv, **docs):
    """Runs cmfg with each document written to tmp and passed as --<name>;
    an exit 2 raises a ValueError with what the command printed."""
    paths = []
    for name, doc in docs.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths += [f"--{name}", str(path)]
    err = StringIO()
    with redirect_stderr(err):
        code = cli.run(cli.parse_args([*argv, *paths, "-o", str(tmp / "out")]))
    if code == 2:
        raise ValueError(err.getvalue())
    return code


# one refusal of each input check, with the message it gives, called on the
# example (g, rho, m0) and a scratch directory
REFUSALS = {
    "CorrelatedFlow-no-atoms": (
        lambda g, rho, m0, tmp: mfg.CorrelatedFlow(()), "at least one atom"),
    "CorrelatedFlow-mixed-modes": (
        lambda g, rho, m0, tmp: mfg.CorrelatedFlow(
            (float_via_io(g, rho).atoms[0], *rho.atoms[1:])),
        "atoms mix arithmetic modes"),
    "CorrelatedFlow-zero-weight": (
        lambda g, rho, m0, tmp: mfg.CorrelatedFlow(
            (*rho.atoms, (RestrictedStrategy(((1, 1), (1, 1))), rho.atoms[0][1], F(0)))),
        "atom weight 0 is not positive"),
    "mfg.optimality_gap-float-flow": (
        lambda g, rho, m0, tmp: mfg.optimality_gap(g, float_via_io(g, rho), m0),
        "mixing arithmetic modes: game exact, data float"),
    "mfg.mkv_propagate-empty-conditional": (
        lambda g, rho, m0, tmp: mfg.mkv_propagate(g, (), m0), "empty strategy conditional"),
    "ExplicitProfile-one-player": (
        lambda g, rho, m0, tmp: nplayer.ExplicitProfile(1, (((_HOLD,), F(1)),)),
        "need at least two players"),
    "FactoredProfile-one-player": (
        lambda g, rho, m0, tmp: nplayer.FactoredProfile(1, *mfg.factor_flow(rho)),
        "need at least two players"),
    "ExplicitProfile-no-atoms": (
        lambda g, rho, m0, tmp: nplayer.ExplicitProfile(2, ()), "at least one atom"),
    "FactoredProfile-misaligned": (
        lambda g, rho, m0, tmp: nplayer.FactoredProfile(2, *mfg.factor_flow(rho)[:2], ()),
        "flows, weights and conditionals must align"),
    "FactoredProfile-no-flows": (
        lambda g, rho, m0, tmp: nplayer.FactoredProfile(2, (), (), ()),
        "needs at least one flow"),
    "FactoredProfile-empty-conditional": (
        lambda g, rho, m0, tmp: nplayer.FactoredProfile(
            2, *mfg.factor_flow(rho)[:2], ((),) + mfg.factor_flow(rho)[2][1:]),
        "empty strategy conditional"),
    "SimulationConfig-no-replications": (
        lambda g, rho, m0, tmp: nplayer.SimulationConfig(0, 0),
        "need at least one replication"),
    "cli-epsilon-no-replications": (
        lambda g, rho, m0, tmp: _cli(
            tmp, ["nplayer", "epsilon", "--method", "mc", "--reps", "0"],
            game=io.game_to_json(g), profile=io.profile_to_json(limits.lift(rho, 2), g)),
        "need at least one replication"),
    "nplayer.deviation_gain-mc-no-config": (
        lambda g, rho, m0, tmp: nplayer.deviation_gain(g, limits.lift(rho, 2), 0, m0, "mc"),
        "Monte Carlo method needs a SimulationConfig"),
    "nplayer.deviation_gain-unknown-method": (
        lambda g, rho, m0, tmp: nplayer.deviation_gain(
            g, limits.lift(rho, 2), 0, m0, "bogus", _CFG),
        "unknown method 'bogus'"),
    "limits.epsilon_curve-unknown-method": (
        # no population size, so nothing else can refuse
        lambda g, rho, m0, tmp: limits.epsilon_curve(g, rho, m0, (), _CFG, "bogus"),
        "unknown method 'bogus'"),
    "nplayer.solve_symmetric_ce-float-game": (
        lambda g, rho, m0, tmp: nplayer.solve_symmetric_ce(
            float_via_io(g), 2, float_via_io(g, m0)),
        "the equilibrium LP needs exact arithmetic"),
    "cli-solve-ce-float-game": (
        lambda g, rho, m0, tmp: _cli(
            tmp, ["nplayer", "solve-ce", "-N", "2"], game=io.game_to_json(float_via_io(g))),
        "the equilibrium LP needs exact arithmetic"),
    "LinearProgram-objective-length": (
        lambda g, rho, m0, tmp: dense_lp(("a", "b"), (), (1,)),
        "objective length does not match variable count"),
    "solve_transport-empty-marginal": (
        lambda g, rho, m0, tmp: transport.solve_transport((), (1,), ()), "empty marginal"),
    "solve_transport-cost-shape": (
        lambda g, rho, m0, tmp: transport.solve_transport((1,), (1,), ((0, 0),)),
        "cost matrix shape mismatch"),
    "FiniteSpace-non-string-labels": (
        lambda g, rho, m0, tmp: FiniteSpace((0, 1)), "labels must be strings"),
    "FlowTrajectory-empty": (
        lambda g, rho, m0, tmp: FlowTrajectory(()), "empty trajectory"),
    "AffineSimplexMap-coef-shape": (
        lambda g, rho, m0, tmp: AffineSimplexMap((F(1),), ((F(0), F(0)),)),
        "coef must be a d x d table matching base"),
    "GameSpec-horizon-0": (
        lambda g, rho, m0, tmp: replace(g, horizon=0), "horizon must be at least 1"),
    "ExampleParams-negative-beta": (
        lambda g, rho, m0, tmp: two_state.ExampleParams(
            (F(3, 8), F(-1, 8), F(3, 8), F(-1, 8)), F(1, 32), F(1, 16)),
        "beta_2, beta_4 nonnegative"),
}


@pytest.mark.parametrize("site", sorted(REFUSALS))
def test_each_input_check_refuses_with_its_message(game, rho, m0, tmp_path, site):
    call, message = REFUSALS[site]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(game, rho, m0, tmp_path)
