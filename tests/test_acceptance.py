"""Acceptance gate: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Criterion 6 splits into its two clauses: the trend clause holds,
while the strict-decay clause is unsatisfiable on this game (the lifted
profile is an exact equilibrium at every N, so every epsilon is exactly
zero and `0 < 0` fails); that clause is marked xfail(strict=True) so the
suite stays green while the gap remains on record.  A third criterion-6
test walks the exact curve from N=2 to N=8 on this example and on the
c1 = 3/32 one.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from cmfg import model
from cmfg.limits import convergence_report, epsilon_curve
from cmfg.mfg import DeviationMap, factor_flow, mkv_propagate, state_law
from cmfg.model import (
    EXACT,
    AffineSimplexMap,
    GameSpec,
    ProbabilityVector,
    enumerate_strategies,
    psi_sample,
)
from cmfg.nplayer import (
    ExplicitProfile,
    SimulationConfig,
    deviation_gain,
    exchangeability_check,
    mc_profile_cost,
    profile_cost_exact,
    solve_symmetric_ce,
    symmetrize,
)
from cmfg.two_state import (
    HOLD_MINUS,
    HOLD_MINUS_ONCE,
    HOLD_PLUS,
    HOLD_PLUS_ONCE,
    NEVER_HOLD,
    ExampleParams,
    build_example,
    verify_example,
)

HALF = (F(1, 2), F(1, 2))


def test_criterion_01_default_example_verifies_exactly(params):
    started = time.perf_counter()
    verdict = verify_example(params)
    elapsed = time.perf_counter() - started
    assert verdict.verdict == "solution"
    assert verdict.solution.is_solution
    assert verdict.solution.optimality.gap == 0
    assert verdict.solution.consistency.max_residual == 0
    assert verdict.v_plus.values[2] == (F(-5, 32), F(5, 32))
    assert verdict.v_plus_once.values[2] == (F(0), F(0))
    assert verdict.closed_forms_match
    assert elapsed < 1.0


def test_criterion_02_threshold_crossings_flip_verdict(params):
    started = time.perf_counter()
    for bad in (
        ExampleParams(beta=params.beta, c0=params.c0, c1=F(3, 32)),
        ExampleParams(beta=params.beta, c0=F(1, 8), c1=params.c1),
    ):
        verdict = verify_example(bad)
        assert verdict.verdict == "not_solution"
        opt = verdict.solution.optimality
        assert opt.gap > 0
        gains = {row.recommendation: row.gap for row in opt.rows}
        assert gains[HOLD_PLUS] > 0 and gains[HOLD_MINUS] > 0
        assert gains[NEVER_HOLD] == 0
        # consistency is untouched by the cost parameters
        assert verdict.solution.consistency.ok
    # raising only c1 leaves the one-step holders optimal
    tight_c1 = verify_example(
        ExampleParams(beta=params.beta, c0=params.c0, c1=F(3, 32))
    )
    c1_gains = {r.recommendation: r.gap for r in tight_c1.solution.optimality.rows}
    assert c1_gains[HOLD_PLUS_ONCE] == 0 and c1_gains[HOLD_MINUS_ONCE] == 0
    assert time.perf_counter() - started < 1.0


def test_criterion_03_state_law_table_exact(game, rho, m0):
    flow_of = {}
    for phi, flow, _ in rho.atoms:
        flow_of.setdefault(phi, flow)
    expected = {
        NEVER_HOLD: (HALF, HALF),
        HOLD_PLUS: ((F(5, 8), F(3, 8)), (F(21, 32), F(11, 32))),
        HOLD_PLUS_ONCE: ((F(5, 8), F(3, 8)), HALF),
        HOLD_MINUS: ((F(3, 8), F(5, 8)), (F(11, 32), F(21, 32))),
        HOLD_MINUS_ONCE: ((F(3, 8), F(5, 8)), HALF),
    }
    assert set(flow_of) == set(expected)
    for phi, (law1, law2) in expected.items():
        law = state_law(game, phi, flow_of[phi], m0)
        assert law[0].weights == HALF
        assert law[1].weights == law1
        assert law[2].weights == law2


def test_criterion_04_mkv_fixed_point(game, rho, m0):
    flows, _, conditionals = factor_flow(rho)
    assert len(flows) == 4
    for flow, conditional in zip(flows, conditionals):
        assert tuple(mkv_propagate(game, conditional, m0)) == tuple(flow)


def test_criterion_05_two_player_ce_solved_exactly(game, uniform_m0):
    started = time.perf_counter()
    profile = solve_symmetric_ce(game, 2, uniform_m0)
    for player in (0, 1):
        assert deviation_gain(game, profile, player, uniform_m0).epsilon == 0
    # cross-check: every recommendation against every one of the 16 deviations
    strategies = enumerate_strategies(game)
    for player in (0, 1):
        base = profile_cost_exact(
            game, profile, player, DeviationMap.identity(), uniform_m0
        )
        total_gain = F(0)
        recs = sorted({vec[player] for vec, _ in profile.atoms})
        for rec in recs:
            best = min(
                profile_cost_exact(
                    game, profile, player, DeviationMap.single(rec, psi), uniform_m0
                )
                for psi in strategies
            )
            total_gain += base - best
        assert total_gain == 0
    assert time.perf_counter() - started < 60.0


@pytest.fixture(scope="module")
def epsilon_experiment(game, rho, m0):
    cfg = SimulationConfig(master_seed=0, replications=10**5)
    started = time.perf_counter()
    exact_part = epsilon_curve(game, rho, m0, (2,), cfg, method="exact")
    mc_part = epsilon_curve(game, rho, m0, (5, 10, 25, 50), cfg, method="mc")
    rows = exact_part + mc_part
    return rows, time.perf_counter() - started


def test_criterion_06_epsilon_trend_nonincreasing(epsilon_experiment):
    rows, elapsed = epsilon_experiment
    assert [r.n_players for r in rows] == [2, 5, 10, 25, 50]
    assert rows[0].exact and rows[0].epsilon == 0
    for row in rows[1:]:
        assert row.method == "mc" and row.replications == 10**5
    upper = [float(r.epsilon) + 2 * (r.stderr or 0.0) for r in rows]
    nonincreasing = sum(b <= a for a, b in zip(upper, upper[1:]))
    assert nonincreasing >= 3
    assert elapsed < 180.0


@pytest.mark.xfail(
    strict=True,
    reason="the lifted profile is an exact equilibrium at every N here, so "
    "epsilon_50 and epsilon_2 are both exactly zero and strict decay "
    "below the two-player value is impossible",
)
def test_criterion_06_epsilon_strict_decay(epsilon_experiment):
    rows, _ = epsilon_experiment
    first, last = rows[0], rows[-1]
    assert float(last.epsilon) + 2 * (last.stderr or 0.0) < float(first.epsilon)


def test_criterion_06_exact_epsilon_curve_to_eight_players(params, game, rho, m0):
    """The exact engine walks the whole curve from N=2 to N=8: epsilon is
    exactly 0 at every N on the default example, whose lift is an exact
    equilibrium, and exactly 5/2048 on the c1 = 3/32 example."""
    cfg = SimulationConfig(master_seed=0, replications=1)
    hot = build_example(ExampleParams(beta=params.beta, c0=params.c0, c1=F(3, 32)))
    for (g, r, m), want in (((game, rho, m0), F(0)), (hot, F(5, 2048))):
        curve = epsilon_curve(g, r, m, range(2, 9), cfg, method="exact")
        assert [(row.n_players, row.method) for row in curve] == [
            (n, "exact") for n in range(2, 9)
        ]
        assert all(type(row.epsilon) is F and row.epsilon == want for row in curve)


def test_criterion_07_empirical_flow_w1_decreases(game, rho, m0):
    rows = convergence_report(
        game, rho, m0, (5, 20, 50), SimulationConfig(master_seed=0, replications=200)
    )
    w1 = [float(r.w1) for r in rows]
    assert w1[0] > w1[1] > w1[2] > 0
    reruns = [
        convergence_report(
            game, rho, m0, (50,), SimulationConfig(master_seed=s, replications=200)
        )[0].w1
        for s in (1, 2)
    ]
    assert abs(float(reruns[0]) - float(reruns[1])) < 0.05


def _preimage_measures(game, t, x, m, a):
    """Lengths of the uniform-draw intervals psi_sample maps to each state."""
    cuts = [F(0)]
    for w in game.raw_kernel(t, x, m.weights, a):
        if w:
            cuts.append(cuts[-1] + w)
    measures = {}
    for lo, hi in zip(cuts, cuts[1:]):
        state = psi_sample(game, t, x, m, a, (lo + hi) / 2)
        assert psi_sample(game, t, x, m, a, hi) == state
        measures[state] = measures.get(state, F(0)) + (hi - lo)
    return measures


def test_criterion_08_psi_preimages_match_kernel(game):
    sensitive_row = AffineSimplexMap(
        base=(F(1, 4), F(3, 4)), coef=((F(1, 4), F(0)), (F(-1, 4), F(0)))
    )
    sensitive = GameSpec(
        game.horizon,
        game.states,
        game.actions,
        model.ThresholdTransition(
            tuple(
                tuple(tuple(sensitive_row for _ in by_a) for by_a in by_x)
                for by_x in game.transition.rows
            )
        ),
        game.cost,
        EXACT,
    )
    rnd = random.Random(8)
    for trial in range(10**4):
        g = game if trial % 2 == 0 else sensitive
        t = rnd.randrange(g.horizon)
        x = rnd.randrange(len(g.states))
        a = rnd.randrange(len(g.actions))
        n1 = rnd.randint(0, 12)
        n2 = rnd.randint(0 if n1 else 1, 12)
        m = ProbabilityVector(
            g.states, (F(n1, n1 + n2), F(n2, n1 + n2)), EXACT
        )
        row = g.raw_kernel(t, x, m.weights, a)
        expected = {i: w for i, w in enumerate(row) if w}
        assert _preimage_measures(g, t, x, m, a) == expected


def test_criterion_09_exchangeability_three_players(game, uniform_m0):
    base = ExplicitProfile(
        3,
        (
            ((HOLD_PLUS, NEVER_HOLD, NEVER_HOLD), F(1, 2)),
            ((HOLD_PLUS_ONCE, HOLD_MINUS, NEVER_HOLD), F(1, 2)),
        ),
    )
    profile = symmetrize(base)
    for t in (1, 2):
        report = exchangeability_check(game, profile, uniform_m0, t)
        assert report.ok
        assert report.rows  # every attainable empirical measure is listed
        for row in report.rows:
            assert row.worst_gap == 0
            assert sum(row.empirical) == 1


def test_criterion_10_mc_matches_exact_within_three_stderr(game, uniform_m0):
    strategies = enumerate_strategies(game)
    rnd = random.Random(10)
    hits = 0
    for i in range(10):
        n = rnd.choice((2, 3))
        atoms = {}
        for _ in range(rnd.randint(1, 3)):
            vec = tuple(rnd.choice(strategies) for _ in range(n))
            atoms[vec] = atoms.get(vec, 0) + rnd.randint(1, 5)
        total = sum(atoms.values())
        profile = ExplicitProfile(
            n, tuple((vec, F(k, total)) for vec, k in atoms.items())
        )
        player = rnd.randrange(n)
        if rnd.random() < 0.5:
            u = DeviationMap.identity()
        else:
            u = DeviationMap.single(rnd.choice(strategies), rnd.choice(strategies))
        exact = profile_cost_exact(game, profile, player, u, uniform_m0)
        cfg = SimulationConfig(master_seed=100 + i, replications=10**5)
        mean, stderr = mc_profile_cost(game, profile, player, u, uniform_m0, cfg)
        if stderr > 0:
            hits += abs(mean - float(exact)) <= 3 * stderr
        else:
            hits += mean == float(exact)
    assert hits >= 9
    assert not math.isnan(mean)
