"""The two-state crowd-seeking example: closed forms, thresholds, witnesses."""

from fractions import Fraction as F

import pytest

from cmfg.mfg import state_law, verify_solution
from cmfg.model import EXACT
from cmfg.two_state import (
    HOLD_MINUS,
    HOLD_MINUS_ONCE,
    HOLD_PLUS,
    HOLD_PLUS_ONCE,
    NEVER_HOLD,
    ExampleParams,
    build_example,
    build_game,
    closed_form_values,
    example_flows,
    verify_example,
)


DEFAULTS = ExampleParams(beta=(F(1, 8),) * 4, c0=F(1, 32), c1=F(1, 16))


class TestExampleParams:
    def test_beta_sum_enforced(self):
        with pytest.raises(ValueError):
            ExampleParams(beta=(F(1, 8), F(1, 8), F(1, 8), F(1, 4)), c0=F(1, 32), c1=F(1, 16))

    def test_balance_equation_enforced(self):
        with pytest.raises(ValueError):
            ExampleParams(
                beta=(F(1, 4), F(1, 8), F(1, 16), F(1, 16)), c0=F(1, 32), c1=F(1, 16)
            )

    def test_from_alpha_matches_direct_beta(self):
        assert ExampleParams.from_alpha(F(1, 2), F(1, 32), F(1, 16)) == DEFAULTS

    def test_alpha_range_enforced(self):
        for bad in (F(0), F(1), F(3, 2)):
            with pytest.raises(ValueError):
                ExampleParams.from_alpha(bad, F(1, 32), F(1, 16))

    def test_positive_costs_required(self):
        with pytest.raises(ValueError):
            ExampleParams(beta=(F(1, 8),) * 4, c0=F(0), c1=F(1, 16))

    def test_unbalanced_alpha_allowed(self):
        p = ExampleParams.from_alpha(F(1, 4), F(1, 32), F(1, 16))
        assert sum(p.beta) == F(1, 2)

    def test_thresholds(self):
        assert DEFAULTS.c0_threshold == F(1, 16)
        assert DEFAULTS.c1_threshold == F(5, 64)


class TestFlows:
    def test_pinned_measures(self):
        m0, m1p, m2p, _, _ = example_flows(DEFAULTS)
        assert m0.weights == (F(1, 2), F(1, 2))
        assert m1p.weights == (F(9, 16), F(7, 16))
        assert m2p.weights == (F(37, 64), F(27, 64))

    def test_minus_flows_mirror_plus(self):
        _, m1p, m2p, m1m, m2m = example_flows(DEFAULTS)
        assert m1m.weights == tuple(reversed(m1p.weights))
        assert m2m.weights == tuple(reversed(m2p.weights))

    def test_all_ten_state_laws(self):
        """Laws of the five named strategies at t = 1, 2 under their flows."""
        game, rho, m0 = build_example(DEFAULTS)
        flow_of = {}
        for phi, flow, _ in rho.atoms:
            flow_of.setdefault(phi, flow)
        half = (F(1, 2), F(1, 2))
        expected = {
            HOLD_PLUS: ((F(5, 8), F(3, 8)), (F(21, 32), F(11, 32))),
            HOLD_PLUS_ONCE: ((F(5, 8), F(3, 8)), half),
            HOLD_MINUS: ((F(3, 8), F(5, 8)), (F(11, 32), F(21, 32))),
            HOLD_MINUS_ONCE: ((F(3, 8), F(5, 8)), half),
            NEVER_HOLD: (half, half),
        }
        for phi, (law1, law2) in expected.items():
            law = state_law(game, phi, flow_of[phi], m0)
            assert law[0].weights == half
            assert law[1].weights == law1
            assert law[2].weights == law2


class TestBuildExample:
    def test_eight_atoms_with_uniform_initial(self):
        game, rho, m0 = build_example(DEFAULTS)
        assert len(rho.atoms) == 8
        assert m0.weights == (F(1, 2), F(1, 2))
        assert sum(w for _, _, w in rho.atoms) == 1
        assert game.arithmetic == EXACT
        assert game.horizon == 2

    def test_all_flows_start_at_m0(self):
        _, rho, m0 = build_example(DEFAULTS)
        assert all(flow[0].weights == m0.weights for _, flow, _ in rho.atoms)


class TestClosedForms:
    def test_terminal_values(self):
        v_plus, v_plus_once = closed_form_values(DEFAULTS)
        assert v_plus[2] == (F(-5, 32), F(5, 32))
        assert v_plus_once[2] == (F(0), F(0))

    def test_dp_tables_match_closed_forms(self):
        verdict = verify_example(DEFAULTS)
        assert verdict.closed_forms_match
        v_plus, v_plus_once = closed_form_values(DEFAULTS)
        assert tuple(verdict.v_plus.values) == v_plus
        assert tuple(verdict.v_plus_once.values) == v_plus_once

    def test_closed_forms_match_across_alphas(self):
        for alpha in (F(1, 4), F(3, 4)):
            p = ExampleParams.from_alpha(alpha, F(1, 32), F(1, 16))
            assert verify_example(p).closed_forms_match


class TestVerdicts:
    def test_defaults_are_a_solution(self):
        verdict = verify_example(DEFAULTS)
        assert verdict.verdict == "solution"
        assert verdict.solution.is_solution
        assert verdict.margins == (F(1, 32), F(1, 64))

    def test_interior_grid_is_solution(self):
        """Strictly inside both thresholds the verdict is always a solution."""
        c0_grid = (F(1, 64), F(1, 32), F(3, 64))
        c1_grid = (F(1, 32), F(1, 16), F(9, 128))
        for alpha in (F(1, 4), F(1, 2), F(3, 4)):
            for c0 in c0_grid:
                for c1 in c1_grid:
                    p = ExampleParams.from_alpha(alpha, c0, c1)
                    v = verify_example(p)
                    assert v.verdict == "solution", (alpha, c0, c1)
                    assert v.solution.optimality.gap == 0
                    assert v.solution.consistency.max_residual == 0

    def test_crossing_c1_flips_verdict(self):
        p = ExampleParams(beta=(F(1, 8),) * 4, c0=F(1, 32), c1=F(5, 64) + F(1, 64))
        assert verify_example(p).verdict == "not_solution"

    def test_crossing_c0_flips_verdict(self):
        p = ExampleParams(beta=(F(1, 8),) * 4, c0=F(1, 16) + F(1, 64), c1=F(1, 16))
        assert verify_example(p).verdict == "not_solution"

    def test_c0_violation_localized_at_first_hold(self):
        p = ExampleParams(beta=(F(1, 8),) * 4, c0=F(1, 8), c1=F(1, 16))
        v = verify_example(p)
        assert v.verdict == "not_solution"
        row = next(
            r
            for r in v.solution.optimality.rows
            if r.recommendation == HOLD_PLUS and r.gap > 0
        )
        # the profitable deviation stops paying the time-0 holding fee at x=+1
        assert row.best.actions[0][0] == 0
        assert row.best.actions[1] == HOLD_PLUS.actions[1]

    def test_boundary_reports_tie(self):
        p = ExampleParams(beta=(F(1, 8),) * 4, c0=F(1, 32), c1=F(5, 64))
        v = verify_example(p)
        assert v.verdict == "boundary"
        assert v.solution.optimality.gap == 0
        assert v.solution.optimality.has_tie

    def test_general_beta_threshold(self):
        # q = b1/(b1+b2) = 2/3 here, so c1 must stay below 5*q/32 = 5/48
        beta = (F(1, 4), F(1, 8), F(1, 12), F(1, 24))
        p = ExampleParams(beta=beta, c0=F(1, 32), c1=F(1, 10))
        assert p.c1_threshold == F(5, 48)
        assert verify_example(p).verdict == "solution"
        worse = ExampleParams(beta=beta, c0=F(1, 32), c1=F(5, 48) + F(1, 48))
        assert verify_example(worse).verdict == "not_solution"


class TestMixtureLawIdentity:
    def test_conditional_laws_reproduce_flows(self):
        """sum_phi rho1(phi|m) law(phi)[t] equals m[t] for every flow."""
        from cmfg.mfg import factor_flow

        game, rho, m0 = build_example(DEFAULTS)
        flows, _, conditionals = factor_flow(rho)
        for flow, cond in zip(flows, conditionals):
            for t in range(game.horizon + 1):
                mixed = [F(0), F(0)]
                for phi, w in cond:
                    law = state_law(game, phi, flow, m0)
                    for x in range(2):
                        mixed[x] += w * law[t][x]
                assert tuple(mixed) == flow[t].weights


def passive_flow_law(p):
    """The law of the flow given the passive recommendation NEVER_HOLD, read
    off rho's atoms: more than one flow shows that the mediator correlates
    the passive player's environment with the crowd's direction."""
    _, rho, _ = build_example(p)
    atoms = [(flow, w) for phi, flow, w in rho.atoms if phi == NEVER_HOLD]
    total = sum(w for _, w in atoms)
    return [(flow, w / total) for flow, w in atoms]


class TestWitness:
    def test_equal_betas_give_four_quarter_atoms(self):
        law = passive_flow_law(DEFAULTS)
        assert len({flow for flow, _ in law}) == 4
        assert all(w == F(1, 4) for _, w in law)

    def test_skewed_betas_give_pinned_weights(self):
        p = ExampleParams(
            beta=(F(3, 13), F(1, 4), F(3, 325), F(1, 100)), c0=F(1, 32), c1=F(1, 16)
        )
        weights = sorted((w for _, w in passive_flow_law(p)), reverse=True)
        assert weights == [F(25, 52), F(25, 52), F(1, 52), F(1, 52)]

    def test_zero_betas_degenerate(self):
        # beta_2 = beta_4 = 0: nobody is told to stay passive
        p = ExampleParams(beta=(F(1, 4), F(0), F(1, 4), F(0)), c0=F(1, 32), c1=F(1, 16))
        assert passive_flow_law(p) == []


class TestGameConstruction:
    def test_game_verifies_as_solution_end_to_end(self):
        game, rho, m0 = build_example(DEFAULTS)
        assert verify_solution(game, rho, m0).is_solution

    def test_build_game_matches_build_example(self):
        game = build_game(DEFAULTS)
        game2, _, _ = build_example(DEFAULTS)
        assert game == game2
