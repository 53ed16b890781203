"""Lifting to N players, deviation-gain curves, empirical law convergence."""

from fractions import Fraction as F

import pytest

from cmfg import two_state
from cmfg.limits import (
    ConvergenceRow,
    EpsilonRow,
    convergence_report,
    empirical_rho_n,
    epsilon_curve,
    lift,
)
from cmfg.mfg import factor_flow
from cmfg.nplayer import SimulationConfig
from cmfg.transport import flow_space_distance
from oracles import expand
from test_nplayer import float_via_io


class TestLift:
    def test_fields_come_from_factorization(self, rho):
        prof = lift(rho, 5)
        flows, flow_weights, conditionals = factor_flow(rho)
        assert prof.n_players == 5
        assert prof.flows == flows
        assert prof.flow_weights == flow_weights
        assert prof.conditionals == conditionals

    def test_single_player_rejected(self, rho):
        with pytest.raises(ValueError):
            lift(rho, 1)

    def test_player_marginal_is_rho_marginal(self, game, rho):
        explicit = expand(lift(rho, 2))
        marg = {}
        for vec, w in explicit.atoms:
            marg[vec[0]] = marg.get(vec[0], F(0)) + w
        from_rho = {}
        for phi, _, w in rho.atoms:
            from_rho[phi] = from_rho.get(phi, F(0)) + w
        assert marg == from_rho


class TestEpsilonRow:
    def test_exact_property(self):
        row = EpsilonRow(2, F(0), None, None, 0.1, "exact")
        assert row.exact
        mc = EpsilonRow(5, 0.0, 0.0, 1000, 0.1, "mc")
        assert not mc.exact


class TestEpsilonCurve:
    def test_exact_two_player_point(self, game, rho, m0):
        cfg = SimulationConfig(master_seed=0, replications=100)
        (row,) = epsilon_curve(game, rho, m0, (2,), cfg, "exact")
        assert row.epsilon == 0
        assert row.method == "exact" and row.stderr is None

    def test_auto_prefers_exact_for_tiny_n(self, game, rho, m0):
        cfg = SimulationConfig(master_seed=0, replications=200)
        curve = epsilon_curve(game, rho, m0, (2, 3), cfg, "auto")
        assert [r.method for r in curve] == ["exact", "exact"]
        assert all(r.epsilon == 0 for r in curve)

    def test_auto_switches_to_mc_for_large_n(self, game, rho, m0):
        cfg = SimulationConfig(master_seed=0, replications=500)
        curve = epsilon_curve(game, rho, m0, (2, 20), cfg, "auto")
        assert [r.method for r in curve] == ["exact", "mc"]
        assert all(r.epsilon >= 0 for r in curve)
        mc_row = curve[1]
        assert mc_row.replications == 500 and mc_row.stderr is not None

    def test_mc_rows_record_seconds(self, game, rho, m0):
        cfg = SimulationConfig(master_seed=0, replications=300)
        (row,) = epsilon_curve(game, rho, m0, (5,), cfg, "mc")
        assert row.epsilon >= 0
        assert row.seconds > 0

    def test_ns_sorted_and_deduplicated(self, game, rho, m0):
        cfg = SimulationConfig(master_seed=0, replications=50)
        curve = epsilon_curve(game, rho, m0, (3, 2, 3), cfg, "exact")
        assert [r.n_players for r in curve] == [2, 3]

    def test_single_player_rejected(self, game, rho, m0):
        cfg = SimulationConfig(master_seed=0, replications=10)
        with pytest.raises(ValueError):
            epsilon_curve(game, rho, m0, (1, 2), cfg, "mc")


class TestEmpiricalRho:
    def test_weights_form_a_distribution(self, game, rho, m0):
        cfg = SimulationConfig(master_seed=0, replications=400)
        emp = empirical_rho_n(game, lift(rho, 3), m0, cfg)
        assert emp.samples == 400
        assert emp.n_players == 3
        assert sum(w for _, _, w in emp.flow.atoms) == 1

    def test_flow_entries_have_small_denominators(self, game, rho, m0):
        # every empirical weight is a count over N - 1 companions
        cfg = SimulationConfig(master_seed=1, replications=200)
        emp = empirical_rho_n(game, lift(rho, 4), m0, cfg)
        for _, flow, _ in emp.flow.atoms:
            for pv in flow.measures:
                for w in pv.weights:
                    assert (F(w) * 3).denominator == 1

    def test_count_rows_share_one_measure_in_integer_key_order(self, game, rho, m0):
        # equal count rows are one shared measure, and the atoms' order is
        # that of their integer keys (strategy index, count rows)
        cfg = SimulationConfig(master_seed=0, replications=300)
        profile = lift(rho, 4)
        emp = empirical_rho_n(game, profile, m0, cfg)
        measures = [pv for _, flow, _ in emp.flow.atoms for pv in flow.measures]
        by_weights = {}
        for pv in measures:
            assert by_weights.setdefault(pv.weights, pv) is pv
        assert len(by_weights) < len(measures)
        index = {phi: i for i, phi in enumerate(profile.support_strategies())}

        def int_key(atom):
            phi, flow, _ = atom
            return index[phi], tuple(tuple(int(w * 3) for w in pv.weights) for pv in flow.measures)

        assert emp.flow.atoms == tuple(sorted(emp.flow.atoms, key=int_key))
        assert len(emp.flow.atoms) > 1

    def test_two_player_flows_are_dirac_paths(self, game, rho, m0):
        cfg = SimulationConfig(master_seed=2, replications=100)
        emp = empirical_rho_n(game, lift(rho, 2), m0, cfg)
        for _, flow, _ in emp.flow.atoms:
            for pv in flow.measures:
                assert sorted(pv.weights) == [0, 1]

    def test_distance_to_rho_shrinks_with_n(self, game, rho, m0):
        cfg = SimulationConfig(master_seed=0, replications=200)
        dists = []
        for n in (5, 50):
            emp = empirical_rho_n(game, lift(rho, n), m0, cfg)
            dists.append(flow_space_distance(emp.flow, rho))
        assert dists[1] < dists[0]


class TestConvergenceReport:
    def test_rows_and_metric(self, game, rho, m0):
        cfg = SimulationConfig(master_seed=0, replications=150)
        rows = convergence_report(game, rho, m0, (5, 20), cfg)
        assert [r.n_players for r in rows] == [5, 20]
        assert all(isinstance(r, ConvergenceRow) for r in rows)
        assert all(r.replications == 150 for r in rows)
        assert rows[1].w1 < rows[0].w1

    def test_float_rho_against_exact_empirical_flows(self, game, rho, m0):
        # the empirical flows are exact whatever the game's mode; against a
        # float rho the W1 is the float of the exact game's W1
        cfg = SimulationConfig(master_seed=0, replications=200)
        rows = convergence_report(
            float_via_io(game), float_via_io(game, rho), float_via_io(game, m0), (5, 20), cfg
        )
        assert [r.w1 for r in rows] == [float(F(1971, 3200)), float(F(987, 3200))]
        assert all(type(r.w1) is float for r in rows)

    def test_requires_a_solution(self, game, m0):
        p = two_state.ExampleParams(beta=(F(1, 8),) * 4, c0=F(1, 8), c1=F(1, 16))
        bad_game, bad_rho, bad_m0 = two_state.build_example(p)
        cfg = SimulationConfig(master_seed=0, replications=10)
        with pytest.raises(ValueError):
            convergence_report(bad_game, bad_rho, bad_m0, (5,), cfg)
