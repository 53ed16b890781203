"""Mean-field verification: costs, best responses, optimality, consistency."""

import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfg import two_state
from cmfg.mfg import (
    CorrelatedFlow,
    consistency_check,
    dp_best_response,
    factor_flow,
    mkv_propagate,
    optimality_gap,
    state_law,
    verify_solution,
)
from cmfg.model import (
    EXACT,
    FiniteSpace,
    FlowTrajectory,
    ProbabilityVector,
    RestrictedStrategy,
    enumerate_strategies,
)

from oracles import (
    DeviationMap,
    flow_cost,
    optimality_rows,
    random_correlated_flow,
    random_game,
)
from test_nplayer import float_via_io

PHI_PLUS = RestrictedStrategy(((1, 0), (1, 0)))
PHI_PLUS_HAT = RestrictedStrategy(((1, 0), (0, 0)))
PHI_MINUS = RestrictedStrategy(((0, 1), (0, 1)))
PHI_O = RestrictedStrategy(((0, 0), (0, 0)))

# (|X|, |A|, T) of the random games
RANDOM_SHAPES = [(2, 2, 2), (3, 2, 1), (2, 3, 1), (1, 2, 2), (3, 2, 2)]


def random_measure(r: random.Random, game) -> ProbabilityVector:
    """An exact measure on the game's states, zero entries allowed."""
    raw = [r.randint(0, 3) for _ in game.states.labels]
    raw[r.randrange(len(raw))] += 1
    return ProbabilityVector(game.states, tuple(F(v, sum(raw)) for v in raw), EXACT)


def path_cost_oracle(game, phi, flow, m0):
    """Expected cost by brute enumeration over all state paths."""
    total = F(0)
    d = len(game.states)
    for path in product(range(d), repeat=game.horizon + 1):
        p = m0[path[0]]
        cost = F(0)
        for t in range(game.horizon):
            a = phi.actions[t][path[t]]
            cost += game.raw_running_cost(t, path[t], flow[t].weights, a)
            p *= game.raw_kernel(t, path[t], flow[t].weights, a)[path[t + 1]]
        cost += game.raw_terminal_cost(path[game.horizon], flow[game.horizon].weights)
        total += p * cost
    return total


class TestStateLaw:
    def test_pinned_plus_law(self, game, rho, m0):
        flow_plus = next(f for s, f, _ in rho.atoms if s == PHI_PLUS)
        law = state_law(game, PHI_PLUS, flow_plus, m0)
        assert law[0].weights == (F(1, 2), F(1, 2))
        assert law[1].weights == (F(5, 8), F(3, 8))
        assert law[2].weights == (F(21, 32), F(11, 32))

    def test_free_strategy_stays_uniform(self, game, rho, m0):
        flow = next(f for s, f, _ in rho.atoms if s == PHI_O)
        law = state_law(game, PHI_O, flow, m0)
        for t in range(3):
            assert law[t].weights == (F(1, 2), F(1, 2))

    def test_wrong_length_flow_rejected(self, game, m0):
        short = FlowTrajectory((m0, m0))
        with pytest.raises(ValueError):
            state_law(game, PHI_PLUS, short, m0)


class TestDeterministicCost:
    def test_pinned_value(self, game, rho, m0):
        flow_plus = next(f for s, f, _ in rho.atoms if s == PHI_PLUS)
        assert flow_cost(game, PHI_PLUS, flow_plus, m0) == F(-13, 512)

    def test_matches_path_enumeration_for_all_strategies(self, game, rho, m0):
        for _, flow, _ in rho.atoms[:3]:
            for phi in enumerate_strategies(game):
                assert flow_cost(game, phi, flow, m0) == path_cost_oracle(
                    game, phi, flow, m0
                )


def correlated_value(game, rho, u, m0):
    """J(m0; rho, u): each atom's weight times the cost of u(phi) against its flow."""
    return sum(w * flow_cost(game, u.apply(phi), flow, m0) for phi, flow, w in rho.atoms)


class TestCorrelatedCost:
    def test_identity_cost_pinned(self, game, rho, m0):
        assert correlated_value(game, rho, DeviationMap.identity(), m0) == F(-21, 2048)

    def test_single_deviation_changes_one_term(self, game, rho, m0):
        u = DeviationMap.single(PHI_PLUS, PHI_O)
        base = correlated_value(game, rho, DeviationMap.identity(), m0)
        shifted = correlated_value(game, rho, u, m0)
        own = row_for(game, rho, PHI_PLUS, m0).cost
        dev = sum(
            w * flow_cost(game, PHI_O, flow, m0)
            for phi, flow, w in rho.atoms if phi == PHI_PLUS
        )
        assert shifted - base == dev - own != 0


def row_for(game, rho, phi, m0):
    """The optimality row of the recommendation phi, which must equal the
    running-minimum oracle's."""
    row = next(r for r in optimality_gap(game, rho, m0).rows if r.recommendation == phi)
    assert row == next(r for r in optimality_rows(game, rho, m0) if r.recommendation == phi)
    return row


class TestBestResponse:
    """The best responses are the `best`, `best_value` and `tied` fields of
    the optimality rows."""

    def test_recommendations_are_their_own_best_responses(self, game, rho, m0):
        br = row_for(game, rho, PHI_PLUS, m0)
        assert br.best == PHI_PLUS
        assert br.best_value == F(-13, 4096)
        assert row_for(game, rho, PHI_PLUS_HAT, m0).best_value == F(-1, 512)
        assert row_for(game, rho, PHI_O, m0).best_value == 0

    def test_value_is_minimum_over_enumeration(self, game, rho, m0):
        br = row_for(game, rho, PHI_PLUS, m0)
        flows = [(flow, w) for phi, flow, w in rho.atoms if phi == PHI_PLUS]
        values = [
            sum(w * flow_cost(game, psi, flow, m0) for flow, w in flows)
            for psi in enumerate_strategies(game)
        ]
        assert br.best_value == min(values)

    def test_never_holding_is_uniquely_free_under_flat_flow(self, game, m0):
        # flat flow: crowd terms vanish, so cost = expected holding fees
        uniform_flow = FlowTrajectory((m0, m0, m0))
        flat = CorrelatedFlow(((PHI_O, uniform_flow, F(1)),))
        br = row_for(game, flat, PHI_O, m0)
        assert br.best == PHI_O
        assert br.best_value == 0 and br.tied == 1

    def test_boundary_tie_breaks_to_smallest_strategy(self, game):
        p = two_state.ExampleParams(beta=(F(1, 8),) * 4, c0=F(1, 32), c1=F(5, 64))
        game_b, rho_b, m0_b = two_state.build_example(p)
        br = row_for(game_b, rho_b, PHI_PLUS, m0_b)
        assert br.tied >= 2
        # dropping the second hold ties with holding on: smaller table wins
        assert br.best == PHI_PLUS_HAT
        assert br.best_value == br.cost


class TestOptimality:
    def test_obeying_costs_sum_to_correlated_cost(self, game, rho, m0):
        # J(m0; rho, id): the cost of obeying, summed over recommendations
        rows = optimality_gap(game, rho, m0).rows
        assert sum(r.cost for r in rows) == F(-21, 2048)

    def test_solution_has_zero_gap(self, game, rho, m0):
        report = optimality_gap(game, rho, m0)
        assert report.ok and report.gap == 0 and not report.has_tie
        assert all(row.gap == 0 for row in report.rows)

    def test_gap_localizes_when_c1_crosses(self, m0):
        p = two_state.ExampleParams(beta=(F(1, 8),) * 4, c0=F(1, 32), c1=F(3, 32))
        game_b, rho_b, m0_b = two_state.build_example(p)
        report = optimality_gap(game_b, rho_b, m0_b)
        assert not report.ok
        assert report.gap == F(5, 2048)
        positive = {
            row.recommendation.actions: row.gap for row in report.rows if row.gap > 0
        }
        assert positive == {
            ((1, 0), (1, 0)): F(5, 4096),
            ((0, 1), (0, 1)): F(5, 4096),
        }
        # the profitable deviation drops the second hold
        row_plus = next(
            r for r in report.rows if r.recommendation.actions == ((1, 0), (1, 0))
        )
        assert row_plus.best.actions == ((1, 0), (0, 0))


class TestConsistency:
    def test_exact_fixed_point(self, game, rho, m0):
        report = consistency_check(game, rho, m0)
        assert report.ok and report.max_residual == 0
        assert all(row.residual == 0 for row in report.rows)
        assert len(report.rows) == 4

    def test_broken_flow_detected(self, game, rho, m0):
        # skew the terminal measure of the flow recommending to hold up
        skew = ProbabilityVector(game.states, (F(9, 10), F(1, 10)), EXACT)
        plus_flow = next(f for s, f, _ in rho.atoms if s == PHI_PLUS)
        atoms = []
        for phi, flow, w in rho.atoms:
            if flow.measures == plus_flow.measures:
                flow = FlowTrajectory((flow[0], flow[1], skew))
            atoms.append((phi, flow, w))
        broken = CorrelatedFlow(tuple(atoms))
        report = consistency_check(game, broken, m0)
        assert not report.ok
        assert report.max_residual > 0

    def test_flows_on_relabelled_states_rejected(self, game, rho, m0):
        space = FiniteSpace(("y0", "y1"))
        relabelled = CorrelatedFlow(tuple(
            (phi, FlowTrajectory(tuple(
                ProbabilityVector(space, m.weights, EXACT) for m in flow.measures
            )), w)
            for phi, flow, w in rho.atoms
        ))
        for check in (consistency_check, optimality_gap, verify_solution):
            with pytest.raises(ValueError, match="different spaces"):
                check(game, relabelled, m0)


class TestVerifySolution:
    def test_accepts_the_example(self, game, rho, m0):
        verdict = verify_solution(game, rho, m0)
        assert verdict.is_solution
        assert verdict.optimality.ok and verdict.consistency.ok

    def test_rejects_crossed_threshold(self):
        p = two_state.ExampleParams(beta=(F(1, 8),) * 4, c0=F(1, 8), c1=F(1, 16))
        game_b, rho_b, m0_b = two_state.build_example(p)
        verdict = verify_solution(game_b, rho_b, m0_b)
        assert not verdict.is_solution
        assert not verdict.optimality.ok
        assert verdict.consistency.ok  # flows are still consistent


class TestDpBestResponse:
    def test_matches_enumeration_on_each_flow(self, game, rho, m0):
        for _, flow, _ in rho.atoms:
            dp = dp_best_response(game, flow)
            enumerated = min(
                flow_cost(game, phi, flow, m0)
                for phi in enumerate_strategies(game)
            )
            value_at_root = sum(
                m0[x] * dp.values[0][x] for x in range(len(game.states))
            )
            assert value_at_root == enumerated
            assert flow_cost(game, dp.strategy, flow, m0) == enumerated

    @given(st.integers(0, 2**32), st.sampled_from(RANDOM_SHAPES))
    @settings(max_examples=30, deadline=None)
    def test_matches_enumeration_on_random_flows(self, seed, shape):
        game = random_game(seed, *shape)
        r = random.Random(seed)
        flow = FlowTrajectory(tuple(random_measure(r, game) for _ in range(game.horizon + 1)))
        m0 = random_measure(r, game)
        dp = dp_best_response(game, flow)
        enumerated = min(
            flow_cost(game, phi, flow, m0) for phi in enumerate_strategies(game)
        )
        assert sum(m0[x] * v for x, v in enumerate(dp.values[0])) == enumerated
        assert flow_cost(game, dp.strategy, flow, m0) == enumerated

    def test_pinned_value_table(self, game, rho):
        flow_plus = next(f for s, f, _ in rho.atoms if s == PHI_PLUS)
        dp = dp_best_response(game, flow_plus)
        assert dp.values == (
            (F(-11, 256), F(-1, 128)),
            (F(-9, 64), F(1, 8)),
            (F(-5, 32), F(5, 32)),
        )
        assert dp.strategy == PHI_PLUS


class TestMkvPropagate:
    def test_fixed_point_on_all_flows(self, game, rho, m0):
        flows, _, conditionals = factor_flow(rho)
        for flow, cond in zip(flows, conditionals):
            result = mkv_propagate(game, cond, m0)
            for t in range(game.horizon + 1):
                assert result[t].weights == flow[t].weights

    def test_mixture_of_per_strategy_laws(self, game, rho, m0):
        # on the example, each flow is its conditional's mixture of the
        # strategies' state laws against that flow
        _, _, conditionals = factor_flow(rho)
        d = len(game.states)
        for cond in conditionals:
            flow = mkv_propagate(game, cond, m0)
            laws = [(state_law(game, phi, flow, m0), w) for phi, w in cond]
            for t in range(game.horizon + 1):
                mix = tuple(sum(w * law[t][x] for law, w in laws) for x in range(d))
                assert mix == flow[t].weights

    @given(st.integers(0, 2**32), st.sampled_from(RANDOM_SHAPES), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_mixture_of_state_laws_on_random_games(self, seed, shape, k):
        # each strategy's law evolves against the returned mixed flow, so the
        # flow is the conditional's mixture of the state laws against itself
        game = random_game(seed, *shape)
        r = random.Random(seed)
        strategies = enumerate_strategies(game)
        raw = [(phi, r.randint(1, 5)) for phi in r.sample(strategies, min(k, len(strategies)))]
        total = sum(w for _, w in raw)
        cond = tuple((phi, F(w, total)) for phi, w in raw)
        m0 = random_measure(r, game)
        flow = mkv_propagate(game, cond, m0)
        assert len(flow) == game.horizon + 1
        laws = [(state_law(game, phi, flow, m0), w) for phi, w in cond]
        for t in range(game.horizon + 1):
            assert flow[t].weights == tuple(
                sum(w * law[t][x] for law, w in laws) for x in range(len(game.states))
            )


class TestFactorization:
    def test_four_flows_with_weights(self, rho):
        flows, flow_weights, conditionals = factor_flow(rho)
        assert len(flows) == 4
        assert sum(flow_weights) == 1
        for cond in conditionals:
            assert sum(w for _, w in cond) == 1

    def test_recombine_roundtrip(self, rho):
        # flow weight times conditional weight gives back every atom
        atoms = {
            (phi, flow, fw * cw)
            for flow, fw, cond in zip(*factor_flow(rho))
            for phi, cw in cond
        }
        assert atoms == set(rho.atoms)


class TestCorrelatedFlowType:
    def test_atom_order_canonical(self, rho):
        shuffled = CorrelatedFlow(tuple(reversed(rho.atoms)))
        assert shuffled.atoms == rho.atoms

    def test_duplicate_atoms_rejected(self, rho):
        phi, flow, w = rho.atoms[0]
        with pytest.raises(ValueError):
            CorrelatedFlow(((phi, flow, w / 2), (phi, flow, w / 2), *rho.atoms[1:]))

    @given(st.integers(0, 2**32), st.integers(1, 6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_duplicate_anywhere_rejected_and_order_canonical(self, seed, n_atoms, data):
        game = random_game(seed, 2, 2, 2)
        rho = random_correlated_flow(seed, game, n_atoms)
        atoms = list(rho.atoms)
        assert atoms == sorted(
            atoms, key=lambda a: (a[0].actions, tuple(m.weights for m in a[1].measures))
        )
        shuffled = data.draw(st.permutations(atoms))
        assert CorrelatedFlow(tuple(shuffled)).atoms == rho.atoms
        # an equal copy of one atom's strategy and flow, at any position
        phi, flow, w = data.draw(st.sampled_from(atoms))
        copy = FlowTrajectory(tuple(
            ProbabilityVector(m.space, tuple(F(v) for v in m.weights), EXACT)
            for m in flow.measures
        ))
        halved = [(p, f, v / 2 if (p, f) == (phi, flow) else v) for p, f, v in shuffled]
        halved.insert(data.draw(st.integers(0, len(atoms))), (phi, copy, w / 2))
        with pytest.raises(ValueError, match="duplicate \\(strategy, flow\\) atom"):
            CorrelatedFlow(tuple(halved))

    def test_float_atoms_within_tolerance_merge(self, game, rho):
        frho = float_via_io(game, rho)
        phi, flow, w = frho.atoms[-1]
        near = FlowTrajectory(tuple(
            ProbabilityVector(m.space, (m.weights[0] + 1e-12, m.weights[1] - 1e-12), m.mode)
            for m in flow.measures
        ))
        merged = CorrelatedFlow((*frho.atoms[:-1], (phi, flow, w / 4), (phi, near, 3 * w / 4)))
        assert merged.atoms[:-1] == frho.atoms[:-1]
        assert merged.atoms[-1][:2] == (phi, flow) and merged.atoms[-1][2] == w

    def test_float_merge_keeps_the_first_flow_in_canonical_order(self, game, rho):
        frho = float_via_io(game, rho)
        phi, flow, w = frho.atoms[-1]
        # sorts before flow, so it represents the merged atom in either order
        near = FlowTrajectory(tuple(
            ProbabilityVector(m.space, (m.weights[0] - 1e-12, m.weights[1] + 1e-12), m.mode)
            for m in flow.measures
        ))
        pair = ((phi, flow, w / 4), (phi, near, 3 * w / 4))
        forward = CorrelatedFlow((*frho.atoms[:-1], *pair))
        backward = CorrelatedFlow((pair[1], *frho.atoms[:-1], pair[0]))
        assert forward.atoms == backward.atoms
        assert forward.atoms[:-1] == frho.atoms[:-1]
        assert forward.atoms[-1][:2] == (phi, near) and forward.atoms[-1][2] == w

    @pytest.mark.parametrize(
        "labels, horizon",
        [(("x0", "x1", "x2"), 2), (("x0", "x1"), 3), (("y0", "y1"), 2)],
        ids=["unequal-state-count", "unequal-horizon", "relabelled-states"],
    )
    def test_mixed_frames_rejected(self, rho, labels, horizon):
        phi, flow, w = rho.atoms[0]
        space = FiniteSpace(labels)
        other = FlowTrajectory((ProbabilityVector.uniform(space, EXACT),) * (horizon + 1))
        strategy = RestrictedStrategy(((0,) * len(labels),) * horizon)
        for atoms in (((phi, flow, w / 2), (strategy, other, w / 2)),
                      ((strategy, other, w / 2), (phi, flow, w / 2))):
            with pytest.raises(ValueError, match="different spaces"):
                CorrelatedFlow((*atoms, *rho.atoms[1:]))

    def test_weight_sum_enforced(self, rho):
        phi, flow, _ = rho.atoms[0]
        with pytest.raises(ValueError):
            CorrelatedFlow(((phi, flow, F(1, 2)),))


class TestDeviationMap:
    def test_identity_and_single(self):
        u = DeviationMap.single(PHI_PLUS, PHI_O)
        assert u.apply(PHI_PLUS) == PHI_O
        assert u.apply(PHI_MINUS) == PHI_MINUS
        assert DeviationMap.identity().apply(PHI_PLUS) == PHI_PLUS

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            DeviationMap(((PHI_PLUS, PHI_O), (PHI_PLUS, PHI_MINUS)))


class TestGapTableAgainstOracle:
    """`optimality_gap` builds its rows through the shared gap table; the rows must equal the running-minimum oracle's on random
    games and random correlated flows, in both arithmetic modes."""

    @given(
        st.integers(0, 2**32),
        st.sampled_from([(2, 2, 2), (3, 2, 1), (2, 3, 1), (1, 2, 2)]),
        st.integers(1, 5),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_rows_match_oracle(self, seed, shape, n_atoms, as_float):
        game = random_game(seed, *shape)
        rho = random_correlated_flow(seed, game, n_atoms)
        m0 = rho.atoms[0][1][0]
        if as_float:
            game, rho, m0 = float_via_io(game), float_via_io(game, rho), float_via_io(game, m0)
        want = optimality_rows(game, rho, m0)
        report = optimality_gap(game, rho, m0)
        assert report.rows == want
        assert report.gap == sum(r.gap for r in want)
