"""Finite-N games: joint propagation, profile costs, CE solving, simulation."""

import gc
import math
import random
import time
import tracemalloc
import types
import weakref
from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfg import io, lp, nplayer, rng, two_state
from cmfg.mfg import CorrelatedFlow
from cmfg.model import (
    EXACT,
    FLOAT,
    AffineCost,
    AffineSimplexMap,
    CapacityError,
    FiniteSpace,
    FlowTrajectory,
    GameSpec,
    ProbabilityVector,
    RestrictedStrategy,
    ThresholdTransition,
    categorical_pick,
    enumerate_strategies,
    psi_sample,
    validate_game,
)
from cmfg.nplayer import (
    ExplicitProfile,
    FactoredProfile,
    SimulationConfig,
    _MonteCarlo,
    _pick,
    count_chain_laws,
    deviation_gain,
    exact_joint_propagate,
    exchangeability_check,
    is_symmetric,
    solve_symmetric_ce,
    symmetrize,
)
from cmfg.limits import empirical_rho_n, epsilon_curve, lift
from oracles import (
    DeviationMap,
    brute_is_symmetric,
    by_the_oracle,
    candidate_costs,
    ce_constraints,
    check_solution,
    dense_rows,
    deviation_costs_by_candidate,
    expand,
    expanded_deviation_gain,
    expanded_exchangeability_check,
    fraction_lp,
    mc_profile_cost,
    profile_cost_exact,
    random_game,
    recorded,
    uniform,
)

PHI_PLUS = RestrictedStrategy(((1, 0), (1, 0)))
PHI_PLUS_HAT = RestrictedStrategy(((1, 0), (0, 0)))
PHI_MINUS = RestrictedStrategy(((0, 1), (0, 1)))
PHI_O = RestrictedStrategy(((0, 0), (0, 0)))


def dirac_profile(*strategies):
    return ExplicitProfile(len(strategies), ((tuple(strategies), F(1)),))


def random_audit_profile(game, seed, n, factored):
    """A random n-player profile on a pool of one to three strategies: one to
    four explicit atoms, or one to three flows whose conditionals each hold
    one to three of the pool's strategies."""
    r = random.Random(seed)
    pool = r.sample(enumerate_strategies(game), r.randint(1, 3))

    def weights(k):
        raw = [r.randint(1, 4) for _ in range(k)]
        return tuple(F(w, sum(raw)) for w in raw)

    if factored:
        flat = FlowTrajectory(
            (ProbabilityVector.uniform(game.states, EXACT),) * (game.horizon + 1)
        )
        k = r.randint(1, 3)
        conds = [r.sample(pool, r.randint(1, len(pool))) for _ in range(k)]
        return FactoredProfile(n, (flat,) * k, weights(k), tuple(
            tuple(zip(cond, weights(len(cond)))) for cond in conds
        ))
    return ExplicitProfile(n, tuple(
        (tuple(r.choice(pool) for _ in range(n)), w) for w in weights(r.randint(1, 4))
    ))


def float_copy(profile):
    """The profile with float weights."""
    if isinstance(profile, ExplicitProfile):
        return ExplicitProfile(
            profile.n_players, tuple((vec, float(w)) for vec, w in profile.atoms)
        )
    return FactoredProfile(
        profile.n_players, profile.flows, tuple(map(float, profile.flow_weights)),
        tuple(tuple((s, float(w)) for s, w in c) for c in profile.conditionals),
    )


def float_via_io(game, obj=None):
    """The float copy of `obj`, a correlated flow or a measure on the exact
    `game`, or of the game itself when obj is None, read back through io in
    float mode: each number x becomes float(x), as the reader parses "p/q"."""
    fgame = io.game_from_json({**io.game_to_json(game), "arithmetic": FLOAT})
    if obj is None:
        return fgame
    if isinstance(obj, CorrelatedFlow):
        return io.flow_from_json(io.flow_to_json(obj, game), fgame)
    return io.measure_from_text(",".join(map(io.scalar_json, obj.weights)), fgame)


def exclusive(states, skip, d):
    counts = [0] * d
    for j, x in enumerate(states):
        if j != skip:
            counts[x] += 1
    n = len(states) - 1
    return tuple(F(c, n) for c in counts)


def joint_path_oracle(game, strategies, m0):
    """Joint laws and per-player costs by enumerating every joint state path."""
    n = len(strategies)
    d = len(game.states)
    horizon = game.horizon
    laws = [dict() for _ in range(horizon + 1)]
    costs = [F(0)] * n
    joints = list(product(range(d), repeat=n))
    steps = {}  # (t, joint state) -> per player (running cost, kernel weights)
    finals = {}  # final joint state -> per player terminal cost

    def step(t, cur):
        if (t, cur) not in steps:
            out = []
            for i in range(n):
                m_i = exclusive(cur, i, d)
                a_i = strategies[i].actions[t][cur[i]]
                out.append((game.raw_running_cost(t, cur[i], m_i, a_i),
                            game.raw_kernel(t, cur[i], m_i, a_i)))
            steps[t, cur] = out
        return steps[t, cur]

    def final(last):
        if last not in finals:
            finals[last] = [
                game.raw_terminal_cost(last[i], exclusive(last, i, d)) for i in range(n)
            ]
        return finals[last]

    for path in product(joints, repeat=horizon + 1):
        prob = F(1)
        for i in range(n):
            prob *= m0[path[0][i]]
        if not prob:
            continue
        run = [F(0)] * n
        ok = True
        for t in range(horizon):
            cur, nxt = path[t], path[t + 1]
            for i, (running, kernel) in enumerate(step(t, cur)):
                run[i] += running
                if not kernel[nxt[i]]:
                    ok = False
                    break
                prob *= kernel[nxt[i]]
            if not ok:
                break
        if not ok or not prob:
            continue
        for t in range(horizon + 1):
            laws[t][path[t]] = laws[t].get(path[t], F(0)) + prob
        for i, terminal in enumerate(final(path[horizon])):
            costs[i] += prob * (run[i] + terminal)
    return laws, costs


class TestProfiles:
    def test_explicit_merges_and_sorts(self):
        a = ((PHI_PLUS, PHI_O), F(1, 4))
        b = ((PHI_O, PHI_PLUS), F(1, 4))
        p = ExplicitProfile(2, (a, b, (a[0], F(1, 2))))
        assert len(p.atoms) == 2
        merged = dict(p.atoms)
        assert merged[(PHI_PLUS, PHI_O)] == F(3, 4)

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            ExplicitProfile(2, (((PHI_O, PHI_O), F(1, 2)),))

    def test_vector_length_enforced(self):
        with pytest.raises(ValueError):
            ExplicitProfile(3, (((PHI_O, PHI_O), F(1)),))

    def test_factored_expand_products(self, game, rho):
        prof = lift(rho, 2)
        explicit = expand(prof)
        assert explicit.n_players == 2
        assert sum(w for _, w in explicit.atoms) == 1
        # P(both players told phi_plus) = sum_f w_f * cond(phi_plus|f)^2
        from cmfg.mfg import factor_flow

        expected = F(0)
        for flow, fw, cond in zip(*factor_flow(rho)):
            lam = dict((s.actions, w) for s, w in cond)
            expected += fw * lam.get(PHI_PLUS.actions, F(0)) ** 2
        got = dict(explicit.atoms).get((PHI_PLUS, PHI_PLUS), F(0))
        assert got == expected

    def test_lift_at_fifty_players_has_397_draws(self, rho):
        # per flow and recommendation, the others' count vectors over two
        # strategies: 4 * 2 * 50 draws, not 4 * 2**50 atoms.  Every flow
        # holds the draw in which all 50 players get PHI_O, so three of
        # those merge away
        for player in (0, 49):
            draws = nplayer._anonymous_draws(lift(rho, 50), player)
            assert len(draws) == 8 * 50 - 3
            assert sum(w for _, _, w in draws) == 1

    def test_draws_refuse_a_player_out_of_range(self, rho):
        with pytest.raises(ValueError, match="out of range"):
            nplayer._anonymous_draws(lift(rho, 3), 3)


class TestSymmetrize:
    def test_two_player_swap(self):
        p = dirac_profile(PHI_PLUS, PHI_O)
        s = symmetrize(p)
        assert is_symmetric(s)
        weights = dict(s.atoms)
        assert weights[(PHI_PLUS, PHI_O)] == F(1, 2)
        assert weights[(PHI_O, PHI_PLUS)] == F(1, 2)

    def test_idempotent(self):
        s = symmetrize(dirac_profile(PHI_PLUS, PHI_O))
        assert symmetrize(s).atoms == s.atoms

    def test_repeated_entries_counted_once(self):
        s = symmetrize(dirac_profile(PHI_O, PHI_O, PHI_PLUS))
        assert len(s.atoms) == 3
        assert all(w == F(1, 3) for _, w in s.atoms)

    def test_is_symmetric_detects_asymmetry(self):
        assert not is_symmetric(dirac_profile(PHI_PLUS, PHI_O))
        assert is_symmetric(dirac_profile(PHI_O, PHI_O))

    def test_factored_profiles_are_symmetric(self, rho):
        assert is_symmetric(lift(rho, 3))

    def test_one_all_equal_atom_at_seven_players_stays_one_atom(self):
        # the cap counts the atoms the result holds, not atoms times N!
        s = symmetrize(dirac_profile(*(PHI_O,) * 7))
        assert s.atoms == (((PHI_O,) * 7, F(1)),)

    @pytest.mark.parametrize(
        "items", ["a", "aa", "ab", "aab", "abc", "aabb"], ids=lambda s: s)
    def test_spread_shares_a_weight_over_the_distinct_orderings(self, items):
        # the one expansion of a multiset that symmetrize and the CE share
        spread = nplayer._spread(tuple(items), F(3, 7), F)
        orderings = [arr for arr, _ in spread]
        assert sorted(orderings) == sorted(set(permutations(items)))
        assert {share for _, share in spread} == {F(3, 7) / len(orderings)}

    def test_cap_counts_the_arrangements(self):
        p = dirac_profile(PHI_PLUS, *(PHI_O,) * 6)
        assert len(symmetrize(p, cap=7).atoms) == 7
        with pytest.raises(CapacityError, match="7 atoms, cap 6"):
            symmetrize(p, cap=6)

    @given(
        st.integers(0, 2**32),
        st.integers(2, 5),
        st.sampled_from(["raw", "symmetrized", "reweighted", "dropped"]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_is_symmetric_equals_the_permutation_oracle(self, game, seed, n, edit, floats):
        profile = random_audit_profile(game, seed, n, factored=False)
        if edit != "raw":
            profile = symmetrize(profile)
        atoms = list(profile.atoms)
        if edit == "reweighted":
            atoms[0] = (atoms[0][0], 2 * atoms[0][1])
        if edit == "dropped" and len(atoms) > 1:
            atoms.pop(0)
        total = sum(w for _, w in atoms)
        profile = ExplicitProfile(n, tuple((vec, w / total) for vec, w in atoms))
        if floats:
            profile = float_copy(profile)
        assert is_symmetric(profile) == brute_is_symmetric(profile)

    def test_one_atom_at_ten_players_takes_under_a_second(self):
        started = time.perf_counter()
        assert is_symmetric(dirac_profile(*(PHI_O,) * 10))
        assert not is_symmetric(dirac_profile(PHI_PLUS, *(PHI_O,) * 9))
        assert time.perf_counter() - started < 1


def lumped(joint_law, vec, player):
    """A joint law of the oracle summed into count-chain states with `player`
    in front: (its state, then per distinct strategy of the others, in order
    of first appearance, how many of them sit in each state)."""
    d = len(vec[0].actions[0])
    others = [j for j in range(len(vec)) if j != player]
    groups = list(dict.fromkeys(vec[j].actions for j in others))
    out = {}
    for xs, w in joint_law.items():
        counts = [[0] * d for _ in groups]
        for j in others:
            counts[groups.index(vec[j].actions)][xs[j]] += 1
        key = (xs[player], *map(tuple, counts))
        out[key] = out.get(key, F(0)) + w
    return out


def assert_engine_matches_oracle(game, vec, m0):
    """For every player moved to the front, the count-chain laws and the cost
    equal the oracle's as Fractions; the float copy agrees within 1e-12."""
    laws, costs = joint_path_oracle(game, vec, m0)
    for i in range(len(vec)):
        front = (vec[i], *(s for j, s in enumerate(vec) if j != i))
        got = count_chain_laws(game, front, m0)
        assert list(got) == [lumped(law, vec, i) for law in laws]
        assert exact_joint_propagate(
            game, front, m0, candidates=front[:1], memo=nplayer._ChainSteps(game)
        ) == (costs[i],)

        float_game, float_m0 = float_via_io(game), float_via_io(game, m0)
        for exact_law, float_law in zip(got, count_chain_laws(float_game, front, float_m0)):
            for key in exact_law.keys() | float_law.keys():
                assert abs(float(exact_law.get(key, 0)) - float_law.get(key, 0.0)) < 1e-12
        (float_cost,) = exact_joint_propagate(
            float_game, front, float_m0, candidates=front[:1], memo=nplayer._ChainSteps(float_game)
        )
        assert abs(float(costs[i]) - float_cost) < 1e-12


class TestExactJointPropagation:
    def test_matches_path_oracle_two_players(self, game, uniform_m0):
        for vec in ((PHI_PLUS, PHI_O), (PHI_PLUS, PHI_MINUS), (PHI_O, PHI_O)):
            assert_engine_matches_oracle(game, vec, uniform_m0)

    def test_three_players_against_oracle(self, game, uniform_m0):
        assert_engine_matches_oracle(game, (PHI_PLUS, PHI_O, PHI_MINUS), uniform_m0)

    def test_repeated_strategies_against_oracle(self, game, uniform_m0):
        assert_engine_matches_oracle(game, (PHI_PLUS, PHI_O, PHI_PLUS, PHI_O), uniform_m0)


class TestActionTreeAgainstPerCandidateWalks:
    """One walk of the count chain for a set of candidates against one
    propagation per candidate (`oracles.candidate_costs`), on random games
    whose kernels and costs depend on the measure, with strategies repeated
    among the others and an initial law with a zero entry."""

    @given(
        st.integers(0, 2**32),
        st.sampled_from([(3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 1)]),
        st.integers(2, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_candidate_costs_equal_the_oracle_loop(self, seed, shape, n):
        game = random_game(seed, *shape)
        strategies = enumerate_strategies(game)
        r = random.Random(seed)
        raw = [r.randint(1, 3) for _ in game.states.labels]
        raw[r.randrange(len(raw))] = 0
        m0 = ProbabilityVector(game.states, tuple(F(v, sum(raw)) for v in raw), EXACT)
        pool = r.sample(strategies, 2)
        others = tuple(r.choice(pool) for _ in range(n - 1))
        candidates = r.sample(strategies, r.randint(1, min(8, len(strategies))))
        candidates.append(candidates[0])  # a repeated candidate keeps its place
        own = r.choice(strategies)

        def walk(game, strategies, m0, candidates):
            memo = nplayer._ChainSteps(game)
            return exact_joint_propagate(game, strategies, m0, candidates=candidates, memo=memo)

        got = walk(game, (own, *others), m0, candidates)
        want = candidate_costs(game, candidates, others, m0)
        assert got == want
        # player 0's own strategy plays no part once candidates are given
        for front in (candidates[0], candidates[-2]):
            assert walk(game, (front, *others), m0, candidates) == want
        single = walk(game, (own, *others), m0, (own,))
        assert single == candidate_costs(game, (own,), others, m0)

        floats = walk(float_via_io(game), (own, *others), float_via_io(game, m0), candidates)
        assert all(abs(f - float(c)) < 1e-12 for f, c in zip(floats, want))


def assert_all_fractions(costs, laws):
    """Every cost and law value is a Fraction, not a bare int."""
    assert all(type(v) is F for v in [*costs, *(w for law in laws for w in law.values())])


def coprime_game():
    """A hand-built game whose kernel denominators (3 in the base, 7 in the
    coefficients) and cost denominator (11) are pairwise coprime; with an
    initial law over 13, no factor of one scale divides another."""
    states, actions = FiniteSpace(("lo", "hi")), FiniteSpace(("stay", "go"))

    def row(b, c):  # base (b, 3 - b)/3 and coef rows (c, -c)/7, (-c, c)/7
        return AffineSimplexMap(
            (F(b, 3), F(3 - b, 3)), ((F(c, 7), F(-c, 7)), (F(-c, 7), F(c, 7)))
        )

    rows = tuple(
        tuple(tuple(row(1 + (t + x + a) % 2, 1 + (t * x + a) % 2) for a in range(2))
              for x in range(2))
        for t in range(2)
    )
    cost = AffineCost(
        tuple(tuple(tuple(F(1 + t + 2 * x + a, 11) for a in range(2)) for x in range(2))
              for t in range(2)),
        tuple(tuple(tuple((F(x - a, 11), F(3 - t - x, 11)) for a in range(2))
                    for x in range(2)) for t in range(2)),
        (F(2, 11), F(-1, 11)),
        ((F(5, 11), F(0)), (F(-3, 11), F(4, 11))),
    )
    game = GameSpec(2, states, actions, ThresholdTransition(rows), cost, EXACT)
    assert validate_game(game).ok
    return game, ProbabilityVector(states, (F(5, 13), F(8, 13)), EXACT)


class TestIntegerWalk:
    """The walk on integer numerators, one denominator per step, against
    fresh memos and the `Fraction` walk of `oracles.count_chain_cost`."""

    @given(st.integers(0, 2**32), st.sampled_from([(2, 2, 2), (3, 2, 1), (2, 2, 3)]))
    @settings(max_examples=20, deadline=None)
    def test_a_shared_memo_equals_fresh_walks_and_the_oracle(self, seed, shape):
        game = random_game(seed, *shape)
        strategies = enumerate_strategies(game)
        r = random.Random(seed)
        raw = [r.randint(0, 3) for _ in game.states.labels]
        raw[r.randrange(len(raw))] += 1
        m0 = ProbabilityVector(game.states, tuple(F(v, sum(raw)) for v in raw), EXACT)
        memo = nplayer._ChainSteps(game)
        for n in r.sample(range(2, 6), 4):  # the memo serves every N, in any order
            own, pool = r.choice(strategies), r.sample(strategies, 2)
            others = tuple(r.choice(pool) for _ in range(n - 1))
            candidates = r.sample(strategies, r.randint(1, 4))
            shared = exact_joint_propagate(
                game, (own, *others), m0, candidates=candidates, memo=memo
            )
            fresh = exact_joint_propagate(
                game, (own, *others), m0, candidates=candidates, memo=nplayer._ChainSteps(game)
            )
            assert shared == fresh == candidate_costs(game, candidates, others, m0)
            laws = count_chain_laws(game, (own, *others), m0, memo=memo)
            assert laws == count_chain_laws(game, (own, *others), m0)
            assert_all_fractions(shared, laws)

    def test_coprime_denominators_against_the_path_oracle(self):
        game, m0 = coprime_game()
        s = enumerate_strategies(game)
        assert_engine_matches_oracle(game, (s[3], s[12], s[12]), m0)
        memo = nplayer._ChainSteps(game)
        assert (memo.qk, memo.qc) == (21, 11)
        for n in (5, 2, 4, 3):
            others = (s[6],) * (n // 2) + (s[9],) * (n - 1 - n // 2)
            costs = exact_joint_propagate(game, (s[0], *others), m0, candidates=s, memo=memo)
            assert costs == candidate_costs(game, s, others, m0)
            laws = count_chain_laws(game, (s[0], *others), m0, memo=memo)
            assert laws == count_chain_laws(game, (s[0], *others), m0)
            assert_all_fractions(costs, laws)


class TestCostTableWork:
    def test_ce_walks_once_per_others_multiset(self, monkeypatch):
        """The N=3 CE of the c1 = 3/32 example walks the count chain once per
        others-multiset, C(16 + 1, 2) = 136 times, and its cost table
        evaluates each kernel row once: 24 distinct (t, x, measure, action)."""
        params = two_state.ExampleParams.from_alpha(F(1, 2), F(1, 32), F(3, 32))
        game, _, _ = two_state.build_example(params)
        walks = []
        engine = nplayer.exact_joint_propagate

        def counted(*args, **kwargs):
            walks.append(len(args[1]))
            return engine(*args, **kwargs)

        rows = []
        raw_kernel = GameSpec.raw_kernel

        def counted_kernel(self, t, x, m, a):
            rows.append((t, x, tuple(m), a))
            return raw_kernel(self, t, x, m, a)

        monkeypatch.setattr(nplayer, "exact_joint_propagate", counted)
        monkeypatch.setattr(GameSpec, "raw_kernel", counted_kernel)
        solve_symmetric_ce(game, 3, ProbabilityVector.uniform(game.states, EXACT))
        assert walks == [3] * 136
        assert len(rows) == len(set(rows)) == 24

    def test_ce_takes_each_last_step_expectation_once(self, monkeypatch):
        """Across the same 136 walks, the expected terminal cost after the
        last step is computed once per (chain state at T-1, the groups'
        actions, player 0's action): the memo serves every walk and every
        candidate set."""
        params = two_state.ExampleParams.from_alpha(F(1, 2), F(1, 32), F(3, 32))
        game, _, _ = two_state.build_example(params)
        keys = []
        expectation = nplayer._ChainSteps._expectation

        def counted(self, key, acts, a):
            keys.append((key, acts, a))
            return expectation(self, key, acts, a)

        monkeypatch.setattr(nplayer._ChainSteps, "_expectation", counted)
        solve_symmetric_ce(game, 3, ProbabilityVector.uniform(game.states, EXACT))
        assert len(keys) == len(set(keys)) == 304  # 2,112 with one memo per walk


# every exact request, over its caps: the N=13 lift (2**13 joint states,
# cap 4096) for the audits and the curve's exact row, an explicit N=13
# profile for the audit's other kind of profile, the N=20 CE for the solver
OVER_CAP_REQUESTS = {
    "deviation_gain-exact": lambda g, rho, m0: deviation_gain(g, lift(rho, 13), 0, m0, "exact"),
    "deviation_gain-exact-explicit": lambda g, rho, m0: deviation_gain(
        g, dirac_profile(*(PHI_O,) * 13), 0, m0, "exact"),
    "exchangeability_check": lambda g, rho, m0: exchangeability_check(g, lift(rho, 13), m0, 1),
    "solve_symmetric_ce": lambda g, rho, m0: solve_symmetric_ce(g, 20, m0),
    "epsilon_curve-exact": lambda g, rho, m0: epsilon_curve(
        g, rho, m0, (13,), SimulationConfig(master_seed=0, replications=8), "exact"),
}

# every other cap of an exact request, refused before the work it bounds,
# with the count it refused
CAP_REFUSALS = {
    "deviation_gain-strategy_cap": (
        lambda g, rho, m0: deviation_gain(g, lift(rho, 2), 0, m0, "exact", strategy_cap=15),
        "needs 16 strategies, cap is 15"),
    "solve_symmetric_ce-strategy_cap": (
        lambda g, rho, m0: solve_symmetric_ce(g, 2, m0, strategy_cap=15),
        "needs 16 strategies, cap is 15"),
    "solve_symmetric_ce-lp_cap": (
        lambda g, rho, m0: solve_symmetric_ce(g, 3, m0, lp_cap=815),
        "816 LP variables exceed cap 815"),
    "deviation_gain-joint_cap": (
        lambda g, rho, m0: deviation_gain(g, lift(rho, 2), 0, m0, "exact", joint_cap=3),
        r"2\^2 joint states exceed cap 3"),
}

# every exact request on the N=3 lift of the example (the CE solves N=3),
# and the audit on an explicit N=3 profile whose player 0 draws two
# recommendations: each walks the count chain more than once
N3_REQUESTS = {
    "deviation_gain-exact": lambda g, rho, m0: deviation_gain(g, lift(rho, 3), 0, m0, "exact"),
    "deviation_gain-exact-explicit": lambda g, rho, m0: deviation_gain(
        g, symmetrize(dirac_profile(PHI_PLUS, PHI_O, PHI_O)), 0, m0, "exact"),
    "exchangeability_check": lambda g, rho, m0: exchangeability_check(g, lift(rho, 3), m0, 1),
    "solve_symmetric_ce": lambda g, rho, m0: solve_symmetric_ce(g, 3, m0),
    "epsilon_curve-exact": lambda g, rho, m0: epsilon_curve(
        g, rho, m0, (3,), SimulationConfig(master_seed=0, replications=8), "exact"),
}


@pytest.fixture
def no_work(monkeypatch):
    """Makes building a draw or a multiset fail; returns what was built."""
    built = []

    def refuse(*args):
        built.append(args)
        raise AssertionError("built before the request was admitted")

    monkeypatch.setattr(nplayer, "_anonymous_draws", refuse)
    monkeypatch.setattr(
        nplayer, "itertools", types.SimpleNamespace(combinations_with_replacement=refuse)
    )
    return built


class TestAdmission:
    """Each exact request is admitted once, before its work."""

    @pytest.mark.parametrize("request_name", sorted(OVER_CAP_REQUESTS))
    def test_an_over_cap_request_builds_no_draw_or_multiset(
        self, no_work, game, rho, uniform_m0, request_name
    ):
        with pytest.raises(CapacityError, match=r"2\^(13|20) joint states exceed cap 4096"):
            OVER_CAP_REQUESTS[request_name](game, rho, uniform_m0)
        assert no_work == []

    @pytest.mark.parametrize("site", sorted(CAP_REFUSALS))
    def test_every_cap_is_checked_before_the_work_it_bounds(
        self, no_work, game, rho, uniform_m0, site
    ):
        call, message = CAP_REFUSALS[site]
        with pytest.raises(CapacityError, match=message):
            call(game, rho, uniform_m0)
        assert no_work == []

    @pytest.mark.parametrize("request_name", sorted(N3_REQUESTS))
    def test_each_request_checks_the_initial_law_once(
        self, monkeypatch, game, rho, uniform_m0, request_name
    ):
        checks, walks = [], []
        require = nplayer.require_initial_law
        monkeypatch.setattr(
            nplayer, "require_initial_law", lambda *a: checks.append(a) or require(*a))
        for name in ("exact_joint_propagate", "count_chain_laws"):
            walk = getattr(nplayer, name)
            monkeypatch.setattr(
                nplayer, name, lambda *a, walk=walk, **k: walks.append(a) or walk(*a, **k))
        N3_REQUESTS[request_name](game, rho, uniform_m0)
        assert len(walks) > 1
        assert len(checks) == 1

    def test_the_propagation_walk_takes_any_admitted_n(self, game, uniform_m0):
        """Thirteen players over the default cap of 4096 joint states: the
        request is refused, and admitted under a raised cap, where the cost
        of its one recommendation is the bare walk's."""
        profile = dirac_profile(*(PHI_O,) * 13)
        with pytest.raises(CapacityError, match=r"2\^13 joint states exceed cap 4096"):
            deviation_gain(game, profile, 0, uniform_m0, "exact")
        (row,) = deviation_gain(game, profile, 0, uniform_m0, "exact", joint_cap=2**13).rows
        walk = exact_joint_propagate(
            game, (PHI_O,) * 13, uniform_m0, candidates=(PHI_O,), memo=nplayer._ChainSteps(game)
        )
        assert walk == (row.cost,)

    def test_the_count_chain_walk_takes_any_admitted_n(self, game, uniform_m0):
        """The thirteen-player count chain, which no request under the
        default cap reaches: one law per time, each a probability over
        player 0's state and the twelve others' counts."""
        laws = count_chain_laws(game, (PHI_O,) * 13, uniform_m0)
        assert len(laws) == game.horizon + 1
        for law in laws:
            assert sum(law.values()) == 1
            assert all(sum(map(sum, key[1:])) == 12 for key in law)

    def test_the_initial_law_is_checked_once_per_request(self, monkeypatch):
        """The N=3 CE of the c1 = 3/32 example and one exact audit of its
        answer walk the count chain 136 + 1 times, and check the initial
        law twice: once per request, not once per walk."""
        params = two_state.ExampleParams.from_alpha(F(1, 2), F(1, 32), F(3, 32))
        game, _, _ = two_state.build_example(params)
        m0 = ProbabilityVector.uniform(game.states, EXACT)
        checks, walks = [], []
        require, engine = nplayer.require_initial_law, nplayer.exact_joint_propagate

        def counted_check(*args):
            checks.append(args)
            return require(*args)

        def counted_walk(*args, **kwargs):
            walks.append(len(args[1]))
            return engine(*args, **kwargs)

        monkeypatch.setattr(nplayer, "require_initial_law", counted_check)
        monkeypatch.setattr(nplayer, "exact_joint_propagate", counted_walk)
        profile = solve_symmetric_ce(game, 3, m0)
        deviation_gain(game, profile, 0, m0, "exact")
        assert len(walks) == 136 + 1
        assert len(checks) == 2


class TestProfileCostExact:
    def test_pinned_two_player_table(self, game, uniform_m0):
        ident = DeviationMap.identity()
        cases = {
            (PHI_PLUS, PHI_PLUS): F(-27, 256),
            (PHI_PLUS, PHI_O): F(7, 128),
            (PHI_O, PHI_PLUS): F(0),
            (PHI_PLUS_HAT, PHI_PLUS_HAT): F(-3, 64),
        }
        for (mine, other), expected in cases.items():
            cost = profile_cost_exact(
                game, dirac_profile(mine, other), 0, ident, uniform_m0
            )
            assert cost == expected, (mine, other)

    def test_symmetry_between_players(self, game, uniform_m0):
        ident = DeviationMap.identity()
        c0 = profile_cost_exact(game, dirac_profile(PHI_PLUS, PHI_O), 1, ident, uniform_m0)
        c1 = profile_cost_exact(game, dirac_profile(PHI_O, PHI_PLUS), 0, ident, uniform_m0)
        assert c0 == c1

    def test_deviation_map_applies_to_own_draw(self, game, uniform_m0):
        u = DeviationMap.single(PHI_PLUS, PHI_O)
        cost = profile_cost_exact(game, dirac_profile(PHI_PLUS, PHI_PLUS), 0, u, uniform_m0)
        assert cost == profile_cost_exact(
            game, dirac_profile(PHI_O, PHI_PLUS), 0, DeviationMap.identity(), uniform_m0
        )

    def test_mixture_is_affine(self, game, uniform_m0):
        ident = DeviationMap.identity()
        mixed = ExplicitProfile(
            2, (((PHI_PLUS, PHI_PLUS), F(1, 3)), ((PHI_O, PHI_O), F(2, 3)))
        )
        cost = profile_cost_exact(game, mixed, 0, ident, uniform_m0)
        assert cost == F(1, 3) * F(-27, 256) + F(2, 3) * F(0)


def _scalar_measure(g, states, skip):
    """Float exclusive empirical measure of everyone but `skip`."""
    n = len(states)
    counts = _counts(states, skip, len(g.states))
    return ProbabilityVector(g.states, tuple(c / (n - 1) for c in counts), "float")


def _scalar_draw(profile, uni):
    """Strategy vector of one replication: slot 0 picks the profile atom (or
    flow), slots 1..N the per-player conditional strategies."""
    if isinstance(profile, ExplicitProfile):
        atom_w = [float(w) for _, w in profile.atoms]
        return list(profile.atoms[categorical_pick(atom_w, uni(0))][0])
    k = categorical_pick([float(w) for w in profile.flow_weights], uni(0))
    cond = profile.conditionals[k]
    weights = [float(w) for _, w in cond]
    return [
        cond[categorical_pick(weights, uni(1 + j))][0]
        for j in range(profile.n_players)
    ]


def _scalar_path(g, m0f, vec, uni):
    """States of every player at times 0..T: slots N+1..2N draw the initial
    states and 2N+1+t*N+i the transition noise of player i at time t."""
    n = len(vec)
    states = [categorical_pick(m0f.weights, uni(n + 1 + j)) for j in range(n)]
    path = [states]
    for t in range(g.horizon):
        states = [
            psi_sample(
                g, t, states[i], _scalar_measure(g, states, i),
                vec[i].actions[t][states[i]], uni(2 * n + 1 + t * n + i),
            )
            for i in range(n)
        ]
        path.append(states)
    return path


def _scalar_cost(g, vec, path, player):
    """Realized total cost of one player: running costs over t, then terminal."""
    total = 0.0
    for t in range(g.horizon):
        x = path[t][player]
        total += g.raw_running_cost(
            t, x, _scalar_measure(g, path[t], player).weights, vec[player].actions[t][x]
        )
    x = path[-1][player]
    return total + g.raw_terminal_cost(x, _scalar_measure(g, path[-1], player).weights)


def _scalar_uniforms(cfg, rep):
    return lambda slot: uniform(cfg.master_seed, rep, slot)


def scalar_mc_reference(game, profile, player, u, m0, cfg):
    """Rebuild the simulator one replication at a time from the stream layout."""
    g = float_via_io(game)
    m0f = float_via_io(game, m0)
    costs = []
    for rep in range(cfg.replications):
        uni = _scalar_uniforms(cfg, rep)
        vec = _scalar_draw(profile, uni)
        vec[player] = u.apply(vec[player])
        costs.append(_scalar_cost(g, vec, _scalar_path(g, m0f, vec, uni), player))
    # aggregate exactly like the array engine does within one chunk
    arr = np.array(costs)
    reps = len(costs)
    mean = float(np.sum(arr)) / reps
    if reps > 1:
        total_sq = float(np.sum(arr * arr))
        var = max(total_sq - reps * mean * mean, 0.0) / (reps - 1)
        stderr = math.sqrt(var / reps)
    else:
        stderr = 0.0
    return mean, stderr


def scalar_deviation_costs(game, profile, player, m0, cfg):
    """Per replication, the player's recommendation index and its realized
    cost under every candidate, each simulated on the same uniforms, one
    replication and one candidate at a time."""
    g = float_via_io(game)
    m0f = float_via_io(game, m0)
    candidates = enumerate_strategies(game)
    index = {s.actions: i for i, s in enumerate(candidates)}
    costs = [[0.0] * len(candidates) for _ in range(cfg.replications)]
    recs = []
    for rep in range(cfg.replications):
        uni = _scalar_uniforms(cfg, rep)
        vec = _scalar_draw(profile, uni)
        recs.append(index[vec[player].actions])
        for c, psi in enumerate(candidates):
            vec[player] = psi
            costs[rep][c] = _scalar_cost(g, vec, _scalar_path(g, m0f, vec, uni), player)
    return recs, costs


def scalar_deviation_reference(game, profile, player, m0, cfg):
    """(rec_index, best_index, cost, best_value, gap) per recommendation, from
    `scalar_deviation_costs`."""
    recs, costs = scalar_deviation_costs(game, profile, player, m0, cfg)
    reps, n_cand = len(costs), len(costs[0])
    rows = []
    for rec in sorted(set(recs)):
        sums = [
            sum(costs[r][c] for r in range(reps) if recs[r] == rec) / reps
            for c in range(n_cand)
        ]
        best = min(range(len(sums)), key=sums.__getitem__)
        rows.append((rec, best, sums[rec], sums[best], sums[rec] - sums[best]))
    return rows


def scalar_empirical_reference(game, profile, m0, cfg):
    """Atoms (player 1's recommendation, others' empirical flow, weight)."""
    g = float_via_io(game)
    m0f = float_via_io(game, m0)
    n = profile.n_players
    buckets = {}
    for rep in range(cfg.replications):
        uni = _scalar_uniforms(cfg, rep)
        vec = _scalar_draw(profile, uni)
        path = _scalar_path(g, m0f, vec, uni)
        flow = tuple(
            tuple(F(int(c), n - 1) for c in _counts(states, 0, len(g.states)))
            for states in path
        )
        key = (vec[0], flow)
        buckets[key] = buckets.get(key, 0) + 1
    return CorrelatedFlow(
        tuple(
            (
                rec,
                FlowTrajectory(
                    tuple(ProbabilityVector(game.states, row, EXACT) for row in flow)
                ),
                F(mult, cfg.replications),
            )
            for (rec, flow), mult in buckets.items()
        )
    )


def _counts(states, skip, d):
    counts = [0.0] * d
    for j, x in enumerate(states):
        if j != skip:
            counts[x] += 1.0
    return counts


def mixing_profiles(game):
    """An explicit 3-player and a factored 4-player profile of the mixing game."""
    s = enumerate_strategies(game)
    explicit = ExplicitProfile(
        3, (((s[5], s[40], s[63]), F(1, 3)), ((s[12], s[12], s[33]), F(2, 3)))
    )
    flat = FlowTrajectory(
        (ProbabilityVector.uniform(game.states, EXACT),) * (game.horizon + 1)
    )
    factored = FactoredProfile(
        4, (flat, flat), (F(1, 4), F(3, 4)),
        (((s[5], F(1, 2)), (s[40], F(1, 2))),
         ((s[12], F(1, 3)), (s[33], F(1, 6)), (s[63], F(1, 2)))),
    )
    return explicit, factored


MIXING_M0 = (F(1, 2), F(1, 3), F(1, 6))


class TestMonteCarlo:
    @pytest.mark.parametrize("player", [-1, 3])
    def test_refuses_a_player_out_of_range(self, game, uniform_m0, player):
        profile = dirac_profile(PHI_PLUS, PHI_O, PHI_MINUS)
        cfg = SimulationConfig(master_seed=0, replications=8)
        with pytest.raises(ValueError, match="player index .* out of range"):
            deviation_gain(game, profile, player, uniform_m0, "mc", cfg)

    def test_bit_identical_to_scalar_reference_explicit(self, game, uniform_m0):
        profile = ExplicitProfile(
            3,
            (
                ((PHI_PLUS, PHI_O, PHI_MINUS), F(1, 2)),
                ((PHI_O, PHI_O, PHI_O), F(1, 2)),
            ),
        )
        cfg = SimulationConfig(master_seed=11, replications=64)
        u = DeviationMap.single(PHI_PLUS, PHI_PLUS_HAT)
        got = mc_profile_cost(game, profile, 0, u, uniform_m0, cfg)
        want = scalar_mc_reference(game, profile, 0, u, uniform_m0, cfg)
        assert got[0] == want[0]

    def test_chained_deviation_map_matches_scalar_reference(self, game, uniform_m0):
        # u sends A to B and B on to C: B is an image but never a
        # recommendation, so its own image is never played
        a, b, c = PHI_O, PHI_PLUS, PHI_MINUS
        u = DeviationMap(((a, b), (b, c), (c, a)))
        profile = ExplicitProfile(
            3, (((a, c, a), F(1, 2)), ((c, c, a), F(1, 4)), ((a, a, c), F(1, 4)))
        )
        cfg = SimulationConfig(master_seed=3, replications=64)
        for player in range(3):
            got = mc_profile_cost(game, profile, player, u, uniform_m0, cfg)
            want = scalar_mc_reference(game, profile, player, u, uniform_m0, cfg)
            assert got[0] == want[0]

    def test_bit_identical_to_scalar_reference_factored(self, game, rho, uniform_m0):
        profile = lift(rho, 4)
        cfg = SimulationConfig(master_seed=5, replications=64)
        got = mc_profile_cost(
            game, profile, 2, DeviationMap.identity(), uniform_m0, cfg
        )
        want = scalar_mc_reference(
            game, profile, 2, DeviationMap.identity(), uniform_m0, cfg
        )
        assert got[0] == want[0]

    def test_chunking_does_not_change_estimate(self, game, rho, uniform_m0):
        # replications above the chunk size take the multi-chunk path
        profile = lift(rho, 2)
        small = SimulationConfig(master_seed=1, replications=4100)
        mean, stderr = mc_profile_cost(
            game, profile, 0, DeviationMap.identity(), uniform_m0, small
        )
        ref = scalar_mc_reference(
            game, profile, 0, DeviationMap.identity(), uniform_m0, small
        )
        assert mean == ref[0]

    def test_three_sigma_agreement_with_exact(self, game, rho, uniform_m0):
        profile = lift(rho, 2)
        exact = profile_cost_exact(
            game, profile, 0, DeviationMap.identity(), uniform_m0
        )
        cfg = SimulationConfig(master_seed=0, replications=40_000)
        mean, stderr = mc_profile_cost(
            game, profile, 0, DeviationMap.identity(), uniform_m0, cfg
        )
        assert abs(mean - float(exact)) <= 3 * stderr

    @pytest.mark.parametrize("shift", [10**8, 10**9])
    def test_stderr_ignores_a_constant_cost_shift(self, shift):
        # every sample moves by the same constant, so the spread stays; the
        # one-pass form total_sq - reps * mean^2 is 13 times too large at
        # 10**8 and cancels to 0.0 at 10**9
        samples = np.random.default_rng(0).normal(-0.05, 0.1, 20_000)
        want = nplayer._stderr(samples)
        got = nplayer._stderr(samples + float(shift))
        assert want > 0
        assert got == pytest.approx(want, rel=1e-9, abs=0)

    def test_single_replication_has_zero_stderr(self):
        assert nplayer._stderr(np.array([-0.25])) == 0.0


class TestEngineAgainstScalarOracle:
    """Every MC caller, on a game whose kernel depends on the measure, over
    several chunks (the last one partial)."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(nplayer, "_CHUNK", 16)

    @pytest.fixture(scope="class")
    def mixing(self):
        game = random_game(3, 3, 2, 2)
        assert validate_game(game).ok
        assert any(c for by_x in game.transition.rows for by_a in by_x
                   for row in by_a for r in row.coef for c in r)
        return game, ProbabilityVector(game.states, MIXING_M0, EXACT)

    @pytest.mark.parametrize("kind", [0, 1], ids=["explicit", "factored"])
    def test_deviation_gain_mc(self, mixing, kind):
        game, m0 = mixing
        profile = mixing_profiles(game)[kind]
        cfg = SimulationConfig(master_seed=9, replications=40)
        got = deviation_gain(game, profile, 1, m0, "mc", cfg)
        want = scalar_deviation_reference(game, profile, 1, m0, cfg)
        assert [(r.rec_index, r.best_index) for r in got.rows] == [
            (rec, best) for rec, best, *_ in want
        ]
        for row, (_, _, cost, best_value, gap) in zip(got.rows, want):
            assert (row.cost, row.best_value, row.gap) == (cost, best_value, gap)
        assert got.epsilon == sum(w[4] for w in want)

    @pytest.mark.parametrize("kind", [0, 1], ids=["explicit", "factored"])
    def test_deviation_costs_equal_the_scalar_paths(self, mixing, kind):
        """Every replication's cost under every candidate, from the action
        tree, equals the scalar path's, which shares no code with the engine."""
        game, m0 = mixing
        profile = mixing_profiles(game)[kind]
        cfg = SimulationConfig(master_seed=9, replications=40)
        mc = _MonteCarlo(game, enumerate_strategies(game))
        got = np.concatenate([
            mc.deviation_costs(strat_rows, x0, noise, 1)
            for _, strat_rows, x0, noise in mc.batches(profile, m0, cfg)
        ])
        _, want = scalar_deviation_costs(game, profile, 1, m0, cfg)
        assert np.array_equal(got, np.array(want))

    def test_profile_cost(self, mixing):
        game, m0 = mixing
        profile = mixing_profiles(game)[1]
        s = enumerate_strategies(game)
        u = DeviationMap.single(s[33], s[7])
        cfg = SimulationConfig(master_seed=4, replications=40)
        got = mc_profile_cost(game, profile, 2, u, m0, cfg)
        want = scalar_mc_reference(game, profile, 2, u, m0, cfg)
        assert abs(got[0] - want[0]) < 1e-12

    def test_empirical_rho_n(self, mixing):
        game, m0 = mixing
        profile = mixing_profiles(game)[1]
        cfg = SimulationConfig(master_seed=6, replications=40)
        emp = empirical_rho_n(game, profile, m0, cfg)
        assert (emp.samples, emp.n_players) == (40, 4)
        assert emp.flow.atoms == scalar_empirical_reference(game, profile, m0, cfg).atoms

    def test_empirical_rho_n_rejects_a_joint_initial_law(self, mixing):
        game, m0 = mixing
        profile = mixing_profiles(game)[1]
        with pytest.raises(ValueError, match="product initial law"):
            empirical_rho_n(game, profile, m0.weights, SimulationConfig(0, 8))


def random_profiles(game, seed):
    """An explicit 3-player and a factored 5-player profile on random strategies."""
    r = random.Random(seed)
    s = enumerate_strategies(game)
    explicit = ExplicitProfile(
        3, tuple((tuple(r.choice(s) for _ in range(3)), F(1, 3)) for _ in range(3))
    )
    flat = FlowTrajectory(
        (ProbabilityVector.uniform(game.states, EXACT),) * (game.horizon + 1)
    )
    k = min(3, len(s))
    factored = FactoredProfile(
        5, (flat, flat), (F(1, 4), F(3, 4)),
        (tuple((x, F(1, 2)) for x in r.sample(s, 2)),
         tuple((x, F(1, k)) for x in r.sample(s, k))),
    )
    return explicit, factored


def random_m0(game):
    return ProbabilityVector(
        game.states, {1: (F(1),), 2: (F(1, 3), F(2, 3)), 3: MIXING_M0}[len(game.states)], EXACT
    )


class TestMonteCarloAgainstExactOnRandomGames:
    """`oracles.mc_profile_cost` within three standard errors of
    `oracles.profile_cost_exact` on seeded random games whose kernels depend
    on the measure, the last player sending one of its recommendations to
    another strategy."""

    @pytest.mark.parametrize("kind", [0, 1], ids=["explicit-N3", "factored-N5"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_three_sigma_agreement(self, seed, kind):
        game = random_game(seed, 3, 2, 2)
        m0 = random_m0(game)
        profile = random_profiles(game, seed)[kind]
        player = profile.n_players - 1
        if kind == 0:
            own = [vec[player] for vec, _ in profile.atoms]
        else:
            own = [s for cond in profile.conditionals for s, _ in cond]
        r = random.Random(10 + seed)
        key = r.choice(own)
        u = DeviationMap.single(key, r.choice([s for s in enumerate_strategies(game) if s != key]))
        exact = profile_cost_exact(game, profile, player, u, m0)
        cfg = SimulationConfig(master_seed=seed, replications=20_000)
        mean, stderr = mc_profile_cost(game, profile, player, u, m0, cfg)
        assert abs(mean - float(exact)) <= 3 * stderr


class TestActionTreeAgainstCandidateLoop:
    """The action-tree audit against one `oracles.path_costs` per candidate,
    on random games whose kernel rows have zero entries (one-state games
    have none), over three chunks (the last one partial): equal
    per-replication costs and equal results, not close."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(nplayer, "_CHUNK", 16)

    @pytest.mark.parametrize(
        "shape",
        [(3, 2, 2), (2, 3, 3), (2, 2, 3), (3, 3, 2), (2, 2, 1), (3, 2, 1), (1, 2, 2), (1, 2, 1)],
        ids=lambda s: "d{}-A{}-T{}".format(*s),
    )
    @pytest.mark.parametrize("kind", [0, 1], ids=["explicit", "factored"])
    @pytest.mark.parametrize("last", [False, True], ids=["first-player", "last-player"])
    def test_costs_and_result_equal(self, monkeypatch, shape, kind, last):
        game = random_game(sum(shape), *shape)
        profile = random_profiles(game, sum(shape))[kind]
        player = profile.n_players - 1 if last else 0
        self.check(monkeypatch, game, profile, player, sum(shape) + kind)

    @pytest.mark.parametrize(
        "shape", [(2, 2, 2), (3, 2, 1)], ids=lambda s: "d{}-A{}-T{}".format(*s)
    )
    @pytest.mark.parametrize("player", [0, 1])
    def test_two_players(self, monkeypatch, shape, player):
        """N - 1 = 1: each player sees the other alone."""
        game = random_game(sum(shape), *shape)
        r = random.Random(sum(shape))
        s = enumerate_strategies(game)
        profile = ExplicitProfile(
            2, tuple(((r.choice(s), r.choice(s)), F(1, 3)) for _ in range(3))
        )
        self.check(monkeypatch, game, profile, player, sum(shape))

    def check(self, monkeypatch, game, profile, player, seed):
        assert validate_game(game).ok
        assert len(game.states) == 1 or any(
            w == 0 for by_x in game.transition.rows for by_a in by_x
            for row in by_a for w in row.base
        )
        m0 = random_m0(game)
        cfg = SimulationConfig(master_seed=seed, replications=40)
        mc = _MonteCarlo(game, enumerate_strategies(game))
        chunks = 0
        for _, strat_rows, x0, noise in mc.batches(profile, m0, cfg):
            got = mc.deviation_costs(strat_rows, x0, noise, player)
            want = deviation_costs_by_candidate(mc, strat_rows, x0, noise, player)
            assert got.shape == want.shape and np.array_equal(got, want)
            chunks += 1
        assert chunks == 3
        got = deviation_gain(game, profile, player, m0, "mc", cfg)
        monkeypatch.setattr(_MonteCarlo, "deviation_costs", deviation_costs_by_candidate)
        want = deviation_gain(game, profile, player, m0, "mc", cfg)
        assert got == want


@st.composite
def count_rows(draw):
    """(n, rows (reps, d) of state counts of n players), drawn with repeats
    from a pool of up to five rows; n = 600 at d = 8 needs the fallback."""
    d = draw(st.integers(1, 8))
    n = draw(st.sampled_from([1, 2, 5, 50, 600]))
    pool = []
    for _ in range(draw(st.integers(1, 5))):
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=d - 1, max_size=d - 1)))
        pool.append([b - a for a, b in zip([0, *cuts], [*cuts, n])])
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return n, np.array([pool[i] for i in picks], dtype=np.int64).reshape(len(picks), d)


class TestDistinctRows:
    @settings(max_examples=200, deadline=None)
    @given(count_rows())
    def test_rows_at_the_inverse_give_back_the_counts(self, drawn):
        n, counts = drawn
        inv, rows = nplayer._distinct_rows(counts, n)
        assert inv.shape == (len(counts),)
        assert np.array_equal(rows[inv], counts)
        assert len(np.unique(rows, axis=0)) == len(rows)

    def test_a_key_past_int64_takes_the_whole_rows(self, monkeypatch):
        """(600 + 1)^7 >= 2^63: the rows themselves are the key."""
        unique, axes = np.unique, []

        def spy(values, *args, **kwargs):
            axes.append(kwargs.get("axis"))
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(nplayer.np, "unique", spy)
        counts = np.array([[600, 0, 0, 0, 0, 0, 0, 0], [0] * 7 + [600],
                           [600, 0, 0, 0, 0, 0, 0, 0], [300, 0, 0, 300, 0, 0, 0, 0]])
        inv, rows = nplayer._distinct_rows(counts, 600)
        assert axes == [0] and len(rows) == 3
        assert np.array_equal(rows[inv], counts)

    def test_monte_carlo_at_eight_states_and_600_players(self):
        """A path walk whose count keys take the fallback equals the scalar
        reference, and the tree equals one `oracles.path_costs` per
        candidate."""
        game = random_game(8, 8, 2, 1)
        s = enumerate_strategies(game)
        flat = FlowTrajectory((ProbabilityVector.uniform(game.states, EXACT),) * 2)
        profile = FactoredProfile(600, (flat,), (F(1),), (((s[3], F(1, 2)), (s[200], F(1, 2))),))
        m0 = ProbabilityVector.uniform(game.states, EXACT)
        cfg = SimulationConfig(master_seed=2, replications=3)
        u = DeviationMap.single(s[3], s[77])
        got = mc_profile_cost(game, profile, 5, u, m0, cfg)
        want = scalar_mc_reference(game, profile, 5, u, m0, cfg)
        assert got[0] == want[0]
        mc = _MonteCarlo(game, s)
        for _, strat_rows, x0, noise in mc.batches(profile, m0, cfg):
            got = mc.deviation_costs(strat_rows, x0, noise, 5)
            assert np.array_equal(got, deviation_costs_by_candidate(mc, strat_rows, x0, noise, 5))


class TestChunkMemory:
    def test_no_uniform_block_outlives_its_call(self, monkeypatch):
        """With the cyclic collector off, every chunk's uniforms are freed by
        the time the call returns: nothing in the engine holds them in a
        reference cycle."""
        monkeypatch.setattr(nplayer, "_CHUNK", 16)
        refs = []
        uniform_block = rng.uniform_block

        def tracked(seeds, slots):
            block = uniform_block(seeds, slots)
            refs.append(weakref.ref(block))
            return block

        monkeypatch.setattr(rng, "uniform_block", tracked)
        game = random_game(5, 3, 2, 2)
        m0 = random_m0(game)
        profile = random_profiles(game, 5)[1]
        cfg = SimulationConfig(master_seed=3, replications=80)
        calls = {
            "deviation_gain": lambda: deviation_gain(game, profile, 0, m0, "mc", cfg),
            "mc_profile_cost": lambda: mc_profile_cost(
                game, profile, 0, DeviationMap.identity(), m0, cfg
            ),
            "empirical_rho_n": lambda: empirical_rho_n(game, profile, m0, cfg),
        }
        gc.collect()
        gc.disable()
        try:
            for name, call in calls.items():
                refs.clear()
                call()
                alive = sum(ref() is not None for ref in refs)
                # five chunks of three blocks: strategies, initial states, noise
                assert (len(refs), alive) == (15, 0), name
        finally:
            gc.enable()

    def test_the_walk_holds_one_chunk_of_noise(self):
        """The Monte Carlo audit of the c1 = 3/32 lift at N=200, 10^4
        replications: a chunk's strategy and initial-state blocks (4,096 x
        401 float64s) are freed once read, the tree walk holds only the noise
        block (4,096 x 400), and that is freed before the next chunk is
        drawn.  A chunk's 801 columns held through the walk and into the
        next draw peak near 77 MiB."""
        params = two_state.ExampleParams.from_alpha(F(1, 2), F(1, 32), F(3, 32))
        game, rho, m0 = two_state.build_example(params)
        profile = lift(rho, 200)
        cfg = SimulationConfig(master_seed=0, replications=10_000)
        tracemalloc.start()
        try:
            deviation_gain(game, profile, 0, m0, "mc", cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 68 * 2**20


    def test_a_wide_chunk_keeps_its_uniforms_within_the_budget(self, monkeypatch):
        """At N = 100,000 a replication of the c1 = 3/32 lift draws 400,001
        uniforms, so a chunk of 4,096 replications would need 12.2 GiB: the
        chunk is cut to the rows whose uniforms, over its three blocks, fit
        in 128 MiB."""
        shapes = []

        def record(seeds, slots):
            shapes.append((len(seeds), len(slots)))
            if len(shapes) == 3:  # the first chunk's noise: stop before the walk
                raise _Captured(*shapes[-1])
            return np.zeros(shapes[-1])

        monkeypatch.setattr(rng, "uniform_block", record)
        params = two_state.ExampleParams.from_alpha(F(1, 2), F(1, 32), F(3, 32))
        game, rho, m0 = two_state.build_example(params)
        cfg = SimulationConfig(master_seed=0, replications=5_000)
        with pytest.raises(_Captured):
            deviation_gain(game, lift(rho, 100_000), 0, m0, "mc", cfg)
        rows = shapes[0][0]
        assert shapes == [(rows, 100_001), (rows, 100_000), (rows, 200_000)]
        assert 1 <= rows and rows * 400_001 * 8 <= 2**27

    def test_byte_budgeted_chunks_change_no_result(self, monkeypatch):
        """A budget that cuts every chunk to 7 replications (the last one
        partial) gives the same audit, the same empirical flow and the same
        profile cost.  The c1 = 3/32 lift at N=7 has measures over 6, so its
        float sums round and their order shows."""
        params = two_state.ExampleParams.from_alpha(F(1, 2), F(1, 32), F(3, 32))
        game, rho, m0 = two_state.build_example(params)
        profile = lift(rho, 7)
        cfg = SimulationConfig(master_seed=3, replications=80)

        def results():
            gain = deviation_gain(game, profile, 0, m0, "mc", cfg)
            return (
                (gain.epsilon, gain.stderr, gain.rows),
                empirical_rho_n(game, profile, m0, cfg),
                mc_profile_cost(game, profile, 0, DeviationMap.identity(), m0, cfg),
            )

        whole = results()
        slots = 2 * profile.n_players + 1 + game.horizon * profile.n_players
        monkeypatch.setattr(nplayer, "_CHUNK_BYTES", 7 * 8 * slots + 7)
        counts = []
        uniform_block = rng.uniform_block

        def counted(seeds, slots):
            counts.append(len(seeds))
            return uniform_block(seeds, slots)

        monkeypatch.setattr(rng, "uniform_block", counted)
        assert results() == whole
        assert counts == ([7] * 33 + [3] * 3) * 3  # three blocks per chunk


class TestExactPropagationOnMixingGame:
    """exact_joint_propagate against the path oracle, for every player, on
    random games whose kernels and costs depend on the measure, so every
    exclusive measure and every per-strategy count matters."""

    @pytest.mark.parametrize(
        "seed, d, picks",
        [(3, 3, (5, 40)), (3, 3, (12, 63)), (3, 3, (5, 40, 63)),
         (3, 3, (5, 40, 40)), (7, 2, (3, 9, 9, 14))],
        ids=["N2", "N2-other-pair", "N3", "d3-N3-repeated", "d2-N4-repeated"],
    )
    def test_laws_and_costs_match_oracle(self, seed, d, picks):
        game = random_game(seed, d, 2, 2)
        m0 = random_m0(game)
        s = enumerate_strategies(game)
        assert_engine_matches_oracle(game, tuple(s[i] for i in picks), m0)


class TestPickParity:
    @given(
        st.lists(st.integers(0, 5), min_size=2, max_size=4).filter(lambda w: sum(w) > 0),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=80)
    def test_vector_pick_matches_scalar(self, raw, z):
        total = sum(raw)
        w = np.array([[v / total for v in raw]])
        zs = np.array([z])
        got = _pick(w, zs)[0]
        want = categorical_pick([v / total for v in raw], z)
        assert got == want

    @pytest.mark.parametrize(
        "raw, z",
        [([0.0, 0.5, 0.5], 0.0), ([0.1] * 10 + [0.0], 1.0), ([0.2, 0.0, 0.8, 0.0], 0.2)],
        ids=["zero-to-first-positive", "float-slack-to-last-positive", "boundary"],
    )
    def test_edge_cases_match_scalar(self, raw, z):
        assert _pick(np.array([raw]), np.array([z]))[0] == categorical_pick(raw, z)


class TestDeviationGain:
    def test_lifted_two_player_gain_is_zero(self, game, rho, uniform_m0):
        result = deviation_gain(game, lift(rho, 2), 0, uniform_m0, "exact")
        assert result.epsilon == 0
        assert result.method == "exact"
        assert all(row.gap == 0 for row in result.rows)

    def test_rows_cover_the_support(self, game, rho, uniform_m0):
        result = deviation_gain(game, lift(rho, 2), 0, uniform_m0, "exact")
        recs = {row.recommendation for row in result.rows}
        assert recs == {phi for phi, _, _ in rho.atoms}

    def test_exact_matches_brute_force(self, game, uniform_m0):
        profile = symmetrize(dirac_profile(PHI_PLUS, PHI_O))
        result = deviation_gain(game, profile, 0, uniform_m0, "exact")
        strategies = enumerate_strategies(game)
        ident = DeviationMap.identity()
        base = profile_cost_exact(game, profile, 0, ident, uniform_m0)
        brute_eps = F(0)
        for rec in (PHI_PLUS, PHI_O):
            values = []
            for psi in strategies:
                u = DeviationMap.single(rec, psi)
                values.append(profile_cost_exact(game, profile, 0, u, uniform_m0))
            own = profile_cost_exact(game, profile, 0, ident, uniform_m0)
            brute_eps += own - min(values)
        assert result.epsilon == brute_eps

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_lift_of_the_c1_3_32_example_has_exact_gain_5_2048(self, n):
        # each flow recommends one of two strategies, so the others repeat
        # strategies and the engine's per-strategy counts carry this value
        params = two_state.ExampleParams.from_alpha(F(1, 2), F(1, 32), F(3, 32))
        game, rho, _ = two_state.build_example(params)
        uniform = ProbabilityVector.uniform(game.states, EXACT)
        result = deviation_gain(game, lift(rho, n), 0, uniform, "exact")
        assert result.epsilon == F(5, 2048)

    def test_mc_estimates_positive_gain(self, game, uniform_m0):
        # telling player 0 to idle while the other holds up leaves 27/256
        # of value on the table: joining the crowd is strictly better
        profile = dirac_profile(PHI_O, PHI_PLUS)
        exact = deviation_gain(game, profile, 0, uniform_m0, "exact")
        assert exact.epsilon >= F(27, 256) > 0
        cfg = SimulationConfig(master_seed=0, replications=60_000)
        mc = deviation_gain(game, profile, 0, uniform_m0, "mc", cfg)
        assert mc.method == "mc" and mc.replications == 60_000
        assert abs(mc.epsilon - float(exact.epsilon)) <= 4 * (mc.stderr + 1e-12)

    def test_mc_epsilon_is_nonnegative(self, game, rho, uniform_m0):
        cfg = SimulationConfig(master_seed=2, replications=5000)
        result = deviation_gain(game, lift(rho, 3), 0, uniform_m0, "mc", cfg)
        assert result.epsilon >= 0
        assert result.stderr >= 0

    @given(
        st.integers(0, 2**32),
        st.sampled_from([(2, 2, 2), (3, 2, 1), (2, 3, 1)]),
        st.integers(2, 3),
        st.integers(1, 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_exact_rows_against_profile_costs(self, seed, shape, n, n_atoms):
        # row.cost + J(single(rec, psi)) - J(identity) is the value of psi on
        # the event {recommended rec}: at least best_value, equal at the best
        game = random_game(seed, *shape)
        strategies = enumerate_strategies(game)
        r = random.Random(seed)
        pool = r.sample(strategies, min(3, len(strategies)))
        raw = [r.randint(1, 4) for _ in range(n_atoms)]
        profile = ExplicitProfile(n, tuple(
            (tuple(r.choice(pool) for _ in range(n)), F(w, sum(raw))) for w in raw
        ))
        player = r.randrange(n)
        m0 = random_m0(game)
        result = deviation_gain(game, profile, player, m0, "exact")
        base = profile_cost_exact(game, profile, player, DeviationMap.identity(), m0)
        assert [row.rec_index for row in result.rows] == sorted(
            {strategies.index(vec[player]) for vec, _ in profile.atoms}
        )
        assert result.epsilon == sum(row.gap for row in result.rows)
        for row in result.rows:
            values = [
                row.cost - base + profile_cost_exact(
                    game, profile, player, DeviationMap.single(row.recommendation, psi), m0
                )
                for psi in strategies
            ]
            assert values[row.rec_index] == row.cost
            assert min(values) == row.best_value == values[row.best_index]
            assert values.index(row.best_value) == row.best_index
            assert strategies[row.best_index] == row.best


class TestCeConstraints:
    def test_size_matches_two_player_case(self, game, uniform_m0):
        lp = ce_constraints(game, 2, uniform_m0)
        assert len(lp.variables) == 256
        assert len(lp.rows) == 2 * 16 * 15 + 1

    def test_lifted_solution_satisfies_all_rows(self, game, rho, uniform_m0):
        lp = ce_constraints(game, 2, uniform_m0)
        explicit = expand(lift(rho, 2))
        strategies = enumerate_strategies(game)
        weights = {
            tuple(strategies.index(s) for s in vec): w
            for vec, w in explicit.atoms
        }
        values = {}
        for i in range(len(strategies)):
            for j in range(len(strategies)):
                values[f"g_{i}_{j}"] = weights.get((i, j), F(0))
        assert check_solution(lp, values)

    def test_float_game_rejected(self, game, uniform_m0):
        with pytest.raises(ValueError):
            ce_constraints(float_via_io(game), 2, uniform_m0)

    def test_lp_cap(self, game, uniform_m0):
        with pytest.raises(CapacityError):
            ce_constraints(game, 5, uniform_m0)


class TestSolveSymmetricCe:
    def test_two_player_equilibrium(self, game, uniform_m0):
        profile = solve_symmetric_ce(game, 2, uniform_m0)
        assert is_symmetric(profile)
        for player in range(2):
            result = deviation_gain(game, profile, player, uniform_m0, "exact")
            assert result.epsilon == 0

    def test_min_cost_variant_improves_total(self, game, uniform_m0):
        plain = solve_symmetric_ce(game, 2, uniform_m0)
        best = solve_symmetric_ce(game, 2, uniform_m0, minimize_total_cost=True)
        ident = DeviationMap.identity()

        def total(profile):
            return sum(
                profile_cost_exact(game, profile, i, ident, uniform_m0) for i in range(2)
            )

        assert total(best) <= total(plain)
        assert total(best) == F(-27, 128)

    @pytest.mark.parametrize("n", [-2, 0, 1])
    def test_fewer_than_two_players_refused_before_the_lp(self, game, uniform_m0, monkeypatch, n):
        calls = []
        monkeypatch.setattr(nplayer, "solve_lp", lambda lp: calls.append(lp))
        with pytest.raises(ValueError, match="need at least two players"):
            solve_symmetric_ce(game, n, uniform_m0)
        assert calls == []


class _Captured(Exception):
    """Raised in place of a call, with what the call was given: the LP that
    was to be solved, or the shape of a uniform block."""


def ce_lp(monkeypatch, game, n, m0n, **kwargs):
    """The LP that `solve_symmetric_ce` hands to `solve_lp`."""

    def capture(system):
        raise _Captured(system)

    with monkeypatch.context() as m:
        m.setattr(nplayer, "solve_lp", capture)
        with pytest.raises(_Captured) as info:
            solve_symmetric_ce(game, n, m0n, **kwargs)
    return info.value.args[0]


def ce_pivots(monkeypatch, game, n, m0n, **kwargs) -> int:
    """How many pivots `solve_symmetric_ce`'s LP takes, asserting that every
    entry of the LP (dense rows rebuilt from its columns, rhs, objective)
    is an int."""
    system = ce_lp(monkeypatch, game, n, m0n, **kwargs)
    entries = [v for row in dense_rows(system) for v in (*row.coeffs, row.rhs)]
    entries += system.objective or ()
    assert {type(v) for v in entries} == {int}
    return len(recorded(lp.solve_lp, lp._RevisedSimplex, system)[1])


class TestIntegerCeSystem:
    """The CE system is built and solved on ints: positive rescalings of the
    `Fraction` system, with the same pivots and the same atoms."""

    @pytest.mark.parametrize("seed, n", [(0, 2), (3, 2), (1, 3)])
    def test_rows_are_the_fraction_rows_times_n_d(self, monkeypatch, seed, n):
        game = random_game(seed, 2, 2, 2)
        m0n = ProbabilityVector.uniform(game.states, EXACT)
        system = ce_lp(monkeypatch, game, n, m0n, minimize_total_cost=True)
        strategies = enumerate_strategies(game)
        table = nplayer._AnonymousCostTable(game, m0n, strategies)
        cost = {
            others: table.costs(tuple(strategies[j] for j in others))
            for others in combinations_with_replacement(range(len(strategies)), n - 1)
        }
        den = math.lcm(*(c.denominator for cs in cost.values() for c in cs))
        multisets = list(combinations_with_replacement(range(len(strategies)), n))

        def costs(m_key, rec):
            others = list(m_key)
            others.remove(rec)
            return cost[tuple(others)]

        want = [
            [
                F(m_key.count(rec), n) * (costs(m_key, rec)[psi] - costs(m_key, rec)[rec])
                if rec in m_key else 0
                for m_key in multisets
            ]
            for rec in range(len(strategies))
            for psi in range(len(strategies))
            if psi != rec
        ]
        *incentives, mass = dense_rows(system)
        assert [[F(c, n * den) for c in row.coeffs] for row in incentives] == want
        assert all((row.relation, row.rhs) == (lp.GE, 0) for row in incentives)
        assert (mass.coeffs, mass.relation, mass.rhs) == ((1,) * len(multisets), lp.EQ, 1)
        assert [F(c, den) for c in system.objective] == [
            sum(m_key.count(rec) * costs(m_key, rec)[rec] for rec in set(m_key))
            for m_key in multisets
        ]
        assert {type(c) for row in incentives for c in row.coeffs} == {int}
        assert {type(c) for c in system.objective} == {int}

    @pytest.mark.parametrize("n, minimize", [(2, False), (2, True), (3, False)])
    def test_atoms_equal_those_of_the_fraction_tableau(
        self, monkeypatch, game, uniform_m0, n, minimize
    ):
        want = solve_symmetric_ce(game, n, uniform_m0, minimize_total_cost=minimize)
        monkeypatch.setattr(nplayer, "solve_lp", fraction_lp)
        assert solve_symmetric_ce(game, n, uniform_m0, minimize_total_cost=minimize) == want

    @pytest.mark.parametrize(
        "seed, minimize, pivots", [(0, False, 70), (0, True, 113), (3, False, 176), (3, True, 370)]
    )
    def test_pivots_on_random_games(self, monkeypatch, seed, minimize, pivots):
        game = random_game(seed, 2, 2, 2)
        m0n = ProbabilityVector.uniform(game.states, EXACT)
        assert ce_pivots(monkeypatch, game, 2, m0n, minimize_total_cost=minimize) == pivots

    @pytest.mark.parametrize("minimize, pivots", [(False, 1), (True, 50)])
    def test_pivots_on_the_example_at_three_players(
        self, monkeypatch, game, uniform_m0, minimize, pivots
    ):
        assert ce_pivots(monkeypatch, game, 3, uniform_m0, minimize_total_cost=minimize) == pivots


class TestCeAgainstTheFractionTableau:
    """The CE's LP, its columns priced on demand, takes the pivots and
    reaches the values of the dense `Fraction` tableau run on the rows
    rebuilt from those columns."""

    @pytest.mark.parametrize("seed, n, minimize", [
        (0, 2, False), (0, 2, True), (3, 2, False), (3, 2, True), (3, 3, False), (3, 3, True),
    ])
    def test_random_games(self, monkeypatch, seed, n, minimize):
        # three states, so 8 strategies; the kernels depend on the measure
        game = random_game(seed, 3, 2, 1)
        system = ce_lp(monkeypatch, game, n, ProbabilityVector.uniform(game.states, EXACT),
                       minimize_total_cost=minimize)
        got, pivots = recorded(lp.solve_lp, lp._RevisedSimplex, system)
        assert (got, pivots) == by_the_oracle(system)
        assert len(pivots) > 10
        assert check_solution(system, got)

    def test_least_cost_example_at_three_players(self, monkeypatch, game, uniform_m0):
        system = ce_lp(monkeypatch, game, 3, uniform_m0, minimize_total_cost=True)
        got, pivots = recorded(lp.solve_lp, lp._RevisedSimplex, system)
        assert len(pivots) == 50
        assert (got, pivots) == by_the_oracle(system)

    def test_four_players_allocate_far_less_than_the_dense_system(
        self, monkeypatch, game, uniform_m0
    ):
        """The N=4 LP has 241 rows and 3,876 columns; its 240 dense
        incentive rows alone would hold 240 x 3,876 references."""
        system = ce_lp(monkeypatch, game, 4, uniform_m0)
        assert (len(system.rows), len(system.variables)) == (241, 3876)
        tracemalloc.start()
        try:
            lp.solve_lp(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 240 * 3876 * 8 // 4


class TestExchangeability:
    def test_symmetrized_profile_passes(self, game, uniform_m0):
        profile = symmetrize(dirac_profile(PHI_PLUS, PHI_O, PHI_O))
        for t in (1, 2):
            report = exchangeability_check(game, profile, uniform_m0, t)
            assert report.ok
            assert all(row.worst_gap == 0 for row in report.rows)

    def test_lifted_profile_passes(self, game, rho, uniform_m0):
        report = exchangeability_check(game, lift(rho, 3), uniform_m0, 1)
        assert report.ok

    def test_asymmetric_profile_rejected(self, game, uniform_m0):
        with pytest.raises(ValueError):
            exchangeability_check(game, dirac_profile(PHI_PLUS, PHI_O), uniform_m0, 1)

    def test_time_range_checked(self, game, uniform_m0):
        profile = symmetrize(dirac_profile(PHI_PLUS, PHI_O))
        with pytest.raises(ValueError):
            exchangeability_check(game, profile, uniform_m0, 5)


class TestAuditsAgainstTheAtomExpansion:
    """The exact audits read one player's anonymous draws; the oracles walk
    the atoms of `oracles.expand` one by one.  Random games whose kernels and
    costs depend on the measure, explicit and factored profiles on one to
    three strategies, N up to 5, the first and the last player."""

    @given(
        st.integers(0, 2**32),
        st.sampled_from([(2, 2, 2), (3, 2, 1), (2, 3, 1)]),
        st.integers(2, 5),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_deviation_gain_equals_the_expanded_audit(self, seed, shape, n, factored, last):
        game = random_game(seed, *shape)
        profile = random_audit_profile(game, seed, n, factored)
        player = n - 1 if last else 0
        m0 = random_m0(game)
        want = expanded_deviation_gain(game, profile, player, m0)
        assert deviation_gain(game, profile, player, m0, "exact") == want
        cost = profile_cost_exact(game, profile, player, DeviationMap.identity(), m0)
        assert cost == sum(row.cost for row in want.rows)

        floats = deviation_gain(
            float_via_io(game), float_copy(profile), player, float_via_io(game, m0), "exact"
        )
        assert [row.rec_index for row in floats.rows] == [row.rec_index for row in want.rows]
        for got, row in zip(floats.rows, want.rows):
            assert abs(got.cost - float(row.cost)) < 1e-12
            assert abs(got.best_value - float(row.best_value)) < 1e-12
        assert abs(floats.epsilon - float(want.epsilon)) < 1e-12

    @given(
        st.integers(0, 2**32),
        st.sampled_from([(2, 2, 2), (3, 2, 1), (2, 3, 1)]),
        st.integers(2, 5),
        st.booleans(),
        st.integers(0, 2),
    )
    @settings(max_examples=15, deadline=None)
    def test_exchangeability_equals_the_atom_by_atom_check(self, seed, shape, n, factored, t):
        game = random_game(seed, *shape)
        profile = random_audit_profile(game, seed, n, factored)
        if not factored:
            profile = symmetrize(profile)
        t = min(t, game.horizon)
        m0 = random_m0(game)
        want = expanded_exchangeability_check(game, profile, m0, t)
        assert exchangeability_check(game, profile, m0, t) == want

        floats = exchangeability_check(
            float_via_io(game), float_copy(profile), float_via_io(game, m0), t
        )
        assert floats.ok == want.ok
        assert [row.empirical for row in floats.rows] == [
            tuple(map(float, row.empirical)) for row in want.rows
        ]
        for got, row in zip(floats.rows, want.rows):
            assert abs(got.mass - float(row.mass)) < 1e-12
            assert abs(got.worst_gap - float(row.worst_gap)) < 1e-12
