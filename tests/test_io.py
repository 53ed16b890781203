"""Serialization: scalar conventions, JSON documents, atomic writers."""

import json
import os
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfg import io
from cmfg.limits import lift
from cmfg.model import EXACT, FLOAT, RestrictedStrategy
from cmfg.nplayer import ExplicitProfile, FactoredProfile

from oracles import MALFORMED_GAMES, expand, malformed_game, random_game
from test_nplayer import float_via_io


class TestScalars:
    def test_exact_accepts_ints_and_ratios(self):
        assert io.parse_scalar(3, EXACT) == F(3)
        assert io.parse_scalar("5/7", EXACT) == F(5, 7)
        assert io.parse_scalar("-2", EXACT) == F(-2)

    def test_exact_rejects_floats_and_bools(self):
        with pytest.raises(ValueError):
            io.parse_scalar(0.5, EXACT)
        with pytest.raises(ValueError):
            io.parse_scalar(True, EXACT)

    def test_float_mode_accepts_everything_numeric(self):
        assert io.parse_scalar(0.5, FLOAT) == 0.5
        assert io.parse_scalar(2, FLOAT) == 2.0
        assert io.parse_scalar("1/4", FLOAT) == 0.25

    @pytest.mark.parametrize(
        "value",
        ["1e400", 10**400, "-" + "9" * 400, float("nan"), float("inf"), float("-inf")],
        ids=["string-overflow", "int-overflow", "negative-overflow", "nan", "inf", "-inf"],
    )
    def test_float_mode_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            io.parse_scalar(value, FLOAT)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_zero_denominator_rejected(self, mode):
        with pytest.raises(ValueError, match="zero denominator"):
            io.parse_scalar("1/0", mode)

    def test_scalar_json_forms(self):
        assert io.scalar_json(F(1, 3)) == "1/3"
        assert io.scalar_json(F(4)) == "4"
        assert io.scalar_json(0.5) == 0.5

    def test_csv_cell_17_digits(self):
        assert io.csv_cell(1 / 3) == "0.33333333333333331"
        assert io.csv_cell(F(1, 2)) == "0.5"
        assert io.csv_cell("label") == "label"


class TestAtomicWriters:
    def test_json_roundtrip_and_trailing_newline(self, tmp_path):
        path = str(tmp_path / "doc.json")
        io.write_json_atomic(path, {"a": [1, 2]})
        raw = (tmp_path / "doc.json").read_bytes()
        assert raw.endswith(b"\n")
        assert json.loads(raw) == {"a": [1, 2]}

    def test_csv_layout(self, tmp_path):
        path = str(tmp_path / "t.csv")
        io.write_csv_atomic(path, ("a", "b"), [(1, 0.25), (F(1, 3), "x")])
        text = (tmp_path / "t.csv").read_text()
        assert text == "a,b\n1,0.25\n0.33333333333333331,x\n"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "out.json")
        io.write_json_atomic(path, {})
        io.write_json_atomic(path, {"second": True})
        assert sorted(os.listdir(tmp_path)) == ["out.json"]
        assert json.loads((tmp_path / "out.json").read_text()) == {"second": True}

    def test_overwrite_is_complete(self, tmp_path):
        path = str(tmp_path / "f.json")
        io.write_json_atomic(path, {"long": "content here"})
        io.write_json_atomic(path, {})
        assert (tmp_path / "f.json").read_text() == "{}\n"

    def test_failed_replace_keeps_the_target_and_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "f.json"
        io.write_json_atomic(str(path), {"kept": True})
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(io.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            io.write_json_atomic(str(path), {"lost": True})
        assert sorted(os.listdir(tmp_path)) == ["f.json"]
        assert path.read_bytes() == before


class TestGameDocuments:
    def test_roundtrip_exact(self, game):
        doc = io.game_to_json(game)
        again = io.game_from_json(doc)
        assert again == game

    def test_json_is_serializable_text(self, game):
        text = json.dumps(io.game_to_json(game))
        assert "exact" in text

    def test_float_roundtrip(self, game):
        fgame = float_via_io(game)
        assert fgame.tables() == game.float_tables()
        again = io.game_from_json(json.loads(json.dumps(io.game_to_json(fgame))))
        assert again.arithmetic == FLOAT
        assert again == fgame

    def test_exact_file_with_float_entry_rejected(self, game):
        doc = io.game_to_json(game)
        doc["cost"]["terminal_base"][0] = 0.25
        with pytest.raises(ValueError):
            io.game_from_json(doc)

    def test_unknown_arithmetic_rejected(self, game):
        doc = io.game_to_json(game)
        doc["arithmetic"] = "decimal"
        with pytest.raises(ValueError):
            io.game_from_json(doc)


class TestMalformedGameDocuments:
    @pytest.mark.parametrize("edit", MALFORMED_GAMES)
    def test_rejected(self, game, edit):
        with pytest.raises(ValueError):
            io.game_from_json(malformed_game(io.game_to_json(game), edit))

    def test_missing_table_rejected(self, game):
        doc = io.game_to_json(game)
        del doc["cost"]["terminal_coef"]
        with pytest.raises(ValueError, match="terminal_coef"):
            io.game_from_json(doc)


class TestGameTables:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    def test_roundtrip_and_float_copy(self, seed, d, n_actions, horizon):
        g = random_game(seed, d, n_actions, horizon)
        assert io.game_from_json(json.loads(json.dumps(io.game_to_json(g)))) == g
        f = float_via_io(g)
        c, fc = g.cost, f.cost
        assert fc.running_base == tuple(
            tuple(tuple(float(v) for v in by_a) for by_a in by_x) for by_x in c.running_base
        )
        assert fc.running_coef == tuple(
            tuple(tuple(tuple(float(v) for v in row) for row in by_a) for by_a in by_x)
            for by_x in c.running_coef
        )
        assert fc.terminal_base == tuple(float(v) for v in c.terminal_base)
        assert fc.terminal_coef == tuple(tuple(float(v) for v in row) for row in c.terminal_coef)
        for t in range(horizon):
            for x in range(d):
                for a in range(n_actions):
                    row, frow = g.transition.rows[t][x][a], f.transition.rows[t][x][a]
                    assert frow.base == tuple(float(v) for v in row.base)
                    assert frow.coef == tuple(tuple(float(v) for v in r) for r in row.coef)


class TestStrategyAndFlowDocuments:
    def test_strategy_uses_action_labels(self, game):
        phi = RestrictedStrategy(((1, 0), (0, 0)))
        doc = io.strategy_to_json(phi, game)
        assert doc == [["1", "0"], ["0", "0"]]
        assert io.strategy_from_json(doc, game) == phi

    @pytest.mark.parametrize(
        "doc", [[["1", "0"]], [["1", "0"], ["0"]], [["1", "0", "0"], ["0", "0"]], "10"]
    )
    def test_strategy_of_wrong_shape_rejected(self, game, doc):
        with pytest.raises(ValueError, match="2 rows .* of 2 action labels"):
            io.strategy_from_json(doc, game)

    def test_flow_roundtrip(self, game, rho):
        doc = io.flow_to_json(rho, game)
        again = io.flow_from_json(doc, game)
        assert again.atoms == rho.atoms

    @pytest.mark.parametrize("length", [2, 4])
    def test_flow_with_wrong_measure_count_rejected(self, game, rho, length):
        doc = io.flow_to_json(rho, game)
        for atom in doc["atoms"]:
            atom["flow"] = (atom["flow"] * 2)[-length:]
        with pytest.raises(ValueError, match="flow must have 3 measures"):
            io.flow_from_json(doc, game)
        profile = io.profile_to_json(lift(rho, 3), game)
        for entry in profile["factored"]["flows"]:
            entry["flow"] = (entry["flow"] * 2)[-length:]
        with pytest.raises(ValueError, match="flow must have 3 measures"):
            io.profile_from_json(profile, game)

    def test_flow_weights_serialized_as_ratios(self, game, rho):
        doc = io.flow_to_json(rho, game)
        assert all(isinstance(a["weight"], str) for a in doc["atoms"])


class TestProfileDocuments:
    def test_explicit_roundtrip(self, game, rho):
        explicit = expand(lift(rho, 2))
        doc = io.profile_to_json(explicit, game)
        again = io.profile_from_json(doc, game)
        assert isinstance(again, ExplicitProfile)
        assert again.atoms == explicit.atoms

    def test_int_weight_written_as_a_ratio(self, game, rho):
        vec = tuple(s for s, _, _ in rho.atoms[:2])
        doc = io.profile_to_json(ExplicitProfile(2, ((vec, 1),)), game)
        assert doc["explicit"][0]["weight"] == "1"

    def test_factored_roundtrip(self, game, rho):
        prof = lift(rho, 3)
        doc = io.profile_to_json(prof, game)
        again = io.profile_from_json(doc, game)
        assert isinstance(again, FactoredProfile)
        assert again.n_players == 3
        assert again.flows == prof.flows
        assert again.conditionals == prof.conditionals

    def test_empty_explicit_profile_rejected(self, game):
        with pytest.raises(ValueError, match="at least one atom"):
            io.profile_from_json({"explicit": []}, game)

    def test_unknown_shape_rejected(self, game):
        with pytest.raises(ValueError):
            io.profile_from_json({"neither": []}, game)

    @pytest.mark.parametrize("doc", [[], "explicit"])
    def test_non_object_rejected(self, game, doc):
        with pytest.raises(ValueError):
            io.profile_from_json(doc, game)

    @pytest.mark.parametrize("n_players", [2.5, "3", True])
    def test_non_integer_player_count_rejected(self, game, rho, n_players):
        doc = io.profile_to_json(lift(rho, 3), game)
        doc["factored"]["n_players"] = n_players
        with pytest.raises(ValueError, match="n_players must be a JSON integer"):
            io.profile_from_json(doc, game)

    def test_explicit_object_rejected(self, game):
        with pytest.raises(ValueError):
            io.profile_from_json({"explicit": {"a": 1}}, game)

    @pytest.mark.parametrize("doc", [{"atoms": 5}, {"atoms": [5]}, {}, []])
    def test_malformed_flow_rejected(self, game, doc):
        with pytest.raises(ValueError):
            io.flow_from_json(doc, game)


class TestMeasureParsing:
    def test_measure_from_text(self, game):
        m = io.measure_from_text("1/4, 3/4", game)
        assert m.weights == (F(1, 4), F(3, 4))

    def test_wrong_arity_rejected(self, game):
        with pytest.raises(ValueError):
            io.measure_from_text("1/4,1/4,1/2", game)

    @pytest.mark.parametrize("text", ["", ",", "1/2,[1]"])
    def test_empty_or_bad_list_rejected(self, game, text):
        with pytest.raises(ValueError):
            io.measure_from_text(text, game)

    def test_non_distribution_rejected(self, game):
        with pytest.raises(ValueError):
            io.measure_from_text("1/4,1/4", game)

    def test_common_initial_measure(self, rho):
        m0 = io.common_initial_measure(rho)
        assert m0.weights == (F(1, 2), F(1, 2))

    def test_mismatched_initials_rejected(self, game, rho):
        from cmfg.mfg import CorrelatedFlow
        from cmfg.model import FlowTrajectory, ProbabilityVector

        skew = ProbabilityVector(game.states, (F(1, 4), F(3, 4)), EXACT)
        atoms = list(rho.atoms)
        phi, flow, w = atoms[0]
        atoms[0] = (phi, FlowTrajectory((skew, flow[1], flow[2])), w)
        mixed = CorrelatedFlow(tuple(atoms))
        with pytest.raises(ValueError):
            io.common_initial_measure(mixed)
