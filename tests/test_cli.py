"""Command-line interface: parsing, exit codes, artifacts, determinism."""

import hashlib
import json
import os
import time

import pytest

from cmfg import cli, io, two_state

from oracles import MALFORMED_GAMES, malformed_game


def run_cli(argv):
    return cli.run(cli.parse_args(argv))


EPSILON_ARGV = ["nplayer", "epsilon", "--game", "g.json", "--profile", "p.json"]
_GAME_FLOW = ["--game", "g.json", "--flow", "r.json"]
_CAPS = ("--threads", "--joint-cap", "--atom-cap", "--lp-cap", "--strategy-cap", "--ot-cap")

# the commands that read no thread count and at most the strategy cap, each
# with the options it does not take
UNCAPPED_COMMANDS = {
    "validate": (["validate", "g.json"], _CAPS),
    "mfg verify": (["mfg", "verify", *_GAME_FLOW], _CAPS[:4] + _CAPS[5:]),
    "mfg best-response": (["mfg", "best-response", *_GAME_FLOW], _CAPS[:4] + _CAPS[5:]),
    "mfg propagate": (["mfg", "propagate", *_GAME_FLOW], _CAPS),
    "example section5": (["example", "section5"], _CAPS),
    "lift": (["lift", *_GAME_FLOW, "-N", "3"], _CAPS),
}

# every command that reads a cap, with the caps it reads
CAPPED_COMMANDS = {
    "nplayer solve-ce": (["nplayer", "solve-ce", "--game", "g.json", "-N", "3"], _CAPS[1:]),
    "nplayer epsilon": (EPSILON_ARGV, _CAPS[1:]),
    "limits epsilon-curve": (["limits", "epsilon-curve", *_GAME_FLOW, "--Ns", "2"], _CAPS[1:]),
    "limits converge": (["limits", "converge", *_GAME_FLOW, "--Ns", "5"], _CAPS[1:]),
    "mfg verify": (["mfg", "verify", *_GAME_FLOW], ("--strategy-cap",)),
    "mfg best-response": (["mfg", "best-response", *_GAME_FLOW], ("--strategy-cap",)),
}

_CAP_DEFAULTS = {
    "out": ".", "threads": 1, "joint_cap": 4096, "atom_cap": 4096, "lp_cap": 65536,
    "strategy_cap": 4096, "ot_cap": 10000,
}

# argv and parsed options, in order, of the commands whose manifests the
# benchmark pins
PINNED_OPTIONS = {
    "nplayer solve-ce": (
        ["nplayer", "solve-ce", "--game", "g.json", "-N", "3"],
        {"game": "g.json", "n_players": 3, "m0": None, "min_cost": False, **_CAP_DEFAULTS},
    ),
    "nplayer epsilon": (
        EPSILON_ARGV,
        {"game": "g.json", "profile": "p.json", "player": 0, "method": "exact",
         "reps": 100000, "m0": None, **_CAP_DEFAULTS, "seed": 0},
    ),
    "limits epsilon-curve": (
        ["limits", "epsilon-curve", *_GAME_FLOW, "--Ns", "2,5"],
        {"game": "g.json", "flow": "r.json", "ns": (2, 5), "reps": 100000,
         "method": "auto", "m0": None, **_CAP_DEFAULTS, "seed": 0},
    ),
    "limits converge": (
        ["limits", "converge", *_GAME_FLOW, "--Ns", "5"],
        {"game": "g.json", "flow": "r.json", "ns": (5,), "reps": 200, "m0": None,
         **_CAP_DEFAULTS, "seed": 0},
    ),
}


@pytest.fixture()
def example_dir(tmp_path):
    out = tmp_path / "example"
    out.mkdir()
    assert run_cli(["example", "section5", "-o", str(out)]) == 0
    return out


class TestParseArgs:
    def test_validate_spec(self):
        spec = cli.parse_args(["validate", "game.json"])
        assert spec.command == "validate"
        assert spec.options["game"] == "game.json"

    def test_epsilon_curve_fully_populated(self):
        spec = cli.parse_args(
            [
                "limits", "epsilon-curve",
                "--game", "g.json", "--flow", "r.json",
                "--Ns", "2,5,10", "--reps", "100000", "--seed", "7",
            ]
        )
        assert spec.command == "limits epsilon-curve"
        assert spec.options["ns"] == (2, 5, 10)
        assert spec.options["reps"] == 100000
        assert spec.options["seed"] == 7

    def test_missing_players_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["lift", "--flow", "r.json", "--game", "g.json"])
        assert exc.value.code == 2
        assert "-N" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["validate", "g.json", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_threads_below_one_exits_2(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args([*EPSILON_ARGV, "--method", "mc", "--threads", value])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("command, option", [
        (command, option)
        for command, (_, options) in CAPPED_COMMANDS.items() for option in options
    ])
    def test_caps_below_one_exit_2(self, command, option, value, capsys):
        # a cap below one would refuse every input with a capacity error
        argv, _ = CAPPED_COMMANDS[command]
        with pytest.raises(SystemExit) as exc:
            cli.parse_args([*argv, option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: need a positive integer, got {value}" in err

    def test_unknown_command_exits_2(self, tmp_path, capsys):
        assert cli.run(cli.CommandSpec("frobnicate", {"out": str(tmp_path)})) == 2
        assert "invalid input: 'frobnicate'" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command, option", [
        (command, option)
        for command, (_, options) in UNCAPPED_COMMANDS.items() for option in options
    ])
    def test_commands_refuse_the_options_they_do_not_read(self, command, option, capsys):
        argv, _ = UNCAPPED_COMMANDS[command]
        with pytest.raises(SystemExit) as exc:
            cli.parse_args([*argv, option, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(PINNED_OPTIONS))
    def test_pinned_commands_keep_their_options_and_defaults(self, command):
        # every option lands in manifest.json in this order, and the
        # benchmark pins those bytes
        argv, want = PINNED_OPTIONS[command]
        spec = cli.parse_args(argv)
        assert spec.command == command
        assert list(spec.options.items()) == list(want.items())


class TestExampleCommand:
    def test_emits_expected_files(self, example_dir):
        names = sorted(os.listdir(example_dir))
        assert names == [
            "game.json", "manifest.json", "rho.json", "values.csv", "verdict.json",
        ]

    def test_verdict_content(self, example_dir):
        verdict = json.loads((example_dir / "verdict.json").read_text())
        assert verdict["verdict"] == "solution"
        assert verdict["closed_forms_match"] is True
        assert verdict["solution"]["is_solution"] is True
        assert verdict["solution"]["optimality"]["gap"] == "0"

    def test_values_table_header_and_exactness(self, example_dir):
        lines = (example_dir / "values.csv").read_text().splitlines()
        assert lines[0] == "table,t,state,value,exact"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_builds_the_example_once(self, tmp_path, monkeypatch):
        calls = []
        example_flows = two_state.example_flows

        def counted(params):
            calls.append(params)
            return example_flows(params)

        monkeypatch.setattr(two_state, "example_flows", counted)
        assert run_cli(["example", "section5", "-o", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_not_solution_exits_1(self, tmp_path):
        code = run_cli(
            ["example", "section5", "--c0", "1/8", "-o", str(tmp_path)]
        )
        assert code == 1
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["verdict"] == "not_solution"

    def test_boundary_exits_0(self, tmp_path):
        code = run_cli(
            ["example", "section5", "--c1", "5/64", "-o", str(tmp_path)]
        )
        assert code == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["verdict"] == "boundary"

    def test_beta_flag(self, tmp_path):
        code = run_cli(
            ["example", "section5", "--beta", "1/8,1/8,1/8,1/8", "-o", str(tmp_path)]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "beta, message",
        [("1/4,1/8,1/16,1/16", None), ("1/8,1/8,1/4", "exactly four rationals")],
        ids=["not-in-range", "three-rationals"],
    )
    def test_invalid_beta_exits_2(self, tmp_path, capsys, beta, message):
        out = tmp_path / "bad"
        code = run_cli(["example", "section5", "--beta", beta, "-o", str(out)])
        assert code == 2
        assert message is None or message in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_with_beta_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([
                "example", "section5", "--alpha", "1/2", "--beta", "1/8,1/8,1/8,1/8",
                "-o", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()


class TestVerificationCommands:
    def test_validate_ok(self, example_dir, tmp_path):
        out = tmp_path / "v"
        out.mkdir()
        code = run_cli(
            ["validate", str(example_dir / "game.json"), "-o", str(out)]
        )
        assert code == 0
        report = json.loads((out / "validation.json").read_text())
        assert report["ok"] is True

    @pytest.mark.parametrize(
        "t, x, a, coef, message",
        [
            (0, 0, 0, [["1/4", "0"], ["0", "0"]], "coef column y=0 sums to 1/4, not 0"),
            (1, 1, 0, [["-3/4", "0"], ["3/4", "0"]],
             "negative value -1/4 at vertex y=0, target i=0"),
        ],
        ids=["coef-column-sum", "negative-vertex"],
    )
    def test_validate_lists_kernel_violations_and_exits_1(
        self, example_dir, tmp_path, t, x, a, coef, message
    ):
        doc = json.loads((example_dir / "game.json").read_text())
        doc["transition"]["coef"][t][x][a] = coef
        bad = tmp_path / "bad_game.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "v"
        assert run_cli(["validate", str(bad), "-o", str(out)]) == 1
        report = json.loads((out / "validation.json").read_text())
        assert report["ok"] is False
        assert report["violations"] == [
            {"location": f"transition[t={t}][x={x}][a={a}]", "message": message}
        ]

    def test_mfg_verify_pass(self, example_dir, tmp_path):
        out = tmp_path / "m"
        out.mkdir()
        code = run_cli(
            [
                "mfg", "verify",
                "--game", str(example_dir / "game.json"),
                "--flow", str(example_dir / "rho.json"),
                "-o", str(out),
            ]
        )
        assert code == 0

    def test_mfg_verify_broken_flow_exits_1(self, example_dir, tmp_path):
        doc = json.loads((example_dir / "rho.json").read_text())
        # move terminal mass of one flow family: consistency must fail
        for atom in doc["atoms"]:
            if atom["flow"][2] == ["37/64", "27/64"]:
                atom["flow"][2] = ["9/10", "1/10"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "b"
        out.mkdir()
        code = run_cli(
            [
                "mfg", "verify",
                "--game", str(example_dir / "game.json"),
                "--flow", str(broken),
                "-o", str(out),
            ]
        )
        assert code == 1
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["consistency"]["ok"] is False

    def test_best_response_table(self, example_dir, tmp_path):
        out = tmp_path / "br"
        out.mkdir()
        code = run_cli(
            [
                "mfg", "best-response",
                "--game", str(example_dir / "game.json"),
                "--flow", str(example_dir / "rho.json"),
                "-o", str(out),
            ]
        )
        assert code == 0
        lines = (out / "best_response.csv").read_text().splitlines()
        assert lines[0] == "player,recommendation,cost,best_response,gap"
        assert len(lines) == 6  # five distinct recommendations

    @pytest.mark.parametrize("command", ["verify", "best-response"])
    def test_strategy_cap_exits_3(self, example_dir, tmp_path, capsys, command):
        code = run_cli([
            "mfg", command, "--game", str(example_dir / "game.json"),
            "--flow", str(example_dir / "rho.json"), "--strategy-cap", "15",
            "-o", str(tmp_path),
        ])
        assert code == 3
        assert "16 strategies, cap is 15" in capsys.readouterr().err

    def test_propagate_table(self, example_dir, tmp_path):
        out = tmp_path / "pr"
        out.mkdir()
        code = run_cli(
            [
                "mfg", "propagate",
                "--game", str(example_dir / "game.json"),
                "--flow", str(example_dir / "rho.json"),
                "-o", str(out),
            ]
        )
        assert code == 0
        lines = (out / "propagation.csv").read_text().splitlines()
        assert lines[0] == "flow,t,state,value,exact"
        assert len(lines) == 1 + 4 * 3 * 2

    def test_missing_file_exits_2(self, tmp_path):
        code = run_cli(["validate", str(tmp_path / "nope.json")])
        assert code == 2

    @pytest.mark.parametrize(
        "data", [b"{not json", b"\xff\xfe{}", b"\xef\xbb\xbf{}"],
        ids=["not-json", "not-utf-8", "utf-8-bom"],
    )
    def test_malformed_json_exits_2(self, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        assert run_cli(["validate", str(bad), "-o", str(tmp_path / "o")]) == 2


class TestNPlayerCommands:
    def test_solve_ce_writes_equilibrium(self, example_dir, tmp_path):
        out = tmp_path / "ce"
        out.mkdir()
        code = run_cli(
            [
                "nplayer", "solve-ce",
                "--game", str(example_dir / "game.json"),
                "-N", "2", "-o", str(out),
            ]
        )
        assert code == 0
        eq = json.loads((out / "equilibrium.json").read_text())
        assert eq["max_deviation_gain"] == "0"
        profile = io.profile_from_json(
            json.loads((out / "profile.json").read_text()),
            io.game_from_json(json.loads((example_dir / "game.json").read_text())),
        )
        assert profile.n_players == 2

    @pytest.mark.parametrize("n", ["-2", "0", "1"])
    def test_solve_ce_needs_two_players(self, example_dir, tmp_path, capsys, n):
        code = run_cli([
            "nplayer", "solve-ce", "--game", str(example_dir / "game.json"),
            "-N", n, "-o", str(tmp_path),
        ])
        assert code == 2
        assert "need at least two players" in capsys.readouterr().err

    def test_solve_ce_capacity_exits_3(self, example_dir, tmp_path):
        code = run_cli(
            [
                "nplayer", "solve-ce",
                "--game", str(example_dir / "game.json"),
                "-N", "9", "-o", str(tmp_path),
            ]
        )
        assert code == 3

    @pytest.fixture()
    def ce_profile(self, example_dir, tmp_path):
        out = tmp_path / "ce"
        game = str(example_dir / "game.json")
        assert run_cli(["nplayer", "solve-ce", "--game", game, "-N", "2", "-o", str(out)]) == 0
        return ["--game", game, "--profile", str(out / "profile.json")]

    def test_epsilon_over_the_cost_matrix_cap_exits_3(self, ce_profile, tmp_path, capsys):
        # 16 candidates x 5e6 replications x 8 bytes is over the 512 MiB cap
        out = tmp_path / "big"
        started = time.perf_counter()
        code = run_cli(["nplayer", "epsilon", *ce_profile, "--method", "mc",
                        "--reps", "5000000", "-o", str(out)])
        assert time.perf_counter() - started < 1
        assert code == 3
        assert "exceed the cost-matrix cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["mc", "exact"])
    def test_epsilon_player_out_of_range_exits_2(self, ce_profile, tmp_path, capsys, method):
        out = tmp_path / "eps"
        code = run_cli(["nplayer", "epsilon", *ce_profile, "--player", "2",
                        "--method", method, "-o", str(out)])
        assert code == 2
        assert "player index 2 out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_epsilon_exact_on_lifted_profile(self, example_dir, tmp_path):
        prof_dir = tmp_path / "lift"
        prof_dir.mkdir()
        assert run_cli(
            [
                "lift",
                "--game", str(example_dir / "game.json"),
                "--flow", str(example_dir / "rho.json"),
                "-N", "2", "-o", str(prof_dir),
            ]
        ) == 0
        out = tmp_path / "eps"
        out.mkdir()
        code = run_cli(
            [
                "nplayer", "epsilon",
                "--game", str(example_dir / "game.json"),
                "--profile", str(prof_dir / "profile.json"),
                "--m0", "1/2,1/2",
                "-o", str(out),
            ]
        )
        assert code == 0
        eps = json.loads((out / "epsilon.json").read_text())
        assert eps["epsilon"] == "0"
        assert eps["method"] == "exact"


class TestMalformedDocuments:
    """Bad input documents exit 2 with a message, never 1 or a traceback."""

    @pytest.fixture()
    def short_flow(self, example_dir, tmp_path):
        doc = json.loads((example_dir / "rho.json").read_text())
        for atom in doc["atoms"]:
            atom["strategy"] = atom["strategy"][:1]
        path = tmp_path / "short_rho.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.fixture()
    def short_profile(self, example_dir, tmp_path):
        out = tmp_path / "lift"
        assert run_cli(
            [
                "lift",
                "--game", str(example_dir / "game.json"),
                "--flow", str(example_dir / "rho.json"),
                "-N", "3", "-o", str(out),
            ]
        ) == 0
        doc = json.loads((out / "profile.json").read_text())
        for cond in doc["factored"]["conditionals"]:
            for entry in cond:
                entry["strategy"] = entry["strategy"][:1]
        path = tmp_path / "short_profile.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.fixture()
    def cut_flow(self, example_dir, tmp_path):
        doc = json.loads((example_dir / "rho.json").read_text())
        for atom in doc["atoms"]:
            atom["flow"] = atom["flow"][1:]
        path = tmp_path / "cut_rho.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.fixture()
    def cut_profile(self, example_dir, tmp_path):
        out = tmp_path / "lift"
        assert run_cli(
            [
                "lift",
                "--game", str(example_dir / "game.json"),
                "--flow", str(example_dir / "rho.json"),
                "-N", "3", "-o", str(out),
            ]
        ) == 0
        doc = json.loads((out / "profile.json").read_text())
        for entry in doc["factored"]["flows"]:
            entry["flow"] = entry["flow"][1:]
        path = tmp_path / "cut_profile.json"
        path.write_text(json.dumps(doc))
        return path

    def assert_shape_error(self, code, capsys):
        assert code == 2
        assert "must have 2 rows (one per time) of 2 action labels" in (
            capsys.readouterr().err
        )

    def test_lift_rejects_short_strategy(self, example_dir, short_flow, tmp_path, capsys):
        code = run_cli(
            [
                "lift", "--game", str(example_dir / "game.json"),
                "--flow", str(short_flow), "-N", "3", "-o", str(tmp_path / "o"),
            ]
        )
        self.assert_shape_error(code, capsys)
        assert not (tmp_path / "o" / "profile.json").exists()

    def test_mfg_verify_rejects_short_strategy(
        self, example_dir, short_flow, tmp_path, capsys
    ):
        code = run_cli(
            [
                "mfg", "verify", "--game", str(example_dir / "game.json"),
                "--flow", str(short_flow), "-o", str(tmp_path / "o"),
            ]
        )
        self.assert_shape_error(code, capsys)

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_epsilon_rejects_short_strategy(
        self, example_dir, short_profile, tmp_path, capsys, method
    ):
        code = run_cli(
            [
                "nplayer", "epsilon", "--game", str(example_dir / "game.json"),
                "--profile", str(short_profile), "--method", method,
                "--reps", "10", "-o", str(tmp_path / "o"),
            ]
        )
        self.assert_shape_error(code, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["lift", "-N", "3"],
            ["mfg", "propagate", "--m0", "1/2,1/2"],
            ["nplayer", "epsilon", "--method", "exact"],
            ["nplayer", "epsilon", "--method", "mc", "--reps", "10"],
        ],
        ids=["lift", "mfg-propagate", "epsilon-exact", "epsilon-mc"],
    )
    def test_flow_with_too_few_measures_rejected(
        self, example_dir, cut_flow, cut_profile, tmp_path, capsys, argv
    ):
        source = (
            ["--profile", str(cut_profile)] if argv[0] == "nplayer"
            else ["--flow", str(cut_flow)]
        )
        out = tmp_path / "o"
        code = run_cli(
            argv + ["--game", str(example_dir / "game.json"), *source, "-o", str(out)]
        )
        assert code == 2
        assert "flow must have 3 measures" in capsys.readouterr().err
        assert not out.exists() or not any(out.glob("*.json"))

    def test_epsilon_rejects_empty_explicit_profile(self, example_dir, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"explicit": []}))
        code = run_cli(
            [
                "nplayer", "epsilon", "--game", str(example_dir / "game.json"),
                "--profile", str(empty), "-o", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "at least one atom" in capsys.readouterr().err


    def assert_invalid_input(self, code, capsys):
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid input:" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", MALFORMED_GAMES)
    def test_malformed_game_exits_2(self, example_dir, tmp_path, capsys, edit):
        doc = malformed_game(json.loads((example_dir / "game.json").read_text()), edit)
        path = tmp_path / "bad_game.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["validate", str(path), "-o", str(tmp_path / "o")])
        self.assert_invalid_input(code, capsys)

    def test_fractional_player_count_exits_2(self, example_dir, tmp_path, capsys):
        game = str(example_dir / "game.json")
        lifted = tmp_path / "lift"
        assert run_cli(
            ["lift", "--game", game, "--flow", str(example_dir / "rho.json"),
             "-N", "3", "-o", str(lifted)]
        ) == 0
        doc = json.loads((lifted / "profile.json").read_text())
        doc["factored"]["n_players"] = 2.5
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code = run_cli(
            ["nplayer", "epsilon", "--game", game, "--profile", str(path), "-o", str(tmp_path / "o")]
        )
        self.assert_invalid_input(code, capsys)

    @pytest.mark.parametrize(
        "kind, doc",
        [("profile", {"explicit": {"a": 1}}), ("flow", {"atoms": 5})],
        ids=["explicit-object", "atoms-scalar"],
    )
    def test_malformed_profile_or_flow_exits_2(self, example_dir, tmp_path, capsys, kind, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        game = ["--game", str(example_dir / "game.json"), "-o", str(tmp_path / "o")]
        argv = (
            ["nplayer", "epsilon", "--profile", str(path)] if kind == "profile"
            else ["mfg", "verify", "--flow", str(path)]
        )
        self.assert_invalid_input(run_cli(argv + game), capsys)

    @pytest.mark.parametrize(
        "value", [10**400, float("nan"), float("inf")], ids=["overflow", "nan", "inf"]
    )
    def test_float_game_with_non_finite_number_exits_2(
        self, example_dir, tmp_path, capsys, value
    ):
        doc = json.loads((example_dir / "game.json").read_text())
        doc["arithmetic"] = "float"
        doc["cost"]["terminal_base"][0] = value
        path = tmp_path / "float_game.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["validate", str(path), "-o", str(tmp_path / "o")])
        self.assert_invalid_input(code, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["nplayer", "epsilon", "--profile", "PROFILE", "--method", "mc", "--reps", "10"],
            ["limits", "converge", "--flow", "FLOW", "--Ns", "5", "--reps", "10"],
        ],
        ids=["epsilon-mc", "limits-converge"],
    )
    def test_exact_game_beyond_float_range_exits_2(
        self, example_dir, tmp_path, capsys, argv
    ):
        # exact mode takes 10**400, but the Monte Carlo engine runs on floats;
        # the same terminal cost in both states keeps rho a solution
        doc = json.loads((example_dir / "game.json").read_text())
        doc["cost"]["terminal_base"] = [str(10**400)] * 2
        huge_game = tmp_path / "huge_game.json"
        huge_game.write_text(json.dumps(doc))
        assert run_cli(["validate", str(huge_game), "-o", str(tmp_path / "v")]) == 0
        lifted = tmp_path / "lift"
        assert run_cli(
            ["lift", "--game", str(example_dir / "game.json"),
             "--flow", str(example_dir / "rho.json"), "-N", "3", "-o", str(lifted)]
        ) == 0
        capsys.readouterr()
        paths = {"PROFILE": str(lifted / "profile.json"), "FLOW": str(example_dir / "rho.json")}
        code = run_cli(
            [paths.get(a, a) for a in argv]
            + ["--game", str(huge_game), "-o", str(tmp_path / "o")]
        )
        self.assert_invalid_input(code, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["example", "section5", "--c0", "1/0"],
            ["example", "section5", "--alpha", "half"],
            ["limits", "converge", "--game", "g.json", "--flow", "r.json", "--Ns", "2.5"],
            ["limits", "converge", "--game", "g.json", "--flow", "r.json", "--Ns", ","],
        ],
        ids=["c0-zero-denominator", "alpha-word", "Ns-fraction", "Ns-empty"],
    )
    def test_bad_option_value_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["example", "section5", "--beta", "1/0,1/4,1/4,1/4"],
            ["nplayer", "solve-ce", "--game", "GAME", "-N", "2", "--m0", "1/0,1"],
            ["validate", "ZERO_GAME"],
        ],
        ids=["example-beta", "solve-ce-m0", "validate-terminal-base"],
    )
    def test_zero_denominator_exits_2(self, example_dir, tmp_path, capsys, argv):
        doc = json.loads((example_dir / "game.json").read_text())
        doc["cost"]["terminal_base"][0] = "1/0"
        zero_game = tmp_path / "zero_game.json"
        zero_game.write_text(json.dumps(doc))
        paths = {"GAME": str(example_dir / "game.json"), "ZERO_GAME": str(zero_game)}
        code = run_cli([paths.get(a, a) for a in argv] + ["-o", str(tmp_path / "o")])
        assert code == 2
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mfg", "verify", "--game", "GAME", "--flow", "FLOW", "--m0", ""],
            ["mfg", "best-response", "--game", "GAME", "--flow", "FLOW", "--m0", ""],
            ["mfg", "propagate", "--game", "GAME", "--flow", "FLOW", "--m0", ""],
            ["nplayer", "solve-ce", "--game", "GAME", "-N", "2", "--m0", ""],
            ["nplayer", "epsilon", "--game", "GAME", "--profile", "PROFILE", "--m0", ""],
            ["limits", "epsilon-curve", "--game", "GAME", "--flow", "FLOW", "--Ns", "2",
             "--m0", ""],
            ["limits", "converge", "--game", "GAME", "--flow", "FLOW", "--Ns", "2",
             "--m0", ""],
            ["example", "section5", "--beta", ""],
        ],
        ids=["verify-m0", "best-response-m0", "propagate-m0", "solve-ce-m0",
             "epsilon-m0", "epsilon-curve-m0", "converge-m0", "example-beta"],
    )
    def test_empty_weights_exit_2(self, example_dir, tmp_path, capsys, argv):
        # an empty --m0 or --beta is malformed, not a request for the default
        game, flow = str(example_dir / "game.json"), str(example_dir / "rho.json")
        lifted = tmp_path / "lift"
        assert run_cli(["lift", "--game", game, "--flow", flow, "-N", "2",
                        "-o", str(lifted)]) == 0
        paths = {"GAME": game, "FLOW": flow, "PROFILE": str(lifted / "profile.json")}
        out = tmp_path / "o"
        code = run_cli([paths.get(a, a) for a in argv] + ["-o", str(out)])
        self.assert_invalid_input(code, capsys)
        assert not (out / "manifest.json").exists()


class TestLimitsCommands:
    def test_epsilon_curve_csv_contract(self, example_dir, tmp_path):
        out = tmp_path / "curve"
        out.mkdir()
        code = run_cli(
            [
                "limits", "epsilon-curve",
                "--game", str(example_dir / "game.json"),
                "--flow", str(example_dir / "rho.json"),
                "--Ns", "2", "--reps", "100", "--seed", "0",
                "-o", str(out),
            ]
        )
        assert code == 0
        lines = (out / "epsilon_curve.csv").read_text().splitlines()
        assert lines[0] == "N,epsilon,stderr,method,reps,seconds"
        fields = lines[1].split(",")
        assert fields[0] == "2" and fields[3] == "exact"
        assert fields[1] == "0" and fields[2] == "" and fields[4] == ""

    def test_converge_csv_contract(self, example_dir, tmp_path):
        out = tmp_path / "conv"
        out.mkdir()
        code = run_cli(
            [
                "limits", "converge",
                "--game", str(example_dir / "game.json"),
                "--flow", str(example_dir / "rho.json"),
                "--Ns", "5,20", "--reps", "50", "--seed", "0",
                "-o", str(out),
            ]
        )
        assert code == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "N,W1,reps,seconds"
        assert len(lines) == 3

    @pytest.mark.parametrize("cap", ["--ot-cap", "--strategy-cap"])
    def test_converge_honours_caps(self, example_dir, tmp_path, capsys, cap):
        out = tmp_path / "conv"
        code = run_cli(
            [
                "limits", "converge",
                "--game", str(example_dir / "game.json"),
                "--flow", str(example_dir / "rho.json"),
                "--Ns", "5", "--reps", "50", cap, "5", "-o", str(out),
            ]
        )
        assert code == 3
        assert "capacity error" in capsys.readouterr().err
        assert not (out / "convergence.csv").exists()


class TestDeterminismAndManifest:
    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for out in (a, b):
            assert run_cli(["example", "section5", "-o", str(out)]) == 0
        for name in ("game.json", "rho.json", "verdict.json", "values.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_manifest_records_inputs_and_outputs(self, example_dir, tmp_path):
        out = tmp_path / "mv"
        out.mkdir()
        run_cli(
            [
                "mfg", "verify",
                "--game", str(example_dir / "game.json"),
                "--flow", str(example_dir / "rho.json"),
                "-o", str(out),
            ]
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "mfg verify"
        assert set(manifest["inputs"]) == {"game.json", "rho.json"}
        for name, entry in manifest["inputs"].items():
            data = (example_dir / name).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert manifest["outputs"] == ["verdict.json"]
        assert manifest["versions"]["cmfg"]
        assert manifest["wall_seconds"] > 0

    def test_inputs_not_mutated(self, example_dir):
        before = (example_dir / "game.json").read_bytes()
        out = example_dir / "sub"
        out.mkdir()
        run_cli(
            [
                "mfg", "verify",
                "--game", str(example_dir / "game.json"),
                "--flow", str(example_dir / "rho.json"),
                "-o", str(out),
            ]
        )
        assert (example_dir / "game.json").read_bytes() == before


def _gap_audit_outputs(tmp_path) -> dict[str, bytes]:
    """Bytes of every gap table and verdict the CLI writes on the example at the
    default c1 and at c1 = 3/32, including the N=4 lift's exact and MC audits."""
    out = {}
    for tag, extra in (("default", []), ("c1-3-32", ["--c1", "3/32"])):
        ex = tmp_path / tag
        run_cli(["example", "section5", *extra, "-o", str(ex)])
        doc = ["--game", str(ex / "game.json"), "--flow", str(ex / "rho.json")]
        for command, names in (
            ("verify", ("verdict.json",)),
            ("best-response", ("best_response.csv", "gap.json")),
        ):
            run_cli(["mfg", command, *doc, "-o", str(ex / command)])
            for name in names:
                out[f"{tag}/{command}/{name}"] = (ex / command / name).read_bytes()
    ex = tmp_path / "c1-3-32"
    assert run_cli([
        "lift", "--game", str(ex / "game.json"), "--flow", str(ex / "rho.json"),
        "-N", "4", "-o", str(ex / "lift"),
    ]) == 0
    for method, extra in (("exact", []), ("mc", ["--reps", "2000", "--seed", "3"])):
        eps = ex / f"eps-{method}"
        assert run_cli([
            "nplayer", "epsilon", "--game", str(ex / "game.json"),
            "--profile", str(ex / "lift" / "profile.json"), "--m0", "1/2,1/2",
            "--method", method, *extra, "-o", str(eps),
        ]) == 0
        for name in ("gains.csv", "epsilon.json"):
            out[f"c1-3-32/eps-{method}/{name}"] = (eps / name).read_bytes()
    return out


# SHA-256 of each file above as written before the mean-field optimality check
# and both N-player deviation audits built their rows through one gap table
GAP_AUDIT_DIGESTS = {
    "default/verify/verdict.json":
        "cd4d73d15baf60a9d7e401300035969ebab2f2dbb455e47efd66b92467d20b44",
    "default/best-response/best_response.csv":
        "aac2b010142dbd43a99a193263b92aefce6d84126bb89b73998ec6fe2491152f",
    "default/best-response/gap.json":
        "ff3d0d3f99a754753d79aafa2bdcafcf6a6c8834575da0b8d5150d3b85f762e9",
    "c1-3-32/verify/verdict.json":
        "cc53d4f175a5352007e01bc691e7aba006682860fbe2799100c97936cc48fa15",
    "c1-3-32/best-response/best_response.csv":
        "35310ccccb961efe4c24f6696d4807036eb7104b51bb5f8faa0ee53e563c8b96",
    "c1-3-32/best-response/gap.json":
        "4759488dd851bfa4ed1dbeed6d5797e5f4e6671dff6ac0e688fc559927f44059",
    "c1-3-32/eps-exact/gains.csv":
        "35310ccccb961efe4c24f6696d4807036eb7104b51bb5f8faa0ee53e563c8b96",
    "c1-3-32/eps-exact/epsilon.json":
        "316c90c959b9ede2776e0bf4576f4120150c16c2268287a7d55499d0d9e9581b",
    "c1-3-32/eps-mc/gains.csv":
        "fe08572e4dae49b2a22077b520815b1f621db620c4a0d080ebd5005f4b0db9d5",
    "c1-3-32/eps-mc/epsilon.json":
        "0f426304ec0af3d3da88158dc1551a184fc2ae6f291a1bd96222c566b698a67f",
}


def test_gap_audit_outputs_keep_their_bytes(tmp_path):
    got = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in _gap_audit_outputs(tmp_path).items()
    }
    assert got == GAP_AUDIT_DIGESTS
