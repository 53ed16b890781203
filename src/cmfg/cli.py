"""Command-line front end.

Subcommands: validate, mfg verify|best-response|propagate, example section5,
nplayer solve-ce|epsilon, lift, limits epsilon-curve|converge.

Exit codes: 0 success (verdict "pass" where applicable), 1 verdict failure,
2 argument or input parsing failure, 3 capacity cap exceeded (`limits
converge` applies --strategy-cap to its check that rho is a solution and
--ot-cap to each transport, which exits 3 before its first pivot).  Every command
writes a manifest.json (inputs, seed, versions, wall time) next to its
outputs, and all files are written atomically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__, io, limits, mfg, nplayer, two_state
from .model import (
    DEFAULT_ATOM_CAP,
    DEFAULT_JOINT_CAP,
    DEFAULT_LP_CAP,
    DEFAULT_OT_CAP,
    DEFAULT_STRATEGY_CAP,
    EXACT,
    CapacityError,
    validate_game,
)


@dataclass
class CommandSpec:
    """A parsed invocation: subcommand name plus its options."""

    command: str
    options: dict = field(default_factory=dict)


def _rational(text: str) -> Fraction:
    return io.parse_scalar(text, EXACT)


def _player_counts(text: str) -> tuple[int, ...]:
    return io.list_from_text(text, int)


def _threads(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"need at least one thread, got {text}")
    return int(text)


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--out", default=".", help="output directory")


def _add_common(p: argparse.ArgumentParser, *, seeded: bool = False) -> None:
    """-o, --threads and every cap (and --seed if asked): the options of the
    commands whose manifests are pinned byte for byte, in their order."""
    _add_out(p)
    p.add_argument("--threads", type=_threads, default=1,
                   help="recorded in the manifest only")
    p.add_argument("--joint-cap", type=int, default=DEFAULT_JOINT_CAP)
    p.add_argument("--atom-cap", type=int, default=DEFAULT_ATOM_CAP,
                   help="bounds only the --method auto choice of limits epsilon-curve")
    p.add_argument("--lp-cap", type=int, default=DEFAULT_LP_CAP)
    p.add_argument("--strategy-cap", type=int, default=DEFAULT_STRATEGY_CAP)
    p.add_argument("--ot-cap", type=int, default=DEFAULT_OT_CAP)
    if seeded:
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed")


def _build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="cmfg",
        description="Verify, solve and simulate correlated equilibria in "
        "finite-state games and their mean-field limit.",
    )
    root.add_argument("--version", action="version", version=f"cmfg {__version__}")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file against its invariants")
    p.add_argument("game", help="game JSON path")
    _add_out(p)

    pm = sub.add_parser("mfg", help="mean-field verification commands")
    msub = pm.add_subparsers(dest="subcommand", required=True)
    for name, helptext in (
        ("verify", "verify a correlated flow as an MFG solution"),
        ("best-response", "per-recommendation best responses and gaps"),
        ("propagate", "McKean-Vlasov propagation of each flow conditional"),
    ):
        q = msub.add_parser(name, help=helptext)
        q.add_argument("--game", required=True)
        q.add_argument("--flow", required=True)
        q.add_argument("--m0", default=None,
                       help="initial law, comma-separated weights; default: "
                       "the flows' shared time-0 measure")
        _add_out(q)
        if name != "propagate":
            q.add_argument("--strategy-cap", type=int, default=DEFAULT_STRATEGY_CAP)

    pe = sub.add_parser("example", help="built-in worked examples")
    esub = pe.add_subparsers(dest="subcommand", required=True)
    q = esub.add_parser("section5", help="two-state crowd-seeking example")
    weights = q.add_mutually_exclusive_group()
    weights.add_argument("--alpha", type=_rational, default=None,
                         help="sets beta = (a/4, a/4, (1-a)/4, (1-a)/4)")
    weights.add_argument("--beta", default=None,
                         help="four comma-separated rationals b1,b2,b3,b4")
    q.add_argument("--c0", type=_rational, default=Fraction(1, 32))
    q.add_argument("--c1", type=_rational, default=Fraction(1, 16))
    _add_out(q)

    pn = sub.add_parser("nplayer", help="finite-N game commands")
    nsub = pn.add_subparsers(dest="subcommand", required=True)
    q = nsub.add_parser("solve-ce", help="exact symmetric correlated equilibrium")
    q.add_argument("--game", required=True)
    q.add_argument("-N", "--players", type=int, required=True, dest="n_players")
    q.add_argument("--m0", default=None, help="initial law weights (default uniform)")
    q.add_argument("--min-cost", action="store_true",
                   help="select the CE minimizing expected total cost")
    _add_common(q)
    q = nsub.add_parser("epsilon", help="deviation gain of a stored profile")
    q.add_argument("--game", required=True)
    q.add_argument("--profile", required=True)
    q.add_argument("--player", type=int, default=0)
    q.add_argument("--method", choices=("exact", "mc"), default="exact")
    q.add_argument("--reps", type=int, default=100_000)
    q.add_argument("--m0", default=None, help="initial law weights (default uniform)")
    _add_common(q, seeded=True)

    p = sub.add_parser("lift", help="lift a correlated flow to an N-player profile")
    p.add_argument("--game", required=True)
    p.add_argument("--flow", required=True)
    p.add_argument("-N", "--players", type=int, required=True, dest="n_players")
    _add_out(p)

    pl = sub.add_parser("limits", help="mean-field limit experiments")
    lsub = pl.add_subparsers(dest="subcommand", required=True)
    q = lsub.add_parser("epsilon-curve", help="deviation gain of the lift per N")
    q.add_argument("--game", required=True)
    q.add_argument("--flow", required=True)
    q.add_argument("--Ns", type=_player_counts, required=True, dest="ns")
    q.add_argument("--reps", type=int, default=100_000)
    q.add_argument("--method", choices=("auto", "exact", "mc"), default="auto")
    q.add_argument("--m0", default=None)
    _add_common(q, seeded=True)
    q = lsub.add_parser("converge", help="W1 distance of the sampled law to rho")
    q.add_argument("--game", required=True)
    q.add_argument("--flow", required=True)
    q.add_argument("--Ns", type=_player_counts, required=True, dest="ns")
    q.add_argument("--reps", type=int, default=200)
    q.add_argument("--m0", default=None)
    _add_common(q, seeded=True)
    return root


def parse_args(argv: Sequence[str]) -> CommandSpec:
    """Parse an argv list; exits with code 2 on unrecognized input."""
    ns = _build_parser().parse_args(list(argv))
    options = vars(ns).copy()
    command = options.pop("command")
    subcommand = options.pop("subcommand", None)
    if subcommand:
        command = f"{command} {subcommand}"
    return CommandSpec(command, options)


# ---------------------------------------------------------------------------
# helpers shared by the runners


def _option_json(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        return list(v)
    return v


class _Session:
    """Collects inputs and outputs so the manifest can describe the run."""

    def __init__(self, spec: CommandSpec):
        self.spec = spec
        self.out_dir = spec.options.get("out", ".")
        self.inputs: dict[str, dict] = {}
        self.outputs: list[str] = []
        self.started = time.perf_counter()

    def read_json(self, path: str):
        with open(path, "rb") as handle:
            data = handle.read()
        self.inputs[os.path.basename(path)] = {
            "path": os.path.abspath(path),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        return json.loads(data.decode("utf-8"))

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def write_json(self, name: str, obj) -> None:
        io.write_json_atomic(self.path(name), obj)
        self.outputs.append(name)

    def write_csv(self, name: str, header, rows) -> None:
        io.write_csv_atomic(self.path(name), header, rows)
        self.outputs.append(name)

    def finish(self) -> None:
        import numpy

        manifest = {
            "command": self.spec.command,
            "options": {k: _option_json(v) for k, v in self.spec.options.items()},
            "inputs": self.inputs,
            "outputs": sorted(self.outputs),
            "seed": self.spec.options.get("seed"),
            "versions": {
                "cmfg": __version__,
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
            },
            "wall_seconds": time.perf_counter() - self.started,
        }
        io.write_json_atomic(self.path("manifest.json"), manifest)


def _load_game_flow(session: _Session, opts: dict):
    game = io.game_from_json(session.read_json(opts["game"]))
    rho = io.flow_from_json(session.read_json(opts["flow"]), game)
    if opts.get("m0"):
        m0 = io.measure_from_text(opts["m0"], game)
    else:
        m0 = io.common_initial_measure(rho)
    return game, rho, m0


def _uniform_m0(game, text: Optional[str]):
    from .model import ProbabilityVector

    if text:
        return io.measure_from_text(text, game)
    return ProbabilityVector.uniform(game.states, game.arithmetic)


def _gap_rows_csv(session: _Session, name: str, reports) -> None:
    rows = []
    for player, rep in reports:
        for r in rep.rows:
            rows.append((player, r.rec_index, r.cost, r.best_index, r.gap))
    session.write_csv(
        name, ("player", "recommendation", "cost", "best_response", "gap"), rows
    )


# ---------------------------------------------------------------------------
# runners


def _run_validate(session: _Session, opts: dict) -> int:
    game = io.game_from_json(session.read_json(opts["game"]))
    report = validate_game(game)
    session.write_json(
        "validation.json",
        {
            "ok": report.ok,
            "lipschitz_modulus": io.scalar_json(report.lipschitz),
            "violations": [
                {"location": v.location, "message": v.message}
                for v in report.violations
            ],
        },
    )
    return 0 if report.ok else 1


def _verdict_json(verdict, game) -> dict:
    opt, cons = verdict.optimality, verdict.consistency
    return {
        "is_solution": verdict.is_solution,
        "optimality": {
            "ok": opt.ok,
            "gap": io.scalar_json(opt.gap),
            "has_tie": opt.has_tie,
            "rows": [
                {
                    "recommendation": io.strategy_to_json(r.recommendation, game),
                    "cost": io.scalar_json(r.cost),
                    "best": io.strategy_to_json(r.best, game),
                    "best_value": io.scalar_json(r.best_value),
                    "gap": io.scalar_json(r.gap),
                    "tied": r.tied,
                }
                for r in opt.rows
            ],
        },
        "consistency": {
            "ok": cons.ok,
            "max_residual": io.scalar_json(cons.max_residual),
            "rows": [
                {
                    "weight": io.scalar_json(r.weight),
                    "residual": io.scalar_json(r.residual),
                    "flow": [
                        [io.scalar_json(w) for w in pv.weights]
                        for pv in r.flow.measures
                    ],
                }
                for r in cons.rows
            ],
        },
    }


def _run_mfg_verify(session: _Session, opts: dict) -> int:
    game, rho, m0 = _load_game_flow(session, opts)
    verdict = mfg.verify_solution(game, rho, m0, opts["strategy_cap"])
    session.write_json("verdict.json", _verdict_json(verdict, game))
    return 0 if verdict.is_solution else 1


def _run_mfg_best_response(session: _Session, opts: dict) -> int:
    game, rho, m0 = _load_game_flow(session, opts)
    report = mfg.optimality_gap(game, rho, m0, opts["strategy_cap"])
    _gap_rows_csv(session, "best_response.csv", [(0, report)])
    session.write_json(
        "gap.json", {"ok": report.ok, "gap": io.scalar_json(report.gap)}
    )
    return 0 if report.ok else 1


def _run_mfg_propagate(session: _Session, opts: dict) -> int:
    game, rho, m0 = _load_game_flow(session, opts)
    rows = []
    exact = game.arithmetic == "exact"
    _, _, conditionals = mfg.factor_flow(rho)
    for k, cond in enumerate(conditionals):
        for t, pv in enumerate(mfg.mkv_propagate(game, cond, m0).measures):
            for x, label in enumerate(game.states.labels):
                rows.append((k, t, label, pv.weights[x], exact))
    session.write_csv(
        "propagation.csv", ("flow", "t", "state", "value", "exact"), rows
    )
    return 0


def _example_params(opts: dict) -> two_state.ExampleParams:
    if opts.get("beta"):
        parts = io.list_from_text(opts["beta"], _rational)
        if len(parts) != 4:
            raise ValueError("--beta needs exactly four rationals")
        return two_state.ExampleParams(parts, opts["c0"], opts["c1"])
    alpha = opts["alpha"] if opts.get("alpha") is not None else Fraction(1, 2)
    return two_state.ExampleParams.from_alpha(alpha, opts["c0"], opts["c1"])


def _run_example_section5(session: _Session, opts: dict) -> int:
    params = _example_params(opts)
    game, rho, m0 = two_state.build_example(params)
    verdict = two_state.verify_example(params)
    session.write_json("game.json", io.game_to_json(game))
    session.write_json("rho.json", io.flow_to_json(rho, game))
    session.write_json(
        "verdict.json",
        {
            "verdict": verdict.verdict,
            "closed_forms_match": verdict.closed_forms_match,
            "c0": io.scalar_json(params.c0),
            "c1": io.scalar_json(params.c1),
            "c0_threshold": io.scalar_json(verdict.c0_threshold),
            "c1_threshold": io.scalar_json(verdict.c1_threshold),
            "margins": [io.scalar_json(m) for m in verdict.margins],
            "solution": _verdict_json(verdict.solution, game),
        },
    )
    rows = []
    for name, dp in (("V_plus", verdict.v_plus), ("V_plus_once", verdict.v_plus_once)):
        for t, by_x in enumerate(dp.values):
            for x, label in enumerate(game.states.labels):
                rows.append((name, t, label, by_x[x], True))
    session.write_csv("values.csv", ("table", "t", "state", "value", "exact"), rows)
    return 0 if verdict.verdict in ("solution", "boundary") else 1


def _run_nplayer_solve_ce(session: _Session, opts: dict) -> int:
    game = io.game_from_json(session.read_json(opts["game"]))
    m0 = _uniform_m0(game, opts.get("m0"))
    profile = nplayer.solve_symmetric_ce(
        game,
        opts["n_players"],
        m0,
        minimize_total_cost=opts["min_cost"],
        lp_cap=opts["lp_cap"],
        joint_cap=opts["joint_cap"],
        strategy_cap=opts["strategy_cap"],
    )
    session.write_json("profile.json", io.profile_to_json(profile, game))
    reports = []
    for player in range(opts["n_players"]):
        gain = nplayer.deviation_gain(
            game, profile, player, m0, "exact",
            joint_cap=opts["joint_cap"], strategy_cap=opts["strategy_cap"],
        )
        reports.append((player, gain))
    _gap_rows_csv(session, "gains.csv", reports)
    worst = max(g.epsilon for _, g in reports)
    session.write_json(
        "equilibrium.json",
        {"players": opts["n_players"], "max_deviation_gain": io.scalar_json(worst)},
    )
    return 0 if worst == 0 else 1


def _run_nplayer_epsilon(session: _Session, opts: dict) -> int:
    game = io.game_from_json(session.read_json(opts["game"]))
    profile = io.profile_from_json(session.read_json(opts["profile"]), game)
    m0 = _uniform_m0(game, opts.get("m0"))
    cfg = nplayer.SimulationConfig(opts["seed"], opts["reps"])
    gain = nplayer.deviation_gain(
        game, profile, opts["player"], m0, opts["method"], cfg,
        joint_cap=opts["joint_cap"], strategy_cap=opts["strategy_cap"],
    )
    _gap_rows_csv(session, "gains.csv", [(opts["player"], gain)])
    session.write_json(
        "epsilon.json",
        {
            "player": opts["player"],
            "epsilon": io.scalar_json(gain.epsilon),
            "method": gain.method,
            "stderr": gain.stderr,
            "replications": gain.replications,
        },
    )
    return 0


def _run_lift(session: _Session, opts: dict) -> int:
    game = io.game_from_json(session.read_json(opts["game"]))
    rho = io.flow_from_json(session.read_json(opts["flow"]), game)
    profile = limits.lift(rho, opts["n_players"])
    session.write_json("profile.json", io.profile_to_json(profile, game))
    return 0


def _run_limits_epsilon_curve(session: _Session, opts: dict) -> int:
    game, rho, m0 = _load_game_flow(session, opts)
    cfg = nplayer.SimulationConfig(opts["seed"], opts["reps"])
    curve = limits.epsilon_curve(
        game, rho, m0, opts["ns"], cfg, opts["method"],
        joint_cap=opts["joint_cap"], atom_cap=opts["atom_cap"],
        strategy_cap=opts["strategy_cap"],
    )
    rows = [
        (
            r.n_players,
            r.epsilon,
            "" if r.stderr is None else r.stderr,
            r.method,
            "" if r.replications is None else r.replications,
            r.seconds,
        )
        for r in curve
    ]
    session.write_csv(
        "epsilon_curve.csv", ("N", "epsilon", "stderr", "method", "reps", "seconds"), rows
    )
    return 0


def _run_limits_converge(session: _Session, opts: dict) -> int:
    game, rho, m0 = _load_game_flow(session, opts)
    cfg = nplayer.SimulationConfig(opts["seed"], opts["reps"])
    rows = limits.convergence_report(
        game, rho, m0, opts["ns"], cfg,
        strategy_cap=opts["strategy_cap"], ot_cap=opts["ot_cap"],
    )
    session.write_csv(
        "convergence.csv",
        ("N", "W1", "reps", "seconds"),
        [(r.n_players, r.w1, r.replications, r.seconds) for r in rows],
    )
    return 0


_RUNNERS = {
    "validate": _run_validate,
    "mfg verify": _run_mfg_verify,
    "mfg best-response": _run_mfg_best_response,
    "mfg propagate": _run_mfg_propagate,
    "example section5": _run_example_section5,
    "nplayer solve-ce": _run_nplayer_solve_ce,
    "nplayer epsilon": _run_nplayer_epsilon,
    "lift": _run_lift,
    "limits epsilon-curve": _run_limits_epsilon_curve,
    "limits converge": _run_limits_converge,
}


def run(spec: CommandSpec) -> int:
    """Execute a parsed command; returns the process exit code."""
    runner = _RUNNERS.get(spec.command)
    if runner is None:  # pragma: no cover - harness guards this
        print(f"unknown command {spec.command!r}", file=sys.stderr)
        return 2
    session = _Session(spec)
    try:
        code = runner(session, spec.options)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    session.finish()
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = parse_args(sys.argv[1:] if argv is None else argv)
    return run(spec)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
