"""Workloads of the cmfg benchmark: inputs, jobs, output checks and timing.

Every job is a README command line run in this process through
``cmfg.cli.main(argv)``.  Paths in the command lines are relative to a work
directory that holds only generated inputs (``in/``) and the jobs' outputs
(``out/``).  A pass runs a workload's jobs once, back to back; the pass time
covers the jobs only, and the outputs are checked after it.

A run repeats passes for its ``--seconds``.  ``wall_s`` is the seconds of
one pass at a reference machine speed: while a pass runs, a small fixed
probe of the workload's kind of work runs every 50 ms between the
program's calls, each quarter second of the pass is scaled by the probes
timed in it, and the scaled pieces are matched across passes by the calls
that bound them (``pass_seconds_at_reference_speed``).  The shared host
this was tuned on ran the same pass 1.8 times slower in some spells than in
others; the raw pass times stay in the run record.

Workloads (the reasons are repeated in BENCHMARK.json):

- ``exact``: the exact rational N-player engine and the LP.  The symmetric
  CE at N=3 spends ~90% of its time in ``exact_joint_propagate``, the cost
  that is exponential in N.  It never touches Monte Carlo or transport, so
  it is the "no change" workload for those layers.  Its inputs do not
  depend on the seed.
- ``mc``: the Monte Carlo deviation audit, one full simulation per
  candidate strategy.  Job 2 uses a generated three-state game with a
  measure-dependent kernel and 64 candidates, so a change that exploits the
  built-in example's zero transition coefficients or its 16 candidates does
  not pass for a general gain.  It bypasses the exact engine, the LP and
  transport.  10,000 and 1,000 replications keep a pass near 7 s, so a run
  holds five passes.
- ``converge``: exact W1 transport of the sampled empirical flow (~93% in
  ``solve_transport``).  It uses the shared RNG and step simulator with one
  identity path per replication and no candidate loop, so a change to the
  deviation loop shows no change here, while a change to the shared
  simulator shows on both ``mc`` and ``converge``.  The sample is drawn at
  one fixed program seed: the simplex's pivot count depends on the sample,
  and at 400 replications one sample took twice as long as another (25 s
  against 12 s, run back to back), so a seed-dependent sample would measure
  the sample rather than the program.  200 replications keep a pass near
  5 s, so a run holds six passes or more.
"""

from __future__ import annotations

import array
import bisect
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import cmfg
from cmfg import cli, limits

import gen
import tracing

WORKLOADS = ("exact", "mc", "converge")
DEFAULT_SEED = 0  # references are pinned at this seed
CONVERGE_SEED = 0  # program seed of the converge sample, for every run
SETUP_PROBES = 7  # fresh processes timed per run for setup_s
SEGMENT_SECONDS = 0.25  # target length of one progress segment of a pass
MAX_MARKS = 4096  # progress marks kept per pass
PROBE_EVERY = 0.05  # seconds between speed probes during a pass
PROBE_WINDOW = 0.1  # probes this close to a segment set its speed

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metric -> (unit, the end-to-end metric and workloads it should
# move, the workloads on which it should read zero).
PER_LAYER = {
    "cli.self_s": ("s", "wall_s on exact, mc, converge (small share)", ()),
    "io.read_s": ("s", "wall_s on exact, mc, converge (small share)", ()),
    "io.write_s": ("s", "wall_s on exact, mc, converge (small share)", ()),
    "io.write_bytes": ("bytes", "wall_s on exact, mc, converge (small share)", ()),
    "mfg.verify_solution.s": ("s", "wall_s on converge, its only caller", ("exact", "mc")),
    "nplayer.exact_joint_propagate.calls": ("count", "wall_s on exact", ("mc", "converge")),
    "nplayer.exact_joint_propagate.s": ("s", "wall_s on exact", ("mc", "converge")),
    "nplayer.exact_joint_propagate.joint_states": (
        "count", "wall_s on exact (computed: sum of |X|^N over calls)", ("mc", "converge")),
    "nplayer.solve_symmetric_ce.self_s": ("s", "wall_s on exact", ("mc", "converge")),
    "nplayer.deviation_gain.exact.s": ("s", "wall_s on exact", ("mc", "converge")),
    "nplayer.deviation_gain.exact.calls": ("count", "wall_s on exact", ("mc", "converge")),
    "lp.solve_lp.s": ("s", "wall_s on exact (~5% today)", ("mc", "converge")),
    "lp.solve_lp.calls": ("count", "wall_s on exact", ("mc", "converge")),
    "lp.solve_lp.rows": ("count", "wall_s on exact", ("mc", "converge")),
    "lp.solve_lp.vars": ("count", "wall_s on exact", ("mc", "converge")),
    "nplayer.deviation_gain.mc.s": ("s", "wall_s and reps_per_s on mc", ("exact", "converge")),
    "nplayer.deviation_gain.mc.calls": ("count", "wall_s and reps_per_s on mc", ("exact", "converge")),
    "rng.uniform_block.s": ("s", "reps_per_s on mc, wall_s on converge (<1%)", ("exact",)),
    "rng.uniform_block.calls": ("count", "reps_per_s on mc, wall_s on converge", ("exact",)),
    "rng.uniform_block.uniforms": ("count", "reps_per_s on mc, wall_s on converge", ("exact",)),
    "limits.epsilon_curve.self_s": ("s", "wall_s on mc", ("exact", "converge")),
    "limits.empirical_rho_n.s": ("s", "wall_s on converge", ("exact", "mc")),
    "limits.empirical_rho_n.atoms": (
        "count", "wall_s on converge (sets the transport size)", ("exact", "mc")),
    "limits.convergence_report.self_s": ("s", "wall_s on converge", ("exact", "mc")),
    "transport.flow_space_distance.self_s": ("s", "wall_s on converge", ("exact", "mc")),
    "transport.atom_distance.calls": ("count", "wall_s on converge", ("exact", "mc")),
    "transport.atom_distance.s": ("s", "wall_s on converge (~5%)", ("exact", "mc")),
    "transport.solve_transport.s": ("s", "wall_s on converge (~93%)", ("exact", "mc")),
    "transport.solve_transport.calls": ("count", "wall_s on converge", ("exact", "mc")),
    "transport.solve_transport.atoms": ("count", "wall_s on converge (m+n)", ("exact", "mc")),
    "transport.verify_transport.s": ("s", "wall_s on converge (~1%)", ("exact", "mc")),
    "unattributed_s": ("s", "pass time no top-level span covers", ()),
    "tracing_overhead_s": ("s", "traced wall_s minus untraced wall_s", ()),
    "reps_per_s": ("1/s", "MC replications per second of untraced pass time, mc only",
                   ("exact", "converge")),
}

# per-layer metrics that come from the run as a whole, not from the spans
RUN_METRICS = ("unattributed_s", "tracing_overhead_s", "reps_per_s")
SPAN_METRICS = tuple(name for name in PER_LAYER if name not in RUN_METRICS)

# counts that repeat exactly between runs at one seed
EXACT_COUNTS = (
    "nplayer.exact_joint_propagate.calls",
    "lp.solve_lp.rows",
    "limits.empirical_rho_n.atoms",
    "transport.solve_transport.atoms",
)


@dataclass(frozen=True)
class Size:
    ce_players: int
    lift_players: int
    curve_ns: tuple[int, ...]
    curve_reps: int
    gen_players: int
    gen_reps: int
    converge_ns: tuple[int, ...]
    converge_reps: int


SIZES = {
    "full": Size(3, 4, (5, 50), 10000, 20, 1000, (5, 20, 50), 200),
    # for the self-test: every job and check, in seconds
    "tiny": Size(2, 2, (5,), 200, 5, 100, (5,), 20),
}


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    out: str  # output directory, relative to the work directory
    code: int = 0  # expected exit code
    seeded: bool = False  # the output depends on the benchmark's seed


def _ns(values) -> str:
    return ",".join(str(n) for n in values)


def _example(out: str, *extra: str, code: int = 0) -> Job:
    return Job(("example", "section5", *extra, "-o", out), out, code)


# the default example, and one whose flow is not a solution (exits 1 by design)
EXAMPLE = _example("in/ex")
EXAMPLE_C1 = _example("in/c1", "--c1", "3/32", code=1)


def setup_jobs(workload: str, size: Size) -> list[Job]:
    if workload == "exact":
        return [
            EXAMPLE,
            EXAMPLE_C1,
            Job(("lift", "--game", "in/c1/game.json", "--flow", "in/c1/rho.json",
                 "-N", str(size.lift_players), "-o", "in/lift"), "in/lift"),
        ]
    if workload == "mc":
        return [EXAMPLE_C1, Job(("validate", "in/gen/game.json", "-o", "in/valid"), "in/valid")]
    return [EXAMPLE]


def pass_jobs(workload: str, seed: int, size: Size) -> list[Job]:
    s = str(seed)
    if workload == "exact":
        return [
            Job(("nplayer", "solve-ce", "--game", "in/ex/game.json",
                 "-N", str(size.ce_players), "-o", "out/ce"), "out/ce"),
            Job(("nplayer", "epsilon", "--game", "in/c1/game.json",
                 "--profile", "in/lift/profile.json", "--method", "exact",
                 "--seed", s, "-o", "out/eps"), "out/eps", seeded=True),
        ]
    if workload == "mc":
        return [
            Job(("limits", "epsilon-curve", "--game", "in/c1/game.json",
                 "--flow", "in/c1/rho.json", "--Ns", _ns(size.curve_ns),
                 "--reps", str(size.curve_reps), "--method", "mc",
                 "--seed", s, "-o", "out/curve"), "out/curve", seeded=True),
            Job(("nplayer", "epsilon", "--game", "in/gen/game.json",
                 "--profile", "in/gen/profile.json", "--method", "mc",
                 "--reps", str(size.gen_reps), "--seed", s, "-o", "out/gen"), "out/gen",
                seeded=True),
        ]
    return [
        Job(("limits", "converge", "--game", "in/ex/game.json", "--flow", "in/ex/rho.json",
             "--Ns", _ns(size.converge_ns), "--reps", str(size.converge_reps),
             "--seed", str(CONVERGE_SEED), "-o", "out/conv"), "out/conv"),
    ]


def replications_per_pass(workload: str, size: Size) -> int:
    if workload == "mc":
        return size.curve_reps * len(size.curve_ns) + size.gen_reps
    return 0


def call(job: Job) -> int:
    """Run one command line in this process; returns its exit code.

    An exception that escapes the command line is a failed job, reported
    with its traceback, so one broken command does not end the run.
    """
    try:
        return cli.main(list(job.argv))
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


def make_inputs(workload: str, seed: int, size_name: str) -> list[tuple[Job, int]]:
    """Generate a workload's inputs in the current directory."""
    size = SIZES[size_name]
    if workload == "mc":
        os.makedirs("in/gen", exist_ok=True)
        gen.write_game_and_profile("in/gen", seed, size.gen_players)
    return [(job, call(job)) for job in setup_jobs(workload, size)]


# ---------------------------------------------------------------------------
# output checks


def _normalized(path: str) -> bytes:
    """File bytes without the fields that may differ between equal runs.

    Drops the ``seconds`` CSV column, the manifest's ``wall_seconds`` and
    ``versions``, and makes the manifest's input paths relative.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    name = os.path.basename(path)
    if name == "manifest.json":
        doc = json.loads(data)
        doc.pop("wall_seconds", None)
        doc.pop("versions", None)
        for entry in doc.get("inputs", {}).values():
            entry["path"] = os.path.relpath(entry["path"])
        return json.dumps(doc, sort_keys=True).encode()
    if name.endswith(".csv"):
        lines = data.decode().splitlines()
        header = lines[0].split(",")
        if "seconds" in header:
            k = header.index("seconds")
            lines = [",".join(c for j, c in enumerate(l.split(",")) if j != k) for l in lines]
        return "\n".join(lines).encode()
    return data


def digests(out_dir: str) -> dict[str, str]:
    return {
        name: hashlib.sha256(_normalized(os.path.join(out_dir, name))).hexdigest()
        for name in sorted(os.listdir(out_dir))
        if not name.startswith(".")
    }


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def job_values(job: Job, w1: list) -> dict:
    """The job's headline results, exact where the program computes them."""
    command = " ".join(job.argv[:2])
    if command == "nplayer solve-ce":
        doc = _read_json(os.path.join(job.out, "equilibrium.json"))
        return {"epsilon": [doc["max_deviation_gain"]], "stderr": [None]}
    if command == "nplayer epsilon":
        doc = _read_json(os.path.join(job.out, "epsilon.json"))
        return {"epsilon": [str(doc["epsilon"])], "stderr": [doc["stderr"]]}
    if command == "limits epsilon-curve":
        with open(os.path.join(job.out, "epsilon_curve.csv"), encoding="utf-8") as handle:
            rows = [line.split(",") for line in handle.read().splitlines()[1:]]
        return {"epsilon": [r[1] for r in rows], "stderr": [float(r[2]) for r in rows]}
    return {"w1": [str(v) for v in w1]}


def invariant_errors(values: dict, expected_rows: int) -> list[str]:
    errors = []
    for eps, err in zip(values.get("epsilon", ()), values.get("stderr", ())):
        if Fraction(eps) < -2 * Fraction(err or 0):
            errors.append(f"epsilon {eps} below -2*stderr")
    w1 = values.get("w1")
    if w1 is not None:
        if len(w1) != expected_rows:
            errors.append(f"{len(w1)} W1 values, want {expected_rows}")
        errors.extend(f"negative W1 {v}" for v in w1 if Fraction(v) < 0)
    return errors


class _W1Capture:
    """Keeps the exact W1 values the convergence report computes.

    The CSV stores W1 as a 17-digit decimal; the exact Fraction is only
    visible at the ``flow_space_distance`` call that ``limits`` makes.
    """

    def __init__(self):
        self.values: list = []
        self._original = None

    def install(self) -> None:
        self._original = original = limits.flow_space_distance

        @functools.wraps(original)
        def flow_space_distance(*args, **kwargs):
            value = original(*args, **kwargs)
            self.values.append(value)
            return value

        limits.flow_space_distance = flow_space_distance

    def uninstall(self) -> None:
        if self._original is not None:
            limits.flow_space_distance = self._original
            self._original = None


# ---------------------------------------------------------------------------
# pass timing


def rational_probe() -> Fraction:
    """A fixed piece of interpreter work: exact rational arithmetic."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 17 + 1, i % 23 + 2)
    return total


_ARRAY = np.linspace(0.0, 1.0, 200_000)


def array_probe() -> float:
    """A fixed piece of array work: elementwise arithmetic on 1.6 MB."""
    x = _ARRAY * 1.0001 + 0.5
    np.sqrt(x, out=x)
    return float(x.sum())


# Workload -> (speed probe, its seconds at the reference speed).  Run
# between the program's calls, a probe's time tracks how fast the machine
# runs the program at that moment, so each workload gets a probe of its own
# kind of work.  The reference is about the probe's median inside a pass on
# the 2-vCPU Xeon host the benchmark was tuned on, so wall_s reads close to
# its raw pass time there.  On that host, scaling each quarter second of a
# pass by the probes run in it cut the spread of wall_s over five runs from
# 0.24 to 0.03 on converge, from 0.19 to 0.04 on exact and from 0.19 to
# 0.10 on mc.
def mixed_probe() -> None:
    rational_probe()
    array_probe()


PROBES = {
    "exact": (rational_probe, 5e-4),
    "mc": (mixed_probe, 14e-4),
    "converge": (rational_probe, 5e-4),
}


def thin(marks: array.array) -> array.array:
    """At most ``MAX_MARKS + 1`` marks, evenly spaced in progress, ends kept.

    Passes with as many marks keep the same ones, and a run's memory does
    not grow with the number of calls it stamps.
    """
    n = len(marks) - 1
    if n <= MAX_MARKS:
        return marks
    return array.array("d", (marks[round(k * n / MAX_MARKS)] for k in range(MAX_MARKS + 1)))


def pass_seconds_at_reference_speed(
    passes: list[array.array], stamps: list[int], probes: list[tuple], reference: float
) -> float:
    """Seconds of one pass at the reference speed, from all passes of a run.

    Each pass is ``[start, *call stamps, end]`` on a clock that stops while
    a speed probe runs (see ``tracing.CallClock``), and the k-th mark is the
    same point of the work in every pass.  The passes are cut at the same
    marks into segments of about ``SEGMENT_SECONDS`` (of the median pass).
    A segment's time is scaled by ``reference`` over the median time
    of the probes run within ``PROBE_WINDOW`` seconds of it in that pass (of
    all the pass's probes if none ran there), and the estimate is the sum
    over segments of the median over passes of the scaled time.

    A shared host runs the program in spells seconds long that are up to
    1.8 times slower than others, and in some minutes slower than in others.
    A probe run inside the same segment slows down with it, so the scaled
    times hold still where raw times do not; the median over passes drops a
    segment whose probes missed a spell.  ``probes`` holds, for each pass,
    when each probe ended and how long it took.

    ``stamps`` holds each pass's number of call stamps before ``thin``.
    Only the passes with the most common number are compared, so a pass
    that made other calls (a cache filled in an earlier pass, say) is not
    matched segment by segment with passes that did different work.
    """
    usual = statistics.mode(stamps)
    kept = [(marks, log) for marks, log, n in zip(passes, probes, stamps) if n == usual]
    totals = [marks[-1] - marks[0] for marks, _ in kept]
    typical = kept[totals.index(statistics.median_low(totals))][0]
    cuts = [0]
    for k, mark in enumerate(typical):
        if mark - typical[cuts[-1]] >= SEGMENT_SECONDS:
            cuts.append(k)
    if cuts[-1] != len(typical) - 1:
        cuts.append(len(typical) - 1)

    def scaled(marks: array.array, log: tuple, a: int, b: int) -> float:
        ended, took = log
        lo = bisect.bisect_left(ended, marks[a] - PROBE_WINDOW)
        hi = bisect.bisect_right(ended, marks[b] + PROBE_WINDOW)
        local = took[lo:hi] or took
        return (marks[b] - marks[a]) * reference / statistics.median(local)

    return sum(
        statistics.median(scaled(marks, log, a, b) for marks, log in kept)
        for a, b in zip(cuts, cuts[1:])
    )


# ---------------------------------------------------------------------------
# one run


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{label}: {e}" for e in errors)


def _probe_setup(workload: str, seed: int, size: str, work: str, bench_dir: str) -> float:
    """Seconds from launching a fresh interpreter to the end of input generation."""
    probe = (
        "import sys, time\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "import workloads\n"
        "workloads.make_inputs(sys.argv[3], int(sys.argv[4]), sys.argv[5])\n"
        "print(time.time())\n"
    )
    src_dir = os.path.dirname(os.path.dirname(cmfg.__file__))
    cwd = tempfile.mkdtemp(prefix="probe-", dir=work)
    started = time.time()
    done = subprocess.run(
        [sys.executable, "-c", probe, bench_dir, src_dir, workload, str(seed), size],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - started


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size_name: str,
    references: dict | None,
    out_root: str,
) -> dict:
    """Set up, measure and check one workload; returns the run record.

    Passes repeat while another one is expected to end within ``seconds``
    (at least one).  With ``trace``, every untraced pass is followed by a
    traced one and the record holds per-layer metrics; otherwise it holds
    the end-to-end metrics.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[size_name]
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    os.makedirs(out_root, exist_ok=True)
    out_root = os.path.abspath(out_root)
    work = tempfile.mkdtemp(prefix="work-", dir=out_root)
    home = os.getcwd()
    tally = Tally()
    capture = _W1Capture()
    first: dict[str, tuple] = {}  # job output -> (digests, values) of the first pass
    reference = None
    if references is not None:
        reference = references.get(size_name, {}).get(workload)
    record: dict = {"workload": workload, "seed": seed, "size": size_name,
                    "trace": int(trace)}
    stamps: list[int] = []  # call stamps of each untraced pass
    probes: list[tuple] = []  # (probe end times, probe seconds) of each untraced pass

    def checked_pass(jobs: list[Job], tracer) -> array.array:
        """Runs and checks one pass; returns ``[start, *call stamps, end]``.

        An untraced pass stamps its calls (``tracing.CallClock``); a traced
        one is timed from start to end only.
        """
        del capture.values[:]
        clock = tracing.CallClock(PROBES[workload][0], PROBE_EVERY)
        (tracer or clock).install()
        try:
            started = clock.now()
            codes = [call(job) for job in jobs]
            ended = clock.now()
        finally:
            (tracer or clock).uninstall()
        for job, code in zip(jobs, codes):
            want = reference if seed == DEFAULT_SEED or not job.seeded else None
            tally.record(job.out, _check(job, code, capture.values, size, want, first))
        if tracer is None:
            stamps.append(len(clock.stamps))
            probes.append((clock.probed_at, clock.probes))
        marks = array.array("d", (started,))
        marks.extend(clock.stamps)
        marks.append(ended)
        return thin(marks)

    try:
        setups = [] if trace else [
            _probe_setup(workload, seed, size_name, work, bench_dir)
            for _ in range(SETUP_PROBES)
        ]
        os.chdir(work)
        for job, code in make_inputs(workload, seed, size_name):
            tally.record(f"setup {job.out}",
                         [] if code == job.code else [f"exit {code}, want {job.code}"])
        jobs = pass_jobs(workload, seed, size)
        capture.install()
        plain: list[array.array] = []  # progress marks of the untraced passes
        traced: list[float] = []
        layers: list[dict] = []
        started = time.perf_counter()
        while True:
            plain.append(checked_pass(jobs, None))
            if trace:
                tracer = tracing.Tracer()
                marks = checked_pass(jobs, tracer)
                traced.append(marks[-1] - marks[0])
                layer = tracing.layer_metrics(tracer.spans, SPAN_METRICS)
                layer["unattributed_s"] = traced[-1] - tracing.top_level_seconds(tracer.spans)
                layers.append(layer)
            spent = time.perf_counter() - started
            if spent + spent / len(plain) > seconds:
                break
    finally:
        capture.uninstall()
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    seconds_per_pass = [marks[-1] - marks[0] for marks in plain]
    wall = pass_seconds_at_reference_speed(plain, stamps, probes, PROBES[workload][1])
    record["pass_seconds"] = seconds_per_pass
    record["pass_stamps"] = stamps
    record["speed_probes"] = [len(took) for _, took in probes]
    record["speed_probe_median_s"] = statistics.median(t for _, took in probes for t in took)
    if trace:
        record["traced_pass_seconds"] = traced
        metrics = {
            # a count is reported as one observed value, a time as the median
            name: (statistics.median if PER_LAYER[name][0] == "s"
                   else statistics.median_low)(layer[name] for layer in layers)
            for name in (*SPAN_METRICS, "unattributed_s")
        }
        metrics["tracing_overhead_s"] = (statistics.median(traced)
                                         - statistics.median(seconds_per_pass))
        metrics["reps_per_s"] = replications_per_pass(workload, size) / wall
        record["metrics"] = {name: metrics[name] for name in PER_LAYER}
        tracer.write_jsonl(os.path.join(
            out_root, f"spans-{workload}-{size_name}-seed{seed}.jsonl"))
    else:
        record["setup_probe_seconds"] = setups
        record["metrics"] = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    record["outputs"] = {
        out: {"files": files, "values": values} for out, (files, values) in first.items()
    }
    record.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    return record


def _check(job: Job, code: int, w1: list, size: Size, reference, first: dict) -> list[str]:
    """Errors of one job in one pass: exit code, references, repeatability."""
    if code != job.code:
        return [f"exit {code}, want {job.code}"]
    try:
        files = digests(job.out)
        values = job_values(job, w1)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    errors = invariant_errors(values, len(size.converge_ns))
    if job.out not in first:
        first[job.out] = (files, values)
    elif first[job.out] != (files, values):
        errors.append("output differs from the first pass of this run")
    if reference is not None:
        want = reference.get(job.out)
        if want is None:
            errors.append("no reference")
        else:
            if want["files"] != files:
                bad = sorted(k for k in set(want["files"]) | set(files)
                             if want["files"].get(k) != files.get(k))
                errors.append(f"files differ from the reference: {', '.join(bad)}")
            if want["values"] != values:
                errors.append(f"values {values} differ from the reference {want['values']}")
    return errors
