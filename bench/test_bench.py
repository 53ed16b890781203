"""Self-test of the benchmark at a toy size.

    python3 -m pytest bench/test_bench.py -q

Runs every workload at ``--size tiny`` through the real command line and
checks the printed metrics against BENCHMARK.json and the per-layer zero
predictions, that the exact counts repeat, and that a corrupted reference
is reported as a failure.
"""

from __future__ import annotations

import array
import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
with open(os.path.join(BENCH_DIR, "references.json"), encoding="utf-8") as _handle:
    REFERENCES = json.load(_handle)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_metrics_the_benchmark_computes():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _, _) in workloads.PER_LAYER.items()
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    assert "error_rate 0.0 ratio" in done.stdout.splitlines()
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    for name, (_, _, zero_on) in workloads.PER_LAYER.items():
        value = result["metrics"][name]["value"]
        if workload in zero_on:
            assert value == 0, name
        else:
            assert value != 0, name


def test_exact_counts_repeat_between_runs(tmp_path):
    for workload in ("exact", "converge"):
        first, second = (
            workloads.run(workload, 0, 0, True, "tiny", REFERENCES, str(tmp_path))
            for _ in range(2)
        )
        for name in workloads.EXACT_COUNTS:
            assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload, job, field, wrong", [
    ("exact", "out/eps", "values", {"epsilon": ["5/2049"], "stderr": [None]}),
    ("converge", "out/conv", "values", {"w1": ["1/2"]}),
    ("mc", "out/gen", "files", {"epsilon.json": "0" * 64}),
])
def test_a_corrupted_reference_counts_as_a_failure(tmp_path, workload, job, field, wrong):
    refs = copy.deepcopy(REFERENCES)
    want = refs["tiny"][workload][job]
    want[field] = {**want[field], **wrong} if field == "files" else wrong
    record = workloads.run(workload, 0, 0, False, "tiny", refs, str(tmp_path))
    assert record["failed"] >= 1
    assert record["failed"] / record["attempted"] > 0
    clean = workloads.run(workload, 0, 0, False, "tiny", REFERENCES, str(tmp_path))
    assert clean["failed"] == 0, clean["errors"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("exact", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _passes(speeds):
    """Progress marks and probes of passes that each make 200 calls.

    ``speeds[p][k]`` is how many times slower than the reference pass ``p``
    runs between calls ``k`` and ``k + 1``; the reference gap is 0.05 s and
    the reference probe 1 ms.  A probe runs at every call.
    """
    passes, probes = [], []
    for pace in speeds:
        marks = array.array("d", [0.0])
        for k in range(200):
            marks.append(marks[-1] + 0.05 * pace[k])
        took = array.array("d", (1e-3 * pace[min(k, 199)] for k in range(201)))
        passes.append(marks)
        probes.append((marks, took))
    return passes, [200] * len(speeds), probes


def test_slow_spells_and_slow_runs_are_scaled_out():
    even = [1.0] * 200
    spell = [1.8 if 60 <= k < 100 else 1.0 for k in range(200)]
    for speeds in ([even] * 3, [spell, even, even], [[1.5] * 200] * 3):
        passes, stamps, probes = _passes(speeds)
        got = workloads.pass_seconds_at_reference_speed(passes, stamps, probes, 1e-3)
        assert got == pytest.approx(10.0)
