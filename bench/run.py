"""cmfg benchmark: one workload, one seed, printed as one JSON line.

    python3 bench/run.py --workload exact --seed 0 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports ``cmfg`` from the
checkout's ``src/``.  The workloads and the prediction for every per-layer
metric are in ``workloads.py``.  ``--trace 0`` reports the end-to-end
metrics (tracing off); ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's metadata.  Each run also writes its full record (every pass time,
check errors, output digests) to ``.bench_out/``, and a traced run writes
its spans there as JSON lines.

``error_rate`` is ``failed / attempted``.  A job fails when it exits with an
unexpected code or its output differs from the reference (at seed 0), from
the run's first pass, or breaks an invariant (epsilon >= -2 stderr, W1 >= 0).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def _src_lines() -> int:
    total = 0
    for directory, _, files in os.walk(os.path.join(SRC, "cmfg")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    total += sum(1 for _ in handle)
    return total


def metadata() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "src_lines": _src_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every job at a toy size, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cmfg", "__init__.py")):
        print(f"no cmfg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH_DIR, SRC]
    os.environ.pop("CMFG_THREADS", None)  # recorded in manifests; keep the default
    import cmfg
    import workloads

    if not os.path.abspath(cmfg.__file__).startswith(SRC + os.sep):
        print(f"cmfg imported from {cmfg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with open(os.path.join(BENCH_DIR, "references.json"), encoding="utf-8") as handle:
        references = json.load(handle)
    out_root = os.path.join(ROOT, ".bench_out")
    record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.size, references, out_root)
    record["meta"] = metadata()
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_root, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)

    units = dict(workloads.END_TO_END)
    units.update((k, v[0]) for k, v in workloads.PER_LAYER.items())
    metrics = {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()}
    error_rate = record["failed"] / record["attempted"]
    for k, m in metrics.items():
        print(f"{k} {m['value']} {m['unit']}")
    print(f"error_rate {error_rate} ratio")
    print(json.dumps({"meta": record["meta"]}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
