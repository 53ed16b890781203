"""Pin the benchmark's references: one pass of every workload at seed 0.

    python3 bench/pin.py

Run it from the root of a source checkout, only when an output is meant to
change; it rewrites ``bench/references.json``.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import workloads  # noqa: E402


def main() -> int:
    references: dict = {}
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            record = workloads.run(workload, workloads.DEFAULT_SEED, 0, False, size,
                                   None, os.path.join(ROOT, ".bench_out"))
            if record["failed"]:
                print("\n".join(record["errors"]), file=sys.stderr)
                return 1
            references.setdefault(size, {})[workload] = record["outputs"]
            print(f"{size} {workload}: pass {record['pass_seconds'][0]:.2f} s")
    with open(os.path.join(BENCH_DIR, "references.json"), "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
