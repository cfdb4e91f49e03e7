#!/usr/bin/env python3
"""Pin the digest of every job any run seed can produce.

    python3 perfbench/pin.py [workload ...]

Runs each workload's whole pool of jobs once, refuses to pin if any job
fails its checks or raises (a budget error included), and otherwise rewrites
that workload's entry in ``digests.json``. For ``finite_oracle`` it first
stores the generated instance pool in ``instances.json``. Run it only on a commit whose
transcripts are known good: the benchmark fails every job whose digest
differs from the pinned one.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gen  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from selectiongames import pairing  # noqa: E402


def pin(workload: str) -> tuple[dict[str, str], list[str]]:
    digests: dict[str, str] = {}
    failures: list[str] = []
    for job in workloads.pool(workload):
        pairing.decode_tuple.cache_clear()
        try:
            outcome = job.run()
        except Exception:
            failures.append(f"{job.key}: {traceback.format_exc(limit=3)}")
            continue
        if outcome.failures:
            failures.append(f"{job.key}: {outcome.failures}")
        digests[job.key] = workloads.digest(outcome.payload)
    return digests, failures


def main(names: list[str]) -> int:
    names = names or list(WORKLOADS)
    if "finite_oracle" in names:
        pool = [spec.to_json() for spec in gen.finite_pool()]
        workloads.INSTANCES.write_text(json.dumps(pool, separators=(",", ":")) + "\n")
    path = BENCH / "digests.json"
    pinned = json.loads(path.read_text()) if path.exists() else {}
    status = 0
    for name in names:
        start = time.perf_counter()
        digests, failures = pin(name)
        print(f"{name}: {len(digests)} jobs in {time.perf_counter() - start:.1f} s, {len(failures)} failed")
        if failures:
            print("\n".join(failures[:20]), file=sys.stderr)
            status = 1
            continue
        pinned[name] = dict(sorted(digests.items()))
        path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
