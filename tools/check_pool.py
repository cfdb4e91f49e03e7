#!/usr/bin/env python3
"""Check every job of a benchmark workload's pool against its pinned digest.

    python3 tools/check_pool.py [workload ...]    # default: finite_oracle
    python3 tools/check_pool.py finite_oracle counterplay tail_cover    # as CI runs it

Runs, once and in this process, every job that any benchmark seed can
produce and compares each digest with ``perfbench/digests.json``. The
``finite_oracle`` jobs are built from the stored instance pool
``perfbench/instances.json``, which every benchmark run reads, not from a
fresh ``gen.finite_pool()``: regenerating the pool redoes ``gen.py``'s
independent depth searches (15-18 s) to get the same specs that load in
a few milliseconds; ``perfbench/test_bench.py`` checks the stored file
against the generator. The other workloads use ``workloads.pool``. Writes
nothing. Prints the first 20 failures and exits 1 if any job fails its
checks, raises (a budget error included), differs from its pin, or has no
pin; a pinned job the pool no longer makes fails too. On a 2-core VM:

* ``finite_oracle`` has 264 jobs and takes about 3.5 s;
* ``counterplay`` has 107 jobs, every seeded Menger strategy among them, and
  takes about 1 s;
* ``tail_cover`` has 118 jobs and takes about 3-4 s.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gen  # noqa: E402
import workloads  # noqa: E402
from selectiongames import pairing  # noqa: E402


def pool(workload: str) -> list[workloads.Job]:
    """Every job any run seed can produce; ``finite_oracle``'s instances come
    from the stored pool, as in ``workloads.build``."""
    if workload != "finite_oracle":
        return workloads.pool(workload)
    specs = gen.load_finite_pool(workloads.INSTANCES)
    jobs = [workloads.generated_job(spec, workloads.library_instance(spec)) for spec in specs]
    return jobs + [workloads.bundled_job(name, inst) for name, inst in workloads.bundled_instances().items()]


def run(workload: str) -> tuple[dict[str, str], list[str]]:
    """Each job's digest and every job failure, as ``perfbench/pin.py`` runs them."""
    digests: dict[str, str] = {}
    failures: list[str] = []
    for job in pool(workload):
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


def check(workload: str, pinned: dict[str, str]) -> list[str]:
    digests, failures = run(workload)
    ran = {f.split(":", 1)[0] for f in failures} | set(digests)
    failures += [
        f"{key}: digest {digests[key]}, pinned {pinned.get(key)}"
        for key in sorted(digests)
        if digests[key] != pinned.get(key)
    ]
    failures += [f"{key}: pinned, but no pool job has this key" for key in sorted(set(pinned) - ran)]
    return failures


def main(names: list[str]) -> int:
    pinned = json.loads((BENCH / "digests.json").read_text())
    status = 0
    for name in names or ["finite_oracle"]:
        start = time.perf_counter()
        failures = check(name, pinned.get(name, {}))
        print(f"{name}: {len(pinned.get(name, {}))} pinned jobs in {time.perf_counter() - start:.1f} s, {len(failures)} failed")
        for failure in failures[:20]:
            print(f"  {failure}")
        status |= bool(failures)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
