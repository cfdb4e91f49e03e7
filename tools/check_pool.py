#!/usr/bin/env python3
"""Check every job of a benchmark workload's pool against its pinned digest.

    python3 tools/check_pool.py [workload ...]    # default: finite_oracle
    python3 tools/check_pool.py finite_oracle counterplay tail_cover    # as CI runs it

Runs, once and in this process, every job that any benchmark seed can
produce (``perfbench/workloads.py`` ``pool``) and compares each digest with
``perfbench/digests.json``. Writes nothing. Prints the first 20 failures and
exits 1 if any job fails its checks, raises (a budget error included),
differs from its pin, or has no pin; a pinned job the pool no longer makes
fails too. On a 2-core VM:

* ``finite_oracle`` has 264 jobs and takes about 15 s, 13 s of it
  regenerating the instance pool, whose depths come from
  ``perfbench/gen.py``'s independent search;
* ``counterplay`` has 107 jobs, every seeded Menger strategy among them, and
  takes about 1 s;
* ``tail_cover`` has 118 jobs and takes about 3-4 s.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pin  # noqa: E402


def check(workload: str, pinned: dict[str, str]) -> list[str]:
    digests, failures = pin.pin(workload)
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
