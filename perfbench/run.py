#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload counterplay --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Load model: one caller runs the workload's jobs back to back (a closed loop
with one client), in this process, on one thread. A pass runs every job of
the workload once; passes repeat until the next one would end after
``--seconds``. Before each job the library's process-wide decode cache is
cleared and garbage is collected (untimed), so a job's work does not depend
on the jobs before it. A fixed reference loop runs before each job and after
the last; job times are CPU times scaled by it to the reference host speed
(see ``README.md``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics, from
untraced passes. With ``--trace 1`` untraced and traced passes alternate and
the last line carries the per-layer metrics of the traced passes (see
``README.md``). The exit code is 0 exactly when every job of every pass
passed its checks and matched its pinned digest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("counterplay", "tail_cover", "finite_oracle")
SETUP_PROBES = 7
# Passes whose job times make the time metrics, spread evenly over the run: a
# fixed count, so the estimate does not depend on how many passes the code
# under test fits in a run. Each is about the passes the workload fits in
# 40 s at the seed commit; a run that fits fewer uses all of them.
TIMED_PASSES = {"counterplay": 10, "tail_cover": 6, "finite_oracle": 10}
# Host speed. The reference loop is timed between consecutive jobs (and
# around each set-up probe); a time divided by the loop's time nearby, times
# REFERENCE_LOOP_S, is in seconds at the reference host speed.
LOOP_REPS = 3  # about 4 ms of CPU between jobs
LONG_LOOP_REPS = 30  # around a set-up probe (about 0.5 s), and the drift record
REFERENCE_LOOP_S = 0.0037  # median CPU seconds of one LOOP_REPS loop on a 2-core VM, Python 3.11.7
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "job_p50_s": "s", "job_tail_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# host speed and drift record


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key, kids):
        self.key = key
        self.kids = kids


def _walk(node: _Node, counts: dict) -> int:
    return counts.get(node.key, 0) + sum(_walk(kid, counts) for kid in node.kids)


def reference_loop(reps: int) -> float:
    """CPU seconds of this thread for a fixed pure-Python loop that does what
    the library does most (calls, tuple keys, dicts, frozensets, small
    objects, recursion) and calls none of its code, so only the host's speed
    moves it."""
    start = time.thread_time()
    for r in range(reps):
        counts: dict = {}
        seen = set()
        for i in range(300):
            key = (i % 37, i // 37, r)
            counts[key] = counts.get(key, 0) + 1
            small = frozenset((i % 7, i % 11, i % 13))
            seen.add(small)
            seen.add(small | {i % 5})
        nodes = [_Node((i % 37, i // 37, r), []) for i in range(300)]
        for j in range(50):
            nodes[j].kids = nodes[50 + 5 * j : 55 + 5 * j]
        _walk(_Node((0, 0, r), nodes[:50]), counts)
        sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return time.thread_time() - start


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the library's source files, which identifies the code
    under test where no git metadata is present."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    traced: bool
    wall_s: float
    job_s: dict[str, float]  # CPU seconds per job, in job order
    loop_s: list[float]  # the reference loop before each job and after the last
    digests: dict[str, str | None]
    failures: dict[str, list[str]]
    snapshot: object = None

    def reference_job_s(self) -> dict[str, float]:
        """Each job's CPU time in seconds at the reference host speed: divided
        by the median of the four reference loops nearest it (two before, two
        after), which follows the host's speed phases without taking one
        loop's noise whole."""
        out = {}
        for q, (key, cpu) in enumerate(self.job_s.items()):
            out[key] = cpu / statistics.median(self.loop_s[max(0, q - 1) : q + 3]) * REFERENCE_LOOP_S
        return out


@dataclass
class Run:
    passes: list[PassResult] = field(default_factory=list)

    def of(self, traced: bool) -> list[PassResult]:
        return [p for p in self.passes if p.traced == traced]

    @property
    def attempted(self) -> int:
        return sum(len(p.job_s) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(len(p.failures) for p in self.passes)


def run_pass(workload, pinned: dict[str, str], tracer=None) -> PassResult:
    from selectiongames import pairing
    from workloads import digest

    clear_decode_cache = pairing.decode_tuple.cache_clear  # before the tracer wraps decode_tuple
    if tracer is not None:
        tracer.take()
        tracer.install()
    job_s: dict[str, float] = {}
    loop_s: list[float] = []
    digests: dict[str, str | None] = {}
    failures: dict[str, list[str]] = {}
    transcript_bytes = 0
    try:
        start = time.perf_counter()
        for job in workload.jobs:
            # every job starts from the same state, whatever ran before it
            clear_decode_cache()
            gc.collect()
            loop_s.append(reference_loop(LOOP_REPS))
            t0 = time.thread_time()
            try:
                if tracer is None:
                    outcome = job.run()
                else:
                    with tracer.job(job.key):
                        outcome = job.run()
                problems = list(outcome.failures)
                digests[job.key] = digest(outcome.payload)
                if digests[job.key] != pinned.get(job.key):
                    problems.append("transcript digest differs from the pinned one")
                transcript_bytes += outcome.transcript_bytes
            except Exception:  # any error fails the job, budget errors included
                problems = [traceback.format_exc(limit=3)]
                digests[job.key] = None
            job_s[job.key] = time.thread_time() - t0
            if problems:
                failures[job.key] = problems
        loop_s.append(reference_loop(LOOP_REPS))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    snapshot = None
    if tracer is not None:
        snapshot = tracer.take()
        snapshot.counters["scenarios.transcript_bytes"] += transcript_bytes
    return PassResult(tracer is not None, wall, job_s, loop_s, digests, failures, snapshot)


def run_passes(workload, pinned, seconds: float, tracer=None, between=None) -> Run:
    """Untraced passes (alternating with traced ones when a tracer is given)
    until the next pass would end after `seconds`; at least one of each.
    `between` runs before every pass, inside the time budget."""
    run = Run()
    start = time.perf_counter()
    kinds = [False, True] if tracer is not None else [False]
    while True:
        traced = kinds[len(run.passes) % len(kinds)]
        done = run.of(traced)
        if done and time.perf_counter() - start + done[-1].wall_s > seconds:
            if all(run.of(k) for k in kinds):
                return run
        if between is not None:
            between()
        run.passes.append(run_pass(workload, pinned, tracer if traced else None))


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least TAIL_BEYOND values beyond
    it (nearest rank), and its value."""
    ordered = sorted(values)
    n = len(ordered)
    pct = max(0, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1]


def typical(passes: list[PassResult]) -> dict[str, float]:
    """Each job's median time over the given passes, at the reference host
    speed."""
    times = [p.reference_job_s() for p in passes]
    return {key: statistics.median(t[key] for t in times) for key in times[0]}


def spread_out(passes: list[PassResult], count: int) -> list[PassResult]:
    """`count` of the passes, evenly spaced from the first to the last (all
    of them when there are no more than `count`)."""
    n = len(passes)
    if n <= count:
        return passes
    return [passes[round(i * (n - 1) / (count - 1))] for i in range(count)]


def end_to_end(run: Run, workload: str, setup_s: float) -> tuple[dict[str, float], dict]:
    timed = spread_out(run.of(False), TIMED_PASSES[workload])
    jobs = typical(timed)
    pct, tail_s = tail(list(jobs.values()))
    metrics = {
        "setup_s": setup_s,
        "run_s": sum(jobs.values()),
        "job_p50_s": statistics.median(jobs.values()),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"tail_percentile": pct, "jobs_per_pass": len(jobs), "timed_passes": len(timed)}


def per_layer(run: Run, setup_snapshot) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from the traced passes: counts must repeat exactly,
    times are medians over the traced passes."""
    import layers

    traced = run.of(True)
    samples = [layers.values(p.snapshot, setup_snapshot) for p in traced]
    problems = []
    out = {}
    for layer in layers.LAYERS:
        if layer.name == "trace.overhead_ratio":
            continue
        vals = [s[layer.name] for s in samples]
        if layer.unit == "s" or layer.name == "solver.nodes_per_s":
            out[layer.name] = statistics.median(vals)
        else:
            if len(set(vals)) > 1:
                problems.append(f"{layer.name} differs between traced passes: {vals}")
            out[layer.name] = vals[0]
    out["trace.overhead_ratio"] = statistics.median(p.wall_s for p in traced) / statistics.median(
        p.wall_s for p in run.of(False)
    )
    return out, problems


def span_summary(run: Run) -> dict:
    """Count and inclusive seconds per span name over the traced passes."""
    out: dict[str, list] = {}
    for p in run.of(True):
        for span in p.snapshot.spans:
            entry = out.setdefault(span.name, [0, 0.0])
            entry[0] += 1
            entry[1] += (span.end_ns - span.start_ns) / 1e9
    return {name: {"count": c, "inclusive_s": round(s, 6)} for name, (c, s) in sorted(out.items())}


# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Seconds at the reference host speed from starting a fresh interpreter
    to the end of its set-up: the child's CPU time, divided by the mean of
    the reference loops it runs just before and just after building its
    inputs (see `probe_child`)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout  # no timeout: it would poll
    probe = json.loads(out.splitlines()[-1])
    return probe["cpu_s"] / probe["loop_s"] * REFERENCE_LOOP_S * LONG_LOOP_REPS / LOOP_REPS


def probe_child(workload: str, seed: int) -> None:
    """The set-up probe's side: build the inputs and print the CPU seconds
    since the interpreter started (the loops' own time left out) and the
    mean reference loop."""
    import workloads

    before = reference_loop(LONG_LOOP_REPS)
    workloads.build(workload, seed)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu = usage.ru_utime + usage.ru_stime - before
    after = reference_loop(LONG_LOOP_REPS)
    print(json.dumps({"cpu_s": cpu, "loop_s": (before + after) / 2}), flush=True)


def load_pinned(workload: str) -> dict[str, str]:
    try:
        with open(BENCH / "digests.json") as fh:
            return json.load(fh).get(workload, {})
    except FileNotFoundError:
        return {}


def run_one(args: argparse.Namespace) -> int:
    import workloads

    if args.setup_probe:
        probe_child(args.workload, args.seed)
        os._exit(0)

    setup_probes: list[float] = []
    start = time.perf_counter()

    def probe() -> None:  # evenly over the run
        due = len(setup_probes) * args.seconds / SETUP_PROBES
        if len(setup_probes) < SETUP_PROBES and time.perf_counter() - start >= due:
            setup_probes.append(setup_probe(args.workload, args.seed))

    tracer = setup_snapshot = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        workload = workloads.build(args.workload, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
            setup_snapshot = tracer.take()
    setup_in_process = time.perf_counter() - t0
    pinned = load_pinned(args.workload)
    gc.collect()
    gc.freeze()  # set-up objects live for the whole run; keep them out of collections

    loop_before = reference_loop(LONG_LOOP_REPS)
    run = run_passes(workload, pinned, args.seconds, tracer, None if args.trace else probe)
    loop_after = reference_loop(LONG_LOOP_REPS)
    if not args.trace:
        while len(setup_probes) < SETUP_PROBES:
            probe()

    problems = []
    if args.trace:
        import layers

        metrics, problems = per_layer(run, setup_snapshot)
        units = {layer.name: layer.unit for layer in layers.LAYERS}
        untraced, traced = run.of(False)[0].digests, run.of(True)[0].digests
        if untraced != traced:
            problems.append("traced digests differ from untraced digests")
        extra = {"spans": span_summary(run)}
    else:
        metrics, extra = end_to_end(run, args.workload, statistics.median(setup_probes))
        units = END_TO_END_UNITS
        extra["setup_probes_s"] = setup_probes
    failures = {}
    for p in run.passes:
        for key, why in p.failures.items():
            failures.setdefault(key, why)
    correct = run.failed == 0 and not problems
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "env": environment(),
        "reference_loop_s": {"before": loop_before, "after": loop_after},
        "setup_in_process_s": setup_in_process,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s} for p in run.passes],
        "fail_ratio": run.failed / run.attempted,
        "failures": dict(list(failures.items())[:10]),
        "problems": problems,
        **workload.info,
        **extra,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} fail_ratio = {run.failed}/{run.attempted} = {run.failed / run.attempted:g}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import selectiongames
    except ImportError as e:
        print(f"cannot import the library from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if Path(selectiongames.__file__).resolve().parent != ROOT / "src" / "selectiongames":
        print(f"imported the library from {selectiongames.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
