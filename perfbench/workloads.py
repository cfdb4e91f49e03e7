"""The benchmark's three workloads, each a list of verification jobs.

A job builds its strategy, tree or instance lines on fresh objects, runs one
construction or solver task through the library's public API, and checks the
result against a reference that does not go through the code path under
check. It returns its verdict and a serialization of its result; the
serialization's SHA-256 is compared with the digest pinned in
``digests.json``. Transcript jobs serialize ``transcript_records`` exactly as
``emit_transcript`` writes them; the other jobs serialize extensional
results only (membership rows, depths, winners, verdicts), so a change that
builds different but equal expressions, or searches differently, still
matches.

Work that a user pays once per process (imports, generating inputs, building
and validating finite spaces) happens in :func:`build`, which the benchmark
times as set-up.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from selectiongames.corpus import (
    appendix_tree_corpus,
    bundled_instances,
    named_strategies,
    rothberger_tree_corpus,
    seeded_strategy,
)
from selectiongames.covers import CofiniteSpec, is_cover_up_to
from selectiongames.engine import GameKind, check_legal, evaluate_win
from selectiongames.evasion import counterplay_large
from selectiongames.hurewicz import (
    bob_counterplay_menger,
    cofinite_intersection,
    level_family,
    normalize_strategy,
    tail_derived_cover,
)
from selectiongames.products import infinitely_often_play
from selectiongames.rothberger import rothberger_counterplay
from selectiongames.scenarios import transcript_records
from selectiongames.selectors import select_sone
from selectiongames.solver import (
    FiniteGameInstance,
    counterplay_bob_strategy,
    cross_check,
    deterministic_strategy,
    minimal_winning_depth,
    restrict_option,
    solve_finite_game,
)
from selectiongames.spaces import CountableDiscrete, FiniteTopological, describe, extension, member
from selectiongames.trees import strategy_from_tree

import gen

SINGLE = GameKind("single")
FINITE = GameKind("finite")


@dataclass
class Outcome:
    failures: list[str]
    payload: bytes
    transcript_bytes: int = 0  # size of the transcript serialization, when the job has one


@dataclass
class Job:
    key: str  # stable across seeds; digests are pinned per (workload, key)
    run: Callable[[], Outcome]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    info: dict = field(default_factory=dict)


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _transcript_outcome(failures: list[str], transcript) -> Outcome:
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in transcript_records(transcript)]
    payload = "".join(lines).encode()
    return Outcome(failures, payload, len(payload))


def _check(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


# ---------------------------------------------------------------------------
# counterplay: the four constructions on the countable model

MENGER_INNINGS = (10, 20, 30)
OFTEN_INNINGS = (20, 30)
ROTHBERGER_INNINGS = (10, 25)
LARGE_INNINGS = (15, 20)
NAMED = ("seg_tower", "shifted_seg", "singletons", "whole_head", "mixed_adversarial")
LARGE_NAMED = ("depth_shifted", "depth_fast", "max_shifted", "whole_tree")  # uniform_segments: exponential boxes
HORIZON = 5  # points checked by the infinitely-often and Rothberger plays
LARGE_SAMPLE = 5  # points the large-cover plays must cover twice


def _strategy(name: str | int):
    if isinstance(name, int):
        return lambda space: seeded_strategy(space, name)
    return lambda space: named_strategies(space)[name]


def _rothberger_tree(name: str | int):
    if isinstance(name, int):
        return lambda space: rothberger_tree_corpus(space, n_random=1, seed=name)[f"seeded{name * 1000}"]
    return lambda space: rothberger_tree_corpus(space)[name]


def _appendix_tree(name: str | int):
    if isinstance(name, int):
        return lambda space: appendix_tree_corpus(space, n_random=1, seed=name)[f"seeded{name * 1000}"]
    return lambda space: appendix_tree_corpus(space)[name]


def _tag(name: str | int) -> str:
    return f"seeded{name}" if isinstance(name, int) else name


def menger_job(name: str | int, innings: int) -> Job:
    def run() -> Outcome:
        space = CountableDiscrete()
        alice = _strategy(name)(space)
        tree = normalize_strategy(alice, space, finite_win_horizon=innings)
        result = bob_counterplay_menger(tree, raw=alice, innings=innings)
        failures: list[str] = []
        _check(failures, evaluate_win(result.transcript, innings).bob_wins, "alice wins at horizon = innings")
        _check(failures, bool(check_legal(result.transcript, alice)), "illegal transcript")
        return _transcript_outcome(failures, result.transcript)

    return Job(f"menger/{_tag(name)}/n{innings}", run)


def often_job(name: str | int, innings: int) -> Job:
    def run() -> Outcome:
        space = CountableDiscrete()
        alice = _strategy(name)(space)
        transcript, report, _ = infinitely_often_play(alice, innings=innings, horizon=HORIZON)
        failures: list[str] = []
        recount = {
            p.id: tuple(
                rec.number for rec in transcript.innings if any(member(s, p) for s in rec.selected_sets)
            )
            for p in space.points(HORIZON)
        }
        _check(failures, recount == dict(report.covering_innings), "report disagrees with the transcript")
        _check(failures, min(len(v) for v in recount.values()) >= 3, "multiplicity below 3")
        _check(failures, bool(check_legal(transcript, alice)), "illegal transcript")
        return _transcript_outcome(failures, transcript)

    return Job(f"often/{_tag(name)}/n{innings}", run)


def rothberger_job(name: str | int, innings: int) -> Job:
    def run() -> Outcome:
        space = CountableDiscrete()
        tree = _rothberger_tree(name)(space)
        result = rothberger_counterplay(tree, select_sone, innings=innings, horizon=HORIZON)
        t = result.transcript
        failures: list[str] = []
        _check(failures, t.truncated_at >= innings, "transcript shorter than requested")
        _check(failures, evaluate_win(t, HORIZON).bob_wins, f"alice wins at horizon {HORIZON}")
        _check(failures, bool(check_legal(t, strategy_from_tree(tree))), "illegal transcript")
        _check(
            failures,
            all(len(r.selection) == 1 and r.audit_dict()["pick"] <= r.audit_dict()["bound"] for r in t.innings),
            "pick exceeds bound",
        )
        return _transcript_outcome(failures, t)

    return Job(f"rothberger/{_tag(name)}/n{innings}", run)


def large_job(name: str | int, innings: int) -> Job:
    def run() -> Outcome:
        space = CountableDiscrete()
        tree = _appendix_tree(name)(space)
        result = counterplay_large(tree, space.points(LARGE_SAMPLE), innings=innings)
        failures: list[str] = []
        _check(failures, result.report.min_multiplicity() >= 2, "multiplicity below 2")
        _check(
            failures,
            not result.stripped_play or result.report.distinct_selections,
            "repeated selection in a stripped play",
        )
        _check(failures, bool(check_legal(result.transcript, strategy_from_tree(tree))), "illegal transcript")
        return _transcript_outcome(failures, result.transcript)

    return Job(f"large/{_tag(name)}/n{innings}", run)


def counterplay_jobs(seeded: dict[str, list[int]]) -> list[Job]:
    """Named strategies and trees at growing innings, plus seeded Menger
    strategies at 40-80 innings. Seeded strategies mostly offer the whole
    space early, so their plays end in finite wins and cost little; the
    other constructions run on the named corpora only, which keeps the cost
    of a pass the same for every seed."""
    jobs = [menger_job(n, k) for n in NAMED for k in MENGER_INNINGS]
    jobs += [menger_job(g, (40, 60, 80)[g % 3]) for g in seeded["menger"]]
    jobs += [often_job(n, k) for n in NAMED for k in OFTEN_INNINGS]
    jobs += [rothberger_job(n, k) for n in NAMED for k in ROTHBERGER_INNINGS]
    jobs += [large_job(n, k) for n in LARGE_NAMED for k in LARGE_INNINGS]
    return jobs


COUNTERPLAY_SEEDED = {"menger": 8}


# ---------------------------------------------------------------------------
# tail_cover: cofinite intersections against brute force, and tail covers

GRID_POINTS = 50
GRID_TOP = 25  # the grid excludes up to 3 of the member indices 1..GRID_TOP
TAIL_NAMED = ("seg_tower", "shifted_seg")
COVER_HORIZON = {1: 50, 2: 25, 3: 16}
SCAN_LIMIT = 10_000  # children scanned per node by the brute force


def spec_grid() -> list[frozenset[int]]:
    """Every exclusion set of at most 3 of the member indices 1..25 (2,626 specs)."""
    out = [frozenset()]
    for size in (1, 2, 3):
        out.extend(frozenset(c) for c in itertools.combinations(range(1, GRID_TOP + 1), size))
    return out


SPECS = spec_grid()


def _code(path: tuple[int, ...]) -> int:
    """Index of a node in its level family (iterated Cantor pairing)."""
    code = path[-1]
    for e in reversed(path[:-1]):
        a, b = e - 1, code - 1
        code = (a + b) * (a + b + 1) // 2 + b + 1
    return code


def omitted_grid_codes(tree, level: int, p, failures: list[str]) -> frozenset[int] | None:
    """Brute force: the level-family indices of the nodes whose sets omit p,
    or None as soon as one such index lies beyond the grid (then p lies in
    no intersection of the grid).

    Walks the tree depth first, scanning each omitting node's children in
    index order until one contains p. That finds every omitting node when
    the covers are increasing and each child contains its parent's set, so
    both are checked on the nodes walked.
    """
    found = set()
    stack: list[tuple[int, ...]] = [()]
    while stack:
        node = stack.pop()
        if node and describe(tree.set_at(node + (1,))) != describe(tree.set_at(node)):
            failures.append(f"head condition fails at {node}")
        children = []
        while not member(tree.set_at(node + (len(children) + 1,)), p):
            children.append(node + (len(children) + 1,))
            if len(children) >= SCAN_LIMIT:
                raise RuntimeError(f"no child of {node} within {SCAN_LIMIT} contains {p!r}")
        if not member(tree.set_at(node + (len(children) + 2,)), p):
            failures.append(f"cover at {node} is not increasing")
        if len(node) + 1 < level:
            stack.extend(reversed(children))
            continue
        for child in children:
            code = _code(child)
            if code > GRID_TOP:
                return None
            found.add(code)
    return frozenset(found)


def grid_job(label: str, make_tree: Callable, level: int, points: Callable) -> Job:
    """Every cofinite intersection of the spec grid against brute force.

    On finite spaces every point is checked and each intersection's
    extension must be open; on the countable model the first 50 points.
    """

    def run() -> Outcome:
        tree = make_tree()
        space = tree.space
        fam = level_family(tree, level)
        pts = points(space)
        failures: list[str] = []
        omit = [omitted_grid_codes(tree, level, p, failures) for p in pts]
        rows = bytearray()
        for spec in SPECS:
            sym = cofinite_intersection(fam, CofiniteSpec(spec))
            row = 0
            for i, p in enumerate(pts):
                inside = member(sym, p)
                if inside != (omit[i] is not None and omit[i] <= spec):
                    failures.append(f"spec {sorted(spec)} disagrees with brute force at {p!r}")
                row |= inside << i
            if space.is_finite and not space.is_open(extension(sym, space)):
                failures.append(f"spec {sorted(spec)}: intersection is not open")
            rows += row.to_bytes(8, "little")
        return Outcome(failures[:5], bytes(rows))

    return Job(f"grid/{label}/L{level}", run)


def cover_job(label: str, make_tree: Callable, level: int, horizon: int) -> Job:
    """The tail-derived cover's witnesses up to a horizon."""

    def run() -> Outcome:
        fam = level_family(make_tree(), level)
        verdict = is_cover_up_to(tail_derived_cover(fam), horizon)
        failures = [] if verdict else [f"witness fails at {verdict.failing_point!r}"]
        return Outcome(failures, json.dumps([label, level, horizon, bool(verdict)]).encode())

    return Job(f"cover/{label}/L{level}/h{horizon}", run)


def _countable_tree(name: str | int) -> Callable:
    def make():
        space = CountableDiscrete()
        return normalize_strategy(_strategy(name)(space), space)

    return make


def tail_cover_jobs(seeded: dict[str, list[int]], finite: dict[str, FiniteGameInstance]) -> list[Job]:
    """Named strategies at levels 1-3 and a seeded one at level 1 on the
    countable model, then one bundled instance per finite space. Tail covers
    of seeded strategies are left out: their cost varies several-fold
    between strategies, which would make the cost of a pass depend on the
    seed."""
    jobs = []
    for name in TAIL_NAMED:
        make = _countable_tree(name)
        for level in (1, 2, 3):
            jobs.append(grid_job(name, make, level, lambda space: space.points(GRID_POINTS)))
            jobs.append(cover_job(name, make, level, COVER_HORIZON[level]))
    for g in seeded["tail"]:
        jobs.append(grid_job(_tag(g), _countable_tree(g), 1, lambda space: space.points(GRID_POINTS)))
    for tag, inst in finite.items():

        def make(inst=inst):
            return normalize_strategy(deterministic_strategy(inst), inst.space)

        for level in (1, 2, 3):
            jobs.append(grid_job(tag, make, level, lambda space: space.all_points()))
            jobs.append(cover_job(tag, make, level, GRID_POINTS))
    return jobs


TAIL_SEEDED = {"tail": 1}


def finite_spaces() -> dict[str, FiniteGameInstance]:
    """One bundled instance per distinct bundled finite space."""
    out: dict[str, FiniteGameInstance] = {}
    for inst in bundled_instances().values():
        out.setdefault(inst.space.tag, inst)
    return out


# ---------------------------------------------------------------------------
# finite_oracle: exact solver depths against independent answers

# hand-enumerated minimal depths of the bundled instances: (instance, arity, cap) -> depth
BUNDLED_DEPTHS = {
    ("one_point", "single", 1): 1,
    ("two_point_singletons", "single", 1): 2,
    ("two_point_singletons", "finite", 2): 1,
    ("two_point_options", "single", 1): 2,
    ("three_point_singletons", "single", 1): 3,
    ("three_point_singletons", "finite", 3): 1,
    ("four_point_pairs", "single", 1): 2,
    ("four_point_pairs", "finite", 2): 1,
    ("sierpinski_game", "single", 1): 1,
    ("chain_game", "single", 1): 1,
    ("valley_game", "single", 1): 2,
    ("valley_game", "finite", 2): 1,
}


def library_instance(spec: gen.InstanceSpec) -> FiniteGameInstance:
    """The library form of a generated instance (validates its topology)."""
    space = FiniteTopological(spec.n, [gen.ids(m) for m in spec.opens], tag=spec.key)
    families = [tuple(tuple(frozenset(gen.ids(m)) for m in cover) for cover in fam) for fam in spec.families]
    r = len(families)
    if r == 1:
        return FiniteGameInstance(space, lambda history: families[0], name=spec.key)
    return FiniteGameInstance(
        space, lambda history: families[sum(o + sel[0] for o, sel in history) % r], name=spec.key
    )


def _solve_and_confirm(inst: FiniteGameInstance, arity: str, cap: int, expected: list[int], failures: list[str]) -> list:
    game = SINGLE if arity == "single" else FINITE
    depth = minimal_winning_depth(inst, game, cap)
    for want in expected:
        _check(failures, depth == want, f"{arity} cap {cap}: depth {depth}, reference {want}")
    at = solve_finite_game(inst, game, depth, cap, node_limit=gen.NODE_LIMIT).winner
    below = solve_finite_game(inst, game, depth - 1, cap, node_limit=gen.NODE_LIMIT).winner if depth > 1 else "alice"
    _check(failures, at == "bob" and below == "alice", f"{arity} cap {cap}: winners {at}/{below} at d/d-1")
    return [arity, cap, depth, at, below]


def _cross_check_lines(inst: FiniteGameInstance, failures: list[str]) -> list:
    n_options = len(inst.options_at(()))
    out = []
    for opt in range(n_options):
        line = restrict_option(inst, opt) if n_options > 1 else inst
        cap = max(len(c) for c in line.options_at(()))
        verdict = cross_check(counterplay_bob_strategy(line), line, FINITE, selection_cap=cap)
        _check(failures, bool(verdict), f"option {opt}: {verdict.reason}")
        out.append([opt, bool(verdict), verdict.reason])
    return out


def generated_job(spec: gen.InstanceSpec, inst: FiniteGameInstance) -> Job:
    def run() -> Outcome:
        failures: list[str] = []
        results = []
        for cap in gen.CAPS:
            expected = [spec.depths[cap]]
            if spec.stationary and spec.n_options == 1:
                expected.append(-(-spec.min_set_cover() // cap))
            results.append(_solve_and_confirm(inst, "single" if cap == 1 else "finite", cap, expected, failures))
        results.append(_cross_check_lines(inst, failures))
        return Outcome(failures, json.dumps(results).encode())

    return Job(f"solve/{spec.key}", run)


def bundled_job(name: str, inst: FiniteGameInstance) -> Job:
    def run() -> Outcome:
        failures: list[str] = []
        results = [
            _solve_and_confirm(inst, arity, cap, [depth], failures)
            for (iname, arity, cap), depth in BUNDLED_DEPTHS.items()
            if iname == name
        ]
        results.append(_cross_check_lines(inst, failures))
        return Outcome(failures, json.dumps(results).encode())

    return Job(f"solve/{name}", run)


FINITE_GENERATED = 22
INSTANCES = Path(__file__).resolve().parent / "instances.json"


# ---------------------------------------------------------------------------


def seeded_picks(workload: str, seed: int) -> dict[str, list[int]]:
    counts = {"counterplay": COUNTERPLAY_SEEDED, "tail_cover": TAIL_SEEDED}.get(workload, {})
    return {kind: gen.pick(seed, kind, count) for kind, count in counts.items()}


def build(workload: str, seed: int) -> Workload:
    """Generate one run's inputs and job list (the benchmark's set-up)."""
    if workload == "counterplay":
        jobs = counterplay_jobs(seeded_picks(workload, seed))
        info: dict = {}
    elif workload == "tail_cover":
        jobs = tail_cover_jobs(seeded_picks(workload, seed), finite_spaces())
        info = {}
    elif workload == "finite_oracle":
        specs = gen.pick_instances(seed, gen.load_finite_pool(INSTANCES), FINITE_GENERATED)
        jobs = [generated_job(spec, library_instance(spec)) for spec in specs]
        jobs += [bundled_job(name, inst) for name, inst in bundled_instances().items()]
        info = {"instance_kinds": instance_kinds(specs)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order:{workload}:{seed}").shuffle(jobs)
    return Workload(workload, jobs, info)


def instance_kinds(specs: list[gen.InstanceSpec]) -> dict[str, float]:
    """Shares of stationary vs history-dependent and of one vs two options."""
    n = len(specs)
    return {
        "stationary": sum(s.stationary for s in specs) / n,
        "history_dependent": sum(not s.stationary for s in specs) / n,
        "one_option": sum(s.n_options == 1 for s in specs) / n,
        "two_options": sum(s.n_options == 2 for s in specs) / n,
    }


def pool(workload: str) -> list[Job]:
    """Every job any run seed can produce, for pinning digests."""
    every = range(gen.POOL)
    if workload == "counterplay":
        return counterplay_jobs({kind: list(every) for kind in COUNTERPLAY_SEEDED})
    if workload == "tail_cover":
        return tail_cover_jobs({"tail": list(every)}, finite_spaces())
    if workload == "finite_oracle":
        jobs = [generated_job(spec, library_instance(spec)) for spec in gen.finite_pool()]
        return jobs + [bundled_job(name, inst) for name, inst in bundled_instances().items()]
    raise ValueError(f"unknown workload {workload!r}")
