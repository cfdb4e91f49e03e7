"""Per-layer tracing from outside the library.

:class:`Tracer` re-binds the library's public functions to wrappers while it
is installed and restores them when it is removed; ``src/`` is never edited.
A module-level function is re-bound in every ``selectiongames`` module that
holds it (``hurewicz.member`` as well as ``spaces.member``) and in the
benchmark modules that call the library, so calls made through any import
reach the wrapper. A method is patched on its class and on every subclass
that overrides it.

Three kinds of wrapper:

* ``span``: the job and each construction or verification entry point record
  one span per call (name, start, end, parent span, job key), plus a call
  count and self time;
* ``time``: a call count and self nanoseconds, aggregated, for functions
  called up to millions of times;
* ``count``: a call count only, for the hottest leaves whose time the metrics
  do not need; the call's time stays with its caller.

Self time is a call's duration minus the time spent in timed or span calls
made from it. Everything stays in memory until :meth:`Tracer.take`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

CALLER_MODULES = ("workloads",)  # benchmark modules that call the library

# (label, module, attribute path, kind) -- attribute paths with a dot are methods
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("spaces.member", "spaces", "member", "time"),
    ("spaces.describe", "spaces", "describe", "time"),
    ("spaces.space_hint", "spaces", "OpenSet.space_hint", "count"),
    ("spaces.FiniteTopological", "spaces", "FiniteTopological.__init__", "time"),
    ("covers.IndexedCover.sets", "covers", "IndexedCover.sets", "time"),
    ("covers.witness_of", "covers", "witness_of", "time"),
    ("covers.is_cover_up_to", "covers", "is_cover_up_to", "span"),
    ("hurewicz.normalize_strategy", "hurewicz", "normalize_strategy", "span"),
    ("hurewicz.bob_counterplay_menger", "hurewicz", "bob_counterplay_menger", "span"),
    ("hurewicz.tail_derived_cover", "hurewicz", "tail_derived_cover", "span"),
    ("hurewicz.cofinite_intersection", "hurewicz", "cofinite_intersection", "time"),
    ("hurewicz.ExclusionOracle.omits", "hurewicz", "ExclusionOracle.omits", "time"),
    ("hurewicz.ExclusionOracle.materialize", "hurewicz", "ExclusionOracle.materialize", "time"),
    ("pairing.decode_tuple", "pairing", "decode_tuple", "count"),
    ("pairing.encode_tuple", "pairing", "encode_tuple", "time"),
    ("pairing.excluded_set_index", "pairing", "excluded_set_index", "time"),
    ("trees.TreeStrategy.cover_at", "trees", "TreeStrategy.cover_at", "time"),
    ("trees.box_paths", "trees", "box_paths", "count"),
    ("products.infinitely_often_play", "products", "infinitely_often_play", "span"),
    ("products.project_selection", "products", "project_selection", "time"),
    ("products.lifted_cover", "products", "lifted_cover", "count"),
    ("rothberger.rothberger_counterplay", "rothberger", "rothberger_counterplay", "span"),
    ("rothberger.joint_refinement_cover", "rothberger", "joint_refinement_cover", "time"),
    ("evasion.counterplay_large", "evasion", "counterplay_large", "span"),
    ("evasion.greedy_index_function", "evasion", "greedy_index_function", "count"),
    ("engine.check_legal", "engine", "check_legal", "span"),
    ("engine.evaluate_win", "engine", "evaluate_win", "span"),
    ("engine.make_inning", "engine", "make_inning", "time"),
    ("solver.solve_finite_game", "solver", "solve_finite_game", "span"),
    ("solver.minimal_winning_depth", "solver", "minimal_winning_depth", "span"),
    ("solver.cross_check", "solver", "cross_check", "span"),
    ("scenarios.transcript_records", "scenarios", "transcript_records", "span"),
)


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    job: str | None


@dataclass
class Snapshot:
    """What one traced stretch of work recorded."""

    calls: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)
    spans: list[Span] = field(default_factory=list)


# -- result hooks: counts read from what a wrapped call returned -------------


def _menger_result(counters: Counter, result: Any, args: tuple) -> Any:
    innings = result.transcript.innings
    counters["hurewicz.innings_played"] += len(innings)
    counters["hurewicz.children_skipped"] += sum(
        len(rec.audit_dict().get("excluded_children_probed", ())) for rec in innings
    )
    counters["hurewicz.finite_wins"] += result.finite_win
    return result


def _materialized(counters: Counter, result: Any, args: tuple) -> Any:
    counters["hurewicz.excluded_nodes"] += len(result.excluded)
    return result


def _subset_index(counters: Counter, result: Any, args: tuple) -> Any:
    counters["pairing.excluded_index_bits"] += result.bit_length()
    return result


def _box(counters: Counter, result: Any, args: tuple) -> Any:
    if isinstance(result, list):
        counters["trees.box_nodes"] += len(result)
        return result

    def counted():
        for path in result:
            counters["trees.box_nodes"] += 1
            yield path

    return counted()


def _large_result(counters: Counter, result: Any, args: tuple) -> Any:
    counters["evasion.strip_fallbacks"] += not result.stripped_play
    return result


def _solved(counters: Counter, result: Any, args: tuple) -> Any:
    counters["solver.nodes"] += result.nodes
    return result


def _topology(counters: Counter, result: Any, args: tuple) -> Any:
    counters["spaces.topology_pairs_checked"] += len(args[0].topology) ** 2
    return result


HOOKS: dict[str, Callable[[Counter, Any, tuple], Any]] = {
    "hurewicz.bob_counterplay_menger": _menger_result,
    "hurewicz.ExclusionOracle.materialize": _materialized,
    "pairing.excluded_set_index": _subset_index,
    "trees.box_paths": _box,
    "evasion.counterplay_large": _large_result,
    "solver.solve_finite_game": _solved,
    "spaces.FiniteTopological": _topology,
}


class Tracer:
    """Installs the wrappers; :meth:`take` hands over what they recorded."""

    def __init__(self):
        self._stats: dict[str, list[int]] = {}  # label -> [calls, self ns]
        self._counters: Counter = Counter()
        self._spans: list[Span] = []
        self._stack: list[list[int]] = [[0]]  # child ns of each active timed call; bottom sentinel
        self._span_stack: list[int] = []
        self._job: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    def take(self) -> Snapshot:
        """Return what was recorded since the last take, and reset it."""
        snap = Snapshot(counters=self._counters, spans=self._spans)
        for label, stats in self._stats.items():
            if stats[0]:
                snap.calls[label] = stats[0]
                snap.self_ns[label] = stats[1]
            stats[0] = stats[1] = 0
        self._counters = Counter()
        self._spans = []
        return snap

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, label: str, fn: Callable, kind: str) -> Callable:
        stats = self._stats.setdefault(label, [0, 0])
        if kind == "count":
            return _named(self._counting(label, fn, stats), fn)
        if kind == "time" and label not in HOOKS:
            return _named(self._timing(fn, stats), fn)
        return _named(self._spanning(label, fn, stats, kind == "span"), fn)

    def _counting(self, label: str, fn: Callable, stats: list[int]) -> Callable:
        hook = HOOKS.get(label)

        def counting(*args, **kwargs):
            stats[0] += 1
            result = fn(*args, **kwargs)
            return result if hook is None else hook(self._counters, result, args)

        return counting

    def _timing(self, fn: Callable, stats: list[int]) -> Callable:
        perf = time.perf_counter_ns
        stack = self._stack
        push, pop = stack.append, stack.pop

        def timing(*args, **kwargs):
            frame = [0]
            push(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                pop()
                stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed - frame[0]

        return timing

    def _spanning(self, label: str, fn: Callable, stats: list[int], span: bool) -> Callable:
        hook = HOOKS.get(label)

        def spanning(*args, **kwargs):
            with self._frame(label, stats, span):
                result = fn(*args, **kwargs)
                if hook is not None:
                    result = hook(self._counters, result, args)
                return result

        return spanning

    @contextmanager
    def _frame(self, label: str, stats: list[int], span: bool):
        sid = len(self._spans) + len(self._span_stack)  # unique within one snapshot
        parent = self._span_stack[-1] if self._span_stack else None
        if span:
            self._span_stack.append(sid)
        frame = [0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._stack[-1][0] += end - start
            stats[0] += 1
            stats[1] += end - start - frame[0]
            if span:
                self._span_stack.pop()
                self._spans.append(Span(sid, label, start, end, parent, self._job))

    @contextmanager
    def job(self, key: str):
        """A span around one job; spans opened inside it carry its key."""
        self._job = key
        try:
            with self._frame("job", self._stats.setdefault("job", [0, 0]), True):
                yield
        finally:
            self._job = None

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions: dict[int, tuple[object, Callable]] = {}  # id(original) -> (original, wrapper)
        for label, mod_name, path, kind in TARGETS:
            module = sys.modules[f"selectiongames.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                base = getattr(module, cls_name)
                for cls in [base, *_subclasses(base)]:
                    if attr in vars(cls):
                        original = vars(cls)[attr]
                        self._patch(cls, attr, original, self._wrap(label, original, kind))
            else:
                original = getattr(module, path)
                functions[id(original)] = (original, self._wrap(label, original, kind))
        holders = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "selectiongames" or name.startswith("selectiongames.") or name in CALLER_MODULES
        ]
        for module in holders:
            for attr, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, value, entry[1])

    def _patch(self, owner: object, attr: str, original: object, wrapper: Callable) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _named(wrapper: Callable, fn: Callable) -> Callable:
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", wrapper.__name__)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
