import math
import random
from collections import Counter
from functools import reduce
from typing import Sequence

import pytest

from selectiongames import engine, evasion
from selectiongames.corpus import (
    appendix_tree_corpus,
    capped_tree,
    const_tree,
    depth_tree,
    segment_cover,
    strategy_corpus,
)
from selectiongames.covers import IndexedCover, is_cover_up_to, witness_of
from selectiongames.engine import Moves, check_legal, evaluate_win
from selectiongames.errors import BudgetError, CrossSpaceError, ResourceLimitError, StripExhaustedError
from selectiongames.evasion import (
    BaireFunction,
    counterplay_large,
    evasion_function,
    greedy_index_function,
    strip_chosen_tree,
    strip_history,
    wedge_tree,
)
from selectiongames.hurewicz import normalize_strategy
from selectiongames.spaces import (
    CountableDiscrete,
    FiniteIntersection,
    Named,
    OpenSet,
    Point,
    describe,
    initial_segment,
    member,
    singleton,
)
from selectiongames.trees import Path, TreeStrategy, box_paths, strategy_from_tree

from helpers import extensionally_equal, is_large_up_to, reference_box_paths, scrambled_tree, subtree

N = CountableDiscrete()


def descriptions(sets) -> frozenset:
    """The descriptions of the given sets, as `strip_history` removes them."""
    return frozenset(map(describe, sets))


# ---------------------------------------------------------------------------
# The large-cover pipeline as it was before stripped covers were shared and
# wedged covers became joint refinements: one fresh stripped cover per node,
# a box walk per member index and per witness query, and a hand-written
# least-child loop in the greedy trace. Kept verbatim as the reference the
# current pipeline must agree with.


def reference_strip_chosen_tree(tree: TreeStrategy) -> TreeStrategy:
    state: dict[Path, tuple[Path, tuple[OpenSet, ...]]] = {(): ((), ())}

    def resolve(path: Path) -> tuple[Path, tuple[OpenSet, ...]]:
        hit = state.get(path)
        if hit is None:
            parent_orig, parent_chosen = resolve(path[:-1])
            stripped_parent = stripped.cover_at(path[:-1])
            orig_idx = stripped_parent.provenance(path[-1])[0]
            chosen_set = tree.set_at(parent_orig + (orig_idx,))
            hit = state[path] = (parent_orig + (orig_idx,), parent_chosen + (chosen_set,))
        return hit

    def cover_at(path: Path) -> IndexedCover:
        orig_path, chosen = resolve(path)
        return strip_history(tree.cover_at(orig_path), descriptions(chosen))

    def back_map(path: Path) -> tuple[tuple[int, ...], ...]:
        orig_path, _ = resolve(path)
        return tuple((i,) for i in orig_path)

    stripped = TreeStrategy(
        space=tree.space,
        cover_at_raw=cover_at,
        back_map=back_map,
        label=f"stripped({tree.label})",
    )
    return stripped


def reference_wedge_tree(tree: TreeStrategy, box_limit: int = 20_000) -> TreeStrategy:
    def factor_sets(bound: Path, n: int) -> list[OpenSet]:
        out: list[OpenSet] = []
        seen: set[tuple] = set()
        for tau in reference_box_paths(bound, box_limit):
            s = tree.cover_at(tau).sets(n)
            d = describe(s)
            if d not in seen:
                seen.add(d)
                out.append(s)
        return out

    def cover_at(path: Path) -> IndexedCover:
        base = tree.cover_at(path)

        def sets(n: int) -> OpenSet:
            parts = factor_sets(path, n)
            if len(parts) == 1:
                return parts[0]
            return FiniteIntersection(parts=tuple(parts))

        def witness(p: Point) -> int:
            w = 0
            for tau in reference_box_paths(path, box_limit):
                w = max(w, witness_of(tree.cover_at(tau), p))
            return w

        return IndexedCover(
            space=tree.space,
            sets=sets,
            witness=witness,
            increasing=base.increasing,
            label=f"wedged{path}",
        )

    return TreeStrategy(
        space=tree.space,
        cover_at_raw=cover_at,
        back_map=tree.back_map,
        label=f"wedge({tree.label})",
    )


def reference_greedy_index_function(
    tree: TreeStrategy,
    point: Point,
    prefix: Path = (),
    scan_budget: int = 10_000,
) -> BaireFunction:
    entries: list[int] = list(prefix)

    def eval_raw(n: int) -> int:
        while len(entries) < n:
            at = tuple(entries)
            cover = tree.cover_at(at)
            w = witness_of(cover, point)
            pick = None
            for m in range(1, min(w, scan_budget) + 1):
                if member(tree.set_at(at + (m,)), point):
                    pick = m
                    break
            if pick is None:
                raise BudgetError(f"no covering child within {scan_budget} at node {at}")
            entries.append(pick)
        return entries[n - 1]

    tag = f"trace(p{point.id}" + (f", prefix={prefix})" if prefix else ")")
    return BaireFunction(eval_raw=eval_raw, description=tag)


# ---------------------------------------------------------------------------
# Stripping as it was before witnesses were memoized and strip keys interned:
# the witness scan runs on every query, and every node keeps its chosen-set
# tuple and rebuilds the frozenset of their descriptions as its sharing key.
# Kept verbatim as the reference.


def reference_strip_history(cover: IndexedCover, chosen: Sequence[OpenSet], scan_budget: int = 200) -> IndexedCover:
    gone = {describe(s) for s in chosen}
    surviving: list[int] = []  # original indices, in order

    def original_index(j: int) -> int:
        while len(surviving) < j:
            start = nxt = surviving[-1] + 1 if surviving else 1
            if gone:
                limit = nxt + scan_budget
                while nxt < limit and describe(cover.sets(nxt)) in gone:
                    nxt += 1
                if nxt >= limit:
                    raise BudgetError(
                        f"no member of cover {cover.label!r} survives within {scan_budget} of index {start}"
                    )
            surviving.append(nxt)
        return surviving[j - 1]

    def witness(p: Point) -> int:
        old = cover.witness(p)
        k = 1
        limit = None
        while True:
            oj = original_index(k)
            if member(cover.sets(oj), p):
                return k
            if limit is None and oj >= old:
                limit = k + scan_budget
            if limit is not None and k >= limit:
                raise BudgetError(f"witness repair exhausted budget {scan_budget} for {p!r}")
            k += 1

    return IndexedCover(
        space=cover.space,
        sets=lambda j: cover.sets(original_index(j)),
        witness=witness,
        provenance=lambda j: (original_index(j),),
        increasing=cover.increasing,
        label=f"stripped({cover.label})" if cover.label else "stripped",
    )


def reference_shared_strip_chosen_tree(tree: TreeStrategy) -> TreeStrategy:
    state: dict[Path, tuple[Path, tuple[OpenSet, ...]]] = {(): ((), ())}
    shared: dict[tuple[IndexedCover, frozenset], IndexedCover] = {}

    def resolve(path: Path) -> tuple[Path, tuple[OpenSet, ...]]:
        hit = state.get(path)
        if hit is None:
            parent_orig, parent_chosen = resolve(path[:-1])
            stripped_parent = stripped.cover_at(path[:-1])
            orig_idx = stripped_parent.provenance(path[-1])[0]
            chosen_set = tree.set_at(parent_orig + (orig_idx,))
            hit = state[path] = (parent_orig + (orig_idx,), parent_chosen + (chosen_set,))
        return hit

    def cover_at(path: Path) -> IndexedCover:
        orig_path, chosen = resolve(path)
        cover = tree.cover_at(orig_path)
        key = (cover, frozenset(describe(s) for s in chosen))
        hit = shared.get(key)
        if hit is None:
            hit = shared[key] = reference_strip_history(cover, chosen)
        return hit

    def back_map(path: Path) -> tuple[tuple[int, ...], ...]:
        orig_path, _ = resolve(path)
        return tuple((i,) for i in orig_path)

    stripped = TreeStrategy(
        space=tree.space,
        cover_at_raw=cover_at,
        back_map=back_map,
        label=f"stripped({tree.label})",
    )
    return stripped


# ---------------------------------------------------------------------------
# The stripped tree before a child became a transition from its parent: each
# node reads its original index through its parent's stripped cover, its set
# through the source tree, and extends and interns its parent's frozenset of
# removed descriptions. Kept verbatim as the reference.


def reference_interned_strip_chosen_tree(tree: TreeStrategy) -> TreeStrategy:
    """Remove, from each node's cover, the sets chosen on the way to that
    node. Node sequences of the result are indices into the stripped covers;
    `back_map` translates them to original single-index selections.

    A stripped cover depends only on the original cover and on the removed
    sets' descriptions, so nodes that agree on both share one cover object
    (and its member, witness and first-hit memos). Each node keeps its
    original path and an interned entry: the frozenset of the removed sets'
    descriptions, extended from its parent's by one, and the chosen sets of
    the first node that reached it."""

    Removed = tuple[frozenset, tuple[OpenSet, ...]]
    state: dict[Path, tuple[Path, Removed]] = {(): ((), (frozenset(), ()))}
    interned: dict[frozenset, Removed] = {}
    shared: dict[tuple[IndexedCover, frozenset], IndexedCover] = {}

    def resolve(path: Path) -> tuple[Path, Removed]:
        hit = state.get(path)
        if hit is None:
            parent_orig, (parent_removed, parent_chosen) = resolve(path[:-1])
            stripped_parent = stripped.cover_at(path[:-1])
            orig_path = parent_orig + (stripped_parent.provenance(path[-1])[0],)
            chosen_set = tree.set_at(orig_path)
            removed = parent_removed | {describe(chosen_set)}
            entry = interned.get(removed)
            if entry is None:
                entry = interned[removed] = (removed, parent_chosen + (chosen_set,))
            hit = state[path] = (orig_path, entry)
        return hit

    def cover_at(path: Path) -> IndexedCover:
        orig_path, (removed, chosen) = resolve(path)
        cover = tree.cover_at(orig_path)
        hit = shared.get((cover, removed))
        if hit is None:
            hit = shared[(cover, removed)] = strip_history(cover, removed)
        return hit

    def back_map(path: Path) -> Moves:
        orig_path, _ = resolve(path)
        return tuple((i,) for i in orig_path)

    stripped = TreeStrategy(
        space=tree.space,
        cover_at_raw=cover_at,
        back_map=back_map,
        label=f"stripped({tree.label})",
    )
    return stripped


TRANSITION_BOXES = [(30,), (30, 30), (10, 10, 10), (5, 5, 5, 5)]  # one box per depth, each within 2,000 nodes


def _every_corpus_tree():
    """The named appendix trees, the seeded ones of seeds 0-3, and the
    scrambled tree, whose states of one stripped cover step to different
    keys (where steps keyed by the stripped cover would go wrong)."""
    for seed in range(4):
        for name, tree in appendix_tree_corpus(N, n_random=2, seed=seed).items():
            if seed == 0 or name.startswith("seeded"):
                yield name, tree
    yield "scrambled", scrambled_tree(N)


def _stripped_walk(stripped: TreeStrategy) -> list[tuple]:
    """Per node of each transition box, in box order: the first node whose
    stripped cover is this node's (its sharing class), the back-map, and for
    a class's first node the descriptions of members 1-5; or the library
    error the node raised, with its message."""
    first: dict[int, Path] = {}
    walk: list[tuple] = []
    for bound in TRANSITION_BOXES:
        for node in box_paths(bound):
            try:
                cover = stripped.cover_at(node)
                row = [node, first.setdefault(id(cover), node), stripped.back_map(node)]
                if row[1] == node:
                    row.append(tuple(describe(cover.sets(j)) for j in range(1, 6)))
            except (BudgetError, ResourceLimitError) as exc:
                row = [node, type(exc), str(exc)]
            walk.append(tuple(row))
    return walk


def test_stripped_children_are_transitions_of_the_reference_walk():
    """The transition table gives every node of the boxes the reference's
    sharing class, back-map and members, and raises where it raises."""
    failing = set()
    for name, tree in _every_corpus_tree():
        got = _stripped_walk(strip_chosen_tree(tree))
        # the reference walks a fresh copy of the tree, so no source memo is shared
        fresh = dict(_every_corpus_tree())[name]
        assert got == _stripped_walk(reference_interned_strip_chosen_tree(fresh)), name
        failing.update(name for row in got if row[1] is StripExhaustedError)
    assert failing == {"whole_tree"}


# ---------------------------------------------------------------------------
# The corpus key shapes' keys of a whole path, from before a keyed tree was
# described by its child key alone: constant, depth, and the capped aggregate
# (the root keyed 0). Kept verbatim as the reference the folded child keys
# must reach.

_CAP = 12


def reference_capped_key_of(aggregate):
    def key_of(path: Path) -> int:
        return min(aggregate(path), _CAP) if path else 0

    return key_of


REFERENCE_KEY_OF = {
    "const": lambda path: None,
    "depth": len,
    "capped last": reference_capped_key_of(lambda path: path[-1]),
    "capped max": reference_capped_key_of(max),
}


def _key_shapes() -> dict[str, TreeStrategy]:
    """One tree per corpus key shape whose cover at a key is the key itself."""

    def reveal(key: object) -> tuple:
        return ("key", key)

    return {
        "const": const_tree(N, "const", lambda: reveal(None)),
        "depth": depth_tree(N, "depth", reveal),
        "capped last": capped_tree(N, "capped last", lambda path: path[-1], reveal),
        "capped max": capped_tree(N, "capped max", max, reveal),
    }


def test_child_keys_are_the_keys_of_the_children():
    """Folding each shape's child key from its root key reaches the
    reference key of every node of the transition boxes, whose entries go
    past the cap: cover_at(node) is the cover of the reference key."""
    for name, tree in _key_shapes().items():
        key_of, (_, _, cover_of_key) = REFERENCE_KEY_OF[name], tree.keys
        for bound in [()] + TRANSITION_BOXES:
            for node in box_paths(bound):
                assert tree.cover_at(node) is cover_of_key(key_of(node)), (name, node)


def test_stripping_a_keyed_tree_never_reads_it_at_a_node_path():
    for name, tree in appendix_tree_corpus(N, n_random=2).items():
        _stripped_walk(strip_chosen_tree(tree))
        assert set(tree._cover_memo) <= {()}, name


def test_the_cover_of_a_key_is_read_once_per_state():
    """Walking the transition boxes of a stripped keyed tree reads the cover
    of a key at most once per distinct (source key, removed descriptions)."""
    for name, tree in _every_corpus_tree():
        root_key, child_key, cover_of_key = tree.keys
        reads = Counter()

        def counted(key, cover_of_key=cover_of_key, reads=reads):
            reads[key] += 1
            return cover_of_key(key)

        counted_tree = TreeStrategy(space=N, cover_at_raw=tree.cover_at_raw, keys=(root_key, child_key, counted))
        stripped = strip_chosen_tree(counted_tree)
        states = set()
        for node in [()] + [node for bound in TRANSITION_BOXES for node in box_paths(bound)]:
            try:
                stripped.cover_at(node)
            except StripExhaustedError:
                continue
            orig = tuple(move[0] for move in stripped.back_map(node))
            removed = frozenset(describe(tree.set_at(orig[:k])) for k in range(1, len(orig) + 1))
            states.add((reduce(child_key, orig, root_key), removed))
        assert sum(reads.values()) <= len(states), name


def test_trees_without_keys_strip_by_their_paths():
    """A corpus tree rewrapped without keys is keyed by its paths, and its
    stripped walk is the reference's, node by node."""
    for name, tree in appendix_tree_corpus(N, n_random=2).items():
        unkeyed = TreeStrategy(space=N, cover_at_raw=tree.cover_at_raw, label=tree.label)
        got = _stripped_walk(strip_chosen_tree(unkeyed))
        fresh = appendix_tree_corpus(N, n_random=2)[name]
        assert got == _stripped_walk(reference_interned_strip_chosen_tree(fresh)), name
        assert (name == "whole_tree") == any(row[1] is StripExhaustedError for row in got), name


BOX = 200  # largest node box the comparisons walk
POINTS = [N.point(i) for i in range(16)]


def _outcome(fn):
    """A value, or the type of the library error computing it raised. A
    `StripExhaustedError` reads as its base `BudgetError`, which is what the
    verbatim references raise in its place."""
    try:
        return fn()
    except StripExhaustedError:
        return BudgetError
    except (BudgetError, ResourceLimitError) as exc:
        return type(exc)


def _pipelines():
    """(name, current tree, reference tree) for every appendix corpus tree,
    unstripped and stripped, each side wedged by its own pipeline.

    Corpus trees carry keys, which the current wedge reads by key states at
    any box size; the reference walks their boxes under a larger limit.
    Stripped trees have no keys, so both sides walk under the same limit.
    """
    for name, tree in appendix_tree_corpus(N, n_random=2, seed=5).items():
        yield name, wedge_tree(tree), reference_wedge_tree(tree, box_limit=100_000)
        yield (
            f"stripped {name}",
            wedge_tree(strip_chosen_tree(tree)),
            reference_wedge_tree(reference_strip_chosen_tree(tree)),
        )


def _nodes_on_small_boxes():
    rng = random.Random(41)
    nodes = {(), (1,), (2,), (5,), (1, 1), (3, 2), (2, 1, 3), (4, 5, 6), (12, 16)}
    while len(nodes) < 24:
        node = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 3)))
        if math.prod(node) <= BOX:
            nodes.add(node)
    return sorted(nodes)


class TestAgainstTheReferencePipeline:
    def test_same_wedged_members_and_witnesses(self):
        for name, new, ref in _pipelines():
            for node in _nodes_on_small_boxes():
                new_w = [_outcome(lambda: witness_of(new.cover_at(node), p)) for p in POINTS]
                ref_w = [_outcome(lambda: witness_of(ref.cover_at(node), p)) for p in POINTS]
                assert new_w == ref_w, (name, node)
                for n in range(1, 7):
                    new_m = _outcome(lambda: [member(new.set_at(node + (n,)), p) for p in POINTS])
                    ref_m = _outcome(lambda: [member(ref.set_at(node + (n,)), p) for p in POINTS])
                    assert new_m == ref_m, (name, node, n)

    def test_same_stripped_members_and_back_maps(self):
        for name, tree in appendix_tree_corpus(N, n_random=2, seed=5).items():
            new, ref = strip_chosen_tree(tree), reference_strip_chosen_tree(tree)
            for node in _nodes_on_small_boxes():
                if not node:
                    continue
                assert _outcome(lambda: describe(new.set_at(node))) == _outcome(
                    lambda: describe(ref.set_at(node))
                ), (name, node)
                assert _outcome(lambda: new.back_map(node)) == _outcome(lambda: ref.back_map(node)), (name, node)

    def test_same_greedy_traces(self):
        for name, new, ref in _pipelines():
            for prefix in [(), (1,), (3,), (2, 2)]:
                for p in POINTS:
                    f = greedy_index_function(new, p, prefix)
                    r = reference_greedy_index_function(ref, p, prefix)
                    # stop before the next node's box exceeds BOX nodes
                    for n in range(1, 6):
                        expect = _outcome(lambda: r(n))
                        assert _outcome(lambda: f(n)) == expect, (name, prefix, p.id, n)
                        if not isinstance(expect, int) or math.prod(r.prefix(n)) > BOX:
                            break

    def test_same_evasion_prefixes(self, monkeypatch):
        samples = [[POINTS[3], POINTS[1], POINTS[5], POINTS[0]], [POINTS[2], POINTS[4], POINTS[7]], POINTS[:6]]
        played = 0
        for name, new, ref in _pipelines():
            if "uniform_segments" in name:
                continue  # depth-independent covers: evasion boxes grow exponentially
            for sample in samples:
                got = _outcome(lambda: evasion_function(new, sample, node_budget=6).prefix(6))
                with monkeypatch.context() as m:
                    m.setattr(evasion, "greedy_index_function", reference_greedy_index_function)
                    expect = _outcome(lambda: evasion_function(ref, sample, node_budget=6).prefix(6))
                assert got == expect, (name, [p.id for p in sample])
                played += isinstance(got, tuple) and max(got) > 1
        assert played >= 20  # most comparisons are of nontrivial prefixes


class TestAgainstTheReferenceStrip:
    def test_same_members_witnesses_back_maps_and_sharing(self):
        for name, tree in appendix_tree_corpus(N, n_random=2, seed=5).items():
            new, ref = strip_chosen_tree(tree), reference_shared_strip_chosen_tree(tree)
            new_ids: dict[int, Path] = {}
            ref_ids: dict[int, Path] = {}
            for node in [()] + _nodes_on_small_boxes():
                got = _outcome(lambda: new.cover_at(node))
                expect = _outcome(lambda: ref.cover_at(node))
                if not isinstance(expect, IndexedCover):
                    assert got == expect, (name, node)
                    continue
                # the same nodes share a cover on both sides
                assert new_ids.setdefault(id(got), node) == ref_ids.setdefault(id(expect), node), (name, node)
                for _ in range(2):  # the second round reads the witness memo
                    new_w = [_outcome(lambda: got.witness(p)) for p in POINTS]
                    assert new_w == [_outcome(lambda: expect.witness(p)) for p in POINTS], (name, node)
                assert _outcome(lambda: new.back_map(node)) == _outcome(lambda: ref.back_map(node)), (name, node)
                for j in range(1, 5):
                    assert _outcome(lambda: describe(got.sets(j))) == _outcome(lambda: describe(expect.sets(j)))

    def test_same_witnesses_under_a_small_budget(self, monkeypatch):
        monkeypatch.setattr(evasion, "STRIP_SCAN_BUDGET", 3)
        cover = segment_cover(N)
        chosen = [initial_segment(N, j) for j in (1, 2, 4, 5, 6)]
        new = strip_history(cover, descriptions(chosen))
        ref = reference_strip_history(cover, chosen, scan_budget=3)
        for p in POINTS:
            assert _outcome(lambda: new.witness(p)) == _outcome(lambda: ref.witness(p)), p


def _lonely_cover() -> IndexedCover:
    """Member j contains only point j - 1 below index 30, everything above;
    removing member 3 leaves point 2 uncovered until index 30."""
    return IndexedCover(
        space=N,
        sets=lambda j: Named(space=N, label=f"lonely:{j}", pred=lambda p, j=j: p.id == j - 1 or j > 30),
        witness=lambda p: p.id + 1,
        label="lonely",
    )


class TestStripWitnessMemo:
    def test_point_of_another_space_is_refused_before_the_lookup(self):
        stripped = strip_history(segment_cover(N), descriptions([initial_segment(N, 1)]))
        assert stripped.witness(N.point(2)) == 2
        with pytest.raises(CrossSpaceError):
            stripped.witness(CountableDiscrete("M").point(2))

    def test_a_scan_that_raises_stores_nothing(self, monkeypatch):
        monkeypatch.setattr(evasion, "STRIP_SCAN_BUDGET", 5)
        cover = _lonely_cover()
        stripped = strip_history(cover, descriptions([cover.sets(3)]))
        for _ in range(2):
            with pytest.raises(BudgetError, match=r"^witness repair exhausted budget 5 in cover 'lonely' for p2@N$"):
                stripped.witness(N.point(2))
        assert stripped.witness(N.point(4)) == 4


def test_each_witness_scan_runs_once_per_point(monkeypatch):
    """A large-cover play runs each stripped cover's witness scan at most
    once per point (every scan starts by asking the original cover's witness,
    which a proxy counts), and its win evaluation tests each distinct
    description once per horizon point."""
    real_strip, real_member = evasion.strip_history, engine.member
    scans: Counter = Counter()

    def counting_strip(cover, removed):
        def witness(p):
            scans[id(proxy), p.id] += 1
            return cover.witness(p)

        proxy = IndexedCover(
            space=cover.space,
            sets=cover.sets,
            witness=witness,
            provenance=cover.provenance,
            increasing=cover.increasing,
            label=cover.label,
        )
        return real_strip(proxy, removed)

    monkeypatch.setattr(evasion, "strip_history", counting_strip)
    result = counterplay_large(appendix_tree_corpus(N)["max_shifted"], N.points(5), innings=15)
    assert result.stripped_play and len(scans) > 100
    assert max(scans.values()) == 1

    members: list[int] = []
    monkeypatch.setattr(engine, "member", lambda s, p: members.append(p.id) or real_member(s, p))
    win = evaluate_win(result.transcript, 5)
    distinct = {describe(s) for rec in result.transcript.innings for s in rec.selected_sets}
    assert len(members) <= len(distinct) * 5
    assert win.bob_wins


def test_stripped_covers_are_shared():
    """Nodes with the same original cover and the same removed sets (by
    description) get one stripped cover object; any difference in either
    gives another object."""
    for name in ("depth_shifted", "max_shifted"):
        tree = appendix_tree_corpus(N)[name]
        stripped = strip_chosen_tree(tree)
        groups: dict[tuple, list] = {}
        for node in box_paths((6, 6, 6)):
            orig = tuple(m[0] for m in stripped.back_map(node))
            removed = frozenset(describe(tree.set_at(orig[:k])) for k in range(1, len(orig) + 1))
            groups.setdefault((id(tree.cover_at(orig)), removed), []).append(stripped.cover_at(node))
        assert any(len(covers) > 1 for covers in groups.values()), name
        for covers in groups.values():
            assert all(c is covers[0] for c in covers), name
        assert len({id(covers[0]) for covers in groups.values()}) == len(groups), name


def test_invalid_values_raise_on_every_call():
    f = BaireFunction(eval_raw=lambda n: 0, description="zero")
    for _ in range(2):
        with pytest.raises(ValueError):
            f(1)


class TestStripHistory:
    def test_budget_error_names_the_scan_start_and_the_cover(self, monkeypatch):
        monkeypatch.setattr(evasion, "STRIP_SCAN_BUDGET", 5)
        cover = segment_cover(N)
        chosen = [initial_segment(N, j) for j in range(2, 10)]
        stripped = strip_history(cover, descriptions(chosen))
        assert stripped.provenance(2) == (2,)
        with pytest.raises(BudgetError, match=r"cover 'segments' survives within 5 of index 3$"):
            stripped.sets(3)

    def test_removes_named_sets_and_reindexes(self):
        cover = segment_cover(N)
        stripped = strip_history(cover, descriptions([initial_segment(N, 0)]))
        for j in (1, 2, 5):
            assert describe(stripped.sets(j)) == describe(initial_segment(N, j))
        assert stripped.provenance(1) == (2,)

    def test_removing_two(self):
        cover = segment_cover(N)
        stripped = strip_history(cover, descriptions([initial_segment(N, 0), initial_segment(N, 1)]))
        for j in (1, 3):
            assert describe(stripped.sets(j)) == describe(initial_segment(N, j + 1))

    def test_empty_removal_is_identity(self):
        cover = segment_cover(N)
        stripped = strip_history(cover, frozenset())
        for j in (1, 4):
            assert describe(stripped.sets(j)) == describe(cover.sets(j))
        assert stripped.provenance(3) == (3,)

    def test_witness_repaired(self):
        cover = segment_cover(N)
        stripped = strip_history(cover, descriptions([initial_segment(N, 4)]))
        assert is_cover_up_to(stripped, 20)

    def test_preserves_largeness(self):
        cover = segment_cover(N)
        stripped = strip_history(cover, descriptions([initial_segment(N, 2), initial_segment(N, 6)]))
        sets = [stripped.sets(j) for j in range(1, 15)]
        assert is_large_up_to(sets, horizon=4, multiplicity=3, budget=15)


class TestWedgeTree:
    def test_base_level_unchanged(self):
        tree = appendix_tree_corpus(N)["depth_shifted"]
        wedged = wedge_tree(tree)
        for n in (1, 2, 4):
            assert extensionally_equal(wedged.set_at((n,)), tree.set_at((n,)), N, horizon=15)

    def test_two_branch_intersection(self):
        tree = appendix_tree_corpus(N)["max_shifted"]
        wedged = wedge_tree(tree)
        # at node (2,), factors are the covers at (1,) and (2,)
        for n in (1, 3):
            expect = [tree.set_at((1, n)), tree.set_at((2, n))]
            got = wedged.set_at((2, n))
            for i in range(12):
                p = N.point(i)
                assert member(got, p) == all(member(s, p) for s in expect)

    def test_refines_original(self):
        tree = appendix_tree_corpus(N)["max_shifted"]
        wedged = wedge_tree(tree)
        for path in [(2, 1), (3, 2), (2, 1, 2)]:
            for i in range(12):
                p = N.point(i)
                if member(wedged.set_at(path), p):
                    assert member(tree.set_at(path), p)

    def test_monotone_in_node_and_index(self):
        """Finer with larger nodes: tau <= sigma and m <= n imply the set at
        sigma+(m,) is contained in the set at tau+(n,)."""
        rng = random.Random(3)
        tree = appendix_tree_corpus(N)["max_shifted"]
        wedged = wedge_tree(tree)
        for _ in range(40):
            length = rng.randint(1, 3)
            tau = tuple(rng.randint(1, 3) for _ in range(length))
            sigma = tuple(t + rng.randint(0, 2) for t in tau)
            m = rng.randint(1, 3)
            n = m + rng.randint(0, 3)
            small = wedged.set_at(sigma + (m,))
            big = wedged.set_at(tau + (n,))
            for i in range(10):
                p = N.point(i)
                if member(small, p):
                    assert member(big, p)

    def test_on_normalized_strategy_trees_shallow(self):
        alice = strategy_corpus(N, n_random=0)["seg_tower"]
        tree = normalize_strategy(alice, N)
        wedged = wedge_tree(tree)
        rng = random.Random(11)
        for _ in range(25):
            tau = tuple(rng.randint(1, 3) for _ in range(2))
            sigma = tuple(t + rng.randint(0, 1) for t in tau)
            m = rng.randint(1, 3)
            n = m + rng.randint(0, 2)
            for i in range(8):
                p = N.point(i)
                if member(wedged.set_at(sigma + (m,)), p):
                    assert member(wedged.set_at(tau + (n,)), p)


    def test_hook_answers_past_the_box_limit(self):
        tree = appendix_tree_corpus(N)["uniform_segments"]
        wedged = wedge_tree(tree)  # the box below (150, 150) has 22,500 nodes, past the limit of 20,000
        assert witness_of(wedged.cover_at((150, 150)), N.point(3)) == 4

    def test_box_walk_past_the_limit_raises(self):
        tree = appendix_tree_corpus(N)["uniform_segments"]
        hookless = TreeStrategy(space=N, cover_at_raw=tree.cover_at)
        for walked in (hookless, strip_chosen_tree(tree)):
            wedged = wedge_tree(walked)
            assert member(wedged.set_at((2, 5, 1)), N.point(0))  # a box of 10 nodes
            with pytest.raises(ResourceLimitError):
                wedged.set_at((150, 150, 1))  # 22,500 nodes, counted before the walk


class TestGreedyTrace:
    def test_uniform_segment_tree_is_constant(self):
        tree = appendix_tree_corpus(N)["uniform_segments"]
        wedged = wedge_tree(tree)
        for pid in (0, 2, 4):
            f = greedy_index_function(wedged, N.point(pid))
            assert [f(n) for n in (1, 2, 3)] == [pid + 1] * 3

    def test_whole_tree_is_one(self):
        tree = appendix_tree_corpus(N)["whole_tree"]
        f = greedy_index_function(wedge_tree(tree), N.point(3))
        assert [f(n) for n in (1, 2, 4)] == [1, 1, 1]

    def test_prefix_overrides(self):
        tree = appendix_tree_corpus(N)["uniform_segments"]
        f = greedy_index_function(wedge_tree(tree), N.point(0), prefix=(5,))
        assert f(1) == 5

    def test_each_entry_is_minimal(self):
        tree = wedge_tree(appendix_tree_corpus(N)["depth_shifted"])
        p = N.point(4)
        f = greedy_index_function(tree, p)
        path = ()
        for n in range(1, 5):
            v = f(n)
            assert member(tree.set_at(path + (v,)), p)
            for m in range(1, v):
                assert not member(tree.set_at(path + (m,)), p)
            path = path + (v,)


class TestEvasionFunction:
    def test_dominates_sampled_traces_eventually(self):
        tree = wedge_tree(appendix_tree_corpus(N)["depth_shifted"])
        sample = N.points(4)
        g = evasion_function(tree, sample, node_budget=6)
        for x in sample:
            f = greedy_index_function(tree, x)
            assert all(f(n) <= g(n) for n in range(len(sample), 10))

    def test_single_point_uniform_tree(self):
        tree = wedge_tree(appendix_tree_corpus(N)["uniform_segments"])
        x = N.point(2)
        g = evasion_function(tree, [x], node_budget=1)
        assert g(1) == 3  # the only trace value at the root

    def test_whole_tree_evasion_is_one(self):
        tree = wedge_tree(appendix_tree_corpus(N)["whole_tree"])
        g = evasion_function(tree, N.points(3), node_budget=4)
        assert [g(n) for n in (1, 2, 5)] == [1, 1, 1]

    def test_diagonal_max_over_two_points(self):
        # on the depth-independent segment tree the trace of p_i is i+1
        # everywhere, so g is the running max over the sampled prefix
        tree = wedge_tree(appendix_tree_corpus(N)["uniform_segments"])
        g = evasion_function(tree, [N.point(1), N.point(3)], node_budget=1)
        assert g(1) == 2  # only the first sampled point enters at argument 1
        assert g(2) == 4 and g(3) == 4


class TestWedgeOfWholeTree:
    def test_constant_whole_tree_unchanged(self):
        tree = appendix_tree_corpus(N)["whole_tree"]
        wedged = wedge_tree(tree)
        for path in [(1,), (2, 1), (1, 3, 2)]:
            assert extensionally_equal(wedged.set_at(path), tree.set_at(path), N, horizon=10)


class TestStingProperty:
    def test_minimal_crossing_implies_membership(self):
        """If n is minimal with trace(x)(n) <= g(n), then x lies in the set
        at node (g(1), ..., g(n))."""
        rng = random.Random(23)
        for name in ("depth_shifted", "max_shifted", "uniform_segments"):
            wedged = wedge_tree(appendix_tree_corpus(N)[name])
            for _ in range(20):
                x = N.point(rng.randint(0, 5))
                g_vals = [rng.randint(1, 6) for _ in range(6)]
                g = BaireFunction(eval_raw=lambda n, v=tuple(g_vals): v[n - 1], description="test-g")
                f = greedy_index_function(wedged, x)
                crossing = next((n for n in range(1, 7) if f(n) <= g(n)), None)
                if crossing is None:
                    continue
                node = tuple(g(i) for i in range(1, crossing + 1))
                assert member(wedged.set_at(node), x)


class TestCounterplayLarge:
    def test_multiplicity_on_corpus(self):
        sample = N.points(5)
        for name, tree in appendix_tree_corpus(N).items():
            if name == "uniform_segments":
                continue  # depth-independent covers: evasion path products blow up
            result = counterplay_large(tree, sample, innings=12)
            assert result.report.min_multiplicity() >= 2, name
            assert check_legal(result.transcript, strategy_from_tree(tree)), name

    def test_whole_tree_covered_every_inning(self):
        result = counterplay_large(appendix_tree_corpus(N)["whole_tree"], N.points(3), innings=6)
        for innings in result.report.covering_innings.values():
            assert innings == tuple(range(1, 7))
        assert not result.stripped_play  # finite-subcover short-circuit

    def test_stripped_selections_are_distinct(self):
        result = counterplay_large(appendix_tree_corpus(N)["depth_shifted"], N.points(4), innings=10)
        assert result.stripped_play
        assert result.report.distinct_selections

    @pytest.mark.parametrize(
        "again, witness, message",
        [
            (20_000, 20_000, r"^no covering child within 10000 at node \(1,\)$"),
            (500, 1, r"^witness repair exhausted budget 200 in cover 'late' for p0@N at node \(1,\)$"),
        ],
    )
    def test_only_an_emptied_cover_falls_back_to_the_unstripped_tree(self, again, witness, message):
        """Point 0 lies in member 1 and then only from member `again` on, so
        at node (1,) the stripped trace runs past its scan budget (the
        cover's witness names member `again`) or the stripped cover's witness
        repair runs past its own (the witness names member 1). Either budget
        error propagates, naming the node; an unstripped replay would select
        member 1 at every inning."""

        def sets(j: int) -> OpenSet:
            if j == 1:
                return singleton(N, 0)
            return initial_segment(N, j) if j >= again else singleton(N, j)

        late = IndexedCover(space=N, sets=sets, witness=lambda p: p.id if p.id >= 2 else witness, label="late")
        with pytest.raises(BudgetError, match=message) as info:
            counterplay_large(const_tree(N, "late", lambda: late), [N.point(0)], innings=3)
        assert not isinstance(info.value, StripExhaustedError)

    def test_start_node_restriction(self):
        tree = appendix_tree_corpus(N)["depth_shifted"]
        restricted = subtree(tree, (2,))
        result = counterplay_large(restricted, N.points(3), innings=5)
        assert check_legal(result.transcript, strategy_from_tree(restricted))
