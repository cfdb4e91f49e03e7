"""Tests for the normalization pipeline, the tail-cover machinery, and the
counterplay. Derived expectations are computed by brute force (membership
scans over explicit enumerations), never by the code path under test."""

import gc
import itertools
import random
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from selectiongames import hurewicz
from selectiongames.corpus import bundled_instances, named_strategies, seeded_strategy, singleton_cover
from selectiongames.covers import CofiniteSpec, IndexedCover, is_cover_up_to, witness_of
from selectiongames.engine import (
    MENGER_GAME,
    ROTHBERGER_GAME,
    AliceStrategy,
    Transcript,
    check_legal,
    evaluate_win,
    make_inning,
    replay,
)
from selectiongames.errors import BudgetError, IntegrityError
from selectiongames.hurewicz import (
    Counterplay,
    CounterplayResult,
    ExclusionOracle,
    FiniteWinFound,
    bob_counterplay_menger,
    cofinite_intersection,
    least_admissible_child,
    level_family,
    normalize_strategy,
    tail_derived_cover,
)
from selectiongames.pairing import decode_tuple, encode_tuple, excluded_set_from_index, excluded_set_index
from selectiongames.solver import deterministic_strategy
from selectiongames.spaces import CountableDiscrete, FiniteIntersection, Named, describe, member
from selectiongames.trees import TreeStrategy, path_transcript

from helpers import (
    ReferenceCounterplay,
    extensionally_equal,
    protection_plan,
    reference_normalize_strategy,
    select_sfin,
)

N = CountableDiscrete()


def seg_tree():
    return normalize_strategy(named_strategies(N)["seg_tower"], N)


def random_paths(rng, count, length, width):
    return [tuple(rng.randint(1, width) for _ in range(rng.randint(1, length))) for _ in range(count)]


class TestNormalize:
    def test_head_condition_is_structural(self):
        tree = seg_tree()
        for path in [(1,), (3,), (2, 2), (4, 1, 3)]:
            assert describe(tree.set_at(path + (1,))) == describe(tree.set_at(path))

    def test_covers_increasing_extensionally(self):
        tree = seg_tree()
        for path in [(), (2,), (3, 1)]:
            cover = tree.cover_at(path)
            for j in range(1, 5):
                for i in range(12):
                    p = N.point(i)
                    assert not member(cover.sets(j), p) or member(cover.sets(j + 1), p)

    def test_chosen_set_is_union_of_backtranslated_selections(self):
        alice = named_strategies(N)["shifted_seg"]
        tree = normalize_strategy(alice, N)
        path = (3, 2, 4)
        # independent evaluation: replay the raw strategy over the back-map
        moves = tree.back_map(path)
        union_members = []
        for k, sel_indices in enumerate(moves):
            cover = alice.move(moves[:k])
            union_members.extend(cover.sets(i) for i in sel_indices)
        chosen = tree.set_at(path)
        for i in range(15):
            p = N.point(i)
            assert member(chosen, p) == any(member(s, p) for s in union_members)

    def test_backtranslated_play_is_legal(self):
        alice = named_strategies(N)["mixed_adversarial"]
        tree = normalize_strategy(alice, N)
        result = bob_counterplay_menger(tree, raw=alice, innings=5)
        assert check_legal(result.transcript, alice)

    def test_whole_head_short_circuits_at_inning_one(self):
        alice = named_strategies(N)["whole_head"]
        tree = normalize_strategy(alice, N, finite_win_horizon=10)
        with pytest.raises(FiniteWinFound) as exc:
            tree.cover_at((1,))
        assert exc.value.path == (1,)

    def test_normalized_input_reproduced_extensionally(self):
        # a strategy that is already increasing: the root cover is reproduced
        tree = seg_tree()
        from selectiongames.spaces import initial_segment

        for j in (1, 2, 5):
            assert extensionally_equal(tree.cover_at(()).sets(j), initial_segment(N, j - 1), N, horizon=20)


class TestLevelFamily:
    def test_level_one_is_root_cover(self):
        tree = seg_tree()
        fam = level_family(tree, 1)
        root = tree.cover_at(())
        for j in (1, 2, 4):
            assert describe(fam.sets(j)) == describe(root.sets(j))

    def test_level_two_members_match_tree_sets(self):
        tree = seg_tree()
        fam = level_family(tree, 2)
        for j in range(1, 12):
            node = decode_tuple(j, 2)
            assert describe(fam.sets(j)) == describe(tree.set_at(node))
            assert encode_tuple(node) == j

    def test_whole_tree_levels_are_whole(self):
        alice = named_strategies(N)["whole_head"]
        tree = normalize_strategy(alice, N)
        fam = level_family(tree, 2)
        from selectiongames.spaces import whole

        for j in (1, 3, 7):
            assert extensionally_equal(fam.sets(j), whole(N), N, horizon=10)


def brute_force_surviving_intersection(fam, excluded, scan, point):
    return all(member(fam.sets(j), point) for j in range(1, scan + 1) if j not in excluded)


class TestCofiniteIntersection:
    def test_level_one_minimum_surviving_member(self):
        tree = seg_tree()
        fam = level_family(tree, 1)
        out = cofinite_intersection(fam, CofiniteSpec(frozenset({1, 2})))
        from selectiongames.spaces import initial_segment

        assert extensionally_equal(out, initial_segment(N, 2), N, horizon=20)

    def test_empty_exclusion_is_first_member(self):
        tree = seg_tree()
        fam = level_family(tree, 1)
        out = cofinite_intersection(fam, CofiniteSpec(frozenset()))
        assert describe(out) == describe(fam.sets(1))

    def test_agrees_with_brute_force_on_levels_1_2_3(self):
        rng = random.Random(7)
        for name in ("seg_tower", "shifted_seg", "singletons"):
            tree = normalize_strategy(named_strategies(N)[name], N)
            for level in (1, 2, 3):
                fam = level_family(tree, level)
                for _ in range(6):
                    excluded = frozenset(rng.sample(range(1, 16), rng.randint(0, 3)))
                    sym = cofinite_intersection(fam, CofiniteSpec(excluded))
                    for i in range(0, 20, 3):
                        p = N.point(i)
                        assert member(sym, p) == brute_force_surviving_intersection(fam, excluded, 25, p)


def reference_cofinite_intersection(fam, spec):
    """The level recursion cofinite_intersection used to be: one nested
    FiniteIntersection per level, through a fresh lower-level spec."""
    if fam.level == 1:
        return fam.sets(spec.min_surviving())
    by_parent = {}
    for idx in spec.excluded:
        node = decode_tuple(idx, fam.level)
        by_parent.setdefault(node[:-1], set()).add(node[-1])
    named_parts = []
    excluded_parents = set()
    for parent, gone in sorted(by_parent.items()):
        m = 1
        while m in gone:
            m += 1
        if m > 1:
            named_parts.append(fam.tree.set_at(parent + (m,)))
            excluded_parents.add(encode_tuple(parent))
    lower = reference_cofinite_intersection(
        level_family(fam.tree, fam.level - 1), CofiniteSpec(frozenset(excluded_parents))
    )
    if not named_parts:
        return lower
    return FiniteIntersection(parts=(lower, *named_parts))


def unnested_parts(s):
    """The parts of a left-nested intersection, in evaluation order."""
    if isinstance(s, FiniteIntersection):
        return unnested_parts(s.parts[0]) + list(s.parts[1:])
    return [s]


def reference_cofinite_intersection_fresh(fam, spec):
    """The flat level walk before the family's table: it materializes its
    nodes during the walk and builds a fresh expression for every spec."""
    tree = fam.tree
    parts: list = []
    gone = spec.excluded  # at level 1, index j is the node (j,)
    if fam.level > 1:
        nodes = [decode_tuple(idx, fam.level) for idx in spec.excluded]
        for _ in range(fam.level - 1):
            by_parent: dict = {}
            for node in nodes:
                by_parent.setdefault(node[:-1], set()).add(node[-1])
            named: list = []
            nodes = []
            for parent, children_gone in sorted(by_parent.items()):
                m = _least_absent(children_gone)
                if m > 1:
                    named.append(tree.set_at(parent + (m,)))
                    nodes.append(parent)
            parts[:0] = named  # lower levels go first
        gone = {node[0] for node in nodes}
    base = tree.set_at((_least_absent(gone),))
    if not parts:
        return base
    return FiniteIntersection(parts=(base, *parts))


def _least_absent(gone):
    m = 1
    while m in gone:
        m += 1
    return m


def reference_walk_key(fam, spec):
    """The key the level walk built before it read each parent's child 1
    directly, kept verbatim: the least absent child of every parent, and a
    separate least-absent search for the base."""
    paths = []
    gone = spec.excluded  # at level 1, index j is the node (j,)
    if fam.level > 1:
        nodes = [decode_tuple(idx, fam.level) for idx in spec.excluded]
        for _ in range(fam.level - 1):
            by_parent = {}
            for node in nodes:
                by_parent.setdefault(node[:-1], set()).add(node[-1])
            named = []
            nodes = []
            for parent, children_gone in sorted(by_parent.items()):
                m = _least_absent(children_gone)
                if m > 1:
                    named.append(parent + (m,))
                    nodes.append(parent)
            paths[:0] = named  # lower levels go first
        gone = {node[0] for node in nodes}
    return ((_least_absent(gone),), *paths)


def reference_walk_key_by_sets(fam, spec):
    """The key the level walk built before it read sibling runs off sorted
    nodes, kept verbatim: a set of nodes per level, and each parent's least
    absent child searched by set membership."""
    if fam.level == 1 or not spec.excluded:
        key = ((spec.min_surviving(),),)
    else:
        paths = []
        nodes = {decode_tuple(idx, fam.level) for idx in spec.excluded}
        for _ in range(fam.level):
            if not nodes:
                break
            named = []
            for parent in sorted({node[:-1] for node in nodes if node[-1] == 1}):
                m = 2
                while parent + (m,) in nodes:
                    m += 1
                named.append(parent + (m,))
            paths[:0] = named  # lower levels go first
            nodes = {path[:-1] for path in named}
        key = tuple(paths) if nodes else ((1,), *paths)
    return key


def reference_walk_key_by_runs(fam, spec):
    """The key the level walk built before it read each level in one pass,
    kept verbatim: the indices decoded through a sorted generator, each
    level's runs read by `enumerate`, and the next level's nodes rebuilt by
    slicing the named paths."""
    if fam.level == 1 or not spec.excluded:
        key = ((spec.min_surviving(),),)
    else:
        paths = []
        nodes = sorted(decode_tuple(idx, fam.level) for idx in spec.excluded)
        for _ in range(fam.level):
            if not nodes:
                break
            named = []
            for i, node in enumerate(nodes):
                if node[-1] == 1:
                    parent, m = node[:-1], 2
                    while i + 1 < len(nodes) and nodes[i + 1] == parent + (m,):
                        i, m = i + 1, m + 1
                    named.append(parent + (m,))
            paths[:0] = named  # lower levels go first
            nodes = [path[:-1] for path in named]
        key = tuple(paths) if nodes else ((1,), *paths)
    return key


def reference_cofinite_intersection_by_runs(fam, spec):
    """`cofinite_intersection` as it was with the run walk above: the same
    table and the same materialization order."""
    key = reference_walk_key_by_runs(fam, spec)
    hit = fam._intersections.get(key)
    if hit is None:
        # a stable sort by decreasing length is the walk's order, base last
        sets = {path: fam.tree.set_at(path) for path in sorted(key, key=len, reverse=True)}
        parts = tuple(sets[path] for path in key)
        hit = fam._intersections[key] = parts[0] if len(parts) == 1 else FiniteIntersection(parts=parts)
    return hit


def same_expression(a, b):
    """The same node sets in the same order: one node's set, or flat
    intersections of identical parts."""
    if isinstance(a, FiniteIntersection):
        return type(b) is FiniteIntersection and len(a.parts) == len(b.parts) and all(
            x is y for x, y in zip(a.parts, b.parts)
        )
    return a is b


GRID_SPECS = [frozenset(c) for k in range(4) for c in itertools.combinations(range(1, 26), k)]


def walk_trees():
    """seg_tower and shifted_seg on the countable model, and a bundled finite instance."""
    inst = bundled_instances()["valley_game"]
    named = [normalize_strategy(named_strategies(N)[name], N) for name in ("seg_tower", "shifted_seg")]
    return named + [normalize_strategy(deterministic_strategy(inst), inst.space)]


def test_one_pass_walk_matches_the_run_walk_on_the_grid():
    """Every grid spec at levels 1-4: the same key, and the same expression
    as the run walk builds in a family of its own."""
    assert len(GRID_SPECS) == 2626
    for tree in walk_trees():
        for level in (1, 2, 3, 4):
            fam, ref_fam = level_family(tree, level), level_family(tree, level)
            for excluded in GRID_SPECS:
                spec = CofiniteSpec(excluded)
                got = cofinite_intersection(fam, spec)
                assert fam._intersections[reference_walk_key_by_runs(fam, spec)] is got
                assert same_expression(got, reference_cofinite_intersection_by_runs(ref_fam, spec))
            assert set(fam._intersections) == set(ref_fam._intersections)


def check_walk(fam, spec, by_key):
    """The walk's expression is describe-equal to the fresh walk's, is filed
    under the key of both reference walks, and is the one object of every
    spec with that key."""
    got = cofinite_intersection(fam, spec)
    key = reference_walk_key(fam, spec)
    assert reference_walk_key_by_sets(fam, spec) == key
    assert reference_walk_key_by_runs(fam, spec) == key
    assert fam._intersections[key] is got
    assert by_key.setdefault(key, got) is got
    assert describe(got) == describe(reference_cofinite_intersection_fresh(fam, spec))


def test_level_walk_matches_the_reference_on_small_specs():
    specs = [frozenset(c) for k in range(4) for c in itertools.combinations(range(1, 13), k)]
    for name in ("seg_tower", "shifted_seg"):
        tree = normalize_strategy(named_strategies(N)[name], N)
        for level in (1, 2, 3, 4):
            fam = level_family(tree, level)
            by_key = {}
            for excluded in specs:
                check_walk(fam, CofiniteSpec(excluded), by_key)
            # distinct keys are distinct expressions, and nothing else is filed
            assert len({id(x) for x in by_key.values()}) == len(by_key)
            assert set(fam._intersections) == set(by_key)


@settings(max_examples=40, deadline=None)
@given(
    level=st.integers(min_value=1, max_value=4),
    specs=st.lists(
        st.frozensets(st.one_of(st.integers(1, 12), st.integers(1, 10**6)), max_size=5), min_size=1, max_size=4
    ),
)
@example(level=4, specs=[frozenset({1, 2, 10**6, 999_999}), frozenset({1, 10**6})])
def test_level_walk_matches_the_reference_on_drawn_specs(level, specs):
    fam = level_family(seg_tree(), level)
    by_key = {}
    for excluded in specs + specs:
        check_walk(fam, CofiniteSpec(excluded), by_key)
    assert len({id(x) for x in by_key.values()}) == len(by_key)
    assert set(fam._intersections) == set(by_key)


@st.composite
def run_heavy_specs(draw):
    """A level from 2 to 5 and excluded nodes in sibling runs: every child
    1..k of a parent, some with gaps, and all-ones chains up to the root."""
    level = draw(st.integers(min_value=2, max_value=5))
    entries = st.integers(min_value=1, max_value=3)
    nodes = set()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        parent = tuple(draw(st.lists(entries, min_size=level - 1, max_size=level - 1)))
        k = draw(st.integers(min_value=1, max_value=9))
        gaps = draw(st.sets(st.integers(min_value=2, max_value=k + 1), max_size=2))
        nodes |= {parent + (c,) for c in range(1, k + 1) if c not in gaps}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        head = tuple(draw(st.lists(entries, max_size=level - 1)))
        nodes.add(head + (1,) * (level - len(head)))
    return level, frozenset(encode_tuple(node) for node in nodes)


@settings(max_examples=60, deadline=None)
@given(drawn=st.lists(run_heavy_specs(), min_size=1, max_size=3))
@example(drawn=[(3, frozenset(encode_tuple((2, 1, c)) for c in range(1, 8)))])
@example(drawn=[(4, frozenset(encode_tuple((1, 3, 1, c)) for c in (1, 2, 3, 5, 6)))])
@example(drawn=[(5, frozenset(encode_tuple(node) for node in [(1,) * 5, (1, 1, 1, 1, 2), (1, 2, 1, 1, 1)]))])
def test_level_walk_matches_both_references_on_sibling_runs(drawn):
    tree = seg_tree()
    families = {}
    for level, excluded in drawn + drawn:
        fam, by_key = families.setdefault(level, (level_family(tree, level), {}))
        check_walk(fam, CofiniteSpec(excluded), by_key)


def small_specs():
    specs = [frozenset(c) for k in range(4) for c in itertools.combinations(range(1, 9), k)]
    return specs + [frozenset({1, 5, 13}), frozenset({2, 3, 4}), frozenset({7, 20, 26})]


def test_flat_cofinite_intersection_matches_the_level_recursion():
    """The shared flat intersection against both references: the nested level
    recursion and the flat walk that built a fresh expression per spec."""
    inst = bundled_instances()["valley_game"]
    trees = [(seg_tree(), N.points(50)), (normalize_strategy(named_strategies(N)["shifted_seg"], N), N.points(50))]
    trees.append((normalize_strategy(deterministic_strategy(inst), inst.space), inst.space.all_points()))
    for tree, pts in trees:
        for level in (1, 2, 3):
            fam = level_family(tree, level)
            for excluded in small_specs():
                flat = cofinite_intersection(fam, CofiniteSpec(excluded))
                nested = reference_cofinite_intersection(fam, CofiniteSpec(excluded))
                fresh = reference_cofinite_intersection_fresh(fam, CofiniteSpec(excluded))
                # the same tree nodes in the same order, so the same short circuits
                assert [id(x) for x in unnested_parts(flat)] == [id(x) for x in unnested_parts(nested)]
                assert [id(x) for x in unnested_parts(flat)] == [id(x) for x in unnested_parts(fresh)]
                assert type(flat) is type(fresh)
                assert all(not isinstance(part, FiniteIntersection) for part in getattr(flat, "parts", ()))
                assert describe(flat) == describe(fresh)
                for p in pts:
                    assert member(flat, p) == member(nested, p) == member(fresh, p)
            assert len(fam._intersections) < len(small_specs())  # specs that reduce alike share


def test_equal_reductions_share_one_expression():
    fam = level_family(seg_tree(), 2)
    # {1} excludes node (1, 1), and {1, 5} also (2, 2), whose parent keeps
    # child 1: both reduce to base (2,) and part (1, 2); {1, 3} also
    # excludes (1, 2), so its part is (1, 3)
    one = cofinite_intersection(fam, CofiniteSpec(frozenset({1})))
    assert cofinite_intersection(fam, CofiniteSpec(frozenset({1, 5}))) is one
    assert cofinite_intersection(fam, CofiniteSpec(frozenset({1}))) is one
    other = cofinite_intersection(fam, CofiniteSpec(frozenset({1, 3})))
    assert other is not one
    assert describe(other) != describe(one)
    # the same reduction in another family of the same tree is its own expression
    again = level_family(fam.tree, 2)
    assert cofinite_intersection(again, CofiniteSpec(frozenset({1}))) is not one


def test_intersection_table_is_freed_with_its_family():
    tree = seg_tree()
    fam = level_family(tree, 2)
    specs = [CofiniteSpec(frozenset({1})), CofiniteSpec(frozenset({1, 5}))]
    out = cofinite_intersection(fam, specs[0])
    assert isinstance(out, FiniteIntersection)
    ref = weakref.ref(out)
    member(out, N.point(3))
    del out
    gc.collect()
    assert ref() is not None  # the family's table holds it
    assert cofinite_intersection(fam, specs[1]) is ref()
    del fam, tree, specs
    gc.collect()
    assert ref() is None


def raising_tree():
    """A tree whose every non-root cover raises an error naming its node, so
    the first node materialized decides the error."""
    inner = seg_tree()

    def cover_at(path):
        if path:
            raise FiniteWinFound(path)
        return inner.cover_at(path)

    return TreeStrategy(space=N, cover_at_raw=cover_at, label="raising")


def test_materialization_errors_match_the_fresh_walk():
    raised = 0
    for level in (1, 2, 3):
        fam = level_family(raising_tree(), level)
        ref_fam = level_family(raising_tree(), level)
        for excluded in small_specs():
            spec = CofiniteSpec(excluded)
            try:
                expect = ("ok", describe(reference_cofinite_intersection_fresh(ref_fam, spec)))
            except FiniteWinFound as exc:
                expect = ("raise", exc.path)
            for _ in range(2):  # a raise leaves nothing in the table
                try:
                    got = ("ok", describe(cofinite_intersection(fam, spec)))
                except FiniteWinFound as exc:
                    got = ("raise", exc.path)
                assert got == expect, (level, sorted(excluded))
            raised += expect[0] == "raise"
    assert raised > 100
    # a level-3 spec with parts at levels 2 and 3 raises at the deeper node first
    fam = level_family(raising_tree(), 3)
    with pytest.raises(FiniteWinFound) as exc:
        cofinite_intersection(fam, CofiniteSpec(frozenset({1, 2, 4})))
    assert len(exc.value.path) == 2


class TestTailDerivedCover:
    def test_level_one_from_segments_reproduces_the_cover(self):
        tree = seg_tree()
        derived = tail_derived_cover(level_family(tree, 1))
        # index 1 excludes nothing: the first member; exclusions of {1..k}
        # yield later members, so the derived cover is the root cover again
        root = tree.cover_at(())
        for excluded, expect_member in [(frozenset(), 1), (frozenset({1}), 2), (frozenset({1, 2}), 3)]:
            from selectiongames.pairing import excluded_set_index

            j = excluded_set_index(excluded)
            assert extensionally_equal(derived.sets(j), root.sets(expect_member), N, horizon=20)

    def test_is_cover_and_witness_verified(self):
        for name in ("seg_tower", "singletons"):
            tree = normalize_strategy(named_strategies(N)[name], N)
            for level in (1, 2):
                derived = tail_derived_cover(level_family(tree, level))
                assert is_cover_up_to(derived, 12)

    def test_an_exclusion_budget_names_the_level_the_limit_and_the_point(self, monkeypatch):
        monkeypatch.setattr(hurewicz, "EXCLUSION_NODE_LIMIT", 10)
        derived = tail_derived_cover(level_family(seg_tree(), 3))
        with pytest.raises(BudgetError, match=r"^exclusion set of p2@N at level 3 exceeds 10 nodes$"):
            is_cover_up_to(derived, 16)

    def test_an_exclusion_set_of_exactly_the_limit_materializes(self, monkeypatch):
        """The budget counts p3's omitting nodes at every level up to 3:
        exactly that many materialize, and one fewer raises."""
        nodes = sum(len(list(ExclusionOracle(seg_tree(), level, N.point(3)).excluded_nodes())) for level in (1, 2, 3))
        monkeypatch.setattr(hurewicz, "EXCLUSION_NODE_LIMIT", nodes)
        assert ExclusionOracle(seg_tree(), 3, N.point(3)).materialize().excluded
        monkeypatch.setattr(hurewicz, "EXCLUSION_NODE_LIMIT", nodes - 1)
        with pytest.raises(BudgetError, match=rf"^exclusion set of p3@N at level 3 exceeds {nodes - 1} nodes$"):
            ExclusionOracle(seg_tree(), 3, N.point(3)).materialize()

    def test_witness_spec_is_the_omitting_set(self):
        tree = seg_tree()
        fam = level_family(tree, 2)
        derived = tail_derived_cover(fam)
        p = N.point(5)
        j = witness_of(derived, p)
        excluded = excluded_set_from_index(j)
        # brute check: exactly the level-2 nodes whose set omits the point
        for idx in range(1, 60):
            omits = not member(fam.sets(idx), p)
            assert (idx in excluded) == omits


def reference_tail_derived_cover(fam, node_limit=500_000):
    """The tail cover before its witness handed its nodes on, kept verbatim:
    every member decodes its index."""

    def sets(j):
        return cofinite_intersection(fam, CofiniteSpec(excluded_set_from_index(j)))

    def witness(p):
        oracle = ExclusionOracle(fam.tree, fam.level, p)
        with mock.patch.object(hurewicz, "EXCLUSION_NODE_LIMIT", node_limit):
            spec = oracle.materialize()
        return excluded_set_index(spec.excluded)

    return IndexedCover(space=fam.tree.space, sets=sets, witness=witness, label=f"tail(level={fam.level})")


def decoded_member(fam, j):
    return cofinite_intersection(fam, CofiniteSpec(excluded_set_from_index(j)))


def test_handed_off_members_are_the_decoded_members():
    """At levels 1-3, the member at each witness index, keyed from the
    witness's nodes, is the object the decode route files under that index,
    and the decode route in a family of its own builds the same expression
    at the same index."""
    horizon = {1: 30, 2: 16, 3: 10}
    for tree in walk_trees():
        for level in (1, 2, 3):
            fam, ref_fam = level_family(tree, level), level_family(tree, level)
            cover, ref = tail_derived_cover(fam), reference_tail_derived_cover(ref_fam)
            points = tree.space.all_points() if tree.space.is_finite else tree.space.points(horizon[level])
            for p in points:
                j = witness_of(cover, p)
                assert cover.sets(j) is decoded_member(fam, j)
                assert witness_of(ref, p) == j
                assert same_expression(cover.sets(j), ref.sets(j))
            assert set(fam._intersections) == set(ref_fam._intersections)


def test_a_handoff_is_read_only_at_its_own_index():
    """Two witnesses, then the first one's member: the pending nodes belong
    to the second index, so the first member is decoded."""
    fam = level_family(seg_tree(), 2)
    cover = tail_derived_cover(fam)
    j1, j2 = cover.witness(N.point(3)), cover.witness(N.point(6))
    want1, want2 = decoded_member(level_family(fam.tree, 2), j1), decoded_member(level_family(fam.tree, 2), j2)
    assert not same_expression(want1, want2)
    got1 = cover.sets(j1)
    assert got1 is decoded_member(fam, j1)
    assert same_expression(got1, want1)
    assert same_expression(cover.sets(j2), want2)
    assert member(got1, N.point(3))


def test_level_one_and_empty_handoffs_take_the_least_surviving_index(monkeypatch):
    """A handed-off spec at level 1, or with nothing excluded, is keyed by
    its least surviving index, as a decoded one is, not by a node walk."""
    calls = []
    least = CofiniteSpec.min_surviving
    monkeypatch.setattr(CofiniteSpec, "min_surviving", lambda spec: calls.append(spec) or least(spec))
    tree = seg_tree()
    for level, p in [(1, N.point(0)), (1, N.point(7)), (2, N.point(0)), (3, N.point(0))]:
        cover = tail_derived_cover(level_family(tree, level))
        j = cover.witness(p)
        if level > 1:
            assert j == 1  # point 0 lies in every node set: nothing is excluded
        calls.clear()
        assert member(cover.sets(j), p)
        assert calls == [CofiniteSpec(excluded_set_from_index(j))]


class TestExclusionOracle:
    def test_matches_direct_membership(self):
        tree = seg_tree()
        oracle = ExclusionOracle(tree, 2, N.point(4))
        for a in range(1, 7):
            for b in range(1, 7):
                assert oracle.omits((a, b)) == (not member(tree.set_at((a, b)), N.point(4)))

    def test_excluded_nodes_come_sorted(self):
        for key in THRESHOLD_KEYS:
            tree = normalized_pair(key)[0]
            points = tree.space.all_points() if tree.space.is_finite else tree.space.points(8)
            for level in (1, 2, 3):
                for p in points:
                    oracle = ExclusionOracle(tree, level, p)
                    nodes = list(oracle.excluded_nodes())
                    assert nodes == sorted(nodes)
                    oracle.materialize()
                    assert oracle.nodes == nodes

    def test_materialized_nodes_are_exactly_the_omitting_ones(self):
        tree = seg_tree()
        p = N.point(3)
        oracle = ExclusionOracle(tree, 2, p)
        nodes = set(oracle.excluded_nodes())
        for a in range(1, 8):
            for b in range(1, 8):
                assert ((a, b) in nodes) == (not member(tree.set_at((a, b)), p))


class ReferenceExclusionOracle(ExclusionOracle):
    """The oracle with the threshold scan it used to run, kept verbatim: the
    node's child sets built one at a time and tested with `member`, up to the
    verified witness. It keeps its thresholds, to compare them node by node."""

    def __init__(self, tree, level, point):
        super().__init__(tree, level, point)
        self._threshold = {}

    def _omitting_children_below(self, path):
        hit = self._threshold.get(path)
        if hit is not None:
            return hit
        cover = self.tree.cover_at(path)
        w = witness_of(cover, self.point)
        m = 1
        while m < w and not member(self.tree.set_at(path + (m,)), self.point):
            m += 1
        self._threshold[path] = m - 1
        return m - 1


THRESHOLD_KEYS = [*named_strategies(N), *("finite:" + name for name in bundled_instances())]


def normalized_pair(key):
    """Two independent normalized trees of one strategy over one space."""
    if key.startswith("finite:"):
        inst = bundled_instances()[key[7:]]
        return [normalize_strategy(deterministic_strategy(inst), inst.space) for _ in range(2)]
    return [normalize_strategy(named_strategies(N)[key], N) for _ in range(2)]


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(THRESHOLD_KEYS), level=st.integers(1, 3), i=st.integers(0, 20))
@example(key="singletons", level=3, i=20)
@example(key="mixed_adversarial", level=3, i=20)
@example(key="finite:chain_game", level=3, i=2)
def test_thresholds_match_the_member_scan(key, level, i):
    tree, ref_tree = normalized_pair(key)
    points = tree.space.all_points() if tree.space.is_finite else tree.space.points(21)
    p = points[i % len(points)]
    oracle, ref = ExclusionOracle(tree, level, p), ReferenceExclusionOracle(ref_tree, level, p)
    assert list(oracle.excluded_nodes()) == list(ref.excluded_nodes())
    assert {path: oracle._omitting_children_below(path) for path in ref._threshold} == ref._threshold


def test_a_broken_node_witness_is_named_in_the_verdict():
    """A node cover whose witness names a member missing the point breaks the
    tail cover's witness while it materializes; the verdict quotes that
    node cover's error, not only the tail cover's."""
    inner = seg_tree()
    root = inner.cover_at(())
    broken = IndexedCover(space=N, sets=root.sets, witness=lambda p: 1, increasing=True, label="broken-root")
    tree = TreeStrategy(space=N, cover_at_raw=lambda path: inner.cover_at(path) if path else broken)
    verdict = is_cover_up_to(tail_derived_cover(level_family(tree, 2)), 10)
    assert not verdict
    assert verdict.failing_point == N.point(1)
    assert verdict.reason.startswith("witness failed membership: ")
    assert "witness index 1 of cover 'broken-root' does not contain" in verdict.reason


class TestCounterplay:
    def test_wins_on_grid_for_named_strategies(self):
        for name, alice in named_strategies(N).items():
            tree = normalize_strategy(alice, N, finite_win_horizon=10)
            result = bob_counterplay_menger(tree, raw=alice, innings=10)
            assert evaluate_win(result.transcript, 10).bob_wins, name
            assert check_legal(result.transcript, alice), name

    def test_whole_head_wins_at_inning_one(self):
        alice = named_strategies(N)["whole_head"]
        tree = normalize_strategy(alice, N, finite_win_horizon=8)
        result = bob_counterplay_menger(tree, raw=alice, innings=8)
        assert result.finite_win
        assert result.transcript.truncated_at == 1
        assert evaluate_win(result.transcript, 8).bob_wins

    def test_adversarial_seeded_strategies_win(self):
        for k in (0, 1, 2):
            alice = seeded_strategy(N, k)
            tree = normalize_strategy(alice, N, finite_win_horizon=6)
            result = bob_counterplay_menger(tree, raw=alice, innings=6)
            assert evaluate_win(result.transcript, 6).bob_wins
            assert check_legal(result.transcript, alice)

    def test_matches_literal_selector_route_at_small_levels(self):
        """The fast per-inning exclusion probe equals the literal pipeline:
        apply the finite selector to the tail-derived covers, combine the
        selected cofinite subfamilies, and pick the least child inside them."""
        alice = named_strategies(N)["seg_tower"]
        tree = normalize_strategy(alice, N)
        result = bob_counterplay_menger(tree, raw=alice, innings=3)

        covers = {n: tail_derived_cover(level_family(tree, n)) for n in (1, 2, 3)}
        selections = []
        gen = select_sfin(N, lambda n: covers[n])
        for n in (1, 2, 3):
            selections.append(next(gen))

        path = ()
        for n in (1, 2, 3):
            protected_excluded = set()
            for idx in selections[n - 1].indices:
                protected_excluded |= excluded_set_from_index(idx)
            m = 1
            while encode_tuple(path + (m,)) in protected_excluded:
                m += 1
            path = path + (m,)
        assert path == result.tree_path

    def test_selection_contains_all_protected_points(self):
        alice = named_strategies(N)["shifted_seg"]
        tree = normalize_strategy(alice, N)
        result = bob_counterplay_menger(tree, raw=alice, innings=6)
        path = result.tree_path
        for n in range(1, 7):
            chosen = tree.set_at(path[:n])
            for i in range(n):
                assert member(chosen, N.point(i))


def _emit_counterplay_transcript(tree, raw, path, moves, plan):
    """The transcript emission `bob_counterplay_menger` used before the
    resumable `Counterplay` driver, kept verbatim as the reference."""
    label = f"counterplay({tree.label})"
    if raw is not None and tree.back_map is not None:
        back = tree.back_map(path)
        records = []
        for n, (cover, indices, (chosen, skipped)) in enumerate(zip(replay(raw, back), back, moves), start=1):
            audit = {
                "tree_choice": chosen,
                "excluded_children_probed": list(skipped),
                "protected_points": len(plan(n)),
            }
            records.append(make_inning(MENGER_GAME, n, cover, indices, audit=audit))
        return Transcript(game=MENGER_GAME, innings=tuple(records), label=label)
    audits = [
        {"excluded_children_probed": list(skipped), "protected_points": len(plan(n))}
        for n, (_, skipped) in enumerate(moves, start=1)
    ]
    return path_transcript(tree, path, ROTHBERGER_GAME, audits, label)


def reference_drive(tree, raw, innings, plan, probe_limit, game, forced_path):
    """The probe search the max-of-first-hits move replaced, kept verbatim as
    the reference it must match (paths, audits, finite wins, budget errors)."""
    if innings < 1:
        raise ValueError("a play needs at least one inning")
    path = ()
    moves = []  # (chosen child, skipped children)
    for n in range(1, innings + 1):
        if forced_path is not None:
            chosen, skipped = forced_path[n - 1], []
        else:
            protected = plan(n)
            oracles = [ExclusionOracle(tree, len(path) + 1, p) for p in protected]
            chosen = None
            skipped = []
            for m in range(1, probe_limit + 1):
                child = path + (m,)
                if any(o.omits(child) for o in oracles):
                    skipped.append(m)
                    continue
                chosen = m
                break
            if chosen is None:
                raise BudgetError(f"no admissible child within {probe_limit} probes at inning {n}")
        moves.append((chosen, skipped))
        path = path + (chosen,)
    transcript = _emit_counterplay_transcript(tree, raw, path, moves, plan)
    return CounterplayResult(tree_path=path, transcript=transcript, finite_win=forced_path is not None)


def reference_menger(tree, raw, innings, probe_limit):
    plan = protection_plan(tree.space)
    try:
        return reference_drive(tree, raw, innings, plan, probe_limit, MENGER_GAME, None)
    except FiniteWinFound as fw:
        return reference_drive(tree, raw, len(fw.path), plan, probe_limit, MENGER_GAME, fw.path)


def play_outcome(play, key, horizon, innings, probe_limit, with_raw):
    """A play on a fresh strategy and tree, reduced to what its transcript
    carries, or the budget error's message."""
    alice = corpus_strategy(key)
    tree = normalize_strategy(alice, alice.space, finite_win_horizon=horizon)
    try:
        result = play(tree, alice if with_raw else None, innings, probe_limit)
    except BudgetError as exc:
        return str(exc)
    records = [(r.number, r.cover_prefix, r.selection, r.audit) for r in result.transcript.innings]
    return result.tree_path, result.finite_win, records


def current_menger(tree, raw, innings, probe_limit):
    with mock.patch.object(hurewicz, "Counterplay", lambda tree: Counterplay(tree, probe_limit)):
        return bob_counterplay_menger(tree, raw=raw, innings=innings)


def corpus_strategy(key):
    if isinstance(key, int):
        return seeded_strategy(N, key)
    if key.startswith("finite:"):
        return deterministic_strategy(bundled_instances()[key[7:]])
    return named_strategies(N)[key]


STRATEGY_KEYS = [
    *named_strategies(N),
    "finite:three_point_singletons",
    "finite:chain_game",
    "finite:valley_game",
]


class TestLeastAdmissibleChild:
    @settings(max_examples=60, deadline=None)
    @given(
        key=st.one_of(st.sampled_from(STRATEGY_KEYS), st.integers(min_value=0, max_value=40)),
        horizon=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
        innings=st.integers(min_value=1, max_value=12),
        with_raw=st.booleans(),
    )
    def test_matches_the_probe_search(self, key, horizon, innings, with_raw):
        args = (key, horizon, innings)
        want = play_outcome(reference_menger, *args, 10_000, with_raw)
        assert play_outcome(current_menger, *args, 10_000, with_raw) == want
        top = max(want[0])
        for limit in (top, top - 1):
            got = play_outcome(current_menger, *args, limit, with_raw)
            assert got == play_outcome(reference_menger, *args, limit, with_raw)
            assert isinstance(got, str) == (limit < top)

    def test_counterplay_path_satisfies_the_precondition(self):
        corpus = {**named_strategies(N), **{k: seeded_strategy(N, k) for k in (0, 1, 2)}}
        for name, alice in corpus.items():
            tree = normalize_strategy(alice, N)
            path = bob_counterplay_menger(tree, innings=10).tree_path
            for depth in range(len(path)):
                node = path[:depth]
                cover = tree.cover_at(node)
                assert cover.increasing, (name, node)
                if node:
                    assert describe(cover.sets(1)) == describe(tree.set_at(node)), (name, node)

    def test_non_increasing_cover_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            least_admissible_child(singleton_cover(N), [N.point(0)], 10)

    def test_max_of_first_hits(self):
        cover = seg_tree().cover_at(())  # member j is the segment {0..j-1}
        assert least_admissible_child(cover, [N.point(3), N.point(1)], 100) == 4
        assert least_admissible_child(cover, [], 100) == 1
        assert least_admissible_child(cover, [N.point(5)], 5) > 5

    def test_broken_head_condition_raises_instead_of_playing(self):
        """Every cover is increasing, but below the root member 1 is {1}, not
        the node's set: the chosen child drops point 0."""

        def cover_at(path):
            lo = 1 if path else 0
            return IndexedCover(
                space=N,
                sets=lambda j: Named(N, f"[{lo},{lo + j})", lambda p: lo <= p.id < lo + j),
                witness=lambda p: p.id + 1,
                increasing=True,
                label=f"from{lo}",
            )

        tree = TreeStrategy(space=N, cover_at_raw=cover_at, label="broken-head")
        with pytest.raises(IntegrityError, match=r"child 1 of node \(1,\) omits protected point .*0"):
            bob_counterplay_menger(tree, innings=3)


# the named and three seeded strategies on N, and a 3-point line whose
# horizons below run past its space
RESUME_KEYS = [*named_strategies(N), 0, 1, 2, "finite:chain_game"]


def logged_strategy(key):
    """A fresh corpus strategy, and the list of move sequences it is asked,
    in the order they are asked."""
    alice = corpus_strategy(key)
    asked = []

    def move(moves):
        asked.append(moves)
        return alice.move(moves)

    return AliceStrategy(space=alice.space, move=move, name=alice.name), asked


def paired_plays(key, horizon, innings):
    """The counterplay and the reference counterplay, each on its own
    normalized tree of a fresh strategy, played for `innings` innings, with
    the move sequences each strategy was asked."""
    plays = []
    for normalize, play in ((normalize_strategy, Counterplay), (reference_normalize_strategy, ReferenceCounterplay)):
        alice, asked = logged_strategy(key)
        counterplay = play(normalize(alice, alice.space, finite_win_horizon=horizon))
        counterplay.extend(innings)
        plays.append((counterplay, asked))
    return plays


class TestNodesResumeFromTheirParents:
    """Nodes built from their parent's moves and finite-win count, and
    protected points grown by one per inning, against the normalization and
    counterplay that built both from the root."""

    @pytest.mark.parametrize("horizon", [None, 10])
    @pytest.mark.parametrize("key", RESUME_KEYS)
    def test_nodes_back_maps_covers_and_audits_match_the_reference(self, key, horizon):
        (new, new_asked), (ref, ref_asked) = paired_plays(key, horizon, 10)
        assert (new.path, new.finite_win) == (ref.path, ref.finite_win)
        assert new_asked == ref_asked  # the same moves asked in the same order
        assert new.tree._cover_memo.keys() == ref.tree._cover_memo.keys()
        rng = random.Random(str(key))
        nodes = [*ref.tree._cover_memo, *random_paths(rng, 40, 8, 6)]
        nodes += [new.path[:k] + (rng.randint(1, 6),) for k in range(len(new.path))]
        for node in nodes:
            assert new.tree.back_map(node) == ref.tree.back_map(node), node
        for depth in range(len(new.path)):
            node = new.path[:depth]
            new_cover, ref_cover = new.tree.cover_at(node), ref.tree.cover_at(node)
            for j in range(1, 5):
                assert describe(new_cover.sets(j)) == describe(ref_cover.sets(j)), (node, j)
        for n in range(1, len(new.path) + 1):
            assert new.audit(n) == ref.audit(n), n

    @pytest.mark.parametrize("key", RESUME_KEYS)
    def test_finite_wins_match_the_reference_at_horizons_1_to_40(self, key):
        for horizon in range(1, 41):
            # inning h + 1 materializes a node whose set holds the first h points
            (new, new_asked), (ref, ref_asked) = paired_plays(key, horizon, horizon + 1)
            assert (new.path, new.finite_win, new_asked) == (ref.path, ref.finite_win, ref_asked), horizon
            assert ref.finite_win, horizon
            for n in range(1, len(new.path) + 1):
                assert new.audit(n) == ref.audit(n), (horizon, n)

    def test_a_raising_strategy_raises_at_the_same_node(self):
        """A strategy that raises when asked for a depth-3 move raises while
        the same node materializes: its own move is asked before any parent
        is read."""
        outcomes = []
        for normalize in (normalize_strategy, reference_normalize_strategy):
            alice, asked = logged_strategy("shifted_seg")

            def move(moves, inner=alice.move):
                if len(moves) == 3:
                    raise RuntimeError(f"refused {moves}")
                return inner(moves)

            tree = normalize(AliceStrategy(space=N, move=move, name="refusing"), N, finite_win_horizon=20)
            with pytest.raises(RuntimeError) as exc:
                tree.cover_at((2, 3, 1))
            outcomes.append((str(exc.value), asked, list(tree._cover_memo)))
        assert outcomes[0] == outcomes[1] == ("refused ((1, 2), (1, 2), (1,))", [], [])
