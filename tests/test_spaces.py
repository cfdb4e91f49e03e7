import gc
import sys
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

import selectiongames.spaces as spaces
from selectiongames.covers import IndexedCover
from selectiongames.errors import CrossSpaceError
from selectiongames.spaces import (
    CountableDiscrete,
    CumulativeUnion,
    FiniteIntersection,
    FiniteTopological,
    FiniteUnion,
    Named,
    ProductSpace,
    Whole,
    describe,
    extension,
    from_ids,
    initial_segment,
    member,
    singleton,
    whole,
)

from helpers import Empty, combine, extensionally_equal

N = CountableDiscrete()


def test_enumerate_points_prefix():
    assert [p.id for p in N.points(3)] == [0, 1, 2]
    assert N.points(0) == []


def test_enumerate_points_clamps_on_finite_models():
    space = FiniteTopological.discrete(2)
    assert [p.id for p in space.points(5)] == [0, 1]


def test_member_on_segments():
    seg3 = initial_segment(N, 3)
    assert member(seg3, N.point(2))
    assert not member(seg3, N.point(4))


def test_member_intersection_and_union():
    seg3, seg1 = initial_segment(N, 3), initial_segment(N, 1)
    p2 = N.point(2)
    assert not member(FiniteIntersection(parts=(seg3, seg1)), p2)
    assert member(FiniteUnion(parts=(singleton(N, 0), initial_segment(N, 2))), p2)


def test_empty_combinations():
    p = N.point(0)
    assert member(FiniteIntersection(parts=()), p)  # empty intersection is the whole space
    assert not member(FiniteUnion(parts=()), p)  # empty union is empty


def test_whole_and_empty():
    for i in (0, 5, 17):
        assert member(Whole(), N.point(i))
        assert not member(Empty(), N.point(i))


def test_boolean_structure_sampled():
    a, b = initial_segment(N, 4), singleton(N, 6)
    for i in range(12):
        p = N.point(i)
        assert member(FiniteIntersection(parts=(a, b)), p) == (member(a, p) and member(b, p))
        assert member(FiniteUnion(parts=(a, b)), p) == (member(a, p) or member(b, p))


def test_membership_is_pure():
    s = initial_segment(N, 2)
    p = N.point(1)
    assert member(s, p) == member(s, p)


def _segment_cover(space):
    return IndexedCover(space, sets=lambda j: initial_segment(space, j), witness=lambda p: p.id + 1)


def test_cross_space_query_raises():
    other = CountableDiscrete(tag="M")
    for s in (
        initial_segment(N, 3),
        FiniteUnion(parts=(Whole(), initial_segment(N, 3))),  # space from a later part
        FiniteIntersection(parts=(FiniteUnion(parts=(Empty(), singleton(N, 1))), whole(N))),
        CumulativeUnion(cover=_segment_cover(N), upto=3),
        ProductSpace(N).lift(initial_segment(N, 3), 1),
    ):
        space = s.space_hint()
        inside = combine(space, N.point(1), 1) if isinstance(space, ProductSpace) else space.point(1)
        assert member(s, inside)
        # a memoized answer for the same id must not bypass the space check
        with pytest.raises(CrossSpaceError):
            member(s, other.point(inside.id))


def test_cumulative_scan_raises_once_it_reaches_a_foreign_member():
    other = CountableDiscrete(tag="M")
    members = [initial_segment(N, 0), initial_segment(other, 5), whole(N)]
    cover = IndexedCover(N, sets=lambda j: members[j - 1], witness=lambda p: 3)
    # the scan stops below the foreign member: at the hit, or at upto
    assert member(CumulativeUnion(cover=cover, upto=3), N.point(0))
    assert not member(CumulativeUnion(cover=cover, upto=1), N.point(2))
    for _ in range(2):  # a failed scan leaves nothing behind that hides the error
        with pytest.raises(CrossSpaceError):
            member(CumulativeUnion(cover=cover, upto=3), N.point(2))
    with pytest.raises(CrossSpaceError):
        cover.first_hit(other.point(0), 1)


def test_cumulative_unions_ask_each_member_once_per_point():
    asked: list[tuple[int, int]] = []

    def sets(j):
        return Named(space=N, label=f"odd:{j}", pred=lambda p: asked.append((j, p.id)) or p.id == 2 * j + 1)

    cover = IndexedCover(N, sets=sets, witness=lambda p: max(1, p.id // 2))
    for upto in (5, 2, 7, 7, 3, 9, 1):
        for i in range(12):
            hit = (i - 1) // 2 if i % 2 else None
            assert member(CumulativeUnion(cover=cover, upto=upto), N.point(i)) == (hit is not None and 1 <= hit <= upto)
    assert len(asked) == len(set(asked))


def test_all_points_of_a_finite_model_is_a_fresh_list():
    space = FiniteTopological.discrete(3)
    pts = space.all_points()
    pts.pop()
    pts[0] = pts[1]
    assert space.all_points() == [space.point(i) for i in range(3)]
    assert [p.id for p in space.all_points()] == [0, 1, 2]


def test_memo_is_freed_with_its_expression():
    inner = FiniteIntersection(parts=(initial_segment(N, 5), whole(N)))
    s = FiniteUnion(parts=(CumulativeUnion(cover=_segment_cover(N), upto=2), inner))
    for i in range(8):
        member(s, N.point(i))
    describe(s)
    refs = [weakref.ref(s), weakref.ref(inner)]
    del s, inner
    gc.collect()
    assert all(ref() is None for ref in refs)
    tables = [
        name
        for name, value in vars(spaces).items()
        if not name.startswith("__")
        and isinstance(value, (dict, list, set, weakref.WeakKeyDictionary, weakref.WeakValueDictionary))
    ]
    assert tables == []


def _every_kind(space):
    seg = initial_segment(space, 1)
    yield Named(space=space, label="low", pred=lambda p: p.id < 2)
    yield Whole(space=space)
    yield Empty(space=space)
    yield FiniteUnion(parts=(seg, singleton(space, 2)))
    yield FiniteIntersection(parts=(seg, whole(space)))
    yield CumulativeUnion(cover=_segment_cover(space), upto=2)
    yield ProductSpace(space).lift(seg, 1)


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11),
    reason="CPython keeps instance attributes inline from 3.11 on",
)
def test_expression_state_stays_in_the_inline_attribute_layout():
    """Expression state is set the way the frozen dataclass sets its fields,
    every slot at construction, so no expression grows an instance __dict__
    (its reads would then miss CPython's inline attribute fast path)."""
    for space in (N, FiniteTopological.discrete(3)):
        # idle instances first: CPython stops adding attribute names to a
        # class's shared keys once it has made a few dozen instances
        idle = [s for _ in range(64) for s in _every_kind(space)]
        for s in _every_kind(space):
            own = s.space_hint()
            p = combine(own, space.point(1), 1) if isinstance(own, ProductSpace) else own.point(1)
            member(s, p)
            describe(s)
            if own is space and space.is_finite:
                extension(s, space)
            state = [d for d in gc.get_referents(s) if isinstance(d, dict) and {"_memo", "_space", "_desc"} & d.keys()]
            assert state == [], (type(s).__name__, state)
        del idle


def test_finite_topology_closure_checked():
    FiniteTopological(2, [[], [0], [0, 1]])  # Sierpinski: fine
    with pytest.raises(ValueError):
        FiniteTopological(2, [[], [0], [1]])  # missing the union {0,1}
    with pytest.raises(ValueError):
        FiniteTopological(2, [[0], [0, 1]])  # missing the empty set


def reference_is_topology(n_points, topology):
    """The constructor's validation as it used to run, kept verbatim: every
    pair of open sets tested for union and intersection. Raises the
    constructor's ValueError on a family that is not a topology."""
    if n_points < 1:
        raise ValueError("a finite space needs at least one point")
    opens = frozenset(frozenset(s) for s in topology)
    universe = frozenset(range(n_points))
    for s in opens:
        if not s <= universe:
            raise ValueError(f"open set {sorted(s)} mentions unknown points")
    if frozenset() not in opens or universe not in opens:
        raise ValueError("topology must contain the empty set and the whole space")
    for a in opens:
        for b in opens:
            if a | b not in opens:
                raise ValueError(f"topology not closed under union: {sorted(a)} | {sorted(b)}")
            if a & b not in opens:
                raise ValueError(f"topology not closed under intersection: {sorted(a)} & {sorted(b)}")


def up_sets(n, edges):
    """The up-sets of the preorder on range(n) generated by the pairs a <= b:
    the Alexandroff topology of that preorder."""
    above = [{x} for x in range(n)]
    for _ in range(n):
        for a, b in edges:
            above[a] |= above[b]
    subsets = [frozenset(x for x in range(n) if mask >> x & 1) for mask in range(1 << n)]
    return {s for s in subsets if all(above[x] <= s for x in s)}


@st.composite
def perturbed_up_set_families(draw):
    """Up-set topologies on 1-7 points with zero, one or two subsets toggled
    (added when absent, removed when present). The toggled subsets are proper
    and nonempty from 2 points on, so most failures are closure failures."""
    n = draw(st.integers(1, 7))
    points = st.integers(0, n - 1)
    family = up_sets(n, draw(st.lists(st.tuples(points, points), max_size=2 * n)))
    for mask in draw(st.lists(st.integers(1, max(1, (1 << n) - 2)), max_size=2)):
        family ^= {frozenset(x for x in range(n) if mask >> x & 1)}
    return n, [sorted(s) for s in sorted(family, key=sorted)]


@settings(max_examples=400, deadline=None)
@given(perturbed_up_set_families())
@example((2, [[], [0], [1]]))
@example((3, [[], [0, 1], [1, 2], [0, 1, 2]]))  # {0,1} & {1,2} missing
def test_minimal_neighbourhood_check_matches_the_pairwise_reference(case):
    n, family = case
    try:
        reference_is_topology(n, family)
    except ValueError as expected:
        with pytest.raises(ValueError) as raised:
            FiniteTopological(n, family)
        assert str(raised.value) == str(expected)
    else:
        assert FiniteTopological(n, family).topology == frozenset(map(frozenset, family))


def test_topologies_beyond_the_benchmark_sizes():
    assert len(FiniteTopological.discrete(10).topology) == 1024
    chain = FiniteTopological(10, [range(k) for k in range(11)])
    assert len(chain.topology) == 11
    # discrete on 9 points, less the single union U_3 | U_7 = {3, 7}
    family = [s for s in FiniteTopological.discrete(9).topology if s != {3, 7}]
    with pytest.raises(ValueError, match=r"^topology not closed under (union|intersection): \[.*\] [|&] \[.*\]$") as raised:
        FiniteTopological(9, family)
    with pytest.raises(ValueError) as expected:
        reference_is_topology(9, family)
    assert str(raised.value) == str(expected.value)


def test_from_ids_validates_openness():
    space = FiniteTopological(2, [[], [0], [0, 1]])
    from_ids(space, {0})
    with pytest.raises(ValueError):
        from_ids(space, {1})


def test_extension_on_finite_model():
    space = FiniteTopological.discrete(3)
    s = from_ids(space, {0, 2})
    assert extension(s, space) == frozenset({0, 2})


def test_extension_is_kept_on_the_expression_over_its_own_space():
    space = FiniteTopological.discrete(3)
    for s in (from_ids(space, {0, 2}), FiniteUnion(parts=(from_ids(space, {1}), Empty()))):
        first = extension(s, space)
        assert first == frozenset(p.id for p in space.all_points() if member(s, p))
        assert extension(s, space) is first


def test_extension_over_another_space_is_not_kept():
    space, other = FiniteTopological.discrete(3), FiniteTopological.discrete(3, tag="other")
    spaceless = Whole()
    assert extension(spaceless, space) == frozenset({0, 1, 2})
    assert extension(spaceless, other) == frozenset({0, 1, 2})
    assert spaceless._ext is None
    s = from_ids(space, {0, 2})
    for _ in range(2):  # before and after the own-space extension is kept
        with pytest.raises(CrossSpaceError):
            extension(s, other)
        assert extension(s, space) == frozenset({0, 2})


def test_extensionally_equal_sampled():
    assert extensionally_equal(
        FiniteUnion(parts=(initial_segment(N, 1), initial_segment(N, 3))),
        initial_segment(N, 3),
        N,
        horizon=30,
    )


def test_describe_is_structural():
    assert describe(initial_segment(N, 3)) == ("named", "seg:3")
    assert describe(initial_segment(N, 3)) == describe(initial_segment(N, 3))
    assert describe(whole(N)) == ("whole",)


def test_product_space_points_and_lift():
    prod = ProductSpace(N)
    p = prod.point(4)
    base, level = prod.split(p)
    assert combine(prod, base, level) is p
    lifted = prod.lift(initial_segment(N, 3), level)
    assert member(lifted, p) == (base.id <= 3)
    other_level = prod.lift(initial_segment(N, 3), level + 1)
    assert not member(other_level, p)


def test_product_space_enumeration_is_bijective():
    prod = ProductSpace(N)
    seen = set()
    for i in range(50):
        base, level = prod.split(prod.point(i))
        seen.add((base.id, level))
    assert len(seen) == 50
