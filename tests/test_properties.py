"""Property tests over randomly generated expressions, covers, and boxes."""

from hypothesis import given, settings, strategies as st

from selectiongames.corpus import segment_cover, singleton_cover, whole_head_cover
from selectiongames.covers import CofiniteSpec, IndexedCover, head_normalize, increasing_form, is_cover_up_to
from selectiongames.errors import CrossSpaceError, ResourceLimitError
from selectiongames.products import lifted_cover
from selectiongames.spaces import (
    CountableDiscrete,
    CumulativeUnion,
    FiniteIntersection,
    FiniteUnion,
    Lifted,
    Named,
    ProductSpace,
    FiniteTopological,
    Whole,
    from_ids,
    initial_segment,
    member,
    singleton,
    whole,
)
from selectiongames import trees
from selectiongames.trees import box_paths

import pytest

from helpers import Empty, combine, reference_box_paths

N = CountableDiscrete()


def leaf_sets():
    return st.one_of(
        st.integers(min_value=0, max_value=8).map(lambda m: initial_segment(N, m)),
        st.integers(min_value=0, max_value=8).map(lambda i: singleton(N, i)),
        st.just(whole(N)),
    )


def expressions(depth=3):
    return st.recursive(
        leaf_sets(),
        lambda children: st.one_of(
            st.lists(children, min_size=0, max_size=3).map(lambda ps: FiniteUnion(parts=tuple(ps))),
            st.lists(children, min_size=0, max_size=3).map(lambda ps: FiniteIntersection(parts=tuple(ps))),
        ),
        max_leaves=8,
    )


@given(expressions(), expressions(), st.integers(min_value=0, max_value=12))
@settings(max_examples=60)
def test_boolean_structure_of_expressions(a, b, pid):
    p = N.point(pid)
    assert member(FiniteIntersection(parts=(a, b)), p) == (member(a, p) and member(b, p))
    assert member(FiniteUnion(parts=(a, b)), p) == (member(a, p) or member(b, p))


def reference_member(s, p):
    """Membership by plain recursion over the expression, with no memo."""
    if isinstance(s, Named):
        return bool(s.pred(p))
    if isinstance(s, Whole):
        return True
    if isinstance(s, Empty):
        return False
    if isinstance(s, FiniteUnion):
        return any(reference_member(part, p) for part in s.parts)
    if isinstance(s, FiniteIntersection):
        return all(reference_member(part, p) for part in s.parts)
    if isinstance(s, CumulativeUnion):
        return any(reference_member(s.cover.sets(j), p) for j in range(1, s.upto + 1))
    if isinstance(s, Lifted):
        base_point, level = s.space.split(p)
        return level == s.level and reference_member(s.base, base_point)
    raise TypeError(s)


def _combine(draw, pool, kinds, space):
    """One new node over a few nodes drawn from the pool, so subexpressions are shared."""
    kind = draw(st.sampled_from(kinds))
    parts = tuple(draw(st.lists(st.sampled_from(pool), max_size=3)))
    if kind == "union":
        return FiniteUnion(parts=parts)
    if kind == "inter":
        return FiniteIntersection(parts=parts)
    cover = IndexedCover(space, sets=lambda j: parts[j - 1], witness=lambda p: 1)
    return CumulativeUnion(cover=cover, upto=len(parts))


@st.composite
def shared_pools(draw):
    """A base pool over N and a product pool over N x N+ built on top of it.

    Space-less nodes of the base pool also enter product nodes, so their memo
    sees ids of both spaces. The first base node is a composite and the first
    product node is its lift.
    """
    leaves = st.one_of(
        st.integers(min_value=0, max_value=8).map(lambda m: initial_segment(N, m)),
        st.integers(min_value=0, max_value=8).map(lambda i: singleton(N, i)),
        st.sampled_from([whole(N), Whole(), Empty(), Empty(space=N)]),
    )
    base = draw(st.lists(leaves, min_size=1, max_size=4))
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        base.append(_combine(draw, base, ["union", "inter", "cum"], N))
    base.reverse()
    prod = ProductSpace(N)
    levels = st.integers(min_value=1, max_value=3)
    lifted = [prod.lift(base[0], draw(levels))]
    lifted += [prod.lift(b, draw(levels)) for b in draw(st.lists(st.sampled_from(base), max_size=3))]
    product = lifted + [b for b in base if b.space_hint() is None]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        product.append(_combine(draw, product, ["union", "inter"], prod))
    return base, product, prod


@given(shared_pools(), st.data())
@settings(max_examples=60)
def test_memoized_membership_matches_unmemoized_reference(pools, data):
    base, product, prod = pools
    sides = [(base, N, 12), (product, prod, 40)]
    queries = data.draw(
        st.lists(
            st.tuples(st.sampled_from([0, 1]), st.integers(min_value=0), st.integers(min_value=0)),
            min_size=1,
            max_size=60,
        )
    )
    for side, k, i in queries:
        pool, space, horizon = sides[side]
        s, p = pool[k % len(pool)], space.point(i % horizon)
        assert member(s, p) == reference_member(s, p)
    # the same composite, asked with base points and through its lift with
    # product points whose ids collide with the base ids
    lift = product[0]
    for i in range(12):
        for s, p in ((base[0], N.point(i)), (lift, combine(prod, N.point(i), lift.level)), (lift, prod.point(i))):
            assert member(s, p) == reference_member(s, p)


def reference_cumulative_member(cover, upto, p):
    """Cumulative-union membership as a top-down scan of its own, with no
    table shared between unions."""
    for j in range(upto, 0, -1):
        if reference_member(cover.sets(j), p):
            return True
    return False


@given(
    st.lists(expressions(), min_size=1, max_size=6),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=12), st.booleans()),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=80)
def test_cumulative_unions_over_one_source_match_a_top_down_scan(members, queries):
    # members are arbitrary, so the source is in general not increasing
    cover = IndexedCover(N, sets=lambda j: members[(j - 1) % len(members)], witness=lambda p: 1)
    kept = {}
    for upto, i, fresh in queries:
        p = N.point(i)
        union = kept.setdefault(upto, CumulativeUnion(cover=cover, upto=upto))
        if fresh:
            union = CumulativeUnion(cover=cover, upto=upto)
        assert member(union, p) == reference_cumulative_member(cover, upto, p)
        first = next((j for j in range(1, upto + 1) if reference_member(cover.sets(j), p)), None)
        hit = cover.first_hit(p, upto)
        assert hit == first if first is not None else hit > upto


@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=8))
@settings(max_examples=40)
def test_increasing_form_is_monotone_and_covers(bounds):
    # a cover of arbitrary segments with an honest witness
    def witness(p):
        for j, m in enumerate(bounds, start=1):
            if p.id <= m:
                return j
        return len(bounds)  # may fail membership: constrain below

    top = max(bounds)
    cover = IndexedCover(
        N,
        sets=lambda j: initial_segment(N, bounds[min(j, len(bounds)) - 1]),
        witness=witness,
    )
    inc = increasing_form(cover)
    for j in range(1, len(bounds) + 1):
        for i in range(top + 2):
            p = N.point(i)
            if member(inc.sets(j), p):
                assert member(inc.sets(j + 1), p)
    assert is_cover_up_to(inc, top + 1)


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=50)
def test_product_space_split_combine_round_trip(idx):
    prod = ProductSpace(N)
    base, level = prod.split(prod.point(idx))
    assert combine(prod, base, level).id == idx


@given(st.integers(min_value=0, max_value=60))
@settings(max_examples=30)
def test_product_space_over_finite_base(idx):
    space = FiniteTopological.discrete(3)
    prod = ProductSpace(space)
    base, level = prod.split(prod.point(idx))
    assert 0 <= base.id < 3 and level >= 1
    assert combine(prod, base, level).id == idx


def test_box_paths_resource_guard(monkeypatch):
    """A box of exactly `BOX_LIMIT` nodes is walked; one node more raises."""
    monkeypatch.setattr(trees, "BOX_LIMIT", 12)
    assert len(list(box_paths((3, 4)))) == 12
    with pytest.raises(ResourceLimitError, match=r"^node box of size 13 exceeds limit 12$"):
        box_paths((13,))


@given(
    st.lists(st.integers(min_value=1, max_value=4), max_size=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=80)
def test_box_paths_match_the_counter_walk(core, ones_before, ones_after):
    bound = (1,) * ones_before + tuple(core) + (1,) * ones_after
    assert list(box_paths(bound)) == list(reference_box_paths(bound, 256))


def test_box_paths_guards_raise_before_iteration(monkeypatch):
    # the calls raise themselves; nothing is iterated
    monkeypatch.setattr(trees, "BOX_LIMIT", 100)
    with pytest.raises(ResourceLimitError):
        box_paths((10, 10, 10))
    with pytest.raises(ValueError):
        box_paths((3, 0, 2))
    monkeypatch.setattr(trees, "BOX_LIMIT", 1)
    assert list(box_paths(())) == [()]


F = FiniteTopological.discrete(3)


def unhooked(cover):
    """The same cover rebuilt without its first-hit rule, so the resumable
    scan over its members answers."""
    return IndexedCover(cover.space, cover.sets, cover.witness, increasing=cover.increasing, label=cover.label)


def finite_sets():
    return st.one_of(
        st.frozensets(st.integers(min_value=0, max_value=2)).map(lambda ids: from_ids(F, ids)),
        st.just(whole(F)),
    )


@st.composite
def hooked_covers(draw):
    """A cover whose first hit the library derives from its source: a corpus
    cover or an arbitrary (not increasing, possibly missing points) one over
    N or a three-point space, put through increasing forms, headings and at
    most one product lift."""
    space = draw(st.sampled_from([N, F]))
    kind = draw(st.sampled_from(["members", "segments", "singletons", "whole_head"]))
    if kind == "members":
        members = draw(st.lists(expressions() if space is N else finite_sets(), min_size=1, max_size=5))
        cover = IndexedCover(space, sets=lambda j: members[(j - 1) % len(members)], witness=lambda p: 1)
    elif kind == "segments":
        cover = segment_cover(space, shift=draw(st.integers(min_value=0, max_value=4)))
    else:
        cover = singleton_cover(space) if kind == "singletons" else whole_head_cover(space)
    # an arbitrary cover has no rule of its own, so it is transformed at least once
    steps = draw(st.lists(st.sampled_from(["inc", "head", "lift"]), min_size=kind == "members", max_size=3))
    if steps.count("lift") > 1:
        steps.remove("lift")
    for step in steps:
        if step == "inc":
            cover = increasing_form(cover)
        elif step == "head":
            chosen = cover.sets(draw(st.integers(min_value=1, max_value=4)))
            cover = head_normalize(chosen, cover if cover.increasing else increasing_form(cover))
        else:
            cover = lifted_cover(ProductSpace(cover.space), cover)
    return cover


REACH = 60  # every bound asked stays below this


@given(hooked_covers(), st.data())
@settings(max_examples=120, deadline=None)
def test_first_hit_rules_match_the_scan(cover, data):
    scan = unhooked(cover)
    assert cover._first_hit_rule is not None
    ids = data.draw(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6))
    for i in ids:
        p = cover.space.point(i % (cover.space.size or REACH))
        least = next((j for j in range(1, REACH + 1) if reference_member(scan.sets(j), p)), None)
        uptos = [0, data.draw(st.integers(min_value=0, max_value=REACH))]
        if least is not None:
            uptos += [least - 1, least, least + 1]
        for upto in data.draw(st.permutations(uptos)):
            upto = min(upto, REACH)
            expected = least if least is not None and least <= upto else None
            for asked in (cover, scan):
                got = asked.first_hit(p, upto)
                assert (got if got <= upto else None) == expected
    other = N.point(0) if isinstance(cover.space, ProductSpace) else ProductSpace(N).point(0)
    with pytest.raises(CrossSpaceError):
        cover.first_hit(other, REACH)


def test_cofinite_spec_rejects_nonpositive():
    with pytest.raises(ValueError):
        CofiniteSpec(frozenset({0}))
