import itertools
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence
from unittest import mock

import pytest

from selectiongames import evasion, hurewicz
from selectiongames.corpus import appendix_tree_corpus, rothberger_tree_corpus
from selectiongames.engine import ROTHBERGER_GAME, Transcript, check_legal, evaluate_win, replay
from selectiongames.errors import (
    BudgetError,
    CrossSpaceError,
    GameError,
    IntegrityError,
    PreconditionError,
    ResourceLimitError,
)
from selectiongames.evasion import strip_chosen_tree
from selectiongames.rothberger import (
    SoneSelector,
    bounds_from_moves,
    check_infinitely_often,
    distinct_intersections,
    joint_refinement_cover,
    menger_from_rothberger,
    multiplicity_shortfall,
    rothberger_counterplay,
    select_one_per_family,
)
from selectiongames.covers import FiniteSelection, IndexedCover, is_cover_up_to, witness_of
from selectiongames.hurewicz import secure_child
from selectiongames.scenarios import transcript_records
from selectiongames.selectors import select_sone
from selectiongames.solver import instance_cover
from selectiongames.spaces import (
    CountableDiscrete,
    FiniteIntersection,
    FiniteTopological,
    Named,
    OpenSet,
    Point,
    SpaceModel,
    describe,
    first_space,
    initial_segment,
    member,
    singleton,
    whole,
)
from selectiongames.trees import Path, TreeStrategy, distinct_covers_on_box, path_transcript, strategy_from_tree

from helpers import extensionally_equal, reference_infinitely_often_play, scrambled_tree

N = CountableDiscrete()


# ---------------------------------------------------------------------------
# The joint refinement as it was before its witness was memoized: the factor
# witnesses are asked and the rescan runs on every query. Kept verbatim as
# the reference.


def reference_joint_refinement_cover(
    tree: TreeStrategy,
    bound: Path,
    box_limit: int = 20_000,
    rescan: int = 64,
) -> IndexedCover:
    with mock.patch("selectiongames.trees.BOX_LIMIT", box_limit):
        factors = distinct_covers_on_box(tree, bound)

    def sets(n: int) -> OpenSet:
        if len(factors) == 1:
            return factors[0].sets(n)
        return FiniteIntersection(parts=tuple(c.sets(n) for c in factors))

    def witness(p: Point) -> int:
        start = max(witness_of(c, p) for c in factors)
        for n in range(start, start + rescan + 1):
            if all(member(c.sets(n), p) for c in factors):
                return n
        raise IntegrityError(
            f"no joint member within {rescan} of the factor witnesses contains {p!r}"
        )

    return IndexedCover(
        space=tree.space,
        sets=sets,
        witness=witness,
        increasing=all(c.increasing for c in factors),
        label=f"refine{bound}",
    )


def _outcome(fn):
    try:
        return fn()
    except (GameError, ValueError) as exc:
        return type(exc), str(exc)


def _two_cover_tree(increasing: bool = False) -> TreeStrategy:
    """Nodes (1,) and (2,) carry covers that contain point 0 only at member 1
    and only at member 2, so no joint member contains it. `increasing` flags
    both covers increasing (falsely), which passes the refinement's
    precondition check."""

    def cover(at: int) -> IndexedCover:
        return IndexedCover(
            space=N,
            sets=lambda j: singleton(N, 0 if j == at else 100 + j),
            witness=lambda p: at,
            increasing=increasing,
            label=f"only{at}",
        )

    covers = {1: cover(1), 2: cover(2)}
    return TreeStrategy(space=N, cover_at_raw=lambda path: covers[path[-1]] if path else covers[1], label="two")


class TestDistinctIntersections:
    def test_single_combination(self):
        fams = [[initial_segment(N, 3)], [initial_segment(N, 1)]]
        cover, record = distinct_intersections(lambda i: fams[i - 1], 2, family_limit=2)
        first = cover.sets(1)
        assert extensionally_equal(first, initial_segment(N, 1), N, horizon=10)
        assert record(1) == ((1, 1), (2, 1))

    def test_enumeration_matches_hand_expansion(self):
        a, b = initial_segment(N, 5), initial_segment(N, 6)
        c = initial_segment(N, 7)
        e = initial_segment(N, 8)
        fams = [[a, b], [c], [e]]
        cover, record = distinct_intersections(lambda i: fams[i - 1], 2, family_limit=3)
        # bound 2: (1,2) with members a&c, b&c; bound 3: (1,3): a&e, b&e; (2,3): c&e
        expected = [((1, 1), (2, 1)), ((1, 2), (2, 1)), ((1, 1), (3, 1)), ((1, 2), (3, 1)), ((2, 1), (3, 1))]
        got = [record(j) for j in range(1, 6)]
        assert got == expected

    def test_all_whole_families(self):
        fams = [[whole(N)]] * 5
        cover, _ = distinct_intersections(lambda i: fams[i - 1], 3, family_limit=5)
        for j in (1, 2, 3):
            assert extensionally_equal(cover.sets(j), whole(N), N, horizon=8)

    def test_witness_rank_agrees_with_enumeration(self):
        fams = [[initial_segment(N, i % 3), initial_segment(N, i % 3 + 4)] for i in range(1, 8)]
        cover, record = distinct_intersections(lambda i: fams[i - 1], 2, family_limit=7)
        p = N.point(4)
        j = witness_of(cover, p)
        factors = record(j)
        # the witnessed member is the intersection of recorded factors, each
        # containing the point, from strictly increasing families
        assert len(factors) == 2 and factors[0][0] < factors[1][0]
        for fam_idx, member_idx in factors:
            assert member(fams[fam_idx - 1][member_idx - 1], p)

    def test_records_have_strictly_increasing_families(self):
        fams = [[initial_segment(N, 2), whole(N)] for _ in range(6)]
        cover, record = distinct_intersections(lambda i: fams[i - 1], 3, family_limit=6)
        for j in range(1, 40):
            fs = [f for f, _ in record(j)]
            assert fs == sorted(set(fs)) and len(fs) == 3

    def test_is_cover_when_hypothesis_holds(self):
        fams = [[initial_segment(N, i + 2)] for i in range(30)]
        cover, _ = distinct_intersections(lambda i: fams[i - 1], 2, family_limit=30)
        assert is_cover_up_to(cover, 5)


class TestSelectOnePerFamily:
    def test_whole_families_pick_anything(self):
        fams = [[whole(N)] for _ in range(6)]
        chosen = select_one_per_family(lambda i: fams[i - 1], 6, select_sone, N, horizon=3)
        assert chosen == [(i, 1) for i in range(1, 7)]

    def test_forced_singleton_families(self):
        # family n = {Seg(n-1)}: the only choice; union covers every horizon
        fams = [[initial_segment(N, i)] for i in range(12)]
        chosen = select_one_per_family(lambda i: fams[i - 1], 12, select_sone, N, horizon=6)
        assert [m for _, m in chosen] == [1] * 12
        chosen_sets = [fams[i - 1][m - 1] for i, m in chosen]
        for i in range(6):
            assert any(member(s, N.point(i)) for s in chosen_sets)

    def test_alternating_families_cover(self):
        fams = []
        for i in range(16):
            fams.append([initial_segment(N, 0)] if i % 2 == 0 else [initial_segment(N, 0), whole(N)])
        chosen = select_one_per_family(lambda i: fams[i - 1], 16, select_sone, N, horizon=5)
        assert len(chosen) == 16
        chosen_sets = [fams[i - 1][m - 1] for i, m in chosen]
        for i in range(5):
            assert any(member(s, N.point(i)) for s in chosen_sets)

    def test_exactly_one_per_family(self):
        fams = [[initial_segment(N, i), whole(N)] for i in range(10)]
        chosen = select_one_per_family(lambda i: fams[i - 1], 10, select_sone, N, horizon=5)
        assert [i for i, _ in chosen] == list(range(1, 11))

    def test_hypothesis_failure_names_the_point(self):
        fams = [[initial_segment(N, 0)] for _ in range(10)]  # p1 never covered
        with pytest.raises(GameError, match="p1"):
            select_one_per_family(lambda i: fams[i - 1], 10, select_sone, N, horizon=3)


# ---------------------------------------------------------------------------
# The intersection cover, the hypothesis check and the one-pick selection as
# they were before the counting table and the coverage tracked as picks land.
# Kept verbatim as the reference, under reference_ names.


def _symmetric_sums(values: Sequence[int], k: int) -> list[int]:
    """Elementary symmetric polynomials e_0..e_k of the given values."""
    e = [1] + [0] * k
    for v in values:
        for i in range(min(k, len(e) - 1), 0, -1):
            e[i] += e[i - 1] * v
    return e


def reference_distinct_intersections(
    families: Callable[[int], Sequence[OpenSet]],
    n: int,
    family_limit: int = 200,
) -> tuple[IndexedCover, Callable[[int], tuple[tuple[int, int], ...]]]:
    """The cover of n-fold intersections over n distinct families, and the
    record of a member: its factors' (family index, member index) pairs,
    family indices strictly increasing.

    Members are enumerated by increasing largest family index, then
    lexicographically in the family-index tuple, then lexicographically in the
    member choices. Ranks are computed arithmetically (block sizes are
    elementary symmetric sums of the family sizes), so both member lookup and
    the witness work at any index without materializing the enumeration. The
    witness takes the first n distinct families whose listed members contain
    the point — they exist when the point is covered infinitely often — and
    returns the exact rank of that combination, raising :class:`BudgetError`
    past `family_limit` families.
    """
    if n < 1:
        raise ValueError("intersection arity must be positive")

    fam_cache: dict[int, Sequence[OpenSet]] = {}

    def fam(i: int) -> Sequence[OpenSet]:
        if i > family_limit:
            raise BudgetError(f"intersection enumeration passed family {family_limit}")
        hit = fam_cache.get(i)
        if hit is None:
            hit = fam_cache[i] = tuple(families(i))
            if not hit:
                raise ValueError(f"family {i} is empty")
        return hit

    def size(i: int) -> int:
        return len(fam(i))

    def block(bound: int) -> int:
        # members whose largest family index is exactly `bound`
        head_sizes = [size(i) for i in range(1, bound)]
        return size(bound) * _symmetric_sums(head_sizes, n - 1)[n - 1]

    def unrank(j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        rest = j - 1
        bound = n
        while True:
            b = block(bound)
            if rest < b:
                break
            rest -= b
            bound += 1
        # fix the head combination lexicographically
        head: list[int] = []
        lo = 1
        for pos in range(n - 1):
            need = n - 2 - pos  # head entries still to choose after this one
            a = lo
            while True:
                suffix = [size(i) for i in range(a + 1, bound)]
                cnt = size(a) * _symmetric_sums(suffix, need)[need] * size(bound)
                for h in head:
                    cnt *= size(h)
                if rest < cnt:
                    break
                rest -= cnt
                a += 1
            head.append(a)
            lo = a + 1
        fams = tuple(head) + (bound,)
        # mixed-radix decomposition of the member choices (last varies fastest)
        radices = [size(i) for i in fams]
        choices = [0] * n
        for pos in range(n - 1, -1, -1):
            choices[pos] = rest % radices[pos] + 1
            rest //= radices[pos]
        return fams, tuple(choices)

    def rank(fams: Sequence[int], choices: Sequence[int]) -> int:
        bound = fams[-1]
        total = 0
        for b in range(n, bound):
            total += block(b)
        head = list(fams[:-1])
        lo = 1
        fixed = 1
        for pos, chosen_a in enumerate(head):
            need = n - 2 - pos
            for a in range(lo, chosen_a):
                suffix = [size(i) for i in range(a + 1, bound)]
                total += fixed * size(a) * _symmetric_sums(suffix, need)[need] * size(bound)
            fixed *= size(chosen_a)
            lo = chosen_a + 1
        member_rank = 0
        for i, c in zip(fams, choices):
            member_rank = member_rank * size(i) + (c - 1)
        return total + member_rank + 1

    def record(j: int) -> tuple[tuple[int, int], ...]:
        fams, choices = unrank(j)
        return tuple(zip(fams, choices))

    def sets(j: int) -> OpenSet:
        fams, choices = unrank(j)
        parts = tuple(fam(i)[c - 1] for i, c in zip(fams, choices))
        return FiniteIntersection(parts=parts)

    def witness(p: Point) -> int:
        fams: list[int] = []
        choices: list[int] = []
        i = 1
        while len(fams) < n:
            if i > family_limit:
                raise BudgetError(
                    f"point {p!r} not covered by {n} families within the first {family_limit}"
                )
            for m, s in enumerate(fam(i), start=1):
                if member(s, p):
                    fams.append(i)
                    choices.append(m)
                    break
            i += 1
        return rank(fams, choices)

    space = first_space(fam(1))
    if space is None:
        raise ValueError("cannot infer the space from the families")
    cover = IndexedCover(
        space=space,
        sets=sets,
        witness=witness,
        label=f"distinct({n})",
    )
    return cover, record


def reference_check_infinitely_often(
    families: Callable[[int], Sequence[OpenSet]],
    space: SpaceModel,
    horizon: int,
    family_budget: int,
) -> None:
    """Verify the working form of the infinitely-often hypothesis: the point
    targeted at stage i+1 must lie in the union of at least i+1 distinct
    families within the budget."""
    for idx, p in enumerate(space.points(horizon)):
        needed = idx + 1
        found = 0
        for i in range(1, family_budget + 1):
            if any(member(s, p) for s in families(i)):
                found += 1
                if found >= needed:
                    break
        if found < needed:
            raise GameError(
                f"hypothesis fails: {p!r} is covered by only {found} of the first "
                f"{family_budget} families (need {needed})"
            )


def reference_select_one_per_family(
    families: Callable[[int], Sequence[OpenSet]],
    count: int,
    sone: SoneSelector,
    space: SpaceModel,
    horizon: int,
) -> list[tuple[int, int]]:
    """Pick one member from each of the first `count` families so that the
    picked members cover every point below the horizon.

    Stage n applies the single-selection witness to the n-fold intersection
    cover; the selected intersection's factors name n distinct families, at
    least one of which is still unassigned, and that family receives its
    recorded member. Families left unassigned when coverage is reached
    receive member 1. The infinitely-often hypothesis is checked on the first
    `count` families, and `max(horizon, 1) + 5` stages are tried.
    """
    stage_cap = max(horizon, 1) + 5
    reference_check_infinitely_often(families, space, horizon, count)

    covers: dict[int, tuple[IndexedCover, Callable[[int], tuple[tuple[int, int], ...]]]] = {}

    def cover_for(n: int) -> IndexedCover:
        if n not in covers:
            covers[n] = reference_distinct_intersections(families, n, family_limit=count)
        return covers[n][0]

    assigned: dict[int, int] = {}
    picks = sone(space, cover_for)
    for stage in range(1, stage_cap + 1):
        j = next(picks)
        for fam_idx, member_idx in covers[stage][1](j):
            if fam_idx not in assigned:
                assigned[fam_idx] = member_idx
                break
        else:
            # unreachable: the stage-n pick has n distinct factor families
            # and at most n-1 assignments exist before it
            raise IntegrityError("no unassigned factor family at stage " + str(stage))
        if _assigned_cover(families, assigned, space, horizon):
            break
    else:
        raise BudgetError(f"no covering assignment within {stage_cap} stages")

    out: list[tuple[int, int]] = []
    for i in range(1, count + 1):
        out.append((i, assigned.get(i, 1)))
    return out


def _assigned_cover(
    families: Callable[[int], Sequence[OpenSet]],
    assigned: dict[int, int],
    space: SpaceModel,
    horizon: int,
) -> bool:
    pts = space.points(horizon)
    sets = [families(i)[m - 1] for i, m in assigned.items()]
    return all(any(member(s, p) for s in sets) for p in pts)


def _seeded_families(rng: random.Random, count: int, empty_at: int | None = None) -> list[list[OpenSet]]:
    """`count` families of one to four initial segments and singletons; the
    family at `empty_at`, if any, is empty."""
    return [
        [] if i == empty_at else [
            initial_segment(N, rng.randint(0, 7)) if rng.random() < 0.6 else singleton(N, rng.randint(0, 8))
            for _ in range(rng.randint(1, 4))
        ]
        for i in range(1, count + 1)
    ]


class TestAgainstTheReferences:
    def test_records_members_witnesses_and_errors_match(self):
        rng = random.Random(26)
        errors = Counter()
        for trial in range(70):
            count = rng.randint(1, 25)
            fams = _seeded_families(rng, count, empty_at=rng.randint(1, count) if trial % 7 == 3 else None)
            n = 1 + trial % 7
            limit = max(1, count - 2) if trial % 5 == 0 else count
            new = _outcome(lambda: distinct_intersections(lambda i: fams[i - 1], n, family_limit=limit))
            ref = _outcome(lambda: reference_distinct_intersections(lambda i: fams[i - 1], n, family_limit=limit))
            if isinstance(ref[0], type):
                assert new == ref, trial
                errors[ref[0].__name__] += 1
                continue
            (cover, record), (ref_cover, ref_record) = new, ref
            for j in range(1, 301):
                got = _outcome(lambda: record(j))
                assert got == _outcome(lambda: ref_record(j)), (trial, j)
                assert _outcome(lambda: describe(cover.sets(j))) == _outcome(lambda: describe(ref_cover.sets(j)))
                if isinstance(got[0], type):
                    errors[got[0].__name__] += 1
                    break
            for p in N.points(10):
                got = _outcome(lambda: cover.witness(p))
                assert got == _outcome(lambda: ref_cover.witness(p)), (trial, p)
                errors[got[0].__name__ if isinstance(got, tuple) else "witness"] += 1
        # every route is compared: witnesses, the budget past family_limit and
        # the empty family
        assert errors["witness"] > 100 and errors["BudgetError"] > 10 and errors["ValueError"] >= 5, errors

    def test_select_one_per_family_returns_at_the_reference_stage(self):
        def first_members(space, covers):  # member 1 of every cover: may never cover
            for n in itertools.count(1):
                covers(n)
                yield 1

        rng = random.Random(27)
        kinds = Counter()
        for trial in range(120):
            count = rng.randint(3, 20)
            fams = _seeded_families(rng, count)
            horizon = rng.randint(0, 6)
            for selector in (select_sone, first_members):
                runs = []
                for select in (select_one_per_family, reference_select_one_per_family):
                    picks: list[int] = []

                    def sone(space, covers):
                        for j in selector(space, covers):
                            picks.append(j)
                            yield j

                    runs.append((_outcome(lambda: select(lambda i: fams[i - 1], count, sone, N, horizon)), picks))
                # the same choice or error, after the same number of stages
                assert runs[0] == runs[1], (trial, selector.__name__)
                outcome, picks = runs[0]
                kinds[outcome[0].__name__ if isinstance(outcome[0], type) else len(picks)] += 1
        assert len([k for k in kinds if isinstance(k, int)]) >= 4 and kinds["GameError"] and kinds["BudgetError"], kinds


class TestMultiplicityShortfall:
    def test_names_the_first_point_covered_too_rarely(self):
        fams = [[initial_segment(N, 0)], [initial_segment(N, 2)], [singleton(N, 1)], [singleton(N, 7)]]
        assert multiplicity_shortfall(lambda i: fams[i - 1], 4, N.points(3)) == (N.point(2), 1, 3)
        assert multiplicity_shortfall(lambda i: fams[i - 1], 2, N.points(2)) == (N.point(1), 1, 2)
        assert multiplicity_shortfall(lambda i: fams[i - 1], 4, N.points(2)) is None

    def test_the_hypothesis_check_raises_from_it(self):
        fams = [[initial_segment(N, 0)], [initial_segment(N, 2)], [singleton(N, 1)], [singleton(N, 7)]]
        with pytest.raises(GameError, match=r"^hypothesis fails: p2@N is covered by only 1 of the first 4 families \(need 3\)$"):
            check_infinitely_often(lambda i: fams[i - 1], N, 3, 4)

    def test_a_short_schedule_names_the_point_its_count_and_its_need(self):
        with pytest.raises(
            BudgetError,
            match=r"^infinitely-often multiplicity did not reach the stage schedule within 8 innings: "
            r"p2@N is covered at 2 innings and needs 3$",
        ):
            rothberger_counterplay(rothberger_tree_corpus(N)["shifted_seg"], select_sone, innings=1, horizon=5)


class TestJointRefinement:
    def test_minimal_bound_from_selection(self):
        assert bounds_from_moves(((1, 3),)) == (3,)

    def test_singleton_selection_gives_bound_one(self):
        assert bounds_from_moves(((1,),)) == (1,)

    def test_refinement_members_are_subsets_of_factors(self):
        tree = rothberger_tree_corpus(N)["shifted_seg"]
        cover = joint_refinement_cover(tree, (2, 1))
        from selectiongames.trees import box_paths, distinct_covers_on_box

        factors = distinct_covers_on_box(tree, (2, 1))
        for n in (1, 2, 4):
            s = cover.sets(n)
            for factor in factors:
                for i in range(10):
                    p = N.point(i)
                    if member(s, p):
                        assert member(factor.sets(n), p)

    def test_box_of_two_by_one(self):
        tree = rothberger_tree_corpus(N)["shifted_seg"]
        from selectiongames.trees import box_paths

        assert list(box_paths((2, 1))) == [(1, 1), (2, 1)]

    def test_bound_three_refines_first_three_node_covers(self):
        # after a selection bounded by 3, the reply refines the covers at
        # nodes (1), (2), (3); for the last-entry-keyed tree those are three
        # distinct covers
        tree = rothberger_tree_corpus(N)["shifted_seg"]
        from selectiongames.trees import distinct_covers_on_box

        factors = distinct_covers_on_box(tree, (3,))
        assert len(factors) == 3
        expected = [tree.cover_at((m,)) for m in (1, 2, 3)]
        assert set(map(id, factors)) == set(map(id, expected))

    def test_derived_strategy_plays_refinements(self):
        tree = rothberger_tree_corpus(N)["seg_tower"]
        derived = menger_from_rothberger(tree)
        root = derived.move(())
        assert describe(root.sets(2)) == describe(tree.cover_at(()).sets(2))
        reply = derived.move(((1, 2, 3),))
        assert is_cover_up_to(reply, 10)

    def test_decreasing_the_bound_falsifies_refinement(self):
        # a selection containing refinement member m is not record-refined by
        # the first m-1 members of a node cover
        tree = rothberger_tree_corpus(N)["seg_tower"]
        derived = menger_from_rothberger(tree)
        m = bounds_from_moves(((3,),))[0]
        assert m == 3  # the recorded factor index is 3, so bound 2 fails
        reply = derived.move(((3,),))
        assert [describe(reply.sets(n)) for n in (1, 2, 4)] == [
            describe(joint_refinement_cover(tree, (m,)).sets(n)) for n in (1, 2, 4)
        ]

    def test_moves_with_the_same_bounds_share_one_cover(self):
        # the box below (1, 4) holds the shifts 0-4, the box below (1,) only 0-1
        tree = rothberger_tree_corpus(N)["shifted_seg"]
        derived = menger_from_rothberger(tree)
        cover = derived.move(((1,), (2, 4)))
        assert derived.move(((1,), (4,))) is cover
        fresh = joint_refinement_cover(tree, (1, 4))
        assert [describe(cover.sets(n)) for n in range(1, 6)] == [describe(fresh.sets(n)) for n in range(1, 6)]


class TestJointWitness:
    def test_same_witnesses_as_the_reference(self):
        trees = dict(rothberger_tree_corpus(N))
        for name, tree in appendix_tree_corpus(N, n_random=1, seed=3).items():
            trees[name] = tree
            trees[f"stripped {name}"] = strip_chosen_tree(tree)
        points = N.points(14)
        compared = 0
        for name, tree in trees.items():
            for bound in [(), (1,), (3,), (2, 1), (2, 3), (4, 1, 2), (3, 3, 3)]:
                new = _outcome(lambda: joint_refinement_cover(tree, bound))
                ref = _outcome(lambda: reference_joint_refinement_cover(tree, bound))
                if not isinstance(ref, IndexedCover):
                    assert new == ref, (name, bound)
                    continue
                for _ in range(2):  # the second round reads the memo
                    got = [_outcome(lambda: new.witness(p)) for p in points]
                    assert got == [_outcome(lambda: ref.witness(p)) for p in points], (name, bound)
                compared += 1
        assert compared > 60

    def test_point_of_another_space_is_refused_before_the_lookup(self):
        cover = joint_refinement_cover(rothberger_tree_corpus(N)["shifted_seg"], (2, 1))
        assert cover.witness(N.point(3)) >= 1
        with pytest.raises(CrossSpaceError):
            cover.witness(CountableDiscrete("M").point(3))

    def test_a_scan_that_raises_stores_nothing(self):
        cover = joint_refinement_cover(_two_cover_tree(increasing=True), (2,))
        for _ in range(2):
            with pytest.raises(IntegrityError, match=r"^joint member 2 below bound \(2,\), the max of the factor"):
                cover.witness(N.point(0))


def _counting_tree(tests: Counter) -> TreeStrategy:
    """The root and every node ending in 1 carry c1, nodes ending in 2 or 3
    carry c2 or c3; member j of ci holds the points with id <= j - i, so
    each ci is increasing with witness id + i. Every membership test of a
    member is counted in `tests` by (i, j, point id)."""

    def cover(i: int) -> IndexedCover:
        def sets(j: int) -> OpenSet:
            return Named(space=N, label=f"c{i}:{j}", pred=lambda p: tests.update([(i, j, p.id)]) or p.id <= j - i)

        return IndexedCover(space=N, sets=sets, witness=lambda p: p.id + i, increasing=True, label=f"c{i}")

    covers = {i: cover(i) for i in (1, 2, 3)}
    return TreeStrategy(space=N, cover_at_raw=lambda path: covers[path[-1] if path else 1], label="counting")


def test_the_joint_witness_tests_each_factor_member_once():
    """witness_of(joint, p) tests each factor's member at the witness index
    once per point: the witness tests the refinement's own member, and
    `witness_of` reads its memo. c3's member there is tested once more, by
    c3's own witness check."""
    tests: Counter = Counter()
    joint = joint_refinement_cover(_counting_tree(tests), (3,))
    for p in N.points(6):
        tests.clear()
        n = witness_of(joint, p)
        assert n == p.id + 3
        assert {(i, j): c for (i, j, _), c in tests.items() if j == n} == {(1, n): 1, (2, n): 1, (3, n): 2}
        tests.clear()
        assert witness_of(joint, p) == n
        assert tests == Counter()


def test_the_joint_witness_tests_one_joint_member():
    """The joint witness itself (not `witness_of`) verifies each factor
    witness and then tests the one joint member at their max: each factor's
    member there once, and c3's once more, as its own witness is that index."""
    tests: Counter = Counter()
    joint = joint_refinement_cover(_counting_tree(tests), (3,))
    for p in N.points(6):
        tests.clear()
        n = joint.witness(p)
        assert n == p.id + 3
        factor_checks = {(1, n - 2, p.id): 1, (2, n - 1, p.id): 1}
        assert tests == Counter({**factor_checks, (1, n, p.id): 1, (2, n, p.id): 1, (3, n, p.id): 2})


def _two_point_tree(reads: list) -> TreeStrategy:
    """The 2-point discrete space: the root and every node ending in 1 carry
    ({0}, {1}), every node ending in 2 carries ({1}, {0}); neither cover is
    increasing. Member reads are appended to `reads`."""
    space = FiniteTopological.discrete(2)

    def cover(first: int, label: str) -> IndexedCover:
        source = instance_cover(space, (frozenset({first}), frozenset({1 - first})), label)
        return IndexedCover(
            space=space,
            sets=lambda j: reads.append((label, j)) or source.sets(j),
            witness=source.witness,
            label=label,
        )

    a, b = cover(0, "a"), cover(1, "b")
    return TreeStrategy(space=space, cover_at_raw=lambda path: b if path[-1:] == (2,) else a, label="two_point")


class TestRefinementPrecondition:
    """The diagonal refinement needs one cover per box or increasing covers;
    otherwise it fails, naming the box and the covers, before any search."""

    def test_two_covers_not_increasing_raise_before_any_member(self):
        reads: list = []
        tree = _two_point_tree(reads)
        with pytest.raises(PreconditionError, match=r"bound \(2,\).*'a' \(not increasing\), 'b' \(not increasing\)"):
            joint_refinement_cover(tree, (2,))
        with pytest.raises(PreconditionError, match=r"bound \(2,\)"):
            evasion.wedge_tree(tree).cover_at((2,))
        assert reads == []

    def test_the_play_raises_at_the_first_mixed_box(self):
        with pytest.raises(PreconditionError, match=r"bound \(1, 2\)"):
            rothberger_counterplay(_two_point_tree([]), select_sone, innings=4, horizon=2)

    def test_one_cover_or_increasing_covers_pass(self):
        tree = _two_point_tree([])
        for bound in [(), (1,), (1, 1), (2, 1)]:
            assert len(distinct_covers_on_box(tree, bound)) == 1
            assert joint_refinement_cover(tree, bound).sets(1) is tree.cover_at(()).sets(1)
        assert joint_refinement_cover(_two_cover_tree(increasing=True), (2,)).increasing


WALK_ENTRIES = (1, 2, 3, 5, 12, 13, 30)  # 12 and 13 straddle the capped trees' cap
WALK_BOUNDS = [
    bound
    for depth in range(4)
    for bound in itertools.product(WALK_ENTRIES, repeat=depth)
    if math.prod(bound) <= 2_000
]


def _keyed_trees() -> dict[str, TreeStrategy]:
    trees = {f"rothberger {name}": tree for name, tree in rothberger_tree_corpus(N, n_random=6).items()}
    trees.update((f"appendix {name}", tree) for name, tree in appendix_tree_corpus(N, n_random=4).items())
    trees["scrambled"] = scrambled_tree(N)
    return trees


class TestKeyStateWalk:
    """A tree with `keys` is read by key states; the same tree without keys
    is walked box by box, and both give the same cover objects in order."""

    def test_the_state_walk_is_the_box_walk(self):
        for name, tree in _keyed_trees().items():
            assert tree.keys is not None, name
            walked = TreeStrategy(space=N, cover_at_raw=tree.cover_at)
            for bound in WALK_BOUNDS:
                got = distinct_covers_on_box(tree, bound)
                want = distinct_covers_on_box(walked, bound)
                assert list(map(id, got)) == list(map(id, want)), (name, bound)

    def test_a_resumed_walk_is_the_walk_from_the_root(self):
        """Bounds asked in a seeded shuffled order, prefixes both before and
        after their extensions, give a fresh tree's covers in its order."""
        order = random.Random(24).sample(WALK_BOUNDS, len(WALK_BOUNDS))
        position = {bound: n for n, bound in enumerate(order)}
        prefix_first = [position[bound[:-1]] < position[bound] for bound in order if len(bound) > 1]
        assert any(prefix_first) and not all(prefix_first)
        for name, tree in _keyed_trees().items():
            for bound in order:
                fresh = TreeStrategy(space=N, cover_at_raw=tree.cover_at_raw, keys=tree.keys)
                got = distinct_covers_on_box(tree, bound)
                want = distinct_covers_on_box(fresh, bound)
                assert list(map(id, got)) == list(map(id, want)), (name, bound)

    def test_a_bound_extending_a_walked_bound_takes_one_level_step(self):
        root_key, child_key, cover_of_key = scrambled_tree(N).keys
        steps = Counter()

        def counted(k, i):
            steps[k, i] += 1
            return child_key(k, i)

        tree = TreeStrategy(space=N, cover_at_raw=lambda path: None, keys=(root_key, counted, cover_of_key))
        for depth in range(1, 4):
            distinct_covers_on_box(tree, (30,) * depth)
        # the root's 30 children, then 30 children of each of the 5 keys at levels 1 and 2
        assert sum(steps.values()) == 30 + 150 + 150

    def test_an_entry_below_one_raises_on_both_routes(self):
        tree = scrambled_tree(N)
        walked = TreeStrategy(space=N, cover_at_raw=tree.cover_at)
        for bound in [(2,), (3,)]:  # memoized prefixes are not read before the entries are checked
            distinct_covers_on_box(tree, bound)
        for bound in [(0,), (2, 0), (3, 0, 2)]:
            for route in (tree, walked):
                with pytest.raises(ValueError, match="positive"):
                    distinct_covers_on_box(route, bound)

    def test_a_tree_keyed_by_its_paths_raises_past_the_limit(self, monkeypatch):
        tree = rothberger_tree_corpus(N)["shifted_seg"]
        path_keys = ((), lambda path, i: path + (i,), tree.cover_at)
        by_path = TreeStrategy(space=N, cover_at_raw=tree.cover_at, keys=path_keys)
        monkeypatch.setattr("selectiongames.trees.BOX_LIMIT", 10)
        got = distinct_covers_on_box(by_path, (2, 5))
        assert list(map(id, got)) == list(map(id, distinct_covers_on_box(tree, (2, 5))))
        with pytest.raises(ResourceLimitError, match=r"more than 10 key states at level 1 below bound \(11,\)"):
            distinct_covers_on_box(by_path, (11,))
        with pytest.raises(ResourceLimitError, match=r"more than 10 key states at level 2 below bound \(5, 5, 1\)"):
            distinct_covers_on_box(by_path, (5, 5, 1))

    def test_a_level_past_the_limit_raises_before_it_is_built(self, monkeypatch):
        tree = rothberger_tree_corpus(N)["shifted_seg"]
        path_keys = ((), lambda path, i: path + (i,), tree.cover_at)
        by_path = TreeStrategy(space=N, cover_at_raw=tree.cover_at, keys=path_keys)
        monkeypatch.setattr("selectiongames.trees.BOX_LIMIT", 10)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=r"more than 10 key states at level 1 below bound \(300000,\)"):
                distinct_covers_on_box(by_path, (300_000,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestRothbergerCounterplay:
    def test_named_trees_win_and_are_legal(self):
        for name, tree in rothberger_tree_corpus(N).items():
            result = rothberger_counterplay(tree, select_sone, innings=12, horizon=4)
            assert evaluate_win(result.transcript, 4).bob_wins, name
            assert check_legal(result.transcript, strategy_from_tree(tree)), name
            for rec in result.transcript.innings:
                audit = rec.audit_dict()
                assert audit["pick"] <= audit["bound"]
                assert len(rec.selection) == 1

    def test_whole_tree_wins_from_inning_one(self):
        corpus = rothberger_tree_corpus(N)
        result = rothberger_counterplay(corpus["whole_head"], select_sone, innings=8, horizon=6)
        first = result.transcript.innings[0]
        assert member(first.selected_sets[0], N.point(5))

    def test_picked_path_is_consistent_with_audit(self):
        tree = rothberger_tree_corpus(N)["seg_tower"]
        result = rothberger_counterplay(tree, select_sone, innings=10, horizon=4)
        assert result.picked_path == tuple(r.audit_dict()["pick"] for r in result.transcript.innings)


# ---------------------------------------------------------------------------
# The Rothberger play as it was before its derived play resumed: each doubling
# of the innings reran the infinitely-often play from scratch. Kept verbatim as
# the reference, except that its play is `helpers.reference_infinitely_often_play`
# and it reads a point's multiplicity off the report's covering innings (what the
# removed `MultiplicityReport.multiplicity` returned).


@dataclass(frozen=True)
class ReferenceRothbergerResult:
    transcript: Transcript
    picked_path: Path
    bounds: Path
    menger_transcript: Transcript


def reference_rothberger_counterplay(
    tree: TreeStrategy,
    sone,
    innings: int,
    horizon: int = 5,
) -> ReferenceRothbergerResult:
    derived = menger_from_rothberger(tree)
    # run the finite-selection phase long enough that the point targeted at
    # stage i+1 is covered at i+1 distinct innings (multiplicity grows without
    # bound, so doubling terminates; the transcript only gets longer than
    # requested, never shorter)
    menger_innings = innings
    while True:
        menger_transcript, report, _ = reference_infinitely_often_play(derived, innings=menger_innings, horizon=horizon)
        pts = tree.space.points(horizon)
        if all(len(report.covering_innings.get(p.id, ())) >= i + 1 for i, p in enumerate(pts)):
            break
        if menger_innings >= innings * 8:
            raise BudgetError(
                f"infinitely-often multiplicity did not reach the stage schedule within {menger_innings} innings"
            )
        menger_innings *= 2

    # the derived-game covers and selections, replayed for structure
    sel_indices = [rec.selection for rec in menger_transcript.innings]
    selections = [
        FiniteSelection(cover, indices).sets() for cover, indices in zip(replay(derived, sel_indices), sel_indices)
    ]
    bounds = [max(indices) for indices in sel_indices]
    chosen = select_one_per_family(
        lambda i: selections[i - 1],
        count=len(selections),
        sone=sone,
        space=tree.space,
        horizon=horizon,
    )

    # recover the single-selection play: the pick at inning i is a diagonal
    # refinement member, so its factor record at every box node is its own
    # member index within the refinement cover
    picked_path = tuple(indices[pos - 1] for indices, (_, pos) in zip(sel_indices, chosen))
    for i, (k_i, m_i) in enumerate(zip(picked_path, bounds), start=1):
        if k_i > m_i:
            raise IntegrityError(f"recovered index {k_i} exceeds bound {m_i} at inning {i}")
    audits = [{"bound": m_i, "pick": k_i} for k_i, m_i in zip(picked_path, bounds)]
    return ReferenceRothbergerResult(
        transcript=path_transcript(tree, picked_path, ROTHBERGER_GAME, audits, f"single({tree.label})"),
        picked_path=picked_path,
        bounds=tuple(bounds),
        menger_transcript=menger_transcript,
    )


RESTARTING = ("shifted_seg", "mixed_adversarial", "seg_tower", "singletons")  # multiplicity short at 10 innings


class TestOnePlayPerCall:
    @pytest.mark.parametrize("name", RESTARTING)
    def test_matches_the_restarting_reference(self, name):
        want = reference_rothberger_counterplay(rothberger_tree_corpus(N)[name], select_sone, innings=10)
        got = rothberger_counterplay(rothberger_tree_corpus(N)[name], select_sone, innings=10)
        assert want.menger_transcript.truncated_at > 10  # the reference restarted
        assert transcript_records(got.transcript) == transcript_records(want.transcript)
        assert got.bounds == want.bounds
        assert got.picked_path == want.picked_path

    def test_each_derived_inning_is_played_once(self, monkeypatch):
        calls = []

        def counted(tree, path, *args):
            calls.append(path)
            return secure_child(tree, path, *args)

        monkeypatch.setattr(hurewicz, "secure_child", counted)
        rothberger_counterplay(rothberger_tree_corpus(N)["shifted_seg"], select_sone, innings=10)
        assert len(calls) == 40
        calls.clear()
        reference_rothberger_counterplay(rothberger_tree_corpus(N)["shifted_seg"], select_sone, innings=10)
        assert len(calls) == 10 + 20 + 40

    def test_zero_innings_rejected(self):
        with pytest.raises(ValueError, match="at least one inning"):
            rothberger_counterplay(rothberger_tree_corpus(N)["seg_tower"], select_sone, innings=0)
