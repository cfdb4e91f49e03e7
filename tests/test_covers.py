import pytest

from selectiongames.corpus import segment_cover, singleton_cover
from selectiongames.covers import (
    CofiniteSpec,
    FiniteSelection,
    IndexedCover,
    head_normalize,
    increasing_form,
    is_cover_up_to,
    witness_of,
)
from selectiongames.errors import CrossSpaceError, IntegrityError
from selectiongames.spaces import (
    CountableDiscrete,
    initial_segment,
    member,
    singleton,
    whole,
)

from helpers import Empty, extensionally_equal, is_large_up_to

N = CountableDiscrete()


def seg_cover():
    return segment_cover(N)


def sing_cover():
    return singleton_cover(N)


def whole_first_cover():
    return IndexedCover(N, sets=lambda j: whole(N) if j == 1 else initial_segment(N, j - 2), witness=lambda p: 1)


class TestWitness:
    def test_witness_by_direct_scan_on_segments(self):
        # independent scan: least j with p4 in Seg(j-1) is 5
        cover = seg_cover()
        p4 = N.point(4)
        expected = next(j for j in range(1, 20) if member(cover.sets(j), p4))
        assert expected == 5
        assert witness_of(cover, p4) == 5

    def test_whole_first_witness(self):
        assert witness_of(whole_first_cover(), N.point(9)) == 1

    def test_witness_by_direct_scan_on_singletons(self):
        cover = sing_cover()
        p2 = N.point(2)
        expected = next(j for j in range(1, 20) if member(cover.sets(j), p2))
        assert expected == 3
        assert witness_of(cover, p2) == 3

    def test_broken_witness_raises_integrity_error(self):
        broken = IndexedCover(N, sets=lambda j: initial_segment(N, j - 1), witness=lambda p: 1)
        with pytest.raises(IntegrityError):
            witness_of(broken, N.point(5))

    def test_the_witness_function_runs_once_per_point(self):
        """A plain cover asks its witness function once per point id; a point
        of another space is refused before the function runs, and a raise is
        not stored."""
        calls = []

        def witness(p):
            calls.append(p.id)
            if p.id == 3 and calls.count(3) == 1:
                raise IntegrityError("first query of p3")
            return p.id + 1

        cover = IndexedCover(N, sets=lambda j: initial_segment(N, j), witness=witness)
        assert [cover.witness(N.point(i)) for i in (0, 2, 0, 2)] == [1, 3, 1, 3]
        with pytest.raises(CrossSpaceError):
            cover.witness(CountableDiscrete("M").point(4))
        with pytest.raises(IntegrityError):
            cover.witness(N.point(3))
        assert cover.witness(N.point(3)) == cover.witness(N.point(3)) == 4
        assert calls == [0, 2, 3, 3]


class TestIsCover:
    def test_segment_cover_passes(self):
        assert is_cover_up_to(seg_cover(), 100)

    def test_empty_sets_fail_at_first_point(self):
        bad = IndexedCover(N, sets=lambda j: Empty(N), witness=lambda p: 1)
        verdict = is_cover_up_to(bad, 1)
        assert not verdict
        assert verdict.failing_point.id == 0

    def test_zero_horizon_is_vacuous(self):
        bad = IndexedCover(N, sets=lambda j: Empty(N), witness=lambda p: 1)
        assert is_cover_up_to(bad, 0)


class TestIncreasingForm:
    def test_members_are_cumulative_unions(self):
        cover = sing_cover()  # {p0}, {p1}, ...
        inc = increasing_form(cover)
        # {A, A|B, A|B|C, ...}: the j-th member contains exactly p0..p_{j-1}
        for j in (1, 2, 4):
            assert extensionally_equal(inc.sets(j), initial_segment(N, j - 1), N, horizon=20)
        assert inc.increasing

    def test_on_already_increasing_cover_is_extensionally_identity(self):
        inc = increasing_form(seg_cover())
        for j in (1, 3, 5):
            assert extensionally_equal(inc.sets(j), initial_segment(N, j - 1), N, horizon=25)

    def test_whole_first_makes_everything_whole(self):
        inc = increasing_form(whole_first_cover())
        for j in (1, 2, 3):
            assert extensionally_equal(inc.sets(j), whole(N), N, horizon=15)

    def test_provenance_backmaps_to_initial_selection(self):
        inc = increasing_form(seg_cover())
        assert inc.provenance(3) == (1, 2, 3)

    def test_monotone_and_witness_transported(self):
        inc = increasing_form(sing_cover())
        for j in range(1, 6):
            for i in range(12):
                p = N.point(i)
                assert not member(inc.sets(j), p) or member(inc.sets(j + 1), p)
        assert is_cover_up_to(inc, 40)


class TestHeadNormalize:
    def test_structure(self):
        reply = increasing_form(sing_cover())
        chosen = initial_segment(N, 5)
        headed = head_normalize(chosen, reply)
        assert headed.sets(1) is chosen
        # j-th set for j >= 2 is Seg(max(5, j-2)) extensionally
        for j in range(2, 8):
            assert extensionally_equal(headed.sets(j), initial_segment(N, max(5, j - 2)), N, horizon=25)
        assert is_cover_up_to(headed, 30)

    def test_whole_chosen_makes_everything_whole(self):
        headed = head_normalize(whole(N), increasing_form(seg_cover()))
        for j in (1, 2, 5):
            assert extensionally_equal(headed.sets(j), whole(N), N, horizon=15)

    def test_provenance(self):
        headed = head_normalize(initial_segment(N, 5), increasing_form(seg_cover()))
        assert headed.provenance(1) == (1,)
        assert headed.provenance(4) == (3,)

    def test_requires_increasing_reply(self):
        with pytest.raises(ValueError):
            head_normalize(whole(N), sing_cover())


class TestIsLarge:
    def test_segments_are_large(self):
        sets = [initial_segment(N, m) for m in range(10)]
        assert is_large_up_to(sets, horizon=3, multiplicity=2, budget=10)

    def test_singletons_are_not_large(self):
        sets = [singleton(N, i) for i in range(10)]
        verdict = is_large_up_to(sets, horizon=2, multiplicity=2, budget=10)
        assert not verdict

    def test_zero_horizon_vacuous(self):
        sets = [initial_segment(N, 0)]
        assert is_large_up_to(sets, horizon=0, multiplicity=5, budget=10)


class TestFiniteSelection:
    def test_rejects_empty_and_duplicates(self):
        cover = seg_cover()
        with pytest.raises(ValueError):
            FiniteSelection(cover, ())
        with pytest.raises(ValueError):
            FiniteSelection(cover, (1, 1))
        with pytest.raises(ValueError):
            FiniteSelection(cover, (0,))


class TestCofiniteSpec:
    def test_zero_and_negative_indices_rejected(self):
        for bad in ({0}, {-3}, {2, 0, 5}, {4, -1}):
            with pytest.raises(ValueError, match="excluded indices are 1-based"):
                CofiniteSpec(frozenset(bad))

    def test_empty_and_wide_specs_accepted(self):
        assert CofiniteSpec(frozenset()).min_surviving() == 1
        wide = CofiniteSpec(frozenset(range(1, 30_001)))
        assert wide.min_surviving() == 30_001
