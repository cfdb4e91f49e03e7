from itertools import islice

import pytest

from selectiongames.corpus import segment_cover, singleton_cover
from selectiongames.covers import IndexedCover
from selectiongames.errors import IntegrityError
from selectiongames.selectors import select_sone
from selectiongames.spaces import CountableDiscrete, FiniteTopological, from_ids, member, whole

from helpers import select_sfin

N = CountableDiscrete()


def wholes_cover():
    return IndexedCover(N, sets=lambda j: whole(N), witness=lambda p: 1, increasing=True)


def take(it, n):
    return list(islice(it, n))


class TestFiniteSelector:
    def test_segment_covers_select_the_subsuming_index(self):
        sels = take(select_sfin(N, lambda n: segment_cover(N)), 4)
        assert [s.indices for s in sels] == [(1,), (2,), (3,), (4,)]

    def test_whole_covers_select_index_one(self):
        sels = take(select_sfin(N, lambda n: wholes_cover()), 3)
        assert [s.indices for s in sels] == [(1,), (1,), (1,)]

    def test_singleton_covers_select_all_witnesses(self):
        sels = take(select_sfin(N, lambda n: singleton_cover(N)), 3)
        assert [s.indices for s in sels] == [(1,), (1, 2), (1, 2, 3)]

    def test_prefix_coverage_invariant(self):
        for covers in (lambda n: segment_cover(N), lambda n: singleton_cover(N)):
            sels = take(select_sfin(N, covers), 8)
            for h in range(1, 9):
                chosen = [s for sel in sels[:h] for s in sel.sets()]
                for i in range(h):
                    assert any(member(s, N.point(i)) for s in chosen)

    def test_deterministic(self):
        a = [s.indices for s in take(select_sfin(N, lambda n: singleton_cover(N)), 5)]
        b = [s.indices for s in take(select_sfin(N, lambda n: singleton_cover(N)), 5)]
        assert a == b

    def test_broken_witness_propagates(self):
        bad = IndexedCover(N, sets=lambda j: singleton_cover(N).sets(j), witness=lambda p: 1)
        gen = select_sfin(N, lambda n: bad)
        next(gen)  # p0 is in {p0}: fine
        with pytest.raises(IntegrityError):
            next(gen)


class TestSingleSelector:
    def test_segment_covers(self):
        assert take(select_sone(N, lambda n: segment_cover(N)), 4) == [1, 2, 3, 4]

    def test_whole_covers(self):
        assert take(select_sone(N, lambda n: wholes_cover()), 3) == [1, 1, 1]

    def test_singleton_covers(self):
        assert take(select_sone(N, lambda n: singleton_cover(N)), 4) == [1, 2, 3, 4]

    def test_prefix_coverage_invariant(self):
        picks = take(select_sone(N, lambda n: singleton_cover(N)), 6)
        chosen = [singleton_cover(N).sets(j) for j in picks]
        for h in range(1, 7):
            for i in range(h):
                assert any(member(s, N.point(i)) for s in chosen[:h])

    def test_clamped_on_finite_models(self):
        space = FiniteTopological.discrete(2)
        cover = IndexedCover(
            space,
            sets=lambda j: from_ids(space, {0, 1}, label=f"w{j}"),
            witness=lambda p: 1,
        )
        assert take(select_sone(space, lambda n: cover), 4) == [1, 1, 1, 1]
