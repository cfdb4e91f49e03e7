import pytest

from selectiongames.corpus import named_strategies, seeded_strategy, segment_cover
from selectiongames.covers import IndexedCover, is_cover_up_to, witness_of
from selectiongames.engine import AliceStrategy, check_legal
from selectiongames.pairing import pair
from selectiongames import products
from selectiongames.products import (
    infinitely_often_play,
    lift_strategy,
    lifted_cover,
    project_selection,
)
from selectiongames.scenarios import transcript_records
from selectiongames.spaces import CountableDiscrete, ProductSpace, describe, member, whole

from helpers import combine, reference_infinitely_often_play

N = CountableDiscrete()


class TestLiftedCover:
    def test_every_member_at_every_level(self):
        prod = ProductSpace(N)
        single = IndexedCover(N, sets=lambda j: whole(N), witness=lambda p: 1)
        lifted = lifted_cover(prod, single)
        # the lift of member 1 at levels 1..4 appears at indices pair(0, l-1)+1
        for level in (1, 2, 4):
            j = pair(0, level - 1) + 1
            s = lifted.sets(j)
            assert member(s, combine(prod, N.point(7), level))
            assert not member(s, combine(prod, N.point(7), level + 1))

    def test_whole_lift_covers_product(self):
        prod = ProductSpace(N)
        single = IndexedCover(N, sets=lambda j: whole(N), witness=lambda p: 1)
        lifted = lifted_cover(prod, single)
        assert is_cover_up_to(lifted, 40)

    def test_witness_via_pairing_arithmetic(self):
        prod = ProductSpace(N)
        lifted = lifted_cover(prod, segment_cover(N))
        target = combine(prod, N.point(3), 2)
        # independent computation: base witness of p3 in segments is 4, so
        # the lifted index encodes (4, level 2)
        expected = pair(4 - 1, 2 - 1) + 1
        assert witness_of(lifted, target) == expected

    def test_provenance_projects_to_base_member(self):
        prod = ProductSpace(N)
        lifted = lifted_cover(prod, segment_cover(N))
        j = pair(2, 5) + 1  # base member 3 at level 6
        assert lifted.provenance(j) == (3,)

    def test_first_hit_reads_no_lifted_member(self):
        prod = ProductSpace(N)
        lifted = lifted_cover(prod, segment_cover(N))
        target = combine(prod, N.point(4), 3)
        # base first hit of p4 in segments is 5, so the lift of member 5 at level 3
        expected = pair(5 - 1, 3 - 1) + 1
        assert lifted.first_hit(target, expected) == expected
        assert lifted.first_hit(target, expected - 1) == expected
        assert lifted._memo is None  # a scan would have made the table and read members 1..expected


class TestProjectSelection:
    def test_same_member_at_two_levels_deduplicates(self):
        prod = ProductSpace(N)
        assert project_selection(prod, (pair(0, 2) + 1, pair(0, 6) + 1)) == (1,)  # member 1 at levels 3 and 7

    def test_two_members(self):
        prod = ProductSpace(N)
        assert project_selection(prod, (pair(0, 0) + 1, pair(1, 1) + 1)) == (1, 2)

    def test_round_trip_with_lift(self):
        prod = ProductSpace(N)
        lifted = lifted_cover(prod, segment_cover(N))
        base_indices = (2, 5)
        lifted_indices = tuple(pair(i - 1, level) + 1 for i in base_indices for level in (0, 3))
        assert project_selection(prod, lifted_indices) == base_indices
        assert tuple(sorted({lifted.provenance(j)[0] for j in lifted_indices})) == base_indices


class TestLiftStrategy:
    def test_lifted_moves_follow_projected_history(self):
        alice = named_strategies(N)["shifted_seg"]
        prod, lifted, _ = lift_strategy(alice)
        reply = lifted.move(((pair(2, 1) + 1,),))  # base member 3 at level 2
        # base strategy shifted by max projected index (3)
        base_reply = alice.move(((3,),))
        target = combine(prod, N.point(0), 1)
        base_target = N.point(0)
        assert member(reply.sets(1), target) == member(base_reply.sets(1), base_target)
        expected = lifted_cover(prod, base_reply)
        assert [describe(reply.sets(j)) for j in range(1, 30)] == [describe(expected.sets(j)) for j in range(1, 30)]


def reference_projection_key(product, moves):
    """The projection key lift_strategy.move computed on every call before
    projections were kept per selection."""
    projected = tuple(project_selection(product, indices) for indices in moves)
    return projected


class TestLiftStrategyMemo:
    def test_repeated_moves_return_one_cover_and_project_once(self, monkeypatch):
        calls = []

        def counted(product, indices):
            calls.append(indices)
            return project_selection(product, indices)

        monkeypatch.setattr(products, "project_selection", counted)
        alice = named_strategies(N)["shifted_seg"]
        prod, lifted, _ = lift_strategy(alice)
        first = (pair(2, 1) + 1, pair(0, 4) + 1)  # members 3 and 1
        reply = lifted.move((first,))
        second = (pair(1, 0) + 1,)  # member 2
        moves = (first, second)
        cover = lifted.move(moves)
        projected_calls = len(calls)
        assert projected_calls == 2  # one projection per distinct selection
        for _ in range(3):
            assert lifted.move(moves) is cover
        assert len(calls) == projected_calls
        # another lifted move sequence with the same reference key gives the same cover
        same = (pair(0, 0) + 1, pair(2, 5) + 1)
        assert reference_projection_key(prod, (same, second)) == reference_projection_key(prod, moves)
        assert lifted.move((same, second)) is cover
        # and a different key a different one
        other = (pair(3, 0) + 1,)
        assert reference_projection_key(prod, (other,)) != reference_projection_key(prod, (first,))
        assert lifted.move((other,)) is not reply


class TestInfinitelyOften:
    def test_whole_head_covers_every_inning(self):
        alice = named_strategies(N)["whole_head"]
        transcript, report, _ = infinitely_often_play(alice, innings=6, horizon=4)
        for pid, innings in report.covering_innings.items():
            assert len(innings) == transcript.truncated_at

    def test_multiplicity_at_grid(self):
        for name in ("seg_tower", "shifted_seg", "mixed_adversarial"):
            alice = named_strategies(N)[name]
            _, report, _ = infinitely_often_play(alice, innings=25, horizon=5)
            assert report.min_multiplicity() >= 2, name

    def test_multiplicity_nondecreasing_in_innings(self):
        alice = seeded_strategy(N, 5)
        _, r1, _ = infinitely_often_play(alice, innings=12, horizon=4)
        _, r2, _ = infinitely_often_play(alice, innings=24, horizon=4)
        for pid in r1.covering_innings:
            assert len(r2.covering_innings[pid]) >= len(r1.covering_innings[pid])

    def test_the_base_strategy_is_asked_once_per_move_sequence(self):
        """The play reads each inning's base cover from the lift that the
        lifted strategy built, so a base strategy building its cover on every
        call builds each one once."""
        alice = named_strategies(N)["mixed_adversarial"]
        asked: list = []
        wrapped = AliceStrategy(space=N, move=lambda moves: asked.append(moves) or alice.move(moves), name=alice.name)
        transcript, _, _ = infinitely_often_play(wrapped, innings=30, horizon=5)
        assert len(asked) == len(set(asked)) == 30
        assert check_legal(transcript, alice)

    def test_projected_transcript_is_legal(self):
        for name in ("seg_tower", "singletons", "mixed_adversarial"):
            alice = named_strategies(N)[name]
            transcript, _, _ = infinitely_often_play(alice, innings=10, horizon=4)
            assert check_legal(transcript, alice), name


NAMED = ("seg_tower", "shifted_seg", "singletons", "whole_head", "mixed_adversarial")


class TestAgainstTheReferencePlay:
    """The play read off the resumable counterplay against the one that
    emitted, and then discarded, a transcript of the lifted play
    (`helpers.reference_infinitely_often_play`)."""

    @pytest.mark.parametrize("innings", (20, 30))
    @pytest.mark.parametrize("name", NAMED)
    def test_records_and_report_match(self, name, innings):
        want, want_report, lifted = reference_infinitely_often_play(named_strategies(N)[name], innings, horizon=5)
        transcript, report, lifted_path = infinitely_often_play(named_strategies(N)[name], innings, horizon=5)
        assert transcript_records(transcript) == transcript_records(want)
        assert report == want_report
        assert lifted_path == lifted.tree_path

    def test_zero_innings_rejected(self):
        with pytest.raises(ValueError, match="at least one inning"):
            infinitely_often_play(named_strategies(N)["seg_tower"], innings=0)
