import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from selectiongames import engine
from selectiongames.corpus import segment_cover, whole_head_cover
from selectiongames.covers import FiniteSelection, IndexedCover
from selectiongames.engine import (
    AliceStrategy,
    GameKind,
    History,
    Inning,
    MENGER_GAME,
    ROTHBERGER_GAME,
    Transcript,
    WinReport,
    check_legal,
    evaluate_win,
    make_inning,
)
from selectiongames.errors import LegalityError
from selectiongames.spaces import (
    CountableDiscrete,
    FiniteUnion,
    OpenSet,
    describe,
    initial_segment,
    member,
    singleton,
    whole,
)

import helpers

N = CountableDiscrete()


@dataclass(frozen=True, eq=False)
class BobStrategy:
    """A deterministic second-player strategy:
    (cover just played, inning number, own prior selections) -> selection."""

    move: Callable[[IndexedCover, int, History], FiniteSelection]
    name: str = ""


def run_play(game: GameKind, alice: AliceStrategy, bob: BobStrategy, innings: int) -> Transcript:
    """Drive a full play of `innings` innings and record it.

    Each cover is the first player's move on the selection history so far;
    each selection is the second player's reply to that cover. A selection
    with invalid indices raises :class:`LegalityError` naming the inning.
    """
    if innings < 1:
        raise ValueError("a play needs at least one inning")
    history: History = ()
    records: list[Inning] = []
    for n in range(1, innings + 1):
        cover = alice.move(history)
        sel = bob.move(cover, n, history)
        if sel.cover is not cover:
            raise LegalityError(f"inning {n}: selection does not reference the played cover", inning=n)
        records.append(make_inning(game, n, cover, sel.indices))
        history = history + (sel,)
    return Transcript(game=game, innings=tuple(records), label=f"play({alice.name or 'alice'})")


def memo_strategy(cover_for, name):
    memo = {}

    def move(history):
        key = tuple(sel.indices for sel in history)
        if key not in memo:
            memo[key] = cover_for(key)
        return memo[key]

    return AliceStrategy(space=N, move=move, name=name)


def always_segments():
    return memo_strategy(lambda key: segment_cover(N), "segments")


def pick_inning_number():
    return BobStrategy(move=lambda cover, n, hist: FiniteSelection(cover, (n,)), name="diag")


class TestRunPlay:
    def test_direct_simulation(self):
        t = run_play(MENGER_GAME, always_segments(), pick_inning_number(), 3)
        assert t.truncated_at == 3
        assert [rec.selection for rec in t.innings] == [(1,), (2,), (3,)]
        # the selected sets are Seg(0), Seg(1), Seg(2): evaluate directly
        win = evaluate_win(t, 3)
        assert win.bob_wins

    def test_whole_first_single_game_one_inning(self):
        alice = memo_strategy(lambda key: whole_head_cover(N), "wholes")
        bob = BobStrategy(move=lambda cover, n, hist: FiniteSelection(cover, (1,)))
        t = run_play(ROTHBERGER_GAME, alice, bob, 1)
        assert evaluate_win(t, 50).bob_wins

    def test_zero_innings_rejected(self):
        with pytest.raises(ValueError):
            run_play(MENGER_GAME, always_segments(), pick_inning_number(), 0)

    def test_single_arity_enforced(self):
        bob = BobStrategy(move=lambda cover, n, hist: FiniteSelection(cover, (1, 2)))
        with pytest.raises(LegalityError):
            run_play(ROTHBERGER_GAME, always_segments(), bob, 1)

    def test_deterministic(self):
        t1 = run_play(MENGER_GAME, always_segments(), pick_inning_number(), 4)
        t2 = run_play(MENGER_GAME, always_segments(), pick_inning_number(), 4)
        assert [r.cover_prefix for r in t1.innings] == [r.cover_prefix for r in t2.innings]
        assert [r.selection for r in t1.innings] == [r.selection for r in t2.innings]


class TestCheckLegal:
    def test_round_trip(self):
        alice = always_segments()
        t = run_play(MENGER_GAME, alice, pick_inning_number(), 3)
        assert check_legal(t, alice)

    def test_detects_divergent_strategy(self):
        # strategy B differs from inning 2 on: covers shift by the last pick
        alice_a = always_segments()

        def cover_b(key):
            shift = max(key[-1]) if key else 0
            return segment_cover(N, shift=shift + 1) if key else segment_cover(N)

        alice_b = memo_strategy(cover_b, "shifted")
        t = run_play(MENGER_GAME, alice_a, pick_inning_number(), 3)
        verdict = check_legal(t, alice_b)
        assert not verdict
        assert verdict.failing_inning == 2

    def test_detects_invalid_index(self):
        alice = always_segments()
        t = run_play(MENGER_GAME, alice, pick_inning_number(), 2)
        bad_inning = t.innings[1]
        hacked = type(t)(
            game=t.game,
            innings=(t.innings[0], type(bad_inning)(
                number=bad_inning.number,
                cover_prefix=bad_inning.cover_prefix,
                selection=(2, 2),
                selected_sets=bad_inning.selected_sets,
            )),
        )
        verdict = check_legal(hacked, alice)
        assert not verdict
        assert verdict.failing_inning == 2


    @pytest.mark.parametrize(
        "game, inning, change, reason",
        [
            (MENGER_GAME, 2, {"cover_prefix": (("other",),)}, "cover diverges from strategy"),
            (MENGER_GAME, 1, {"selection": (0,)}, "invalid selection indices"),
            (MENGER_GAME, 2, {"selection": (2, 2)}, "duplicate selection indices"),
            (ROTHBERGER_GAME, 2, {"selection": (1, 2)}, "single-selection game with several indices"),
        ],
    )
    def test_each_reason_is_a_verdict_at_its_inning(self, game, inning, change, reason):
        # the tampered inning is not the last of three: the replay must stop
        # there without building a selection from the bad indices
        alice = always_segments()
        t = run_play(game, alice, pick_inning_number(), 3)
        innings = list(t.innings)
        innings[inning - 1] = dataclasses.replace(innings[inning - 1], **change)
        verdict = check_legal(dataclasses.replace(t, innings=tuple(innings)), alice)
        assert not verdict
        assert (verdict.reason, verdict.failing_inning) == (reason, inning)


class TestEvaluateWin:
    def test_uncovered_points_reported(self):
        alice = always_segments()
        bob = BobStrategy(move=lambda cover, n, hist: FiniteSelection(cover, (1,)))
        t = run_play(MENGER_GAME, alice, bob, 3)  # only Seg(0) selected
        win = evaluate_win(t, 3)
        assert win.winner == "alice"
        assert win.uncovered == (1, 2)

    def test_zero_horizon_bob_wins(self):
        alice = always_segments()
        t = run_play(MENGER_GAME, alice, pick_inning_number(), 1)
        assert evaluate_win(t, 0).bob_wins

    def test_monotone_in_horizon(self):
        t = run_play(MENGER_GAME, always_segments(), pick_inning_number(), 4)
        wins = [evaluate_win(t, h).bob_wins for h in range(0, 8)]
        # once lost, never won again as the horizon grows
        assert wins == sorted(wins, reverse=True)

    def test_large_union_multiplicity(self):
        alice = always_segments()
        bob = BobStrategy(move=lambda cover, n, hist: FiniteSelection(cover, (n + 1,)))
        t = run_play(GameKind("finite", 2), alice, bob, 4)
        # selections Seg(1), Seg(2), Seg(3), Seg(4): p0 in all four, p3 in two
        win = evaluate_win(t, 3)
        assert win.bob_wins
        assert win.coverage[0] == 4


# ---------------------------------------------------------------------------
# `evaluate_win` as it was before it counted each description once: every
# horizon point against every selected set. Kept verbatim as the reference.


def reference_evaluate_win(t: Transcript, horizon: int) -> WinReport:
    chosen: list[OpenSet] = []
    for rec in t.innings:
        if rec.selected_sets is None:
            raise ValueError("transcript was parsed from records and has no live sets")
        chosen.extend(rec.selected_sets)
    space = None
    for s in chosen:
        space = s.space_hint()
        if space is not None:
            break
    if space is None and horizon > 0:
        raise ValueError("cannot infer the space from the transcript")
    need = t.game.multiplicity
    uncovered: list[int] = []
    coverage: dict[int, int] = {}
    for p in space.points(horizon) if space is not None else []:
        distinct: set[tuple] = set()
        for s in chosen:
            if member(s, p):
                distinct.add(describe(s))
        coverage[p.id] = len(distinct)
        if len(distinct) < need:
            uncovered.append(p.id)
    winner = "bob" if not uncovered else "alice"
    return WinReport(winner=winner, horizon=horizon, uncovered=tuple(uncovered), coverage=coverage)


def fresh_sets():
    """Sets built anew on every draw, so equal descriptions come from
    distinct objects."""
    small = st.integers(min_value=0, max_value=6)
    leaf = st.one_of(
        small.map(lambda m: initial_segment(N, m)),
        small.map(lambda i: singleton(N, i)),
        st.just(None).map(lambda _: whole(N)),
    )
    return st.one_of(leaf, st.tuples(small, small).map(lambda ij: FiniteUnion(parts=(singleton(N, ij[0]), singleton(N, ij[1])))))


@st.composite
def transcripts(draw):
    innings = draw(st.lists(st.lists(fresh_sets(), min_size=1, max_size=4), min_size=1, max_size=6))
    records = tuple(
        Inning(number=n, cover_prefix=(), selection=tuple(range(1, len(sets) + 1)), selected_sets=tuple(sets))
        for n, sets in enumerate(innings, start=1)
    )
    return Transcript(game=GameKind("finite", draw(st.integers(min_value=1, max_value=3))), innings=records)


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


class TestEvaluateWinAgainstTheReference:
    @settings(max_examples=150, deadline=None)
    @given(transcripts(), st.integers(min_value=0, max_value=9))
    def test_same_report(self, t, horizon):
        assert evaluate_win(t, horizon) == reference_evaluate_win(t, horizon)

    @settings(max_examples=40, deadline=None)
    @given(transcripts(), st.integers(min_value=0, max_value=9), st.data())
    def test_parsed_transcript_raises(self, t, horizon, data):
        k = data.draw(st.integers(min_value=0, max_value=len(t.innings) - 1))
        parsed = dataclasses.replace(
            t, innings=t.innings[:k] + (dataclasses.replace(t.innings[k], selected_sets=None),) + t.innings[k + 1 :]
        )
        with pytest.raises(ValueError, match="no live sets"):
            evaluate_win(parsed, horizon)
        assert _outcome(lambda: evaluate_win(parsed, horizon)) == _outcome(lambda: reference_evaluate_win(parsed, horizon))

    def test_members_tested_once_per_description(self, monkeypatch):
        # selections {1..n} of the segment cover repeat every earlier segment
        bob = BobStrategy(move=lambda cover, n, hist: FiniteSelection(cover, tuple(range(1, n + 1))))
        t = run_play(GameKind("finite", 3), always_segments(), bob, 8)
        calls = []
        real = engine.member
        monkeypatch.setattr(engine, "member", lambda s, p: calls.append(p.id) or real(s, p))
        win = evaluate_win(t, 6)
        distinct = {describe(s) for rec in t.innings for s in rec.selected_sets}
        assert len(distinct) == 8 and sum(len(rec.selected_sets) for rec in t.innings) == 36
        assert len(calls) <= len(distinct) * 6
        assert win == reference_evaluate_win(t, 6)


class TestCoverAfter:
    """`cover_after` against the walk it replaced, which rebuilt a node's
    whole history from its parent's covers (`helpers.reference_cover_after`)."""

    @staticmethod
    def recording_strategy():
        """A history-dependent strategy that records every history it is asked
        about: the cover shifts by the largest index selected so far."""
        seen = []

        def move(history):
            seen.append(history)
            return segment_cover(N, shift=sum(max(sel.indices) for sel in history))

        return AliceStrategy(space=N, move=move, name="recording"), seen

    @staticmethod
    def counting(monkeypatch, module):
        built = []

        def counted(cover, indices):
            built.append(indices)
            return FiniteSelection(cover, indices)

        monkeypatch.setattr(module, "FiniteSelection", counted)
        return built

    def test_a_depth_n_path_builds_n_selections(self, monkeypatch):
        n = 12
        moves = tuple((i, i + 1) for i in range(1, n + 1))
        built = self.counting(monkeypatch, engine)
        alice, seen = self.recording_strategy()
        engine.cover_after(alice)(moves)
        assert len(built) == n
        assert len(seen) == n + 1
        built = self.counting(monkeypatch, helpers)
        helpers.reference_cover_after(self.recording_strategy()[0])(moves)
        assert len(built) == n * (n + 1) // 2

    def test_a_child_history_reuses_its_parents_selections(self):
        alice, seen = self.recording_strategy()
        after = engine.cover_after(alice)
        parent = ((2,), (1, 3))
        parent_cover = after(parent)
        for child in ((1,), (4, 2)):
            after(parent + (child,))
        parent_history, *children = seen[-3:]
        assert [sel.indices for sel in parent_history] == list(parent)
        for history, child in zip(children, ((1,), (4, 2))):
            assert len(history) == len(parent_history) + 1
            assert all(a is b for a, b in zip(history, parent_history))
            assert history[-1].cover is parent_cover and history[-1].indices == child
        assert after(parent) is parent_cover and len(seen) == 5  # kept, not asked again

    def test_covers_match_the_reference(self):
        after = engine.cover_after(self.recording_strategy()[0])
        reference = helpers.reference_cover_after(self.recording_strategy()[0])
        for depth in range(4):
            for moves in itertools.product(((1,), (2,), (1, 3)), repeat=depth):
                assert engine.cover_prefix(after(moves), 6) == engine.cover_prefix(reference(moves), 6), moves
