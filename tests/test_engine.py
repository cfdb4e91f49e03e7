import dataclasses
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from selectiongames import engine, rothberger, solver
from selectiongames.corpus import (
    bundled_instances,
    named_strategies,
    rothberger_tree_corpus,
    segment_cover,
    whole_head_cover,
)
from selectiongames.covers import FiniteSelection, IndexedCover
from selectiongames.engine import (
    AliceStrategy,
    GameKind,
    Inning,
    MENGER_GAME,
    Moves,
    ROTHBERGER_GAME,
    Transcript,
    WinReport,
    check_legal,
    evaluate_win,
    make_inning,
)
from selectiongames.errors import LegalityError
from selectiongames.hurewicz import bob_counterplay_menger, normalize_strategy
from selectiongames.products import infinitely_often_play
from selectiongames.rothberger import rothberger_counterplay
from selectiongames.selectors import select_sone
from selectiongames.solver import counterplay_bob_strategy, cross_check, deterministic_strategy
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
from selectiongames.trees import strategy_from_tree

N = CountableDiscrete()


@dataclass(frozen=True, eq=False)
class BobStrategy:
    """A deterministic second-player strategy:
    (cover just played, inning number, own prior index moves) -> selection."""

    move: Callable[[IndexedCover, int, Moves], FiniteSelection]
    name: str = ""


def run_play(game: GameKind, alice: AliceStrategy, bob: BobStrategy, innings: int) -> Transcript:
    """Drive a full play of `innings` innings and record it.

    Each cover is the first player's move on the index moves so far;
    each selection is the second player's reply to that cover. A selection
    with invalid indices raises :class:`LegalityError` naming the inning.
    """
    if innings < 1:
        raise ValueError("a play needs at least one inning")
    moves: Moves = ()
    records: list[Inning] = []
    for n in range(1, innings + 1):
        cover = alice.move(moves)
        sel = bob.move(cover, n, moves)
        if sel.cover is not cover:
            raise LegalityError(f"inning {n}: selection does not reference the played cover", inning=n)
        records.append(make_inning(game, n, cover, sel.indices))
        moves = moves + (sel.indices,)
    return Transcript(game=game, innings=tuple(records), label=f"play({alice.name or 'alice'})")


def memo_strategy(cover_for, name):
    memo = {}

    def move(moves):
        if moves not in memo:
            memo[moves] = cover_for(moves)
        return memo[moves]

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


def moves_only(alice: AliceStrategy, calls: dict[str, int], label: str) -> AliceStrategy:
    """`alice`, asserting that every argument is a tuple of legal index moves
    (nonempty tuples of distinct positive ints), and counting calls under
    `label`."""

    def move(moves):
        assert type(moves) is tuple, moves
        for indices in moves:
            assert type(indices) is tuple and indices and len(set(indices)) == len(indices), moves
            assert all(type(i) is int and i >= 1 for i in indices), moves
        calls[label] = calls.get(label, 0) + 1
        return alice.move(moves)

    return AliceStrategy(space=alice.space, move=move, name=alice.name)


class TestStrategiesSeeIndexMoves:
    def test_every_construction_hands_strategies_legal_index_moves(self, monkeypatch):
        calls: dict[str, int] = {}
        shifted = named_strategies(N)["shifted_seg"]
        alice = moves_only(shifted, calls, "menger")
        menger = bob_counterplay_menger(normalize_strategy(alice, N, finite_win_horizon=6), raw=alice, innings=6)
        assert check_legal(menger.transcript, alice)
        often = moves_only(shifted, calls, "often")
        assert check_legal(infinitely_often_play(often, innings=8, horizon=4)[0], often)

        derive = rothberger.menger_from_rothberger
        monkeypatch.setattr(
            rothberger,
            "menger_from_rothberger",
            lambda tree: moves_only(derive(tree), calls, "derived"),
        )
        tree = rothberger_tree_corpus(N)["shifted_seg"]
        single = rothberger_counterplay(tree, select_sone, innings=6).transcript
        assert check_legal(single, moves_only(strategy_from_tree(tree), calls, "tree"))

        inst = bundled_instances()["three_point_singletons"]
        line = moves_only(deterministic_strategy(inst), calls, "line")
        assert check_legal(bob_counterplay_menger(normalize_strategy(line), raw=line, innings=3).transcript, line)
        determine = solver.deterministic_strategy
        monkeypatch.setattr(
            solver, "deterministic_strategy", lambda instance, option: moves_only(determine(instance, option), calls, "cross")
        )
        assert cross_check(counterplay_bob_strategy(inst), inst, MENGER_GAME, selection_cap=3)
        assert set(calls) == {"menger", "often", "derived", "tree", "line", "cross"}

        # a tampered selection is a verdict before it reaches the strategy
        for change in ((0,), (), (2, 2)):
            innings = list(menger.transcript.innings)
            innings[1] = dataclasses.replace(innings[1], selection=change)
            verdict = check_legal(dataclasses.replace(menger.transcript, innings=tuple(innings)), alice)
            assert (verdict.ok, verdict.failing_inning) == (False, 2), change
