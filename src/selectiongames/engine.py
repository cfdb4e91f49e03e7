"""Plays the selection games, records transcripts, checks legality, and
evaluates win conditions.

Games are truncated at a finite inning count and win evaluation is
horizon-relative: the theorems' "Bob wins" conclusions are checked as "for
every horizon there is an inning count that suffices", with (horizon,
innings) pairs fixed per test scenario.

A first-player strategy is a function of the second player's index moves
so far (`Moves`, one index tuple per inning) to its next cover. Transcripts
store, per inning, a structural description of a prefix of the cover that
was played plus the selected indices. Legality checking replays the strategy
against the recorded indices and compares descriptions, so it needs no live
set objects; win evaluation does need them, and is only available on
transcripts that still carry their selected sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from .covers import FiniteSelection, IndexedCover, Verdict
from .errors import LegalityError
from .spaces import OpenSet, Point, SpaceModel, describe, member

Moves = tuple[tuple[int, ...], ...]  # the second player's index moves, one tuple per inning


@dataclass(frozen=True)
class GameKind:
    """Selector arity plus win condition.

    arity "finite" lets the second player select finitely many members per
    inning, "single" exactly one. multiplicity 1 is the plain union-covers
    win; k > 1 requires every point to lie in k structurally distinct
    selected sets (the large-cover variant).
    """

    arity: str
    multiplicity: int = 1

    def __post_init__(self):
        if self.arity not in ("finite", "single"):
            raise ValueError("arity must be 'finite' or 'single'")
        if self.multiplicity < 1:
            raise ValueError("win multiplicity must be positive")


MENGER_GAME = GameKind("finite", 1)
ROTHBERGER_GAME = GameKind("single", 1)


@dataclass(frozen=True, eq=False)
class AliceStrategy:
    """A deterministic first-player strategy: the second player's index
    moves so far -> next cover."""

    space: SpaceModel
    move: Callable[[Moves], IndexedCover]
    name: str = ""


def memoized_strategy(space: SpaceModel, name: str, cover_for: Callable[[Moves], IndexedCover]) -> AliceStrategy:
    """The strategy playing `cover_for(moves)`, built once per move sequence
    and kept for as long as the strategy lives."""
    memo: dict[Moves, IndexedCover] = {}

    def move(moves: Moves) -> IndexedCover:
        hit = memo.get(moves)
        if hit is None:
            hit = memo[moves] = cover_for(moves)
        return hit

    return AliceStrategy(space=space, move=move, name=name)


@dataclass(frozen=True)
class Inning:
    """One recorded inning. `cover_prefix` describes the first few members of
    the cover played (at least up to the largest selected index);
    `original_move` is the back-translated move of the pre-normalization
    strategy when one exists."""

    number: int
    cover_prefix: tuple[tuple, ...]
    selection: tuple[int, ...]
    selected_sets: tuple[OpenSet, ...] | None = None
    original_move: tuple[int, ...] | None = None
    audit: tuple[tuple[str, Any], ...] = ()

    def audit_dict(self) -> dict[str, Any]:
        return dict(self.audit)


@dataclass(frozen=True)
class Transcript:
    game: GameKind
    innings: tuple[Inning, ...]
    label: str = ""

    @property
    def truncated_at(self) -> int:
        return len(self.innings)


def cover_prefix(cover: IndexedCover, upto: int) -> tuple[tuple, ...]:
    return tuple(describe(cover.sets(j)) for j in range(1, upto + 1))


def make_inning(
    game: GameKind,
    number: int,
    cover: IndexedCover,
    indices: tuple[int, ...],
    audit: Mapping[str, Any] | None = None,
) -> Inning:
    """Record one inning, describing the played cover up to one past the
    largest selected index."""
    sel = FiniteSelection(cover, tuple(indices))
    if game.arity == "single" and len(sel.indices) != 1:
        raise LegalityError(f"inning {number}: single-selection game got {len(sel.indices)} indices", inning=number)
    upto = max(sel.indices) + 1
    original: list[int] = []
    for i in sorted(sel.indices):
        for back in cover.provenance(i):
            if back not in original:
                original.append(back)
    return Inning(
        number=number,
        cover_prefix=cover_prefix(cover, upto),
        selection=tuple(sorted(sel.indices)),
        selected_sets=sel.sets(),
        original_move=tuple(original),
        audit=tuple(sorted((audit or {}).items())),
    )


def replay(alice: AliceStrategy, moves: Iterable[tuple[int, ...]]) -> Iterator[IndexedCover]:
    """The cover the strategy plays at each inning of a play whose selections
    are `moves`, one index tuple per inning.

    A move reaches the strategy only when the next cover is asked for, so a
    consumer can inspect it (and stop) before bad indices reach the strategy.
    """
    played: Moves = ()
    for indices in moves:
        yield alice.move(played)
        played += (indices,)


def check_legal(t: Transcript, alice: AliceStrategy) -> Verdict:
    """Replay the strategy against the transcript's selections and compare,
    inning by inning, the recorded cover descriptions with the replayed ones.

    The verdict carries the first divergent inning on failure.
    """
    for rec, cover in zip(t.innings, replay(alice, (rec.selection for rec in t.innings))):
        if cover_prefix(cover, len(rec.cover_prefix)) != rec.cover_prefix:
            return Verdict(False, reason="cover diverges from strategy", failing_inning=rec.number)
        if not rec.selection or any(i < 1 for i in rec.selection):
            return Verdict(False, reason="invalid selection indices", failing_inning=rec.number)
        if len(set(rec.selection)) != len(rec.selection):
            return Verdict(False, reason="duplicate selection indices", failing_inning=rec.number)
        if t.game.arity == "single" and len(rec.selection) != 1:
            return Verdict(False, reason="single-selection game with several indices", failing_inning=rec.number)
    return Verdict(True)


def covering_innings(t: Transcript, points: Iterable[Point]) -> dict[int, tuple[int, ...]]:
    """Per point id, the innings with a selected set containing the point."""
    return {
        p.id: tuple(rec.number for rec in t.innings if any(member(s, p) for s in rec.selected_sets)) for p in points
    }


@dataclass(frozen=True)
class MultiplicityReport:
    """Per point id, the sorted innings whose selections cover it."""

    covering_innings: Mapping[int, tuple[int, ...]]

    def min_multiplicity(self) -> int:
        if not self.covering_innings:
            return 0
        return min(len(v) for v in self.covering_innings.values())


@dataclass(frozen=True)
class WinReport:
    winner: str
    horizon: int
    uncovered: tuple[int, ...]
    coverage: Mapping[int, int] = field(default_factory=dict)

    @property
    def bob_wins(self) -> bool:
        return self.winner == "bob"


def evaluate_win(t: Transcript, horizon: int) -> WinReport:
    """Horizon-relative win evaluation.

    For the plain union win the second player wins iff every enumerated point
    below the horizon lies in some selected set; for multiplicity k it must
    lie in at least k structurally distinct selected sets. The report carries
    the per-point count of distinct covering sets and the failing points.

    Each distinct description is tested once, through its first selected set.
    That is exact: two sets are the same move exactly when their descriptions
    agree, so every set with a given description covers the same points, and
    a point's count is the number of distinct descriptions covering it.
    """
    distinct: dict[tuple, OpenSet] = {}
    space = None
    for rec in t.innings:
        if rec.selected_sets is None:
            raise ValueError("transcript was parsed from records and has no live sets")
        for s in rec.selected_sets:
            distinct.setdefault(describe(s), s)
            if space is None:
                space = s.space_hint()
    if space is None and horizon > 0:
        raise ValueError("cannot infer the space from the transcript")
    need = t.game.multiplicity
    uncovered: list[int] = []
    coverage: dict[int, int] = {}
    for p in space.points(horizon) if space is not None else []:
        coverage[p.id] = count = sum(1 for s in distinct.values() if member(s, p))
        if count < need:
            uncovered.append(p.id)
    winner = "bob" if not uncovered else "alice"
    return WinReport(winner=winner, horizon=horizon, uncovered=tuple(uncovered), coverage=coverage)
