"""The product-space reduction: lifting a strategy to X x N and extracting a
play that covers every point infinitely often.

Lifting a cover places one copy of each member at each level of the product,
enumerated by the Cantor pairing on (member index, level). A lifted index
move projects to the base index move consisting of the members whose lift at
some level was selected, and the lifted strategy answers lifted moves with
the lift of the base strategy's answer to their projections. Running the
tree counterplay against the lifted strategy covers the product space
progressively; since the copies of a base point at different levels are
covered at ever-later innings, the projected base play covers each base
point at more and more distinct innings as it is extended.

The product of a countable model is again a countable model, so the canonical
selection schedule applies to it directly; the usual splitting argument for
countable unions is subsumed by that.
"""

from __future__ import annotations

from itertools import count, islice
from math import isqrt
from typing import Callable, Iterator

from .covers import FiniteSelection, IndexedCover
from .engine import (
    AliceStrategy,
    MENGER_GAME,
    Moves,
    MultiplicityReport,
    Transcript,
    covering_innings,
    make_inning,
)
from .hurewicz import Counterplay, normalize_strategy, raw_move
from .pairing import pair, unpair
from .spaces import Point, ProductSpace
from .trees import Path


def lifted_cover(product: ProductSpace, base_cover: IndexedCover) -> IndexedCover:
    """Place every member of a base cover at every level of the product.

    Index j encodes (base member index, level) through the Cantor pairing;
    provenance back-maps a lifted index to its base member. A point at level
    l first hits the lift at l of its base point's first hit, since the
    pairing increases in the member index.
    """

    def decompose(j: int) -> tuple[int, int]:
        a, b = unpair(j - 1)
        return a + 1, b + 1  # (base index, level)

    def sets(j: int):
        base_idx, level = decompose(j)
        return product.lift(base_cover.sets(base_idx), level)

    def witness(p: Point) -> int:
        base_point, level = product.split(p)
        return pair(base_cover.witness(base_point) - 1, level - 1) + 1

    def first_hit(p: Point, upto: int) -> int:
        base_point, level = product.split(p)
        # the largest base index a with pair(a - 1, level - 1) + 1 <= upto,
        # i.e. with s * (s + 1) / 2 <= upto - level for s = a + level - 2
        room = upto - level
        bound = (isqrt(8 * room + 1) - 1) // 2 - level + 2 if room >= 0 else 0
        if bound < 1:
            return upto + 1
        return pair(base_cover.first_hit(base_point, bound) - 1, level - 1) + 1

    return IndexedCover(
        space=product,
        sets=sets,
        witness=witness,
        provenance=lambda j: (decompose(j)[0],),
        label=f"lift({base_cover.label})" if base_cover.label else "lift",
        first_hit=first_hit,
    )


def project_selection(product: ProductSpace, indices: tuple[int, ...]) -> tuple[int, ...]:
    """Base member indices whose lift at some level is among the lifted
    `indices`, deduplicated and sorted."""
    return tuple(sorted({unpair(j - 1)[0] + 1 for j in indices}))


def lift_strategy(alice: AliceStrategy) -> tuple[ProductSpace, AliceStrategy, Callable[[Moves], IndexedCover]]:
    """The strategy on the product space that mirrors a base strategy, and
    the base cover it lifted for each projected move sequence it answered.

    Each lifted reply is computed by projecting the opponent's lifted moves
    to base moves and querying the base strategy once per projected move
    sequence. Projections are kept per lifted index tuple, and base covers
    with their lifts per projected move sequence, for as long as the
    strategy lives.
    """
    product = ProductSpace(alice.space)
    answered: dict[Moves, tuple[IndexedCover, IndexedCover]] = {}  # projected moves -> (base cover, its lift)
    projections: dict[tuple[int, ...], tuple[int, ...]] = {}

    def move(moves: Moves) -> IndexedCover:
        for indices in moves:
            if indices not in projections:
                projections[indices] = project_selection(product, indices)
        projected = tuple(projections[indices] for indices in moves)
        hit = answered.get(projected)
        if hit is None:
            base = alice.move(projected)
            hit = answered[projected] = (base, lifted_cover(product, base))
        return hit[1]

    lifted = AliceStrategy(space=product, move=move, name=f"lifted({alice.name})")
    return product, lifted, lambda projected: answered[projected][0]


def often_innings(alice: AliceStrategy) -> Iterator[tuple[FiniteSelection, dict[str, object]]]:
    """The infinitely-often play against `alice`, for as many innings as are
    asked for: per inning, the base selection and its audit (the lifted
    play's `Counterplay.audit` plus the lifted move). One `Counterplay` runs
    against the lifted strategy's normalized tree; each lifted move is read
    off its path (`raw_move`) and projected to the base game. The base
    cover is the one the lifted strategy lifted for that inning's node.
    """
    product, lifted, base_cover = lift_strategy(alice)
    play = Counterplay(normalize_strategy(lifted, product))
    base_moves: Moves = ()
    for n in count(1):
        lifted_move = raw_move(n - 1, play.extend(n)[n - 1])
        sel = FiniteSelection(base_cover(base_moves), project_selection(product, lifted_move))
        yield sel, {**play.audit(n), "lifted_selection": list(lifted_move)}
        base_moves += (sel.indices,)


def infinitely_often_play(
    alice: AliceStrategy,
    innings: int,
    horizon: int = 5,
) -> tuple[Transcript, MultiplicityReport, Path]:
    """A play of the base game, according to the given strategy, in which
    every enumerated point below the horizon is covered at many distinct
    innings (growing without bound as the inning count grows).

    Plays `often_innings` for `innings` innings and reports the covering
    innings per base point. Returns the base transcript, the report and the
    lifted play's tree path.
    """
    if innings < 1:
        raise ValueError("a play needs at least one inning")
    played = list(islice(often_innings(alice), innings))
    records = tuple(
        make_inning(MENGER_GAME, n, sel.cover, sel.indices, audit=audit)
        for n, (sel, audit) in enumerate(played, start=1)
    )
    transcript = Transcript(game=MENGER_GAME, innings=records, label=f"often({alice.name})")
    report = MultiplicityReport(covering_innings=covering_innings(transcript, alice.space.points(horizon)))
    return transcript, report, tuple(audit["tree_choice"] for _, audit in played)
