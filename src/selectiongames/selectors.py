"""Effective selection-principle witnesses for the bundled space models.

Every theorem in the library consumes "a space satisfying the selection
principle" as its hypothesis. General selection oracles are not computable,
but every countable model satisfies both principles constructively, and the
canonical single-selection witness below realizes that: at stage n it picks
the n-th cover's witness for point p_{n-1}, so point p_i is covered by
inning i+1. The constructions are parametric in the selector; anything
satisfying the same prefix-coverage invariant can be substituted.

On finite models the same algorithm applies with the enumeration clamped.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .covers import IndexedCover, witness_of
from .spaces import SpaceModel

CoverSeq = Callable[[int], IndexedCover]


def select_sone(space: SpaceModel, covers: CoverSeq) -> Iterator[int]:
    """Single-selection witness: the n-th index is the witness of point
    p_{n-1} in covers(n)."""
    n = 0
    while True:
        n += 1
        cover = covers(n)
        target = space.point(min(n - 1, (space.size or n) - 1))
        yield witness_of(cover, target)
