"""Indexed covers with constructive witnesses, and the transformations the
game constructions use.

A cover here is a lazy 1-based sequence of open sets together with a witness
function mapping each point to an index of a set containing it. Witnesses are
what make "this family covers the space" a checkable contract at desk scale:
every transformation below transports the witness, and the transported
witness is re-verified on use.

Coverage, largeness, and extensional equality are checked exactly on finite
models and up to an enumeration-prefix horizon on countable ones; the horizon
is a test parameter, never a truncation of the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import CrossSpaceError, IntegrityError
from .spaces import (
    CumulativeUnion,
    FiniteUnion,
    OpenSet,
    Point,
    SpaceModel,
    member,
)


class IndexedCover:
    """A lazy countable family of open sets with a coverage witness.

    `sets` is 1-based and memoized; `witness` maps a point to some index of a
    member containing it, asked once per point; `provenance` back-maps each
    index to the indices of an ancestor cover it translates to (identity for
    primitive covers). `first_hit` answers "which member contains p first"
    for every cumulative union over this cover: from the constructor's
    `first_hit` rule when one is given, else from one resumable scan per
    point. Each table is made on first use, so a cover keeps none it was
    never asked to fill.
    """

    def __init__(
        self,
        space: SpaceModel,
        sets: Callable[[int], OpenSet],
        witness: Callable[[Point], int],
        provenance: Callable[[int], tuple[int, ...]] | None = None,
        increasing: bool = False,
        label: str = "",
        first_hit: Callable[[Point, int], int] | None = None,
    ):
        self.space = space
        self._sets = sets
        self._memo: dict[int, OpenSet] | None = None
        self._first_hit: dict[int, int] | None = None
        self._first_hit_rule = first_hit
        self._witness = witness
        self._witnesses: dict[int, int] | None = None
        self._provenance = provenance
        self.increasing = increasing
        self.label = label

    def sets(self, j: int) -> OpenSet:
        if j < 1:
            raise ValueError("cover indices are 1-based")
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        hit = memo.get(j)
        if hit is None:
            hit = memo[j] = self._sets(j)
        return hit

    def first_hit(self, p: Point, upto: int) -> int:
        """The least index j <= upto whose member contains p, or an index
        above upto when no member up to there does.

        A point of another space is refused first, so the table is keyed by
        ``p.id``. A `first_hit` rule derives the least hit exactly from the
        cover's source without reading members, so its answer (upto + 1 when
        above upto) is returned unstored. Otherwise members are scanned in
        increasing index order, resuming where the last query for p stopped:
        the table maps ``p.id`` to the least hit once found, and to minus the
        number of members scanned without a hit before that. Only the scan
        reads members, so a member that raises (a set over another space,
        say) raises only when the scan reaches it.
        """
        if p.space is not self.space:
            raise CrossSpaceError(f"cover over {self.space.tag} queried with point of {p.space.tag}")
        if self._first_hit_rule is not None:
            return min(self._first_hit_rule(p, upto), upto + 1)
        table = self._first_hit
        if table is None:
            table = self._first_hit = {}
        known = table.get(p.id, 0)
        if known > 0:
            return known
        j = -known
        while j < upto:
            j += 1
            if member(self.sets(j), p):
                table[p.id] = j
                return j
        table[p.id] = -j
        return j + 1

    def witness(self, p: Point) -> int:
        """The witness function's index for p, run once per point id: a point
        of another space is refused first, and a raise stores nothing."""
        if p.space is not self.space:
            raise CrossSpaceError(f"cover over {self.space.tag} queried with point of {p.space.tag}")
        table = self._witnesses
        if table is None:
            table = self._witnesses = {}
        hit = table.get(p.id)
        if hit is None:
            hit = table[p.id] = self._witness(p)
        return hit

    def provenance(self, j: int) -> tuple[int, ...]:
        if self._provenance is None:
            return (j,)
        return self._provenance(j)

    def __repr__(self) -> str:
        kind = "increasing " if self.increasing else ""
        return f"<{kind}cover {self.label or hex(id(self))} over {self.space.tag}>"


@dataclass(frozen=True, slots=True)
class FiniteSelection:
    """A finite, nonempty, duplicate-free choice of indices from a cover."""

    cover: IndexedCover
    indices: tuple[int, ...]

    def __post_init__(self):
        if not self.indices:
            raise ValueError("a selection must pick at least one index")
        if any(i < 1 for i in self.indices):
            raise ValueError("selection indices are 1-based")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("selection indices must be distinct")

    def sets(self) -> tuple[OpenSet, ...]:
        return tuple(self.cover.sets(i) for i in self.indices)


@dataclass(frozen=True)
class CofiniteSpec:
    """A cofinite subfamily, recorded by its finite excluded index set."""

    excluded: frozenset[int]

    def __post_init__(self):
        if self.excluded and min(self.excluded) < 1:
            raise ValueError("excluded indices are 1-based")

    def min_surviving(self) -> int:
        j = 1
        while j in self.excluded:
            j += 1
        return j


@dataclass(frozen=True)
class Verdict:
    """Outcome of a desk-scale check; truthy exactly when it passed."""

    ok: bool
    reason: str = ""
    failing_point: Point | None = None
    failing_inning: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def witness_of(cover: IndexedCover, p: Point) -> int:
    """The cover's witness index for p, verified by membership.

    A witness that fails membership signals a broken transformation and
    raises :class:`IntegrityError`.
    """
    j = cover.witness(p)
    if j < 1:
        raise IntegrityError(f"witness returned invalid index {j} for {p!r}")
    if not member(cover.sets(j), p):
        raise IntegrityError(f"witness index {j} of cover {cover.label!r} does not contain {p!r}")
    return j


def is_cover_up_to(cover: IndexedCover, horizon: int) -> Verdict:
    """Check the witness invariant on every enumerated point below the horizon.
    A failure's reason quotes the IntegrityError, which names the failing
    cover and index (a node cover's, when a tail cover's witness breaks)."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    for p in cover.space.points(horizon):
        try:
            witness_of(cover, p)
        except IntegrityError as exc:
            return Verdict(False, reason=f"witness failed membership: {exc}", failing_point=p)
    return Verdict(True)


def increasing_form(cover: IndexedCover) -> IndexedCover:
    """Replace each member by the union of all members up to it.

    The result is an increasing cover whose j-th member back-maps to the
    selection {1..j} of the original: picking one cumulative set is the same
    legal move as picking the first j originals, and any space covered by the
    cumulative sets is covered by the originals.
    """
    return IndexedCover(
        space=cover.space,
        sets=lambda j: CumulativeUnion(cover=cover, upto=j),
        witness=cover.witness,
        provenance=lambda j: tuple(range(1, j + 1)),
        increasing=True,
        label=f"increasing({cover.label})" if cover.label else "increasing",
        first_hit=cover.first_hit,
    )


def head_normalize(chosen: OpenSet, reply: IndexedCover) -> IndexedCover:
    """Prefix a cover with the set just chosen, so the reply's first member
    equals the previous move.

    Index 1 back-maps to answering index 1 of the reply, and index j+1 to
    answering index j; since the chosen set was already picked, unioning it
    into later members adds no new coverage.
    """
    if not reply.increasing:
        raise ValueError("head_normalize expects an increasing reply")

    def sets(j: int) -> OpenSet:
        if j == 1:
            return chosen
        return FiniteUnion(parts=(chosen, reply.sets(j - 1)))

    return IndexedCover(
        space=reply.space,
        sets=sets,
        witness=lambda p: reply.witness(p) + 1,
        provenance=lambda j: (1,) if j == 1 else (j - 1,),
        increasing=True,
        label=f"headed({reply.label})" if reply.label else "headed",
        first_hit=lambda p, upto: 1 if member(chosen, p) else reply.first_hit(p, upto - 1) + 1,
    )
