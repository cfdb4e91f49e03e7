"""Point universes and the symbolic open-set algebra the games are played over.

Open sets are expression trees, never materialized extensions: the proof
constructions build sets by transformation (cumulative unions, intersections
of cofinite subfamilies) over infinite families, and only the finite models
can be materialized at all. Membership is decidable for every expression and
every point. Each composite expression memoizes its own answers, because the
game drivers re-query the same nodes across innings; a memo lives exactly as
long as its expression.

A cumulative union asks its source cover for the point's first hit (the
least member index containing it). A cover built with a first-hit rule
derives it from its source; any other keeps one resumable scan per point
for every union over it (:meth:`IndexedCover.first_hit`), so walking unions
of growing length costs at most one pass over the members, not one per
union. The cover's table lives exactly as long as the cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, TYPE_CHECKING

from .errors import CrossSpaceError
from .pairing import unpair

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .covers import IndexedCover


class SpaceModel:
    """Base class for point universes. Instances are immutable and compared
    by identity; points carry a reference to their owning space."""

    tag: str = "space"

    def point(self, index: int) -> "Point":
        raise NotImplementedError

    @property
    def size(self) -> int | None:
        """Number of points, or None for countably infinite models."""
        return None

    @property
    def is_finite(self) -> bool:
        return self.size is not None

    def points(self, n: int) -> list["Point"]:
        """First n points in enumeration order, clamped on finite models."""
        if n < 0:
            raise ValueError("point count must be nonnegative")
        if self.size is not None:
            n = min(n, self.size)
        return [self.point(i) for i in range(n)]

    def all_points(self) -> list["Point"]:
        if self.size is None:
            raise ValueError(f"{self.tag} is infinite; use points(n)")
        return [self.point(i) for i in range(self.size)]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.tag}>"


@dataclass(frozen=True)
class Point:
    """A point, identified within its space by its enumeration index."""

    space: SpaceModel
    id: int

    def __repr__(self) -> str:
        return f"p{self.id}@{self.space.tag}"


class CountableDiscrete(SpaceModel):
    """The canonical infinite model: countably many points, every set open.

    Every countable space satisfies both selection principles, so this model
    realizes the hypotheses of all the game theorems constructively.
    """

    def __init__(self, tag: str = "N"):
        self.tag = tag
        self._points: dict[int, Point] = {}

    def point(self, index: int) -> Point:
        if index < 0:
            raise ValueError("point indices are 0-based naturals")
        p = self._points.get(index)
        if p is None:
            p = self._points[index] = Point(self, index)
        return p


class FiniteTopological(SpaceModel):
    """An explicit finite space: points 0..n-1 and a declared topology.

    The topology must contain the empty set and the whole space and be closed
    under union and intersection. With U_x the intersection of the open sets
    containing x, a family T holding {} and the space is one exactly when it
    holds O | U_x for every O in T and point x (Alexandroff), an O(|T|·n) check:
    O = {} puts each U_x in T; each O is the union of its points' U_x, so T is
    the unions of the U_x, closed under union, and under intersection since
    U_y <= A & B for each y in A & B. Only a family that fails this check is
    scanned pairwise, so that the error names a failing pair.
    """

    def __init__(self, n_points: int, topology: list[list[int]] | list[frozenset[int]], tag: str | None = None):
        if n_points < 1:
            raise ValueError("a finite space needs at least one point")
        opens = frozenset(frozenset(s) for s in topology)
        universe = frozenset(range(n_points))
        for s in opens:
            if not s <= universe:
                raise ValueError(f"open set {sorted(s)} mentions unknown points")
        if frozenset() not in opens or universe not in opens:
            raise ValueError("topology must contain the empty set and the whole space")
        least = dict.fromkeys(range(n_points), universe)  # x -> U_x
        for s in opens:
            for x in s:
                least[x] &= s
        if any(o | u not in opens for u in set(least.values()) for o in opens):
            for a in opens:
                for b in opens:
                    if a | b not in opens:
                        raise ValueError(f"topology not closed under union: {sorted(a)} | {sorted(b)}")
                    if a & b not in opens:
                        raise ValueError(f"topology not closed under intersection: {sorted(a)} & {sorted(b)}")
        self.n_points = n_points
        self.topology = opens
        self.tag = tag or f"fin{n_points}"
        self._points = [Point(self, i) for i in range(n_points)]

    @property
    def size(self) -> int:
        return self.n_points

    def point(self, index: int) -> Point:
        if not 0 <= index < self.n_points:
            raise ValueError(f"point index {index} out of range for {self.tag}")
        return self._points[index]

    def all_points(self) -> list[Point]:
        return list(self._points)

    def is_open(self, ids: frozenset[int]) -> bool:
        return frozenset(ids) in self.topology

    @staticmethod
    def discrete(n_points: int, tag: str | None = None) -> "FiniteTopological":
        """The discrete topology: every subset open (exhaustively enumerated)."""
        universe = list(range(n_points))
        opens = []
        for mask in range(1 << n_points):
            opens.append(frozenset(i for i in universe if mask & (1 << i)))
        return FiniteTopological(n_points, opens, tag=tag or f"disc{n_points}")


class ProductSpace(SpaceModel):
    """The product of a base model with the positive naturals.

    Points are pairs (base point, level >= 1). Over a countable base they are
    enumerated by the Cantor pairing on (base index, level - 1); over a finite
    base of size B the enumeration runs level by level (index i encodes base
    i % B at level i // B + 1). The product of a countable model is again
    countable, so the canonical selectors apply to it directly.
    """

    def __init__(self, base: SpaceModel):
        self.base = base
        self.tag = f"{base.tag}xN"
        self._points: dict[int, Point] = {}

    def point(self, index: int) -> Point:
        if index < 0:
            raise ValueError("point indices are 0-based naturals")
        p = self._points.get(index)
        if p is None:
            p = self._points[index] = Point(self, index)
        return p

    def split(self, p: Point) -> tuple[Point, int]:
        """Decompose a product point into (base point, level)."""
        if p.space is not self:
            raise CrossSpaceError(f"{p!r} does not belong to {self.tag}")
        if self.base.size is not None:
            return self.base.point(p.id % self.base.size), p.id // self.base.size + 1
        base_idx, level_code = unpair(p.id)
        return self.base.point(base_idx), level_code + 1

    def lift(self, base_set: "OpenSet", level: int) -> "Lifted":
        return Lifted(space=self, base=base_set, level=level)


# ---------------------------------------------------------------------------
# Open-set expressions


@dataclass(frozen=True, eq=False)
class OpenSet:
    """Base class for symbolic open sets. Equality is object identity;
    structural comparison goes through :func:`describe`."""

    def __post_init__(self) -> None:
        self._init_state(getattr(self, "space", None))

    def _init_state(self, space: SpaceModel | None, memo: dict | None = None) -> None:
        """Per-expression state: `_space` is resolved once here, `_memo` maps
        point ids to membership (composites only; leaves are cheap to decide),
        `_desc` caches the structural description and `_ext` the extension
        over the expression's own finite space.

        The dataclass is frozen, so state is set the way its own __init__ sets
        fields, never through vars(self): that creates an instance __dict__,
        which drops CPython 3.11+'s inline attribute layout and slows every
        read in `member`. Every slot is set here, in one order, because
        CPython stops adding names to a class's shared attribute keys after a
        few dozen instances, so a slot first set later would also create one.
        """
        for name, value in (("_space", space), ("_memo", memo), ("_desc", None), ("_ext", None)):
            object.__setattr__(self, name, value)

    def _member(self, p: Point) -> bool:
        raise NotImplementedError

    def _describe(self) -> tuple:
        raise NotImplementedError

    def space_hint(self) -> SpaceModel | None:
        """The owning space, when the expression mentions one."""
        return self._space


@dataclass(frozen=True, eq=False)
class Named(OpenSet):
    """A named base set with an explicit membership predicate.

    The tag is the structural identity; the predicate must be pure.
    """

    space: SpaceModel
    label: str
    pred: Callable[[Point], bool] = field(repr=False)

    def _member(self, p: Point) -> bool:
        return bool(self.pred(p))

    def _describe(self) -> tuple:
        return ("named", self.label)


@dataclass(frozen=True, eq=False)
class Whole(OpenSet):
    space: SpaceModel | None = None

    def _member(self, p: Point) -> bool:
        return True

    def _describe(self) -> tuple:
        return ("whole",)


@dataclass(frozen=True, eq=False)
class FiniteUnion(OpenSet):
    parts: tuple[OpenSet, ...]

    def __post_init__(self) -> None:
        self._init_state(first_space(self.parts), {})

    def _member(self, p: Point) -> bool:
        for part in self.parts:
            if member(part, p):
                return True
        return False

    def _describe(self) -> tuple:
        return ("union", tuple(describe(part) for part in self.parts))


@dataclass(frozen=True, eq=False)
class FiniteIntersection(OpenSet):
    parts: tuple[OpenSet, ...]

    def __post_init__(self) -> None:
        self._init_state(first_space(self.parts), {})

    def _member(self, p: Point) -> bool:
        for part in self.parts:
            if not member(part, p):
                return False
        return True

    def _describe(self) -> tuple:
        return ("inter", tuple(describe(part) for part in self.parts))


@dataclass(frozen=True, eq=False)
class CumulativeUnion(OpenSet):
    """Union of the first `upto` members of a cover, kept symbolic so the
    underlying lazy family is shared rather than copied."""

    cover: IndexedCover
    upto: int

    def __post_init__(self) -> None:
        self._init_state(self.cover.space, {})

    def _member(self, p: Point) -> bool:
        return self.cover.first_hit(p, self.upto) <= self.upto

    def _describe(self) -> tuple:
        return ("cum", tuple(describe(self.cover.sets(j)) for j in range(1, self.upto + 1)))


@dataclass(frozen=True, eq=False)
class Lifted(OpenSet):
    """A base-space open set placed at one level of a product space."""

    space: ProductSpace
    base: OpenSet
    level: int

    def __post_init__(self) -> None:
        self._init_state(self.space, {})

    def _member(self, p: Point) -> bool:
        base_point, level = self.space.split(p)
        return level == self.level and member(self.base, base_point)

    def _describe(self) -> tuple:
        return ("lift", self.level, describe(self.base))


def first_space(parts: Iterable[OpenSet]) -> SpaceModel | None:
    """The space hinted by the first of `parts` that hints one, else None."""
    for part in parts:
        space = part.space_hint()
        if space is not None:
            return space
    return None


def member(s: OpenSet, p: Point) -> bool:
    """Decide whether point p lies in the extension of expression s.

    The empty intersection is the whole space and the empty union is empty.
    Querying a set against a point from a different space model raises
    :class:`CrossSpaceError`.

    A composite's memo is keyed by ``p.id`` alone. That is sound because the
    space check runs before the lookup, and an expression with no space has
    only space-less leaves (``Whole()``), so its membership is the same
    for every point. A ``CumulativeUnion`` is in ``p`` exactly when its
    cover's first hit for ``p`` is at most ``upto``; the cover's first-hit
    table is keyed by ``p.id`` on the same grounds, since the union has the
    cover's space and the cover refuses points of any other space.
    """
    space = s._space
    if space is not None and space is not p.space:
        raise CrossSpaceError(f"set over {space.tag} queried with point of {p.space.tag}")
    table = s._memo
    if table is None:
        return s._member(p)
    hit = table.get(p.id)
    if hit is None:
        hit = table[p.id] = s._member(p)
    return hit


def describe(s: OpenSet) -> tuple:
    """Canonical structural description of an expression (nested tuples).

    Descriptions are the unit of structural equality and of serialization;
    two sets are the same move exactly when their descriptions agree.
    """
    hit = s._desc
    if hit is None:
        hit = s._describe()
        object.__setattr__(s, "_desc", hit)
    return hit


def extension(s: OpenSet, space: FiniteTopological) -> frozenset[int]:
    """Materialize an expression over a finite model (ids of its points),
    kept on the expression when the model is the expression's own space."""
    if s._space is not space:
        return frozenset(p.id for p in space.all_points() if member(s, p))
    hit = s._ext
    if hit is None:
        hit = frozenset(p.id for p in space.all_points() if member(s, p))
        object.__setattr__(s, "_ext", hit)
    return hit


# -- standard named sets on countable models --------------------------------


def initial_segment(space: SpaceModel, m: int) -> Named:
    """The set of points with id <= m (an initial segment of the enumeration)."""
    if m < 0:
        raise ValueError("segment bound must be nonnegative")
    return Named(space=space, label=f"seg:{m}", pred=lambda p: p.id <= m)


def singleton(space: SpaceModel, i: int) -> Named:
    """The one-point set {p_i}."""
    if i < 0:
        raise ValueError("point index must be nonnegative")
    return Named(space=space, label=f"pt:{i}", pred=lambda p: p.id == i)


def from_ids(space: FiniteTopological, ids: frozenset[int] | set[int], label: str | None = None) -> Named:
    """A declared open set of a finite model, validated against its topology."""
    ids = frozenset(ids)
    if not space.is_open(ids):
        raise ValueError(f"{sorted(ids)} is not open in {space.tag}")
    name = label or ("ids:" + ",".join(str(i) for i in sorted(ids)))
    return Named(space=space, label=name, pred=lambda p: p.id in ids)


def whole(space: SpaceModel) -> Whole:
    return Whole(space=space)
