"""Strategies in tree form: a cover attached to every finite sequence of
positive naturals, with the set at a node being the chosen member of its
parent's cover.

Both single-selection strategies (where the node sequence records the indices
the second player picked) and the normalized finite-selection strategies use
this shape; the normalization invariants (increasing covers, head condition)
are guaranteed by specific constructors, not by the type.

Joint refinements intersect the distinct covers on a coordinatewise-bounded
box of nodes, whose node count is the product of the bound's entries. A tree
may declare `keys` when its node covers depend on a node only through a key
folded from the root key by a child key of (key, i); its boxes are then read
one level of distinct key states at a time, one level past the walked
prefix, so trees with few keys (constant, depth or a capped aggregate of the
node sequence) answer without enumerating the box. Other trees walk it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from .covers import IndexedCover
from .engine import AliceStrategy, GameKind, Moves, Transcript, make_inning
from .errors import ResourceLimitError
from .spaces import OpenSet, SpaceModel

Path = tuple[int, ...]

BOX_LIMIT = 20_000  # nodes a box walk may enumerate, and key states one level may reach


@dataclass(frozen=True, eq=False)
class TreeStrategy:
    """A strategy as a tree of covers.

    cover_at(path) is the cover played after the second player chose the
    indices in `path`; the set at a nonempty node is its parent's member at
    the node's last index. back_map, when present, translates a tree path to
    the per-inning selections of the strategy this tree was derived from.
    keys, when present, is (root key, child key of (key, i), cover of a key):
    the cover at a path is the cover of the key folded along it from the root
    key, and `distinct_covers_on_box` reads boxes by those key states.
    """

    space: SpaceModel
    cover_at_raw: Callable[[Path], IndexedCover]
    back_map: Callable[[Path], Moves] | None = None
    keys: tuple[Hashable, Callable[[Any, int], Hashable], Callable[[Any], IndexedCover]] | None = None
    label: str = ""
    _cover_memo: dict[Path, IndexedCover] = field(default_factory=dict, repr=False)
    _key_levels: dict[Path, Iterable[Hashable]] = field(default_factory=dict, repr=False)

    def cover_at(self, path: Path) -> IndexedCover:
        hit = self._cover_memo.get(path)
        if hit is None:
            hit = self._cover_memo[path] = self.cover_at_raw(path)
        return hit

    def set_at(self, path: Path) -> OpenSet:
        if not path:
            raise ValueError("the root carries a cover, not a set")
        return self.cover_at(path[:-1]).sets(path[-1])


def strategy_from_tree(tree: TreeStrategy) -> AliceStrategy:
    """View a tree as a single-selection strategy (for legality replays): the
    cover after single-index moves is the one at the path they spell."""
    return AliceStrategy(
        space=tree.space, move=lambda moves: tree.cover_at(tuple(indices[0] for indices in moves)), name=tree.label
    )


def path_transcript(
    tree: TreeStrategy,
    path: Path,
    game: GameKind,
    audits: Sequence[Mapping[str, Any]],
    label: str,
) -> Transcript:
    """The single-selection transcript of a tree path: inning n selects
    child path[n-1] of the cover at the path's first n-1 entries, with the
    n-th audit record."""
    records = tuple(
        make_inning(game, n, tree.cover_at(path[: n - 1]), (idx,), audit=audit)
        for n, (idx, audit) in enumerate(zip(path, audits), start=1)
    )
    return Transcript(game=game, innings=records, label=label)


def box_paths(bound: Path) -> Iterable[Path]:
    """All node sequences coordinatewise between the all-ones sequence and
    `bound`, in lexicographic order. Raises when the box exceeds `BOX_LIMIT`."""
    total = 1
    for b in bound:
        if b < 1:
            raise ValueError("box bounds must be positive")
        total *= b
    if total > BOX_LIMIT:
        raise ResourceLimitError(f"node box of size {total} exceeds limit {BOX_LIMIT}")
    return itertools.product(*(range(1, b + 1) for b in bound))


def distinct_covers_on_box(tree: TreeStrategy, bound: Path) -> list[IndexedCover]:
    """The distinct cover objects attached to the nodes of the box below
    `bound`, in the box's lexicographic first-appearance order.

    A tree with `keys` is read by key states: level j + 1 holds the child keys
    of level j's keys, in order, at indices 1..bound[j], each kept at its
    first appearance, and the last level's keys give the covers. A state's
    least path is its first parent's least path plus the least index that
    reaches it, so the order is the box walk's. The tree keeps the level of
    each walked prefix, so a bound whose prefix was walked takes one level
    step from it; other bounds walk from the root key. A level reaching more
    than `BOX_LIMIT` keys raises ResourceLimitError before it is complete, so
    every kept level is within the limit. A tree without keys walks the box
    under `BOX_LIMIT`.
    """
    if tree.keys is None:
        covers = map(tree.cover_at, box_paths(bound))
    else:
        root_key, child_key, cover_of_key = tree.keys
        if any(b < 1 for b in bound):
            raise ValueError("box bounds must be positive")
        hit = tree._key_levels.get(bound[:-1]) if bound else None
        start, level = (len(bound) - 1, hit) if hit else (0, (root_key,))
        for j in range(start, len(bound)):
            states: dict[Hashable, None] = {}
            for k in level:
                for i in range(1, bound[j] + 1):
                    states[child_key(k, i)] = None
                    if len(states) > BOX_LIMIT:
                        raise ResourceLimitError(f"more than {BOX_LIMIT} key states at level {j + 1} below bound {bound}")
            level = tree._key_levels[bound[: j + 1]] = states
        covers = map(cover_of_key, level)
    return list({id(c): c for c in covers}.values())
