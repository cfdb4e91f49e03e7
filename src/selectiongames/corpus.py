"""The built-in corpus: named strategies, seeded random strategies, tree
corpora for the single-selection and large-cover constructions, and the
bundled finite game instances.

The theorems quantify over all strategies; a fixed set of named shapes plus
seeded random generation gives reproducible breadth. All randomness is
seeded, and move sequences are hashed by an explicit 64-bit fold so the
corpus is stable across interpreter runs. A strategy plays one cover object
per distinct cover (a tree, one per key), so its members, their
descriptions and its witness and first-hit tables are built once.
"""

from __future__ import annotations

import random
from functools import cache, reduce
from operator import itemgetter
from typing import Any, Callable, Hashable

from .covers import IndexedCover
from .engine import AliceStrategy, Moves, memoized_strategy
from .solver import FiniteGameInstance, stationary_instance
from .spaces import FiniteTopological, SpaceModel, initial_segment, singleton, whole
from .trees import Path, TreeStrategy

_MASK = (1 << 64) - 1


def fold_moves(moves: Moves) -> int:
    """Deterministic 64-bit hash of a sequence of index moves."""
    h = 0x9E3779B97F4A7C15
    for indices in moves:
        h = (h * 1000003 ^ 0xABCDEF) & _MASK
        for i in indices:
            h = (h * 1000003 ^ i) & _MASK
    return h


# ---------------------------------------------------------------------------
# Primitive covers on countable models


def segment_cover(space: SpaceModel, shift: int = 0, label: str | None = None) -> IndexedCover:
    """The increasing cover whose j-th member is the initial segment of
    length shift + j."""
    return IndexedCover(
        space=space,
        sets=lambda j: initial_segment(space, shift + j - 1),
        witness=lambda p: max(1, p.id - shift + 1),
        increasing=True,
        label=label or (f"segments+{shift}" if shift else "segments"),
        first_hit=lambda p, upto: max(1, p.id - shift + 1),
    )


def singleton_cover(space: SpaceModel, label: str | None = None) -> IndexedCover:
    """The cover of one-point sets, in enumeration order (not increasing)."""
    return IndexedCover(
        space=space,
        sets=lambda j: singleton(space, j - 1),
        witness=lambda p: p.id + 1,
        increasing=False,
        label=label or "singletons",
        first_hit=lambda p, upto: p.id + 1,
    )


def whole_head_cover(space: SpaceModel, label: str | None = None) -> IndexedCover:
    """Whole space first, then segments (a cover with a one-set subcover)."""
    return IndexedCover(
        space=space,
        sets=lambda j: whole(space) if j == 1 else initial_segment(space, j - 2),
        witness=lambda p: 1,
        increasing=False,
        label=label or "whole-head",
        first_hit=lambda p, upto: 1,
    )


def primitive_covers(space: SpaceModel) -> Callable[[str, int], IndexedCover]:
    """The primitive covers by shape and shift, each built once: ("seg",
    shift) is the segment cover with that shift, ("single", 0) the singleton
    cover and ("whole", 0) the whole-head cover."""
    shapes = {
        "seg": lambda shift: segment_cover(space, shift=shift),
        "single": lambda shift: singleton_cover(space),
        "whole": lambda shift: whole_head_cover(space),
    }
    return cache(lambda shape, shift: shapes[shape](shift))


def named_strategies(space: SpaceModel) -> dict[str, AliceStrategy]:
    """The five named corpus strategies. They play one cover object per
    distinct cover, from one `primitive_covers` table, so move sequences
    that play the same cover share its members and its tables."""
    cover = primitive_covers(space)

    def mixed(moves: Moves) -> IndexedCover:
        if len(moves) % 2 == 0:
            return cover("seg", sum(map(max, moves)) % 7)
        return cover("single", 0)

    return {
        "seg_tower": memoized_strategy(space, "seg_tower", lambda moves: cover("seg", 0)),
        "shifted_seg": memoized_strategy(
            space, "shifted_seg", lambda moves: cover("seg", max(moves[-1]) if moves else 0)
        ),
        "singletons": memoized_strategy(space, "singletons", lambda moves: cover("single", 0)),
        "whole_head": memoized_strategy(space, "whole_head", lambda moves: cover("whole", 0)),
        "mixed_adversarial": memoized_strategy(space, "mixed_adversarial", mixed),
    }


def seeded_strategy(space: SpaceModel, seed: int) -> AliceStrategy:
    """A deterministic pseudo-random strategy: per move sequence, draw one of
    the primitive cover shapes with a small random shift. It plays one cover
    object per drawn (shape, shift)."""
    cover = primitive_covers(space)

    def cover_for(moves: Moves) -> IndexedCover:
        rng = random.Random((seed * 0x9E3779B1 ^ fold_moves(moves)) & _MASK)
        shape = rng.choice(["seg", "seg", "seg", "single", "whole"])
        return cover(shape, rng.randrange(0, 5) if shape == "seg" else 0)

    return memoized_strategy(space, f"seeded{seed}", cover_for)


def strategy_corpus(space: SpaceModel, n_random: int = 20, seed: int = 0) -> dict[str, AliceStrategy]:
    """Named strategies plus n_random seeded ones."""
    corpus = dict(named_strategies(space))
    for k in range(n_random):
        s = seeded_strategy(space, seed * 1000 + k)
        corpus[s.name] = s
    return corpus


# ---------------------------------------------------------------------------
# Tree corpora (single-selection indexing, and the large-cover suite)


def path_keyed_tree(
    space: SpaceModel,
    name: str,
    root_key: Hashable,
    child_key: Callable[[Any, int], Hashable],
    cover_of_key: Callable[[Any], IndexedCover],
) -> TreeStrategy:
    """A tree whose node cover depends on the node only through a small key:
    the root's is `root_key`, and a child's is `child_key(parent's key, i)`
    (the tree's `keys`). Each key's cover is built once."""
    cover_for = cache(cover_of_key)
    return TreeStrategy(
        space=space,
        cover_at_raw=lambda path: cover_for(reduce(child_key, path, root_key)),
        keys=(root_key, child_key, cover_for),
        label=name,
    )


_CAP = 12  # the largest key of a capped tree
_last = itemgetter(-1)  # a capped tree's aggregate: the node's last entry


def const_tree(space: SpaceModel, name: str, cover: Callable[[], IndexedCover]) -> TreeStrategy:
    """A tree with one cover at every node."""
    return path_keyed_tree(space, name, None, lambda key, i: None, lambda key: cover())


def depth_tree(space: SpaceModel, name: str, cover_of_depth: Callable[[int], IndexedCover]) -> TreeStrategy:
    """A tree whose node cover depends only on the node's depth."""
    return path_keyed_tree(space, name, 0, lambda key, i: key + 1, cover_of_depth)


def capped_tree(
    space: SpaceModel,
    name: str,
    aggregate: Callable[[Path], int],
    cover_of_key: Callable[[int], IndexedCover],
) -> TreeStrategy:
    """A tree keyed by 0 at the root and by min(aggregate((key, i)), 12) at
    child i of a node keyed `key`. For the aggregates used (the last entry,
    or the max) that is min(aggregate(node), 12) at every nonempty node."""
    return path_keyed_tree(space, name, 0, lambda k, i: min(aggregate((k, i)), _CAP), cover_of_key)


def rothberger_tree_corpus(space: SpaceModel, n_random: int = 0, seed: int = 0) -> dict[str, TreeStrategy]:
    """Single-selection strategy trees mirroring the strategy corpus, keyed
    so the joint-refinement machinery reads few key states per box.

    Key shapes: constant (node-independent covers), last entry (the reply
    depends on the opponent's previous pick), depth, and depth-parity mixes.
    """
    corpus = {
        "seg_tower": const_tree(space, "seg_tower", lambda: segment_cover(space)),
        "shifted_seg": capped_tree(space, "shifted_seg", _last, lambda last: segment_cover(space, shift=last)),
        "singletons": const_tree(space, "singletons", lambda: singleton_cover(space)),
        "whole_head": const_tree(space, "whole_head", lambda: whole_head_cover(space)),
        "mixed_adversarial": depth_tree(
            space,
            "mixed_adversarial",
            lambda depth: singleton_cover(space) if depth % 2 else segment_cover(space, shift=depth % 5),
        ),
    }
    for k in range(n_random):
        rng = random.Random(seed * 7919 + k)
        shape = rng.choice(["const_seg", "depth", "last"])
        shift = rng.randrange(0, 4)
        nm = f"seeded{seed * 1000 + k}"
        if shape == "const_seg":
            corpus[nm] = const_tree(space, nm, lambda shift=shift: segment_cover(space, shift=shift))
        elif shape == "depth":
            corpus[nm] = depth_tree(space, nm, lambda d, shift=shift: segment_cover(space, shift=(d + shift) % 6))
        else:
            corpus[nm] = capped_tree(
                space, nm, _last, lambda last, shift=shift: segment_cover(space, shift=min(last + shift, 9))
            )
    return corpus


def appendix_tree_corpus(space: SpaceModel, n_random: int = 0, seed: int = 0) -> dict[str, TreeStrategy]:
    """Increasing-cover trees for the large-cover suite.

    These trees cover sampled points at ever smaller indices as the depth
    grows, which keeps the evasion function's path products bounded; trees
    with depth-independent covers make the wedge boxes grow as the product of
    the play's entries and are exercised at shallow depth in the invariant
    tests instead.
    """

    def shifted_by_depth(name: str, rate: int, base: int = 0) -> TreeStrategy:
        return depth_tree(space, name, lambda depth: segment_cover(space, shift=base + rate * depth))

    def wholes() -> IndexedCover:
        return IndexedCover(
            space=space, sets=lambda j: whole(space), witness=lambda p: 1, increasing=True, label="wholes"
        )

    corpus = {
        "depth_shifted": shifted_by_depth("depth_shifted", rate=1),
        "depth_fast": shifted_by_depth("depth_fast", rate=2),
        "max_shifted": capped_tree(space, "max_shifted", max, lambda key: segment_cover(space, shift=key)),
        "whole_tree": const_tree(space, "whole_tree", wholes),
        "uniform_segments": const_tree(space, "uniform_segments", lambda: segment_cover(space)),
    }
    for k in range(n_random):
        rng = random.Random(seed * 104729 + k)
        nm = f"seeded{seed * 1000 + k}"
        corpus[nm] = shifted_by_depth(nm, rate=rng.choice([1, 1, 2]), base=rng.randrange(0, 3))
    return corpus


# ---------------------------------------------------------------------------
# Bundled finite instances


def bundled_instances() -> dict[str, FiniteGameInstance]:
    """The finite instances the oracle suite runs on, all hand-checkable."""
    disc1 = FiniteTopological.discrete(1, tag="disc1")
    disc2 = FiniteTopological.discrete(2, tag="disc2")
    disc3 = FiniteTopological.discrete(3, tag="disc3")
    disc4 = FiniteTopological.discrete(4, tag="disc4")
    sierpinski = FiniteTopological(2, [[], [0], [0, 1]], tag="sierpinski")
    chain3 = FiniteTopological(3, [[], [0], [0, 1], [0, 1, 2]], tag="chain3")
    # two maximal proper opens overlapping in the middle point: the only
    # non-discrete bundled space whose covers need not contain the whole space
    valley = FiniteTopological(3, [[], [1], [0, 1], [1, 2], [0, 1, 2]], tag="valley")

    return {
        "one_point": stationary_instance(disc1, [[[0]]], name="one_point"),
        "two_point_singletons": stationary_instance(disc2, [[[0], [1]]], name="two_point_singletons"),
        "two_point_options": FiniteGameInstance(
            space=disc2,
            options_at=lambda history: (
                (frozenset({0, 1}),),
                (frozenset({0}), frozenset({1})),
            ),
            name="two_point_options",
        ),
        "three_point_singletons": stationary_instance(disc3, [[[0], [1], [2]]], name="three_point_singletons"),
        "four_point_pairs": stationary_instance(disc4, [[[0, 1], [2, 3]]], name="four_point_pairs"),
        "sierpinski_game": stationary_instance(sierpinski, [[[0], [0, 1]]], name="sierpinski_game"),
        "chain_game": stationary_instance(chain3, [[[0], [0, 1], [0, 1, 2]]], name="chain_game"),
        "valley_game": stationary_instance(valley, [[[0, 1], [1, 2]]], name="valley_game"),
    }
