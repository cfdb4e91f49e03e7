"""Independent checkers and reference constructions that only the tests use:
point-by-point checks of sets and selections, the inverse of
`ProductSpace.split`, play restricted below a tree node, the canonical
finite-selection witness, the empty open set, the infinitely-often play
that the resumable counterplay replaced, a keyed tree whose keys repeat
out of order, the counter walk of a node box under a limit, the
normalization and counterplay that built every node and every inning's
protected points from the root, and the named and seeded strategies that
built a fresh cover for every move sequence."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from selectiongames.corpus import (
    _MASK,
    fold_moves,
    path_keyed_tree,
    segment_cover,
    singleton_cover,
    whole_head_cover,
)
from selectiongames.covers import FiniteSelection, IndexedCover, Verdict, head_normalize, increasing_form, witness_of
from selectiongames.engine import (
    MENGER_GAME,
    AliceStrategy,
    Moves,
    MultiplicityReport,
    Transcript,
    covering_innings,
    make_inning,
    memoized_strategy,
    replay,
)
from selectiongames.errors import ResourceLimitError
from selectiongames.hurewicz import (
    Counterplay,
    CounterplayResult,
    FiniteWinFound,
    bob_counterplay_menger,
    normalize_strategy,
    raw_move,
    secure_child,
)
from selectiongames.pairing import pair
from selectiongames.products import lift_strategy, project_selection
from selectiongames.selectors import CoverSeq
from selectiongames.spaces import OpenSet, Point, ProductSpace, SpaceModel, describe, member
from selectiongames.trees import Path, TreeStrategy


@dataclass(frozen=True, eq=False)
class Empty(OpenSet):
    """The empty open set, with or without an owning space."""

    space: SpaceModel | None = None

    def _member(self, p: Point) -> bool:
        return False

    def _describe(self) -> tuple:
        return ("empty",)


def extensionally_equal(a: OpenSet, b: OpenSet, space: SpaceModel, horizon: int = 50) -> bool:
    """Extensional equality: exhaustive on finite models, sampled over the
    first `horizon` points on countable ones."""
    pts = space.all_points() if space.is_finite else space.points(horizon)
    return all(member(a, p) == member(b, p) for p in pts)


def is_large_up_to(
    selected: Iterable[OpenSet],
    horizon: int,
    multiplicity: int,
    budget: int,
) -> Verdict:
    """Check that every point below the horizon lies in at least
    `multiplicity` structurally distinct sets among the first `budget`
    inspected members."""
    pool: list[OpenSet] = []
    for s in selected:
        pool.append(s)
        if len(pool) >= budget:
            break
    space = None
    for s in pool:
        space = s.space_hint()
        if space is not None:
            break
    if space is None:
        raise ValueError("cannot infer the space from the selected sets")
    for p in space.points(horizon):
        seen: set[tuple] = set()
        for s in pool:
            if member(s, p):
                seen.add(describe(s))
                if len(seen) >= multiplicity:
                    break
        if len(seen) < multiplicity:
            return Verdict(False, reason=f"only {len(seen)} distinct sets cover", failing_point=p)
    return Verdict(True)


def combine(product: ProductSpace, base_point: Point, level: int) -> Point:
    """The product point (base point, level)."""
    if level < 1:
        raise ValueError("levels are 1-based")
    if product.base.size is not None:
        return product.point((level - 1) * product.base.size + base_point.id)
    return product.point(pair(base_point.id, level - 1))


def subtree(tree: TreeStrategy, start: Path, label: str = "") -> TreeStrategy:
    """Restrict play to the part of the tree below a designated node."""

    return TreeStrategy(
        space=tree.space,
        cover_at_raw=lambda path: tree.cover_at(start + path),
        back_map=None if tree.back_map is None else (lambda path: tree.back_map(start + path)),
        label=label or f"{tree.label}@{start}",
    )


def _clamped_count(space: SpaceModel, n: int) -> int:
    return min(n, space.size) if space.size is not None else n


def select_sfin(space: SpaceModel, covers: CoverSeq) -> Iterator[FiniteSelection]:
    """Finite-selection witness: the n-th selection is taken from covers(n).

    Stage n selects the witness indices of the first n points, deduplicated;
    on covers flagged increasing the largest witness subsumes the others and
    is selected alone.
    """
    n = 0
    while True:
        n += 1
        cover = covers(n)
        indices: list[int] = []
        for p in space.points(_clamped_count(space, n)):
            j = witness_of(cover, p)
            if j not in indices:
                indices.append(j)
        if cover.increasing:
            indices = [max(indices)]
        yield FiniteSelection(cover, tuple(sorted(indices)))


# ---------------------------------------------------------------------------
# The play before it was resumable, kept verbatim as the reference.


def reference_infinitely_often_play(
    alice: AliceStrategy,
    innings: int,
    horizon: int = 5,
) -> tuple[Transcript, MultiplicityReport, CounterplayResult]:
    """A play of the base game, according to the given strategy, in which
    every enumerated point below the horizon is covered at many distinct
    innings (growing without bound as the inning count grows).

    Runs the tree counterplay against the lifted strategy on the product
    space, projects each selection back to the base game, and reports the
    covering innings per base point.
    """
    if innings < 1:
        raise ValueError("a play needs at least one inning")
    product, lifted, _ = lift_strategy(alice)
    tree = normalize_strategy(lifted, product)
    result = bob_counterplay_menger(tree, raw=lifted, innings=innings)

    # project the lifted play to the base game, and replay the base strategy
    lifted_innings = result.transcript.innings
    lifted_moves = [rec.selection for rec in lifted_innings]
    base_moves = [project_selection(product, indices) for indices in lifted_moves]
    base_records = []
    for n, (cover, indices, rec) in enumerate(zip(replay(alice, base_moves), base_moves, lifted_innings), start=1):
        audit = {**rec.audit_dict(), "lifted_selection": list(rec.selection)}
        base_records.append(make_inning(MENGER_GAME, n, cover, indices, audit=audit))
    transcript = Transcript(game=MENGER_GAME, innings=tuple(base_records), label=f"often({alice.name})")
    covering = covering_innings(transcript, alice.space.points(horizon))
    return transcript, MultiplicityReport(covering_innings=covering), result


def scrambled_tree(space: SpaceModel) -> TreeStrategy:
    """A keyed tree whose child keys do not grow with the index and whose
    five keys share three cover objects, so both the order of a key level
    and the dedup by cover identity show, and two states of one stripped
    cover step to different keys."""
    covers = [segment_cover(space, shift=s) for s in range(3)]
    return path_keyed_tree(space, "scrambled", 0, lambda k, i: (3 * k + i) % 5, lambda k: covers[k % 3])


def reference_box_paths(bound: Path, limit: int) -> Iterable[Path]:
    """All node sequences coordinatewise between the all-ones sequence and
    `bound`, in lexicographic order. Raises when the box exceeds `limit`."""
    total = 1
    for b in bound:
        if b < 1:
            raise ValueError("box bounds must be positive")
        total *= b
    if total > limit:
        raise ResourceLimitError(f"node box of size {total} exceeds limit {limit}")
    if not bound:
        return [()]

    def gen() -> Iterable[Path]:
        counters = [1] * len(bound)
        while True:
            yield tuple(counters)
            pos = len(bound) - 1
            while pos >= 0:
                counters[pos] += 1
                if counters[pos] <= bound[pos]:
                    break
                counters[pos] = 1
                pos -= 1
            if pos < 0:
                return

    return gen()


# ---------------------------------------------------------------------------
# Normalization and the counterplay before nodes and innings resumed from the
# ones before them, kept verbatim as the reference.


def reference_normalize_strategy(
    raw: AliceStrategy,
    space: SpaceModel | None = None,
    finite_win_horizon: int | None = None,
) -> TreeStrategy:
    """Normalize an arbitrary finite-selection strategy into tree form.

    The tree's node path records single-set choices from the transformed
    covers; `back_map` translates a path into the raw strategy's per-inning
    index selections (`raw_move`). When `finite_win_horizon` is set,
    materializing any node whose set already covers that many enumerated
    points raises :class:`FiniteWinFound` with the witnessing path (the
    chosen set at a node is the union of everything chosen on the way to it,
    so this is exactly the "a finite selection suffices" escape).
    """
    space = space or raw.space

    def back_map(path: Path) -> Moves:
        return tuple(raw_move(depth, idx) for depth, idx in enumerate(path))

    def cover_at(path: Path) -> IndexedCover:
        base = increasing_form(raw.move(back_map(path)))
        if not path:
            return base
        chosen = tree.set_at(path)  # `tree` is bound below, before any node is read
        if finite_win_horizon is not None:
            if all(member(chosen, p) for p in space.points(finite_win_horizon)):
                raise FiniteWinFound(path)
        return head_normalize(chosen, base)

    tree = TreeStrategy(
        space=space,
        cover_at_raw=cover_at,
        back_map=back_map,
        label=f"normalized({raw.name})" if raw.name else "normalized",
    )
    return tree


def protection_plan(space: SpaceModel) -> Callable[[int], list[Point]]:
    """Which points the counterplay protects at each inning: the first n
    enumerated points on countable models (the canonical selection schedule),
    every point on finite ones."""

    def plan(n: int) -> list[Point]:
        if space.size is not None:
            return space.all_points()
        return space.points(n)

    return plan


class ReferenceCounterplay(Counterplay):
    """`Counterplay` with its protected points rebuilt from `protection_plan`
    at every inning and every audit."""

    def __init__(self, tree: TreeStrategy, probe_limit: int | None = 10_000):
        self.tree, self.probe_limit, self.plan = tree, probe_limit, protection_plan(tree.space)
        self.path: Path = ()
        self.finite_win = False
        self._secured: set[int] = set()

    def extend(self, innings: int) -> Path:
        try:
            while len(self.path) < innings and not self.finite_win:
                protected = self.plan(len(self.path) + 1)
                self.path += (secure_child(self.tree, self.path, protected, self._secured, self.probe_limit),)
        except FiniteWinFound as fw:
            self.path, self.finite_win = fw.path, True
        return self.path

    def audit(self, n: int) -> dict[str, object]:
        """Inning n's tree child, children skipped as excluded and protected point count."""
        chosen = self.path[n - 1]
        skipped = [] if self.finite_win else list(range(1, chosen))
        return {"tree_choice": chosen, "excluded_children_probed": skipped, "protected_points": len(self.plan(n))}


# ---------------------------------------------------------------------------
# The corpus strategies before they played one cover object per distinct
# cover, kept verbatim as the reference.


def reference_named_strategies(space: SpaceModel) -> dict[str, AliceStrategy]:
    """The five named corpus strategies."""

    def shifted(moves: Moves) -> IndexedCover:
        return segment_cover(space, shift=max(moves[-1]) if moves else 0)

    def mixed(moves: Moves) -> IndexedCover:
        shift = sum(map(max, moves)) % 7
        if len(moves) % 2 == 0:
            return segment_cover(space, shift=shift)
        return singleton_cover(space)

    return {
        "seg_tower": memoized_strategy(space, "seg_tower", lambda moves: segment_cover(space)),
        "shifted_seg": memoized_strategy(space, "shifted_seg", shifted),
        "singletons": memoized_strategy(space, "singletons", lambda moves: singleton_cover(space)),
        "whole_head": memoized_strategy(space, "whole_head", lambda moves: whole_head_cover(space)),
        "mixed_adversarial": memoized_strategy(space, "mixed_adversarial", mixed),
    }


def reference_seeded_strategy(space: SpaceModel, seed: int) -> AliceStrategy:
    """A deterministic pseudo-random strategy: per move sequence, draw one of
    the primitive cover shapes with a small random shift."""

    def cover_for(moves: Moves) -> IndexedCover:
        rng = random.Random((seed * 0x9E3779B1 ^ fold_moves(moves)) & _MASK)
        shape = rng.choice(["seg", "seg", "seg", "single", "whole"])
        if shape == "seg":
            return segment_cover(space, shift=rng.randrange(0, 5))
        if shape == "single":
            return singleton_cover(space)
        return whole_head_cover(space)

    return memoized_strategy(space, f"seeded{seed}", cover_for)
