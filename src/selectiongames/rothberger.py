"""The single-selection game theorem: one pick per family from families that
cover infinitely often, and the joint-refinement reduction to the
finite-selection game.

`distinct_intersections` builds, from a sequence of finite families, the
cover of all n-fold intersections of sets drawn from n distinct families,
ranked from one table of symmetric sums of the family sizes.
`select_one_per_family` applies a single-selection witness to those covers
and unpacks each selected intersection into an assignment of one member to
one previously unassigned source family, filtering the points still
uncovered by each new member; remaining families receive their first
member, so exactly one member is chosen from every family and the chosen
members cover the working horizon. `multiplicity_shortfall` names the first
point covered too rarely, for the hypothesis check and the play's schedule.

`menger_from_rothberger` derives a finite-selection strategy from a
single-selection strategy tree: after the opponent's index moves have pinned
down a bound sequence sigma (each move's largest index), the derived move is
the `wedge_tree` cover at sigma, the joint refinement of the covers at all
nodes coordinatewise below sigma (the large-cover play wedges too), read
under the one box limit, `trees.BOX_LIMIT`. The
refinement is enumerated diagonally — its n-th member is the intersection of
the n-th members of the distinct node covers on the box — so each member
carries the factor record j = n for every node, recoveries stay bookkeeping,
and the enumeration is a cover whenever the node covers are increasing (the
witness is the max of the factor witnesses, verified by one membership
test).

Precondition: on every box the construction refines, either all nodes
carry one cover or every distinct cover is flagged increasing. Otherwise
the diagonal members may miss points (nodes (1,) and (2,) carrying
({0}, {1}) and ({1}, {0}) on two points give members that contain
nothing), so `joint_refinement_cover` raises :class:`PreconditionError`,
naming the box's bound and the covers, before building any member or
witness. `wedge_tree`'s covers share it.

`rothberger_counterplay` composes the pieces: play the infinitely-often
counterplay against the derived strategy, pick one refinement member per
inning, and read off the single-selection play whose n-th pick is the
recorded factor of the n-th picked member at the node the recovered indices
name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .covers import IndexedCover, witness_of
from .engine import AliceStrategy, ROTHBERGER_GAME, Transcript
from .errors import BudgetError, GameError, IntegrityError, PreconditionError
from .products import often_innings
from .spaces import FiniteIntersection, OpenSet, Point, SpaceModel, first_space, member
from .trees import Path, TreeStrategy, distinct_covers_on_box, path_transcript

SoneSelector = Callable[[SpaceModel, Callable[[int], IndexedCover]], Iterator[int]]


def distinct_intersections(
    families: Callable[[int], Sequence[OpenSet]],
    n: int,
    family_limit: int = 200,
) -> tuple[IndexedCover, Callable[[int], tuple[tuple[int, int], ...]]]:
    """The cover of n-fold intersections over n distinct families, and the
    record of a member: its factors' (family index, member index) pairs,
    family indices strictly increasing.

    Members are enumerated by increasing largest family index, then
    lexicographically in the family-index tuple, then lexicographically in the
    member choices. Ranks are computed arithmetically from one counting table
    of elementary symmetric sums of the family sizes, so both member lookup
    and the witness work at any index without materializing the enumeration.
    The witness takes the first n distinct families whose listed members
    contain the point — they exist when the point is covered infinitely often
    — and returns the exact rank of that combination, raising
    :class:`BudgetError` past `family_limit` families.
    """
    if n < 1:
        raise ValueError("intersection arity must be positive")

    fam_cache: dict[int, Sequence[OpenSet]] = {}

    def fam(i: int) -> Sequence[OpenSet]:
        if i > family_limit:
            raise BudgetError(f"intersection enumeration passed family {family_limit}")
        hit = fam_cache.get(i)
        if hit is None:
            hit = fam_cache[i] = tuple(families(i))
            if not hit:
                raise ValueError(f"family {i} is empty")
        return hit

    counts: list[int] = []  # counts[b - 1]: the members whose largest family index is b
    sums = [1] + [0] * (n - 1)  # e_0..e_{n-1} of the sizes of the families counted so far

    def blocks() -> Iterator[int]:
        """The member count per largest family index 1, 2, ...: the bound's
        size times e_{n-1} of the sizes below it (0 below n)."""
        for bound in itertools.count(1):
            if len(counts) < bound:
                size = len(fam(bound))
                counts.append(size * sums[n - 1])
                for k in range(n - 1, 0, -1):
                    sums[k] += sums[k - 1] * size
            yield counts[bound - 1]

    def tails(bound: int) -> list[list[int]]:
        """tails(bound)[a][k] is e_k of the sizes of families a..bound-1."""
        rows = [[1] + [0] * (n - 1)] * (bound + 1)
        for a in range(bound - 1, 0, -1):
            size, after = len(fam(a)), rows[a + 1]
            rows[a] = [1] + [after[k] + after[k - 1] * size for k in range(1, n)]
        return rows

    def unrank(j: int) -> tuple[tuple[int, int], ...]:
        rest = j - 1
        for bound, members in enumerate(blocks(), start=1):
            if rest < members:
                break
            rest -= members
        # fix the head combination lexicographically: entry a leads fixed * |a| *
        # tail[a + 1][need] members, fixed being the bound's and the head's sizes
        tail = tails(bound)
        fixed = len(fam(bound))
        head: list[int] = []
        a = 1
        for need in range(n - 2, -1, -1):
            while rest >= (members := fixed * len(fam(a)) * tail[a + 1][need]):
                rest -= members
                a += 1
            head.append(a)
            fixed *= len(fam(a))
            a += 1
        fams = (*head, bound)
        # mixed-radix decomposition of the member choices (last varies fastest)
        choices = [0] * n
        for pos in range(n - 1, -1, -1):
            choices[pos] = rest % len(fam(fams[pos])) + 1
            rest //= len(fam(fams[pos]))
        return tuple(zip(fams, choices))

    def rank(factors: Sequence[tuple[int, int]]) -> int:
        bound = factors[-1][0]
        total = sum(itertools.islice(blocks(), bound - 1))
        tail = tails(bound)
        fixed = len(fam(bound))
        lo = 1
        for need, (chosen, _) in zip(range(n - 2, -1, -1), factors[:-1]):
            total += fixed * sum(len(fam(a)) * tail[a + 1][need] for a in range(lo, chosen))
            fixed *= len(fam(chosen))
            lo = chosen + 1
        member_rank = 0
        for i, c in factors:
            member_rank = member_rank * len(fam(i)) + (c - 1)
        return total + member_rank + 1

    def sets(j: int) -> OpenSet:
        return FiniteIntersection(parts=tuple(fam(i)[c - 1] for i, c in unrank(j)))

    def witness(p: Point) -> int:
        factors: list[tuple[int, int]] = []  # the first n families containing p, with the member
        for i in range(1, family_limit + 1):
            m = next((m for m, s in enumerate(fam(i), start=1) if member(s, p)), None)
            if m is not None:
                factors.append((i, m))
                if len(factors) == n:
                    return rank(factors)
        raise BudgetError(f"point {p!r} not covered by {n} families within the first {family_limit}")

    space = first_space(fam(1))
    if space is None:
        raise ValueError("cannot infer the space from the families")
    cover = IndexedCover(
        space=space,
        sets=sets,
        witness=witness,
        label=f"distinct({n})",
    )
    return cover, unrank


def multiplicity_shortfall(
    families: Callable[[int], Sequence[OpenSet]],
    count: int,
    points: Sequence[Point],
) -> tuple[Point, int, int] | None:
    """The first point p_i that fewer than i + 1 of the first `count` families
    cover (a family covers a point when one of its members contains it), with
    the number that do and i + 1; None when every point is covered often
    enough."""
    for need, p in enumerate(points, start=1):
        found = 0
        for f in range(1, count + 1):
            found += any(member(s, p) for s in families(f))
            if found == need:
                break
        if found < need:
            return p, found, need
    return None


def check_infinitely_often(
    families: Callable[[int], Sequence[OpenSet]],
    space: SpaceModel,
    horizon: int,
    family_budget: int,
) -> None:
    """Verify the working form of the infinitely-often hypothesis: the point
    targeted at stage i+1 must lie in the union of at least i+1 distinct
    families within the budget."""
    if short := multiplicity_shortfall(families, family_budget, space.points(horizon)):
        p, found, needed = short
        raise GameError(
            f"hypothesis fails: {p!r} is covered by only {found} of the first "
            f"{family_budget} families (need {needed})"
        )


def select_one_per_family(
    families: Callable[[int], Sequence[OpenSet]],
    count: int,
    sone: SoneSelector,
    space: SpaceModel,
    horizon: int,
) -> list[tuple[int, int]]:
    """Pick one member from each of the first `count` families so that the
    picked members cover every point below the horizon.

    Stage n applies the single-selection witness to the n-fold intersection
    cover; the selected intersection's factors name n distinct families, at
    least one of which is still unassigned, and that family receives its
    recorded member, which filters the points below the horizon still
    uncovered. Families left unassigned when coverage is reached receive
    member 1. The infinitely-often hypothesis is checked on the first
    `count` families, and `max(horizon, 1) + 5` stages are tried.
    """
    stage_cap = max(horizon, 1) + 5
    check_infinitely_often(families, space, horizon, count)

    covers: dict[int, tuple[IndexedCover, Callable[[int], tuple[tuple[int, int], ...]]]] = {}

    def cover_for(n: int) -> IndexedCover:
        if n not in covers:
            covers[n] = distinct_intersections(families, n, family_limit=count)
        return covers[n][0]

    assigned: dict[int, int] = {}
    uncovered = space.points(horizon)
    picks = sone(space, cover_for)
    for stage in range(1, stage_cap + 1):
        j = next(picks)
        for fam_idx, member_idx in covers[stage][1](j):
            if fam_idx not in assigned:
                assigned[fam_idx] = member_idx
                break
        else:
            # unreachable: the stage-n pick has n distinct factor families
            # and at most n-1 assignments exist before it
            raise IntegrityError("no unassigned factor family at stage " + str(stage))
        picked = families(fam_idx)[member_idx - 1]
        uncovered = [p for p in uncovered if not member(picked, p)]
        if not uncovered:
            break
    else:
        raise BudgetError(f"no covering assignment within {stage_cap} stages")

    return [(i, assigned.get(i, 1)) for i in range(1, count + 1)]


# ---------------------------------------------------------------------------
# Joint refinements and the derived finite-selection strategy


def joint_refinement_cover(tree: TreeStrategy, bound: Path) -> IndexedCover:
    """The joint refinement of the node covers on the box below `bound`,
    enumerated diagonally: member n is the intersection of the n-th members
    of the distinct covers on the box.

    Every member refines each node cover by construction and records factor
    index n at every node. The distinct covers are collected once by
    `distinct_covers_on_box`: by key states on a tree with `keys`, else by
    walking the box, and under `trees.BOX_LIMIT` either way.

    Two or more distinct covers, one of them not flagged increasing, raise
    :class:`PreconditionError` before any member or witness is built: the
    diagonal need not cover then. Otherwise the max of the factor witnesses
    is a hit, and the witness returns it after one test on the refinement's
    own memoized member, whose membership memo `witness_of` then reads; a
    miss (a cover falsely flagged increasing) raises
    :class:`IntegrityError`. The cover runs the witness once per point.
    """
    factors = distinct_covers_on_box(tree, bound)
    if len(factors) > 1 and not all(c.increasing for c in factors):
        labels = ", ".join(repr(c.label) + ("" if c.increasing else " (not increasing)") for c in factors)
        raise PreconditionError(
            f"the diagonal refinement below bound {bound} needs increasing covers; the box holds {labels}"
        )

    def sets(n: int) -> OpenSet:
        if len(factors) == 1:
            return factors[0].sets(n)
        return FiniteIntersection(parts=tuple(c.sets(n) for c in factors))

    def witness(p: Point) -> int:
        start = max(witness_of(c, p) for c in factors)
        if member(joint.sets(start), p):
            return start
        raise IntegrityError(
            f"joint member {start} below bound {bound}, the max of the factor witnesses, does not contain {p!r}"
        )

    joint = IndexedCover(
        space=tree.space,
        sets=sets,
        witness=witness,
        increasing=all(c.increasing for c in factors),
        label=f"refine{bound}",
    )
    return joint


def wedge_tree(tree: TreeStrategy) -> TreeStrategy:
    """Replace each node's cover by the joint refinement of the covers at all
    nodes coordinatewise below it.

    The new set at node sigma + (n,) is the intersection of the n-th members
    of the distinct covers at the nodes tau <= sigma, and the witness is the
    max of their witnesses (see `joint_refinement_cover`). On increasing
    covers the new covers stay increasing, each refines the original at the
    same node, and the finer-with-larger-nodes monotonicity holds: for
    tau <= sigma and m <= n the new set at sigma + (m,) is contained in the
    new set at tau + (n,).

    The distinct covers of a tree with `keys` are read by key states, else by
    a box walk; either raises :class:`ResourceLimitError` past
    `trees.BOX_LIMIT`.
    """
    return TreeStrategy(
        space=tree.space,
        cover_at_raw=lambda path: joint_refinement_cover(tree, path),
        back_map=tree.back_map,
        label=f"wedge({tree.label})",
    )


def bounds_from_moves(moves: Sequence[tuple[int, ...]]) -> Path:
    """The bound sequence pinned down by the opponent's index moves so far:
    each move extends it by its largest index (the least bound m such that,
    by the factor records, the move refines every node cover's first m
    members)."""
    return tuple(map(max, moves))


def menger_from_rothberger(tree: TreeStrategy) -> AliceStrategy:
    """Derive a finite-selection strategy from a single-selection tree.

    The opening move is the root cover; after selections with bounds
    (m_1, ..., m_k) the move is the joint refinement over the box below that
    bound sequence: the wedged tree's memoized cover at that node.
    """
    wedged = wedge_tree(tree)
    return AliceStrategy(
        space=tree.space, move=lambda moves: wedged.cover_at(bounds_from_moves(moves)), name=f"refined({tree.label})"
    )


@dataclass(frozen=True)
class RothbergerResult:
    transcript: Transcript
    picked_path: Path
    bounds: Path


def rothberger_counterplay(
    tree: TreeStrategy,
    sone: SoneSelector,
    innings: int,
    horizon: int = 5,
) -> RothbergerResult:
    """The winning single-selection play against a strategy tree.

    Pipeline: derive the joint-refinement strategy, run the infinitely-often
    counterplay against it, pick one refinement member per inning with the
    single-selection witness, and reconstruct the play of the original tree:
    the n-th picked member is a subset of the member its record names at the
    node the previously recovered indices name, and that factor index is at
    most the n-th bound. Transcript audit fields carry the (bound, pick)
    pair per inning.
    """
    if innings < 1:
        raise ValueError("a play needs at least one inning")
    derived = menger_from_rothberger(tree)
    # extend one infinitely-often play against the derived strategy until the
    # point targeted at stage i+1 is covered at i+1 distinct innings, checked
    # at `innings` and its doublings (multiplicity grows without bound)
    pts = tree.space.points(horizon)
    plays = often_innings(derived)
    moves: list[tuple[int, ...]] = []
    selections: list[tuple[OpenSet, ...]] = []
    for target in (innings, 2 * innings, 4 * innings, 8 * innings):
        for sel, _ in itertools.islice(plays, target - len(moves)):
            moves.append(sel.indices)
            selections.append(sel.sets())
        if not (short := multiplicity_shortfall(lambda i: selections[i - 1], len(selections), pts)):
            break
    else:
        p, found, need = short
        raise BudgetError(
            f"infinitely-often multiplicity did not reach the stage schedule within {innings * 8} innings: "
            f"{p!r} is covered at {found} innings and needs {need}"
        )

    bounds = bounds_from_moves(moves)
    chosen = select_one_per_family(
        lambda i: selections[i - 1],
        count=len(selections),
        sone=sone,
        space=tree.space,
        horizon=horizon,
    )

    # recover the single-selection play: the pick at inning i is a diagonal
    # refinement member, so its factor record at every box node is its own
    # member index within the refinement cover
    picked_path = tuple(indices[pos - 1] for indices, (_, pos) in zip(moves, chosen))
    for i, (k_i, m_i) in enumerate(zip(picked_path, bounds), start=1):
        if k_i > m_i:
            raise IntegrityError(f"recovered index {k_i} exceeds bound {m_i} at inning {i}")
    audits = [{"bound": m_i, "pick": k_i} for k_i, m_i in zip(picked_path, bounds)]
    return RothbergerResult(
        transcript=path_transcript(tree, picked_path, ROTHBERGER_GAME, audits, f"single({tree.label})"),
        picked_path=picked_path,
        bounds=bounds,
    )
