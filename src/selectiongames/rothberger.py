"""The single-selection game theorem: one pick per family from families that
cover infinitely often, and the joint-refinement reduction to the
finite-selection game.

`distinct_intersections` builds, from a sequence of finite families, the
cover of all n-fold intersections of sets drawn from n distinct families.
`select_one_per_family` applies a single-selection witness to those covers
and unpacks each selected intersection into an assignment of one member to
one previously unassigned source family; remaining families receive their
first member, so exactly one member is chosen from every family and the
chosen members cover the working horizon.

`menger_from_rothberger` derives a finite-selection strategy from a
single-selection strategy tree: after the opponent's index moves have pinned
down a bound sequence sigma (each move's largest index), the derived move is
the `wedge_tree` cover at sigma, the joint refinement of the covers at all
nodes coordinatewise below sigma (the large-cover play wedges too). The
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

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Sequence

from .covers import IndexedCover, witness_of
from .engine import AliceStrategy, ROTHBERGER_GAME, Transcript
from .errors import BudgetError, CrossSpaceError, GameError, IntegrityError, PreconditionError
from .products import often_innings
from .spaces import FiniteIntersection, OpenSet, Point, SpaceModel, first_space, member
from .trees import Path, TreeStrategy, distinct_covers_on_box, path_transcript

SoneSelector = Callable[[SpaceModel, Callable[[int], IndexedCover]], Iterator[int]]


def _symmetric_sums(values: Sequence[int], k: int) -> list[int]:
    """Elementary symmetric polynomials e_0..e_k of the given values."""
    e = [1] + [0] * k
    for v in values:
        for i in range(min(k, len(e) - 1), 0, -1):
            e[i] += e[i - 1] * v
    return e


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
    member choices. Ranks are computed arithmetically (block sizes are
    elementary symmetric sums of the family sizes), so both member lookup and
    the witness work at any index without materializing the enumeration. The
    witness takes the first n distinct families whose listed members contain
    the point — they exist when the point is covered infinitely often — and
    returns the exact rank of that combination, raising :class:`BudgetError`
    past `family_limit` families.
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

    def size(i: int) -> int:
        return len(fam(i))

    def block(bound: int) -> int:
        # members whose largest family index is exactly `bound`
        head_sizes = [size(i) for i in range(1, bound)]
        return size(bound) * _symmetric_sums(head_sizes, n - 1)[n - 1]

    def unrank(j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        rest = j - 1
        bound = n
        while True:
            b = block(bound)
            if rest < b:
                break
            rest -= b
            bound += 1
        # fix the head combination lexicographically
        head: list[int] = []
        lo = 1
        for pos in range(n - 1):
            need = n - 2 - pos  # head entries still to choose after this one
            a = lo
            while True:
                suffix = [size(i) for i in range(a + 1, bound)]
                cnt = size(a) * _symmetric_sums(suffix, need)[need] * size(bound)
                for h in head:
                    cnt *= size(h)
                if rest < cnt:
                    break
                rest -= cnt
                a += 1
            head.append(a)
            lo = a + 1
        fams = tuple(head) + (bound,)
        # mixed-radix decomposition of the member choices (last varies fastest)
        radices = [size(i) for i in fams]
        choices = [0] * n
        for pos in range(n - 1, -1, -1):
            choices[pos] = rest % radices[pos] + 1
            rest //= radices[pos]
        return fams, tuple(choices)

    def rank(fams: Sequence[int], choices: Sequence[int]) -> int:
        bound = fams[-1]
        total = 0
        for b in range(n, bound):
            total += block(b)
        head = list(fams[:-1])
        lo = 1
        fixed = 1
        for pos, chosen_a in enumerate(head):
            need = n - 2 - pos
            for a in range(lo, chosen_a):
                suffix = [size(i) for i in range(a + 1, bound)]
                total += fixed * size(a) * _symmetric_sums(suffix, need)[need] * size(bound)
            fixed *= size(chosen_a)
            lo = chosen_a + 1
        member_rank = 0
        for i, c in zip(fams, choices):
            member_rank = member_rank * size(i) + (c - 1)
        return total + member_rank + 1

    def record(j: int) -> tuple[tuple[int, int], ...]:
        fams, choices = unrank(j)
        return tuple(zip(fams, choices))

    def sets(j: int) -> OpenSet:
        fams, choices = unrank(j)
        parts = tuple(fam(i)[c - 1] for i, c in zip(fams, choices))
        return FiniteIntersection(parts=parts)

    def witness(p: Point) -> int:
        fams: list[int] = []
        choices: list[int] = []
        i = 1
        while len(fams) < n:
            if i > family_limit:
                raise BudgetError(
                    f"point {p!r} not covered by {n} families within the first {family_limit}"
                )
            for m, s in enumerate(fam(i), start=1):
                if member(s, p):
                    fams.append(i)
                    choices.append(m)
                    break
            i += 1
        return rank(fams, choices)

    space = first_space(fam(1))
    if space is None:
        raise ValueError("cannot infer the space from the families")
    cover = IndexedCover(
        space=space,
        sets=sets,
        witness=witness,
        label=f"distinct({n})",
    )
    return cover, record


def check_infinitely_often(
    families: Callable[[int], Sequence[OpenSet]],
    space: SpaceModel,
    horizon: int,
    family_budget: int,
) -> None:
    """Verify the working form of the infinitely-often hypothesis: the point
    targeted at stage i+1 must lie in the union of at least i+1 distinct
    families within the budget."""
    for idx, p in enumerate(space.points(horizon)):
        needed = idx + 1
        found = 0
        for i in range(1, family_budget + 1):
            if any(member(s, p) for s in families(i)):
                found += 1
                if found >= needed:
                    break
        if found < needed:
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
    recorded member. Families left unassigned when coverage is reached
    receive member 1. The infinitely-often hypothesis is checked on the first
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
        if _assigned_cover(families, assigned, space, horizon):
            break
    else:
        raise BudgetError(f"no covering assignment within {stage_cap} stages")

    out: list[tuple[int, int]] = []
    for i in range(1, count + 1):
        out.append((i, assigned.get(i, 1)))
    return out


def _assigned_cover(
    families: Callable[[int], Sequence[OpenSet]],
    assigned: dict[int, int],
    space: SpaceModel,
    horizon: int,
) -> bool:
    pts = space.points(horizon)
    sets = [families(i)[m - 1] for i, m in assigned.items()]
    return all(any(member(s, p) for s in sets) for p in pts)


# ---------------------------------------------------------------------------
# Joint refinements and the derived finite-selection strategy


def witness_once(space: SpaceModel, scan: Callable[[Point], int]) -> Callable[[Point], int]:
    """The witness `scan`, run at most once per point id.

    A point of another space is refused before the lookup, as in
    `IndexedCover.first_hit`, so the memo is keyed by ``p.id``; a scan that
    raises stores nothing and runs again when asked again.
    """
    known: dict[int, int] = {}

    def witness(p: Point) -> int:
        if p.space is not space:
            raise CrossSpaceError(f"cover over {space.tag} queried with point of {p.space.tag}")
        hit = known.get(p.id)
        if hit is None:
            hit = known[p.id] = scan(p)
        return hit

    return witness


def joint_refinement_cover(
    tree: TreeStrategy,
    bound: Path,
    box_limit: int = 20_000,
) -> IndexedCover:
    """The joint refinement of the node covers on the box below `bound`,
    enumerated diagonally: member n is the intersection of the n-th members
    of the distinct covers on the box.

    Every member refines each node cover by construction and records factor
    index n at every node. The distinct covers are collected once by
    `distinct_covers_on_box`: by key states on a tree with `keys`, at any box
    size, else by walking the box under `box_limit`.

    Two or more distinct covers, one of them not flagged increasing, raise
    :class:`PreconditionError` before any member or witness is built: the
    diagonal need not cover then. Otherwise the max of the factor witnesses
    is a hit, and the witness returns it after one test on the refinement's
    own memoized member, whose membership memo `witness_of` then reads; a
    miss (a cover falsely flagged increasing) raises
    :class:`IntegrityError`. The witness runs once per point.
    """
    factors = distinct_covers_on_box(tree, bound, limit=box_limit)
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
        witness=witness_once(tree.space, witness),
        increasing=all(c.increasing for c in factors),
        label=f"refine{bound}",
    )
    return joint


def wedge_tree(tree: TreeStrategy, box_limit: int = 20_000) -> TreeStrategy:
    """Replace each node's cover by the joint refinement of the covers at all
    nodes coordinatewise below it.

    The new set at node sigma + (n,) is the intersection of the n-th members
    of the distinct covers at the nodes tau <= sigma, and the witness is the
    max of their witnesses (see `joint_refinement_cover`). On increasing
    covers the new covers stay increasing, each refines the original at the
    same node, and the finer-with-larger-nodes monotonicity holds: for
    tau <= sigma and m <= n the new set at sigma + (m,) is contained in the
    new set at tau + (n,).

    The distinct covers of a tree with `keys` are read by key states, at any
    box size; otherwise the box is walked, and a box of more than `box_limit`
    nodes raises :class:`ResourceLimitError`.
    """
    return TreeStrategy(
        space=tree.space,
        cover_at_raw=lambda path: joint_refinement_cover(tree, path, box_limit=box_limit),
        back_map=tree.back_map,
        label=f"wedge({tree.label})",
    )


def bounds_from_moves(moves: Sequence[tuple[int, ...]]) -> Path:
    """The bound sequence pinned down by the opponent's index moves so far:
    each move extends it by its largest index (the least bound m such that,
    by the factor records, the move refines every node cover's first m
    members)."""
    return tuple(map(max, moves))


def menger_from_rothberger(
    tree: TreeStrategy,
    box_limit: int = 20_000,
) -> AliceStrategy:
    """Derive a finite-selection strategy from a single-selection tree.

    The opening move is the root cover; after selections with bounds
    (m_1, ..., m_k) the move is the joint refinement over the box below that
    bound sequence: the wedged tree's memoized cover at that node.
    """
    wedged = wedge_tree(tree, box_limit=box_limit)
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
    box_limit: int = 20_000,
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
    derived = menger_from_rothberger(tree, box_limit=box_limit)
    # extend one infinitely-often play against the derived strategy until the
    # point targeted at stage i+1 is covered at i+1 distinct innings, checked
    # at `innings` and its doublings (multiplicity grows without bound)
    pts = tree.space.points(horizon)
    plays = often_innings(derived)
    moves: list[tuple[int, ...]] = []
    selections: list[tuple[OpenSet, ...]] = []
    for target in (innings, 2 * innings, 4 * innings, 8 * innings):
        for sel, _ in islice(plays, target - len(moves)):
            moves.append(sel.indices)
            selections.append(sel.sets())
        if all(sum(any(member(s, p) for s in sets) for sets in selections) > i for i, p in enumerate(pts)):
            break
    else:
        raise BudgetError(
            f"infinitely-often multiplicity did not reach the stage schedule within {innings * 8} innings"
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
