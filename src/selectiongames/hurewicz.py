"""The finite-selection game theorem as an executable construction.

Three pieces live here:

1. `normalize_strategy` applies the standard strategy simplifications to an
   arbitrary first-player strategy: every cover is replaced by its increasing
   form (so single-set selections suffice and back-translate to legal finite
   moves), and every reply is head-normalized so its first member equals the
   set just chosen. The result is a :class:`~.trees.TreeStrategy` whose
   covers are increasing, whose nodes satisfy the head condition, and whose
   plays back-translate to legal plays of the raw strategy.

2. The tail-cover machinery: the family of node sets at a fixed depth has the
   property that intersections of its cofinite subfamilies again form an open
   cover. `cofinite_intersection` computes such an intersection as a finite
   intersection of node sets (at depth one an increasing cover's cofinite
   intersection is its minimum surviving member), named by a walk from the
   root that keeps only the parts that can bind, and `tail_derived_cover`
   packages the intersections as an indexed cover with a constructive
   witness. Many specs reduce to the same node sets, so each level family
   keeps one expression per distinct intersection, keyed by the node paths
   it intersects. A tail cover's witness hands the omitting nodes it walked
   to the member at the index it returns, so only an index no witness
   produced is decoded back into nodes.

3. `Counterplay` plays against the normalized tree, one inning at a time and
   resumably: at each inning it selects a member of the current cover that
   stays inside a cofinite subfamily protecting the enumerated points seen so
   far. The chosen set then contains the intersection of the protected
   subfamily, so the play covers every horizon once the inning count reaches
   it, and the back-translated play is legal for the raw strategy. In a
   normalized tree that member is the max of the newly protected points'
   first hits. `bob_counterplay_menger` records such a play.

Key computational fact used throughout: in a normalized tree the set at a
child node contains the set at its parent, so the nodes at depth n whose sets
omit a given point are exactly the descendants of omitting nodes, and their
exclusion set can be generated level by level, in sorted order, from
per-node thresholds: a node cover's first hit for the point, less one, asked
up to its verified witness (headed and increasing covers answer by rule,
building no member).
The set's size grows like the product of the thresholds, which is exponential
in the depth; the counterplay therefore reads a point's omitting children off
its first hit, and excluded index sets are materialized only where tests
need literal cofinite specs (small depths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .covers import (
    CofiniteSpec,
    IndexedCover,
    increasing_form,
    head_normalize,
    witness_of,
)
from .engine import AliceStrategy, MENGER_GAME, Moves, ROTHBERGER_GAME, Transcript, make_inning, replay
from .errors import BudgetError, GameError, IntegrityError
from .pairing import decode_tuple, encode_tuple, excluded_set_from_index, excluded_set_index
from .spaces import FiniteIntersection, OpenSet, Point, SpaceModel, member
from .trees import Path, TreeStrategy, path_transcript

EXCLUSION_NODE_LIMIT = 500_000  # omitting nodes one exclusion set may materialize


class FiniteWinFound(GameError):
    """Raised while materializing a play when the sets chosen so far already
    cover the space up to the working horizon: the second player has won
    after finitely many steps and no machinery is needed."""

    def __init__(self, path: Path):
        super().__init__(f"finite selection at node {path} already covers the working horizon")
        self.path = path


def raw_move(depth: int, idx: int) -> tuple[int, ...]:
    """The raw strategy's selection behind tree child `idx` at `depth` (0 at
    the root): the first u members of the raw cover, where u is the child
    index at the root and one less (at least 1) below it, since each reply's
    head member stands for the set already chosen."""
    return tuple(range(1, (idx if depth == 0 else max(1, idx - 1)) + 1))


def normalize_strategy(
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

    A node keeps its raw moves and how many leading horizon points its set
    holds; a child adds one `raw_move` to its parent's moves and resumes the
    scan at its parent's count (its set contains its parent's). Its own move
    is asked before its parent is read, as in a build from the root."""
    space = space or raw.space
    horizon = None if finite_win_horizon is None else space.points(finite_win_horizon)
    nodes: dict[Path, tuple[Moves, int]] = {}  # materialized node -> (raw moves, leading horizon points held)

    def back_map(path: Path) -> Moves:
        parent = nodes.get(path[:-1]) if path else None
        if parent is None:
            return tuple(raw_move(depth, idx) for depth, idx in enumerate(path))
        return parent[0] + (raw_move(len(path) - 1, path[-1]),)

    def cover_at(path: Path) -> IndexedCover:
        moves = back_map(path)
        cover, covered = increasing_form(raw.move(moves)), 0
        if path:
            chosen = tree.set_at(path)  # `tree` is bound below, before any node is read
            covered = nodes[path[:-1]][1]
            if horizon is not None:
                while covered < len(horizon) and member(chosen, horizon[covered]):
                    covered += 1
                if covered == len(horizon):
                    raise FiniteWinFound(path)
            cover = head_normalize(chosen, cover)
        nodes[path] = (moves, covered)
        return cover

    label = f"normalized({raw.name})" if raw.name else "normalized"
    tree = TreeStrategy(space=space, cover_at_raw=cover_at, back_map=back_map, label=label)
    return tree


# ---------------------------------------------------------------------------
# Level families and the tail-cover machinery


@dataclass(frozen=True, eq=False)
class LevelFamily:
    """The family of node sets at a fixed depth of a normalized tree,
    enumerated through the iterated-pairing bijection between positive
    naturals and fixed-length index sequences.

    `_intersections` is the family's table of cofinite intersections, keyed
    by the node paths each one intersects (only the parts that can bind, see
    `cofinite_intersection`) and written only by `cofinite_intersection`: one
    expression (and so one membership memo) per distinct intersection asked
    of the family, freed with it."""

    tree: TreeStrategy
    level: int
    _intersections: dict[tuple[Path, ...], OpenSet] = field(default_factory=dict, repr=False)

    def node(self, j: int) -> Path:
        return decode_tuple(j, self.level)

    def sets(self, j: int) -> OpenSet:
        return self.tree.set_at(self.node(j))


def level_family(tree: TreeStrategy, n: int) -> LevelFamily:
    """The depth-n family: every set the strategy can offer at its n-th move.

    Depth one is exactly the root cover; in general the family collects
    set_at over all length-n index sequences, which coincides with collecting
    the members of all depth-(n-1) node covers.
    """
    if n < 1:
        raise ValueError("levels are 1-based")
    return LevelFamily(tree=tree, level=n)


def _named_parts(excluded: set[Path], node: Path, below: int, parts: list[Path]) -> None:
    """Append the parts of the surviving depth-(len(node) + below)
    descendants of `node`: for each child whose all-ones descendant at that
    depth is excluded, the child's own parts, then the first child whose
    all-ones descendant survives."""
    ones = (1,) * (below - 1)
    j = 1
    while node + (j,) + ones in excluded:
        if below > 1:
            _named_parts(excluded, node + (j,), below - 1, parts)
        j += 1
    parts.append(node + (j,))


def cofinite_intersection(fam: LevelFamily, spec: CofiniteSpec, nodes: list[Path] | None = None) -> OpenSet:
    """The intersection of the cofinite subfamily of a level family, as one
    flat finite intersection of node sets, shared by every spec that reduces
    to it.

    In a normalized tree a child's set contains its parent's and each cover
    is increasing, so a node's all-ones descendant at the family's depth
    carries the node's own set, the least set below it. Below a node v, once
    child m's all-ones descendant survives, every surviving node under a
    child from m on contains the set at v + (m,), and that set is itself one
    of the intersected sets: the children from m on contribute exactly the
    part v + (m,). The walk therefore starts at the root and, at each node,
    walks its children j = 1, 2, ... while child j's all-ones descendant is
    excluded, recursing into each such child (an excluded leaf contributes
    nothing), names v + (m,) and stops. At level 1, or when the all-ones node
    (index 1 at every level) survives, the one part is the spec's least
    surviving index.

    The excluded nodes are `nodes`, when the caller already holds them (a
    witness's omitting nodes), else the spec's indices decoded once.

    The key is the named paths in walk order, each node's deeper parts
    before its own, and the family's table maps it to the one node's set or
    ``FiniteIntersection`` of the parts in key order. Only a key not yet in
    the table materializes its nodes, in key order.
    """
    if fam.level == 1 or 1 not in spec.excluded:
        key: tuple[Path, ...] = ((spec.min_surviving(),),)
    else:
        excluded = {decode_tuple(idx, fam.level) for idx in spec.excluded} if nodes is None else set(nodes)
        parts: list[Path] = []
        _named_parts(excluded, (), fam.level, parts)
        key = tuple(parts)
    hit = fam._intersections.get(key)
    if hit is None:
        sets = tuple(map(fam.tree.set_at, key))
        hit = fam._intersections[key] = sets[0] if len(sets) == 1 else FiniteIntersection(parts=sets)
    return hit


class ExclusionOracle:
    """The omitting-node structure of one point at one level, queried lazily.

    In a normalized tree, a node's set contains its parent's set, so the
    depth-n nodes omitting a point are the depth-n descendants of omitting
    nodes; per omitting node the omitting children form an initial segment of
    the child indices. Its length is the node cover's first hit for the point
    less one, asked up to the cover's verified witness: exact for any cover.
    `materialize` leaves the node list it walked on the oracle as `nodes`.
    """

    def __init__(self, tree: TreeStrategy, level: int, point: Point):
        self.tree = tree
        self.level = level
        self.point = point

    def _omitting_children_below(self, path: Path) -> int:
        """Number of leading child indices m with the point outside
        set_at(path + (m,)); children from there on contain the point."""
        cover = self.tree.cover_at(path)
        return cover.first_hit(self.point, witness_of(cover, self.point)) - 1

    def omits(self, path: Path) -> bool:
        """Does the set at this node omit the point?"""
        if len(path) != self.level:
            raise ValueError("query is level-specific")
        return not member(self.tree.set_at(path), self.point)

    def excluded_nodes(self) -> Iterator[Path]:
        """Enumerate every omitting node at this level, in sorted order:
        each level's nodes are their parents' children in parent order.

        The count is the product of the per-node scan thresholds, exponential
        in the level; past `EXCLUSION_NODE_LIMIT` nodes it raises BudgetError.
        """
        frontier: list[Path] = [()]
        produced = 0
        for depth in range(1, self.level + 1):
            next_frontier: list[Path] = []
            for parent in frontier:
                bad = self._omitting_children_below(parent)
                for m in range(1, bad + 1):
                    child = parent + (m,)
                    produced += 1
                    if produced > EXCLUSION_NODE_LIMIT:
                        raise BudgetError(
                            f"exclusion set of {self.point!r} at level {self.level}"
                            f" exceeds {EXCLUSION_NODE_LIMIT} nodes"
                        )
                    next_frontier.append(child)
            frontier = next_frontier
        yield from frontier

    def materialize(self) -> CofiniteSpec:
        """The omitting nodes as a spec of their indices; the sorted node
        list stays on the oracle as `nodes`."""
        self.nodes = list(self.excluded_nodes())
        return CofiniteSpec(frozenset(encode_tuple(p) for p in self.nodes))


def tail_derived_cover(fam: LevelFamily) -> IndexedCover:
    """The cover of cofinite intersections of a level family.

    Members are indexed by the binary-subset bijection on excluded index
    sets; the witness for a point materializes its omitting-node structure
    (exact at this level) and returns the index of the spec excluding it.
    The witness keeps its spec and node list for the member at that index,
    so that member is keyed from the nodes the witness walked; only an index
    no witness produced is decoded. At most one handoff is
    pending, and each point's witness, run once, replaces it.
    """
    pending: dict[int, tuple[CofiniteSpec, list[Path]]] = {}

    def sets(j: int) -> OpenSet:
        handoff = pending.pop(j, None)
        if handoff is not None:
            return cofinite_intersection(fam, *handoff)
        return cofinite_intersection(fam, CofiniteSpec(excluded_set_from_index(j)))

    def witness(p: Point) -> int:
        pending.clear()
        oracle = ExclusionOracle(fam.tree, fam.level, p)
        spec = oracle.materialize()
        j = excluded_set_index(spec.excluded)
        pending[j] = (spec, oracle.nodes)
        return j

    return IndexedCover(
        space=fam.tree.space,
        sets=sets,
        witness=witness,
        label=f"tail(level={fam.level})",
    )


# ---------------------------------------------------------------------------
# The counterplay


@dataclass(frozen=True)
class CounterplayResult:
    """A winning play: its tree path and its transcript, back-translated to
    the raw strategy when one was given."""

    tree_path: Path
    transcript: Transcript
    finite_win: bool = False


def least_admissible_child(cover: IndexedCover, points: Sequence[Point], probe_limit: int) -> int:
    """The least index whose member contains every point, or an index above
    `probe_limit` if none up to there does. In an increasing cover a member
    contains a point from its first hit on, so this is the max of the first
    hits (1 for no points); a cover not flagged increasing raises ValueError."""
    if not cover.increasing:
        raise ValueError(f"least_admissible_child expects an increasing cover, got {cover!r}")
    return max((cover.first_hit(p, probe_limit) for p in points), default=1)


def secure_child(tree: TreeStrategy, path: Path, protected: list[Point], secured: set[int], probe_limit: int | None) -> int:
    """The counterplay's move at a node: its least child containing every
    protected point. Points not in `secured` (ids) are searched, up to
    `probe_limit` (BudgetError past it) or, for None, their witnesses, and then
    join it; a chosen child omitting a protected point raises IntegrityError."""
    cover = tree.cover_at(path)
    fresh = [p for p in protected if p.id not in secured]
    limit = max((cover.witness(p) for p in fresh), default=1) if probe_limit is None else probe_limit
    chosen = least_admissible_child(cover, fresh, limit)
    if chosen > limit and probe_limit is not None:
        raise BudgetError(f"no admissible child within {probe_limit} probes at inning {len(path) + 1}")
    for p in protected:
        if ExclusionOracle(tree, len(path) + 1, p).omits(path + (chosen,)):
            raise IntegrityError(f"child {chosen} of node {path} omits protected point {p!r}")
    secured.update(p.id for p in fresh)
    return chosen


class Counterplay:
    """The winning counterplay against a normalized tree, kept so that a
    longer play extends a shorter one: `extend(n)` plays on until the path
    has n moves, choosing each move once. At inning n the move is the least
    child containing the protected points, one list that grows by a point an
    inning to the first n enumerated points of a countable model (the
    canonical selection schedule) and holds a finite model's every point.

    The tree must be normalized (increasing node covers, each headed by its
    node's set). Then every child holds the points earlier moves secured, and
    the move is the max of the new points' first hits (`secure_child`); on a
    tree that is not, a move omitting a protected point raises IntegrityError.

    If materializing the tree raises :class:`FiniteWinFound`, the witnessing
    path is the play, with no skipped children: those finitely many choices
    already cover the working horizon. `probe_limit` bounds each move's
    search, or for None each new point's witness does (`secure_child`).
    """

    def __init__(self, tree: TreeStrategy, probe_limit: int | None = 10_000):
        self.tree, self.probe_limit, self._size = tree, probe_limit, tree.space.size
        self.path: Path = ()
        self.finite_win = False
        self._secured: set[int] = set()
        self._protected: list[Point] = [] if self._size is None else tree.space.all_points()

    def extend(self, innings: int) -> Path:
        try:
            while len(self.path) < innings and not self.finite_win:
                if self._size is None and len(self._protected) == len(self.path):
                    self._protected.append(self.tree.space.point(len(self.path)))
                self.path += (secure_child(self.tree, self.path, self._protected, self._secured, self.probe_limit),)
        except FiniteWinFound as fw:
            self.path, self.finite_win = fw.path, True
        return self.path

    def audit(self, n: int) -> dict[str, object]:
        """Inning n's tree child, children skipped as excluded and protected point count."""
        chosen = self.path[n - 1]
        skipped = [] if self.finite_win else list(range(1, chosen))
        protected = n if self._size is None else self._size
        return {"tree_choice": chosen, "excluded_children_probed": skipped, "protected_points": protected}


def bob_counterplay_menger(
    tree: TreeStrategy,
    raw: AliceStrategy | None = None,
    innings: int = 10,
) -> CounterplayResult:
    """Play the winning `Counterplay`, under its default probe limit, against
    a normalized tree for `innings` innings and record it.

    The transcript is emitted in terms of the raw strategy when one is given
    (covers and finite selections reconstructed through the tree's back-map),
    and in tree form otherwise. Audit fields record, per inning, the child
    indices that were skipped as excluded and the protected point count.
    """
    if innings < 1:
        raise ValueError("a play needs at least one inning")
    play = Counterplay(tree)
    play.extend(innings)
    label = f"counterplay({tree.label})"
    audits = [play.audit(n) for n in range(1, len(play.path) + 1)]
    if raw is not None and tree.back_map is not None:
        back = tree.back_map(play.path)
        records = tuple(
            make_inning(MENGER_GAME, n, cover, indices, audit=audit)
            for n, (cover, indices, audit) in enumerate(zip(replay(raw, back), back, audits), start=1)
        )
        transcript = Transcript(game=MENGER_GAME, innings=records, label=label)
    else:
        audits = [{k: v for k, v in audit.items() if k != "tree_choice"} for audit in audits]
        transcript = path_transcript(tree, play.path, ROTHBERGER_GAME, audits, label)
    return CounterplayResult(tree_path=play.path, transcript=transcript, finite_win=play.finite_win)
