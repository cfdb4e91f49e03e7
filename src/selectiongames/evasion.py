"""The large-cover counterplay via greedy index traces and an evasion
function.

Preprocessing: `strip_chosen_tree` removes from each node's cover the sets
chosen on the way to that node (largeness of the covers survives the removal
of finitely many sets, and the stripped play can never re-select an earlier
choice, so covering a point at k innings means k distinct sets).
The stripped tree steps between (source key, removed descriptions) states,
each step computed once per (state, child index), not once per node; states
with the same source cover and removed descriptions share one stripped
cover. `rothberger.wedge_tree` then replaces each node's cover by the joint
refinement of the node covers on the box below it (member n intersects the
n-th members of the distinct covers on the box); on
increasing covers the wedged covers are increasing, refine the originals,
and get finer as the node sequence grows coordinatewise. Two distinct
covers on a box, one not flagged increasing, raise `PreconditionError`.

For a point x, the greedy index trace follows the tree downward, always
taking the least child index whose set contains x; a node-relative variant is
pinned to a given prefix first. On a finer-with-larger-nodes tree these
traces satisfy: if n is the least argument where a trace is at most g, then x
lies in the set at node (g(1), ..., g(n)) — so a function g that eventually
dominates every trace (including the traces pinned to g's own prefixes)
yields a play whose chosen sets pick x up again and again.

The evasion function realizes that by a diagonal maximum over the sampled
points and a prefix family consisting of an enumeration prefix of all finite
sequences plus g's own prefixes (the latter are what the node-wise iteration
actually consumes; they are known recursively when g(n) is computed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from .covers import IndexedCover, witness_of
from .engine import GameKind, Moves, MultiplicityReport, Transcript, covering_innings
from .errors import BudgetError, StripExhaustedError
from .pairing import finseq_from_index
from .rothberger import wedge_tree
from .spaces import Point, describe, member
from .trees import Path, TreeStrategy, path_transcript

TRACE_SCAN_BUDGET = 10_000  # children a greedy trace scans at one node
STRIP_SCAN_BUDGET = 200  # members a stripped cover's scans read past their start


@dataclass(eq=False)
class BaireFunction:
    """A lazily memoized total function from positive naturals to positive
    naturals, tagged with its provenance."""

    eval_raw: Callable[[int], int]
    description: str = ""
    _memo: dict[int, int] = field(default_factory=dict, repr=False)

    def __call__(self, n: int) -> int:
        if n < 1:
            raise ValueError("arguments are 1-based")
        hit = self._memo.get(n)
        if hit is None:
            hit = int(self.eval_raw(n))
            if hit < 1:
                raise ValueError(f"{self.description or 'function'} returned {hit} < 1")
            self._memo[n] = hit
        return hit

    def prefix(self, n: int) -> Path:
        return tuple(self(i) for i in range(1, n + 1))


def strip_history(cover: IndexedCover, removed: frozenset) -> IndexedCover:
    """The subfamily excluding the members whose descriptions are in
    `removed` (sets matched structurally), reindexed order-preservingly.

    The witness scans the surviving members from the first; a large cover
    guarantees a hit. Its budget of `STRIP_SCAN_BUDGET` members counts from
    the first one at or past the old witness's index, and running past it
    raises :class:`BudgetError`; no surviving member among the next that
    many indices raises :class:`StripExhaustedError`. Provenance maps new to
    original indices.
    """
    surviving: list[int] = []  # original indices, in order

    def original_index(j: int) -> int:
        while len(surviving) < j:
            start = nxt = surviving[-1] + 1 if surviving else 1
            if removed:
                limit = nxt + STRIP_SCAN_BUDGET
                while nxt < limit and describe(cover.sets(nxt)) in removed:
                    nxt += 1
                if nxt >= limit:
                    raise StripExhaustedError(
                        f"no member of cover {cover.label!r} survives within {STRIP_SCAN_BUDGET} of index {start}"
                    )
            surviving.append(nxt)
        return surviving[j - 1]

    def witness(p: Point) -> int:
        old = cover.witness(p)
        k = 1
        limit = None
        while True:
            oj = original_index(k)
            if member(cover.sets(oj), p):
                return k
            if limit is None and oj >= old:
                limit = k + STRIP_SCAN_BUDGET
            if limit is not None and k >= limit:
                raise BudgetError(f"witness repair exhausted budget {STRIP_SCAN_BUDGET} in cover {cover.label!r} for {p!r}")
            k += 1

    return IndexedCover(
        space=cover.space,
        sets=lambda j: cover.sets(original_index(j)),
        witness=witness,
        provenance=lambda j: (original_index(j),),
        increasing=cover.increasing,
        label=f"stripped({cover.label})" if cover.label else "stripped",
    )


@dataclass(eq=False, slots=True)
class _StripState:
    """A stripped tree's state: a source key, the removed descriptions and a
    stripped cover. States hash by identity."""

    key: Hashable
    removed: frozenset
    cover: IndexedCover


def strip_chosen_tree(tree: TreeStrategy) -> TreeStrategy:
    """Remove, from each node's cover, the sets chosen on the way to that
    node. Node sequences of the result are indices into the stripped covers;
    `back_map` translates them to original single-index selections.

    The result is a machine over states, one per (source key, removed
    descriptions), each holding those two and a stripped cover. Stripped
    covers are shared by (source cover, removed descriptions), with their
    member, witness and first-hit memos. A child's state is a function of
    (parent's state, child index), computed on the first node that takes it
    from the parent's stripped provenance and member and the child key of
    (parent's key, original index). So a tree with `keys` is
    read once per state and never at a node path; a tree without them is
    keyed by its paths, one state per node. (root state, step, state cover)
    is a `keys` triple for the stripped tree; it declares none, so its boxes
    are walked node by node."""

    root_key, child_key, source_cover = tree.keys or ((), lambda path, i: path + (i,), tree.cover_at)
    states: dict[tuple[Hashable, frozenset], _StripState] = {}
    steps: dict[tuple[_StripState, int], _StripState] = {}
    shared: dict[tuple[IndexedCover, frozenset], IndexedCover] = {}

    def state(key: Hashable, removed: frozenset) -> _StripState:
        hit = states.get((key, removed))
        if hit is None:
            cover = source_cover(key)
            stripped_cover = shared.get((cover, removed))
            if stripped_cover is None:
                stripped_cover = shared[cover, removed] = strip_history(cover, removed)
            hit = states[key, removed] = _StripState(key, removed, stripped_cover)
        return hit

    nodes: dict[Path, _StripState] = {(): state(root_key, frozenset())}

    def resolve(path: Path) -> _StripState:
        hit = nodes.get(path)
        if hit is None:
            parent = resolve(path[:-1])
            i = path[-1]
            hit = steps.get((parent, i))
            if hit is None:
                orig_i = parent.cover.provenance(i)[0]
                removed = parent.removed | {describe(parent.cover.sets(i))}
                hit = steps[parent, i] = state(child_key(parent.key, orig_i), removed)
            nodes[path] = hit
        return hit

    def back_map(path: Path) -> Moves:
        return tuple((resolve(path[:k]).cover.provenance(i)[0],) for k, i in enumerate(path))

    return TreeStrategy(
        space=tree.space,
        cover_at_raw=lambda path: resolve(path).cover,
        back_map=back_map,
        label=f"stripped({tree.label})",
    )


def greedy_index_function(
    tree: TreeStrategy,
    point: Point,
    prefix: Path = (),
) -> BaireFunction:
    """The greedy index trace of a point through a tree: entry n is the least
    child index whose set contains the point, after the path fixed by the
    prefix (whose entries are returned verbatim for arguments up to its
    length). A budget error names the node it ran out at."""

    entries: list[int] = list(prefix)

    def eval_raw(n: int) -> int:
        while len(entries) < n:
            at = tuple(entries)
            try:
                cover = tree.cover_at(at)
                bound = min(witness_of(cover, point), TRACE_SCAN_BUDGET)
            except BudgetError as exc:
                raise type(exc)(f"{exc} at node {at}") from exc
            pick = cover.first_hit(point, bound)
            if pick > bound:
                raise BudgetError(f"no covering child within {TRACE_SCAN_BUDGET} at node {at}")
            entries.append(pick)
        return entries[n - 1]

    tag = f"trace(p{point.id}" + (f", prefix={prefix})" if prefix else ")")
    return BaireFunction(eval_raw=eval_raw, description=tag)


def evasion_function(
    tree: TreeStrategy,
    sample: Sequence[Point],
    node_budget: int = 12,
) -> BaireFunction:
    """A function eventually dominating, argument by argument, the greedy
    traces of the sampled points pinned to an enumeration prefix of finite
    sequences and to the function's own prefixes.

    g(n) is the max of trace(x, pinned to sigma)(n) over the first min(n,
    sample size) sampled points and every relevant pinned prefix sigma with
    length below n; each sampled point and prefix therefore satisfies
    trace <= g from some argument on. Including g's own prefixes (known
    recursively when g(n) is computed) is what the node-wise iteration of the
    counterplay consumes.
    """
    if not sample:
        raise ValueError("the sample must be nonempty")

    generic_prefixes = [finseq_from_index(i) for i in range(1, node_budget + 1)]
    traces: dict[tuple[Path, int], BaireFunction] = {}

    def trace(prefix: Path, x: Point) -> BaireFunction:
        key = (prefix, x.id)
        hit = traces.get(key)
        if hit is None:
            hit = traces[key] = greedy_index_function(tree, x, prefix)
        return hit

    def eval_raw(n: int) -> int:
        prefixes = [s for s in generic_prefixes if len(s) < n]
        prefixes.extend(g.prefix(k) for k in range(1, n))
        best = 1
        for x in sample[: min(n, len(sample))]:
            for sigma in prefixes:
                best = max(best, trace(sigma, x)(n))
        return best

    g = BaireFunction(eval_raw=eval_raw, description=f"evasion(sample={len(sample)})")
    return g


@dataclass(frozen=True)
class LargeCoverReport(MultiplicityReport):
    """Covering innings per sampled point id, and whether every selected set
    was distinct from the earlier ones."""

    distinct_selections: bool


@dataclass(frozen=True)
class LargeCounterplayResult:
    transcript: Transcript
    report: LargeCoverReport
    evasion_prefix: Path
    stripped_play: bool = True


def counterplay_large(
    tree: TreeStrategy,
    sample: Sequence[Point],
    innings: int,
    node_budget: int = 12,
) -> LargeCounterplayResult:
    """Play the evasion counterplay for the large-cover game.

    The tree is stripped and wedged, the evasion function g is computed for
    the sample, and the play follows g: inning n selects member g(n) of the
    wedged cover at node (g(1), ..., g(n-1)). The transcript is emitted in
    the original tree's terms through the strip back-map; the report lists,
    per sampled point, the innings whose selected set contains it, and
    certifies that the selected sets are pairwise structurally distinct
    (stripping is what makes covering innings count as distinct covering
    sets).

    When stripping empties a node cover — the tree offers a finite subcover,
    so the removal budget runs out on structurally identical members — the
    play short-circuits to the unstripped tree, where the second player wins
    trivially; the report's `stripped_play` flag records that distinctness
    was not guaranteed. Other budget errors propagate.
    """
    if innings < 1:
        raise ValueError("a play needs at least one inning")

    def evasion_path(played: TreeStrategy) -> Path:
        return evasion_function(wedge_tree(played), sample, node_budget=node_budget).prefix(innings)

    stripped_play = True
    try:
        stripped = strip_chosen_tree(tree)
        path = evasion_path(stripped)
        orig_path = tuple(m[0] for m in stripped.back_map(path))
    except StripExhaustedError:
        stripped_play = False
        path = orig_path = evasion_path(tree)

    audits = [{"evasion_value": value, "stripped_index": value} for value in path]
    transcript = path_transcript(tree, orig_path, GameKind("single", 2), audits, f"large({tree.label})")
    descriptions = [describe(rec.selected_sets[0]) for rec in transcript.innings]
    report = LargeCoverReport(
        covering_innings=covering_innings(transcript, sample),
        distinct_selections=len(set(descriptions)) == len(descriptions),
    )
    return LargeCounterplayResult(transcript, report, path, stripped_play)
