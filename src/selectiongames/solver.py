"""Exact backward-induction solver for finitely truncated games on finite
space models: the independent ground truth the constructed counterplays are
cross-checked against.

Instances are explicit: a finite space and, at every position, a finite list
of covers the first player may choose among (a deterministic strategy is the
one-option case). The solver enumerates every selection of bounded size and
every listed option, so the returned winner and decision table are exact —
no horizon, the whole finite space must be covered within the depth. Finite
spaces are compact, so the second player always wins at sufficient depth;
the solver's value is the exact minimal depth and the strategy realizing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .covers import FiniteSelection, IndexedCover, Verdict
from .engine import AliceStrategy, GameKind, Moves, memoized_strategy
from .errors import ResourceLimitError
from .spaces import FiniteTopological, from_ids

Cover = tuple[frozenset[int], ...]
OracleHistory = tuple[tuple[int, tuple[int, ...]], ...]  # (option chosen, selection)
BobMove = Callable[[IndexedCover, int], FiniteSelection]  # (cover played, inning) -> selection

MAX_WINNING_DEPTH = 8  # innings `minimal_winning_depth` searches before it gives up
NODE_LIMIT = 200_000  # positions a search may visit: the solves' default, and every depth search's budget


@dataclass(frozen=True, eq=False)
class FiniteGameInstance:
    """A finite game instance: the space and, per position, the first
    player's cover options (each a finite tuple of open id-sets).

    `options_at` must be a pure function of the history: `decision_table`
    searches again, so it reads the options a solve read."""

    space: FiniteTopological
    options_at: Callable[[OracleHistory], Sequence[Cover]]
    name: str = ""

    def validate(self) -> None:
        options = tuple(self.options_at(()))
        if not options:
            raise ValueError(f"{self.name}: no option at the root")
        for opt_idx, cover in enumerate(options):
            if not cover:
                raise ValueError(f"{self.name}: option {opt_idx} is empty")
            self.member_masks(cover, opt_idx)  # every id is a point, so a cover names all of them
            if len(frozenset().union(*cover)) != self.space.n_points:
                raise ValueError(f"{self.name}: option {opt_idx} is not a cover")
            for s in cover:
                if not self.space.is_open(s):
                    raise ValueError(f"{self.name}: {sorted(s)} is not open")

    def member_masks(self, cover: Cover, opt_idx: int) -> list[int]:
        """The bitmask over point ids of each member of a cover. An id that
        is not an `int` in ``range(n_points)`` (a `bool` is not one) raises
        `ValueError` naming the instance, the option and the member."""
        n_points = self.space.n_points
        for member in cover:
            for i in member:
                if type(i) is not int or not 0 <= i < n_points:
                    raise ValueError(
                        f"{self.name}: option {opt_idx} member {set(member)} "
                        f"names point {i!r} outside the {n_points}-point space"
                    )
        return [sum(1 << i for i in member) for member in cover]


def stationary_instance(space: FiniteTopological, covers: Sequence[Sequence], name: str = "") -> FiniteGameInstance:
    """An instance whose options do not depend on the position."""
    fixed = tuple(tuple(frozenset(s) for s in cover) for cover in covers)
    return FiniteGameInstance(space=space, options_at=lambda history: fixed, name=name)


def _selections(cover: Cover, cap: int, arity: str) -> list[tuple[int, ...]]:
    indices = range(1, len(cover) + 1)
    if arity == "single":
        return [(i,) for i in indices]
    out: list[tuple[int, ...]] = []
    for size in range(1, min(cap, len(cover)) + 1):
        out.extend(combinations(indices, size))
    return out


@dataclass(frozen=True)
class SolveResult:
    winner: str
    depth: int
    nodes: int


def solve_finite_game(
    instance: FiniteGameInstance,
    game: GameKind,
    depth: int,
    selection_cap: int,
    node_limit: int = NODE_LIMIT,
) -> SolveResult:
    """Exact backward induction.

    The second player wins a position iff, for every cover option, some
    selection (of at most `selection_cap` indices, exactly one in
    single-selection games) leads to a covered space or to a winning deeper
    position. The solve writes no decision table; `decision_table` searches
    once more with the same arguments, within `NODE_LIMIT`, to write one.

    Positions hold the covered set as a bitmask over point ids. Each distinct
    cover met during the solve gets one table of its selections, in order,
    with the mask each one adds; a member id that is not an `int` in
    ``range(n_points)`` raises the `ValueError` `validate` raises. With one
    inning left, the table answers a covered mask it has met from a memo that
    lives with the solve, so `nodes` still counts every position visited, the
    root included; `ResourceLimitError`, naming the instance, depth and limit,
    is raised as soon as the count exceeds `node_limit`; a `selection_cap`
    below 1 is a `ValueError`.
    """
    won, nodes = _search(instance, game, depth, selection_cap, node_limit, None)
    return SolveResult(winner="bob" if won else "alice", depth=depth, nodes=nodes)


def decision_table(
    instance: FiniteGameInstance,
    game: GameKind,
    depth: int,
    selection_cap: int,
) -> dict[tuple, object]:
    """The decision table of `solve_finite_game`'s search, written in order
    by one search with the same arguments within `NODE_LIMIT` nodes, read
    at call time: second-player states (position, option faced, covered
    set) map to a winning selection, first-player states to a refuting
    option index; covered sets appear in keys as sorted id tuples."""
    table: dict[tuple, object] = {}
    _search(instance, game, depth, selection_cap, NODE_LIMIT, table)
    return table


def _over_budget(instance: FiniteGameInstance, depth: int, node_limit: int) -> ResourceLimitError:
    return ResourceLimitError(f"solver exceeded {node_limit} nodes on {instance.name or 'instance'} at depth {depth}")


def _search(
    instance: FiniteGameInstance,
    game: GameKind,
    depth: int,
    selection_cap: int,
    node_limit: int,
    strategy: dict | None,
    depth_tables: dict[Cover, tuple[list, dict]] | None = None,
) -> tuple[bool, int]:
    """Whether the second player wins, and the nodes counted; writes the
    decision table into `strategy` if given.

    Each cover met gets a table: its selections with their gain masks and its
    last-inning memo. A minimal-depth search passes `depth_tables`, one dict
    its depths share; such a search reports no node count, so with two or
    more innings left a position tries its selections by how many points
    they leave covered, most first (ties in scan order)."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if selection_cap < 1:
        raise ValueError("selection_cap must be at least 1")
    n_points = instance.space.n_points
    full = (1 << n_points) - 1
    tables = {} if depth_tables is None else depth_tables
    keys: dict[int, tuple[int, ...]] = {}
    nodes = 1  # the root

    def table(cover: Cover, opt_idx: int):
        masks = instance.member_masks(cover, opt_idx)
        out = []
        for sel in _selections(cover, selection_cap, game.arity):
            gain = 0
            for i in sel:
                gain |= masks[i - 1]
            out.append((sel, gain))
        tables[cover] = (out, {})
        return tables[cover]

    def key(covered: int) -> tuple[int, ...]:
        hit = keys.get(covered)
        if hit is None:
            hit = keys[covered] = tuple(i for i in range(n_points) if covered >> i & 1)
        return hit

    def bob_wins(history: OracleHistory, covered: int, d: int) -> bool:
        # An uncovered position with d >= 1 innings left, already counted;
        # each child is counted here, and only non-terminal ones are entered.
        nonlocal nodes
        for opt_idx, cover in enumerate(instance.options_at(history)):
            choices, last = tables.get(cover) or table(cover, opt_idx)
            if d == 1:
                scanned, won = last.get(covered) or last.setdefault(covered, next(
                    ((i, sel) for i, (sel, gain) in enumerate(choices, 1) if covered | gain == full), (len(choices), None)
                ))
                nodes += scanned
                if nodes > node_limit:
                    raise _over_budget(instance, depth, node_limit)
            else:
                won = None
                if depth_tables is not None:
                    choices = sorted(choices, key=lambda choice: (choice[1] | covered).bit_count(), reverse=True)
                for sel, gain in choices:
                    nodes += 1
                    if nodes > node_limit:
                        raise _over_budget(instance, depth, node_limit)
                    new_covered = covered | gain
                    if new_covered == full or bob_wins(history + ((opt_idx, sel),), new_covered, d - 1):
                        won = sel
                        break
            if won is None:
                if strategy is not None:
                    strategy[("alice", history, key(covered))] = opt_idx
                return False
            if strategy is not None:
                strategy[("bob", history, opt_idx, key(covered))] = won
        return True

    if nodes > node_limit:
        raise _over_budget(instance, depth, node_limit)
    return full == 0 or bob_wins((), 0, depth), nodes


def minimal_winning_depth(
    instance: FiniteGameInstance,
    game: GameKind,
    selection_cap: int,
) -> int:
    """The least depth at which the second player wins (exists by compactness;
    raises past `MAX_WINNING_DEPTH`), searched without decision tables.

    Depths 1, 2, ... are searched in turn, each within `NODE_LIMIT` nodes;
    `ResourceLimitError` names the instance, the depth and the limit.

    Two things make it search less than `solve_finite_game` at each depth,
    and neither changes the depth found:
    - With two or more innings left, a position tries the selections that
      leave the most points covered first. A finite game's winner does not
      depend on the order in which selections are tried; only the count of
      positions searched does, and no count is reported here.
      `solve_finite_game` keeps its scan order, since its `nodes` and ordered
      decision table are reported.
    - The depths share one table per cover met: its selections and gain
      masks, and the last-inning memo from a covered mask to the first
      completing selection. Each is a pure function of the cover and the
      mask, so a shared entry is the one a fresh search would compute.
    """
    tables: dict = {}
    for d in range(1, MAX_WINNING_DEPTH + 1):
        if _search(instance, game, d, selection_cap, NODE_LIMIT, None, tables)[0]:
            return d
    raise ResourceLimitError(f"no winning depth within {MAX_WINNING_DEPTH} for {instance.name}")


# ---------------------------------------------------------------------------
# Bridging instances to the lazy-cover machinery


def instance_cover(space: FiniteTopological, cover: Cover, label: str) -> IndexedCover:
    """Wrap a finite explicit cover as a lazy cover by repeating its last
    member beyond its length; provenance clamps back to the explicit range."""
    sets = tuple(from_ids(space, s, label=f"{label}[{i}]") for i, s in enumerate(cover, start=1))

    def witness(p):
        for i, s in enumerate(cover, start=1):
            if p.id in s:
                return i
        raise ValueError(f"{label} does not cover point {p.id}")

    return IndexedCover(
        space=space,
        sets=lambda j: sets[min(j, len(sets)) - 1],
        witness=witness,
        provenance=lambda j: (min(j, len(sets)),),
        label=label,
    )


def option_at(instance: FiniteGameInstance, history: OracleHistory, option: int) -> Cover:
    """The cover an instance offers as `option` after `history`; ValueError
    naming the instance, option, history and option count if there is none."""
    options = tuple(instance.options_at(history))
    if not 0 <= option < len(options):
        raise ValueError(
            f"{instance.name or 'instance'} has no option {option} after oracle history {history!r}: "
            f"{len(options)} offered"
        )
    return options[option]


def deterministic_strategy(instance: FiniteGameInstance, option: int = 0) -> AliceStrategy:
    """View a single line of an instance (the same option at every position)
    as a lazy-cover strategy for the construction pipeline."""

    def cover_for(moves: Moves) -> IndexedCover:
        oracle_history: OracleHistory = ()
        for indices in moves:
            cover = option_at(instance, oracle_history, option)
            clamped = tuple(sorted({min(i, len(cover)) for i in indices}))
            oracle_history = oracle_history + ((option, clamped),)
        cover = option_at(instance, oracle_history, option)
        return instance_cover(instance.space, cover, f"{instance.name}@{len(moves)}")

    return memoized_strategy(instance.space, instance.name or "instance", cover_for)


def restrict_option(instance: FiniteGameInstance, option: int) -> FiniteGameInstance:
    """The deterministic line of an instance that always plays one option."""
    return FiniteGameInstance(
        space=instance.space,
        options_at=lambda history: (option_at(instance, history, option),),
        name=f"{instance.name}#opt{option}",
    )


def counterplay_bob_strategy(instance: FiniteGameInstance, option: int = 0) -> BobMove:
    """The constructed tree counterplay, packaged as a plain second-player
    move function against one deterministic line of an instance.

    The move depends on the inning number alone (the underlying play is
    deterministic): one `Counterplay` walks the normalized tree taking, at
    each step, the least child whose set contains every point of the finite
    space, and the tree choice is back-translated into the instance's
    selection. The walked path is kept; scans stop at the covers' witnesses,
    which raise on a point no member contains.
    """
    from .hurewicz import Counterplay, normalize_strategy, raw_move

    play = Counterplay(normalize_strategy(deterministic_strategy(instance, option), instance.space), probe_limit=None)

    def move(cover: IndexedCover, inning: int) -> FiniteSelection:
        return FiniteSelection(cover, raw_move(inning - 1, play.extend(inning)[inning - 1]))

    return move


def cross_check(
    constructed: BobMove,
    instance: FiniteGameInstance,
    game: GameKind,
    selection_cap: int,
) -> Verdict:
    """Check a constructed second-player strategy against the oracle: within
    the oracle's minimal winning depth (at most `MAX_WINNING_DEPTH`) it must
    cover the space against every first-player line of the instance.

    The constructed strategy sees the instance's covers through the lazy
    wrapper; its selections are clamped back to the explicit range before
    coverage is evaluated.
    """
    depth = minimal_winning_depth(instance, game, selection_cap)
    universe = frozenset(range(instance.space.n_points))

    def walk(oracle_history: OracleHistory, covered: frozenset[int], inning: int) -> str | None:
        if covered == universe:
            return None
        if inning > depth:
            return f"line {tuple(o for o, _ in oracle_history)} left {sorted(universe - covered)} uncovered"
        for opt_idx, cover in enumerate(instance.options_at(oracle_history)):
            sel = constructed(instance_cover(instance.space, cover, f"{instance.name}/{inning}"), inning)
            clamped = tuple(sorted({min(i, len(cover)) for i in sel.indices}))
            if game.arity == "single" and len(clamped) != 1:
                return f"arity violation at inning {inning}"
            if game.arity == "finite" and len(clamped) > selection_cap:
                return f"selection of {len(clamped)} exceeds cap {selection_cap} at inning {inning}"
            bad = walk(
                oracle_history + ((opt_idx, clamped),), covered.union(*(cover[i - 1] for i in clamped)), inning + 1
            )
            if bad:
                return bad
        return None

    failure = walk((), frozenset(), 1)
    return Verdict(failure is None, reason=failure or "")
