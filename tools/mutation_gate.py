#!/usr/bin/env python3
"""Check that the tests still kill a table of named mutants of the library.

    python3 tools/mutation_gate.py              # every mutant, as CI runs it
    python3 tools/mutation_gate.py NAME ...     # only the named mutants
    python3 tools/mutation_gate.py --list       # the table

Each mutant is one small edit of one function's syntax tree: every
expression or statement in the function whose ``ast.unparse`` text is
``old`` is replaced by ``new``. For each mutant the gate copies ``src/`` and
``tests/`` to a fresh temporary directory, rewrites the mutated module there,
and runs only the test ids the table lists for it, with pytest, on the copy
(``tests/conftest.py`` puts the copy's ``src/`` first on the path). The
working tree is only read. Before any mutant, the listed tests must pass on
an unmutated copy.

The gate fails, naming the mutant, when its edit site is gone (the function
or the ``old`` text is not found), when the edit leaves the module's syntax
tree unchanged, when the listed tests all pass on the mutant (it survived),
when every listed test that fails does so with ``NameError`` or
``UnboundLocalError`` (read from pytest's ``-rf`` summary: the edit broke its
own module, say by rebinding a name it still reads, so the failure says
nothing about the tests), or when pytest ends in anything other than passing
or failing tests (a test id that no longer exists, say). Standard library
only.

Add a mutant here whenever a change is checked by a hand-made mutation.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per pytest run
BROKEN = {"NameError", "UnboundLocalError"}  # a mutant failing only with these broke its own module


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file under src/selectiongames/
    function: str  # dotted path of nested definitions, e.g. "outer.inner"
    old: str  # ast.unparse text of the nodes to replace
    new: str  # source of the replacement (an expression, or statements)
    tests: tuple[str, ...]  # pytest ids, relative to the repository root
    why: str


EV = "tests/test_evasion.py::"
RB = "tests/test_rothberger.py::"
HW = "tests/test_hurewicz.py::"
SV = "tests/test_solver.py::"
KEYS = RB + "TestKeyStateWalk::"
WALK = EV + "test_stripped_children_are_transitions_of_the_reference_walk"

KEY_LOOP = """for k in level:
    for i in range(1, bound[j] + 1):
        states[child_key(k, i)] = None
        if len(states) > BOX_LIMIT:
            raise ResourceLimitError(f'more than {BOX_LIMIT} key states at level {j + 1} below bound {bound}')"""

BLOCK_STEP = """if len(counts) < bound:
    size = len(fam(bound))
    counts.append(size * sums[n - 1])
    for k in range(n - 1, 0, -1):
        sums[k] += sums[k - 1] * size"""
REPLAY_LOOP = """for indices in moves:
    yield alice.move(played)
    played += (indices,)"""
REFERENCES = RB + "TestAgainstTheReferences::"
RESUMED = HW + "TestNodesResumeFromTheirParents::"
CORPUS = "tests/test_corpus.py::"

MUTANTS: tuple[Mutant, ...] = (
    # keyed stripped trees and the joint witness
    Mutant(
        "capped-child-key-uncapped", "corpus.py", "capped_tree",
        "min(aggregate((k, i)), _CAP)", "aggregate((k, i))",
        (EV + "test_child_keys_are_the_keys_of_the_children",),
        "a capped tree's child key without the cap of 12",
    ),
    Mutant(
        "stripped-child-by-stripped-index", "evasion.py", "strip_chosen_tree.resolve",
        "child_key(parent.key, orig_i)", "child_key(parent.key, i)",
        (WALK,),
        "a stripped child stepped by its stripped index, not its original one",
    ),
    Mutant(
        "child-keeps-parent-key", "evasion.py", "strip_chosen_tree.resolve",
        "child_key(parent.key, orig_i)", "parent.key",
        (WALK,),
        "a stripped child keeps its parent's source key",
    ),
    Mutant(
        "joint-witness-returns-start", "rothberger.py", "joint_refinement_cover.witness",
        "if member(joint.sets(start), p):\n    return start",
        "return start",
        (RB + "test_the_joint_witness_tests_one_joint_member",),
        "the joint witness returns the max of the factor witnesses untested",
    ),
    # keyed boxes read by key states
    Mutant(
        "key-walk-last-index-only", "trees.py", "distinct_covers_on_box",
        "range(1, bound[j] + 1)", "range(bound[j], bound[j] + 1)",
        (KEYS + "test_the_state_walk_is_the_box_walk",),
        "a key level stepped only by the bound's own entry",
    ),
    Mutant(
        "key-walk-keeps-parent-keys", "trees.py", "distinct_covers_on_box",
        "child_key(k, i)", "k",
        (KEYS + "test_the_state_walk_is_the_box_walk",),
        "a key level that keeps its parents' keys",
    ),
    Mutant(
        "key-walk-index-major", "trees.py", "distinct_covers_on_box",
        KEY_LOOP,
        KEY_LOOP.replace("for k in level:", "for i in range(1, bound[j] + 1):", 1).replace(
            "    for i in range(1, bound[j] + 1):", "    for k in level:", 1
        ),
        (KEYS + "test_the_state_walk_is_the_box_walk",),
        "a key level ordered by child index before parent key",
    ),
    Mutant(
        "key-walk-never-resumes", "trees.py", "distinct_covers_on_box",
        "tree._key_levels.get(bound[:-1]) if bound else None", "None",
        (KEYS + "test_a_bound_extending_a_walked_bound_takes_one_level_step",),
        "every keyed box walked from the root key",
    ),
    Mutant(
        "key-walk-memo-under-the-short-prefix", "trees.py", "distinct_covers_on_box",
        "bound[:j + 1]", "bound[:j]",
        (KEYS + "test_a_resumed_walk_is_the_walk_from_the_root",),
        "a walked level memoized under the prefix one entry shorter",
    ),
    Mutant(
        "key-level-checked-per-parent", "trees.py", "distinct_covers_on_box",
        "len(states) > BOX_LIMIT", "len(states) > BOX_LIMIT and i == bound[j]",
        (KEYS + "test_a_level_past_the_limit_raises_before_it_is_built",),
        "the limit checked only after a parent key's last child",
    ),
    # budgets are module constants; each guard raises one past its constant
    Mutant(
        "box-guard-off-by-one", "trees.py", "box_paths",
        "total > BOX_LIMIT", "total > BOX_LIMIT + 1",
        ("tests/test_properties.py::test_box_paths_resource_guard",),
        "a box of one node more than BOX_LIMIT walked",
    ),
    Mutant(
        "exclusion-guard-off-by-one", "hurewicz.py", "ExclusionOracle.excluded_nodes",
        "produced > EXCLUSION_NODE_LIMIT", "produced > EXCLUSION_NODE_LIMIT + 1",
        (HW + "TestTailDerivedCover::test_an_exclusion_set_of_exactly_the_limit_materializes",),
        "an exclusion set of one node more than EXCLUSION_NODE_LIMIT materialized",
    ),
    # stripped trees step by (source key, removed descriptions) states
    Mutant(
        "transition-keyed-by-child-index", "evasion.py", "strip_chosen_tree.resolve",
        "(parent, i)", "i",
        (WALK,),
        "a transition keyed by the child index alone",
    ),
    Mutant(
        "transition-keyed-by-stripped-cover", "evasion.py", "strip_chosen_tree.resolve",
        "(parent, i)", "(parent.cover, i)",
        (WALK,),
        "a transition keyed by the parent's stripped cover instead of its state",
    ),
    Mutant(
        "states-interned-by-removed-set", "evasion.py", "strip_chosen_tree.state",
        "(key, removed)", "removed",
        (WALK,),
        "states keyed by their removed descriptions alone, dropping the source key",
    ),
    Mutant(
        "strip-ignores-removed", "evasion.py", "strip_history.original_index",
        "removed", "frozenset()",
        (EV + "TestStripHistory::test_removes_named_sets_and_reindexes",),
        "a stripped cover that keeps the members whose descriptions it was given to remove",
    ),
    Mutant(
        "transition-reads-the-source-cover", "evasion.py", "strip_chosen_tree.resolve",
        "parent.cover.sets(i)", "source_cover(parent.key).sets(orig_i)",
        (EV + "test_the_cover_of_a_key_is_read_once_per_state",),
        "a transition reads the chosen member through the cover of the parent's key",
    ),
    # the derived Rothberger strategy and the solver's decision table
    Mutant(
        "derived-move-drops-the-last-bound", "rothberger.py", "menger_from_rothberger",
        "bounds_from_moves(moves)", "bounds_from_moves(moves[:-1])",
        (RB + "TestJointRefinement::test_moves_with_the_same_bounds_share_one_cover",),
        "the wedged tree read at the bounds of all but the last move",
    ),
    Mutant(
        "decision-table-searches-without-a-table", "solver.py", "decision_table",
        "_search(instance, game, depth, selection_cap, NODE_LIMIT, table)",
        "_search(instance, game, depth, selection_cap, NODE_LIMIT, None)",
        (SV + "TestDecisionTableOnRead::test_table_at_an_exact_node_limit_builds_without_raising",),
        "a decision table returned empty by a search that writes none",
    ),
    # tail-cover witnesses hand their nodes to the member at their index
    Mutant(
        "handoff-misses-its-least-node", "hurewicz.py", "tail_derived_cover.witness",
        "oracle.nodes", "oracle.nodes[1:]",
        (HW + "test_handed_off_members_are_the_decoded_members",),
        "a handoff without its first sorted node, the all-ones node that omits the point first",
    ),
    Mutant(
        "level-one-handoff-walked", "hurewicz.py", "cofinite_intersection",
        "fam.level == 1 or 1 not in spec.excluded", "False",
        (HW + "test_level_one_and_empty_handoffs_take_the_least_surviving_index",),
        "a level-1 spec, or one keeping the all-ones node, keyed by the node walk instead of min_surviving",
    ),
    # cofinite intersections keep only the parts that can bind
    Mutant(
        "all-ones-check-dropped", "hurewicz.py", "_named_parts",
        "node + (j,) + ones in excluded", "any((x[:len(node) + 1] == node + (j,) for x in excluded))",
        (HW + "test_the_grid_reduces_to_4_8_14_17_distinct_intersections",),
        "the walk enters every child with an excluded descendant: the same sets, less pruned",
    ),
    Mutant(
        "part-one-past-the-stopping-child", "hurewicz.py", "_named_parts",
        "parts.append(node + (j,))", "parts.append(node + (j + 1,))",
        (HW + "test_level_walk_matches_the_reference_on_small_specs",),
        "the part named one child past the first child whose all-ones node survives",
    ),
    Mutant(
        "recursion-stops-a-level-early", "hurewicz.py", "_named_parts",
        "below > 1", "below > 2",
        (HW + "test_level_walk_matches_the_reference_on_small_specs",),
        "children one level above the leaves are not walked into",
    ),
    Mutant(
        "handoff-read-at-any-index", "hurewicz.py", "tail_derived_cover.sets",
        "pending.pop(j, None)", "pending.popitem()[1] if pending else None",
        (HW + "test_a_handoff_is_read_only_at_its_own_index",),
        "a pending handoff read for whatever index is asked",
    ),
    # distinct intersections from one counting table, coverage tracked as picks land
    Mutant(
        "block-counted-after-its-own-size", "rothberger.py", "distinct_intersections.blocks",
        BLOCK_STEP,
        BLOCK_STEP.replace("    counts.append(size * sums[n - 1])\n", "") + "\n    counts.append(size * sums[n - 1])",
        (REFERENCES + "test_records_members_witnesses_and_errors_match",),
        "a bound's member count taken after its own size is folded into the symmetric sums",
    ),
    Mutant(
        "tails-read-at-the-head-entry", "rothberger.py", "distinct_intersections.unrank",
        "tail[a + 1][need]", "tail[a][need]",
        (REFERENCES + "test_records_members_witnesses_and_errors_match",),
        "a head entry's completions counted from its own family instead of the next",
    ),
    Mutant(
        "uncovered-not-filtered", "rothberger.py", "select_one_per_family",
        "[p for p in uncovered if not member(picked, p)]", "uncovered",
        (REFERENCES + "test_select_one_per_family_returns_at_the_reference_stage",),
        "the points still uncovered not filtered by the new pick",
    ),
    Mutant(
        "shortfall-need-off-by-one", "rothberger.py", "multiplicity_shortfall",
        "enumerate(points, start=1)", "enumerate(points)",
        (RB + "TestMultiplicityShortfall::test_a_short_schedule_names_the_point_its_count_and_its_need",),
        "point p_i needs i families instead of i + 1",
    ),
    # older hand-made mutants of the solver, the normalization and the plays
    Mutant(
        "last-inning-scan-from-zero", "solver.py", "_search.bob_wins",
        "enumerate(choices, 1)", "enumerate(choices)",
        (SV + "TestSolve::test_node_limit_raises_exactly_where_the_reference_does",),
        "the last-inning scan counts one selection fewer than it scanned",
    ),
    Mutant(
        "tables-shared-across-solves", "solver.py", "_search",
        "{} if depth_tables is None else depth_tables",
        "_search.__dict__.setdefault('shared', {}) if depth_tables is None else depth_tables",
        (SV + "TestSolve::test_node_limit_raises_exactly_where_the_reference_does",),
        "one table dict shared by every solve",
    ),
    Mutant(
        "raw-move-without-minus-one", "hurewicz.py", "raw_move",
        "max(1, idx - 1)", "max(1, idx)",
        (HW + "TestNormalize::test_chosen_set_is_union_of_backtranslated_selections",),
        "a reply's selection below the root not shortened by its head member",
    ),
    Mutant(
        "replay-moves-before-yield", "engine.py", "replay",
        REPLAY_LOOP,
        REPLAY_LOOP.replace("    yield alice.move(played)\n", "") + "\n    yield alice.move(played)",
        ("tests/test_engine.py::TestCheckLegal::test_detects_divergent_strategy",),
        "replay asks for the next cover before it yields the current one",
    ),
    # normalized nodes resume from their parents; protected points grow by one
    Mutant(
        "finite-win-resumes-past-the-parent", "hurewicz.py", "normalize_strategy.cover_at",
        "nodes[path[:-1]][1]", "nodes[path[:-1]][1] + 1",
        (HW + "TestCounterplay::test_wins_on_grid_for_named_strategies",),
        "a node's finite-win scan starts one point past its parent's count",
    ),
    Mutant(
        "moves-extend-at-the-child-depth", "hurewicz.py", "normalize_strategy.back_map",
        "raw_move(len(path) - 1, path[-1])", "raw_move(len(path), path[-1])",
        (RESUMED + "test_nodes_back_maps_covers_and_audits_match_the_reference[mixed_adversarial-None]",),
        "a child's move translated at its own depth instead of its parent's",
    ),
    Mutant(
        "protected-list-skips-a-point", "hurewicz.py", "Counterplay.extend",
        "self.tree.space.point(len(self.path))", "self.tree.space.point(len(self.path) + 1)",
        (RESUMED + "test_nodes_back_maps_covers_and_audits_match_the_reference[shifted_seg-None]",),
        "inning n protects point n instead of point n - 1, so point 0 is never protected",
    ),
    Mutant(
        "often-innings-projects-the-tree-index", "products.py", "often_innings",
        "project_selection(product, lifted_move)", "project_selection(product, (play.extend(n)[n - 1],))",
        ("tests/test_products.py::TestInfinitelyOften::test_projected_transcript_is_legal",),
        "the base selection projected from the tree index instead of the raw move",
    ),
    # corpus strategies play one cover object per distinct cover; a lift per base cover
    Mutant(
        "mixed-segment-cover-ignores-shift", "corpus.py", "named_strategies.mixed",
        "cover('seg', sum(map(max, moves)) % 7)", "cover('seg', 0)",
        (CORPUS + "TestOneCoverObjectPerDistinctCover::test_named_moves_with_one_shape_and_shift_share_a_cover",),
        "the mixed strategy's segment covers looked up without their shift",
    ),
    Mutant(
        "seeded-cover-key-drops-shift", "corpus.py", "seeded_strategy.cover_for",
        "cover(shape, rng.randrange(0, 5) if shape == 'seg' else 0)", "cover(shape, 0)",
        (CORPUS + "TestOneCoverObjectPerDistinctCover::test_seeded_moves_drawing_one_shape_and_shift_share_a_cover[0]",),
        "a seeded strategy's cover looked up by its shape alone, so every segment draw plays shift 0",
    ),
    Mutant(
        "lift-shared-across-base-covers", "products.py", "lift_strategy.move",
        "lifts.get(base)", "next(iter(lifts.values()), None)",
        (CORPUS + "TestOneCoverObjectPerDistinctCover::test_a_lifted_strategy_lifts_each_base_cover_once[shifted_seg]",),
        "the first base cover's lift answered for every later base cover",
    ),
)


class GateError(Exception):
    """The mutant cannot be applied or judged."""


def _find_function(tree: ast.AST, dotted: str) -> ast.AST:
    scope = tree
    for name in dotted.split("."):
        found = [
            node
            for node in ast.walk(scope)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name == name
            and node is not scope
        ]
        if len(found) != 1:
            raise GateError(f"edit site gone: {len(found)} definitions named {name!r} on the way to {dotted!r}")
        scope = found[0]
    return scope


class _Replace(ast.NodeTransformer):
    def __init__(self, targets: set[int], new: str):
        self.targets = targets
        self.new = new

    def visit(self, node: ast.AST):
        if id(node) in self.targets:
            if isinstance(node, ast.stmt):
                return ast.parse(self.new).body
            return ast.parse(self.new, mode="eval").body
        return super().visit(node)


def mutate_source(source: str, mutant: Mutant) -> str:
    """The module's source with the mutant's edit applied, or GateError."""
    module = ast.parse(source)
    before = ast.unparse(module)
    function = _find_function(module, mutant.function)
    targets = {id(node) for node in ast.walk(function) if ast.unparse(node) == mutant.old}
    if not targets:
        raise GateError(f"edit site gone: no {mutant.old!r} in {mutant.module}:{mutant.function}")
    _Replace(targets, mutant.new).visit(function)
    after = ast.unparse(ast.fix_missing_locations(module))
    if after == before:
        raise GateError(f"the edit changes nothing in {mutant.module}:{mutant.function}")
    return after


def _copy_tree(into: Path) -> None:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", into / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(copy: Path, tests: tuple[str, ...]) -> tuple[int, str, set[str]]:
    """pytest's exit code, its last output line, and the exception types of
    the failed tests, read from the ``-rf`` summary lines
    ``FAILED <id> - <type>: <message>`` (wide columns keep the message)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"), COLUMNS="1000")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s", set()
    lines = (done.stdout + done.stderr).strip().splitlines()
    summary = (line.split(" - ", 1) for line in lines if line.startswith("FAILED "))
    failed = {parts[1].split(":", 1)[0] for parts in summary if len(parts) == 2}
    return done.returncode, lines[-1] if lines else "", failed


def run_mutant(mutant: Mutant) -> str:
    """'killed ...' when a listed test fails on the mutant, not only with the
    `BROKEN` exception types; GateError otherwise."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        _copy_tree(copy)
        target = copy / "src" / "selectiongames" / mutant.module
        target.write_text(mutate_source(target.read_text(), mutant))
        code, last, failed = _pytest(copy, mutant.tests)
    if code == 1 and failed and failed <= BROKEN:
        types = ", ".join(sorted(failed))
        raise GateError(f"broken: the listed tests fail only with {types}, so the edit broke its own module ({last})")
    if code == 1:
        return f"killed ({last})"
    if code == 0:
        raise GateError(f"survived: every listed test passes ({last})")
    raise GateError(f"pytest exited {code}: {last}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the named mutants against the tests that must kill them.")
    parser.add_argument("names", nargs="*", help="mutant names (default: all)")
    parser.add_argument("--list", action="store_true", help="print the table and exit")
    args = parser.parse_args(argv)
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}: {m.module}:{m.function}: {m.why}")
        return 0
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] if args.names else list(MUTANTS)

    started = time.perf_counter()
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutant-baseline-") as tmp:
        _copy_tree(Path(tmp))
        code, last, _ = _pytest(Path(tmp), tests)
    if code != 0:
        print(f"baseline: the listed tests do not pass on an unmutated copy (pytest exited {code}: {last})")
        return 1
    failed = []
    for m in chosen:
        t0 = time.perf_counter()
        try:
            verdict = run_mutant(m)
        except GateError as exc:
            failed.append(m.name)
            verdict = f"FAILED: {exc}"
        print(f"{m.name}: {verdict} [{time.perf_counter() - t0:.1f} s]", flush=True)
    print(f"{len(chosen) - len(failed)} of {len(chosen)} mutants killed in {time.perf_counter() - started:.1f} s")
    if failed:
        print("not killed: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
