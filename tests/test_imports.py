"""Every module-level import in the library is used in its own module,
every definition is read, as a syntax-tree identifier, outside itself, and
every budget parameter has a caller outside the tests that sets it.

A stdlib `ast` check, so it needs no linter: the package's `__init__.py`
(whose imports are re-exports) and `from __future__` imports are exempt.
Imports under a module-level `if` (the typing-only guard) count as module
level; names used only inside annotations count as used.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "selectiongames"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = [PACKAGE / m for m in MODULES] + [p for d in ("demos", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]


def module_level_imports(tree: ast.Module):
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in module_level_imports(tree) if name not in used)
    assert not unused, f"{module}: unused imports (line, name): {unused}"


def test_the_check_sees_the_package():
    assert "engine.py" in MODULES and "scenarios.py" in MODULES


def definitions(path: pathlib.Path):
    """(name, first line, last line) of each module-level function, class and
    assigned name (type aliases and constants), and of each method; dunder
    names are exempt."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node.lineno, node.end_lineno
        for d in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("__"):
                yield d.name, d.lineno, d.end_lineno


# Definitions kept although nothing outside the tests uses them, with the reason.
UNUSED_KEPT: dict[str, str] = {}


def identifier_uses(path: pathlib.Path):
    """(identifier, line) of each name read, attribute read and imported name
    in a file's syntax tree; comments, docstrings and other strings do not count."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def unused_definitions() -> list[str]:
    """`module.name` of each definition whose name is no identifier outside
    its own lines in `src/` (not counting `__init__.py`, whose re-exports are
    not uses), `demos/` or `perfbench/`."""
    uses = {p: list(identifier_uses(p)) for p in READERS}
    unused = []
    for module in MODULES:
        path = PACKAGE / module
        for name, first, last in definitions(path):
            if not any(
                ident == name and not (p == path and first <= line <= last)
                for p, idents in uses.items()
                for ident, line in idents
            ):
                unused.append(f"{module.removesuffix('.py')}.{name}")
    return unused


def test_every_definition_is_named_outside_itself():
    """A dead-code guard: a name only the tests use belongs in the tests.
    It matches syntax-tree identifiers, so a same-named attribute counts as a
    use but a comment or docstring word does not."""
    unused = unused_definitions()
    assert sorted(set(unused) - set(UNUSED_KEPT)) == [], "used only in their own definitions"
    assert sorted(set(UNUSED_KEPT) - set(unused)) == [], "kept as unused, but now used: drop the entry"
    assert {"check_legal", "Moves", "MENGER_GAME"} <= {name for name, _, _ in definitions(PACKAGE / "engine.py")}


def test_the_guard_reads_identifiers_not_prose(tmp_path):
    prose = tmp_path / "prose.py"
    prose.write_text('"""A subtree, in words."""\n# subtree\nsubtree = "subtree"\nprint(subtree.upper)\n')
    assert sorted(ident for ident, _ in identifier_uses(prose)) == ["print", "subtree", "upper"]
    prose.write_text('"""A subtree, in words."""\n# subtree\nx = "subtree"\n')
    assert list(identifier_uses(prose)) == []


def test_the_guard_sees_module_level_names(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('Alias = tuple[int, ...]\n_CAP: int = 12\n__all__ = []\n\n\ndef f():\n    return 1\n')
    assert [name for name, _, _ in definitions(module)] == ["Alias", "_CAP", "f"]


def budget_parameters(path: pathlib.Path):
    """`name.parameter` for each parameter of a public module-level function
    or method (a constructor's under its class's name) whose name ends in
    `limit` or `budget` or starts with `max_`."""
    for node in ast.parse(path.read_text()).body:
        methods = [(f"{node.name}.", d) for d in node.body] if isinstance(node, ast.ClassDef) else [("", node)]
        for prefix, d in methods:
            if not isinstance(d, ast.FunctionDef) or (d.name.startswith("_") and d.name != "__init__"):
                continue
            name = prefix[:-1] if d.name == "__init__" else prefix + d.name
            for arg in d.args.posonlyargs + d.args.args + d.args.kwonlyargs:
                if arg.arg.endswith(("limit", "budget")) or arg.arg.startswith("max_"):
                    yield f"{name}.{arg.arg}"


# Budget parameters of the library, each with a caller outside the tests that
# sets it. A budget only tests set is a module constant the tests patch.
BUDGET_PARAMETERS_KEPT: dict[str, str] = {
    "Counterplay.probe_limit": "solver.counterplay_bob_strategy passes None",
    "secure_child.probe_limit": "Counterplay passes its probe_limit",
    "least_admissible_child.probe_limit": "secure_child passes its limit",
    "solve_finite_game.node_limit": "perfbench/workloads.py passes gen.NODE_LIMIT",
    "decision_table.node_limit": "takes solve_finite_game's arguments; no caller outside the tests passes it",
    "distinct_intersections.family_limit": "select_one_per_family passes count",
    "check_infinitely_often.family_budget": "select_one_per_family passes count",
    "evasion_function.node_budget": "counterplay_large passes its node_budget",
    "counterplay_large.node_budget": "the scenario config's appendix cells set it",
}


def test_every_budget_parameter_has_a_caller_that_sets_it():
    found = sorted(p for module in MODULES for p in budget_parameters(PACKAGE / module))
    assert sorted(set(found) - set(BUDGET_PARAMETERS_KEPT)) == [], "budget parameters only tests set"
    assert sorted(set(BUDGET_PARAMETERS_KEPT) - set(found)) == [], "kept as parameters, but gone: drop the entry"


def test_the_budget_guard_reads_signatures(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f(a, /, node_limit=1, *, max_x=2, scan_budget=3, limits=4):\n    pass\n\n\n"
        "def _g(limit):\n    pass\n\n\n"
        "class C:\n    def __init__(self, probe_limit):\n        pass\n\n"
        "    def m(self, max_depth, budget):\n        pass\n\n"
        "    def _n(self, limit):\n        pass\n"
    )
    assert list(budget_parameters(module)) == [
        "f.node_limit", "f.max_x", "f.scan_budget", "C.probe_limit", "C.m.max_depth", "C.m.budget"
    ]
