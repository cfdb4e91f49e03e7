"""Every module-level import in the library is used in its own module, and
every definition is named outside itself.

A stdlib `ast` check, so it needs no linter: the package's `__init__.py`
(whose imports are re-exports) and `from __future__` imports are exempt.
Imports under a module-level `if` (the typing-only guard) count as module
level; names used only inside annotations count as used.
"""

import ast
import pathlib
import re

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
    """(name, first line, last line) of each module-level function and class,
    and of each method; dunder methods are exempt."""
    for node in ast.parse(path.read_text()).body:
        for d in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("__"):
                yield d.name, d.lineno, d.end_lineno


def test_every_definition_is_named_outside_itself():
    """A dead-code guard: each definition's name must appear outside its own
    lines in `src/` (not counting `__init__.py`, whose re-exports are not
    uses), `demos/` or `perfbench/`; a name only the tests use belongs in the
    tests. It matches by name, as a whole word anywhere in those files' text,
    so a same-named attribute, comment or docstring word counts as a use."""
    texts = {p: p.read_text().splitlines() for p in READERS}
    unused = []
    for module in MODULES:
        for name, first, last in definitions(PACKAGE / module):
            word = re.compile(rf"\b{name}\b")
            outside = (
                line
                for p, lines in texts.items()
                for n, line in enumerate(lines, start=1)
                if not (p == PACKAGE / module and first <= n <= last)
            )
            if not any(word.search(line) for line in outside):
                unused.append(f"{module}:{first} {name}")
    assert not unused, f"named only in their own definitions: {unused}"
    assert "check_legal" in {name for name, _, _ in definitions(PACKAGE / "engine.py")}
