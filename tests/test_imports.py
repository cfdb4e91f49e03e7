"""Every module-level import in the library is used in its own module.

A stdlib `ast` check, so it needs no linter: the package's `__init__.py`
(whose imports are re-exports) and `from __future__` imports are exempt.
Imports under a module-level `if` (the typing-only guard) count as module
level; names used only inside annotations count as used.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "selectiongames"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
