"""Every module-level import in the package is used by its module, and no
function imports: a module's dependencies are all stated at its top."""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "tsmamba").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_found():
    assert _unused_imports(ast.parse("from __future__ import annotations\nimport os, sys as s\nfrom x import a, b\nos.sep\nb()\n")) == ["s", "a"]


def _function_imports(tree: ast.Module) -> list[int]:
    """Line numbers of the import statements inside a function body."""
    lines = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines |= {node.lineno for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    return sorted(lines)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_function_level_imports(path):
    assert _function_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_function_level_import_is_found():
    source = "import os\ndef f():\n    from x import y\n    def g():\n        import z\nclass C:\n    async def h(self):\n        import w\n"
    assert _function_imports(ast.parse(source)) == [3, 5, 8]
