"""Source hygiene: every name a kahlerlab module imports is used in it, and
every module-level private function or class is used in the package.

`__init__.py` is skipped by the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kahlerlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom sys import argv, path\nargv\n") == [
        (1, "os"), (2, "path")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _referenced(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _unused_private_defs(sources):
    """(module, name) of each module-level `_private` function or class that
    no other top-level statement of any of the sources refers to."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    unused = []
    for module, node in statements:
        if not (isinstance(node, DEFS) and node.name.startswith("_")
                and not node.name.startswith("__")):
            continue
        if not any(node.name in _referenced(other)
                   for _, other in statements if other is not node):
            unused.append((module, node.name))
    return unused


def test_the_check_sees_an_unused_private_def():
    sources = {
        "a": "def _used():\n    pass\n\ndef _self(n):\n    return _self(n)\n",
        "b": "from .a import _used\nclass _Left:\n    pass\n",
    }
    assert _unused_private_defs(sources) == [("a", "_self"), ("b", "_Left")]


def test_no_unused_private_defs():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unused_private_defs(sources) == []
