"""Static checks on the package source, read with ``ast``."""

import ast
from pathlib import Path

import pytest

import invlayers

MODULES = sorted(Path(invlayers.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module imports, outside ``__future__``, that it never
    reads and that its ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and name not in exported
    ]


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and classes of the named module
    sources that no code among them names, by name, attribute or import,
    outside the helper's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = [
        (name, id(node))
        for tree in trees.values()
        for node in ast.walk(tree)
        for name in (
            [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
    ]
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not any(name == node.name and ref not in own for name, ref in references):
                orphans.append(f"{module} line {node.lineno}: {node.name}")
    return orphans


def bare_asserts(source: str) -> list[int]:
    """The lines of the ``assert`` statements outside any function named
    ``selftest``: ``python -O`` strips them, so they cannot guard a result."""
    tree = ast.parse(source)
    in_selftest = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "selftest"
        for inner in ast.walk(node)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) and id(node) not in in_selftest
    )


def test_bare_asserts_are_found():
    source = (
        "def count(xs):\n"
        "    assert xs, 'empty'\n"
        "    return len(xs)\n"
        "def selftest():\n"
        "    assert count([1]) == 1\n"
        "    def check():\n"
        "        assert count([2]) == 1\n"
        "    check()\n"
        "assert __debug__\n"
    )
    assert bare_asserts(source) == [2, 9]


def test_library_code_raises_instead_of_asserting():
    found = [
        f"{path.name}:{line}"
        for path in MODULES
        for line in bare_asserts(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_orphaned_helpers_are_found():
    sources = {
        "a.py": (
            "def _orphan(n):\n"
            "    return _orphan(n - 1) if n else 0\n"
            "def _called():\n"
            "    return 1\n"
            "class _Imported:\n"
            "    pass\n"
            "class _Read:\n"
            "    pass\n"
            "def public():\n"
            "    return _called()\n"
        ),
        "b.py": "from . import a\nfrom .a import _Imported\nX = a._Read\n",
    }
    assert orphaned_helpers(sources) == ["a.py line 1: _orphan"]


def test_private_helpers_are_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert orphaned_helpers(sources) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from typing import Iterable, Sequence\n"
        "from .errors import BudgetError\n"
        "__all__ = ['BudgetError']\n"
        "def f(xs: Sequence[int]) -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 3: Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
