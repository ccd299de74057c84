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
