"""Every name a ``src/`` module imports is used in that module.

No linter is installed, so this reads each module with the stdlib ``ast``.
A name listed in the module's ``__all__`` is a re-export and counts as
used; ``from __future__`` imports are compiler directives, not names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gridtrade"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list:
    """The names ``source`` imports at any level but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_check_finds_what_it_looks_for():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import List, Optional\n"
        "from .x import kept, exported\n"
        "__all__ = ['exported']\n"
        "def f(a: List[int]) -> None:\n"
        "    return os.path.join(kept)\n"
    )
    assert unused_imports(source) == ["Optional", "j"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
