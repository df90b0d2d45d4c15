"""Every top-level name a ``src/`` module defines is read somewhere.

A top-level function, class or UPPER_CASE constant of ``src/gridtrade``
must be read by name in ``src/``, ``bench/`` or ``demos/`` outside its own
definition; tests alone do not keep a name alive. A read is a loaded name,
an attribute of that name (``module.NAME``) or an entry of a module's
``__all__``. Like ``tests/test_imports.py`` this reads each file with the
stdlib ``ast``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gridtrade"
READERS = sorted(
    path for part in ("src", "bench", "demos") for path in (ROOT / part).rglob("*.py")
)
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


def defined(source: str) -> list:
    """The top-level functions, classes and UPPER_CASE constants of ``source``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(
                t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.match(t.id)
            )
    return names


def read_names(source: str) -> set:
    """The names ``source`` reads, leaving out what a top-level function or
    class reads of its own name (a recursive call or a self-reference)."""
    read = set()
    tree = ast.parse(source)
    for top in tree.body:
        own = getattr(top, "name", None)  # of a function or class
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name != own:
                read.add(name)
        if isinstance(top, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets
        ):
            read.update(ast.literal_eval(top.value))
    return read


def dead_names(sources: dict, readers: dict) -> list:
    """(module, name) of each name a module of ``sources`` defines that no
    source of ``readers`` reads; both map a label to source text."""
    read = set().union(*(read_names(text) for text in readers.values()))
    return sorted(
        (module, name)
        for module, text in sources.items()
        for name in defined(text)
        if name not in read
    )


def test_the_check_finds_what_it_looks_for():
    sources = {
        "a": (
            "LIMIT = 3\n"
            "_ORDER = (1, 2)\n"
            "lower_case = 4\n"
            "def used(): return LIMIT\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Exported: pass\n"
            "class Unread: pass\n"
            "__all__ = ['Exported']\n"
        ),
        "b": "import a\nprint(a.used(), a._ORDER)\n",
    }
    assert dead_names({"a": sources["a"]}, sources) == [
        ("a", "Unread"),
        ("a", "recursive"),
    ]


def test_every_top_level_name_is_read():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    readers = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    assert dead_names(sources, readers) == []

