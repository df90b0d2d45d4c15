"""Every top-level name and every method a ``src/`` module defines is read
somewhere.

A top-level function, class or UPPER_CASE constant of ``src/gridtrade``
must be read by name in ``src/``, ``bench/`` or ``demos/`` outside its own
definition; tests alone do not keep a name alive. A read is a loaded name,
an attribute of that name (``module.NAME``) or an entry of a module's
``__all__``. A method a class defines, dunders aside, must be read there
outside its own body as a name, an attribute or a string constant
(``CONSUMER_BEHAVIORS`` names steps as strings); which class an attribute
read reaches is not known, so a read of the name keeps every method of
that name. Like ``tests/test_imports.py`` this reads each file with the
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
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def defined(source: str) -> list:
    """The top-level functions, classes and UPPER_CASE constants of ``source``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
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


def defined_methods(source: str) -> list:
    """(class, method) of each method, dunders aside, a class of ``source``
    defines."""
    return [
        (node.name, item.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, FUNCTIONS) and not (item.name[:2] == item.name[-2:] == "__")
    ]


def read_members(source: str) -> set:
    """The loaded names, attributes and string constants ``source`` reads,
    leaving out what a method reads of its own name (a recursive call)."""
    read = set()

    def visit(node, own):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = own
        if name != own:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            method = isinstance(node, ast.ClassDef) and isinstance(child, FUNCTIONS)
            visit(child, child.name if method else own)

    visit(ast.parse(source), None)
    return read


def dead_methods(sources: dict, readers: dict) -> list:
    """(module, class, method) of each method a module of ``sources`` defines
    that no source of ``readers`` reads; both map a label to source text."""
    read = set().union(*(read_members(text) for text in readers.values()))
    return sorted(
        (module, cls, name)
        for module, text in sources.items()
        for cls, name in defined_methods(text)
        if name not in read
    )


def _sources_and_readers():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    readers = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    return sources, readers


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


def test_the_method_check_finds_what_it_looks_for():
    sources = {
        "a": (
            "class Trader:\n"
            "    def __init__(self): self.stepped = None\n"
            "    def on_message(self): return self.read(1)\n"
            "    def read(self, n): return n\n"
            "    def recurse(self, n): return self.recurse(n - 1)\n"
            "    def named_step(self): pass\n"
            "    def left_behind(self): pass\n"
            "STEPS = {'trader': 'named_step'}\n"
        ),
        "b": "import a\na.Trader().on_message()\n",
    }
    assert dead_methods({"a": sources["a"]}, sources) == [
        ("a", "Trader", "left_behind"),
        ("a", "Trader", "recurse"),
    ]


def test_every_top_level_name_is_read():
    assert dead_names(*_sources_and_readers()) == []


def test_every_method_is_read():
    assert dead_methods(*_sources_and_readers()) == []

