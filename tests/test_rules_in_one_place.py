"""Each trade safety rule is decided in one function, and every site calls it.

A comparison that reads a certificate's ``subject_pk`` restates the
certificate rule, and one that reads a commitment's ``expiry_time``
restates the expiry rule. This reads each ``src/`` module with the stdlib
``ast`` and allows such a comparison only in the function that owns the
rule (``GenesisTx.rule_fault`` also checks, without a signature, that its
evidence names the account key).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gridtrade"
MODULES = sorted(SRC.rglob("*.py"))

# attribute -> the functions (module.qualname) that may compare it
OWNERS = {
    "subject_pk": {"crypto.ca_verify", "transactions.GenesisTx.rule_fault"},
    "expiry_time": {"transactions.CTPTx.expired"},
}


def rule_comparisons(source: str, module: str) -> list:
    """(attribute, enclosing module.qualname) of each comparison in ``source``
    that reads an attribute named in ``OWNERS``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Compare):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr in OWNERS:
                    found.append((sub.attr, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def misplaced(source: str, module: str) -> list:
    return [(a, where) for a, where in rule_comparisons(source, module) if where not in OWNERS[a]]


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def test_the_check_finds_what_it_looks_for():
    source = (
        "class CTPTx:\n"
        "    def expired(self, now):\n"
        "        return self.expiry_time <= now\n"
        "def pump(ctp, now):\n"
        "    if now >= ctp.expiry_time:\n"
        "        return [t for t in ctp.pending if t.expiry_time <= now]\n"
        "    later = min(ctp.expiry_time, now)\n"
        "    return cert.subject_pk != pk\n"
    )
    assert rule_comparisons(source, "transactions") == [
        ("expiry_time", "transactions.CTPTx.expired"),
        ("expiry_time", "transactions.pump"),
        ("expiry_time", "transactions.pump"),
        ("subject_pk", "transactions.pump"),
    ]
    assert misplaced(source, "transactions") == [
        ("expiry_time", "transactions.pump"),
        ("expiry_time", "transactions.pump"),
        ("subject_pk", "transactions.pump"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_rule_is_restated(path):
    assert misplaced(path.read_text(), _module_name(path)) == []


def test_every_owner_holds_its_rule():
    # a renamed or deleted owner must not leave a stale name that allows nothing
    held = {
        where
        for path in MODULES
        for _, where in rule_comparisons(path.read_text(), _module_name(path))
    }
    assert held == set().union(*OWNERS.values())
