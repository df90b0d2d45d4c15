"""Each trade safety rule is decided in one function, and every site calls it.

A comparison that reads a certificate's ``subject_pk`` restates the
certificate rule, and one that reads a commitment's ``expiry_time``
restates the expiry rule. This reads each ``src/`` module with the stdlib
``ast`` and allows such a comparison only in the function that owns the
rule (``GenesisTx.rule_fault`` also checks, without a signature, that its
evidence names the account key).

Likewise a call to the bare name ``verify`` or ``sign`` restates a
signature rule: every signed record is signed by ``transactions.signed``
and checked by ``transactions.check_id_and_signature``, a block by
``Miner.mine`` and ``Block.verify_miner_signature``, and a certificate or
endorsement by the ``crypto`` rules. A meter's endorsement signs the raw
pool root, which receipts carry on the chain, so the verifier signs it
where it endorses.

A signed record keeps what its first reader derived from it: its unsigned
bytes, its id check and its signature verdict. Each such fact is written in
one place, so no other code can leave a record a verdict it did not earn:
the bytes by the cached property ``Declared.unsigned`` and by
``transactions.signed``, the id check by ``check_id`` and the verdict by
``check_id_and_signature`` alone. A write of this kind is a cached property,
a write through ``vars(...)``, ``__dict__``, ``setattr`` or
``object.__setattr__``, or a keyed write of a fact's name; blocks and key
pairs keep their own facts the same way, each in one place too: a block's
signature verdict only in ``Block.verify_miner_signature``, the one caller
of ``verify`` for blocks.
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

# bare function name -> the functions (module.qualname) that may call it
CALLERS = {
    "verify": {
        "crypto.ca_verify",
        "crypto.ca_signed",
        "transactions.check_id_and_signature",
        "ledger.Block.verify_miner_signature",
    },
    "sign": {
        "crypto.issue_certificate",
        "transactions.signed",
        "ledger.Miner.mine",
        "meter.SmartMeter.process_verification_request",
    },
}


# name of a fact kept on an object -> the functions (module.qualname) that may write it
WRITERS = {
    "unsigned": {
        "transactions.Declared.unsigned",
        "transactions.signed",
        "ledger.Block.unsigned",  # a block's own bytes
    },
    "_id_check": {"transactions.check_id"},
    "_verdict": {"transactions.check_id_and_signature"},
    "_signature_ok": {"ledger.Block.verify_miner_signature"},  # a block's verdict
    "signing_digest": {"ledger.Block.signing_digest"},
    "block_hash": {"ledger.Block.block_hash"},
    "_ed_private": {"crypto.KeyPair._ed_private", "crypto.KeyPair.from_seed"},
    "_owns_public": {"crypto.KeyPair._owns_public", "crypto.KeyPair.from_seed"},
}


def _scoped(source: str, module: str, names_in) -> list:
    """(name, enclosing module.qualname) of each name ``names_in(node)``
    yields for a node of ``source``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        found.extend((name, scope) for name in names_in(node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def _compared_attributes(node) -> list:
    if not isinstance(node, ast.Compare):
        return []
    return [
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and sub.attr in OWNERS
    ]


def _called_names(node) -> list:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in CALLERS:
        return [node.func.id]
    return []


def _is_instance_dict(node) -> bool:
    """``vars(...)`` or ``....__dict__``."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "vars"
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def _written_facts(node) -> list:
    """Names of the facts ``node`` writes onto an object: a cached property's
    name, a constant key written into ``vars(...)`` or ``__dict__`` or named
    in ``WRITERS``, or the name given to ``setattr`` or ``object.__setattr__``;
    any other write through an instance dict is ``"?"``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [
            node.name
            for d in node.decorator_list
            if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "cached_property"
        ]
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        found = []
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            if not isinstance(target, ast.Subscript):
                continue
            key = target.slice
            name = key.value if isinstance(key, ast.Constant) else None
            if _is_instance_dict(target.value):
                found.append(name if isinstance(name, str) else "?")
            elif name in WRITERS:
                found.append(name)
        return found
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and _is_instance_dict(func.value):
            if func.attr in ("update", "setdefault", "__setitem__"):
                return ["?"]
        setter = (isinstance(func, ast.Name) and func.id == "setattr") or (
            isinstance(func, ast.Attribute) and func.attr == "__setattr__"
        )
        if setter and len(node.args) >= 2:
            name = node.args[1]
            return [name.value if isinstance(name, ast.Constant) else "?"]
    return []


def fact_writes(source: str, module: str) -> list:
    """(fact name, enclosing module.qualname) of each write in ``source`` of a
    fact kept on an object; a cached property's scope is the property itself."""
    return _scoped(source, module, _written_facts)


def misplaced_writes(source: str, module: str) -> list:
    writes = fact_writes(source, module)
    return [(n, where) for n, where in writes if where not in WRITERS.get(n, ())]


def rule_comparisons(source: str, module: str) -> list:
    """(attribute, enclosing module.qualname) of each comparison in ``source``
    that reads an attribute named in ``OWNERS``."""
    return _scoped(source, module, _compared_attributes)


def signature_calls(source: str, module: str) -> list:
    """(name, enclosing module.qualname) of each call in ``source`` of a bare
    name in ``CALLERS``."""
    return _scoped(source, module, _called_names)


def misplaced(source: str, module: str) -> list:
    return [(a, where) for a, where in rule_comparisons(source, module) if where not in OWNERS[a]]


def misplaced_calls(source: str, module: str) -> list:
    return [(n, where) for n, where in signature_calls(source, module) if where not in CALLERS[n]]


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


def test_the_call_check_finds_what_it_looks_for():
    source = (
        "def signed(record, keypair):\n"
        "    return sign(keypair, digest(record))\n"
        "class JoinMessage:\n"
        "    def verify_signature(self):\n"
        "        return verify(self.pk, self._payload(), self.sign)\n"
        "def make_join(keypair, endpoint):\n"
        "    return JoinMessage(keypair.public, endpoint, sign(keypair, endpoint))\n"
        "def other(keypair, x):\n"
        "    return keypair.sign(x) and crypto.verify(x)\n"
    )
    assert signature_calls(source, "transactions") == [
        ("sign", "transactions.signed"),
        ("verify", "transactions.JoinMessage.verify_signature"),
        ("sign", "transactions.make_join"),
    ]
    assert misplaced_calls(source, "transactions") == [
        ("verify", "transactions.JoinMessage.verify_signature"),
        ("sign", "transactions.make_join"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_signature_rule_is_restated(path):
    assert misplaced_calls(path.read_text(), _module_name(path)) == []


def test_every_caller_holds_its_call():
    held = {
        where
        for path in MODULES
        for _, where in signature_calls(path.read_text(), _module_name(path))
    }
    assert held == set().union(*CALLERS.values())


def test_the_write_check_finds_what_it_looks_for():
    source = (
        "class Declared:\n"
        "    @cached_property\n"
        "    def unsigned(self):\n"
        "        return b''\n"
        "    @functools.cached_property\n"
        "    def _verdict(self):\n"
        "        return True, None\n"
        "def signed(record, keypair):\n"
        "    vars(record)['unsigned'] = b''\n"
        "def check_id_and_signature(record):\n"
        "    facts = vars(record)\n"
        "    facts['_verdict'] = True, None\n"
        "def seed(record, key, counters):\n"
        "    record.__dict__['_verdict'] = True, None\n"
        "    vars(record)[key] = 1\n"
        "    vars(record).update(_verdict=(True, None))\n"
        "    object.__setattr__(record, '_id_check', (b'', None))\n"
        "    setattr(record, 'unsigned', b'')\n"
        "    counters['settled'] += 1\n"
    )
    assert fact_writes(source, "transactions") == [
        ("unsigned", "transactions.Declared.unsigned"),
        ("_verdict", "transactions.Declared._verdict"),
        ("unsigned", "transactions.signed"),
        ("_verdict", "transactions.check_id_and_signature"),
        ("_verdict", "transactions.seed"),
        ("?", "transactions.seed"),
        ("?", "transactions.seed"),
        ("_id_check", "transactions.seed"),
        ("unsigned", "transactions.seed"),
    ]
    assert misplaced_writes(source, "transactions") == [
        ("_verdict", "transactions.Declared._verdict"),
        ("_verdict", "transactions.seed"),
        ("?", "transactions.seed"),
        ("?", "transactions.seed"),
        ("_id_check", "transactions.seed"),
        ("unsigned", "transactions.seed"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_fact_is_written_elsewhere(path):
    assert misplaced_writes(path.read_text(), _module_name(path)) == []


def test_every_writer_holds_its_write():
    held = {
        where for path in MODULES for _, where in fact_writes(path.read_text(), _module_name(path))
    }
    assert held == set().union(*WRITERS.values())
