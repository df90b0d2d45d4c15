"""Each trade safety rule is decided in one function, and every site calls it.

A comparison that reads a certificate's ``subject_pk`` restates the
certificate rule, and one that reads a commitment's ``expiry_time``
restates the expiry rule. This reads each ``src/`` module with the stdlib
``ast`` and allows such a comparison only in the function that owns the
rule (``GenesisTx.rule_fault`` also checks, without a signature, that its
evidence names the account key).

Likewise a call to the bare name ``verify`` or ``sign`` restates a
signature rule: every signed record is signed by ``transactions.signed``
and judged by its ``Declared.verdict``, a block signed by ``Miner.mine``
and judged by its ``Block.signature_ok``, and a certificate or
endorsement by the ``crypto`` rules. A meter's endorsement signs the raw
pool root, which receipts carry on the chain, so the verifier signs it
where it endorses.

A frozen record, block or key pair keeps what its first reader derived
from it (its bytes, its id check, its signature verdict) as cached
properties, each made by its own getter, so no other code can leave an
object a verdict it did not earn. Only two functions write into an
instance dict by hand, each for the keys it names in ``DICT_WRITERS``:
``transactions.signed`` leaves the bytes it signed on the record it
builds, and ``crypto.KeyPair.from_seed`` the key it built. Any other use
of ``vars(...)`` or ``__dict__``, through an alias or a read included, and
any call of ``setattr`` or ``__setattr__``, is refused.

The simulator's loss rule is one function too: ``World._lost`` draws each
message's and each broadcast copy's fate from the loss stream, so a read
of ``_loss_rng`` anywhere else, or a ``getattr`` that names it, is refused;
another draw would shift every later loss of a lossy run.
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
        "transactions.Declared.verdict",
        "ledger.Block.signature_ok",
    },
    "sign": {
        "crypto.issue_certificate",
        "transactions.signed",
        "ledger.Miner.mine",
        "meter.SmartMeter.process_verification_request",
    },
}


# the functions (module.qualname) that may write into an instance dict -> the
# keys each may write there
DICT_WRITERS = {
    "transactions.signed": {"unsigned"},
    "crypto.KeyPair.from_seed": {"_ed_private", "_owns_public"},
}


# private attribute -> the functions (module.qualname) that may read it
READERS = {"_loss_rng": {"sim.world.World._lost"}}


def _scoped(source, module: str, names_in) -> list:
    """(name, enclosing module.qualname) of each name ``names_in(node)``
    yields for a node of ``source``, a text or its parsed tree."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        found.extend((name, scope) for name in names_in(node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source) if isinstance(source, str) else source, module)
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


def _read_attributes(node) -> list:
    """The names in ``READERS`` that ``node`` reads: as a loaded attribute,
    or as the constant name given to ``getattr``."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return [node.attr] if node.attr in READERS else []
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr":
        name = node.args[1] if len(node.args) >= 2 else None
        if isinstance(name, ast.Constant) and name.value in READERS:
            return [name.value]
    return []


def _is_instance_dict(node) -> bool:
    """``vars(...)`` or ``....__dict__``."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "vars"
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def dict_writes(source: str, module: str) -> list:
    """(key, enclosing module.qualname) of each use in ``source`` of an
    instance dict or a setter: the constant key of a write ``vars(obj)[key]
    = ...`` or ``obj.__dict__[key] = ...``, the constant name given to
    ``setattr`` or ``__setattr__``, and ``"?"`` for any other use, such as
    an alias ``facts = vars(obj)`` or a read."""
    tree = ast.parse(source)
    keyed = {
        id(node.value): node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Store)
        and _is_instance_dict(node.value)
        and isinstance(node.slice, ast.Constant)
    }

    def used(node) -> list:
        if _is_instance_dict(node):
            return [keyed.get(id(node), "?")]
        if isinstance(node, ast.Call):
            func = node.func
            setter = (isinstance(func, ast.Name) and func.id == "setattr") or (
                isinstance(func, ast.Attribute) and func.attr == "__setattr__"
            )
            if setter:
                name = node.args[1] if len(node.args) >= 2 else None
                return [name.value if isinstance(name, ast.Constant) else "?"]
        return []

    return _scoped(tree, module, used)


def misplaced_writes(source: str, module: str) -> list:
    writes = dict_writes(source, module)
    return [(key, where) for key, where in writes if key not in DICT_WRITERS.get(where, ())]


def rule_comparisons(source: str, module: str) -> list:
    """(attribute, enclosing module.qualname) of each comparison in ``source``
    that reads an attribute named in ``OWNERS``."""
    return _scoped(source, module, _compared_attributes)


def signature_calls(source: str, module: str) -> list:
    """(name, enclosing module.qualname) of each call in ``source`` of a bare
    name in ``CALLERS``."""
    return _scoped(source, module, _called_names)


def attribute_reads(source: str, module: str) -> list:
    """(name, enclosing module.qualname) of each read in ``source`` of an
    attribute named in ``READERS``."""
    return _scoped(source, module, _read_attributes)


def misplaced_reads(source: str, module: str) -> list:
    return [(a, where) for a, where in attribute_reads(source, module) if where not in READERS[a]]


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
        "    def verdict(self):\n"
        "        return True, None\n"
        "def signed(record, keypair):\n"
        "    vars(record)['unsigned'] = b''\n"
        "    vars(record)['verdict'] = True, None\n"
        "def check_id_and_signature(record):\n"
        "    facts = vars(record)\n"
        "    facts['verdict'] = True, None\n"
        "def seed(record, key, counters):\n"
        "    record.__dict__['verdict'] = True, None\n"
        "    vars(record)[key] = 1\n"
        "    vars(record).update(verdict=(True, None))\n"
        "    object.__setattr__(record, 'id_check', (b'', None))\n"
        "    setattr(record, 'unsigned', b'')\n"
        "    return vars(record).get('verdict')\n"
        "    counters['settled'] += 1\n"
    )
    assert dict_writes(source, "transactions") == [
        ("unsigned", "transactions.signed"),
        ("verdict", "transactions.signed"),
        ("?", "transactions.check_id_and_signature"),
        ("verdict", "transactions.seed"),
        ("?", "transactions.seed"),
        ("?", "transactions.seed"),
        ("id_check", "transactions.seed"),
        ("unsigned", "transactions.seed"),
        ("?", "transactions.seed"),
    ]
    assert misplaced_writes(source, "transactions") == [
        ("verdict", "transactions.signed"),
        ("?", "transactions.check_id_and_signature"),
        ("verdict", "transactions.seed"),
        ("?", "transactions.seed"),
        ("?", "transactions.seed"),
        ("id_check", "transactions.seed"),
        ("unsigned", "transactions.seed"),
        ("?", "transactions.seed"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_fact_is_written_elsewhere(path):
    assert misplaced_writes(path.read_text(), _module_name(path)) == []


def test_every_writer_holds_its_write():
    held = {
        (where, key)
        for path in MODULES
        for key, where in dict_writes(path.read_text(), _module_name(path))
    }
    assert held == {(where, key) for where, keys in DICT_WRITERS.items() for key in keys}


def test_the_read_check_finds_what_it_looks_for():
    source = (
        "class World:\n"
        "    def __init__(self, seed):\n"
        "        self._loss_rng = Random(seed)\n"
        "    def _lost(self):\n"
        "        return self._loss_rng.random() < self._loss_rate\n"
        "    def broadcast(self, audience):\n"
        "        rng = self._loss_rng\n"
        "        return getattr(self, '_loss_rng').random(), getattr(self, 'now')\n"
    )
    assert attribute_reads(source, "sim.world") == [
        ("_loss_rng", "sim.world.World._lost"),
        ("_loss_rng", "sim.world.World.broadcast"),
        ("_loss_rng", "sim.world.World.broadcast"),
    ]
    assert misplaced_reads(source, "sim.world") == [
        ("_loss_rng", "sim.world.World.broadcast"),
        ("_loss_rng", "sim.world.World.broadcast"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_the_loss_stream_is_read_in_one_place(path):
    assert misplaced_reads(path.read_text(), _module_name(path)) == []


def test_every_reader_holds_its_read():
    held = {
        where
        for path in MODULES
        for _, where in attribute_reads(path.read_text(), _module_name(path))
    }
    assert held == set().union(*READERS.values())
