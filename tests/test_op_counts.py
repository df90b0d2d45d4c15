"""Operation counts that do not depend on the machine, pinned as upper bounds.

Each count comes from wrapping a function for the length of one run of
``preset("none", seed=1)``, the way ``bench/tracer.py`` traces layers from
outside the program; nothing under ``src/`` counts for these tests.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from gridtrade import crypto
from gridtrade.crypto import KeyPair
from gridtrade.ledger import Ledger, Miner
from gridtrade.sim import preset, run_scenario
from gridtrade.sim.actors import ConsumerActor


def _wrap(monkeypatch, owner, name, before, static=False):
    """Replace ``owner.name`` with a wrapper that calls ``before(*args)`` first."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        before(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, staticmethod(wrapper) if static else wrapper)


@pytest.fixture(scope="module")
def counts():
    counted = Counter()
    signing_keys = set()
    in_start_trade = []

    def note_sign(keypair, message):
        signing_keys.add(keypair.public)

    def note_balance(ledger, pk):
        if in_start_trade:
            in_start_trade[-1] += 1

    def start_trade(actor, now):
        in_start_trade.append(0)
        try:
            original_start_trade(actor, now)
        finally:
            reads = in_start_trade.pop()
            counted["start_trade"] += 1
            counted["available_balance_in_start_trade"] += reads
            counted["most_balance_reads_in_one_start_trade"] = max(
                reads, counted["most_balance_reads_in_one_start_trade"]
            )

    def receive_block(miner, block):
        outcome = original_receive_block(miner, block)
        counted["swaps"] += outcome.swapped
        return outcome

    original_start_trade = ConsumerActor._start_trade
    original_receive_block = Miner.receive_block
    with pytest.MonkeyPatch.context() as mp:
        _wrap(
            mp, crypto.Ed25519PrivateKey, "from_private_bytes",
            lambda seed: counted.update(["ed25519_private_key"]), static=True,
        )
        _wrap(mp, KeyPair, "from_seed", lambda seed: counted.update(["from_seed"]), static=True)
        # modules bind sign by name, so rebind it wherever it was imported
        original_sign = crypto.sign
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("gridtrade"):
                if getattr(module, "sign", None) is original_sign:
                    _wrap(mp, module, "sign", note_sign)
        _wrap(mp, Ledger, "available_balance", note_balance)
        mp.setattr(ConsumerActor, "_start_trade", start_trade)
        _wrap(mp, Ledger, "clone", lambda ledger: counted.update(["ledger_clone"]))
        mp.setattr(Miner, "receive_block", receive_block)
        result = run_scenario(preset("none", seed=1))
    assert result.passed
    counted["signing_keys"] = len(signing_keys)
    return counted


def test_each_signing_key_builds_its_private_key_once(counts):
    assert counts["signing_keys"] > 0
    assert counts["ed25519_private_key"] <= counts["from_seed"] + counts["signing_keys"]


def test_start_trade_reads_the_balance_at_most_once(counts):
    assert counts["start_trade"] > 0
    assert counts["available_balance_in_start_trade"] <= counts["start_trade"]
    # the scan stays one balance read even when several offers are eligible
    assert counts["most_balance_reads_in_one_start_trade"] <= 1


def test_ledger_is_copied_only_for_a_tip_swap(counts):
    # mining and block application mark, apply and roll back in place
    assert counts["swaps"] > 0
    assert counts["ledger_clone"] <= counts["swaps"]
