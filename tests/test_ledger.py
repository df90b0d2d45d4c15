"""Ledger state machine: accounts, pending commitments, blocks, settlement."""

import copy
from collections import Counter
from dataclasses import dataclass, fields, replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtrade.crypto import (
    AsymCiphertext,
    Certificate,
    KeyPair,
    MerkleProof,
    asym_encrypt,
    hash_bytes,
    issue_certificate,
    sign,
    verify,
)
from gridtrade.ledger import (
    Block,
    Blockchain,
    CTPDatabase,
    Ledger,
    LedgerConfig,
    Miner,
    ProducerClaim,
    Result,
    make_producer_claim,
)
from gridtrade.meter import MeterError
from gridtrade.sim import preset, run_scenario
from gridtrade.transactions import (
    GENESIS_CERTIFICATE,
    GENESIS_COIN_BURN,
    DecodeError,
    ERCTx,
    check_structure,
    compute_t_id,
    encode_canonical,
    encode_declared,
    make_ctp,
    make_genesis,
    make_supply_energy,
    signing_digest,
)


def state_digest(ledger: Ledger) -> bytes:
    """Digest over accounts and pending commitments, for replay checks."""
    parts = []
    for pk in sorted(ledger.accounts):
        acct = ledger.accounts[pk]
        parts.append(pk)
        parts.append(acct.coin_balance.to_bytes(8, "big"))
        parts.append(acct.energy_balance.to_bytes(8, "big"))
        parts.append(acct.last_tx_id or b"\x00" * 32)
    parts.append(ledger.ctp_db.digest())
    return hash_bytes(b"".join(parts))


class TestGenesis:
    def test_distributor_certificate_accepted(self, rig):
        kp = KeyPair.generate(rig.rng)
        assert rig.ledger.submit_genesis(rig.certified_genesis(kp)).accepted

    def test_random_issuer_rejected(self, rig):
        kp = KeyPair.generate(rig.rng)
        rogue = KeyPair.generate(rig.rng)
        cert = issue_certificate(rogue, kp.public)
        from gridtrade.transactions import GENESIS_CERTIFICATE

        tx = make_genesis(GENESIS_CERTIFICATE, cert.to_bytes(), kp)
        result = rig.ledger.submit_genesis(tx)
        assert not result.accepted and result.reason == "bad distributor certificate"

    def test_second_genesis_rejected(self, rig):
        kp = KeyPair.generate(rig.rng)
        rig.open_energy_account(kp)
        result = rig.ledger.submit_genesis(rig.certified_genesis(kp))
        assert not result.accepted and result.reason == "account exists"

    def test_coin_burn_threshold(self, rig):
        rich, poor = KeyPair.generate(rig.rng), KeyPair.generate(rig.rng)
        enough = make_genesis(GENESIS_COIN_BURN, (100).to_bytes(8, "big"), rich)
        assert rig.ledger.submit_genesis(enough).accepted
        short = make_genesis(GENESIS_COIN_BURN, (99).to_bytes(8, "big"), poor)
        result = rig.ledger.submit_genesis(short)
        assert not result.accepted and result.reason == "burn below threshold"


class TestSupplyEnergy:
    def test_first_supply_chains_to_genesis(self, rig):
        kp = KeyPair.generate(rig.rng)
        genesis = rig.open_energy_account(kp)
        supply = make_supply_energy(genesis.t_id, 10, 5, True, kp)
        assert rig.ledger.submit_supply_energy(supply).accepted
        assert rig.ledger.accounts[kp.public].energy_balance == 10

    def test_stale_parent_rejected(self, rig):
        kp = KeyPair.generate(rig.rng)
        genesis = rig.open_energy_account(kp)
        first = make_supply_energy(genesis.t_id, 10, 5, True, kp)
        assert rig.ledger.submit_supply_energy(first).accepted
        skipper = make_supply_energy(genesis.t_id, 5, 5, True, kp)
        result = rig.ledger.submit_supply_energy(skipper)
        assert not result.accepted and result.reason == "chain break"

    def test_unknown_account_rejected(self, rig):
        kp = KeyPair.generate(rig.rng)
        supply = make_supply_energy(hash_bytes(b"nope"), 10, 5, True, kp)
        result = rig.ledger.submit_supply_energy(supply)
        assert not result.accepted and result.reason == "unknown account"

    def test_chained_supplies_replay_identically(self, rig):
        kp = KeyPair.generate(rig.rng)
        genesis = rig.certified_genesis(kp)
        supplies = []
        parent = genesis.t_id
        for kwh in (1, 2, 3):
            tx = make_supply_energy(parent, kwh, 5, True, kp)
            supplies.append(tx)
            parent = tx.t_id

        def replay():
            ledger = Ledger(rig.config)
            assert ledger.submit_genesis(genesis).accepted
            for tx in supplies:
                assert ledger.submit_supply_energy(tx).accepted
            return ledger

        a, b = replay(), replay()
        assert a.accounts[kp.public].energy_balance == 6
        assert state_digest(a) == state_digest(b)


def _available_oracle(ledger: Ledger, pk: bytes) -> int:
    """Brute-force available funds: balance minus every pending price."""
    pending = sum(tx.price for tx, _ in ledger.ctp_db.entries.values() if tx.pk == pk)
    return ledger.coin_balance(pk) - pending


class TestCommitToPay:
    def setup_method(self):
        self.rng = Random(42)
        self.consumer = KeyPair.generate(self.rng)

    def _ctp(self, price, ts=10, ttl=100):
        return make_ctp(ts, ts + ttl, price, hash_bytes(self.rng.randbytes(8)), self.consumer)

    def test_admission_against_available_funds(self, rig):
        rig.ledger.seed_account(self.consumer.public, 100)
        assert rig.ledger.submit_ctp(self._ctp(60), now=10).accepted
        assert _available_oracle(rig.ledger, self.consumer.public) == 40

        over = rig.ledger.submit_ctp(self._ctp(50), now=10)
        assert not over.accepted and over.reason == "would double-spend"
        assert 50 > _available_oracle(rig.ledger, self.consumer.public)

        boundary = rig.ledger.submit_ctp(self._ctp(40), now=10)
        assert boundary.accepted
        assert _available_oracle(rig.ledger, self.consumer.public) == 0

    def test_stale_commitment_rejected(self, rig):
        rig.ledger.seed_account(self.consumer.public, 100)
        tx = self._ctp(10, ts=0, ttl=5)
        result = rig.ledger.submit_ctp(tx, now=5)
        assert not result.accepted and result.reason == "stale"

    def test_duplicate_rejected(self, rig):
        rig.ledger.seed_account(self.consumer.public, 100)
        tx = self._ctp(10)
        assert rig.ledger.submit_ctp(tx, now=10).accepted
        assert not rig.ledger.submit_ctp(tx, now=10).accepted

    def test_expiry_boundary_inclusive(self, rig):
        rig.ledger.seed_account(self.consumer.public, 100)
        tx = self._ctp(10, ts=10, ttl=40)  # expires at 50
        assert rig.ledger.submit_ctp(tx, now=10).accepted
        assert rig.ledger.expire_ctps(49) == []
        assert rig.ledger.expire_ctps(50) == [tx.t_id]
        assert rig.ledger.expire_ctps(50) == []  # idempotent
        assert _available_oracle(rig.ledger, self.consumer.public) == 100

    def test_zero_balance_rejects_everything(self, rig):
        rig.ledger.seed_account(self.consumer.public, 0)
        for _ in range(5):
            assert not rig.ledger.submit_ctp(self._ctp(1), now=10).accepted

    def test_random_expiries_conserve(self, rig):
        rig.ledger.seed_account(self.consumer.public, 10_000)
        rng = Random(7)
        inserted = 0
        for _ in range(20):
            ttl = rng.randrange(1, 60)
            tx = make_ctp(0, ttl, rng.randrange(1, 50),
                          hash_bytes(rng.randbytes(8)), self.consumer)
            if rig.ledger.submit_ctp(tx, now=0).accepted:
                inserted += 1
        released = 0
        for now in range(0, 70):
            released += len(rig.ledger.expire_ctps(now))
        assert released == inserted
        assert len(rig.ledger.ctp_db) == 0
        assert _available_oracle(rig.ledger, self.consumer.public) == 10_000


class TestExpiryBoundary:
    """``CTPTx.expired`` is the one expiry rule: admission, the pending sweep
    and the meter agree with it on each side of ``expiry_time``."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_every_site_agrees_with_the_rule(self, trade, offset):
        ctp, ledger = trade.ctp, trade.rig.ledger
        now = ctp.expiry_time + offset
        expired = ctp.expired(now)
        assert expired == (offset >= 0)
        # a second commitment with the same expiry, offered at ``now``
        twin = make_ctp(ctp.time_stamp, ctp.expiry_time, 10, hash_bytes(b"twin"), trade.consumer)
        admitted = ledger.submit_ctp(twin, now=now)
        assert admitted.accepted == (not expired)
        assert admitted.reason == ("stale" if expired else None)
        assert ledger.expire_ctps(now) == ([ctp.t_id] if expired else [])
        if expired:
            with pytest.raises(MeterError, match="commitment expired"):
                trade.completed_erc(now)
        else:
            assert trade.completed_erc(now).ctp_id == ctp.t_id

    def test_commitment_expired_at_its_own_time_stamp_is_refused(self, trade):
        with pytest.raises(ValueError, match="expiry not after timestamp"):
            make_ctp(10, 10, 60, hash_bytes(b"now"), trade.consumer)


def _pool_of_ctps():
    """Three payers with eight commitments each, expiring over ticks 1-20."""
    rng = Random(4242)
    payers = [KeyPair.generate(rng) for _ in range(3)]
    pool = []
    for payer in payers:
        for _ in range(8):
            expiry = rng.randrange(1, 21)
            pool.append(make_ctp(0, expiry, rng.randrange(1, 50),
                                 hash_bytes(rng.randbytes(8)), payer))
    return [kp.public for kp in payers], pool


PAYERS, CTP_POOL = _pool_of_ctps()

_db_op = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, len(CTP_POOL) - 1), st.integers(0, 25)),
    st.tuples(st.just("remove"), st.integers(0, len(CTP_POOL) - 1)),
    st.tuples(st.just("sweep"), st.integers(0, 25)),
    st.tuples(st.just("clone"), st.booleans()),
)


def _assert_matches_recount(db: CTPDatabase) -> None:
    """Every cached read equals a recount over ``entries``."""
    for pk in PAYERS:
        assert db.pending_total(pk) == sum(
            tx.price for tx, _ in db.entries.values() if tx.pk == pk
        )
    assert db.digest() == hash_bytes(
        b"".join(
            ctp_id + encode_canonical(db.entries[ctp_id][0]) for ctp_id in sorted(db.entries)
        )
    )


def _apply_op(db: CTPDatabase, op) -> None:
    kind = op[0]
    if kind == "insert":
        db.insert(CTP_POOL[op[1]], op[2])
    elif kind == "remove":
        db.remove(CTP_POOL[op[1]].t_id)
    elif kind == "sweep":
        now = op[1]
        due = sorted(c for c, (tx, _) in db.entries.items() if tx.expiry_time <= now)
        assert db.sweep_expired(now) == due
        assert all(tx.expiry_time > now for tx, _ in db.entries.values())


class TestPendingDatabaseProperties:
    """The pending DB's cached totals, digest and expiry bound never go stale."""

    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_db_op, max_size=40))
    def test_cached_state_equals_recount(self, ops):
        db = CTPDatabase()
        for i, op in enumerate(ops):
            if op[0] == "clone":
                # mutate a copy with the next op; the original must not move
                before = (db.digest(), [db.pending_total(pk) for pk in PAYERS], dict(db.entries))
                child = db.clone()
                if i + 1 < len(ops) and ops[i + 1][0] != "clone":
                    _apply_op(child, ops[i + 1])
                assert (db.digest(), [db.pending_total(pk) for pk in PAYERS], db.entries) == before
                _assert_matches_recount(child)
                if op[1]:
                    db = child
            else:
                _apply_op(db, op)
            _assert_matches_recount(db)


def _submit_ctp_signature_first(ledger: Ledger, tx, now: int) -> Result:
    """``Ledger.submit_ctp`` in its earlier order, ``check_structure`` first."""
    ok, reason = check_structure(tx)
    if not ok:
        return Result(False, reason)
    if tx.expiry_time <= now:
        return Result(False, "stale")
    if tx.t_id in ledger.ctp_db or tx.t_id in ledger.settlements:
        return Result(False, "duplicate")
    if tx.price > ledger.available_balance(tx.pk):
        return Result(False, "would double-spend")
    ledger.ctp_db.insert(tx, now)
    return Result(True)


def _flip(value: bytes) -> bytes:
    return bytes([value[0] ^ 1]) + value[1:]


def _forged(tx):
    """``tx`` with one signature bit flipped and its id recomputed, as a
    forger can send it: only the signature check refuses it."""
    tx = replace(tx, sign=_flip(tx.sign))
    return replace(tx, t_id=compute_t_id(tx))


def _resigned(tx, keypair, **changes):
    """``tx`` with ``changes``, signed again by ``keypair`` and with its id
    recomputed, as a payer may sign values no builder makes."""
    tx = replace(tx, **changes)
    tx = replace(tx, sign=sign(keypair, signing_digest(tx)))
    return replace(tx, t_id=compute_t_id(tx))


# each makes a variant of a valid commitment signed by the given payer
CTP_VARIANTS = {
    "valid": lambda tx, kp: tx,
    "signature-bit-flipped": lambda tx, kp: _forged(tx),
    "t_id-mismatch": lambda tx, kp: replace(tx, t_id=_flip(tx.t_id)),
    "str-price": lambda tx, kp: replace(tx, price=str(tx.price)),
    "float-price": lambda tx, kp: replace(tx, price=float(tx.price)),
    "none-contract-hash": lambda tx, kp: replace(tx, contract_hash=None),
    "bytearray-contract-hash": lambda tx, kp: replace(
        tx, contract_hash=bytearray(tx.contract_hash)
    ),
    "bytearray-pk": lambda tx, kp: replace(tx, pk=bytearray(tx.pk)),
    "bytearray-t_id": lambda tx, kp: replace(tx, t_id=bytearray(tx.t_id)),
    "negative-time-stamp": lambda tx, kp: replace(tx, time_stamp=-1),
    "over-balance": lambda tx, kp: _resigned(tx, kp, price=1000),
    "zero-price": lambda tx, kp: _resigned(tx, kp, price=0),
    "expiry-not-after-time-stamp": lambda tx, kp: _resigned(tx, kp, expiry_time=0),
}

_payers = [KeyPair.generate(Random(900 + i)) for i in range(2)]
_commitments = [
    (make_ctp(0, expiry, price, hash_bytes(bytes([i])), _payers[i % 2]), _payers[i % 2])
    for i, (expiry, price) in enumerate(
        [(5, 30), (12, 45), (20, 20), (8, 60), (25, 35), (15, 10), (30, 50), (18, 25)]
    )
]

_ctp_op = st.one_of(
    st.tuples(
        st.just("submit"),
        st.integers(0, len(_commitments) - 1),
        st.sampled_from(sorted(CTP_VARIANTS)),
        st.integers(0, 30),
    ),
    st.tuples(st.just("expire"), st.integers(0, 30)),
)


class TestCommitmentCheckOrder:
    """``submit_ctp`` checks the signature last, after the balance, and
    decides every input as the signature-first order did."""

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(_ctp_op, max_size=12))
    def test_same_decisions_as_signature_first(self, ops):
        config = LedgerConfig(100, bytes(32), bytes(32))
        ledger, reference = Ledger(config), Ledger(config)
        for kp in _payers:
            ledger.seed_account(kp.public, 100)
            reference.seed_account(kp.public, 100)
        for op in ops:
            if op[0] == "expire":
                assert ledger.expire_ctps(op[1]) == reference.expire_ctps(op[1])
                continue
            _, index, variant, now = op
            valid, payer = _commitments[index]
            tx = CTP_VARIANTS[variant](valid, payer)
            result = ledger.submit_ctp(tx, now)
            expected = _submit_ctp_signature_first(reference, tx, now)
            assert result.accepted == expected.accepted, (variant, result, expected)
            if check_structure(tx)[0]:  # fails no check the order moved
                assert result.reason == expected.reason
            assert state_digest(ledger) == state_digest(reference)
            assert ledger.ctp_db.digest() == reference.ctp_db.digest()

    @pytest.mark.parametrize("variant", sorted(set(CTP_VARIANTS) - {"valid"}))
    def test_every_variant_but_the_valid_one_is_refused(self, variant):
        ledger = Ledger(LedgerConfig(100, bytes(32), bytes(32)))
        valid, payer = _commitments[1]
        ledger.seed_account(payer.public, 100)
        assert not ledger.submit_ctp(CTP_VARIANTS[variant](valid, payer), now=1)
        assert len(ledger.ctp_db) == 0
        assert ledger.submit_ctp(valid, now=1)


@dataclass(frozen=True)
class _Receipt:
    """Stand-in for a validated receipt: ``settle`` reads only these two ids."""

    ctp_id: bytes
    t_id: bytes


def _journal_fixture():
    """Keys, transactions and claims for random ledger histories."""
    rng = Random(5150)
    distributor, manufacturer = KeyPair.generate(rng), KeyPair.generate(rng)
    config = LedgerConfig(100, distributor.public, manufacturer.public)
    payers = [KeyPair.generate(rng) for _ in range(3)]
    producers = [KeyPair.generate(rng) for _ in range(2)]
    geneses = [
        make_genesis(GENESIS_CERTIFICATE, issue_certificate(distributor, kp.public).to_bytes(), kp)
        for kp in producers
    ]
    supplies = [make_supply_energy(g.t_id, 20, 3, True, kp) for g, kp in zip(geneses, producers)]
    ctps = [
        make_ctp(0, rng.randrange(1, 21), rng.randrange(1, 40), hash_bytes(rng.randbytes(8)), payer)
        for payer in payers
        for _ in range(4)
    ]
    claims = {
        ctp.t_id: make_producer_claim(
            ctp.t_id, ctp.contract_hash, rng.randrange(1, 10), producers[i % 2]
        )
        for i, ctp in enumerate(ctps)
    }
    return config, payers, geneses, supplies, ctps, claims


J_CONFIG, J_PAYERS, J_GENESES, J_SUPPLIES, J_CTPS, J_CLAIMS = _journal_fixture()

# one producer and two payers start funded, with commitments of the two
# payers pending and claimed, so that random histories remove entries and
# claims from the middle and settle often; other accounts open on the way
J_START = (
    [("genesis", 0), ("supply", 0), ("seed", 0, 100), ("seed", 1, 100)]
    + [("ctp", i) for i in range(8)]
    + [("claim", k) for k in range(8)]
)

_ledger_op = st.one_of(
    st.tuples(st.just("seed"), st.integers(0, len(J_PAYERS) - 1), st.integers(1, 60)),
    st.tuples(st.just("genesis"), st.integers(0, len(J_GENESES) - 1)),
    st.tuples(st.just("supply"), st.integers(0, len(J_SUPPLIES) - 1)),
    st.tuples(st.just("ctp"), st.integers(0, len(J_CTPS) - 1)),
    st.tuples(st.just("claim"), st.integers(0, 20)),  # the k-th pending entry's claim
    st.tuples(st.just("sweep"), st.integers(0, 25)),
    st.tuples(st.just("settle"), st.integers(0, 20)),  # the k-th claimed entry
)


def _apply_ledger_op(ledger: Ledger, op) -> None:
    kind, index = op[0], op[1]
    if kind == "seed":
        ledger.seed_account(J_PAYERS[index].public, op[2])
    elif kind == "genesis":
        ledger.submit_genesis(J_GENESES[index])
    elif kind == "supply":
        ledger.submit_supply_energy(J_SUPPLIES[index])
    elif kind == "ctp":
        ledger.submit_ctp(J_CTPS[index], now=0)
    elif kind == "claim" and ledger.ctp_db.entries:
        pending = list(ledger.ctp_db.entries)
        ledger.submit_claim(J_CLAIMS[pending[index % len(pending)]])
    elif kind == "sweep":
        ledger.expire_ctps(index)
    elif kind == "settle" and ledger.ctp_db.claims:
        claim = list(ledger.ctp_db.claims.values())[index % len(ledger.ctp_db.claims)]
        receipt = _Receipt(claim.ctp_id, hash_bytes(b"receipt" + claim.ctp_id))
        ledger.settle(receipt, claim.producer_pk)


def _fields(ledger: Ledger):
    """Every field rollback restores; accounts, entries and claims in order."""
    db = ledger.ctp_db
    return (
        list(ledger.accounts.items()),
        list(db.entries.items()),
        list(ledger.ctp_db.claims.items()),
        db._encoded,
        db._pending,
        db._digest,
        db._next_expiry,
        list(ledger.settlements.items()),
    )


def _assert_each_fact_once(ledger: Ledger) -> None:
    """A claim names a pending commitment, and a settled one is not pending."""
    pending = ledger.ctp_db.entries
    assert ledger.ctp_db.claims.keys() <= pending.keys()
    assert not ledger.settlements.keys() & pending.keys()


class TestUndoJournal:
    """``rollback(mark)`` restores exactly the state the ledger had at ``mark``."""

    @settings(max_examples=200, deadline=None)
    @given(
        before=st.lists(_ledger_op, max_size=25),
        after=st.lists(_ledger_op, max_size=25),
        cache_digest=st.booleans(),
    )
    def test_rollback_restores_a_deep_copy_taken_at_the_mark(self, before, after, cache_digest):
        ledger = Ledger(J_CONFIG)
        for op in J_START + before:
            _apply_ledger_op(ledger, op)
            _assert_each_fact_once(ledger)
        if cache_digest:
            ledger.ctp_db.digest()
        mark = ledger.mark()
        at_mark = copy.deepcopy(_fields(ledger))
        for op in after:
            _apply_ledger_op(ledger, op)
            _assert_each_fact_once(ledger)
        now = copy.deepcopy(_fields(ledger))
        # a copy rolls back on its own and leaves the original alone
        other = ledger.clone()
        other.rollback(mark)
        _assert_each_fact_once(other)
        assert _fields(other) == at_mark
        assert _fields(ledger) == now
        ledger.rollback(mark)
        assert _fields(ledger) == at_mark
        assert ledger.mark() == mark

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(_ledger_op, st.tuples(st.just("rollback"), st.integers(0, 12))),
            max_size=40,
        )
    )
    def test_changes_count_every_change_and_every_undo(self, steps):
        def observed(ledger):
            claims = list(ledger.ctp_db.claims.items())
            return state_digest(ledger), claims, list(ledger.settlements.items())

        ledger = Ledger(J_CONFIG)
        for step in J_START + steps:
            before, changes, records = observed(ledger), ledger.changes, ledger.mark()
            if step[0] == "rollback":
                ledger.rollback(max(records - step[1], 0))
            else:
                _apply_ledger_op(ledger, step)
            _assert_each_fact_once(ledger)
            # one count per record made or undone
            assert ledger.changes - changes == abs(ledger.mark() - records)
            if observed(ledger) != before:
                assert ledger.changes > changes
        assert ledger.clone().changes == ledger.changes

    def test_clone_copies_every_account_field_into_its_own_object(self, trade):
        # compared over ``fields``, so a field ``AccountState.copy`` drops fails here
        ledger = trade.rig.ledger
        for acct in ledger.accounts.values():  # a sentinel per field, so no default passes
            for field in fields(acct):
                setattr(acct, field.name, object())
        other = ledger.clone()
        assert other.accounts.keys() == ledger.accounts.keys()
        for pk, acct in ledger.accounts.items():
            copied = other.accounts[pk]
            assert copied is not acct
            for field in fields(acct):
                assert getattr(copied, field.name) is getattr(acct, field.name), field.name
            copied.coin_balance = None
            assert acct.coin_balance is not None

    def test_forget_before_makes_the_mark_the_start(self, trade):
        ledger = trade.rig.ledger
        mark = ledger.mark()
        late = make_ctp(11, 100, 5, hash_bytes(b"late"), trade.consumer)
        assert ledger.submit_ctp(late, now=11)
        ledger.forget_before(mark)
        assert ledger.mark() == 1
        ledger.rollback(0)
        assert late.t_id not in ledger.ctp_db and trade.ctp.t_id in ledger.ctp_db


class TestReceiptValidation:
    def test_honest_receipt_valid(self, trade):
        erc = trade.completed_erc()
        assert trade.rig.ledger.validate_erc(erc) == (True, None)

    def test_swept_commitment_fails_step_a(self, trade):
        erc = trade.completed_erc()
        trade.rig.ledger.expire_ctps(trade.ctp.expiry_time)
        assert trade.rig.ledger.validate_erc(erc) == (False, "a")

    def test_price_mismatch_fails_step_b(self, trade):
        from gridtrade.transactions import make_erc
        from gridtrade.crypto import merkle_prove

        meter = trade.consumer_meter
        meter.register_contract(trade.terms, trade.ctp)
        meter.record_delivery(trade.ctp.contract_hash, 10)
        pool = meter.pool
        erc = make_erc(
            time_stamp=20,
            ctp_id=trade.ctp.t_id,
            price=trade.ctp.price + 1,
            coe_root=meter.coe.root,
            coe_vm_sign=meter.coe.vm_signature,
            coe_vm_cert=meter.coe.vm_cert,
            coe_pk=meter.coe.vm_pk,
            merkle_hashes=merkle_prove(pool.tree, 0),
            keypair=pool.pairs[0],
        )
        assert trade.rig.ledger.validate_erc(erc) == (False, "b")

    def test_unknown_verifier_fails_step_c(self, trade):
        rogue_ca = KeyPair.generate(trade.rig.rng)
        erc = trade.completed_erc()
        bad_cert = issue_certificate(rogue_ca, erc.coe_pk)
        forged = replace(erc, coe_vm_cert=bad_cert)
        forged = replace(forged, sign=forged.sign)
        # resign with the same leaf key so only the certificate is wrong
        from gridtrade.transactions import signing_digest, compute_t_id

        leaf = trade.consumer_meter.pool.pairs[0]
        forged = replace(forged, sign=sign(leaf, signing_digest(forged)))
        forged = replace(forged, t_id=compute_t_id(forged))
        assert trade.rig.ledger.validate_erc(forged) == (False, "c")

    def test_foreign_key_fails_step_d(self, trade):
        # stolen endorsement, fresh keypair: the proof cannot cover the key
        from gridtrade.transactions import signing_digest, compute_t_id

        erc = trade.completed_erc()
        thief = KeyPair.generate(trade.rig.rng)
        forged = replace(erc, pk=thief.public)
        forged = replace(forged, sign=sign(thief, signing_digest(forged)))
        forged = replace(forged, t_id=compute_t_id(forged))
        assert trade.rig.ledger.validate_erc(forged) == (False, "d")

    def test_stolen_leaf_key_fails_step_e(self, trade):
        # revealed leaf public key, but signed by someone else
        from gridtrade.transactions import signing_digest, compute_t_id

        erc = trade.completed_erc()
        thief = KeyPair.generate(trade.rig.rng)
        forged = replace(erc, time_stamp=erc.time_stamp + 1)
        forged = replace(forged, sign=sign(thief, signing_digest(forged)))
        forged = replace(forged, t_id=compute_t_id(forged))
        assert trade.rig.ledger.validate_erc(forged) == (False, "e")

    @pytest.mark.parametrize("time_stamp", [2**64, -1])
    def test_unencodable_receipt_fails_step_e(self, trade, time_stamp):
        # a time stamp outside u64 cannot be encoded, so nothing signs it
        erc = replace(trade.completed_erc(), time_stamp=time_stamp)
        assert trade.rig.ledger.validate_erc(erc) == (False, "e")
        result = trade.rig.ledger.apply_tx(erc)
        assert not result.accepted
        assert result.reason == "receipt invalid at step e"


    @pytest.mark.parametrize("value", [None, 1.5, "s", [], {}], ids=repr)
    @pytest.mark.parametrize("name", [f.name for f in fields(ERCTx)])
    def test_wrong_typed_field_is_a_rejection(self, trade, name, value):
        erc = replace(trade.completed_erc(), **{name: value})
        valid, step = trade.rig.ledger.validate_erc(erc)
        assert not valid and step in ("a", "b", "c", "d", "e")
        if name == "ctp_id":
            assert step == "a"

    @pytest.mark.parametrize(
        "as_cert",
        [
            Certificate.to_bytes,
            lambda cert: bytearray(cert.to_bytes()),
            lambda cert: None,
            lambda cert: 1,
            lambda cert: cert.to_bytes().hex(),
            lambda cert: (cert.subject_pk, cert.issuer_pk, cert.signature),
        ],
        ids=["bytes", "bytearray", "none", "int", "str", "tuple"],
    )
    def test_certificate_that_is_not_a_record_fails_step_c(self, trade, as_cert):
        # only the record is a certificate: even a valid one's bytes fail step c
        erc = trade.completed_erc()
        erc = replace(erc, coe_vm_cert=as_cert(erc.coe_vm_cert))
        assert trade.rig.ledger.validate_erc(erc) == (False, "c")

    @pytest.mark.parametrize("leaf_index", [2**32, -1])
    def test_unencodable_proof_fails_step_e(self, trade, leaf_index):
        # steps a-d never read the leaf index, so only the encoding sees it
        erc = trade.completed_erc()
        erc = replace(erc, merkle_hashes=replace(erc.merkle_hashes, leaf_index=leaf_index))
        assert trade.rig.ledger.validate_erc(erc) == (False, "e")


class TestSettlement:
    def test_arithmetic(self, trade):
        ledger = trade.rig.ledger
        erc = trade.completed_erc()
        assert ledger.validate_erc(erc)[0]
        result = ledger.settle(erc, trade.producer.public)
        assert result.accepted
        assert ledger.coin_balance(trade.consumer.public) == 40
        assert ledger.coin_balance(trade.producer.public) == 60
        assert ledger.accounts[trade.producer.public].energy_balance == 0
        assert trade.ctp.t_id not in ledger.ctp_db

    def test_double_settle_rejected(self, trade):
        ledger = trade.rig.ledger
        erc = trade.completed_erc()
        assert ledger.settle(erc, trade.producer.public).accepted
        again = ledger.settle(erc, trade.producer.public)
        assert not again.accepted and again.reason == "already settled"

    def test_settle_requires_claim(self, trade):
        ledger = trade.rig.ledger
        erc = trade.completed_erc()
        stranger = KeyPair.generate(trade.rig.rng)
        result = ledger.settle(erc, stranger.public)
        assert not result.accepted and result.reason == "no matching claim"

    def test_total_coin_conserved(self, trade):
        ledger = trade.rig.ledger
        before = ledger.total_coin()
        assert ledger.settle(trade.completed_erc(), trade.producer.public).accepted
        assert ledger.total_coin() == before

    def test_settled_commitment_never_reenters(self, trade):
        ledger = trade.rig.ledger
        assert ledger.settle(trade.completed_erc(), trade.producer.public).accepted
        result = ledger.submit_ctp(trade.ctp, now=11)
        assert not result.accepted and result.reason == "duplicate"


class TestClaims:
    def test_claim_validation(self, trade):
        ledger = trade.rig.ledger
        rng = trade.rig.rng
        outsider = KeyPair.generate(rng)
        bad_sig = ProducerClaim(
            ctp_id=trade.ctp.t_id,
            contract_hash=trade.ctp.contract_hash,
            producer_pk=trade.producer.public,
            energy_kwh=10,
            sign=sign(outsider, b"junk"),
        )
        assert ledger.submit_claim(bad_sig).reason == "bad signature"
        unknown = make_producer_claim(
            hash_bytes(b"missing"), trade.ctp.contract_hash, 10, trade.producer
        )
        assert ledger.submit_claim(unknown).reason == "unknown commitment"
        mismatch = make_producer_claim(
            trade.ctp.t_id, hash_bytes(b"other"), 10, trade.producer
        )
        assert ledger.submit_claim(mismatch).reason == "contract hash mismatch"
        dupe = make_producer_claim(
            trade.ctp.t_id, trade.ctp.contract_hash, 10, trade.producer
        )
        assert ledger.submit_claim(dupe).reason == "already claimed"

    def test_claim_needs_energy_balance(self, trade):
        ledger = trade.rig.ledger
        ledger.ctp_db.claims.clear()
        greedy = make_producer_claim(
            trade.ctp.t_id, trade.ctp.contract_hash, 999, trade.producer
        )
        assert ledger.submit_claim(greedy).reason == "insufficient energy balance"

    @pytest.mark.parametrize("energy_kwh", [-1, 2**64])
    def test_energy_outside_u64_is_rejected(self, trade, energy_kwh):
        claim = ProducerClaim(
            ctp_id=trade.ctp.t_id,
            contract_hash=trade.ctp.contract_hash,
            producer_pk=trade.producer.public,
            energy_kwh=energy_kwh,
            sign=bytes(64),
        )
        result = trade.rig.ledger.submit_claim(claim)
        assert result == Result(False, f"malformed: energy_kwh {energy_kwh} out of u64 range")
        with pytest.raises(ValueError):
            make_producer_claim(
                trade.ctp.t_id, trade.ctp.contract_hash, energy_kwh, trade.producer
            )

    @pytest.mark.parametrize("value", [None, 1.5, "s", [], {}], ids=repr)
    @pytest.mark.parametrize(
        "name", ["ctp_id", "contract_hash", "producer_pk", "energy_kwh", "sign"]
    )
    def test_wrong_typed_field_is_rejected(self, trade, name, value):
        # a claim has no id to encode its ``sign``, so a wrong-typed one was
        # refused as "bad signature" while ``check_id`` left it unchecked
        result = trade.rig.ledger.submit_claim(replace(trade.claim, **{name: value}))
        assert not result.accepted and result.reason.startswith(f"malformed: {name} must be ")

    def test_signed_bytes_of_an_in_range_claim(self, trade):
        # the claim's tag, then its fields framed as in every signed record;
        # a record without an id is signed over these bytes, not their hash
        claim = trade.claim
        values = [claim.ctp_id, claim.contract_hash, claim.producer_pk, (10).to_bytes(8, "big")]
        unsigned = b"\x20" + b"".join(len(v).to_bytes(4, "big") + v for v in values)
        assert encode_declared(claim) == unsigned
        assert verify(claim.producer_pk, unsigned, claim.sign)


def _mk_miner(rig, seed: int) -> Miner:
    return Miner(KeyPair.generate(Random(seed)), rig.config, consensus_period=10)


def _ledger_state(ledger: Ledger):
    """What a rolled-back block or trial must leave as it was, orders included."""
    return (
        state_digest(ledger),
        list(ledger.ctp_db.entries.items()),
        list(ledger.ctp_db.claims.items()),
        list(ledger.settlements.items()),
    )


def _add_later_claimed_ctps(trade) -> None:
    """Two more claimed commitments, so the trade's one is first of three."""
    ledger = trade.rig.ledger
    for i in range(2):
        late = make_ctp(11 + i, 150, 5, hash_bytes(bytes([i])), trade.consumer)
        assert ledger.submit_ctp(late, now=11 + i)
        assert ledger.submit_claim(
            make_producer_claim(late.t_id, late.contract_hash, 1, trade.producer)
        )
    assert next(iter(ledger.ctp_db.entries)) == trade.ctp.t_id


class TestMining:
    def test_quota_one_block_per_period(self, rig):
        miner = _mk_miner(rig, 1)
        miner.start_period(0, Random(0))
        assert miner.mine(3) is not None
        assert miner.mine(5) is None

    def test_counting_over_100_periods(self, rig):
        miners = [_mk_miner(rig, i) for i in range(2)]
        rngs = [Random(100 + i) for i in range(2)]
        mined = {0: [], 1: []}
        for period in range(100):
            start = period * 10
            wakes = [m.start_period(start, rngs[i]) for i, m in enumerate(miners)]
            for now in range(start, start + 10):
                for i, m in enumerate(miners):
                    if wakes[i] == now and m.mine(now) is not None:
                        mined[i].append(period)
        for i in range(2):
            assert len(mined[i]) == 100
            assert len(set(mined[i])) == 100  # never two in one period

    def test_mining_leaves_the_ledger_as_it_was(self, trade):
        rig = trade.rig
        _add_later_claimed_ctps(trade)
        miner = _mk_miner(rig, 23)
        miner.ledger = ledger = rig.ledger.clone()
        erc = trade.completed_erc()
        miner.add_to_mempool(erc)
        cached = ledger.ctp_db.digest()
        before = _ledger_state(ledger)
        miner.start_period(0, Random(0))
        block = miner.mine(5)
        assert block.txs == (erc,)  # the receipt settled in the trial
        assert ledger.ctp_db._digest == cached  # the cached digest is back, not dropped
        assert miner.ledger is ledger and _ledger_state(ledger) == before

    def test_heartbeat_block_carries_pending_digest(self, rig):
        miner = _mk_miner(rig, 2)
        miner.start_period(0, Random(0))
        block = miner.mine(4)
        assert block is not None and block.txs == ()
        assert block.ctp_hash == miner.ledger.ctp_db.digest()
        assert block.verify_miner_signature()


class TestBlockApplication:
    def _mine_one(self, miner: Miner, now: int):
        miner.start_period((now // 10) * 10, Random(now))
        block = miner.mine(now)
        assert block is not None
        return block

    def test_block_roundtrip_and_apply(self, rig):
        producer = KeyPair.generate(rig.rng)
        miner_a, miner_b = _mk_miner(rig, 3), _mk_miner(rig, 4)
        genesis = rig.certified_genesis(producer)
        supply = make_supply_energy(genesis.t_id, 7, 3, True, producer)
        for miner in (miner_a, miner_b):
            miner.add_to_mempool(genesis)
            miner.add_to_mempool(supply)
        block = self._mine_one(miner_a, 5)
        assert len(block.txs) == 2
        assert Block.from_bytes(block.to_bytes()) == block
        for miner in (miner_a, miner_b):
            outcome = miner.receive_block(block)
            assert outcome.applied, outcome.reason
            assert miner.ledger.accounts[producer.public].energy_balance == 7
        assert state_digest(miner_a.ledger) == state_digest(miner_b.ledger)
        assert miner_a.chain.tip_hash == miner_b.chain.tip_hash

    def test_tampered_transaction_rejects_block(self, trade):
        # the valid first transaction settles the first of three pending
        # commitments; the invalid second one must undo that in place
        rig = trade.rig
        _add_later_claimed_ctps(trade)
        miner_a, miner_b = _mk_miner(rig, 5), _mk_miner(rig, 6)
        miner_a.ledger, miner_b.ledger = rig.ledger.clone(), rig.ledger.clone()
        erc = trade.completed_erc()
        miner_a.add_to_mempool(erc)
        block = self._mine_one(miner_a, 5)
        assert block.txs == (erc,)
        evil_supply = make_supply_energy(hash_bytes(b"fake"), 10, 1, True, trade.producer)
        tampered = replace(block, txs=block.txs + (evil_supply,))
        tampered = replace(
            tampered, miner_sign=sign(miner_a.keypair, tampered.signing_digest)
        )
        ledger = miner_b.ledger
        before = _ledger_state(ledger)
        outcome = miner_b.receive_block(tampered)
        assert not outcome.applied and "invalid transaction" in outcome.reason
        assert miner_b.ledger is ledger and _ledger_state(ledger) == before
        assert miner_b.chain.height == 0

    def test_bad_miner_signature_rejected(self, rig):
        miner_a, miner_b = _mk_miner(rig, 7), _mk_miner(rig, 8)
        block = self._mine_one(miner_a, 5)
        forged = replace(block, timestamp=block.timestamp + 1)
        outcome = miner_b.receive_block(forged)
        assert not outcome.applied and outcome.reason == "bad miner signature"

    def test_equal_height_tiebreak_swaps_to_lower_pk(self, rig):
        miner_a, miner_b, observer = (_mk_miner(rig, s) for s in (9, 10, 11))
        block_a = self._mine_one(miner_a, 5)
        block_b = self._mine_one(miner_b, 5)
        first, second = block_a, block_b
        outcome1 = observer.receive_block(first)
        assert outcome1.applied
        outcome2 = observer.receive_block(second)
        lower = min(block_a, block_b, key=lambda b: b.miner_pk)
        assert observer.chain.blocks[-1].miner_pk == lower.miner_pk
        assert outcome2.swapped == (second.miner_pk < first.miner_pk)

    def test_swap_rolls_back_state_and_requeues_txs(self, rig):
        # rival block with the lower miner key replaces a tip that carried
        # a transaction; the transaction must fall back into the mempool
        producer = KeyPair.generate(rig.rng)
        genesis = rig.certified_genesis(producer)
        a, b = _mk_miner(rig, 20), _mk_miner(rig, 21)
        if b.keypair.public > a.keypair.public:
            a, b = b, a  # ensure b has the winning (lower) key
        observer = _mk_miner(rig, 22)
        for miner in (a, observer):
            miner.add_to_mempool(genesis)
        block_a = self._mine_one(a, 5)  # carries the genesis
        block_b = self._mine_one(b, 5)  # heartbeat, same height, lower pk
        assert len(block_a.txs) == 1 and len(block_b.txs) == 0
        assert observer.receive_block(block_a).applied
        assert producer.public in observer.ledger.accounts
        outcome = observer.receive_block(block_b)
        assert outcome.applied and outcome.swapped
        assert producer.public not in observer.ledger.accounts  # rolled back
        assert genesis.t_id in observer.mempool  # requeued
        observer.blocks_this_period = 0
        block_next = observer.mine(7)
        assert any(tx.t_id == genesis.t_id for tx in block_next.txs)

    def test_swap_to_a_rival_holding_the_same_tx_leaves_the_mempool_empty(self, rig):
        # the popped tip's transaction is on the chain again through the
        # rival, so putting it back would only make mining trial-apply it
        producer = KeyPair.generate(rig.rng)
        genesis = rig.certified_genesis(producer)
        a, b = _mk_miner(rig, 20), _mk_miner(rig, 21)
        if b.keypair.public > a.keypair.public:
            a, b = b, a  # ensure b has the winning (lower) key
        observer = _mk_miner(rig, 22)
        for miner in (a, b):
            miner.add_to_mempool(genesis)
        block_a, block_b = self._mine_one(a, 5), self._mine_one(b, 5)
        assert [tx.t_id for tx in block_b.txs] == [genesis.t_id]
        assert observer.receive_block(block_a).applied
        outcome = observer.receive_block(block_b)
        assert outcome.applied and outcome.swapped
        assert producer.public in observer.ledger.accounts  # applied by the rival
        assert observer.mempool == {}

    def _rivals(self, rig, ledger=None):
        """Observer and two same-height blocks; the second has the lower key."""
        a, b = _mk_miner(rig, 20), _mk_miner(rig, 21)
        if b.keypair.public > a.keypair.public:
            a, b = b, a
        observer = _mk_miner(rig, 22)
        if ledger is not None:
            a.ledger, observer.ledger = ledger.clone(), ledger.clone()
        return a, b, observer

    def _invalid_rival(self, rig, miner: Miner, block: Block) -> Block:
        """``block`` re-signed with a valid first transaction and an invalid second."""
        newcomer = KeyPair.generate(rig.rng)
        evil = make_supply_energy(hash_bytes(b"fake"), 10, 1, True, newcomer)
        bad = replace(block, txs=(rig.certified_genesis(newcomer), evil))
        return replace(bad, miner_sign=sign(miner.keypair, bad.signing_digest))

    def test_invalid_rival_keeps_the_tip_and_a_valid_one_still_swaps(self, trade):
        rig = trade.rig
        erc = trade.completed_erc()
        a, b, observer = self._rivals(rig, rig.ledger)
        a.add_to_mempool(erc)
        block_a, block_b = self._mine_one(a, 5), self._mine_one(b, 5)
        assert observer.receive_block(block_a).applied
        late = make_ctp(6, 100, 30, hash_bytes(b"late"), trade.consumer)
        assert observer.ledger.submit_ctp(late, now=6)
        bad = self._invalid_rival(rig, b, block_b)
        ledger = observer.ledger
        before = _ledger_state(ledger)
        outcome = observer.receive_block(bad)
        assert not outcome.applied and not outcome.swapped
        assert "invalid transaction" in outcome.reason
        assert observer.ledger is ledger and _ledger_state(ledger) == before
        assert observer.chain.blocks == [block_a]
        outcome = observer.receive_block(block_b)
        assert outcome.applied and outcome.swapped
        assert observer.chain.blocks == [block_b]
        assert observer.ledger.settlements == {} and late.t_id in observer.ledger.ctp_db
        assert erc.t_id in observer.mempool

    def test_invalid_rival_keeps_a_spend_of_the_coin_the_tip_paid(self, trade):
        # the payee commits the coin the tip's receipt paid it; a refused
        # rival must leave that spend pending, as a swap would not
        rig = trade.rig
        erc = trade.completed_erc()
        a, b, observer = self._rivals(rig, rig.ledger)
        a.add_to_mempool(erc)
        block_a, block_b = self._mine_one(a, 5), self._mine_one(b, 5)
        assert observer.receive_block(block_a).applied
        assert trade.ctp.t_id in observer.ledger.settlements
        spend = make_ctp(6, 100, 50, hash_bytes(b"spend"), trade.producer)
        assert observer.ledger.submit_ctp(spend, now=6)
        bad = self._invalid_rival(rig, b, block_b)
        ledger = observer.ledger
        before = _ledger_state(ledger)
        outcome = observer.receive_block(bad)
        assert not outcome.applied and not outcome.swapped
        assert "invalid transaction" in outcome.reason
        assert observer.ledger is ledger and _ledger_state(ledger) == before
        assert observer.chain.blocks == [block_a]
        assert spend.t_id in ledger.ctp_db
        assert ledger.available_balance(trade.producer.public) == trade.ctp.price - 50

    def test_swap_keeps_commitments_taken_in_after_the_tip(self, rig):
        consumer = KeyPair.generate(rig.rng)
        a, b, observer = self._rivals(rig)
        observer.ledger.seed_account(consumer.public, 100)
        block_a, block_b = self._mine_one(a, 5), self._mine_one(b, 5)
        assert observer.receive_block(block_a).applied
        late = make_ctp(6, 100, 30, hash_bytes(b"late"), consumer)
        assert observer.ledger.submit_ctp(late, now=6)
        outcome = observer.receive_block(block_b)
        assert outcome.applied and outcome.swapped
        assert late.t_id in observer.ledger.ctp_db
        assert observer.ledger.available_balance(consumer.public) == 70

    def test_swap_restores_what_the_tip_settled(self, trade):
        rig = trade.rig
        erc = trade.completed_erc()
        a, b, observer = self._rivals(rig, rig.ledger)
        a.add_to_mempool(erc)
        block_a, block_b = self._mine_one(a, 5), self._mine_one(b, 5)
        assert block_a.txs == (erc,) and block_b.txs == ()
        assert observer.receive_block(block_a).applied
        assert trade.ctp.t_id in observer.ledger.settlements
        late = make_ctp(6, 100, 30, hash_bytes(b"late"), trade.consumer)
        assert observer.ledger.submit_ctp(late, now=6)
        outcome = observer.receive_block(block_b)
        assert outcome.applied and outcome.swapped
        expected = rig.ledger.clone()
        assert expected.submit_ctp(late, now=6)
        assert state_digest(observer.ledger) == state_digest(expected)
        assert observer.ledger.ctp_db.claims == expected.ctp_db.claims
        assert observer.ledger.settlements == {}
        assert erc.t_id in observer.mempool

    def test_swap_keeps_claims_taken_in_after_the_tip(self, trade):
        rig = trade.rig
        a, b, observer = self._rivals(rig, rig.ledger)
        block_a, block_b = self._mine_one(a, 5), self._mine_one(b, 5)
        assert observer.receive_block(block_a).applied
        late = make_ctp(6, 100, 30, hash_bytes(b"late"), trade.consumer)
        assert observer.ledger.submit_ctp(late, now=6)
        claim = make_producer_claim(late.t_id, late.contract_hash, 5, trade.producer)
        assert observer.ledger.submit_claim(claim)
        outcome = observer.receive_block(block_b)
        assert outcome.applied and outcome.swapped
        assert observer.ledger.ctp_db.claims == {trade.ctp.t_id: trade.claim, late.t_id: claim}

    def test_swap_drops_commitments_paid_from_the_popped_tip(self, trade):
        rig = trade.rig
        erc = trade.completed_erc()
        a, b, observer = self._rivals(rig, rig.ledger)
        a.add_to_mempool(erc)
        block_a, block_b = self._mine_one(a, 5), self._mine_one(b, 5)
        assert observer.receive_block(block_a).applied
        producer = trade.producer.public
        assert observer.ledger.coin_balance(producer) == trade.ctp.price
        spend = make_ctp(6, 100, 50, hash_bytes(b"spend"), trade.producer)
        assert observer.ledger.submit_ctp(spend, now=6)
        outcome = observer.receive_block(block_b)
        assert outcome.applied and outcome.swapped
        ledger = observer.ledger
        assert spend.t_id not in ledger.ctp_db and trade.ctp.t_id in ledger.ctp_db
        for pk in {tx.pk for tx, _ in ledger.ctp_db.entries.values()} | {producer}:
            assert ledger.ctp_db.pending_total(pk) <= ledger.coin_balance(pk)

    def test_swap_drops_commitments_swept_after_the_tip(self, trade):
        rig = trade.rig
        a, b, observer = self._rivals(rig, rig.ledger)
        block_a, block_b = self._mine_one(a, 5), self._mine_one(b, 5)
        assert observer.receive_block(block_a).applied
        assert observer.ledger.expire_ctps(trade.ctp.expiry_time) == [trade.ctp.t_id]
        outcome = observer.receive_block(block_b)
        assert outcome.applied and outcome.swapped
        assert len(observer.ledger.ctp_db) == 0 and observer.ledger.ctp_db.claims == {}

    @pytest.mark.parametrize("signed", [True, False], ids=["signed", "bad-signature"])
    @pytest.mark.parametrize(
        "place, refusal",
        [
            ("extends-the-tip", None),
            ("lower-key-rival", None),
            ("higher-key-rival", "lost tiebreak"),
            ("gap", "does not extend tip"),
        ],
    )
    def test_signature_is_checked_last(self, rig, monkeypatch, place, refusal, signed):
        low, mid, high = sorted((_mk_miner(rig, s) for s in (30, 31, 32)),
                                key=lambda m: m.keypair.public)
        observer = _mk_miner(rig, 33)
        tip = self._mine_one(mid, 5)
        assert observer.receive_block(tip).applied and mid.receive_block(tip).applied
        if place == "lower-key-rival":
            block = self._mine_one(low, 5)
        elif place == "higher-key-rival":
            block = self._mine_one(high, 5)
        else:
            block = self._mine_one(mid, 15)
            if place == "gap":
                assert mid.receive_block(block).applied
                block = self._mine_one(mid, 25)
        if not signed:
            block = replace(block, miner_sign=_flip(block.miner_sign))
        verified = []
        monkeypatch.setattr(
            "gridtrade.ledger.verify", lambda *args: verified.append(args) or verify(*args)
        )
        before = _ledger_state(observer.ledger)
        outcome = observer.receive_block(block)
        # a block the header checks refuse is refused whatever its signature,
        # so only a block that would be applied has its signature checked
        assert len(verified) == (refusal is None)
        assert outcome.applied == (signed and refusal is None)
        if outcome.applied:
            assert observer.chain.blocks[-1] == block
            assert outcome.swapped == (place == "lower-key-rival")
        else:
            assert outcome.reason == (refusal or "bad miner signature")
            assert observer.chain.blocks == [tip]
            assert _ledger_state(observer.ledger) == before

    def test_gap_block_rejected(self, rig):
        miner_a, miner_b = _mk_miner(rig, 12), _mk_miner(rig, 13)
        b1 = self._mine_one(miner_a, 5)
        assert miner_a.receive_block(b1).applied
        miner_a.blocks_this_period = 0
        b2 = miner_a.mine(6)
        outcome = miner_b.receive_block(b2)  # skips height 0
        assert not outcome.applied and outcome.reason == "does not extend tip"


class TestDigestAsOf:
    def test_bisect_matches_a_linear_scan(self, rig):
        miner = _mk_miner(rig, 24)
        d = [hash_bytes(bytes([i])) for i in range(5)]
        miner._digest_journal = [(-1, d[0]), (3, d[1]), (7, d[2]), (7, d[3]), (12, d[4])]

        def linear(tick):
            result = miner._digest_journal[0][1]
            for at, digest in miner._digest_journal:
                if at > tick:
                    break
                result = digest
            return result

        # before the first entry, equal to one, between two, two recorded
        # at one tick, the last, and after the last
        cases = {-5: d[0], 3: d[1], 5: d[1], 7: d[3], 12: d[4], 40: d[4]}
        for tick, expected in cases.items():
            assert miner.digest_as_of(tick) == linear(tick) == expected


class TestChainDump:
    def test_dump_load_roundtrip(self, rig):
        miner = _mk_miner(rig, 14)
        producer = KeyPair.generate(rig.rng)
        miner.add_to_mempool(rig.certified_genesis(producer))
        miner.start_period(0, Random(0))
        block = miner.mine(2)
        assert miner.receive_block(block).applied
        data = miner.chain.dump_bytes()
        loaded = Blockchain.load_bytes(data)
        assert [b.block_hash for b in loaded.blocks] == [
            b.block_hash for b in miner.chain.blocks
        ]
        with pytest.raises(ValueError):
            Blockchain.load_bytes(b"garbage")
        with pytest.raises(ValueError):
            Blockchain.load_bytes(data + b"\x00")


@pytest.fixture(scope="module")
def encodings():
    """A decoder and one encoding for each byte layout, taken from
    ``preset("none", seed=1)``'s chain."""
    chain = Blockchain.load_bytes(run_scenario(preset("none", seed=1)).chain_dump)
    block = max(chain.blocks, key=lambda b: len(b.to_bytes()))  # holds transactions
    erc = next(tx for b in chain.blocks for tx in b.txs if isinstance(tx, ERCTx))
    dump = Blockchain()
    for b in chain.blocks[:3]:
        dump.append(b)
    ciphertext = asym_encrypt(erc.pk, erc.coe_root, Random(1))
    return {
        "block": (Block.from_bytes, block.to_bytes()),
        "dump": (Blockchain.load_bytes, dump.dump_bytes()),
        "ciphertext": (AsymCiphertext.from_bytes, ciphertext.to_bytes()),
        "proof": (MerkleProof.from_bytes, erc.merkle_hashes.to_bytes()),
        "certificate": (Certificate.from_bytes, erc.coe_vm_cert.to_bytes()),
    }


@pytest.mark.parametrize("layout", ["block", "dump", "ciphertext", "proof", "certificate"])
def test_decoders_refuse_bad_bytes_with_decode_error(encodings, layout):
    # every strict prefix (the dump's shorter than its magic too) and the
    # value plus one trailing byte
    decode, data = encodings[layout]
    value = decode(data)
    assert (value.dump_bytes() if layout == "dump" else value.to_bytes()) == data
    outcomes = Counter()
    for bad in [data[:n] for n in range(len(data))] + [data + b"\x00"]:
        try:
            decode(bad)
            outcomes["accepted"] += 1
        except DecodeError:
            outcomes["DecodeError"] += 1
        except Exception as exc:
            outcomes[type(exc).__name__] += 1
    assert outcomes == {"DecodeError": len(data) + 1}


class TestReplayDeterminism:
    def test_same_inputs_same_state(self, rig, trade):
        erc = trade.completed_erc()
        block_source = _mk_miner(rig, 15)

        def run():
            ledger = Ledger(rig.config)
            ledger.seed_account(trade.consumer.public, 100)
            genesis = rig.certified_genesis(trade.producer)
            # trade fixture opened the account in rig.ledger; rebuild here
            assert ledger.submit_genesis(genesis)
            supply = make_supply_energy(genesis.t_id, 10, 6, True, trade.producer)
            assert ledger.submit_supply_energy(supply)
            assert ledger.submit_ctp(trade.ctp, now=10)
            claim = make_producer_claim(
                trade.ctp.t_id, trade.ctp.contract_hash, 10, trade.producer
            )
            assert ledger.submit_claim(claim)
            valid, step = ledger.validate_erc(erc)
            assert valid, step
            assert ledger.settle(erc, trade.producer.public)
            return state_digest(ledger)

        assert run() == run()
