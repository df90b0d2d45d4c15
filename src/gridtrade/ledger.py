"""Blockchain state machine: accounts, pending payments, blocks, settlement.

Payment commitments (CTPs) are never mined. Every miner keeps them in a
local pending database; the digest of that database travels in each block
header (``ctp_hash``) so peers can detect drift. A commitment is spendable
capacity: a payer's available balance is its mined coin balance minus the
sum of its pending commitment prices, and admission rejects any commitment
that would push the pending total over the balance. Expired commitments
are swept, which releases the held amount.

Settlement is a deterministic state transition every miner executes when a
block carrying a receipt (ERC) is applied: the committed price moves from
payer to producer, the producer's energy balance drops by the contracted
kWh, and the commitment leaves the pending database for good.

The receipt itself never names the producer or the kWh (the contract hash
hides them), so producers broadcast a signed claim binding a pending
commitment to their account and the contracted energy. Claims, like
commitments, are never mined: each miner keeps a claim beside the
commitment it binds, in the pending database, and drops it with that
commitment when it settles or expires.

Every change to a ledger appends its inverse to an undo journal, like
Bitcoin Core's per-block undo data. ``rollback(mark)`` undoes everything
after a ``mark()`` exactly, down to the order of pending entries and
claims. Miners trial-apply the mempool and apply blocks in place this way,
and keep the journal back to where the tip was applied, for a rival tip.
The journal also counts the records it takes and gives back
(``Ledger.changes``), so a reader can tell that a ledger has not changed
since it last looked without reading the state again.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter
from random import Random
from typing import Dict, FrozenSet, List, Optional, Tuple

from .crypto import (
    DIGEST_LEN,
    PUBLIC_KEY_LEN,
    SIGNATURE_LEN,
    Certificate,
    DecodeError,
    HashDigest,
    KeyPair,
    PublicKey,
    Signature,
    _lp,
    _Reader,
    ca_signed,
    ca_verify,
    hash_bytes,
    merkle_verify,
    sign,
    verify,
)
from .transactions import (
    BytesField,
    CTPTx,
    Declared,
    ERCTx,
    GenesisTx,
    GENESIS_COIN_BURN,
    MINEABLE_TAGS,
    SupplyEnergyTx,
    Transaction,
    U64Field,
    check_id,
    check_id_and_signature,
    check_structure,
    decode_canonical,
    signed,
)


@dataclass
class Result:
    """Outcome of a state-machine submission."""

    accepted: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.accepted


@dataclass
class AccountState:
    """Per-key ledger view: mined coin balance plus the energy account."""

    coin_balance: int = 0
    energy_balance: int = 0
    last_tx_id: Optional[HashDigest] = None  # None until a genesis is applied

    def copy(self) -> "AccountState":
        return AccountState(self.coin_balance, self.energy_balance, self.last_tx_id)

    @property
    def has_energy_account(self) -> bool:
        return self.last_tx_id is not None


_NEVER = float("inf")  # expiry bound of an empty pending database


def _insert_at(d: dict, position: int, key, value) -> None:
    """Put ``key`` back into ``d`` as its ``position``-th entry."""
    tail = list(d.items())[position:]
    for moved, _ in tail:
        del d[moved]
    d[key] = value
    d.update(tail)


def _restore_account(accounts: dict, pk: PublicKey, state: tuple) -> None:
    acct = accounts[pk]
    acct.coin_balance, acct.energy_balance, acct.last_tx_id = state


class Journal(list):
    """An undo journal, oldest record first, that counts its changes.

    ``changes`` grows by one for each record appended and each record
    popped, and never falls. Dropping old records with ``del`` changes no
    state and is not counted.
    """

    __slots__ = ("changes",)

    def __init__(self, records=(), changes: int = 0):
        super().__init__(records)
        self.changes = changes

    def append(self, record: tuple) -> None:
        self.changes += 1
        list.append(self, record)

    def pop(self) -> tuple:
        self.changes += 1
        return list.pop(self)


class CTPDatabase:
    """Miner-local store of pending, unmined payment commitments.

    ``entries`` maps each commitment id to ``(tx, admitted_at)``, and
    ``claims`` maps a pending commitment's id to the producer's claim on
    it. Alongside them the database keeps state derived from the entries,
    so that reads do no work proportional to the database size:

    - ``_pending``: each payer's running sum of pending prices;
    - ``_digest``: the last computed digest, or None once anything changed;
    - ``_next_expiry``: no entry expires before it, so a sweep at an
      earlier tick returns at once.

    Invariant: the database changes only through ``insert``, ``remove``,
    ``sweep_expired`` and ``claim``; each appends its inverse, derived
    state included, to its ledger's ``Journal`` as ``ctp_db`` records, so
    every change moves the journal's ``changes`` count. After each, the
    keys of ``claims`` are a subset of the keys of ``entries``, because
    ``remove`` drops an entry's claim with it; each ``_pending`` value
    equals the sum over ``entries`` for that payer, and a non-None
    ``_digest`` equals the digest recomputed from ``entries``. ``clone``
    copies all of it. Each entry's encoding is the commitment's own
    ``canonical``, made once per object and shared by every miner.
    """

    def __init__(self, journal: Optional[Journal] = None):
        self.entries: Dict[HashDigest, Tuple[CTPTx, int]] = {}
        self.claims: Dict[HashDigest, ProducerClaim] = {}
        self._pending: Dict[PublicKey, int] = {}
        self._digest: Optional[HashDigest] = None
        self._next_expiry: float = _NEVER
        self._journal = Journal() if journal is None else journal

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, ctp_id: HashDigest) -> bool:
        return ctp_id in self.entries

    def get(self, ctp_id: HashDigest) -> Optional[CTPTx]:
        entry = self.entries.get(ctp_id)
        return entry[0] if entry else None

    def insert(self, tx: CTPTx, now: int) -> None:
        self.remove(tx.t_id)
        old = (self._pending.get(tx.pk), self._next_expiry, self._digest)
        self._journal.append(("ctp_db", CTPDatabase._uninsert, tx, *old))
        self.entries[tx.t_id] = (tx, now)
        self._pending[tx.pk] = self._pending.get(tx.pk, 0) + tx.price
        self._next_expiry = min(self._next_expiry, tx.expiry_time)
        self._digest = None

    def _uninsert(self, tx: CTPTx, pending: Optional[int], next_expiry: float, digest) -> None:
        del self.entries[tx.t_id]  # the newest entry, so the order of the rest holds
        self._pending[tx.pk] = pending
        if pending is None:
            del self._pending[tx.pk]
        self._next_expiry, self._digest = next_expiry, digest

    def remove(self, ctp_id: HashDigest) -> None:
        """Drop the entry and its claim, if any."""
        if ctp_id not in self.entries:
            return
        position = list(self.entries).index(ctp_id)
        entry = self.entries.pop(ctp_id)
        tx = entry[0]
        claimed = None
        if ctp_id in self.claims:
            claimed = (list(self.claims).index(ctp_id), self.claims.pop(ctp_id))
        undo = (CTPDatabase._unremove, position, entry, claimed, self._digest)
        self._journal.append(("ctp_db", *undo))
        self._pending[tx.pk] -= tx.price
        self._digest = None  # _next_expiry stays a valid lower bound

    def _unremove(self, position: int, entry, claimed, digest) -> None:
        tx = entry[0]
        _insert_at(self.entries, position, tx.t_id, entry)
        if claimed is not None:
            claim_position, claim = claimed
            _insert_at(self.claims, claim_position, tx.t_id, claim)
        self._pending[tx.pk] += tx.price
        self._digest = digest

    def claim(self, claim: ProducerClaim) -> None:
        """Keep ``claim`` beside the pending entry it names."""
        self.claims[claim.ctp_id] = claim
        self._journal.append(("ctp_db", CTPDatabase._unclaim, claim.ctp_id))

    def _unclaim(self, ctp_id: HashDigest) -> None:
        del self.claims[ctp_id]  # the newest claim, so the order of the rest holds

    def pending_total(self, pk: PublicKey) -> int:
        return self._pending.get(pk, 0)

    def sweep_expired(self, now: int) -> List[HashDigest]:
        """Drop every entry that has expired at ``now``; returns released ids."""
        if now < self._next_expiry:
            return []
        released = sorted(ctp_id for ctp_id, (tx, _) in self.entries.items() if tx.expired(now))
        for ctp_id in released:
            self.remove(ctp_id)
        self._journal.append(("ctp_db", setattr, "_next_expiry", self._next_expiry))
        self._next_expiry = min(
            (tx.expiry_time for tx, _ in self.entries.values()), default=_NEVER
        )
        return released

    def digest(self) -> HashDigest:
        """Deterministic digest over entries sorted by commitment id.

        The hash covers each id followed by its canonical encoding. It is
        computed at most once per change to the database.
        """
        if self._digest is None:
            entries = self.entries
            self._digest = hash_bytes(
                b"".join(ctp_id + entries[ctp_id][0].canonical for ctp_id in sorted(entries))
            )
        return self._digest

    def clone(self, journal: Optional[Journal] = None) -> "CTPDatabase":
        other = CTPDatabase(journal)
        other.entries = dict(self.entries)
        other.claims = dict(self.claims)
        other._pending = dict(self._pending)
        other._digest = self._digest
        other._next_expiry = self._next_expiry
        return other


# ---------------------------------------------------------------------------
# producer claims


TAG_CLAIM = 0x20


@dataclass(frozen=True)
class ProducerClaim(Declared):
    """Signed binding of a pending commitment to the producer it pays.

    Gossiped to the miners and the buyers by the producer when it starts
    delivering, and never mined. Miners keep it to execute settlement with
    the right payee and energy amount; buyers read it as the news that the
    offer account ``producer_pk`` has sold.
    """

    ctp_id: HashDigest
    contract_hash: HashDigest
    producer_pk: PublicKey
    energy_kwh: int
    sign: Signature

    tag = TAG_CLAIM
    signer = "producer_pk"
    wire = (
        BytesField("ctp_id", DIGEST_LEN),
        BytesField("contract_hash", DIGEST_LEN),
        BytesField("producer_pk", PUBLIC_KEY_LEN),
        U64Field("energy_kwh"),
    )


def make_producer_claim(
    ctp_id: HashDigest, contract_hash: HashDigest, energy_kwh: int, keypair: KeyPair
) -> ProducerClaim:
    return signed(ProducerClaim(ctp_id, contract_hash, keypair.public, energy_kwh, b""), keypair)


def check_claim_signature(claim) -> Result:
    """Accepted iff ``claim`` is a ProducerClaim signed by the key it names.

    Total: any other value is a rejection, and a claim is judged, reasons
    included, by ``check_id_and_signature``.
    """
    if not isinstance(claim, ProducerClaim):
        return Result(False, "malformed claim: not a producer claim")
    return Result(*check_id_and_signature(claim))


@dataclass(frozen=True)
class SettlementRecord:
    ctp_id: HashDigest
    erc_id: HashDigest
    consumer_pk: PublicKey
    producer_pk: PublicKey
    price: int
    energy_kwh: int


# ---------------------------------------------------------------------------
# blocks


# a block's bytes fields and their lengths
_BLOCK_BYTES = (("prev_hash", DIGEST_LEN), ("ctp_hash", DIGEST_LEN), ("miner_pk", PUBLIC_KEY_LEN))


@dataclass(frozen=True)
class Block:
    """Mined history unit; ``ctp_hash`` mirrors the miner's pending DB.

    Frozen, and ``unsigned`` and ``to_bytes`` raise ValueError for any field
    but ``bytes`` of its length, an exact ``int`` or a tuple of records, so
    what is derived from a block cannot go stale: its ``unsigned`` encoding,
    ``signing_digest``, ``block_hash`` and ``signature_ok`` are cached
    properties, made on first use and read by every miner gossip hands the
    same object. ``Miner.mine`` signs ``signing_digest`` and
    ``signature_ok`` is the one check of it. ``trader_index`` is all that
    traders read of the block, made once for all of them."""

    height: int
    prev_hash: HashDigest
    ctp_hash: HashDigest
    timestamp: int
    miner_pk: PublicKey
    miner_sign: Signature
    txs: tuple  # of mineable transactions

    # not fields, so ==, hash, repr and ``replace`` ignore them
    @cached_property
    def unsigned(self) -> bytes:
        if type(self.height) is not int or type(self.timestamp) is not int:  # nor a bool
            raise ValueError("height and timestamp must be ints")
        for name, size in _BLOCK_BYTES:
            value = getattr(self, name)
            if type(value) is not bytes or len(value) != size:  # a bytearray can change
                raise ValueError(f"{name} must be {size} bytes")
        if type(self.txs) is not tuple:
            raise ValueError(f"txs must be a tuple, got {type(self.txs).__name__}")
        parts = [
            self.height.to_bytes(8, "big"),
            self.prev_hash,
            self.ctp_hash,
            self.timestamp.to_bytes(8, "big"),
            self.miner_pk,
            len(self.txs).to_bytes(4, "big"),
        ]
        parts.extend(_lp(tx.canonical) for tx in self.txs)
        return b"".join(parts)

    def to_bytes(self) -> bytes:
        if type(self.miner_sign) is not bytes or len(self.miner_sign) != SIGNATURE_LEN:
            raise ValueError(f"miner_sign must be {SIGNATURE_LEN} bytes")
        return self.unsigned + self.miner_sign

    @staticmethod
    def from_bytes(data: bytes) -> "Block":
        r = _Reader(data)
        height, prev_hash, ctp_hash = r.uint(8), r.take(DIGEST_LEN), r.take(DIGEST_LEN)
        timestamp, miner_pk = r.uint(8), r.take(PUBLIC_KEY_LEN)
        txs = tuple(decode_canonical(r.field()) for _ in range(r.uint(4)))
        miner_sign = r.take(SIGNATURE_LEN)
        r.done()
        return Block(height, prev_hash, ctp_hash, timestamp, miner_pk, miner_sign, txs)

    @cached_property
    def block_hash(self) -> HashDigest:
        return hash_bytes(self.to_bytes())

    @cached_property
    def signing_digest(self) -> HashDigest:
        """What the miner signs: the hash of the unsigned encoding."""
        return hash_bytes(self.unsigned)

    @cached_property
    def signature_ok(self) -> bool:
        """The one block-signature check: ``miner_pk`` signed ``signing_digest``."""
        self.to_bytes()  # refuses a ``miner_sign`` outside its domain
        return verify(self.miner_pk, self.signing_digest, self.miner_sign)

    @cached_property
    def trader_index(self) -> Tuple[tuple, FrozenSet[bytes], FrozenSet[bytes], tuple]:
        """(the supplies that pass ``check_structure``; the ``ctp_id`` of each
        receipt; the ``t_id`` of each genesis; the receipts), tuples in block
        order, like a BIP 158 block filter: all that traders read of a block.
        Traders read blocks that no miner has checked, so this never raises:
        a ``txs`` that is not a tuple, an entry that is not a record, and an
        id that is not ``bytes`` give nothing."""
        txs = self.txs
        if not isinstance(txs, tuple) or not txs:  # most blocks are heartbeats
            return _NOTHING_FOR_TRADERS
        supplies, settled, geneses, receipts = [], set(), set(), []
        for tx in txs:
            if isinstance(tx, SupplyEnergyTx) and check_structure(tx)[0]:
                supplies.append(tx)
            elif isinstance(tx, ERCTx):
                receipts.append(tx)
                if type(tx.ctp_id) is bytes:
                    settled.add(tx.ctp_id)
            elif isinstance(tx, GenesisTx) and type(tx.t_id) is bytes:
                geneses.add(tx.t_id)
        return (tuple(supplies), frozenset(settled), frozenset(geneses), tuple(receipts))


_NOTHING_FOR_TRADERS = ((), frozenset(), frozenset(), ())


GENESIS_PREV = b"\x00" * DIGEST_LEN
CHAIN_DUMP_MAGIC = b"GTCHAIN1"


class Blockchain:
    """Append-only block list with flat-file dump/load."""

    def __init__(self):
        self.blocks: List[Block] = []

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def height(self) -> int:
        return len(self.blocks)  # next block's height; chain starts empty

    @property
    def tip_hash(self) -> HashDigest:
        return self.blocks[-1].block_hash if self.blocks else GENESIS_PREV

    def append(self, block: Block) -> None:
        self.blocks.append(block)

    def pop(self) -> Block:
        return self.blocks.pop()

    def dump_bytes(self) -> bytes:
        parts = [CHAIN_DUMP_MAGIC, len(self.blocks).to_bytes(4, "big")]
        parts.extend(_lp(block.to_bytes()) for block in self.blocks)
        return b"".join(parts)

    @staticmethod
    def load_bytes(data: bytes) -> "Blockchain":
        """Inverse of ``dump_bytes``; raises DecodeError."""
        if not data.startswith(CHAIN_DUMP_MAGIC):
            raise DecodeError("not a chain dump")
        r = _Reader(data, len(CHAIN_DUMP_MAGIC))
        chain = Blockchain()
        for _ in range(r.uint(4)):
            chain.append(Block.from_bytes(r.field()))
        r.done()
        return chain


# ---------------------------------------------------------------------------
# the ledger state machine


@dataclass(frozen=True)
class LedgerConfig:
    burn_threshold: int
    distributor_ca_pk: PublicKey
    manufacturer_ca_pk: PublicKey


class Ledger:
    """Deterministic account + pending-commitment state every miner runs.

    ``settlements`` maps each settled commitment id to its record, in
    settlement order; its keys are the settled set. Every change to the
    accounts, the pending database with its claims, and ``settlements`` is
    journaled, so ``changes`` moves on each of them.
    """

    def __init__(self, config: LedgerConfig):
        self.config = config
        self.accounts: Dict[PublicKey, AccountState] = {}
        self.settlements: Dict[HashDigest, SettlementRecord] = {}
        # undo journal, oldest first: (name, undo, *args) is undone by undo(self.name, *args)
        self._journal = Journal()
        self.ctp_db = CTPDatabase(self._journal)

    def clone(self) -> "Ledger":
        other = Ledger(self.config)
        other.accounts = {pk: acct.copy() for pk, acct in self.accounts.items()}
        # so the copy can roll back too, and counts on from the same history
        other._journal = Journal(self._journal, self._journal.changes)
        other.ctp_db = self.ctp_db.clone(other._journal)
        other.settlements = dict(self.settlements)
        return other

    # -- undo journal ----------------------------------------------------------

    @property
    def changes(self) -> int:
        """Journal records made and undone so far; moves on every change."""
        return self._journal.changes

    def mark(self) -> int:
        """The current journal position, for ``rollback``."""
        return len(self._journal)

    def rollback(self, mark: int) -> None:
        """Undo, newest first, every change made since ``mark``."""
        journal = self._journal
        while len(journal) > mark:
            name, undo, *args = journal.pop()
            undo(getattr(self, name), *args)

    def forget_before(self, mark: int) -> None:
        """Drop the records older than ``mark``, which becomes mark 0."""
        del self._journal[:mark]

    def _account(self, pk: PublicKey) -> AccountState:
        """``pk``'s account, opened if missing, journaled before it changes."""
        acct = self.accounts.get(pk)
        if acct is None:  # undone by dropping the newest account
            acct = self.accounts[pk] = AccountState()
            self._journal.append(("accounts", dict.pop, pk))
        else:
            state = (acct.coin_balance, acct.energy_balance, acct.last_tx_id)
            self._journal.append(("accounts", _restore_account, pk, state))
        return acct

    # -- scenario setup ----------------------------------------------------

    def seed_account(self, pk: PublicKey, coin: int) -> None:
        """Endow an account with starting coin (scenario initial state)."""
        self._account(pk).coin_balance += coin

    # -- balances ----------------------------------------------------------

    def coin_balance(self, pk: PublicKey) -> int:
        acct = self.accounts.get(pk)
        return acct.coin_balance if acct else 0

    def available_balance(self, pk: PublicKey) -> int:
        """Mined balance minus everything already committed and pending."""
        return self.coin_balance(pk) - self.ctp_db.pending_total(pk)

    def total_coin(self) -> int:
        return sum(acct.coin_balance for acct in self.accounts.values())

    # -- submissions ---------------------------------------------------------

    def submit_genesis(self, tx: GenesisTx) -> Result:
        ok, reason = check_structure(tx)
        if not ok:
            return Result(False, reason)
        acct = self.accounts.get(tx.pk)
        if acct is not None and acct.has_energy_account:
            return Result(False, "account exists")
        if tx.method == GENESIS_COIN_BURN:
            burned = int.from_bytes(tx.evidence, "big")
            if burned < self.config.burn_threshold:
                return Result(False, "burn below threshold")
        else:
            cert = Certificate.from_bytes(tx.evidence)  # check_structure parsed it
            if not ca_verify(cert, self.config.distributor_ca_pk, tx.pk):
                return Result(False, "bad distributor certificate")
        self._account(tx.pk).last_tx_id = tx.t_id
        return Result(True)

    def submit_supply_energy(self, tx: SupplyEnergyTx) -> Result:
        ok, reason = check_structure(tx)
        if not ok:
            return Result(False, reason)
        acct = self.accounts.get(tx.pk)
        if acct is None or not acct.has_energy_account:
            return Result(False, "unknown account")
        if tx.p_t_id != acct.last_tx_id:
            return Result(False, "chain break")
        self._account(tx.pk)
        acct.energy_balance += tx.energy_amount
        acct.last_tx_id = tx.t_id
        return Result(True)

    def submit_ctp(self, tx: CTPTx, now: int) -> Result:
        """Admit a payment commitment if the payer can still cover it.

        Accepted commitments enter the pending database only; chain state
        never changes and the commitment is never mined.

        Check order: id, stale, duplicate, balance, and only then
        ``check_structure`` with its signature check, the one costly step.
        Every step must pass for admission, so the order changes no
        decision, only the reason given for a commitment that fails two
        steps. The id check comes first, so the later steps read fields the
        id binds. A duplicate is refused before its signature is checked:
        its matching id makes it byte-identical to a commitment admitted
        before, whose signature was checked then.
        """
        body, reason = check_id(tx)
        if body is None:
            return Result(False, reason)
        if tx.expired(now):
            return Result(False, "stale")
        if tx.t_id in self.ctp_db or tx.t_id in self.settlements:
            return Result(False, "duplicate")
        if tx.price > self.available_balance(tx.pk):
            return Result(False, "would double-spend")
        ok, reason = check_structure(tx)
        if not ok:
            return Result(False, reason)
        self.ctp_db.insert(tx, now)
        return Result(True)

    def expire_ctps(self, now: int) -> List[HashDigest]:
        """Release every commitment past its expiry; idempotent at fixed now."""
        return self.ctp_db.sweep_expired(now)

    def submit_claim(self, claim: ProducerClaim) -> Result:
        checked = check_claim_signature(claim)
        if not checked:
            return checked
        ctp = self.ctp_db.get(claim.ctp_id)
        if ctp is None:
            return Result(False, "unknown commitment")
        if ctp.contract_hash != claim.contract_hash:
            return Result(False, "contract hash mismatch")
        acct = self.accounts.get(claim.producer_pk)
        if acct is None or not acct.has_energy_account:
            return Result(False, "claimant has no energy account")
        if acct.energy_balance < claim.energy_kwh:
            return Result(False, "insufficient energy balance")
        if claim.ctp_id in self.ctp_db.claims:
            return Result(False, "already claimed")
        self.ctp_db.claim(claim)
        return Result(True)

    # -- receipt verification ------------------------------------------------

    def validate_erc(self, erc: ERCTx) -> Tuple[bool, Optional[str]]:
        """Run the receipt checks in order; returns (valid, failing_step).

        Steps: (a) referenced commitment is pending, (b) prices match,
        (c) a meter the manufacturer certified endorsed the root (``ca_signed``),
        (d) the signing key is proven inside the attestation tree,
        (e) the receipt signature verifies under that key.
        """
        ctp = self.ctp_db.get(erc.ctp_id) if isinstance(erc.ctp_id, bytes) else None
        if ctp is None:
            return False, "a"
        if erc.price != ctp.price:
            return False, "b"
        ca_pk = self.config.manufacturer_ca_pk
        if not ca_signed(erc.coe_vm_cert, ca_pk, erc.coe_pk, erc.coe_root, erc.coe_vm_sign):
            return False, "c"
        if not merkle_verify(erc.coe_root, erc.pk, erc.merkle_hashes):
            return False, "d"
        if not check_id_and_signature(erc)[0]:
            return False, "e"
        return True, None

    def receipt_claim(self, erc: ERCTx) -> Tuple[Optional[str], Optional[ProducerClaim]]:
        """The one receipt-admission rule: (the ``validate_erc`` step ``erc``
        fails, None), or (None, the claim it settles by), which is None while
        no producer has claimed its commitment."""
        valid, step = self.validate_erc(erc)
        if not valid:
            return step, None
        return None, self.ctp_db.claims.get(erc.ctp_id)

    def settle(self, erc: ERCTx, producer_pk: PublicKey) -> Result:
        """Pay the producer and consume the commitment; runs once per ctp_id."""
        if erc.ctp_id in self.settlements:
            return Result(False, "already settled")
        ctp = self.ctp_db.get(erc.ctp_id)
        if ctp is None:
            return Result(False, "no pending commitment")
        claim = self.ctp_db.claims.get(erc.ctp_id)
        if claim is None or claim.producer_pk != producer_pk:
            return Result(False, "no matching claim")
        consumer = self.accounts.get(ctp.pk)
        producer = self.accounts.get(producer_pk)
        if consumer is None or producer is None:
            return Result(False, "missing account")
        if consumer.coin_balance < ctp.price:
            return Result(False, "payer balance underflow")
        if producer.energy_balance < claim.energy_kwh:
            return Result(False, "producer energy underflow")
        self._account(ctp.pk).coin_balance -= ctp.price
        self._account(producer_pk).coin_balance += ctp.price
        producer.energy_balance -= claim.energy_kwh
        self.ctp_db.remove(erc.ctp_id)
        self.settlements[erc.ctp_id] = SettlementRecord(
            ctp_id=erc.ctp_id,
            erc_id=erc.t_id,
            consumer_pk=ctp.pk,
            producer_pk=producer_pk,
            price=ctp.price,
            energy_kwh=claim.energy_kwh,
        )
        self._journal.append(("settlements", dict.pop, erc.ctp_id))  # the newest record
        return Result(True)

    # -- block application ---------------------------------------------------

    def apply_tx(self, tx: Transaction) -> Result:
        """Validate and apply one mined transaction against current state."""
        if isinstance(tx, GenesisTx):
            return self.submit_genesis(tx)
        if isinstance(tx, SupplyEnergyTx):
            return self.submit_supply_energy(tx)
        if isinstance(tx, ERCTx):
            step, claim = self.receipt_claim(tx)
            if step is not None:
                return Result(False, f"receipt invalid at step {step}")
            if claim is None:
                return Result(False, "unclaimed receipt")
            return self.settle(tx, claim.producer_pk)
        return Result(False, f"transaction kind {tx.kind} cannot be mined")


# ---------------------------------------------------------------------------
# the miner


@dataclass
class ApplyOutcome:
    applied: bool
    reason: Optional[str] = None
    swapped: bool = False  # tip replaced by an equal-height rival
    header_matched: Optional[bool] = None  # ctp_hash vs local digest history


class Miner:
    """One consensus participant: chain, pending DB, mempool, mining clock.

    Consensus is time based: a miner waits a random time inside each
    consensus period and mines at most one block per period, signing the
    header instead of solving a puzzle.
    """

    def __init__(self, keypair: KeyPair, config: LedgerConfig, consensus_period: int):
        self.keypair = keypair
        self.ledger = Ledger(config)
        self.chain = Blockchain()
        self.consensus_period = consensus_period
        # transactions waiting to be mined, by t_id, in arrival order
        self.mempool: Dict[HashDigest, Transaction] = {}
        self.next_mine_at: Optional[int] = None
        self.blocks_this_period = 0
        self.mined_periods: List[int] = []
        # digest journal: (tick, digest) recorded at end of each changed tick
        self._digest_journal: List[Tuple[int, HashDigest]] = [(-1, CTPDatabase().digest())]

    # -- scheduling ----------------------------------------------------------

    def start_period(self, period_start: int, rng: Random) -> int:
        """Reset the per-period quota and pick a uniform wakeup tick."""
        self.blocks_this_period = 0
        self.next_mine_at = period_start + rng.randrange(self.consensus_period)
        return self.next_mine_at

    # -- mempool ---------------------------------------------------------------

    def add_to_mempool(self, tx: Transaction) -> bool:
        if tx.tag not in MINEABLE_TAGS:
            return False
        if tx.t_id in self.mempool:
            return False
        self.mempool[tx.t_id] = tx
        return True

    # -- mining ----------------------------------------------------------------

    def mine(self, now: int) -> Optional[Block]:
        """Assemble, sign, and return a block, or None if the quota is spent.

        Transactions are packed in mempool order, each trial-applied to the
        ledger so the block applies cleanly everywhere; the trial is then
        rolled back. The header's ctp_hash is the pending-DB digest at
        mining time; an empty mempool still yields a heartbeat block.
        """
        if self.blocks_this_period >= 1:
            return None
        ledger = self.ledger
        ctp_hash = ledger.ctp_db.digest()
        mark = ledger.mark()
        packed = tuple(tx for tx in self.mempool.values() if ledger.apply_tx(tx))
        ledger.rollback(mark)
        block = Block(
            height=self.chain.height,
            prev_hash=self.chain.tip_hash,
            ctp_hash=ctp_hash,
            timestamp=now,
            miner_pk=self.keypair.public,
            miner_sign=b"",
            txs=packed,
        )
        block = replace(block, miner_sign=sign(self.keypair, block.signing_digest))
        self.blocks_this_period += 1
        self.mined_periods.append(now // self.consensus_period)
        return block

    # -- receiving blocks --------------------------------------------------------

    def receive_block(self, block: Block) -> ApplyOutcome:
        """Extend the chain, or swap an equal-height rival in by tiebreak.

        Fork choice is longest chain; between two blocks at the same height
        on the same parent the lower miner key wins. Anything else (gaps,
        unknown parents) is rejected and surfaces as a fork metric. A value
        whose header or transactions cannot be encoded is a malformed block.

        Check order: the encoding, then height, parent and tiebreak, and the
        miner signature last, only for a block that would be applied or
        swapped in (a ``miner_sign`` outside its domain is malformed there).
        A block refused by a header check is refused whatever its signature,
        so the order changes no decision, only the reason given for a block
        with a bad signature that also fails a header check.
        """
        chain = self.chain
        try:
            block.unsigned  # made here, so a block that cannot be encoded is malformed
            extends = block.height == chain.height and block.prev_hash == chain.tip_hash
            rival = (
                not extends
                and chain.blocks
                and block.height == chain.height - 1
                and block.prev_hash == chain.blocks[-1].prev_hash
            )
            if rival and not block.miner_pk < chain.blocks[-1].miner_pk:
                return ApplyOutcome(False, "lost tiebreak")
            if not (extends or rival):
                return ApplyOutcome(False, "does not extend tip")
            if not block.signature_ok:
                return ApplyOutcome(False, "bad miner signature")
        except Exception as exc:  # a field or transaction that cannot be encoded or compared
            return ApplyOutcome(False, f"malformed block: {exc}")
        if extends:
            return self._apply(block)
        # an equal-height rival with the lower key replaces the tip
        current = self.ledger
        self.ledger = self._without_tip(current)
        popped = chain.pop()
        outcome = self._apply(block)
        if outcome.applied:
            outcome.swapped = True
            mined = {tx.t_id for tx in block.txs}
            for tx in popped.txs:  # unmined again, unless the rival mined it too
                if tx.t_id not in mined:
                    self.add_to_mempool(tx)
        else:
            # rival failed validation; keep the old tip
            self.ledger = current
            chain.append(popped)
        return outcome

    @staticmethod
    def _without_tip(current: Ledger) -> Ledger:
        """A copy of ``current`` with the tip block's effects undone.

        Each ``_apply`` calls ``forget_before(mark)``, so ``rollback(0)``
        undoes exactly the tip and what came after it. The copy is rolled
        back that far, so what the tip settled is pending again; what
        ``current`` swept since is dropped again. What ``current`` took in
        since is submitted again in admission order; whatever no longer fits
        the pre-tip balances (say, a commitment spending coin the tip paid)
        is dropped.
        """
        ledger = current.clone()
        ledger.rollback(0)
        # a commitment pending before the tip that current has not settled
        # was swept since: only a block settles, and the tip is the newest
        pending = current.ctp_db.entries
        for ctp_id in list(ledger.ctp_db.entries):
            if ctp_id not in pending and ctp_id not in current.settlements:
                ledger.ctp_db.remove(ctp_id)
        # what the copy lacks now, current took in after the tip
        for ctp_id, (tx, admitted_at) in pending.items():
            if ctp_id not in ledger.ctp_db.entries:
                ledger.submit_ctp(tx, admitted_at)
        for ctp_id, claim in current.ctp_db.claims.items():
            if ctp_id not in ledger.ctp_db.claims:
                ledger.submit_claim(claim)
        return ledger

    def _apply(self, block: Block) -> ApplyOutcome:
        """Append ``block`` if all its transactions apply, else change nothing.

        Every block on the chain was applied here, and ``forget_before(mark)``
        makes the point just before it mark 0 of the journal: ``rollback(0)``
        undoes exactly the tip and what came after it (see ``_without_tip``).
        """
        ledger = self.ledger
        mark = ledger.mark()
        for tx in block.txs:
            result = ledger.apply_tx(tx)
            if not result:
                ledger.rollback(mark)
                return ApplyOutcome(False, f"invalid transaction: {result.reason}")
        ledger.forget_before(mark)
        self.chain.append(block)
        for tx in block.txs:
            self.mempool.pop(tx.t_id, None)
        matched = block.ctp_hash == self.digest_as_of(block.timestamp)
        return ApplyOutcome(True, header_matched=matched)

    # -- pending-DB digest journal ---------------------------------------------

    def record_tick_digest(self, now: int) -> None:
        """Record the end-of-tick pending-DB digest for header comparison."""
        digest = self.ledger.ctp_db.digest()
        if self._digest_journal[-1][1] != digest:
            self._digest_journal.append((now, digest))

    def digest_as_of(self, tick: int) -> HashDigest:
        """Pending-DB digest this miner had at the end of ``tick``."""
        after = bisect_right(self._digest_journal, tick, key=itemgetter(0))
        return self._digest_journal[max(after - 1, 0)][1]
