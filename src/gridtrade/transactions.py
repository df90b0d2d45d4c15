"""The five wire messages of the trading protocol and their canonical bytes.

Message kinds:

* genesis        - opens an energy account (coin burn proof or distributor
                   certificate)
* supply_energy  - adds an energy offer to an account, chained by previous
                   transaction id
* negotiation    - off-chain price haggling, routed point to point, never
                   mined
* ctp            - commit-to-pay: freezes the agreed total in the payer's
                   account until receipt or expiry
* erc            - energy receipt confirmation: meter-signed proof of
                   delivery that triggers settlement

Canonical encoding is a 1-byte kind tag followed by every field in wire
order, each field as a 4-byte big-endian length prefix plus value bytes.
The same bytes serve as wire format, block storage format, and signing
input. The transaction id is the hash of the signed encoding (tag, body
fields, signature; the id field itself is excluded), and the signature
covers the hash of the unsigned encoding (tag plus body fields).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

from .crypto import (
    DIGEST_LEN,
    PUBLIC_KEY_LEN,
    SIGNATURE_LEN,
    Certificate,
    HashDigest,
    KeyPair,
    MerkleProof,
    PublicKey,
    Signature,
    hash_bytes,
    merkle_verify,
    sign,
    verify,
)

TAG_GENESIS = 1
TAG_SUPPLY = 2
TAG_NEGOTIATION = 3
TAG_CTP = 4
TAG_ERC = 5
_TAG_CONTRACT = 16  # internal, only ever hashed

GENESIS_COIN_BURN = 0
GENESIS_CERTIFICATE = 1

MAX_FIELD_LEN = 1 << 20  # 1 MiB; anything bigger is a malformed message


class DecodeError(ValueError):
    """Raised when bytes cannot be parsed back into a transaction."""


def _lp(value: bytes) -> bytes:
    if len(value) > MAX_FIELD_LEN:
        raise ValueError(f"field of {len(value)} bytes exceeds the {MAX_FIELD_LEN} limit")
    return len(value).to_bytes(4, "big") + value


def _u64(value: int) -> bytes:
    if not 0 <= value < 1 << 64:
        raise ValueError(f"integer {value} out of u64 range")
    return value.to_bytes(8, "big")


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def field(self) -> bytes:
        if self.off + 4 > len(self.data):
            raise DecodeError("truncated length prefix")
        n = int.from_bytes(self.data[self.off : self.off + 4], "big")
        if n > MAX_FIELD_LEN:
            raise DecodeError("overlong field")
        self.off += 4
        if self.off + n > len(self.data):
            raise DecodeError("field runs past end of buffer")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def fixed(self, n: int, what: str) -> bytes:
        value = self.field()
        if len(value) != n:
            raise DecodeError(f"{what} must be {n} bytes, got {len(value)}")
        return value

    def u64(self, what: str) -> int:
        return int.from_bytes(self.fixed(8, what), "big")

    def u8(self, what: str) -> int:
        return self.fixed(1, what)[0]

    def done(self) -> None:
        if self.off != len(self.data):
            raise DecodeError(f"{len(self.data) - self.off} trailing bytes")


def encode_fields(tag: int, fields: List[bytes]) -> bytes:
    """A tag byte, then each field length-prefixed as in the canonical encoding."""
    return bytes([tag]) + b"".join(_lp(value) for value in fields)


def decode_fields(data: bytes, tag: int, count: int) -> List[bytes]:
    """Inverse of ``encode_fields`` for ``count`` fields; raises DecodeError."""
    if data[:1] != bytes([tag]):
        raise DecodeError(f"expected tag {tag}, got {data[:1]!r}")
    r = _Reader(data[1:])
    fields = [r.field() for _ in range(count)]
    r.done()
    return fields


@dataclass(frozen=True)
class GenesisTx:
    """Opens an energy account.

    ``method`` selects the evidence kind: a claimed coin-burn amount
    (8-byte big-endian) or a serialized distributor certificate over ``pk``.
    """

    t_id: HashDigest
    method: int
    evidence: bytes
    pk: PublicKey
    sign: Signature

    kind = "genesis"
    tag = TAG_GENESIS

    def _body(self) -> bytes:
        return b"".join(
            [bytes([self.tag]), _lp(bytes([self.method])), _lp(self.evidence), _lp(self.pk)]
        )


@dataclass(frozen=True)
class SupplyEnergyTx:
    """Adds ``energy_amount`` kWh at ``energy_price`` per kWh to an account.

    ``p_t_id`` chains to the account's previous transaction (the genesis id
    for the first supply), proving control of the account's history.
    """

    t_id: HashDigest
    p_t_id: HashDigest
    energy_amount: int
    energy_price: int
    negotiable: bool
    pk: PublicKey
    sign: Signature

    kind = "supply_energy"
    tag = TAG_SUPPLY

    def _body(self) -> bytes:
        return b"".join(
            [
                bytes([self.tag]),
                _lp(self.p_t_id),
                _lp(_u64(self.energy_amount)),
                _lp(_u64(self.energy_price)),
                _lp(bytes([1 if self.negotiable else 0])),
                _lp(self.pk),
            ]
        )


@dataclass(frozen=True)
class NegotiationMsg:
    """One step of off-chain price haggling, never stored in a block.

    ``status`` 1 accepts the counterparty's last price, 0 carries a new
    offer. ``round`` counts every message in the exchange so relays can
    enforce the offer limit statelessly.
    """

    t_id: HashDigest
    dest_energy_account_pk: PublicKey
    price: int
    status: int
    round: int
    sender_pk: PublicKey
    sign: Signature

    kind = "negotiation"
    tag = TAG_NEGOTIATION

    def _body(self) -> bytes:
        return b"".join(
            [
                bytes([self.tag]),
                _lp(self.dest_energy_account_pk),
                _lp(_u64(self.price)),
                _lp(bytes([self.status])),
                _lp(_u64(self.round)),
                _lp(self.sender_pk),
            ]
        )


@dataclass(frozen=True)
class CTPTx:
    """Commit-to-pay: pending payment of ``price`` held until expiry.

    Never mined; lives in each miner's pending database. ``contract_hash``
    commits to the agreed terms without revealing amount or rate.
    """

    t_id: HashDigest
    time_stamp: int
    expiry_time: int
    price: int
    contract_hash: HashDigest
    pk: PublicKey
    sign: Signature

    kind = "ctp"
    tag = TAG_CTP

    def _body(self) -> bytes:
        return b"".join(
            [
                bytes([self.tag]),
                _lp(_u64(self.time_stamp)),
                _lp(_u64(self.expiry_time)),
                _lp(_u64(self.price)),
                _lp(self.contract_hash),
                _lp(self.pk),
            ]
        )


@dataclass(frozen=True)
class ERCTx:
    """Energy receipt confirmation emitted by the consumer's meter.

    Signed with a one-time key whose public half is a leaf of the
    attestation tree committed by ``coe_root``; ``merkle_hashes`` proves the
    leaf, ``coe_vm_sign``/``coe_vm_cert`` carry the verifier meter's
    endorsement of the root.
    """

    t_id: HashDigest
    time_stamp: int
    ctp_id: HashDigest
    price: int
    coe_root: HashDigest
    coe_vm_sign: Signature
    coe_vm_cert: Certificate
    coe_pk: PublicKey
    merkle_hashes: MerkleProof
    pk: PublicKey
    sign: Signature

    kind = "erc"
    tag = TAG_ERC

    def _body(self) -> bytes:
        coe_field = self.coe_root + self.coe_vm_sign + self.coe_vm_cert.to_bytes()
        return b"".join(
            [
                bytes([self.tag]),
                _lp(_u64(self.time_stamp)),
                _lp(self.ctp_id),
                _lp(_u64(self.price)),
                _lp(coe_field),
                _lp(self.coe_pk),
                _lp(self.merkle_hashes.to_bytes()),
                _lp(self.pk),
            ]
        )


Transaction = Union[GenesisTx, SupplyEnergyTx, NegotiationMsg, CTPTx, ERCTx]

MINEABLE_TAGS = frozenset({TAG_GENESIS, TAG_SUPPLY, TAG_ERC})


@dataclass(frozen=True)
class ContractTerms:
    """Terms both parties hash into the contract commitment.

    The nonce blinds the hash: amounts and rates come from a small space,
    so without it the commitment could be brute-forced off the chain.
    """

    energy_amount: int
    unit_price: int
    total_price: int
    nonce: bytes

    def __post_init__(self):
        if len(self.nonce) != 32:
            raise ValueError("nonce must be 32 bytes")


def compute_contract_hash(terms: ContractTerms) -> HashDigest:
    """Digest of the terms; both sides must arrive at the same value."""
    if terms.total_price != terms.energy_amount * terms.unit_price:
        raise ValueError(
            f"total_price {terms.total_price} != "
            f"{terms.energy_amount} * {terms.unit_price}"
        )
    payload = b"".join(
        [
            bytes([_TAG_CONTRACT]),
            _lp(_u64(terms.energy_amount)),
            _lp(_u64(terms.unit_price)),
            _lp(_u64(terms.total_price)),
            _lp(terms.nonce),
        ]
    )
    return hash_bytes(payload)


# ---------------------------------------------------------------------------
# encoding


def encode_canonical(tx: Transaction) -> bytes:
    """Full wire bytes: tag || t_id || remaining fields || signature."""
    body = tx._body()
    return body[:1] + _lp(tx.t_id) + body[1:] + _lp(tx.sign)


def signing_digest(tx: Transaction) -> HashDigest:
    """Hash the signature commits to: the encoding without id or signature."""
    return hash_bytes(tx._body())


def compute_t_id(tx: Transaction) -> HashDigest:
    """Transaction id: hash of the signed encoding (id field excluded)."""
    return hash_bytes(tx._body() + _lp(tx.sign))


def encode_hex(tx: Transaction) -> str:
    """Hex dump of the canonical encoding, for golden tests and logs."""
    return encode_canonical(tx).hex()


def decode_hex(text: str) -> Transaction:
    try:
        raw = bytes.fromhex(text.strip())
    except ValueError as exc:
        raise DecodeError(f"bad hex: {exc}") from exc
    return decode_canonical(raw)


def decode_canonical(data: bytes) -> Transaction:
    """Parse wire bytes back into a transaction; raises DecodeError."""
    if not data:
        raise DecodeError("empty buffer")
    tag = data[0]
    r = _Reader(data[1:])
    t_id = r.fixed(DIGEST_LEN, "t_id")
    if tag == TAG_GENESIS:
        method = r.u8("method")
        if method not in (GENESIS_COIN_BURN, GENESIS_CERTIFICATE):
            raise DecodeError(f"unknown genesis method {method}")
        evidence = r.field()
        pk = r.fixed(PUBLIC_KEY_LEN, "pk")
        sig = r.fixed(SIGNATURE_LEN, "sign")
        r.done()
        return GenesisTx(t_id=t_id, method=method, evidence=evidence, pk=pk, sign=sig)
    if tag == TAG_SUPPLY:
        p_t_id = r.fixed(DIGEST_LEN, "p_t_id")
        amount = r.u64("energy_amount")
        price = r.u64("energy_price")
        negotiable = r.u8("negotiable")
        if negotiable not in (0, 1):
            raise DecodeError(f"negotiable flag must be 0 or 1, got {negotiable}")
        pk = r.fixed(PUBLIC_KEY_LEN, "pk")
        sig = r.fixed(SIGNATURE_LEN, "sign")
        r.done()
        return SupplyEnergyTx(
            t_id=t_id,
            p_t_id=p_t_id,
            energy_amount=amount,
            energy_price=price,
            negotiable=bool(negotiable),
            pk=pk,
            sign=sig,
        )
    if tag == TAG_NEGOTIATION:
        dest = r.fixed(PUBLIC_KEY_LEN, "dest_energy_account_pk")
        price = r.u64("price")
        status = r.u8("status")
        if status not in (0, 1):
            raise DecodeError(f"status must be 0 or 1, got {status}")
        rnd = r.u64("round")
        sender = r.fixed(PUBLIC_KEY_LEN, "sender_pk")
        sig = r.fixed(SIGNATURE_LEN, "sign")
        r.done()
        return NegotiationMsg(
            t_id=t_id,
            dest_energy_account_pk=dest,
            price=price,
            status=status,
            round=rnd,
            sender_pk=sender,
            sign=sig,
        )
    if tag == TAG_CTP:
        ts = r.u64("time_stamp")
        expiry = r.u64("expiry_time")
        price = r.u64("price")
        contract_hash = r.fixed(DIGEST_LEN, "contract_hash")
        pk = r.fixed(PUBLIC_KEY_LEN, "pk")
        sig = r.fixed(SIGNATURE_LEN, "sign")
        r.done()
        return CTPTx(
            t_id=t_id,
            time_stamp=ts,
            expiry_time=expiry,
            price=price,
            contract_hash=contract_hash,
            pk=pk,
            sign=sig,
        )
    if tag == TAG_ERC:
        ts = r.u64("time_stamp")
        ctp_id = r.fixed(DIGEST_LEN, "ctp_id")
        price = r.u64("price")
        coe_field = r.field()
        if len(coe_field) != DIGEST_LEN + SIGNATURE_LEN + 192:
            raise DecodeError("malformed attestation field")
        coe_root = coe_field[:DIGEST_LEN]
        coe_vm_sign = coe_field[DIGEST_LEN : DIGEST_LEN + SIGNATURE_LEN]
        try:
            coe_vm_cert = Certificate.from_bytes(coe_field[DIGEST_LEN + SIGNATURE_LEN :])
        except ValueError as exc:
            raise DecodeError(str(exc)) from exc
        coe_pk = r.fixed(PUBLIC_KEY_LEN, "coe_pk")
        try:
            proof = MerkleProof.from_bytes(r.field())
        except ValueError as exc:
            raise DecodeError(str(exc)) from exc
        pk = r.fixed(PUBLIC_KEY_LEN, "pk")
        sig = r.fixed(SIGNATURE_LEN, "sign")
        r.done()
        return ERCTx(
            t_id=t_id,
            time_stamp=ts,
            ctp_id=ctp_id,
            price=price,
            coe_root=coe_root,
            coe_vm_sign=coe_vm_sign,
            coe_vm_cert=coe_vm_cert,
            coe_pk=coe_pk,
            merkle_hashes=proof,
            pk=pk,
            sign=sig,
        )
    raise DecodeError(f"unknown transaction tag {tag}")


# ---------------------------------------------------------------------------
# construction


def _finish(tx: Transaction, keypair: KeyPair) -> Transaction:
    signature = sign(keypair, signing_digest(tx))
    tx = replace(tx, sign=signature)
    return replace(tx, t_id=compute_t_id(tx))


def make_genesis(method: int, evidence: bytes, keypair: KeyPair) -> GenesisTx:
    if method not in (GENESIS_COIN_BURN, GENESIS_CERTIFICATE):
        raise ValueError(f"unknown genesis method {method}")
    if method == GENESIS_COIN_BURN and len(evidence) != 8:
        raise ValueError("coin-burn evidence must be an 8-byte amount")
    if method == GENESIS_CERTIFICATE:
        Certificate.from_bytes(evidence)  # must parse
    tx = GenesisTx(t_id=b"", method=method, evidence=evidence, pk=keypair.public, sign=b"")
    return _finish(tx, keypair)


def make_supply_energy(
    p_t_id: HashDigest,
    energy_amount: int,
    energy_price: int,
    negotiable: bool,
    keypair: KeyPair,
) -> SupplyEnergyTx:
    if energy_amount <= 0:
        raise ValueError("energy_amount must be positive")
    if energy_price < 0:
        raise ValueError("energy_price must be non-negative")
    tx = SupplyEnergyTx(
        t_id=b"",
        p_t_id=p_t_id,
        energy_amount=energy_amount,
        energy_price=energy_price,
        negotiable=negotiable,
        pk=keypair.public,
        sign=b"",
    )
    return _finish(tx, keypair)


def make_negotiation(
    dest_energy_account_pk: PublicKey,
    price: int,
    status: int,
    round: int,
    keypair: KeyPair,
) -> NegotiationMsg:
    if status not in (0, 1):
        raise ValueError(f"status must be 0 or 1, got {status}")
    if round < 1:
        raise ValueError("round starts at 1")
    tx = NegotiationMsg(
        t_id=b"",
        dest_energy_account_pk=dest_energy_account_pk,
        price=price,
        status=status,
        round=round,
        sender_pk=keypair.public,
        sign=b"",
    )
    return _finish(tx, keypair)


def make_ctp(
    time_stamp: int,
    expiry_time: int,
    price: int,
    contract_hash: HashDigest,
    keypair: KeyPair,
) -> CTPTx:
    if expiry_time <= time_stamp:
        raise ValueError(
            f"expiry_time {expiry_time} must exceed time_stamp {time_stamp}"
        )
    if price <= 0:
        raise ValueError("price must be positive")
    tx = CTPTx(
        t_id=b"",
        time_stamp=time_stamp,
        expiry_time=expiry_time,
        price=price,
        contract_hash=contract_hash,
        pk=keypair.public,
        sign=b"",
    )
    return _finish(tx, keypair)


def make_erc(
    time_stamp: int,
    ctp_id: HashDigest,
    price: int,
    coe_root: HashDigest,
    coe_vm_sign: Signature,
    coe_vm_cert: Certificate,
    coe_pk: PublicKey,
    merkle_hashes: MerkleProof,
    keypair: KeyPair,
) -> ERCTx:
    tx = ERCTx(
        t_id=b"",
        time_stamp=time_stamp,
        ctp_id=ctp_id,
        price=price,
        coe_root=coe_root,
        coe_vm_sign=coe_vm_sign,
        coe_vm_cert=coe_vm_cert,
        coe_pk=coe_pk,
        merkle_hashes=merkle_hashes,
        pk=keypair.public,
        sign=b"",
    )
    return _finish(tx, keypair)


_BUILDERS = {
    "genesis": make_genesis,
    "supply_energy": make_supply_energy,
    "negotiation": make_negotiation,
    "ctp": make_ctp,
    "erc": make_erc,
}


def build_and_sign(kind: str, fields: dict, keypair: KeyPair) -> Transaction:
    """Construct and sign a transaction of ``kind`` from a field mapping."""
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown transaction kind {kind!r}") from None
    return builder(**fields, keypair=keypair)


# ---------------------------------------------------------------------------
# validation


def signer_pk(tx: Transaction) -> PublicKey:
    """The key a transaction's signature verifies under."""
    return tx.sender_pk if isinstance(tx, NegotiationMsg) else tx.pk


def check_structure(tx: Transaction) -> Tuple[bool, Optional[str]]:
    """Stateless integrity check: id, signature, and field invariants.

    Never consults the ledger and never raises; returns (ok, reason).
    """
    try:
        if compute_t_id(tx) != tx.t_id:
            return False, "t_id mismatch"
        if not verify(signer_pk(tx), signing_digest(tx), tx.sign):
            return False, "bad signature"
        if isinstance(tx, GenesisTx):
            if tx.method == GENESIS_COIN_BURN and len(tx.evidence) != 8:
                return False, "malformed burn evidence"
            if tx.method == GENESIS_CERTIFICATE:
                try:
                    cert = Certificate.from_bytes(tx.evidence)
                except ValueError:
                    return False, "malformed certificate evidence"
                if cert.subject_pk != tx.pk:
                    return False, "certificate subject mismatch"
        elif isinstance(tx, SupplyEnergyTx):
            if tx.energy_amount <= 0:
                return False, "non-positive energy amount"
        elif isinstance(tx, NegotiationMsg):
            if tx.status not in (0, 1):
                return False, "bad status"
            if tx.round < 1:
                return False, "bad round"
        elif isinstance(tx, CTPTx):
            if tx.expiry_time <= tx.time_stamp:
                return False, "expiry not after timestamp"
            if tx.price <= 0:
                return False, "non-positive price"
        elif isinstance(tx, ERCTx):
            if not merkle_verify(tx.coe_root, tx.pk, tx.merkle_hashes):
                return False, "bad inclusion proof"
        else:
            return False, "unknown transaction type"
        return True, None
    except Exception as exc:  # malformed field contents must not crash a validator
        return False, f"malformed: {exc}"


def check_encoded(data: bytes) -> Tuple[bool, Optional[str]]:
    """check_structure over raw bytes; decode failures surface as False."""
    try:
        tx = decode_canonical(data)
    except DecodeError as exc:
        return False, f"decode: {exc}"
    return check_structure(tx)
