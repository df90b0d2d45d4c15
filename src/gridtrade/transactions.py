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

The layout lives in one place: each message class lists its body fields
(everything between ``t_id`` and ``sign``) in wire order in its ``wire``
attribute, and each field's codec owns that field's value domain (fixed
length, u64 range, allowed enum values). ``encode_canonical``,
``signing_digest``, ``compute_t_id`` and ``decode_canonical`` all read the
declaration, so encoding and decoding refuse the same values. Rules the
codecs cannot express (a positive price, a commitment not ``CTPTx.expired``
at its own time stamp) are each class's ``rule_fault``, shared by
``check_structure`` and the ``make_*`` builders.

The meter's ``CoE`` and ``VerificationRequest`` are declared the same way
and travel as ``encode_declared`` bytes, read back by ``decode_declared``.
Deliberately outside the declarations: ``ledger.ProducerClaim`` (tag plus
unprefixed fields; it borrows ``U64Field`` for ``energy_kwh``).

The framing lives in ``crypto`` (re-exported here): ``_lp`` writes a
field, ``_Reader`` reads fields and fixed-width values and raises
``DecodeError``. Blocks and chain dumps (``ledger``) and ciphertexts also
frame with ``_lp``; they, Merkle proofs and certificates read via ``_Reader``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import List, Optional, Tuple, Union

from .crypto import (
    CERTIFICATE_LEN,
    DIGEST_LEN,
    PUBLIC_KEY_LEN,
    SIGNATURE_LEN,
    Certificate,
    DecodeError,
    HashDigest,
    KeyPair,
    MerkleProof,
    PublicKey,
    Signature,
    _lp,
    _Reader,
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


# ---------------------------------------------------------------------------
# field codecs


class Field:
    """One length-prefixed wire field: the attributes it carries and its codec.

    A subclass defines ``encode``, which takes the attribute's value (a
    tuple of values when the field carries several attributes) and raises
    ValueError for a value outside the field's domain, and ``parse``, which
    reads a value back from the field's bytes. ``decode`` accepts exactly
    the bytes ``encode`` emits and raises DecodeError for anything else, so
    each domain rule is stated once, in ``encode``.
    """

    size: Optional[int] = None  # fixed byte length, None when it varies

    def __init__(self, *names: str):
        self.names = names
        self.label = "+".join(names)
        self.get = attrgetter(*names)

    def decode(self, raw: bytes):
        if self.size is not None and len(raw) != self.size:
            raise DecodeError(f"{self.label} must be {self.size} bytes, got {len(raw)}")
        try:
            value = self.parse(raw)
            canonical = self.encode(value) == raw
        except ValueError as exc:
            raise DecodeError(str(exc)) from exc
        if not canonical:
            raise DecodeError(f"{self.label} is not canonically encoded")
        return value


class BytesField(Field):
    """Raw bytes, of exactly ``size`` bytes when a size is given.

    Only ``bytes`` is in the domain: a mutable or view value (bytearray,
    memoryview) would encode alike but cannot key a dict, as ids, keys and
    contract hashes do once a transaction is admitted.
    """

    def __init__(self, name: str, size: Optional[int] = None):
        super().__init__(name)
        self.size = size

    def encode(self, value: bytes) -> bytes:
        if not isinstance(value, bytes):
            raise ValueError(f"{self.label} must be bytes, got {type(value).__name__}")
        if self.size is not None and len(value) != self.size:
            raise ValueError(f"{self.label} must be {self.size} bytes, got {len(value)}")
        return value

    def parse(self, raw: bytes) -> bytes:
        return bytes(raw)


class U64Field(Field):
    """Unsigned 64-bit integer, 8 bytes big-endian."""

    size = 8

    def encode(self, value: int) -> bytes:
        if type(value) is not int:  # a bool too: True would encode as 1
            raise ValueError(f"{self.label} must be an int, got {type(value).__name__}")
        if not 0 <= value < 1 << 64:
            raise ValueError(f"{self.label} {value} out of u64 range")
        return value.to_bytes(8, "big")

    def parse(self, raw: bytes) -> int:
        return int.from_bytes(raw, "big")


class EnumField(Field):
    """One byte holding one of ``allowed``, a value of exactly type ``kind``."""

    size = 1
    kind = int  # exactly: True would encode as 1

    def __init__(self, name: str, allowed: Tuple[int, ...]):
        super().__init__(name)
        self.allowed = allowed

    def encode(self, value: int) -> bytes:
        if type(value) is not self.kind:
            raise ValueError(
                f"{self.label} must be {self.kind.__name__}, got {type(value).__name__}"
            )
        if value not in self.allowed:
            raise ValueError(f"{self.label} must be one of {self.allowed}, got {value}")
        return bytes([value])

    def parse(self, raw: bytes) -> int:
        return raw[0]


class FlagField(EnumField):
    """A boolean as one byte, 0 or 1."""

    kind = bool

    def __init__(self, name: str):
        super().__init__(name, (0, 1))

    def parse(self, raw: bytes) -> bool:
        return raw[0] == 1


class ObjectField(Field):
    """A value in its own ``to_bytes`` form, read back by ``kind.from_bytes``."""

    def __init__(self, name: str, kind: type):
        super().__init__(name)
        self.kind = kind

    def encode(self, value) -> bytes:
        return value.to_bytes()

    def parse(self, raw: bytes):
        return self.kind.from_bytes(raw)


class AttestationField(Field):
    """The receipt's attestation: tree root, verifier signature over it and
    the verifier's certificate, concatenated into one field."""

    size = DIGEST_LEN + SIGNATURE_LEN + CERTIFICATE_LEN

    def encode(self, value: Tuple[HashDigest, Signature, Certificate]) -> bytes:
        root, vm_sign, cert = value
        raw = root + vm_sign + cert.to_bytes()
        if len(root) != DIGEST_LEN or len(vm_sign) != SIGNATURE_LEN or len(raw) != self.size:
            raise ValueError(f"malformed {self.label}")
        return raw

    def parse(self, raw: bytes) -> Tuple[HashDigest, Signature, Certificate]:
        cut = DIGEST_LEN + SIGNATURE_LEN
        return raw[:DIGEST_LEN], raw[DIGEST_LEN:cut], Certificate.from_bytes(raw[cut:])


_T_ID = BytesField("t_id", DIGEST_LEN)
_SIGN = BytesField("sign", SIGNATURE_LEN)


class Declared:
    """Binds a subclass's ``tag`` and ``wire`` declaration once, at class
    creation, so encoding builds no getters or closures per call."""

    tag: int
    wire: Tuple[Field, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._tag_byte = bytes([cls.tag])
        cls._encoders = tuple((field.get, field.encode) for field in cls.wire)

    def rule_fault(self) -> Optional[str]:
        """Why the values break a rule the field codecs do not cover, or None."""
        return None


def encode_declared(obj: Declared) -> bytes:
    """Tag byte, then every declared field length-prefixed."""
    return obj._tag_byte + b"".join([_lp(encode(get(obj))) for get, encode in obj._encoders])


def _decode_into(values: dict, field: Field, raw: bytes) -> None:
    """Decode one field's bytes into ``values`` under its attribute names."""
    value = field.decode(raw)
    if len(field.names) == 1:
        values[field.names[0]] = value
    else:
        values.update(zip(field.names, value))


def encode_fields(tag: int, fields: List[bytes]) -> bytes:
    """A tag byte, then each field length-prefixed as in the canonical encoding."""
    return bytes([tag]) + b"".join(_lp(value) for value in fields)


def decode_fields(data: bytes, tag: int, count: int) -> List[bytes]:
    """Inverse of ``encode_fields`` for ``count`` fields; raises DecodeError."""
    if data[:1] != bytes([tag]):
        raise DecodeError(f"expected tag {tag}, got {data[:1]!r}")
    r = _Reader(data, 1)
    fields = [r.field() for _ in range(count)]
    r.done()
    return fields


def decode_declared(cls, data: bytes):
    """Inverse of ``encode_declared`` for a ``cls`` made of its declared
    fields alone; raises DecodeError."""
    values: dict = {}
    for field, raw in zip(cls.wire, decode_fields(data, cls.tag, len(cls.wire))):
        _decode_into(values, field, raw)
    return cls(**values)


@dataclass(frozen=True)
class GenesisTx(Declared):
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
    wire = (
        EnumField("method", (GENESIS_COIN_BURN, GENESIS_CERTIFICATE)),
        BytesField("evidence"),
        BytesField("pk", PUBLIC_KEY_LEN),
    )

    def rule_fault(self) -> Optional[str]:
        if self.method == GENESIS_COIN_BURN and len(self.evidence) != 8:
            return "malformed burn evidence"
        if self.method == GENESIS_CERTIFICATE:
            try:
                cert = Certificate.from_bytes(self.evidence)
            except ValueError:
                return "malformed certificate evidence"
            if cert.subject_pk != self.pk:
                return "certificate subject mismatch"
        return None


@dataclass(frozen=True)
class SupplyEnergyTx(Declared):
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
    wire = (
        BytesField("p_t_id", DIGEST_LEN),
        U64Field("energy_amount"),
        U64Field("energy_price"),
        FlagField("negotiable"),
        BytesField("pk", PUBLIC_KEY_LEN),
    )

    def rule_fault(self) -> Optional[str]:
        if self.energy_amount <= 0:
            return "non-positive energy amount"
        return None


@dataclass(frozen=True)
class NegotiationMsg(Declared):
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
    wire = (
        BytesField("dest_energy_account_pk", PUBLIC_KEY_LEN),
        U64Field("price"),
        EnumField("status", (0, 1)),
        U64Field("round"),
        BytesField("sender_pk", PUBLIC_KEY_LEN),
    )

    def rule_fault(self) -> Optional[str]:
        if self.round < 1:
            return "bad round"
        return None


@dataclass(frozen=True)
class CTPTx(Declared):
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
    wire = (
        U64Field("time_stamp"),
        U64Field("expiry_time"),
        U64Field("price"),
        BytesField("contract_hash", DIGEST_LEN),
        BytesField("pk", PUBLIC_KEY_LEN),
    )

    def expired(self, now: int) -> bool:
        """The one expiry rule: from tick ``expiry_time`` on, nothing may settle it."""
        return self.expiry_time <= now

    def rule_fault(self) -> Optional[str]:
        if self.expired(self.time_stamp):
            return "expiry not after timestamp"
        if self.price <= 0:
            return "non-positive price"
        return None


@dataclass(frozen=True)
class ERCTx(Declared):
    """Energy receipt confirmation emitted by the consumer's meter.

    Signed with a one-time key whose public half is a leaf of the
    attestation tree committed by ``coe_root``; ``merkle_hashes`` proves the
    leaf, ``coe_vm_sign``/``coe_vm_cert`` carry the verifier meter's
    endorsement of the root. ``check_structure`` checks the proof.
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
    wire = (
        U64Field("time_stamp"),
        BytesField("ctp_id", DIGEST_LEN),
        U64Field("price"),
        AttestationField("coe_root", "coe_vm_sign", "coe_vm_cert"),
        BytesField("coe_pk", PUBLIC_KEY_LEN),
        ObjectField("merkle_hashes", MerkleProof),
        BytesField("pk", PUBLIC_KEY_LEN),
    )


Transaction = Union[GenesisTx, SupplyEnergyTx, NegotiationMsg, CTPTx, ERCTx]

_KIND_BY_TAG = {cls.tag: cls for cls in (GenesisTx, SupplyEnergyTx, NegotiationMsg, CTPTx, ERCTx)}

MINEABLE_TAGS = frozenset({TAG_GENESIS, TAG_SUPPLY, TAG_ERC})


@dataclass(frozen=True)
class ContractTerms(Declared):
    """Terms both parties hash into the contract commitment.

    The nonce blinds the hash: amounts and rates come from a small space,
    so without it the commitment could be brute-forced off the chain.
    """

    energy_amount: int
    unit_price: int
    total_price: int
    nonce: bytes

    tag = _TAG_CONTRACT
    wire = (
        U64Field("energy_amount"),
        U64Field("unit_price"),
        U64Field("total_price"),
        BytesField("nonce", 32),
    )

    def __post_init__(self):
        encode_declared(self)  # refuses any value the contract hash cannot cover


def compute_contract_hash(terms: ContractTerms) -> HashDigest:
    """Digest of the terms; both sides must arrive at the same value."""
    if terms.total_price != terms.energy_amount * terms.unit_price:
        raise ValueError(
            f"total_price {terms.total_price} != "
            f"{terms.energy_amount} * {terms.unit_price}"
        )
    return hash_bytes(encode_declared(terms))


def contract_terms(
    energy_amount: int, unit_price: int, nonce: bytes
) -> Tuple[HashDigest, ContractTerms]:
    """The hash and terms of a contract for ``energy_amount`` kWh at
    ``unit_price`` each, closed by the message whose id is ``nonce``: the one
    rule by which both parties derive the same contract."""
    terms = ContractTerms(energy_amount, unit_price, energy_amount * unit_price, nonce)
    return compute_contract_hash(terms), terms


# ---------------------------------------------------------------------------
# encoding


def _id_of(body: bytes, signature: Signature) -> HashDigest:
    return hash_bytes(body + _lp(_SIGN.encode(signature)))


def encode_canonical(tx: Transaction) -> bytes:
    """Full wire bytes: tag || t_id || remaining fields || signature."""
    body = encode_declared(tx)
    return body[:1] + _lp(_T_ID.encode(tx.t_id)) + body[1:] + _lp(_SIGN.encode(tx.sign))


def signing_digest(tx: Transaction) -> HashDigest:
    """Hash the signature commits to: the encoding without id or signature."""
    return hash_bytes(encode_declared(tx))


def compute_t_id(tx: Transaction) -> HashDigest:
    """Transaction id: hash of the signed encoding (id field excluded)."""
    return _id_of(encode_declared(tx), tx.sign)


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
    cls = _KIND_BY_TAG.get(data[0])
    if cls is None:
        raise DecodeError(f"unknown transaction tag {data[0]}")
    r = _Reader(data, 1)
    values = {"t_id": _T_ID.decode(r.field())}
    for field in cls.wire:
        _decode_into(values, field, r.field())
    values["sign"] = _SIGN.decode(r.field())
    r.done()
    return cls(**values)


# ---------------------------------------------------------------------------
# construction


def _signed(cls, keypair: KeyPair, *body) -> Transaction:
    """A ``cls`` with the given body fields, signed by ``keypair``.

    Raises ValueError for a value its codec or its ``rule_fault`` refuses.
    """
    tx = cls(b"", *body, b"")
    fault = tx.rule_fault()
    if fault is not None:
        raise ValueError(fault)
    tx = replace(tx, sign=sign(keypair, signing_digest(tx)))
    return replace(tx, t_id=compute_t_id(tx))


def make_genesis(method: int, evidence: bytes, keypair: KeyPair) -> GenesisTx:
    return _signed(GenesisTx, keypair, method, evidence, keypair.public)


def make_supply_energy(
    p_t_id: HashDigest, energy_amount: int, energy_price: int, negotiable: bool, keypair: KeyPair
) -> SupplyEnergyTx:
    return _signed(
        SupplyEnergyTx, keypair, p_t_id, energy_amount, energy_price, negotiable, keypair.public
    )


def make_negotiation(
    dest_energy_account_pk: PublicKey, price: int, status: int, round: int, keypair: KeyPair
) -> NegotiationMsg:
    return _signed(
        NegotiationMsg, keypair, dest_energy_account_pk, price, status, round, keypair.public
    )


def make_ctp(
    time_stamp: int, expiry_time: int, price: int, contract_hash: HashDigest, keypair: KeyPair
) -> CTPTx:
    return _signed(CTPTx, keypair, time_stamp, expiry_time, price, contract_hash, keypair.public)


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
    return _signed(
        ERCTx, keypair, time_stamp, ctp_id, price, coe_root, coe_vm_sign, coe_vm_cert,
        coe_pk, merkle_hashes, keypair.public,
    )


# ---------------------------------------------------------------------------
# validation


def check_id(tx: Transaction) -> Tuple[Optional[bytes], Optional[str]]:
    """Whether every field is in its domain and ``t_id`` is the hash of the
    signed encoding; the signature itself is not checked.

    Returns (the unsigned encoding, None), or (None, reason). A matching id
    binds every field and the signature bytes, so a caller can settle what
    depends on the fields alone before it pays for ``check_id_and_signature``.
    Never raises.
    """
    try:
        body = encode_declared(tx)
        if _id_of(body, tx.sign) != _T_ID.encode(tx.t_id):
            return None, "t_id mismatch"
    except Exception as exc:  # a wrong-typed or out-of-range field
        return None, f"malformed: {exc}"
    return body, None


def check_id_and_signature(tx: Transaction) -> Tuple[bool, Optional[str]]:
    """``check_id``, then whether ``sign`` verifies over the unsigned
    encoding, building that encoding once; returns (ok, reason)."""
    body, reason = check_id(tx)
    if body is None:
        return False, reason
    signer = tx.sender_pk if isinstance(tx, NegotiationMsg) else tx.pk
    if not verify(signer, hash_bytes(body), tx.sign):
        return False, "bad signature"
    return True, None


def check_structure(tx: Transaction) -> Tuple[bool, Optional[str]]:
    """Stateless integrity check: id, signature, and field invariants.

    Never consults the ledger and never raises; returns (ok, reason).
    """
    try:
        ok, reason = check_id_and_signature(tx)
        if not ok:
            return False, reason
        reason = tx.rule_fault()
        if reason is not None:
            return False, reason
        if isinstance(tx, ERCTx) and not merkle_verify(tx.coe_root, tx.pk, tx.merkle_hashes):
            return False, "bad inclusion proof"
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
