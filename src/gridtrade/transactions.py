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
covers the hash of the unsigned encoding (tag plus body fields). These two
rules are ``compute_t_id`` and ``signing_digest``; each reads the record's
kept ``unsigned`` encoding.

The layout lives in one place: each message class lists its body fields
(everything between ``t_id`` and ``sign``) in wire order in its ``wire``
attribute, and each field's codec owns that field's value domain (fixed
length, u64 range, allowed enum values). ``Declared.unsigned`` encodes the
declaration, ``Declared.canonical`` frames it with the id and signature,
and ``decode_canonical`` reads it back, so encoding and decoding refuse the
same values. Rules the codecs cannot express (a positive price, a
commitment not ``CTPTx.expired`` at its own time stamp) are each class's
``rule_fault``, shared by ``check_structure`` and the builder ``signed``.

Every signed record is declared the same way and names its signing key in
``signer``: the five transactions, ``ledger.ProducerClaim``,
``arb.JoinMessage`` and ``meter.VerificationRequest``. ``signed`` builds
and ``check_id_and_signature`` checks each one over its ``signed_message``.
A record object is encoded, framed, its id hashed and its signature judged
at most once: each is a cached property of the record (``unsigned``,
``canonical``, ``id_check``, ``verdict``), and ``signed`` leaves the
unsigned bytes it signed on the record it returns, so every miner and
buyer that reads one shared object reads them. ``signed`` leaves no
verdict: a record it signed under a key other than its ``signer`` still
meets the real check. The meter's ``CoE`` is declared too, so routed meter
messages decode through ``decode_canonical``.

The framing lives in ``crypto`` (re-exported here): ``_lp`` writes a
field, ``_Reader`` reads fields and fixed-width values and raises
``DecodeError``. Blocks and chain dumps (``ledger``) and ciphertexts also
frame with ``_lp``; they, Merkle proofs and certificates read via ``_Reader``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from typing import Mapping, Optional, Tuple, Union

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
    """A value in its own ``to_bytes`` form, read back by ``kind.from_bytes``;
    ``to_bytes`` raises ValueError for a value that would not read back."""

    def __init__(self, name: str, kind: type):
        super().__init__(name)
        self.kind = kind

    def encode(self, value) -> bytes:
        if not isinstance(value, self.kind):
            kind = self.kind.__name__
            raise ValueError(f"{self.label} must be {kind}, got {type(value).__name__}")
        return value.to_bytes()

    def parse(self, raw: bytes):
        return self.kind.from_bytes(raw)


class TextField(Field):
    """A ``str``, as its UTF-8 bytes."""

    def encode(self, value: str) -> bytes:
        if not isinstance(value, str):
            raise ValueError(f"{self.label} must be str, got {type(value).__name__}")
        return value.encode()

    def parse(self, raw: bytes) -> str:
        return raw.decode()


class AttestationField(Field):
    """The receipt's attestation: tree root, verifier signature over it and
    the verifier's certificate, concatenated into one field, each part in
    the domain of its own codec."""

    size = DIGEST_LEN + SIGNATURE_LEN + CERTIFICATE_LEN

    def __init__(self, root: str, vm_sign: str, cert: str):
        super().__init__(root, vm_sign, cert)
        self.parts = (
            BytesField(root, DIGEST_LEN),
            BytesField(vm_sign, SIGNATURE_LEN),
            ObjectField(cert, Certificate),
        )

    def encode(self, value: Tuple[HashDigest, Signature, Certificate]) -> bytes:
        return b"".join([part.encode(v) for part, v in zip(self.parts, value)])

    def parse(self, raw: bytes) -> Tuple[HashDigest, Signature, Certificate]:
        cut = DIGEST_LEN + SIGNATURE_LEN
        return raw[:DIGEST_LEN], raw[DIGEST_LEN:cut], Certificate.from_bytes(raw[cut:])


_T_ID = BytesField("t_id", DIGEST_LEN)
_SIGN = BytesField("sign", SIGNATURE_LEN)


class Declared:
    """A record whose byte layout is declared once and bound at class
    creation, so encoding builds no getters or closures per call.

    One frame serves every record: the tag byte, then ``t_id`` if the class
    is made with ``has_id=True``, the ``wire`` fields, then ``sign`` if it
    names the field with its signing key in ``signer``; each field
    length-prefixed. ``canonical`` is the frame and ``decode_canonical``
    reads it; ``unsigned`` is the tag and the ``wire`` fields alone.

    Records are frozen and every value a codec accepts is immutable, so
    what is derived from a record's fields cannot go stale. Each derived
    fact is a cached property, made on first use and kept on the object for
    every later reader: ``unsigned``, ``canonical`` (built from
    ``unsigned``), ``id_check`` and ``verdict``. They are not fields, so
    ``==``, ``hash``, ``repr`` and ``replace`` ignore them, and a
    ``replace``d copy derives its own.
    """

    tag: int
    wire: Tuple[Field, ...]
    has_id: bool = False
    signer: Optional[str] = None

    def __init_subclass__(cls, has_id: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.has_id = has_id
        head = (_T_ID,) if has_id else ()
        tail = (_SIGN,) if cls.signer is not None else ()
        cls._frame = head + cls.wire + tail
        cls._tag_byte = bytes([cls.tag])
        cls._encoders = tuple((field.get, field.encode) for field in cls.wire)

    @cached_property
    def unsigned(self) -> bytes:
        """Tag byte, then every ``wire`` field length-prefixed; raises
        ValueError for a value outside its field's domain."""
        fields = [_lp(encode(get(self))) for get, encode in self._encoders]
        return self._tag_byte + b"".join(fields)

    @cached_property
    def canonical(self) -> bytes:
        """Full wire bytes, the frame: the tag, ``t_id`` if the record has
        one, the ``wire`` fields of ``unsigned``, then ``sign`` if it has a
        signer; raises ValueError for a value outside its field's domain."""
        head = _lp(_T_ID.encode(self.t_id)) if self.has_id else b""
        unsigned = self.unsigned
        tail = _lp(_SIGN.encode(self.sign)) if self.signer is not None else b""
        return unsigned[:1] + head + unsigned[1:] + tail

    @cached_property
    def id_check(self) -> Tuple[Optional[bytes], Optional[str]]:
        """(``unsigned``, None) if the record is signed, every field is in its
        domain, ``sign`` included, and ``t_id``, if it has one, is the id of
        its signed encoding; else (None, reason). The signature itself is not
        checked, but a matching id binds every field and the signature bytes."""
        try:
            body = self.unsigned
            if self.signer is None:
                return None, f"malformed: {type(self).__name__} is not signed"
            if self.has_id and compute_t_id(self) != _T_ID.encode(self.t_id):
                return None, "t_id mismatch"
            _SIGN.encode(self.sign)  # a claim, join or request has no id to encode it
            return body, None
        except Exception as exc:  # a wrong-typed or out-of-range field
            return None, f"malformed: {exc}"

    @cached_property
    def verdict(self) -> Tuple[bool, Optional[str]]:
        """(ok, reason): ``id_check``, then whether ``sign`` verifies under the
        record's ``signer`` over its ``signed_message``."""
        body, reason = self.id_check
        if body is None:
            return False, reason
        # ``id_check`` lets only ``bytes`` reach ``verify``, so the verdict cannot go stale
        if not verify(getattr(self, self.signer), signed_message(self), self.sign):
            return False, "bad signature"
        return True, None

    def rule_fault(self) -> Optional[str]:
        """Why the values break a rule the field codecs do not cover, or None."""
        return None


@dataclass(frozen=True)
class GenesisTx(Declared, has_id=True):
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
    signer = "pk"
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
class SupplyEnergyTx(Declared, has_id=True):
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
    signer = "pk"
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
class NegotiationMsg(Declared, has_id=True):
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
    signer = "sender_pk"
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
class CTPTx(Declared, has_id=True):
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
    signer = "pk"
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
class ERCTx(Declared, has_id=True):
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
    signer = "pk"
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

# the tag table ``decode_canonical`` reads by default
KIND_BY_TAG = {cls.tag: cls for cls in (GenesisTx, SupplyEnergyTx, NegotiationMsg, CTPTx, ERCTx)}

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
        self.unsigned  # refuses any value the contract hash cannot cover


def compute_contract_hash(terms: ContractTerms) -> HashDigest:
    """Digest of the terms; both sides must arrive at the same value."""
    if terms.total_price != terms.energy_amount * terms.unit_price:
        raise ValueError(
            f"total_price {terms.total_price} != "
            f"{terms.energy_amount} * {terms.unit_price}"
        )
    return hash_bytes(terms.unsigned)


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


def encode_canonical(record: Declared) -> bytes:
    """Full wire bytes: the record's frame, ``record.canonical``."""
    return record.canonical


def signed_message(record: Declared) -> bytes:
    """What ``record``'s signature covers: a transaction's ``signing_digest``,
    as the chain keeps it; else its ``unsigned`` bytes, which hold the
    ``signer`` key, so are never 32 bytes long like the raw pool root a
    meter's identity key signs, and no endorsement passes for a record."""
    return signing_digest(record) if record.has_id else record.unsigned


def signing_digest(record: Declared) -> HashDigest:
    """Hash a transaction's signature covers: of its ``unsigned`` bytes."""
    return hash_bytes(record.unsigned)


def compute_t_id(tx: Transaction, signature: Optional[Signature] = None) -> HashDigest:
    """The one id rule: the hash of the signed encoding (id field excluded),
    that is of ``unsigned``, then ``sign``, ``signature`` if given."""
    signature = tx.sign if signature is None else signature
    return hash_bytes(tx.unsigned + _lp(_SIGN.encode(signature)))


def decode_canonical(data: bytes, kinds: Mapping[int, type] = KIND_BY_TAG) -> Declared:
    """Parse ``encode_canonical`` bytes back into the record of the kind
    ``kinds`` maps their tag to, a transaction by default; raises DecodeError."""
    if not data:
        raise DecodeError("empty buffer")
    cls = kinds.get(data[0])
    if cls is None:
        raise DecodeError(f"unknown tag {data[0]}")
    r = _Reader(data, 1)
    values = {}
    for field in cls._frame:
        value = field.decode(r.field())
        if len(field.names) == 1:
            values[field.names[0]] = value
        else:
            values.update(zip(field.names, value))
    r.done()
    return cls(**values)


# ---------------------------------------------------------------------------
# construction


def signed(record: Declared, keypair: KeyPair) -> Declared:
    """``record`` signed by ``keypair``, with its id if it has one: the one
    builder of a signed record. ``record`` holds every other field.

    The record is encoded once, for both its signature and its id, and
    built once, with ``sign`` and ``t_id`` in one ``replace``.

    Raises ValueError for a value its codec or its ``rule_fault`` refuses.
    """
    fault = record.rule_fault()
    if fault is not None:
        raise ValueError(fault)
    signature = sign(keypair, signed_message(record))
    ids = {"t_id": compute_t_id(record, signature)} if record.has_id else {}
    built = replace(record, sign=signature, **ids)
    vars(built)["unsigned"] = record.unsigned  # neither ``sign`` nor ``t_id``, so made once
    return built


def make_genesis(method: int, evidence: bytes, keypair: KeyPair) -> GenesisTx:
    return signed(GenesisTx(b"", method, evidence, keypair.public, b""), keypair)


def make_supply_energy(
    p_t_id: HashDigest, energy_amount: int, energy_price: int, negotiable: bool, keypair: KeyPair
) -> SupplyEnergyTx:
    tx = SupplyEnergyTx(b"", p_t_id, energy_amount, energy_price, negotiable, keypair.public, b"")
    return signed(tx, keypair)


def make_negotiation(
    dest_energy_account_pk: PublicKey, price: int, status: int, round: int, keypair: KeyPair
) -> NegotiationMsg:
    msg = NegotiationMsg(b"", dest_energy_account_pk, price, status, round, keypair.public, b"")
    return signed(msg, keypair)


def make_ctp(
    time_stamp: int, expiry_time: int, price: int, contract_hash: HashDigest, keypair: KeyPair
) -> CTPTx:
    ctp = CTPTx(b"", time_stamp, expiry_time, price, contract_hash, keypair.public, b"")
    return signed(ctp, keypair)


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
    erc = ERCTx(
        b"", time_stamp, ctp_id, price, coe_root, coe_vm_sign, coe_vm_cert, coe_pk,
        merkle_hashes, keypair.public, b"",
    )
    return signed(erc, keypair)


# ---------------------------------------------------------------------------
# validation


def check_id(record: Declared) -> Tuple[Optional[bytes], Optional[str]]:
    """``record.id_check``, for any value; never raises. A caller can settle
    what depends on the fields alone before it pays for the signature."""
    if not isinstance(record, Declared):
        return None, f"malformed: {type(record).__name__} is not a record"
    return record.id_check


def check_id_and_signature(record: Declared) -> Tuple[bool, Optional[str]]:
    """The one check of a signed record, ``record.verdict``, for any value;
    returns (ok, reason) and never raises."""
    if not isinstance(record, Declared):
        return False, check_id(record)[1]
    return record.verdict


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
