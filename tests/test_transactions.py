"""Wire messages: construction, canonical encoding, structural validation."""

from dataclasses import fields, replace
from random import Random

import pytest

from gridtrade.arb import JoinMessage
from gridtrade.crypto import (
    DIGEST_LEN,
    PUBLIC_KEY_LEN,
    AsymCiphertext,
    KeyPair,
    MerkleProof,
    hash_bytes,
    issue_certificate,
    merkle_build,
    merkle_prove,
)
from gridtrade.ledger import ProducerClaim
from gridtrade.meter import CoE, VerificationRequest
from gridtrade.transactions import (
    CTPTx,
    ContractTerms,
    DecodeError,
    ERCTx,
    GENESIS_CERTIFICATE,
    GENESIS_COIN_BURN,
    GenesisTx,
    NegotiationMsg,
    SupplyEnergyTx,
    TAG_GENESIS,
    TAG_NEGOTIATION,
    check_id,
    check_id_and_signature,
    check_structure,
    compute_contract_hash,
    compute_t_id,
    decode_canonical,
    encode_canonical,
    make_ctp,
    make_erc,
    make_genesis,
    make_negotiation,
    make_supply_energy,
    signed,
    signing_digest,
)

RNG = Random(0xACE)
KEYS = [KeyPair.generate(RNG) for _ in range(4)]


def sample_txs(rng: Random, keypair: KeyPair):
    """One random instance of each message kind."""
    ca = KEYS[3]
    cert = issue_certificate(ca, keypair.public)
    genesis = make_genesis(GENESIS_CERTIFICATE, cert.to_bytes(), keypair)
    supply = make_supply_energy(
        hash_bytes(rng.randbytes(8)),
        rng.randrange(1, 1000),
        rng.randrange(0, 100),
        rng.random() < 0.5,
        keypair,
    )
    negotiation = make_negotiation(
        KEYS[1].public,
        rng.randrange(0, 500),
        rng.randrange(0, 2),
        rng.randrange(1, 9),
        keypair,
    )
    ts = rng.randrange(0, 1000)
    ctp = make_ctp(ts, ts + rng.randrange(1, 500), rng.randrange(1, 10_000),
                   hash_bytes(rng.randbytes(8)), keypair)
    pool = [KeyPair.generate(rng) for _ in range(4)]
    tree = merkle_build([p.public for p in pool])
    vm = KEYS[2]
    from gridtrade.crypto import sign as crypto_sign

    erc = make_erc(
        time_stamp=ts,
        ctp_id=ctp.t_id,
        price=ctp.price,
        coe_root=tree.root,
        coe_vm_sign=crypto_sign(vm, tree.root),
        coe_vm_cert=issue_certificate(ca, vm.public),
        coe_pk=vm.public,
        merkle_hashes=merkle_prove(tree, 1),
        keypair=pool[1],
    )
    return [genesis, supply, negotiation, ctp, erc]


# a receipt with one part of its attestation or proof outside that part's domain
RECEIPT_OUT_OF_DOMAIN = {
    "cert-as-bytes": lambda erc: replace(erc, coe_vm_cert=erc.coe_vm_cert.to_bytes()),
    "none-root": lambda erc: replace(erc, coe_root=None),
    "int-vm-sign": lambda erc: replace(erc, coe_vm_sign=7),
    "cert-none-subject": lambda erc: replace(
        erc, coe_vm_cert=replace(erc.coe_vm_cert, subject_pk=None)
    ),
    # decoding refuses a certificate that is not 192 bytes, so encoding does too
    "cert-short-signature": lambda erc: replace(
        erc, coe_vm_cert=replace(erc.coe_vm_cert, signature=bytes(63))
    ),
    "proof-str-side": lambda erc: replace(
        erc, merkle_hashes=MerkleProof(0, ((erc.merkle_hashes.siblings[0][0], "1"),))
    ),
    "proof-none-digest": lambda erc: replace(erc, merkle_hashes=MerkleProof(0, ((None, 1),))),
}


def _judged_alike(record):
    """``check_structure``'s verdict on ``record``, asserting that the same
    object checked again, a fresh ``replace`` copy and a fresh decode of its
    bytes get it too: each record object keeps what its first check found."""
    verdict = check_structure(record)
    assert check_structure(record) == verdict
    assert check_structure(replace(record)) == verdict
    assert check_structure(decode_canonical(encode_canonical(record))) == verdict
    assert check_id(record) == check_id(replace(record))
    return verdict


def _accepted(raw: bytes) -> bool:
    """Whether ``raw`` decodes to a transaction that ``check_structure`` accepts."""
    try:
        tx = decode_canonical(raw)
    except DecodeError:
        return False
    return _judged_alike(tx)[0]


class TestEncoding:
    def test_roundtrip_all_kinds(self):
        rng = Random(1)
        for trial in range(100):
            for tx in sample_txs(rng, KEYS[trial % 2]):
                assert decode_canonical(encode_canonical(tx)) == tx

    def test_injective_over_corpus(self):
        rng = Random(2)
        corpus = []
        for _ in range(40):
            corpus.extend(sample_txs(rng, KEYS[0]))
        distinct_txs = set(corpus)
        encodings = {encode_canonical(tx) for tx in corpus}
        assert len(encodings) == len(distinct_txs)

    def test_expiry_alone_changes_encoding(self):
        a = make_ctp(10, 110, 60, hash_bytes(b"c"), KEYS[0])
        b = make_ctp(10, 111, 60, hash_bytes(b"c"), KEYS[0])
        assert encode_canonical(a) != encode_canonical(b)

    def test_stable_across_runs_same_seed(self):
        def build(seed):
            rng = Random(seed)
            kp = KeyPair.generate(rng)
            return encode_canonical(
                make_ctp(5, 50, rng.randrange(1, 100), hash_bytes(rng.randbytes(4)), kp)
            )

        assert build(77) == build(77)

    def test_decode_garbage(self):
        with pytest.raises(DecodeError):
            decode_canonical(b"")
        with pytest.raises(DecodeError):
            decode_canonical(b"\xff" + b"\x00" * 40)
        good = encode_canonical(make_ctp(1, 2, 3, hash_bytes(b"x"), KEYS[0]))
        with pytest.raises(DecodeError):
            decode_canonical(good[:-1])
        with pytest.raises(DecodeError):
            decode_canonical(good + b"\x00")


class TestConstruction:
    def test_ctp_expiry_must_exceed_timestamp(self):
        make_ctp(10, 110, 60, hash_bytes(b"c"), KEYS[0])
        with pytest.raises(ValueError):
            make_ctp(10, 10, 60, hash_bytes(b"c"), KEYS[0])
        with pytest.raises(ValueError):
            make_ctp(10, 9, 60, hash_bytes(b"c"), KEYS[0])

    def test_negotiation_field_domains(self):
        with pytest.raises(ValueError):
            make_negotiation(KEYS[1].public, 5, 2, 1, KEYS[0])
        with pytest.raises(ValueError):
            make_negotiation(KEYS[1].public, 5, 0, 0, KEYS[0])

    def test_supply_amount_positive(self):
        with pytest.raises(ValueError):
            make_supply_energy(hash_bytes(b"p"), 0, 5, True, KEYS[0])

    def test_genesis_burn_evidence_shape(self):
        make_genesis(GENESIS_COIN_BURN, (500).to_bytes(8, "big"), KEYS[0])
        with pytest.raises(ValueError):
            make_genesis(GENESIS_COIN_BURN, b"xx", KEYS[0])

    def test_genesis_method_domain(self):
        with pytest.raises(ValueError):
            make_genesis(7, (500).to_bytes(8, "big"), KEYS[0])


def _lp(value: bytes) -> bytes:
    return len(value).to_bytes(4, "big") + value


def _signed_by_hand(cls, tag: int, wire_fields, keypair: KeyPair, **values):
    """A ``cls`` whose id and signature are right for the given raw field
    bytes, built without the library's encoder (which would refuse them)."""
    from gridtrade.crypto import sign as crypto_sign

    body = bytes([tag]) + b"".join(_lp(f) for f in wire_fields)
    signature = crypto_sign(keypair, hash_bytes(body))
    t_id = hash_bytes(body + _lp(signature))
    return cls(t_id=t_id, sign=signature, **values)


class TestDomainRules:
    """Encoding, and so check_structure, refuses what decoding refuses; the
    builders' refusals are in TestConstruction."""

    def test_genesis_method_seven_rejected(self):
        evidence = (500).to_bytes(8, "big")
        tx = _signed_by_hand(
            GenesisTx, TAG_GENESIS, [bytes([7]), evidence, KEYS[0].public], KEYS[0],
            method=7, evidence=evidence, pk=KEYS[0].public,
        )
        ok, reason = check_structure(tx)
        assert not ok and reason.startswith("malformed:"), reason

    def test_negotiation_status_two_rejected(self):
        dest = KEYS[1].public
        wire = [dest, (5).to_bytes(8, "big"), bytes([2]), (1).to_bytes(8, "big"), KEYS[0].public]
        msg = _signed_by_hand(
            NegotiationMsg, TAG_NEGOTIATION, wire, KEYS[0],
            dest_energy_account_pk=dest, price=5, status=2, round=1, sender_pk=KEYS[0].public,
        )
        ok, reason = check_structure(msg)
        assert not ok and reason.startswith("malformed:"), reason

    def test_hand_signing_matches_library_for_valid_values(self):
        # the helper above encodes as the library does, so only the domain
        # rule can be what rejects the two messages
        dest = KEYS[1].public
        wire = [dest, (5).to_bytes(8, "big"), bytes([1]), (1).to_bytes(8, "big"), KEYS[0].public]
        msg = _signed_by_hand(
            NegotiationMsg, TAG_NEGOTIATION, wire, KEYS[0],
            dest_energy_account_pk=dest, price=5, status=1, round=1, sender_pk=KEYS[0].public,
        )
        assert msg == make_negotiation(dest, 5, 1, 1, KEYS[0])
        assert check_structure(msg) == (True, None)


    @pytest.mark.parametrize(
        "price", [1.5, "60", None, True, False], ids=["float", "str", "none", "true", "false"]
    )
    def test_u64_field_refuses_what_is_not_an_int(self, price):
        # a bool would encode as 0 or 1, and the others raised AttributeError
        # or TypeError instead of the ValueError every field raises
        ctp = replace(make_ctp(10, 110, 60, hash_bytes(b"c"), KEYS[0]), price=price)
        with pytest.raises(ValueError, match="must be an int"):
            encode_canonical(ctp)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("status", 1.0),
            ("status", True),
            ("status", None),
            ("method", True),
            ("negotiable", 1),
            ("negotiable", 0),
            ("negotiable", 1.0),
        ],
        ids=repr,
    )
    def test_one_byte_field_refuses_a_value_of_another_type(self, name, value):
        # True encoded as 1 and passed check_structure, and 1.0 raised
        # TypeError instead of the ValueError every field raises
        if name == "status":
            tx = make_negotiation(KEYS[1].public, 5, 1, 1, KEYS[0])
        elif name == "method":
            cert = issue_certificate(KEYS[3], KEYS[0].public)
            tx = make_genesis(GENESIS_CERTIFICATE, cert.to_bytes(), KEYS[0])
        else:
            tx = make_supply_energy(hash_bytes(b"p"), 10, 5, True, KEYS[0])
        tx = replace(tx, **{name: value})
        with pytest.raises(ValueError, match=f"{name} must be"):
            encode_canonical(tx)
        assert check_structure(tx)[0] is False

    @pytest.mark.parametrize("value", [None, 7, b"proof", [b"hash"]], ids=repr)
    def test_object_field_refuses_a_value_of_another_kind(self, value):
        # ``value.to_bytes()`` raised AttributeError instead of the ValueError
        # every field raises
        erc = replace(sample_txs(Random(8), KEYS[0])[-1], merkle_hashes=value)
        with pytest.raises(ValueError, match="merkle_hashes must be MerkleProof"):
            encode_canonical(erc)
        assert check_structure(erc)[0] is False

    @pytest.mark.parametrize("name", RECEIPT_OUT_OF_DOMAIN)
    def test_receipt_part_outside_its_domain(self, name):
        # all but the short signature raised AttributeError or TypeError
        # instead of the ValueError every field raises
        erc = RECEIPT_OUT_OF_DOMAIN[name](sample_txs(Random(8), KEYS[0])[-1])
        with pytest.raises(ValueError):
            encode_canonical(erc)
        ok, reason = check_structure(erc)
        assert not ok and reason.startswith("malformed: "), reason


# every declared record kind in the package
DECLARED = [
    GenesisTx, SupplyEnergyTx, NegotiationMsg, CTPTx, ERCTx, ContractTerms,
    ProducerClaim, JoinMessage, CoE, VerificationRequest,
]


class TestWireDeclaration:
    @pytest.mark.parametrize("cls", [GenesisTx, SupplyEnergyTx, NegotiationMsg, CTPTx, ERCTx])
    def test_declaration_names_the_fields_between_id_and_signature(self, cls):
        declared = [name for field in cls.wire for name in field.names]
        names = [f.name for f in fields(cls)]
        assert names[0] == "t_id" and names[-1] == "sign"
        assert declared == names[1:-1]

    @pytest.mark.parametrize("cls", DECLARED, ids=lambda cls: cls.__name__)
    def test_frame_holds_every_field_in_order(self, cls):
        # the id heads the frame of a record with one, and the signature ends
        # the frame of a signed record
        frame = cls._frame
        assert (frame[0].names == ("t_id",)) == cls.has_id
        assert (frame[-1].names == ("sign",)) == (cls.signer is not None)
        assert [name for field in frame for name in field.names] == [f.name for f in fields(cls)]

    @pytest.mark.parametrize(
        "cls", [cls for cls in DECLARED if cls.signer and not cls.has_id], ids=lambda cls: cls.__name__
    )
    def test_a_record_signed_unhashed_is_longer_than_a_digest(self, cls):
        # so no such signature passes for a verifier meter's over a raw root
        (key,) = [field for field in cls.wire if field.names == (cls.signer,)]
        assert key.size == PUBLIC_KEY_LEN > DIGEST_LEN


class TestCheckId:
    """``check_id`` is the id half of ``check_id_and_signature``: it refuses
    what that refuses before the signature check, and never raises."""

    def test_returns_the_unsigned_encoding_of_every_kind(self):
        for tx in sample_txs(Random(6), KEYS[0]):
            body, reason = check_id(tx)
            assert reason is None and hash_bytes(body) == signing_digest(tx)
            assert check_id_and_signature(tx) == (True, None)

    def test_a_forged_signature_passes_only_the_id_half(self):
        ctp = make_ctp(10, 110, 60, hash_bytes(b"c"), KEYS[0])
        forged = replace(ctp, sign=bytes([ctp.sign[0] ^ 1]) + ctp.sign[1:])
        forged = replace(forged, t_id=compute_t_id(forged))
        assert check_id(forged)[0] is not None
        assert check_id_and_signature(forged) == (False, "bad signature")

    @pytest.mark.parametrize(
        "changes",
        [
            {"price": 61},
            {"t_id": None},
            {"t_id": b"short"},
            {"sign": None},
            {"price": "60"},
            {"price": -1},
            {"contract_hash": bytearray(32)},
            {"pk": memoryview(bytes(32))},
        ],
        ids=["tampered", "none-id", "short-id", "none-sign", "str-price", "negative-price",
             "bytearray-hash", "memoryview-pk"],
    )
    def test_refuses_without_raising(self, changes):
        tx = replace(make_ctp(10, 110, 60, hash_bytes(b"c"), KEYS[0]), **changes)
        body, reason = check_id(tx)
        assert body is None and reason is not None
        assert check_id_and_signature(tx) == (False, reason)

    def test_refuses_what_is_not_a_transaction(self):
        for value in (None, 7, b"bytes", ContractTerms(1, 1, 1, bytes(32))):
            body, reason = check_id(value)
            assert body is None and reason.startswith("malformed:")


def signed_records():
    """One signed record of each kind: the five transactions, then a claim,
    a join and a verification request, which have no id."""
    key, ca = KEYS[0], KEYS[3]
    unsigned = [
        ProducerClaim(hash_bytes(b"ctp"), hash_bytes(b"c"), key.public, 10, b""),
        JoinMessage(key.public, "node-0", b""),
        VerificationRequest(
            AsymCiphertext(KEYS[1].public, bytes(60)), key.public,
            issue_certificate(ca, key.public), b"",
        ),
    ]
    return [*sample_txs(Random(9), key), *(signed(record, key) for record in unsigned)]


SIGNED_RECORDS = signed_records()


@pytest.mark.parametrize("record", SIGNED_RECORDS, ids=lambda r: type(r).__name__)
@pytest.mark.parametrize(
    "value",
    [None, "s" * 64, [0] * 64, b"\x00" * 63, "bytearray"],
    ids=["none", "str", "list", "63-bytes", "bytearray"],
)
def test_check_id_refuses_a_signature_outside_its_domain(record, value):
    # a claim, join or request has no id to encode its ``sign``: one of these
    # was refused only as "bad signature", and a bytearray passed ``check_id``
    assert check_id_and_signature(record) == (True, None)
    if value == "bytearray":
        value = bytearray(record.sign)
    bad = replace(record, sign=value)
    body, reason = check_id(bad)
    assert body is None and reason.startswith("malformed: sign must be "), reason
    assert check_id_and_signature(bad) == (False, reason)


class TestCheckedOnce:
    """A record object keeps its bytes, id check and verdict, and no copy,
    decode or differently signed record inherits them."""

    def test_a_record_signed_under_a_key_it_does_not_name_is_refused(self):
        # ``signed`` must leave no verdict: the key it signs under is not the signer
        unsigned = [
            CTPTx(b"", 10, 110, 60, hash_bytes(b"c"), KEYS[0].public, b""),
            ProducerClaim(hash_bytes(b"ctp"), hash_bytes(b"c"), KEYS[0].public, 10, b""),
            JoinMessage(KEYS[0].public, "node-0", b""),
        ]
        for record in unsigned:
            forged = signed(record, KEYS[1])
            assert check_id(forged)[1] is None
            assert check_id_and_signature(forged) == (False, "bad signature")
            assert check_id_and_signature(forged) == (False, "bad signature")
            assert check_id_and_signature(signed(record, KEYS[0])) == (True, None)

    def test_a_tampered_copy_of_a_checked_record_gets_its_own_verdict(self):
        ctp = make_ctp(10, 110, 60, hash_bytes(b"c"), KEYS[0])
        assert check_id_and_signature(ctp) == (True, None)
        tampered = replace(ctp, price=61)
        assert check_id(tampered) == (None, "t_id mismatch")
        assert check_id_and_signature(tampered) == (False, "t_id mismatch")
        forged = replace(ctp, sign=bytes([ctp.sign[0] ^ 1]) + ctp.sign[1:])
        forged = replace(forged, t_id=compute_t_id(forged))
        assert check_id_and_signature(forged) == (False, "bad signature")
        # and a refused record's copy with the fields put back passes again
        assert check_id_and_signature(replace(tampered, price=60)) == (True, None)
        assert check_id_and_signature(ctp) == (True, None)

    def test_a_signature_held_in_a_bytearray_is_refused(self):
        # ``verify`` takes a bytearray, so a kept verdict could outlive a change
        # to its bytes; ``check_id`` refuses it, and the refusal holds for any bytes.
        # It passed, and was checked afresh each time, while no id encoded a
        # claim's signature and nothing else checked its domain
        claim = signed(
            ProducerClaim(hash_bytes(b"ctp"), hash_bytes(b"c"), KEYS[0].public, 10, b""), KEYS[0]
        )
        held = replace(claim, sign=bytearray(claim.sign))
        refused = (False, "malformed: sign must be bytes, got bytearray")
        assert check_id_and_signature(held) == refused
        held.sign[0] ^= 1
        assert check_id_and_signature(held) == refused
        assert check_id_and_signature(claim) == (True, None)

    def test_a_record_that_is_not_signed_is_refused_each_time(self):
        terms = ContractTerms(1, 1, 1, bytes(32))
        for _ in range(2):
            verdict = check_id_and_signature(terms)
            assert verdict == (False, "malformed: ContractTerms is not signed")


class TestCheckStructure:
    def test_fresh_transactions_pass(self):
        rng = Random(3)
        for tx in sample_txs(rng, KEYS[0]):
            ok, reason = check_structure(tx)
            assert ok, reason

    def test_supply_price_tamper_detected(self):
        from dataclasses import replace

        supply = make_supply_energy(hash_bytes(b"p"), 10, 5, True, KEYS[0])
        tampered = replace(supply, energy_price=6)
        ok, reason = check_structure(tampered)
        assert not ok and reason == "t_id mismatch"

    def test_erc_bad_inclusion_proof(self):
        # signed consistently, but the proof covers a different leaf
        rng = Random(4)
        from gridtrade.crypto import sign as crypto_sign

        ca, vm = KEYS[3], KEYS[2]
        pool = [KeyPair.generate(rng) for _ in range(4)]
        tree = merkle_build([p.public for p in pool])
        erc = make_erc(
            time_stamp=5,
            ctp_id=hash_bytes(b"ctp"),
            price=60,
            coe_root=tree.root,
            coe_vm_sign=crypto_sign(vm, tree.root),
            coe_vm_cert=issue_certificate(ca, vm.public),
            coe_pk=vm.public,
            merkle_hashes=merkle_prove(tree, 0),  # wrong leaf for pool[1]
            keypair=pool[1],
        )
        ok, reason = check_structure(erc)
        assert not ok and reason == "bad inclusion proof"

    def test_negotiation_status_two_decodes_as_invalid(self):
        msg = make_negotiation(KEYS[1].public, 5, 1, 1, KEYS[0])
        raw = bytearray(encode_canonical(msg))
        assert raw[0] == TAG_NEGOTIATION
        # status is the third length-prefixed field after t_id and dest pk
        offset = 1 + (4 + 32) + (4 + 64) + (4 + 8) + 4
        assert raw[offset] == 1
        raw[offset] = 2
        with pytest.raises(DecodeError):
            decode_canonical(bytes(raw))

    def test_single_bit_mutations_rejected(self):
        # every bit of a signed commitment and supply posting
        for tx in (
            make_ctp(10, 110, 60, hash_bytes(b"c"), KEYS[0]),
            make_supply_energy(hash_bytes(b"p"), 10, 5, True, KEYS[0]),
        ):
            raw = encode_canonical(tx)
            for bit in range(len(raw) * 8):
                mutated = bytearray(raw)
                mutated[bit // 8] ^= 1 << (bit % 8)
                assert not _accepted(bytes(mutated)), f"bit {bit} accepted"

    def test_single_bit_mutations_rejected_erc_sampled(self):
        rng = Random(5)
        erc = sample_txs(rng, KEYS[0])[4]
        raw = encode_canonical(erc)
        for bit in range(0, len(raw) * 8, 7):
            mutated = bytearray(raw)
            mutated[bit // 8] ^= 1 << (bit % 8)
            assert not _accepted(bytes(mutated)), f"bit {bit} accepted"


class TestGoldenVectors:
    """Frozen hex dumps guard the wire format against accidental change."""

    CTP_GOLDEN = (
        "0400000020af7622f8ca39b7b6de3e1c869133dae4a1c189ae489d2c3a0748ea58c153ee52"
        "00000008000000000000000a00000008000000000000006e00000008000000000000003c"
        "000000202133237aa7d4c9fa096168d633c08d0e375a309df5858e153a13e5192e701eb0"
        "0000004003a107bff3ce10be1d70dd18e74bc09967e4d6309ba50d5f1ddc8664125531b8"
        "0dd8b4d9f549e18cde974086b36d057f8aa4434b5b197c0f7a81d9e1d1575c7600000040"
        "d8bf64d7d3ef75d0dc31fab28f27e1889436ba954a53117cee3afdbeac6b57d314d0f0cf"
        "8ee6eddecdaf902ed6f2327d4f7a940b0984b8d57bfefecbf421a409"
    )
    SUPPLY_GOLDEN = (
        "020000002005c0447f72db3ab529b2c9affdad6e86b3cd5de5b08e51644cbae45acba0b2b9"
        "00000020ff817c9853ae8273babe7e34af59b745fa47b69750136d6baae205e4c4f4f0b4"
        "00000008000000000000000a0000000800000000000000050000000101"
        "0000004003a107bff3ce10be1d70dd18e74bc09967e4d6309ba50d5f1ddc8664125531b8"
        "0dd8b4d9f549e18cde974086b36d057f8aa4434b5b197c0f7a81d9e1d1575c7600000040"
        "56524dcbffe3f97b501fa6fd0d98a303a9672be6ae71a84c9da7df82d91266b6dd11be64"
        "6d686fa93b21506744f316d6e0a7899e62fbb3ccf553d4a0d75dfb0a"
    )

    GENESIS_GOLDEN = (
        "0100000020e4a0fc419536502d61258fb711b10e4902e553f746fbf0ecc3b16709c81f60"
        "bc00000001000000000800000000000001f40000004003a107bff3ce10be1d70dd18e74b"
        "c09967e4d6309ba50d5f1ddc8664125531b80dd8b4d9f549e18cde974086b36d057f8aa4"
        "434b5b197c0f7a81d9e1d1575c76000000408b837fc19c470964be1141f4db140cd5b4cf"
        "d626a0a11bf48827530b70f7ebe8325c6fcc4777c0b19c84296eda9a5b150d32c0c3ef6d"
        "9a2f0aee24577370e30f"
    )
    NEGOTIATION_GOLDEN = (
        "03000000202b88152c6a8df74e98a5713a90741979c8513563fac7846c849cd7293e6e8e"
        "4b0000004079b5562e8fe654f94078b112e8a98ba7901f853ae695bed7e0e3910bad0496"
        "648a773593143348aae6b26b68836ec24afe575186690694e493a81bfce4d1b519000000"
        "08000000000000002a00000001000000000800000000000000030000004003a107bff3ce"
        "10be1d70dd18e74bc09967e4d6309ba50d5f1ddc8664125531b80dd8b4d9f549e18cde97"
        "4086b36d057f8aa4434b5b197c0f7a81d9e1d1575c76000000409c47e0b2698416456143"
        "0dc28684f83810b93329b9ea4b79798f73d38c4c85ff7ee65d81fc86d3be07077983824c"
        "0daa3764c0cedfcb1fa13b83f78e50c93102"
    )
    ERC_GOLDEN = (
        "05000000209720eedb4b2b722e7f83be54cc601e013834ae1ad434f8b50c3eb29da89dad"
        "3a00000008000000000000000a0000002006d590507964f919536fd141bc0c1c8bdea208"
        "a28154f2ec2e705ab68478438700000008000000000000003c000001206118ec84e36f7e"
        "94ffb23bc4c6d8b68a287cd7290689cae112d29dbe320adcc18412b70fb289f51ab6b7ad"
        "571f8a121fb5719b776bee8061e8fe4c608d18ce3a5ad26a8c2f35e7493bc98066eb8ed4"
        "0dba62a3677632d0cfab74efa5519c5f03481ede772da15785c9e59a086201b8c3f9c307"
        "129e3fc6d7f34aa4dfed5814e5166802dfae883beb486b504f1699e631b2b9aa818037f8"
        "09b62458c4029a0c0a43cdc023d22d5f9e107d1a0693457d35d1d10eb7d21c721192f56f"
        "5de40665d3cdf0d42285a15ca9a1f5d41a638e59e705479ee75e155ecc42a0481437298a"
        "6d3e670679359e558d40edd5ef7c792e9793ae198bbc1d21d4b5c768639dcbc74edee08f"
        "2e93fd2ceb9fe29fae7ac6186e05f58fc6f1aac44edd27b1dabb5d470d00000040481ede"
        "772da15785c9e59a086201b8c3f9c307129e3fc6d7f34aa4dfed5814e5166802dfae883b"
        "eb486b504f1699e631b2b9aa818037f809b62458c4029a0c0a00000047000000010200f1"
        "883ec62710855a46b2c37d8be3f81170360e6af7bb793b235276538841f5c20146691cab"
        "9911b21868bac20c726c72786cb44e8b87707053c686b69d04e8f5b3000000408a88e3dd"
        "7409f195fd52db2d3cba5d72ca6709bf1d94121bf3748801b40f6f5c09ca05383287c5ae"
        "08b7085f2f679137bc6c009b4d11bd481de7a3505dd5cf6200000040e4cb987f9c211761"
        "f9d50f53b6518abc40d654dd668214fee87bb413a11b3be8c5cb9323a33c5a9f891dd916"
        "694af7c87225941d07e3c271380f1259ab8f130f"
    )

    @staticmethod
    def _golden_erc():
        from gridtrade.crypto import sign as crypto_sign

        kp_ca = KeyPair.from_seed(bytes(range(2, 34)))
        vm = KeyPair.from_seed(bytes(range(3, 35)))
        pool = [KeyPair.from_seed(bytes([i]) * 32) for i in range(4)]
        tree = merkle_build([p.public for p in pool])
        return make_erc(
            time_stamp=10,
            ctp_id=hash_bytes(b"golden-ctp"),
            price=60,
            coe_root=tree.root,
            coe_vm_sign=crypto_sign(vm, tree.root),
            coe_vm_cert=issue_certificate(kp_ca, vm.public),
            coe_pk=vm.public,
            merkle_hashes=merkle_prove(tree, 1),
            keypair=pool[1],
        )

    def test_genesis_golden(self):
        kp = KeyPair.from_seed(bytes(range(32)))
        genesis = make_genesis(GENESIS_COIN_BURN, (500).to_bytes(8, "big"), kp)
        assert encode_canonical(genesis).hex() == self.GENESIS_GOLDEN
        assert decode_canonical(bytes.fromhex(self.GENESIS_GOLDEN)) == genesis
        assert _judged_alike(genesis) == (True, None)

    def test_negotiation_golden(self):
        kp = KeyPair.from_seed(bytes(range(32)))
        dest = KeyPair.from_seed(bytes(range(1, 33))).public
        msg = make_negotiation(dest, 42, 0, 3, kp)
        assert encode_canonical(msg).hex() == self.NEGOTIATION_GOLDEN
        assert decode_canonical(bytes.fromhex(self.NEGOTIATION_GOLDEN)) == msg
        assert _judged_alike(msg) == (True, None)

    def test_erc_golden(self):
        erc = self._golden_erc()
        assert encode_canonical(erc).hex() == self.ERC_GOLDEN
        assert decode_canonical(bytes.fromhex(self.ERC_GOLDEN)) == erc
        assert _judged_alike(erc) == (True, None)

    def test_ctp_golden(self):
        kp = KeyPair.from_seed(bytes(range(32)))
        ctp = make_ctp(10, 110, 60, hash_bytes(b"golden-contract"), kp)
        assert encode_canonical(ctp).hex() == self.CTP_GOLDEN
        assert decode_canonical(bytes.fromhex(self.CTP_GOLDEN)) == ctp
        assert _judged_alike(ctp) == (True, None)

    def test_supply_golden(self):
        kp = KeyPair.from_seed(bytes(range(32)))
        supply = make_supply_energy(hash_bytes(b"golden-parent"), 10, 5, True, kp)
        assert encode_canonical(supply).hex() == self.SUPPLY_GOLDEN
        assert decode_canonical(bytes.fromhex(self.SUPPLY_GOLDEN)) == supply
        assert _judged_alike(supply) == (True, None)


class TestContractHash:
    def test_both_sides_agree(self):
        terms = ContractTerms(10, 6, 60, bytes(32))
        again = ContractTerms(10, 6, 60, bytes(32))
        assert compute_contract_hash(terms) == compute_contract_hash(again)

    def test_nonce_changes_hash(self):
        a = ContractTerms(10, 6, 60, bytes(32))
        b = ContractTerms(10, 6, 60, bytes(31) + b"\x01")
        assert compute_contract_hash(a) != compute_contract_hash(b)

    def test_total_must_match_product(self):
        with pytest.raises(ValueError):
            compute_contract_hash(ContractTerms(10, 6, 61, bytes(32)))

    def test_nonce_length_enforced(self):
        with pytest.raises(ValueError):
            ContractTerms(10, 6, 60, bytes(16))

    def test_collision_trials(self):
        rng = Random(6)
        for _ in range(1000):
            amount = rng.randrange(1, 50)
            price = rng.randrange(1, 50)
            nonce_a, nonce_b = rng.randbytes(32), rng.randbytes(32)
            a = ContractTerms(amount, price, amount * price, nonce_a)
            b = ContractTerms(amount, price, amount * price, nonce_b)
            same = compute_contract_hash(a) == compute_contract_hash(b)
            assert same == (a == b)
