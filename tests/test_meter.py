"""Smart meters: key pools, anonymous endorsement, delivery, receipts."""

from dataclasses import replace
from random import Random

import pytest

from gridtrade.arb import JoinMessage, Mesh
from gridtrade.crypto import (
    CERTIFICATE_LEN,
    MAX_FIELD_LEN,
    SIGNATURE_LEN,
    AsymCiphertext,
    Certificate,
    KeyPair,
    MerkleProof,
    asym_encrypt,
    ca_verify,
    hash_bytes,
    issue_certificate,
    merkle_verify,
    sign,
)
from gridtrade.meter import (
    CoE,
    MeterError,
    SmartMeter,
    VerificationRequest,
    provision_meter,
)
from gridtrade.transactions import (
    DecodeError,
    check_id_and_signature,
    check_structure,
    decode_canonical,
    encode_canonical,
    encode_declared,
    make_ctp,
    signed,
    signing_digest,
)

from framing import decode_fields, encode_fields


def fresh_meter(manufacturer, seed: int) -> SmartMeter:
    rng = Random(seed)
    return SmartMeter(provision_meter(manufacturer, rng), Random(seed + 1000))


def _overlong_first_field(data: bytes) -> bytes:
    n = int.from_bytes(data[1:5], "big")
    big = MAX_FIELD_LEN + 1
    return data[:1] + big.to_bytes(4, "big") + bytes(big) + data[5 + n :]


def _replace_field(data: bytes, length: int, value: bytes) -> bytes:
    """Re-frame a four-field meter message with each ``length``-byte field replaced."""
    fields = decode_fields(data, 4)
    return encode_fields(data[0], [value if len(f) == length else f for f in fields])


def _decode_as(message, data: bytes):
    """``data`` decoded as a message of ``message``'s kind, the only kind it may name."""
    return decode_canonical(data, {message.tag: type(message)})


# how each malformed encoding is made from a good one, and the error it gets
MALFORMED = {
    "wrong tag": (lambda data: bytes([data[0] ^ 0xFF]) + data[1:], "unknown tag"),
    "truncated length prefix": (lambda data: data[:3], "truncated length prefix"),
    "field runs past end": (lambda data: data[:-3], "runs past end"),
    "trailing bytes": (lambda data: data + b"\x00", "trailing bytes"),
    "overlong field": (_overlong_first_field, "overlong field"),
    "short certificate": (
        lambda data: _replace_field(data, CERTIFICATE_LEN, bytes(10)),
        "certificate must be 192 bytes",
    ),
    # both messages carry two 64-byte fields (a key and a signature)
    "short key or signature": (
        lambda data: _replace_field(data, SIGNATURE_LEN, bytes(10)),
        "must be 64 bytes, got 10",
    ),
    "long key or signature": (
        lambda data: _replace_field(data, SIGNATURE_LEN, bytes(65)),
        "must be 64 bytes, got 65",
    ),
}


class TestKeyPool:
    def test_four_keys_two_levels(self, rig):
        meter = fresh_meter(rig.manufacturer, 1)
        pool = meter.generate_key_pool(4)
        assert len(pool.pairs) == 4
        assert pool.tree.height == 2
        assert pool.tree.leaf_count == 4

    def test_single_key_degenerate_tree(self, rig):
        meter = fresh_meter(rig.manufacturer, 2)
        pool = meter.generate_key_pool(1)
        assert pool.tree.height == 1

    def test_zero_keys_rejected(self, rig):
        meter = fresh_meter(rig.manufacturer, 3)
        with pytest.raises(ValueError):
            meter.generate_key_pool(0)

    def test_two_meters_disjoint_pools(self, rig):
        a = fresh_meter(rig.manufacturer, 4).generate_key_pool(500)
        b = fresh_meter(rig.manufacturer, 5).generate_key_pool(500)
        pks_a = {p.public for p in a.pairs}
        pks_b = {p.public for p in b.pairs}
        assert not pks_a & pks_b

    def test_pool_never_reuses_meter_identity(self, rig):
        meter = fresh_meter(rig.manufacturer, 6)
        pool = meter.generate_key_pool(50)
        assert all(p.public != meter.public for p in pool.pairs)


class TestEndorsement:
    def test_verifier_can_decrypt_and_endorse(self, rig):
        requester = fresh_meter(rig.manufacturer, 7)
        verifier = fresh_meter(rig.manufacturer, 8)
        pool = requester.generate_key_pool(4)
        vr = requester.make_verification_request(pool, verifier.public)
        coe = verifier.process_verification_request(vr, rig.manufacturer.public)
        assert coe.root == pool.root
        assert coe.verify(rig.manufacturer.public)

    def test_uncertified_requester_rejected(self, rig):
        rng = Random(9)
        fake_ca = KeyPair.generate(rng)
        impostor = SmartMeter(provision_meter(fake_ca, rng), Random(10))
        verifier = fresh_meter(rig.manufacturer, 11)
        pool = impostor.generate_key_pool(2)
        vr = impostor.make_verification_request(pool, verifier.public)
        with pytest.raises(MeterError, match="not a meter"):
            verifier.process_verification_request(vr, rig.manufacturer.public)

    def test_tampered_request_rejected(self, rig):
        requester = fresh_meter(rig.manufacturer, 12)
        verifier = fresh_meter(rig.manufacturer, 13)
        other = fresh_meter(rig.manufacturer, 14)
        pool = requester.generate_key_pool(2)
        vr = requester.make_verification_request(pool, verifier.public)
        hijacked = replace(vr, requester_mpk=other.public)
        with pytest.raises(MeterError):
            verifier.process_verification_request(hijacked, rig.manufacturer.public)

    @pytest.mark.parametrize("as_root", ["bytes", None, 7], ids=repr)
    def test_root_that_is_not_a_ciphertext_is_refused(self, rig, as_root):
        # it raised AttributeError once the certificate check passed
        requester = fresh_meter(rig.manufacturer, 62)
        verifier = fresh_meter(rig.manufacturer, 63)
        vr = requester.make_verification_request(requester.generate_key_pool(2), verifier.public)
        if as_root == "bytes":
            as_root = vr.encrypted_root.to_bytes()
        with pytest.raises(MeterError, match="bad request signature"):
            verifier.process_verification_request(
                replace(vr, encrypted_root=as_root), rig.manufacturer.public
            )

    def test_request_encrypted_to_other_meter_fails(self, rig):
        requester = fresh_meter(rig.manufacturer, 15)
        verifier = fresh_meter(rig.manufacturer, 16)
        bystander = fresh_meter(rig.manufacturer, 17)
        pool = requester.generate_key_pool(2)
        vr = requester.make_verification_request(pool, verifier.public)
        with pytest.raises(MeterError, match="decrypt"):
            bystander.process_verification_request(vr, rig.manufacturer.public)

    def test_same_pool_two_verifiers_share_root(self, rig):
        requester = fresh_meter(rig.manufacturer, 18)
        vm1 = fresh_meter(rig.manufacturer, 19)
        vm2 = fresh_meter(rig.manufacturer, 20)
        pool = requester.generate_key_pool(4)
        coe1 = vm1.process_verification_request(
            requester.make_verification_request(pool, vm1.public), rig.manufacturer.public
        )
        coe2 = vm2.process_verification_request(
            requester.make_verification_request(pool, vm2.public), rig.manufacturer.public
        )
        assert coe1.root == coe2.root == pool.root
        assert coe1.vm_pk != coe2.vm_pk
        assert coe1.verify(rig.manufacturer.public)
        assert coe2.verify(rig.manufacturer.public)


class TestEndorsementIsNoRecordSignature:
    """A verifier signs, with its identity key, whatever root a certified
    meter encrypts to it. Nothing it signs that way may pass as its
    signature on a join or a verification request."""

    def _endorse(self, rig, attacker: SmartMeter, verifier: SmartMeter, root: bytes) -> CoE:
        request = VerificationRequest(
            asym_encrypt(verifier.public, root, attacker.rng),
            attacker.public,
            attacker.identity.manufacturer_cert,
            b"",
        )
        request = signed(request, attacker.identity.keypair)
        return verifier.process_verification_request(request, rig.manufacturer.public)

    def test_endorsed_hash_of_a_join_is_not_a_join(self, rig):
        attacker = fresh_meter(rig.manufacturer, 64)
        victim = fresh_meter(rig.manufacturer, 65)
        join = JoinMessage(victim.public, "attacker-node", b"")
        coe = self._endorse(rig, attacker, victim, signing_digest(join))
        mesh = Mesh(["b0", "b1"], 1, offer_limit=5)
        owner = mesh.table.owner_of(victim.public)
        forged = replace(join, sign=coe.vm_signature)
        assert mesh.join(owner, forged) == (False, "impersonation")
        assert victim.public not in mesh.nodes[owner].members

    def test_endorsed_hash_of_a_request_is_not_a_request(self, rig):
        attacker = fresh_meter(rig.manufacturer, 66)
        victim = fresh_meter(rig.manufacturer, 67)
        target = fresh_meter(rig.manufacturer, 68)
        request = VerificationRequest(
            asym_encrypt(target.public, hash_bytes(b"pool"), attacker.rng),
            victim.public,
            victim.identity.manufacturer_cert,
            b"",
        )
        coe = self._endorse(rig, attacker, victim, signing_digest(request))
        forged = replace(request, sign=coe.vm_signature)
        with pytest.raises(MeterError, match="bad request signature"):
            target.process_verification_request(forged, rig.manufacturer.public)

    def test_a_root_that_is_not_a_digest_is_not_endorsed(self, rig):
        # a record's own encoding as the root: its verifier must not sign it
        attacker = fresh_meter(rig.manufacturer, 69)
        victim = fresh_meter(rig.manufacturer, 70)
        join = JoinMessage(victim.public, "attacker-node", b"")
        with pytest.raises(MeterError, match="root is not a digest"):
            self._endorse(rig, attacker, victim, encode_declared(join))


class TestInstallEndorsement:
    """A meter installs only an endorsement of its own pool root by a
    manufacturer-certified meter; miners refuse receipts under any other."""

    def _requester_and_coe(self, rig, seed):
        requester = fresh_meter(rig.manufacturer, seed)
        verifier = fresh_meter(rig.manufacturer, seed + 1)
        pool = requester.generate_key_pool(2)
        vr = requester.make_verification_request(pool, verifier.public)
        coe = verifier.process_verification_request(vr, rig.manufacturer.public)
        return requester, verifier, coe

    def test_genuine_endorsement_installed(self, rig):
        requester, _, coe = self._requester_and_coe(rig, 40)
        requester.install_coe(coe)
        assert requester.coe is coe

    def test_foreign_root_refused(self, rig):
        requester, verifier, _ = self._requester_and_coe(rig, 42)
        root = hash_bytes(b"someone else's pool")
        foreign = CoE(
            root, sign(verifier.identity.keypair, root), verifier.public,
            verifier.identity.manufacturer_cert,
        )
        assert foreign.verify(rig.manufacturer.public)  # genuine, but not of this pool
        with pytest.raises(MeterError, match="not of this meter's pool"):
            requester.install_coe(foreign)
        assert requester.coe is None

    def test_self_certified_verifier_refused(self, rig):
        requester, _, _ = self._requester_and_coe(rig, 44)
        rogue = KeyPair.generate(Random(45))
        root = requester.pool.root
        forged = CoE(root, sign(rogue, root), rogue.public, issue_certificate(rogue, rogue.public))
        with pytest.raises(MeterError, match="certified meter"):
            requester.install_coe(forged)
        assert requester.coe is None

    def test_no_pool_yet_refused(self, rig):
        _, _, coe = self._requester_and_coe(rig, 46)
        bystander = fresh_meter(rig.manufacturer, 48)
        with pytest.raises(MeterError, match="not of this meter's pool"):
            bystander.install_coe(coe)
        assert bystander.coe is None


# a certificate handed over as anything but the record, its bytes included
NOT_A_CERTIFICATE = {
    "bytes": Certificate.to_bytes,
    "bytearray": lambda cert: bytearray(cert.to_bytes()),
    "none": lambda cert: None,
    "int": lambda cert: 1,
    "str": lambda cert: cert.to_bytes().hex(),
    "tuple": lambda cert: (cert.subject_pk, cert.issuer_pk, cert.signature),
}


@pytest.mark.parametrize("as_cert", NOT_A_CERTIFICATE.values(), ids=NOT_A_CERTIFICATE.keys())
class TestCertificateThatIsNotARecord:
    """Every certificate check refuses a value that is not a ``Certificate``:
    the checks return False and the meter raises only ``MeterError``."""

    def _endorsed(self, rig):
        requester = fresh_meter(rig.manufacturer, 60)
        verifier = fresh_meter(rig.manufacturer, 61)
        vr = requester.make_verification_request(requester.generate_key_pool(2), verifier.public)
        return requester, verifier, vr, verifier.process_verification_request(
            vr, rig.manufacturer.public
        )

    def test_ca_verify_is_false(self, rig, as_cert):
        _, _, vr, _ = self._endorsed(rig)
        cert = vr.requester_cert
        assert ca_verify(cert, rig.manufacturer.public, vr.requester_mpk)
        assert not ca_verify(as_cert(cert), rig.manufacturer.public, vr.requester_mpk)

    def test_coe_verify_is_false(self, rig, as_cert):
        _, _, _, coe = self._endorsed(rig)
        assert coe.verify(rig.manufacturer.public)
        assert not replace(coe, vm_cert=as_cert(coe.vm_cert)).verify(rig.manufacturer.public)

    def test_install_coe_refuses(self, rig, as_cert):
        requester, _, _, coe = self._endorsed(rig)
        with pytest.raises(MeterError, match="certified meter"):
            requester.install_coe(replace(coe, vm_cert=as_cert(coe.vm_cert)))
        assert requester.coe is None

    def test_process_verification_request_refuses(self, rig, as_cert):
        _, verifier, vr, _ = self._endorsed(rig)
        with pytest.raises(MeterError, match="not a meter"):
            verifier.process_verification_request(
                replace(vr, requester_cert=as_cert(vr.requester_cert)), rig.manufacturer.public
            )


class TestDelivery:
    def _armed_meter(self, rig, seed=21, kwh=10):
        meter = fresh_meter(rig.manufacturer, seed)
        meter.generate_key_pool(4)
        verifier = fresh_meter(rig.manufacturer, seed + 100)
        coe = verifier.process_verification_request(
            meter.make_verification_request(meter.pool, verifier.public),
            rig.manufacturer.public,
        )
        meter.install_coe(coe)
        from gridtrade.transactions import ContractTerms, compute_contract_hash

        payer = KeyPair.generate(rig.rng)
        terms = ContractTerms(kwh, 6, kwh * 6, bytes(32))
        ctp = make_ctp(10, 200, kwh * 6, compute_contract_hash(terms), payer)
        meter.register_contract(terms, ctp)
        return meter, terms, ctp

    def test_completion_flips_at_contracted_amount(self, rig):
        meter, terms, ctp = self._armed_meter(rig)
        record = meter.record_delivery(ctp.contract_hash, 4)
        assert not record.complete
        record = meter.record_delivery(ctp.contract_hash, 6)
        assert record.complete and record.delivered == 10

    def test_incomplete_delivery_refuses_receipt(self, rig):
        meter, terms, ctp = self._armed_meter(rig, seed=22)
        meter.record_delivery(ctp.contract_hash, 4)
        meter.record_delivery(ctp.contract_hash, 5)
        with pytest.raises(MeterError, match="incomplete"):
            meter.generate_erc(ctp, now=20)

    def test_over_delivery_still_prices_at_contract(self, rig):
        meter, terms, ctp = self._armed_meter(rig, seed=23)
        meter.record_delivery(ctp.contract_hash, 4)
        record = meter.record_delivery(ctp.contract_hash, 7)
        assert record.complete and record.delivered == 11
        erc = meter.generate_erc(ctp, now=20)
        assert erc.price == ctp.price  # contract total, not delivered kWh

    def test_unknown_contract_rejected(self, rig):
        meter, terms, ctp = self._armed_meter(rig, seed=24)
        with pytest.raises(MeterError, match="unknown contract"):
            meter.record_delivery(b"\x00" * 32, 5)

    def test_negative_delivery_rejected(self, rig):
        meter, terms, ctp = self._armed_meter(rig, seed=25)
        with pytest.raises(ValueError):
            meter.record_delivery(ctp.contract_hash, -1)


class TestReceiptGeneration:
    def test_receipt_key_is_proven_pool_leaf(self, rig):
        meter = TestDelivery()._armed_meter(rig, seed=26)[0]
        ctp = meter.contracts[next(iter(meter.contracts))]
        meter.record_delivery(ctp.contract_hash, 10)
        erc = meter.generate_erc(ctp, now=20)
        assert merkle_verify(erc.coe_root, erc.pk, erc.merkle_hashes)
        assert erc.pk == meter.pool.pairs[0].public  # lowest unused index
        assert meter.pool.spent == 1

    def test_expired_commitment_refused(self, rig):
        meter, terms, ctp = TestDelivery()._armed_meter(rig, seed=27)
        meter.record_delivery(ctp.contract_hash, 10)
        with pytest.raises(MeterError, match="expired"):
            meter.generate_erc(ctp, now=ctp.expiry_time)

    def test_two_receipts_use_distinct_keys(self, rig):
        from gridtrade.transactions import ContractTerms, compute_contract_hash

        meter = fresh_meter(rig.manufacturer, 28)
        meter.generate_key_pool(4)
        verifier = fresh_meter(rig.manufacturer, 29)
        meter.install_coe(
            verifier.process_verification_request(
                meter.make_verification_request(meter.pool, verifier.public),
                rig.manufacturer.public,
            )
        )
        payer = KeyPair.generate(rig.rng)
        ercs = []
        for i in range(2):
            terms = ContractTerms(5, 4, 20, bytes([i]) * 32)
            ctp = make_ctp(10, 200, 20, compute_contract_hash(terms), payer)
            meter.register_contract(terms, ctp)
            meter.record_delivery(ctp.contract_hash, 5)
            ercs.append(meter.generate_erc(ctp, now=20))
        assert ercs[0].pk != ercs[1].pk
        assert [erc.pk for erc in ercs] == [pair.public for pair in meter.pool.pairs[:2]]
        assert meter.pool.spent == 2

    def test_pool_exhaustion(self, rig):
        from gridtrade.transactions import ContractTerms, compute_contract_hash

        meter = fresh_meter(rig.manufacturer, 30)
        meter.generate_key_pool(1)
        verifier = fresh_meter(rig.manufacturer, 31)
        meter.install_coe(
            verifier.process_verification_request(
                meter.make_verification_request(meter.pool, verifier.public),
                rig.manufacturer.public,
            )
        )
        payer = KeyPair.generate(rig.rng)
        for i in range(2):
            terms = ContractTerms(5, 4, 20, bytes([i]) * 32)
            ctp = make_ctp(10, 200, 20, compute_contract_hash(terms), payer)
            meter.register_contract(terms, ctp)
            meter.record_delivery(ctp.contract_hash, 5)
            if i == 0:
                meter.generate_erc(ctp, now=20)
            else:
                with pytest.raises(MeterError, match="pool exhausted"):
                    meter.generate_erc(ctp, now=20)


class TestWireEncodings:
    def test_endorsement_roundtrip(self, rig):
        requester = fresh_meter(rig.manufacturer, 40)
        verifier = fresh_meter(rig.manufacturer, 41)
        pool = requester.generate_key_pool(2)
        coe = verifier.process_verification_request(
            requester.make_verification_request(pool, verifier.public),
            rig.manufacturer.public,
        )
        again = _decode_as(coe, encode_canonical(coe))
        assert again == coe
        assert again.verify(rig.manufacturer.public)

    def test_verification_request_roundtrip(self, rig):
        requester = fresh_meter(rig.manufacturer, 42)
        verifier = fresh_meter(rig.manufacturer, 43)
        pool = requester.generate_key_pool(2)
        vr = requester.make_verification_request(pool, verifier.public)
        again = _decode_as(vr, encode_canonical(vr))
        assert again == vr
        assert check_id_and_signature(again) == (True, None)

    def test_truncation_rejected(self, rig):
        import pytest

        requester = fresh_meter(rig.manufacturer, 44)
        verifier = fresh_meter(rig.manufacturer, 45)
        pool = requester.generate_key_pool(2)
        vr = requester.make_verification_request(pool, verifier.public)
        with pytest.raises(ValueError):
            _decode_as(vr, encode_canonical(vr)[:-3])

    @pytest.mark.parametrize("kind", ["request", "endorsement"])
    @pytest.mark.parametrize("defect", sorted(MALFORMED))
    def test_malformed_encoding_rejected(self, rig, kind, defect):
        requester = fresh_meter(rig.manufacturer, 46)
        verifier = fresh_meter(rig.manufacturer, 47)
        message = requester.make_verification_request(
            requester.generate_key_pool(2), verifier.public
        )
        if kind == "endorsement":
            message = verifier.process_verification_request(message, rig.manufacturer.public)
        mangle, error = MALFORMED[defect]
        with pytest.raises(DecodeError, match=error):
            _decode_as(message, mangle(encode_canonical(message)))

    @pytest.mark.parametrize(
        "kind,index,name,size",
        [
            ("endorsement", 0, "root", 32),
            ("endorsement", 1, "vm_signature", 64),
            ("endorsement", 2, "vm_pk", 64),
            ("request", 1, "requester_mpk", 64),
            ("request", 3, "sign", 64),
        ],
    )
    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_each_fixed_length_field_checked(self, rig, kind, index, name, size, delta):
        requester = fresh_meter(rig.manufacturer, 50)
        verifier = fresh_meter(rig.manufacturer, 51)
        message = requester.make_verification_request(
            requester.generate_key_pool(2), verifier.public
        )
        if kind == "endorsement":
            message = verifier.process_verification_request(message, rig.manufacturer.public)
        data = encode_canonical(message)
        fields = decode_fields(data, 4)
        assert len(fields[index]) == size
        fields[index] = bytes(size + delta)
        with pytest.raises(DecodeError, match=f"{name} must be {size} bytes, got {size + delta}"):
            _decode_as(message, encode_fields(data[0], fields))

    def test_malformed_ciphertext_is_a_decode_error(self, rig):
        requester = fresh_meter(rig.manufacturer, 48)
        verifier = fresh_meter(rig.manufacturer, 49)
        vr = requester.make_verification_request(
            requester.generate_key_pool(2), verifier.public
        )
        ciphertext = vr.encrypted_root.to_bytes()
        mangled = _replace_field(encode_canonical(vr), len(ciphertext), ciphertext[:-1])
        with pytest.raises(DecodeError, match="ciphertext length mismatch"):
            _decode_as(vr, mangled)


class TestLedgerIntegration:
    def test_honest_receipt_passes_full_validation(self, trade):
        erc = trade.completed_erc()
        assert trade.rig.ledger.validate_erc(erc) == (True, None)

    def test_endorsement_passes_authority_step(self, trade):
        erc = trade.completed_erc()
        coe = CoE(
            root=erc.coe_root,
            vm_signature=erc.coe_vm_sign,
            vm_pk=erc.coe_pk,
            vm_cert=erc.coe_vm_cert,
        )
        assert coe.verify(trade.rig.manufacturer.public)


# a Merkle proof or ciphertext outside its codec's domain: each raised
# TypeError, returned a bytearray or encoded a list, which a record would
# then keep as bytes that a later change to the list or bytearray outdates
OUT_OF_DOMAIN = {
    "proof-none-siblings": MerkleProof(0, None),
    "proof-none-sibling": MerkleProof(0, (None,)),
    "proof-list-siblings": MerkleProof(0, [(bytes(32), 1)]),
    "proof-list-sibling": MerkleProof(0, ([bytes(32), 1],)),
    "proof-float-side": MerkleProof(0, ((bytes(32), 1.0),)),
    "ciphertext-none-key": AsymCiphertext(None, bytes(60)),
    "ciphertext-bytearray-key": AsymCiphertext(bytearray(64), bytes(60)),
    "ciphertext-short-key": AsymCiphertext(bytes(63), bytes(60)),
    "ciphertext-none-payload": AsymCiphertext(bytes(64), None),
    "ciphertext-bytearray-payload": AsymCiphertext(bytes(64), bytearray(60)),
}


@pytest.mark.parametrize("value", OUT_OF_DOMAIN.values(), ids=OUT_OF_DOMAIN.keys())
def test_codec_values_outside_their_domain(trade, value):
    with pytest.raises(ValueError):
        value.to_bytes()
    if isinstance(value, MerkleProof):
        ok, reason = check_structure(replace(trade.completed_erc(), merkle_hashes=value))
        assert not ok and reason.startswith("malformed: ")
    else:
        requester = trade.consumer_meter
        vr = requester.make_verification_request(requester.pool, trade.verifier_meter.public)
        with pytest.raises(MeterError, match="bad request signature"):
            trade.verifier_meter.process_verification_request(
                replace(vr, encrypted_root=value), trade.rig.manufacturer.public
            )
