"""Hashing, signatures, certificates, encryption, and Merkle trees."""

import hashlib
import sys
from random import Random

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from gridtrade import crypto
from gridtrade.crypto import (
    LEFT,
    RIGHT,
    VERIFY_MEMO_CAP,
    AsymCiphertext,
    Certificate,
    DecryptionError,
    KeyPair,
    MerkleProof,
    asym_decrypt,
    asym_encrypt,
    ca_verify,
    hash_bytes,
    issue_certificate,
    merkle_build,
    merkle_prove,
    merkle_verify,
    sign,
    verify,
)
from gridtrade.sim import SCENARIOS, preset, run_scenario

# SHA-256 of the empty string, checked against an independent computation
EMPTY_SHA256 = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)


def brute_force_root(leaves):
    """Independent straight-line recomputation of the tree root."""
    level = [hashlib.sha256(x).digest() for x in leaves]
    rounds = 0
    while len(level) > 1 or rounds == 0:
        if len(level) % 2 == 1:
            level = level + [level[-1]]
        level = [
            hashlib.sha256(level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
        rounds += 1
    return level[0]


class TestHash:
    def test_deterministic(self):
        rng = Random(1)
        for _ in range(50):
            data = rng.randbytes(rng.randrange(0, 100))
            assert hash_bytes(data) == hash_bytes(data)

    def test_empty_matches_independent_reference(self):
        assert hash_bytes(b"") == EMPTY_SHA256
        assert hash_bytes(b"") == hashlib.sha256(b"").digest()

    def test_length_is_32(self):
        assert len(hash_bytes(b"x")) == 32

    def test_appending_byte_changes_digest(self):
        rng = Random(2)
        for _ in range(1000):
            data = rng.randbytes(rng.randrange(0, 64))
            assert hash_bytes(data) != hash_bytes(data + b"\x00")


class TestSignatures:
    def test_roundtrip(self):
        kp = KeyPair.generate(Random(3))
        sig = sign(kp, b"message")
        assert verify(kp.public, b"message", sig)

    def test_message_tamper(self):
        kp = KeyPair.generate(Random(4))
        sig = sign(kp, b"message")
        assert not verify(kp.public, b"message\x01", sig)

    def test_cross_key_pairs(self):
        rng = Random(5)
        for _ in range(100):
            a, b = KeyPair.generate(rng), KeyPair.generate(rng)
            assert not verify(b.public, b"m", sign(a, b"m"))

    def test_signing_is_deterministic(self):
        kp = KeyPair.generate(Random(6))
        assert sign(kp, b"same") == sign(kp, b"same")

    def test_verify_is_total(self):
        kp = KeyPair.generate(Random(7))
        sig = sign(kp, b"m")
        assert not verify(b"short", b"m", sig)
        assert not verify(kp.public, b"m", b"not a signature")
        assert not verify(kp.public, b"m", sig[:-1])
        assert not verify(bytes(64), b"m", sig)

    def test_keypair_reproducible_from_seed(self):
        seed = bytes(range(32))
        assert KeyPair.from_seed(seed).public == KeyPair.from_seed(seed).public


class TestKeptSigningKey:
    """A KeyPair keeps its Ed25519 object: ``from_seed`` keeps the one it
    builds, and a directly built pair builds one on its first sign."""

    SEED = bytes(range(32))

    def test_kept_key_signs_like_a_fresh_one(self):
        kept = KeyPair.from_seed(self.SEED)
        for message in (b"", b"first", b"second" * 100, b"first"):
            fresh = Ed25519PrivateKey.from_private_bytes(self.SEED).sign(message)
            assert sign(kept, message) == fresh

    def test_directly_built_pair_signs(self):
        public = KeyPair.from_seed(self.SEED).public
        direct = KeyPair(public=public, seed=self.SEED)
        assert verify(public, b"m", sign(direct, b"m"))
        assert verify(public, b"n", sign(direct, b"n"))

    def test_equality_hash_and_repr_ignore_the_kept_key(self):
        used, unused = KeyPair.from_seed(self.SEED), KeyPair.from_seed(self.SEED)
        sign(used, b"m")
        assert isinstance(vars(used).get("_ed_private"), Ed25519PrivateKey)
        assert isinstance(vars(unused).get("_ed_private"), Ed25519PrivateKey)
        direct = KeyPair(public=used.public, seed=self.SEED)
        assert "_ed_private" not in vars(direct)
        assert used == unused and hash(used) == hash(unused)
        assert used == direct and hash(used) == hash(direct)
        assert repr(used) == repr(unused) == repr(direct)
        assert "_ed_private" not in repr(used) and "Ed25519" not in repr(used)


def _reference_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Straight Ed25519 check, with no memo, for comparison."""
    try:
        Ed25519PublicKey.from_public_bytes(public[:32]).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def _flipped(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit >> 3] ^= 1 << (bit & 7)
    return bytes(out)


class TestVerifyMemo:
    """``verify`` answers repeats from its memo; every answer stays exact."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        crypto._verify_memo.clear()
        yield
        crypto._verify_memo.clear()

    def test_one_bit_flips_after_a_cached_true(self):
        kp = KeyPair.generate(Random(30))
        msg = b"commitment digest"
        sig = sign(kp, msg)
        assert verify(kp.public, msg, sig) and verify(kp.public, msg, sig)
        assert crypto._verify_memo[(kp.public, msg, sig)] is True
        for bit in range(256):  # the Ed25519 half of the key
            assert not verify(_flipped(kp.public, bit), msg, sig)
        for bit in range(len(msg) * 8):
            assert not verify(kp.public, _flipped(msg, bit), sig)
        for bit in range(len(sig) * 8):
            assert not verify(kp.public, msg, _flipped(sig, bit))
        # the X25519 half takes no part in signatures, with or without the memo
        for bit in range(256, 512):
            flipped = _flipped(kp.public, bit)
            assert verify(flipped, msg, sig) == _reference_verify(flipped, msg, sig)
        assert verify(kp.public, msg, sig)

    def test_cached_false_stays_false(self):
        a, b = KeyPair.generate(Random(31)), KeyPair.generate(Random(32))
        sig = sign(a, b"m")
        for _ in range(3):
            assert verify(b.public, b"m", sig) is False
        assert crypto._verify_memo[(b.public, b"m", sig)] is False
        assert verify(a.public, b"m", sig) is True

    def test_bytearray_and_bytes_agree(self):
        kp = KeyPair.generate(Random(33))
        msg = bytearray(b"mutable message")
        sig = sign(kp, bytes(msg))
        args = (bytearray(kp.public), msg, bytearray(sig))
        assert verify(*args) is verify(kp.public, bytes(msg), sig) is True
        # the memo keeps a copy: changing the caller's buffer changes the answer
        msg[0] ^= 1
        assert verify(*args) is verify(kp.public, bytes(msg), sig) is False

    def test_malformed_inputs_return_false(self):
        kp = KeyPair.generate(Random(34))
        sig = sign(kp, b"m")
        bad_calls = [
            (kp.public[:-1], b"m", sig),
            (kp.public + b"\x00", b"m", sig),
            (kp.public, b"m", sig[:-1]),
            (kp.public, b"m", sig + b"\x00"),
            (None, b"m", sig),
            (kp.public.hex(), b"m", sig),
            (kp.public, "m", sig),
            (kp.public, None, sig),
            (kp.public, 1, sig),
            (kp.public, b"m", None),
            (kp.public, b"m", list(sig)),
            (bytes(64), b"m", sig),
        ]
        for _ in range(2):  # a second round would hit any memoised entry
            for call in bad_calls:
                assert verify(*call) is False

    def test_memo_is_bounded_and_evicts_oldest_first(self):
        kp = KeyPair.generate(Random(35))
        sig = sign(kp, b"m")
        messages = [i.to_bytes(4, "big") for i in range(VERIFY_MEMO_CAP + 50)]
        for msg in messages:
            assert not verify(kp.public, msg, sig)
            assert len(crypto._verify_memo) <= VERIFY_MEMO_CAP
        assert len(crypto._verify_memo) == VERIFY_MEMO_CAP
        assert (kp.public, messages[49], sig) not in crypto._verify_memo
        assert (kp.public, messages[50], sig) in crypto._verify_memo
        assert verify(kp.public, b"m", sig)

    @pytest.mark.parametrize("attack", list(SCENARIOS))
    def test_every_signature_a_scenario_makes_verifies(self, attack):
        # sign records its output as valid, so each one must pass the real check
        made = []
        original_sign = crypto.sign

        def recording_sign(keypair, message):
            signature = original_sign(keypair, message)
            made.append((keypair.public, bytes(message), signature))
            return signature

        with pytest.MonkeyPatch.context() as mp:
            # modules bind sign by name, so rebind it wherever it was imported
            for module in list(sys.modules.values()):
                if module is not None and module.__name__.startswith("gridtrade"):
                    if getattr(module, "sign", None) is original_sign:
                        mp.setattr(module, "sign", recording_sign)
            run_scenario(preset(attack, seed=1))
        assert made
        assert all(_reference_verify(*triple) for triple in made)

    def test_signing_records_what_verify_would_answer(self):
        kp = KeyPair.generate(Random(36))
        sig = sign(kp, b"m")
        assert crypto._verify_memo == {(kp.public, b"m", sig): True}
        assert verify(kp.public, b"m", sig) is True
        # a directly built pair checks its public half once, then records too
        direct = KeyPair(public=kp.public, seed=kp.seed)
        sig_n = sign(direct, b"n")
        assert crypto._verify_memo[(kp.public, b"n", sig_n)] is True
        assert direct == kp and hash(direct) == hash(kp) and repr(direct) == repr(kp)
        # verify reads only the Ed25519 half, so another X25519 half still records
        other = KeyPair.generate(Random(37))
        spliced = KeyPair(public=kp.public[:32] + other.public[32:], seed=kp.seed)
        sig_o = sign(spliced, b"o")
        assert crypto._verify_memo[(spliced.public, b"o", sig_o)] is True
        assert _reference_verify(spliced.public, b"o", sig_o)

    def test_pair_whose_public_is_not_its_seeds_records_nothing(self):
        a, b = KeyPair.generate(Random(38)), KeyPair.generate(Random(39))
        mismatched = KeyPair(public=a.public, seed=b.seed)
        sig = sign(mismatched, b"m")
        assert crypto._verify_memo == {}
        assert verify(a.public, b"m", sig) is False
        assert crypto._verify_memo == {(a.public, b"m", sig): False}

    @pytest.mark.parametrize(
        "public",
        [lambda pk: pk[:63], lambda pk: pk + b"\x00", bytearray, lambda pk: None],
        ids=["63-bytes", "65-bytes", "bytearray", "none"],
    )
    def test_malformed_public_half_records_nothing(self, public):
        kp = KeyPair.generate(Random(40))
        sign(KeyPair(public=public(kp.public), seed=kp.seed), b"m")
        assert crypto._verify_memo == {}

    def test_signing_is_bounded_and_evicts_oldest_first(self):
        kp = KeyPair.generate(Random(41))
        messages = [i.to_bytes(4, "big") for i in range(VERIFY_MEMO_CAP + 50)]
        sigs = []
        for msg in messages:
            sigs.append(sign(kp, msg))
            assert len(crypto._verify_memo) <= VERIFY_MEMO_CAP
        assert len(crypto._verify_memo) == VERIFY_MEMO_CAP
        assert list(crypto._verify_memo) == [
            (kp.public, msg, sig) for msg, sig in zip(messages[50:], sigs[50:])
        ]
        # recording a key the memo holds evicts nothing and keeps its place
        oldest = next(iter(crypto._verify_memo))
        assert sign(kp, messages[50]) == sigs[50]
        assert sign(kp, messages[-1]) == sigs[-1]
        assert len(crypto._verify_memo) == VERIFY_MEMO_CAP
        assert next(iter(crypto._verify_memo)) == oldest
        # an evicted signature still verifies, through the real check
        assert verify(kp.public, messages[0], sigs[0])
        assert (kp.public, messages[50], sigs[50]) not in crypto._verify_memo


class TestCertificates:
    def test_issued_by_ca_verifies(self):
        rng = Random(8)
        ca, subject = KeyPair.generate(rng), KeyPair.generate(rng)
        cert = issue_certificate(ca, subject.public)
        assert ca_verify(cert, ca.public, subject.public)

    def test_wrong_ca_rejected(self):
        rng = Random(9)
        ca, other, subject = (KeyPair.generate(rng) for _ in range(3))
        cert = issue_certificate(ca, subject.public)
        assert not ca_verify(cert, other.public, subject.public)

    def test_wrong_subject_rejected(self):
        rng = Random(12)
        ca, subject, other = (KeyPair.generate(rng) for _ in range(3))
        cert = issue_certificate(ca, subject.public)
        assert not ca_verify(cert, ca.public, other.public)

    def test_forged_self_signed_rejected(self):
        rng = Random(10)
        ca, attacker = KeyPair.generate(rng), KeyPair.generate(rng)
        forged = Certificate(
            subject_pk=attacker.public,
            issuer_pk=ca.public,
            signature=sign(attacker, attacker.public),
        )
        assert not ca_verify(forged, ca.public, attacker.public)

    def test_truncated_bytes_rejected(self):
        # only the record is a certificate: even a valid one's bytes are refused
        rng = Random(11)
        ca, subject = KeyPair.generate(rng), KeyPair.generate(rng)
        cert = issue_certificate(ca, subject.public)
        assert ca_verify(Certificate.from_bytes(cert.to_bytes()), ca.public, subject.public)
        assert not ca_verify(cert.to_bytes(), ca.public, subject.public)
        assert not ca_verify(cert.to_bytes()[:-1], ca.public, subject.public)
        assert not ca_verify(b"", ca.public, subject.public)


class TestMerkle:
    def test_four_leaf_topology(self):
        # two levels: leaf pairs hash together, then the two pair hashes
        leaves = [b"A", b"B", b"C", b"D"]
        tree = merkle_build(leaves)
        h = [hash_bytes(x) for x in leaves]
        h_ab = hash_bytes(h[0] + h[1])
        h_cd = hash_bytes(h[2] + h[3])
        assert tree.root == hash_bytes(h_ab + h_cd)
        proof = merkle_prove(tree, 0)
        assert proof.siblings == ((h[1], RIGHT), (h_cd, RIGHT))
        assert merkle_verify(tree.root, b"A", proof)

    def test_single_leaf_duplicates_itself(self):
        tree = merkle_build([b"L"])
        h = hash_bytes(b"L")
        assert tree.root == hash_bytes(h + h)
        proof = merkle_prove(tree, 0)
        assert len(proof) == 1
        assert proof.siblings[0] == (h, RIGHT)
        assert merkle_verify(tree.root, b"L", proof)

    def test_five_leaves_match_independent_recomputation(self):
        rng = Random(12)
        leaves = [rng.randbytes(20) for _ in range(5)]
        assert merkle_build(leaves).root == brute_force_root(leaves)

    def test_all_sizes_match_independent_recomputation(self):
        rng = Random(13)
        for n in range(1, 65):
            leaves = [rng.randbytes(8) for _ in range(n)]
            assert merkle_build(leaves).root == brute_force_root(leaves), n

    def test_eight_leaves_every_index_verifies(self):
        leaves = [bytes([i]) * 4 for i in range(8)]
        tree = merkle_build(leaves)
        for i in range(8):
            assert merkle_verify(tree.root, leaves[i], merkle_prove(tree, i))

    def test_non_member_rejected(self):
        leaves = [b"A", b"B", b"C", b"D"]
        tree = merkle_build(leaves)
        proof = merkle_prove(tree, 0)
        assert not merkle_verify(tree.root, b"E", proof)

    def test_sixteen_leaves_exhaustive_bit_flips(self):
        rng = Random(14)
        leaves = [rng.randbytes(12) for _ in range(16)]
        tree = merkle_build(leaves)
        for i in range(16):
            proof = merkle_prove(tree, i)
            assert merkle_verify(tree.root, leaves[i], proof)
            for si, (sib, side) in enumerate(proof.siblings):
                for bit in range(len(sib) * 8):
                    mutated = bytearray(sib)
                    mutated[bit // 8] ^= 1 << (bit % 8)
                    siblings = list(proof.siblings)
                    siblings[si] = (bytes(mutated), side)
                    bad = MerkleProof(proof.leaf_index, tuple(siblings))
                    assert not merkle_verify(tree.root, leaves[i], bad)

    def test_proof_length_bounds(self):
        rng = Random(15)
        for n in (1, 2, 3, 7, 8, 31, 33, 64):
            leaves = [rng.randbytes(4) for _ in range(n)]
            tree = merkle_build(leaves)
            for i in range(n):
                assert len(merkle_prove(tree, i)) == tree.height <= 7

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError, match="empty tree"):
            merkle_build([])

    def test_index_out_of_range(self):
        tree = merkle_build([b"a", b"b"])
        with pytest.raises(ValueError):
            merkle_prove(tree, 2)
        with pytest.raises(ValueError):
            merkle_prove(tree, -1)

    def test_verify_is_total(self):
        tree = merkle_build([b"a", b"b"])
        proof = merkle_prove(tree, 0)
        junk = MerkleProof(0, ((b"short", RIGHT),))
        assert not merkle_verify(tree.root, b"a", junk)
        wrong_side = MerkleProof(0, ((proof.siblings[0][0], 7),))
        assert not merkle_verify(tree.root, b"a", wrong_side)
        for siblings in [((proof.siblings[0][0],),), (None,), 5]:
            assert not merkle_verify(tree.root, b"a", MerkleProof(0, siblings))
        assert not merkle_verify(tree.root, "a", proof)
        assert not merkle_verify(tree.root, b"a", None)

    def test_proof_wire_format(self):
        # leaf_index (4B big-endian) || count (1B) || (side 1B || digest 32B)*
        tree = merkle_build([b"a", b"b", b"c", b"d"])
        proof = merkle_prove(tree, 2)
        raw = proof.to_bytes()
        assert raw[:4] == (2).to_bytes(4, "big")
        assert raw[4] == 2
        assert len(raw) == 5 + 2 * 33
        assert MerkleProof.from_bytes(raw) == proof

    def test_proof_parse_errors(self):
        tree = merkle_build([b"a", b"b"])
        raw = merkle_prove(tree, 0).to_bytes()
        with pytest.raises(ValueError):
            MerkleProof.from_bytes(raw[:-1])
        with pytest.raises(ValueError):
            MerkleProof.from_bytes(raw + b"\x00")
        bad_side = bytearray(raw)
        bad_side[5] = 9
        with pytest.raises(ValueError):
            MerkleProof.from_bytes(bytes(bad_side))


class TestAsymEncryption:
    def test_roundtrip(self):
        rng = Random(16)
        kp = KeyPair.generate(rng)
        ct = asym_encrypt(kp.public, b"root bytes", rng)
        assert asym_decrypt(kp, ct) == b"root bytes"

    def test_wrong_key_fails(self):
        rng = Random(17)
        kp, other = KeyPair.generate(rng), KeyPair.generate(rng)
        ct = asym_encrypt(kp.public, b"secret", rng)
        with pytest.raises(DecryptionError):
            asym_decrypt(other, ct)

    def test_tampered_payload_fails(self):
        rng = Random(18)
        kp = KeyPair.generate(rng)
        ct = asym_encrypt(kp.public, b"secret", rng)
        tampered = AsymCiphertext(
            recipient_pk=ct.recipient_pk,
            payload=ct.payload[:-1] + bytes([ct.payload[-1] ^ 1]),
        )
        with pytest.raises(DecryptionError):
            asym_decrypt(kp, tampered)

    def test_many_roundtrips(self):
        rng = Random(19)
        kp = KeyPair.generate(rng)
        for _ in range(100):
            msg = rng.randbytes(rng.randrange(0, 200))
            assert asym_decrypt(kp, asym_encrypt(kp.public, msg, rng)) == msg

    def test_serialization_roundtrip(self):
        rng = Random(20)
        kp = KeyPair.generate(rng)
        ct = asym_encrypt(kp.public, b"x", rng)
        assert AsymCiphertext.from_bytes(ct.to_bytes()) == ct


class TestMerkleProperties:
    """Tree invariants across every size up to 64 leaves."""

    def test_roundtrip_every_size_and_index(self):
        rng = Random(21)
        for n in range(1, 65):
            leaves = [rng.randbytes(6) for _ in range(n)]
            tree = merkle_build(leaves)
            for i in range(n):
                proof = merkle_prove(tree, i)
                assert merkle_verify(tree.root, leaves[i], proof)
                assert len(proof) <= 7

    def test_sampled_bit_flips_fail_every_size(self):
        rng = Random(22)
        for n in range(1, 65):
            leaves = [rng.randbytes(6) for _ in range(n)]
            tree = merkle_build(leaves)
            i = rng.randrange(n)
            proof = merkle_prove(tree, i)
            for si, (sib, side) in enumerate(proof.siblings):
                bit = rng.randrange(256)
                mutated = bytearray(sib)
                mutated[bit // 8] ^= 1 << (bit % 8)
                siblings = list(proof.siblings)
                siblings[si] = (bytes(mutated), side)
                assert not merkle_verify(
                    tree.root, leaves[i], MerkleProof(i, tuple(siblings))
                )
