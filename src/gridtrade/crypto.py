"""Cryptographic primitives shared by every layer of the trading protocol.

Provides SHA-256 hashing, deterministic Ed25519 signatures, issuer
certificates, hybrid public-key encryption (X25519 + ChaCha20-Poly1305),
Merkle trees with inclusion proofs, and the length-prefix framing
(``_lp``, ``_Reader``) every byte layout of the protocol is read through.

Key layout: a public key is 64 bytes, the Ed25519 verify key (32 bytes,
used for signatures and as the routing identity) followed by an X25519
public key (32 bytes, used to encrypt to the holder). Both halves derive
from one 32-byte seed, so key generation from a seeded RNG reproduces the
same keys run after run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from random import Random
from typing import Dict, Optional, Tuple

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

DIGEST_LEN = 32
PUBLIC_KEY_LEN = 64
SIGNATURE_LEN = 64
CERTIFICATE_LEN = 3 * 64

# type aliases; all values are plain bytes of the documented length
HashDigest = bytes
PublicKey = bytes
Signature = bytes


class DecryptionError(Exception):
    """Ciphertext could not be opened with the supplied private key."""


def hash_bytes(data: bytes) -> HashDigest:
    """SHA-256 digest of ``data`` (32 bytes, deterministic)."""
    return hashlib.sha256(data).digest()


# ---------------------------------------------------------------------------
# framing

MAX_FIELD_LEN = 1 << 20  # 1 MiB; anything bigger is a malformed message


class DecodeError(ValueError):
    """Raised when bytes cannot be parsed back into the value they encode."""


def _lp(value: bytes) -> bytes:
    if len(value) > MAX_FIELD_LEN:
        raise ValueError(f"field of {len(value)} bytes exceeds the {MAX_FIELD_LEN} limit")
    return len(value).to_bytes(4, "big") + value


class _Reader:
    """Reads length-prefixed fields and fixed-width values off ``data``."""

    def __init__(self, data: bytes, off: int = 0):
        self.data = data
        self.off = off

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

    def take(self, n: int) -> bytes:
        end = self.off + n
        if end > len(self.data):
            raise DecodeError(f"truncated: {n} bytes wanted, {len(self.data) - self.off} left")
        out = self.data[self.off : end]
        self.off = end
        return out

    def uint(self, n: int) -> int:
        """An ``n``-byte big-endian unsigned integer."""
        return int.from_bytes(self.take(n), "big")

    def done(self) -> None:
        if self.off != len(self.data):
            raise DecodeError(f"{len(self.data) - self.off} trailing bytes")


@dataclass(frozen=True)
class KeyPair:
    """Signing + encryption key pair derived from one 32-byte seed."""

    public: PublicKey
    seed: bytes = field(repr=False)

    @staticmethod
    def generate(rng: Optional[Random] = None) -> "KeyPair":
        """Create a fresh pair; with ``rng`` the result is reproducible."""
        if rng is None:
            import secrets

            seed = secrets.token_bytes(32)
        else:
            seed = rng.randbytes(32)
        return KeyPair.from_seed(seed)

    @staticmethod
    def from_seed(seed: bytes) -> "KeyPair":
        if len(seed) != 32:
            raise ValueError("seed must be 32 bytes")
        ed_priv = Ed25519PrivateKey.from_private_bytes(seed)
        x_priv = X25519PrivateKey.from_private_bytes(_x25519_seed(seed))
        public = ed_priv.public_key().public_bytes_raw() + x_priv.public_key().public_bytes_raw()
        pair = KeyPair(public=public, seed=seed)
        # the key just built fills the caches, and ``public`` comes from it
        vars(pair)["_ed_private"] = ed_priv
        vars(pair)["_owns_public"] = True
        return pair

    # filled by from_seed or the first sign; not fields, so ==, hash and repr ignore them
    @cached_property
    def _ed_private(self) -> Ed25519PrivateKey:
        return Ed25519PrivateKey.from_private_bytes(self.seed)

    @cached_property
    def _owns_public(self) -> bool:
        """True iff ``public`` is a 64-byte key whose Ed25519 half is this seed's.

        Only immutable ``bytes`` qualify, so the answer cannot go stale.
        """
        return (
            isinstance(self.public, bytes)
            and len(self.public) == PUBLIC_KEY_LEN
            and self.public[:32] == self._ed_private.public_key().public_bytes_raw()
        )

    def _x_private(self) -> X25519PrivateKey:
        return X25519PrivateKey.from_private_bytes(_x25519_seed(self.seed))


def _x25519_seed(seed: bytes) -> bytes:
    return hash_bytes(seed + b"/encrypt")


def sign(keypair: KeyPair, message: bytes) -> Signature:
    """Ed25519 signature over ``message``; deterministic per (key, message).

    When ``keypair.public`` belongs to the seed that signed, the signature
    is also recorded as valid in ``verify``'s memo: RFC 8032 (5.1.6-5.1.7)
    makes every signature the signing procedure outputs verify under the
    matching public key, so the first check of a signature this process
    made costs a lookup. A pair whose public half is not its seed's records
    nothing, and its signatures meet the real check.
    """
    signature = keypair._ed_private.sign(message)
    if keypair._owns_public:
        _remember((keypair.public, bytes(message), signature), True)
    return signature


# verify's process-wide memo, also filled by sign. Its key is the whole
# input, so a hit returns what the Ed25519 check would. The cap bounds
# memory in a process that runs many scenarios one after another; it is a
# constant, not a setting.
VERIFY_MEMO_CAP = 1024
_verify_memo: Dict[Tuple[bytes, bytes, bytes], bool] = {}


def _remember(key: Tuple[bytes, bytes, bytes], ok: bool) -> None:
    """Store one verify answer, evicting the oldest entry to make room for a new key."""
    if key not in _verify_memo and len(_verify_memo) >= VERIFY_MEMO_CAP:
        _verify_memo.pop(next(iter(_verify_memo)))
    _verify_memo[key] = ok


def verify(public: PublicKey, message: bytes, signature: Signature) -> bool:
    """True iff ``signature`` was made by the private half of ``public``.

    Total: malformed keys, messages or signatures return False, never
    raise. Results, True and False alike, are memoised in a FIFO memo of at
    most ``VERIFY_MEMO_CAP`` entries keyed by the exact bytes of all three
    inputs, so a repeated check (the same commitment verified by every
    miner, or again when a block is applied) costs one dict lookup. ``sign``
    records each signature it makes under a public key that belongs to its
    seed, so the first check of a signature made in this process is a
    lookup too; any other signature meets the real Ed25519 check.
    """
    if not isinstance(public, (bytes, bytearray)) or len(public) != PUBLIC_KEY_LEN:
        return False
    if not isinstance(signature, (bytes, bytearray)) or len(signature) != SIGNATURE_LEN:
        return False
    if not isinstance(message, (bytes, bytearray)):
        return False
    key = (bytes(public), bytes(message), bytes(signature))
    ok = _verify_memo.get(key)
    if ok is not None:
        return ok
    try:
        Ed25519PublicKey.from_public_bytes(key[0][:32]).verify(key[2], key[1])
        ok = True
    except (InvalidSignature, ValueError):
        ok = False
    _remember(key, ok)
    return ok


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """Issuer's signature binding a subject public key."""

    subject_pk: PublicKey
    issuer_pk: PublicKey
    signature: Signature

    def to_bytes(self) -> bytes:
        parts = (self.subject_pk, self.issuer_pk, self.signature)
        sizes = (PUBLIC_KEY_LEN, PUBLIC_KEY_LEN, SIGNATURE_LEN)
        if not all(isinstance(part, bytes) and len(part) == n for part, n in zip(parts, sizes)):
            raise ValueError("certificate keys and signature must be bytes of their lengths")
        return b"".join(parts)

    @staticmethod
    def from_bytes(data: bytes) -> "Certificate":
        if len(data) != CERTIFICATE_LEN:
            raise DecodeError(f"certificate must be {CERTIFICATE_LEN} bytes, got {len(data)}")
        r = _Reader(data)
        return Certificate(r.take(PUBLIC_KEY_LEN), r.take(PUBLIC_KEY_LEN), r.take(SIGNATURE_LEN))


def issue_certificate(issuer: KeyPair, subject_pk: PublicKey) -> Certificate:
    return Certificate(
        subject_pk=subject_pk,
        issuer_pk=issuer.public,
        signature=sign(issuer, subject_pk),
    )


def ca_verify(cert: Certificate, ca_pk: PublicKey, subject_pk: PublicKey) -> bool:
    """True iff ``cert`` is a ``Certificate`` by which ``ca_pk`` binds ``subject_pk``.

    The one certificate rule. Total: a value that is not the record (its bytes
    too), another issuer or subject, or a forged signature returns False. The
    key comparisons run before the signature check, the one costly step.
    """
    if not isinstance(cert, Certificate):
        return False
    if cert.issuer_pk != ca_pk or cert.subject_pk != subject_pk:
        return False
    return verify(cert.issuer_pk, cert.subject_pk, cert.signature)


def ca_signed(
    cert: Certificate, ca_pk: PublicKey, signer_pk: PublicKey, message: bytes, signature: Signature
) -> bool:
    """True iff ``ca_pk`` certified ``signer_pk`` and it signed ``message``: the one
    endorsement rule, by which meters install a ``CoE`` and miners check receipt step c."""
    return ca_verify(cert, ca_pk, signer_pk) and verify(signer_pk, message, signature)


# ---------------------------------------------------------------------------
# public-key encryption


@dataclass(frozen=True)
class AsymCiphertext:
    """Hybrid ciphertext addressed to one public key."""

    recipient_pk: PublicKey
    payload: bytes  # ephemeral X25519 public key (32B) + sealed box

    def to_bytes(self) -> bytes:
        """``recipient_pk``, then ``payload`` length-prefixed; raises ValueError
        unless both are ``bytes`` and the key is ``PUBLIC_KEY_LEN`` long, the
        only values that read back, and immutable, as a record's must be."""
        if not isinstance(self.recipient_pk, bytes) or len(self.recipient_pk) != PUBLIC_KEY_LEN:
            raise ValueError(f"ciphertext recipient must be {PUBLIC_KEY_LEN} bytes")
        if not isinstance(self.payload, bytes):
            kind = type(self.payload).__name__
            raise ValueError(f"ciphertext payload must be bytes, got {kind}")
        return self.recipient_pk + _lp(self.payload)

    @staticmethod
    def from_bytes(data: bytes) -> "AsymCiphertext":
        r = _Reader(data)
        recipient = r.take(PUBLIC_KEY_LEN)
        try:
            payload = r.field()
            r.done()
        except DecodeError as exc:
            raise DecodeError(f"ciphertext length mismatch: {exc}") from exc
        return AsymCiphertext(recipient_pk=recipient, payload=payload)


def _session_key(shared: bytes, eph_pub: bytes, recipient_pk: PublicKey) -> bytes:
    return hash_bytes(shared + eph_pub + recipient_pk)


def asym_encrypt(
    recipient_pk: PublicKey, plaintext: bytes, rng: Optional[Random] = None
) -> AsymCiphertext:
    """Encrypt to the holder of ``recipient_pk`` (ECIES-style).

    The ephemeral key comes from ``rng`` when given, keeping simulation
    runs reproducible.
    """
    if len(recipient_pk) != PUBLIC_KEY_LEN:
        raise ValueError("recipient public key must be 64 bytes")
    if rng is None:
        import secrets

        eph_seed = secrets.token_bytes(32)
    else:
        eph_seed = rng.randbytes(32)
    eph_priv = X25519PrivateKey.from_private_bytes(eph_seed)
    eph_pub = eph_priv.public_key().public_bytes_raw()
    recipient_x = X25519PublicKey.from_public_bytes(recipient_pk[32:])
    shared = eph_priv.exchange(recipient_x)
    key = _session_key(shared, eph_pub, recipient_pk)
    # fresh key per message, so a fixed nonce is safe
    box = ChaCha20Poly1305(key).encrypt(b"\x00" * 12, plaintext, None)
    return AsymCiphertext(recipient_pk=recipient_pk, payload=eph_pub + box)


def asym_decrypt(keypair: KeyPair, ciphertext: AsymCiphertext) -> bytes:
    """Open a ciphertext; raises DecryptionError under any wrong key."""
    payload = ciphertext.payload
    if len(payload) < 32 + 16:
        raise DecryptionError("ciphertext too short")
    eph_pub = payload[:32]
    box = payload[32:]
    try:
        shared = keypair._x_private().exchange(X25519PublicKey.from_public_bytes(eph_pub))
        key = _session_key(shared, eph_pub, ciphertext.recipient_pk)
        return ChaCha20Poly1305(key).decrypt(b"\x00" * 12, box, None)
    except (InvalidTag, ValueError) as exc:
        raise DecryptionError("decryption failure") from exc


# ---------------------------------------------------------------------------
# Merkle trees

LEFT = 0
RIGHT = 1


@dataclass(frozen=True)
class MerkleProof:
    """Sibling path proving one leaf belongs to a tree.

    Each sibling carries the side it sits on: ``RIGHT`` means the running
    digest is hashed as (current || sibling), ``LEFT`` as (sibling || current).
    """

    leaf_index: int
    siblings: tuple  # of (digest: bytes, side: int)

    def __len__(self) -> int:
        return len(self.siblings)

    def to_bytes(self) -> bytes:
        """leaf_index (4B big-endian) || count (1B) || side (1B) + digest (32B)
        each; raises ValueError for any other shape, a list of siblings too,
        since a record's values must be immutable."""
        if not isinstance(self.siblings, tuple) or len(self.siblings) > 255:
            raise ValueError("proof siblings must be a tuple of at most 255 pairs")
        if type(self.leaf_index) is not int or not 0 <= self.leaf_index < 1 << 32:
            raise ValueError(f"leaf index {self.leaf_index!r} out of u32 range")
        out = [self.leaf_index.to_bytes(4, "big"), bytes([len(self.siblings)])]
        for sibling in self.siblings:
            if not isinstance(sibling, tuple) or len(sibling) != 2:
                raise ValueError(f"malformed sibling {sibling!r}")
            digest, side = sibling
            if type(side) is not int or side not in (LEFT, RIGHT):
                raise ValueError(f"malformed sibling side {side!r}")
            if type(digest) is not bytes or len(digest) != DIGEST_LEN:
                raise ValueError(f"malformed sibling digest {digest!r}")
            out.append(bytes([side]))
            out.append(digest)
        return b"".join(out)

    @staticmethod
    def from_bytes(data: bytes) -> "MerkleProof":
        r = _Reader(data)
        leaf_index = r.uint(4)
        siblings = []
        for _ in range(r.uint(1)):
            side = r.uint(1)
            if side not in (LEFT, RIGHT):
                raise DecodeError(f"bad side byte {side}")
            siblings.append((r.take(DIGEST_LEN), side))
        r.done()
        return MerkleProof(leaf_index=leaf_index, siblings=tuple(siblings))


@dataclass(frozen=True)
class MerkleTree:
    """Binary hash tree over hashed leaves.

    Leaves are hashed before insertion, internal nodes are
    hash(left || right), and an odd node at any level pairs with a copy of
    itself. A single leaf still goes through one pairing round, so every
    tree has height >= 1.
    """

    levels: tuple  # levels[0] = leaf digests, levels[-1] = (root,)

    @property
    def root(self) -> HashDigest:
        return self.levels[-1][0]

    @property
    def leaf_count(self) -> int:
        return len(self.levels[0])

    @property
    def height(self) -> int:
        return len(self.levels) - 1


def merkle_build(leaves: list) -> MerkleTree:
    """Build a tree over raw leaf byte strings.

    Raises ValueError("empty tree") when no leaves are given.
    """
    if not leaves:
        raise ValueError("empty tree")
    level = [hash_bytes(leaf) for leaf in leaves]
    levels = [tuple(level)]
    while len(level) > 1 or len(levels) == 1:
        nxt = []
        for i in range(0, len(level), 2):
            left = level[i]
            right = level[i + 1] if i + 1 < len(level) else left
            nxt.append(hash_bytes(left + right))
        level = nxt
        levels.append(tuple(level))
    return MerkleTree(levels=tuple(levels))


def merkle_prove(tree: MerkleTree, index: int) -> MerkleProof:
    """Inclusion proof for the leaf at ``index``; sides encode the path."""
    n = tree.leaf_count
    if not 0 <= index < n:
        raise ValueError(f"leaf index {index} out of range for {n} leaves")
    siblings = []
    i = index
    for level in tree.levels[:-1]:
        if i % 2 == 0:
            sib = level[i + 1] if i + 1 < len(level) else level[i]
            siblings.append((sib, RIGHT))
        else:
            siblings.append((level[i - 1], LEFT))
        i //= 2
    return MerkleProof(leaf_index=index, siblings=tuple(siblings))


def merkle_verify(root: HashDigest, leaf: bytes, proof: MerkleProof) -> bool:
    """Fold the hashed leaf through the proof and compare against ``root``.

    Total: any mismatch or malformed proof returns False.
    """
    try:
        siblings = proof.siblings
        for digest, side in siblings:
            if (
                not isinstance(digest, (bytes, bytearray))
                or len(digest) != DIGEST_LEN
                or side not in (LEFT, RIGHT)
            ):
                return False
        sha256 = hashlib.sha256
        current = sha256(leaf).digest()
        for digest, side in siblings:
            if side == RIGHT:
                current = sha256(current + digest).digest()
            else:
                current = sha256(digest + current).digest()
        return current == root
    except (TypeError, AttributeError, ValueError):
        return False
