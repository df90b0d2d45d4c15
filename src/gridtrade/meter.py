"""Smart-meter model: anonymous attestation and receipt generation.

Every meter ships with a manufacturer-certified key pair. To sign receipts
without linking them to itself, a meter builds a pool of one-time keys,
commits to them in a Merkle tree, and has a randomly chosen peer meter
(the verifier) sign the root after checking the requester's manufacturer
certificate. That signed root travels with every receipt; the receipt key
is proven to be a tree leaf, and each leaf is spent at most once.

The meter is assumed tamper resistant: it records delivered energy against
a registered contract and will only emit a receipt once the contracted
amount has fully arrived.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional

from .crypto import (
    DIGEST_LEN,
    PUBLIC_KEY_LEN,
    SIGNATURE_LEN,
    AsymCiphertext,
    Certificate,
    HashDigest,
    KeyPair,
    MerkleTree,
    PublicKey,
    Signature,
    asym_decrypt,
    asym_encrypt,
    ca_signed,
    ca_verify,
    DecryptionError,
    issue_certificate,
    merkle_build,
    merkle_prove,
    sign,
)
from .transactions import (
    CTPTx,
    ContractTerms,
    ERCTx,
    BytesField,
    Declared,
    ObjectField,
    check_id_and_signature,
    make_erc,
    signed,
)

TAG_VERIFICATION_REQUEST = 0x30
TAG_COE = 0x31


class MeterError(Exception):
    """A meter refused an operation (incomplete delivery, spent pool, ...)."""


@dataclass(frozen=True)
class MeterIdentity:
    """Manufacturer-issued identity: key pair plus certificate over it."""

    keypair: KeyPair
    manufacturer_cert: Certificate

    @property
    def public(self) -> PublicKey:
        return self.keypair.public


def provision_meter(manufacturer: KeyPair, rng: Random) -> MeterIdentity:
    """Factory step: mint a meter key pair and certify it."""
    keypair = KeyPair.generate(rng)
    return MeterIdentity(
        keypair=keypair, manufacturer_cert=issue_certificate(manufacturer, keypair.public)
    )


@dataclass
class KeyPool:
    """One-time receipt keys committed by a Merkle tree over their publics."""

    pairs: List[KeyPair]
    tree: MerkleTree
    spent: int = 0  # keys are spent in leaf order, so this is the next unused leaf

    @property
    def root(self) -> HashDigest:
        return self.tree.root


@dataclass(frozen=True)
class CoE(Declared):
    """A verifier meter's endorsement of a key-pool root.

    Carries everything a validator needs: the root, the verifier's
    signature over it, and the verifier's manufacturer certificate. Receipts
    carry the same values, and miners judge them by the same ``ca_signed``.
    """

    root: HashDigest
    vm_signature: Signature
    vm_pk: PublicKey
    vm_cert: Certificate

    tag = TAG_COE
    wire = (
        BytesField("root", DIGEST_LEN),
        BytesField("vm_signature", SIGNATURE_LEN),
        BytesField("vm_pk", PUBLIC_KEY_LEN),
        ObjectField("vm_cert", Certificate),
    )

    def verify(self, manufacturer_ca_pk: PublicKey) -> bool:
        return ca_signed(
            self.vm_cert, manufacturer_ca_pk, self.vm_pk, self.root, self.vm_signature
        )


@dataclass(frozen=True)
class VerificationRequest(Declared):
    """Root endorsement request routed to the chosen verifier meter."""

    encrypted_root: AsymCiphertext
    requester_mpk: PublicKey
    requester_cert: Certificate
    sign: Signature

    tag = TAG_VERIFICATION_REQUEST
    signer = "requester_mpk"
    wire = (
        ObjectField("encrypted_root", AsymCiphertext),
        BytesField("requester_mpk", PUBLIC_KEY_LEN),
        ObjectField("requester_cert", Certificate),
    )


@dataclass
class DeliveryRecord:
    """Energy received so far against one contract."""

    contracted_kwh: int
    delivered: int = 0

    @property
    def complete(self) -> bool:
        return self.delivered >= self.contracted_kwh


class SmartMeter:
    """Stateful meter actor: key pools, endorsements, delivery, receipts."""

    def __init__(self, identity: MeterIdentity, rng: Random):
        self.identity = identity
        self.public: PublicKey = identity.public  # the identity is frozen
        self.rng = rng
        self.pool: Optional[KeyPool] = None
        self.coe: Optional[CoE] = None
        self.records: Dict[HashDigest, DeliveryRecord] = {}
        self.contracts: Dict[HashDigest, CTPTx] = {}  # hash -> commitment awaiting a receipt

    # -- key pool and endorsement -------------------------------------------

    def generate_key_pool(self, n: int) -> KeyPool:
        """Mint ``n`` one-time pairs; pool size sets the anonymity level."""
        if n < 1:
            raise ValueError("pool needs at least one key")
        pairs = []
        for _ in range(n):
            pair = KeyPair.generate(self.rng)
            while pair.public == self.identity.public:
                pair = KeyPair.generate(self.rng)
            pairs.append(pair)
        tree = merkle_build([p.public for p in pairs])
        self.pool = KeyPool(pairs=pairs, tree=tree)
        return self.pool

    def make_verification_request(
        self, pool: KeyPool, vm_pk: PublicKey
    ) -> VerificationRequest:
        """Encrypt the pool root to the verifier and sign the request."""
        vr = VerificationRequest(
            encrypted_root=asym_encrypt(vm_pk, pool.root, self.rng),
            requester_mpk=self.identity.public,
            requester_cert=self.identity.manufacturer_cert,
            sign=b"",
        )
        return signed(vr, self.identity.keypair)

    def process_verification_request(
        self, vr: VerificationRequest, manufacturer_ca_pk: PublicKey
    ) -> CoE:
        """Verifier side: check the requester is a real meter, sign the root.

        Raises MeterError for a requester key its manufacturer did not
        certify, a bad signature or a field outside its domain, ciphertext
        not addressed to this meter, or a root that is not a digest.
        """
        if not ca_verify(vr.requester_cert, manufacturer_ca_pk, vr.requester_mpk):
            raise MeterError("not a meter")
        if not check_id_and_signature(vr)[0]:
            raise MeterError("bad request signature")
        try:
            root = asym_decrypt(self.identity.keypair, vr.encrypted_root)
        except DecryptionError as exc:
            raise MeterError("cannot decrypt root") from exc
        if len(root) != DIGEST_LEN:
            raise MeterError("root is not a digest")
        return CoE(
            root=root,
            vm_signature=sign(self.identity.keypair, root),
            vm_pk=self.identity.public,
            vm_cert=self.identity.manufacturer_cert,
        )

    def install_coe(self, coe: CoE) -> None:
        """Install an endorsement of this meter's own pool root by a meter its
        manufacturer certified.

        Raises MeterError for any other: miners refuse every receipt that
        carries one, so delivered energy would go unpaid.
        """
        if self.pool is None or coe.root != self.pool.root:
            raise MeterError("endorsement is not of this meter's pool")
        if not coe.verify(self.identity.manufacturer_cert.issuer_pk):
            raise MeterError("endorsement not signed by a certified meter")
        self.coe = coe

    # -- delivery tracking ------------------------------------------------------

    def register_contract(self, terms: ContractTerms, ctp: CTPTx) -> None:
        """Arm the meter for a trade: it now tracks delivery for this contract."""
        self.contracts[ctp.contract_hash] = ctp
        self.records.setdefault(ctp.contract_hash, DeliveryRecord(terms.energy_amount))

    def record_delivery(self, contract_hash: HashDigest, kwh: int) -> DeliveryRecord:
        """Accumulate received energy; flips complete at the contracted amount."""
        if kwh < 0:
            raise ValueError("kwh must be non-negative")
        record = self.records.get(contract_hash)
        if record is None:
            raise MeterError("unknown contract")
        record.delivered += kwh
        return record

    # -- receipt generation ---------------------------------------------------------

    def generate_erc(self, ctp: CTPTx, now: int) -> ERCTx:
        """Emit a receipt for a completed delivery.

        Spends the lowest unused pool key so no receipt reuses a leaf.
        Refuses while delivery is incomplete, after commitment expiry, or
        once the pool is spent.
        """
        if self.pool is None or self.coe is None:
            raise MeterError("no key pool or endorsement installed")
        record = self.records.get(ctp.contract_hash)
        if record is None or not record.complete:
            raise MeterError("delivery incomplete")
        if ctp.expired(now):
            raise MeterError("commitment expired")
        index = self.pool.spent
        if index == len(self.pool.pairs):
            raise MeterError("pool exhausted - regenerate keys and endorsement")
        leaf_pair = self.pool.pairs[index]
        proof = merkle_prove(self.pool.tree, index)
        erc = make_erc(
            time_stamp=now,
            ctp_id=ctp.t_id,
            price=ctp.price,
            coe_root=self.coe.root,
            coe_vm_sign=self.coe.vm_signature,
            coe_vm_cert=self.coe.vm_cert,
            coe_pk=self.coe.vm_pk,
            merkle_hashes=proof,
            keypair=leaf_pair,
        )
        self.pool.spent += 1
        return erc
