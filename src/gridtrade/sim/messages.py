"""Payload types carried between simulated actors.

Backbone-routed payloads travel as canonical bytes, exactly as they would
on a real wire: transactions, negotiation messages, verification requests
and endorsements use their canonical encoding, read back through one tag
table, and pings get a one-byte tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..arb import JoinMessage
from ..crypto import PublicKey
from ..ledger import Block, ProducerClaim
from ..meter import CoE, VerificationRequest
from ..transactions import KIND_BY_TAG, DecodeError, Transaction, decode_canonical, encode_canonical

TAG_PING = 0x32
_PING_PREFIX = bytes([TAG_PING])


@dataclass
class TxGossip:
    """A transaction gossiped to the miners, which admit it to their
    mempools or, for a commitment, to their pending databases."""

    tx: Transaction


@dataclass
class ClaimGossip:
    """A producer's claim, gossiped to the miners and the buyers."""

    claim: ProducerClaim


@dataclass
class BlockGossip:
    block: Block


@dataclass
class JoinRequest:
    join: JoinMessage
    reply_to: str


@dataclass
class JoinAck:
    pk: PublicKey
    accepted: bool
    reason: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Ping:
    """Opaque routed traffic used by load scenarios."""

    data: bytes


RoutablePayload = Union[Transaction, VerificationRequest, CoE, Ping]

# every routed record kind, by tag; pings are read apart
_ROUTED_KINDS = {**KIND_BY_TAG, VerificationRequest.tag: VerificationRequest, CoE.tag: CoE}


def encode_routed_payload(payload: RoutablePayload) -> bytes:
    if isinstance(payload, Ping):  # load traffic: by far the most common payload
        return _PING_PREFIX + payload.data
    return encode_canonical(payload)


def decode_routed_payload(data: bytes) -> RoutablePayload:
    """Inverse of ``encode_routed_payload``; raises DecodeError."""
    if not data:
        raise DecodeError("empty routed payload")
    if data[0] == TAG_PING:
        return Ping(data[1:])
    return decode_canonical(data, _ROUTED_KINDS)


@dataclass(slots=True)
class Routed:
    """Envelope moving hop by hop across the backbone toward a public key.

    ``trace`` lists the sender, then every backbone and endpoint the
    envelope reached, so it has taken ``len(trace) - 1`` hops.
    """

    dest_pk: PublicKey
    payload: bytes
    trace: List[str]
