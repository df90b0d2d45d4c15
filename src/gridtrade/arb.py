"""Routing backbone: deliver messages by destination public key.

Resource-rich backbone nodes partition the space of routing bytes (the
first ``x`` bytes of a public key) through a shared table. Regular nodes
join the backbone responsible for each of their keys with a signed join
message, and any message addressed to a key travels origin -> entry
backbone -> responsible backbone -> destination endpoint, at most three
hops over the full-mesh backbone while the table stays fixed. A message
still in flight when the table widens can take one more backbone hop,
because the backbone it was forwarded to may no longer own the key.
``Mesh.next_hop`` is the one routing decision every backbone makes.

Each table memoizes its owner lookups by the whole key, so a repeated key
costs one dict lookup and each distinct key one slice and bisect per
table: the memo holds one entry per distinct key looked up on that table.
A table is never changed once built; widening installs a new table, whose
memo starts empty.

Widening ``x`` rebuilds the table at finer granularity, cut along the
load histogram of the overloaded window: observed traffic spreads evenly
and the overloaded node takes the slimmest slice. The result is a total,
disjoint partition, and skewed key populations can defeat the balancing,
which callers surface as a metric rather than an error. The widening rule
is ``Mesh.maybe_widen``, which the simulator asks once per tick: the
busiest backbone's window past ``OVERLOAD_THRESHOLD`` widens ``x`` by one
byte, at most to ``MAX_X``. The traffic window feeds nothing but that
rule, so a backbone keeps it only while the table is narrower, and the
rule reads the windows again only once one of them was fed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from .crypto import PUBLIC_KEY_LEN, KeyPair, PublicKey, Signature
from .transactions import (
    BytesField,
    Declared,
    DecodeError,
    NegotiationMsg,
    TAG_NEGOTIATION,
    TextField,
    check_id_and_signature,
    decode_canonical,
    signed,
)


_NEGOTIATION_PREFIX = bytes([TAG_NEGOTIATION])


def negotiation_round(payload) -> Optional[int]:
    """Round counter of a negotiation payload (object or canonical bytes)."""
    if isinstance(payload, (bytes, bytearray)):
        if payload[:1] != _NEGOTIATION_PREFIX:
            return None
        try:
            return decode_canonical(bytes(payload)).round
        except DecodeError:
            return None
    return payload.round if isinstance(payload, NegotiationMsg) else None


def routing_value(pk: PublicKey, x: int) -> int:
    """Integer value of the first ``x`` bytes of a public key."""
    return int.from_bytes(pk[:x], "big")


@dataclass(frozen=True)
class DHTTable:
    """Total, disjoint assignment of routing-byte values to backbone nodes.

    ``bounds[i]`` is the first value of range i; range i covers
    [bounds[i], bounds[i+1]) with the last range ending at 256**x.
    """

    x: int
    bounds: Tuple[int, ...]
    owners: Tuple[str, ...]
    # whole key -> owner, filled by ``owner_of``
    _owner_memo: Dict[bytes, str] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def space(self) -> int:
        return 1 << (8 * self.x)

    def owner_of_value(self, value: int) -> str:
        idx = bisect_right(self.bounds, value) - 1
        return self.owners[idx]

    def owner_of(self, pk: PublicKey) -> str:
        """Owner of ``pk``; a key that is not ``bytes`` raises TypeError and
        leaves the memo as it was."""
        owner = self._owner_memo.get(pk)
        if owner is None:
            if not isinstance(pk, bytes):
                raise TypeError(f"a routing key is bytes, not {type(pk).__name__}")
            owner = self._owner_memo[pk] = self.owner_of_value(
                int.from_bytes(pk[: self.x], "big")
            )
        return owner

    def ranges(self) -> List[Tuple[int, int, str]]:
        """(first value, last value, owner) triples covering the space."""
        out = []
        for i, owner in enumerate(self.owners):
            lo = self.bounds[i]
            hi = (self.bounds[i + 1] if i + 1 < len(self.bounds) else self.space) - 1
            out.append((lo, hi, owner))
        return out

    def value_share(self, node_id: str) -> int:
        """How many routing-byte values the node owns."""
        return sum(hi - lo + 1 for lo, hi, owner in self.ranges() if owner == node_id)


def build_dht(backbone_ids: List[str], x: int) -> DHTTable:
    """Split the routing-byte space into equal contiguous ranges.

    Range sizes differ by at most one; assignment follows sorted node ids,
    so the table is deterministic for fixed inputs.
    """
    if not backbone_ids:
        raise ValueError("at least one backbone node required")
    if x < 1:
        raise ValueError("x must be >= 1")
    ids = sorted(backbone_ids)
    space = 1 << (8 * x)
    n = len(ids)
    base, extra = divmod(space, n)
    bounds = []
    cursor = 0
    for i in range(n):
        bounds.append(cursor)
        cursor += base + (1 if i < extra else 0)
    return DHTTable(x=x, bounds=tuple(bounds), owners=tuple(ids))


def rebalance(
    table: DHTTable, new_x: int, load_by_value: Mapping[int, int], overloaded: str
) -> DHTTable:
    """Widen the routing prefix to ``new_x`` bytes and return the new table.

    ``load_by_value`` maps observed new-granularity values to message
    counts; range cuts equalize that load, and the ``overloaded`` node is
    handed the range owning the fewest values.
    """
    if new_x <= table.x:
        raise ValueError(f"new_x {new_x} must exceed current x {table.x}")
    ids = sorted(table.owners)
    if overloaded not in ids:
        raise ValueError(f"overloaded node {overloaded!r} is not in the table")
    n = len(ids)
    space = 1 << (8 * new_x)
    total = sum(load_by_value.values())
    hot_values = sorted(load_by_value)
    bounds = [0]
    acc = 0
    vi = 0
    for i in range(1, n):
        target = total * i / n
        while vi < len(hot_values) and acc + load_by_value[hot_values[vi]] <= target:
            acc += load_by_value[hot_values[vi]]
            vi += 1
        cut = hot_values[vi] if vi < len(hot_values) else space
        # keep cuts strictly increasing so every node owns a nonempty range
        cut = max(cut, bounds[-1] + 1)
        cut = min(cut, space - (n - i))
        bounds.append(cut)

    # the overloaded node gets the slimmest slice; others follow in id order
    sizes = []
    for i in range(n):
        hi = bounds[i + 1] if i + 1 < n else space
        sizes.append((hi - bounds[i], i))
    slim = min(sizes)[1]
    others = (node_id for node_id in ids if node_id != overloaded)
    owners = tuple(overloaded if i == slim else next(others) for i in range(n))
    return DHTTable(x=new_x, bounds=tuple(bounds), owners=owners)


# ---------------------------------------------------------------------------
# join messages


TAG_JOIN = 0x21


@dataclass(frozen=True)
class JoinMessage(Declared):
    """Signed request to associate a public key with an endpoint."""

    pk: PublicKey
    endpoint: str
    sign: Signature

    tag = TAG_JOIN
    signer = "pk"
    wire = (BytesField("pk", PUBLIC_KEY_LEN), TextField("endpoint"))


def make_join(keypair: KeyPair, endpoint: str) -> JoinMessage:
    return signed(JoinMessage(keypair.public, endpoint, b""), keypair)


# ---------------------------------------------------------------------------
# backbone nodes and the mesh


@dataclass
class Delivery:
    """Outcome of routing one payload."""

    delivered: bool
    trace: List[str]
    endpoint: Optional[str] = None
    reason: Optional[str] = None


class BackboneNode:
    """One overlay router: member table, traffic window, mesh links."""

    def __init__(self, node_id: str, offer_limit: int):
        self.node_id = node_id
        self.offer_limit = offer_limit
        self.members: Dict[PublicKey, str] = {}
        self.handled: int = 0  # lifetime messages this node was responsible for
        self.recent: Deque[Tuple[int, PublicKey]] = deque()  # (tick, dest pk) in window

    def join(self, msg: JoinMessage, table: DHTTable) -> Tuple[bool, Optional[str]]:
        """Admit a member; forged, malformed or misrouted joins are refused."""
        if not check_id_and_signature(msg)[0]:
            return False, "impersonation"
        if table.owner_of(msg.pk) != self.node_id:
            return False, "misrouted join"
        self.members[msg.pk] = msg.endpoint
        return True, None

    def note_traffic(self, dest_pk: PublicKey, now: int) -> None:
        self.handled += 1
        recent = self.recent
        recent.append((now, dest_pk))
        cutoff = now - TRAFFIC_WINDOW
        while recent and recent[0][0] <= cutoff:
            recent.popleft()

    def window_load(self) -> int:
        return len(self.recent)

    def window_histogram(self, x: int) -> Dict[int, int]:
        """Observed per-value traffic at ``x``-byte granularity."""
        hist: Dict[int, int] = {}
        for _, pk in self.recent:
            v = routing_value(pk, x)
            hist[v] = hist.get(v, 0) + 1
        return hist


MAX_X = 2  # the widest routing prefix, in bytes, the table may widen to
OVERLOAD_THRESHOLD = 60  # a backbone's window load past which the prefix widens
TRAFFIC_WINDOW = 50  # ticks of traffic a backbone's window holds


class Mesh:
    """Full mesh of backbone nodes sharing one table.

    Stands in for conventional inter-router protocols: any backbone
    reaches any other in a single hop.
    """

    def __init__(self, backbone_ids: List[str], x: int, offer_limit: int):
        self.table = build_dht(backbone_ids, x)
        self.nodes: Dict[str, BackboneNode] = {
            node_id: BackboneNode(node_id, offer_limit) for node_id in backbone_ids
        }
        # one record per widening ``maybe_widen`` made, in order
        self.widenings: List[dict] = []
        # whether ``next_hop`` has fed a window since ``maybe_widen`` last read them
        self._windows_grew = False

    def join(self, node_id: str, msg: JoinMessage) -> Tuple[bool, Optional[str]]:
        return self.nodes[node_id].join(msg, self.table)

    def next_hop(
        self, node_id: str, dest_pk: PublicKey, payload: object, now: int = 0
    ) -> Tuple[str, str]:
        """Decide what backbone ``node_id`` does with a message for dest_pk.

        Returns ("forward", responsible backbone) when another backbone
        owns dest_pk. Otherwise this node is responsible: it counts the
        message in ``handled`` (and, while the table is narrower than
        ``MAX_X``, in its traffic window) and returns ("deliver",
        endpoint), or ("drop", reason) for negotiation payloads past the
        offer limit and for keys with no member.
        """
        table = self.table
        responsible_id = table.owner_of(dest_pk)
        if responsible_id != node_id:
            return "forward", responsible_id
        node = self.nodes[node_id]
        if table.x < MAX_X:  # the window is read only to decide a widening
            node.note_traffic(dest_pk, now)
            self._windows_grew = True
        else:
            node.handled += 1
        # only a negotiation carries a round: a bytes payload with any other
        # tag byte is not read further
        if not isinstance(payload, bytes) or payload[:1] == _NEGOTIATION_PREFIX:
            round_counter = negotiation_round(payload)
            if round_counter is not None and round_counter > node.offer_limit:
                return "drop", "offer limit exceeded"
        endpoint = node.members.get(dest_pk)
        if endpoint is None:
            return "drop", "undeliverable"
        return "deliver", endpoint

    def route(
        self,
        origin: str,
        entry_node_id: str,
        dest_pk: PublicKey,
        payload: object,
        now: int = 0,
    ) -> Delivery:
        """Carry a payload from an origin endpoint to the owner of dest_pk.

        Trace is origin, entry backbone, responsible backbone (skipped if
        identical), destination endpoint.
        """
        trace = [origin, entry_node_id]
        action, target = self.next_hop(entry_node_id, dest_pk, payload, now)
        if action == "forward":
            trace.append(target)
            action, target = self.next_hop(target, dest_pk, payload, now)
        if action == "deliver":
            trace.append(target)
            return Delivery(True, trace, endpoint=target)
        return Delivery(False, trace, reason=target)

    def maybe_widen(self, now: int) -> bool:
        """Widen the prefix by one byte if the busiest backbone's window
        holds more than ``OVERLOAD_THRESHOLD`` messages and the table is
        narrower than ``MAX_X``; the lowest node id wins a tie. A widening
        is cut along the windows' traffic, recorded in ``widenings``, and
        starts every window afresh. Returns whether the table widened.

        Windows change only where ``next_hop`` feeds them, so while none
        was fed since the last call they hold what that call read, and the
        answer is the same: False."""
        if self.table.x >= MAX_X or not self._windows_grew:
            return False
        self._windows_grew = False
        nodes = self.nodes
        hot_id, hot_load = None, -1
        for node_id in sorted(nodes):
            load = nodes[node_id].window_load()
            if load > hot_load:
                hot_id, hot_load = node_id, load
        if hot_load <= OVERLOAD_THRESHOLD:
            return False
        old_table = self.table
        new_x = old_table.x + 1
        histogram: Dict[int, int] = {}
        for node in nodes.values():
            for value, count in node.window_histogram(new_x).items():
                histogram[value] = histogram.get(value, 0) + count
        self.widen(new_x, histogram, overloaded=hot_id)
        for node in nodes.values():
            node.recent.clear()
        self.widenings.append(dict(
            tick=now, hot=hot_id, hot_load=hot_load, x_before=old_table.x, x_after=new_x,
            share_before=old_table.value_share(hot_id) / old_table.space,
            share_after=self.table.value_share(hot_id) / self.table.space,
        ))
        return True

    def widen(self, new_x: int, load_by_value: Mapping[int, int], overloaded: str) -> None:
        """Install the table ``rebalance`` cuts and re-home the members it moves."""
        new_table = rebalance(self.table, new_x, load_by_value, overloaded)
        plan = []
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            for pk in sorted(node.members):
                new_owner = new_table.owner_of(pk)
                if new_owner != node_id:
                    plan.append((pk, node_id, new_owner))
        for pk, old_id, new_id in plan:
            endpoint = self.nodes[old_id].members.pop(pk)
            self.nodes[new_id].members[pk] = endpoint
        self.table = new_table
