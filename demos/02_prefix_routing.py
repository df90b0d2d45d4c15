"""Routing by public-key prefix.

Blockchain participants have no addresses, only keys. The backbone
partitions the space of leading key bytes; every node joins the backbone
responsible for each of its keys (signed, so nobody can claim another's
key) and messages reach the owner in at most three hops while the table
stays fixed. When one backbone runs hot, the table is rebuilt one byte
wider, cut along the observed load; a message in flight across that
rebuild can take one hop more.

Run:  python demos/02_prefix_routing.py
"""

from random import Random

from gridtrade.arb import Mesh, build_dht, make_join, rebalance, routing_value
from gridtrade.crypto import KeyPair

rng = Random(21)

print("== the routing table ==")
table = build_dht(["substation-A", "substation-B"], x=1)
for lo, hi, owner in table.ranges():
    print(f"  first byte 0x{lo:02x}..0x{hi:02x} -> {owner}")

print("\n== joining and routing ==")
mesh = Mesh([f"substation-{c}" for c in "ABCD"], x=1, offer_limit=5)
members = []
for i in range(12):
    kp = KeyPair.generate(rng)
    owner = mesh.table.owner_of(kp.public)
    accepted, _ = mesh.join(owner, make_join(kp, f"household-{i}"))
    assert accepted
    members.append((kp, f"household-{i}"))
print(f"12 households joined across {len({mesh.table.owner_of(k.public) for k, _ in members})} substations")

src_kp, src_ep = members[0]
dst_kp, dst_ep = members[7]
outcome = mesh.route(src_ep, mesh.table.owner_of(src_kp.public), dst_kp.public, b"price offer")
print(f"{src_ep} -> {dst_ep}: " + " -> ".join(outcome.trace))

forged = make_join(members[1][0], "mallory")
forged = type(forged)(pk=dst_kp.public, endpoint="mallory", sign=forged.sign)
accepted, why = mesh.join(mesh.table.owner_of(dst_kp.public), forged)
print(f"forged join for someone else's key: accepted={accepted} ({why})")

print("\n== widening under load ==")
table4 = build_dht([f"substation-{c}" for c in "ABCD"], x=1)
traffic = [rng.randbytes(2) + bytes(62) for _ in range(400)]
histogram = {}
for pk in traffic:
    value = routing_value(pk, 2)
    histogram[value] = histogram.get(value, 0) + 1

def load_per_node(tbl):
    counts = {owner: 0 for owner in tbl.owners}
    for pk in traffic:
        counts[tbl.owner_of(pk)] += 1
    return counts

before = load_per_node(table4)
hot = max(sorted(before), key=lambda key: before[key])
print(f"load before: {dict(sorted(before.items()))} (hot: {hot})")
wider = rebalance(table4, 2, load_by_value=histogram, overloaded=hot)
after = load_per_node(wider)
print(f"load after two-byte split: {dict(sorted(after.items()))}")
print("a skewed key population can still defeat this; the table only cuts")
print("along value boundaries, and one value cannot be split")
