"""Golden digests: every preset's chain dump and ``metrics.kv`` stay byte-identical.

The SHA-256 values below were recorded before the pending-DB and verify
caches existed; the honest ones (``none`` and the honest workload) were
re-recorded when buyers began to drop an offer once they hear its
producer's claim. The ``metrics.kv`` halves of ``none``,
``malicious_producer``, ``malicious_consumer``, ``coe_forgery`` and the
honest workload were re-recorded again when each commitment began to
travel routed to its offer: every routed commitment adds one envelope to
``messages_routed``, ``messages_delivered``, ``naive_broadcast_messages``,
``trace_hops_total`` and the ``load.*`` lines, and
``ctp_declined_mismatch`` now counts only a commitment that names no
contract of the offer it is addressed to while that offer holds an
unclaimed one at its price. No chain dump moved. A change that only makes
the program faster must leave every one of them unchanged; a change that
alters protocol behaviour on purpose re-records them and says why.
"""

import hashlib

import pytest

from gridtrade.sim import preset, run_scenario
from gridtrade.sim.scenarios import SCENARIOS

# (preset, seed) -> (sha256 of chain_dump, sha256 of metrics.render_kv())
GOLDEN = dict([
    (("none", 1), ("526c83369b7f69e1e48a965e449a6175270b8fd116a3d6e7d7735467850c20ca", "072e69f26b441ada662fc50513b187bc919582954d9fb14e223aa2884ba53905")),
    (("none", 2), ("5d84db7e4a5dcd171367b46586f35b2fe8540a26da6742033cc50c275a892302", "8362ccd020ca5b623aae6d71d6c5e1728cad2debc98a8275c77ac8fe2b479d20")),
    (("malicious_producer", 1), ("dddc6d7d1338a7a09a52f702cb1d8d83f6ac6c082a5a13cb1380cf1fce1e6359", "c99bb72a291f5ac56ba3d82b68876c4d2624a98eac90e897780c4cff152f7185")),
    (("malicious_producer", 2), ("da6648e957cb6186f49a81d0bdfebc570b96cbb3632286dd2da5c06f0f856e33", "2068e674ec795254eed053eb1166b8fd1c61362958561f02e3a57f57afa15d14")),
    (("malicious_consumer", 1), ("c00280119b31c74576ed1482cbde13741b4802b78b330422d1d1335f25a21b59", "900cf9a2d3f1fed9e13df7cec801eac35d7690ffe7249f3add8953cc952ea76f")),
    (("malicious_consumer", 2), ("0442f84138d9f0bcb62879e6f1c55bfda3a4fbd9256d453bfe9acb1d4e67ddd0", "806af997a3bd6c07d6ebc250d6ff022fd578091b6abc5f8314bc0794919795ca")),
    (("coe_forgery", 1), ("0ecfd27ae075a963ac3350907bf3eaa9a5d1068f8ea85dacd45ecb5ebff23ef8", "a2fc7afc48f10c98a663b3768a6b6c11189177d8107331d934aa6348f26db86b")),
    (("coe_forgery", 2), ("86e81eae3ae6f8b6482070cb25745f43eca404db977b8dbd760a7efaff61bcd0", "3ef7e5620703e5f883b71690282415b924c2fc1af0db8ee479cd25cb2111632c")),
    (("double_spend", 1), ("b0351a583390ccf6518dda9d36bf28d7785dec92b53f878f2adb4b8bc5bf3bc5", "4810c671353f998aad0fb31afc83b74a5fbf0bbddbf95b2967d7ef50f3aff629")),
    (("double_spend", 2), ("b4235f660c74abcae11e8386dae1b63fbf293bd3debe70cccde20df2993e6617", "72db304df6451be2f6ebeb41a3d50f29e2d993bac0de7c2f653ab1a5ccb73d5c")),
    (("negotiation_flood", 1), ("9db65b889699e3360e76dc9634cfeb43f83cbc8db2e34c91ef533b8e978f4e8b", "ad80d038c6292f1dd839c48cb9e33a313c6ced94c53d09892385bb6825c705be")),
    (("negotiation_flood", 2), ("33f035c16497e9aac3e22b90bc7ef8974814a6e998965769238a27e5e5f81169", "c0beeacb9979d2f17e9ba29038a506f5cebef5d83d2286e5b8f3d3c3344c89c0")),
    (("routing_overload", 1), ("c1935af227bf1f990ac21bc39a06954a0236d2ef31527bf5453053630982522c", "fe05cf9c4dc8a3c00995b4b6adf3f88049dd1a55914ac733c91ca8f11e99991d")),
    (("routing_overload", 2), ("2e3d0c0b3740a413fcb725d2d229f536cbcf3f7f893d419560159ca54c417d57", "aaa5c98abd502ebc9ae5efb71c459524f392d87b7cca82ecb528eaae7d73220e")),
])


# The routing benchmark workload at seed 1, recorded before routed messages
# moved from a heap to per-tick delivery lists and owner lookups were
# memoized. At this scale the table widens with messages still in flight.
ROUTING_CHATTER = dict(producers=16, chatter_nodes=32, backbones=8, ticks=6000)
ROUTING_CHATTER_GOLDEN = (
    "5c557eb2229a59730005a7f9c4eef5f3e42f4e2520bc754363305d366f748f7a",
    "903628bdc150ccda7d33a6c1b6ba9cc50cdaeec7bc71cc7bf8c2a4c74a93335a",
)


# The honest benchmark workload at seeds 1 and 6, recorded once buyers dropped
# offers named by a producer's claim, the metrics half again once commitments
# were routed to their offers. At this scale many consumers scan the
# book and several receipts fall due in one tick, which the small presets
# above do not exercise.
HONEST_N32 = dict(producers=32, consumers=32, miners=5, backbones=4, ticks=1500)
HONEST_N32_GOLDEN = {
    1: (
        "695465874a691656c92de75617d893500edbb9466d07e3470a21db495e55c0b2",
        "b554cf92ade26d556355aebb3645f0bca3f35a464f1f6a7b86ff3110a82680a4",
    ),
    6: (
        "9f7ef63946238db3044ec74addf82f68573112232b9d50456f4e9e1a061272d4",
        "25429ce5a30d667a1a2e99483ce30f7a49a9782716b1c42487a7ce5fe1f5d6d9",
    ),
}


def _digests(result):
    dump_sha = hashlib.sha256(result.chain_dump).hexdigest()
    kv_sha = hashlib.sha256(result.metrics.render_kv().encode()).hexdigest()
    return dump_sha, kv_sha


def test_every_preset_is_pinned():
    assert {attack for attack, _ in GOLDEN} == set(SCENARIOS)


@pytest.mark.parametrize("attack,seed", sorted(GOLDEN))
def test_chain_dump_and_metrics_match_golden(attack, seed):
    result = run_scenario(preset(attack, seed=seed))
    assert _digests(result) == GOLDEN[(attack, seed)]


def test_routing_chatter_workload_matches_golden():
    result = run_scenario(preset("routing_overload", seed=1, **ROUTING_CHATTER))
    assert result.metrics.get("rebalances") >= 1
    assert _digests(result) == ROUTING_CHATTER_GOLDEN


# The same workload at held-out seed 11, recorded before endpoints began to
# drop pings on their tag byte.
ROUTING_CHATTER_SEED_11_GOLDEN = (
    "9e83bed6f2405e2e9ab082092fc73c770a175e9f268375c78a30798734095784",
    "6c8f5d67705a1bec6ccb92913d5dfae6a86fc7922b76bdc84f77afa36169e91f",
)


def test_routing_chatter_workload_matches_golden_at_seed_11():
    result = run_scenario(preset("routing_overload", seed=11, **ROUTING_CHATTER))
    assert result.metrics.get("rebalances") >= 1
    assert _digests(result) == ROUTING_CHATTER_SEED_11_GOLDEN


@pytest.mark.parametrize("seed", sorted(HONEST_N32_GOLDEN))
def test_honest_n32_workload_matches_golden(seed):
    result = run_scenario(preset("none", seed=seed, **HONEST_N32))
    assert _digests(result) == HONEST_N32_GOLDEN[seed]


# The pending-commitment benchmark workload at seeds 1 and 11, recorded before
# miners applied and rolled back blocks in place. About 80 commitments stay
# pending all run, and each tip swap re-submits them in admission order, so
# these pins see any change to the order of the pending entries.
CTP_BURST = dict(consumers=32, double_spend_ctps=20, miners=5, ticks=1500, ctp_default_ttl=1400)
CTP_BURST_GOLDEN = {
    1: (
        "5f7d416bfa8340d47b7aff9c0218a9c32523b20c100111aada43b82f89f413f6",
        "592ebac88bd3d00260d47e233fbc27d2fa6ceafab0bf11b1c60acc6898437688",
    ),
    11: (
        "c11cd675e2f3f519a544af3776ac42281c7793a6ba9911e0117882b9d9570ca6",
        "49d38c248b12bb680ea414b09eac603dd749b2c33764775cced90d63a5b93393",
    ),
}


@pytest.mark.parametrize("seed", sorted(CTP_BURST_GOLDEN))
def test_ctp_burst_workload_matches_golden(seed):
    result = run_scenario(preset("double_spend", seed=seed, **CTP_BURST))
    assert _digests(result) == CTP_BURST_GOLDEN[seed]
