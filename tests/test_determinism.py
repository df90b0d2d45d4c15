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


# Every preset at seeds 1 and 2 under 1%, 5% and 10% message loss. These
# runs lose blocks and commitments and contain tip swaps (``none`` seed 2 at
# 1% has three), so most of them fail some verdict: a miner cannot yet
# recover from one lost block. The pins hold the digests, not a pass; they
# see any change to how a lossy run unfolds or is reported.
# (preset, seed, loss rate) -> (sha256 of chain_dump, sha256 of metrics.render_kv())
LOSSY_GOLDEN = dict([
    (("coe_forgery", 1, 0.01), ("fe8bcd96cd422e4e39f593d46ca42eef032aec7da965821844edaef44a843e67", "31550ab235232f25b7519cb5f4c3a03d8e006e302268c095e785f47e78c1c7b4")),
    (("coe_forgery", 1, 0.05), ("353fea693802181431d9b970ada02b472708d2d2831373156a2267678998b0dc", "aca450c11ec876944ed99e4ebc1d079b653d81c5b5fdbc596c72d3a71f63cd9b")),
    (("coe_forgery", 1, 0.1), ("7edda739a099626c3b5a8b2ea04e74c6d5eaeb572c934725e655150336ee2d89", "2a5abea2b57dd64280423294ff2be50e30c8b2947bcac511bdb5b360fb2a4908")),
    (("coe_forgery", 2, 0.01), ("e3fe346e5d79a8ddd38ba2deb4bd4ec98f113f75d3ad3d9608aa0113629b10d3", "9024aa7120103f8c9944b26ef4e7ad7ba49f3e317011cd4e7838e482672672c0")),
    (("coe_forgery", 2, 0.05), ("ec48ce3270791418d2a7659117b5a41372bc32b8603353d3569e022430b11cb3", "e2e642cd1d096ef7f5dc61293104d6e32de71aabb79b57abf81f1957ecebb1d6")),
    (("coe_forgery", 2, 0.1), ("1f703a6d42b7df4ff2ebf29ff5e15a5e3bab1579aaba92164055e16dcae41fb2", "24a0ac7a882d1e3e88a6034e3676db62ac71f482fee9525217620c2cb7f257ac")),
    (("double_spend", 1, 0.01), ("71e8a69f40d6c3b946462c783ba59cb5cd507b6cd6027b089fd85b3eee5a5aad", "1c2791c6724f864c02b85ae2125764e31faee80d8bb4f6ca806d2239a1fc586b")),
    (("double_spend", 1, 0.05), ("71e8a69f40d6c3b946462c783ba59cb5cd507b6cd6027b089fd85b3eee5a5aad", "4ffd715034f5c885541a724c4155c9d16f5b5b02bdfbc9e804edaa97eb1b4143")),
    (("double_spend", 1, 0.1), ("71e8a69f40d6c3b946462c783ba59cb5cd507b6cd6027b089fd85b3eee5a5aad", "a13d9646e039d4725937dce17a192ea6c9149b2abaf50822cf9db29a64428a17")),
    (("double_spend", 2, 0.01), ("d2a1aab83af192caa2c22b80b895b8ec7d267cd27b78092d3b75e92a5b5e20b8", "5e044c53189ef6536bd822a692ea36b9ed15f64c33567e5981ef0df5255b673d")),
    (("double_spend", 2, 0.05), ("28ef9c0bd1ece0c30f553d1c457fd278bd21ab1ad3cfb15307c67b99861339cc", "9003b6190e91c66a80668a4fd9e8b03ebf73c1313310fc540ada7cb20e4823b1")),
    (("double_spend", 2, 0.1), ("28ef9c0bd1ece0c30f553d1c457fd278bd21ab1ad3cfb15307c67b99861339cc", "3f7bd3a800cdc8979d9da00e40dc12f952abe31e862dc6ea20b8cbcf7c9b771c")),
    (("malicious_consumer", 1, 0.01), ("e0ab55a87688fb88ee74c11943f1a09b52eb288ebdfa9d496c0064a57f2f50d0", "808bbc063df80964d3598b7843ceb88d6ee5012f7f77a0970f6a3ce0d06b46ec")),
    (("malicious_consumer", 1, 0.05), ("8b0ea4635c51fdb81cbe8be0c57206d86cd4e93438392c717c8b9c996950285f", "162a028ce0bcd1b7fe134ae7160881fa257f2860040a6d3e673f7f3e77316ea4")),
    (("malicious_consumer", 1, 0.1), ("006c6a1a50803f2466a7293d3badb2ee958440064250a9094bebf4ae9759fd16", "5eae805d03c2e209acdbda826394a12eb0084c0600acfd149e9cd1830ca35f50")),
    (("malicious_consumer", 2, 0.01), ("0442f84138d9f0bcb62879e6f1c55bfda3a4fbd9256d453bfe9acb1d4e67ddd0", "33841f917af019cb96fd9d33e26995f9724fa9216518a3faafab7f98a1e81573")),
    (("malicious_consumer", 2, 0.05), ("c473c3c16a6266d81d3499008ff96fe9d5ee7bc33ecd20ed5b8d1dd0dd63c720", "cffa7cf5c657901d3b44b4b78191aa2908376ea09c4cbca6c3da09a5e1d74da4")),
    (("malicious_consumer", 2, 0.1), ("51c6eb8f4a959bc615ca5a77f5d3db620a2df5fa6a115a4827fa8220b1aeff4d", "4b1da44baed1df7dee201f3f80b86ee30e1d244e9888cc7e73706d5ae81a5d95")),
    (("malicious_producer", 1, 0.01), ("dddc6d7d1338a7a09a52f702cb1d8d83f6ac6c082a5a13cb1380cf1fce1e6359", "6ac00f81b7855d3f68011c8449d8c52f7f4e89223ac38b06026b3efc4fd2003d")),
    (("malicious_producer", 1, 0.05), ("f2061b83c2e3862d9b605c6d3e1ec36d256b149a8e129cddb1e5da23b998198e", "2bf3eccf7854af5cab0181763534bb3161d8e346a8406f22f1019d016976a68d")),
    (("malicious_producer", 1, 0.1), ("dca882c56c8e2044e6aef0294018d73124db789792ef8bcf89d015f6cb564594", "e4baad97d8a48cbf42cceea7143a07cbeeec9d131659d0b2c94effeccb900dd2")),
    (("malicious_producer", 2, 0.01), ("1fc012ad7ad5b02f5a4ffaf0c1c8ed42231991a0261dfd193cb82dfd3073a2a8", "869d9981755abce6d5163ca4e4d490cc525c1dafe8e0538504a618ec32ee24be")),
    (("malicious_producer", 2, 0.05), ("8bd6523f131920843e29a92f906bc7f7029afd44b95359b54adb4ea8433e4081", "fb5e58eb5799b0358f04dcf7b4c7f0f84c5ddffb8000062cf3901f99368d3ba6")),
    (("malicious_producer", 2, 0.1), ("3e129bd4689ef7c0c4d5af5327ded2b9a6ef20ac06acd3d9cbc9f6fc516fc683", "d99fbd026f9420f6ddff155cc9c91b64b7cde948d47a16473c89709176fa12e5")),
    (("negotiation_flood", 1, 0.01), ("77f7553662e67b6d0523b2fe172fdbc4d32579874d8efe16207bd822414a0bf3", "040eafa1806fa087f554dc1460678c50a3d9db3ab94155e658202c32e1081a5b")),
    (("negotiation_flood", 1, 0.05), ("3425779802f4c84fd123442c9859f8586a5ec0e571cd3d58154e1566b11daa51", "c725f8fcc2528c503fe439eaa751fab0df26156d085b74ad5aae011b10cf76c2")),
    (("negotiation_flood", 1, 0.1), ("3425779802f4c84fd123442c9859f8586a5ec0e571cd3d58154e1566b11daa51", "d3779d03bf7dd06f91f66859001d8d91065d1b6b4798036f0c00e77dfcc17e54")),
    (("negotiation_flood", 2, 0.01), ("33f035c16497e9aac3e22b90bc7ef8974814a6e998965769238a27e5e5f81169", "619cf4c68af10ba4497a483fb8b9de60b8438c53063158660b19c315418331a7")),
    (("negotiation_flood", 2, 0.05), ("603aca933c63130ce75fe306a3c652ffe866743883db7851a995dcd8ac5d0df7", "7e8f01405ce55fa411e5d6b1d76a72ca6a847b67555cd851b9d961827788c80c")),
    (("negotiation_flood", 2, 0.1), ("99edafa4bdc506b9067b6ec0c55a070d923cf1d538be285721389b34385c7b64", "81bfe918ec41b7a1f746bd61b42b25229398a80caa64dd143a4097aa01c6bbe1")),
    (("none", 1, 0.01), ("f4d405fd5c245b06829aa10758f8305f91f3956fcba66d1b729e69841d032aa1", "41eb136244bca5991bbfe4eb3a79032e18c6d8acbdc763df89b1f1c13d5094e8")),
    (("none", 1, 0.05), ("7008565ace2a96692b87e22b45514f76726eae840abc477f17f72f5c138a6ab3", "cb14cc8137ef422eecc5dd42d38d777b84b9003977443131ec22d7ca5a7fb313")),
    (("none", 1, 0.1), ("4aef5f5caac9f6553ab78b9128b55f62bd64f8d657336f12fff1a6a21870a292", "67f4e4c8d5f66ab85042f9287cc3e32390fdc3b94f0d7248c76d94b46673db15")),
    (("none", 2, 0.01), ("6bb9f499f82f0bac0b2f004519b5041ccf168aab3537d3f22c7e4302e13ce868", "bfb0cbea74aff46f85fa54384bff3f12c9ef60a82839950c24b00eafacb3aaff")),
    (("none", 2, 0.05), ("60e76d85dd87323a1cccaa8c9636ec22f0b280e03b81f7be2d98958241cad96e", "ba77468950803e994140b0cb0620160d155cebb3ae107780d120090e1441fdb7")),
    (("none", 2, 0.1), ("a9d512e352de23637bae27cdc827a0fb381590242df9a0581883f28f5c0f96e2", "b3fcf16a79897a323b9291938bcdd194cc90b97b64de60720c698ea077ed2a3d")),
    (("routing_overload", 1, 0.01), ("c1935af227bf1f990ac21bc39a06954a0236d2ef31527bf5453053630982522c", "ed9e679469c5d88445fc0daaaadd0bcc38e3e351a0185a208fb815b861d9a9c8")),
    (("routing_overload", 1, 0.05), ("12424f1bb4aaa570c4ab4f79cd325e6b3b9af566a38e5192483c115b70f456c5", "080c6810214c744976421668eb809cd021972f035ce310ac4c93753a7fe829f7")),
    (("routing_overload", 1, 0.1), ("d9ce1df08ff1d45f82fa059493ca58623a43728d4d0e634a4ca61059cc45550e", "f073a01460ee72dcc50d7c7d91129c0f7b53cc7136cae9e864c2351bf7c06a83")),
    (("routing_overload", 2, 0.01), ("2a8f965db9c2b6c428c55dfb5a071f03c714572d9704ed85c4d930e9a4dea2f4", "4adc4bb3e60520708d6f84bfd512ccba8f56faa56c6c0bab6feec3df3df743e1")),
    (("routing_overload", 2, 0.05), ("e9ca5c693b5637961b86937fb4f822d9a4f1d2dec51c017235bd5f311ce8506d", "84180db46e9e981d2acd0a87d0fb2cdaa6b2ec03e091154d7e81f1fac5c67c98")),
    (("routing_overload", 2, 0.1), ("9cdf2fd70722c8d6718bff0f613340d06783cffedaa163cc2aabd5f1dde46604", "9f07ec7d3ec4dddf5449d1f62b9d0e6b4f1d77b636952d1bbf6bbc1720db47b3")),
])


def test_every_preset_is_pinned_under_loss():
    assert {attack for attack, _, _ in LOSSY_GOLDEN} == set(SCENARIOS)


@pytest.mark.parametrize("attack,seed,loss", sorted(LOSSY_GOLDEN))
def test_lossy_run_matches_golden(attack, seed, loss):
    result = run_scenario(preset(attack, seed=seed, message_loss_rate=loss))
    assert _digests(result) == LOSSY_GOLDEN[(attack, seed, loss)]


# The three benchmark workloads at seed 1 under 5% loss, recorded while every
# broadcast copy was a send of its own. Every copy draws its loss in audience
# order, a copy to an actor that does not read it too, so these see any
# change to the order or number of loss draws at a scale the presets above
# do not reach.
# workload -> (preset, overrides, (sha256 of chain_dump, sha256 of metrics.render_kv()))
LOSSY_WORKLOAD_GOLDEN = {
    "honest-n32": ("none", HONEST_N32, (
        "bc8a03d3775bb0589267928d2007f4ba2cb93a70d6bcf079439e1239720caf34",
        "3e67feb2f5194d48275eb3662caa7b7d84dba0d2de366f02d49f61286ff6f8f5",
    )),
    "routing-chatter": ("routing_overload", ROUTING_CHATTER, (
        "871a4746cc1723a2e45635d1aeee6caee2702748cca58fa9c1c842cfa14a5799",
        "e66033384bbed4f4df69753767e90a4d7af7dc7ba414982c9f155c3b0359f521",
    )),
    "ctp-burst": ("double_spend", CTP_BURST, (
        "24858be46a60e451d675aac608ea642b9b95a23895b23b76059779069235fb8a",
        "388542957523e9d4b1c4776f804d568da787d59d2fb7adc2e24ac803f709bd9c",
    )),
}


@pytest.mark.parametrize("workload", sorted(LOSSY_WORKLOAD_GOLDEN))
def test_lossy_workload_matches_golden(workload):
    attack, overrides, golden = LOSSY_WORKLOAD_GOLDEN[workload]
    result = run_scenario(preset(attack, seed=1, message_loss_rate=0.05, **overrides))
    assert result.metrics.get("messages_lost") > 0
    assert _digests(result) == golden


# Every preset at seeds 1 and 2 with four times its producers, consumers and
# chatter nodes, five miners and four backbones. The presets use at most three
# actors of each role, so these runs are the ones that reach the higher
# indices of each attack's behaviour mapping: the malicious consumers'
# no_ctp / bad_hash / silent cycle repeats, and the forger or the flooder is
# one of many. The pins hold the digests, not a pass: ``malicious_consumer``
# seed 2 fails ``silent_consumer_still_pays`` (a rival buyer can reserve an
# offer after a consumer has already committed to it).
SCALED_GOLDEN = dict([
    (("coe_forgery", 1), ("6b99ffd74e85582ef169af8a3c8f6bdbfd0038bcf6183b2629bbbe809f47d99d", "741da5ff1d61a08f0141fc853b97186a1148487b32627cbc1a0a988c908a5964")),
    (("coe_forgery", 2), ("406377fef3ea279319d94dc339daf303a89ceb3d589f5ec43baea29f08751f59", "0066eaac4973c18d9a2d4450bc86139c35754c697e4e9abe2358cbf8310b70f7")),
    (("double_spend", 1), ("cd543d5496188157d6623f3a647228c7d80380bb373bf6ab68e0c9d73c56df56", "adfa9c29f5e55a924828ec04cb0d86f1fd3231e1bc6c88247ac8f4be68a9c35b")),
    (("double_spend", 2), ("86c5ed035c8bc4e5bcd4edf8d22bb060474722a3ef2f10765e36a4c02f8d388b", "cefe98ed6f865243f40042301be9dc612444cfca51c3e36e80d719713aadaad5")),
    (("malicious_consumer", 1), ("197c9eb6932dd376a2ed63ae81aebabc9511f29310fd8ae361b5ab73c9dae147", "fe36f11c55f8d91d6cc878542689d0ef000407195a19c2ca96586b811b319b71")),
    (("malicious_consumer", 2), ("b0eab73a5ae6f3e052939c7136727a98de083e78afb7af15e16ea5bd1b51c508", "9e32258aa1d581cf5c45f1c03a1e52793b00b4758951785c88f9c4b4222e853a")),
    (("malicious_producer", 1), ("346aa23187947cf0f607389fb81554ac227f18c3543dd0b4a094d9893d7c9a70", "cd986aa7906392fd6ecac9e3ab7b8abeef76a613f707e180bb77e01403f392bc")),
    (("malicious_producer", 2), ("007fa6bf285401feeec354a957bb949bc788e36a8e9ef3ce1e92b91427b4fec2", "2cb42e31c083fb1a346aeca71710e6cdbc11c256f115c4330e147ca37438d703")),
    (("negotiation_flood", 1), ("277bdef35c7a4b8d8726762d998b51c6715f1ab280b5fd99becae0157336345c", "19e0e8f2ec1488b639345b962e2dbb104838a9b64d03b3d4ba20331173315a27")),
    (("negotiation_flood", 2), ("26a74f71e645e3b153435015f0dcdf347a8a1a5297af0dd61a52cf5c6bd6f5b5", "4dfd332bcd6049165856639b25d2b213255521182030f65e9ca48a805d38d359")),
    (("none", 1), ("48301826b0498dd84df1bc543f9750d938cd40e45a1e3bb7075dec64852c30c5", "e683de8a0ad0f93246499ff966a081cbeafef62fe58d9a95d9c004b576d71ba2")),
    (("none", 2), ("7c8817a65a6e9cedb96c39e4e4c7b4636b777878a76278215c0567f0fd90fb73", "0dd1d384a50f9ae2b9fa9a2571698c92f6a172231cb2c59fbe1f4dcb7575ad11")),
    (("routing_overload", 1), ("924422777fcaefa9e967f5b70421998219ffd2ea396162ac9a563966934d1f43", "a942a15d17a26fefb65a63a39cf7cefc9b5c36831b9a91f43e12b7952c3bee15")),
    (("routing_overload", 2), ("951caede1069c8223c3a46b48785e87094a8f955bb5720806eca3767d296d66a", "5609e2291207e3b68fede3d7588248d66415c391e9ef2561ac0c1f4117c91a60")),
])


def _scaled(attack, seed):
    base = preset(attack)
    return preset(
        attack,
        seed=seed,
        producers=4 * base.producers,
        consumers=4 * base.consumers,
        chatter_nodes=4 * base.chatter_nodes,
        miners=5,
        backbones=4,
    )


def test_every_preset_is_pinned_at_scale():
    assert {attack for attack, _ in SCALED_GOLDEN} == set(SCENARIOS)


@pytest.mark.parametrize("attack,seed", sorted(SCALED_GOLDEN))
def test_scaled_run_matches_golden(attack, seed):
    result = run_scenario(_scaled(attack, seed))
    assert _digests(result) == SCALED_GOLDEN[(attack, seed)]


# Prosumer runs: a prosumer's producer and consumer share one meter, which the
# consumer half sets up (key pool, endorsement) and the producer half owns
# (joins, receipts). No other pin has a prosumer.
PROSUMERS = dict(producers=2, consumers=2, prosumers=3)
PROSUMERS_LOSSY = dict(producers=4, consumers=4, prosumers=4, message_loss_rate=0.05)
PROSUMER_GOLDEN = dict([
    (("small", 1), ("88a84f1e23bbafbeecc1617b8ff5da84510430abce844210086bfe7cf3c89d9b", "c749fd2e51bd880ab73bed4d3fad736b7f29bc74a43c186a1c2350d3230d5b5b")),
    (("small", 2), ("e9a8612d9936e6071f477af0714197d9a8b14b1548b78be7432a5397a65882f4", "38d3348b551793fded08db996d5a8c22988def097e8394105e310f1de1db69ff")),
    (("lossy", 1), ("8442f9b538979a27f4dc42d1e17e963ef81dd698c1180ed8eccc09c55a6fa8f4", "e42be06268f03f49453495ce92e47429bc62f684e29ea6ac5fc2b44dbd8e7ea0")),
    (("lossy", 2), ("3575d8495833702857e649897a298810cfbbda252bed5c3a100002077ecc4f69", "fd6b7d41ed99a7bf4fea9aa019de4955df689353ae881cb4e6c778636f9a62ec")),
])


@pytest.mark.parametrize("shape,seed", sorted(PROSUMER_GOLDEN))
def test_prosumer_run_matches_golden(shape, seed):
    overrides = PROSUMERS if shape == "small" else PROSUMERS_LOSSY
    result = run_scenario(preset("none", seed=seed, **overrides))
    assert _digests(result) == PROSUMER_GOLDEN[(shape, seed)]
