"""Simulator: configuration, scenario runs, determinism, and the CLI."""

import functools
import os
import subprocess
import sys
from collections import Counter, deque
from dataclasses import fields, replace
from itertools import count
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtrade import ledger as ledger_module
from gridtrade.arb import make_join
from gridtrade.crypto import KeyPair, hash_bytes, issue_certificate, sign
from gridtrade.ledger import (
    GENESIS_PREV,
    Block,
    Blockchain,
    Miner,
    ProducerClaim,
    make_producer_claim,
)
from gridtrade.sim import (
    ScenarioConfig,
    format_config,
    parse_config,
    preset,
    run_scenario,
)
from gridtrade.sim.actors import CONSUMER_BEHAVIORS, PRODUCER_BEHAVIORS, Actor, TradeAttempt
from gridtrade.sim.cli import main as cli_main
from gridtrade.meter import TAG_COE, CoE
from gridtrade.sim.messages import (
    BlockGossip,
    ClaimGossip,
    JoinAck,
    JoinRequest,
    Ping,
    Routed,
    TxGossip,
    decode_routed_payload,
    encode_routed_payload,
)
from gridtrade.sim.config import ATTACKS
from gridtrade.sim.scenarios import _EVALUATORS, SCENARIOS, erc_refusals, flooded_rounds
from gridtrade.sim.world import World
from gridtrade.transactions import (
    ContractTerms,
    ERCTx,
    GENESIS_CERTIFICATE,
    GenesisTx,
    check_structure,
    compute_contract_hash,
    compute_t_id,
    encode_canonical,
    make_ctp,
    make_negotiation,
    make_supply_energy,
)

from framing import encode_fields


class TestConfig:
    def test_parse_roundtrip(self):
        config = preset("double_spend", seed=9, ticks=123)
        parsed = parse_config(format_config(config))
        assert parsed == config

    def test_comments_and_blanks(self):
        text = "# scenario\nseed=4\n\nticks=50   # short run\nattack=none\n"
        config = parse_config(text)
        assert config.seed == 4 and config.ticks == 50

    @pytest.mark.parametrize(
        "key",
        [
            "bogus",
            # fixed values, now constants in sim/world.py and sim/actors.py
            "x_initial",
            "max_x",
            "overload_threshold",
            "overload_window",
            "burn_threshold",
            "initial_balance",
            "supply_kwh",
            "supply_unit_price",
            "kwh_per_tick",
            "negotiation_timeout",
            "flood_offers",
            "forgery_attempts",
        ],
    )
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(f"{key}=1\n")

    def test_keys_are_the_settings_something_varies(self):
        # adding a key is a reviewed change: extend this list with it
        assert [f.name for f in fields(ScenarioConfig)] == [
            "seed",
            "ticks",
            "producers",
            "consumers",
            "prosumers",
            "miners",
            "backbones",
            "offer_limit",
            "consensus_period",
            "ctp_default_ttl",
            "key_pool_size",
            "attack",
            "supplies_per_producer",
            "message_loss_rate",
            "double_spend_ctps",
            "chatter_nodes",
            "routing_skew",
        ]

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            parse_config("ticks=soon\n")

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError, match="unknown attack"):
            ScenarioConfig(attack="teleport").validate()

    def test_scenario_minima(self):
        with pytest.raises(ValueError):
            ScenarioConfig(attack="none", producers=0, prosumers=0).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(attack="coe_forgery", producers=1).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(miners=0).validate()

    def test_booleans(self):
        assert parse_config("routing_skew=true\n").routing_skew is True
        assert parse_config("routing_skew=off\n").routing_skew is False
        with pytest.raises(ValueError):
            parse_config("routing_skew=maybe\n")


LISTED_SCENARIOS = """\
none                 honest end-to-end trading: offers, negotiation, commitment, delivery, settlement
malicious_producer   producer never delivers; commitment expires and funds release
malicious_consumer   consumers withhold or corrupt commitments; no energy moves unpaid
coe_forgery          attacker replays a genuine endorsement without owning its keys
double_spend         commitment burst past the balance; miners admit only a safe subset
negotiation_flood    offer spam beyond the limit is dropped at the backbone
routing_overload     traffic hot-spot triggers prefix widening; load shares recorded
"""


class TestAttackRecords:
    """Each attack is one record in ``config.ATTACKS``; its verdicts are the
    one part that lives in ``scenarios.py``."""

    def test_records_name_only_behaviours_the_actors_define(self):
        keys = {f.name for f in fields(ScenarioConfig)}
        for name, attack in ATTACKS.items():
            # twelve indices cover every cycle and first-actor rule
            assert {attack.producer(i) for i in range(12)} <= set(PRODUCER_BEHAVIORS), name
            assert {attack.consumer(i) for i in range(12)} <= set(CONSUMER_BEHAVIORS), name
            assert attack.consumer_count in keys, name
            assert set(attack.preset) <= keys, name

    def test_every_record_has_its_verdicts(self):
        assert list(_EVALUATORS) == list(ATTACKS) == list(SCENARIOS)

    @pytest.mark.parametrize("name", list(ATTACKS))
    def test_preset_validates(self, name):
        config = preset(name)
        config.validate()
        assert config.attack == name

    def test_list_scenarios_text(self, capsys):
        assert cli_main(["list-scenarios"]) == 0
        assert capsys.readouterr().out == LISTED_SCENARIOS

    def test_unknown_attack_message(self):
        with pytest.raises(ValueError) as raised:
            ScenarioConfig(attack="teleport").validate()
        assert str(raised.value) == (
            "unknown attack 'teleport'; choose from ('none', 'malicious_producer', "
            "'malicious_consumer', 'coe_forgery', 'double_spend', 'negotiation_flood', "
            "'routing_overload')"
        )

    @pytest.mark.parametrize(
        "attack, overrides, message",
        [
            ("none", dict(producers=0), "attack 'none' needs a producer and a consumer"),
            ("none", dict(consumers=0), "attack 'none' needs a producer and a consumer"),
            (
                "malicious_producer", dict(consumers=0),
                "attack 'malicious_producer' needs a producer and a consumer",
            ),
            (
                "malicious_consumer", dict(producers=0),
                "attack 'malicious_consumer' needs a producer and a consumer",
            ),
            # the shared check comes first, so it names what a config of no
            # producers lacks
            (
                "coe_forgery", dict(producers=0),
                "attack 'coe_forgery' needs a producer and a consumer",
            ),
            (
                "coe_forgery", dict(producers=1),
                "coe_forgery needs an honest producer plus the forger",
            ),
            (
                "double_spend", dict(consumers=0),
                "double_spend needs a consumer to play the spender",
            ),
            (
                "double_spend", dict(double_spend_ctps=0),
                "double_spend needs double_spend_ctps >= 1",
            ),
            (
                "negotiation_flood", dict(producers=0),
                "negotiation_flood needs a target producer and a flooding consumer",
            ),
            ("routing_overload", dict(chatter_nodes=0), "routing_overload needs chatter nodes"),
            ("routing_overload", dict(backbones=1), "routing_overload needs backbones >= 2"),
        ],
    )
    def test_check_messages(self, attack, overrides, message):
        with pytest.raises(ValueError) as raised:
            preset(attack, **overrides).validate()
        assert str(raised.value) == message

    def test_a_prosumer_counts_as_both_traders(self):
        preset("none", producers=0, consumers=0, prosumers=1).validate()


class TestScenarios:
    @pytest.mark.parametrize(
        "attack",
        [
            "none",
            "malicious_producer",
            "malicious_consumer",
            "coe_forgery",
            "double_spend",
            "negotiation_flood",
            "routing_overload",
        ],
    )
    def test_preset_passes(self, attack):
        result = run_scenario(preset(attack, seed=2))
        failures = [v.line() for v in result.metrics.verdicts if not v.passed]
        assert result.passed, failures

    def test_honest_run_settles_trades(self):
        result = run_scenario(preset("none", seed=5))
        assert result.metrics.get("contracts_agreed") >= 1
        assert result.metrics.get("settlements") == result.metrics.get("contracts_agreed")
        assert result.metrics.get("consistency_faults") == 0

    def test_prosumers_compose_both_roles(self):
        config = preset("none", seed=6, producers=1, consumers=1)
        config.prosumers = 1
        result = run_scenario(config)
        assert result.passed, [v.line() for v in result.metrics.verdicts if not v.passed]
        roles = {a.id for a in result.world.step_actors}
        assert "prosumer-0.producer" in roles and "prosumer-0.consumer" in roles

    def test_same_seed_bit_identical(self):
        a = run_scenario(preset("none", seed=7))
        b = run_scenario(preset("none", seed=7))
        assert a.chain_dump == b.chain_dump
        assert a.metrics.render_kv() == b.metrics.render_kv()

    def test_different_seed_diverges(self):
        a = run_scenario(preset("none", seed=8))
        b = run_scenario(preset("none", seed=9))
        assert a.chain_dump != b.chain_dump

    def test_negotiations_never_mined(self):
        from gridtrade.transactions import NegotiationMsg, CTPTx

        result = run_scenario(preset("none", seed=10))
        for actor in result.world.miner_actors:
            for block in actor.miner.chain.blocks:
                for tx in block.txs:
                    assert not isinstance(tx, (NegotiationMsg, CTPTx))

    def test_skewed_overload_records_outcome(self):
        config = preset("routing_overload", seed=11, routing_skew=True)
        result = run_scenario(config)
        assert result.passed, [v.line() for v in result.metrics.verdicts if not v.passed]
        assert "skew_share_before" in result.metrics.notes

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_flood_at_four_times_the_population(self, seed):
        # the flooded offer may belong to any producer, and honest buyers
        # negotiate with the same producers; only the flooder's rounds count
        config = preset(
            "negotiation_flood", seed=seed, producers=4, consumers=4, miners=5, backbones=4
        )
        result = run_scenario(config)
        assert result.passed, [v.line() for v in result.metrics.verdicts if not v.passed]
        (verdict,) = [
            v for v in result.metrics.verdicts if v.name == "destination_sees_offer_limit"
        ]
        assert verdict.detail == "received=5 limit=5"

    def test_every_offer_sells_at_n128(self, monkeypatch):
        # before buyers heard the producers' claims, 122 of 256 offers sold
        # and the contract agreed last was never settled
        trials = Counter()
        mine = Miner.mine

        def counting_mine(miner, now):
            # mine trial-applies the whole mempool unless the period's block is out
            if miner.blocks_this_period < 1 and miner.mempool:
                on_chain = {tx.t_id for block in miner.chain.blocks for tx in block.txs}
                trials["entries"] += len(miner.mempool)
                trials["stale"] += sum(tx.t_id in on_chain for tx in miner.mempool.values())
            return mine(miner, now)

        # messages carried: each unicast send, and each copy of a broadcast,
        # by kind and by the class of the actor it goes to
        carried = Counter()
        send, multicast = World.send, World._multicast

        def counting_send(world, dest_id, payload):
            carried["all"] += 1
            return send(world, dest_id, payload)

        def counting_multicast(world, audience, payload):
            for reader in audience.readers:  # no loss: every copy is kept
                carried["all"] += 1
                carried[type(payload).__name__, type(reader).__name__] += 1
            return multicast(world, audience, payload)

        monkeypatch.setattr(Miner, "mine", counting_mine)
        monkeypatch.setattr(World, "send", counting_send)
        monkeypatch.setattr(World, "_multicast", counting_multicast)
        config = preset(
            "none", producers=128, consumers=128, miners=5, backbones=4, ticks=1500, seed=1
        )
        result = run_scenario(config)
        assert result.passed, [v.line() for v in result.metrics.verdicts if not v.passed]
        assert result.metrics.get("offers_posted") == 256
        assert result.metrics.get("settlements") == 256
        # 1,720 sends per settlement while every transaction and claim went to
        # every participant; now gossip reaches only the actors that read it
        assert carried["all"] / 256 <= 557
        assert carried["TxGossip", "MinerActor"] > 0
        assert carried["ClaimGossip", "ConsumerActor"] > 0
        for reader in ("ProducerActor", "ConsumerActor"):
            assert carried["TxGossip", reader] == 0, reader
        assert carried["ClaimGossip", "ProducerActor"] == 0
        # 22,032 stale trial-applies while a tip swap put back what the rival
        # block had mined too; every mined transaction leaves every mempool
        assert trials["entries"] > 0
        assert trials["stale"] == 0
        assert all(not actor.miner.mempool for actor in result.world.miner_actors)

    def test_lossy_network_does_not_crash(self):
        config = preset("none", seed=12)
        config.message_loss_rate = 0.05
        world = World(config)
        metrics = world.run()
        assert metrics.get("conservation_violations") == 0


# every preset at seeds 1-2 under 1%, 5% and 10% loss, which swaps tips, plus
# the honest preset at seeds 1-3 without loss
_VIEW_RUNS = [("none", seed, 0.0) for seed in (1, 2, 3)] + [
    (attack, seed, loss)
    for attack in sorted(SCENARIOS)
    for seed in (1, 2)
    for loss in (0.01, 0.05, 0.10)
]


# every preset at seeds 1-2, and a run where one requester meter is another
# meter's verifier, so that meter's key is on the chain (in a receipt's coe_pk)
LINKAGE_RUNS = [(attack, seed, 0) for attack in SCENARIOS for seed in (1, 2)] + [("none", 1, 2)]


@pytest.mark.parametrize(
    "attack,seed,prosumers", LINKAGE_RUNS, ids=[f"{a}-{s}-p{p}" for a, s, p in LINKAGE_RUNS]
)
def test_no_receipt_names_the_meter_that_emitted_it(attack, seed, prosumers):
    result = run_scenario(preset(attack, seed=seed, prosumers=prosumers))
    world = result.world
    meters = {a.meter.public: a.meter for a in world.step_actors if a.meter is not None}
    by_root = {m.pool.root: m for m in meters.values() if m.pool is not None}
    reference = world.miner_actors[0].miner
    receipts = [tx for b in reference.chain.blocks for tx in b.txs if isinstance(tx, ERCTx)]
    assert len(receipts) == len(reference.ledger.settlements)
    for erc in receipts:
        emitter = by_root[erc.coe_root]
        encoded = encode_canonical(erc)
        assert emitter.public not in encoded
        assert emitter.identity.manufacturer_cert.to_bytes() not in encoded
        assert erc.coe_pk in meters and erc.coe_pk != emitter.public


class TestContractView:
    """``World.contracts`` is derived from the traders' records and the
    reference miner's settlements; here it is checked against the chain."""

    @pytest.mark.parametrize("attack,seed,loss", _VIEW_RUNS)
    def test_view_matches_the_chain(self, attack, seed, loss):
        result = run_scenario(preset(attack, seed=seed, message_loss_rate=loss))
        world, m = result.world, result.metrics
        named = {
            ctp.t_id: ctp.contract_hash
            for consumer in world.consumer_actors
            for ctp in consumer.sent_ctps
        }
        chain = Blockchain.load_bytes(result.chain_dump)
        receipts = [
            tx.ctp_id for block in chain.blocks for tx in block.txs if isinstance(tx, ERCTx)
        ]
        receipts_per_hash = Counter(named[ctp_id] for ctp_id in receipts)
        produced = {h for p in world.producer_actors for h in p.contracts}
        agreed = {h for c in world.consumer_actors for h in c.agreements}
        view = world.contracts
        assert set(view) == produced | agreed
        for h, record in view.items():
            assert record["contract_hash"] == h
            assert record["settled"] == receipts_per_hash[h]
            assert record["counted"] == (h in produced and h in agreed)
        assert len(receipts) == m.get("ctp_settled")
        assert m.get("settlements") == m.get("ctp_settled")
        assert m.get("contracts_agreed") == len(produced & agreed)


class Endpoint(Actor):
    """A joined member that records the envelopes delivered to it."""

    def __init__(self, actor_id: str, world):
        super().__init__(actor_id, world)
        self.received = []

    def on_message(self, payload, now: int) -> None:
        self.received.append(payload)


def _deliver_all(world: World) -> None:
    """Advance tick by tick through the world's own delivery until nothing is due."""
    while world._outbox:
        world.now += 1
        world.deliver_due(world.now)


class Relay(Actor):
    """Logs each message id it gets, then sends the follow-ups ``plan`` names.

    Message ids count sends in order, starting at 1; message k, once
    delivered, sends one message to each relay index in ``plan[k]``.
    """

    def __init__(self, actor_id: str, world, plan, ids, log):
        super().__init__(actor_id, world)
        self.plan, self.ids, self.log = plan, ids, log

    def on_message(self, payload, now: int) -> None:
        self.log.append((now, self.id, payload))
        for relay in self.plan[payload] if payload < len(self.plan) else ():
            self.world.send(f"relay-{relay}", next(self.ids))


def _fifo_order(plan):
    """Reference: one FIFO queue, where a message sent on tick t arrives
    on tick t + 1, so messages arrive tick by tick, in send order."""
    ids, log = count(1), []
    queue = deque((1, next(ids), f"relay-{relay}") for relay in plan[0])
    while queue:
        tick, msg, dest = queue.popleft()
        log.append((tick, dest, msg))
        for relay in plan[msg] if msg < len(plan) else ():
            queue.append((tick + 1, next(ids), f"relay-{relay}"))
    return log


_sends = st.lists(st.integers(0, 2), max_size=3)


class TestDeliveryOrder:
    @settings(max_examples=150, deadline=None)
    @given(plan=st.lists(_sends, min_size=1, max_size=30))
    def test_delivery_order_is_tick_then_send_order(self, plan):
        world = World(preset("none", seed=5))
        ids, log = count(1), []
        for i in range(3):
            world.actors[f"relay-{i}"] = Relay(f"relay-{i}", world, plan, ids, log)
        for relay in plan[0]:
            world.send(f"relay-{relay}", next(ids))
        _deliver_all(world)
        assert log == _fifo_order(plan)


class TestBroadcastCopies:
    """A broadcast is one outbox entry, delivered only to the actors that
    read gossip; under loss it must draw, lose and deliver exactly what one
    send per copy to its whole audience did."""

    @staticmethod
    def _run(per_copy: bool):
        """Broadcasts of each kind, with unicast sends between them, on a
        world at 50% loss whose chatter nodes read no gossip. Each handler
        only logs (tick, actor id, payload), and a reader that gets the
        claim ``"ping"`` answers with a transaction broadcast of its own.
        ``per_copy`` sends each copy to every actor addressed, in audience
        order, as ``World`` did before a broadcast was one entry."""
        world = World(preset("routing_overload", seed=3, message_loss_rate=0.5))
        miners, consumers = world.miner_actors, world.consumer_actors
        audiences = {
            TxGossip: miners,
            ClaimGossip: [*miners, *consumers],
            BlockGossip: [*miners, *world.producer_actors, *consumers],
        }
        broadcasts = {
            TxGossip: world.broadcast_tx,
            ClaimGossip: world.broadcast_claim,
            BlockGossip: world.broadcast_block,
        }

        def broadcast(kind, value):
            if not per_copy:
                broadcasts[kind](value)
                return
            gossip = kind(value)
            for actor in audiences[kind]:
                world.send(actor.id, gossip)

        log = []

        def logging_handler(actor):
            def on_message(payload, now):
                log.append((now, actor.id, payload))
                if actor.reads_gossip and payload == ClaimGossip("ping"):
                    broadcast(TxGossip, f"reply from {actor.id}")

            return on_message

        for actor in world.actors.values():
            actor.on_message = logging_handler(actor)
        for now in range(3):
            for i in range(8):
                for kind in (TxGossip, ClaimGossip, BlockGossip):
                    broadcast(kind, f"{kind.__name__} {now}/{i}")
                world.send(world.producer_actors[i % 6].id, f"unicast {now}/{i}")
            broadcast(ClaimGossip, "ping")
            world.deliver_due(now)
        world.deliver_due(3)
        assert not world._outbox
        return world, log

    def test_a_broadcast_draws_loses_and_delivers_as_a_send_per_copy(self):
        world, log = self._run(per_copy=False)
        reference, reference_log = self._run(per_copy=True)
        assert world._loss_rng.getstate() == reference._loss_rng.getstate()
        lost = world.metrics.get("messages_lost")
        assert lost == reference.metrics.get("messages_lost") > 0
        readers = {a.id for a in world.actors.values() if a.reads_gossip}
        assert {a.behavior for a in world.consumer_actors} == {"chatter"}
        assert not readers & {a.id for a in world.consumer_actors}
        # the readers get the same copies in the same order, and nothing else
        # gets any; the reference's chatter nodes got some that are not kept
        assert log == [entry for entry in reference_log if entry[1] in readers]
        assert len(log) < len(reference_log)
        replies = [(now, payload) for now, _, payload in log if "reply" in str(payload)]
        pings = [now for now, _, payload in log if payload == ClaimGossip("ping")]
        assert replies and pings
        # a copy sent while a broadcast is delivered waits for the next tick
        assert {now for now, _ in replies} <= {now + 1 for now in pings}


class TestSimulatedRouting:
    """The backbone actors route by the same decision as ``Mesh.route``."""

    def _world_with_members(self, count: int):
        world = World(preset("none", seed=5, backbones=4))
        rng = Random(606)
        members = []
        for i in range(count):
            kp = KeyPair.generate(rng)
            endpoint = Endpoint(f"endpoint-{i}", world)
            world.actors[endpoint.id] = endpoint
            owner = world.mesh.table.owner_of(kp.public)
            accepted, reason = world.mesh.join(owner, make_join(kp, endpoint.id))
            assert accepted, reason
            members.append((kp, endpoint))
        return world, members, rng

    def test_delivered_traces_match_mesh_route(self):
        world, members, _ = self._world_with_members(12)
        hops, lengths = 0, set()
        for src_kp, src in members:
            for dst_kp, dst in members:
                world.send_routed(src, src_kp.public, dst_kp.public, Ping(b"audit"))
                _deliver_all(world)
                (env,) = dst.received
                dst.received.clear()
                expected = world.mesh.route(
                    src.id, world.mesh.table.owner_of(src_kp.public), dst_kp.public, env.payload
                )
                assert expected.delivered and expected.endpoint == dst.id
                assert env.trace == expected.trace
                hops += len(env.trace) - 1
                lengths.add(len(env.trace))
        assert lengths == {3, 4}  # entry backbone responsible, and one forward
        assert world.metrics.get("messages_delivered") == len(members) ** 2
        assert world.metrics.get("trace_hops_total") == hops
        assert world.metrics.get("routing_loops") == 0

    def test_drops_bump_their_counters(self):
        world, members, rng = self._world_with_members(2)
        (src_kp, src), (dst_kp, dst) = members
        entry = world.mesh.table.owner_of(src_kp.public)
        over_limit = make_negotiation(dst_kp.public, 5, 0, world.config.offer_limit + 1, src_kp)
        world.send_routed(src, src_kp.public, dst_kp.public, over_limit)
        stranger = KeyPair.generate(rng).public
        world.send_routed(src, src_kp.public, stranger, Ping(b"audit"))
        _deliver_all(world)
        assert dst.received == []
        assert world.metrics.get("dropped_offer_limit") == 1
        assert world.metrics.get("undeliverable") == 1
        assert world.metrics.get("messages_delivered") == 0
        assert world.mesh.route(src.id, entry, dst_kp.public, over_limit).reason == (
            "offer limit exceeded"
        )
        assert world.mesh.route(src.id, entry, stranger, b"").reason == "undeliverable"


class TestJoinAdmission:
    """A backbone actor refuses a join whose fields have the wrong type."""

    @pytest.mark.parametrize("field, value", [("pk", None), ("pk", "s"), ("endpoint", None)])
    def test_wrong_typed_join_is_refused(self, field, value):
        world = World(preset("none", seed=5))
        join = replace(make_join(KeyPair.generate(Random(7)), "consumer-0"), **{field: value})
        world.actors["arb-0"].on_message(JoinRequest(join=join, reply_to="consumer-0"), 0)
        assert world.metrics.get("join_rejected") == 1
        assert world._outbox == [("consumer-0", JoinAck(join.pk, False, "impersonation"))]

    @pytest.mark.parametrize("join", [None, b"join", ("pk", "consumer-0", b"")], ids=repr)
    def test_request_without_a_join_message_is_dropped(self, join):
        world = World(preset("none", seed=5))
        world.actors["arb-0"].on_message(JoinRequest(join=join, reply_to="consumer-0"), 0)
        assert world.metrics.get("join_rejected") == 1
        assert not world._outbox  # no ack: there is no key to answer for


def _recount_every_tick(world: World):
    """The invariant checks as they ran before they were gated: every
    ledger recounted from ``entries`` on every tick. Returns the
    (conservation_violations, safety_violations) one tick adds."""
    reference = world.miner_actors[0].miner.ledger
    conservation = int(reference.total_coin() != world.initial_total_coin)
    safety = 0
    for actor in world.miner_actors:
        ledger = actor.miner.ledger
        per_pk = {}
        for tx, _ in ledger.ctp_db.entries.values():
            per_pk[tx.pk] = per_pk.get(tx.pk, 0) + tx.price
        for pk, pending in per_pk.items():
            if pending > ledger.coin_balance(pk):
                safety += 1
    return conservation, safety


class TestGatedTickChecks:
    """Recounting a ledger only when its journal moved counts what a
    recount on every tick counts, through violations, rollbacks and a
    ledger swapped for a clone."""

    def test_counters_match_a_recount_on_every_tick(self, monkeypatch):
        world = World(preset("double_spend", seed=1))
        miner0, miner1 = (actor.miner for actor in world.miner_actors[:2])
        payer = world.consumer_actors[0].account
        balance = miner1.ledger.coin_balance(payer.public)
        overspend = make_ctp(0, 10_000, balance + 1, hash_bytes(b"overspend"), payer)
        state = {}

        def break_safety(now):  # one payer committed past its coin on miner 1
            state["mark"] = miner1.ledger.mark()
            miner1.ledger.ctp_db.insert(overspend, now)

        def undo_safety(now):
            ledger = miner1.ledger
            assert ledger.changes == state["kept"], "miner 1 changed this tick"
            ledger.rollback(state["mark"])
            assert overspend.t_id not in ledger.ctp_db

        def break_conservation(now):
            # a clone taken before miner 0 loses a coin, touched once so that
            # its change count equals the broken ledger's
            state["clone"] = miner0.ledger.clone()
            miner0.ledger._account(payer.public).coin_balance -= 1
            state["clone"]._account(payer.public)
            assert state["clone"].changes == miner0.ledger.changes

        def swap_in_clone(now):
            miner0.ledger = state["clone"]

        script = {150: break_safety, 151: undo_safety, 170: break_conservation, 171: swap_in_clone}
        gated = world._tick_checks
        expected = [0, 0]

        def checks(now):
            if now in script:
                script[now](now)
            gated(now)
            state["kept"] = miner1.ledger.changes
            for i, added in enumerate(_recount_every_tick(world)):
                expected[i] += added
            names = ("conservation_violations", "safety_violations")
            assert [world.metrics.get(name) for name in names] == expected, f"tick {now}"

        monkeypatch.setattr(world, "_tick_checks", checks)
        world.run()
        assert expected == [1, 1]


def _pending_digest(ledger) -> bytes:
    """The pending-DB digest recomputed from ``entries``: each id, then its
    commitment's canonical encoding, in id order."""
    entries = ledger.ctp_db.entries
    return hash_bytes(
        b"".join(ctp_id + encode_canonical(entries[ctp_id][0]) for ctp_id in sorted(entries))
    )


@pytest.mark.parametrize(
    "config",
    [
        preset("none", seed=1),
        preset("double_spend", seed=1),
        preset("none", seed=2, message_loss_rate=0.05),
    ],
    ids=["none", "double_spend", "none-lossy"],
)
def test_tick_end_digests_match_a_recount_on_every_tick(config, monkeypatch):
    # digests are journaled only on ticks a ledger changed; what each miner
    # reads for a tick, then and at the end of the run, is the digest of its
    # pending commitments at the end of that tick
    world = World(config)
    gated = world._tick_checks
    expected = []

    def checks(now):
        gated(now)
        digests = [_pending_digest(actor.miner.ledger) for actor in world.miner_actors]
        assert [actor.miner.digest_as_of(now) for actor in world.miner_actors] == digests
        expected.append(digests)

    monkeypatch.setattr(world, "_tick_checks", checks)
    world.run()
    assert len(expected) == config.ticks
    for now, digests in enumerate(expected):
        assert [actor.miner.digest_as_of(now) for actor in world.miner_actors] == digests
    assert len({digest for digests in expected for digest in digests}) > 1


class TestMalformedRoutedPayload:
    """A routed envelope that does not decode is counted and dropped."""

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"\x31" + bytes(3),  # endorsement tag, truncated length prefix
            encode_fields(TAG_COE, [bytes(32), bytes(64), bytes(64), bytes(10)]),
            # not bytes: refused before the ping tag is read or anything decoded
            7,
            1.5,
            [0x32],
            (0x32,),
            bytearray(encode_routed_payload(Ping(b"x"))),
        ],
        ids=[
            "empty", "truncated-prefix", "short-certificate",
            "int", "float", "list", "tuple", "bytearray",
        ],
    )
    def test_counted_and_dropped(self, payload):
        world = World(preset("none", seed=5))
        for actor in (world.producer_actors[0], world.consumer_actors[0]):
            actor.on_message(Routed(dest_pk=bytes(64), payload=payload, trace=["b0"]), 0)
        assert world.metrics.get("routed_malformed") == 2

    @pytest.mark.parametrize("dest_pk", [None, "s" * 64, 7, [0] * 64, bytearray(64)], ids=repr)
    def test_wrong_typed_destination_at_a_backbone(self, dest_pk):
        world = World(preset("none", seed=5))
        env = Routed(dest_pk=dest_pk, payload=encode_routed_payload(Ping(b"x")), trace=["b0"])
        world.actors["arb-0"].on_message(env, 0)
        assert world.metrics.get("routed_malformed") == 1
        assert not world._outbox


def _no_agreements(world) -> bool:
    """No producer holds a contract and no consumer an agreement."""
    return not any(p.contracts for p in world.producer_actors) and not any(
        c.agreements for c in world.consumer_actors
    )


def _routed(msg) -> Routed:
    return Routed(
        dest_pk=msg.dest_energy_account_pk, payload=encode_routed_payload(msg), trace=["arb-0"]
    )


class TestNegotiationGuards:
    """Negotiation replies that no contract may follow are refused, not raised."""

    @pytest.mark.parametrize("status", [0, 1])
    def test_offer_past_u64_total_is_refused_and_counted(self, status):
        world = World(preset("none", seed=5))
        producer = world.producer_actors[0]
        offer = producer.offers[0]  # 10 kWh
        offer_msg = make_negotiation(
            offer.keypair.public, 2**64 - 1, status, 1, KeyPair.generate(Random(8))
        )
        producer.on_message(_routed(offer_msg), 20)
        assert world.metrics.get("negotiation_price_overflow") == 1
        assert not offer.reserved
        assert _no_agreements(world)
        assert world._outbox == []  # refused without a reply

    def _negotiating_consumer(self):
        world = World(preset("none", seed=5))
        consumer = world.consumer_actors[0]
        offer = world.producer_actors[0].offers[0]
        supply = make_supply_energy(
            hash_bytes(b"genesis"), offer.amount, offer.posted_price, True, offer.keypair
        )
        consumer.attempt = TradeAttempt(
            offer=supply,
            session=KeyPair.generate(Random(9)),
            state="negotiating",
            started=0,
        )
        consumer.tried.add(supply.t_id)  # as _start_trade does on creating the attempt
        return world, consumer, offer

    @pytest.mark.parametrize("price", [0, 11, 10**6], ids=["zero", "one-above", "far-above"])
    def test_acceptance_outside_posted_price_drops_attempt(self, price):
        world, consumer, offer = self._negotiating_consumer()
        assert offer.posted_price == 10
        supply = consumer.attempt.offer
        accept = make_negotiation(consumer.attempt.session.public, price, 1, 2, offer.keypair)
        consumer.on_message(_routed(accept), 20)
        assert consumer.attempt is None and supply.t_id in consumer.tried
        assert consumer.sent_ctps == [] and _no_agreements(world)
        assert world.metrics.get("ctp_broadcast") == 0

    def test_acceptance_at_posted_price_commits(self):
        world, consumer, offer = self._negotiating_consumer()
        accept = make_negotiation(
            consumer.attempt.session.public, offer.posted_price, 1, 2, offer.keypair
        )
        consumer.on_message(_routed(accept), 20)
        (ctp,) = consumer.sent_ctps
        assert ctp.price == offer.amount * offer.posted_price
        assert consumer.attempt.state == "committed"

    @pytest.mark.parametrize("behavior", ["honest", "no_ctp", "bad_hash"])
    def test_agreement_is_kept_under_its_true_hash(self, behavior):
        world, consumer, offer = self._negotiating_consumer()
        consumer.behavior = behavior
        accept = make_negotiation(
            consumer.attempt.session.public, offer.posted_price, 1, 2, offer.keypair
        )
        consumer.on_message(_routed(accept), 20)
        terms = ContractTerms(
            energy_amount=offer.amount,
            unit_price=offer.posted_price,
            total_price=offer.amount * offer.posted_price,
            nonce=accept.t_id,
        )
        true_hash = compute_contract_hash(terms)
        assert consumer.agreements == {true_hash: terms}
        assert world.delivery_meter(true_hash) is consumer.meter
        sent = [ctp.contract_hash for ctp in consumer.sent_ctps]
        if behavior == "honest":
            assert sent == [true_hash]
        elif behavior == "no_ctp":
            assert sent == []
        else:  # the commitment names a corrupted hash, which no meter takes
            (corrupted,) = sent
            assert corrupted != true_hash and world.delivery_meter(corrupted) is None


class TestProducerReply:
    """The producer's reply to each negotiation message: a table over the
    offer being reserved, the status, the price against the reserve, and
    whether the round leaves room for a counter under ``offer_limit``."""

    @pytest.mark.parametrize("reserved", [False, True], ids=["open", "reserved"])
    @pytest.mark.parametrize("status", [0, 1])
    @pytest.mark.parametrize("below", [True, False], ids=["below-reserve", "at-reserve"])
    @pytest.mark.parametrize("room", [True, False], ids=["room", "no-room"])
    def test_reply_rule(self, reserved, status, below, room):
        world = World(preset("none", seed=5))
        producer = world.producer_actors[0]
        offer = producer.offers[0]
        offer.reserved = reserved
        reserve = (offer.posted_price * 9 + 9) // 10  # a negotiable offer's floor
        assert offer.negotiable and reserve == 9
        price = reserve - 1 if below else reserve
        limit = world.config.offer_limit
        round_ = limit - 2 if room else limit - 1
        peer = KeyPair.generate(Random(8))
        msg = make_negotiation(offer.keypair.public, price, status, round_, peer)
        producer.on_message(_routed(msg), 20)

        if status == 1:
            expected_reply = None  # agreeing to our counter needs no answer
            agrees = not reserved and not below
        elif reserved:
            expected_reply, agrees = (0, 0), False
        elif not below:
            expected_reply, agrees = (price, 1), True
        elif room:
            expected_reply, agrees = (reserve, 0), False
        else:
            expected_reply, agrees = (0, 0), False

        replies = [decode_routed_payload(env.payload) for _, env in world._outbox]
        if expected_reply is None:
            assert replies == []
        else:
            (reply,) = replies
            assert (reply.price, reply.status, reply.round) == (*expected_reply, round_ + 1)
            assert reply.dest_energy_account_pk == peer.public
            assert reply.sender_pk == offer.keypair.public
        if agrees:
            (pending,) = producer.contracts.values()
            assert pending.offer is offer
            assert pending.terms.total_price == offer.amount * price
            # the nonce is the id of the message that closed the agreement:
            # the peer's acceptance, or our reply to the peer
            closing = msg if status == 1 else reply
            assert pending.terms.nonce == closing.t_id
            assert not any(c.agreements for c in world.consumer_actors)
            assert offer.reserved
        else:
            assert _no_agreements(world)
            assert offer.reserved == reserved


class TestIdleOfferScan:
    """A consumer that has tried every offer scans the book again only after
    the book or its tried set grows."""

    def test_rescans_only_after_a_new_offer(self):
        world = World(preset("none", seed=5))
        consumer = world.consumer_actors[0]
        scans = []

        class Book(list):
            def __iter__(self):
                scans.append(len(self))
                return super().__iter__()

        consumer.offer_keys = Book()
        rng = Random(11)
        supplies = [
            make_supply_energy(hash_bytes(bytes([i])), 10, 10, True, KeyPair.generate(rng))
            for i in range(3)
        ]
        for tx in supplies[:2]:
            consumer._add_offer(tx)
        consumer.tried.update(consumer.offers)
        consumer._start_trade(20)
        consumer._start_trade(21)
        assert scans == [2] and consumer.attempt is None
        consumer._add_offer(supplies[2])
        consumer._start_trade(22)
        assert scans == [2, 3]
        assert consumer.attempt.offer.t_id == supplies[2].t_id


# values in a claim's place that are no producer claim at all; the last one
# looks like a signed claim but carries an unhashable commitment id
NOT_CLAIMS = [
    None,
    b"claim",
    7,
    SimpleNamespace(
        ctp_id=[], contract_hash=b"", producer_pk=b"", energy_kwh=1, sign=b"",
        verify_signature=lambda: True,
    ),
]
NOT_CLAIM_IDS = ["none", "bytes", "int", "look-alike"]


class TestClaimGossip:
    """Every participant hears a producer's claim. A miner rejects one that
    is not a signed producer claim; a buyer drops the offer a verified claim
    names, and ignores any other claim."""

    @pytest.mark.parametrize("claim", NOT_CLAIMS, ids=NOT_CLAIM_IDS)
    def test_miner_rejects_what_is_not_a_claim(self, claim):
        world = World(preset("none", seed=1))
        for miner in world.miner_actors:
            miner.on_message(ClaimGossip(claim), 0)
            assert miner.miner.ledger.ctp_db.claims == {}
        assert world.metrics.get("claims_rejected") == 1  # the reference miner counts

    def _buyer_with_offer(self):
        world = World(preset("none", seed=1))
        consumer = world.consumer_actors[0]
        offer = world.producer_actors[0].offers[0]
        supply = make_supply_energy(
            hash_bytes(b"genesis"), offer.amount, offer.posted_price, True, offer.keypair
        )
        consumer._add_offer(supply)
        claim = make_producer_claim(
            hash_bytes(b"ctp"), hash_bytes(b"contract"), offer.amount, offer.keypair
        )
        return consumer, offer, supply.t_id, claim

    def _still_trades(self, consumer, offer_key) -> bool:
        consumer._start_trade(20)
        return consumer.attempt is not None and consumer.attempt.offer.t_id == offer_key

    @pytest.mark.parametrize(
        "forge",
        [
            lambda claim, offer: claim,
            lambda claim, offer: replace(
                make_producer_claim(
                    claim.ctp_id, claim.contract_hash, claim.energy_kwh,
                    KeyPair.generate(Random(3)),
                ),
                producer_pk=offer.keypair.public,
            ),
            lambda claim, offer: replace(claim, sign=bytes([claim.sign[0] ^ 1]) + claim.sign[1:]),
        ],
        ids=["genuine", "rival-signed", "bit-flipped"],
    )
    def test_only_a_genuine_claim_closes_the_offer(self, forge):
        consumer, offer, offer_key, genuine = self._buyer_with_offer()
        claim = forge(genuine, offer)
        assert claim.producer_pk == offer.keypair.public
        consumer.on_message(ClaimGossip(claim), 20)
        assert self._still_trades(consumer, offer_key) == (claim is not genuine)

    @pytest.mark.parametrize(
        "claim",
        [
            *NOT_CLAIMS,
            ProducerClaim(bytes(32), bytes(32), [1], 10, bytes(64)),
            ProducerClaim(None, bytes(32), bytes(64), 10, bytes(64)),
            ProducerClaim(bytes(32), bytes(32), bytes(64), 1.5, bytes(64)),
            ProducerClaim(bytes(32), bytes(32), bytes(64), 10, "s"),
        ],
        ids=[*NOT_CLAIM_IDS, "list-key", "none-ctp-id", "float-kwh", "str-sign"],
    )
    def test_buyer_drops_what_is_not_a_claim(self, claim):
        consumer, offer, offer_key, _ = self._buyer_with_offer()
        consumer.on_message(ClaimGossip(claim), 20)
        assert consumer.sold == set()
        assert self._still_trades(consumer, offer_key)


MALFORMED_BLOCKS = [
    lambda b: replace(b, height="x"),
    lambda b: replace(b, txs=None),
    lambda b: replace(b, txs=(1,)),
    lambda b: replace(b, miner_pk=None),
    lambda b: replace(b, prev_hash=None),
    lambda b: None,
    # a header value a block's encoding refuses: each encodes alike or not at
    # all, and a bytearray could change after the block's hash is kept
    lambda b: replace(b, txs=list(b.txs)),
    lambda b: replace(b, height=False),
    lambda b: replace(b, timestamp=True),
    lambda b: replace(b, prev_hash=bytearray(b.prev_hash)),
    lambda b: replace(b, ctp_hash=bytearray(b.ctp_hash)),
    lambda b: replace(b, ctp_hash=b.ctp_hash[1:]),
    lambda b: replace(b, miner_pk=b.miner_pk[:32]),
    lambda b: replace(b, miner_sign=bytearray(b.miner_sign)),
    lambda b: replace(b, miner_sign=b.miner_sign[1:]),
]
MALFORMED_BLOCK_IDS = [
    "str-height", "none-txs", "int-tx", "none-miner-pk", "none-prev", "none", "list-txs",
    "bool-height", "bool-timestamp", "bytearray-prev", "bytearray-ctp-hash", "short-ctp-hash",
    "short-miner-pk", "bytearray-sign", "short-sign",
]

# the commitment of the buyer's attempt in ``TestMalformedBlock``
_ATTEMPT_CTP = make_ctp(0, 300, 100, hash_bytes(b"contract"), KeyPair.generate(Random(6)))


def _mined_supply(**fields):
    supply = make_supply_energy(hash_bytes(b"genesis"), 10, 10, True, KeyPair.generate(Random(5)))
    return replace(supply, **fields)


def _receipt(ctp_id):
    """A receipt naming ``ctp_id``; traders read receipts unchecked."""
    return ERCTx(
        bytes(32), 0, ctp_id, 100, bytes(32), bytes(64), None, bytes(32), None, bytes(32),
        bytes(64),
    )


@functools.cache
def _awaited_genesis_id():
    """The genesis id the first offer of ``preset("none", seed=1)``'s first
    producer awaits once stepped at tick 4, as ``TestMalformedBlock`` steps
    it."""
    producer = World(preset("none", seed=1)).producer_actors[0]
    producer.step(4)
    return producer.offers[0].genesis_id


def _genesis(t_id):
    """A genesis with id ``t_id``; producers read geneses unchecked."""
    return GenesisTx(t_id, GENESIS_CERTIFICATE, b"", bytes(32), bytes(64))


# blocks whose header encodes, holding what a trader must skip: a supply
# outside its domain, a receipt whose ``ctp_id`` or a genesis whose ``t_id``
# is not bytes (the attempt's or the awaited id in another type), and
# entries that are not records
MALFORMED_TRADER_BLOCKS = [
    lambda b: replace(b, txs=(_mined_supply(energy_amount=-1),)),
    lambda b: replace(b, txs=(_mined_supply(energy_price=1 << 64),)),
    lambda b: replace(b, txs=(_mined_supply(negotiable=None),)),
    lambda b: replace(b, txs=(_mined_supply(pk=bytearray(32)),)),
    lambda b: replace(b, txs=(_receipt(list(_ATTEMPT_CTP.t_id)),)),
    lambda b: replace(b, txs=(_receipt(bytearray(_ATTEMPT_CTP.t_id)),)),
    lambda b: replace(b, txs=(_receipt(None),)),
    lambda b: replace(b, txs=(_genesis(bytearray(_awaited_genesis_id())),)),
    lambda b: replace(b, txs=(_genesis(list(_awaited_genesis_id())),)),
    lambda b: replace(b, txs=(_genesis(None),)),
    lambda b: replace(b, txs=(None, "tx", b"tx", _ATTEMPT_CTP)),
]
MALFORMED_TRADER_BLOCK_IDS = [
    "negative-supply", "u64-price", "none-negotiable", "bytearray-supply-pk",
    "list-ctp-id", "bytearray-ctp-id", "none-ctp-id", "bytearray-genesis-id",
    "list-genesis-id", "none-genesis-id", "not-records",
]


class TestMalformedBlock:
    """A gossiped value that is not a well-formed block is refused by every
    miner and skipped by every trader; none of them raises."""

    def _malformed(self, make):
        world = World(preset("none", seed=1))
        miner = world.miner_actors[1].miner
        miner.start_period(0, Random(0))
        block = miner.mine(0)
        return world, block, make(block)

    @pytest.mark.parametrize("make", MALFORMED_BLOCKS, ids=MALFORMED_BLOCK_IDS)
    def test_miner_refuses_and_counts(self, make):
        world, block, bad = self._malformed(make)
        for actor in world.miner_actors:
            outcome = actor.miner.receive_block(bad)
            assert not outcome.applied and outcome.reason.startswith("malformed block: ")
            actor.on_message(BlockGossip(bad), 1)
            assert actor.miner.chain.height == 0
        assert world.metrics.get("blocks_not_applied") == len(world.miner_actors)
        # the block it was made from extends every miner's tip
        assert all(actor.miner.receive_block(block).applied for actor in world.miner_actors)

    def _buyer_in_attempt(self, world):
        consumer = world.consumer_actors[0]
        consumer.attempt = TradeAttempt(
            _mined_supply(), KeyPair.generate(Random(7)), "committed", 0, ctp=_ATTEMPT_CTP
        )
        return consumer

    @staticmethod
    def _awaiting_producers(world):
        """Each producer stepped at tick 4, so that it awaits its geneses,
        and what a block may change of it."""
        for producer in world.producer_actors:
            producer.step(4)
            assert producer._awaiting_genesis > 0
        return [
            (p._awaiting_genesis, p.awake, [offer.stage for offer in p.offers])
            for p in world.producer_actors
        ]

    @pytest.mark.parametrize(
        "make",
        MALFORMED_BLOCKS + MALFORMED_TRADER_BLOCKS,
        ids=MALFORMED_BLOCK_IDS + MALFORMED_TRADER_BLOCK_IDS,
    )
    def test_traders_skip_it(self, make):
        world, _, bad = self._malformed(make)
        awaiting = self._awaiting_producers(world)  # each reads blocks for its geneses
        buyer = self._buyer_in_attempt(world)
        for actor in world.producer_actors + world.consumer_actors:
            actor.on_message(BlockGossip(bad), 1)
        assert all(consumer.offers == {} for consumer in world.consumer_actors)
        assert not buyer.attempt.settled
        assert self._awaiting_producers(world) == awaiting

    def test_a_well_formed_block_reaches_traders(self):
        # the control for the test above: the same blocks with the fields in
        # their domains add the supply, settle the attempt and mine the
        # awaited genesis
        world, block, _ = self._malformed(lambda b: b)
        (awaited, _, stages), *_ = self._awaiting_producers(world)
        buyer = self._buyer_in_attempt(world)
        supply = _mined_supply()
        txs = (supply, _receipt(_ATTEMPT_CTP.t_id), _genesis(_awaited_genesis_id()))
        producer = world.producer_actors[0]
        for actor in (producer, buyer):
            actor.on_message(BlockGossip(replace(block, txs=txs)), 1)
        assert buyer.offers == {supply.t_id: supply}
        assert buyer.attempt.settled
        assert stages[0] == "awaiting_genesis"
        assert producer.offers[0].stage == "genesis_mined"
        assert producer._awaiting_genesis == awaited - 1 and producer.awake

    def test_the_forger_harvests_only_a_genuine_receipt(self, trade):
        # replaying a receipt outside its domain makes every forgery raise
        # ("coe_root must be bytes"), which would stop the run
        _, block, _ = self._malformed(lambda b: b)
        forger = World(preset("coe_forgery", seed=1)).producer_actors[0]
        assert forger.behavior == "forger"
        bad = replace(_receipt(bytes(32)), coe_root=None)
        forger.on_message(BlockGossip(replace(block, txs=(bad,))), 1)
        assert forger.harvested is None
        genuine = trade.completed_erc()
        assert check_structure(genuine)[0]
        forger.on_message(BlockGossip(replace(block, txs=(bad, genuine))), 2)
        assert forger.harvested is genuine


class TestBlockVerdict:
    """A block keeps its signature verdict, so every miner after the first
    reads it, and no copy or mutable field lets it outlive what it judged."""

    def _mined(self):
        world = World(preset("none", seed=1))
        miner = world.miner_actors[1].miner
        miner.start_period(0, Random(0))
        block = miner.mine(0)
        flipped = bytes([block.miner_sign[0] ^ 1]) + block.miner_sign[1:]
        return world, block, replace(block, miner_sign=flipped)

    def test_every_miner_after_the_first_reads_it(self, monkeypatch):
        world, block, _ = self._mined()
        calls = Counter()
        original = ledger_module.verify
        monkeypatch.setattr(
            ledger_module, "verify", lambda *args: calls.update(["verify"]) or original(*args)
        )
        assert all(actor.miner.receive_block(block).applied for actor in world.miner_actors)
        assert calls["verify"] == 1

    @pytest.mark.parametrize("field", ["miner_sign", "miner_pk"])
    def test_a_bytearray_field_keeps_none(self, field):
        # ``verify`` takes a bytearray, whose bytes can change after a check:
        # the block is refused every time, whatever its bytes, so no verdict
        # is kept; it was checked afresh each time while nothing refused it
        world, block, _ = self._mined()
        held = replace(block, **{field: bytearray(getattr(block, field))})
        for _ in range(2):
            with pytest.raises(ValueError, match=f"{field} must be "):
                held.signature_ok
            assert "signature_ok" not in vars(held)
            getattr(held, field)[0] ^= 1
        for actor in world.miner_actors:
            outcome = actor.miner.receive_block(held)
            assert not outcome.applied and outcome.reason.startswith("malformed block: ")

    def test_a_replaced_block_gets_its_own(self):
        _, block, forged = self._mined()
        assert block.signature_ok
        assert not forged.signature_ok
        assert not forged.signature_ok
        assert replace(forged, miner_sign=block.miner_sign).signature_ok
        other = sign(KeyPair.generate(Random(9)), block.signing_digest)
        assert not replace(block, miner_sign=other).signature_ok
        assert block.signature_ok

    def test_a_bad_signature_is_refused_by_every_miner(self):
        world, block, forged = self._mined()
        for actor in world.miner_actors:
            outcome = actor.miner.receive_block(forged)
            assert (outcome.applied, outcome.reason) == (False, "bad miner signature")
            assert actor.miner.chain.height == 0
        assert all(actor.miner.receive_block(block).applied for actor in world.miner_actors)

    @pytest.mark.parametrize("make", MALFORMED_BLOCKS, ids=MALFORMED_BLOCK_IDS)
    def test_a_malformed_copy_of_a_checked_block_is_refused(self, make):
        world, block, _ = self._mined()
        assert block.signature_ok
        bad = make(block)
        for actor in world.miner_actors:
            outcome = actor.miner.receive_block(bad)
            assert not outcome.applied and outcome.reason.startswith("malformed block: ")


def test_gossiped_receipt_with_certificate_bytes_is_refused_at_step_c():
    # the first receipt a buyer gossips, resent with its verifier's
    # certificate as bytes while the commitment is still pending
    world = World(preset("none", seed=1))
    reference = world.miner_actors[0]
    original_broadcast = world.broadcast_tx
    refused = []

    def broadcast_tx(tx):
        if isinstance(tx, ERCTx) and not refused:
            assert reference.miner.ledger.ctp_db.get(tx.ctp_id) is not None
            bad = replace(tx, coe_vm_cert=tx.coe_vm_cert.to_bytes())
            before = world.metrics.get("erc_invalid_c")
            reference.on_message(TxGossip(bad), world.now)
            refused.append(world.metrics.get("erc_invalid_c") - before)
        original_broadcast(tx)

    world.broadcast_tx = broadcast_tx
    world.run()
    assert refused == [1]


def _dummy_erc(ctp_id) -> ERCTx:
    """A receipt that names ``ctp_id`` and holds nothing else of worth:
    traders read a mined receipt only for the commitment it names."""
    return ERCTx(b"", 0, ctp_id, 1, b"", b"", None, b"", None, b"", b"")


class TestTraderIntake:
    """Traders read a gossiped block's transactions unchecked, so a mined
    transaction with a field of the wrong type, or outside its domain, or
    with a bad id or signature, must neither raise on arrival nor be stored
    for a later step to raise on."""

    def _world_and_block(self, *txs):
        world = World(preset("none", seed=1))
        miner = world.miner_actors[1].miner
        miner.start_period(0, Random(0))
        return world, replace(miner.mine(0), txs=txs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_id", []),
            ("t_id", "t" * 32),
            ("pk", []),
            ("pk", None),
            ("energy_amount", None),
            ("energy_amount", True),
            ("energy_price", "9"),
            ("energy_price", 1.5),
            ("pk", b"short"),
            ("energy_amount", 0),
            ("energy_amount", -1),
            ("energy_amount", 1 << 64),
            ("energy_price", -10),
            ("energy_price", 1 << 64),
            ("energy_price", 11),  # in its domain, so only the id is wrong
        ],
        ids=[
            "list-id", "str-id", "list-pk", "none-pk", "none-amount", "bool-amount",
            "str-price", "float-price", "short-pk", "zero-amount", "negative-amount",
            "u64-amount", "negative-price", "u64-price", "bad-id",
        ],
    )
    def test_supply_outside_its_domain_is_skipped(self, field, value):
        seller = KeyPair.generate(Random(3))
        good = make_supply_energy(hash_bytes(b"genesis"), 10, 10, True, seller)
        bad = replace(replace(good, t_id=hash_bytes(b"bad")), **{field: value})
        world, block = self._world_and_block(bad, good)
        consumer = world.consumer_actors[0]
        consumer.on_message(BlockGossip(block), 1)
        assert consumer.offer_keys == [good.t_id]
        consumer._start_trade(100)  # the next scan sees only the good offer
        assert consumer.attempt is not None and consumer.attempt.offer.t_id == good.t_id

    def test_supply_with_a_bad_signature_is_skipped(self):
        # every field in its domain and the id matching, so only the
        # signature check refuses it
        seller = KeyPair.generate(Random(3))
        good = make_supply_energy(hash_bytes(b"genesis"), 10, 10, True, seller)
        bad = replace(good, energy_price=11)
        bad = replace(bad, t_id=compute_t_id(bad))
        assert check_structure(bad) == (False, "bad signature")
        world, block = self._world_and_block(bad, good)
        consumer = world.consumer_actors[0]
        consumer.on_message(BlockGossip(block), 1)
        assert consumer.offers == {good.t_id: good} and consumer.offer_keys == [good.t_id]

    @pytest.mark.parametrize(
        "field, value",
        [("energy_amount", 0), ("energy_amount", -1), ("energy_price", -10)],
        ids=["zero-amount", "negative-amount", "negative-price"],
    )
    def test_out_of_domain_offer_for_a_real_account_does_not_stop_the_run(self, field, value):
        # well typed, so only the domain check keeps the buyer from agreeing
        # on it and failing to build its commitment
        world, block = self._world_and_block()
        offer = world.producer_actors[0].offers[0]
        supply = make_supply_energy(hash_bytes(b"genesis"), 10, 10, True, offer.keypair)
        forged = replace(supply, t_id=bytes(32), **{field: value})  # first in every book
        for consumer in world.consumer_actors:
            consumer.on_message(BlockGossip(replace(block, txs=(forged,))), 0)
        world.run()
        assert world.metrics.get("settlements") == 4

    @pytest.mark.parametrize("ctp_id", [[], None, "c" * 32], ids=["list", "none", "str"])
    def test_wrong_typed_receipt_is_skipped(self, ctp_id):
        world, block = self._world_and_block(_dummy_erc(ctp_id))
        for actor in world.producer_actors + world.consumer_actors:
            actor.on_message(BlockGossip(block), 1)

    def test_receipt_settles_only_the_attempt_it_names(self):
        world = World(preset("none", seed=1))
        consumer = world.consumer_actors[0]
        ctp = make_ctp(1, 500, 100, hash_bytes(b"contract"), consumer.account)
        seller = KeyPair.generate(Random(8))
        consumer.attempt = TradeAttempt(
            offer=make_supply_energy(hash_bytes(b"genesis"), 10, 10, True, seller),
            session=KeyPair.generate(Random(9)),
            state="committed",
            started=0,
            ctp=ctp,
        )
        _, other = self._world_and_block(_dummy_erc(hash_bytes(b"another ctp")))
        consumer.on_message(BlockGossip(other), 2)
        consumer._trade_step(3)
        assert consumer.attempt is not None and consumer.trades_done == 0
        _, block = self._world_and_block(_dummy_erc(ctp.t_id))
        consumer.on_message(BlockGossip(block), 4)
        consumer._trade_step(5)  # the attempt ends on the next step, not at expiry
        assert consumer.attempt is None and consumer.trades_done == 1


class TestProducerIntake:
    """A commitment reaches its producer routed to the offer's account key,
    behind the agreement, so it is claimed or declined on arrival; its
    signature is checked only before a claim or a declined count."""

    def _producer_with_contract(self):
        world = World(preset("none", seed=1))
        producer = world.producer_actors[0]
        offer = producer.offers[0]
        producer._agree(offer, offer.posted_price, hash_bytes(b"nonce"))
        (contract_hash, pending), = producer.contracts.items()
        claims = []
        world.broadcast_claim = claims.append
        payer = world.consumer_actors[0].account
        return world, producer, pending, claims, payer, contract_hash

    @staticmethod
    def _forged(ctp):
        ctp = replace(ctp, sign=bytes([ctp.sign[0] ^ 1]) + ctp.sign[1:])
        return replace(ctp, t_id=compute_t_id(ctp))

    @staticmethod
    def _route(actor, ctp, dest_pk, now):
        env = Routed(dest_pk=dest_pk, payload=encode_routed_payload(ctp), trace=["arb-0"])
        actor.on_message(env, now)

    def test_forged_commitment_is_never_claimed(self):
        world, producer, pending, claims, payer, contract_hash = self._producer_with_contract()
        offer_pk = pending.offer.keypair.public
        genuine = make_ctp(1, 500, pending.terms.total_price, contract_hash, payer)
        self._route(producer, self._forged(genuine), offer_pk, 1)
        assert claims == [] and not pending.claimed
        self._route(producer, genuine, offer_pk, 2)
        assert [claim.ctp_id for claim in claims] == [genuine.t_id] and pending.claimed

    @pytest.mark.parametrize(
        "field, value",
        [
            ("contract_hash", None),
            ("contract_hash", "h" * 32),
            ("contract_hash", [0] * 32),
            ("contract_hash", bytearray(32)),
            ("price", "60"),
            ("price", None),
            ("price", 1.5),
            ("price", -1),
            ("pk", None),
            ("pk", "k" * 32),
            ("pk", bytearray(32)),
        ],
        ids=[
            "none-hash", "str-hash", "list-hash", "bytearray-hash", "str-price", "none-price",
            "float-price", "negative-price", "none-pk", "str-pk", "bytearray-pk",
        ],
    )
    def test_wrong_typed_commitment_is_dropped(self, field, value):
        world, producer, pending, claims, payer, contract_hash = self._producer_with_contract()
        genuine = make_ctp(1, 500, pending.terms.total_price, contract_hash, payer)
        if field == "contract_hash" and isinstance(value, bytearray):
            value = bytearray(contract_hash)  # names the pending contract byte for byte
        bad = replace(genuine, **{field: value})
        with pytest.raises(ValueError):
            encode_routed_payload(bad)  # so it cannot travel to the producer
        producer.on_message(TxGossip(bad), 1)  # a producer reads no gossiped transaction
        assert claims == [] and not pending.claimed and world._outbox == []
        assert world.metrics.get("ctp_declined_mismatch") == 0

    def test_commitment_routed_to_a_consumer_is_dropped(self):
        world, _, pending, claims, payer, contract_hash = self._producer_with_contract()
        consumer = world.consumer_actors[1]
        counters = dict(world.metrics.counters)
        ctp = make_ctp(1, 500, pending.terms.total_price, contract_hash, payer)
        self._route(consumer, ctp, consumer.account.public, 1)
        assert world.metrics.counters == counters and world._outbox == [] and claims == []

    @pytest.mark.parametrize("forged", [False, True], ids=["genuine", "forged"])
    def test_unmatched_commitment_is_declined_on_arrival(self, forged):
        world, producer, pending, claims, payer, _ = self._producer_with_contract()
        ctp = make_ctp(1, 500, pending.terms.total_price, hash_bytes(b"other"), payer)
        self._route(producer, self._forged(ctp) if forged else ctp, pending.offer.keypair.public, 1)
        assert claims == [] and not pending.claimed
        assert world.metrics.get("ctp_declined_mismatch") == (0 if forged else 1)

    def test_declined_commitment_counts_only_for_the_offer_it_names(self):
        world, producer, pending, claims, payer, _ = self._producer_with_contract()
        other_offer = producer.offers[1]
        assert other_offer is not pending.offer and not other_offer.reserved
        ctp = make_ctp(1, 500, pending.terms.total_price, hash_bytes(b"other"), payer)
        # the producer's other offer holds no contract, whatever its sibling holds
        self._route(producer, ctp, other_offer.keypair.public, 1)
        assert world.metrics.get("ctp_declined_mismatch") == 0
        self._route(producer, ctp, pending.offer.keypair.public, 2)
        assert world.metrics.get("ctp_declined_mismatch") == 1
        assert claims == [] and not pending.claimed


class TestReceiptPump:
    """The meter owner's pump emits each receipt once, in registration order."""

    def _armed_consumer(self, pool_size=4):
        world = World(preset("none", seed=5))
        consumer = world.consumer_actors[0]
        meter = consumer.meter
        meter.generate_key_pool(pool_size)
        verifier = world.consumer_actors[1].meter
        vr = meter.make_verification_request(meter.pool, verifier.public)
        meter.install_coe(verifier.process_verification_request(vr, world.manufacturer_ca_pk))
        emitted = []
        world.broadcast_tx = emitted.append
        return world, consumer, emitted

    def _register(self, consumer, nonce: bytes, expiry=100):
        terms = ContractTerms(energy_amount=5, unit_price=2, total_price=10, nonce=hash_bytes(nonce))
        ctp = make_ctp(
            time_stamp=0,
            expiry_time=expiry,
            price=terms.total_price,
            contract_hash=compute_contract_hash(terms),
            keypair=consumer.account,
        )
        consumer.meter.register_contract(terms, ctp)
        return ctp

    def test_completed_delivery_emits_one_receipt(self):
        world, consumer, emitted = self._armed_consumer()
        ctp = self._register(consumer, b"a")
        consumer._pump_meter_receipts(10)
        assert emitted == [] and ctp.contract_hash in consumer.meter.contracts
        consumer.meter.record_delivery(ctp.contract_hash, 5)
        for now in (11, 12, 13):
            consumer._pump_meter_receipts(now)
        assert [erc.ctp_id for erc in emitted] == [ctp.t_id]
        assert world.metrics.get("erc_emitted") == 1
        assert consumer.meter.contracts == {}

    def test_expired_commitment_emits_nothing_and_leaves(self):
        world, consumer, emitted = self._armed_consumer()
        ctp = self._register(consumer, b"a", expiry=50)
        consumer.meter.record_delivery(ctp.contract_hash, 4)
        consumer._pump_meter_receipts(49)
        assert ctp.contract_hash in consumer.meter.contracts
        consumer._pump_meter_receipts(50)
        assert consumer.meter.contracts == {}
        consumer.meter.record_delivery(ctp.contract_hash, 1)  # completes too late
        consumer._pump_meter_receipts(51)
        assert emitted == [] and world.metrics.get("erc_emitted") == 0

    def test_receipts_due_in_one_tick_follow_registration_order(self):
        world, consumer, emitted = self._armed_consumer()
        first, second = self._register(consumer, b"a"), self._register(consumer, b"b")
        assert first.contract_hash > second.contract_hash  # not merely sorted order
        consumer.meter.record_delivery(second.contract_hash, 5)
        consumer.meter.record_delivery(first.contract_hash, 5)
        consumer._pump_meter_receipts(20)
        assert [erc.ctp_id for erc in emitted] == [first.t_id, second.t_id]

    def test_pool_exhaustion_is_refused_once(self):
        world, consumer, emitted = self._armed_consumer(pool_size=1)
        for nonce in (b"a", b"b"):
            ctp = self._register(consumer, nonce)
            consumer.meter.record_delivery(ctp.contract_hash, 5)
        for now in (20, 21, 22):
            consumer._pump_meter_receipts(now)
        assert len(emitted) == 1
        assert world.metrics.get("erc_emitted") == 1
        assert world.metrics.get("erc_refused") == 1
        assert consumer.meter.contracts == {}


class TestAttackSessions:
    """The flooder's one session and the double-spender's one burst, seen
    only through what they send."""

    def _flood_world(self, refuse_join=False):
        world = World(preset("negotiation_flood", seed=1))
        (flooder,) = [c for c in world.consumer_actors if c.behavior == "flood"]
        joins, routed = [], []
        send_join, send_routed = world.send_join, world.send_routed

        def join(actor, msg):
            if actor is not flooder:
                return send_join(actor, msg)
            joins.append(msg.pk)
            if refuse_join:
                world.send(actor.id, JoinAck(msg.pk, False, "refused"))
            else:
                send_join(actor, msg)

        def route(actor, from_pk, dest_pk, payload):
            if actor is flooder:
                routed.append((from_pk, dest_pk, payload))
            send_routed(actor, from_pk, dest_pk, payload)

        world.send_join, world.send_routed = join, route
        world.run()
        return world, flooder, joins, routed

    @pytest.mark.parametrize("status", [0, 1], ids=["counter", "acceptance"])
    def test_reply_to_the_flood_session_draws_nothing(self, status):
        world, flooder, joins, routed = self._flood_world()
        (session_pk,) = joins
        assert routed and {f for f, _, _ in routed} == {session_pk}
        target_pk = routed[0][1]
        (offer,) = [
            o for p in world.producer_actors for o in p.offers if o.keypair.public == target_pk
        ]
        broadcast = world.metrics.get("ctp_broadcast")
        sent = len(routed)
        # a price an honest buyer would accept, or commit to on acceptance
        reply = make_negotiation(session_pk, offer.posted_price - 1, status, 2, offer.keypair)
        flooder.on_message(_routed(reply), world.config.ticks)
        flooder.step(world.config.ticks)
        assert len(routed) == sent
        assert flooder.agreements == {} and flooder.sent_ctps == []
        assert world.metrics.get("ctp_broadcast") == broadcast

    def test_refused_flood_join_is_not_retried(self):
        world, flooder, joins, routed = self._flood_world(refuse_join=True)
        assert len(joins) == 1 and routed == []
        assert world.metrics.get("flood_offers_sent") == 0
        assert flooded_rounds(world) == 0

    @pytest.mark.parametrize("burst", [1, 4])
    def test_double_spender_fires_one_burst(self, burst):
        world = World(preset("double_spend", seed=1, double_spend_ctps=burst, ticks=2000))
        world.run()
        for spender in world.consumer_actors:
            assert len(spender.sent_ctps) == burst
        assert world.metrics.get("ctp_broadcast") == burst * len(world.consumer_actors)


def _self_certified_endorsement(world, meter):
    rogue = KeyPair.generate(Random(7))
    root = meter.pool.root
    return CoE(root, sign(rogue, root), rogue.public, issue_certificate(rogue, rogue.public))


def _foreign_root_endorsement(world, meter):
    verifier = world.producer_actors[0].meter  # a genuine meter
    root = hash_bytes(b"someone else's pool")
    return CoE(
        root, sign(verifier.identity.keypair, root), verifier.public,
        verifier.identity.manufacturer_cert,
    )


class TestBogusEndorsement:
    """A bogus endorsement routed to a meter mid-run does not replace its
    genuine one: miners would refuse a receipt under it, and the energy
    behind that receipt would go unpaid."""

    @pytest.mark.parametrize(
        "forge",
        [_self_certified_endorsement, _foreign_root_endorsement],
        ids=["self-certified-verifier", "foreign-root"],
    )
    def test_refused_and_every_trade_settles(self, monkeypatch, forge):
        deliver_due = World.deliver_due

        def deliver_with_bogus_coe(world, now):
            deliver_due(world, now)
            if now == 60:
                for consumer in world.consumer_actors:
                    meter = consumer.meter
                    assert meter.coe is not None  # the genuine one is installed by now
                    payload = encode_routed_payload(forge(world, meter))
                    consumer.on_message(Routed(meter.public, payload, ["arb-0"]), now)

        monkeypatch.setattr(World, "deliver_due", deliver_with_bogus_coe)
        result = run_scenario(preset("none", seed=1))
        assert result.passed, [v.line() for v in result.metrics.verdicts if not v.passed]
        assert result.metrics.get("coe_rejected") == len(result.world.consumer_actors) == 2
        assert result.metrics.get("settlements") == 4
        assert not erc_refusals(result.metrics)


class TestCli:
    def _write_config(self, tmp_path: Path, attack="none", **overrides) -> Path:
        config = preset(attack, **overrides)
        path = tmp_path / "scenario.cfg"
        path.write_text(format_config(config))
        return path

    def test_list_scenarios(self, capsys):
        assert cli_main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "double_spend" in out and "none" in out

    def test_run_writes_outputs(self, tmp_path, capsys):
        config_path = self._write_config(tmp_path, seed=3)
        out_dir = tmp_path / "out"
        code = cli_main(
            ["run", "--config", str(config_path), "--out", str(out_dir)]
        )
        assert code == 0
        report = capsys.readouterr().out
        assert "verdicts" in report
        assert (out_dir / "metrics.txt").exists()
        assert (out_dir / "metrics.kv").exists()
        assert (out_dir / "chain.dump").exists()

    def test_seed_override_changes_dump(self, tmp_path):
        config_path = self._write_config(tmp_path, seed=3)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert (
            cli_main(
                ["run", "--config", str(config_path), "--seed", "99", "--out", str(out_b)]
            )
            == 0
        )
        assert (out_a / "chain.dump").read_bytes() != (out_b / "chain.dump").read_bytes()

    def test_replay_validates_dump(self, tmp_path, capsys):
        config_path = self._write_config(tmp_path, seed=3)
        out_dir = tmp_path / "out"
        cli_main(["run", "--config", str(config_path), "--out", str(out_dir)])
        capsys.readouterr()
        assert cli_main(["replay", "--chain-dump", str(out_dir / "chain.dump")]) == 0
        assert "valid" in capsys.readouterr().out

    def test_replay_detects_corruption(self, tmp_path, capsys):
        config_path = self._write_config(tmp_path, seed=3)
        out_dir = tmp_path / "out"
        cli_main(["run", "--config", str(config_path), "--out", str(out_dir)])
        capsys.readouterr()
        dump = (out_dir / "chain.dump").read_bytes()
        flipped = bytearray(dump)
        flipped[len(dump) // 2] ^= 0xFF
        bad = out_dir / "bad.dump"
        bad.write_bytes(bytes(flipped))
        assert cli_main(["replay", "--chain-dump", str(bad)]) == 1
        capsys.readouterr()
        bad.write_bytes(dump[:-1])  # cut one byte short
        assert cli_main(["replay", "--chain-dump", str(bad)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("invalid dump: ") and out.count("\n") == 1

    @pytest.mark.parametrize("kind", ["negotiation", "ctp"])
    def test_replay_refuses_a_kind_that_is_never_mined(self, tmp_path, capsys, kind):
        keypair = KeyPair.generate(Random(4))
        tx = {
            "negotiation": lambda: make_negotiation(keypair.public, 10, 0, 1, keypair),
            "ctp": lambda: make_ctp(1, 500, 100, hash_bytes(b"contract"), keypair),
        }[kind]()
        block = Block(0, GENESIS_PREV, bytes(32), 0, keypair.public, b"", (tx,))
        block = replace(block, miner_sign=sign(keypair, block.signing_digest))
        chain = Blockchain()
        chain.append(block)
        path = tmp_path / f"{kind}.dump"
        path.write_bytes(chain.dump_bytes())
        assert cli_main(["replay", "--chain-dump", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"[{kind}=1] BAD:kind" in out and "1 blocks: INVALID" in out

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (["replay", "--chain-dump", "missing.dump"], "No such file"),
            (["run", "--config", "missing.cfg"], "No such file"),
            (["run", "--config", "bad_value.cfg"], "ticks wants an integer"),
            (["run", "--config", "invalid.cfg"], "needs a producer"),
        ],
        ids=["missing-dump", "missing-config", "bad-value", "invalid-config"],
    )
    def test_bad_input_is_one_line_on_stderr(self, tmp_path, capsys, argv, reason):
        (tmp_path / "bad_value.cfg").write_text("ticks=abc\n")
        (tmp_path / "invalid.cfg").write_text("producers=0\n")
        argv = [*argv[:2], str(tmp_path / argv[2])]
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("gridtrade: ") and err.count("\n") == 1
        assert argv[2] in err and reason in err

    @pytest.mark.parametrize(
        "text",
        [
            "key_pool_size=0",
            "key_pool_size=-1",
            "ctp_default_ttl=0",
            f"ctp_default_ttl={2**64}",
            "supply_kwh=0",
            f"supply_kwh={2**64}",
            "supply_unit_price=-1",
            f"supply_unit_price={2**64}",
            "kwh_per_tick=-1",
            "attack=double_spend\ndouble_spend_ctps=0",
            "overload_threshold=-1",
            "prosumers=2\nproducers=-1",
            "prosumers=2\nconsumers=-1",
            "prosumers=-1",
            "chatter_nodes=-1",
            "supplies_per_producer=-1",
        ],
    )
    def test_out_of_range_config_is_one_line_on_stderr(self, tmp_path, capsys, text):
        path = tmp_path / "range.cfg"
        path.write_text(text + "\n")
        assert cli_main(["run", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # refused before the run
        assert err.startswith(f"gridtrade: config {path}: ") and err.count("\n") == 1
        key = text.splitlines()[-1].partition("=")[0]
        assert key in err

    def test_unusable_out_is_refused_before_the_run(self, tmp_path, capsys):
        config_path = self._write_config(tmp_path, seed=3, ticks=50)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert cli_main(["run", "--config", str(config_path), "--out", str(taken)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no report: the scenario never ran
        assert err.startswith("gridtrade: ") and err.count("\n") == 1
        assert str(taken) in err
        assert taken.read_text() == "not a directory"

    def test_console_entry_point(self, tmp_path):
        # the child finds the package under src/ whether or not it is installed
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        proc = subprocess.run(
            [sys.executable, "-m", "gridtrade.sim.cli", "list-scenarios"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        )
        assert proc.returncode == 0 and "routing_overload" in proc.stdout
