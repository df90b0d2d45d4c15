"""A trader sleeps only where no step could do anything, so sleeping changes
no run: the tick loop skips an actor whose ``awake`` is false, and the
message that ends such a state sets it again. Each wake rule is tested on
its own, and whole runs are compared with a build in which no actor ever
sleeps."""

import hashlib
from collections import Counter
from dataclasses import replace
from random import Random

import pytest

from gridtrade.crypto import KeyPair, hash_bytes
from gridtrade.sim import preset, run_scenario
from gridtrade.sim.actors import Actor, ConsumerActor, ProducerActor
from gridtrade.sim.config import ATTACKS
from gridtrade.sim.messages import BlockGossip, Routed, TxGossip, encode_routed_payload
from gridtrade.sim.world import World
from gridtrade.transactions import GenesisTx, contract_terms, make_ctp, make_supply_energy

# (attack, overrides): every preset at two seeds, a lossy run, a prosumer
# run, a run whose meters exhaust their key pools, the scale sweep's n = 128
# world and the malicious-consumer preset at four times its population
RUNS = [
    *[(attack, dict(seed=seed)) for attack in sorted(ATTACKS) for seed in (1, 2)],
    ("none", dict(seed=1, message_loss_rate=0.05)),
    ("none", dict(seed=1, prosumers=2)),
    ("none", dict(seed=1, producers=6, consumers=2, ticks=1500, key_pool_size=2)),
    pytest.param(
        "none", dict(seed=1, producers=128, consumers=128, miners=5, backbones=4, ticks=1500),
        marks=pytest.mark.slow,
    ),
    ("malicious_consumer", dict(seed=1, producers=12, consumers=12)),
]
RUN_IDS = [
    *[f"{attack}-{seed}" for attack in sorted(ATTACKS) for seed in (1, 2)],
    "none-loss", "none-prosumers", "none-key-pool-2", "none-n128", "malicious_consumer-x4",
]


def _run(config):
    """(sha256 of the chain dump, sha256 of ``metrics.kv``, trader steps
    through the classes' ``step``) of one run."""
    steps = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for owner in (ProducerActor, ConsumerActor):
            original = owner.step

            def step(actor, now, original=original):
                steps["step"] += 1
                original(actor, now)

            mp.setattr(owner, "step", step)
        result = run_scenario(config)
    return (
        hashlib.sha256(result.chain_dump).hexdigest(),
        hashlib.sha256(result.metrics.render_kv().encode()).hexdigest(),
        steps["step"],
    )


@pytest.mark.parametrize("attack, overrides", RUNS, ids=RUN_IDS)
def test_sleeping_is_unobservable(attack, overrides, monkeypatch):
    config = preset(attack, **overrides)
    *slept, slept_steps = _run(config)
    # ``awake`` reads true whatever a trader sets, so every trader is stepped
    # on every tick
    monkeypatch.setattr(Actor, "awake", property(lambda actor: True, lambda actor, value: None))
    *stepped, all_steps = _run(config)
    assert slept == stepped
    assert slept_steps < all_steps


def _empty_block(world):
    miner = world.miner_actors[0].miner
    miner.start_period(0, Random(0))
    return miner.mine(0)


def _block(world, *txs):
    """A block holding ``txs``; traders read blocks without checking them."""
    return replace(_empty_block(world), txs=txs)


def _supply(seed):
    return make_supply_energy(
        hash_bytes(bytes([seed])), 10, 10, True, KeyPair.generate(Random(seed))
    )


def test_a_new_offer_wakes_a_buyer_asleep_on_an_idle_book():
    world = World(preset("none", seed=1))
    world.run()
    now = world.config.ticks
    buyer = world.consumer_actors[0]
    assert not buyer.awake and buyer.attempt is None
    assert buyer.trades_done < buyer.max_trades  # asleep on its book, not done
    known = buyer.offers[buyer.offer_keys[0]]
    for block in (_empty_block(world), _block(world, known)):
        buyer.on_message(BlockGossip(block), now)
        assert not buyer.awake
    new = _supply(1)
    buyer.on_message(BlockGossip(_block(world, new)), now)
    assert buyer.awake
    buyer.step(now)
    assert buyer.attempt is not None and buyer.attempt.offer is new


def test_a_buyer_stays_awake_while_its_meter_holds_a_contract():
    world = World(preset("none", seed=1))
    world.run()
    now = world.config.ticks
    buyer = world.consumer_actors[0]
    contract_hash, terms = contract_terms(10, 10, hash_bytes(b"nonce"))
    buyer.meter.register_contract(terms, make_ctp(now, now + 3, 100, contract_hash, buyer.account))
    buyer.awake = True  # as a message would
    while buyer.meter.contracts:  # until the pump drops it at its expiry
        buyer.step(now)
        assert buyer.awake
        now += 1
    buyer.step(now)
    assert not buyer.awake


def test_a_buyer_done_trading_sleeps_through_new_offers():
    world = World(preset("none", seed=1))
    world.run()
    buyer = world.consumer_actors[0]
    buyer.trades_done = buyer.max_trades
    buyer.on_message(BlockGossip(_block(world, _supply(1))), world.config.ticks)
    assert not buyer.awake


def test_a_producer_wakes_for_its_genesis_and_for_a_commitment():
    world = World(preset("none", seed=1))
    producer = world.producer_actors[0]
    offer = producer.offers[0]
    for now in range(4):  # its offers go out at ticks 2 and 4
        producer.step(now)
        assert producer.awake
    producer.step(4)
    assert not producer.awake  # both offers wait for their genesis
    producer.on_message(BlockGossip(_empty_block(world)), 5)
    assert not producer.awake
    (genesis,) = {
        message.tx for _, message in world._outbox
        if isinstance(message, TxGossip) and isinstance(message.tx, GenesisTx)
        and message.tx.t_id == offer.genesis_id
    }
    producer.on_message(BlockGossip(_block(world, genesis)), 5)
    assert producer.awake and offer.stage == "genesis_mined"
    producer.step(5)
    assert offer.stage == "posted" and not producer.awake  # the second still waits

    # the producer and a buyer agree on the offer, and the buyer commits
    buyer = world.consumer_actors[0]
    producer._agree(offer, 10, hash_bytes(b"nonce"))
    (contract_hash,) = producer.contracts
    terms = producer.contracts[contract_hash].terms
    buyer.agreements[contract_hash] = terms
    ctp = make_ctp(5, 305, terms.total_price, contract_hash, buyer.account)
    buyer.meter.register_contract(terms, ctp)
    producer.on_message(
        Routed(offer.keypair.public, encode_routed_payload(ctp), [buyer.id]), 6
    )
    assert producer.awake and producer.deliveries
    for now in range(6, 6 + terms.energy_amount):
        assert producer.awake
        producer.step(now)
    assert not producer.deliveries and not producer.awake
    assert buyer.meter.records[contract_hash].complete


def test_a_prosumers_producer_is_stepped_while_its_meter_holds_a_contract(monkeypatch):
    world = World(preset("none", seed=1, prosumers=1))
    producer, buyer = world.producer_actors[-1], world.consumer_actors[-1]
    assert buyer.meter is producer.meter
    pending, stepped = set(), set()
    deliver_due, step = World.deliver_due, ProducerActor.step

    def deliver_then_note(world, now):
        deliver_due(world, now)
        if producer.meter.contracts:
            pending.add(now)

    def note_step(actor, now):
        if actor is producer:
            stepped.add(now)
        step(actor, now)

    monkeypatch.setattr(World, "deliver_due", deliver_then_note)
    monkeypatch.setattr(ProducerActor, "step", note_step)
    world.run()
    assert pending and pending <= stepped
    # its consumer registers contracts on the meter it pumps, and does not
    # wake it, so it never sleeps
    assert stepped == set(range(world.config.ticks))


def test_a_buyer_is_woken_at_its_start_tick_without_a_message():
    # set up from the start and deaf to every message, a buyer sleeps after
    # its first step until the world wakes it at its start tick, where its
    # scan of the empty book finds nothing
    world = World(preset("none", seed=1, ticks=200))
    buyer = world.consumer_actors[1]
    buyer._init_state = "done"
    steps = []
    step = buyer.step
    buyer.step = lambda now: steps.append(now) or step(now)
    buyer.on_message = lambda payload, now: None
    world.run()
    assert 0 < buyer.start_delay < world.config.ticks
    assert steps == [0, buyer.start_delay]
    assert not buyer.awake


def test_no_double_spender_is_woken():
    # four spenders start at ticks 15, 27, 39 and 51; each sleeps for good
    # after its burst at tick 30, so none is woken at its start tick
    world = World(preset("double_spend", seed=1, consumers=4))
    steps = {}
    for spender in world.consumer_actors:
        steps[spender.id] = []
        burst_step = spender.step
        spender.step = lambda now, s=steps[spender.id], b=burst_step: s.append(now) or b(now)
    world.run()
    assert max(spender.start_delay for spender in world.consumer_actors) > 30
    assert all(ticks == list(range(31)) for ticks in steps.values())
    assert not any(spender.awake for spender in world.consumer_actors)


def test_a_double_spender_sleeps_for_good_after_its_burst():
    world = World(preset("double_spend", seed=1))
    spender = world.consumer_actors[0]
    steps = []
    burst_step = spender.step
    spender.step = lambda now: steps.append(now) or burst_step(now)
    world.run()
    assert len(spender.sent_ctps) == world.config.double_spend_ctps
    assert steps == list(range(31))  # it bursts at tick 30
    assert not spender.awake
    spender.on_message(BlockGossip(_block(world, _supply(1))), world.config.ticks)
    assert not spender.awake  # it never trades, so no offer wakes it
