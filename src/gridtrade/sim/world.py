"""Deterministic discrete-event world wiring all protocol actors together.

``World`` builds the actors, runs the tick loop, carries messages and
counts invariant breaches; it decides nothing about the protocol. Who
misbehaves comes from the attack's record in ``config.ATTACKS``, what a
consumer does from ``actors.CONSUMER_BEHAVIORS``, and when the routing
prefix widens from ``Mesh.maybe_widen``.

Time is integer ticks; one tick is one network hop. Each tick runs fixed
phases: consensus-period bookkeeping, expiry sweeps, message deliveries,
meter joins (tick 0 only), the steps of the traders that are awake, mining
wakeups, then the mesh's widening check and the end-of-tick checks (digest
journaling and invariant checks). All randomness comes from labeled child
RNGs of the scenario seed, so two runs with the same config are
bit-identical.

A trader sleeps (``Actor.awake`` false) only in a state that nothing but
a delivered message can end, in which every step would do nothing: a
producer whose offers are all posted or waiting for their genesis, with
nothing to deliver; a buyer with no attempt and no contract on its meter
that has made its trades or found no offer to try; the double spender
after its burst. The delivery that ends such a state sets ``awake`` again,
so the loop keeps no schedule, steps the awake traders in the fixed
order, and skipping a sleeper changes nothing a run records.

The end-of-tick checks journal a miner's pending-DB digest and recount
its pending commitments from ``entries`` on each tick that miner's ledger
changed: a new ledger object (a tip swap), or a move in its journal's
change count. Every ledger change is journaled, so on any other tick the
state is the one last recounted, and the kept result is counted again. The
counters therefore grow exactly as a recount on every tick would make them
grow, and the digest journal holds what journaling every tick would.

Every message travels exactly one tick. Sends append to one outbox, and
each tick's delivery phase swaps it for an empty one before handing the
old one out in append order. So whatever a delivery sends lands in the
next tick, and messages arrive in (send tick, send order).

Verdicts read the protocol's own records once the run ends; ``World``
keeps no copy. ``contracts`` derives each contract from the traders' records
and the reference miner's settlements. The one hook traders call during a
run is ``delivery_meter``, since the simulator stands in for the grid.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from random import Random
from typing import Dict, List, Optional, Set, Tuple

from ..arb import Mesh, make_join
from ..crypto import Certificate, KeyPair, PublicKey, hash_bytes, issue_certificate
from ..ledger import Ledger, LedgerConfig, Miner
from ..meter import SmartMeter, provision_meter
from .actors import (
    CONSUMER_BEHAVIORS,
    Actor,
    BackboneActor,
    ConsumerActor,
    MinerActor,
    OfferState,
    ProducerActor,
)
from .config import ATTACKS, ScenarioConfig
from .messages import (
    BlockGossip,
    ClaimGossip,
    JoinRequest,
    Routed,
    TxGossip,
    encode_routed_payload,
)
from .metrics import Metrics


X_INITIAL = 1  # routing-prefix bytes the mesh starts with
BURN_THRESHOLD = 100  # least coin a coin-burn genesis must burn
INITIAL_BALANCE = 1000  # coin each consumer account starts with
SUPPLY_KWH = 10  # energy in each supply offer
SUPPLY_UNIT_PRICE = 10  # posted price per kWh of each supply offer
_awake = attrgetter("awake")


def child_rng(seed: int, label: str) -> Random:
    """Independent deterministic stream for one actor or purpose."""
    digest = hash_bytes(f"{seed}/{label}".encode())
    return Random(int.from_bytes(digest[:8], "big"))


class World:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.metrics = Metrics()
        self.now = 0
        # (destination actor id, payload) in send order, delivered next tick
        self._outbox: List[Tuple[str, object]] = []
        self.actors: Dict[str, Actor] = {}
        self.miner_actors: List[MinerActor] = []
        self.step_actors: List[Actor] = []
        self._loss_rate = config.message_loss_rate
        self._loss_rng = child_rng(config.seed, "loss")
        self.initial_balances: Dict[PublicKey, int] = {}
        self._build()
        # per miner: (ledger, its change count, coin not conserved?, unsafe payers)
        # as last recounted by _tick_checks
        self._recounted = [(None, None, False, 0)] * len(self.miner_actors)

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        self.manufacturer_ca = KeyPair.generate(child_rng(cfg.seed, "manufacturer"))
        self.distributor_ca = KeyPair.generate(child_rng(cfg.seed, "distributor"))
        self.manufacturer_ca_pk = self.manufacturer_ca.public
        ledger_config = LedgerConfig(
            burn_threshold=BURN_THRESHOLD,
            distributor_ca_pk=self.distributor_ca.public,
            manufacturer_ca_pk=self.manufacturer_ca.public,
        )

        backbone_ids = [f"arb-{i}" for i in range(cfg.backbones)]
        self.mesh = Mesh(backbone_ids, X_INITIAL, cfg.offer_limit)
        for node_id in backbone_ids:
            self.actors[node_id] = BackboneActor(node_id, self, node_id)

        for i in range(cfg.miners):
            keypair = KeyPair.generate(child_rng(cfg.seed, f"miner/{i}"))
            miner = Miner(keypair, ledger_config, cfg.consensus_period)
            rng = child_rng(cfg.seed, f"miner/{i}/period")
            actor = MinerActor(f"miner-{i}", self, miner, reference=(i == 0), period_rng=rng)
            self.actors[actor.id] = actor
            self.miner_actors.append(actor)

        self.meter_directory: List[PublicKey] = []
        producers: List[ProducerActor] = []
        consumers: List[ConsumerActor] = []

        attack = ATTACKS[cfg.attack]
        for i in range(cfg.producers):
            producers.append(self._make_producer(f"producer-{i}", i, attack.producer(i)))
        for i in range(cfg.prosumers):
            producers.append(
                self._make_producer(
                    f"prosumer-{i}.producer", cfg.producers + i, "honest", shares_meter=True
                )
            )

        consumer_count = getattr(cfg, attack.consumer_count)
        for i in range(consumer_count):
            consumers.append(self._make_consumer(f"consumer-{i}", i, attack.consumer(i), None))
        for i in range(cfg.prosumers):
            sibling = producers[cfg.producers + i]
            consumers.append(
                self._make_consumer(
                    f"prosumer-{i}.consumer", consumer_count + i, "honest", sibling
                )
            )

        self.producer_actors = producers
        self.consumer_actors = consumers
        self.step_actors = [*producers, *consumers]
        for actor in self.step_actors:
            self.actors[actor.id] = actor

        self.meter_directory.sort()  # complete now; the pickers choose from it sorted
        self.initial_total_coin = self.miner_actors[0].miner.ledger.total_coin()
        self.network_actor_ids = [m.id for m in self.miner_actors] + [
            a.id for a in self.step_actors
        ]

    def _make_producer(
        self, actor_id: str, index: int, behavior: str, shares_meter: bool = False
    ) -> ProducerActor:
        cfg = self.config
        rng = child_rng(cfg.seed, f"producer/{index}")
        meter = SmartMeter(
            provision_meter(self.manufacturer_ca, rng),
            child_rng(cfg.seed, f"producer/{index}/meter"),
        )
        self.meter_directory.append(meter.public)
        offers = []
        base_tick = 2 + index
        if behavior == "forger":
            base_tick = max(60, cfg.ticks // 4)
        for k in range(cfg.supplies_per_producer):
            offers.append(
                OfferState(
                    keypair=KeyPair.generate(rng),
                    amount=SUPPLY_KWH,
                    posted_price=SUPPLY_UNIT_PRICE,
                    negotiable=True,
                    start_tick=base_tick + 2 * k,
                )
            )
        return ProducerActor(
            actor_id, self, meter, owns_meter=True, rng=rng, offers=offers, behavior=behavior,
            shares_meter=shares_meter,
        )

    def _make_consumer(
        self, actor_id: str, index: int, behavior: str, sibling_producer: Optional[ProducerActor]
    ) -> ConsumerActor:
        cfg = self.config
        rng = child_rng(cfg.seed, f"consumer/{index}")
        account = KeyPair.generate(rng)
        meter: Optional[SmartMeter] = None
        owns_meter = False
        sibling_pks: Set[bytes] = set()
        if sibling_producer is not None:
            meter = sibling_producer.meter  # prosumer: both roles share one meter
            sibling_pks = {o.keypair.public for o in sibling_producer.offers}
        elif CONSUMER_BEHAVIORS[behavior][1]:  # a consumer that trades has a meter
            meter = SmartMeter(
                provision_meter(self.manufacturer_ca, rng),
                child_rng(cfg.seed, f"consumer/{index}/meter"),
            )
            owns_meter = True
            self.meter_directory.append(meter.public)
        for miner in self.miner_actors:
            miner.miner.ledger.seed_account(account.public, INITIAL_BALANCE)
        self.initial_balances[account.public] = INITIAL_BALANCE
        return ConsumerActor(
            actor_id, self, account, meter, owns_meter, rng, behavior=behavior,
            start_delay=15 + 12 * index,  # offset trade starts to cut offer races
            offer_preference=index, sibling_pks=sibling_pks,
        )

    # -- messaging ------------------------------------------------------------

    def send(self, dest_id: str, payload: object) -> None:
        loss_rate = self._loss_rate
        if loss_rate > 0.0 and self._loss_rng.random() < loss_rate:
            self.metrics.bump("messages_lost")
            return
        self._outbox.append((dest_id, payload))

    def deliver_due(self, now: int) -> None:
        """Hand every message sent before this call to its actor, in send
        order; what they send in turn waits for the next call."""
        due, self._outbox = self._outbox, []
        actors = self.actors
        for dest, payload in due:
            target = actors.get(dest)
            if target is not None:
                target.on_message(payload, now)

    def send_join(self, actor: Actor, join) -> None:
        dest = self.mesh.table.owner_of(join.pk)
        self.send(dest, JoinRequest(join=join, reply_to=actor.id))

    def send_routed(self, actor: Actor, from_pk: PublicKey, dest_pk: PublicKey, payload) -> None:
        """Hand ``payload`` to the backbone that owns ``from_pk``, bound for
        ``dest_pk``. ``payload`` is a routable record, or its frame as
        ``encode_routed_payload`` built it, which travels as it is: the
        chatter load frames its one ping once."""
        entry = self.mesh.table.owner_of(from_pk)
        counters = self.metrics.counters  # the hot path skips Metrics.bump
        counters["messages_routed"] = counters.get("messages_routed", 0) + 1
        if not isinstance(payload, bytes):
            payload = encode_routed_payload(payload)
        self.send(entry, Routed(dest_pk, payload, [actor.id]))

    def broadcast_tx(self, tx) -> None:
        """Send a transaction to every miner. Traders read mined
        transactions from blocks, and a commitment reaches its producer
        routed to the offer."""
        gossip = TxGossip(tx)
        for actor in self.miner_actors:
            self.send(actor.id, gossip)

    def broadcast_claim(self, claim) -> None:
        """Send a producer's claim to miners, which settle by it, and to
        buyers, which stop trying for the offer it names."""
        gossip = ClaimGossip(claim)
        for actor in (*self.miner_actors, *self.consumer_actors):
            self.send(actor.id, gossip)

    def broadcast_block(self, block) -> None:
        gossip = BlockGossip(block)
        for dest in self.network_actor_ids:
            self.send(dest, gossip)

    # -- registries -------------------------------------------------------------

    def distributor_certificate(self, pk: PublicKey) -> Certificate:
        return issue_certificate(self.distributor_ca, pk)

    def delivery_meter(self, contract_hash: bytes) -> Optional[SmartMeter]:
        """The meter a contract's energy flows into: that of the consumer
        that agreed to it, or None when no consumer did."""
        for consumer in self.consumer_actors:
            if contract_hash in consumer.agreements:
                return consumer.meter
        return None

    def pick_verifier_meter(self, own_pk: PublicKey, rng: Random) -> Optional[PublicKey]:
        candidates = [pk for pk in self.meter_directory if pk != own_pk]
        if not candidates:
            return None
        return rng.choice(candidates)

    def pick_ping_target(self, rng: Random) -> Optional[PublicKey]:
        if not self.meter_directory:
            return None
        if self.config.routing_skew:
            return self.meter_directory[0]  # every ping hammers one routing value
        return rng.choice(self.meter_directory)

    @property
    def ledger_view(self):
        return self.miner_actors[0].miner.ledger

    @property
    def contracts(self) -> Dict[bytes, dict]:
        """Each contract a trader agreed to, by hash, derived from the traders'
        records. ``counted``: a producer's ``contracts`` and a consumer's
        ``agreements`` both hold it. ``settled``: the reference ledger's
        settlements whose commitment, as a consumer sent it, names it."""
        produced = {h: c.terms for p in self.producer_actors for h, c in p.contracts.items()}
        consumers = self.consumer_actors
        agreed = {h: terms for c in consumers for h, terms in c.agreements.items()}
        meters = {h: c.meter for c in consumers for h in c.agreements}
        named = {ctp.t_id: ctp.contract_hash for c in consumers for ctp in c.sent_ctps}
        settled = Counter(named.get(ctp_id) for ctp_id in self.ledger_view.settlements)
        return {
            h: {
                "contract_hash": h,
                "counted": h in produced and h in agreed,
                "settled": settled[h],
                "kwh": terms.energy_amount,
                "meter": meters.get(h),
            }
            for h, terms in {**produced, **agreed}.items()
        }

    # -- main loop -------------------------------------------------------------------

    def run(self) -> Metrics:
        cfg = self.config
        for now in range(cfg.ticks):
            self.now = now
            if now % cfg.consensus_period == 0:
                for actor in self.miner_actors:
                    actor.miner.start_period(now, actor.period_rng)
            for actor in self.miner_actors:
                released = actor.miner.ledger.expire_ctps(now)
                if actor.reference and released:
                    self.metrics.bump("ctp_expired", len(released))
            self.deliver_due(now)
            if now == 0:  # each owned meter joins once; a prosumer's two roles share one
                for actor in self.step_actors:
                    if actor.owns_meter:
                        self.send_join(actor, make_join(actor.meter.identity.keypair, actor.id))
            for actor in filter(_awake, self.step_actors):  # filtered in C, in order
                actor.step(now)
            for actor in self.miner_actors:
                if actor.miner.next_mine_at == now:
                    actor.mine(now)
            if self.mesh.maybe_widen(now):
                self.metrics.bump("rebalances")
            self._tick_checks(now)
        self._finalize()
        return self.metrics

    # -- end-of-tick work ---------------------------------------------------------

    def _tick_checks(self, now: int) -> None:
        """Journal each miner's end-of-tick pending-DB digest, and count
        invariant breaches: one ``safety_violations`` per payer whose
        pending total exceeds its coin, on each miner, and one
        ``conservation_violations`` when miner 0's coin total moved.

        Both are done for a miner only when its ledger is a different object
        or its change count moved since they were last done. Every change is
        journaled and counted, so otherwise its state is the one last
        recounted: the kept result is the one a recount would give, and its
        digest is the one last journaled, which ``record_tick_digest`` would
        not journal again.
        """
        recounted = self._recounted
        metrics = self.metrics
        for index, actor in enumerate(self.miner_actors):
            ledger = actor.miner.ledger
            kept = recounted[index]
            if kept[0] is not ledger or kept[1] != ledger.changes:
                actor.miner.record_tick_digest(now)
                kept = recounted[index] = (ledger, ledger.changes, *self._recount(ledger))
            _, _, coin_moved, unsafe = kept
            if index == 0 and coin_moved:
                metrics.bump("conservation_violations")
            if unsafe:
                metrics.bump("safety_violations", unsafe)

    def _recount(self, ledger: Ledger) -> Tuple[bool, int]:
        """(coin total differs from the start?, payers committed past their
        coin), counted afresh from the pending ``entries``, not from the
        database's running totals, which this checks."""
        per_pk: Dict[PublicKey, int] = {}
        for tx, _ in ledger.ctp_db.entries.values():
            per_pk[tx.pk] = per_pk.get(tx.pk, 0) + tx.price
        unsafe = sum(pending > ledger.coin_balance(pk) for pk, pending in per_pk.items())
        return ledger.total_coin() != self.initial_total_coin, unsafe

    def _finalize(self) -> None:
        reference = self.miner_actors[0]
        self.metrics.bump("chain_height", len(reference.miner.chain))
        self.metrics.bump("ctp_pending_end", len(reference.miner.ledger.ctp_db))
        settled = len(reference.miner.ledger.settlements)
        self.metrics.bump("ctp_settled", settled)
        # bumped only when nonzero, as a counter that never moved has no line
        agreed = sum(record["counted"] for record in self.contracts.values())
        if agreed:
            self.metrics.bump("contracts_agreed", agreed)
        if settled:
            self.metrics.bump("settlements", settled)
        routed = self.metrics.get("messages_routed")
        if routed:  # what flooding each one to every other participant would send
            others = len(self.network_actor_ids) - 1
            self.metrics.bump("naive_broadcast_messages", routed * others)
        for node_id in sorted(self.mesh.nodes):
            self.metrics.per_backbone_load[node_id] = self.mesh.nodes[node_id].handled
        self.metrics.note("x_final", self.mesh.table.x)
        self.metrics.note("seed", self.config.seed)
        self.metrics.note("attack", self.config.attack)

    def chain_dump(self) -> bytes:
        return self.miner_actors[0].miner.chain.dump_bytes()
