"""Deterministic discrete-event world wiring all protocol actors together.

``World`` builds the actors, runs the tick loop, carries messages and
counts invariant breaches; it decides nothing about the protocol. Who
misbehaves comes from the attack's record in ``config.ATTACKS``, what a
consumer does from ``actors.CONSUMER_BEHAVIORS``, and when the routing
prefix widens from ``Mesh.maybe_widen``.

Time is integer ticks; one tick is one network hop. Each tick runs fixed
phases: consensus-period bookkeeping, expiry sweeps, message deliveries,
meter joins (tick 0 only), the wakeups of buyers whose start tick it is,
the steps of the traders that are awake, mining wakeups, then the mesh's
widening check and the end-of-tick checks (digest journaling and invariant
checks). All randomness comes from labeled child RNGs of the scenario
seed, so two runs with the same config are bit-identical.

A trader sleeps (``Actor.awake`` false) only in a state in which every
step would do nothing until a delivered message, or its start tick, ends
it: a producer whose offers are all posted or waiting for their genesis,
with nothing to deliver; a buyer with no attempt and no contract on its
meter that has made its trades, found no offer to try or is set up before
its start tick; the double spender after its burst. The delivery that ends
such a state sets ``awake`` again. The loop keeps one schedule: the
trading consumers, sorted by start tick at build, of which it wakes each
at its start tick with one comparison per tick; a consumer that sleeps for
good, as the double spender does, is not on it. So the loop steps the
awake traders in the fixed order, and skipping a sleeper changes nothing
a run records.

The end-of-tick checks journal a miner's pending-DB digest and recount
its pending commitments from ``entries`` on each tick that miner's ledger
changed: a new ledger object (a tip swap), or a move in its journal's
change count. Every ledger change is journaled, so on any other tick the
state is the one last recounted, and the kept result is counted again. The
counters therefore grow exactly as a recount on every tick would make them
grow, and the digest journal holds what journaling every tick would. Only
the reference miner's coin total feeds a counter, so only its coin is
summed; every miner's payers are recounted.

Every message travels exactly one tick. A send appends one entry to one
outbox, and so does a broadcast: one entry holds the broadcast's
``Copies``, the actors of its audience that read it, in audience order.
Each tick's delivery phase swaps the outbox for an empty one before
handing the old one out in append order, a broadcast's copies one after
another. So whatever a delivery sends lands in the next tick, and
messages arrive in (send tick, send order). An actor declares in
``reads_gossip`` whether it reads gossiped blocks and claims; one that
does not is sent no copy, as its handler would change nothing any code
reads. For the same reason a ``Block`` whose ``trader_index`` holds
nothing for traders, as every heartbeat's does, is delivered to the
miners only; it is addressed to the same actors as any block.

Under loss, ``_lost`` draws each message's fate, and each broadcast copy's
in audience order, a copy to an actor that is not delivered it included;
a lost message or copy counts in ``messages_lost``. So a run draws and
loses exactly what a send per copy would.

Verdicts read the protocol's own records once the run ends; ``World``
keeps no copy. ``contracts`` derives each contract from the traders' records
and the reference miner's settlements. The one hook traders call during a
run is ``delivery_meter``, since the simulator stands in for the grid.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from random import Random
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from ..arb import Mesh, make_join
from ..crypto import Certificate, KeyPair, PublicKey, hash_bytes, issue_certificate
from ..ledger import _NOTHING_FOR_TRADERS, Block, Ledger, LedgerConfig, Miner
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


class Copies(tuple):
    """The actors one broadcast reaches, in audience order. The outbox holds
    it in place of a destination id, and it hashes by identity, so the
    delivery loop's id lookup misses it without hashing each actor."""

    __slots__ = ()
    __hash__ = object.__hash__


class Audience(NamedTuple):
    addressed: Tuple[Actor, ...]  # every actor a broadcast goes to, in order
    readers: Copies  # those of them it is delivered to
    reader_set: FrozenSet[Actor]  # the same, for the membership test under loss


def _audience(actors, reads=attrgetter("reads_gossip")) -> Audience:
    """The audience of a broadcast to ``actors``, delivered to those that
    ``reads`` picks, by default the actors that read gossip."""
    actors = tuple(actors)
    readers = Copies(actor for actor in actors if reads(actor))
    return Audience(actors, readers, frozenset(readers))


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
        # (destination actor id, or a broadcast's Copies, payload) in send
        # order, delivered next tick
        self._outbox: List[Tuple[object, object]] = []
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
        self._tx_audience = _audience(self.miner_actors)
        self._claim_audience = _audience([*self.miner_actors, *consumers])
        self._block_audience = _audience([*self.miner_actors, *self.step_actors])
        # a block with nothing for traders: addressed alike, read by miners only
        self._heartbeat_audience = _audience(
            self._block_audience.addressed, self._tx_audience.reader_set.__contains__
        )
        # the consumers that trade, latest start tick first: one set up before
        # its start tick sleeps until ``run`` wakes it then
        self._starts = sorted(
            (c for c in consumers if CONSUMER_BEHAVIORS[c.behavior][0] == "_trade_step"),
            key=attrgetter("start_delay"), reverse=True,
        )

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
        if self._loss_rate > 0.0 and self._lost():
            return
        self._outbox.append((dest_id, payload))

    def _lost(self) -> bool:
        """Draw whether one message or broadcast copy is lost, and count it
        in ``messages_lost`` if it is. Called only under loss."""
        if self._loss_rng.random() < self._loss_rate:
            self.metrics.bump("messages_lost")
            return True
        return False

    def deliver_due(self, now: int) -> None:
        """Hand every message sent before this call to its actor, in send
        order, and each broadcast's copies to its readers, in audience
        order; what they send in turn waits for the next call."""
        due, self._outbox = self._outbox, []
        actors = self.actors
        for dest, payload in due:
            target = actors.get(dest)
            if target is not None:
                target.on_message(payload, now)
            elif type(dest) is Copies:
                for reader in dest:
                    reader.on_message(payload, now)

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

    def _multicast(self, audience: Audience, payload) -> None:
        """Put one broadcast in the outbox, for its audience's readers.
        Under loss every copy draws its fate in audience order, as a send
        would, and only a reader's surviving copy is kept."""
        readers = audience.readers
        if self._loss_rate > 0.0:
            reader_set = audience.reader_set
            readers = Copies(
                [actor for actor in audience.addressed if not self._lost() and actor in reader_set]
            )
        self._outbox.append((readers, payload))

    def broadcast_tx(self, tx) -> None:
        """Send a transaction to every miner. Traders read mined
        transactions from blocks, and a commitment reaches its producer
        routed to the offer."""
        self._multicast(self._tx_audience, TxGossip(tx))

    def broadcast_claim(self, claim) -> None:
        """Send a producer's claim to miners, which settle by it, and to
        buyers, which stop trying for the offer it names."""
        self._multicast(self._claim_audience, ClaimGossip(claim))

    def broadcast_block(self, block) -> None:
        """Send a block to every miner, and to the traders that read gossip
        unless it is a ``Block`` whose ``trader_index`` holds nothing for
        them, as a heartbeat's does: their handlers would change nothing.
        Either way it is addressed to the same actors, so it draws the same
        losses."""
        audience = self._block_audience
        # a heartbeat's empty ``txs`` answers without building its index
        if isinstance(block, Block) and (
            block.txs == () or block.trader_index is _NOTHING_FOR_TRADERS
        ):
            audience = self._heartbeat_audience
        self._multicast(audience, BlockGossip(block))

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
        next_start = self._starts[-1].start_delay if self._starts else None
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
            if now == next_start:
                next_start = self._wake_starters(now)
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

    def _wake_starters(self, now: int) -> Optional[int]:
        """Wake each buyer whose start tick is ``now``; return the next
        buyer's start tick, or None when none is left."""
        starts = self._starts
        while starts and starts[-1].start_delay <= now:
            starts.pop().awake = True
        return starts[-1].start_delay if starts else None

    # -- end-of-tick work ---------------------------------------------------------

    def _tick_checks(self, now: int) -> None:
        """Journal each miner's end-of-tick pending-DB digest, and count
        invariant breaches: one ``safety_violations`` per payer whose
        pending total exceeds its coin, on each miner, and one
        ``conservation_violations`` when miner 0's coin total moved; no
        other miner's coin total is read, so none is summed.

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
                recount = self._recount(ledger, actor.reference)
                kept = recounted[index] = (ledger, ledger.changes, *recount)
            _, _, coin_moved, unsafe = kept
            if coin_moved:
                metrics.bump("conservation_violations")
            if unsafe:
                metrics.bump("safety_violations", unsafe)

    def _recount(self, ledger: Ledger, reference: bool) -> Tuple[bool, int]:
        """(the reference ledger's coin total differs from the start?, payers
        committed past their coin), the payers counted afresh from the
        pending ``entries``, not from the database's running totals, which
        this checks."""
        per_pk: Dict[PublicKey, int] = {}
        for tx, _ in ledger.ctp_db.entries.values():
            per_pk[tx.pk] = per_pk.get(tx.pk, 0) + tx.price
        unsafe = sum(pending > ledger.coin_balance(pk) for pk, pending in per_pk.items())
        return reference and ledger.total_coin() != self.initial_total_coin, unsafe

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
            others = len(self._block_audience.addressed) - 1
            self.metrics.bump("naive_broadcast_messages", routed * others)
        for node_id in sorted(self.mesh.nodes):
            self.metrics.per_backbone_load[node_id] = self.mesh.nodes[node_id].handled
        self.metrics.note("x_final", self.mesh.table.x)
        self.metrics.note("seed", self.config.seed)
        self.metrics.note("attack", self.config.attack)

    def chain_dump(self) -> bytes:
        return self.miner_actors[0].miner.chain.dump_bytes()
