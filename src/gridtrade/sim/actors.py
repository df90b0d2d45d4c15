"""Simulated network participants.

Actors are plain state machines. The world delivers messages to
``on_message`` and calls ``step`` once per tick, in a fixed order, on each
trader that is ``awake``, so a run is fully determined by the scenario
seed. A trader falls asleep only in a state where every step would do
nothing until a delivered message ends it, and that message wakes it; the
one tick that wakes a trader is a buyer's start tick, at which the world
wakes it. So whether a trader sleeps cannot change a run. Actors never
share mutable state; everything crosses
through world messaging (energy pulses, the one physical channel, go
straight to the destination meter object, standing in for the grid
connection).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Set, Tuple

from ..arb import JoinMessage, make_join
from ..crypto import KeyPair, hash_bytes
from ..ledger import Block, Miner, check_claim_signature, make_producer_claim
from ..meter import CoE, MeterError, SmartMeter, VerificationRequest
from ..transactions import (
    ContractTerms,
    CTPTx,
    DecodeError,
    ERCTx,
    GenesisTx,
    GENESIS_CERTIFICATE,
    NegotiationMsg,
    SupplyEnergyTx,
    check_structure,
    contract_terms,
    make_ctp,
    make_genesis,
    make_negotiation,
    make_supply_energy,
    signed,
)
from .messages import (
    BlockGossip,
    ClaimGossip,
    JoinAck,
    JoinRequest,
    Ping,
    Routed,
    TAG_PING,
    TxGossip,
    decode_routed_payload,
    encode_routed_payload,
)


NEGOTIATION_TIMEOUT = 40  # ticks a buyer gives an attempt to reach a commitment
FLOOD_OFFERS = 50  # negotiation messages the flooding consumer sends
FORGERY_ATTEMPTS = 50  # forged receipts the forger sends
_LOAD_PING = encode_routed_payload(Ping(b"load"))  # every chatter ping, framed once


class Actor:
    awake = True  # stepped on each tick while true; see the module docstring
    # sent copies of gossiped blocks and claims; false for an actor whose
    # handler for them changes nothing any code reads
    reads_gossip = True

    def __init__(self, actor_id: str, world):
        self.id = actor_id
        self.world = world

    def on_message(self, payload, now: int) -> None:  # pragma: no cover - default
        pass

    def step(self, now: int) -> None:  # pragma: no cover - default
        pass


# the metrics counter for each reason ``Mesh.next_hop`` drops a message
_DROP_COUNTERS = {
    "offer limit exceeded": "dropped_offer_limit",
    "undeliverable": "undeliverable",
}


class BackboneActor(Actor):
    """Wraps one backbone node; forwards envelopes hop by hop."""

    def __init__(self, actor_id: str, world, node_id: str):
        super().__init__(actor_id, world)
        self.node_id = node_id

    def on_message(self, payload, now: int) -> None:
        world = self.world
        if isinstance(payload, Routed):  # one backbone hop
            trace = payload.trace
            trace.append(self.node_id)
            try:
                action, target = world.mesh.next_hop(
                    self.node_id, payload.dest_pk, payload.payload, now
                )
            except TypeError:  # a dest_pk that is not bytes: count and drop
                world.metrics.bump("routed_malformed")
                return
            if action == "forward":
                if len(trace) >= 5:  # sender and four backbones: needs an inconsistent table
                    world.metrics.bump("routing_loops")
                    return
                world.send(target, payload)
            elif action == "deliver":
                trace.append(target)
                counters = world.metrics.counters  # the hot path skips Metrics.bump
                counters["messages_delivered"] = counters.get("messages_delivered", 0) + 1
                counters["trace_hops_total"] = counters.get("trace_hops_total", 0) + len(trace) - 1
                world.send(target, payload)
            else:
                world.metrics.bump(_DROP_COUNTERS[target])
        elif isinstance(payload, JoinRequest):
            join = payload.join
            if not isinstance(join, JoinMessage):  # nothing to answer: count and drop
                world.metrics.bump("join_rejected")
                return
            ok, reason = world.mesh.join(self.node_id, join)
            world.metrics.bump("join_accepted" if ok else "join_rejected")
            world.send(payload.reply_to, JoinAck(join.pk, ok, reason))


class MinerActor(Actor):
    """Hosts one miner: admissions, block gossip, and scheduled mining."""

    def __init__(self, actor_id: str, world, miner: Miner, reference: bool, period_rng: Random):
        super().__init__(actor_id, world)
        self.miner = miner
        self.reference = reference  # miner 0 feeds the headline counters
        self.period_rng = period_rng  # draws this miner's slot in each period
        self.accepted_ctp_ids: List[bytes] = []

    def _bump(self, name: str, by: int = 1) -> None:
        if self.reference:
            self.world.metrics.bump(name, by)

    def on_message(self, payload, now: int) -> None:
        if isinstance(payload, TxGossip):
            self._on_tx(payload.tx, now)
        elif isinstance(payload, ClaimGossip):
            result = self.miner.ledger.submit_claim(payload.claim)
            self._bump("claims_accepted" if result else "claims_rejected")
        elif isinstance(payload, BlockGossip):
            self._on_block(payload.block)

    def _on_tx(self, tx, now: int) -> None:
        if isinstance(tx, CTPTx):
            result = self.miner.ledger.submit_ctp(tx, now)
            if result:
                self.accepted_ctp_ids.append(tx.t_id)
            self._bump("ctp_accepted" if result else "ctp_rejected")
            return
        if isinstance(tx, ERCTx):
            step, claim = self.miner.ledger.receipt_claim(tx)
            if step is not None:
                self._bump(f"erc_invalid_{step}")
            elif claim is None:
                self._bump("erc_unclaimed")
            elif self.miner.add_to_mempool(tx):
                self._bump("erc_admitted")
            return
        if isinstance(tx, (GenesisTx, SupplyEnergyTx)):
            ok, _ = check_structure(tx)
            if ok and self.miner.add_to_mempool(tx):
                self._bump("tx_admitted")
            elif not ok:
                self._bump("tx_rejected")

    def _on_block(self, block) -> None:
        outcome = self.miner.receive_block(block)
        if outcome.applied:
            if outcome.header_matched is False:
                self.world.metrics.bump("consistency_faults")
            if outcome.swapped:
                self.world.metrics.bump("tip_swaps")
        else:
            self.world.metrics.bump("blocks_not_applied")

    def mine(self, now: int) -> None:
        block = self.miner.mine(now)
        if block is not None:
            self.world.metrics.bump("blocks_mined")
            self.world.broadcast_block(block)


# ---------------------------------------------------------------------------
# regular participants


@dataclass
class OfferState:
    """One supply offer, held under its own energy account."""

    keypair: KeyPair
    amount: int
    posted_price: int
    negotiable: bool
    start_tick: int
    # new -> awaiting_genesis -> genesis_mined -> posted; "posted" is final,
    # since consumers read the offer off the mined supply transaction, and
    # "awaiting_genesis" ends only when a block brings the genesis
    stage: str = "new"
    genesis_id: Optional[bytes] = None
    reserved: bool = False


@dataclass
class PendingContract:
    terms: ContractTerms
    offer: OfferState
    claimed: bool = False


@dataclass
class ActiveDelivery:
    meter: SmartMeter
    contract_hash: bytes
    remaining: int


class MeterMixin:
    """Shared duties: unwrapping routed envelopes, VR traffic, receipts."""

    meter: Optional[SmartMeter]
    owns_meter: bool

    def _on_routed(self, env: Routed, now: int) -> None:
        """Negotiations and commitments count for any key; endorsement
        traffic only for the meter's own key; pings and anything else are
        dropped.

        Checks run in order: a payload that is not ``bytes`` is counted as
        malformed, a ping is dropped on its tag byte without being decoded,
        and only then is the payload decoded.
        """
        payload = env.payload
        if not isinstance(payload, bytes):
            self.world.metrics.bump("routed_malformed")
            return
        if payload and payload[0] == TAG_PING:  # load traffic, read by nobody
            return
        try:
            inner = decode_routed_payload(payload)
        except DecodeError:  # malformed wire bytes: count and drop
            self.world.metrics.bump("routed_malformed")
            return
        if isinstance(inner, NegotiationMsg):
            self._on_negotiation(inner, now)
        elif isinstance(inner, CTPTx):
            self._on_ctp(inner, env.dest_pk)
        elif self.meter is None or env.dest_pk != self.meter.public:
            return
        elif isinstance(inner, VerificationRequest):
            try:
                coe = self.meter.process_verification_request(
                    inner, self.world.manufacturer_ca_pk
                )
            except MeterError:
                self.world.metrics.bump("vr_rejected")
                return
            self.world.metrics.bump("vr_served")
            self.world.send_routed(self, self.meter.public, inner.requester_mpk, coe)
        elif isinstance(inner, CoE):
            try:
                self.meter.install_coe(inner)
            except MeterError:
                self.world.metrics.bump("coe_rejected")

    def _on_ctp(self, ctp: CTPTx, dest_pk: bytes) -> None:
        """Only a producer takes commitments; anyone else drops them."""

    def _pump_meter_receipts(self, now: int) -> None:
        """Tamper-resistant duty: emit a receipt once delivery completes."""
        if self.meter is None or not self.owns_meter:
            return
        # in registration order; a prosumer's consumer registers contracts on
        # the meter its producer owns, so the owner's pump sees them all
        waiting = self.meter.contracts
        for contract_hash, ctp in list(waiting.items()):
            if ctp.expired(now):  # time only moves on: it can never emit
                del waiting[contract_hash]
                continue
            record = self.meter.records.get(contract_hash)
            if record is None or not record.complete:
                continue
            del waiting[contract_hash]
            try:
                erc = self.meter.generate_erc(ctp, now)
            except MeterError:
                self.world.metrics.bump("erc_refused")
                continue
            self.world.metrics.bump("erc_emitted")
            self.world.broadcast_tx(erc)


PRODUCER_BEHAVIORS = ("honest", "silent", "forger")


class ProducerActor(Actor, MeterMixin):
    """Posts supply offers, negotiates, claims commitments, delivers energy.

    A commitment reaches the producer routed to the offer's account key,
    behind the buyer's acceptance on the same backbone path, so it is
    matched or declined the moment it lands; no commitment waits.

    ``behavior`` selects the adversarial variant: "honest" delivers,
    "silent" never claims nor delivers after the commitment arrives, and
    "forger" claims, skips delivery, and floods forged receipts built from
    material harvested off the public chain.

    A producer sleeps once every offer is posted or waits for its genesis,
    no delivery runs and its meter holds no contract. The block that brings
    a genesis wakes it, and so does a commitment it accepts for delivery.
    The forger never sleeps, and neither does a prosumer's producer: its
    consumer registers contracts on the meter the producer owns and pumps,
    and waking the producer from there would have one actor write
    another's state. A producer reads a gossiped block through its
    ``trader_index``, as a buyer does, and only while an offer waits for its
    genesis or the forger has no genuine receipt to replay.
    """

    def __init__(
        self,
        actor_id: str,
        world,
        meter: Optional[SmartMeter],
        owns_meter: bool,
        rng: Random,
        offers: List[OfferState],
        behavior: str = "honest",
        shares_meter: bool = False,
    ):
        super().__init__(actor_id, world)
        if behavior not in PRODUCER_BEHAVIORS:
            raise ValueError(f"unknown producer behavior {behavior!r}")
        self.meter = meter
        self.owns_meter = owns_meter
        self.offers = offers
        self.behavior = behavior
        self._may_sleep = behavior != "forger" and not shares_meter
        # the offers not yet posted, in offer order, and how many of them
        # wait for their genesis; every offer starts new
        self._unposted = list(offers)
        self._awaiting_genesis = 0
        self.contracts: Dict[bytes, PendingContract] = {}
        self.deliveries: List[ActiveDelivery] = []
        # (offer account pk, sender pk) -> negotiation messages received
        self.negot_received: Dict[Tuple[bytes, bytes], int] = {}
        # forger state
        self.harvested: Optional[ERCTx] = None
        self.forge_target: Optional[CTPTx] = None
        self.forgeries_sent = 0
        self.forge_keypair = KeyPair.generate(rng) if behavior == "forger" else None

    # -- lifecycle ---------------------------------------------------------

    def step(self, now: int) -> None:
        posted = False
        for offer in self._unposted:
            if offer.stage == "new" and now >= offer.start_tick:
                cert = self.world.distributor_certificate(offer.keypair.public)
                genesis = make_genesis(GENESIS_CERTIFICATE, cert.to_bytes(), offer.keypair)
                offer.genesis_id = genesis.t_id
                offer.stage = "awaiting_genesis"
                self._awaiting_genesis += 1
                self.world.broadcast_tx(genesis)
                self.world.send_join(self, make_join(offer.keypair, self.id))
            elif offer.stage == "genesis_mined":
                supply = make_supply_energy(
                    offer.genesis_id,
                    offer.amount,
                    offer.posted_price,
                    offer.negotiable,
                    offer.keypair,
                )
                offer.stage = "posted"
                posted = True
                self.world.metrics.bump("offers_posted")
                self.world.broadcast_tx(supply)
        if posted:
            self._unposted = [offer for offer in self._unposted if offer.stage != "posted"]
        # each duty runs only when it has something to loop over
        if self.deliveries:
            self._deliver(now)
        if self.behavior == "forger":
            self._forge_step(now)
        if self.meter is not None and self.meter.contracts:
            self._pump_meter_receipts(now)
        if (
            self._may_sleep
            and len(self._unposted) == self._awaiting_genesis  # no offer is new
            and not self.deliveries
            and not (self.meter is not None and self.meter.contracts)
        ):
            self.awake = False

    def _deliver(self, now: int) -> None:
        still: List[ActiveDelivery] = []
        for job in self.deliveries:  # one kWh per tick
            job.meter.record_delivery(job.contract_hash, 1)
            job.remaining -= 1
            self.world.metrics.bump("kwh_delivered")
            if job.remaining > 0:
                still.append(job)
        self.deliveries = still

    # -- messages ------------------------------------------------------------

    def on_message(self, payload, now: int) -> None:
        if isinstance(payload, Routed):
            self._on_routed(payload, now)
        elif isinstance(payload, BlockGossip):
            if self._awaiting_genesis or (self.behavior == "forger" and self.harvested is None):
                block = payload.block
                if not isinstance(block, Block):
                    return
                _, _, geneses, receipts = block.trader_index
                if geneses:
                    for offer in self._unposted:
                        if offer.stage == "awaiting_genesis" and offer.genesis_id in geneses:
                            offer.stage = "genesis_mined"
                            self._awaiting_genesis -= 1
                            self.awake = True  # to post the offer
                if receipts and self.behavior == "forger" and self.harvested is None:
                    # a receipt outside its domain would make every forgery raise
                    own = self.forge_keypair.public
                    self.harvested = next(
                        (r for r in receipts if r.pk != own and check_structure(r)[0]), None
                    )

    def _find_offer(self, account_pk: bytes) -> Optional[OfferState]:
        for offer in self.offers:
            if offer.keypair.public == account_pk:
                return offer
        return None

    def _reserve_price(self, offer: OfferState) -> int:
        if not offer.negotiable:
            return offer.posted_price
        return (offer.posted_price * 9 + 9) // 10

    def _on_negotiation(self, msg: NegotiationMsg, now: int) -> None:
        ok, _ = check_structure(msg)
        if not ok:
            return
        offer = self._find_offer(msg.dest_energy_account_pk)
        if offer is None:
            return
        pair = (msg.dest_energy_account_pk, msg.sender_pk)
        self.negot_received[pair] = self.negot_received.get(pair, 0) + 1
        self.world.metrics.bump("negotiation_rounds")
        if offer.amount * msg.price >= 1 << 64:
            # no contract can carry a total price past u64: refuse unanswered
            self.world.metrics.bump("negotiation_price_overflow")
            return
        reserve = self._reserve_price(offer)
        if msg.status == 1:
            # counterparty accepted our counter-offer: agree without a reply
            if not offer.reserved and msg.price >= reserve:
                self._agree(offer, msg.price, msg.t_id)
            return
        if offer.reserved:
            price, status = 0, 0  # refuse
        elif msg.price >= reserve:
            price, status = msg.price, 1  # accept
        elif msg.round + 2 <= self.world.config.offer_limit:
            price, status = reserve, 0  # counter, leaving the peer a round to accept
        else:
            price, status = 0, 0  # refuse
        reply = make_negotiation(msg.sender_pk, price, status, msg.round + 1, offer.keypair)
        self.world.send_routed(self, offer.keypair.public, msg.sender_pk, reply)
        if status == 1:
            self._agree(offer, price, reply.t_id)

    def _agree(self, offer: OfferState, unit_price: int, nonce: bytes) -> None:
        contract_hash, terms = contract_terms(offer.amount, unit_price, nonce)
        offer.reserved = True
        self.contracts[contract_hash] = PendingContract(terms=terms, offer=offer)

    def _on_ctp(self, ctp: CTPTx, dest_pk: bytes) -> None:
        """Claim a commitment that matches an unclaimed contract; decline
        any other at once, and count it as a mismatch only when the offer it
        is addressed to holds an unclaimed contract at its price.

        ``check_structure`` runs last, just before a claim or a count.
        """
        pending = self.contracts.get(ctp.contract_hash)
        if pending is not None:
            if (
                not pending.claimed
                and ctp.price == pending.terms.total_price
                and check_structure(ctp)[0]
            ):
                self._accept_commitment(ctp, pending)
            return
        if any(
            not c.claimed and c.terms.total_price == ctp.price
            and c.offer.keypair.public == dest_pk
            for c in self.contracts.values()
        ) and check_structure(ctp)[0]:
            self.world.metrics.bump("ctp_declined_mismatch")

    def _accept_commitment(self, ctp: CTPTx, pending: PendingContract) -> None:
        pending.claimed = True
        if self.behavior == "silent":
            return  # take the commitment, never claim nor deliver
        claim = make_producer_claim(
            ctp.t_id, ctp.contract_hash, pending.terms.energy_amount, pending.offer.keypair
        )
        self.world.broadcast_claim(claim)
        if self.behavior == "forger":
            self.forge_target = ctp
            return
        meter = self.world.delivery_meter(ctp.contract_hash)
        if meter is not None:
            self.deliveries.append(
                ActiveDelivery(
                    meter=meter,
                    contract_hash=ctp.contract_hash,
                    remaining=pending.terms.energy_amount,
                )
            )
            self.awake = True  # to deliver

    # -- receipt forging -------------------------------------------------------

    def _forge_step(self, now: int) -> None:
        """Replay a genuine endorsement with keys the forger does not own."""
        if self.harvested is None or self.forge_target is None:
            return
        if self.forgeries_sent >= FORGERY_ATTEMPTS:
            return
        if self.forge_target.expired(now):
            return
        src = self.harvested
        # even attempts use a fresh key, which the inclusion proof cannot
        # cover; odd ones reuse the revealed leaf key, whose proof verifies
        # but whose signature the forger cannot make
        pk = self.forge_keypair.public if self.forgeries_sent % 2 == 0 else src.pk
        forged = ERCTx(
            b"", now, self.forge_target.t_id, self.forge_target.price, src.coe_root,
            src.coe_vm_sign, src.coe_vm_cert, src.coe_pk, src.merkle_hashes, pk, b"",
        )
        erc = signed(forged, self.forge_keypair)
        self.forgeries_sent += 1
        self.world.metrics.bump("forgeries_sent")
        self.world.broadcast_tx(erc)


# trades an honest consumer makes: each receipt spends one leaf of its meter's
# key pool, so this equals the default ``key_pool_size``; a pool that renews
# once it runs out would tie the two
MAX_TRADES = 8

# behaviour -> (a consumer's duty once set up, the trades it makes, whether it
# reads gossiped blocks and claims). A consumer that trades has a meter; each
# malicious trader makes one trade. The duty is bound once in ``__init__``, so
# ``step`` does not compare the behaviour string on every tick. The double
# spender and the chatter never read their book, the sold set or an attempt,
# and make no trade a new offer could wake them for, so they are sent no
# gossip; the flooder joins on the first offer a block brings.
CONSUMER_BEHAVIORS = {
    "honest": ("_trade_step", MAX_TRADES, True),
    "no_ctp": ("_trade_step", 1, True),
    "bad_hash": ("_trade_step", 1, True),
    "silent": ("_trade_step", 1, True),
    "double_spend": ("_double_spend_step", 0, False),
    "flood": ("_flood_step", 0, True),
    "chatter": ("_chatter_step", 0, False),
}


@dataclass
class TradeAttempt:
    offer: SupplyEnergyTx  # as mined, and as intake type- and range-checked it
    session: KeyPair
    # a buyer's: joining -> negotiating -> committed; the flooder's: joining ->
    # flooding, a state in which no reply is read
    state: str
    started: int
    ctp: Optional[CTPTx] = None
    settled: bool = False  # a mined receipt names ``ctp``


class ConsumerActor(Actor, MeterMixin):
    """Buys energy: scans offers, negotiates, commits, lets the meter attest.

    ``behavior`` variants: "honest"; "no_ctp" agrees then never commits;
    "bad_hash" commits to a corrupted contract hash; "silent" commits then
    ignores the rest of the trade; "double_spend" fires a burst of
    commitments summing past its balance; "flood" joins one session on the
    first offer it sees and sprays negotiation messages over it; "chatter"
    generates routed pings for load scenarios.

    Every session is one ``TradeAttempt`` on one mined offer, and each offer
    gets one attempt, however it ends.

    A buyer reads a gossiped block through its ``trader_index``: the checked
    supplies it adds to its book, and the commitments the block's receipts
    settle; it is sent no block whose index holds nothing. A trading
    consumer with no attempt sleeps when its meter holds no contract and it
    has made its trades, its last scan of the book found no offer it could
    try, or it is set up before ``start_delay``; a new offer wakes it while
    it can still trade, and the world wakes it at ``start_delay``. The
    double spender sleeps for good once its burst is sent; the flooder and
    the chatter never sleep.
    """

    def __init__(
        self,
        actor_id: str,
        world,
        account: KeyPair,
        meter: Optional[SmartMeter],
        owns_meter: bool,
        rng: Random,
        behavior: str = "honest",
        start_delay: int = 0,
        offer_preference: int = 0,
        sibling_pks: Optional[Set[bytes]] = None,
    ):
        super().__init__(actor_id, world)
        self.account = account
        self.meter = meter
        self.owns_meter = owns_meter
        self.rng = rng
        self.behavior = behavior
        step_name, self.max_trades, self.reads_gossip = CONSUMER_BEHAVIORS[behavior]
        self._behavior_step = getattr(self, step_name)
        if meter is None:  # nothing to set up and no receipts to pump: one call a tick
            self.step = self._behavior_step
        self.start_delay = start_delay
        self.offer_preference = offer_preference
        self.sibling_pks = sibling_pks or set()
        self.offers: Dict[bytes, SupplyEnergyTx] = {}  # supply t_id -> the mined offer
        self.offer_keys: List[bytes] = []  # the keys of self.offers, kept sorted
        self.tried: Set[bytes] = set()
        # offer account keys named by a verified producer claim: sold offers
        self.sold: Set[bytes] = set()
        # (len(offer_keys), len(tried)) at the last scan that found no untried
        # offer: both only grow, and so does sold, which only removes offers,
        # so the scan cannot succeed while they hold
        self._idle_book: Optional[Tuple[int, int]] = None
        self.attempt: Optional[TradeAttempt] = None
        self.trades_done = 0
        # contract hash -> terms of each agreement reached, committed or not
        self.agreements: Dict[bytes, ContractTerms] = {}
        self.sent_ctps: List[CTPTx] = []
        # request_coe <-> await_coe -> done; a consumer without a meter has
        # nothing to set up
        self._init_state = "request_coe" if meter is not None else "done"
        self._vr_sent_at: Optional[int] = None
        self.flood_sent = 0

    # -- initialization: key pool, endorsement --------------------------------

    def _init_step(self, now: int) -> None:
        if self._init_state == "request_coe":
            if now < 3:
                return
            if self.meter.pool is None:  # a retry asks to endorse the same pool
                self.meter.generate_key_pool(self.world.config.key_pool_size)
            vm_pk = self.world.pick_verifier_meter(self.meter.public, self.rng)
            if vm_pk is None:  # nobody to endorse us; trade cannot proceed
                self._init_state = "done"
                return
            vr = self.meter.make_verification_request(self.meter.pool, vm_pk)
            self.world.metrics.bump("vr_sent")
            self.world.send_routed(self, self.meter.public, vm_pk, vr)
            self._vr_sent_at = now
            self._init_state = "await_coe"
            return
        if self._init_state == "await_coe":
            if self.meter.coe is not None:
                self._init_state = "done"
            elif now - self._vr_sent_at > 30:
                self._init_state = "request_coe"  # retry with another verifier

    # -- main loop ----------------------------------------------------------------

    def step(self, now: int) -> None:
        if self._init_state != "done":
            self._init_step(now)
            if self._init_state != "done":
                return
        self._behavior_step(now)
        if self.meter is not None and self.meter.contracts:
            self._pump_meter_receipts(now)

    # -- honest (and near-honest) trading -----------------------------------------

    def _trade_step(self, now: int) -> None:
        attempt = self.attempt
        if attempt is None:
            if self.trades_done >= self.max_trades or now < self.start_delay:
                self._rest()  # the world wakes a buyer at its start tick
            else:
                self._start_trade(now)
                idle = (len(self.offer_keys), len(self.tried))
                if self.attempt is None and self._idle_book == idle:
                    self._rest()  # until a new offer grows the book
            return
        if attempt.state == "committed":
            if attempt.ctp is not None and (attempt.settled or attempt.ctp.expired(now)):
                self.attempt = None
                self.trades_done += 1
            return
        if now - attempt.started > NEGOTIATION_TIMEOUT:
            self.attempt = None

    def _start_trade(self, now: int) -> None:
        book = (len(self.offer_keys), len(self.tried))
        if book == self._idle_book:
            return
        candidates = []
        balance = None  # read once, and only if some offer gets that far
        for key in self.offer_keys:
            if key in self.tried:
                continue
            offer = self.offers[key]
            if offer.pk in self.sibling_pks or offer.pk in self.sold:
                continue
            if balance is None:
                balance = self.world.ledger_view.available_balance(self.account.public)
            if offer.energy_amount * offer.energy_price <= balance:
                candidates.append(offer)
        if balance is None:
            self._idle_book = book
        if candidates:
            # spread concurrent buyers over the book so they rarely chase one offer
            self._join(candidates[self.offer_preference % len(candidates)], now)

    def _rest(self) -> None:
        """Sleep, unless the meter holds a contract: the pump emits or drops
        its receipt as ticks pass."""
        if self.meter is None or not self.meter.contracts:
            self.awake = False

    def _join(self, offer: SupplyEnergyTx, now: int) -> None:
        """Open the attempt on ``offer`` under a fresh session key."""
        session = KeyPair.generate(self.rng)
        self.tried.add(offer.t_id)  # each offer gets one attempt, however it ends
        self.attempt = TradeAttempt(offer, session, "joining", now)
        self.world.send_join(self, make_join(session, self.id))

    def on_join_ack(self, ack: JoinAck, now: int) -> None:
        attempt = self.attempt
        if attempt is None or attempt.state != "joining" or ack.pk != attempt.session.public:
            return
        if not ack.accepted:
            self.attempt = None
            return
        if self.behavior == "flood":
            attempt.state = "flooding"
            return
        offer = attempt.offer
        price = offer.energy_price * 8 // 10 if offer.negotiable else offer.energy_price
        msg = make_negotiation(offer.pk, price, 0, 1, attempt.session)
        attempt.state = "negotiating"
        self.world.metrics.bump("negotiations_started")
        self.world.send_routed(self, attempt.session.public, offer.pk, msg)

    def _on_negotiation(self, msg: NegotiationMsg, now: int) -> None:
        ok, _ = check_structure(msg)
        if not ok:
            return
        attempt = self.attempt
        if (
            attempt is None
            or attempt.state != "negotiating"
            or msg.dest_energy_account_pk != attempt.session.public
            or msg.sender_pk != attempt.offer.pk
        ):
            return
        self.world.metrics.bump("negotiation_rounds")
        # an acceptance or a counter-offer binds only at a price from 1 up to the
        # posted one; price 0 is an outright rejection
        if 0 < msg.price <= attempt.offer.energy_price:
            if msg.status == 1:
                self._commit(attempt, msg.price, msg.t_id, now)
                return
            if msg.round + 1 <= self.world.config.offer_limit:
                accept = make_negotiation(
                    attempt.offer.pk, msg.price, 1, msg.round + 1, attempt.session
                )
                self.world.send_routed(self, attempt.session.public, attempt.offer.pk, accept)
                self._commit(attempt, msg.price, accept.t_id, now)
                return
        self.attempt = None

    def _commit(self, attempt: TradeAttempt, unit_price: int, nonce: bytes, now: int) -> None:
        """Agreement reached: derive terms, route the commitment to the
        offer, and gossip it to the miners."""
        contract_hash, terms = contract_terms(attempt.offer.energy_amount, unit_price, nonce)
        self.agreements[contract_hash] = terms
        attempt.state = "committed"
        if self.behavior == "no_ctp":
            self.world.metrics.bump("agreements_without_commit")
            return
        broadcast_hash = contract_hash
        if self.behavior == "bad_hash":
            broadcast_hash = bytes([contract_hash[0] ^ 0xFF]) + contract_hash[1:]
        ctp = make_ctp(
            time_stamp=now,
            expiry_time=now + self.world.config.ctp_default_ttl,
            price=terms.total_price,
            contract_hash=broadcast_hash,
            keypair=self.account,
        )
        attempt.ctp = ctp
        self.sent_ctps.append(ctp)
        if self.behavior != "bad_hash" and self.meter is not None:
            self.meter.register_contract(terms, ctp)
        self.world.metrics.bump("ctp_broadcast")
        # it follows the acceptance along the same path, so the producer has
        # agreed by the time it lands
        self.world.send_routed(self, attempt.session.public, attempt.offer.pk, ctp)
        self.world.broadcast_tx(ctp)

    # -- adversarial behaviors ---------------------------------------------------

    def _double_spend_step(self, now: int) -> None:
        if self.sent_ctps or now < 30:  # a burst holds at least one commitment
            return
        balance = self.world.ledger_view.coin_balance(self.account.public)
        count = self.world.config.double_spend_ctps
        prices, total = [], 0
        for _ in range(count):
            price = self.rng.randrange(max(balance // 4, 1), max(balance // 2, 2))
            prices.append(price)
            total += price
        if total <= balance:  # the burst must overshoot the balance
            prices[-1] += balance - total + 1
        for price in prices:
            ctp = make_ctp(
                time_stamp=now,
                expiry_time=now + self.world.config.ctp_default_ttl,
                price=price,
                contract_hash=hash_bytes(self.rng.randbytes(16)),
                keypair=self.account,
            )
            self.sent_ctps.append(ctp)
            self.world.metrics.bump("ctp_broadcast")
            self.world.broadcast_tx(ctp)
        self.awake = False  # the burst is all it does

    def _flood_step(self, now: int) -> None:
        attempt = self.attempt
        if attempt is None:
            if not self.tried and self.offer_keys:  # one session, even if its join is refused
                self._join(self.offers[self.offer_keys[0]], now)
            return
        if attempt.state != "flooding" or self.flood_sent >= FLOOD_OFFERS:
            return
        self.flood_sent += 1
        msg = make_negotiation(attempt.offer.pk, 1, 0, self.flood_sent, attempt.session)
        self.world.metrics.bump("flood_offers_sent")
        self.world.send_routed(self, attempt.session.public, attempt.offer.pk, msg)

    def _chatter_step(self, now: int) -> None:
        if now < 5:
            return
        dest = self.world.pick_ping_target(self.rng)
        if dest is None:
            return
        counters = self.world.metrics.counters  # the hot path skips Metrics.bump
        counters["pings_sent"] = counters.get("pings_sent", 0) + 1
        self.world.send_routed(self, self.account.public, dest, _LOAD_PING)

    # -- messages -------------------------------------------------------------------

    def on_message(self, payload, now: int) -> None:
        if isinstance(payload, Routed):
            self._on_routed(payload, now)
        elif isinstance(payload, BlockGossip):
            block = payload.block
            if not isinstance(block, Block):
                return
            supplies, settled, _, _ = block.trader_index
            for supply in supplies:
                self._add_offer(supply)
            attempt = self.attempt
            if settled and attempt is not None and attempt.ctp is not None:
                if attempt.ctp.t_id in settled:
                    attempt.settled = True
        elif isinstance(payload, JoinAck):
            self.on_join_ack(payload, now)
        elif isinstance(payload, ClaimGossip):
            # a claim follows a commitment to the offer, so the offer has sold;
            # only its account key can sign one, and anything else is dropped
            if check_claim_signature(payload.claim):
                self.sold.add(payload.claim.producer_pk)

    def _add_offer(self, supply: SupplyEnergyTx) -> None:
        """Put a mined supply in the book; the first sighting wins. Blocks
        reach traders unchecked, and a later trade step would raise on a
        supply whose fields are outside their declared domains, so only a
        supply that passed ``check_structure`` in its block's
        ``trader_index`` comes here."""
        if supply.t_id not in self.offers:
            self.offers[supply.t_id] = supply
            insort(self.offer_keys, supply.t_id)
            if self.trades_done < self.max_trades:
                self.awake = True  # to scan the grown book
