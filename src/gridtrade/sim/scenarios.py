"""Scenario presets, execution, and verdict evaluation.

``run_scenario`` builds a world from a config, runs it, then evaluates the
assertions the scenario is about: universal safety checks on every run,
plus attack-specific defenses. Verdicts land in the returned metrics; a
run "passes" when every verdict holds. Everything else about an attack is
its record in ``config.ATTACKS``, which ``SCENARIOS`` and ``preset`` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..transactions import MINEABLE_TAGS
from .actors import FORGERY_ATTEMPTS
from .config import ATTACKS, ScenarioConfig
from .metrics import Metrics
from .world import X_INITIAL, World

# name -> one-line description, in the order ``ATTACKS`` lists them
SCENARIOS: Dict[str, str] = {name: attack.description for name, attack in ATTACKS.items()}


def preset(attack: str, **overrides) -> ScenarioConfig:
    """Config with workable actor counts for the given scenario."""
    if attack not in ATTACKS:
        raise ValueError(f"unknown scenario {attack!r}")
    return ScenarioConfig(**{"seed": 1, "attack": attack, **ATTACKS[attack].preset, **overrides})


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    metrics: Metrics
    chain_dump: bytes
    world: World

    @property
    def passed(self) -> bool:
        return self.metrics.all_passed


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    world = World(config)
    metrics = world.run()
    _common_verdicts(world, metrics)
    evaluator = _EVALUATORS.get(config.attack)
    if evaluator is not None:
        evaluator(world, metrics)
    return ScenarioResult(
        config=config, metrics=metrics, chain_dump=world.chain_dump(), world=world
    )


# ---------------------------------------------------------------------------
# verdicts


def _common_verdicts(world: World, m: Metrics) -> None:
    m.add_verdict(
        "coin_conservation",
        m.get("conservation_violations") == 0,
        f"violations={m.get('conservation_violations')}",
    )
    m.add_verdict(
        "available_funds_safety",
        m.get("safety_violations") == 0,
        f"violations={m.get('safety_violations')}",
    )
    reference = world.miner_actors[0].miner
    tips = {actor.miner.chain.tip_hash for actor in world.miner_actors}
    heights = {len(actor.miner.chain) for actor in world.miner_actors}
    m.add_verdict(
        "miners_agree",
        len(tips) == 1 and len(heights) == 1,
        f"tips={len(tips)} heights={sorted(heights)}",
    )
    headers_equal = all(
        [b.ctp_hash for b in actor.miner.chain.blocks]
        == [b.ctp_hash for b in reference.chain.blocks]
        for actor in world.miner_actors
    )
    m.add_verdict("ctp_headers_identical", headers_equal)
    only_mineable = all(
        tx.tag in MINEABLE_TAGS for b in reference.chain.blocks for tx in b.txs
    )
    m.add_verdict("no_pending_kinds_in_blocks", only_mineable)
    quota_ok = all(
        len(actor.miner.mined_periods) == len(set(actor.miner.mined_periods))
        for actor in world.miner_actors
    )
    m.add_verdict("one_block_per_period", quota_ok)
    accepted = m.get("ctp_accepted")
    reconciled = accepted == m.get("ctp_expired") + m.get("ctp_settled") + m.get(
        "ctp_pending_end"
    )
    m.add_verdict(
        "ctp_reconciliation",
        reconciled,
        f"accepted={accepted} expired={m.get('ctp_expired')} "
        f"settled={m.get('ctp_settled')} pending={m.get('ctp_pending_end')}",
    )


def _expected_balances(world: World) -> List[str]:
    """Exact-balance audit from the reference miner's settlement log."""
    ledger = world.ledger_view
    shifts: Dict[bytes, int] = {}
    for record in ledger.settlements.values():
        shifts[record.consumer_pk] = shifts.get(record.consumer_pk, 0) - record.price
        shifts[record.producer_pk] = shifts.get(record.producer_pk, 0) + record.price
    problems = []
    for pk, account in ledger.accounts.items():
        expected = world.initial_balances.get(pk, 0) + shifts.get(pk, 0)
        if account.coin_balance != expected:
            problems.append(f"{pk[:4].hex()}: {account.coin_balance} != {expected}")
    return problems


def _verdict_honest(world: World, m: Metrics) -> None:
    agreed = m.get("contracts_agreed")
    settled = m.get("settlements")
    m.add_verdict("contracts_agreed", agreed > 0, f"agreed={agreed}")
    # mutual agreements settle exactly once; one-sided ones (a rival consumer
    # accepted a reserved offer) must never settle and just expire
    contracts = world.contracts.values()
    mutual_once = all(rec["settled"] == 1 for rec in contracts if rec["counted"])
    onesided_never = all(rec["settled"] == 0 for rec in contracts if not rec["counted"])
    m.add_verdict(
        "every_contract_settles_once",
        settled == agreed and mutual_once and onesided_never,
        f"agreed={agreed} settled={settled}",
    )
    problems = _expected_balances(world)
    m.add_verdict("balances_shift_exactly", not problems, "; ".join(problems[:3]))
    delivered_ok = True
    for rec in contracts:
        meter = rec["meter"]
        if rec["settled"] and meter is not None:
            record = meter.records.get(rec["contract_hash"])
            if record is None or record.delivered < rec["kwh"]:
                delivered_ok = False
    m.add_verdict("energy_delivered_in_full", delivered_ok)
    m.add_verdict(
        "no_consistency_faults",
        m.get("consistency_faults") == 0,
        f"faults={m.get('consistency_faults')}",
    )


def _verdict_malicious_producer(world: World, m: Metrics) -> None:
    m.add_verdict("no_settlement_without_delivery", m.get("settlements") == 0)
    m.add_verdict("no_energy_delivered", m.get("kwh_delivered") == 0)
    accepted, expired = m.get("ctp_accepted"), m.get("ctp_expired")
    m.add_verdict(
        "commitments_expired",
        accepted > 0 and expired == accepted,
        f"accepted={accepted} expired={expired}",
    )
    ledger = world.ledger_view
    refunds_exact = all(
        ledger.coin_balance(pk) == initial
        and ledger.available_balance(pk) == initial
        for pk, initial in world.initial_balances.items()
    )
    m.add_verdict("consumer_funds_restored_exactly", refunds_exact)
    producer_paid = any(
        ledger.coin_balance(offer.keypair.public) != 0
        for producer in world.producer_actors
        for offer in producer.offers
    )
    m.add_verdict("producer_received_nothing", not producer_paid)


def _verdict_malicious_consumer(world: World, m: Metrics) -> None:
    no_commit_meters = [
        consumer.meter
        for consumer in world.consumer_actors
        if consumer.behavior in ("no_ctp", "bad_hash") and consumer.meter is not None
    ]
    delivered = sum(
        record.delivered for meter in no_commit_meters for record in meter.records.values()
    )
    m.add_verdict(
        "no_delivery_without_valid_commitment", delivered == 0, f"kwh={delivered}"
    )
    bad_hash_present = any(c.behavior == "bad_hash" for c in world.consumer_actors)
    if bad_hash_present:
        m.add_verdict(
            "mismatched_hash_declined",
            m.get("ctp_declined_mismatch") >= 1,
            f"declined={m.get('ctp_declined_mismatch')}",
        )
    silent = [c for c in world.consumer_actors if c.behavior == "silent"]
    if silent:
        ledger = world.ledger_view
        settled = sum(
            1
            for record in ledger.settlements.values()
            if record.consumer_pk in {c.account.public for c in silent}
        )
        m.add_verdict(
            "silent_consumer_still_pays", settled == len(silent), f"settled={settled}"
        )


def _verdict_coe_forgery(world: World, m: Metrics) -> None:
    forger = next(p for p in world.producer_actors if p.behavior == "forger")
    sent = m.get("forgeries_sent")
    m.add_verdict(
        "forgeries_attempted",
        sent == FORGERY_ATTEMPTS,
        f"sent={sent} want={FORGERY_ATTEMPTS}",
    )
    refused = erc_refusals(m)
    rejections = sum(refused.values())
    m.add_verdict(
        "forgeries_fail_at_proof_or_signature",
        rejections >= sent and set(refused) <= {"d", "e"},
        f"steps={sorted(refused)} rejections={rejections}",
    )
    ledger = world.ledger_view
    forger_pks = {offer.keypair.public for offer in forger.offers}
    stolen = sum(1 for r in ledger.settlements.values() if r.producer_pk in forger_pks)
    m.add_verdict("no_settlement_to_forger", stolen == 0, f"settlements={stolen}")
    honest_settled = sum(
        1 for r in ledger.settlements.values() if r.producer_pk not in forger_pks
    )
    m.add_verdict("honest_trade_still_settles", honest_settled >= 1)
    refunded = all(
        ledger.available_balance(pk) == ledger.coin_balance(pk)
        for pk in world.initial_balances
    )
    m.add_verdict("victim_funds_unlocked_by_end", refunded)


def erc_refusals(m: Metrics) -> Dict[str, int]:
    """Receipts the reference miner refused, by failing check (a-e)."""
    prefix = "erc_invalid_"
    return {k[len(prefix):]: n for k, n in m.counters.items() if k.startswith(prefix)}


def _verdict_double_spend(world: World, m: Metrics) -> None:
    m.add_verdict(
        "pending_never_exceeds_balance",
        m.get("safety_violations") == 0,
        f"violations={m.get('safety_violations')}",
    )
    subsets = {tuple(actor.accepted_ctp_ids) for actor in world.miner_actors}
    m.add_verdict("miners_accept_identical_subset", len(subsets) == 1)
    over = m.get("ctp_rejected")
    m.add_verdict(
        "overspend_rejected",
        m.get("ctp_broadcast") > m.get("ctp_accepted") and over > 0,
        f"broadcast={m.get('ctp_broadcast')} accepted={m.get('ctp_accepted')}",
    )


def flooded_rounds(world: World) -> int:
    """Negotiation messages the flooded offer received from the flooder's
    session: rounds from honest buyers, or to other offers, do not count."""
    attempt = next(c for c in world.consumer_actors if c.behavior == "flood").attempt
    if attempt is None:  # no offer seen, or the join was refused: nothing was sent
        return 0
    pair = (attempt.offer.pk, attempt.session.public)
    return sum(p.negot_received.get(pair, 0) for p in world.producer_actors)


def _verdict_negotiation_flood(world: World, m: Metrics) -> None:
    received = flooded_rounds(world)
    expected = world.config.offer_limit
    m.add_verdict(
        "destination_sees_offer_limit",
        received == expected,
        f"received={received} limit={expected}",
    )
    dropped = m.get("dropped_offer_limit")
    sent = m.get("flood_offers_sent")
    # replies past the limit are dropped too, so drops can exceed sent - limit
    m.add_verdict(
        "excess_offers_dropped_at_backbone",
        dropped >= sent - expected,
        f"sent={sent} dropped={dropped}",
    )


def _verdict_routing_overload(world: World, m: Metrics) -> None:
    m.add_verdict("rebalance_triggered", m.get("rebalances") >= 1)
    x_final = world.mesh.table.x
    m.add_verdict(
        "prefix_widened",
        x_final == X_INITIAL + m.get("rebalances"),
        f"x={x_final}",
    )
    if world.mesh.widenings:
        event = world.mesh.widenings[0]
        if world.config.routing_skew:
            # indivisible hot value: widening is not guaranteed to help
            m.note("skew_share_before", f"{event['share_before']:.4f}")
            m.note("skew_share_after", f"{event['share_after']:.4f}")
            m.add_verdict("skew_outcome_recorded", True)
        else:
            m.add_verdict(
                "hot_node_share_shrinks",
                event["share_after"] < event["share_before"],
                f"{event['share_before']:.4f} -> {event['share_after']:.4f}",
            )


_EVALUATORS = {
    "none": _verdict_honest,
    "malicious_producer": _verdict_malicious_producer,
    "malicious_consumer": _verdict_malicious_consumer,
    "coe_forgery": _verdict_coe_forgery,
    "double_spend": _verdict_double_spend,
    "negotiation_flood": _verdict_negotiation_flood,
    "routing_overload": _verdict_routing_overload,
}
