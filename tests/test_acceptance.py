"""Acceptance suite: one test per release criterion, strict tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` or ``-v``
to see them). Monetary and energy checks are exact integer comparisons;
the only tolerances anywhere are the two wall-clock budgets.
"""

import time
from random import Random

from gridtrade.arb import Mesh, build_dht, make_join
from gridtrade.crypto import (
    KeyPair,
    merkle_build,
    merkle_prove,
    merkle_verify,
)
from gridtrade.sim import ScenarioConfig, preset, run_scenario
from gridtrade.sim.scenarios import erc_refusals, flooded_rounds

import hashlib


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {mark}{suffix}")
    assert ok, f"criterion {number:02d} {name} failed{suffix}"


def test_criterion_01_happy_path_atomicity():
    config = ScenarioConfig(
        seed=101,
        ticks=2000,
        producers=2,
        consumers=3,
        miners=3,
        backbones=4,
        supplies_per_producer=3,
        attack="none",
    )
    start = time.perf_counter()
    result = run_scenario(config)
    elapsed = time.perf_counter() - start

    failures = [v.line() for v in result.metrics.verdicts if not v.passed]
    agreed = result.metrics.get("contracts_agreed")
    settled = result.metrics.get("settlements")
    mutual = [r for r in result.world.contracts.values() if r["counted"]]
    each_once = all(r["settled"] == 1 for r in mutual)

    ledger = result.world.ledger_view
    shifts = {}
    for record in ledger.settlements.values():
        shifts[record.consumer_pk] = shifts.get(record.consumer_pk, 0) - record.price
        shifts[record.producer_pk] = shifts.get(record.producer_pk, 0) + record.price
    balances_exact = all(
        account.coin_balance
        == result.world.initial_balances.get(pk, 0) + shifts.get(pk, 0)
        for pk, account in ledger.accounts.items()
    )

    ok = (
        not failures
        and agreed > 0
        and settled == agreed
        and each_once
        and balances_exact
        and elapsed < 5.0
    )
    _report(
        1,
        "happy_path_atomicity",
        ok,
        f"agreed={agreed} settled={settled} exact_balances={balances_exact} "
        f"runtime={elapsed:.2f}s{'; ' + '; '.join(failures) if failures else ''}",
    )


def test_criterion_02_malicious_producer_refund():
    start = time.perf_counter()
    result = run_scenario(preset("malicious_producer", seed=102))
    elapsed = time.perf_counter() - start

    ledger = result.world.ledger_view
    refunds_exact = all(
        ledger.coin_balance(pk) == initial and ledger.available_balance(pk) == initial
        for pk, initial in result.world.initial_balances.items()
    )
    producer_paid = any(
        ledger.coin_balance(offer.keypair.public)
        for producer in result.world.producer_actors
        for offer in producer.offers
    )
    accepted = result.metrics.get("ctp_accepted")
    expired = result.metrics.get("ctp_expired")
    ok = (
        result.passed
        and accepted > 0
        and expired == accepted
        and refunds_exact
        and not producer_paid
        and result.metrics.get("settlements") == 0
        and elapsed < 2.0
    )
    _report(
        2,
        "malicious_producer_refund",
        ok,
        f"accepted={accepted} expired={expired} refunds_exact={refunds_exact} "
        f"runtime={elapsed:.2f}s",
    )


def test_criterion_03_malicious_consumer_defense():
    bad_trials = []
    for seed in range(1, 21):
        result = run_scenario(preset("malicious_consumer", seed=seed))
        cheat_meters = [
            c.meter
            for c in result.world.consumer_actors
            if c.behavior in ("no_ctp", "bad_hash") and c.meter is not None
        ]
        delivered = sum(
            rec.delivered for meter in cheat_meters for rec in meter.records.values()
        )
        # each bad-hash buyer's commitment is declined once, by the offer it
        # names; 2-4 while every producer guessed a mismatch by price alone
        bad_hash = sum(c.behavior == "bad_hash" for c in result.world.consumer_actors)
        declined = result.metrics.get("ctp_declined_mismatch")
        if delivered != 0 or declined != bad_hash or not result.passed:
            bad_trials.append((seed, delivered, declined))
    _report(
        3,
        "malicious_consumer_defense",
        not bad_trials,
        f"20 trials, violations={bad_trials}",
    )


def test_criterion_04_coe_forgery_defense():
    problems = []
    for seed in range(1, 11):
        result = run_scenario(preset("coe_forgery", seed=seed))
        forger = next(
            p for p in result.world.producer_actors if p.behavior == "forger"
        )
        forger_pks = {o.keypair.public for o in forger.offers}
        ledger = result.world.ledger_view
        stolen = sum(1 for r in ledger.settlements.values() if r.producer_pk in forger_pks)
        refused = erc_refusals(result.metrics)  # failing step -> receipts refused
        if (
            stolen != 0
            or sum(refused.values()) != result.metrics.get("forgeries_sent")
            or result.metrics.get("forgeries_sent") != 50
            or any(step not in ("d", "e") for step in refused)
            or not result.passed
        ):
            problems.append((seed, stolen, sorted(refused)))
    _report(
        4,
        "coe_forgery_defense",
        not problems,
        f"10 seeds x 50 forgeries, problems={problems}",
    )


def test_criterion_05_double_spend_safety():
    violations = 0
    mismatched_subsets = 0
    for seed in range(1, 101):
        result = run_scenario(preset("double_spend", seed=seed))
        violations += result.metrics.get("safety_violations")
        subsets = {tuple(a.accepted_ctp_ids) for a in result.world.miner_actors}
        if len(subsets) != 1:
            mismatched_subsets += 1
    _report(
        5,
        "double_spend_safety",
        violations == 0 and mismatched_subsets == 0,
        f"100 seeds, per-tick violations={violations} subset_mismatches={mismatched_subsets}",
    )


def test_criterion_06_merkle_suite():
    rng = Random(606)

    def independent_root(leaves):
        level = [hashlib.sha256(x).digest() for x in leaves]
        rounds = 0
        while len(level) > 1 or rounds == 0:
            if len(level) % 2 == 1:
                level.append(level[-1])
            level = [
                hashlib.sha256(level[i] + level[i + 1]).digest()
                for i in range(0, len(level), 2)
            ]
            rounds += 1
        return level[0]

    class ProofView:  # cheap stand-in so the flip loop avoids reallocation
        __slots__ = ("leaf_index", "siblings")

        def __init__(self, leaf_index, siblings):
            self.leaf_index = leaf_index
            self.siblings = siblings

    roots_match = True
    roundtrips = 0
    flips = 0
    for n in range(1, 65):
        leaves = [rng.randbytes(16) for _ in range(n)]
        tree = merkle_build(leaves)
        roots_match &= tree.root == independent_root(leaves)
        for i in range(n):
            proof = merkle_prove(tree, i)
            assert merkle_verify(tree.root, leaves[i], proof)
            roundtrips += 1
            siblings = [list(s) for s in proof.siblings]
            view = ProofView(i, siblings)
            for si in range(len(siblings)):
                original = siblings[si][0]
                mutable = bytearray(original)
                siblings[si][0] = mutable
                for bit in range(256):
                    mutable[bit >> 3] ^= 1 << (bit & 7)
                    flips += 1
                    assert not merkle_verify(tree.root, leaves[i], view), (n, i, si, bit)
                    mutable[bit >> 3] ^= 1 << (bit & 7)
                siblings[si][0] = original
    _report(
        6,
        "merkle_suite",
        roots_match,
        f"roundtrips={roundtrips} bit_flips_rejected={flips} independent_roots_match={roots_match}",
    )


def test_criterion_07_routing_correctness():
    rng = Random(707)
    configs = [(4, 1), (8, 1), (16, 2), (5, 2)]
    total_messages = 0
    for backbones, x in configs:
        mesh = Mesh([f"b{i}" for i in range(backbones)], x, offer_limit=5)
        members = []
        for i in range(100):
            kp = KeyPair.generate(rng)
            owner = mesh.table.owner_of(kp.public)
            accepted, reason = mesh.join(owner, make_join(kp, f"node-{i}"))
            assert accepted, reason
            members.append((kp, f"node-{i}"))
        endpoint_of = {kp.public: ep for kp, ep in members}
        for _ in range(2500):
            src_kp, src_ep = members[rng.randrange(100)]
            dst_kp, _ = members[rng.randrange(100)]
            outcome = mesh.route(
                src_ep, mesh.table.owner_of(src_kp.public), dst_kp.public, b"payload"
            )
            assert outcome.delivered and outcome.endpoint == endpoint_of[dst_kp.public]
            assert len(outcome.trace) <= 4
            total_messages += 1

    # partition audits: exhaustive at one byte, sampled at two
    for backbones in (4, 16):
        table = build_dht([f"b{i}" for i in range(backbones)], 1)
        ranges = table.ranges()
        for value in range(256):
            assert [o for lo, hi, o in ranges if lo <= value <= hi] == [
                table.owner_of_value(value)
            ]
    table = build_dht([f"b{i}" for i in range(5)], 2)
    ranges = table.ranges()
    boundary_values = {lo for lo, _, _ in ranges} | {hi for _, hi, _ in ranges}
    sampled = set(range(0, 65536, 97)) | boundary_values | {0, 65535}
    for value in sampled:
        assert [o for lo, hi, o in ranges if lo <= value <= hi] == [
            table.owner_of_value(value)
        ]
    _report(
        7,
        "routing_correctness",
        total_messages == 10_000,
        f"messages={total_messages} delivery=100% partitions_audited",
    )


def test_criterion_08_consensus_discipline():
    config = ScenarioConfig(
        seed=808,
        ticks=1000,
        consensus_period=10,
        miners=5,
        producers=1,
        consumers=1,
        backbones=2,
        attack="none",
    )
    result = run_scenario(config)
    quota_ok = all(
        len(actor.miner.mined_periods) == len(set(actor.miner.mined_periods))
        for actor in result.world.miner_actors
    )
    tips = {actor.miner.chain.tip_hash for actor in result.world.miner_actors}
    headers = {
        tuple(b.ctp_hash for b in actor.miner.chain.blocks)
        for actor in result.world.miner_actors
    }
    periods_covered = max(
        max(actor.miner.mined_periods) for actor in result.world.miner_actors
    )
    ok = quota_ok and len(tips) == 1 and len(headers) == 1 and periods_covered >= 99
    _report(
        8,
        "consensus_discipline",
        ok,
        f"periods={periods_covered + 1} quota_ok={quota_ok} tips={len(tips)} "
        f"header_sets={len(headers)}",
    )


def test_criterion_09_offer_limit_enforcement():
    result = run_scenario(preset("negotiation_flood", seed=909))
    observed = flooded_rounds(result.world)
    sent = result.metrics.get("flood_offers_sent")
    ok = sent == 50 and observed == 5 and result.passed
    _report(
        9,
        "offer_limit_enforcement",
        ok,
        f"sent={sent} observed={observed} limit=5",
    )


def test_criterion_10_determinism():
    mismatches = []
    for attack, seed in (("none", 1010), ("coe_forgery", 1011), ("double_spend", 1012)):
        a = run_scenario(preset(attack, seed=seed))
        b = run_scenario(preset(attack, seed=seed))
        if a.chain_dump != b.chain_dump:
            mismatches.append(f"{attack}: chain dumps differ")
        if a.metrics.render_kv() != b.metrics.render_kv():
            mismatches.append(f"{attack}: metrics differ")
        if a.metrics.render_text() != b.metrics.render_text():
            mismatches.append(f"{attack}: reports differ")
    _report(
        10,
        "determinism",
        not mismatches,
        "; ".join(mismatches) if mismatches else "3 scenarios byte-identical",
    )
