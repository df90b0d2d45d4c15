"""Operation counts that do not depend on the machine, pinned as upper bounds.

Most counts come from wrapping a function for the length of one scenario
run, mostly of ``preset("none", seed=1)``, the way ``bench/tracer.py``
traces layers from outside the program; the calls per routed message come
from a profile hook, and the interpreter opcodes from a trace hook.
Nothing under ``src/`` counts for these tests.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import importlib.util
import os
import sys
from collections import Counter
from random import Random

import pytest

import gridtrade
from gridtrade import crypto, transactions
from gridtrade.crypto import KeyPair
from gridtrade.ledger import Block, Blockchain, Ledger, Miner
from gridtrade.sim import World, preset, run_scenario
from gridtrade.sim.actors import BackboneActor, ConsumerActor, MinerActor, ProducerActor
from gridtrade.sim.world import Copies


def _before(original, before):
    """``original``, wrapped so that it calls ``before(*args)`` first."""

    def wrapper(*args, **kwargs):
        before(*args)
        return original(*args, **kwargs)

    return wrapper


def _wrap(monkeypatch, owner, name, before, static=False):
    """Replace ``owner.name`` with a wrapper that calls ``before(*args)`` first."""
    wrapper = _before(getattr(owner, name), before)
    monkeypatch.setattr(owner, name, staticmethod(wrapper) if static else wrapper)


def _rebind(monkeypatch, module, name, replacement):
    """Put ``replacement`` in place of ``module.name`` in every gridtrade
    module, since modules bind functions by name."""
    original = getattr(module, name)
    for holder in list(sys.modules.values()):
        if holder is not None and holder.__name__.startswith("gridtrade"):
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, replacement)


def _count_opcodes(monkeypatch, config):
    """(interpreter opcodes executed inside ``World.run`` of ``config``, the
    run's metrics).

    An untraced run of the same config comes first, so that first-time
    imports and the ABC caches behind ``isinstance`` are filled outside the
    count; the counted world is then built on a fresh verify memo. The
    garbage collector is off during the count, so no finalizer of an object
    another test left behind runs inside it."""
    World(config).run()
    monkeypatch.setattr(crypto, "_verify_memo", {})
    world = World(config)
    count = 0

    def trace_opcodes(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return trace_opcodes

    def trace_calls(frame, event, arg):
        frame.f_trace_opcodes = True
        return trace_opcodes

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    sys.settrace(trace_calls)
    try:
        metrics = world.run()
    finally:
        sys.settrace(None)
        if was_enabled:
            gc.enable()
    return count, metrics


def _count_property(monkeypatch, owner, name, before):
    """Call ``before(obj)`` each time ``owner``'s cached property ``name`` is
    computed, not each time it is read."""
    compute = vars(owner)[name].func

    def counting(obj):
        before(obj)
        return compute(obj)

    prop = functools.cached_property(counting)
    prop.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, prop)


@pytest.fixture(scope="module")
def counts():
    counted = Counter()
    signing_keys = set()
    in_start_trade = []

    def note_sign(keypair, message):
        signing_keys.add(keypair.public)

    def note_balance(ledger, pk):
        if in_start_trade:
            in_start_trade[-1] += 1

    def start_trade(actor, now):
        in_start_trade.append(0)
        try:
            original_start_trade(actor, now)
        finally:
            reads = in_start_trade.pop()
            counted["start_trade"] += 1
            counted["available_balance_in_start_trade"] += reads
            counted["most_balance_reads_in_one_start_trade"] = max(
                reads, counted["most_balance_reads_in_one_start_trade"]
            )

    def receive_block(miner, block):
        outcome = original_receive_block(miner, block)
        counted["swaps"] += outcome.swapped
        return outcome

    class ScannedBook(list):
        """A consumer's offer keys, counting each scan over them."""

        def __iter__(self):
            counted["book_scans"] += 1
            return super().__iter__()

    def init_consumer(actor, *args, **kwargs):
        original_init_consumer(actor, *args, **kwargs)
        actor.offer_keys = ScannedBook()

    def consumer_step(actor, now):
        # idle: set up, with no attempt and no contract on its meter, and
        # either done trading or holding a book its last scan found nothing in
        if (
            actor._init_state == "done"
            and actor.attempt is None
            and not actor.meter.contracts
            and (
                actor.trades_done >= actor.max_trades
                or now >= actor.start_delay
                and actor._idle_book == (len(actor.offer_keys), len(actor.tried))
            )
        ):
            counted["idle_consumer_steps"] += 1
        original_consumer_step(actor, now)

    original_init_consumer = ConsumerActor.__init__
    original_consumer_step = ConsumerActor.step
    original_start_trade = ConsumerActor._start_trade
    original_receive_block = Miner.receive_block
    with pytest.MonkeyPatch.context() as mp:
        _wrap(
            mp, crypto.Ed25519PrivateKey, "from_private_bytes",
            lambda seed: counted.update(["ed25519_private_key"]), static=True,
        )
        _wrap(mp, KeyPair, "from_seed", lambda seed: counted.update(["from_seed"]), static=True)
        _rebind(mp, crypto, "sign", _before(crypto.sign, note_sign))
        _wrap(mp, Ledger, "available_balance", note_balance)
        mp.setattr(ConsumerActor, "_start_trade", start_trade)
        mp.setattr(ConsumerActor, "__init__", init_consumer)
        mp.setattr(ConsumerActor, "step", consumer_step)
        _wrap(mp, Ledger, "clone", lambda ledger: counted.update(["ledger_clone"]))
        mp.setattr(Miner, "receive_block", receive_block)
        _wrap(mp, World, "_recount", lambda world, ledger: counted.update(["recounts"]))
        result = run_scenario(preset("none", seed=1))
    assert result.passed
    counted["signing_keys"] = len(signing_keys)
    return counted


def test_each_signing_key_builds_its_private_key_once(counts):
    # from_seed keeps the key it builds, so signing builds none of its own
    assert counts["signing_keys"] > 0
    assert counts["ed25519_private_key"] <= counts["from_seed"]


def test_start_trade_reads_the_balance_at_most_once(counts):
    assert counts["start_trade"] > 0
    assert counts["available_balance_in_start_trade"] <= counts["start_trade"]
    # the scan stays one balance read even when several offers are eligible
    assert counts["most_balance_reads_in_one_start_trade"] <= 1


def test_ledger_is_copied_only_for_a_tip_swap(counts):
    # mining and block application mark, apply and roll back in place
    assert counts["swaps"] > 0
    assert counts["ledger_clone"] <= counts["swaps"]


def test_idle_consumers_do_not_rescan_the_offer_book(counts):
    # an idle consumer sleeps until a new offer grows its book (1,659 idle
    # steps while every consumer was stepped on every tick, and 1,338
    # ``_start_trade`` calls)
    assert counts["idle_consumer_steps"] == 0
    assert 0 < counts["start_trade"] <= 7
    # a scan that finds no untried offer is not repeated until the book or
    # the tried set grows
    assert counts["book_scans"] <= 11


def test_ledgers_are_recounted_only_on_ticks_they_changed(counts):
    # of 2,700 miner-ticks, every one of which was recounted before
    assert 0 < counts["recounts"] <= 63


@pytest.mark.parametrize(
    "config, most",
    [
        (preset("double_spend", seed=1), 6),  # of 600 miner-ticks
        # the benchmark's ctp-burst workload: ~80 commitments stay pending on
        # each miner all run, while the ledgers change on few ticks
        (
            preset(
                "double_spend", seed=1, consumers=32, double_spend_ctps=20, miners=5,
                ticks=1500, ctp_default_ttl=1400,
            ),
            100,  # of 7,500 miner-ticks
        ),
    ],
    ids=["double_spend", "ctp-burst"],
)
def test_recounts_on_a_commitment_burst(config, most):
    recounts = Counter()
    with pytest.MonkeyPatch.context() as mp:
        _wrap(mp, World, "_recount", lambda world, ledger: recounts.update(["ledger"]))
        assert run_scenario(config).passed
    assert 0 < recounts["ledger"] <= most


@pytest.fixture(scope="module")
def chatter_calls():
    """Calls into gridtrade's own functions by name, and the routed message
    count, on the chatter load of the benchmark's routing workload, 600
    ticks long."""
    world = World(
        preset(
            "routing_overload", seed=1, producers=16, chatter_nodes=32, backbones=8, ticks=600
        )
    )
    package = os.path.dirname(gridtrade.__file__) + os.sep
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        world.run()
    finally:
        sys.setprofile(None)
    return calls, world.metrics.get("messages_routed")


def test_calls_per_routed_message(chatter_calls):
    calls, routed = chatter_calls
    assert routed == 19040
    # 34.84 while each hop called Metrics.bump, meter traffic was unwrapped in
    # two methods and meter keys were read through two properties; 27.00
    # while endpoints decoded each ping and idle actors ran empty duties;
    # 22.98 while every delivery fed the traffic window, each hop ran in two
    # frames and each ping bumped its counter through Metrics.bump; 19.13
    # while each miner re-encoded and rehashed the tip block for every block;
    # 19.09 while every check of a signed record re-encoded it; 19.08 while
    # every miner journaled its pending-DB digest on every tick; 18.95 while
    # every hop read the round off each payload, each ping was framed anew
    # and a meterless consumer's step ran in two frames; 15.30 while every
    # broadcast copy was a send of its own and every chatter node was sent
    # every block
    assert sum(calls.values()) / routed <= 15.04


def test_chatter_skips_ping_decoding_and_empty_duties(chatter_calls):
    # each delivered ping was decoded, every producer and consumer step ran
    # these duties over an empty list or dict, every hop that owned a ping
    # looked for a negotiation round in it (18,982 calls) and each ping was
    # framed anew (19,040 calls); the names are unique in the package
    calls, _ = chatter_calls
    assert calls["_on_routed"] > 10000
    for name in (
        "decode_routed_payload", "_deliver", "_pump_meter_receipts",
        "negotiation_round", "encode_routed_payload",
    ):
        assert calls[name] == 0, name
    # a meterless consumer's step is its behaviour step (28,800 ``step``
    # calls while each chatter node's step called it), and a producer with
    # no offer to post sleeps after its first step (9,600 calls while the 16
    # producers were stepped on each of the 600 ticks)
    assert calls["_chatter_step"] == 32 * 600
    assert 0 < calls["step"] <= 16
    # the window is fed only until the table widens to MAX_X, at tick 13:
    # 18,982 calls while every delivery fed it
    assert calls["note_traffic"] == 228
    # 19,121 while every ping was counted through Metrics.bump
    assert calls["bump"] <= 100


def test_no_chatter_node_is_sent_a_block():
    # the chatter load of the benchmark's routing workload, 600 ticks long:
    # a chatter node reads no gossip, so it gets no copy of the 1,920 it was
    # sent while every block went to every participant
    received = Counter()
    world = World(
        preset(
            "routing_overload", seed=1, producers=16, chatter_nodes=32, backbones=8, ticks=600
        )
    )
    with pytest.MonkeyPatch.context() as mp:
        for owner in (ProducerActor, ConsumerActor):
            _wrap(
                mp, owner, "on_message",
                lambda actor, payload, now: received.update(
                    [(actor.behavior, type(payload).__name__)]
                ),
            )
        world.run()
    assert world.metrics.get("blocks_mined") > 0
    assert received["honest", "BlockGossip"] == 16 * world.metrics.get("blocks_mined")
    assert received["chatter", "BlockGossip"] == 0


# Interpreter opcodes executed over one ``World.run``, as upper bounds: per
# settlement on ``preset("none", seed=1)`` and on the benchmark's honest-n32
# workload, and per routed message on the chatter load of the benchmark's
# routing workload, 200 ticks long. In comments, earlier counts, newest
# first: in the settlement pins, while a producer walked the transactions of
# each block it read; then, in every pin, while every broadcast copy was a
# send of its own; while every trader was stepped on every tick and walked
# every block's transactions; and before that, while owners were memoized
# by routing prefix, every hop that owned a message read a negotiation round
# off it, each ping was framed anew and a meterless consumer's step ran in
# two frames.
OPCODES_PER_SETTLEMENT = 226149  # 227,037; 235,015.25; 286,946.75; 286,993.25
OPCODES_PER_SETTLEMENT_HONEST_N32 = 142692  # 142,936.84; 160,109.91; 251,020.16
OPCODES_PER_ROUTED = 570.06  # 586.80; 603.52; 660.75

_needs_cpython_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the opcode pins are counts of CPython 3.11 bytecode; another "
    "interpreter or version compiles the same source to other opcodes",
)


@_needs_cpython_311
def test_opcodes_per_settlement(monkeypatch):
    opcodes, metrics = _count_opcodes(monkeypatch, preset("none", seed=1))
    assert metrics.get("settlements") == 4
    assert opcodes / 4 <= OPCODES_PER_SETTLEMENT


@pytest.mark.slow  # traces about 11M opcodes
@_needs_cpython_311
def test_opcodes_per_settlement_on_honest_n32(monkeypatch):
    opcodes, metrics = _count_opcodes(
        monkeypatch,
        preset("none", seed=1, producers=32, consumers=32, miners=5, backbones=4, ticks=1500),
    )
    assert metrics.get("settlements") == 64
    assert opcodes / 64 <= OPCODES_PER_SETTLEMENT_HONEST_N32


@_needs_cpython_311
def test_opcodes_per_routed_message(monkeypatch):
    opcodes, metrics = _count_opcodes(
        monkeypatch,
        preset(
            "routing_overload", seed=1, producers=16, chatter_nodes=32, backbones=8, ticks=200
        ),
    )
    assert metrics.get("messages_routed") == 6240
    assert opcodes / 6240 <= OPCODES_PER_ROUTED


def test_trader_work_per_settlement_at_n128():
    # the scale sweep's n = 128 world (ROADMAP item 11), with upper bounds on
    # trader steps and on what traders read of blocks, per settlement: each
    # block whose index a producer reads and each supply a consumer takes
    # from a block's index. 1,500 steps and 911 reads while every trader was
    # stepped on every tick and walked every block's transactions; 179.18
    # reads while a producer walked the transactions of each block it read
    counted = Counter()
    in_producer = []
    index = vars(Block)["trader_index"]

    def read_index(block):
        if in_producer:
            counted["reads"] += 1
        return index.__get__(block, Block)

    def producer_message(actor, payload, now):
        in_producer.append(True)
        try:
            original_producer_message(actor, payload, now)
        finally:
            in_producer.pop()

    original_producer_message = ProducerActor.on_message
    with pytest.MonkeyPatch.context() as mp:
        for owner in (ProducerActor, ConsumerActor):
            _wrap(mp, owner, "step", lambda *args: counted.update(["steps"]))
        mp.setattr(Block, "trader_index", property(read_index))  # counts every read
        mp.setattr(ProducerActor, "on_message", producer_message)
        _wrap(mp, ConsumerActor, "_add_offer", lambda *args: counted.update(["reads"]))
        result = run_scenario(
            preset("none", seed=1, producers=128, consumers=128, miners=5, backbones=4, ticks=1500)
        )
    assert result.passed
    assert result.metrics.get("settlements") == 256
    assert counted["steps"] / 256 <= 476.47
    assert counted["reads"] / 256 <= 161.85


def test_tracer_targets_resolve():
    # bench/tracer.py wraps each target found as vars(owner)[attr], so
    # inlining or renaming a traced function breaks the traced benchmark
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for _, module_name, qualname in tracer.TARGETS:
        owner_name, _, attr = qualname.rpartition(".")
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        assert attr in vars(owner), f"{module_name}.{qualname}"


@pytest.mark.parametrize("attack", ["none", "routing_overload", "double_spend"])
def test_benchmark_reads_of_program_state_resolve(attack, monkeypatch):
    # bench/measure.py counts each workload's operations from the world's
    # actors, miners and chain, so renaming what it reads breaks the benchmark
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
    monkeypatch.syspath_prepend(bench)  # measure.py imports its neighbours
    spec = importlib.util.spec_from_file_location("bench_measure", os.path.join(bench, "measure.py"))
    measure = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(measure)
    (name,) = [name for name, (a, _, _) in measure.WORKLOADS.items() if a == attack]
    result = run_scenario(preset(attack))
    done, _, failed, failure = measure.operations(name, result)
    assert done > 0 and failed == 0, failure
    ticks = measure.commit_to_settle_ticks(result, Blockchain.load_bytes(result.chain_dump))
    assert len(ticks) == result.metrics.get("settlements")
    assert all(tick >= 0 for tick in ticks)


@pytest.mark.parametrize(
    "config, builds",
    [
        (preset("none", seed=1), 15),  # 17 while every producer built a forge key
        (preset("coe_forgery", seed=1), 11),  # 12: the honest producer built one too
        # the benchmark's honest-n32 workload
        (
            preset("none", seed=1, producers=32, consumers=32, miners=5, backbones=4, ticks=1500),
            167,  # 199 while every producer built one
        ),
    ],
    ids=["none", "coe_forgery", "honest-n32"],
)
def test_key_builds_to_set_up_a_world(config, builds):
    counted = Counter()
    with pytest.MonkeyPatch.context() as mp:
        _wrap(mp, KeyPair, "generate", lambda *rng: counted.update(["generate"]), static=True)
        world = World(config)
    assert counted["generate"] == builds
    # only the coe_forgery attacker signs with a key of its own making
    for producer in world.producer_actors:
        assert (producer.forge_keypair is not None) == (producer.behavior == "forger")


def test_trade_attempts_on_honest_n32():
    # the benchmark's honest-n32 workload; 1,994 attempts for the same 64
    # settlements while buyers never heard that an offer had sold
    stale = Counter()

    def count_stale(miner, now):
        # mine trial-applies the whole mempool unless the period's block is out
        if miner.blocks_this_period < 1:
            on_chain = {tx.t_id for block in miner.chain.blocks for tx in block.txs}
            stale["trial_applies"] += sum(tx.t_id in on_chain for tx in miner.mempool.values())

    config = preset("none", seed=1, producers=32, consumers=32, miners=5, backbones=4, ticks=1500)
    with pytest.MonkeyPatch.context() as mp:
        _wrap(mp, Miner, "mine", count_stale)
        result = run_scenario(config)
    assert result.passed
    assert result.metrics.get("settlements") == 64
    assert result.metrics.get("negotiations_started") <= 82
    # 18 while producers heard every commitment and declined by price alone
    assert result.metrics.get("ctp_declined_mismatch") == 0
    # 353 while a tip swap put back what the rival block had mined too
    assert stale["trial_applies"] == 0


@pytest.mark.parametrize(
    "config, signs",
    [
        # 185 while only verify filled the memo (191 while every check verified first)
        (preset("none", seed=1), 191),
        # the benchmark's ctp-burst workload: 422 while only verify filled the
        # memo; 1,015 while miners verified each commitment before its balance
        # check, and producers on arrival
        (
            preset(
                "double_spend", seed=1, consumers=32, double_spend_ctps=20, miners=5,
                ticks=1500, ctp_default_ttl=1400,
            ),
            1017,
        ),
        # the benchmark's honest-n32 workload: 1,296 while only verify filled the memo
        (
            preset("none", seed=1, producers=32, consumers=32, miners=5, backbones=4, ticks=1500),
            1345,
        ),
    ],
    ids=["none", "ctp-burst", "honest-n32"],
)
def test_real_signature_verifies(config, signs):
    # sign records each signature it makes in the verify memo, and the memo
    # answers a repeated check, so count its misses: each builds an Ed25519
    # public key and runs the real check. Each ``sign`` call is one real
    # Ed25519 signature; both are C-level work that the opcode pins do not
    # see, and neither count depends on the interpreter's version
    counted = Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crypto, "_verify_memo", {})
        _rebind(mp, crypto, "sign", _before(crypto.sign, lambda *args: counted.update(["sign"])))
        _wrap(
            mp, crypto.Ed25519PublicKey, "from_public_bytes",
            lambda key: counted.update(["verify"]), static=True,
        )
        assert run_scenario(config).passed
        assert counted["verify"] == 0
        assert 0 < counted["sign"] <= signs
        # the hook does count: a signature no one made meets the real check
        signer = KeyPair.generate(Random(0))
        forged = bytearray(crypto.sign(signer, b"m"))
        forged[0] ^= 1
        assert not crypto.verify(signer.public, b"m", bytes(forged))
    assert counted["verify"] == 1


# the benchmark's honest-n32 and ctp-burst workloads
BLOCK_WORKLOADS = {
    "honest-n32": preset(
        "none", seed=1, producers=32, consumers=32, miners=5, backbones=4, ticks=1500
    ),
    "ctp-burst": preset(
        "double_spend", seed=1, consumers=32, double_spend_ctps=20, miners=5,
        ticks=1500, ctp_default_ttl=1400,
    ),
}


# upper bounds on calls over one ``World.run`` of each workload, the world's
# build excluded; in comments, the counts while every reader of a shared
# record re-encoded it, rehashed its id and rebuilt its verify-memo key,
# then (``verify`` and ``replace``) while every miner re-checked each block,
# ``signed`` built each record twice and a tip swap copied each account
# through ``replace``
RUN_CALLS = {
    # ``compute_t_id``: twice for each of the 640 commitments, in ``signed``
    # and at the first miner's check (4,245)
    "ctp-burst": {
        "hash_bytes": 3694,  # 8,343
        "compute_t_id": 2 * 640,
        "verify": 422,  # 2,106, then 1,782
        "replace": 1016,  # 4,376
    },
    "honest-n32": {
        "hash_bytes": 4654,  # 10,840
        "verify": 3124,  # 9,016, then 4,484
        "replace": 1185,  # 9,849
    },
}

# upper bounds on ``Miner.record_tick_digest`` calls over one run: a miner
# journals its digest only on a tick its ledger changed, not on each of
# the 7,500 miner-ticks
TICK_DIGESTS = {"ctp-burst": 100, "honest-n32": 702}


@pytest.fixture(scope="module", params=sorted(BLOCK_WORKLOADS))
def block_work(request):
    """Block encodings, hashes and trader indexes and record frames made,
    and ``make_ctp``
    calls with the ``Declared.unsigned`` computations inside them, over one
    run of a workload; the calls of the functions ``RUN_CALLS`` names and of
    ``Miner.record_tick_digest`` made inside ``World.run``; the outbox
    entries, the messages they carry (one per unicast entry, one per copy
    of a broadcast) and the deliveries (``on_message`` calls, per actor
    class) of the run; and the workload's name and the run's result."""
    counted = Counter()
    running = []
    original_make_ctp = transactions.make_ctp
    original_run = World.run

    def make_ctp(*args, **kwargs):
        before = counted["unsigned"]
        ctp = original_make_ctp(*args, **kwargs)
        counted["make_ctp"] += 1
        counted["unsigned_in_make_ctp"] += counted["unsigned"] - before
        return ctp

    def run(world):
        running.append(True)
        try:
            return original_run(world)
        finally:
            running.pop()
            tally(world._outbox)  # sent on the last tick, never delivered

    def tally(entries):
        for dest, _ in entries:
            counted["outbox_entries"] += 1
            counted["carried"] += len(dest) if isinstance(dest, Copies) else 1

    def deliver_due(world, now):
        tally(world._outbox)
        return original_deliver_due(world, now)

    original_deliver_due = World.deliver_due

    def note(key):
        return lambda *args: counted.update([key])

    def note_in_run(key):
        return lambda *args: running and counted.update([key])

    indexed = []
    with pytest.MonkeyPatch.context() as mp:
        _count_property(mp, Block, "trader_index", indexed.append)
        _count_property(mp, Block, "unsigned", note("encodings"))
        _count_property(mp, Block, "block_hash", note("hashes"))
        _count_property(mp, transactions.Declared, "unsigned", note("unsigned"))
        _count_property(mp, transactions.Declared, "canonical", note("canonical"))
        _rebind(mp, transactions, "make_ctp", make_ctp)
        for module, name in [
            (crypto, "hash_bytes"), (crypto, "verify"), (transactions, "compute_t_id"),
            (dataclasses, "replace"),
        ]:
            _rebind(mp, module, name, _before(getattr(module, name), note_in_run(name)))
        _wrap(mp, Miner, "record_tick_digest", note_in_run("record_tick_digest"))
        mp.setattr(World, "run", run)
        mp.setattr(World, "deliver_due", deliver_due)
        for owner in (MinerActor, BackboneActor, ProducerActor, ConsumerActor):
            _wrap(mp, owner, "on_message", note(f"{owner.__name__}.on_message"))
        result = run_scenario(BLOCK_WORKLOADS[request.param])
    assert result.passed
    counted["indexed"] = len(indexed)
    counted["indexed_blocks"] = len({id(block) for block in indexed})  # all still held
    return request.param, counted, result


def test_each_mined_block_is_encoded_at_most_twice(block_work):
    # once unsigned to sign it and once signed, then gossip shares the
    # object: 4,557 encodings for 375 mined blocks while every miner
    # re-encoded each block it received and the tip for each parent check
    _, counted, result = block_work
    mined = result.metrics.get("blocks_mined")
    assert 0 < counted["encodings"] <= 2 * mined


def test_each_chain_block_is_hashed_at_most_once(block_work):
    # 1,989 hashes for 323 chain blocks while tip_hash rehashed the tip on
    # every call
    _, counted, result = block_work
    assert 0 < counted["hashes"] <= result.metrics.get("chain_height")


def test_each_block_is_indexed_once_for_all_traders(block_work):
    # every trader that receives a block reads the index its first reader
    # made, where each walked the block's transactions; on ctp-burst every
    # consumer is a double spender, which reads no gossip, so no block is
    # indexed (one per mined block while each was sent every block)
    workload, counted, result = block_work
    mined = result.metrics.get("blocks_mined")
    assert counted["indexed"] == counted["indexed_blocks"] <= mined
    assert (counted["indexed"] > 0) == (workload == "honest-n32")


def test_make_ctp_encodes_the_commitment_once(block_work):
    # twice while the id rule re-encoded what the signature had encoded
    _, counted, _ = block_work
    assert counted["make_ctp"] > 0
    assert counted["unsigned_in_make_ctp"] == counted["make_ctp"]


def test_shared_records_are_checked_once(block_work):
    # every miner reads the same commitment, claim and block object, and each
    # keeps its bytes, id check and verdict for the next; ``signed`` builds a
    # record once, and a tip swap copies accounts without ``replace``
    workload, counted, _ = block_work
    for name, most in RUN_CALLS[workload].items():
        assert 0 < counted[name] <= most, name


def test_digests_are_journaled_only_on_ticks_a_ledger_changed(block_work):
    workload, counted, _ = block_work
    assert 0 < counted["record_tick_digest"] <= TICK_DIGESTS[workload]


# upper bounds on record frames (``Declared.canonical``) built over one run
# of each workload: 405 and 1,144 while every miner framed each commitment it
# admitted, and a block re-framed the records it carries
FRAMES = {"ctp-burst": 81, "honest-n32": 568}


def test_each_record_is_framed_once(block_work):
    workload, counted, _ = block_work
    assert 0 < counted["canonical"] <= FRAMES[workload]


def test_each_broadcast_is_one_outbox_entry(block_work):
    # a broadcast is one outbox entry whose copies go only to the actors
    # that read them. On ctp-burst, 17,452 entries and deliveries (17,414
    # delivered) while every copy was a send of its own, 11,968 of them
    # blocks to the double spenders; on honest-n32 every actor sent gossip
    # reads it, so the 31,027 messages carried stay as they were
    workload, counted, _ = block_work
    deliveries = sum(
        counted[f"{owner.__name__}.on_message"]
        for owner in (MinerActor, BackboneActor, ProducerActor, ConsumerActor)
    )
    if workload == "ctp-burst":
        assert 0 < counted["outbox_entries"] <= 1017
        assert 0 < deliveries <= 5446
        assert counted["ConsumerActor.on_message"] == 0
    else:
        assert counted["carried"] == 31027
        assert 0 < counted["outbox_entries"] <= 2159
        assert deliveries == 30958
