"""Per-layer tracing from outside the program.

``Tracer`` wraps the public functions of each gridtrade layer with a span
that counts calls and measures self time: the span's duration minus the
part covered by the traced spans it encloses. Modules bind many of these
functions by name (``from .crypto import verify`` in ``ledger.py``), so a
module-level function is rebound in every loaded ``gridtrade`` module that
holds it; methods are replaced on their class. Nothing under ``src/``
changes, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

# (layer, module, qualified name) of every traced function. The layer is
# the metric prefix: ``<layer>.<qualname>.calls`` and ``.self_s``.
TARGETS = [
    ("crypto", "gridtrade.crypto", "verify"),
    ("crypto", "gridtrade.crypto", "sign"),
    ("crypto", "gridtrade.crypto", "hash_bytes"),
    ("crypto", "gridtrade.crypto", "merkle_verify"),
    ("crypto", "gridtrade.crypto", "merkle_build"),
    ("crypto", "gridtrade.crypto", "ca_verify"),
    ("crypto", "gridtrade.crypto", "KeyPair.generate"),
    ("transactions", "gridtrade.transactions", "encode_canonical"),
    ("transactions", "gridtrade.transactions", "decode_canonical"),
    ("transactions", "gridtrade.transactions", "check_structure"),
    ("transactions", "gridtrade.transactions", "compute_t_id"),
    ("transactions", "gridtrade.transactions", "signing_digest"),
    ("ledger", "gridtrade.ledger", "Ledger.submit_ctp"),
    ("ledger", "gridtrade.ledger", "Ledger.available_balance"),
    ("ledger", "gridtrade.ledger", "CTPDatabase.pending_total"),
    ("ledger", "gridtrade.ledger", "CTPDatabase.digest"),
    ("ledger", "gridtrade.ledger", "Ledger.expire_ctps"),
    ("ledger", "gridtrade.ledger", "Ledger.clone"),
    ("ledger", "gridtrade.ledger", "Ledger.validate_erc"),
    ("ledger", "gridtrade.ledger", "Ledger.apply_tx"),
    ("ledger", "gridtrade.ledger", "Miner.mine"),
    ("ledger", "gridtrade.ledger", "Miner.receive_block"),
    ("ledger", "gridtrade.ledger", "Miner.record_tick_digest"),
    ("ledger", "gridtrade.ledger", "Miner.digest_as_of"),
    ("arb", "gridtrade.arb", "DHTTable.owner_of"),
    ("arb", "gridtrade.arb", "BackboneNode.note_traffic"),
    ("arb", "gridtrade.arb", "BackboneNode.window_load"),
    ("arb", "gridtrade.arb", "BackboneNode.join"),
    ("arb", "gridtrade.arb", "negotiation_round"),
    ("arb", "gridtrade.arb", "Mesh.widen"),
    ("meter", "gridtrade.meter", "provision_meter"),
    ("meter", "gridtrade.meter", "SmartMeter.generate_key_pool"),
    ("meter", "gridtrade.meter", "SmartMeter.process_verification_request"),
    ("meter", "gridtrade.meter", "SmartMeter.generate_erc"),
    ("meter", "gridtrade.meter", "SmartMeter.record_delivery"),
    ("sim", "gridtrade.sim.world", "World.run"),
    ("sim", "gridtrade.sim.world", "World.send"),
    ("sim", "gridtrade.sim.world", "World.send_routed"),
    ("sim", "gridtrade.sim.world", "World.broadcast_tx"),
    ("sim", "gridtrade.sim.world", "World.broadcast_block"),
    ("sim", "gridtrade.sim.messages", "encode_routed_payload"),
    ("sim", "gridtrade.sim.messages", "decode_routed_payload"),
    # MinerActor and BackboneActor define no step of their own, and the
    # world steps only producers and consumers.
    ("sim", "gridtrade.sim.actors", "MinerActor.on_message"),
    ("sim", "gridtrade.sim.actors", "BackboneActor.on_message"),
    ("sim", "gridtrade.sim.actors", "ProducerActor.on_message"),
    ("sim", "gridtrade.sim.actors", "ProducerActor.step"),
    ("sim", "gridtrade.sim.actors", "ConsumerActor.on_message"),
    ("sim", "gridtrade.sim.actors", "ConsumerActor.step"),
]

LAYERS = ("crypto", "transactions", "ledger", "arb", "meter", "sim")

# Deterministic per-settlement operation counts: metric -> traced function.
PER_SETTLEMENT = {
    "verifies_per_settlement": "crypto.verify",
    "hashes_per_settlement": "crypto.hash_bytes",
    "encodes_per_settlement": "transactions.encode_canonical",
    "ledger_clones_per_settlement": "ledger.Ledger.clone",
    "messages_per_settlement": "sim.World.send",
}


def metric_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "ratio"
    if metric == "arb.hops_per_delivered":
        return "hops"
    return "count"


def span_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname}"


SPAN_NAMES = [span_name(layer, qualname) for layer, _, qualname in TARGETS]


class Tracer:
    """Counts calls and self time of every target while installed."""

    def __init__(self):
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.self_s = {name: 0.0 for name in SPAN_NAMES}
        # modules each module-level target was rebound in
        self.rebound = {}
        self._stack = [0.0]  # child time of each open span; [0] is the root
        self._undo = []
        self._verify_seen = set()
        self.verify_repeats = 0
        self.ctp_rejected = 0
        self.blocks_not_applied = 0
        self._last_digest = weakref.WeakKeyDictionary()
        self.digest_unchanged = 0

    # -- observers of call outcomes -------------------------------------------

    def _after_verify(self, result, args):
        key = tuple(bytes(a) for a in args)
        if key in self._verify_seen:
            self.verify_repeats += 1
        else:
            self._verify_seen.add(key)

    def _after_submit_ctp(self, result, args):
        if not result:
            self.ctp_rejected += 1

    def _after_digest(self, result, args):
        database = args[0]
        if self._last_digest.get(database) == result:
            self.digest_unchanged += 1
        self._last_digest[database] = result

    def _after_receive_block(self, result, args):
        if not result.applied:
            self.blocks_not_applied += 1

    # -- installation ---------------------------------------------------------

    def _wrap(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        after = {
            "crypto.verify": self._after_verify,
            "ledger.Ledger.submit_ctp": self._after_submit_ctp,
            "ledger.CTPDatabase.digest": self._after_digest,
            "ledger.Miner.receive_block": self._after_receive_block,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                elapsed = clock() - start
                calls[name] += 1
                self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed

        return traced

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, module_name, qualname in TARGETS:
            name = span_name(layer, qualname)
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]  # KeyError: the target moved or was renamed
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            traced = self._wrap(name, fn)
            if owner_name:
                self._set(owner, attr, staticmethod(traced) if is_static else traced)
                continue
            self.rebound[name] = []
            for mod_name, mod in sorted(sys.modules.items()):
                if mod is None or not (mod_name == "gridtrade" or mod_name.startswith("gridtrade.")):
                    continue
                for bound_as in [k for k, v in vars(mod).items() if v is fn]:
                    self._set(mod, bound_as, traced)
                    self.rebound[name].append(mod_name)
        return self

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def counts(self, settlements: int, counters: dict) -> dict:
        """Deterministic per-layer counts and ratios of one traced run."""
        out = {f"{name}.calls": self.calls[name] for name in SPAN_NAMES}
        verifies = self.calls["crypto.verify"]
        digests = self.calls["ledger.CTPDatabase.digest"]
        delivered = counters.get("messages_delivered", 0)
        out["crypto.verify.repeat_share"] = self.verify_repeats / verifies if verifies else 0.0
        out["ledger.Ledger.submit_ctp.rejected"] = self.ctp_rejected
        out["ledger.CTPDatabase.digest.unchanged_share"] = (
            self.digest_unchanged / digests if digests else 0.0
        )
        out["ledger.Miner.receive_block.not_applied"] = self.blocks_not_applied
        out["arb.hops_per_delivered"] = (
            counters.get("trace_hops_total", 0) / delivered if delivered else 0.0
        )
        # 0 where nothing settles: the ratio has no meaning on that workload
        for metric, name in PER_SETTLEMENT.items():
            out[metric] = self.calls[name] / settlements if settlements else 0.0
        return out

    def times(self) -> dict:
        """Self time of each span and of each layer, in seconds."""
        out = {f"{name}.self_s": self.self_s[name] for name in SPAN_NAMES}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self.self_s[span_name(lay, q)] for lay, _, q in TARGETS if lay == layer
            )
        return out
