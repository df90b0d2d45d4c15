"""Scenario configuration: a flat key=value file mapped onto one dataclass,
and the attacks a scenario can stage.

Every field of :class:`ScenarioConfig` is a config key. The seed fully
determines a run; two runs with equal configs produce identical metrics
and chain dumps.

Each attack is one :class:`Attack` record in ``ATTACKS``: what it shows,
the preset it runs, the checks a config must pass to stage it, and how
each producer and consumer behaves. ``ScenarioConfig.validate``,
``scenarios.preset`` and ``World`` read the record; only the verdicts,
which need a finished world, live in ``scenarios.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Tuple


@dataclass(frozen=True)
class Attack:
    """One scenario: ``preset`` is the settings ``scenarios.preset`` starts
    from; ``checks`` are (refuses the config?, why) pairs, tried in order;
    ``producer`` and ``consumer`` name the behaviour of producer or consumer
    ``i``, as ``actors.py`` defines it; ``consumer_count`` is the config key
    that counts the consumer actors."""

    description: str
    preset: Dict[str, object]
    checks: Tuple[Tuple[Callable[[ScenarioConfig], bool], str], ...]
    producer: Callable[[int], str] = lambda i: "honest"
    consumer: Callable[[int], str] = lambda i: "honest"
    consumer_count: str = "consumers"


def _no_trade(c: ScenarioConfig) -> bool:
    """No producer or no consumer, counting each prosumer as both."""
    return c.producers + c.prosumers < 1 or c.consumers + c.prosumers < 1


ATTACKS: Dict[str, Attack] = {
    "none": Attack(
        "honest end-to-end trading: offers, negotiation, commitment, delivery, settlement",
        dict(producers=2, consumers=2, miners=3, backbones=2, ticks=900),
        ((_no_trade, "attack 'none' needs a producer and a consumer"),),
    ),
    "malicious_producer": Attack(
        "producer never delivers; commitment expires and funds release",
        dict(producers=1, consumers=1, miners=2, backbones=2, ticks=450, ctp_default_ttl=120,
             supplies_per_producer=1),
        ((_no_trade, "attack 'malicious_producer' needs a producer and a consumer"),),
        producer=lambda i: "silent",
    ),
    "malicious_consumer": Attack(
        "consumers withhold or corrupt commitments; no energy moves unpaid",
        dict(producers=3, consumers=3, miners=2, backbones=2, ticks=500, ctp_default_ttl=120),
        ((_no_trade, "attack 'malicious_consumer' needs a producer and a consumer"),),
        consumer=lambda i: ("no_ctp", "bad_hash", "silent")[i % 3],
    ),
    "coe_forgery": Attack(
        "attacker replays a genuine endorsement without owning its keys",
        dict(producers=2, consumers=1, miners=2, backbones=2, ticks=700, ctp_default_ttl=250,
             supplies_per_producer=1),
        ((_no_trade, "attack 'coe_forgery' needs a producer and a consumer"),
         (lambda c: c.producers < 2, "coe_forgery needs an honest producer plus the forger")),
        producer=lambda i: "forger" if i == 0 else "honest",
    ),
    "double_spend": Attack(
        "commitment burst past the balance; miners admit only a safe subset",
        dict(producers=1, consumers=2, miners=3, backbones=2, ticks=200, supplies_per_producer=0),
        ((lambda c: c.consumers < 1, "double_spend needs a consumer to play the spender"),
         (lambda c: c.double_spend_ctps < 1, "double_spend needs double_spend_ctps >= 1")),
        consumer=lambda i: "double_spend",
    ),
    "negotiation_flood": Attack(
        "offer spam beyond the limit is dropped at the backbone",
        dict(producers=1, consumers=1, miners=2, backbones=2, ticks=200, supplies_per_producer=1),
        ((lambda c: c.producers < 1 or c.consumers < 1,
          "negotiation_flood needs a target producer and a flooding consumer"),),
        consumer=lambda i: "flood" if i == 0 else "honest",
    ),
    "routing_overload": Attack(
        "traffic hot-spot triggers prefix widening; load shares recorded",
        dict(producers=6, consumers=0, miners=2, backbones=4, ticks=300, chatter_nodes=6,
             supplies_per_producer=0),
        ((lambda c: c.chatter_nodes < 1, "routing_overload needs chatter nodes"),
         (lambda c: c.backbones < 2, "routing_overload needs backbones >= 2")),
        consumer=lambda i: "chatter",
        consumer_count="chatter_nodes",
    ),
}

_U64_LIMIT = 1 << 64  # expiry ticks are u64 on the wire


@dataclass
class ScenarioConfig:
    """Everything a run needs; defaults give a small honest scenario.

    Every key is a setting that some preset, test, benchmark workload or
    open experiment varies. Values that nothing varies are constants in the
    module that reads them (``world.py``, ``actors.py`` and ``arb.py``).
    """

    seed: int = 1
    ticks: int = 600
    # actors
    producers: int = 1
    consumers: int = 1
    prosumers: int = 0
    miners: int = 2
    backbones: int = 2
    # protocol parameters
    offer_limit: int = 5
    consensus_period: int = 20
    ctp_default_ttl: int = 300
    key_pool_size: int = 8
    attack: str = "none"
    # scenario plumbing
    supplies_per_producer: int = 2
    message_loss_rate: float = 0.0
    double_spend_ctps: int = 6
    chatter_nodes: int = 6
    routing_skew: bool = False

    def validate(self) -> None:
        if self.attack not in ATTACKS:
            raise ValueError(f"unknown attack {self.attack!r}; choose from {tuple(ATTACKS)}")
        if self.ticks < 1:
            raise ValueError("ticks must be positive")
        if self.miners < 1 or self.backbones < 1:
            raise ValueError("need at least one miner and one backbone")
        if self.consensus_period < 1:
            raise ValueError("consensus_period must be positive")
        if not 0.0 <= self.message_loss_rate < 1.0:
            raise ValueError("message_loss_rate must be in [0, 1)")
        if self.key_pool_size < 1:
            raise ValueError("key_pool_size must be positive")
        if not 1 <= self.ctp_default_ttl <= _U64_LIMIT - self.ticks:
            raise ValueError("ctp_default_ttl must be positive and keep expiries within u64")
        counts = ("producers", "consumers", "prosumers", "chatter_nodes", "supplies_per_producer")
        for key in counts:
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be non-negative")
        for refuses, message in ATTACKS[self.attack].checks:
            if refuses(self):
                raise ValueError(message)


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def parse_config(text: str) -> ScenarioConfig:
    """Parse ``key=value`` lines; '#' starts a comment, blank lines ignored."""
    known = {f.name: f.type for f in fields(ScenarioConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, value, lineno)
    config = ScenarioConfig(**values)
    config.validate()
    return config


def _coerce(key: str, value: str, lineno: int):
    default = getattr(ScenarioConfig(), key)
    if isinstance(default, bool):
        lowered = value.lower()
        if lowered in _BOOL_TRUE:
            return True
        if lowered in _BOOL_FALSE:
            return False
        raise ValueError(f"line {lineno}: {key} wants a boolean, got {value!r}")
    if isinstance(default, int):
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"line {lineno}: {key} wants an integer, got {value!r}") from None
    if isinstance(default, float):
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: {key} wants a number, got {value!r}") from None
    return value


def format_config(config: ScenarioConfig) -> str:
    lines: List[str] = []
    for f in fields(ScenarioConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"
