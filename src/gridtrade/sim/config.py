"""Scenario configuration: a flat key=value file mapped onto one dataclass.

Every field of :class:`ScenarioConfig` is a config key. The seed fully
determines a run; two runs with equal configs produce identical metrics
and chain dumps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List

ATTACKS = (
    "none",
    "malicious_producer",
    "malicious_consumer",
    "coe_forgery",
    "double_spend",
    "negotiation_flood",
    "routing_overload",
)

_U64_LIMIT = 1 << 64  # supply amounts, prices and expiry ticks are u64 on the wire


@dataclass
class ScenarioConfig:
    """Everything a run needs; defaults give a small honest scenario."""

    seed: int = 1
    ticks: int = 600
    # actors
    producers: int = 1
    consumers: int = 1
    prosumers: int = 0
    miners: int = 2
    backbones: int = 2
    # protocol parameters
    x_initial: int = 1
    offer_limit: int = 5
    consensus_period: int = 20
    burn_threshold: int = 100
    ctp_default_ttl: int = 300
    overload_threshold: int = 60
    overload_window: int = 50
    key_pool_size: int = 8
    attack: str = "none"
    # scenario plumbing
    initial_balance: int = 1000
    supplies_per_producer: int = 2
    supply_kwh: int = 10
    supply_unit_price: int = 10
    kwh_per_tick: int = 1
    negotiation_timeout: int = 40
    message_loss_rate: float = 0.0
    flood_offers: int = 50
    double_spend_ctps: int = 6
    forgery_attempts: int = 50
    chatter_nodes: int = 6
    routing_skew: bool = False
    max_x: int = 2

    def validate(self) -> None:
        if self.attack not in ATTACKS:
            raise ValueError(f"unknown attack {self.attack!r}; choose from {ATTACKS}")
        if self.ticks < 1:
            raise ValueError("ticks must be positive")
        if self.miners < 1 or self.backbones < 1:
            raise ValueError("need at least one miner and one backbone")
        if self.x_initial < 1 or self.max_x < self.x_initial:
            raise ValueError("need 1 <= x_initial <= max_x")
        if self.consensus_period < 1:
            raise ValueError("consensus_period must be positive")
        if not 0.0 <= self.message_loss_rate < 1.0:
            raise ValueError("message_loss_rate must be in [0, 1)")
        if self.overload_threshold < 0:
            raise ValueError("overload_threshold must be non-negative")
        if self.key_pool_size < 1:
            raise ValueError("key_pool_size must be positive")
        if not 1 <= self.ctp_default_ttl <= _U64_LIMIT - self.ticks:
            raise ValueError("ctp_default_ttl must be positive and keep expiries within u64")
        if not 1 <= self.supply_kwh < _U64_LIMIT:
            raise ValueError("supply_kwh must be in [1, 2**64)")
        if not 0 <= self.supply_unit_price < _U64_LIMIT:
            raise ValueError("supply_unit_price must be in [0, 2**64)")
        if self.kwh_per_tick < 1:
            raise ValueError("kwh_per_tick must be positive")
        counts = ("producers", "consumers", "prosumers", "chatter_nodes", "supplies_per_producer")
        for key in counts:
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be non-negative")
        trading = self.attack in (
            "none",
            "malicious_producer",
            "malicious_consumer",
            "coe_forgery",
        )
        if trading and (self.producers + self.prosumers < 1 or self.consumers + self.prosumers < 1):
            raise ValueError(f"attack {self.attack!r} needs a producer and a consumer")
        if self.attack == "coe_forgery" and self.producers < 2:
            raise ValueError("coe_forgery needs an honest producer plus the forger")
        if self.attack == "double_spend" and self.consumers < 1:
            raise ValueError("double_spend needs a consumer to play the spender")
        if self.attack == "double_spend" and self.double_spend_ctps < 1:
            raise ValueError("double_spend needs double_spend_ctps >= 1")
        if self.attack == "negotiation_flood" and (self.producers < 1 or self.consumers < 1):
            raise ValueError("negotiation_flood needs a target producer and a flooding consumer")
        if self.attack == "routing_overload" and self.chatter_nodes < 1:
            raise ValueError("routing_overload needs chatter nodes")


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
