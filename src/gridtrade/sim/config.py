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

_U64_LIMIT = 1 << 64  # expiry ticks are u64 on the wire


@dataclass
class ScenarioConfig:
    """Everything a run needs; defaults give a small honest scenario.

    Every key is a setting that some preset, test, benchmark workload or
    open experiment varies. Values that nothing varies are constants in the
    module that reads them (``world.py`` and ``actors.py``).
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
            raise ValueError(f"unknown attack {self.attack!r}; choose from {ATTACKS}")
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
