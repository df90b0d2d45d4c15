"""The benchmark's workloads: a scenario preset plus overrides each.

The seed comes from the command line; everything else is fixed here. Why
each workload exists, which layers it loads and which it bypasses is in
``NOTES.md`` beside this file.
"""

# name -> (preset attack, preset overrides, the operation ms_per_op counts)
WORKLOADS = {
    "honest-n32": (
        "none",
        dict(producers=32, consumers=32, miners=5, backbones=4, ticks=1500),
        "settlement",
    ),
    "routing-chatter": (
        "routing_overload",
        dict(producers=16, chatter_nodes=32, backbones=8, ticks=6000),
        "routed message",
    ),
    "ctp-burst": (
        "double_spend",
        dict(consumers=32, double_spend_ctps=20, miners=5, ticks=1500, ctp_default_ttl=1400),
        "CTP admission decision",
    ),
}
