"""Self-tests of the benchmark: tracing reaches every layer, operation
counts stay pinned, and the output matches ``BENCHMARK.json``.

    python3 -m pytest -q bench/test_bench.py

Takes about a minute: it runs each workload at seed 1 traced and untraced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
from tracer import SPAN_NAMES, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# honest-n32 at seed 1, measured when the benchmark was defined. These are
# upper bounds: a change may lower a count, never raise it.
PINNED_PER_SETTLEMENT = {
    "verifies_per_settlement": 266.546875,
    "hashes_per_settlement": 773.0,
    "encodes_per_settlement": 1661.4375,
    "ledger_clones_per_settlement": 33.75,
    "messages_per_settlement": 995.8125,
}


@pytest.fixture(scope="module")
def traced():
    """workload -> (tracer, traced result digests, untraced result digests)."""
    out = {}
    for name in WORKLOADS:
        config = measure.make_config(name, 1)
        plain, _, _ = measure.run_once(config)
        with Tracer() as tracer:
            result, _, _ = measure.run_once(config)
        out[name] = (tracer, result, measure.digests(plain))
    return out


def test_every_traced_function_is_called_on_some_workload(traced):
    silent = [
        name for name in SPAN_NAMES if not any(t.calls[name] for t, _, _ in traced.values())
    ]
    assert not silent, f"never called, so probably not rebound: {silent}"


def test_tracing_leaves_dumps_and_metrics_unchanged(traced):
    for name, (_, result, plain) in traced.items():
        assert measure.digests(result) == plain, name


def test_functions_bound_by_name_are_rebound_everywhere():
    import gridtrade.crypto
    import gridtrade.ledger
    import gridtrade.sim.actors

    original = gridtrade.crypto.verify
    with Tracer() as tracer:
        assert gridtrade.ledger.verify is gridtrade.crypto.verify is not original
        assert gridtrade.sim.actors.check_structure.__wrapped__ is not None
        assert "gridtrade.ledger" in tracer.rebound["crypto.verify"]
    assert gridtrade.ledger.verify is original
    assert not hasattr(gridtrade.sim.actors.check_structure, "__wrapped__")


@pytest.mark.parametrize("metric", sorted(PINNED_PER_SETTLEMENT))
def test_honest_operation_counts_do_not_grow(traced, metric):
    tracer, result, _ = traced["honest-n32"]
    counts = tracer.counts(result.metrics.get("settlements"), result.metrics.counters)
    assert counts[metric] <= PINNED_PER_SETTLEMENT[metric]


def test_results_carry_exactly_the_metrics_benchmark_json_names():
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        _, outcome = measure.measure("ctp-burst", 1, 0.1, trace)
        assert outcome["correct"]
        assert set(outcome["metrics"]) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert outcome["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ctp-burst", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
