"""Measure one benchmark workload in this process and print its result.

``run.py`` starts this script in a fresh process for each workload, so
peak memory and set-up time belong to that workload alone. It builds the
scenario config from the workload table and the seed, then:

* runs ``run_scenario`` on that config until ``--seconds`` have passed
  (at least once), building the ``World`` ``SETUP_BUILDS`` more times
  before each run to time set-up, and reports medians;
* times a fixed reference computation between runs and states every
  end-to-end time in reference seconds (see ``reference_time``);
* checks the first run fully: all verdicts pass, the chain dump reloads
  and passes the ``gridtrade replay`` checks, and no workload operation
  failed. Every other run must give the same chain dump and
  ``metrics.kv`` digests, and traced runs the same operation counts;
* with ``--trace 1``, spends half the time untraced and half traced, and
  prints the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (scenario runs), ``failed`` (runs that failed a
check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_BUILDS = 5
# The reference computation took REFERENCE_S seconds when the benchmark was
# defined, on a 2-vCPU Xeon virtual machine at its least loaded.
REFERENCE_S = 0.02
REFERENCE_REPEATS = 5
# Each run takes turns over the scenario seeds seed + offset, so one seed
# with unusual work moves the median of a run little.
SEED_OFFSETS = (0, 1000, 2000)

sys.path.insert(0, str(SRC))

import gridtrade  # noqa: E402

if Path(gridtrade.__file__).resolve().parent != SRC / "gridtrade":
    raise ImportError(f"gridtrade imported from {gridtrade.__file__}, not from {SRC}")

from gridtrade.ledger import Blockchain  # noqa: E402
from gridtrade.sim import World, preset, run_scenario, scenarios  # noqa: E402
from gridtrade.sim.cli import main as gridtrade_cli  # noqa: E402
from gridtrade.sim.config import format_config  # noqa: E402

from tracer import LAYERS, Tracer, metric_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def make_config(name: str, seed: int):
    attack, overrides, _ = WORKLOADS[name]
    return preset(attack, seed=seed, **overrides)


def time_build(config) -> float:
    start = time.perf_counter()
    World(config)
    return time.perf_counter() - start


def reference_time() -> float:
    """Mean time of a fixed computation that uses no gridtrade code.

    On a shared host the same code runs up to half again as slow from one
    minute to the next, as other tenants load the machine. An end-to-end
    time is therefore multiplied by ``REFERENCE_S / reference_time()``,
    measured just before and after it: it reads as seconds on a host that
    runs the reference computation in ``REFERENCE_S``. The computation is
    interpreter work plus SHA-256, like most of the program's time, and no
    change to the program can speed it up.
    """
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        digest, table = b"reference", {}
        for i in range(20000):
            digest = hashlib.sha256(digest).digest()
            table[digest[:4]] = i
        sorted(table)
    return (time.perf_counter() - start) / REFERENCE_REPEATS


def run_once(config):
    """``run_scenario(config)`` -> (result, set-up seconds, run seconds).

    The world ``run_scenario`` builds is timed through the module's own
    ``World`` name, so run seconds cover the tick loop and the verdicts.
    """
    built = []

    def timed_world(cfg):
        start = time.perf_counter()
        world = World(cfg)
        built.append(time.perf_counter() - start)
        return world

    gc.collect()
    scenarios.World = timed_world
    try:
        start = time.perf_counter()
        result = run_scenario(config)
        total = time.perf_counter() - start
    finally:
        scenarios.World = World
    return result, built[0], total - built[0]


def digests(result) -> dict:
    return {
        "chain_dump_sha256": hashlib.sha256(result.chain_dump).hexdigest(),
        "metrics_kv_sha256": hashlib.sha256(result.metrics.render_kv().encode()).hexdigest(),
    }


def check_dump(chain_dump: bytes, name: str):
    """Reload the dump and run ``gridtrade replay`` on it -> (chain, problems)."""
    try:
        chain = Blockchain.load_bytes(chain_dump)
    except ValueError as exc:
        return None, [f"chain dump does not reload: {exc}"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.chain.dump"
    path.write_bytes(chain_dump)
    report = io.StringIO()
    with redirect_stdout(report):
        code = gridtrade_cli(["replay", "--chain-dump", str(path)])
    path.unlink()
    if code != 0:
        lines = report.getvalue().strip().splitlines()
        return chain, ["gridtrade replay: " + next((x for x in lines if "BAD" in x), lines[-1])]
    return chain, []


def operations(name: str, result) -> tuple:
    """(operations done, operations attempted, operations failed, failure)."""
    m, world = result.metrics, result.world
    if name == "honest-n32":
        unsettled = sum(
            1 for rec in world.contracts.values() if rec["counted"] and rec["settled"] == 0
        )
        return m.get("settlements"), m.get("contracts_agreed"), unsettled, "agreed trades unsettled"
    if name == "routing-chatter":
        # envelopes still travelling when the run ends are not failures
        lost = sum(
            m.get(k)
            for k in ("undeliverable", "routing_loops", "dropped_offer_limit", "messages_lost")
        )
        return m.get("messages_routed"), m.get("messages_routed"), lost, "routed messages not delivered"
    decisions = m.get("ctp_broadcast") * len(world.miner_actors)
    admitted = [set(actor.accepted_ctp_ids) for actor in world.miner_actors]
    split = len(set.union(*admitted) - set.intersection(*admitted))
    return decisions, m.get("ctp_broadcast"), split, "commitments decided differently by miners"


def commit_to_settle_ticks(result, chain) -> list:
    """Ticks from each settled CTP's time_stamp to the block carrying its ERC."""
    stamps = {
        ctp.t_id: ctp.time_stamp
        for consumer in result.world.consumer_actors
        for ctp in consumer.sent_ctps
    }
    return sorted(
        block.timestamp - stamps[tx.ctp_id]
        for block in chain.blocks
        for tx in block.txs
        if tx.kind == "erc" and tx.ctp_id in stamps
    )


def nearest_rank(samples: list, share: float):
    return samples[max(math.ceil(share * len(samples)) - 1, 0)]


class Run:
    """What one scenario run leaves behind once its result is dropped."""

    def __init__(self, index, result, builds: list, wall_s: float, scale: float, tracer):
        self.index = index  # which of the workload's configs ran
        self.builds = builds
        self.wall_s = wall_s
        self.run_s = wall_s * scale
        self.digests = digests(result)
        self.counts = self.times = None
        if tracer is not None:
            self.counts = tracer.counts(result.metrics.get("settlements"), result.metrics.counters)
            self.times = tracer.times()


def timed_runs(name: str, configs: list, seconds: float, traced: bool, inspected: dict) -> list:
    """Run the configs in turn until ``seconds`` pass and each has run.

    The first result of each config is checked into ``inspected``; every
    result is dropped before the next run, so peak memory is one run's.
    """
    runs = []
    start = time.perf_counter()
    reference = reference_time()
    while len(runs) < len(configs) or time.perf_counter() - start < seconds:
        index = len(runs) % len(configs)
        config = configs[index]
        builds = [time_build(config) for _ in range(SETUP_BUILDS)]
        with Tracer() if traced else nullcontext() as tracer:
            result, build_s, run_s = run_once(config)
        reference_after = reference_time()
        # the builds follow the earlier reference time; the run lies between both
        builds = [b * REFERENCE_S / reference for b in [*builds, build_s]]
        scale = REFERENCE_S * 2 / (reference + reference_after)
        runs.append(Run(index, result, builds, run_s, scale, tracer))
        reference = reference_after
        if index not in inspected:
            inspected[index] = check_result(name, result)
        del result
    return runs


def check_result(name: str, result) -> dict:
    """Correctness checks and protocol figures of one result."""
    chain, problems = check_dump(result.chain_dump, name)
    problems += [
        f"verdict {v.name} failed ({v.detail})" for v in result.metrics.verdicts if not v.passed
    ]
    done, attempted, failed, failure = operations(name, result)
    if failed:
        problems.append(f"{failed} {failure}")
    if not done:
        problems.append(f"no {WORKLOADS[name][2]} completed")
    return {
        "problems": problems,
        "digests": digests(result),
        "done": max(done, 1),
        "attempted_ops": attempted,
        "failed_ops": failed,
        "failure": failure,
        "verdicts_failed": sum(not v.passed for v in result.metrics.verdicts),
        "ticks": commit_to_settle_ticks(result, chain) if chain is not None else [],
    }


def median_of_medians(runs: list, value) -> float:
    """Median over scenario seeds of the median over that seed's runs."""
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run.index, []).append(value(run))
    return statistics.median(statistics.median(v) for v in by_seed.values())


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Returns (report lines, the object for the last output line)."""
    configs = [make_config(name, seed + offset) for offset in SEED_OFFSETS]
    inspected: dict = {}
    runs = timed_runs(name, configs, seconds / 2 if trace else seconds, False, inspected)
    # traced runs use the first config only, so their counts must repeat
    traced = timed_runs(name, configs[:1], seconds / 2, True, inspected) if trace else []

    problems = [
        f"seed {configs[i].seed}: {p}" for i in sorted(inspected) for p in inspected[i]["problems"]
    ]
    changed = [r for r in runs + traced if r.digests != inspected[r.index]["digests"]]
    recounted = [r for r in traced if r.counts != traced[0].counts]
    if changed:
        problems.append(f"{len(changed)} reruns changed the chain dump or metrics.kv")
    if recounted:
        problems.append(f"{len(recounted)} traced reruns counted different work")
    failed = sum(bool(c["problems"]) for c in inspected.values()) + len(changed) + len(recounted)

    run_s = median_of_medians(runs, lambda r: r.run_s)
    setup_samples = [b for r in runs for b in r.builds]
    setup_s = statistics.median(setup_samples)
    lines = [
        f"== {name} seed={seed} {'traced' if trace else 'untraced'} ==",
        "config " + " ".join(format_config(configs[0]).split()),
        f"scenario seeds {' '.join(str(c.seed) for c in configs)}, run in turn",
        f"setup_s {setup_s:.6f} s (median of {len(setup_samples)} builds)",
        f"run_s {run_s:.6f} s (median over seeds of the median of their runs; seed:run_s "
        + " ".join(f"{configs[r.index].seed}:{r.run_s:.6f}" for r in runs) + ")",
        f"wall time of a run {statistics.median(r.wall_s for r in runs):.6f} s (median)",
    ]
    if not trace:
        ms_per_op = median_of_medians(runs, lambda r: r.run_s * 1000 / inspected[r.index]["done"])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ms_per_op": (ms_per_op, "ms"),
        }
        done = " ".join(str(inspected[i]["done"]) for i in sorted(inspected))
        lines += [
            f"peak_rss_mb {peak_rss_mb:.3f} MB",
            f"ms_per_op {ms_per_op:.6f} ms (median; per {WORKLOADS[name][2]}: {done} a run)",
            {
                "honest-n32": f"ms_per_settlement {ms_per_op:.6f} ms",
                "routing-chatter": f"routed_msgs_per_s {1000 / ms_per_op:.1f} 1/s",
                "ctp-burst": f"ctp_admissions_per_s {1000 / ms_per_op:.1f} 1/s",
            }[name],
        ]
        ticks = sorted(t for c in inspected.values() for t in c["ticks"])
        if ticks:
            lines += [
                f"commit_to_settle_ticks_p{p} {nearest_rank(ticks, p / 100)} ticks (n={len(ticks)})"
                for p in (50, 80)
            ]
    else:
        times = {key: statistics.median(r.times[key] for r in traced) for key in traced[0].times}
        traced_run_s = statistics.median(r.run_s for r in traced)
        # self times are wall seconds, as the tracer measured them
        metrics = {
            key: (value, metric_unit(key)) for key, value in {**traced[0].counts, **times}.items()
        }
        untraced_s = statistics.median(r.run_s for r in runs if r.index == 0)
        metrics["trace_overhead_s"] = (traced_run_s - untraced_s, "s")
        lines.append(f"traced run_s {traced_run_s:.6f} s (median of {len(traced)} runs)")
        lines += [f"{layer}.self_s {times[layer + '.self_s']:.6f} s" for layer in LAYERS]
    attempted = sum(c["attempted_ops"] for c in inspected.values())
    failed_ops = sum(c["failed_ops"] for c in inspected.values())
    lines.append(
        f"ops_failed_share {failed_ops / attempted if attempted else 0:.6f} "
        f"({failed_ops} of {attempted} {inspected[0]['failure']})"
    )
    lines.append(f"verdicts_failed {sum(c['verdicts_failed'] for c in inspected.values())}")
    for i in sorted(inspected):
        d = inspected[i]["digests"]
        lines.append(
            f"seed {configs[i].seed} chain_dump_sha256 {d['chain_dump_sha256']} "
            f"metrics_kv_sha256 {d['metrics_kv_sha256']}"
        )
    lines += [f"problem: {p}" for p in problems]
    outcome = {
        "correct": not problems,
        "attempted": len(runs) + len(traced),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lines, outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
