"""gridtrade benchmark: run workloads, each in a fresh process, and report.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a gridtrade checkout; the program is imported from
its ``src/``. Each workload runs in its own child process (``measure.py``)
one after another, so peak memory and set-up time belong to it alone.
Every metric is printed by name with its unit, followed by the child's
JSON result line; with ``--trace 1`` the per-layer metrics are printed
instead of the end-to-end ones. The exit code is 0 only if every run
passed its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
PROGRAM = BENCH.parent / "src" / "gridtrade" / "__init__.py"
CHILD_TIMEOUT_S = 170


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    command = [
        sys.executable, str(BENCH / "measure.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    # a fixed hash seed takes one source of run-to-run variance out of the
    # timings; the program sorts wherever order matters, so output is unchanged
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        child = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, env=env, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = child.stdout.splitlines()
    try:
        outcome = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{name}: exited {child.returncode} without a result", file=sys.stderr)
        return child.returncode or 1
    print("\n".join(lines[:-1]))
    print(json.dumps(outcome), flush=True)
    return child.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gridtrade benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not PROGRAM.is_file():
        print(f"no gridtrade source at {PROGRAM.parent}; run from a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
