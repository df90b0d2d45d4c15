"""Command-line interface: run scenarios, replay chain dumps, list scenarios.

Exit code is 0 only when every scenario verdict passes (``run``) or the
dump validates (``replay``). A config or dump that cannot be read or a bad
config is reported in one line on stderr, with exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..ledger import Blockchain, GENESIS_PREV
from ..transactions import MINEABLE_TAGS, check_id_and_signature
from .config import parse_config
from .scenarios import SCENARIOS, run_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridtrade", description="energy-trading protocol simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario from a key=value config file")
    run_p.add_argument("--config", required=True, help="path to a key=value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument(
        "--out",
        default=None,
        help="directory for metrics.txt, metrics.kv, and chain.dump",
    )

    replay_p = sub.add_parser("replay", help="validate and summarize a chain dump")
    replay_p.add_argument("--chain-dump", required=True, help="path to a chain dump file")

    sub.add_parser("list-scenarios", help="list scenario names")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "replay":
        return _cmd_replay(args)
    return _cmd_list()


def _usage_error(message: str) -> int:
    """Report bad input in one line on stderr; exit code 2, as argparse uses."""
    print(f"gridtrade: {message}", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    try:
        config = parse_config(Path(args.config).read_text())
        if args.seed is not None:
            config.seed = args.seed
            config.validate()
    except (OSError, ValueError) as exc:
        return _usage_error(f"config {args.config}: {exc}")
    if args.out:  # before the run, so a bad directory costs no run
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _usage_error(f"out {args.out}: {exc}")
    result = run_scenario(config)
    report = result.metrics.render_text()
    sys.stdout.write(report)
    if args.out:
        out = Path(args.out)
        (out / "metrics.txt").write_text(report)
        (out / "metrics.kv").write_text(result.metrics.render_kv())
        (out / "chain.dump").write_bytes(result.chain_dump)
    return 0 if result.passed else 1


def _cmd_replay(args) -> int:
    try:
        data = Path(args.chain_dump).read_bytes()
    except OSError as exc:
        return _usage_error(f"chain dump {args.chain_dump}: {exc}")
    try:
        chain = Blockchain.load_bytes(data)
    except ValueError as exc:
        print(f"invalid dump: {exc}")
        return 1
    prev = GENESIS_PREV
    ok = True
    for i, block in enumerate(chain.blocks):
        problems = []
        if block.height != i:
            problems.append("height")
        if block.prev_hash != prev:
            problems.append("link")
        if not block.signature_ok:
            problems.append("miner-sign")
        if not all(check_id_and_signature(tx)[0] for tx in block.txs):
            problems.append("tx")
        if any(tx.tag not in MINEABLE_TAGS for tx in block.txs):
            problems.append("kind")  # negotiations and commitments are never mined
        kinds = {}
        for tx in block.txs:
            kinds[tx.kind] = kinds.get(tx.kind, 0) + 1
        kind_summary = " ".join(f"{k}={v}" for k, v in sorted(kinds.items())) or "empty"
        status = "ok" if not problems else "BAD:" + ",".join(problems)
        print(
            f"block {block.height:4d} t={block.timestamp:6d} "
            f"miner={block.miner_pk[:4].hex()} ctp_hash={block.ctp_hash[:4].hex()} "
            f"[{kind_summary}] {status}"
        )
        ok = ok and not problems
        prev = block.block_hash
    print(f"{len(chain.blocks)} blocks: {'valid' if ok else 'INVALID'}")
    return 0 if ok else 1


def _cmd_list() -> int:
    for name in SCENARIOS:
        print(f"{name:20s} {SCENARIOS[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
