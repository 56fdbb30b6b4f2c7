"""``python -m repro top STORE [--watch SEC]``: live campaign progress."""

from __future__ import annotations

import sys
import time

from repro.cli.common import nonnegative_float


def add_parsers(sub) -> None:
    p = sub.add_parser(
        "top",
        help="a campaign store's progress and per-worker resource usage",
        description="Show a campaign store's live progress and per-worker "
        "resource usage from its telemetry.jsonl snapshot stream (works on "
        "running and finished campaigns alike).",
    )
    p.add_argument("store", help="campaign store directory")
    p.add_argument(
        "--watch", type=nonnegative_float, default=None, metavar="SEC",
        help="refresh every SEC seconds until interrupted",
    )
    p.set_defaults(run=run)


def run(args) -> int:
    from repro.obs import telemetry

    try:
        while True:
            text = telemetry.render_top(args.store)
            if args.watch and sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            print(text)
            if not args.watch:
                return 0
            time.sleep(args.watch)
    except FileNotFoundError as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0
