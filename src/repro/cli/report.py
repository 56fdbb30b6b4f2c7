"""``python -m repro report DIR``: summarize an exported trace."""

from __future__ import annotations

import os
import sys


def add_parsers(sub) -> None:
    p = sub.add_parser(
        "report",
        help="phase-time and per-step series breakdown of a trace directory",
        description="Summarize a trace directory written by --trace: "
        "phase-time breakdown and per-step series reconciliation.",
    )
    p.add_argument("path", metavar="DIR", help="the trace directory to summarize")
    p.set_defaults(run=run)


def run(args) -> int:
    from repro.obs.report import render_report

    if not os.path.isdir(args.path):
        print(f"no such trace directory: {args.path}", file=sys.stderr)
        return 2
    print(render_report(args.path))
    return 0
