"""``python -m repro query STORE``: slice a campaign result store."""

from __future__ import annotations

import sys

from repro.campaign.query import FORMATS


def add_parsers(sub) -> None:
    p = sub.add_parser(
        "query",
        help="render any slice of a campaign result store",
        description="Render any slice of a campaign result store "
        "without re-running anything.",
    )
    p.add_argument("store", help="campaign store directory")
    p.add_argument(
        "--where", action="append", default=[], metavar="COND",
        help="filter: KEY OP VALUE with OP in {= != >= <= > <}; "
        "repeat to AND conditions (e.g. --where claim=e1 --where n>=96)",
    )
    p.add_argument(
        "--columns", default=None, metavar="COLS",
        help="comma-separated columns to project (default: all)",
    )
    p.add_argument(
        "--format", dest="fmt", choices=FORMATS, default="table",
        help="output format (default table)",
    )
    p.add_argument(
        "--rows", action="store_true",
        help="one output row per experiment-table row instead of per cell",
    )
    p.set_defaults(run=run)


def run(args) -> int:
    from repro.campaign.query import QueryError, run_query
    from repro.campaign.store import StoreError

    columns = (
        [c.strip() for c in args.columns.split(",") if c.strip()]
        if args.columns
        else None
    )
    try:
        print(run_query(
            args.store,
            where=args.where,
            columns=columns,
            fmt=args.fmt,
            include_rows=args.rows,
        ))
    except (StoreError, QueryError) as exc:
        print(f"query: {exc}", file=sys.stderr)
        return 2
    return 0
