"""``python -m repro serve``: the repro-service/v1 session server."""

from __future__ import annotations

import sys

from repro.cli.common import port, positive_float, positive_int


def add_parsers(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="serve live simulation sessions over HTTP with SSE streaming",
        description="Run the repro-service/v1 session server: concurrent "
        "live simulations over HTTP with SSE step streaming and live "
        "event injection (see docs/service.md).",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p.add_argument(
        "--port", type=port, default=8642,
        help="TCP port; 0 picks a free one (default 8642)",
    )
    p.add_argument(
        "--max-sessions", type=positive_int, default=16, metavar="K",
        help="concurrent-session bound; creation 429s beyond it (default 16)",
    )
    p.add_argument(
        "--session-ttl", type=positive_float, default=600.0, metavar="SEC",
        help="idle seconds before a session is reaped (default 600)",
    )
    p.set_defaults(run=run)


def run(args) -> int:
    from repro.service.server import serve

    try:
        return serve(
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            session_ttl=args.session_ttl,
        )
    except OSError as exc:
        print(f"serve: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
