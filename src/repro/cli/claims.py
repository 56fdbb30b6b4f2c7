"""``python -m repro e1 … e24 | all | list``: regenerate claim tables.

One subcommand per registry claim, generated from
:data:`repro.harness.registry.REGISTRY`; ``--quick`` selects the
scaled-down parameter profile the test suite uses.
"""

from __future__ import annotations

import time

from repro.analysis import tables
from repro.cli.common import trace_parent
from repro.harness.registry import REGISTRY, build_rows
from repro.obs import trace


def _describe(claim) -> str:
    return f"{claim.paper_ref} — {claim.title}"


def add_parsers(sub) -> None:
    traced = trace_parent()
    commands = [
        (claim.id, _describe(claim), [claim.id]) for claim in REGISTRY.values()
    ]
    commands.append(("all", "every claim's table in turn", list(REGISTRY)))
    for name, text, ids in commands:
        p = sub.add_parser(name, parents=[traced], help=text, description=text)
        p.add_argument(
            "--quick",
            action="store_true",
            help="scaled-down parameters (seconds, not minutes)",
        )
        p.set_defaults(run=run, claims=ids)
    sub.add_parser(
        "list", help="list the claim ids", description="List the claim ids."
    ).set_defaults(run=list_claims)


def run(args) -> int:
    profile = "quick" if args.quick else "full"
    for key in args.claims:
        claim = REGISTRY[key]
        t0 = time.perf_counter()
        with trace.span(f"experiment.{key}", profile=profile):
            rows = build_rows(claim, profile)
        elapsed = time.perf_counter() - t0
        print(tables.render_table(rows, title=f"{key.upper()}: {_describe(claim)}"))
        print(f"[{key} completed in {elapsed:.1f}s]\n")
    return 0


def list_claims(args) -> int:
    for claim in REGISTRY.values():
        print(f"{claim.id:4s} {_describe(claim)}")
    return 0
