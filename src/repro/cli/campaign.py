"""``python -m repro campaign {run,cells,diff}``: declarative sweeps.

``run`` fans a spec's grid out into a resumable, queryable result store
(:mod:`repro.campaign`); ``cells`` prints the expansion without running
anything; ``diff`` joins two stores cell-for-cell and exits 1 when any
cell regressed.
"""

from __future__ import annotations

import sys

from repro.analysis import tables
from repro.campaign.query import FORMATS
from repro.cli.common import nonnegative_float, nonnegative_int, positive_int, trace_parent


def add_parsers(sub) -> None:
    p = sub.add_parser(
        "campaign",
        help="run, expand or compare declarative sweeps over the claim registry",
        description="Run a declarative sweep over the claim registry "
        "into a resumable, queryable result store.",
    )
    actions = p.add_subparsers(dest="action", required=True, metavar="ACTION")

    run_p = actions.add_parser(
        "run",
        parents=[trace_parent()],
        help="run the campaign into its store",
        description="Run every cell of a campaign spec into its store.",
    )
    run_p.add_argument("spec", help="JSON or TOML campaign spec file")
    run_p.add_argument(
        "--store", default=None, metavar="DIR",
        help="store directory (default: <results dir>/campaigns/<spec name>, "
        "honoring REPRO_RESULTS_DIR)",
    )
    run_p.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="worker processes for the cell fan-out (default 1)",
    )
    run_p.add_argument(
        "--resume", action="store_true",
        help="continue an existing store, running only cells its manifest "
        "does not mark complete",
    )
    run_p.add_argument(
        "--max-cells", type=nonnegative_int, default=None, metavar="K",
        help="stop after K cells complete in this invocation, leaving the "
        "store resumable (exit 3 while cells remain)",
    )
    run_p.add_argument(
        "--live", action="store_true",
        help="render an in-place progress panel (cells done, per-worker "
        "throughput, RSS) as results arrive",
    )
    run_p.set_defaults(run=run)

    cells_p = actions.add_parser(
        "cells",
        help="print the spec's expanded cells without running them",
        description="Print a campaign spec's expanded cells without running them.",
    )
    cells_p.add_argument("spec", help="JSON or TOML campaign spec file")
    cells_p.set_defaults(run=cells)

    diff_p = actions.add_parser(
        "diff",
        help="compare two stores cell-for-cell; exit 1 on a regression",
        description="Join two campaign stores cell-for-cell on their "
        "content-digest ids and report per-cell drift; exits 1 when any "
        "cell regressed (pass→fail, or a watched metric drifted past the "
        "tolerance in the bad direction).",
    )
    diff_p.add_argument("store_a", help="baseline store directory")
    diff_p.add_argument("store_b", help="candidate store directory")
    diff_p.add_argument(
        "--metric", action="append", default=[], metavar="NAME",
        help="watch a flattened-cell column for drift (repeatable; "
        "lower-is-better unless prefixed with +, e.g. +n_rows)",
    )
    diff_p.add_argument(
        "--tolerance", type=nonnegative_float, default=0.0, metavar="FRAC",
        help="relative drift allowed per watched metric (default 0)",
    )
    diff_p.add_argument(
        "--format", choices=FORMATS, default="table",
        help="output format (default table)",
    )
    diff_p.add_argument(
        "--only-changed", action="store_true", help="omit cells whose status is 'same'"
    )
    diff_p.set_defaults(run=diff)


def _load_spec(path: str):
    """The parsed spec, or ``None`` after reporting why it is invalid."""
    from repro.campaign import SpecError, load_spec

    try:
        return load_spec(path)
    except SpecError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return None


def cells(args) -> int:
    spec = _load_spec(args.spec)
    if spec is None:
        return 2
    rows = [cell.describe() for cell in spec.cells()]
    print(tables.render_table(rows, title=f"campaign {spec.name!r} — {len(rows)} cells"))
    return 0


def run(args) -> int:
    from repro.analysis.campaigns import campaign_claim_summary
    from repro.campaign import StoreError, run_campaign
    from repro.harness.results import ResultsDirError, resolve_results_dir

    spec = _load_spec(args.spec)
    if spec is None:
        return 2
    try:
        store_dir = (
            args.store
            if args.store is not None
            else resolve_results_dir(f"campaigns/{spec.name}")
        )
        report = run_campaign(
            spec,
            store_dir,
            jobs=args.jobs,
            resume=args.resume,
            max_cells=args.max_cells,
            progress=None if args.live else print,
            live=args.live,
        )
    except (ResultsDirError, StoreError) as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    if report.rows:
        print()
        print(tables.render_table(
            report.rows,
            title=f"campaign {spec.name!r} — {report.n_run} cells run "
            f"({report.n_skipped} resumed as complete), "
            f"{report.wall_seconds:.1f}s wall",
        ))
    if report.complete:
        print()
        print(tables.render_table(
            campaign_claim_summary(report.store),
            title="per-claim rollup",
        ))
    print(f"\nstore: {report.store}")
    if not report.complete:
        print(
            f"campaign incomplete: "
            f"{report.n_cells - report.n_skipped - report.n_run} cells remain "
            f"(relaunch with --resume)",
            file=sys.stderr,
        )
        return 3
    if report.n_failed:
        print(f"{report.n_failed} cell(s) FAILED their claim predicate", file=sys.stderr)
        return 1
    print(f"campaign complete: all {report.n_cells} cells hold")
    return 0


def diff(args) -> int:
    from repro.campaign.diff import DiffError, run_diff
    from repro.campaign.store import StoreError

    try:
        text, n_regressed = run_diff(
            args.store_a,
            args.store_b,
            metrics=args.metric,
            tolerance=args.tolerance,
            fmt=args.format,
            only_changed=args.only_changed,
        )
    except (StoreError, DiffError) as exc:
        print(f"campaign diff: {exc}", file=sys.stderr)
        return 2
    print(text)
    if n_regressed:
        print(f"{n_regressed} cell(s) regressed", file=sys.stderr)
        return 1
    return 0
