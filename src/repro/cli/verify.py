"""``python -m repro verify``: gate every paper claim (the CI entry point).

The selected claims' predicates run as a one-cell-per-claim campaign
whose store is ``campaigns/verify-<profile>/`` under the results
directory (``REPRO_RESULTS_DIR``; ``query`` and ``top`` read it), with
one JSON record per claim next to it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from repro.analysis import tables
from repro.cli.common import positive_int, trace_parent
from repro.harness.registry import REGISTRY, claim_ids, resolve_ids


def add_parsers(sub) -> None:
    p = sub.add_parser(
        "verify",
        parents=[trace_parent()],
        help="check every claim's predicate; exit 1 if one fails",
        description="Run the selected claims as a one-cell-per-claim campaign, "
        "write one JSON record per claim, and exit 1 if any claim no longer holds.",
    )
    p.add_argument(
        "--quick", action="store_true", help="scaled-down parameters (seconds, not minutes)"
    )
    p.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="run claims across N worker processes (default 1)",
    )
    p.add_argument(
        "--only", default=None, metavar="IDS",
        help="comma-separated claim ids to check (default: all)",
    )
    p.add_argument(
        "--list", action="store_true", help="print the claim table without running anything"
    )
    p.set_defaults(run=run)


def _claim_table() -> str:
    """The registry as a table (``verify --list``)."""
    rows = [
        {
            "claim": claim.id,
            "paper_ref": claim.paper_ref,
            "title": claim.title,
            "seed": claim.seed,
            "harness": f"{claim.module.rsplit('.', 1)[-1]}.{claim.func}",
        }
        for claim in REGISTRY.values()
    ]
    return tables.render_table(rows, title=f"claim registry — {len(rows)} claims")


def _clear_verify_store(store_dir: Path, spec) -> None:
    """Remove an earlier verify store at ``store_dir``; refuse anything else.

    A verify store pins a spec that differs from ``spec`` at most in its
    claim list.  Any other content of the directory is left untouched
    and raised as a :class:`~repro.campaign.store.StoreError`.
    """
    from repro.campaign.store import STORE_SCHEMA, StoreError

    if not store_dir.is_dir() or not any(store_dir.iterdir()):
        return
    try:
        doc = json.loads((store_dir / "store.json").read_text())
        pinned = dict(doc["spec"], grid=sorted(doc["spec"]["grid"]))
        is_verify = doc["schema"] == STORE_SCHEMA and pinned == dict(
            spec.to_json(), grid=["claim"]
        )
    except (OSError, ValueError, KeyError, TypeError):
        is_verify = False
    if not is_verify:
        raise StoreError(
            f"{store_dir} exists and is not a {spec.name!r} store; move it "
            "away or set REPRO_RESULTS_DIR to another location"
        )
    shutil.rmtree(store_dir)


def run(args) -> int:
    from repro.campaign import CampaignSpec, CampaignStore, StoreError, run_campaign
    from repro.harness.results import ResultsDirError, resolve_results_dir, write_result

    if args.list:
        print(_claim_table())
        return 0
    try:
        ids = resolve_ids(args.only)
    except KeyError as exc:
        print(
            f"{exc.args[0]}\nvalid claim ids: {', '.join(claim_ids())}",
            file=sys.stderr,
        )
        return 2
    profile = "quick" if args.quick else "full"
    # One registry-seeded cell per claim, no overrides: the claim JSONs
    # below are rendered from this store's records.
    spec = CampaignSpec(
        name=f"verify-{profile}", profile=profile, grid={"claim": tuple(ids)}, fixed={}
    )
    try:
        store_dir = resolve_results_dir(f"campaigns/{spec.name}")
        _clear_verify_store(store_dir, spec)
    except (ResultsDirError, StoreError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    report = run_campaign(spec, store_dir, jobs=args.jobs, progress=None)
    store = CampaignStore(root=store_dir, spec=spec)
    records = [store.load_cell(cell.cell_id) for cell in spec.cells()]

    summary = [
        {
            "claim": rec["claim"].upper(),
            "paper_ref": rec["paper_ref"],
            "title": rec["title"],
            "rows": rec["n_rows"],
            "passed": rec["passed"],
            "violations": len(rec["failures"]),
            "seconds": round(rec["runtime_seconds"], 2),
            "json": str(write_result(rec)),
        }
        for rec in records
    ]
    print(
        tables.render_table(
            summary,
            title=f"repro verify — {profile} profile, {len(records)} claims, "
            f"--jobs {args.jobs}, {report.wall_seconds:.1f}s wall",
        )
    )
    for rec in records:
        for msg in rec["failures"]:
            print(f"FAIL {rec['claim']}: {msg}", file=sys.stderr)
    if report.n_failed:
        print(f"\n{report.n_failed}/{len(records)} claims FAILED", file=sys.stderr)
        return 1
    print(f"\nall {len(records)} claims hold")
    return 0
