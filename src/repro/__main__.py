"""Command-line experiment runner: ``python -m repro <experiment> [...]``.

Regenerates any of the DESIGN.md §2 experiment tables from the command
line without going through pytest:

    python -m repro e1               # Lemma 2.1 table
    python -m repro e4 --quick       # smaller parameters, fast
    python -m repro all --quick      # everything
    python -m repro list             # what exists

gates the paper's claims (the CI entry point):

    python -m repro verify --quick --jobs 4      # all claims, parallel
    python -m repro verify --only e4,e7          # a selection, full scale
    python -m repro verify --list                # claim table, no runs

captures/inspects observability traces (:mod:`repro.obs`):

    python -m repro e6 --quick --trace /tmp/t    # span trace + step series
    python -m repro verify --quick --trace /tmp/t
    python -m repro report /tmp/t                # phase/series breakdown

and exercises the dynamic-network subsystem (:mod:`repro.dynamic`)
directly — one network, one churn trace, the E23 locality-of-update
table for that single configuration:

    python -m repro dynamic --n 1000 --churn 0.01 --steps 100
    python -m repro dynamic --n 500 --churn 0.02 --steps 50 --trace /tmp/t
    python -m repro dynamic --n 200 --events-out trace.json   # record
    python -m repro dynamic --n 200 --events-in trace.json    # replay

serves live simulation sessions over HTTP (:mod:`repro.service`) with
SSE step streaming and live event injection:

    python -m repro serve --port 8642 --max-sessions 16 --session-ttl 600

runs declarative sweeps (:mod:`repro.campaign`) with resumable
progress and a persistent, queryable result store:

    python -m repro campaign run spec.json --jobs 4      # fan out the grid
    python -m repro campaign run spec.json --resume      # finish a killed run
    python -m repro campaign run spec.json --live        # in-place progress
    python -m repro campaign cells spec.json             # expansion, no runs
    python -m repro query STORE --where claim=e1 --where n=96
    python -m repro query STORE --columns cell,passed --format csv
    python -m repro top STORE                            # progress + workers
    python -m repro top STORE --watch 2                  # refresh every 2s

``verify`` evaluates every selected claim's tolerance/bound predicate
(see :mod:`repro.harness.registry`), writes one JSON record per claim
under ``benchmarks/results/`` (override with ``REPRO_RESULTS_DIR``),
prints a summary table, and exits 1 if any claim no longer holds.

``--trace DIR`` (or the ``REPRO_TRACE=DIR`` environment variable)
enables the span tracer and per-step series recorder for the run and
exports ``trace.jsonl``, ``trace.chrome.json`` (loadable in Perfetto /
``chrome://tracing``), ``series.json`` and ``metrics.json`` into DIR —
see ``docs/observability.md``.

The experiment thunks themselves live in the claim registry; ``--quick``
maps to the scaled-down parameter sets the test suite uses.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from repro import obs
from repro.analysis import tables
from repro.harness.registry import REGISTRY, build_rows, claim_ids, resolve_ids
from repro.harness.results import write_result
from repro.harness.runner import run_claims
from repro.obs import trace
from repro.obs.report import render_report

#: experiment id → (description, full-scale thunk, quick thunk).
#: Kept for back-compatibility with callers of the pre-registry CLI.
EXPERIMENTS = {
    claim.id: (
        f"{claim.paper_ref} — {claim.title}",
        functools.partial(build_rows, claim, "full"),
        functools.partial(build_rows, claim, "quick"),
    )
    for claim in REGISTRY.values()
}


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


def _export_trace(trace_dir: str) -> None:
    """Write the active tracer's capture and say where it went."""
    paths = obs.export(trace_dir)
    print(f"\ntrace written to {trace_dir}/ "
          f"({', '.join(p.name for p in paths.values())}); "
          f"open {paths['chrome'].name} in Perfetto or run "
          f"'python -m repro report {trace_dir}'")


def _verify(args: argparse.Namespace, trace_dir: "str | None") -> int:
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
    if trace_dir:
        obs.enable()
    t0 = time.perf_counter()
    results = run_claims(
        ids, profile=profile, jobs=args.jobs, collect_trace=bool(trace_dir)
    )
    wall = time.perf_counter() - t0

    summary = []
    for res in results:
        path = write_result(res)
        summary.append(
            {
                "claim": res.claim.upper(),
                "paper_ref": res.paper_ref,
                "title": res.title,
                "rows": len(res.rows),
                "passed": res.passed,
                "violations": len(res.failures),
                "seconds": round(res.runtime_seconds, 2),
                "json": str(path),
            }
        )
    n_failed = sum(not res.passed for res in results)
    print(
        tables.render_table(
            summary,
            title=f"repro verify — {profile} profile, {len(results)} claims, "
            f"--jobs {args.jobs}, {wall:.1f}s wall",
        )
    )
    for res in results:
        for msg in res.failures:
            print(f"FAIL {res.claim}: {msg}", file=sys.stderr)
    if trace_dir:
        # Merge what the claims captured (in-process or in pool workers)
        # into this process's tracer, then export one trace directory.
        tracer = trace.active()
        for res in results:
            tracer.ingest(res.trace.get("events", []))
            tracer.ingest_series(res.trace.get("series", []))
        _export_trace(trace_dir)
    if n_failed:
        print(f"\n{n_failed}/{len(results)} claims FAILED", file=sys.stderr)
        return 1
    print(f"\nall {len(results)} claims hold")
    return 0


def _parse_tiles(spec: "str | None") -> "int | tuple[int, int] | None":
    """``--tiles`` value → TileWorkerPool's ``tiles=`` argument.

    ``"NX,NY"`` pins the grid shape exactly; a bare integer asks for at
    least that many tiles (the grid chooses its own shape); ``None``
    keeps the adaptive default.
    """
    if spec is None:
        return None
    parts = [p.strip() for p in spec.split(",")]
    try:
        if len(parts) == 1:
            count = int(parts[0])
            if count < 1:
                raise ValueError
            return count
        if len(parts) == 2:
            nx, ny = int(parts[0]), int(parts[1])
            if nx < 1 or ny < 1:
                raise ValueError
            return (nx, ny)
    except ValueError:
        pass
    raise ValueError(f"--tiles expects NX,NY or a positive integer, got {spec!r}")


def _dynamic(args: argparse.Namespace, trace_dir: "str | None") -> int:
    """The ``dynamic`` subcommand: churn one network, report repair cost.

    Runs the same measurement as claim E23 but for a single
    user-chosen configuration: ``--churn`` is the per-node per-step
    event probability, so the trace holds ``n * churn * steps`` mixed
    events (moves 40%, join/leave/fail/recover 15% each).
    """
    import json
    import math

    import numpy as np

    from repro.core.theta import theta_algorithm
    from repro.dynamic import (
        DynamicInterference,
        IncrementalTheta,
        apply_events_parallel,
        event_kind,
        event_trace_from_dict,
        event_trace_to_dict,
        random_event_trace,
    )
    from repro.geometry.pointsets import uniform_points
    from repro.harness.cache import cached_range
    from repro.interference.conflict import interference_sets
    from repro.utils.rng import as_rng

    if args.n < 4:
        print("dynamic: --n must be at least 4", file=sys.stderr)
        return 2
    if args.churn <= 0 or args.steps <= 0:
        print("dynamic: --churn and --steps must be positive", file=sys.stderr)
        return 2
    if trace_dir:
        obs.enable()

    gen = as_rng(args.seed)
    pts = uniform_points(args.n, rng=gen)
    d0 = cached_range(pts, 1.5)
    if args.events_in:
        try:
            with open(args.events_in) as fh:
                events = event_trace_from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"dynamic: cannot load events from {args.events_in}: {exc}", file=sys.stderr)
            return 2
        print(f"replaying {len(events)} events from {args.events_in}")
    else:
        n_events = max(1, round(args.churn * args.n * args.steps))
        events = random_event_trace(pts, n_events, move_sigma=d0 / 2.0, rng=gen)
    if args.events_out:
        try:
            with open(args.events_out, "w") as fh:
                json.dump(event_trace_to_dict(events), fh)
        except OSError as exc:
            print(f"dynamic: cannot write {args.events_out}: {exc}", file=sys.stderr)
            return 2
        print(f"event trace written to {args.events_out} ({len(events)} events)")
    inc = IncrementalTheta(pts, math.pi / 9, d0)
    di = DynamicInterference(inc, args.delta) if args.mac else None

    touched: "list[int]" = []
    radii: "list[float]" = []
    flipped: "list[int]" = []
    wall: "list[float]" = []
    conflict_rows: "list[int]" = []
    conflict_entries: "list[int]" = []
    conflict_wall: "list[float]" = []
    kinds: "dict[str, int]" = {}
    evs = list(events.events())
    for ev in evs:
        kinds[event_kind(ev)] = kinds.get(event_kind(ev), 0) + 1
    groups = 0
    halo_nodes = 0
    diffs_replayed = 0
    diffs_suppressed = 0
    backends_used: "set[str]" = set()
    if args.parallel:
        # One batch per simulated step (round(churn·n) events each),
        # grouped by dirty-disk overlap and repaired group-by-group.
        backend = None if args.backend == "auto" else args.backend
        pool = None
        if backend == "process":
            from repro.parallel import TileWorkerPool

            try:
                tiles = _parse_tiles(args.tiles)
            except ValueError as exc:
                print(f"dynamic: {exc}", file=sys.stderr)
                return 2
            cap = max([inc.size] + [int(ev.node) + 1 for ev in evs])
            pool = TileWorkerPool(
                inc,
                di,
                workers=args.workers,
                capacity=cap + 16,
                tiles=tiles,
                halo_filter=not args.no_halo_filter,
            )
        per_step = max(1, round(args.churn * args.n))
        try:
            for lo in range(0, len(evs), per_step):
                batch = apply_events_parallel(
                    inc,
                    evs[lo : lo + per_step],
                    interference=di,
                    backend=backend,
                    pool=pool,
                )
                groups += batch.groups
                halo_nodes += batch.halo_nodes
                diffs_replayed += batch.diffs_replayed
                diffs_suppressed += batch.diffs_suppressed
                backends_used.add(batch.backend)
                wall.append(batch.wall_time)
                for rs in batch.repairs:
                    touched.append(rs.nodes_touched)
                    radii.append(rs.update_radius)
                    flipped.append(rs.edges_flipped)
                for cs in batch.conflict_repairs:
                    conflict_rows.append(cs.rows_recomputed)
                    conflict_entries.append(cs.entries_changed)
                    conflict_wall.append(cs.wall_time)
        finally:
            if pool is not None:
                pool.close()
    else:
        for ev in evs:
            stats = inc.apply(ev)
            touched.append(stats.nodes_touched)
            radii.append(stats.update_radius)
            flipped.append(stats.edges_flipped)
            wall.append(stats.wall_time)
            if di is not None:
                cs = di.update_event(stats)
                conflict_rows.append(cs.rows_recomputed)
                conflict_entries.append(cs.entries_changed)
                conflict_wall.append(cs.wall_time)
    mismatches = 1 if inc.check_full_equivalence() else 0
    conflict_mismatches = 0
    if di is not None:
        conflict_mismatches = 1 if di.check_full_equivalence() else 0

    live = inc.live_points()
    t0 = time.perf_counter()
    theta_algorithm(live, math.pi / 9, d0)
    full_ms = (time.perf_counter() - t0) * 1e3
    event_ms = float(np.sum(wall)) / len(evs) * 1e3
    touched_arr = np.asarray(touched, dtype=np.float64)
    row = {
        "n": int(args.n),
        "live_n": int(inc.n_alive),
        "events": len(evs),
        "mean_touched": float(touched_arr.mean()),
        "p95_touched": float(np.percentile(touched_arr, 95)),
        "max_touched": int(touched_arr.max()),
        "touched_per_n": float(touched_arr.mean() / args.n),
        "mean_update_radius_over_D": float(np.mean(radii) / d0),
        "max_update_radius_over_D": float(np.max(radii) / d0),
        "edges_flipped_per_event": float(np.mean(flipped)),
        "ms_per_event": event_ms,
        "full_rebuild_ms": full_ms,
        "rebuild_speedup": full_ms / event_ms if event_ms > 0 else float("inf"),
        "equality_mismatches": mismatches,
    }
    mode = "parallel batches" if args.parallel else "serial events"
    print(
        tables.render_table(
            [row],
            title=f"dynamic churn — n={args.n}, churn={args.churn:g}/node/step, "
            f"steps={args.steps}, seed={args.seed} ({mode})",
        )
    )
    if di is not None and conflict_rows:
        t0 = time.perf_counter()
        interference_sets(inc.snapshot_graph(), args.delta)
        conflict_full_ms = (time.perf_counter() - t0) * 1e3
        conflict_ms = float(np.sum(conflict_wall)) / len(evs) * 1e3
        crow = {
            "edges": int(di.n_edges),
            "mean_conflict_rows": float(np.mean(conflict_rows)),
            "p95_conflict_rows": float(np.percentile(conflict_rows, 95)),
            "entries_changed_per_event": float(np.mean(conflict_entries)),
            "conflict_ms_per_event": conflict_ms,
            "conflict_rebuild_ms": conflict_full_ms,
            "conflict_speedup": conflict_full_ms / conflict_ms
            if conflict_ms > 0
            else float("inf"),
            "equality_mismatches": conflict_mismatches,
        }
        print()
        print(tables.render_table([crow], title=f"conflict repair — delta={args.delta:g}"))
    mix = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    print(f"event mix: {mix}")
    if args.parallel:
        used = "+".join(sorted(backends_used)) or "serial"
        line = (
            f"batch groups: {groups} across "
            f"{math.ceil(len(evs) / max(1, round(args.churn * args.n)))} steps "
            f"(backend: {used}"
        )
        if halo_nodes:
            line += f", halo entries: {halo_nodes}"
        if diffs_replayed or diffs_suppressed:
            line += f", diffs replayed: {diffs_replayed}"
            line += f", suppressed: {diffs_suppressed}"
        print(line + ")")
    backstop = "edge-for-edge equal" if not mismatches else "MISMATCH vs from-scratch ΘALG"
    print(f"final topology vs full rebuild: {backstop}")
    if di is not None:
        cb = (
            "row-for-row equal"
            if not conflict_mismatches
            else "MISMATCH vs from-scratch interference_sets"
        )
        print(f"final conflict rows vs full rebuild: {cb}")
    if trace_dir:
        _export_trace(trace_dir)
    return 1 if mismatches or conflict_mismatches else 0


def _campaign_diff_main(argv: "list[str]") -> int:
    """``python -m repro campaign diff STORE_A STORE_B [...]``."""
    from repro.campaign.diff import DiffError, run_diff
    from repro.campaign.query import FORMATS
    from repro.campaign.store import StoreError

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign diff",
        description="Join two campaign stores cell-for-cell on their "
        "content-digest ids and report per-cell drift; exits 1 when any "
        "cell regressed (pass→fail, or a watched metric drifted past the "
        "tolerance in the bad direction).",
    )
    parser.add_argument("store_a", help="baseline store directory")
    parser.add_argument("store_b", help="candidate store directory")
    parser.add_argument(
        "--metric",
        action="append",
        default=[],
        metavar="NAME",
        help="watch a flattened-cell column for drift (repeatable; "
        "lower-is-better unless prefixed with +, e.g. +n_rows)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.0, metavar="FRAC",
        help="relative drift allowed per watched metric (default 0)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="table",
        help="output format (default table)",
    )
    parser.add_argument(
        "--only-changed", action="store_true",
        help="omit cells whose status is 'same'",
    )
    args = parser.parse_args(argv)
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


def _campaign_main(argv: "list[str]") -> int:
    """``python -m repro campaign {run,cells,diff} ...``."""
    if argv and argv[0] == "diff":
        return _campaign_diff_main(argv[1:])
    from repro.analysis.campaigns import campaign_claim_summary
    from repro.campaign import (
        SpecError,
        StoreError,
        load_spec,
        run_campaign,
    )
    from repro.harness.results import ResultsDirError, resolve_results_dir

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Run a declarative sweep over the claim registry "
        "into a resumable, queryable result store.",
    )
    parser.add_argument("action", choices=("run", "cells"),
                        help="run the campaign, or just print its expanded cells")
    parser.add_argument("spec", help="JSON or TOML campaign spec file")
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="store directory (default: <results dir>/campaigns/<spec name>, "
        "honoring REPRO_RESULTS_DIR)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the cell fan-out (default 1)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue an existing store, running only cells its manifest "
        "does not mark complete",
    )
    parser.add_argument(
        "--max-cells", type=int, default=None, metavar="K",
        help="stop after K cells complete in this invocation, leaving the "
        "store resumable (exit 3 while cells remain)",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="run: render an in-place progress panel (cells done, "
        "per-worker throughput, RSS) as results arrive",
    )
    parser.add_argument(
        "--trace", default=None, metavar="DIR",
        help="run: capture a span trace covering every cell (workers "
        "included) and export it into DIR",
    )
    args = parser.parse_args(argv)
    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2

    if args.action == "cells":
        rows = [cell.describe() for cell in spec.cells()]
        print(tables.render_table(
            rows, title=f"campaign {spec.name!r} — {len(rows)} cells"))
        return 0

    trace_dir = args.trace or os.environ.get("REPRO_TRACE") or None
    if trace_dir:
        obs.enable()
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
    if trace_dir:
        _export_trace(trace_dir)
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


def _top_main(argv: "list[str]") -> int:
    """``python -m repro top STORE [--watch SEC]``."""
    from repro.obs import telemetry

    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Show a campaign store's live progress and per-worker "
        "resource usage from its telemetry.jsonl snapshot stream (works on "
        "running and finished campaigns alike).",
    )
    parser.add_argument("store", help="campaign store directory")
    parser.add_argument(
        "--watch", type=float, default=None, metavar="SEC",
        help="refresh every SEC seconds until interrupted",
    )
    args = parser.parse_args(argv)
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


def _query_main(argv: "list[str]") -> int:
    """``python -m repro query STORE [--where ...] [--columns ...]``."""
    from repro.campaign.query import FORMATS, QueryError, run_query
    from repro.campaign.store import StoreError

    parser = argparse.ArgumentParser(
        prog="python -m repro query",
        description="Render any slice of a campaign result store "
        "without re-running anything.",
    )
    parser.add_argument("store", help="campaign store directory")
    parser.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="COND",
        help="filter: KEY OP VALUE with OP in {= != >= <= > <}; "
        "repeat to AND conditions (e.g. --where claim=e1 --where n>=96)",
    )
    parser.add_argument(
        "--columns",
        default=None,
        metavar="COLS",
        help="comma-separated columns to project (default: all)",
    )
    parser.add_argument(
        "--format", dest="fmt", choices=FORMATS, default="table",
        help="output format (default table)",
    )
    parser.add_argument(
        "--rows",
        action="store_true",
        help="one output row per experiment-table row instead of per cell",
    )
    args = parser.parse_args(argv)
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


def _serve_main(argv: "list[str]") -> int:
    """``python -m repro serve [--host --port --max-sessions --session-ttl]``."""
    from repro.service.server import serve

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the repro-service/v1 session server: concurrent "
        "live simulations over HTTP with SSE step streaming and live "
        "event injection (see docs/service.md).",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8642,
        help="TCP port; 0 picks a free one (default 8642)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=16, metavar="K",
        help="concurrent-session bound; creation 429s beyond it (default 16)",
    )
    parser.add_argument(
        "--session-ttl", type=float, default=600.0, metavar="SEC",
        help="idle seconds before a session is reaped (default 600)",
    )
    args = parser.parse_args(argv)
    if args.max_sessions < 1 or args.session_ttl <= 0:
        print("serve: --max-sessions must be >= 1 and --session-ttl > 0", file=sys.stderr)
        return 2
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


def main(argv: "list[str] | None" = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # campaign/query/serve carry their own option namespaces; dispatch
    # before the flat experiment parser sees (and rejects) their flags.
    if argv and argv[0] == "campaign":
        return _campaign_main(argv[1:])
    if argv and argv[0] == "query":
        return _query_main(argv[1:])
    if argv and argv[0] == "top":
        return _top_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate and verify the paper-reproduction experiment tables.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e1..e24), 'all', 'list', 'verify', 'report', "
        "'dynamic', 'campaign', 'query', 'top', or 'serve'",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="report: the trace directory to summarize",
    )
    parser.add_argument(
        "--quick", action="store_true", help="scaled-down parameters (seconds, not minutes)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="verify: run claims across N worker processes (default 1)",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="IDS",
        help="verify: comma-separated claim ids to check (default: all)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="verify: print the claim table without running anything",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="capture a span trace + per-step series into DIR "
        "(also enabled by REPRO_TRACE=DIR)",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=1000,
        metavar="N",
        help="dynamic: number of nodes (default 1000)",
    )
    parser.add_argument(
        "--churn",
        type=float,
        default=0.01,
        metavar="RATE",
        help="dynamic: per-node per-step event probability (default 0.01)",
    )
    parser.add_argument(
        "--steps",
        type=int,
        default=100,
        metavar="T",
        help="dynamic: number of simulated steps (default 100)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=23,
        metavar="S",
        help="dynamic: RNG seed for points and the event trace (default 23)",
    )
    parser.add_argument(
        "--mac",
        action="store_true",
        help="dynamic: maintain §2.4 interference sets incrementally and "
        "report per-event conflict-repair stats",
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="dynamic: apply each step's events as disjoint-region batches "
        "(independent groups repaired in shared array passes)",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "serial", "process"),
        default="auto",
        metavar="B",
        help="dynamic --parallel: batch execution backend — auto (default, "
        "same as serial), serial, or process (tiled worker pool over shared memory)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="W",
        help="dynamic --parallel --backend process: worker process count "
        "(default: available cores)",
    )
    parser.add_argument(
        "--tiles",
        default=None,
        metavar="NX,NY",
        help="dynamic --backend process: pin the worker pool's tile grid to "
        "an exact NX,NY shape (a bare integer asks for that many tiles; "
        "default: adaptive from worker count)",
    )
    parser.add_argument(
        "--no-halo-filter",
        action="store_true",
        help="dynamic --backend process: broadcast every repair diff to every "
        "worker instead of halo-subscription filtering (debugging/benchmark "
        "reference; same results, more replay traffic)",
    )
    parser.add_argument(
        "--delta",
        type=float,
        default=0.5,
        metavar="D",
        help="dynamic: guard-zone parameter Δ for --mac (default 0.5)",
    )
    parser.add_argument(
        "--events-in",
        default=None,
        metavar="FILE",
        help="dynamic: replay a recorded event-trace JSON file instead of "
        "generating one (the event_trace_to_dict format; also what "
        "GET /v1/sessions/{id}/events returns)",
    )
    parser.add_argument(
        "--events-out",
        default=None,
        metavar="FILE",
        help="dynamic: write the event trace used by this run as JSON "
        "(replayable via --events-in)",
    )
    args = parser.parse_args(argv)
    trace_dir = args.trace or os.environ.get("REPRO_TRACE") or None

    if args.experiment == "list":
        for key, (desc, _, _) in EXPERIMENTS.items():
            print(f"{key:4s} {desc}")
        return 0

    if args.experiment == "report":
        if not args.path:
            print("usage: python -m repro report DIR", file=sys.stderr)
            return 2
        if not os.path.isdir(args.path):
            print(f"no such trace directory: {args.path}", file=sys.stderr)
            return 2
        print(render_report(args.path))
        return 0

    if args.experiment == "verify":
        return _verify(args, trace_dir)

    if args.experiment == "dynamic":
        return _dynamic(args, trace_dir)

    keys = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment.lower()]
    unknown = [k for k in keys if k not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; try 'list'", file=sys.stderr)
        return 2

    if trace_dir:
        obs.enable()
    for key in keys:
        desc, full, quick = EXPERIMENTS[key]
        t0 = time.perf_counter()
        with trace.span(f"experiment.{key}", profile="quick" if args.quick else "full"):
            rows = (quick if args.quick else full)()
        elapsed = time.perf_counter() - t0
        print(tables.render_table(rows, title=f"{key.upper()}: {desc}"))
        print(f"[{key} completed in {elapsed:.1f}s]\n")
    if trace_dir:
        _export_trace(trace_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
