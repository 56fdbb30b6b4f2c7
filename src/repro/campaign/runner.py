"""Fan a campaign's cells out across the warm-worker process pool.

This is the one claim-execution path: ``repro verify`` is a campaign
with one registry-seeded cell per claim.  Cells execute the registered
harness functions, workers come from
:func:`repro.harness.runner.pool_context` (long-lived fork workers, so
the per-process substrate cache of :mod:`repro.harness.cache` stays
warm across the cells each worker executes), and records carry the
same cache hit/miss deltas the claim records do.

Resumability: the parent writes each record + manifest mark as results
arrive (``imap_unordered``), never ahead of completion, so killing the
run at any point loses at most the in-flight cells.  ``resume=True``
skips every cell already on the manifest.

Telemetry: every cell record carries a ``worker`` resource sample (pid,
RSS, CPU time — :func:`repro.obs.telemetry.resource_sample`), and the
parent appends ``repro-telemetry/v1`` progress snapshots to the store's
``telemetry.jsonl`` as cells complete (throttled; always one final
forced snapshot).  ``live=True`` additionally renders those snapshots
in place (``campaign run --live``); ``python -m repro top STORE`` reads
the same stream after the fact.  When the parent traces
(``--trace DIR``), workers ship their span events, metrics deltas and
step series back inside each record and the parent merges them, so one
exported trace covers the whole fan-out at any job count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.campaign.spec import Cell, CampaignSpec
from repro.campaign.store import CampaignStore
from repro.harness import cache
from repro.harness.registry import REGISTRY
from repro.harness.runner import pool_context
from repro.obs import metrics, telemetry, trace

__all__ = ["CampaignReport", "run_campaign", "run_cell"]


@dataclass
class CampaignReport:
    """What one ``run_campaign`` invocation did."""

    store: Path
    n_cells: int
    n_skipped: int  # already complete when this run started
    n_run: int
    n_failed: int
    wall_seconds: float
    stopped_early: bool = False
    rows: "list[dict]" = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.n_skipped + self.n_run >= self.n_cells and not self.stopped_early


def run_cell(cell: Cell, *, check: bool = True) -> dict:
    """Execute one cell in-process and return its (pre-jsonify) record.

    The cell runs under a ``claim.<id>`` span, and the record always
    carries a ``worker`` resource sample of the executing process.  In
    a pool worker of a tracing parent (``--trace`` enabled before the
    fork), a ``telemetry`` key carries the cell's span events, the
    worker registry's metrics delta and its step series;
    :func:`run_campaign` merges and strips it before the record is
    stored.  In-process (``jobs=1``) all three are already on the
    parent's tracer and registry.
    """
    claim = REGISTRY[cell.claim]
    tracer = telemetry.worker_tracer()
    mark = tracer.total_appended if tracer is not None else 0
    series_mark = len(tracer.series) if tracer is not None else 0
    stats_before = cache.cache_stats()
    t0 = time.perf_counter()
    with trace.span(
        f"claim.{cell.claim}", cell=cell.cell_id, profile=cell.profile, seed=cell.seed
    ):
        rows = claim.harness()(**dict(cell.params), rng=cell.seed)
    runtime = time.perf_counter() - t0
    failures: "list[str]" = []
    if check:
        try:
            failures = list(claim.check(rows, cell.profile))
        except Exception as exc:  # a crashed predicate fails the cell, not the run
            failures = [f"predicate raised {type(exc).__name__}: {exc}"]
    record = {
        "cell": cell.cell_id,
        "claim": cell.claim,
        "title": claim.title,
        "paper_ref": claim.paper_ref,
        "profile": cell.profile,
        "seed": cell.seed,
        "overrides": dict(cell.overrides),
        "params": dict(cell.params),
        "rows": rows,
        "n_rows": len(rows),
        "passed": not failures,
        "failures": failures,
        "runtime_seconds": round(runtime, 3),
        "cache": {k: cache.cache_stats()[k] - stats_before[k] for k in stats_before},
        "worker": telemetry.resource_sample(),
    }
    events, _ = telemetry.drain_events(tracer, mark)
    if tracer is not None and tracer.foreign:
        tele: dict = {
            "events": events,
            "series": tracer.series_records()[series_mark:],
        }
        del tracer.series[series_mark:]  # shipped; the next cell ships its own
        reg = metrics.active()
        if reg is not None:
            tele["metrics"] = reg.snapshot()
            reg.clear()  # next cell in this worker ships its own delta
        record["telemetry"] = tele
    return record


def _worker(task: "tuple[Cell, bool]") -> dict:
    cell, check = task
    return run_cell(cell, check=check)


def run_campaign(
    spec: CampaignSpec,
    store_dir: "str | Path",
    *,
    jobs: int = 1,
    resume: bool = False,
    max_cells: "int | None" = None,
    progress: "Callable[[str], None] | None" = None,
    live: bool = False,
    live_stream=None,
) -> CampaignReport:
    """Run (or resume) ``spec`` into the store at ``store_dir``.

    ``max_cells`` stops after that many cells have completed in *this*
    invocation, leaving the store resumable — the deterministic
    mid-run interruption CI and the tests lean on.  ``live`` renders
    in-place progress panels to ``live_stream`` (default stdout).
    """
    say = progress or (lambda _msg: None)
    store_dir = Path(store_dir)
    if resume and (store_dir / "store.json").exists():
        store = CampaignStore.open(store_dir, spec)
    else:
        store = CampaignStore.create(store_dir, spec)
    cells = spec.cells()
    done = store.completed_ids() if resume else set()
    todo = [c for c in cells if c.cell_id not in done]
    if max_cells is not None:
        todo = todo[: max(0, max_cells)]
    say(
        f"campaign {spec.name!r}: {len(cells)} cells "
        f"({len(done)} already complete, {len(todo)} to run, jobs={jobs})"
    )

    t0 = time.perf_counter()
    n_run = n_failed = 0
    summary_rows: "list[dict]" = []
    tasks = [(cell, spec.check) for cell in todo]
    writer = telemetry.TelemetryWriter(store.telemetry_path)
    sampler = telemetry.ResourceSampler()
    view = telemetry.LiveView(stream=live_stream) if live else None
    #: per-worker-pid throughput + latest resource sample
    workers: "dict[str, dict]" = {}

    def _snapshot() -> dict:
        elapsed = time.perf_counter() - t0
        n_done = len(done) + n_run
        return {
            "kind": "campaign",
            "ts": time.time(),
            "name": spec.name,
            "cells": {
                "total": len(cells),
                "done": n_done,
                "failed": n_failed,
                "remaining": len(cells) - n_done,
            },
            "workers": workers,
            "parent": sampler.sample(),
            "elapsed_s": elapsed,
            "rate_cells_per_s": n_run / elapsed if elapsed > 0 else 0.0,
        }

    def _consume(record: dict) -> None:
        nonlocal n_run, n_failed
        # Merge (and strip) worker-shipped trace events, step series
        # and metrics deltas before the record hits disk — they belong
        # in the parent's export, not in every cell file.
        tele = record.pop("telemetry", None)
        if tele:
            tracer = trace.active()
            if tracer is not None:
                tracer.ingest(tele.get("events", ()))
                tracer.ingest_series(tele.get("series", ()))
            reg = metrics.active()
            if reg is not None and tele.get("metrics"):
                reg.merge(tele["metrics"])
        w = record.get("worker") or {}
        slot = workers.setdefault(
            str(w.get("pid", "?")), {"cells": 0, "cell_seconds": 0.0}
        )
        slot["cells"] += 1
        slot["cell_seconds"] += float(record.get("runtime_seconds", 0.0))
        for key in ("rss_bytes", "cpu_user_s", "cpu_sys_s"):
            if key in w:
                slot[key] = w[key]
        store.write_cell(record)
        n_run += 1
        if not record["passed"]:
            n_failed += 1
        status = "ok" if record["passed"] else "FAIL"
        snap = _snapshot()
        writer.write(snap)
        if view is not None:
            view.update(snap, title=f"campaign {spec.name!r}")
        say(
            f"[{len(done) + n_run}/{len(cells)}] {record['cell']} "
            f"{status} ({record['runtime_seconds']:.2f}s)"
        )
        summary_rows.append(
            {
                "cell": record["cell"],
                "claim": record["claim"],
                **record["overrides"],
                "passed": record["passed"],
                "violations": len(record["failures"]),
                "seconds": record["runtime_seconds"],
            }
        )

    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            _consume(_worker(task))
    else:
        ctx = pool_context()
        with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
            for record in pool.imap_unordered(_worker, tasks, chunksize=1):
                _consume(record)

    final_snap = _snapshot()
    writer.write(final_snap, force=True)
    if view is not None:
        view.close(final_snap, title=f"campaign {spec.name!r}")
    stopped_early = max_cells is not None and len(todo) < len(cells) - len(done)
    return CampaignReport(
        store=store_dir,
        n_cells=len(cells),
        n_skipped=len(done),
        n_run=n_run,
        n_failed=n_failed,
        wall_seconds=time.perf_counter() - t0,
        stopped_early=stopped_early,
        rows=summary_rows,
    )
