"""Low-overhead span tracing with JSONL and Chrome-trace export.

The tracer records *spans* — named intervals measured with
``time.perf_counter_ns`` — into a bounded in-memory ring.  Call sites
use the module-level helper so instrumentation is a no-op singleton
when tracing is off::

    from repro.obs import trace

    with trace.span("engine.step", step=t):
        ...  # timed only when a tracer is active

Disabled cost is one module-global read, a ``None`` check, and a pair
of empty ``__enter__``/``__exit__`` calls — small enough to leave in
hot loops permanently (``benchmarks/bench_obs_overhead.py`` gates this
at <5% on the e4/e6 quick runs).

Two export formats:

* ``trace.jsonl`` — one event object per line (machine-friendly,
  nanosecond timestamps), consumed by ``python -m repro report``;
* ``trace.chrome.json`` — the Chrome trace-event format (``ph: "X"``
  complete events, microsecond timestamps), loadable in Perfetto or
  ``chrome://tracing``.  Events carry the recording process id, so
  traces merged across a pool render one track per worker.

Every process keeps at most one active tracer (module global); pool
workers ship their events back inside their results (see
:func:`repro.obs.telemetry.worker_tracer`) and the parent
:meth:`Tracer.ingest`\\ s them before export.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "NOOP_SPAN",
    "Tracer",
    "active",
    "chrome_trace_events",
    "disable",
    "enable",
    "is_enabled",
    "span",
    "write_chrome_trace",
    "write_jsonl",
]

#: default ring capacity (events); quick experiment runs emit ~10^4.
DEFAULT_CAPACITY = 1 << 20


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        """Accept (and drop) late span attributes."""


NOOP_SPAN = _NoopSpan()


class _Span:
    """One live interval; appends its event to the tracer on exit."""

    __slots__ = ("_tracer", "name", "args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        dur = time.perf_counter_ns() - self._t0
        self._tracer._append(
            {
                "name": self.name,
                "ts_ns": self._t0,
                "dur_ns": dur,
                "pid": self._tracer.pid,
                "args": self.args,
            }
        )
        return False

    def set(self, **args) -> None:
        """Attach attributes discovered mid-span (e.g. result sizes)."""
        self.args.update(args)


class Tracer:
    """A bounded ring of span events plus registered step series.

    Parameters
    ----------
    capacity:
        Maximum events retained (oldest dropped first).  The drop count
        is tracked so exports can report truncation instead of lying
        silently.
    """

    #: set by :func:`repro.obs.telemetry.worker_tracer` on tracers it
    #: creates inside fork-pool workers — events on a foreign tracer
    #: must be drained back to the parent through the result channel.
    foreign = False

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.pid = os.getpid()
        self._events: "deque[dict]" = deque(maxlen=self.capacity)
        #: guards the ring + counters: sessions stepped in executor
        #: threads (repro.service) may share one tracer, so appends,
        #: drains, and series registration must not interleave torn.
        self._lock = threading.Lock()
        #: monotonic count of events ever appended (survives ring drops)
        self.total_appended = 0
        #: step-series records registered by simulation runs
        self.series: "list[dict]" = []
        self._run_counter = 0

    # ------------------------------------------------------------------
    def _append(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)
            self.total_appended += 1

    def span(self, name: str, **args) -> _Span:
        """Open a span; use as a context manager."""
        return _Span(self, name, args)

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration marker event."""
        self._append(
            {
                "name": name,
                "ts_ns": time.perf_counter_ns(),
                "dur_ns": 0,
                "pid": self.pid,
                "args": args,
            }
        )

    def ingest(self, events: "Iterable[dict]") -> int:
        """Append foreign event dicts (e.g. from pool workers); returns count."""
        k = 0
        for ev in events:
            self._append(dict(ev))
            k += 1
        return k

    # ------------------------------------------------------------------
    def events(self) -> "list[dict]":
        """All retained events, oldest first."""
        with self._lock:
            return list(self._events)

    def events_since(self, marker: int) -> "list[dict]":
        """Events appended after ``marker`` (= ``total_appended`` earlier).

        If the ring dropped events in between, returns what survived.
        """
        with self._lock:
            new = self.total_appended - int(marker)
            if new <= 0:
                return []
            evs = list(self._events)
        return evs[-new:] if new < len(evs) else evs

    @property
    def dropped(self) -> int:
        """Events lost to the ring bound."""
        return self.total_appended - len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.total_appended = 0
            self.series.clear()
            self._run_counter = 0

    # ------------------------------------------------------------------
    def next_run_label(self, hint: str = "run") -> str:
        """A unique label for one simulation run within this tracer."""
        with self._lock:
            label = f"run-{self._run_counter:03d}.{hint}"
            self._run_counter += 1
        return label

    def add_series(self, label: str, series, final_stats: "dict | None" = None) -> None:
        """Register one run's :class:`~repro.obs.metrics.StepSeries`."""
        with self._lock:
            self.series.append(
                {"name": label, "pid": self.pid, "series": series, "final_stats": final_stats}
            )

    def ingest_series(self, records: "Iterable[dict]") -> int:
        """Adopt already-flattened series records (e.g. from pool workers)."""
        k = 0
        for rec in records:
            self.series.append({"_flat": dict(rec)})
            k += 1
        return k

    def series_records(self) -> "list[dict]":
        """JSON-ready series records (``StepSeries`` flattened via to_dict)."""
        out = []
        for rec in self.series:
            if "_flat" in rec:
                out.append(rec["_flat"])
                continue
            series = rec["series"]
            payload = series.to_dict() if hasattr(series, "to_dict") else dict(series)
            out.append(
                {
                    "name": rec["name"],
                    "pid": rec["pid"],
                    "final_stats": rec["final_stats"],
                    **payload,
                }
            )
        return out


# ----------------------------------------------------------------------
# Module-global tracer (one per process)
# ----------------------------------------------------------------------
_ACTIVE: "Tracer | None" = None


def active() -> "Tracer | None":
    """The process's tracer, or ``None`` when tracing is off."""
    return _ACTIVE


def is_enabled() -> bool:
    return _ACTIVE is not None


def enable(capacity: int = DEFAULT_CAPACITY, *, fresh: bool = False) -> Tracer:
    """Install (or return) the process tracer.

    ``fresh=True`` replaces any existing tracer —
    :func:`repro.obs.telemetry.worker_tracer` uses it so a forked
    parent tracer (wrong pid, stale events) is discarded.
    """
    global _ACTIVE
    if _ACTIVE is None or fresh:
        _ACTIVE = Tracer(capacity)
    return _ACTIVE


def disable() -> None:
    """Remove the process tracer; subsequent spans become no-ops."""
    global _ACTIVE
    _ACTIVE = None


def span(name: str, **args):
    """A span on the active tracer, or the no-op singleton when disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return NOOP_SPAN
    return _Span(tracer, name, args)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def write_jsonl(events: "Iterable[dict]", path: "str | Path") -> Path:
    """One event object per line; nanosecond timestamps preserved."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for ev in events:
            fh.write(json.dumps(ev, default=str) + "\n")
    return path


def chrome_trace_events(events: "Iterable[dict]") -> "list[dict]":
    """Convert internal events to Chrome trace-event ``ph: "X"`` records.

    Timestamps become microseconds (the format's unit); the recording
    pid doubles as the tid so multi-process traces get one row per
    worker in Perfetto.  Events are ordered by ``(pid, ts)`` — merged
    multi-process captures (pool workers arrive batched, out of line
    with the parent's spans) still render each track monotonically.
    """
    out = []
    for ev in sorted(events, key=lambda e: (int(e.get("pid", 0)), e["ts_ns"])):
        pid = int(ev.get("pid", 0))
        out.append(
            {
                "name": ev["name"],
                "ph": "X",
                "ts": ev["ts_ns"] / 1000.0,
                "dur": ev["dur_ns"] / 1000.0,
                "pid": pid,
                "tid": pid,
                "args": ev.get("args") or {},
            }
        )
    return out


def write_chrome_trace(events: "Iterable[dict]", path: "str | Path") -> Path:
    """Write the Chrome trace-event JSON envelope for ``events``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc: "dict[str, Any]" = {
        "traceEvents": chrome_trace_events(events),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(doc, default=str) + "\n")
    return path
