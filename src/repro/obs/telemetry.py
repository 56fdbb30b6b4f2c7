"""Cross-process telemetry: resource samples, snapshot streams, OpenMetrics.

The span tracer (:mod:`repro.obs.trace`) and the metrics registry
(:mod:`repro.obs.metrics`) stop at the process boundary: a pool worker's
spans and counters live in the worker.  This module is the plumbing
that carries them across it, plus the consumers on the parent side:

* :func:`resource_sample` / :class:`ResourceSampler` — ``/proc``-based
  RSS and CPU-time sampling (no psutil), optionally including the bytes
  a :class:`~repro.parallel.shm.ShmArena` has pinned in ``/dev/shm``;
* :func:`worker_tracer` — the one fork-pool idiom: give a worker its
  own fresh tracer exactly when the parent traced at fork time, and
  mark it *foreign* so the worker knows to ship events back;
* :func:`to_openmetrics` / :func:`parse_openmetrics` — the
  OpenMetrics/Prometheus text rendering of a
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, value-exact in
  both directions (floats via ``repr``, non-finite as ``NaN``/``+Inf``);
* :class:`TelemetryWriter` / :func:`read_snapshots` — the
  ``repro-telemetry/v1`` JSONL snapshot stream written next to campaign
  stores (header line + one snapshot object per line, torn-tail
  tolerant like the campaign manifest);
* :func:`render_top` / :class:`LiveView` — ``python -m repro top STORE``
  and ``python -m repro campaign run --live``, both rendering the same
  snapshot records.

Everything here is pull-based and allocation-light: samplers read two
``/proc`` files, snapshot writes are one JSON line, and none of it runs
unless a pool, a campaign, or an enabled tracer asks for it.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import time
from pathlib import Path
from typing import Any

from repro.obs import metrics, trace

__all__ = [
    "LiveView",
    "ResourceSampler",
    "TELEMETRY_SCHEMA",
    "TelemetryWriter",
    "parse_openmetrics",
    "read_snapshots",
    "render_top",
    "resource_sample",
    "to_openmetrics",
    "worker_tracer",
]

TELEMETRY_SCHEMA = "repro-telemetry/v1"

# ---------------------------------------------------------------------------
# Resource sampling (/proc, no psutil)
# ---------------------------------------------------------------------------

try:
    _PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
    _CLOCK_TICK = os.sysconf("SC_CLK_TCK")
except (AttributeError, ValueError, OSError):  # pragma: no cover - non-POSIX
    _PAGE_BYTES = 4096
    _CLOCK_TICK = 100


def resource_sample(pid: "int | str" = "self") -> dict:
    """One point-in-time resource sample of a process, as a flat dict.

    Keys: ``pid``, ``ts`` (unix seconds), ``rss_bytes`` (resident set),
    ``cpu_user_s`` / ``cpu_sys_s`` (cumulative CPU time).  Reads
    ``/proc/<pid>/statm`` and ``/proc/<pid>/stat``; on platforms without
    procfs the CPU times fall back to :func:`os.times` (self only) and
    ``rss_bytes`` to 0 — the sample never raises.
    """
    own = pid == "self"
    out: dict = {
        "pid": os.getpid() if own else int(pid),
        "ts": time.time(),
        "rss_bytes": 0,
        "cpu_user_s": 0.0,
        "cpu_sys_s": 0.0,
    }
    try:
        statm = Path(f"/proc/{pid}/statm").read_text().split()
        out["rss_bytes"] = int(statm[1]) * _PAGE_BYTES
        # Everything after the last ')' is fixed-position — the comm
        # field may itself contain spaces and parentheses.
        stat_tail = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        out["cpu_user_s"] = int(stat_tail[11]) / _CLOCK_TICK
        out["cpu_sys_s"] = int(stat_tail[12]) / _CLOCK_TICK
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        if own:
            t = os.times()
            out["cpu_user_s"] = float(t.user)
            out["cpu_sys_s"] = float(t.system)
    return out


class ResourceSampler:
    """Repeated :func:`resource_sample` calls for one process.

    ``arena`` may be a :class:`~repro.parallel.shm.ShmArena` (or any
    object with an ``nbytes`` attribute); its current shared-memory
    footprint is reported as ``shm_bytes`` in every sample.
    """

    __slots__ = ("pid", "arena", "_t0")

    def __init__(self, pid: "int | str" = "self", *, arena=None) -> None:
        self.pid = pid
        self.arena = arena
        self._t0 = time.time()

    def sample(self, **extra) -> dict:
        out = resource_sample(self.pid)
        out["uptime_s"] = out["ts"] - self._t0
        if self.arena is not None:
            out["shm_bytes"] = int(getattr(self.arena, "nbytes", 0))
        out.update(extra)
        return out


# ---------------------------------------------------------------------------
# Fork-pool worker tracers
# ---------------------------------------------------------------------------


def worker_tracer() -> "trace.Tracer | None":
    """The calling process's tracer, fixed up for fork-pool workers.

    Returns ``None`` when the parent was not tracing at fork time (the
    inherited module global is ``None`` — the disabled fast path stays
    untouched).  In a forked worker the inherited tracer carries the
    parent's pid and event backlog, so the first call replaces it with a
    fresh one and marks it ``foreign=True``: instrumented worker loops
    use that flag to know their events must be drained back through the
    result channel for the parent to :meth:`~repro.obs.trace.Tracer.ingest`.
    """
    tracer = trace.active()
    if tracer is None:
        return None
    if tracer.pid != os.getpid():
        tracer = trace.enable(fresh=True)
        tracer.foreign = True
        if metrics.active() is not None:
            # The forked registry still holds the parent's counts;
            # shipping a snapshot of it back would double them.
            metrics.enable(fresh=True)
    return tracer


# ---------------------------------------------------------------------------
# OpenMetrics / Prometheus text export
# ---------------------------------------------------------------------------

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_family(name: str, prefix: str) -> str:
    fam = _NAME_SANITIZE.sub("_", name)
    if fam and fam[0].isdigit():
        fam = "_" + fam
    return f"{prefix}_{fam}"


def _fmt_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def to_openmetrics(snapshot: dict, *, prefix: str = "repro") -> str:
    """Render a registry snapshot as OpenMetrics text.

    Every sample carries a ``name`` label holding the instrument's exact
    registry name (family names are sanitized, so ``balancing.attempts``
    becomes the ``repro_balancing_attempts`` family); gauges add a
    ``field`` label for their ``value``/``max`` pair and histograms for
    ``min``/``max``.  :func:`parse_openmetrics` inverts the rendering
    exactly — values are ``repr``-formatted floats, non-finite spelled
    ``NaN``/``+Inf``/``-Inf`` per the exposition format.
    """
    lines: "list[str]" = []
    for name, value in snapshot.get("counters", {}).items():
        fam = _metric_family(name, prefix)
        label = f'name="{_escape_label(name)}"'
        lines.append(f"# TYPE {fam} counter")
        lines.append(f"{fam}_total{{{label}}} {_fmt_value(value)}")
    for name, g in snapshot.get("gauges", {}).items():
        fam = _metric_family(name, prefix)
        label = _escape_label(name)
        lines.append(f"# TYPE {fam} gauge")
        lines.append(f'{fam}{{name="{label}",field="value"}} {_fmt_value(g["value"])}')
        lines.append(f'{fam}{{name="{label}",field="max"}} {_fmt_value(g["max"])}')
    for name, h in snapshot.get("histograms", {}).items():
        fam = _metric_family(name, prefix)
        label = _escape_label(name)
        lines.append(f"# TYPE {fam} summary")
        lines.append(f'{fam}_count{{name="{label}"}} {_fmt_value(h["count"])}')
        lines.append(f'{fam}_sum{{name="{label}"}} {_fmt_value(h["total"])}')
        lines.append(f'{fam}{{name="{label}",field="min"}} {_fmt_value(h["min"])}')
        lines.append(f'{fam}{{name="{label}",field="max"}} {_fmt_value(h["max"])}')
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_LINE = re.compile(r"^(?P<metric>[a-zA-Z_:][a-zA-Z0-9_:]*)\{(?P<labels>[^}]*)\}\s+(?P<value>\S+)$")
_LABEL = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\.)*)"')


def _parse_value(text: str) -> float:
    if text == "NaN":
        return math.nan
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_openmetrics(text: str) -> dict:
    """Invert :func:`to_openmetrics` back to a snapshot-shaped dict.

    Exact inverse for everything the exporter writes: counter/gauge/
    histogram values round-trip bit-for-bit (tested in
    ``tests/test_obs_telemetry.py``); histogram ``mean`` is re-derived
    as ``total / count`` exactly as the registry computes it.
    """
    types: "dict[str, str]" = {}
    counters: "dict[str, float]" = {}
    gauges: "dict[str, dict]" = {}
    hists: "dict[str, dict]" = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "# EOF":
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        m = _SAMPLE_LINE.match(line)
        if not m:
            raise ValueError(f"unparseable OpenMetrics sample line: {line!r}")
        metric = m.group("metric")
        labels = {
            lm.group("key"): _unescape_label(lm.group("val"))
            for lm in _LABEL.finditer(m.group("labels"))
        }
        name = labels.get("name")
        if name is None:
            raise ValueError(f"sample missing the name label: {line!r}")
        value = _parse_value(m.group("value"))
        family, suffix = metric, ""
        for cand in (metric, metric.rsplit("_", 1)[0]):
            if cand in types:
                family, suffix = cand, metric[len(cand):]
                break
        kind = types.get(family)
        if kind == "counter":
            counters[name] = value
        elif kind == "gauge":
            slot = gauges.setdefault(name, {})
            slot[labels.get("field", "value")] = value
        elif kind == "summary":
            h = hists.setdefault(name, {})
            if suffix == "_count":
                h["count"] = int(value)
            elif suffix == "_sum":
                h["total"] = value
            else:
                h[labels.get("field", "value")] = value
        else:
            raise ValueError(f"sample {metric!r} has no TYPE declaration")
    for h in hists.values():
        count = h.get("count", 0)
        h["mean"] = h.get("total", 0.0) / count if count else 0.0
    return {"counters": counters, "gauges": gauges, "histograms": hists}


# ---------------------------------------------------------------------------
# repro-telemetry/v1 snapshot stream
# ---------------------------------------------------------------------------


class TelemetryWriter:
    """Append ``repro-telemetry/v1`` snapshot lines to a JSONL file.

    The first write creates the file with a header line carrying the
    schema marker; every snapshot is one JSON object on its own line,
    flushed immediately so a live reader (``repro top``) always sees a
    complete prefix.  ``interval`` throttles :meth:`write` — snapshots
    arriving faster are dropped unless forced — so a campaign finishing
    hundreds of fast cells does not bloat its store.
    """

    def __init__(self, path: "str | Path", *, interval: float = 0.5) -> None:
        self.path = Path(path)
        self.interval = float(interval)
        self._last_write = -math.inf
        self.n_written = 0

    def write(self, snapshot: dict, *, force: bool = False) -> bool:
        """Append ``snapshot`` unless inside the throttle window."""
        now = time.monotonic()
        if not force and now - self._last_write < self.interval:
            return False
        self._last_write = now
        new = not self.path.exists()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            if new:
                header = {"schema": TELEMETRY_SCHEMA, "created": time.time()}
                fh.write(json.dumps(header) + "\n")
            fh.write(json.dumps(snapshot, default=str) + "\n")
            fh.flush()
        self.n_written += 1
        return True


def read_snapshots(path: "str | Path") -> "list[dict]":
    """Snapshot records from a telemetry stream, oldest first.

    Skips the header line and tolerates a torn trailing line (a killed
    writer), mirroring the campaign manifest's read contract.  Returns
    an empty list when the file does not exist.
    """
    path = Path(path)
    if not path.is_file():
        return []
    out: "list[dict]" = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail from a killed writer
        if not isinstance(rec, dict) or "schema" in rec:
            continue
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# Rendering: `repro top` and `campaign run --live`
# ---------------------------------------------------------------------------


def _mb(nbytes: "int | float") -> str:
    return f"{float(nbytes) / 1e6:.1f}MB"


def _worker_rows(snapshot: dict) -> "list[dict]":
    rows = []
    elapsed = max(float(snapshot.get("elapsed_s", 0.0)), 1e-9)
    for pid, w in sorted(snapshot.get("workers", {}).items()):
        cells = int(w.get("cells", 0))
        busy = float(w.get("cell_seconds", 0.0))
        row = {
            "pid": pid,
            "cells": cells,
            "cells_per_s": round(cells / elapsed, 3),
            "mean_cell_s": round(busy / cells, 3) if cells else 0.0,
            "rss": _mb(w.get("rss_bytes", 0)),
            "cpu_s": round(
                float(w.get("cpu_user_s", 0.0)) + float(w.get("cpu_sys_s", 0.0)), 2
            ),
        }
        # Halo-subscription traffic gauges (tiled worker pools only):
        # diffs and refreshed region entries delivered to this worker
        # vs. deliveries the filter withheld, the grid cells its
        # replica holds stale, and the shared-memory footprint it maps.
        if "diffs_in" in w or "diffs_suppressed" in w:
            row["diffs_in"] = int(w.get("diffs_in", 0))
            row["diffs_suppressed"] = int(w.get("diffs_suppressed", 0))
            row["stale_cells"] = int(w.get("stale_cells", 0))
        if "shm_bytes" in w:
            row["shm"] = _mb(w["shm_bytes"])
        rows.append(row)
    return rows


def render_snapshot(snapshot: dict, *, title: str = "") -> str:
    """One snapshot as the multi-line panel both consumers print."""
    from repro.analysis.tables import render_table

    cells = snapshot.get("cells", {})
    total = int(cells.get("total", 0))
    done = int(cells.get("done", 0))
    failed = int(cells.get("failed", 0))
    remaining = int(cells.get("remaining", max(total - done, 0)))
    rate = float(snapshot.get("rate_cells_per_s", 0.0))
    width = 28
    filled = round(width * done / total) if total else 0
    bar = "#" * filled + "-" * (width - filled)
    lines = []
    if title:
        lines.append(title)
    lines.append(
        f"cells [{bar}] {done}/{total} done, {failed} failed, "
        f"{remaining} remaining ({rate:.2f} cells/s)"
    )
    parent = snapshot.get("parent") or {}
    if parent:
        line = (
            f"parent pid {parent.get('pid', '?')}: rss {_mb(parent.get('rss_bytes', 0))}, "
            f"cpu {float(parent.get('cpu_user_s', 0.0)):.1f}s user"
            f" / {float(parent.get('cpu_sys_s', 0.0)):.1f}s sys"
        )
        if "shm_bytes" in parent:
            line += f", shm {_mb(parent['shm_bytes'])}"
        lines.append(line)
    rows = _worker_rows(snapshot)
    if rows:
        lines.append(render_table(rows, title=f"workers — {len(rows)} processes"))
    return "\n".join(lines)


def render_top(store_dir: "str | Path") -> str:
    """The ``python -m repro top STORE`` view of one campaign store.

    Combines the store's pinned spec (total cell count), its manifest
    (authoritative completion), and the latest ``telemetry.jsonl``
    snapshot (throughput and resource gauges).  Works on finished and
    in-flight stores alike — the telemetry stream is append-only and
    every line is a complete JSON object.
    """
    store_dir = Path(store_dir)
    store_doc_path = store_dir / "store.json"
    if not store_doc_path.is_file():
        raise FileNotFoundError(f"no campaign store at {store_dir} (missing store.json)")
    doc = json.loads(store_doc_path.read_text())
    name = doc.get("name", "?")
    snaps = read_snapshots(store_dir / "telemetry.jsonl")
    header = f"campaign {name!r} — {store_dir}"
    if not snaps:
        return (
            f"{header}\n(no telemetry.jsonl snapshots yet — the stream appears "
            "once `campaign run` completes its first cell)"
        )
    latest = snaps[-1]
    age = time.time() - float(latest.get("ts", time.time()))
    body = render_snapshot(latest, title=header)
    return f"{body}\nlast snapshot: {age:.1f}s ago ({len(snaps)} snapshots on stream)"


class LiveView:
    """In-place live progress for ``campaign run --live``.

    On a TTY the panel redraws over itself (cursor-up + clear-line); on
    a pipe it degrades to one compact line per update so logs stay
    scannable and tests can assert on output.
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stdout
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._last_height = 0

    def update(self, snapshot: dict, *, title: str = "") -> None:
        if self._tty:
            block = render_snapshot(snapshot, title=title)
            if self._last_height:
                self.stream.write(f"\x1b[{self._last_height}F\x1b[J")
            self.stream.write(block + "\n")
            self._last_height = block.count("\n") + 1
        else:
            cells = snapshot.get("cells", {})
            self.stream.write(
                f"live: {cells.get('done', 0)}/{cells.get('total', 0)} done, "
                f"{cells.get('failed', 0)} failed, "
                f"{float(snapshot.get('rate_cells_per_s', 0.0)):.2f} cells/s, "
                f"rss {_mb((snapshot.get('parent') or {}).get('rss_bytes', 0))}\n"
            )
        self.stream.flush()

    def close(self, snapshot: "dict | None" = None, *, title: str = "") -> None:
        """Print the final full panel (both modes) and reset state."""
        if snapshot is not None:
            if self._tty and self._last_height:
                self.stream.write(f"\x1b[{self._last_height}F\x1b[J")
            self.stream.write(render_snapshot(snapshot, title=title) + "\n")
            self.stream.flush()
        self._last_height = 0


def jsonable(obj: Any) -> Any:
    """Best-effort conversion of telemetry payloads to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj
    return str(obj)


def drain_events(tracer: "trace.Tracer | None", mark: int) -> "tuple[list[dict], int]":
    """Events appended to ``tracer`` after ``mark``, plus the new mark.

    Only drains tracers marked *foreign* by :func:`worker_tracer` — in
    the in-process (jobs=1) degenerate case the events are already on
    the parent's ring and shipping them back would double-count.
    """
    if tracer is None or not getattr(tracer, "foreign", False):
        return [], mark
    events = tracer.events_since(mark)
    return events, tracer.total_appended
