"""Spans around each layer's public calls, recorded from the benchmark side.

The traced run patches the entry points listed by :func:`layer_hooks`
with wrappers that keep ``[layer, start, end, parent]`` spans in memory
and add exact work counts read off each call's arguments and result.
Nothing inside ``src/`` changes: the wrappers sit on class, module or
instance attributes and are removed again with :meth:`Recorder.uninstall`,
so traced and untraced blocks can alternate inside one run.

A layer's *self* time is the time of its spans minus the part covered by
child spans; nested calls of the same layer (``update_event`` calling
``update``) count their work once, at the outermost span.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

__all__ = ["Recorder", "layer_hooks", "engine_hooks", "PER_LAYER", "per_layer_metrics"]


class Recorder:
    """In-memory span store plus per-layer work counters."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self.counts: "defaultdict[str, float]" = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: "list[tuple[object, str, object]]" = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, count):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else None
            span = [layer, time.perf_counter(), 0.0, parent]
            rec.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if parent is None or parent[0] != layer:
                with rec._lock:
                    rec.counts[layer + ".calls"] += 1
                    if count is not None:
                        count(rec.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self, hooks) -> None:
        """Wrap every ``(owner, attr, layer, count)`` hook in place."""
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        for owner, attr, layer, count in hooks:
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, original, count))

    def uninstall(self) -> None:
        """Put every wrapped attribute back (idempotent)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Self time and top-level inclusive time per layer, plus counts."""
        child: "dict[int, float]" = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child[id(span[3])] += span[2] - span[1]
        self_s: "dict[str, float]" = defaultdict(float)
        top_s: "dict[str, float]" = defaultdict(float)
        for span in self.spans:
            dur = span[2] - span[1]
            self_s[span[0]] += dur - child.get(id(span), 0.0)
            if span[3] is None:
                top_s[span[0]] += dur
        return {
            "self_s": dict(self_s),
            "top_s": dict(top_s),
            "counts": dict(self.counts),
            "spans": len(self.spans),
        }

    def dump(self, path) -> None:
        """Write the spans as JSON lines ``{name, start, end, parent}``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for span in self.spans:
                parent = index[id(span[3])] if span[3] is not None else None
                fh.write(
                    json.dumps({"name": span[0], "start": span[1], "end": span[2], "parent": parent})
                    + "\n"
                )


# ----------------------------------------------------------------------
# Work counters, one per hooked call
# ----------------------------------------------------------------------
def _theta_event(counts, args, kwargs, stats) -> None:
    counts["dynamic.theta.events"] += 1
    counts["dynamic.theta.nodes_touched"] += stats.nodes_touched
    counts["dynamic.theta.edges_flipped"] += stats.edges_flipped


def _theta_batch(counts, args, kwargs, stats) -> None:
    # args[1]: the events of ``apply_batch``, the contexts of ``_repair_batch``.
    counts["dynamic.theta.events"] += len(args[1])
    counts["dynamic.theta.nodes_touched"] += stats.nodes_touched
    counts["dynamic.theta.edges_flipped"] += stats.edges_flipped


def _conflict(counts, args, kwargs, result) -> None:
    stats = result[0] if isinstance(result, tuple) else result
    counts["dynamic.conflict.events"] += 1
    counts["dynamic.conflict.rows"] += stats.rows_recomputed
    counts["dynamic.conflict.entries"] += stats.entries_changed


def _batching(counts, args, kwargs, stats) -> None:
    counts["dynamic.batching.groups"] += stats.groups


def _pool(counts, args, kwargs, stats) -> None:
    counts["parallel.pool.halo_entries"] += stats.halo_nodes
    counts["parallel.pool.diffs_replayed"] += stats.diffs_replayed
    counts["parallel.pool.diffs_suppressed"] += stats.diffs_suppressed


def _activate(counts, args, kwargs, result) -> None:
    mac = args[0]
    counts["mac.activate.activated"] += len(result[0]) // 2
    # DynamicMAC re-derives its edge arrays once per topology version.
    key = "mac.activate.version." + str(id(mac))
    if counts.get(key) != mac._cache_version:
        counts[key] = mac._cache_version
        counts["mac.activate.refreshes"] += 1


def _resolve(counts, args, kwargs, ok) -> None:
    counts["mac.resolve.attempts"] += len(ok)
    counts["mac.resolve.successes"] += int(ok.sum())


def _decide(counts, args, kwargs, txs) -> None:
    counts["balancing.decide.tx"] += len(txs)


def _apply(counts, args, kwargs, delivered) -> None:
    counts["balancing.apply.delivered"] += delivered


def _inject(counts, args, kwargs, accepted) -> None:
    offered = kwargs.get("count", args[3] if len(args) > 3 else 1)
    counts["balancing.inject.offered"] += offered
    counts["balancing.inject.accepted"] += accepted


def _advance(counts, args, kwargs, result) -> None:
    counts["service.advance.steps"] += args[1]


def _session_inject(counts, args, kwargs, result) -> None:
    counts["service.inject.rows"] += len(args[1])


def _publish(counts, args, kwargs, frames) -> None:
    counts["service.publish.frames"] += frames


def layer_hooks() -> list:
    """Class- and module-level hooks shared by every workload.

    Sessions, engines and MACs created after :meth:`Recorder.install`
    pick these up too, which is what the service launcher relies on.
    """
    from repro.core.balancing import BalancingRouter
    from repro.dynamic import batching
    from repro.dynamic.incremental import IncrementalTheta
    from repro.dynamic.interference import DynamicInterference, DynamicMAC
    from repro.obs.metrics import StepSeries
    from repro.parallel.pool import TileWorkerPool
    from repro.service.session import Session
    from repro.sim.engine import SimulationEngine

    return [
        (IncrementalTheta, "apply", "dynamic.theta", _theta_event),
        (IncrementalTheta, "apply_batch", "dynamic.theta", _theta_batch),
        # Serial batched repair (``apply_events_parallel``) calls the
        # repair directly; under ``apply``/``apply_batch`` it nests in the
        # same layer and counts once.
        (IncrementalTheta, "_repair_batch", "dynamic.theta", _theta_batch),
        (DynamicInterference, "update_event", "dynamic.conflict", _conflict),
        (DynamicInterference, "update", "dynamic.conflict", _conflict),
        (batching, "apply_events_parallel", "dynamic.batching", _batching),
        (TileWorkerPool, "apply_batch", "parallel.pool", _pool),
        (DynamicMAC, "active_edges", "mac.activate", _activate),
        (BalancingRouter, "decide", "balancing.decide", _decide),
        (BalancingRouter, "apply", "balancing.apply", _apply),
        (BalancingRouter, "inject", "balancing.inject", _inject),
        (SimulationEngine, "step", "engine.self", None),
        (StepSeries, "record_step", "obs.series", None),
        (Session, "advance", "service.advance", _advance),
        (Session, "inject", "service.inject", _session_inject),
        (Session, "publish_pending", "service.publish", _publish),
    ]


def engine_hooks(engines) -> list:
    """Instance hooks: each engine's ``success_fn`` (the MAC's resolve).

    The engine binds ``mac.success_mask`` when it is built, so a class
    patch made later would never be called.
    """
    return [
        (engine, "success_fn", "mac.resolve", _resolve)
        for engine in engines
        if engine.success_fn is not None
    ]


# ----------------------------------------------------------------------
# Per-layer metric table
# ----------------------------------------------------------------------
#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = [
    ("dynamic.theta.share", "fraction"),
    ("dynamic.theta.ms_per_event", "ms"),
    ("dynamic.theta.nodes_touched_per_event", "count"),
    ("dynamic.theta.edges_flipped_per_event", "count"),
    ("dynamic.conflict.share", "fraction"),
    ("dynamic.conflict.ms_per_event", "ms"),
    ("dynamic.conflict.rows_per_event", "count"),
    ("dynamic.conflict.entries_per_event", "count"),
    ("dynamic.batching.share", "fraction"),
    ("dynamic.batching.groups_per_batch", "count"),
    ("parallel.pool.share", "fraction"),
    ("parallel.pool.ms_per_batch", "ms"),
    ("parallel.pool.halo_entries_per_batch", "count"),
    ("parallel.pool.diffs_suppressed_ratio", "fraction"),
    ("parallel.pool.worker_cpu_share", "fraction"),
    ("mac.activate.share", "fraction"),
    ("mac.activate.ms_per_step", "ms"),
    ("mac.activate.refreshes_per_step", "count"),
    ("mac.activate.activated_per_step", "count"),
    ("mac.resolve.share", "fraction"),
    ("mac.resolve.ms_per_step", "ms"),
    ("mac.resolve.attempts_per_step", "count"),
    ("mac.resolve.success_ratio", "fraction"),
    ("balancing.decide.share", "fraction"),
    ("balancing.decide.ms_per_step", "ms"),
    ("balancing.decide.tx_per_step", "count"),
    ("balancing.apply.share", "fraction"),
    ("balancing.apply.ms_per_step", "ms"),
    ("balancing.apply.delivered_per_step", "count"),
    ("balancing.inject.share", "fraction"),
    ("balancing.inject.calls_per_step", "count"),
    ("balancing.inject.accept_ratio", "fraction"),
    ("engine.self.share", "fraction"),
    ("engine.self.ms_per_step", "ms"),
    ("obs.series.share", "fraction"),
    ("obs.series.us_per_step", "us"),
    ("service.advance.share", "fraction"),
    ("service.advance.ms_per_request", "ms"),
    ("service.inject.ms_per_request", "ms"),
    ("service.inject.rows_per_request", "count"),
    ("service.publish.ms_per_request", "ms"),
    ("service.publish.frames_per_request", "count"),
    ("service.publish.sse_evictions", "count"),
    ("service.http.share", "fraction"),
    ("service.http.ms_per_request", "ms"),
    ("setup.range_s", "s"),
    ("setup.theta_s", "s"),
    ("setup.conflict_s", "s"),
    ("setup.pool_s", "s"),
    ("setup.session_ms", "ms"),
    ("unattributed.share", "fraction"),
    ("trace.overhead", "fraction"),
    ("bench.error_rate", "fraction"),
    ("count.events_applied", "count"),
    ("count.nodes_touched", "count"),
    ("count.conflict_rows", "count"),
    ("count.batch_groups", "count"),
    ("count.halo_entries", "count"),
    ("count.diffs_suppressed", "count"),
    ("count.decide_tx", "count"),
    ("count.mac_successes", "count"),
    ("count.delivered", "count"),
    ("count.sse_frames", "count"),
]

#: Layers whose self time is attributed to named work.
NAMED_LAYERS = (
    "dynamic.theta", "dynamic.conflict", "dynamic.batching", "parallel.pool",
    "mac.activate", "mac.resolve", "balancing.decide", "balancing.apply",
    "balancing.inject", "engine.self", "obs.series", "service.advance",
    "service.inject", "service.publish", "service.http",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    summary: dict,
    *,
    wall: float,
    steps: int,
    requests: int = 0,
    http_s: float = 0.0,
    extra: "dict[str, float] | None" = None,
) -> "dict[str, float]":
    """Turn a span summary over ``wall`` traced seconds into metric values.

    ``requests`` / ``http_s`` are the HTTP requests of the traced blocks
    and their latency not covered by server-side spans (service only).
    ``extra`` supplies values measured outside the spans (set-up timings,
    checkpoint counts, overhead, worker CPU); every name of
    :data:`PER_LAYER` is returned, 0 where a workload bypasses the layer.
    """
    s = defaultdict(float, summary["self_s"])
    c = defaultdict(float, summary["counts"])
    s["service.http"] = http_s
    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update(extra or {})
    for layer in NAMED_LAYERS:
        out[layer + ".share"] = _ratio(s[layer], wall)
    out["dynamic.theta.ms_per_event"] = _ratio(1e3 * s["dynamic.theta"], c["dynamic.theta.events"])
    out["dynamic.theta.nodes_touched_per_event"] = _ratio(
        c["dynamic.theta.nodes_touched"], c["dynamic.theta.events"]
    )
    out["dynamic.theta.edges_flipped_per_event"] = _ratio(
        c["dynamic.theta.edges_flipped"], c["dynamic.theta.events"]
    )
    out["dynamic.conflict.ms_per_event"] = _ratio(
        1e3 * s["dynamic.conflict"], c["dynamic.conflict.events"]
    )
    out["dynamic.conflict.rows_per_event"] = _ratio(c["dynamic.conflict.rows"], c["dynamic.conflict.events"])
    out["dynamic.conflict.entries_per_event"] = _ratio(
        c["dynamic.conflict.entries"], c["dynamic.conflict.events"]
    )
    out["dynamic.batching.groups_per_batch"] = _ratio(
        c["dynamic.batching.groups"], c["dynamic.batching.calls"]
    )
    out["parallel.pool.ms_per_batch"] = _ratio(1e3 * s["parallel.pool"], c["parallel.pool.calls"])
    out["parallel.pool.halo_entries_per_batch"] = _ratio(
        c["parallel.pool.halo_entries"], c["parallel.pool.calls"]
    )
    out["parallel.pool.diffs_suppressed_ratio"] = _ratio(
        c["parallel.pool.diffs_suppressed"],
        c["parallel.pool.diffs_suppressed"] + c["parallel.pool.diffs_replayed"],
    )
    out["mac.activate.ms_per_step"] = _ratio(1e3 * s["mac.activate"], steps)
    out["mac.activate.refreshes_per_step"] = _ratio(c["mac.activate.refreshes"], steps)
    out["mac.activate.activated_per_step"] = _ratio(c["mac.activate.activated"], steps)
    out["mac.resolve.ms_per_step"] = _ratio(1e3 * s["mac.resolve"], steps)
    out["mac.resolve.attempts_per_step"] = _ratio(c["mac.resolve.attempts"], steps)
    out["mac.resolve.success_ratio"] = _ratio(c["mac.resolve.successes"], c["mac.resolve.attempts"])
    out["balancing.decide.ms_per_step"] = _ratio(1e3 * s["balancing.decide"], steps)
    out["balancing.decide.tx_per_step"] = _ratio(c["balancing.decide.tx"], steps)
    out["balancing.apply.ms_per_step"] = _ratio(1e3 * s["balancing.apply"], steps)
    out["balancing.apply.delivered_per_step"] = _ratio(c["balancing.apply.delivered"], steps)
    out["balancing.inject.calls_per_step"] = _ratio(c["balancing.inject.calls"], steps)
    out["balancing.inject.accept_ratio"] = _ratio(
        c["balancing.inject.accepted"], c["balancing.inject.offered"]
    )
    out["engine.self.ms_per_step"] = _ratio(1e3 * s["engine.self"], steps)
    out["obs.series.us_per_step"] = _ratio(1e6 * s["obs.series"], steps)
    out["service.advance.ms_per_request"] = _ratio(1e3 * s["service.advance"], c["service.advance.calls"])
    out["service.inject.ms_per_request"] = _ratio(1e3 * s["service.inject"], c["service.inject.calls"])
    out["service.inject.rows_per_request"] = _ratio(c["service.inject.rows"], c["service.inject.calls"])
    out["service.publish.ms_per_request"] = _ratio(1e3 * s["service.publish"], c["service.publish.calls"])
    out["service.publish.frames_per_request"] = _ratio(
        c["service.publish.frames"], c["service.publish.calls"]
    )
    out["service.http.ms_per_request"] = _ratio(1e3 * s["service.http"], requests)
    attributed = sum(s[layer] for layer in NAMED_LAYERS)
    out["unattributed.share"] = _ratio(wall - attributed, wall)
    return out
