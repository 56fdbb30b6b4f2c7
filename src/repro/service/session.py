"""Sessions: one live simulation per client, many per process.

A :class:`Session` wraps the full dynamic-simulation stack —
:class:`~repro.dynamic.incremental.IncrementalTheta` under a
:class:`~repro.dynamic.events.LiveEventSchedule`, a
:class:`~repro.core.balancing.BalancingRouter`, optionally the
incremental §2.4 conflict structure + MAC, and a
:class:`~repro.sim.engine.SimulationEngine` driven through its
resumable :meth:`~repro.sim.engine.SimulationEngine.step` API — plus
the service-side machinery: a per-session
:class:`~repro.obs.trace.Tracer` / :class:`~repro.obs.metrics.MetricsRegistry`
pair (isolation from other sessions and from the process globals), an
``asyncio.Lock`` serializing step/inject/delete, and a
:class:`~repro.service.stream.Broadcast` fanning step deltas out to SSE
subscribers.

Substrate sharing: session construction goes through
:mod:`repro.harness.cache` (``cached_range``), so any two sessions —
or a session and a batch experiment in the same process — that would
compute the same connectivity-critical range reuse one computation.

:class:`SessionManager` owns the id space, enforces the session bound
(429 backpressure), applies the idle TTL, and publishes terminal
stream events on every removal path so no subscriber is left hanging.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import secrets
import time

import numpy as np

from repro.core.balancing import BalancingConfig, BalancingRouter
from repro.dynamic.events import LiveEventSchedule, event_from_dict, event_kind
from repro.dynamic.incremental import DynamicTopology, IncrementalTheta
from repro.geometry.pointsets import uniform_points
from repro.harness.cache import cached_range
from repro.obs.metrics import MetricsRegistry, StepSeries
from repro.obs.trace import Tracer
from repro.service.protocol import ProtocolError, SessionConfig
from repro.service.stream import Broadcast
from repro.sim.engine import SimulationEngine

__all__ = ["Session", "SessionManager"]

#: the cone angle every experiment in this repo uses (θ = π/9).
THETA = math.pi / 9

#: per-session tracer ring bound — sessions are long-lived, keep small.
SESSION_TRACE_CAPACITY = 1 << 14

#: A node's status after each status-changing event kind (validation).
_STATUS_AFTER = {"join": "alive", "recover": "alive", "leave": "gone", "fail": "failed"}


class Session:
    """One live scenario: substrate, engine, recorder, broadcast."""

    def __init__(self, sid: str, config: SessionConfig, *, clock=time.monotonic) -> None:
        self.id = sid
        self.config = config
        self._clock = clock
        self.created_at = clock()
        self.last_active = self.created_at
        self.lock = asyncio.Lock()
        self.broadcast = Broadcast()
        self.closed = False

        # Per-session observability handles: spans and auto-series from
        # this engine land here, never in the process globals, so
        # concurrent sessions cannot cross-talk.
        self.tracer = Tracer(SESSION_TRACE_CAPACITY)
        self.registry = MetricsRegistry()
        self.series = StepSeries()
        #: rows of ``series`` already published to the broadcast.
        self.stream_mark = 0

        points = uniform_points(config.n, rng=config.seed)
        d0 = cached_range(points, 1.5)  # shared process-wide substrate cache
        self.d0 = float(d0)
        inc = IncrementalTheta(points, THETA, d0)
        self.schedule = LiveEventSchedule()
        interference = None
        mac = None
        if config.delta is not None:
            from repro.dynamic.interference import DynamicInterference, DynamicMAC

            interference = DynamicInterference(inc, config.delta)
            mac = DynamicMAC(interference, rng=np.random.default_rng(config.seed + 2))
        self.dynamic = DynamicTopology(
            inc, self.schedule, interference=interference, capacity=config.max_nodes
        )
        self.router = BalancingRouter(
            self.dynamic.capacity,
            list(config.dests),
            BalancingConfig(0.0, 0.0, config.buffer_size),
        )
        self._traffic_rng = np.random.default_rng(config.seed + 1)
        self._pending_injections: "list[tuple[int, int, int]]" = []
        self.engine = SimulationEngine(
            self.router,
            injections_fn=self._injections,
            dynamic=self.dynamic,
            mac=mac,
            step_series=self.series,
            tracer=self.tracer,
            registry=self.registry,
        )
        #: monotonic id the reaper uses to detect liveness changes.
        self.steps_served = 0
        self.events_injected = 0
        self.packets_queued = 0

    # ------------------------------------------------------------------
    def touch(self) -> None:
        self.last_active = self._clock()

    @property
    def idle_seconds(self) -> float:
        return self._clock() - self.last_active

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def _injections(self, t: int) -> "list[tuple[int, int, int]]":
        """Queued client packets plus seeded ambient traffic for step ``t``."""
        out = self._pending_injections
        self._pending_injections = []
        rate = self.config.traffic_rate
        if rate > 0:
            alive = self.dynamic.alive_ids()
            if len(alive):
                dests = self.config.dests
                for _ in range(int(self._traffic_rng.poisson(rate))):
                    src = int(alive[int(self._traffic_rng.integers(len(alive)))])
                    dest = int(dests[int(self._traffic_rng.integers(len(dests)))])
                    if src != dest:  # routers refuse self-addressed packets
                        out.append((src, dest, 1))
        return out

    # ------------------------------------------------------------------
    # Stepping (sync; the server runs this in an executor thread while
    # holding ``self.lock``)
    # ------------------------------------------------------------------
    def advance(self, steps: int, *, inject: bool = True) -> None:
        if self.closed:
            raise ProtocolError(409, "session_closed", f"session {self.id} is closed")
        self.engine.run_steps(steps, inject=inject)
        self.steps_served += steps
        self.registry.counter("session.steps").inc(steps)

    def publish_pending(self) -> int:
        """Publish every recorded-but-unstreamed step delta; returns count."""
        rows = self.series.delta_rows(self.stream_mark)
        for row in rows:
            self.broadcast.publish("step", row)
        self.stream_mark += len(rows)
        return len(rows)

    # ------------------------------------------------------------------
    # Live event injection
    # ------------------------------------------------------------------
    def inject(self, rows: "list[dict]") -> dict:
        """Validate and schedule wire-format event rows.

        Topology events are scheduled for the engine's *next* step (the
        step index the engine will consume next, ``engine.t``);
        traffic rows join the pending-injection queue.  Validation runs
        against the live topology state, simulating the batch in order,
        and maps the engine's refusal rules onto 409s — nothing is
        scheduled unless the whole batch validates.
        """
        if self.closed:
            raise ProtocolError(409, "session_closed", f"session {self.id} is closed")
        inc = self.dynamic.incremental
        index, down = inc._index, inc._failed
        # Status of every node a row validated earlier changes; all
        # other nodes read the live topology (a failed node is never
        # alive, so one status per node suffices).
        overlay: "dict[int, str]" = {}

        def status(v: int) -> str:
            st = overlay.get(v)
            if st is None:
                st = "alive" if index.is_alive(v) else "failed" if v in down else "gone"
            return st

        # Joins must take the next unused id or re-populate a departed one.
        next_id = index.size
        # Rows a previous batch scheduled at the engine's next step are
        # not in the applied topology yet; replay them so validation
        # sees the state the engine will actually apply this batch
        # against (two batches each leaving node 5 must not both pass).
        for ev in self.schedule.at(self.engine.t):
            kind = event_kind(ev)
            if kind in _STATUS_AFTER:
                overlay[int(ev.node)] = _STATUS_AFTER[kind]
            if kind == "join":
                next_id = max(next_id, int(ev.node) + 1)
        capacity = self.dynamic.capacity
        topo_rows: "list[dict]" = []
        traffic: "list[tuple[int, int, int]]" = []
        for i, row in enumerate(rows):
            kind, node = row["kind"], row["node"]
            if node < 0 or node >= capacity:
                raise ProtocolError(
                    409, "bad_node",
                    f"event {i}: node {node} outside session capacity [0, {capacity})",
                )
            if kind == "inject":
                dest = row["dest"]
                if dest < 0 or dest >= capacity:
                    raise ProtocolError(409, "bad_node", f"event {i}: dest {dest} outside capacity")
                if status(node) != "alive":
                    raise ProtocolError(
                        409, "dead_node", f"event {i}: cannot inject at node {node}: not alive"
                    )
                if status(dest) != "alive":
                    raise ProtocolError(
                        409, "dead_node", f"event {i}: cannot inject to dest {dest}: not alive"
                    )
                if dest not in self.config.dests:
                    raise ProtocolError(
                        409, "bad_dest",
                        f"event {i}: {dest} is not a session destination {list(self.config.dests)}",
                    )
                if node == dest:
                    raise ProtocolError(
                        409, "bad_dest", f"event {i}: source {node} equals destination"
                    )
                traffic.append((node, dest, row["count"]))
                continue
            # Topology events: mirror IncrementalTheta._mutate's refusals
            # so an invalid event 409s here instead of exploding the
            # engine mid-step.
            if kind == "join":
                if status(node) == "alive":
                    raise ProtocolError(409, "bad_event", f"event {i}: node {node} is already alive")
                if status(node) == "failed":
                    raise ProtocolError(
                        409, "bad_event", f"event {i}: node {node} is failed; use recover, not join"
                    )
                if node > next_id:
                    raise ProtocolError(
                        409, "bad_event", f"event {i}: node {node} skips ids (next unused is {next_id})"
                    )
                next_id = max(next_id, node + 1)
            elif kind == "move":
                if status(node) == "gone":
                    raise ProtocolError(409, "dead_node", f"event {i}: cannot move node {node}: not alive")
            elif kind in ("leave", "fail"):
                if status(node) != "alive":
                    raise ProtocolError(
                        409, "dead_node", f"event {i}: cannot {kind} node {node}: not alive"
                    )
            else:  # recover
                if status(node) != "failed":
                    raise ProtocolError(
                        409, "bad_event", f"event {i}: cannot recover node {node}: not failed"
                    )
            if kind in _STATUS_AFTER:
                overlay[node] = _STATUS_AFTER[kind]
            topo_rows.append(row)
        at_step = self.engine.t
        for row in topo_rows:
            self.schedule.append(at_step, event_from_dict(row))
        self._pending_injections.extend(traffic)
        self.events_injected += len(topo_rows)
        self.packets_queued += sum(c for _, _, c in traffic)
        self.registry.counter("session.events_injected").inc(len(topo_rows))
        if topo_rows:
            self.broadcast.publish(
                "events",
                {
                    "at_step": at_step,
                    "scheduled": [event_kind(event_from_dict(r)) for r in topo_rows],
                    "traffic_packets": sum(c for _, _, c in traffic),
                },
            )
        return {
            "scheduled": len(topo_rows),
            "at_step": at_step,
            "traffic_packets": sum(c for _, _, c in traffic),
        }

    # ------------------------------------------------------------------
    # Introspection / teardown
    # ------------------------------------------------------------------
    def final_stats(self) -> dict:
        return self.router.stats.to_dict()

    def describe(self, *, detail: bool = False) -> dict:
        out = {
            "id": self.id,
            "config": self.config.describe(),
            "steps": self.engine.t,
            "alive_nodes": int(self.dynamic.incremental.n_alive),
            "events_applied": int(self.dynamic.events_applied),
            "events_injected": self.events_injected,
            "subscribers": self.broadcast.n_subscribers,
            "idle_seconds": round(self.idle_seconds, 3),
            "range_d0": self.d0,
        }
        if detail:
            out["stats"] = self.final_stats()
            out["leftover"] = int(self.router.total_packets())
            out["stream"] = {
                "published": self.broadcast.published,
                "evictions": self.broadcast.evictions,
                "unstreamed_rows": len(self.series) - self.stream_mark,
            }
            out["spans_recorded"] = self.tracer.total_appended
        return out

    def events_trace(self) -> dict:
        """The injected-event history as a replayable trace document."""
        from repro.dynamic.events import event_trace_to_dict

        return event_trace_to_dict(self.schedule.to_trace(horizon=self.engine.t))

    def close(self, reason: str = "deleted") -> None:
        """Terminal: publish ``end`` to every subscriber, stop the pool."""
        if self.closed:
            return
        self.closed = True
        self.broadcast.close(
            {"reason": reason, "steps": self.engine.t, "final_stats": self.final_stats()}
        )
        self.dynamic.close()


class SessionManager:
    """Create/list/get/delete sessions with a bound and an idle TTL."""

    def __init__(
        self,
        *,
        max_sessions: int = 16,
        ttl_seconds: float = 600.0,
        clock=time.monotonic,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be > 0")
        self.max_sessions = int(max_sessions)
        self.ttl_seconds = float(ttl_seconds)
        self._clock = clock
        self._sessions: "dict[str, Session]" = {}
        self._ids = itertools.count(1)
        self._reserved = 0
        self.created_total = 0
        self.expired_total = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def sessions(self) -> "list[Session]":
        return list(self._sessions.values())

    def reserve(self) -> str:
        """Claim a slot + id ahead of construction (429 when full).

        Construction for large profiles is seconds of CPU the server
        runs off the event loop; the reservation keeps the session
        bound honest while the build is in flight.  Every reservation
        must be resolved with :meth:`register` or :meth:`release`.
        """
        if len(self._sessions) + self._reserved >= self.max_sessions:
            raise ProtocolError(
                429, "session_limit",
                f"session limit reached ({self.max_sessions}); "
                "delete a session or retry after the idle TTL "
                f"({self.ttl_seconds:g}s)",
            )
        self._reserved += 1
        return f"s{next(self._ids):04d}-{secrets.token_hex(3)}"

    def build(self, sid: str, config: SessionConfig) -> Session:
        """Construct a session for a reserved id (CPU-bound; thread-safe)."""
        return Session(sid, config, clock=self._clock)

    def register(self, session: Session) -> Session:
        """Publish a built session under its reservation."""
        self._reserved -= 1
        self._sessions[session.id] = session
        self.created_total += 1
        return session

    def release(self) -> None:
        """Give a reservation back (construction failed or was refused)."""
        self._reserved -= 1

    def create(self, config: SessionConfig) -> Session:
        """Reserve + build + register in one synchronous call."""
        sid = self.reserve()
        try:
            session = self.build(sid, config)
        except BaseException:
            self.release()
            raise
        return self.register(session)

    def get(self, sid: str) -> Session:
        session = self._sessions.get(sid)
        if session is None:
            raise ProtocolError(404, "unknown_session", f"no such session: {sid}")
        return session

    def delete(self, sid: str, *, reason: str = "deleted") -> Session:
        session = self.get(sid)
        del self._sessions[sid]
        session.close(reason)
        return session

    # ------------------------------------------------------------------
    def reap_idle(self) -> "list[str]":
        """Delete every idle-past-TTL session (skipping busy ones).

        A session whose lock is held is mid-request — stepping in an
        executor thread — and is never reaped regardless of its clock
        (its ``touch`` lands when the request finishes).
        """
        doomed = [
            sid
            for sid, s in self._sessions.items()
            if s.idle_seconds > self.ttl_seconds and not s.lock.locked()
        ]
        for sid in doomed:
            self.delete(sid, reason="expired")
            self.expired_total += 1
        return doomed

    async def drain(self, *, reason: str = "server-drain") -> int:
        """Close every session (graceful shutdown); returns count.

        Awaits each session's lock first — a step batch in flight in an
        executor thread mutates ``router.stats`` and owns the dynamic
        pool, so closing without the lock would snapshot torn
        ``final_stats`` into the terminal stream frame (mirrors the
        busy-session guard in :meth:`reap_idle`).
        """
        closed = 0
        for sid in list(self._sessions):
            session = self._sessions.pop(sid, None)
            if session is None:  # pragma: no cover - deleted while we awaited
                continue
            async with session.lock:
                session.close(reason)
            closed += 1
        return closed
