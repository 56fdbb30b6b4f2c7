"""The synchronous simulation loop (§3 model).

One engine step = one time step of the paper's model:

1. ask the scenario/MAC for the usable directed edges and costs;
2. the router decides transmissions from beginning-of-step heights;
3. interference (if modelled) determines which attempts succeed;
4. packets move / are absorbed;
5. the adversary's injections for the step arrive (drop-on-full).

The engine is agnostic to which router runs — (T, γ)-balancing, the
baselines, or the honeycomb router (which fuses steps 1–4 internally
and is driven through the same interface via a thin adapter).

The loop is *resumable*: :meth:`SimulationEngine.step` advances one
step, :meth:`SimulationEngine.run_steps` advances ``k``, and callers —
the batch experiments and the long-running session server
(:mod:`repro.service`) alike — may interleave stepping with live event
injection and series streaming.  :meth:`SimulationEngine.run` is a
thin wrapper over the step API and produces bit-identical results
(pinned by ``tests/test_engine_step_api.py``).

Observability: each step runs under an ``engine.step`` span, and when
tracing is enabled (or a :class:`~repro.obs.metrics.StepSeries` is
passed explicitly) the engine snapshots the router's cumulative
``RoutingStats`` counters plus the two buffer gauges after every step.
Auto-created series register themselves with the active tracer, so a
``--trace`` run exports them for ``python -m repro report``.  All of
this collapses to a handful of no-op checks when tracing is off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import metrics, trace
from repro.obs.metrics import StepSeries
from repro.sim.stats import RoutingStats

__all__ = ["SimulationEngine", "SimulationResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one engine run."""

    stats: RoutingStats
    steps: int
    leftover: int = 0
    """Packets still buffered somewhere when the run ended."""
    series: "StepSeries | None" = None
    """Per-step series, when recording was on for this run."""


class SimulationEngine:
    """Drive a router against a scenario for a fixed horizon.

    Parameters
    ----------
    router:
        Anything exposing ``run_step(directed_edges, costs, injections,
        success_fn)``, ``stats``, and ``total_packets()`` —
        :class:`repro.core.balancing.BalancingRouter` and the baseline
        routers qualify.
    active_edges_fn:
        ``t → (directed_edges, costs)``.  Optional when ``dynamic`` is
        given: the engine then derives both directions of the maintained
        topology with ``|uv|^κ`` costs.
    injections_fn:
        ``t → iterable of (node, dest, count)``; optional (no traffic).
    success_fn:
        Optional ``TxBatch → bool mask`` (interference layer): called
        once per step with the router's attempts as one
        :class:`~repro.sim.packets.TxBatch`.
    step_series:
        Optional explicit per-step recorder; when omitted one is created
        automatically for each :meth:`run` while tracing is enabled.
    dynamic:
        Optional :class:`repro.dynamic.incremental.DynamicTopology`.
        When given, each step first applies the step's topology events
        via incremental maintenance (no full rebuild), drops packets
        buffered at nodes that failed or left (charged to
        ``stats.churn_drops``), and refuses injections whose source or
        destination is down (charged as drops).  The per-step series
        gains the cumulative churn columns.
    mac:
        Optional :class:`repro.dynamic.interference.DynamicMAC` (or any
        object with ``active_edges()`` / ``success_mask``).  Requires
        ``dynamic`` and replaces the plain maintained-topology edge
        derivation: each step's usable edges are the MAC's random
        activations over the *incrementally maintained* conflict
        structure, and ``success_fn`` defaults to the MAC's guard-zone
        ``success_mask``.
    tracer / registry:
        Optional per-engine :class:`repro.obs.trace.Tracer` /
        :class:`repro.obs.metrics.MetricsRegistry` handles.  When given
        they replace the process-global singletons for this engine's
        spans, auto-series registration, and counters — the isolation
        the session server needs to run many engines in one process
        without cross-talk.  When omitted the globals keep working
        exactly as before.
    """

    def __init__(
        self,
        router,
        active_edges_fn=None,
        injections_fn=None,
        *,
        success_fn=None,
        step_series: "StepSeries | None" = None,
        dynamic=None,
        mac=None,
        tracer=None,
        registry=None,
    ) -> None:
        if mac is not None:
            if dynamic is None:
                raise ValueError("mac requires a dynamic topology")
            if active_edges_fn is not None:
                raise ValueError("give either active_edges_fn or mac, not both")
            if success_fn is None:
                success_fn = mac.success_mask
        if active_edges_fn is None and dynamic is None:
            raise ValueError("need active_edges_fn or a dynamic topology")
        self.router = router
        self.active_edges_fn = active_edges_fn
        self.injections_fn = injections_fn
        self.success_fn = success_fn
        self.step_series = step_series
        self.dynamic = dynamic
        self.mac = mac
        self.tracer = tracer
        self.registry = registry
        #: index of the next step (== steps taken so far).
        self.t = 0
        self._series = step_series
        self._max_height_fn = getattr(router, "max_height", None)
        #: ``(maintainer, topology version, directed, costs)`` of the
        #: last MAC-free edge derivation.
        self._edge_cache = None

    @classmethod
    def for_scenario(cls, router, scenario, *, success_fn=None) -> "SimulationEngine":
        """Wire a :class:`~repro.sim.adversary.WitnessedScenario` in."""
        return cls(
            router,
            scenario.active_edges,
            scenario.injections,
            success_fn=success_fn,
        )

    # ------------------------------------------------------------------
    # Observability handles (per-engine overrides falling back to the
    # process-global singletons)
    # ------------------------------------------------------------------
    def _active_tracer(self):
        return self.tracer if self.tracer is not None else trace.active()

    def _span(self, name: str, **args):
        tracer = self._active_tracer()
        return tracer.span(name, **args) if tracer is not None else trace.NOOP_SPAN

    def _ensure_series(self) -> "StepSeries | None":
        """The live recorder: explicit, already auto-created, or fresh
        when an observability sink is active (else ``None``)."""
        if self._series is None and self._active_tracer() is not None:
            self._series = StepSeries()
        return self._series

    @property
    def series(self) -> "StepSeries | None":
        """The per-step recorder this engine is feeding, if any."""
        return self._series

    # ------------------------------------------------------------------
    # The resumable step API
    # ------------------------------------------------------------------
    def step(self, *, inject: bool = True) -> int:
        """Advance the simulation by one step; returns the step index.

        ``inject=False`` runs an injection-free (drain) step.  Callers
        may freely interleave :meth:`step` with topology-event injection
        (via the dynamic topology's live schedule) and series reads —
        this is the primitive the session server drives.
        """
        t = self.t
        series = self._ensure_series()
        router = self.router
        dynamic = self.dynamic
        with self._span("engine.step", step=t):
            if dynamic is not None:
                self._apply_churn(dynamic, t)
            if self.active_edges_fn is not None:
                edges, costs = self.active_edges_fn(t)
            elif self.mac is not None:
                edges, costs = self.mac.active_edges()
            else:
                edges, costs = self._dynamic_edges(dynamic)
            injections = (
                list(self.injections_fn(t))
                if inject and self.injections_fn is not None
                else []
            )
            if dynamic is not None and injections:
                injections = self._filter_injections(dynamic, injections)
            router.run_step(edges, costs, injections, self.success_fn)
        self.t = t + 1
        if series is not None:
            max_height_fn = self._max_height_fn
            series.record_step(
                router.stats,
                total_buffer=router.total_packets(),
                max_buffer=max_height_fn() if max_height_fn else router.stats.max_buffer_height,
                events_applied=dynamic.events_applied if dynamic is not None else 0,
                repair_nodes_touched=dynamic.nodes_touched_total if dynamic is not None else 0,
                conflict_rows_touched=dynamic.conflict_rows_total if dynamic is not None else 0,
                batch_groups=getattr(dynamic, "batch_groups_total", 0) if dynamic is not None else 0,
                halo_nodes=getattr(dynamic, "halo_nodes_total", 0) if dynamic is not None else 0,
            )
        return t

    def run_steps(self, k: int, *, inject: bool = True) -> SimulationResult:
        """Advance ``k`` steps and return the cumulative result so far."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        for _ in range(int(k)):
            self.step(inject=inject)
        return self.result()

    def result(self) -> SimulationResult:
        """Snapshot of the run so far (no tracer bookkeeping)."""
        return SimulationResult(
            stats=self.router.stats,
            steps=self.t,
            leftover=self.router.total_packets(),
            series=self._series,
        )

    def run(self, duration: int, *, drain: int = 0) -> SimulationResult:
        """Run ``duration`` adversarial steps plus ``drain`` injection-free
        steps (letting buffered packets finish), returning the result.

        ``drain`` mirrors the asymptotic flavour of the theorems: the
        competitive bounds hold up to an additive term r, realized here
        as packets still in flight when injections stop.

        This is a thin wrapper over :meth:`step` — a stepped run with
        the same seeds produces the identical ``SimulationResult`` and
        ``StepSeries``.
        """
        if duration < 0 or drain < 0:
            raise ValueError("duration and drain must be >= 0")
        tracer = self._active_tracer()
        router = self.router
        if self.step_series is None:
            # Fresh auto-series per run() call (legacy batch behavior).
            self._series = None
        t0 = self.t
        with self._span(
            "engine.run",
            router=type(router).__name__,
            duration=duration,
            drain=drain,
        ):
            for _ in range(duration):
                self.step()
            for _ in range(drain):
                self.step(inject=False)
        series = self._series
        if series is not None and tracer is not None:
            tracer.add_series(
                tracer.next_run_label(type(router).__name__),
                series,
                final_stats=router.stats.to_dict(),
            )
        if tracer is not None:
            reg = self.registry if self.registry is not None else metrics.active()
            if reg is not None:
                reg.counter("engine.runs").inc()
                reg.counter("engine.steps").inc(duration + drain)
        return SimulationResult(
            stats=router.stats,
            steps=self.t - t0,
            leftover=router.total_packets(),
            series=series,
        )

    # ------------------------------------------------------------------
    # Dynamic-topology support
    # ------------------------------------------------------------------
    def _apply_churn(self, dynamic, t: int) -> None:
        """Apply step ``t``'s events; drain buffers at removed nodes."""
        from repro.dynamic.faults import drop_buffered_packets

        churn = dynamic.step(t)
        if churn.removed_nodes:
            lost = drop_buffered_packets(self.router, churn.removed_nodes)
            if lost:
                self.router.stats.record_churn_drops(lost)

    def _dynamic_edges(self, dynamic):
        """Both directions of the maintained topology with |uv|^κ costs.

        Derived from the maintained sorted edge array once per topology
        version (positions only change with events, which bump it) and
        handed out read-only.
        """
        import numpy as np

        inc = dynamic.incremental
        cache = self._edge_cache
        if cache is not None and cache[0] is inc and cache[1] == inc.topology_version:
            return cache[2], cache[3]
        undirected = dynamic.active_edges()
        directed = np.vstack([undirected, undirected[:, ::-1]]).reshape(-1, 2)
        d = inc.position_array(directed[:, 1]) - inc.position_array(directed[:, 0])
        costs = np.hypot(d[:, 0], d[:, 1]) ** inc.kappa
        directed.flags.writeable = False
        costs.flags.writeable = False
        self._edge_cache = (inc, inc.topology_version, directed, costs)
        return directed, costs

    def _filter_injections(self, dynamic, injections):
        """Refuse injections with a down endpoint (charged as drops)."""
        from repro.dynamic.faults import filter_injections

        usable, refused = filter_injections(injections, dynamic.alive_ids())
        if refused:
            self.router.stats.record_injection(refused, 0)
        return usable
