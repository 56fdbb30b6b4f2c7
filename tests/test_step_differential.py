"""The columnar routing step against the per-record reference step.

Every routing step runs §3.2 decide, the §3.3 resolve and apply on one
:class:`~repro.sim.packets.TxBatch`.  The per-record step it replaced —
one ``(src, dst, dest, cost)`` record per attempt, a pairwise-scan
resolve and a one-record-at-a-time apply — is kept in
:mod:`repro._reference`.  Each scenario below is run twice from the same
seeds, once per path, in one process; RoutingStats and every StepSeries
column must come out identical:

* ``BalancingRouter`` under the static ``RandomActivationMAC``;
* ``DynamicTopology`` + ``DynamicMAC`` under churn (fail-stop, recovery
  and moves), with γ > 0;
* ``HoneycombRouter`` (§3.4);
* ``AnycastBalancingRouter`` under the static MAC;
* ``TrackedBalancingRouter`` under churn and ``DynamicMAC`` (delays
  must match too).

An exact-work gate pins the batch shape of the step: one ``TxBatch``
and one resolve call per engine step, under each MAC.
"""

import math

import numpy as np
import pytest

from repro import (
    AnycastBalancingRouter,
    BalancingConfig,
    BalancingRouter,
    DynamicInterference,
    DynamicTopology,
    HoneycombRouter,
    IncrementalTheta,
    RandomWaypointMobility,
    SimulationEngine,
    TrackedBalancingRouter,
    failstop_trace,
    max_range_for_connectivity,
    merge_traces,
    mobility_trace,
    theta_algorithm,
    uniform_points,
)
from repro._reference import (
    ReferenceStepRouter,
    honeycomb_step_reference,
    mac_resolve_reference,
)
from repro.core.honeycomb import HoneycombConfig
from repro.core.interference_mac import RandomActivationMAC
from repro.dynamic import DynamicMAC
from repro.obs.metrics import StepSeries
from repro.sim import packets

THETA = math.pi / 9
DELTA = 0.5
STEPS = 100
SEEDS = [0, 1, 2]


def _traffic(seed: int, n: int, dests, *, rate: int = 3, horizon: int = STEPS - 8):
    """``t → injections``, a pure function of ``(seed, t)``."""

    def injections(t):
        if t >= horizon:
            return []
        gen = np.random.default_rng([seed, t])
        out = []
        for _ in range(rate):
            d = int(gen.choice(dests))
            s = int(gen.integers(n))
            if s != d:
                out.append((s, d, int(gen.integers(1, 4))))
        return out

    return injections


def _outcome(engine) -> dict:
    return {"stats": engine.router.stats, "series": engine.series.to_dict()}


# ---------------------------------------------------------------------------
# Scenario builders: each returns (production engine, reference engine)
# ---------------------------------------------------------------------------


def _static_mac(seed: int, router_of):
    pts = uniform_points(40, rng=seed)
    graph = theta_algorithm(pts, THETA, max_range_for_connectivity(pts, slack=1.5)).graph
    engines = []
    for reference in (False, True):
        mac = RandomActivationMAC(graph, DELTA, rng=seed + 10)
        router, traffic = router_of(graph.n_nodes)
        success_fn = mac.success_mask
        if reference:
            router = ReferenceStepRouter(router)

            def success_fn(records, pts=graph.points):
                return mac_resolve_reference(pts, DELTA, records)

        engines.append(
            SimulationEngine(
                router,
                lambda t, mac=mac: mac.active_edges(),
                traffic,
                success_fn=success_fn,
                step_series=StepSeries(),
            )
        )
    return engines


def _churned_mac(seed: int, router_of):
    n = 36
    pts = uniform_points(n, rng=seed)
    d0 = max_range_for_connectivity(pts, slack=1.5)
    engines = []
    for reference in (False, True):
        mob = RandomWaypointMobility(pts, speed=d0 / 8.0, rng=seed + 1)
        trace = merge_traces(
            failstop_trace(
                n, STEPS, fail_rate=0.15, mean_downtime=6.0, min_alive=n - 5, rng=seed + 2
            ),
            mobility_trace(mob, STEPS, every=4),
        )
        inc = IncrementalTheta(pts, THETA, d0)
        di = DynamicInterference(inc, DELTA)
        dyn = DynamicTopology(inc, trace, interference=di)
        mac = DynamicMAC(di, rng=seed + 3)
        router, traffic = router_of(dyn.capacity)
        success_fn = None
        if reference:
            router = ReferenceStepRouter(router)

            def success_fn(records, inc=inc):
                return mac_resolve_reference(inc.all_positions(), DELTA, records)

        engines.append(
            SimulationEngine(
                router,
                injections_fn=traffic,
                dynamic=dyn,
                mac=mac,
                success_fn=success_fn,
                step_series=StepSeries(),
            )
        )
    return engines


def _balancing(seed, *, threshold=0.0, gamma=0.0, dests=(0, 1, 2)):
    def router_of(n):
        cfg = BalancingConfig(threshold, gamma, 24)
        return BalancingRouter(n, list(dests), cfg), _traffic(seed, n, list(dests))

    return router_of


def _tracked(seed):
    def router_of(n):
        inner, traffic = _balancing(seed)(n)
        return TrackedBalancingRouter(inner), traffic

    return router_of


def _anycast(seed):
    groups = [list(range(0, 8)), [8, 9], list(range(10, 16))]

    def router_of(n):
        router = AnycastBalancingRouter(n, groups, BalancingConfig(0.0, 0.05, 24))
        members = {m for g in groups for m in g}

        def injections(t):
            if t >= STEPS - 8:
                return []
            gen = np.random.default_rng([seed, t])
            out = []
            for _ in range(3):
                g = int(gen.integers(len(groups)))
                s = int(gen.integers(n))
                if s not in members:
                    out.append((s, g, int(gen.integers(1, 4))))
            return out

        return router, injections

    return router_of


SCENARIOS = {
    "balancing-static-mac": lambda seed: _static_mac(seed, _balancing(seed)),
    "dynamic-mac-churn": lambda seed: _churned_mac(seed, _balancing(seed, threshold=0.5, gamma=0.5)),
    "anycast-static-mac": lambda seed: _static_mac(seed, _anycast(seed)),
    "tracked-dynamic-mac-churn": lambda seed: _churned_mac(seed, _tracked(seed)),
}


class TestEngineDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_columnar_step_matches_reference(self, scenario, seed):
        prod, ref = SCENARIOS[scenario](seed)
        for _ in range(STEPS):
            prod.step()
            ref.step()
        got, want = _outcome(prod), _outcome(ref)
        assert got["stats"] == want["stats"]
        assert got["series"] == want["series"]
        assert got["stats"].attempts > 0 and got["stats"].delivered > 0
        if scenario.startswith("tracked"):
            assert prod.router.delays == ref.router.router.delays
        if "mac" in scenario:
            # The MAC did kill some attempts: the resolve was exercised.
            assert got["stats"].interference_failures > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_honeycomb_step_matches_reference(self, seed):
        pts = uniform_points(60, side=3.0, rng=seed)
        cfg = HoneycombConfig(delta=DELTA, threshold=1.0, max_height=64, p_transmit=1.0 / 6.0)
        prod = HoneycombRouter(pts, None, cfg, rng=seed + 5)
        ref = HoneycombRouter(pts, None, cfg, rng=seed + 5)
        pairs = prod.directed_pairs
        streams = [tuple(int(v) for v in pairs[k]) for k in range(0, len(pairs), 7)][:6]
        series = {"prod": StepSeries(), "ref": StepSeries()}
        for t in range(3 * STEPS):
            inj = [(s, d, 1) for s, d in streams] if t < STEPS and t % 2 == 0 else []
            prod.step(inj)
            honeycomb_step_reference(ref, inj)
            for key, hc in (("prod", prod), ("ref", ref)):
                series[key].record_step(
                    hc.stats, total_buffer=hc.router.total_packets(),
                    max_buffer=hc.router.max_height(),
                )
        assert prod.stats == ref.stats
        assert series["prod"].to_dict() == series["ref"].to_dict()
        assert prod.stats.delivered > 0


@pytest.fixture
def batches_built(monkeypatch) -> list:
    """Counts ``TxBatch`` constructions (one entry per batch built)."""
    built: list = []
    init = packets.TxBatch.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(packets.TxBatch, "__init__", counting_init)
    return built


class TestExactWork:
    """One batch and one resolve per step: per-attempt objects are gone."""

    @pytest.mark.parametrize("scenario", ["balancing-static-mac", "dynamic-mac-churn"])
    def test_one_batch_and_one_resolve_per_step(self, scenario, batches_built):
        assert not hasattr(packets, "Transmission")
        prod, _ = SCENARIOS[scenario](0)
        resolved = []
        mac_resolve = prod.success_fn

        def resolve(batch):
            assert isinstance(batch, packets.TxBatch)
            resolved.append(len(batch))
            return mac_resolve(batch)

        prod.success_fn = resolve
        for _ in range(STEPS):
            prod.step()
        assert len(batches_built) == STEPS
        assert len(resolved) == STEPS
        assert sum(resolved) == prod.router.stats.attempts

    def test_mac_free_step_builds_one_batch(self, batches_built):
        pts = uniform_points(40, rng=3)
        graph = theta_algorithm(pts, THETA, max_range_for_connectivity(pts, slack=1.5)).graph
        edges = graph.directed_edge_array()
        costs = np.ones(len(edges))
        router = BalancingRouter(graph.n_nodes, [0, 1], BalancingConfig(0.0, 0.0, 24))
        engine = SimulationEngine(router, lambda t: (edges, costs), _traffic(3, 40, [0, 1]))
        engine.run(STEPS)
        assert len(batches_built) == STEPS
        assert router.stats.attempts > 0
