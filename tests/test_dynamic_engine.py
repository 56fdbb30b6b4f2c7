"""Engine integration with dynamic topologies: churn, faults, accounting.

Exercises the whole pipeline the dynamic subsystem adds to
:class:`repro.sim.engine.SimulationEngine`: event streams consumed via
incremental maintenance, packet loss at failed nodes charged to
``churn_drops``, injections refused when an endpoint is down, and the
per-step churn columns of :class:`repro.obs.metrics.StepSeries` — all
under the conservation identity
``accepted == delivered + leftover + churn_drops``.
"""

import math

import numpy as np
import pytest

from repro import (
    BalancingConfig,
    BalancingRouter,
    DynamicTopology,
    IncrementalTheta,
    RandomWaypointMobility,
    ShortestPathRouter,
    SimulationEngine,
    TrackedBalancingRouter,
    failstop_trace,
    max_range_for_connectivity,
    merge_traces,
    mobility_trace,
    theta_algorithm,
    uniform_points,
)
from repro.dynamic.faults import drop_buffered_packets, filter_injections
from repro.obs.metrics import StepSeries

THETA = math.pi / 9


def _dynamic_setup(n=30, seed=0, steps=60, *, fail_rate=0.1):
    pts = uniform_points(n, rng=seed)
    d0 = max_range_for_connectivity(pts, slack=1.5)
    mob = RandomWaypointMobility(pts, speed=d0 / 10.0, rng=seed + 1)
    trace = merge_traces(
        failstop_trace(n, steps, fail_rate=fail_rate, mean_downtime=8.0, min_alive=n - 4, rng=seed + 2),
        mobility_trace(mob, steps, every=5),
    )
    inc = IncrementalTheta(pts, THETA, d0)
    return pts, d0, DynamicTopology(inc, trace)


class TestChurnEndToEnd:
    def test_delivery_and_conservation_under_churn(self):
        n, steps = 30, 60
        pts, d0, dyn = _dynamic_setup(n, 0, steps)
        dests = [0, 1]
        router = BalancingRouter(dyn.capacity, dests, BalancingConfig(0.0, 0.0, 64))
        gen = np.random.default_rng(3)

        def injections(t):
            if t >= steps - 10:
                return []
            src = int(gen.integers(2, n))
            return [(src, int(gen.choice(dests)), 1)]

        series = StepSeries()
        engine = SimulationEngine(router, injections_fn=injections, dynamic=dyn, step_series=series)
        result = engine.run(steps)

        stats = result.stats
        assert stats.delivered > 0
        # The conservation identity, exactly.
        assert stats.accepted == stats.delivered + result.leftover + stats.churn_drops
        assert stats.injected == stats.accepted + stats.dropped
        # Events actually churned the network and were all consumed.
        assert dyn.events_applied == len(dyn.events)
        # The maintained topology still matches a from-scratch rebuild.
        assert not dyn.incremental.check_full_equivalence()

    def test_series_churn_columns_reconcile(self):
        n, steps = 24, 40
        pts, d0, dyn = _dynamic_setup(n, 7, steps)
        router = BalancingRouter(dyn.capacity, [0], BalancingConfig(0.0, 0.0, 64))
        series = StepSeries()
        engine = SimulationEngine(
            router,
            injections_fn=lambda t: [(5, 0, 1)] if t < 20 else [],
            dynamic=dyn,
            step_series=series,
        )
        result = engine.run(steps)
        arrays = series.arrays()
        assert len(arrays["events_applied"]) == steps
        # Cumulative columns end at the dynamic topology's totals...
        assert arrays["events_applied"][-1] == dyn.events_applied
        assert arrays["repair_nodes_touched"][-1] == dyn.nodes_touched_total
        # ...and never decrease.
        assert (np.diff(arrays["events_applied"]) >= 0).all()
        assert arrays["delivered"][-1] == result.stats.delivered
        assert arrays["churn_drops"][-1] == result.stats.churn_drops

    def test_static_dynamic_topology_matches_explicit_edges(self):
        # With an empty trace, driving through `dynamic` must equal the
        # static engine run on the same ΘALG topology.
        from repro.dynamic.events import EventTrace

        pts = uniform_points(25, rng=4)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc = IncrementalTheta(pts, THETA, d0)
        dyn = DynamicTopology(inc, EventTrace([]))
        topo = theta_algorithm(pts, THETA, d0)
        g = topo.graph

        def make_router():
            return BalancingRouter(25, [0], BalancingConfig(0.0, 0.0, 64))

        def inj(t):
            return [(7, 0, 1)] if t < 15 else []

        r_dyn = make_router()
        SimulationEngine(r_dyn, injections_fn=inj, dynamic=dyn).run(30)
        r_static = make_router()
        edges = g.directed_edge_array()
        costs = np.concatenate([g.edge_costs, g.edge_costs])
        SimulationEngine(r_static, lambda t: (edges, costs), inj).run(30)
        assert r_dyn.stats.delivered == r_static.stats.delivered
        assert r_dyn.stats.churn_drops == 0

    def test_requires_edges_or_dynamic(self):
        router = BalancingRouter(4, [0], BalancingConfig(1.0, 0.0, 8))
        with pytest.raises(ValueError):
            SimulationEngine(router)


class TestFaultInjection:
    def test_drop_from_heights_router(self):
        router = BalancingRouter(6, [0], BalancingConfig(1.0, 0.0, 32))
        router.inject(3, 0, 5)
        router.inject(4, 0, 2)
        assert drop_buffered_packets(router, [3]) == 5
        assert router.heights[3].sum() == 0
        assert router.total_packets() == 2
        assert drop_buffered_packets(router, []) == 0
        # Ids beyond the router's size are ignored, not an error.
        assert drop_buffered_packets(router, [99]) == 0

    def test_drop_from_queue_router(self):
        pts = uniform_points(12, rng=5)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        router = ShortestPathRouter(theta_algorithm(pts, THETA, d0).graph)
        router.inject(2, 9, 3)
        assert drop_buffered_packets(router, [2]) == 3
        assert router.total_packets() == 0

    def test_drop_through_tracking_wrapper(self):
        inner = BalancingRouter(5, [0], BalancingConfig(1.0, 0.0, 16))
        tracked = TrackedBalancingRouter(inner)
        edges = np.array([[2, 1], [1, 0]], dtype=np.intp)
        costs = np.ones(2)
        tracked.run_step(edges, costs, [(2, 0, 4)])
        buffered = tracked.total_packets()
        assert buffered > 0
        assert drop_buffered_packets(tracked, list(range(5))) == buffered
        assert inner.heights.sum() == 0
        # Stamps were cleared alongside heights: the drift check passes.
        tracked.run_step(edges, costs, [(2, 0, 1)])

    def test_unknown_router_shape_raises(self):
        with pytest.raises(TypeError):
            drop_buffered_packets(object(), [0])

    def test_filter_injections(self):
        usable, refused = filter_injections(
            [(0, 1, 2), (2, 1, 3), (0, 3, 1), (4, 0, 2)], alive=[0, 1, 4]
        )
        assert usable == [(0, 1, 2), (4, 0, 2)]
        assert refused == 4
        injections = [(4, 0, 2), (0, 1, 2), (2, 1, 3), (1, 4, 5), (0, 3, 1)]
        # Unsorted alive ids give the same split, in injection order.
        assert filter_injections(injections, alive=[4, 0, 1]) == (
            [(4, 0, 2), (0, 1, 2), (1, 4, 5)],
            4,
        )
        # numpy integer ids, in the injections and in the alive array.
        np_injections = [(np.int64(s), np.int32(d), c) for s, d, c in injections]
        usable, refused = filter_injections(np_injections, alive=np.array([1, 0, 4]))
        assert usable == [(4, 0, 2), (0, 1, 2), (1, 4, 5)] and refused == 4
        assert filter_injections([], alive=[0, 1]) == ([], 0)
        # Ids beyond every live id (and an empty live set) are refused.
        assert filter_injections([(0, 99, 2), (99, 0, 1), (0, 1, 3)], alive=[0, 1]) == (
            [(0, 1, 3)],
            3,
        )
        assert filter_injections([(0, 1, 2)], alive=np.empty(0, dtype=np.intp)) == ([], 2)

    def test_refused_injections_counted_as_drops(self):
        # A destination that fails mid-run turns its traffic into drops,
        # never into phantom deliveries.
        from repro.dynamic.events import EventTrace, FailStop

        pts = uniform_points(20, rng=6)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc = IncrementalTheta(pts, THETA, d0)
        dyn = DynamicTopology(inc, EventTrace([(10, FailStop(0))], horizon=30))
        router = BalancingRouter(20, [0], BalancingConfig(0.0, 0.0, 64))
        engine = SimulationEngine(router, injections_fn=lambda t: [(7, 0, 1)], dynamic=dyn)
        result = engine.run(30)
        stats = result.stats
        # Everything offered after the failure was refused.
        assert stats.dropped >= 19
        assert stats.injected == 30
        assert stats.accepted == stats.delivered + result.leftover + stats.churn_drops

    def test_node_removed_twice_in_one_step_is_charged_once(self):
        # Fail, recover, fail in one step lists the node twice among the
        # step's removed nodes; its buffer must be charged once.
        from repro.dynamic.events import EventTrace, FailStop, Recover

        pts = uniform_points(20, rng=6)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc = IncrementalTheta(pts, THETA, d0)
        trace = EventTrace([(5, FailStop(7)), (5, Recover(7)), (5, FailStop(7))], horizon=20)
        dyn = DynamicTopology(inc, trace)
        router = BalancingRouter(20, [0], BalancingConfig(0.0, 0.0, 64))
        engine = SimulationEngine(
            router, injections_fn=lambda t: [(7, 0, 20)] if t < 5 else [], dynamic=dyn
        )
        for _ in range(5):
            engine.step()
        buffered = int(router.heights[7].sum())
        assert buffered > 0
        engine.step()
        stats = router.stats
        assert stats.churn_drops == buffered
        assert stats.accepted == stats.delivered + router.total_packets() + stats.churn_drops


class TestMACUnderChurn:
    def _mac_setup(self, n=30, seed=2, steps=40):
        from repro import DynamicInterference, DynamicMAC

        pts, d0, _ = _dynamic_setup(n, seed, steps)[:3]
        # Rebuild with interference maintenance wired into the topology.
        mob = RandomWaypointMobility(pts, speed=d0 / 10.0, rng=seed + 1)
        trace = merge_traces(
            failstop_trace(n, steps, fail_rate=0.1, mean_downtime=8.0, min_alive=n - 4, rng=seed + 2),
            mobility_trace(mob, steps, every=5),
        )
        inc = IncrementalTheta(pts, THETA, d0)
        di = DynamicInterference(inc, 0.5)
        dyn = DynamicTopology(inc, trace, interference=di)
        mac = DynamicMAC(di, rng=seed + 3)
        return dyn, di, mac

    def test_engine_runs_guard_zone_mac_over_churned_topology(self):
        n, steps = 30, 40
        dyn, di, mac = self._mac_setup(n, 2, steps)
        dests = [0, 1]
        router = BalancingRouter(dyn.capacity, dests, BalancingConfig(0.0, 0.0, 64))
        gen = np.random.default_rng(5)

        def injections(t):
            if t >= steps - 10:
                return []
            return [(int(gen.integers(2, n)), int(gen.choice(dests)), 1)]

        series = StepSeries()
        engine = SimulationEngine(
            router, injections_fn=injections, dynamic=dyn, mac=mac, step_series=series
        )
        result = engine.run(steps)
        stats = result.stats
        # Conservation holds exactly under MAC + churn.
        assert stats.accepted == stats.delivered + result.leftover + stats.churn_drops
        assert dyn.events_applied == len(dyn.events)
        # Conflict structure stayed in lockstep and bit-identical.
        assert di.check_full_equivalence() == 0
        # The series carries the cumulative conflict column.
        arrays = series.arrays()
        assert len(arrays["conflict_rows_touched"]) == steps
        assert arrays["conflict_rows_touched"][-1] == dyn.conflict_rows_total

    def test_mac_requires_dynamic(self):
        from repro import DynamicInterference, DynamicMAC

        pts = uniform_points(20, rng=1)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc = IncrementalTheta(pts, THETA, d0)
        mac = DynamicMAC(DynamicInterference(inc, 0.5), rng=0)
        router = BalancingRouter(20, [0], BalancingConfig(0.0, 0.0, 64))
        with pytest.raises(ValueError, match="requires a dynamic topology"):
            SimulationEngine(router, mac=mac)
        from repro.dynamic.events import EventTrace

        dyn = DynamicTopology(inc, EventTrace([], horizon=5))
        with pytest.raises(ValueError, match="not both"):
            SimulationEngine(router, lambda t: None, dynamic=dyn, mac=mac)


class TestMacFreeEdgeCache:
    def test_edges_derived_once_per_topology_version(self, monkeypatch):
        # MAC-free engine on a maintained topology: the directed edges
        # and their costs are derived from the edge array once per
        # topology version, so churn-free steps never read it again.
        from repro.dynamic.events import EventTrace, NodeMove

        pts = uniform_points(60, rng=7)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc = IncrementalTheta(pts, THETA, d0)
        events = EventTrace([(3, NodeMove(5, 0.5, 0.5))])
        dyn = DynamicTopology(inc, events)
        router = BalancingRouter(dyn.capacity, [0], BalancingConfig(0.0, 0.0, 64))
        engine = SimulationEngine(router, injections_fn=lambda t: [(1, 0, 1)], dynamic=dyn)
        calls = []
        original = IncrementalTheta.edge_array

        def counted(self):
            calls.append(self.topology_version)
            return original(self)

        monkeypatch.setattr(IncrementalTheta, "edge_array", counted)
        engine.step()
        assert len(calls) == 1
        engine.step()
        engine.step()
        assert len(calls) == 1
        engine.step()  # step 3 moves node 5: one fresh derivation
        engine.step()
        assert calls == [0, 1]
        directed, costs = engine._dynamic_edges(dyn)
        want = np.vstack([inc.edge_array(), inc.edge_array()[:, ::-1]])
        assert np.array_equal(directed, want)
        d = inc.position_array(want[:, 1]) - inc.position_array(want[:, 0])
        assert np.array_equal(costs, np.hypot(d[:, 0], d[:, 1]) ** inc.kappa)
        assert not directed.flags.writeable and not costs.flags.writeable
