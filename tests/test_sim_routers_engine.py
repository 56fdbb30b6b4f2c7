"""Tests for baseline routers, mobility models, and the engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.routing_experiments import ring_graph
from repro.core.balancing import BalancingConfig, BalancingRouter
from repro.core.interference_mac import RandomActivationMAC
from repro.graphs.base import GeometricGraph
from repro.sim.adversary import stream_scenario
from repro.sim.baseline_routers import RandomWalkRouter, ShortestPathRouter
from repro.sim.engine import SimulationEngine
from repro.sim.mobility import (
    RandomWalkMobility,
    RandomWaypointMobility,
    StaticMobility,
)
from repro.sim.packets import TxBatch


def line_graph(n: int) -> GeometricGraph:
    pts = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return GeometricGraph(pts, [(i, i + 1) for i in range(n - 1)])


class TestShortestPathRouter:
    def test_next_hop_on_line(self):
        r = ShortestPathRouter(line_graph(4))
        assert r.next_hop(0, 3) == 1
        assert r.next_hop(2, 3) == 3
        assert r.next_hop(3, 3) is None

    def test_next_hop_unreachable(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 9.0]])
        g = GeometricGraph(pts, [(0, 1)])
        r = ShortestPathRouter(g)
        assert r.next_hop(0, 2) is None

    def test_delivers_on_line(self):
        g = line_graph(4)
        r = ShortestPathRouter(g)
        edges = g.directed_edge_array()
        costs = np.concatenate([g.edge_costs, g.edge_costs])
        r.inject(0, 3, 2)
        for _ in range(12):
            r.run_step(edges, costs)
        assert r.stats.delivered == 2
        assert r.total_packets() == 0

    def test_one_packet_per_edge_per_step(self):
        g = line_graph(2)
        r = ShortestPathRouter(g)
        r.inject(0, 1, 5)
        edges = g.directed_edge_array()
        costs = np.concatenate([g.edge_costs, g.edge_costs])
        r.run_step(edges, costs)
        assert r.stats.delivered == 1

    def test_queue_limit_drops(self):
        g = line_graph(2)
        r = ShortestPathRouter(g, max_queue=3)
        assert r.inject(0, 1, 10) == 3
        assert r.stats.dropped == 7

    def test_waits_when_edge_unavailable(self):
        g = line_graph(3)
        r = ShortestPathRouter(g)
        r.inject(0, 2, 1)
        # Only the second edge is active; packet's next hop (0→1) missing.
        r.run_step(np.array([[1, 2]]), np.array([1.0]))
        assert r.total_packets() == 1
        assert r.stats.delivered == 0


class TestRandomWalkRouter:
    def test_eventually_delivers_on_tiny_graph(self):
        g = line_graph(2)
        r = RandomWalkRouter(g, rng=0)
        edges = g.directed_edge_array()
        costs = np.ones(len(edges))
        r.inject(0, 1, 3)
        for _ in range(100):
            r.run_step(edges, costs)
        assert r.stats.delivered == 3

    def test_conservation(self):
        g = ring_graph(6)
        r = RandomWalkRouter(g, rng=1)
        edges = g.directed_edge_array()
        costs = np.ones(len(edges))
        for i in range(6):
            r.inject(i, (i + 3) % 6, 1)
        for _ in range(50):
            r.run_step(edges, costs)
        assert r.stats.accepted == r.stats.delivered + r.total_packets() + r.stats.dropped - (
            r.stats.injected - r.stats.accepted
        )


class TestBaselineRoutersUnderMAC:
    """The queue routers hand their attempts to ``success_fn`` as one batch."""

    def _grid(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        edges = [(i, i + 1) for i in range(25) if (i + 1) % 5]
        edges += [(i, i + 5) for i in range(20)]
        return GeometricGraph(pts, edges)

    @pytest.mark.parametrize(
        "make", [ShortestPathRouter, lambda g: RandomWalkRouter(g, rng=4)], ids=["spr", "walk"]
    )
    def test_random_activation_mac_is_applied(self, make):
        g = self._grid()
        mac = RandomActivationMAC(g, 0.5, rng=1)
        router = make(g)
        seen = []

        def resolve(batch):
            assert isinstance(batch, TxBatch)
            seen.append(len(batch))
            return mac.success_mask(batch)

        def injections(t):
            return [(0, 24, 1), (20, 4, 1), (12, 0, 1)] if t < 30 else []

        engine = SimulationEngine(
            router, lambda t: mac.active_edges(), injections, success_fn=resolve
        )
        result = engine.run(60, drain=400)
        st = result.stats
        assert len(seen) == 460 and sum(seen) == st.attempts
        # The MAC killed some attempts; their packets stayed queued and
        # were retransmitted, so nothing was lost.
        assert st.interference_failures > 0
        assert st.successes == st.attempts - st.interference_failures
        assert st.accepted == st.delivered + result.leftover + st.dropped - (
            st.injected - st.accepted
        )
        assert st.delivered > 0

    @pytest.mark.parametrize(
        "make", [ShortestPathRouter, lambda g: RandomWalkRouter(g, rng=0)], ids=["spr", "walk"]
    )
    def test_failed_attempt_charges_energy_and_keeps_packet(self, make):
        g = line_graph(3)
        r = make(g)
        r.inject(0, 2, 2)
        edges = g.directed_edge_array()
        costs = np.full(len(edges), 0.5)
        for _ in range(20):
            r.run_step(edges, costs, success_fn=lambda b: np.zeros(len(b), dtype=bool))
        assert r.total_packets() == 2 and list(r.queues[0]) == [2, 2]
        assert r.stats.attempts > 0
        assert r.stats.interference_failures == r.stats.attempts
        assert r.stats.energy_attempted == 0.5 * r.stats.attempts
        assert r.stats.energy_successful == 0.0

    def test_all_success_mac_matches_mac_free_run(self):
        scen = stream_scenario(ring_graph(8), 2, 60, rng=5)
        runs = []
        for success_fn in (None, lambda b: np.ones(len(b), dtype=bool)):
            engine = SimulationEngine.for_scenario(
                ShortestPathRouter(scen.graph), scen, success_fn=success_fn
            )
            runs.append(engine.run(60, drain=30).stats)
        assert runs[0] == runs[1]
        assert runs[0].delivered > 0


class TestMobility:
    def test_static_never_moves(self):
        pts = np.random.default_rng(0).random((10, 2))
        m = StaticMobility(pts)
        p0 = m.positions(0).copy()
        m.advance()
        assert np.array_equal(m.positions(5), p0)

    def test_random_walk_stays_in_domain(self):
        pts = np.random.default_rng(1).random((20, 2))
        m = RandomWalkMobility(pts, step_sigma=0.3, side=1.0, rng=2)
        for _ in range(50):
            p = m.advance()
            assert (p >= 0).all() and (p <= 1).all()

    def test_random_walk_moves(self):
        pts = np.zeros((5, 2)) + 0.5
        m = RandomWalkMobility(pts, step_sigma=0.05, rng=3)
        p0 = m.positions(0).copy()
        m.advance()
        assert not np.allclose(m.positions(1), p0)

    def test_waypoint_step_length_bounded(self):
        pts = np.random.default_rng(4).random((15, 2))
        m = RandomWaypointMobility(pts, speed=0.07, rng=5)
        prev = m.positions(0).copy()
        for _ in range(30):
            cur = m.advance()
            step = np.hypot(*(cur - prev).T)
            assert (step <= 0.07 + 1e-9).all()
            assert (cur >= 0).all() and (cur <= 1).all()
            prev = cur.copy()

    def test_waypoint_reaches_targets(self):
        pts = np.zeros((3, 2))
        m = RandomWaypointMobility(pts, speed=0.5, side=1.0, rng=6)
        for _ in range(200):
            m.advance()
        # After many steps nodes have moved well away from the origin corner.
        assert m.positions(0).mean() > 0.1

    def test_parameter_validation(self):
        pts = np.zeros((2, 2))
        with pytest.raises(ValueError):
            RandomWalkMobility(pts, step_sigma=-1.0)
        with pytest.raises(ValueError):
            RandomWaypointMobility(pts, speed=0.0)

    def test_all_models_return_read_only_views(self):
        pts = np.random.default_rng(9).random((8, 2))
        for m in (
            StaticMobility(pts),
            RandomWalkMobility(pts, step_sigma=0.01, rng=0),
            RandomWaypointMobility(pts, speed=0.05, rng=1),
        ):
            for arr in (m.positions(0), m.advance()):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr += 1.0


class TestEngine:
    def test_runs_scenario(self):
        g = ring_graph(10)
        scen = stream_scenario(g, 2, 40, rng=0)
        router = BalancingRouter(
            g.n_nodes, scen.destinations, BalancingConfig(1.0, 0.0, 64)
        )
        engine = SimulationEngine.for_scenario(router, scen)
        result = engine.run(scen.duration, drain=scen.duration)
        assert result.steps == 2 * scen.duration
        assert result.stats.delivered > 0
        assert result.leftover == router.total_packets()

    def test_drain_has_no_injections(self):
        g = ring_graph(8)
        scen = stream_scenario(g, 1, 10, rng=1)
        router = BalancingRouter(
            g.n_nodes, scen.destinations, BalancingConfig(1.0, 0.0, 64)
        )
        engine = SimulationEngine.for_scenario(router, scen)
        result = engine.run(10, drain=10)
        # Injections only during the first 10 steps: 1/step.
        assert result.stats.injected == 10

    def test_negative_duration_rejected(self):
        g = ring_graph(8)
        scen = stream_scenario(g, 1, 10, rng=2)
        router = BalancingRouter(g.n_nodes, scen.destinations, BalancingConfig(1.0, 0.0, 8))
        engine = SimulationEngine.for_scenario(router, scen)
        with pytest.raises(ValueError):
            engine.run(-1)

    def test_success_fn_blocks_all(self):
        g = ring_graph(8)
        scen = stream_scenario(g, 1, 10, rng=3)
        router = BalancingRouter(g.n_nodes, scen.destinations, BalancingConfig(1.0, 0.0, 64))
        engine = SimulationEngine.for_scenario(
            router, scen, success_fn=lambda txs: [False] * len(txs)
        )
        result = engine.run(10, drain=5)
        assert result.stats.delivered == 0
        assert result.stats.interference_failures == result.stats.attempts
