"""Tests for greedy geographic routing."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro
from repro.graphs.base import GeometricGraph
from repro.sim.geographic import GreedyGeographicRouter, greedy_geographic_path


@pytest.fixture(scope="module")
def dense_world():
    pts = repro.uniform_points(80, rng=9)
    d = repro.max_range_for_connectivity(pts, slack=1.5)
    return pts, repro.transmission_graph(pts, d), repro.theta_algorithm(pts, math.pi / 9, d)


def cul_de_sac_graph() -> GeometricGraph:
    """A layout with a guaranteed local minimum: the destination sits
    behind a gap; node 1 is closer to it than either neighbor."""
    pts = np.array(
        [
            [0.0, 0.0],  # 0 source
            [1.0, 0.0],  # 1 dead-end tip (closest to dest among connected)
            [0.0, 1.0],  # 2 detour
            [1.2, 1.0],  # 3 destination-side relay
            [2.0, 0.0],  # 4 destination
        ]
    )
    edges = [(0, 1), (0, 2), (2, 3), (3, 4)]
    return GeometricGraph(pts, edges)


class TestOfflinePath:
    def test_delivers_on_dense_graph(self, dense_world):
        _, gstar, _ = dense_world
        path, ok = greedy_geographic_path(gstar, 0, 42)
        assert ok
        assert path[0] == 0 and path[-1] == 42

    def test_progress_strictly_decreases(self, dense_world):
        pts, gstar, _ = dense_world
        path, ok = greedy_geographic_path(gstar, 3, 57)
        d = [float(np.hypot(*(pts[v] - pts[57]))) for v in path]
        assert all(a > b for a, b in zip(d[:-1], d[1:]))

    def test_local_minimum_detected(self):
        g = cul_de_sac_graph()
        path, ok = greedy_geographic_path(g, 0, 4)
        assert not ok
        assert path == [0, 1]  # greedy walks into the dead end

    def test_src_equals_dst(self, dense_world):
        _, gstar, _ = dense_world
        path, ok = greedy_geographic_path(gstar, 5, 5)
        assert ok and path == [5]

    def test_isolated_node(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        g = GeometricGraph(pts, [])
        path, ok = greedy_geographic_path(g, 0, 1)
        assert not ok


class TestRouter:
    def test_delivers_online(self, dense_world):
        _, gstar, _ = dense_world
        r = GreedyGeographicRouter(gstar)
        edges = gstar.directed_edge_array()
        costs = np.concatenate([gstar.edge_costs, gstar.edge_costs])
        r.inject(0, 42, 3)
        for _ in range(40):
            r.run_step(edges, costs)
        assert r.stats.delivered == 3

    def test_minimum_drop_counted(self):
        g = cul_de_sac_graph()
        r = GreedyGeographicRouter(g)
        edges = g.directed_edge_array()
        costs = np.concatenate([g.edge_costs, g.edge_costs])
        r.inject(0, 4, 1)
        for _ in range(10):
            r.run_step(edges, costs)
        assert r.stats.delivered == 0
        assert r.local_minimum_drops >= 1

    def test_failed_attempts_deliver_nothing(self):
        # A 4-node line under a MAC that fails every attempt: the packet
        # is charged for each attempt and never leaves node 0.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        g = GeometricGraph(pts, [(0, 1), (1, 2), (2, 3)])
        r = GreedyGeographicRouter(g)
        edges = g.directed_edge_array()
        costs = np.concatenate([g.edge_costs, g.edge_costs])
        r.inject(0, 3, 1)
        batches = []

        def fail_all(batch):
            batches.append(batch)
            return np.zeros(len(batch), dtype=bool)

        for _ in range(5):
            r.run_step(edges, costs, success_fn=fail_all)
        assert r.stats.delivered == 0
        assert r.stats.interference_failures == r.stats.attempts == 5
        assert list(r.queues[0]) == [3]
        assert [(b.src.tolist(), b.dst.tolist(), b.dest.tolist()) for b in batches] == [
            ([0], [1], [3])
        ] * 5

    def test_one_hop_per_step(self):
        # Attempts come off the step-start queues: a packet crossing
        # 0 → 1 cannot also cross 1 → 2 in the same step.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        g = GeometricGraph(pts, [(0, 1), (1, 2), (2, 3)])
        r = GreedyGeographicRouter(g)
        edges = g.directed_edge_array()
        costs = np.concatenate([g.edge_costs, g.edge_costs])
        r.inject(0, 3, 1)
        for step in range(3):
            assert r.stats.delivered == 0
            r.run_step(edges, costs)
        assert r.stats.delivered == 1

    def test_injection_at_minimum_rejected(self):
        g = cul_de_sac_graph()
        r = GreedyGeographicRouter(g)
        accepted = r.inject(1, 4, 1)  # node 1 is the local minimum
        assert accepted == 0
        assert r.local_minimum_drops == 1

    def test_sparser_graph_more_minima(self, dense_world):
        """ΘALG's sparse N strands more greedy packets than G* — the
        classic tension between sparsification and greedy routing."""
        pts, gstar, topo = dense_world
        gen = np.random.default_rng(0)
        pairs = [tuple(gen.choice(len(pts), 2, replace=False)) for _ in range(200)]
        ok_dense = sum(greedy_geographic_path(gstar, int(s), int(d))[1] for s, d in pairs)
        ok_sparse = sum(
            greedy_geographic_path(topo.graph, int(s), int(d))[1] for s, d in pairs
        )
        assert ok_dense >= ok_sparse

    def test_gabriel_greedy_friendliness(self, dense_world):
        """Gabriel graphs keep greedy delivery comparatively high — the
        reason geographic protocols planarize with them."""
        pts, gstar, _ = dense_world
        gabriel = repro.gabriel_graph(pts, max_range=np.inf)
        gen = np.random.default_rng(1)
        pairs = [tuple(gen.choice(len(pts), 2, replace=False)) for _ in range(150)]
        ok = sum(greedy_geographic_path(gabriel, int(s), int(d))[1] for s, d in pairs)
        assert ok / len(pairs) > 0.5
