"""Cross-cutting property tests on the paper's core invariants."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.balancing import BalancingConfig, BalancingRouter
from repro.core.theta import theta_algorithm
from repro.geometry.pointsets import uniform_points
from repro.graphs.metrics import is_connected, max_degree
from repro.graphs.transmission import max_range_for_connectivity, transmission_graph


class TestBalancingPotential:
    """With threshold T ≥ 1 and no injections, every packet move
    strictly decreases the quadratic potential Σ h², so the potential
    is non-increasing step over step — the Lyapunov argument behind the
    balancing analyses."""

    @given(
        st.integers(4, 8),
        st.lists(st.tuples(st.integers(0, 7), st.integers(1, 7)), min_size=1, max_size=25),
        st.integers(1, 4),
        st.integers(5, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_potential_non_increasing_without_injections(self, n, raw_inj, T, steps):
        router = BalancingRouter(
            n, list(range(n)), BalancingConfig(float(T), 0.0, 64)
        )
        ring = np.array([[i, (i + 1) % n] for i in range(n)])
        edges = np.vstack([ring, ring[:, ::-1]])
        costs = np.ones(len(edges)) * 0.01
        for node, off in raw_inj:
            node %= n
            dest = (node + off) % n
            if dest != node:
                router.inject(node, dest, 1)
        prev = float((router.heights.astype(np.float64) ** 2).sum())
        for _ in range(steps):
            router.run_step(edges, costs)
            cur = float((router.heights.astype(np.float64) ** 2).sum())
            assert cur <= prev + 1e-9
            prev = cur

    @given(st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_drained_network_is_quiescent(self, seed):
        """After enough injection-free steps the router reaches a fixed
        point: no further transmissions are decided."""
        gen = np.random.default_rng(seed)
        n = 6
        router = BalancingRouter(n, list(range(n)), BalancingConfig(1.0, 0.0, 32))
        ring = np.array([[i, (i + 1) % n] for i in range(n)])
        edges = np.vstack([ring, ring[:, ::-1]])
        costs = np.ones(len(edges)) * 0.01
        for _ in range(10):
            s, d = gen.choice(n, size=2, replace=False)
            router.inject(int(s), int(d), 1)
        for _ in range(200):
            router.run_step(edges, costs)
        assert len(router.decide(edges, costs)) == 0


class TestThetaMonotonicity:
    """Structural monotonicity of ΘALG in its parameters."""

    @given(st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_smaller_theta_never_disconnects(self, seed):
        pts = uniform_points(40, rng=seed)
        d = max_range_for_connectivity(pts, slack=1.3)
        for theta in (math.pi / 3, math.pi / 6, math.pi / 12):
            topo = theta_algorithm(pts, theta, d)
            assert is_connected(topo.graph)

    @given(st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_larger_range_means_no_fewer_yao_choices(self, seed):
        """Growing D can only add candidate neighbors, so the phase-1
        out-choice count per node is non-decreasing in D."""
        from repro.graphs.yao import yao_out_edges

        pts = uniform_points(30, rng=seed)
        d = max_range_for_connectivity(pts, slack=1.0)
        small = yao_out_edges(pts, math.pi / 6, d)
        large = yao_out_edges(pts, math.pi / 6, d * 1.5)
        count_small = np.bincount(small[:, 0], minlength=30)
        count_large = np.bincount(large[:, 0], minlength=30)
        assert (count_large >= count_small).all()

    @given(st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_degree_bound_scales_with_sector_count(self, seed):
        pts = uniform_points(50, rng=seed)
        d = max_range_for_connectivity(pts, slack=1.3)
        for theta in (math.pi / 3, math.pi / 4, math.pi / 6):
            topo = theta_algorithm(pts, theta, d)
            assert max_degree(topo.graph) <= 2 * topo.partition.n_sectors


class TestStretchOrdering:
    """N₁ (Yao) ⊆ relationships and stretch dominance."""

    @given(st.integers(0, 12))
    @settings(max_examples=10, deadline=None)
    def test_n_subset_of_yao_implies_stretch_dominance(self, seed):
        """N ⊆ N₁ ⇒ N's shortest paths are no shorter than N₁'s."""
        from repro.graphs.metrics import shortest_path_costs

        pts = uniform_points(35, rng=seed)
        d = max_range_for_connectivity(pts, slack=1.3)
        topo = theta_algorithm(pts, math.pi / 6, d)
        d_n = shortest_path_costs(topo.graph, weight="cost")
        d_yao = shortest_path_costs(topo.yao_graph, weight="cost")
        assert (d_n >= d_yao - 1e-9).all()

    @given(st.integers(0, 12))
    @settings(max_examples=10, deadline=None)
    def test_gstar_lower_bounds_everything(self, seed):
        from repro.graphs.metrics import shortest_path_costs

        pts = uniform_points(35, rng=seed)
        d = max_range_for_connectivity(pts, slack=1.3)
        gstar = transmission_graph(pts, d)
        topo = theta_algorithm(pts, math.pi / 6, d)
        d_ref = shortest_path_costs(gstar, weight="cost")
        d_n = shortest_path_costs(topo.graph, weight="cost")
        assert (d_n >= d_ref - 1e-9).all()
