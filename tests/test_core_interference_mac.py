"""Tests for the §3.3 random-activation MAC ((T, γ, I)-balancing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.interference_mac import RandomActivationMAC, estimate_edge_interference
from repro.graphs.base import GeometricGraph
from repro.interference.conflict import interference_sets
from repro.sim.packets import TxBatch


@pytest.fixture
def line5() -> GeometricGraph:
    pts = np.column_stack([np.arange(5, dtype=float), np.zeros(5)])
    return GeometricGraph(pts, [(i, i + 1) for i in range(4)])


class TestEstimateBounds:
    def test_at_least_own_set_size(self, line5):
        bounds = estimate_edge_interference(line5, 0.5)
        sets = interference_sets(line5, 0.5)
        for k, s in enumerate(sets):
            assert bounds[k] >= max(len(s), 1)

    def test_own_mode_is_set_size(self, line5):
        bounds = estimate_edge_interference(line5, 0.5, mode="own")
        sets = interference_sets(line5, 0.5)
        assert bounds.tolist() == [max(len(s), 1.0) for s in sets]

    def test_bad_mode_rejected(self, line5):
        with pytest.raises(ValueError):
            estimate_edge_interference(line5, 0.5, mode="both")

    def test_covers_neighbors(self, line5):
        """Neighborhood mode bounds the interference degree of every
        edge e touches."""
        bounds = estimate_edge_interference(line5, 0.5, mode="neighborhood")
        sets = interference_sets(line5, 0.5)
        sizes = np.array([len(s) for s in sets])
        for k, s in enumerate(sets):
            for e2 in s:
                assert bounds[k] >= sizes[int(e2)]

    def test_minimum_one(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 50.0], [51.0, 50.0]])
        g = GeometricGraph(pts, [(0, 1), (2, 3)])
        bounds = estimate_edge_interference(g, 0.1)
        assert (bounds >= 1).all()


class TestActivation:
    def test_probabilities_at_most_half(self, line5):
        mac = RandomActivationMAC(line5, 0.5, rng=0)
        assert (mac.activation_probs <= 0.5 + 1e-12).all()

    def test_active_edges_both_directions(self, line5):
        mac = RandomActivationMAC(line5, 0.5, rng=1)
        for _ in range(50):
            directed, costs = mac.active_edges()
            assert len(directed) == len(costs)
            assert len(directed) % 2 == 0
            und = {(min(a, b), max(a, b)) for a, b in directed}
            assert 2 * len(und) == len(directed)

    def test_activation_frequency_matches_probability(self, line5):
        mac = RandomActivationMAC(line5, 0.5, rng=2)
        trials = 4000
        counts = np.zeros(line5.n_edges)
        for _ in range(trials):
            directed, _ = mac.active_edges()
            und = {(min(a, b), max(a, b)) for a, b in directed}
            for e in und:
                counts[line5.edge_id(*e)] += 1
        freq = counts / trials
        assert np.allclose(freq, mac.activation_probs, atol=0.03)

    def test_custom_bounds(self, line5):
        mac = RandomActivationMAC(
            line5, 0.5, rng=0, interference_bounds=np.full(4, 8.0)
        )
        assert np.allclose(mac.activation_probs, 1 / 16)

    def test_bad_bounds_rejected(self, line5):
        with pytest.raises(ValueError):
            RandomActivationMAC(line5, 0.5, interference_bounds=np.ones(3))
        with pytest.raises(ValueError):
            RandomActivationMAC(line5, 0.5, interference_bounds=np.full(4, 0.5))

    def test_empty_graph(self):
        g = GeometricGraph(np.zeros((2, 2)) + [[0, 0], [9, 9]], [])
        mac = RandomActivationMAC(g, 0.5, rng=0)
        directed, costs = mac.active_edges()
        assert len(directed) == 0


class TestSuccessMask:
    def test_same_edge_both_directions_compatible(self, line5):
        mac = RandomActivationMAC(line5, 0.5, rng=0)
        txs = TxBatch(src=[0, 1], dst=[1, 0], col=[0, 0], dest=[4, 4], cost=[1.0, 1.0])
        mask = mac.success_mask(txs)
        assert mask.all()

    def test_adjacent_edges_fail(self, line5):
        mac = RandomActivationMAC(line5, 0.5, rng=0)
        txs = TxBatch(src=[0, 1], dst=[1, 2], col=[0, 0], dest=[4, 4], cost=[1.0, 1.0])
        mask = mac.success_mask(txs)
        assert not mask.any()

    def test_distant_edges_succeed(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [20.0, 0.0], [21.0, 0.0]])
        g = GeometricGraph(pts, [(0, 1), (2, 3)])
        mac = RandomActivationMAC(g, 0.5, rng=0)
        txs = TxBatch(src=[0, 2], dst=[1, 3], col=[0, 1], dest=[3, 0], cost=[1.0, 1.0])
        assert mac.success_mask(txs).all()

    def test_empty(self, line5):
        mac = RandomActivationMAC(line5, 0.5, rng=0)
        assert len(mac.success_mask(TxBatch.empty())) == 0


class TestLemma32:
    def test_active_edge_interference_probability(self):
        """Empirical check of Lemma 3.2: conditioned on e being active,
        Pr[some active edge interferes with e] ≤ 1/2."""
        import math
        from repro.core.theta import theta_algorithm
        from repro.geometry.pointsets import uniform_points
        from repro.graphs.transmission import max_range_for_connectivity
        from repro.interference.conflict import interference_sets

        pts = uniform_points(50, rng=3)
        d = max_range_for_connectivity(pts, slack=1.4)
        topo = theta_algorithm(pts, math.pi / 6, d)
        g = topo.graph
        mac = RandomActivationMAC(g, 0.5, rng=4)
        sets = interference_sets(g, 0.5)
        trials = 1500
        hit = np.zeros(g.n_edges)
        active_count = np.zeros(g.n_edges)
        for _ in range(trials):
            directed, _ = mac.active_edges()
            active = {g.edge_id(min(a, b), max(a, b)) for a, b in directed}
            for e in active:
                active_count[e] += 1
                if any(int(x) in active for x in sets[e]):
                    hit[e] += 1
        # Activation probabilities are ≈ 1/(2I), so per-edge counts are
        # small; aggregate over all (edge, step) activations.  Lemma 3.2
        # bounds the probability by 1/2; allow sampling noise.
        assert active_count.sum() > 200
        assert hit.sum() / active_count.sum() <= 0.55
