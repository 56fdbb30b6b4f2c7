"""Tests for the (T, γ)-balancing router."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.balancing import BalancingConfig, BalancingRouter
from repro.sim.packets import TxBatch


def two_node_router(T=0.0, gamma=0.0, H=100) -> BalancingRouter:
    return BalancingRouter(2, [1], BalancingConfig(threshold=T, gamma=gamma, max_height=H))


def line_router(n=4, T=0.0, gamma=0.0, H=100, dests=None) -> BalancingRouter:
    return BalancingRouter(
        n, dests if dests is not None else [n - 1],
        BalancingConfig(threshold=T, gamma=gamma, max_height=H),
    )


EDGE_01 = np.array([[0, 1]])
COST_1 = np.array([1.0])


class TestConfig:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            BalancingConfig(threshold=-1.0, gamma=0.0, max_height=10)

    def test_zero_height_rejected(self):
        with pytest.raises(ValueError):
            BalancingConfig(threshold=0.0, gamma=0.0, max_height=0)

    def test_bad_destination(self):
        with pytest.raises(ValueError):
            BalancingRouter(3, [5], BalancingConfig(1.0, 0.0, 10))

    def test_empty_destinations_rejected(self):
        with pytest.raises(ValueError):
            BalancingRouter(3, [], BalancingConfig(1.0, 0.0, 10))


class TestInjection:
    def test_accepts_up_to_height(self):
        r = two_node_router(H=5)
        assert r.inject(0, 1, 3) == 3
        assert r.height(0, 1) == 3

    def test_drops_beyond_height(self):
        r = two_node_router(H=5)
        assert r.inject(0, 1, 8) == 5
        assert r.stats.dropped == 3
        assert r.stats.injected == 8

    def test_inject_at_destination_rejected(self):
        r = two_node_router()
        with pytest.raises(ValueError):
            r.inject(1, 1, 1)

    def test_unknown_destination(self):
        r = two_node_router()  # destinations = [1]
        with pytest.raises(KeyError):
            r.inject(1, 0, 1)


class TestDecide:
    def test_moves_down_gradient(self):
        r = two_node_router(T=0.0)
        r.inject(0, 1, 2)
        txs = r.decide(EDGE_01, COST_1)
        assert len(txs) == 1
        assert (txs.src[0], txs.dst[0], txs.dest[0], txs.col[0]) == (0, 1, 1, 0)

    def test_threshold_blocks(self):
        r = two_node_router(T=5.0)
        r.inject(0, 1, 3)  # gradient 3 ≤ T
        assert len(r.decide(EDGE_01, COST_1)) == 0

    def test_gamma_prices_cost(self):
        r = two_node_router(T=0.0, gamma=10.0)
        r.inject(0, 1, 3)  # gradient 3; γ·c = 10 > 3 → blocked
        assert len(r.decide(EDGE_01, COST_1)) == 0
        # Cheap edge passes.
        assert len(r.decide(EDGE_01, np.array([0.1]))) == 1

    def test_no_send_from_empty_buffer(self):
        r = two_node_router()
        assert len(r.decide(EDGE_01, COST_1)) == 0

    def test_both_directions_evaluated(self):
        r = BalancingRouter(2, [0, 1], BalancingConfig(0.0, 0.0, 100))
        r.inject(0, 1, 2)
        r.inject(1, 0, 2)
        both = np.array([[0, 1], [1, 0]])
        txs = r.decide(both, np.array([1.0, 1.0]))
        assert len(txs) == 2
        assert set(zip(txs.src.tolist(), txs.dst.tolist())) == {(0, 1), (1, 0)}

    def test_contention_capped_by_availability(self):
        """Two edges draining one buffer with one packet: single send."""
        r = BalancingRouter(3, [2], BalancingConfig(0.0, 0.0, 100))
        r.inject(0, 2, 1)
        edges = np.array([[0, 1], [0, 2]])
        txs = r.decide(edges, np.array([1.0, 1.0]))
        assert len(txs) == 1

    def test_picks_max_gradient_destination(self):
        r = BalancingRouter(2, [0, 1], BalancingConfig(0.0, 0.0, 100))
        # Buffers at node 0: dest-1 height 5.
        r.inject(0, 1, 5)
        txs = r.decide(EDGE_01, COST_1)
        assert txs.dest[0] == 1

    def test_decide_does_not_mutate_heights(self):
        r = two_node_router()
        r.inject(0, 1, 2)
        before = r.heights.copy()
        r.decide(EDGE_01, COST_1)
        assert np.array_equal(before, r.heights)

    def test_length_mismatch_rejected(self):
        r = two_node_router()
        with pytest.raises(ValueError):
            r.decide(EDGE_01, np.array([1.0, 2.0]))


class TestApply:
    def test_delivery_absorbs(self):
        r = two_node_router()
        r.inject(0, 1, 1)
        txs = r.decide(EDGE_01, COST_1)
        delivered = r.apply(txs)
        assert delivered == 1
        assert r.total_packets() == 0
        assert r.stats.delivered == 1

    def test_relay_moves_packet(self):
        r = line_router(3, dests=[2])
        r.inject(0, 2, 1)
        txs = r.decide(np.array([[0, 1]]), COST_1)
        assert r.apply(txs) == 0
        assert r.height(1, 2) == 1
        assert r.height(0, 2) == 0

    def test_failed_transmission_keeps_packet(self):
        r = two_node_router()
        r.inject(0, 1, 1)
        txs = r.decide(EDGE_01, COST_1)
        delivered = r.apply(txs, np.array([False]))
        assert delivered == 0
        assert r.height(0, 1) == 1
        assert r.stats.interference_failures == 1
        assert r.stats.energy_attempted == pytest.approx(1.0)
        assert r.stats.energy_successful == 0.0

    def test_apply_mask_length_mismatch(self):
        r = two_node_router()
        r.inject(0, 1, 1)
        txs = r.decide(EDGE_01, COST_1)
        with pytest.raises(ValueError):
            r.apply(txs, np.array([True, False]))

    def test_sending_from_empty_buffer_raises(self):
        r = two_node_router()
        fake = TxBatch(src=[0], dst=[1], col=[0], dest=[1], cost=[1.0])
        with pytest.raises(RuntimeError):
            r.apply(fake)

    def test_unregistered_destination_raises(self):
        r = two_node_router()  # destinations = [1]
        r.inject(0, 1, 1)
        with pytest.raises(KeyError):
            r.apply(TxBatch(src=[0], dst=[1], col=[0], dest=[0], cost=[1.0]))
        with pytest.raises(KeyError):
            r.apply(TxBatch(src=[0], dst=[1], col=[1], dest=[1], cost=[1.0]))
        assert r.height(0, 1) == 1 and r.stats.attempts == 0

    def test_column_destination_mismatch_raises(self):
        r = BalancingRouter(3, [1, 2], BalancingConfig(0.0, 0.0, 100))
        r.inject(0, 1, 1)
        with pytest.raises(ValueError):
            r.apply(TxBatch(src=[0], dst=[1], col=[1], dest=[1], cost=[1.0]))
        assert r.height(0, 1) == 1 and r.stats.attempts == 0


class TestConservation:
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), min_size=1, max_size=30),
        st.integers(1, 25),
    )
    @settings(max_examples=40, deadline=None)
    def test_packets_conserved(self, injections, steps):
        """accepted == delivered + still-buffered, for any run."""
        n = 5
        r = BalancingRouter(n, list(range(n)), BalancingConfig(0.0, 0.0, 8))
        ring = np.array([[i, (i + 1) % n] for i in range(n)])
        ring = np.vstack([ring, ring[:, ::-1]])
        costs = np.ones(len(ring))
        for node, doff in injections:
            dest = (node + doff) % n
            if dest != node:
                r.inject(node, dest, 1)
        for _ in range(steps):
            r.run_step(ring, costs)
        assert r.stats.accepted == r.stats.delivered + r.total_packets()

    def test_heights_never_negative(self):
        r = line_router(4, dests=[3])
        edges = np.array([[0, 1], [1, 2], [2, 3], [1, 0], [2, 1], [3, 2]])
        costs = np.ones(len(edges))
        r.inject(0, 3, 5)
        for _ in range(20):
            r.run_step(edges, costs)
            assert (r.heights >= 0).all()


class TestRunStep:
    def test_full_pipeline_delivers_line(self):
        r = line_router(4, dests=[3], H=50)
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        costs = np.ones(3) * 0.1
        for _ in range(10):
            r.run_step(edges, costs, injections=[(0, 3, 1)])
        for _ in range(40):
            r.run_step(edges, costs)
        assert r.stats.delivered >= 8  # a couple stuck below gradient

    def test_success_fn_applied(self):
        r = two_node_router()
        r.inject(0, 1, 2)
        delivered = r.run_step(EDGE_01, COST_1, success_fn=lambda txs: [False] * len(txs))
        assert delivered == 0
        assert r.height(0, 1) == 2

    def test_stats_steps_counted(self):
        r = two_node_router()
        for _ in range(5):
            r.run_step(EDGE_01, COST_1)
        assert r.stats.steps == 5
