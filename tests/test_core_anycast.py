"""Tests for the anycast balancing extension."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.anycast import AnycastBalancingRouter
from repro.core.balancing import BalancingConfig


def line_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    e = np.array([[i, i + 1] for i in range(n - 1)])
    edges = np.vstack([e, e[:, ::-1]])
    return edges, np.ones(len(edges)) * 0.1


def make(n=5, groups=((4,),), T=0.0, H=64) -> AnycastBalancingRouter:
    return AnycastBalancingRouter(
        n, [list(g) for g in groups], BalancingConfig(T, 0.0, H)
    )


class TestConstruction:
    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            make(groups=())

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            make(groups=((),))

    def test_out_of_range_member(self):
        with pytest.raises(ValueError):
            make(n=3, groups=((5,),))

    def test_membership_matrix(self):
        r = make(n=5, groups=((0, 4), (2,)))
        assert r.member[0, 0] and r.member[4, 0] and r.member[2, 1]
        assert not r.member[1, 0]


class TestInjection:
    def test_inject_and_height(self):
        r = make()
        assert r.inject(0, 0, 3) == 3
        assert r.height(0, 0) == 3

    def test_inject_at_member_rejected(self):
        r = make(groups=((4, 2),))
        with pytest.raises(ValueError):
            r.inject(2, 0, 1)

    def test_unknown_group(self):
        r = make()
        with pytest.raises(KeyError):
            r.inject(0, 7, 1)

    def test_drop_on_full(self):
        r = make(H=2)
        assert r.inject(0, 0, 5) == 2
        assert r.stats.dropped == 3


class TestAbsorption:
    def test_delivery_at_single_member(self):
        r = make(n=3, groups=((2,),))
        edges, costs = line_edges(3)
        r.inject(0, 0, 1)
        total = 0
        for _ in range(8):
            total += r.run_step(edges, costs)
        assert total == 1
        assert r.total_packets() == 0

    def test_delivery_at_nearest_member(self):
        """Packet injected at node 2 of a 7-line with members {0, 6}:
        the gradient pulls it to whichever member it reaches — both
        absorb, and nothing remains buffered."""
        r = make(n=7, groups=((0, 6),))
        edges, costs = line_edges(7)
        r.inject(2, 0, 4)
        for _ in range(30):
            r.run_step(edges, costs)
        assert r.stats.delivered == 4
        assert r.total_packets() == 0

    def test_members_never_buffer(self):
        r = make(n=5, groups=((0, 4),))
        edges, costs = line_edges(5)
        r.inject(2, 0, 6)
        for _ in range(30):
            r.run_step(edges, costs)
            assert r.heights[0, 0] == 0
            assert r.heights[4, 0] == 0

    def test_multiple_groups_independent(self):
        """Opposing groups on a line: both gradients deliver.  T = 1
        avoids the T=0 ping-pong cycle (two packets converging on an
        empty buffer can oscillate forever below the analyzed T regime)
        at the price of a standing staircase, so only the mass above
        the gradient inventory arrives."""
        r = make(n=5, groups=((4,), (0,)), T=1.0)
        edges, costs = line_edges(5)
        r.inject(2, 0, 8)
        r.inject(2, 1, 8)
        for _ in range(60):
            r.run_step(edges, costs)
        assert r.stats.delivered >= 4
        assert r.stats.accepted == r.stats.delivered + r.total_packets()


class TestCostAwareness:
    def test_gamma_blocks_expensive_edges(self):
        r = AnycastBalancingRouter(2, [[1]], BalancingConfig(0.0, 10.0, 64))
        r.inject(0, 0, 3)
        edges = np.array([[0, 1]])
        assert len(r.decide(edges, np.array([1.0]))) == 0
        assert len(r.decide(edges, np.array([0.01]))) == 1

    def test_failed_transmission_retained(self):
        r = make(n=2, groups=((1,),))
        edges = np.array([[0, 1]])
        r.inject(0, 0, 1)
        r.run_step(edges, np.array([0.1]), success_fn=lambda t: [False] * len(t))
        assert r.total_packets() == 1
        assert r.stats.interference_failures == 1


class TestConservation:
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), min_size=1, max_size=20),
        st.integers(1, 30),
    )
    @settings(max_examples=30, deadline=None)
    def test_accepted_equals_delivered_plus_buffered(self, injections, steps):
        n = 6
        r = AnycastBalancingRouter(
            n, [[0], [n - 1]], BalancingConfig(0.0, 0.0, 16)
        )
        ring = np.array([[i, (i + 1) % n] for i in range(n)])
        edges = np.vstack([ring, ring[:, ::-1]])
        costs = np.ones(len(edges)) * 0.1
        for node, g in injections:
            if not r.member[node, g]:
                r.inject(node, g, 1)
        for _ in range(steps):
            r.run_step(edges, costs)
        assert r.stats.accepted == r.stats.delivered + r.total_packets()
