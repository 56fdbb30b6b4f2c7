"""Golden equivalence: vectorized kernels vs. retained naive references.

Every hot-path kernel rewritten with batched array operations is pinned
edge-for-edge / entry-for-entry against its original loop implementation
in :mod:`repro._reference`, over ≥20 seeded random point sets plus the
degenerate geometries (collinear, lattice, coincident, single edge,
empty) where tie-breaking and boundary epsilons actually bite.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._reference import (
    all_pairs_within_reference,
    balancing_apply_reference,
    balancing_decide_reference,
    mac_resolve_reference,
    records_of,
    interference_sets_reference,
    max_edge_stretch_reference,
    theta_edges_reference,
    yao_out_edges_reference,
)
from repro.core.balancing import BalancingConfig, BalancingRouter
from repro.core.interference_mac import RandomActivationMAC
from repro.core.theta import theta_algorithm
from repro.geometry.spatialindex import GridIndex
from repro.graphs.base import GeometricGraph
from repro.graphs.metrics import energy_stretch, shortest_path_costs
from repro.graphs.transmission import max_range_for_connectivity, transmission_graph
from repro.graphs.yao import yao_out_edges
from repro.interference.conflict import interference_sets
from repro.sim.packets import TxBatch

SEEDS = list(range(20))

DEGENERATE_POINTS = {
    "collinear": np.column_stack([np.arange(12.0), np.zeros(12)]),
    "lattice": np.stack(
        np.meshgrid(np.arange(5.0), np.arange(5.0)), axis=-1
    ).reshape(-1, 2),
    "coincident": np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
    "two_points": np.array([[0.0, 0.0], [0.7, 0.2]]),
}


def random_points(seed: int, n: int = 60) -> np.ndarray:
    return np.random.default_rng(seed).random((n, 2))


def as_pair_set(edges) -> set:
    return {(min(int(a), int(b)), max(int(a), int(b))) for a, b in edges}


# ---------------------------------------------------------------------------
# GridIndex.all_pairs_within
# ---------------------------------------------------------------------------


class TestAllPairsEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random(self, seed):
        pts = random_points(seed)
        r = 0.1 + 0.3 * (seed / len(SEEDS))
        got = GridIndex(pts, cell=max(r, 0.05)).all_pairs_within(r)
        want = all_pairs_within_reference(pts, r)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(DEGENERATE_POINTS))
    def test_degenerate(self, name):
        pts = DEGENERATE_POINTS[name]
        for r in (0.5, 1.0, 2.0):
            got = GridIndex(pts, cell=r).all_pairs_within(r)
            assert np.array_equal(got, all_pairs_within_reference(pts, r))

    def test_cell_smaller_than_radius(self):
        pts = random_points(99, n=80)
        got = GridIndex(pts, cell=0.07).all_pairs_within(0.33)
        assert np.array_equal(got, all_pairs_within_reference(pts, 0.33))


# ---------------------------------------------------------------------------
# ΘALG phases (Yao cone selection + in-degree pruning)
# ---------------------------------------------------------------------------


class TestThetaEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_yao_phase1(self, seed):
        pts = random_points(seed)
        theta = math.pi / (5 + seed % 5)
        d = max_range_for_connectivity(pts, slack=1.2)
        got = yao_out_edges(pts, theta, d)
        want = yao_out_edges_reference(pts, theta, d)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_algorithm(self, seed):
        pts = random_points(seed, n=50)
        theta = math.pi / 9
        d = max_range_for_connectivity(pts, slack=1.3)
        topo = theta_algorithm(pts, theta, d)
        yao_nearest, admitted, kept = theta_edges_reference(pts, theta, d)
        assert topo.yao_nearest == yao_nearest
        assert topo.admitted == admitted
        assert as_pair_set(topo.graph.edges) == as_pair_set(kept)

    @pytest.mark.parametrize("name", ["collinear", "lattice", "two_points"])
    def test_degenerate(self, name):
        pts = DEGENERATE_POINTS[name]
        theta = math.pi / 6
        d = float(np.ptp(pts, axis=0).max()) + 1.0
        topo = theta_algorithm(pts, theta, d)
        yao_nearest, admitted, kept = theta_edges_reference(pts, theta, d)
        assert topo.yao_nearest == yao_nearest
        assert topo.admitted == admitted
        assert as_pair_set(topo.graph.edges) == as_pair_set(kept)


# ---------------------------------------------------------------------------
# Interference sets
# ---------------------------------------------------------------------------


class TestInterferenceSetsEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random(self, seed):
        pts = random_points(seed)
        d = max_range_for_connectivity(pts)
        g = transmission_graph(pts, d)
        delta = (0.0, 0.25, 0.5, 1.0)[seed % 4]
        assert interference_sets(g, delta) == interference_sets_reference(g, delta)

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_on_theta_topology(self, seed):
        pts = random_points(seed)
        d = max_range_for_connectivity(pts, slack=1.4)
        g = theta_algorithm(pts, math.pi / 9, d).graph
        for delta in (0.0, 0.5):
            assert interference_sets(g, delta) == interference_sets_reference(g, delta)

    @pytest.mark.parametrize("name", sorted(DEGENERATE_POINTS))
    def test_degenerate(self, name):
        pts = DEGENERATE_POINTS[name]
        g = transmission_graph(pts, 1.5)
        for delta in (0.0, 0.5):
            assert interference_sets(g, delta) == interference_sets_reference(g, delta)

    def test_single_edge(self):
        g = GeometricGraph(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0, 1]]))
        sets = interference_sets(g, 0.5)
        assert sets == interference_sets_reference(g, 0.5)
        assert sets == [np.array([], dtype=np.intp)]

    def test_empty_graph(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0]])
        g = GeometricGraph(pts, np.empty((0, 2), dtype=np.intp))
        assert len(interference_sets(g, 0.5)) == 0
        assert interference_sets(g, 0.5) == interference_sets_reference(g, 0.5)


# ---------------------------------------------------------------------------
# Per-edge stretch gather
# ---------------------------------------------------------------------------


class TestEdgeStretchEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_sources(self, seed):
        pts = random_points(seed, n=40)
        d = max_range_for_connectivity(pts, slack=1.4)
        ref = transmission_graph(pts, d)
        sub = theta_algorithm(pts, math.pi / 9, d).graph
        sources = np.arange(len(pts))
        d_sub = shortest_path_costs(sub, weight="cost", sources=sources)
        want = max_edge_stretch_reference(d_sub, sources, ref, ref.edge_costs)
        got = energy_stretch(sub, ref).max_edge_stretch
        assert got == pytest.approx(want, rel=0, abs=0)

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_sampled_sources(self, seed):
        pts = random_points(seed, n=40)
        d = max_range_for_connectivity(pts, slack=1.4)
        ref = transmission_graph(pts, d)
        sub = theta_algorithm(pts, math.pi / 9, d).graph
        # Same sampling as _stretch(max_sources=k) with its default rng.
        k = 11
        sources = np.sort(np.random.default_rng(0).choice(len(pts), size=k, replace=False))
        d_sub = shortest_path_costs(sub, weight="cost", sources=sources)
        want = max_edge_stretch_reference(d_sub, sources, ref, ref.edge_costs)
        got = energy_stretch(sub, ref, max_sources=k).max_edge_stretch
        assert got == pytest.approx(want, rel=0, abs=0)


# ---------------------------------------------------------------------------
# Balancing decide
# ---------------------------------------------------------------------------


class TestBalancingDecideEquivalence:
    def _random_router(self, rng, n_nodes=14, n_dests=5):
        dests = sorted(rng.choice(n_nodes, size=n_dests, replace=False).tolist())
        cfg = BalancingConfig(
            threshold=float(rng.choice([0.0, 0.5, 1.0])),
            gamma=float(rng.choice([0.0, 0.1])),
            max_height=64,
        )
        router = BalancingRouter(n_nodes, dests, cfg)
        for _ in range(int(rng.integers(10, 80))):
            dest = int(rng.choice(dests))
            node = int(rng.integers(n_nodes))
            if node == dest:
                continue
            router.inject(node, dest, int(rng.integers(1, 4)))
        return router

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_contention(self, seed):
        rng = np.random.default_rng(seed)
        router = self._random_router(rng)
        n = router.n_nodes
        # Dense directed edge soup with repeated sources → contention
        # for the same buffers, exercising the sequential fallback.
        n_edges = int(rng.integers(5, 60))
        edges = rng.integers(0, n, size=(n_edges, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        costs = rng.random(len(edges)) + 0.05
        h0 = router.heights.copy()
        got = records_of(router.decide(edges, costs))
        want = balancing_decide_reference(
            h0,
            router.destinations,
            router.config.threshold,
            router.config.gamma,
            edges,
            costs,
        )
        assert got == want
        assert np.array_equal(router.heights, h0)  # decide must not mutate

    def test_no_edges(self):
        router = BalancingRouter(4, [0], BalancingConfig(1.0, 0.0, 8))
        assert len(router.decide(np.empty((0, 2), dtype=np.intp), np.empty(0))) == 0

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hypothesis_differential(self, data):
        router, edges, costs = data.draw(_step_inputs())
        h0 = router.heights.copy()
        batch = router.decide(edges, costs)
        cfg = router.config
        want = balancing_decide_reference(
            h0, router.destinations, cfg.threshold, cfg.gamma, edges, costs
        )
        assert records_of(batch) == want
        assert np.array_equal(router.destinations[batch.col], batch.dest)
        assert np.array_equal(router.heights, h0)


# ---------------------------------------------------------------------------
# Routing step: hypothesis differentials of the columnar step against the
# per-record reference (apply and both §3.3 resolves)
# ---------------------------------------------------------------------------


@st.composite
def _step_inputs(draw):
    """A loaded router and one step's directed edges and costs.

    Few nodes, low buffer heights and repeated sources over-demand
    buffers; costs come from a small set so drops tie; γ > 0 is drawn
    half the time.
    """
    n = draw(st.integers(2, 9))
    dests = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
    cfg = BalancingConfig(
        threshold=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        gamma=draw(st.sampled_from([0.0, 0.0, 0.25, 1.0])),
        max_height=8,
    )
    router = BalancingRouter(n, dests, cfg)
    for node, dest, count in draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(dests), st.integers(1, 4)),
            max_size=25,
        )
    ):
        if node != dest:
            router.inject(node, dest, count)
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)
    )
    edges = np.asarray([p for p in pairs if p[0] != p[1]], dtype=np.intp).reshape(-1, 2)
    costs = np.asarray(
        draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=len(edges), max_size=len(edges))),
        dtype=np.float64,
    )
    return router, edges, costs


def _twin(router: BalancingRouter) -> BalancingRouter:
    twin = BalancingRouter(router.n_nodes, router.destinations, router.config)
    twin.heights[...] = router.heights
    twin.stats = copy.deepcopy(router.stats)
    return twin


class TestBalancingApplyEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hypothesis_differential(self, data):
        router, edges, costs = data.draw(_step_inputs())
        batch = router.decide(edges, costs)
        mask = np.asarray(
            data.draw(st.lists(st.booleans(), min_size=len(batch), max_size=len(batch))),
            dtype=bool,
        )
        ref = _twin(router)
        got = router.apply(batch, mask)
        want = balancing_apply_reference(ref, records_of(batch), mask)
        assert got == want
        assert np.array_equal(router.heights, ref.heights)
        assert router.stats == ref.stats

    def test_absorption_at_destination(self):
        router = BalancingRouter(3, [2], BalancingConfig(0.0, 0.0, 8))
        router.inject(0, 2, 2)
        router.inject(1, 2, 3)
        batch = TxBatch(src=[0, 1, 1], dst=[1, 2, 0], col=[0, 0, 0], dest=[2, 2, 2], cost=[1.0] * 3)
        ref = _twin(router)
        assert router.apply(batch) == balancing_apply_reference(ref, records_of(batch)) == 1
        assert np.array_equal(router.heights, ref.heights)
        assert router.heights[:, 0].tolist() == [2, 2, 0]
        assert router.stats == ref.stats

    def test_empty_buffer_send_raises_on_both_paths(self):
        router = BalancingRouter(3, [2], BalancingConfig(0.0, 0.0, 8))
        router.inject(0, 2, 1)
        # Two sends from a one-packet buffer; the second succeeds only if
        # the packet arriving at 0 in the same step were counted.
        batch = TxBatch(src=[1, 0, 0], dst=[0, 1, 2], col=[0] * 3, dest=[2] * 3, cost=[1.0] * 3)
        ref = _twin(router)
        with pytest.raises(RuntimeError, match="empty buffer"):
            router.apply(batch)
        with pytest.raises(RuntimeError, match="empty buffer"):
            balancing_apply_reference(ref, records_of(batch))
        # The production apply raises before it moves or charges anything.
        assert router.heights[:, 0].tolist() == [1, 0, 0]
        assert router.stats.attempts == 0


@st.composite
def _attempts(draw, n: int):
    """A hand-built batch: both directions of an edge, repeats, singletons."""
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=0, max_size=14)
    )
    pairs = [p for p in pairs if p[0] != p[1]]
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs += [(b, a) for (a, b), flip in zip(pairs, flips) if flip]
    src = [a for a, _ in pairs]
    dst = [b for _, b in pairs]
    return TxBatch(src, dst, [0] * len(pairs), dst, [1.0] * len(pairs))


class TestMacResolveEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**16), st.data())
    def test_random_activation_mac(self, seed, data):
        pts = np.random.default_rng(seed).random((12, 2))
        if seed % 3 == 0:
            pts = np.round(pts * 4) / 4  # lattice: equal lengths, boundary ties
        graph = GeometricGraph(pts, [(0, 1)])
        delta = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        mac = RandomActivationMAC(graph, delta, rng=0)
        batch = data.draw(_attempts(12))
        want = mac_resolve_reference(pts, delta, records_of(batch))
        assert np.array_equal(mac.success_mask(batch), want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**16), st.data())
    def test_dynamic_mac(self, seed, data):
        from repro.dynamic import DynamicInterference, DynamicMAC
        from repro.dynamic.events import NodeMove
        from repro.dynamic.incremental import IncrementalTheta

        pts = np.random.default_rng(seed).random((16, 2))
        inc = IncrementalTheta(pts, math.pi / 9, 0.6)
        di = DynamicInterference(inc, 0.5)
        di.update_event(inc.apply(NodeMove(3, 0.5, 0.5)))
        mac = DynamicMAC(di, rng=0)
        batch = data.draw(_attempts(16))
        want = mac_resolve_reference(inc.all_positions(), 0.5, records_of(batch))
        assert np.array_equal(mac.success_mask(batch), want)
