"""Tiled/process-parallel layer: bit-identical to the serial kernels.

Property, asserted over 20 seeded layouts (uniform and degenerate
clustered) with worker counts cycling through 1/2/4:

* :func:`tiled_theta` builds edge-for-edge the same ΘALG topology as
  ``theta_algorithm`` and :func:`tiled_interference_sets` the same
  conflict CSR as ``interference_sets``;
* :class:`TileWorkerPool` churn application reaches the same edge set
  and conflict rows as serial per-event application after **every**
  batch — including a 1000-event trace — and the from-scratch
  equivalence backstops stay clean.
"""

import math

import numpy as np
import pytest

from repro import (
    DynamicInterference,
    DynamicTopology,
    EventTrace,
    IncrementalTheta,
    NodeMove,
    clustered_points,
    interference_sets,
    max_range_for_connectivity,
    random_event_trace,
    theta_algorithm,
    uniform_points,
)
from repro.parallel import TiledEngine, TileWorkerPool, tiled_interference_sets, tiled_theta

THETA = math.pi / 9
DELTA = 0.5
SEEDS = list(range(20))
#: worker count per seed — cycles the 1/2/4 matrix through the suite.
WORKERS = {s: (1, 2, 4)[s % 3] for s in SEEDS}


def _layout(n, seed):
    """Uniform for even seeds, degenerate clustered for odd ones."""
    if seed % 2:
        return clustered_points(n, n_clusters=3, spread=0.02, rng=seed)
    return uniform_points(n, rng=seed)


def _serial_twin(pts, d0, events, *, batch=15):
    """Serial per-event application, yielding state after each batch."""
    inc = IncrementalTheta(pts, THETA, d0)
    di = DynamicInterference(inc, DELTA)
    for lo in range(0, len(events), batch):
        for ev in events[lo : lo + batch]:
            di.update_event(inc.apply(ev))
        yield inc, di


class TestTiledConstruction:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_theta_and_conflict_match_serial(self, seed):
        pts = _layout(130, seed)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        topo = theta_algorithm(pts, THETA, d0)
        with TiledEngine(workers=WORKERS[seed], tiles=6) as eng:
            tiled = eng.theta(pts, THETA, d0, delta=DELTA)
            sets_t, stats = eng.interference_sets(topo.graph, DELTA)
        assert tiled.edge_set() == topo.edge_set()
        sets_s = interference_sets(topo.graph, DELTA)
        assert np.array_equal(sets_t.indptr, sets_s.indptr)
        assert np.array_equal(sets_t.indices, sets_s.indices)
        assert stats.n_tiles >= 1 and sum(stats.owned) == len(topo.graph.edges)

    def test_one_shot_wrappers(self):
        pts = uniform_points(90, rng=42)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        topo = theta_algorithm(pts, THETA, d0)
        assert tiled_theta(pts, THETA, d0, workers=2).edge_set() == topo.edge_set()
        sets = tiled_interference_sets(topo.graph, DELTA, workers=2)
        serial = interference_sets(topo.graph, DELTA)
        assert np.array_equal(sets.indices, serial.indices)

    def test_degenerate_all_points_one_tile(self):
        # All mass in one corner: every other tile owns nothing.
        pts = clustered_points(70, n_clusters=1, spread=0.01, rng=5)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        topo = theta_algorithm(pts, THETA, d0)
        with TiledEngine(workers=2, tiles=8) as eng:
            tiled = eng.theta(pts, THETA, d0)
        assert tiled.edge_set() == topo.edge_set()

    def test_empty_and_tiny_inputs(self):
        with TiledEngine(workers=1) as eng:
            assert len(eng.theta(np.empty((0, 2)), THETA, 1.0).graph.edges) == 0
            one = eng.theta(np.array([[0.5, 0.5]]), THETA, 1.0)
            assert len(one.graph.edges) == 0


class TestProcessPoolChurn:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batchwise_equivalence(self, seed):
        pts = _layout(110, seed)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        trace = random_event_trace(
            pts, 45, move_sigma=d0 / 2.0, rng=np.random.default_rng(900 + seed)
        )
        events = list(trace.events())
        inc = IncrementalTheta(pts, THETA, d0)
        di = DynamicInterference(inc, DELTA)
        cap = max([inc.size] + [int(ev.node) + 1 for ev in events]) + 8
        twins = _serial_twin(pts, d0, events, batch=15)
        # Pinned 2×2 tiles give every worker count of the matrix a tile
        # (the default cover of a unit-square world is one tile).
        with TileWorkerPool(
            inc, di, workers=WORKERS[seed], capacity=cap, tiles=(2, 2)
        ) as pool:
            for lo in range(0, len(events), 15):
                stats = pool.apply_batch(events[lo : lo + 15])
                inc_s, di_s = next(twins)
                assert inc.edge_set() == inc_s.edge_set()
                assert di.interference_sets() == di_s.interference_sets()
                assert stats.backend == "process"
                assert stats.jobs == WORKERS[seed]
            assert not inc.check_full_equivalence()
            assert di.check_full_equivalence() == 0

    def test_thousand_event_trace(self):
        pts = uniform_points(200, rng=11)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        trace = random_event_trace(
            pts, 1000, move_sigma=d0 / 2.0, rng=np.random.default_rng(1234)
        )
        events = list(trace.events())
        inc = IncrementalTheta(pts, THETA, d0)
        di = DynamicInterference(inc, DELTA)
        cap = max([inc.size] + [int(ev.node) + 1 for ev in events]) + 8
        twins = _serial_twin(pts, d0, events, batch=25)
        halo_total = 0
        with TileWorkerPool(inc, di, workers=2, capacity=cap) as pool:
            for lo in range(0, len(events), 25):
                stats = pool.apply_batch(events[lo : lo + 25])
                halo_total += stats.halo_nodes
                inc_s, di_s = next(twins)
                assert inc.edge_set() == inc_s.edge_set()
                assert di.interference_sets() == di_s.interference_sets()
            assert not inc.check_full_equivalence()
            assert di.check_full_equivalence() == 0
        # diffs crossed worker boundaries (the halo exchange did work)
        assert halo_total > 0

    def test_pool_without_interference(self):
        pts = uniform_points(80, rng=3)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        trace = random_event_trace(
            pts, 40, move_sigma=d0 / 2.0, rng=np.random.default_rng(8)
        )
        events = list(trace.events())
        inc_s = IncrementalTheta(pts, THETA, d0)
        for ev in events:
            inc_s.apply(ev)
        inc = IncrementalTheta(pts, THETA, d0)
        cap = max([inc.size] + [int(ev.node) + 1 for ev in events]) + 8
        with TileWorkerPool(inc, workers=2, capacity=cap) as pool:
            pool.apply_batch(events)
        assert inc.edge_set() == inc_s.edge_set()
        assert not inc.check_full_equivalence()

    def test_one_event_steps_reach_the_workers(self):
        # A step of one event used to skip the pool: the parent repaired
        # it alone, the workers never saw it, and the next step's group
        # repair in a worker ran on state that lacked it.
        pts = uniform_points(300, rng=5)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        u = 17
        v = int(np.argsort(np.hypot(*(pts - pts[u]).T))[1])
        shift = np.array([0.3 * d0, 0.0])
        items = [
            (0, NodeMove(u, *(pts[u] + shift))),
            (1, NodeMove(u, *(pts[u] - shift))),
            (1, NodeMove(v, *(pts[v] + shift))),
        ]
        inc = IncrementalTheta(pts, THETA, d0)
        di = DynamicInterference(inc, DELTA)
        inc_s = IncrementalTheta(pts, THETA, d0)
        di_s = DynamicInterference(inc_s, DELTA)
        with DynamicTopology(
            inc, EventTrace(items), interference=di, backend="process", workers=2
        ) as topo:
            topo._process_pool()  # workers fork before the first step
            for t in range(2):
                topo.step(t)
        for _, ev in items:
            di_s.update_event(inc_s.apply(ev))
        assert inc.edge_set() == inc_s.edge_set()
        assert di.interference_sets() == di_s.interference_sets()

    def test_closed_pool_refuses_batches(self):
        pts = uniform_points(40, rng=1)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc = IncrementalTheta(pts, THETA, d0)
        pool = TileWorkerPool(inc, workers=1, capacity=inc.size + 8)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.apply_batch([])

    def test_mismatched_interference_rejected(self):
        pts = uniform_points(40, rng=2)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc_a = IncrementalTheta(pts, THETA, d0)
        inc_b = IncrementalTheta(pts, THETA, d0)
        di_b = DynamicInterference(inc_b, DELTA)
        with pytest.raises(ValueError, match="different IncrementalTheta"):
            TileWorkerPool(inc_a, di_b, workers=1, capacity=inc_a.size + 8)
