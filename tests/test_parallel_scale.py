"""k×k tiled scaling layer: corner halos, subscriptions, pooled MAC.

PR-10 surface, asserted bit-identical to the serial kernels:

* :class:`TileGrid` pinned ``shape=(nx, ny)`` covers, corner-halo masks
  and diagonal neighbor enumeration;
* k×k :class:`TiledEngine` construction (3×3 and 4×2 grids, uniform /
  clustered / degenerate collinear layouts, workers cycling 1/2/4/8)
  equals ``theta_algorithm`` / ``interference_sets`` edge for edge —
  including float32 shared-arena runs against a quantized serial twin;
* :class:`TileWorkerPool` halo-subscription filtering: a 1000-event
  churn trace reaches identical state per batch with filtering on and
  off, ships no more diffs filtered than broadcast, and demonstrably
  suppresses deliveries between far-apart regions;
* pool-side MAC steps merge to the exact serial
  :meth:`DynamicMAC.deterministic_step` result at every worker count,
  on the order-independent :func:`edge_uniforms` hash.
"""

import math

import numpy as np
import pytest

from repro import (
    DynamicInterference,
    IncrementalTheta,
    NodeMove,
    clustered_points,
    interference_sets,
    max_range_for_connectivity,
    random_event_trace,
    theta_algorithm,
    uniform_points,
)
from repro.dynamic import DynamicMAC, edge_uniforms
from repro.parallel import TiledEngine, TileGrid, TileWorkerPool
from tests.test_parallel_catchup import HEIGHT, WIDTH, strip_churn

THETA = math.pi / 9
DELTA = 0.5
SEEDS = list(range(20))
#: Worker count per seed — cycles the 1/2/4/8 matrix through the suite.
WORKERS = {s: (1, 2, 4, 8)[s % 4] for s in SEEDS}
#: Pinned grid shape per seed — alternates the 3×3 and 4×2 cases.
SHAPES = {s: ((3, 3), (4, 2))[s % 2] for s in SEEDS}


def _layout(n, seed):
    """Uniform / degenerate clustered / degenerate collinear by seed."""
    kind = seed % 3
    if kind == 1:
        return clustered_points(n, n_clusters=3, spread=0.02, rng=seed)
    if kind == 2:
        # Collinear: zero y-extent collapses the grid's y axis to 1.
        rng = np.random.default_rng(seed)
        return np.column_stack([np.sort(rng.random(n)), np.full(n, 0.25)])
    return uniform_points(n, rng=seed)


def _capacity(inc, events):
    return max([inc.size] + [int(ev.node) + 1 for ev in events]) + 8


class TestGridShapes:
    def test_cover_pins_shape_exactly(self):
        g = TileGrid.cover((0.0, 0.0, 30.0, 30.0), shape=(3, 3))
        assert g.shape == (3, 3) and g.n_tiles == 9
        assert g.tile_w == pytest.approx(10.0) and g.tile_h == pytest.approx(10.0)
        g = TileGrid.cover((0.0, 0.0, 40.0, 10.0), shape=(4, 2))
        assert g.shape == (4, 2) and g.n_tiles == 8

    def test_degenerate_extent_collapses_axis(self):
        g = TileGrid.cover((0.0, 0.5, 1.0, 0.5), shape=(3, 3))
        assert g.shape == (3, 1)
        g = TileGrid.cover((0.2, 0.0, 0.2, 2.0), shape=(4, 2))
        assert g.shape == (1, 2)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            TileGrid.cover((0.0, 0.0, 1.0, 1.0), shape=(0, 3))

    def test_neighbors_include_diagonals(self):
        g = TileGrid.cover((0.0, 0.0, 30.0, 30.0), shape=(3, 3))
        center = 1 * 3 + 1  # (tx, ty) = (1, 1), column-major
        assert g.neighbors(center) == (0, 1, 2, 3, 5, 6, 7, 8)
        assert g.neighbors(center, diagonal=False) == (1, 3, 5, 7)
        assert g.neighbors(0) == (1, 3, 4)  # corner tile: 2 axis + 1 diagonal
        assert g.neighbors(0, diagonal=False) == (1, 3)

    def test_corner_mask_isolates_diagonal_halo(self):
        g = TileGrid.cover((0.0, 0.0, 30.0, 30.0), shape=(3, 3))
        center = 4  # owns [10, 20] × [10, 20]
        pts = np.array(
            [
                [9.0, 9.0],  # within halo 2, outside both axes → corner
                [9.0, 15.0],  # axis halo (west band) — not a corner
                [15.0, 21.0],  # axis halo (north band) — not a corner
                [7.0, 7.0],  # diagonal but beyond halo 2
                [15.0, 15.0],  # interior
                [21.5, 21.5],  # within halo 2, outside both axes → corner
            ]
        )
        corner = g.corner_mask(pts, center, 2.0)
        assert corner.tolist() == [True, False, False, False, False, True]
        # corners are a subset of the halo rectangle
        assert not (corner & ~g.halo_mask(pts, center, 2.0)).any()
        # border tiles own their overhang: ±inf sides never make corners
        assert not g.corner_mask(np.array([[-5.0, -5.0]]), 0, 2.0).any()

    def test_ownership_partitions_any_shape(self):
        pts = uniform_points(200, rng=0) * 7.0 - 1.0
        for shape in [(3, 3), (4, 2), (1, 1), (5, 1)]:
            g = TileGrid.cover((0.0, 0.0, 5.0, 5.0), shape=shape)
            owners = g.tile_of_many(pts)
            assert ((owners >= 0) & (owners < g.n_tiles)).all()
            # halo 0 masks per tile tile exactly reproduce ownership
            owned = sum(int(g.halo_mask(pts, t, 0.0).sum()) for t in range(g.n_tiles))
            assert owned >= len(pts)  # shared tile boundaries may double-count


class TestKxKConstruction:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_theta_and_conflict_match_serial(self, seed):
        pts = _layout(130, seed)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        shape = SHAPES[seed]
        topo = theta_algorithm(pts, THETA, d0)
        with TiledEngine(workers=WORKERS[seed], tiles=shape) as eng:
            tiled = eng.theta(pts, THETA, d0, delta=DELTA)
            sets_t, cstats = eng.interference_sets(topo.graph, DELTA)
        assert tiled.edge_set() == topo.edge_set()
        sets_s = interference_sets(topo.graph, DELTA)
        assert np.array_equal(sets_t.indptr, sets_s.indptr)
        assert np.array_equal(sets_t.indices, sets_s.indices)
        # collinear layouts collapse the y axis; everything else pins k×k
        expect = (shape[0], 1) if seed % 3 == 2 else shape
        assert tiled.stats.shape == expect
        assert cstats.shape == expect
        if seed % 3 != 2:
            # a true 2-D grid has interior corners: the diagonal-neighbor
            # halo exchange must be visible in the accounting
            assert tiled.stats.corner_halo_items > 0

    def test_corner_clusters_cross_diagonal_tiles(self):
        # Mass piled on the four interior tile-corner junctions of a 3×3
        # grid — the worst case for corner halos: admissions at each
        # junction need state from all three neighbors incl. diagonal.
        rng = np.random.default_rng(77)
        centers = np.array([[1, 1], [1, 2], [2, 1], [2, 2]]) / 3.0
        pts = np.vstack(
            [c + rng.normal(scale=0.012, size=(30, 2)) for c in centers]
            + [rng.random((20, 2))]
        )
        d0 = max_range_for_connectivity(pts, slack=1.5)
        topo = theta_algorithm(pts, THETA, d0)
        with TiledEngine(workers=2, tiles=(3, 3)) as eng:
            tiled = eng.theta(pts, THETA, d0)
            sets_t, cstats = eng.interference_sets(topo.graph, DELTA)
        assert tiled.edge_set() == topo.edge_set()
        assert np.array_equal(sets_t.indices, interference_sets(topo.graph, DELTA).indices)
        assert tiled.stats.corner_halo_items > 0
        assert cstats.corner_halo_items > 0

    def test_adaptive_shape_scales_with_workers(self):
        pts = uniform_points(120, rng=4)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        topo = theta_algorithm(pts, THETA, d0)
        with TiledEngine(workers=2) as eng:  # no tiles= → adaptive
            tiled = eng.theta(pts, THETA, d0)
            assert tiled.edge_set() == topo.edge_set()
            nx, ny = tiled.stats.shape
            assert nx * ny == tiled.stats.n_tiles >= 1

    def test_float32_arena_matches_quantized_serial(self):
        pts = uniform_points(140, rng=8)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        # the float32 cast is the only lossy step: the serial reference
        # must be quantized through the same dtype
        quantized = pts.astype(np.float32).astype(np.float64)
        topo = theta_algorithm(quantized, THETA, d0)
        with TiledEngine(workers=2, tiles=(3, 3)) as eng:
            tiled = eng.theta(pts, THETA, d0, share_dtype=np.float32)
        assert tiled.edge_set() == topo.edge_set()


class TestHaloSubscriptions:
    def _twins(self, pts, d0):
        inc = IncrementalTheta(pts, THETA, d0)
        return inc, DynamicInterference(inc, DELTA)

    def test_thousand_event_filter_on_off(self):
        pts = uniform_points(200, rng=11)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        trace = random_event_trace(
            pts, 1000, move_sigma=d0 / 2.0, rng=np.random.default_rng(4321)
        )
        events = list(trace.events())
        inc_f, di_f = self._twins(pts, d0)
        inc_b, di_b = self._twins(pts, d0)
        inc_s, di_s = self._twins(pts, d0)
        cap = _capacity(inc_f, events)
        # Pinned 2×1 tiles: the default cover of this narrow world is one
        # tile, which would leave the second worker without one.
        with TileWorkerPool(
            inc_f, di_f, workers=2, capacity=cap, tiles=(2, 1), halo_filter=True
        ) as filt, TileWorkerPool(
            inc_b, di_b, workers=2, capacity=cap, tiles=(2, 1), halo_filter=False
        ) as bcast:
            for lo in range(0, len(events), 25):
                batch = events[lo : lo + 25]
                sf = filt.apply_batch(batch)
                sb = bcast.apply_batch(batch)
                for ev in batch:
                    di_s.update_event(inc_s.apply(ev))
                # identical state with filtering on, off, and serially
                assert inc_f.edge_set() == inc_s.edge_set() == inc_b.edge_set()
                rows_s = di_s.interference_sets()
                assert di_f.interference_sets() == rows_s
                assert di_b.interference_sets() == rows_s
                assert sb.diffs_suppressed == 0  # broadcast never defers
            assert not inc_f.check_full_equivalence()
            assert di_f.check_full_equivalence() == 0
            # broadcast ships every (diff, worker) pair once; filtered,
            # a pair is shipped, withheld, or refreshed as region state
            # only where a worker reads — cumulative traffic can only shrink
            assert filt.diffs_replayed_total <= bcast.diffs_replayed_total
            assert filt.diffs_suppressed_total <= bcast.diffs_replayed_total + sum(
                len(p) for p in bcast._pending
            )

    def test_distant_clusters_suppress_deliveries(self):
        # Two dense clusters ≫ (9+3Δ)D apart on a 2×1 grid: each worker
        # owns one cluster, so the other cluster's churn must be withheld.
        rng = np.random.default_rng(5)
        d0 = 15.0
        a = rng.normal(scale=4.0, size=(50, 2)) + [0.0, 0.0]
        b = rng.normal(scale=4.0, size=(50, 2)) + [2000.0, 0.0]
        pts = np.vstack([a, b])
        inc, di = self._twins(pts, d0)
        inc_s, di_s = self._twins(pts, d0)
        events = []
        for step in range(4):
            ids = rng.choice(len(pts), size=10, replace=False)
            batch = []
            for i in ids:
                base = [0.0, 0.0] if i < 50 else [2000.0, 0.0]
                p = rng.normal(scale=4.0, size=2) + base
                batch.append(NodeMove(node=int(i), x=float(p[0]), y=float(p[1])))
            events.append(batch)
        with TileWorkerPool(
            inc, di, workers=2, capacity=len(pts) + 8, tiles=(2, 1)
        ) as pool:
            assert pool.grid.shape == (2, 1)
            for step, batch in enumerate(events):
                pool.apply_batch(batch)
                for ev in batch:
                    di_s.update_event(inc_s.apply(ev))
                assert inc.edge_set() == inc_s.edge_set()
                assert di.interference_sets() == di_s.interference_sets()
                # the pooled MAC stays exact while deliveries are withheld
                mac = pool.mac_step(seed=31, step=step)
                ref = DynamicMAC(di_s, bound_mode="own").deterministic_step(
                    seed=31, step=step
                )
                assert np.array_equal(mac.edges, ref.edges)
                assert np.array_equal(mac.ok, ref.ok)
            assert pool.diffs_suppressed_total > 0
            assert not inc.check_full_equivalence()
            assert di.check_full_equivalence() == 0

    def test_refresh_path_stays_exact(self):
        # A 2×1 strip where each half reaches into the other worker's
        # territory: far churn is withheld and leaves stale cells, and
        # groups near the border, long moves across it and pending
        # diffs over stale cells make the workers refresh them from the
        # parent's state — refreshes change traffic, never state.
        gen = np.random.default_rng(1)
        pts = gen.random((520, 2)) * [WIDTH, HEIGHT]
        batches = strip_churn(gen, pts, 12, 10, long_share=0.0)
        inc = IncrementalTheta(pts, THETA, 1.0)
        di = DynamicInterference(inc, DELTA)
        inc_s = IncrementalTheta(pts, THETA, 1.0)
        di_s = DynamicInterference(inc_s, DELTA)
        cap = _capacity(inc, [ev for b in batches for ev in b])
        with TileWorkerPool(inc, di, workers=2, capacity=cap, tiles=(2, 1)) as pool:
            assert pool.grid.shape == (2, 1)
            for step, batch in enumerate(batches):
                pool.apply_batch(batch)
                for ev in batch:
                    di_s.update_event(inc_s.apply(ev))
                assert inc.edge_set() == inc_s.edge_set()
                assert di.interference_sets() == di_s.interference_sets()
                mac = pool.mac_step(seed=7, step=step)
                ref = DynamicMAC(di_s, bound_mode="own").deterministic_step(seed=7, step=step)
                assert np.array_equal(mac.edges, ref.edges)
                assert np.array_equal(mac.ok, ref.ok)
            assert pool.diffs_suppressed_total > 0
            assert pool.cells_refreshed_total > 0
            assert pool.diffs_replayed_total > 0

    def test_grid_tiles_argument_validation(self):
        pts = uniform_points(40, rng=2)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc = IncrementalTheta(pts, THETA, d0)
        grid = TileGrid.cover((0.0, 0.0, 1.0, 1.0), shape=(2, 2))
        with pytest.raises(ValueError, match="not both"):
            TileWorkerPool(inc, workers=1, capacity=64, grid=grid, tiles=(2, 2))

    def test_workers_capped_at_tile_count(self):
        # A unit-square world is narrower than two independence widths:
        # its default cover is one tile, so one worker starts, not two.
        pts = uniform_points(60, rng=3)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc = IncrementalTheta(pts, THETA, d0)
        with TileWorkerPool(inc, workers=2, capacity=inc.size + 8) as pool:
            assert pool.grid.shape == (1, 1)
            assert pool.workers == 1
            assert len(pool._procs) == len(pool._conns) == 1
            node = int(inc.alive_ids()[0])
            x, y = (float(v) for v in inc._index.position(node))
            stats = pool.apply_batch([NodeMove(node=node, x=x + 1e-3, y=y)])
            assert stats.jobs == 1
            assert not inc.check_full_equivalence()

    def test_pool_telemetry_carries_halo_traffic(self):
        pts = uniform_points(100, rng=21)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        trace = random_event_trace(
            pts, 30, move_sigma=d0 / 2.0, rng=np.random.default_rng(7)
        )
        events = list(trace.events())
        inc, di = self._twins(pts, d0)
        with TileWorkerPool(
            inc, di, workers=2, capacity=_capacity(inc, events), tiles=(2, 1)
        ) as pool:
            pool.apply_batch(events)
            snap = pool.telemetry_snapshot()
            assert sorted(snap) == [0, 1]
            for wid, tele in snap.items():
                assert tele["diffs_in"] >= 0
                assert tele["diffs_suppressed"] >= 0
                assert tele["stale_cells"] == len(pool._stale[wid])
                assert tele["shm_bytes"] == pool._arena.nbytes > 0
                assert tele["rss_bytes"] > 0


class TestPooledMac:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_mac_step_bit_identical_to_serial(self, workers):
        pts = uniform_points(220, rng=31) * 3.0
        d0 = max_range_for_connectivity(pts, slack=1.5)
        trace = random_event_trace(
            pts, 60, move_sigma=d0 / 2.0, rng=np.random.default_rng(600 + workers)
        )
        events = list(trace.events())
        inc = IncrementalTheta(pts, THETA, d0)
        di = DynamicInterference(inc, DELTA)
        inc_s = IncrementalTheta(pts, THETA, d0)
        di_s = DynamicInterference(inc_s, DELTA)
        mac_s = DynamicMAC(di_s, bound_mode="own")
        with TileWorkerPool(
            inc, di, workers=workers, capacity=_capacity(inc, events)
        ) as pool:
            for lo in range(0, len(events), 20):
                pool.apply_batch(events[lo : lo + 20])
                for ev in events[lo : lo + 20]:
                    di_s.update_event(inc_s.apply(ev))
                for step in (lo, lo + 1):
                    got = pool.mac_step(seed=911, step=step)
                    ref = mac_s.deterministic_step(seed=911, step=step)
                    assert np.array_equal(got.edges, ref.edges)
                    assert np.array_equal(got.ok, ref.ok)
                    assert np.array_equal(got.costs, ref.costs)
                    assert got.activated == ref.activated
                    assert got.succeeded == ref.succeeded

    def test_mac_requires_interference_replica(self):
        pts = uniform_points(40, rng=3)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc = IncrementalTheta(pts, THETA, d0)
        with TileWorkerPool(inc, workers=1, capacity=64) as pool:
            with pytest.raises(RuntimeError, match="DynamicInterference"):
                pool.mac_step(seed=1, step=0)


class TestEdgeUniforms:
    def test_order_and_subset_independent(self):
        codes = (np.arange(50, dtype=np.int64) << 32) | np.arange(1, 51)
        u = edge_uniforms(codes, 5, 3)
        perm = np.random.default_rng(0).permutation(50)
        assert np.array_equal(edge_uniforms(codes[perm], 5, 3), u[perm])
        assert np.array_equal(edge_uniforms(codes[:7], 5, 3), u[:7])

    def test_uniform_range_and_sensitivity(self):
        codes = (np.arange(2000, dtype=np.int64) << 32) | 1
        u = edge_uniforms(codes, 9, 0)
        assert ((u >= 0.0) & (u < 1.0)).all()
        assert 0.3 < u.mean() < 0.7  # crude uniformity sanity check
        assert not np.array_equal(u, edge_uniforms(codes, 10, 0))
        assert not np.array_equal(u, edge_uniforms(codes, 9, 1))

    def test_empty_input(self):
        assert edge_uniforms(np.empty(0, dtype=np.int64), 1, 1).shape == (0,)
