"""Incremental ΘALG maintenance: exact equivalence with from-scratch runs.

The load-bearing guarantee of :mod:`repro.dynamic.incremental` is that
after *every* event the maintained topology equals
:func:`repro.core.theta.theta_algorithm` recomputed from scratch on the
live node set, edge for edge in global-id space.  These tests assert it
over many seeded random traces (the property test) and over one long
mixed trace (the 1000-event acceptance run), plus the repair-stats and
spatial-index contracts the E23 experiment relies on.
"""

import math

import numpy as np
import pytest

from repro import (
    DynamicTopology,
    FailStop,
    IncrementalTheta,
    NodeJoin,
    NodeLeave,
    NodeMove,
    Recover,
    max_range_for_connectivity,
    random_event_trace,
    theta_algorithm,
    uniform_points,
)
from repro._reference import query_radius_reference
from repro.dynamic.events import EventTrace
from repro.geometry.spatialindex import DynamicGridIndex, GridIndex

THETA = math.pi / 9


def _maintainer(n, seed, *, slack=1.5, theta=THETA):
    pts = uniform_points(n, rng=seed)
    d0 = max_range_for_connectivity(pts, slack=slack)
    return pts, d0, IncrementalTheta(pts, theta, d0)


class TestDynamicGridIndex:
    def test_matches_static_index_queries(self):
        pts = uniform_points(120, rng=0)
        cell = 0.15
        static = GridIndex(pts, cell)
        dyn = DynamicGridIndex(pts, cell)
        gen = np.random.default_rng(1)
        for _ in range(50):
            center = gen.random(2)
            r = float(gen.uniform(0.01, 0.4))
            np.testing.assert_array_equal(
                static.query_radius(center, r), dyn.query_radius(center, r)
            )
        # exclude= behaves identically too.
        np.testing.assert_array_equal(
            static.query_radius(pts[3], cell, exclude=3),
            dyn.query_radius(pts[3], cell, exclude=3),
        )

    @staticmethod
    def _assert_many_matches_single(dyn, centers, r, exclude=None):
        # Row for row against a scan of every live node (no cells), and
        # the one-center query against the same scan.
        indptr, indices = dyn.query_radius_many(centers, r, exclude=exclude)
        assert len(indptr) == len(centers) + 1
        assert indptr[-1] == len(indices)
        for k, c in enumerate(centers):
            ex = None if exclude is None else int(exclude[k])
            want = query_radius_reference(dyn, c, r, exclude=ex)
            np.testing.assert_array_equal(indices[indptr[k] : indptr[k + 1]], want)
            np.testing.assert_array_equal(dyn.query_radius(c, r, exclude=ex), want)

    @pytest.mark.parametrize("seed", range(6))
    def test_query_radius_many_matches_per_center(self, seed):
        # Row for row against a scan of every live node, with exclude on
        # and off, radii above and below the cell, negative coordinates,
        # and centers in empty cells far outside the points.
        gen = np.random.default_rng(seed)
        pts = gen.uniform(-2.0, 1.0, (150, 2))
        dyn = DynamicGridIndex(pts, 0.25)
        for i in gen.choice(150, 20, replace=False):
            dyn.remove(int(i))
        centers = np.vstack([pts[::5], gen.uniform(-3.0, 2.0, (15, 2)), [[40.0, -40.0]]])
        ids = np.arange(len(centers), dtype=np.intp) * 3 % 150
        for r in (0.1, 0.25, 0.6):
            self._assert_many_matches_single(dyn, centers, r)
            self._assert_many_matches_single(dyn, centers, r, exclude=ids)

    @pytest.mark.parametrize("seed", range(4))
    def test_queries_match_a_scan_after_mutations(self, seed):
        # Removes, inserts (fresh ids and re-populated slots) and moves
        # within and across cells, many of them at negative cell
        # coordinates.  After each: the sorted cell arrays hold exactly
        # the live (cell code, id) pairs packed here from the positions;
        # a twin replaying the same edits through apply_shared_mutation
        # (the pool workers' path) holds the same arrays; and queries
        # match a scan of every live node.
        gen = np.random.default_rng(seed)
        cell = 0.25
        pts = gen.uniform(-2.0, 1.0, (60, 2))
        dyn = DynamicGridIndex(pts, cell)
        twin = DynamicGridIndex(pts, cell)
        for _ in range(80):
            alive = dyn.alive_ids()
            dead = np.setdiff1d(np.arange(dyn.size), alive)
            op = int(gen.integers(4))
            if op == 0 and len(alive) > 5:
                node = int(gen.choice(alive))
                record = ("remove", node, dyn.cell_key(dyn.position(node)), None)
                dyn.remove(node)
            elif op == 1:
                node = int(gen.choice(dead)) if len(dead) and gen.random() < 0.5 else dyn.size
                p = gen.uniform(-2.5, 1.5, 2)
                dyn.insert(node, p)
                record = ("insert", node, None, dyn.cell_key(p))
            else:
                node = int(gen.choice(alive))
                old_key = dyn.cell_key(dyn.position(node))
                step = gen.normal(0.0, 0.6 if op == 2 else 0.05, 2)
                dyn.move(node, dyn.position(node) + step)
                record = ("move", node, old_key, dyn.cell_key(dyn.position(node)))
            twin._pos, twin._alive = dyn._pos, dyn._alive
            twin.apply_shared_mutation(*record)
            live = dyn.alive_ids()
            ij = np.floor(dyn.positions_of(live) / cell).astype(np.int64)
            codes = (ij[:, 0] << 32) + ij[:, 1]
            assert (ij < 0).any()
            want = sorted(zip(codes.tolist(), live.tolist()))
            for index in (dyn, twin):
                assert index._cells.tolist() == sorted(codes.tolist())
                assert sorted(zip(index._cells.tolist(), index._ids.tolist())) == want
            centers = np.vstack([dyn.positions_of(live[::7]), gen.uniform(-3.0, 2.0, (4, 2))])
            r = float(gen.choice([0.1, 0.25, 0.6]))
            self._assert_many_matches_single(dyn, centers, r)
            self._assert_many_matches_single(twin, centers, r, exclude=np.arange(len(centers)))

    def test_query_radius_many_empty_inputs(self):
        dyn = DynamicGridIndex(uniform_points(10, rng=4), 0.2)
        indptr, indices = dyn.query_radius_many(np.empty((0, 2)), 0.3)
        assert indptr.tolist() == [0] and len(indices) == 0
        indptr, indices = dyn.query_radius_many(
            np.empty((0, 2)), 0.3, exclude=np.empty(0, dtype=np.intp)
        )
        assert indptr.tolist() == [0] and len(indices) == 0
        empty = DynamicGridIndex(np.empty((0, 2)), 0.2)
        indptr, indices = empty.query_radius_many(np.zeros((3, 2)), 0.3)
        assert indptr.tolist() == [0, 0, 0, 0] and len(indices) == 0
        for i in range(10):
            dyn.remove(i)
        indptr, indices = dyn.query_radius_many(dyn.positions_of(np.arange(10)), 0.5)
        assert indptr.tolist() == [0] * 11 and len(indices) == 0

    def test_query_radius_many_boundary_epsilon(self):
        # 0.500000000001² is exactly 0.5² + 1e-12 in float64: a hit on
        # the inclusive boundary.  One ulp further is out.  (Cells wider
        # than r, so the boundary hits lie in the scanned cell block.)
        x = 0.500000000001
        assert x * x == 0.5 * 0.5 + 1e-12
        out = np.nextafter(x, 1.0)
        pts = np.array([[0.0, 0.0], [x, 0.0], [0.0, -x], [out, 0.0], [-x, 0.0]])
        dyn = DynamicGridIndex(pts, 0.6)
        centers = np.array([[0.0, 0.0], [-x, 0.0]])
        indptr, indices = dyn.query_radius_many(centers, 0.5)
        assert indices[indptr[0] : indptr[1]].tolist() == [0, 1, 2, 4]
        assert indices[indptr[1] : indptr[2]].tolist() == [0, 4]
        self._assert_many_matches_single(dyn, centers, 0.5)
        # Two nodes beyond r but inside the slack (cell 0.25, reach 2):
        # node 2 lies in the cell block and is a hit, node 1 lies three
        # cells below and is not.  The cell block is part of the
        # query's rule, and of the oracle's.
        band = DynamicGridIndex(np.array([[0.0, 0.25], [0.0, -0.25 - 1e-13], [7e-7, -0.25]]), 0.25)
        assert band.query_radius(np.array([0.0, 0.25]), 0.5).tolist() == [0, 2]
        self._assert_many_matches_single(band, np.array([[0.0, 0.25], [0.0, 0.0]]), 0.5)
        self._assert_many_matches_single(dyn, centers, 0.5, exclude=np.array([0, 4]))

    def test_insert_remove_move_lifecycle(self):
        pts = uniform_points(10, rng=2)
        dyn = DynamicGridIndex(pts, 0.2)
        assert len(dyn) == 10 and dyn.size == 10
        dyn.remove(4)
        assert len(dyn) == 9 and not dyn.is_alive(4)
        assert 4 not in dyn.query_radius(pts[4], 1.5).tolist()
        # Position is retained for a later recovery-style re-insert.
        np.testing.assert_allclose(dyn.position(4), pts[4])
        dyn.insert(4, np.array([0.5, 0.5]))
        assert dyn.is_alive(4)
        dyn.move(4, np.array([0.9, 0.1]))
        np.testing.assert_allclose(dyn.position(4), [0.9, 0.1])
        dyn.insert(10, np.array([0.3, 0.3]))  # grows
        assert dyn.size == 11 and len(dyn) == 11
        assert dyn.alive_ids().tolist() == list(range(11))

    def test_query_epsilon_matches_static(self):
        # Boundary inclusion must be bit-for-bit the static index's
        # d² <= r² + 1e-12 rule, or incremental/from-scratch diverge.
        pts = np.array([[0.0, 0.0], [0.3, 0.0]])
        static = GridIndex(pts, 0.3)
        dyn = DynamicGridIndex(pts, 0.3)
        np.testing.assert_array_equal(
            static.query_radius(np.zeros(2), 0.3), dyn.query_radius(np.zeros(2), 0.3)
        )


class TestEquivalenceProperty:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_trace_equals_full_rebuild(self, seed):
        pts, d0, inc = _maintainer(40, seed)
        trace = random_event_trace(pts, 40, move_sigma=d0 / 2.0, rng=seed + 100)
        for k, ev in enumerate(trace.events()):
            inc.apply(ev)
            diff = inc.check_full_equivalence()
            assert not diff, f"seed {seed}, event {k} ({ev}): {sorted(diff)[:5]}"

    def test_thousand_event_acceptance_trace(self):
        # The ISSUE acceptance criterion: a 1000-event random trace with
        # edge-for-edge equality after every single event.
        pts, d0, inc = _maintainer(60, 23)
        trace = random_event_trace(pts, 1000, move_sigma=d0 / 2.0, rng=2023)
        assert len(trace) == 1000
        for k, ev in enumerate(trace.events()):
            inc.apply(ev)
            assert not inc.check_full_equivalence(), f"event {k}: {ev}"

    def test_large_moves_across_the_domain(self):
        # Teleport-scale moves stress the two-anchor dirty region.
        pts, d0, inc = _maintainer(40, 5)
        gen = np.random.default_rng(6)
        alive = list(range(40))
        for k in range(60):
            node = int(gen.choice(alive))
            x, y = gen.random(2)
            inc.apply(NodeMove(node, float(x), float(y)))
            assert not inc.check_full_equivalence(), f"move {k}"

    def test_offset_and_theta_variants(self):
        for theta, offset in ((math.pi / 6, 0.0), (math.pi / 9, 0.3)):
            pts = uniform_points(35, rng=7)
            d0 = max_range_for_connectivity(pts, slack=1.5)
            inc = IncrementalTheta(pts, theta, d0, offset=offset)
            trace = random_event_trace(pts, 30, rng=8)
            for ev in trace.events():
                inc.apply(ev)
                assert not inc.check_full_equivalence()


class TestRepairStats:
    def test_stats_shape_and_bounds(self):
        pts, d0, inc = _maintainer(80, 3)
        trace = random_event_trace(pts, 60, move_sigma=d0 / 2.0, rng=4)
        for ev in trace.events():
            stats = inc.apply(ev)
            assert stats.kind in ("join", "leave", "move", "fail", "recover")
            assert stats.node == ev.node
            assert stats.nodes_touched >= 1
            assert stats.edges_flipped >= 0
            assert stats.wall_time >= 0.0
            # The construction bound: repair never reaches past 2D.
            assert stats.update_radius <= 2.0 * d0 + 1e-9

    def test_initial_state_matches_scratch(self):
        pts, d0, inc = _maintainer(50, 9)
        assert inc.edge_set() == theta_algorithm(pts, THETA, d0).edge_set()
        assert not inc.check_full_equivalence()

    def test_isolated_join_touches_little(self):
        # A join far from everyone repairs only itself.
        pts = uniform_points(30, rng=10) * 0.1  # cluster in a corner
        d0 = max_range_for_connectivity(pts, slack=1.2)
        inc = IncrementalTheta(pts, THETA, d0)
        far = 0.1 + 10 * d0
        stats = inc.apply(NodeJoin(30, far, far))
        assert stats.nodes_touched == 1
        assert not inc.check_full_equivalence()


class TestValidation:
    def test_event_preconditions(self):
        pts, d0, inc = _maintainer(10, 11)
        inc.apply(FailStop(3))
        with pytest.raises(ValueError):
            inc.apply(NodeJoin(3, 0.5, 0.5))  # failed ⇒ Recover, not Join
        with pytest.raises(ValueError):
            inc.apply(FailStop(3))  # already down
        with pytest.raises(ValueError):
            inc.apply(Recover(5))  # was never failed
        # A failed node may still move: position-only, no repair.
        stats = inc.apply(NodeMove(3, 0.5, 0.5))
        assert stats.nodes_touched == 0 and stats.edges_flipped == 0
        assert not inc.check_full_equivalence()
        inc.apply(Recover(3))
        np.testing.assert_allclose(inc.position(3), [0.5, 0.5])
        assert not inc.check_full_equivalence()
        inc.apply(NodeLeave(3))
        with pytest.raises(ValueError):
            inc.apply(NodeLeave(3))
        with pytest.raises(ValueError):
            inc.apply(NodeMove(3, 0.2, 0.2))  # departed nodes don't move

    def test_failed_ids_tracking(self):
        pts, d0, inc = _maintainer(10, 12)
        assert inc.failed_ids() == set()
        inc.apply(FailStop(2))
        assert inc.failed_ids() == {2}
        assert inc.n_alive == 9
        inc.apply(Recover(2))
        assert inc.failed_ids() == set()
        assert inc.n_alive == 10


class TestDynamicTopology:
    def test_step_classification_and_counters(self):
        pts, d0, inc = _maintainer(12, 13)
        trace = EventTrace(
            [
                (0, FailStop(1)),
                (0, NodeJoin(12, 0.4, 0.4)),
                (2, Recover(1)),
                (2, NodeLeave(0)),
            ]
        )
        dyn = DynamicTopology(inc, trace)
        assert dyn.capacity == 13
        c0 = dyn.step(0)
        assert c0.events_applied == 2
        assert c0.failed_nodes == [1] and c0.removed_nodes == [1]
        assert c0.joined_nodes == [12]
        assert dyn.step(1).events_applied == 0
        c2 = dyn.step(2)
        assert c2.joined_nodes == [1] and c2.removed_nodes == [0]
        assert dyn.events_applied == 4
        assert dyn.nodes_touched_total >= 4
        # One repair per event group: each step's two events share one.
        assert len(dyn.repairs) == dyn.batch_groups_total == 2
        assert 0 not in dyn.alive_ids().tolist()
        edges = dyn.active_edges()
        assert edges.ndim == 2 and edges.shape[1] == 2
        assert not inc.check_full_equivalence()
