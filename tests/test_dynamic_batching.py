"""Disjoint-region parallel event application: serial equivalence.

Property: phase-A-then-batch-wide-repair of a step's independent event
groups produces exactly the edge set and conflict CSR that serial
per-event application produces.
Asserted over 20 seeded random traces, a high-churn burst, and the
grouping-layer unit contracts (same-node events share a group, distant
events do not, group order follows trace order).
"""

import math

import numpy as np
import pytest

from repro import (
    DynamicInterference,
    IncrementalTheta,
    NodeJoin,
    NodeLeave,
    NodeMove,
    apply_events_parallel,
    group_events,
    max_range_for_connectivity,
    random_event_trace,
    uniform_points,
)
from repro.dynamic.batching import independence_radius

THETA = math.pi / 9
DELTA = 0.5
SEEDS = list(range(20))


def _build(n, seed, *, slack=1.5):
    pts = uniform_points(n, rng=seed)
    d0 = max_range_for_connectivity(pts, slack=slack)
    return pts, d0, IncrementalTheta(pts, THETA, d0)


def _serial_apply(pts, d0, events, *, with_interference):
    inc = IncrementalTheta(pts, THETA, d0)
    di = DynamicInterference(inc, DELTA) if with_interference else None
    for ev in events:
        stats = inc.apply(ev)
        if di is not None:
            di.update_event(stats)
    return inc, di


class TestGrouping:
    def test_same_node_events_share_group(self):
        pts, d0, inc = _build(80, 0)
        node = int(inc.alive_ids()[0])
        far = int(inc.alive_ids()[-1])
        events = [
            NodeMove(node=node, x=0.1, y=0.1),
            NodeLeave(node=far),
            NodeMove(node=node, x=0.9, y=0.9),
        ]
        groups = group_events(inc, events, radius=1e-9)
        by_event = {i: gi for gi, g in enumerate(groups) for i in g}
        assert by_event[0] == by_event[2]

    def test_distant_events_split_with_small_radius(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.1], [50.0, 50.0], [50.0, 50.1]])
        inc = IncrementalTheta(pts, THETA, 1.0)
        events = [NodeMove(node=0, x=0.05, y=0.0), NodeMove(node=2, x=50.05, y=50.0)]
        groups = group_events(inc, events, radius=2.0)
        assert len(groups) == 2
        assert groups[0] == [0] and groups[1] == [1]

    def test_nearby_events_merge(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.1], [50.0, 50.0], [50.0, 50.1]])
        inc = IncrementalTheta(pts, THETA, 1.0)
        events = [NodeMove(node=0, x=0.05, y=0.0), NodeMove(node=1, x=0.0, y=0.15)]
        groups = group_events(inc, events, radius=2.0)
        assert groups == [[0, 1]]

    def test_groups_ordered_by_first_event_index(self):
        pts = np.array([[0.0, 0.0], [50.0, 50.0], [100.0, 0.0]])
        inc = IncrementalTheta(pts, THETA, 1.0)
        events = [
            NodeMove(node=2, x=100.0, y=0.1),
            NodeMove(node=0, x=0.0, y=0.1),
            NodeMove(node=1, x=50.0, y=50.1),
        ]
        groups = group_events(inc, events, radius=2.0)
        assert [g[0] for g in groups] == [0, 1, 2]

    def test_join_chain_within_batch_groups_cleanly(self):
        # Later events may reference nodes earlier events just created.
        pts, d0, inc = _build(40, 1)
        nid = inc.size
        events = [
            NodeJoin(node=nid, x=0.5, y=0.5),
            NodeMove(node=nid, x=0.52, y=0.5),
            NodeLeave(node=nid),
        ]
        groups = group_events(inc, events)
        by_event = {i: gi for gi, g in enumerate(groups) for i in g}
        assert by_event[0] == by_event[1] == by_event[2]

    def test_independence_radius_scale(self):
        assert independence_radius(1.0, 0.0) == pytest.approx(8.0)
        assert independence_radius(2.0, 0.5) == pytest.approx(18.0)


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_edges_and_conflict_rows(self, seed):
        pts, d0, _ = _build(100, seed)
        trace = random_event_trace(
            pts, 60, move_sigma=d0 / 2.0, rng=np.random.default_rng(500 + seed)
        )
        events = list(trace.events())
        inc_s, di_s = _serial_apply(pts, d0, events, with_interference=True)
        inc_p = IncrementalTheta(pts, THETA, d0)
        di_p = DynamicInterference(inc_p, DELTA)
        for lo in range(0, len(events), 12):
            apply_events_parallel(
                inc_p, events[lo : lo + 12], interference=di_p
            )
        assert np.array_equal(inc_s.edge_array(), inc_p.edge_array())
        assert di_s.interference_sets() == di_p.interference_sets()
        assert di_p.check_full_equivalence() == 0

    def test_high_churn_burst_one_batch(self):
        pts, d0, _ = _build(150, 7)
        trace = random_event_trace(
            pts, 100, move_sigma=d0 / 2.0, rng=np.random.default_rng(77)
        )
        events = list(trace.events())
        inc_s, _ = _serial_apply(pts, d0, events, with_interference=False)
        inc_p = IncrementalTheta(pts, THETA, d0)
        stats = apply_events_parallel(inc_p, events)
        assert stats.events == 100
        assert sum(stats.group_sizes) == 100
        assert np.array_equal(inc_s.edge_array(), inc_p.edge_array())

    def test_apply_batch_merged_region_equivalence(self):
        # The merged-region batch API reaches the same fixed point too.
        pts, d0, _ = _build(90, 9)
        trace = random_event_trace(
            pts, 50, move_sigma=d0 / 2.0, rng=np.random.default_rng(99)
        )
        events = list(trace.events())
        inc_s, _ = _serial_apply(pts, d0, events, with_interference=False)
        inc_b = IncrementalTheta(pts, THETA, d0)
        for lo in range(0, len(events), 10):
            inc_b.apply_batch(events[lo : lo + 10])
        assert np.array_equal(inc_s.edge_array(), inc_b.edge_array())
        assert not inc_b.check_full_equivalence()


class TestBackendSelection:
    def _trace(self, n_events, seed=6):
        pts, d0, _ = _build(120, seed)
        trace = random_event_trace(
            pts, n_events, move_sigma=d0 / 2.0, rng=np.random.default_rng(seed)
        )
        return pts, d0, list(trace.events())

    def test_explicit_serial_backend(self):
        pts, d0, events = self._trace(30)
        inc = IncrementalTheta(pts, THETA, d0)
        stats = apply_events_parallel(inc, events, backend="serial")
        assert stats.backend == "serial" and stats.jobs == 1

    def test_process_backend_requires_pool(self):
        pts, d0, events = self._trace(10)
        inc = IncrementalTheta(pts, THETA, d0)
        with pytest.raises(ValueError, match="pool"):
            apply_events_parallel(inc, events, backend="process")

    def test_unknown_backend_rejected(self):
        pts, d0, events = self._trace(10)
        inc = IncrementalTheta(pts, THETA, d0)
        for backend in ("gpu", "thread"):
            with pytest.raises(ValueError, match="backend"):
                apply_events_parallel(inc, events, backend=backend)

    def test_radius_below_independence_rejected(self):
        # Groups closer than the independence radius could share state,
        # which the batch-wide repair kernels rely on never happening.
        pts, d0, events = self._trace(10)
        inc = IncrementalTheta(pts, THETA, d0)
        with pytest.raises(ValueError, match="independence radius"):
            apply_events_parallel(inc, events, radius=d0)
        assert inc.topology_version == 0


class TestBatchStats:
    def test_stats_shape_and_changelog(self):
        pts, d0, _ = _build(80, 3)
        trace = random_event_trace(
            pts, 20, move_sigma=d0 / 2.0, rng=np.random.default_rng(33)
        )
        inc = IncrementalTheta(pts, THETA, d0)
        di = DynamicInterference(inc, DELTA)
        stats = apply_events_parallel(inc, list(trace.events()), interference=di)
        assert stats.groups == len(stats.group_sizes) >= 1
        assert stats.wall_time > 0
        assert stats.conflict_rows_touched == sum(
            cs.rows_recomputed for cs in stats.conflict_repairs
        )
        assert di.check_full_equivalence() == 0

    def test_empty_and_dead_move_batches(self):
        from repro import FailStop

        pts, d0, _ = _build(40, 4)
        inc = IncrementalTheta(pts, THETA, d0)
        di = DynamicInterference(inc, DELTA)
        stats = apply_events_parallel(inc, [], interference=di)
        assert stats.events == 0 and stats.groups == 0
        node = int(inc.alive_ids()[0])
        apply_events_parallel(inc, [FailStop(node=node)], interference=di)
        # A dead node's move repairs nothing but must keep the version sync.
        stats = apply_events_parallel(
            inc, [NodeMove(node=node, x=0.2, y=0.2)], interference=di
        )
        assert stats.nodes_touched == 0
        assert di.check_full_equivalence() == 0
