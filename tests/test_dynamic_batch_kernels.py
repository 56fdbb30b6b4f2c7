"""Batch-wide repair kernels against one-group calls, group by group.

:meth:`IncrementalTheta._repair_groups` and
:meth:`DynamicInterference.update_groups` repair every independent event
group of a batch in shared array passes.  Each group's stats, changelog
and diffs must equal a repair of that group on its own.  These tests
generate worlds of 1–5 clusters placed beyond the independence radius,
churn them with mixed join, leave, fail, recover and move events
(including moves of failed nodes and joins with no neighbour), group
the events with :func:`group_events`, and run the batch-wide kernels on
one state and one-group calls (:meth:`IncrementalTheta._repair_batch`,
:meth:`DynamicInterference.update`) on a twin state.  Topology diffs
(node ids with their table rows) and row diffs are sorted arrays and
compared exactly.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DynamicInterference,
    FailStop,
    IncrementalTheta,
    NodeJoin,
    NodeLeave,
    NodeMove,
    Recover,
    group_events,
)
from repro.dynamic.batching import independence_radius, moved_nodes
from repro.obs import metrics

D = 1.0
THETA = math.pi / 6
#: Cluster boxes are 2·HALF wide and SPACING apart.  group_events
#: unions anchors in 3×3-adjacent coarse cells as wide as the
#: independence radius, so clusters split into separate groups only
#: beyond about twice that radius, for every Δ drawn here.
HALF = 1.5
SPACING = 3 * independence_radius(D, 1.0) + 4 * HALF


def _twins(pts, delta):
    out = []
    for _ in range(2):
        inc = IncrementalTheta(pts, THETA, D)
        out.append((inc, DynamicInterference(inc, delta)))
    return out


def _prepare(inc, events, idx_groups):
    """Phase A on one twin: contexts and movers of every group with work."""
    contexts = [inc._mutate(ev) for ev in events]
    groups, moved = [], []
    for idxs in idx_groups:
        ctxs = [contexts[i] for i in idxs if contexts[i] is not None]
        if ctxs:
            groups.append(ctxs)
            moved.append(moved_nodes(inc, events, idxs))
    return groups, moved


def _run_batch(batch_twin, lone_twin, events):
    """Apply ``events`` both ways and assert every group matches."""
    inc_b, di_b = batch_twin
    inc_l, di_l = lone_twin
    idx_groups = group_events(inc_b, events, delta=di_b.delta)
    assert idx_groups == group_events(inc_l, events, delta=di_l.delta)

    groups, moved = _prepare(inc_b, events, idx_groups)
    repaired = inc_b._repair_groups(groups, collect_diff=True)
    t0 = time.perf_counter()
    conflicts = di_b.update_groups(
        [(rs.edges_added, rs.edges_removed, mv) for (rs, _), mv in zip(repaired, moved)],
        _sync=False,
        collect_diff=True,
    )
    wall = time.perf_counter() - t0

    lone_groups, lone_moved = _prepare(inc_l, events, idx_groups)
    assert lone_moved == moved
    assert len(repaired) == len(conflicts) == len(groups)
    for g, ctxs in enumerate(lone_groups):
        rs, tdiff = inc_l._repair_batch(ctxs, kind="batch", node=-1, collect_diff=True)
        cs, rdiff = di_l.update(
            rs.edges_added, rs.edges_removed, lone_moved[g], _sync=False, collect_diff=True
        )
        brs, btdiff = repaired[g]
        bcs, brdiff = conflicts[g]
        assert brs == rs  # update_radius, changelog and counts included
        assert replace(bcs, wall_time=0.0) == replace(cs, wall_time=0.0)
        for key in ("out", "admit"):
            for mine, theirs in zip(btdiff[key], tdiff[key]):  # (nodes, rows)
                assert np.array_equal(mine, theirs)
        assert btdiff["dead"] == tdiff["dead"]
        assert brdiff.keys() == rdiff.keys()
        for key in brdiff:
            assert brdiff[key].dtype == rdiff[key].dtype
            assert np.array_equal(brdiff[key], rdiff[key])
    walls = [cs.wall_time for cs, _ in conflicts]
    assert all(w >= 0.0 for w in walls)
    assert sum(walls) <= wall + 1e-6

    for inc, di in (batch_twin, lone_twin):
        inc.topology_version += 1
        di._mark_synced()
    assert inc_b.edge_set() == inc_l.edge_set()
    assert di_b.interference_sets() == di_l.interference_sets()
    assert not inc_b.check_full_equivalence()
    assert di_b.check_full_equivalence() == 0
    return repaired, conflicts


@st.composite
def churned_worlds(draw):
    """Clusters far apart, plus batches of mixed events inside them."""
    k = draw(st.integers(1, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = [np.array([c * SPACING, gen.uniform(-3.0, 3.0)]) for c in range(k)]
    # Cluster 0 holds the two nodes the seed build needs; any other
    # cluster may start empty, so its first join has no neighbour.
    sizes = [draw(st.integers(2 if c == 0 else 0, 10)) for c in range(k)]
    pts = np.vstack(
        [centers[c] + gen.uniform(-HALF, HALF, (sizes[c], 2)) for c in range(k)]
    )
    owner = np.repeat(np.arange(k), sizes)
    alive = [set(np.flatnonzero(owner == c).tolist()) for c in range(k)]
    failed = [set() for _ in range(k)]
    next_id = len(pts)

    def spot(c):
        p = centers[c] + gen.uniform(-HALF, HALF, 2)
        return float(p[0]), float(p[1])

    batches = []
    for _ in range(draw(st.integers(1, 2))):
        events = []
        for _ in range(draw(st.integers(1, 8))):
            c = draw(st.integers(0, k - 1))
            kinds = ["join"]
            if alive[c]:
                kinds += ["leave", "fail", "move"]
            if failed[c]:
                kinds += ["recover", "move_failed"]
            kind = draw(st.sampled_from(kinds))
            if kind == "join":
                events.append(NodeJoin(next_id, *spot(c)))
                alive[c].add(next_id)
                next_id += 1
                continue
            pool = sorted(failed[c] if kind in ("recover", "move_failed") else alive[c])
            node = draw(st.sampled_from(pool))
            if kind == "leave":
                events.append(NodeLeave(node))
                alive[c].discard(node)
            elif kind == "fail":
                events.append(FailStop(node))
                alive[c].discard(node)
                failed[c].add(node)
            elif kind == "recover":
                events.append(Recover(node))
                failed[c].discard(node)
                alive[c].add(node)
            else:
                events.append(NodeMove(node, *spot(c)))
        batches.append(events)
    delta = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return pts, delta, batches


@settings(max_examples=120, deadline=None)
@given(world=churned_worlds())
def test_batch_kernels_match_group_by_group(world):
    pts, delta, batches = world
    batch_twin, lone_twin = _twins(pts, delta)
    for events in batches:
        _run_batch(batch_twin, lone_twin, events)


def test_empty_group_list():
    pts = np.array([[0.0, 0.0], [0.5, 0.0]])
    inc = IncrementalTheta(pts, THETA, D)
    di = DynamicInterference(inc, 0.5)
    before = inc.edge_set()
    assert inc._repair_groups([]) == []
    assert inc._repair_groups([], collect_diff=True) == []
    assert di.update_groups([]) == []
    assert di.update_groups([], collect_diff=True) == []
    assert inc.edge_set() == before
    assert di.check_full_equivalence() == 0


def test_single_group():
    gen = np.random.default_rng(3)
    pts = gen.uniform(-HALF, HALF, (12, 2))
    batch_twin, lone_twin = _twins(pts, 0.5)
    events = [NodeMove(0, 0.1, 0.2), FailStop(3), NodeJoin(12, -0.4, 0.3), NodeLeave(5)]
    repaired, conflicts = _run_batch(batch_twin, lone_twin, events)
    assert len(repaired) == 1
    assert repaired[0][0].edges_flipped > 0
    assert conflicts[0][0].rows_recomputed > 0


def test_isolated_join_touches_only_itself():
    gen = np.random.default_rng(4)
    pts = gen.uniform(-HALF, HALF, (8, 2))
    batch_twin, lone_twin = _twins(pts, 0.5)
    far = 2 * SPACING
    events = [NodeMove(1, 0.0, 0.0), NodeJoin(8, far, far)]
    repaired, conflicts = _run_batch(batch_twin, lone_twin, events)
    assert len(repaired) == 2
    rs, diff = repaired[1]
    assert (rs.nodes_touched, rs.update_radius, rs.edges_flipped) == (1, 0.0, 0)
    assert rs.edges_added == rs.edges_removed == ()
    assert [len(diff["out"][0]), len(diff["admit"][0]), diff["dead"]] == [0, 0, []]
    assert conflicts[1][0].rows_recomputed == 0


def test_failed_node_moved_and_recovered_in_one_batch():
    # Node 8 fails, moves while failed and recovers: edges it keeps are
    # in the net diff neither as added nor as removed, but their guard
    # zones moved, so its rows must be rebuilt.
    pts = np.array(
        [
            [-0.69063986, -0.5553093],
            [-1.45041709, 1.76158084],
            [1.23826673, 1.14167745],
            [0.68848968, 0.9526451],
            [1.30521727, 1.76933079],
            [-1.4917845, 1.89398295],
            [-1.39924327, 1.51073646],
            [-0.97303314, 1.91130689],
            [0.12438366, 0.2209058],
            [-0.23193834, -0.59327086],
        ]
    )
    batch_twin, lone_twin = _twins(pts, 0.0)
    events = [
        NodeJoin(10, -1.127150170501308, 1.333643368009617),
        FailStop(8),
        NodeMove(8, 0.44156853472275026, 1.1679254583724874),
        Recover(8),
    ]
    _run_batch(batch_twin, lone_twin, events)


def test_conflict_counter_counts_groups():
    gen = np.random.default_rng(5)
    pts = np.vstack(
        [gen.uniform(-HALF, HALF, (6, 2)) + [c * SPACING, 0.0] for c in range(3)]
    )
    inc = IncrementalTheta(pts, THETA, D)
    di = DynamicInterference(inc, 0.5)
    reg = metrics.enable(fresh=True)
    try:
        di.update_groups([((), (), []), ((), (), [0]), ((), (), [6])])
        assert reg.counter("dynamic.conflict_repairs").value == 3
    finally:
        metrics.disable()


@pytest.mark.parametrize("k", [2, 4])
def test_groups_with_edge_changes_keep_separate_changelogs(k):
    # Every cluster's mover flips edges, so a changelog shared across
    # groups would show up in every group's stats.
    gen = np.random.default_rng(6)
    pts = np.vstack(
        [gen.uniform(-HALF, HALF, (10, 2)) + [c * SPACING, 0.0] for c in range(k)]
    )
    batch_twin, lone_twin = _twins(pts, 0.5)
    events = [NodeLeave(10 * c + 2) for c in range(k)]
    repaired, _ = _run_batch(batch_twin, lone_twin, events)
    assert len(repaired) == k
    for c, (rs, _) in enumerate(repaired):
        assert rs.edges_removed
        assert all(10 * c <= u < 10 * (c + 1) for e in rs.edges_removed for u in e)
