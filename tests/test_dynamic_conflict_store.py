"""The array-backed conflict store against its dict-of-sets oracle.

:class:`DynamicInterference` keeps the symmetric §2.4 conflict relation
as one :class:`~repro.utils.arrays.CodeSet` of slot-pair keys: a sorted
array plus a ladder of small toggle logs.  These
tests drive three twins of one generated world through the same batches
of grouped churn:

* the array store repairs every batch with ``update_groups``;
* :class:`repro._reference.ConflictRowsReference`, the dict-of-sets
  maintainer it replaced, repairs the same groups one by one;
* a replica applies the array store's row diffs with
  ``apply_row_diffs`` (or one ``apply_row_diff`` at a time).

Rows, degrees, stats (bar ``wall_time``) and diffs must agree exactly,
with the logs folding into the main array after every toggle, never,
or in between.  Two further tests pin what the process pool relies on:
worker outputs do not depend on the insertion order of a replica's
dicts, and the repair makes a fixed number of kernel calls and store
merges whatever the number of groups.
"""

from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DynamicInterference,
    IncrementalTheta,
    NodeJoin,
    NodeLeave,
    NodeMove,
    group_events,
)
from repro._reference import ConflictRowsReference
from repro.geometry.spatialindex import DynamicGridIndex
from repro.parallel.pool import TileWorkerPool
from repro.utils.arrays import CodeSet
from tests.test_dynamic_batch_kernels import HALF, SPACING, THETA, D, _prepare, churned_worlds


def _repair_items(inc, events, delta):
    """Phase A + the batch-wide ΘALG repair: ``update_groups`` items."""
    groups, moved = _prepare(inc, events, group_events(inc, events, delta=delta))
    repaired = inc._repair_groups(groups)
    return [(rs.edges_added, rs.edges_removed, mv) for rs, mv in zip(repaired, moved)]


@contextmanager
def _compaction_at(fraction: float):
    """One-key smallest log, doubling logs, the last at ``fraction`` of the array."""
    with mock.patch.object(CodeSet, "fold_fraction", fraction), mock.patch.object(
        CodeSet, "fold_min", 1
    ), mock.patch.object(CodeSet, "fold_ratio", 2):
        yield


def _no_wall(stats):
    return replace(stats, wall_time=0.0)


def _assert_same_diff(mine: dict, want: dict) -> None:
    assert mine.keys() == want.keys()
    for key in mine:
        assert mine[key].dtype == want[key].dtype, key
        assert np.array_equal(mine[key], want[key]), key


def _assert_same_rows(di: DynamicInterference, oracle: ConflictRowsReference) -> None:
    rows = oracle.rows()
    codes = di.edge_codes()
    assert codes.tolist() == sorted(rows)
    assert [r.tolist() for r in di.conflict_rows(codes)] == [rows[c] for c in codes.tolist()]
    assert di.degree_array().tolist() == [len(rows[c]) for c in codes.tolist()]
    assert di.degrees_of(codes[::-1]).tolist() == [len(rows[c]) for c in codes.tolist()[::-1]]


@settings(max_examples=100, deadline=None)
@given(
    world=churned_worlds(),
    fraction=st.sampled_from([0.0, 1 / 64, 1 / 16, 1.0, 1e9]),
    one_by_one=st.booleans(),
)
def test_array_store_matches_dict_oracle(world, fraction, one_by_one):
    pts, delta, batches = world
    inc_a, inc_o, inc_r = (IncrementalTheta(pts, THETA, D) for _ in range(3))
    with _compaction_at(fraction):
        di_a = DynamicInterference(inc_a, delta)
        di_r = DynamicInterference(inc_r, delta)
        oracle = ConflictRowsReference(inc_o, delta)
        for events in batches:
            items = _repair_items(inc_a, events, delta)
            got = di_a.update_groups(items, _sync=False, collect_diff=True)
            assert _repair_items(inc_o, events, delta) == items
            want = oracle.update_groups(items, collect_diff=True)
            assert _repair_items(inc_r, events, delta) == items
            diffs = [d for _, d in got]
            if one_by_one:
                replayed = [di_r.apply_row_diff(d, _sync=False) for d in diffs]
            else:
                replayed = di_r.apply_row_diffs(diffs, _sync=False)

            assert len(got) == len(want) == len(replayed) == len(items)
            for (stats, diff), (stats_o, diff_o), stats_r in zip(got, want, replayed):
                assert _no_wall(stats) == _no_wall(stats_o)
                assert _no_wall(stats_r) == _no_wall(stats)
                _assert_same_diff(diff, diff_o)

            for inc, di in ((inc_a, di_a), (inc_r, di_r)):
                inc.topology_version += 1
                di._mark_synced()
                _assert_same_rows(di, oracle)
                caps = di._pairs.caps()
                assert len(di._pairs.logs) <= len(caps)
                for keys, cap in zip(di._pairs.logs, caps):
                    assert len(keys) <= cap
            assert di_a.interference_sets() == di_r.interference_sets()
            assert di_a.check_full_equivalence() == 0
            assert not inc_a.check_full_equivalence()


def test_slot_reuse_before_compaction():
    # A removed edge's slot goes back to the free list while its pairs
    # still sit in the removed log; the next added edge reuses it.
    gen = np.random.default_rng(7)
    pts = gen.uniform(-HALF, HALF, (14, 2))
    with _compaction_at(1e9):
        inc = IncrementalTheta(pts, THETA, D)
        di = DynamicInterference(inc, 0.5)
        inc_o = IncrementalTheta(pts, THETA, D)
        oracle = ConflictRowsReference(inc_o, 0.5)
        history = [NodeLeave(3), NodeJoin(14, 0.1, -0.2), NodeMove(5, -0.3, 0.4), NodeLeave(14)]
        history += [NodeJoin(15, 0.2, 0.2), NodeMove(0, 0.5, -0.5), NodeJoin(16, -0.9, 0.1)]
        for ev in history:
            assert _no_wall(di.update_event(inc.apply(ev))) == _no_wall(
                oracle.update_groups([_items_of(inc_o.apply(ev), inc_o)])[0]
            )
            _assert_same_rows(di, oracle)
        assert sum(map(len, di._pairs.logs)) > 0  # nothing was folded
        assert di.check_full_equivalence() == 0


def _items_of(stats, inc):
    moved = [stats.node] if stats.kind == "move" and inc._index.is_alive(stats.node) else []
    return (stats.edges_added, stats.edges_removed, moved)


def test_untracked_code_raises_key_error():
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    di = DynamicInterference(IncrementalTheta(pts, THETA, D), 0.5)
    with pytest.raises(KeyError):
        di.degrees_of(np.array([(1 << 32) | 7], dtype=np.int64))


def test_nbytes_is_the_sum_of_the_arrays():
    gen = np.random.default_rng(8)
    inc = IncrementalTheta(gen.uniform(0.0, 2.0, (60, 2)), THETA, D)
    di = DynamicInterference(inc, 0.5)

    def tables():
        arrays = (di._codes, di._slots, di._slot_code, di._rad2, di._deg, di._free)
        return sum(a.nbytes for a in arrays) + di._inc.nbytes

    # Right after construction: the code table, the per-slot arrays, two
    # incidence keys per edge and one key per entry of the relation, no
    # CSR.
    nnz = int(di.degree_array().sum())
    assert len(di._pairs) == nnz
    assert len(di._inc) == 2 * di.n_edges
    assert di.nbytes == tables() + 8 * nnz
    di.update_event(inc.apply(NodeMove(3, 1.0, 1.0)))
    nnz = int(di.degree_array().sum())
    assert tables() + 8 * nnz <= di.nbytes <= tables() + 24 * max(nnz, 1)
    # A cached CSR counts until the next update drops it.
    sets = di.interference_sets()
    assert di.nbytes == tables() + 8 * nnz + sets.indptr.nbytes + sets.indices.nbytes
    di.update_event(inc.apply(NodeMove(3, 0.5, 1.5)))
    assert di._csr is None
    assert di.nbytes == tables() + di._pairs.nbytes
    assert di.nbytes <= tables() + 24 * max(int(di.degree_array().sum()), 1)


# ----------------------------------------------------------------------
# Replica dict insertion order
# ----------------------------------------------------------------------
def _shuffled(value: dict, gen) -> dict:
    """``value`` rebuilt with its keys inserted in random order."""
    keys = list(value)
    gen.shuffle(keys)
    return {k: value[k] for k in keys}


@settings(max_examples=60, deadline=None)
@given(world=churned_worlds(), shuffle_seed=st.integers(0, 2**32 - 1))
def test_outputs_do_not_depend_on_replica_insertion_order(world, shuffle_seed):
    pts, delta, batches = world
    gen = np.random.default_rng(shuffle_seed)
    twins = []
    for _ in range(2):
        inc = IncrementalTheta(pts, THETA, D)
        twins.append((inc, DynamicInterference(inc, delta)))
    (inc_a, di_a), (inc_b, di_b) = twins
    for events in batches:
        # Rebuild the replica's dict in shuffled order before each batch.
        inc_b._edge_dirs = _shuffled(inc_b._edge_dirs, gen)

        results = []
        for inc, di in twins:
            groups, moved = _prepare(inc, events, group_events(inc, events, delta=delta))
            repaired = inc._repair_groups(groups, collect_diff=True)
            conflicts = di.update_groups(
                [(rs.edges_added, rs.edges_removed, mv) for (rs, _), mv in zip(repaired, moved)],
                _sync=False,
                collect_diff=True,
            )
            inc.topology_version += 1
            di._mark_synced()
            results.append((repaired, conflicts))
        (rep_a, con_a), (rep_b, con_b) = results
        for (rs_a, td_a), (rs_b, td_b) in zip(rep_a, rep_b):
            assert rs_a == rs_b
            for key in ("out", "admit"):
                for mine, theirs in zip(td_a[key], td_b[key]):  # (nodes, rows)
                    assert np.array_equal(mine, theirs)
            assert td_a["dead"] == td_b["dead"]
        for (cs_a, rd_a), (cs_b, rd_b) in zip(con_a, con_b):
            assert _no_wall(cs_a) == _no_wall(cs_b)
            _assert_same_diff(rd_a, rd_b)
    assert inc_a.edge_set() == inc_b.edge_set()
    assert di_a.interference_sets() == di_b.interference_sets()


# ----------------------------------------------------------------------
# Kernel calls and store merges per batch
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, counts, targets):
    for cls, name in targets:
        original = getattr(cls, name)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)


def _clustered(k: int):
    gen = np.random.default_rng(20 + k)
    pts = np.vstack([gen.uniform(-HALF, HALF, (10, 2)) + [c * SPACING, 0.0] for c in range(k)])
    # One mover and one leaver per cluster: k groups that all flip edges.
    events = []
    for c in range(k):
        events.append(NodeMove(10 * c, c * SPACING + 0.2, 0.1))
        events.append(NodeLeave(10 * c + 4))
    return pts, events


@pytest.mark.parametrize("k", [1, 3, 6])
def test_kernel_calls_do_not_grow_with_the_group_count(monkeypatch, k):
    pts, events = _clustered(k)
    inc = IncrementalTheta(pts, THETA, D)
    di = DynamicInterference(inc, 0.5)
    replica_inc = IncrementalTheta(pts, THETA, D)
    replica = DynamicInterference(replica_inc, 0.5)
    counts: Counter = Counter()
    _count_calls(
        monkeypatch,
        counts,
        [
            (DynamicGridIndex, "query_radius_many"),
            (IncrementalTheta, "_yao_choices_many"),
            (IncrementalTheta, "_admissions_many"),
            (DynamicInterference, "_recompute_rows"),
            (DynamicInterference, "_install"),
        ],
    )
    groups, moved = _prepare(inc, events, group_events(inc, events, delta=0.5))
    assert len(groups) == k
    repaired = inc._repair_groups(groups, collect_diff=True)
    # One dirty-set query, plus the phase-1 query inside _yao_choices_many.
    assert counts == {"query_radius_many": 2, "_yao_choices_many": 1, "_admissions_many": 1}

    counts.clear()
    conflicts = di.update_groups(
        [(rs.edges_added, rs.edges_removed, mv) for (rs, _), mv in zip(repaired, moved)],
        _sync=False,
        collect_diff=True,
    )
    assert all(cs.entries_changed > 0 for cs, _ in conflicts)
    assert counts == {"query_radius_many": 1, "_recompute_rows": 1, "_install": 1}

    counts.clear()
    _prepare(replica_inc, events, group_events(replica_inc, events, delta=0.5))
    replica_inc.apply_repair_diffs([tdiff for _, tdiff in repaired])
    replica.apply_row_diffs([d for _, d in conflicts], _sync=False)
    assert counts == {"_install": 1}
    for x in (inc, replica_inc):
        x.topology_version += 1
    di._mark_synced()
    replica._mark_synced()
    assert replica.interference_sets() == di.interference_sets()


@pytest.mark.parametrize("k", [2, 6])
def test_parent_merges_once_per_pool_reply(monkeypatch, k):
    pts, events = _clustered(k)
    inc = IncrementalTheta(pts, THETA, D)
    di = DynamicInterference(inc, 0.5)
    counts: Counter = Counter()
    with TileWorkerPool(inc, di, workers=2) as pool:
        # Wrapped after the fork: only the parent's merges are counted.
        _count_calls(monkeypatch, counts, [(DynamicInterference, "_install")])
        stats = pool.apply_batch(events)
        assert stats.groups == k
        assert 1 <= counts["_install"] <= pool.workers
        assert di.check_full_equivalence() == 0
