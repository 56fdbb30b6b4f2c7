"""Halo catch-up of :class:`TileWorkerPool` by region state.

A worker does not receive the diffs of far-away groups: their regions
turn *stale* in its replica, and the parent ships its current state of a
stale region when the worker is about to read there
(``TileWorkerPool._drain``, :func:`repro.parallel.pool.apply_foreign`).
The invariant: every key of a worker outside its stale cells equals the
parent's.  These tests run a real pool, shadow each worker with an
in-process replica deep-copied from the parent at fork time, feed the
shadows every message the pool sends, and compare them key by key with
the parent after every drain — over uniform and clustered strip worlds,
moves across tile borders and long moves, fail / recover / leave / join,
moves of failed nodes and pool MAC steps between batches.  They also pin
the drain's selection rules, its locality, and the exact work it does on
a world of far-apart clusters.
"""

import copy
import math

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
    uniform_points,
)
from repro.dynamic import DynamicMAC
from repro.parallel import TileWorkerPool
from repro.parallel.pool import apply_foreign, repair_assigned

THETA = math.pi / 9
DELTA = 0.5
D = 1.0
#: Strip worlds: two tiles of 48D, each worker's territory reaching
#: (9+3Δ)D = 10.5D into the other's, so almost 40% of the strip lies
#: outside each territory.
WIDTH, HEIGHT = 96.0, 4.0


def strip_world(layout: str, gen: np.random.Generator) -> np.ndarray:
    """A ``WIDTH`` × ``HEIGHT`` strip of points, uniform or in twelve clusters."""
    if layout == "uniform":
        return gen.random((520, 2)) * [WIDTH, HEIGHT]
    centers = np.column_stack([np.arange(12) * 8.0 + 4.0, np.full(12, HEIGHT / 2)])
    pts = centers[gen.integers(12, size=480)] + gen.normal(scale=1.2, size=(480, 2))
    return np.clip(pts, 0.0, [WIDTH, HEIGHT])


_KINDS = ("move", "fail", "recover", "leave", "join", "dead move")
_KIND_P = (0.5, 0.1, 0.1, 0.1, 0.1, 0.1)


def strip_churn(gen, pts, batches: int, per: int, *, long_share: float = 0.2) -> list:
    """``batches`` valid event batches of ``per`` mixed events on a strip.

    Half the events are moves — local jitter of scale D, or with
    probability ``long_share`` a jump anywhere on the strip — and the
    rest split evenly into fail, recover, leave, join (a fresh id, or a
    departed id at a new place) and moves of failed nodes.
    """
    pos = {i: (float(x), float(y)) for i, (x, y) in enumerate(pts)}
    alive, failed, departed = list(range(len(pts))), [], []
    next_id = len(pts)

    def where(u):
        if gen.random() < long_share:
            x, y = gen.random(2) * [WIDTH, HEIGHT]
        else:
            x, y = np.clip(np.array(pos[u]) + gen.normal(scale=D, size=2), 0.0, [WIDTH, HEIGHT])
        pos[u] = (float(x), float(y))
        return pos[u]

    def take(pool):
        return pool.pop(int(gen.integers(len(pool))))

    out = []
    for _ in range(batches):
        batch = []
        for _ in range(per):
            kind = _KINDS[int(gen.choice(len(_KINDS), p=_KIND_P))]
            if kind in ("fail", "leave") and len(alive) < 20:
                kind = "move"
            if kind in ("recover", "dead move") and not failed:
                kind = "move"
            if kind == "move":
                u = alive[int(gen.integers(len(alive)))]
                batch.append(NodeMove(u, *where(u)))
            elif kind == "fail":
                u = take(alive)
                failed.append(u)
                batch.append(FailStop(u))
            elif kind == "recover":
                u = take(failed)
                alive.append(u)
                batch.append(Recover(u))
            elif kind == "leave":
                u = take(alive)
                departed.append(u)
                batch.append(NodeLeave(u))
            elif kind == "join":
                if departed and gen.random() < 0.5:
                    u = take(departed)
                else:
                    u, next_id = next_id, next_id + 1
                alive.append(u)
                x, y = gen.random(2) * [WIDTH, HEIGHT]
                pos[u] = (float(x), float(y))
                batch.append(NodeJoin(u, *pos[u]))
            else:
                u = failed[int(gen.integers(len(failed)))]
                batch.append(NodeMove(u, *where(u)))
        out.append(batch)
    return out


def _capacity(inc, batches):
    return max([inc.size] + [ev.node + 1 for b in batches for ev in b]) + 8


def _twin(pts):
    inc = IncrementalTheta(pts, THETA, D)
    return inc, DynamicInterference(inc, DELTA)


def _shadow(pool):
    """An in-process ``(inc, di)`` replica of one pool worker.

    Deep-copied from the parent's replicas at fork time; it shares the
    parent's grid index and failed set, which the parent's phase A
    updates exactly as the worker's record replay does.
    """
    inc = pool.inc
    memo = {id(inc._index): inc._index, id(inc._failed): inc._failed}
    return copy.deepcopy((inc, pool.di), memo)


def _fresh_nodes(pool, wid, pos) -> np.ndarray:
    """Ids located (at ``pos``) outside worker ``wid``'s stale cells."""
    ij = np.floor(pos / pool._cell).astype(np.int64).tolist()
    stale = pool._stale[wid]
    return np.array([tuple(c) not in stale for c in ij], dtype=bool)


def _edges_at(di, u):
    """Sorted codes of the edges at ``u`` in the conflict store's edge table."""
    return np.sort(di._slot_code[di._edges_at([u])[0]])


def _assert_fresh_keys_match(pool, shadow, wid, pos):
    """Every key of ``shadow`` outside the stale cells equals the parent's."""
    (par, pdi), (rep, rdi) = (pool.inc, pool.di), shadow
    fresh = _fresh_nodes(pool, wid, pos)
    rep._ensure_rows()
    par._ensure_rows()
    for u in np.flatnonzero(fresh).tolist():
        where = f"worker {wid}, node {u}"
        assert np.array_equal(rep._yao[u], par._yao[u]), where
        assert np.array_equal(rep.in_neighbors(u), par.in_neighbors(u)), where
        assert np.array_equal(rep._adm[u], par._adm[u]), where
        assert np.array_equal(_edges_at(rdi, u), _edges_at(pdi, u)), where

    def fresh_codes(codes):
        codes = np.asarray(codes, dtype=np.int64)
        a, b = codes >> 32, codes & 0xFFFFFFFF
        ok = (a < len(fresh)) & (b < len(fresh))
        ok[ok] = fresh[a[ok]] & fresh[b[ok]]
        return codes[ok]

    for c in fresh_codes(list(set(par._edge_dirs) | set(rep._edge_dirs))).tolist():
        assert rep._edge_dirs.get(c) == par._edge_dirs.get(c), f"worker {wid}, edge {c}"
    assert np.array_equal(fresh_codes(rep.edge_codes()), fresh_codes(par.edge_codes())), wid
    pcodes, rcodes = fresh_codes(pdi.edge_codes()), fresh_codes(rdi.edge_codes())
    assert np.array_equal(pcodes, rcodes), f"worker {wid}: tracked edges differ"
    if len(pcodes):
        assert np.array_equal(rdi._rad2_of(pcodes), pdi._rad2_of(pcodes))
        assert np.array_equal(rdi._deg[rdi._slot_of(pcodes)], pdi._deg[pdi._slot_of(pcodes)])
        for c, mine, theirs in zip(pcodes.tolist(), rdi.conflict_rows(pcodes), pdi.conflict_rows(pcodes)):
            assert np.array_equal(mine, theirs), f"worker {wid}, row of {c}"


def _shadowed(pool):
    """Shadow every worker; returns the position snapshot the checks locate keys by."""
    shadows = [_shadow(pool) for _ in range(pool.workers)]
    where = {"pos": None}
    real_send = pool._send

    def send(wid, msg):
        shadow = shadows[wid]
        apply_foreign(*shadow, msg[1])
        _assert_fresh_keys_match(pool, shadow, wid, where["pos"])
        if msg[0] == "batch":
            repair_assigned(*shadow, msg[3])
        real_send(wid, msg)

    pool._send = send
    return where


_SCENARIO = st.fixed_dictionaries(
    {
        "layout": st.sampled_from(["uniform", "clustered"]),
        "seed": st.integers(0, 2**16),
        "batches": st.integers(1, 7),
        "per": st.integers(1, 10),
        "long_share": st.sampled_from([0.0, 0.2, 0.5]),
        "mac_every": st.sampled_from([0, 1, 2]),
    }
)


class TestRegionRefresh:
    @given(_SCENARIO)
    @settings(max_examples=40, deadline=None)
    def test_replica_matches_parent_outside_stale_cells(self, sc):
        gen = np.random.default_rng(sc["seed"])
        pts = strip_world(sc["layout"], gen)
        batches = strip_churn(gen, pts, sc["batches"], sc["per"], long_share=sc["long_share"])
        inc, di = _twin(pts)
        inc_s, di_s = _twin(pts)
        with TileWorkerPool(inc, di, workers=2, capacity=_capacity(inc, batches), tiles=(2, 1)) as pool:
            where = _shadowed(pool)
            for step, batch in enumerate(batches):
                where["pos"] = inc.all_positions().copy()
                pool.apply_batch(batch)
                for ev in batch:
                    di_s.update_event(inc_s.apply(ev))
                assert inc.edge_set() == inc_s.edge_set()
                if sc["mac_every"] and step % sc["mac_every"] == 0:
                    where["pos"] = inc.all_positions().copy()
                    mac = pool.mac_step(seed=sc["seed"], step=step)
                    ref = DynamicMAC(di_s, bound_mode="own").deterministic_step(
                        seed=sc["seed"], step=step
                    )
                    assert np.array_equal(mac.edges, ref.edges)
                    assert np.array_equal(mac.ok, ref.ok)
            assert di.interference_sets() == di_s.interference_sets()

    def test_long_moves_across_the_border_refresh_exactly(self):
        # A fixed scenario that is known to withhold, refresh, and turn
        # pending diffs into refreshes — the paths the property test
        # must reach.
        gen = np.random.default_rng(0)
        pts = gen.random((520, 2)) * [WIDTH, HEIGHT]
        batches = strip_churn(gen, pts, 12, 4, long_share=0.2)
        inc, di = _twin(pts)
        converted = []
        with TileWorkerPool(inc, di, workers=2, capacity=_capacity(inc, batches), tiles=(2, 1)) as pool:
            where = _shadowed(pool)
            drain = pool._drain

            def counting(wid, need, prior=()):
                touched = sum(not pool._stale[wid].isdisjoint(c) for *_, c in pool._pending[wid])
                converted.append(touched)
                return drain(wid, need, prior)

            pool._drain = counting
            for step, batch in enumerate(batches):
                where["pos"] = inc.all_positions().copy()
                pool.apply_batch(batch)
                where["pos"] = inc.all_positions().copy()
                pool.mac_step(seed=1, step=step)
            assert pool.diffs_suppressed_total > 0
            assert pool.cells_refreshed_total > 0
            assert sum(converted) > 0
        assert not inc.check_full_equivalence()
        assert di.check_full_equivalence() == 0


@pytest.fixture(scope="module")
def pool():
    inc = IncrementalTheta(uniform_points(40, rng=3), THETA, 0.3)
    with TileWorkerPool(inc, workers=2, capacity=64, tiles=(3, 2)) as p:
        yield p


class TestDrainSelection:
    def _stage(self, pool, stale, pending=()):
        pool._stale[0] = set(stale)
        pool._pending[0] = list(pending)

    def test_pending_diff_touching_stale_cell_is_refreshed(self, pool):
        far = (10**6, 10**6)
        self._stage(pool, {far}, [("touching", None, {far, (0, 0)}), ("clear", None, {(5, 5)})])
        eager, region = pool._drain(0, None)
        # The touching diff is not shipped; its cells are refreshed
        # (both, the stale one and the fresh one) and leave the stale set.
        assert eager == [("clear", None)]
        assert region is not None
        assert pool._stale[0] == set()

    def test_need_anchors_pick_stale_cells_within_the_catch_up_radius(self, pool):
        c, r = pool._cell, pool._need_radius
        near, corner, beyond = (1, 0), (1, 1), (2, 0)
        self._stage(pool, {near, corner, beyond})
        # An anchor just inside cell (0, 0): cells (1, 0) and (1, 1)
        # lie within r, cell (2, 0) does not.
        anchor = np.array([[c - 0.5 * r, c - 0.5 * r]])
        eager, region = pool._drain(0, anchor)
        assert pool._stale[0] == {beyond}
        # Every node of this world sits in cell (0, 0): nothing to ship.
        assert eager == [] and region is None

    def test_dead_node_leaving_a_stale_cell_takes_the_staleness_along(self, pool):
        inc = pool.inc
        node = 7
        here = tuple(int(v) for v in np.floor(inc.position(node) / pool._cell))
        far = (10**6, 10**6)
        self._stage(pool, {here, far})
        # A dead-before event whose retained position is stale marks the
        # node's current cell; an alive mover only leaves.
        pool._drain(0, None, [(node, inc.position(node) + 0.0, False)])
        assert pool._stale[0] == {here, far}
        self._stage(pool, {far})
        p = np.array([far[0] + 0.5, far[1] + 0.5]) * pool._cell
        pool._drain(0, None, [(node, p, False)])
        assert pool._stale[0] == {here, far}
        self._stage(pool, set())


class TestCatchUpLocality:
    def test_far_stale_cells_are_not_refreshed(self, pool, monkeypatch):
        calls = []
        real = TileWorkerPool._nodes_in

        def counting(self, cells):
            calls.append(len(cells))
            return real(self, cells)

        monkeypatch.setattr(TileWorkerPool, "_nodes_in", counting)
        far = {(1000 + i, 1000 + j) for i in range(20) for j in range(25)}
        pool._stale[0] = set(far)
        pool._pending[0] = []
        assert pool._drain(0, np.array([[0.0, 0.0]])) == ([], None)
        assert calls == []
        assert pool._stale[0] == far
        # Control: a need anchor inside the stale area refreshes there.
        inside = (np.array([[1005.5, 1005.5]]) * pool._cell)
        eager, region = pool._drain(0, inside)
        assert calls == [9]
        assert len(pool._stale[0]) == len(far) - 9
        pool._stale[0] = set()


class TestTerritory:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 2),
                st.sampled_from([-1, 0, 1]),
                st.sampled_from([-1, 0, 1]),
                st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 0.3, -0.3]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_subscribers_match_per_tile_halo_masks(self, pool, raw):
        # Anchors on tile edges, on subscription-zone edges, and just
        # inside or outside them.
        grid, r = pool.grid, pool._sub_radius
        anchors = np.array(
            [
                (grid.x0 + ix * grid.tile_w + sx * r + f, grid.y0 + iy * grid.tile_h + sy * r - f)
                for ix, iy, sx, sy, f in raw
            ]
        )
        want = {
            w
            for w in range(pool.workers)
            if any(
                grid.halo_mask(anchors, t, r).any()
                for t in range(w, grid.n_tiles, pool.workers)
            )
        }
        assert pool._subscribers(anchors) == want
        assert pool._subscribers(np.empty((0, 2))) == set(range(pool.workers))


class TestExactWork:
    def test_far_clusters_ship_nothing_foreign(self):
        # Eight far-apart clusters, shaped like the ``pool`` benchmark
        # workload: each worker owns four, and every foreign diff is
        # withheld.  No region is ever read by the worker that missed
        # it, so catch-up ships nothing, and the stale cells stay the
        # few around the clusters the other worker owns.  Positions are
        # uniform in a box per cluster, so the cells churn can reach are
        # finite and the count must settle.
        gen = np.random.default_rng(0)
        d, spacing, half, per, moves = 2.0, 400.0, 9.0, 80, 10
        centers = (np.array([(x, y) for x in range(4) for y in range(2)], dtype=np.float64) + 0.5) * spacing
        pts = np.vstack([c + gen.uniform(-half, half, size=(per, 2)) for c in centers])
        inc = IncrementalTheta(pts, THETA, d)
        di = DynamicInterference(inc, DELTA)
        stale_counts = []
        with TileWorkerPool(inc, di, workers=2, capacity=len(pts) + 8) as pool:
            for _ in range(400):
                ids = gen.choice(len(pts), size=moves, replace=False)
                new = centers[ids // per] + gen.uniform(-half, half, size=(moves, 2))
                pool.apply_batch([NodeMove(int(i), float(x), float(y)) for i, (x, y) in zip(ids, new)])
                stale_counts.append(sum(len(s) for s in pool._stale))
            assert pool.diffs_suppressed_total > 0
            assert pool.diffs_replayed_total == 0
            assert pool.cells_refreshed_total == 0
            # Warm-up over, the stale set stops growing: at most the
            # 3×3 cells around each cluster box.
            assert stale_counts[100] == stale_counts[-1] <= 8 * 9
            snap = pool.telemetry_snapshot()
            assert sum(t["stale_cells"] for t in snap.values()) == stale_counts[-1]
            assert all(t["diffs_in"] == 0 for t in snap.values())
        assert not inc.check_full_equivalence()
