"""Halo catch-up of :class:`TileWorkerPool`: the cell-indexed backlog.

``TileWorkerPool._drain`` picks the withheld diffs a worker must replay
before its next batch.  It finds candidates through a grid-cell index of
the backlog, so its work is O(entries near the batch).  These tests pin
it against :func:`repro._reference.halo_catchup_reference`, the linear
scan it replaced: the same ``seq``s in the same order, the same backlog
left behind — over generated closure chains, pending-only seeds, anchors
at exactly the radius and on cell boundaries, negative coordinates, the
``max_backlog`` flush and the ``mac_step`` path (``need_anchors=None``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import IncrementalTheta, uniform_points
from repro._reference import halo_catchup_reference
from repro.parallel import TileWorkerPool
from repro.parallel.pool import _Backlog, _cell_keys

THETA = math.pi / 9


@pytest.fixture(scope="module")
def pool():
    inc = IncrementalTheta(uniform_points(40, rng=3), THETA, 0.3)
    with TileWorkerPool(inc, workers=2, capacity=64, tiles=(3, 2)) as p:
        yield p


def _entry(pool, seq, anchors):
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 2)
    # tdiff carries the seq, so a drained list reads back as seqs.
    return (seq, anchors, seq, None, _cell_keys(anchors, pool._cell))


def _load(pool, backlog, pending, max_backlog):
    pool._backlog[0] = _Backlog()
    for e in backlog:
        pool._backlog[0].add(e)
    pool._pending[0] = list(pending)
    pool.max_backlog = max_backlog


def _expected(pool, backlog, pending, need):
    if len(backlog) > pool.max_backlog:
        return sorted(backlog + pending, key=lambda e: e[0]), []
    return halo_catchup_reference(backlog, pending, need, pool._need_radius)


# One anchor, in units of the cell side c and the radius R:
#   free point, cell corner, or exactly ±R (axis) / ±R/√2 (diagonal)
#   away from an earlier anchor; "step" walks 0.9R from the previous
#   anchor, which chains consecutive entries into a closure.
_ANCHOR = st.one_of(
    st.tuples(st.just("free"), st.floats(-4, 4), st.floats(-4, 4)),
    st.tuples(st.just("cell"), st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.just("ring"), st.integers(0, 10**6), st.integers(0, 7)),
    st.tuples(st.just("step"), st.floats(0, 2 * math.pi), st.just(0)),
)
_DIRS = [(1, 0), (-1, 0), (0, 1), (0, -1)] + [
    (sx * math.sqrt(0.5), sy * math.sqrt(0.5)) for sx in (1, -1) for sy in (1, -1)
]


def _realize(specs, pool, placed):
    c, r = pool._cell, pool._need_radius
    out = []
    for kind, a, b in specs:
        if kind in ("free", "cell"):
            p = (a * c, b * c)
        elif not placed:
            p = (0.0, 0.0)
        elif kind == "ring":
            q = placed[a % len(placed)]
            dx, dy = _DIRS[b]
            p = (q[0] + dx * r, q[1] + dy * r)
        else:  # step
            q = placed[-1]
            p = (q[0] + 0.9 * r * math.cos(a), q[1] + 0.9 * r * math.sin(a))
        placed.append(p)
        out.append(p)
    return out


_SCENARIO = st.fixed_dictionaries(
    {
        "entries": st.lists(
            st.tuples(st.lists(_ANCHOR, min_size=1, max_size=3), st.booleans()),
            max_size=30,
        ),
        "pending_share": st.sampled_from([0.0, 0.0, 0.15, 1.0]),
        "reverse": st.booleans(),
        "needs": st.lists(
            st.one_of(st.none(), st.lists(_ANCHOR, max_size=3)), min_size=1, max_size=2
        ),
        "max_backlog": st.sampled_from([512, 512, 512, 4, 0]),
    }
)


class TestCatchUpSelection:
    @given(_SCENARIO)
    @settings(max_examples=300, deadline=None)
    def test_indexed_drain_matches_linear_scan(self, pool, sc):
        placed = []
        rows = [(_realize(specs, pool, placed), flag) for specs, flag in sc["entries"]]
        if sc["reverse"]:
            # Walking chains now run from new to old seqs: the closure
            # must pull them in through earlier entries only.
            rows.reverse()
        n_pending = int(round(sc["pending_share"] * len(rows)))
        backlog, pending = [], []
        for seq, (anchors, flag) in enumerate(rows):
            e = _entry(pool, seq, anchors)
            (pending if flag and len(pending) < n_pending else backlog).append(e)
        _load(pool, backlog, pending, sc["max_backlog"])
        for need_specs in sc["needs"]:
            need = None
            if need_specs is not None:
                need = np.asarray(_realize(need_specs, pool, placed), dtype=np.float64)
                need = need.reshape(-1, 2)
            want, kept = _expected(pool, backlog, pending, need)
            got = pool._drain(0, need)
            assert [td for td, _ in got] == [e[0] for e in want]
            assert list(pool._backlog[0].entries) == [e[0] for e in kept]
            backlog, pending = kept, []

    def test_chain_is_pulled_only_towards_earlier_entries(self, pool):
        r = pool._need_radius
        chain = [(i * 0.9 * r, 0.0) for i in range(1, 6)]
        # Seqs rise away from the need anchor: the seed pulls in its
        # neighbour (a seed pulls any entry), which pulls nothing later.
        _load(pool, [_entry(pool, s, [p]) for s, p in enumerate(chain)], [], 512)
        got = pool._drain(0, np.array([[0.0, 0.0]]))
        assert [td for td, _ in got] == [0, 1]
        # Seqs fall away from it: the closure walks the whole chain.
        _load(pool, [_entry(pool, s, [p]) for s, p in enumerate(chain[::-1])], [], 512)
        got = pool._drain(0, np.array([[0.0, 0.0]]))
        assert [td for td, _ in got] == [0, 1, 2, 3, 4]

    def test_pending_seed_pulls_later_backlog_entries(self, pool):
        r = pool._need_radius
        backlog = [_entry(pool, 1, [(0.5 * r, 0.0)]), _entry(pool, 2, [(3 * r, 0.0)])]
        _load(pool, backlog, [_entry(pool, 0, [(0.0, 0.0)])], 512)
        got = pool._drain(0, None)
        assert [td for td, _ in got] == [0, 1]
        assert list(pool._backlog[0].entries) == [2]


class TestCatchUpLocality:
    def test_far_backlog_costs_no_exact_checks(self, pool, monkeypatch):
        calls = []
        real = TileWorkerPool._near

        def counting(a, b, r):
            calls.append(1)
            return real(a, b, r)

        monkeypatch.setattr(TileWorkerPool, "_near", staticmethod(counting))
        c = pool._cell
        rng = np.random.default_rng(5)
        far = rng.normal(loc=1000 * c, scale=2 * c, size=(500, 2))
        backlog = [_entry(pool, s, [p]) for s, p in enumerate(far)]
        _load(pool, backlog, [], 512)
        assert pool._drain(0, np.array([[0.0, 0.0]])) == []
        assert calls == []
        assert list(pool._backlog[0].entries) == list(range(500))
        # Control: a need anchor inside the cluster does run the checks.
        pool._drain(0, far[:1])
        assert calls


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
