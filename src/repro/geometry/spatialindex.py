"""Uniform-grid spatial index for fixed-radius neighbor queries.

Building the transmission graph G* requires, for every node, all nodes
within the maximum transmission range D.  A uniform grid with cell size
D answers each query by scanning the 3×3 block of cells around the query
point, which is O(1 + output) for bounded-density inputs and never worse
than the brute-force scan.

The index is built once over a static point set (node positions are
snapshotted per simulation step; mobility re-builds the index).  The
bulk entry points — :meth:`GridIndex.all_pairs_within` and
:meth:`GridIndex.query_radius_many` — process whole cells against their
neighborhoods with broadcasted distance blocks instead of looping one
Python iteration per point, which is what lets transmission-graph
construction scale to tens of thousands of nodes (see
``docs/performance.md``).  :meth:`DynamicGridIndex.query_radius_many`
does the same for the mutable index, so one local churn repair queries
its whole dirty region in one call.
"""

from __future__ import annotations

import math
import os
import numpy as np

from repro.geometry.primitives import as_points
from repro.utils.arrays import ragged_arange
from repro.utils.validation import check_positive

__all__ = ["GridIndex", "DynamicGridIndex"]

#: Cap on candidate pairs materialized per broadcast block (memory bound).
_PAIR_BUDGET = 1 << 22


class GridIndex:
    """Bucket points of a static set into square cells of size ``cell``.

    Parameters
    ----------
    points:
        ``(n, 2)`` array of positions.
    cell:
        Cell side length; choose the query radius for O(1) queries.
    """

    def __init__(self, points: np.ndarray, cell: float) -> None:
        pts = as_points(points)
        check_positive("cell", cell)
        self._points = pts
        self._cell = float(cell)
        keys = self._cell_keys(pts)
        order = np.lexsort((keys[:, 1], keys[:, 0]))
        self._order = order
        self._sorted_points = pts[order] if len(pts) else pts
        sorted_keys = keys[order]
        if len(pts):
            # Unique occupied cells with the start/count of their runs in
            # the sorted order.  Cells are encoded as a single int64 code
            # cx * ny + cy (both shifted non-negative), which preserves
            # the (cx, cy) lexicographic order of the sort above.
            change = np.any(np.diff(sorted_keys, axis=0) != 0, axis=1)
            starts = np.concatenate([[0], np.nonzero(change)[0] + 1]).astype(np.intp)
            counts = np.diff(np.concatenate([starts, [len(pts)]])).astype(np.intp)
            cells = sorted_keys[starts]
            self._key_min = keys.min(axis=0)
            self._key_max = keys.max(axis=0)
            self._ny = int(self._key_max[1] - self._key_min[1] + 1)
            self._cell_codes = self._encode(cells)
            self._cell_starts = starts
            self._cell_counts = counts
            self._buckets = {
                (int(cx), int(cy)): (int(s), int(s + c))
                for (cx, cy), s, c in zip(cells, starts, counts)
            }
        else:
            self._key_min = np.zeros(2, dtype=np.int64)
            self._key_max = np.zeros(2, dtype=np.int64)
            self._ny = 1
            self._cell_codes = np.empty(0, dtype=np.int64)
            self._cell_starts = np.empty(0, dtype=np.intp)
            self._cell_counts = np.empty(0, dtype=np.intp)
            self._buckets = {}

    @property
    def points(self) -> np.ndarray:
        """The indexed points (read-only view)."""
        v = self._points.view()
        v.flags.writeable = False
        return v

    @property
    def cell(self) -> float:
        """Cell side length."""
        return self._cell

    def __len__(self) -> int:
        return len(self._points)

    def _cell_keys(self, pts: np.ndarray) -> np.ndarray:
        """Cell ``(floor(x / cell), floor(y / cell))`` of each point, as in
        :class:`DynamicGridIndex`: both indexes read the same cell block."""
        return np.floor(pts / self._cell).astype(np.int64)

    def _encode(self, keys: np.ndarray) -> np.ndarray:
        """Map (cx, cy) cell keys to sorted scalar codes (see __init__)."""
        return (keys[:, 0] - self._key_min[0]) * np.int64(self._ny) + (
            keys[:, 1] - self._key_min[1]
        )

    def _lookup_cells(self, keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Per query cell key, the (start, count) of its sorted run.

        Unoccupied (or out-of-range) cells get count 0.
        """
        starts = np.zeros(len(keys), dtype=np.intp)
        counts = np.zeros(len(keys), dtype=np.intp)
        if len(self._cell_codes) == 0 or len(keys) == 0:
            return starts, counts
        # cy outside the indexed strip would alias another cell's code.
        valid = (
            (keys[:, 1] >= self._key_min[1])
            & (keys[:, 1] <= self._key_max[1])
            & (keys[:, 0] >= self._key_min[0])
            & (keys[:, 0] <= self._key_max[0])
        )
        codes = self._encode(keys[valid])
        pos = np.searchsorted(self._cell_codes, codes)
        pos[pos == len(self._cell_codes)] = 0
        found = self._cell_codes[pos] == codes
        vidx = np.nonzero(valid)[0][found]
        starts[vidx] = self._cell_starts[pos[found]]
        counts[vidx] = self._cell_counts[pos[found]]
        return starts, counts

    def _candidates(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Indices of all points in cells intersecting the query disk."""
        reach = int(math.ceil(radius / self._cell))
        c = self._cell_keys(np.asarray(center, dtype=np.float64).reshape(1, 2))[0]
        chunks = []
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                rng = self._buckets.get((c[0] + dx, c[1] + dy))
                if rng is not None:
                    chunks.append(self._order[rng[0] : rng[1]])
        if not chunks:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(chunks)

    def query_radius(self, center: np.ndarray, radius: float, *, exclude: int | None = None) -> np.ndarray:
        """Indices of points within ``radius`` of ``center`` (inclusive).

        Parameters
        ----------
        exclude:
            Optional point index to omit (the query point itself).
        """
        check_positive("radius", radius)
        center = np.asarray(center, dtype=np.float64).reshape(2)
        cand = self._candidates(center, radius)
        if len(cand) == 0:
            return cand
        d = self._points[cand] - center
        mask = d[:, 0] ** 2 + d[:, 1] ** 2 <= radius * radius + 1e-12
        out = cand[mask]
        if exclude is not None:
            out = out[out != exclude]
        return np.sort(out)

    def query_radius_many(
        self, centers: np.ndarray, radius: float
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Batched :meth:`query_radius` over many centers at once.

        Parameters
        ----------
        centers:
            ``(q, 2)`` array of query positions.
        radius:
            Shared query radius (inclusive, same epsilon as
            :meth:`query_radius`).

        Returns
        -------
        ``(indptr, indices)`` in CSR layout: the hits of query ``k`` are
        ``indices[indptr[k]:indptr[k + 1]]``, sorted ascending — exactly
        what ``query_radius`` returns for that center (no ``exclude``).
        """
        check_positive("radius", radius)
        centers = as_points(np.atleast_2d(centers))
        q = len(centers)
        indptr = np.zeros(q + 1, dtype=np.intp)
        if q == 0 or len(self._points) == 0:
            return indptr, np.empty(0, dtype=np.intp)
        reach = int(math.ceil(radius / self._cell))
        ckeys = self._cell_keys(centers)
        r2 = radius * radius + 1e-12
        qid_chunks: list[np.ndarray] = []
        hit_chunks: list[np.ndarray] = []
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                starts, counts = self._lookup_cells(ckeys + np.array([dx, dy]))
                occupied = np.nonzero(counts)[0]
                if len(occupied) == 0:
                    continue
                qids = np.repeat(occupied, counts[occupied])
                spos = ragged_arange(starts[occupied], counts[occupied])
                d = self._sorted_points[spos] - centers[qids]
                mask = d[:, 0] ** 2 + d[:, 1] ** 2 <= r2
                qid_chunks.append(qids[mask])
                hit_chunks.append(self._order[spos[mask]])
        if not qid_chunks:
            return indptr, np.empty(0, dtype=np.intp)
        qids = np.concatenate(qid_chunks)
        hits = np.concatenate(hit_chunks)
        order = np.lexsort((hits, qids))
        np.cumsum(np.bincount(qids, minlength=q), out=indptr[1:])
        return indptr, hits[order]

    def all_pairs_within(self, radius: float) -> np.ndarray:
        """All index pairs ``(i, j), i < j`` with distance ≤ ``radius``.

        Returns an ``(m, 2)`` intp array sorted lexicographically.  This
        is the workhorse for transmission-graph construction: instead of
        one query per point, each occupied cell is compared against the
        half of its neighborhood with a larger cell code (plus itself),
        so every unordered cell pair is broadcast exactly once.
        """
        check_positive("radius", radius)
        n = len(self._points)
        if n < 2 or len(self._cell_codes) == 0:
            return np.empty((0, 2), dtype=np.intp)
        reach = int(math.ceil(radius / self._cell))
        cells = np.column_stack(
            [
                self._cell_codes // self._ny + self._key_min[0],
                self._cell_codes % self._ny + self._key_min[1],
            ]
        )
        # Half neighborhood: (0, 0) handles intra-cell pairs; the rest
        # covers each unordered cell pair once.
        offsets = [(0, 0)]
        offsets += [(0, dy) for dy in range(1, reach + 1)]
        offsets += [
            (dx, dy) for dx in range(1, reach + 1) for dy in range(-reach, reach + 1)
        ]
        r2 = radius * radius + 1e-12
        chunks: list[np.ndarray] = []
        for off in offsets:
            nb_starts, nb_counts = self._lookup_cells(cells + np.array(off))
            pair_counts = self._cell_counts * nb_counts
            live = np.nonzero(pair_counts)[0]
            if len(live) == 0:
                continue
            # Chunk cell pairs so one broadcast block stays within budget.
            cum = np.cumsum(pair_counts[live])
            lo = 0
            while lo < len(live):
                base = cum[lo - 1] if lo else 0
                hi = int(np.searchsorted(cum, base + _PAIR_BUDGET))
                hi = max(hi, lo + 1)
                block = live[lo:hi]
                lo = hi
                a_starts = self._cell_starts[block]
                a_counts = self._cell_counts[block]
                b_starts = nb_starts[block]
                b_counts = nb_counts[block]
                # Left side: every point of cell A, each repeated |B| times.
                a_pos = ragged_arange(a_starts, a_counts)
                reps = np.repeat(b_counts, a_counts)
                left = np.repeat(a_pos, reps)
                # Right side: the full B block per A point.
                right = ragged_arange(np.repeat(b_starts, a_counts), reps)
                d = self._sorted_points[left] - self._sorted_points[right]
                mask = d[:, 0] ** 2 + d[:, 1] ** 2 <= r2
                li = self._order[left[mask]]
                ri = self._order[right[mask]]
                keep = li < ri if off == (0, 0) else li != ri
                # off == (0, 0) broadcasts A×A, so keep each unordered
                # pair once; other offsets see each pair exactly once but
                # in arbitrary orientation.
                lo_idx = np.minimum(li[keep], ri[keep])
                hi_idx = np.maximum(li[keep], ri[keep])
                if len(lo_idx):
                    chunks.append(np.column_stack([lo_idx, hi_idx]))
        if not chunks:
            return np.empty((0, 2), dtype=np.intp)
        pairs = np.vstack(chunks)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        return pairs[order]

class DynamicGridIndex:
    """Incrementally updatable uniform grid over a mutable point set.

    :class:`GridIndex` is built once over a frozen array; the dynamic
    subsystem (:mod:`repro.dynamic`) instead needs a structure that
    survives joins, leaves, and moves without an O(n) rebuild per
    event.  This index keeps a growable position array plus the live
    node ids sorted by the packed code ``(cx << 32) + cy`` of their
    cell.  A mutation inserts or deletes one entry of the sorted pair
    of arrays (a memmove, no Python container), and the cells of one
    grid row are one contiguous code range, so a radius query finds
    its candidates with one ``searchsorted`` pair per (center, cell
    row).  The distance filter is the static index's inclusive epsilon
    (``d² ≤ r² + 1e-12``), so query results agree bit-for-bit with
    ``GridIndex`` built on the live snapshot.

    Node ids are stable small integers.  :meth:`insert` accepts either
    the next unused id (the set grows) or a previously removed id (the
    slot is re-populated); :meth:`remove` keeps the position so a
    failed node can recover in place.
    """

    def __init__(self, points: np.ndarray, cell: float) -> None:
        pts = as_points(points)
        check_positive("cell", cell)
        self._cell = float(cell)
        cap = max(len(pts), 16)
        self._pos = np.zeros((cap, 2), dtype=np.float64)
        self._pos[: len(pts)] = pts
        self._alive = np.zeros(cap, dtype=bool)
        self._alive[: len(pts)] = True
        self._size = len(pts)  # ids ever seen are 0..size-1
        self._n_alive = len(pts)
        ij = np.floor(pts / self._cell).astype(np.int64)
        codes = (ij[:, 0] << 32) + ij[:, 1]
        order = np.argsort(codes, kind="stable")
        #: Cell codes of the live nodes, sorted, and the ids alongside.
        self._cells = codes[order]
        self._ids = order.astype(np.intp)

    def _key(self, p: np.ndarray) -> "tuple[int, int]":
        return (int(math.floor(p[0] / self._cell)), int(math.floor(p[1] / self._cell)))

    def _at(self, node: int, code: int) -> int:
        """Position of ``node``'s entry (cell ``code``) in the sorted arrays."""
        lo = int(self._cells.searchsorted(code))
        hi = int(self._cells.searchsorted(code, "right"))
        return lo + self._ids[lo:hi].tolist().index(node)

    def _add(self, node: int, key: "tuple[int, int]") -> None:
        code = (key[0] << 32) + key[1]
        at = int(self._cells.searchsorted(code))
        cells, ids = self._cells, self._ids
        self._cells = np.concatenate((cells[:at], [code], cells[at:]))
        self._ids = np.concatenate((ids[:at], [node], ids[at:]))

    def _drop(self, node: int, key: "tuple[int, int]") -> None:
        at = self._at(node, (key[0] << 32) + key[1])
        cells, ids = self._cells, self._ids
        self._cells = np.concatenate((cells[:at], cells[at + 1 :]))
        self._ids = np.concatenate((ids[:at], ids[at + 1 :]))

    def _relocate(self, node: int, old_key: "tuple[int, int]", new_key: "tuple[int, int]") -> None:
        """Move ``node``'s entry to cell ``new_key``: one in-place shift."""
        code = (new_key[0] << 32) + new_key[1]
        i = self._at(node, (old_key[0] << 32) + old_key[1])
        j = int(self._cells.searchsorted(code))
        cells, ids = self._cells, self._ids
        if j > i:
            j -= 1
            cells[i:j] = cells[i + 1 : j + 1]
            ids[i:j] = ids[i + 1 : j + 1]
        else:
            cells[j + 1 : i + 1] = cells[j:i]
            ids[j + 1 : i + 1] = ids[j:i]
        cells[j] = code
        ids[j] = node

    def cell_key(self, p: np.ndarray) -> "tuple[int, int]":
        """Grid-cell key ``(cx, cy)`` containing position ``p``.

        Exposed for the dynamic batching layer, which unions events by
        the cells their dirty disks can reach (see
        :mod:`repro.dynamic.batching`).
        """
        p = np.asarray(p, dtype=np.float64).reshape(2)
        return self._key(p)

    def __len__(self) -> int:
        """Number of live nodes."""
        return self._n_alive

    @property
    def size(self) -> int:
        """One past the highest node id ever inserted."""
        return self._size

    @property
    def cell(self) -> float:
        """Cell side length."""
        return self._cell

    def is_alive(self, node: int) -> bool:
        return 0 <= node < self._size and bool(self._alive[node])

    def position(self, node: int) -> np.ndarray:
        """Last known position of ``node`` (also valid while removed)."""
        if not 0 <= node < self._size:
            raise KeyError(f"unknown node id {node}")
        return self._pos[node].copy()

    def alive_ids(self) -> np.ndarray:
        """Sorted array of live node ids."""
        return np.nonzero(self._alive[: self._size])[0]

    def positions_of(self, ids: np.ndarray) -> np.ndarray:
        """Positions of the given node ids (vectorized, no copy checks).

        ``np.take`` along axis 0: the same rows as ``_pos[ids]``, several
        times faster than advanced indexing of a 2-D array.
        """
        return self._pos.take(np.asarray(ids, dtype=np.intp), axis=0)

    def live_points(self) -> np.ndarray:
        """Positions of live nodes, in :meth:`alive_ids` order."""
        return self._pos[: self._size][self._alive[: self._size]].copy()

    def all_positions(self) -> np.ndarray:
        """``(size, 2)`` positions of every id ever seen (read-only view).

        Dead slots keep their last known position; callers that need a
        stable snapshot must copy (the buffer mutates on later events).
        """
        v = self._pos[: self._size].view()
        v.flags.writeable = False
        return v

    def bounds(self) -> "tuple[float, float, float, float]":
        """``(x0, y0, x1, y1)`` bounding box of the live positions.

        The tile layer (:mod:`repro.parallel`) covers this box with a
        worker-owned grid; an empty index yields a degenerate origin box.
        """
        live = self._pos[: self._size][self._alive[: self._size]]
        if len(live) == 0:
            return (0.0, 0.0, 0.0, 0.0)
        return (
            float(live[:, 0].min()),
            float(live[:, 1].min()),
            float(live[:, 0].max()),
            float(live[:, 1].max()),
        )

    def share_buffers(self, arena, capacity: int) -> "tuple[object, object]":
        """Move ``_pos`` / ``_alive`` into shared memory (pre-fork).

        The tile worker pool calls this *before* forking so parent and
        workers see one physical copy of the coordinate state: the
        parent applies every position/alive mutation, workers replay
        only the private bucket bookkeeping
        (:meth:`apply_shared_mutation`).  Returns the two
        :class:`~repro.parallel.shm.ShmHandle` objects.  ``capacity``
        is a hard ceiling — shared buffers cannot be reallocated across
        processes, so growth beyond it raises instead of silently
        forking the state.
        """
        capacity = int(capacity)
        if capacity < len(self._alive):
            raise ValueError(
                f"shared capacity {capacity} below current capacity {len(self._alive)}"
            )
        pos = arena.empty((capacity, 2), np.float64)
        alive = arena.empty((capacity,), np.bool_)
        pos[: len(self._alive)] = self._pos[: len(self._alive)]
        alive[: len(self._alive)] = self._alive[: len(self._alive)]
        self._pos, self._alive = pos, alive
        self._shared = True
        return arena.handle(pos), arena.handle(alive)

    def unshare_buffers(self) -> None:
        """Copy shared buffers back to private arrays (pre-unlink).

        Must run before the owning arena unmaps its segments: the index
        would otherwise keep numpy views into unmapped pages and the
        next position read would fault.  Idempotent; a no-op when the
        buffers were never shared.
        """
        if not getattr(self, "_shared", False):
            return
        self._pos = self._pos.copy()
        self._alive = self._alive.copy()
        self._shared = False

    def apply_shared_mutation(
        self,
        op: str,
        node: int,
        old_key: "tuple[int, int] | None",
        new_key: "tuple[int, int] | None",
    ) -> None:
        """Replay one mutation's *cell* bookkeeping (worker side).

        With :meth:`share_buffers` active, the parent already wrote the
        new position/alive flag into the shared arrays before this
        record arrives; only the per-process sorted cell arrays, size,
        and live count remain to update.  ``op`` is ``"insert"``,
        ``"remove"``, ``"move"``, or ``"noop"`` (dead-slot position
        update — fully covered by the shared buffers).
        """
        node = int(node)
        if op == "insert":
            self._size = max(self._size, node + 1)
            self._n_alive += 1
            self._add(node, new_key)
        elif op == "remove":
            self._drop(node, old_key)
            self._n_alive -= 1
        elif op == "move":
            if new_key != old_key:
                self._relocate(node, old_key, new_key)
        elif op != "noop":  # pragma: no cover - protocol error
            raise ValueError(f"unknown shared mutation op {op!r}")

    def _grow_to(self, node: int) -> None:
        if node < len(self._alive):
            return
        if getattr(self, "_shared", False):
            cap = len(self._alive)
            need = (node + 1) * (2 * self._pos.itemsize + self._alive.itemsize)
            have = cap * (2 * self._pos.itemsize + self._alive.itemsize)
            raise RuntimeError(
                f"node id {node} exceeds the shared-buffer capacity {cap} "
                f"(would need {need:,} bytes, segments hold {have:,} bytes, "
                f"owner pid {os.getpid()}); shared buffers cannot grow "
                "across processes — size the pool's capacity above the "
                "trace's highest node id"
            )
        cap = max(2 * len(self._alive), node + 1)
        pos = np.zeros((cap, 2), dtype=np.float64)
        pos[: len(self._alive)] = self._pos[: len(self._alive)]
        alive = np.zeros(cap, dtype=bool)
        alive[: len(self._alive)] = self._alive[: len(self._alive)]
        self._pos, self._alive = pos, alive

    def insert(self, node: int, p: np.ndarray) -> None:
        """Add ``node`` at position ``p`` (new id or re-populated slot)."""
        node = int(node)
        if node < 0 or node > self._size:
            raise ValueError(f"node id {node} skips ids (next unused is {self._size})")
        if node < self._size and self._alive[node]:
            raise ValueError(f"node {node} is already present")
        p = np.asarray(p, dtype=np.float64).reshape(2)
        self._grow_to(node)
        self._pos[node] = p
        self._alive[node] = True
        self._size = max(self._size, node + 1)
        self._n_alive += 1
        self._add(node, self._key(p))

    def remove(self, node: int) -> None:
        """Remove ``node`` (position retained for a later re-insert)."""
        node = int(node)
        if not self.is_alive(node):
            raise ValueError(f"node {node} is not present")
        self._drop(node, self._key(self._pos[node]))
        self._alive[node] = False
        self._n_alive -= 1

    def move(self, node: int, p: np.ndarray) -> None:
        """Move live ``node`` to position ``p``."""
        node = int(node)
        if not self.is_alive(node):
            raise ValueError(f"node {node} is not present")
        p = np.asarray(p, dtype=np.float64).reshape(2)
        old_key = self._key(self._pos[node])
        new_key = self._key(p)
        if new_key != old_key:
            self._relocate(node, old_key, new_key)
        self._pos[node] = p

    def set_dead_position(self, node: int, p: np.ndarray) -> None:
        """Update the retained position of a dead ``node`` (no cell entry)."""
        node = int(node)
        if node >= self._size or self._alive[node]:
            raise ValueError(f"node {node} is not a dead slot")
        self._pos[node] = np.asarray(p, dtype=np.float64).reshape(2)

    def alive_mask(self, ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_alive` over an id array."""
        ids = np.asarray(ids, dtype=np.intp)
        ok = (ids >= 0) & (ids < self._size)
        ok[ok] = self._alive[ids[ok]]
        return ok

    def query_radius(
        self, center: np.ndarray, radius: float, *, exclude: "int | None" = None
    ) -> np.ndarray:
        """Sorted live node ids within ``radius`` of ``center`` (inclusive).

        Matches :meth:`GridIndex.query_radius` on the live snapshot,
        including the ``+1e-12`` epsilon on the squared distance.  Only
        the cells within ``ceil(radius / cell)`` of the center's cell are
        read, so a node beyond ``radius`` but inside that slack is
        returned only if its cell lies in that block.  The rule is
        symmetric: a query at ``p`` returns a node at ``q`` exactly when
        a query at ``q`` would return one at ``p``.
        """
        center = np.asarray(center, dtype=np.float64).reshape(1, 2)
        ex = None if exclude is None else np.array([exclude], dtype=np.intp)
        return self.query_radius_many(center, radius, exclude=ex)[1]

    def query_radius_many(
        self,
        centers: np.ndarray,
        radius: float,
        *,
        exclude: "np.ndarray | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Batched :meth:`query_radius` over many centers at once.

        Same contract as :meth:`GridIndex.query_radius_many`: CSR
        ``(indptr, indices)`` whose row ``k`` holds the sorted live ids
        within ``radius`` of ``centers[k]``.  ``exclude`` optionally
        gives one id per center to omit from its row (the query node
        itself).  The cells ``cy - reach … cy + reach`` of grid row
        ``cx`` are one code range of the sorted cell array, so two
        ``searchsorted`` calls bound every (center, row) run; one
        distance filter (``d² ≤ r² + 1e-12``, the per-query expression)
        and one sort then cover every (center, candidate) pair.
        """
        check_positive("radius", radius)
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
        q = len(centers)
        indptr = np.zeros(q + 1, dtype=np.intp)
        if q == 0 or len(self._cells) == 0:
            return indptr, np.empty(0, dtype=np.intp)
        reach = int(math.ceil(radius / self._cell))
        ij = np.floor(centers / self._cell).astype(np.int64)
        rows = (ij[:, :1] + np.arange(-reach, reach + 1)) << 32
        lo = self._cells.searchsorted((rows + (ij[:, 1:] - reach)).ravel())
        hi = self._cells.searchsorted((rows + (ij[:, 1:] + reach + 1)).ravel())
        counts = hi - lo
        hits = self._ids[ragged_arange(lo, counts)]
        qids = np.arange(q).repeat(counts.reshape(q, -1).sum(axis=1))
        d = self._pos.take(hits, axis=0) - centers.take(qids, axis=0)
        mask = d[:, 0] ** 2 + d[:, 1] ** 2 <= radius * radius + 1e-12
        if exclude is not None:
            mask &= hits != np.asarray(exclude, dtype=np.intp)[qids]
        qids, hits = qids[mask], hits[mask]
        np.cumsum(np.bincount(qids, minlength=q), out=indptr[1:])
        # Ids are below 2**32 (edge codes pack them the same way): one
        # int64 sort orders by (center, id), several times faster than
        # a two-key lexsort.
        key = (qids.astype(np.int64) << 32) | hits
        key.sort()
        return indptr, (key & 0xFFFFFFFF).astype(np.intp)
