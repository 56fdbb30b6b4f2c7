"""Persistent tile-worker pool: process-parallel churn repair.

The serial path of :func:`repro.dynamic.batching.apply_events_parallel`
repairs every group of a batch in one process, and the group
transitions are Python-loop heavy, so threads could not overlap them
under the GIL.  This pool runs the groups in **worker processes** — each
worker repairs all the groups routed to it with one batch-wide call of
each repair kernel, as the serial path does for the whole batch — and
keeps the result bit-identical to the serial path by construction:

* **Replicated state, shared geometry.**  Each worker forks from the
  parent *after* :meth:`DynamicGridIndex.share_buffers` moved the
  position/alive arrays into :class:`~repro.parallel.shm.ShmArena`
  segments, so every process reads one physical copy of the coordinates;
  the topology state (``_out``/``_in``/``_admit``/``_edge_dirs``, the
  conflict store) is inherited copy-on-write and kept in sync by diffs.
* **One sync per phase.**  Per batch the parent runs phase A (serial
  mutations — geometry lands in the shared arrays), builds every
  worker's message, then sends each worker one: the batch's mutation
  records (private bucket bookkeeping), the repair contexts of the
  groups *assigned* to it (routed by the tile of their first anchor),
  and the **foreign diffs** of the previous batch (the groups other
  workers repaired).  Workers replay foreign diffs, replay the records,
  repair their groups with ``collect_diff=True``, and reply with
  compact state diffs — the halo exchange is double-buffered: batch
  *k*'s diffs travel inside batch *k+1*'s message, so there is exactly
  one send and one receive per worker per batch.  The parent splices
  each reply into its replica as it arrives, while the other workers
  still repair.
* **Halo subscriptions.**  With ``halo_filter=True`` (default) a diff is
  shipped to a worker *eagerly* only when one of its group's anchors
  falls within the worker's territory — its owned tiles expanded by the
  subscription radius (9+3Δ)D, which covers both future group repairs
  and the pool-side MAC read region (see :meth:`TileWorkerPool.mac_step`).
  Everything else parks in a per-worker backlog, ordered by ``seq`` and
  indexed by grid cells as wide as the catch-up radius, and is *caught
  up* lazily: at send time any backlog diff whose anchors come within
  the 2(4+Δ)D independence radius of the batch's assigned-group anchors
  is delivered, together with the backlog diffs whose regions overlap a
  delivered one — a delivered diff needs every **earlier** overlapping
  diff, since replay order between overlapping diffs must match splice
  order.  The candidates come from the 3×3 cell neighbourhoods of the
  anchors, so catch-up costs O(entries near the batch), not
  O(backlog).  A replica is therefore exact wherever it is about to
  read, while fully disjoint regions never cross the pipe; the parent
  replica still applies every diff and remains globally exact.  The
  backlog is capped (``max_backlog``) by a flush-everything delivery:
  the batch that flushes replays the whole backlog, a step-time spike
  every few hundred batches on a workload whose regions never meet.
* **Exact replay.**  Diffs replay the repairer's transition sequence
  verbatim (:meth:`IncrementalTheta.apply_repair_diff`,
  :meth:`DynamicInterference.apply_row_diff`), so parent and every
  worker hold bit-identical state after each batch — checked per batch
  in ``tests/test_parallel_tiles.py`` against serial application.

Group independence (the 2(4+Δ)D union–find radius of
:func:`repro.dynamic.batching.group_events`) guarantees concurrent
groups touch disjoint nodes, edges, and conflict rows, so the diffs of
one batch commute and splicing them in group order reproduces any
serial order.

If a worker dies mid-batch (crash, OOM-kill, SIGKILL) the parent
detects the dead process sentinel, terminates the remaining workers,
**unlinks every shared-memory segment**, and raises
:class:`~repro.parallel.shm.WorkerCrashError` — no leaked ``/dev/shm``
entries (``tests/test_parallel_shm.py``).
"""

from __future__ import annotations

import gc
import os
import pickle
import time
import traceback
from multiprocessing.connection import wait as _mp_wait

import numpy as np

from repro.dynamic.batching import (
    BatchApplyStats,
    group_events,
    independence_radius,
    moved_nodes,
)
from repro.dynamic.events import event_kind
from repro.dynamic.interference import MacStep, edge_uniforms
from repro.harness.runner import pool_context
from repro.interference.model import InterferenceModel
from repro.obs import metrics, telemetry, trace
from repro.parallel.shm import ShmArena, WorkerCrashError
from repro.parallel.tiles import TileGrid

__all__ = ["TileWorkerPool"]

#: Relative slack on halo/subscription radii, mirroring the engine's:
#: the serial kernels' inclusive ``d² ≤ r² + ε`` epsilon must never
#: out-reach a geometric filter.
_SLACK = 1e-6

#: Fork-inherited worker payload; set by the parent immediately before
#: ``Process.start()`` (fork happens synchronously inside it) and read
#: once by ``_worker_main``.  Passing the replicas through fork COW
#: instead of pickled args is what makes worker start O(1) in n.
_FORK_STATE: "dict | None" = None


def _diff_size(topo_diff: dict, row_diff: "dict | None") -> int:
    """Halo traffic of one group's diffs, in state entries."""
    n = len(topo_diff["out"]) + len(topo_diff["admit"]) + len(topo_diff["dead"])
    if row_diff is not None:
        n += len(row_diff["codes"]) + len(row_diff["added"]) + len(row_diff["removed"])
    return n


def _cell_keys(anchors: np.ndarray, side: float) -> tuple:
    """The distinct grid cells (of side ``side``) holding ``anchors``."""
    if len(anchors) == 0:
        return ()
    ij = np.floor(anchors / side).astype(np.int64).tolist()
    return tuple(dict.fromkeys(map(tuple, ij)))


class _Backlog:
    """One worker's withheld diffs, in ``seq`` order, indexed by grid cell.

    Entries are ``(seq, anchors, tdiff, rdiff, cells)``; ``cells`` are
    the :func:`_cell_keys` of the anchors.  Cells are slightly wider
    than the catch-up radius, so every entry with an anchor within the
    radius of a point sits in that point's 3×3 cell neighbourhood.
    """

    def __init__(self) -> None:
        self.entries: "dict[int, tuple]" = {}
        self._cells: "dict[tuple[int, int], dict[int, None]]" = {}

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: tuple) -> None:
        seq = entry[0]
        self.entries[seq] = entry
        for c in entry[4]:
            self._cells.setdefault(c, {})[seq] = None

    def pop(self, seq: int) -> tuple:
        entry = self.entries.pop(seq)
        for c in entry[4]:
            bucket = self._cells[c]
            del bucket[seq]
            if not bucket:
                del self._cells[c]
        return entry

    def take_all(self) -> list:
        out = list(self.entries.values())
        self.entries.clear()
        self._cells.clear()
        return out

    def around(self, cells) -> "list[int]":
        """Seqs of the entries with an anchor in the 3×3 neighbourhoods of ``cells``."""
        found: "dict[int, None]" = {}
        for cx, cy in cells:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    bucket = self._cells.get((cx + dx, cy + dy))
                    if bucket:
                        found.update(bucket)
        return list(found)


def _mac_tile_step(inc, di, grid, wid: int, workers: int, seed: int, step: int):
    """Activate + resolve the MAC round for this worker's tile interiors.

    Ownership: an edge belongs to the worker owning the tile of its
    lower endpoint, so the owned sets partition the live edge set.  The
    candidate set is every edge with an endpoint within (2+Δ)D of an
    owned tile — any guard region that can veto an owned activated edge
    is centered on such an edge, and the halo subscription keeps the
    replica exact out to (5+2Δ)D, so candidate existence, conflict
    degrees (activation probabilities), and the hash-derived uniforms
    of :func:`repro.dynamic.interference.edge_uniforms` all agree with
    the serial :meth:`DynamicMAC.deterministic_step` bit for bit.
    Returns ``(edges, costs, ok)`` for the owned activated edges.
    """
    empty = (np.empty((0, 2), dtype=np.int64), np.empty(0), np.empty(0, dtype=bool))
    edges = np.asarray(inc.edge_array(), dtype=np.int64)
    if len(edges) == 0:
        return empty
    pos = inc.all_positions()
    delta = float(di.delta)
    reach = (2.0 + delta) * float(inc.max_range) * (1.0 + _SLACK)
    p0, p1 = pos[edges[:, 0]], pos[edges[:, 1]]
    cand = np.zeros(len(edges), dtype=bool)
    for t in range(wid, grid.n_tiles, workers):
        cand |= grid.halo_mask(p0, t, reach)
        cand |= grid.halo_mask(p1, t, reach)
    ce = edges[cand]
    if len(ce) == 0:
        return empty
    codes = (ce[:, 0] << 32) | ce[:, 1]
    # KeyError = stale replica = a filtering bug: fail loudly rather
    # than activate with a wrong probability.
    deg = di.degrees_of(codes)
    probs = 1.0 / (2.0 * np.maximum(deg.astype(np.float64), 1.0))
    act = edge_uniforms(codes, seed, step) < probs
    ae = ce[act]
    if len(ae) == 0:
        return empty
    own = (grid.tile_of_many(pos[ae[:, 0]]) % workers) == wid
    mat = InterferenceModel(delta).interference_matrix(pos, ae)
    ok_all = ~mat.any(axis=1) if mat.size else np.ones(len(ae), dtype=bool)
    oe = ae[own]
    d = pos[oe[:, 0]] - pos[oe[:, 1]]
    costs = np.hypot(d[:, 0], d[:, 1]) ** float(inc.kappa)
    return oe, costs, ok_all[own]


def _worker_main(wid: int, conn) -> None:
    """Worker loop: apply foreign diffs, replay records, repair groups.

    Telemetry rides the existing reply channel: every message back to
    the parent (the startup ``hello``, each batch's ``ok``, the
    ``error`` path) carries a resource sample (RSS, CPU time via
    ``/proc``), the batch counter, the last span reached — and, when
    the parent traced at fork time, the span events recorded since the
    previous reply, which the parent ``Tracer.ingest``-merges so one
    Chrome trace shows a track per worker.  Reading ``/proc`` costs
    about half a millisecond, so an ``ok`` reply goes out first and the
    resource sample taken after it rides the *next* reply: its RSS and
    CPU figures lag one reply, while ``batch`` and ``last_span`` are
    current.  ``hello`` and ``error`` sample on the spot.
    """
    # Freeze the fork-inherited heap out of the cyclic GC: a gen-2
    # collection relinks every tracked object's GC header, which would
    # copy-on-write the entire inherited topology state into each
    # worker (multi-second stalls at n >= 3e4, memory x workers).
    gc.freeze()
    state = _FORK_STATE
    inc = state["inc"]
    di = state["di"]
    grid = state["grid"]
    workers = state["workers"]
    tracer = telemetry.worker_tracer()
    mark = tracer.total_appended if tracer is not None else 0
    sampler = telemetry.ResourceSampler()
    batch_no = 0
    last_span = "start"
    sample: dict = {}

    def _tele(fresh: bool = True) -> dict:
        nonlocal mark, sample
        if fresh:
            sample = sampler.sample()
        tele = dict(sample, worker=wid, batch=batch_no, last_span=last_span)
        events, mark = telemetry.drain_events(tracer, mark)
        if events:
            tele["events"] = events
        return tele

    def _reply(payload) -> None:
        # Idle-time work after the reply: the resource sample and the
        # conflict-store merge of this batch's changes.
        nonlocal sample
        conn.send(("ok", payload, _tele(fresh=False)))
        sample = sampler.sample()
        if di is not None:
            di._flush()

    def _replay(foreign) -> None:
        # Seq order; the row diffs of one batch's groups share no row,
        # so each run of them goes in one merge.
        run: list = []
        run_batch = None
        for tdiff, (batch, rdiff) in foreign:
            inc.apply_repair_diff(tdiff)
            if rdiff is None:
                continue
            if run and batch != run_batch:
                di.apply_row_diffs(run, _sync=False)
                run = []
            run.append(rdiff)
            run_batch = batch
        if run:
            di.apply_row_diffs(run, _sync=False)

    try:
        conn.send(("hello", _tele()))
    except (BrokenPipeError, OSError):
        return
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "stop":
            conn.close()
            return
        if msg[0] == "mac":
            try:
                _, foreign, seed, step = msg
                with trace.span("pool.mac", worker=wid, step=step, diffs=len(foreign)):
                    last_span = "pool.mac"
                    _replay(foreign)
                    payload = _mac_tile_step(inc, di, grid, wid, workers, seed, step)
                last_span = "idle"
                _reply(payload)
            except Exception:
                try:
                    conn.send(("error", traceback.format_exc(), _tele()))
                finally:
                    return
            continue
        try:
            _, foreign, records, assigned = msg
            batch_no += 1
            with trace.span(
                "pool.batch", worker=wid, batch=batch_no, groups=len(assigned)
            ):
                last_span = "pool.replay"
                with trace.span(
                    "pool.replay", worker=wid, diffs=len(foreign), records=len(records)
                ):
                    _replay(foreign)
                    for op, kind, node, old_key, new_key in records:
                        if kind == "fail":
                            inc._failed.add(node)
                        elif kind == "recover":
                            inc._failed.discard(node)
                        inc._index.apply_shared_mutation(op, node, old_key, new_key)
                last_span = "pool.repair"
                with trace.span(
                    "pool.repair",
                    worker=wid,
                    groups=len(assigned),
                    events=sum(len(ctxs) for _, ctxs, _ in assigned),
                ) as sp:
                    # One call of each kernel for every assigned group;
                    # the reply stays per group.
                    repaired = inc._repair_groups(
                        [ctxs for _, ctxs, _ in assigned], collect_diff=True
                    )
                    conflicts = [(None, None)] * len(assigned)
                    if di is not None:
                        conflicts = di.update_groups(
                            [
                                (rs.edges_added, rs.edges_removed, moved)
                                for (rs, _), (_, _, moved) in zip(repaired, assigned)
                            ],
                            _sync=False,
                            collect_diff=True,
                        )
                    out = [
                        (gid, rs, tdiff, cs, rdiff)
                        for (gid, _, _), (rs, tdiff), (cs, rdiff) in zip(
                            assigned, repaired, conflicts
                        )
                    ]
                    sp.set(
                        nodes_touched=sum(o[1].nodes_touched for o in out),
                        diff_entries=sum(_diff_size(o[2], o[4]) for o in out),
                    )
                inc.topology_version += 1
                if di is not None:
                    di._mark_synced()
            last_span = "idle"
            _reply(out)
        except Exception:
            try:
                conn.send(("error", traceback.format_exc(), _tele()))
            finally:
                return


class TileWorkerPool:
    """Persistent fork pool repairing disjoint event groups per tile.

    Parameters
    ----------
    incremental:
        The parent's :class:`~repro.dynamic.incremental.IncrementalTheta`.
        Its grid-index buffers are moved into shared memory; workers fork
        with full replicas of the topology state.
    interference:
        Optional :class:`~repro.dynamic.interference.DynamicInterference`
        maintained alongside (same protocol as the serial backend).
    workers:
        Worker process count (default: available cores).
    capacity:
        Hard ceiling on node ids (shared buffers cannot grow across
        processes).  Default: double the current id space.
    grid:
        Tile decomposition for group→worker routing; default covers the
        live bounding box with ~4 tiles per worker at the 2(4+Δ)D
        independence width.
    tiles:
        Alternative to ``grid``: an explicit tile shape ``(nx, ny)`` or
        a target tile count for the default cover (the CLI's
        ``--tiles nx,ny`` lands here).
    halo_filter:
        Route diffs through per-worker halo subscriptions (see module
        docstring).  ``False`` restores the full broadcast — every diff
        to every worker — for A/B comparison.
    max_backlog:
        Suppressed-diff backlog length per worker above which the next
        delivery flushes everything (memory bound; exactness never
        depends on it).

    Construct the pool **before** applying any events you want it to
    process — workers fork from the current state.  Use as a context
    manager or call :meth:`close`.
    """

    def __init__(
        self,
        incremental,
        interference=None,
        *,
        workers: "int | None" = None,
        capacity: "int | None" = None,
        grid: "TileGrid | None" = None,
        tiles: "int | tuple[int, int] | None" = None,
        halo_filter: bool = True,
        max_backlog: int = 512,
    ) -> None:
        ctx = pool_context()
        if ctx.get_start_method() != "fork":
            raise RuntimeError(
                "TileWorkerPool requires fork start (workers inherit the "
                "topology replicas); use the serial backend here"
            )
        self.inc = incremental
        self.di = interference
        if interference is not None and interference.inc is not incremental:
            raise ValueError("interference tracks a different IncrementalTheta")
        self.workers = int(workers) if workers else max(1, len(os.sched_getaffinity(0)))
        delta = interference.delta if interference is not None else 0.0
        index = incremental._index
        if capacity is None:
            capacity = max(2 * index.size, index.size + 1024)
        self._arena = ShmArena()
        index.share_buffers(self._arena, int(capacity))
        if grid is None:
            if isinstance(tiles, tuple):
                grid = TileGrid.cover(index.bounds(), shape=tiles)
            else:
                grid = TileGrid.cover(
                    index.bounds(),
                    tiles=int(tiles) if tiles else 4 * self.workers,
                    min_width=independence_radius(incremental.max_range, delta),
                )
        elif tiles is not None:
            raise ValueError("pass either grid= or tiles=, not both")
        self.grid = grid
        self.halo_filter = bool(halo_filter)
        self.max_backlog = int(max_backlog)
        D = float(incremental.max_range)
        #: Eager-subscription radius around a worker's owned tiles.  A
        #: diff's state lies within (4+Δ)D of its group anchors; the MAC
        #: step reads degrees of edges out to (2+Δ)D whose rows reach a
        #: further (2+Δ)D — exactness out to (5+2Δ)D from the tiles
        #: suffices, i.e. anchors within (9+3Δ)D must be delivered.
        #: (9+3Δ)D also dominates the 2(4+Δ)D repair independence radius.
        self._sub_radius = (9.0 + 3.0 * delta) * D * (1.0 + _SLACK)
        #: Catch-up radius: two repair regions can only overlap when
        #: their anchor sets come within 2(4+Δ)D of each other.
        self._need_radius = independence_radius(D, delta) * (1.0 + _SLACK)
        #: Backlog cell side: the slack keeps float rounding in the
        #: cell floor from pushing a within-radius pair two cells apart.
        self._cell = self._need_radius * (1.0 + _SLACK)
        #: Subscription rectangles of every tile, as columns
        #: (lo_x, lo_y, hi_x, hi_y); tile t belongs to worker t % workers.
        self._territory = np.array(
            [grid.halo_rect(t, self._sub_radius) for t in range(grid.n_tiles)],
            dtype=np.float64,
        ).T
        self._closed = False
        self._procs = []
        self._conns = []
        #: Eagerly-subscribed diffs of the previous batch, staged per
        #: worker (double buffer); entries are
        #: (seq, anchors, tdiff, rdiff, cells).
        self._pending: "list[list]" = [[] for _ in range(self.workers)]
        #: Suppressed diffs per worker, ordered by seq, awaiting catch-up.
        self._backlog = [_Backlog() for _ in range(self.workers)]
        self._seq = 0
        #: Cumulative halo-traffic accounting (also merged into each
        #: worker's telemetry snapshot).
        self.diffs_replayed_total = 0
        self.diffs_suppressed_total = 0
        self._diffs_in = [0] * self.workers
        self._diffs_deferred = [0] * self.workers
        #: Last telemetry snapshot received from each worker (hello or
        #: batch reply) — the crash-postmortem payload.
        self._last_tele: "dict[int, dict]" = {}

        global _FORK_STATE
        _FORK_STATE = {
            "inc": incremental,
            "di": interference,
            "grid": grid,
            "workers": self.workers,
        }
        try:
            for wid in range(self.workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main, args=(wid, child_conn), daemon=True
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        finally:
            _FORK_STATE = None
        # Startup handshake: every worker reports one telemetry sample
        # before the first batch, so even a crash on batch 1 has a
        # baseline snapshot, and a worker that dies during fork/import
        # is detected here rather than mid-batch.
        for wid in range(self.workers):
            try:
                msg = self._conns[wid].recv()
            except (EOFError, OSError):
                self._fail(wid)
            self._adopt_telemetry(wid, msg[1])

    # ------------------------------------------------------------------
    # Batch protocol
    # ------------------------------------------------------------------
    def apply_batch(self, events, *, radius: "float | None" = None) -> BatchApplyStats:
        """Apply one step's events across the worker pool.

        Equivalent to ``apply_events_parallel(..., backend="serial")`` —
        same final state, same per-group stats — with group repairs
        executed in the owning tile's worker process.
        """
        if self._closed:
            raise RuntimeError("TileWorkerPool is closed")
        with trace.span(
            "pool.apply_batch", events=len(events), workers=self.workers
        ) as batch_span:
            stats = self._apply_batch(events, radius=radius, batch_span=batch_span)
        return stats

    def _apply_batch(self, events, *, radius, batch_span) -> BatchApplyStats:
        t0 = time.perf_counter()
        inc = self.inc
        di = self.di
        index = inc._index
        delta = di.delta if di is not None else 0.0
        idx_groups = group_events(inc, events, radius=radius, delta=delta)

        # Phase A — serial mutations in trace order.  Geometry lands in
        # the shared buffers; records carry the private bucket
        # bookkeeping (including pre-move cell keys workers can no
        # longer derive) to every replica.
        records = []
        contexts = []
        for ev in events:
            kind = event_kind(ev)
            node = int(ev.node)
            old_key = None
            if kind in ("move", "leave", "fail") and index.is_alive(node):
                old_key = index.cell_key(index.position(node))
            ctx = inc._mutate(ev)
            contexts.append(ctx)
            if ctx is None:
                records.append(("noop", kind, node, None, None))
            elif kind in ("join", "recover"):
                records.append(
                    ("insert", kind, node, None, index.cell_key(index.position(node)))
                )
            elif kind == "move":
                records.append(
                    ("move", kind, node, old_key, index.cell_key(index.position(node)))
                )
            else:  # leave / fail
                records.append(("remove", kind, node, old_key, None))

        # Route each group to the worker owning the tile of its first
        # anchor; groups with no repair work (all dead-slot moves) are
        # dropped here exactly like the serial backend drops them.  The
        # full anchor set of each group (a chain group can span tiles)
        # drives the halo-subscription bookkeeping.
        assigned: "list[list]" = [[] for _ in range(self.workers)]
        need_anchors: "list[list]" = [[] for _ in range(self.workers)]
        group_anchors: "dict[int, np.ndarray]" = {}
        for gid, idxs in enumerate(idx_groups):
            ctxs = [contexts[i] for i in idxs if contexts[i] is not None]
            if not ctxs:
                continue
            moved = moved_nodes(inc, events, idxs)
            anchors = np.asarray(
                [a for c in ctxs for a in c[2]], dtype=np.float64
            ).reshape(-1, 2)
            group_anchors[gid] = anchors
            wid = self.grid.tile_of(ctxs[0][2][0]) % self.workers
            assigned[wid].append((gid, ctxs, moved))
            need_anchors[wid].append(anchors)

        # Drain every worker's foreign list before the first send, so
        # no worker waits on the parent's catch-up for another.
        foreign = []
        for wid in range(self.workers):
            na = need_anchors[wid]
            foreign.append(
                self._drain(
                    wid, np.vstack(na) if na else np.empty((0, 2), dtype=np.float64)
                )
            )
        for wid in range(self.workers):
            self._send(wid, ("batch", foreign[wid], records, assigned[wid]))
        if di is not None:
            # Merge the previous batch's row changes while the workers repair.
            di._flush()
        diffs_replayed = sum(len(f) for f in foreign)
        diff_bytes = 0
        if trace.is_enabled():
            # Wire size of the halo exchange actually shipped.
            diff_bytes = sum(len(pickle.dumps(f)) for f in foreign if f)

        # Splice each reply into the parent replica as it arrives, while
        # the other workers still repair (groups touch disjoint state —
        # any splice order yields the same state).  The groups of one
        # reply share no row, so their row diffs go in one merge.
        def splice(reply) -> None:
            for _, _, tdiff, _, _ in reply:
                inc.apply_repair_diff(tdiff)
            if di is not None and reply:
                di.apply_row_diffs([o[4] for o in reply], _sync=False)

        replies = self._recv_all(splice)

        # Stage every group's diffs, in group order, as the other
        # workers' foreign diffs for the next batch: eagerly for workers
        # whose territory the group's anchors touch, backlogged for the
        # rest.  Group order fixes the seqs, hence every later delivery.
        results = []
        for wid, reply in enumerate(replies):
            for gid, rs, tdiff, cs, rdiff in reply:
                results.append((gid, wid, rs, tdiff, cs, rdiff))
        results.sort(key=lambda r: r[0])
        batch_tag = self._seq
        repairs = []
        conflict_repairs = []
        halo = 0
        diffs_suppressed = 0
        for gid, wid, rs, tdiff, cs, rdiff in results:
            repairs.append(rs)
            if cs is not None:
                conflict_repairs.append(cs)
            halo += _diff_size(tdiff, rdiff)
            diffs_suppressed += self._route_diff(wid, group_anchors[gid], tdiff, (batch_tag, rdiff))

        inc.topology_version += 1
        if di is not None:
            di._mark_synced()

        batch_span.set(
            groups=len(idx_groups),
            halo_entries=halo,
            diff_bytes=diff_bytes,
            diffs_replayed=diffs_replayed,
            diffs_suppressed=diffs_suppressed,
        )
        reg = metrics.active()
        if reg is not None:
            reg.counter("pool.batches").inc()
            reg.counter("pool.halo_entries").inc(halo)
            reg.counter("pool.diff_bytes").inc(diff_bytes)
            reg.counter("pool.diffs_sent").inc(diffs_replayed)
            reg.counter("pool.diffs_suppressed").inc(diffs_suppressed)
            reg.gauge("pool.shm_bytes").set(self._arena.nbytes)
            rss = [
                t.get("rss_bytes", 0) for t in self._last_tele.values() if t
            ]
            if rss:
                reg.gauge("pool.worker_rss_bytes").set(max(rss))

        return BatchApplyStats(
            events=len(events),
            groups=len(idx_groups),
            group_sizes=tuple(len(g) for g in idx_groups),
            nodes_touched=sum(r.nodes_touched for r in repairs),
            edges_flipped=sum(r.edges_flipped for r in repairs),
            repairs=repairs,
            conflict_repairs=conflict_repairs,
            wall_time=time.perf_counter() - t0,
            backend="process",
            jobs=self.workers,
            halo_nodes=halo,
            diffs_replayed=diffs_replayed,
            diffs_suppressed=diffs_suppressed,
        )

    # ------------------------------------------------------------------
    # Halo subscriptions
    # ------------------------------------------------------------------
    @staticmethod
    def _near(a: np.ndarray, b: np.ndarray, r: float) -> bool:
        """Whether any point of ``a`` is within ``r`` of a point of ``b``."""
        if len(a) == 0 or len(b) == 0:
            return False
        dx = a[:, None, 0] - b[None, :, 0]
        dy = a[:, None, 1] - b[None, :, 1]
        return bool((dx * dx + dy * dy <= r * r).any())

    def _subscribers(self, anchors: np.ndarray) -> "set[int]":
        """Workers whose subscription zone holds any of ``anchors``."""
        if len(anchors) == 0:
            return set(range(self.workers))  # undeterminable region — deliver, never guess
        lo_x, lo_y, hi_x, hi_y = self._territory
        x, y = anchors[:, 0:1], anchors[:, 1:2]
        hit = ((x >= lo_x) & (x <= hi_x) & (y >= lo_y) & (y <= hi_y)).any(axis=0)
        return set((np.flatnonzero(hit) % self.workers).tolist())

    def _route_diff(self, src_wid: int, anchors, tdiff, rdiff) -> int:
        """Stage one group diff for every other worker; returns deferrals.

        ``rdiff`` travels as ``(batch, row_diff)``: the first seq of the
        diff's batch, so a worker can merge one batch's row diffs at once.
        """
        entry = (self._seq, anchors, tdiff, rdiff, _cell_keys(anchors, self._cell))
        self._seq += 1
        subscribed = self._subscribers(anchors) if self.halo_filter else range(self.workers)
        deferred = 0
        for other in range(self.workers):
            if other == src_wid:
                continue
            if other in subscribed:
                self._pending[other].append(entry)
            else:
                self._backlog[other].add(entry)
                self._diffs_deferred[other] += 1
                deferred += 1
        self.diffs_suppressed_total += deferred
        return deferred

    def _drain(self, wid: int, need_anchors: "np.ndarray | None") -> list:
        """The ordered foreign-diff list to ship to ``wid`` right now.

        Always includes the eager pending entries.  From the backlog it
        pulls the *seeds* — entries whose anchors come within the
        2(4+Δ)D independence radius of ``need_anchors`` (the batch's
        assigned groups may read their regions) — and closes over
        overlapping entries: a seed or a pending entry pulls in any
        backlog entry near it, an entry pulled in by the closure only
        *earlier* ones (a delivered diff needs every earlier withheld
        diff on shared nodes, or the later replay of the earlier diff
        would clobber newer state).  Candidates come from the backlog's
        cell index, so the work is O(entries near the batch), not
        O(backlog); :func:`repro._reference.halo_catchup_reference` is
        the linear scan it reproduces.  A backlog past ``max_backlog``
        is flushed whole.
        """
        pending, self._pending[wid] = self._pending[wid], []
        backlog = self._backlog[wid]
        if len(backlog) > self.max_backlog:
            selected = backlog.take_all()
        elif backlog:
            selected = self._catch_up(backlog, pending, need_anchors)
        else:
            selected = []
        out = sorted(selected + pending, key=lambda e: e[0])
        self._diffs_in[wid] += len(out)
        self.diffs_replayed_total += len(out)
        return [(e[2], e[3]) for e in out]

    def _catch_up(self, backlog: _Backlog, pending: list, need_anchors) -> list:
        """Pop and return the backlog entries :meth:`_drain` must deliver."""
        r = self._need_radius
        near = self._near
        selected = []
        if need_anchors is not None and len(need_anchors):
            for seq in backlog.around(_cell_keys(need_anchors, self._cell)):
                if near(backlog.entries[seq][1], need_anchors, r):
                    selected.append(backlog.pop(seq))
        # Worklist of (entry, is_seed); only seeds pull later entries.
        work = [(e, True) for e in pending] + [(e, True) for e in selected]
        while work and backlog:
            entry, seed = work.pop()
            for seq in backlog.around(entry[4]):
                if not seed and seq > entry[0]:
                    continue
                if near(backlog.entries[seq][1], entry[1], r):
                    cand = backlog.pop(seq)
                    selected.append(cand)
                    work.append((cand, False))
        return selected

    # ------------------------------------------------------------------
    # Pool-side MAC steps
    # ------------------------------------------------------------------
    def mac_step(self, *, seed: int, step: int) -> MacStep:
        """One §3.3 activate+resolve round, sharded over tile interiors.

        Each worker activates and resolves the edges owned by its tiles
        against the (2+Δ)D candidate halo; randomness comes from
        :func:`repro.dynamic.interference.edge_uniforms`, so the merged
        result is bit-identical to
        ``DynamicMAC(di, bound_mode="own").deterministic_step(seed=...,
        step=...)`` evaluated serially on the parent (asserted in
        ``tests/test_parallel_tiles.py``).  Requires the pool to carry a
        :class:`DynamicInterference` replica; only the ``"own"``
        activation bound parallelizes (degree lookups are local — the
        ``"neighborhood"`` bound reads whole rows).
        """
        if self._closed:
            raise RuntimeError("TileWorkerPool is closed")
        if self.di is None:
            raise RuntimeError(
                "mac_step requires the pool to maintain a DynamicInterference "
                "replica; construct TileWorkerPool(inc, interference)"
            )
        with trace.span("pool.mac_step", step=step, workers=self.workers) as sp:
            # Ship each worker its eager pending diffs first — the MAC
            # reads tile interiors + (2+Δ)D immediately, and those
            # regions are exactly what the eager subscription keeps
            # current.  (Backlogged diffs are outside the read region by
            # construction; the closure inside _drain still rides along
            # when a pending diff overlaps one.)
            foreign = [self._drain(wid, None) for wid in range(self.workers)]
            for wid in range(self.workers):
                self._send(wid, ("mac", foreign[wid], int(seed), int(step)))
            replies = self._recv_all()
            parts = [r for r in replies if len(r[0])]
            if parts:
                edges = np.vstack([r[0] for r in parts])
                costs = np.concatenate([r[1] for r in parts])
                ok = np.concatenate([r[2] for r in parts])
                order = np.argsort((edges[:, 0] << 32) | edges[:, 1], kind="stable")
                result = MacStep(edges=edges[order], costs=costs[order], ok=ok[order])
            else:
                result = MacStep(
                    edges=np.empty((0, 2), dtype=np.int64),
                    costs=np.empty(0),
                    ok=np.empty(0, dtype=bool),
                )
            sp.set(activated=result.activated, succeeded=result.succeeded)
        reg = metrics.active()
        if reg is not None:
            reg.counter("pool.mac_steps").inc()
            reg.counter("mac.activation_rounds").inc()
            reg.counter("mac.activated_edges").inc(result.activated)
            reg.counter("mac.resolved_attempts").inc(result.activated)
            reg.counter("mac.collision_failures").inc(
                result.activated - result.succeeded
            )
        return result

    # ------------------------------------------------------------------
    # Transport and failure handling
    # ------------------------------------------------------------------
    def _send(self, wid: int, msg) -> None:
        try:
            self._conns[wid].send(msg)
        except (BrokenPipeError, OSError):
            self._fail(wid)

    def _recv_all(self, on_reply=None) -> "list[list]":
        """Every worker's reply payload, in worker order.

        ``on_reply(payload)`` runs on each reply as it arrives, while
        the other workers may still be busy.
        """
        replies: "dict[int, list]" = {}
        pending = set(range(self.workers))
        while pending:
            sentinels = {self._procs[w].sentinel: w for w in pending}
            conns = {self._conns[w]: w for w in pending}
            ready = _mp_wait(list(conns) + list(sentinels))
            for obj in ready:
                wid = conns.get(obj)
                if wid is None:
                    wid = sentinels[obj]
                    # Dead sentinel — but a reply may still sit in the
                    # pipe (worker died after sending).
                    if wid in pending and not self._conns[wid].poll():
                        self._fail(wid)
                    continue
                if wid not in pending:
                    continue
                try:
                    msg = self._conns[wid].recv()
                except (EOFError, OSError):
                    self._fail(wid)
                self._adopt_telemetry(wid, msg[2])
                if msg[0] == "error":
                    self._fail(wid, worker_traceback=msg[1])
                replies[wid] = msg[1]
                pending.discard(wid)
                if on_reply is not None:
                    on_reply(msg[1])
        return [replies[w] for w in range(self.workers)]

    def _adopt_telemetry(self, wid: int, tele: "dict | None") -> None:
        """Record a worker's reply telemetry; merge its span events.

        The parent grafts its halo-traffic bookkeeping onto the sample
        (``diffs_in`` / ``diffs_suppressed`` / ``shm_bytes``), so
        ``repro top`` and crash postmortems show per-worker subscription
        imbalance without another message round.
        """
        if not tele:
            return
        tele = dict(tele)
        events = tele.pop("events", None)
        if events:
            tracer = trace.active()
            if tracer is not None:
                tracer.ingest(events)
        tele["diffs_in"] = self._diffs_in[wid]
        tele["diffs_suppressed"] = self._diffs_deferred[wid]
        tele["shm_bytes"] = self._arena.nbytes
        self._last_tele[wid] = tele

    def telemetry_snapshot(self) -> "dict[int, dict]":
        """Per-worker telemetry incl. halo traffic (latest known sample)."""
        return {wid: dict(t) for wid, t in sorted(self._last_tele.items())}

    def _fail(self, wid: int, *, worker_traceback: "str | None" = None) -> None:
        """Tear everything down after a worker death and raise."""
        proc = self._procs[wid]
        exitcode = proc.exitcode
        tele = self._last_tele.get(wid)
        self.close()
        detail = (
            f"worker {wid} raised:\n{worker_traceback}"
            if worker_traceback
            else f"worker {wid} (pid {proc.pid}) died with exit code {exitcode}"
        )
        if tele:
            detail += (
                "; last telemetry: rss={:.1f}MB, cpu={:.2f}s, batch={}, "
                "last_span={}".format(
                    tele.get("rss_bytes", 0) / 1e6,
                    tele.get("cpu_user_s", 0.0) + tele.get("cpu_sys_s", 0.0),
                    tele.get("batch", "?"),
                    tele.get("last_span", "?"),
                )
            )
        raise WorkerCrashError(
            f"{detail}; the pool is closed, all shared-memory segments are "
            "unlinked, and the topology state may be mid-batch — rebuild "
            "IncrementalTheta/DynamicInterference and a fresh TileWorkerPool",
            telemetry=tele,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        # Give the index private buffers back *before* unmapping the
        # segments, or its views would dangle into unmapped pages.
        self.inc._index.unshare_buffers()
        self._arena.close()

    def __enter__(self) -> "TileWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
