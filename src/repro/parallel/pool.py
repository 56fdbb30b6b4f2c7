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
  the topology state (the Yao and admission tables, the reverse index,
  the edge codes and ``_edge_dirs``, the conflict store) is inherited
  copy-on-write and kept in sync by diffs.
* **One sync per phase.**  Per batch the parent runs phase A (serial
  mutations — geometry lands in the shared arrays), builds every
  worker's message, then sends each worker one: the batch's mutation
  records (private bucket bookkeeping), the repair contexts of the
  groups *assigned* to it (routed by the tile of their first anchor),
  and the **foreign payload** of the previous batch (what the groups
  other workers repaired changed).  Workers apply the payload
  (:func:`apply_foreign`), replay the records, repair their groups with
  ``collect_diff=True``, and reply with compact state diffs — the halo
  exchange is double-buffered: batch *k*'s changes travel inside batch
  *k+1*'s message, so there is exactly one send and one receive per
  worker per batch.  The parent splices each reply into its replica as
  it arrives, while the other workers still repair; the parent replica
  applies every diff and stays globally exact.
* **Halo subscriptions.**  With ``halo_filter=True`` (default) a diff is
  shipped to a worker *eagerly* only when one of its group's anchors
  falls within the worker's territory — its owned tiles expanded by the
  subscription radius (9+3Δ)D, which covers both future group repairs
  and the pool-side MAC read region (see :meth:`TileWorkerPool.mac_step`).
  Every other diff is withheld, and the worker keeps no history of it:
  the grid cells within (4+Δ)D of the diff's anchors — where all the
  state it changed lies — become **stale** for that worker.  ΘALG and
  conflict-row state in a region depends only on the current positions
  around it, not on the events that led there, so a stale region is
  brought up to date by copying the parent's *current* state of it.  At
  send time the parent picks every stale cell within the 2(4+Δ)D
  independence radius of the batch's assigned-group anchors, plus every
  cell of an eager diff whose region touches a stale cell (that diff
  would replay onto stale state, so it is not shipped and its cells are
  refreshed instead), and ships the region state of the nodes located
  there.  The worker replays the eager diffs first and overwrites the
  regions after, so one pass suffices: an overlap of a replayed diff
  and a refreshed region ends at the parent's value either way.
  Invariant: every key of a worker outside its stale cells equals the
  parent's, and no batch or MAC step reads a stale key.  Fully disjoint
  regions never cross the pipe, and the stale set is bounded by the
  area churn ever touched, so catch-up work never builds up.
* **Exact replay.**  Diffs carry the repairer's new state — table rows
  and row changes — and replay derives the rest without geometry
  (:meth:`IncrementalTheta.apply_repair_diffs`,
  :meth:`DynamicInterference.apply_row_diffs`), and region state is
  written with set semantics
  (:meth:`IncrementalTheta.set_region_state`,
  :meth:`DynamicInterference.set_region_rows`), so the parent and every
  worker agree on every key a worker reads — checked per batch in
  ``tests/test_parallel_tiles.py`` against serial application, and key
  by key in ``tests/test_parallel_catchup.py``.

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
    n = len(topo_diff["out"][0]) + len(topo_diff["admit"][0]) + len(topo_diff["dead"])
    if row_diff is not None:
        n += len(row_diff["codes"]) + len(row_diff["added"]) + len(row_diff["removed"])
    return n


def _region_size(region: "dict | None") -> int:
    """Halo traffic of one refreshed region, in state entries (nodes + edges)."""
    if region is None:
        return 0
    theta = region["theta"]
    return len(theta["nodes"]) + len(theta["codes"])


def _cells_near(points: np.ndarray, r: float, side: float) -> "set[tuple[int, int]]":
    """Grid cells (of side ``side``) meeting the squares of half-width ``r``
    around ``points`` — every cell within ``r`` of one of them."""
    if len(points) == 0:
        return set()
    lo = np.floor((points - r) / side).astype(np.int64).tolist()
    hi = np.floor((points + r) / side).astype(np.int64).tolist()
    return {
        (i, j)
        for (x0, y0), (x1, y1) in zip(lo, hi)
        for i in range(x0, x1 + 1)
        for j in range(y0, y1 + 1)
    }


def _cell_of(p, side: float) -> "tuple[int, int]":
    """The grid cell (of side ``side``) holding point ``p``."""
    return int(np.floor(p[0] / side)), int(np.floor(p[1] / side))


def apply_foreign(inc, di, foreign) -> None:
    """Bring a replica up to date with a foreign payload from :meth:`TileWorkerPool._drain`.

    ``foreign`` is ``(eager, region)``.  The eager diffs — groups of
    one batch, which share no row — replay first, their row diffs in one
    merge.  The refreshed ``region`` (or ``None``) is written after,
    with set semantics, so it ends at the parent's state whatever the
    replay did there.
    """
    eager, region = foreign
    inc.apply_repair_diffs([tdiff for tdiff, _ in eager])
    if di is not None and eager:
        di.apply_row_diffs([rdiff for _, rdiff in eager], _sync=False)
    if region is not None:
        inc.set_region_state(region["theta"])
        if di is not None:
            di.set_region_rows(region["theta"]["nodes"], region["rows"])


def repair_assigned(inc, di, assigned) -> list:
    """Repair a worker's assigned groups and return its batch reply.

    One call of each kernel for every ``(gid, contexts, moved)`` group;
    the reply stays per group, as ``(gid, stats, tdiff, conflict_stats,
    row_diff)``.  Ends the batch on the replica (version bump, rows
    declared synced).
    """
    repaired = inc._repair_groups([ctxs for _, ctxs, _ in assigned], collect_diff=True)
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
    inc.topology_version += 1
    if di is not None:
        di._mark_synced()
    return [
        (gid, rs, tdiff, cs, rdiff)
        for (gid, _, _), (rs, tdiff), (cs, rdiff) in zip(assigned, repaired, conflicts)
    ]


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
    # A replica that missed a death keeps the dead node's edges in its
    # stale cells, and a dead node may move out of them: only edges
    # between live nodes (all the parent has) are candidates.
    index = inc._index
    ce = edges[cand]
    ce = ce[index.alive_mask(ce[:, 0]) & index.alive_mask(ce[:, 1])]
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
    """Worker loop: apply the foreign payload, replay records, repair groups.

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
                with trace.span("pool.mac", worker=wid, step=step, diffs=len(foreign[0])):
                    last_span = "pool.mac"
                    apply_foreign(inc, di, foreign)
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
                    "pool.replay",
                    worker=wid,
                    diffs=len(foreign[0]),
                    region=_region_size(foreign[1]),
                    records=len(records),
                ):
                    apply_foreign(inc, di, foreign)
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
                    out = repair_assigned(inc, di, assigned)
                    sp.set(
                        nodes_touched=sum(o[1].nodes_touched for o in out),
                        diff_entries=sum(_diff_size(o[2], o[4]) for o in out),
                    )
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
        Worker process count (default: available cores), capped at the
        grid's tile count: a narrow world covered by fewer tiles starts
        fewer workers.
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
        docstring): a diff outside a worker's territory is withheld and
        marks its cells stale there, to be refreshed from the parent's
        state only when the worker is about to read them.  ``False``
        restores the full broadcast — every diff to every worker — for
        A/B comparison.

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
        # A worker without a tile would repair nothing yet fork a full
        # replica and receive every batch.
        self.workers = min(self.workers, grid.n_tiles)
        self.halo_filter = bool(halo_filter)
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
        #: Region radius: every key a group's repair reads or writes is
        #: at a node within (4+Δ)D of its anchors.
        self._region_radius = 0.5 * self._need_radius
        #: Stale-cell side: the slack keeps float rounding in the cell
        #: floor from pushing a within-radius pair two cells apart.
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
        #: worker (double buffer); entries are (tdiff, rdiff, cells),
        #: ``cells`` those within the region radius of the anchors.
        self._pending: "list[list]" = [[] for _ in range(self.workers)]
        #: Per worker, the grid cells (``_cell`` wide) where its replica
        #: may differ from the parent's: the regions of withheld diffs
        #: not refreshed since.
        self._stale: "list[set[tuple[int, int]]]" = [set() for _ in range(self.workers)]
        #: Cumulative halo-traffic accounting (also merged into each
        #: worker's telemetry snapshot): eager diffs plus refreshed
        #: region entries shipped, and withheld (diff, worker) pairs.
        self.diffs_replayed_total = 0
        self.diffs_suppressed_total = 0
        #: Stale cells refreshed from the parent's state, summed over workers.
        self.cells_refreshed_total = 0
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
        # longer derive) to every replica.  ``prior`` keeps each event
        # node's pre-event position and liveness for the stale-region
        # refresh.
        records = []
        contexts = []
        prior = []
        for ev in events:
            kind = event_kind(ev)
            node = int(ev.node)
            old_key = None
            if node < index.size:
                alive = index.is_alive(node)
                prior.append((node, index.position(node), alive))
                if alive and kind in ("move", "leave", "fail"):
                    old_key = index.cell_key(prior[-1][1])
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

        # Build every worker's foreign payload before the first send, so
        # no worker waits on the parent's catch-up for another.
        foreign = []
        for wid in range(self.workers):
            na = need_anchors[wid]
            foreign.append(
                self._drain(
                    wid, np.vstack(na) if na else np.empty((0, 2), dtype=np.float64), prior
                )
            )
        for wid in range(self.workers):
            self._send(wid, ("batch", foreign[wid], records, assigned[wid]))
        if di is not None:
            # Merge the previous batch's row changes while the workers repair.
            di._flush()
        diffs_replayed = sum(len(e) + _region_size(r) for e, r in foreign)
        diff_bytes = 0
        if trace.is_enabled():
            # Wire size of the halo exchange actually shipped.
            diff_bytes = sum(len(pickle.dumps(f)) for f in foreign if f[0] or f[1])

        # Splice each reply into the parent replica as it arrives, while
        # the other workers still repair (groups touch disjoint state —
        # any splice order yields the same state).  The groups of one
        # reply share no row, so their row diffs go in one merge.
        def splice(reply) -> None:
            inc.apply_repair_diffs([o[2] for o in reply])
            if di is not None and reply:
                di.apply_row_diffs([o[4] for o in reply], _sync=False)

        replies = self._recv_all(splice)

        # Stage every group's diffs, in group order, as the other
        # workers' foreign diffs for the next batch: eagerly for workers
        # whose territory the group's anchors touch, as stale cells for
        # the rest.  Group order fixes the replay order.
        results = []
        for wid, reply in enumerate(replies):
            for gid, rs, tdiff, cs, rdiff in reply:
                results.append((gid, wid, rs, tdiff, cs, rdiff))
        results.sort(key=lambda r: r[0])
        repairs = []
        conflict_repairs = []
        halo = 0
        diffs_suppressed = 0
        for gid, wid, rs, tdiff, cs, rdiff in results:
            repairs.append(rs)
            if cs is not None:
                conflict_repairs.append(cs)
            halo += _diff_size(tdiff, rdiff)
            diffs_suppressed += self._route_diff(wid, group_anchors[gid], tdiff, rdiff)

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
    def _subscribers(self, anchors: np.ndarray) -> "set[int]":
        """Workers whose subscription zone holds any of ``anchors``."""
        if len(anchors) == 0:
            return set(range(self.workers))  # undeterminable region — deliver, never guess
        lo_x, lo_y, hi_x, hi_y = self._territory
        x, y = anchors[:, 0:1], anchors[:, 1:2]
        hit = ((x >= lo_x) & (x <= hi_x) & (y >= lo_y) & (y <= hi_y)).any(axis=0)
        return set((np.flatnonzero(hit) % self.workers).tolist())

    def _route_diff(self, src_wid: int, anchors, tdiff, rdiff) -> int:
        """Stage one group diff for every other worker; returns withholdings.

        A withheld diff leaves only its region's cells behind: those
        within the region radius of its anchors, and the cell of each
        node that died in the group, which may have moved on while dead
        and takes its keys along.
        """
        cells = _cells_near(anchors, self._region_radius, self._cell)
        cells.update(_cell_of(self.inc.position(d), self._cell) for d in tdiff["dead"])
        subscribed = self._subscribers(anchors) if self.halo_filter else range(self.workers)
        withheld = 0
        for other in range(self.workers):
            if other == src_wid:
                continue
            if other in subscribed:
                self._pending[other].append((tdiff, rdiff, cells))
            else:
                self._stale[other] |= cells
                self._diffs_deferred[other] += 1
                withheld += 1
        self.diffs_suppressed_total += withheld
        return withheld

    def _drain(self, wid: int, need_anchors: "np.ndarray | None", prior=()) -> tuple:
        """The foreign payload ``(eager, region)`` to ship to ``wid`` now.

        The cells to refresh are the stale cells within the 2(4+Δ)D
        catch-up radius of ``need_anchors`` (the batch's assigned groups
        read there), plus every cell of a pending diff whose region
        touches a stale cell: that diff would replay onto stale state,
        so it is dropped and its region refreshed instead.  The other
        pending diffs ship as ``eager``.  ``region`` (``None`` when no
        node is picked) is the parent's current state of the nodes
        located in the picked cells and of this batch's event nodes
        whose pre-event position was there; ``prior`` holds this
        batch's ``(node, pre-event position, alive before)`` triples.
        A worker that missed a death keeps the dead node's keys where it
        died, so a dead node that moves or comes back from a stale cell
        takes the staleness along: its new cell turns stale too.  The
        picked cells leave the stale set.
        """
        pending, self._pending[wid] = self._pending[wid], []
        stale = self._stale[wid]
        side = self._cell
        for node, p, alive in prior:
            if not alive and _cell_of(p, side) in stale:
                stale.add(_cell_of(self.inc.position(node), side))
        picked: "set[tuple[int, int]]" = set()
        if stale and need_anchors is not None and len(need_anchors):
            picked = stale.intersection(_cells_near(need_anchors, self._need_radius, side))
        eager = []
        for tdiff, rdiff, cells in pending:
            if stale.isdisjoint(cells):
                eager.append((tdiff, rdiff))
            else:
                picked |= cells
        region = None
        if picked:
            stale -= picked
            self.cells_refreshed_total += len(picked)
            nodes = self._nodes_in(picked)
            nodes.update(node for node, p, _ in prior if _cell_of(p, side) in picked)
            if nodes:
                theta = self.inc.region_state(sorted(nodes))
                rows = self.di.region_rows(theta["codes"]) if self.di is not None else None
                region = {"theta": theta, "rows": rows}
        shipped = len(eager) + _region_size(region)
        self._diffs_in[wid] += shipped
        self.diffs_replayed_total += shipped
        return eager, region

    def _nodes_in(self, cells) -> "set[int]":
        """Ids, live or dead, whose current position lies in ``cells``."""
        ij = np.floor(self.inc.all_positions() / self._cell).astype(np.int64)
        keys = (ij[:, 0] << 32) + ij[:, 1]
        want = np.array([(i << 32) + j for i, j in cells], dtype=np.int64)
        return set(np.flatnonzero(np.isin(keys, want)).tolist())

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
            # current.  (Withheld diffs are outside the read region by
            # construction; a pending diff that touches one of their
            # stale cells still becomes a refresh inside _drain.)
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
        (``diffs_in`` / ``diffs_suppressed`` / ``stale_cells`` /
        ``shm_bytes``), so
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
        tele.update(self._halo_traffic(wid))
        self._last_tele[wid] = tele

    def _halo_traffic(self, wid: int) -> dict:
        return {
            "diffs_in": self._diffs_in[wid],
            "diffs_suppressed": self._diffs_deferred[wid],
            "stale_cells": len(self._stale[wid]),
            "shm_bytes": self._arena.nbytes,
        }

    def telemetry_snapshot(self) -> "dict[int, dict]":
        """Per-worker telemetry (latest known sample) with current halo traffic."""
        return {wid: dict(t, **self._halo_traffic(wid)) for wid, t in sorted(self._last_tele.items())}

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
