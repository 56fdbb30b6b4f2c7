"""Disjoint-region batch event application (ROADMAP item).

A churn step delivers many events whose dirty disks mostly do not
overlap — the paper's locality argument again: each event's repair
(topology + interference rows) reads and writes state within a bounded
radius of its anchors.  This module partitions a step's events into
**independent groups** by that radius using a union–find over coarse
grid cells, then repairs every group in shared array passes:

* **Phase A (serial):** every event's index mutation runs in trace
  order (join ids must appear in order).  After phase A the geometry is
  final.
* **Phase B (batch-wide):** one
  :meth:`~repro.dynamic.incremental.IncrementalTheta._repair_groups`
  call repairs every group's merged region, then one
  :meth:`~repro.dynamic.interference.DynamicInterference.update_groups`
  call repairs every group's conflict rows.  Overlapping dirty disks
  within a group are repaired *once* instead of once per event, and
  the groups share each kernel's numpy calls instead of paying them
  one group at a time.

Groups farther apart than :func:`independence_radius` touch disjoint
state — no node, edge or conflict row in common — so the batch-wide
kernels give every group exactly the stats, changelog and diff of a
repair of that group on its own, and the final state equals serial
per-event application (property-tested in
``tests/test_dynamic_batching.py`` and
``tests/test_dynamic_batch_kernels.py``).  The process backend
(:class:`repro.parallel.pool.TileWorkerPool`) runs the same two calls
in each worker over the groups routed to it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.dynamic.events import Event, NodeJoin, NodeMove, event_kind
from repro.obs import trace

__all__ = [
    "BatchApplyStats",
    "apply_events_parallel",
    "group_events",
    "independence_radius",
]


def independence_radius(max_range: float, delta: float = 0.0) -> float:
    """Minimum anchor distance for two events to never share state.

    One event's repair reads/writes topology state within ``2·D`` of its
    anchors (dirty disk of radius D plus receivers one hop out) and —
    when interference is maintained — conflict rows whose guard zones
    reach ``(1+Δ)·D`` beyond endpoints of changed edges, themselves
    within ``3·D`` of an anchor: a ``(4+Δ)·D`` influence disk per event,
    hence pairwise independence beyond ``2·(4+Δ)·D``.
    """
    return 2.0 * (4.0 + float(delta)) * float(max_range)


class _AnchorScanner:
    """Yield each event's repair anchors *before* any mutation runs.

    Matches the anchors ``_mutate`` later hands to the repair: join →
    target; live move → current + target; leave/fail/recover → current
    (retained) position; move of a failed node → none (no repair).
    Positions and fail-state changed by *earlier events of the same
    batch* are tracked as overlays, so an event may reference a node a
    previous event just created or moved (the serial phase A applies
    them in exactly this order).
    """

    def __init__(self, incremental) -> None:
        self._inc = incremental
        self._pos: "dict[int, np.ndarray]" = {}
        self._failed: "dict[int, bool]" = {}

    def _current(self, node: int) -> "np.ndarray | None":
        p = self._pos.get(node)
        if p is not None:
            return p
        index = self._inc._index
        if 0 <= node < index.size:
            return index.position(node)
        return None

    def anchors(self, event: Event) -> "list[np.ndarray]":
        node = int(event.node)
        if isinstance(event, NodeJoin):
            p = np.array([event.x, event.y], dtype=np.float64)
            self._pos[node] = p
            return [p]
        if isinstance(event, NodeMove):
            cur = self._current(node)
            p = np.array([event.x, event.y], dtype=np.float64)
            self._pos[node] = p
            failed = self._failed.get(node, node in self._inc._failed)
            if failed:
                return []
            return [cur, p] if cur is not None else [p]
        kind = event_kind(event)
        if kind in ("leave", "fail"):
            self._failed[node] = kind == "fail"
        elif kind == "recover":
            self._failed[node] = False
        cur = self._current(node)
        return [cur] if cur is not None else []


class _UnionFind:
    def __init__(self) -> None:
        self._parent: "dict[object, object]" = {}

    def find(self, x):
        parent = self._parent
        root = parent.setdefault(x, x)
        while root != parent[root]:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


def moved_nodes(incremental, events, idxs) -> "list[int]":
    """Live nodes of one event group whose incident conflict rows move.

    Every node the group moves or joins that is alive after phase A.  A
    node that fails, moves while failed and recovers in one batch (or
    leaves and rejoins elsewhere) can keep edges that are in the net
    topology diff neither as added nor as removed, yet whose guard zones
    moved with it; a per-event repair rebuilt those rows when the node
    came back.  A fresh join's edges are all added, so naming it costs
    nothing.
    """
    index = incremental._index
    return [
        int(events[i].node)
        for i in idxs
        if event_kind(events[i]) in ("move", "join") and index.is_alive(int(events[i].node))
    ]


def group_events(
    incremental,
    events: "list[Event]",
    *,
    radius: "float | None" = None,
    delta: float = 0.0,
) -> "list[list[int]]":
    """Partition a step's events into independent groups (index lists).

    Events are unioned when their anchors could fall within ``radius``
    (default :func:`independence_radius`) of each other, via coarse grid
    cells of side ``≥ radius``: anchors closer than ``radius`` land in
    3×3-adjacent coarse cells, so unioning each event with the 3×3
    coarse block around every anchor merges every interacting pair.
    Events on the *same node* always share a group (a node's state must
    never be repaired by two concurrent groups), enforced with a
    per-node union token.

    Groups come back ordered by their earliest event index, each group's
    indices in trace order.
    """
    if radius is None:
        radius = independence_radius(incremental.max_range, delta)
    cell = incremental._index.cell
    coarse = max(1, int(math.ceil(radius / cell)))
    uf = _UnionFind()
    scanner = _AnchorScanner(incremental)
    for i, ev in enumerate(events):
        token = ("ev", i)
        uf.union(token, ("node", int(ev.node)))
        for p in scanner.anchors(ev):
            cx, cy = incremental._index.cell_key(p)
            gx, gy = cx // coarse, cy // coarse
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    uf.union(token, ("cell", gx + dx, gy + dy))
    groups: "dict[object, list[int]]" = {}
    for i in range(len(events)):
        groups.setdefault(uf.find(("ev", i)), []).append(i)
    return sorted(groups.values(), key=lambda idxs: idxs[0])


@dataclass
class BatchApplyStats:
    """Aggregate result of one parallel batch application."""

    events: int
    groups: int
    group_sizes: "tuple[int, ...]"
    nodes_touched: int
    edges_flipped: int
    repairs: "list" = field(default_factory=list)
    conflict_repairs: "list" = field(default_factory=list)
    wall_time: float = 0.0
    #: Execution path actually taken: "serial" or "process".
    backend: str = "serial"
    #: Effective worker count of that path (1 for serial).
    jobs: int = 1
    #: State entries exchanged across process boundaries (0 off-process).
    halo_nodes: int = 0
    #: Foreign traffic shipped to workers this batch (process backend):
    #: eager diffs plus the entries (nodes + edges) of refreshed stale
    #: regions.
    diffs_replayed: int = 0
    #: (diff, worker) deliveries withheld by the halo-subscription
    #: filter this batch (0 when ``halo_filter=False`` — full broadcast).
    diffs_suppressed: int = 0

    @property
    def conflict_rows_touched(self) -> int:
        return sum(cs.rows_recomputed for cs in self.conflict_repairs)

    @property
    def conflict_entries_changed(self) -> int:
        return sum(cs.entries_changed for cs in self.conflict_repairs)


def apply_events_parallel(
    incremental,
    events: "list[Event]",
    *,
    interference=None,
    radius: "float | None" = None,
    backend: "str | None" = None,
    pool=None,
) -> BatchApplyStats:
    """Apply a step's events as independent merged-region group repairs.

    Phase A mutates the index serially in trace order; phase B repairs
    every group (topology, then the groups' conflict rows when
    ``interference`` — a
    :class:`~repro.dynamic.interference.DynamicInterference` — is
    given).  The result is identical on both backends, and identical to
    serial per-event
    :meth:`~repro.dynamic.incremental.IncrementalTheta.apply`.

    Backend selection
    -----------------
    * ``backend="process"`` (or any ``pool``): delegate the whole batch
      to a :class:`~repro.parallel.pool.TileWorkerPool` — group repairs
      run in worker processes.
    * ``backend=None`` or ``"serial"``: one batch-wide call of each
      repair kernel in this process.

    ``radius`` overrides the grouping radius; it must not be smaller
    than :func:`independence_radius`, or groups could share state.  The
    chosen path is reported in ``BatchApplyStats.backend``.  The
    topology version advances once per batch; callers comparing
    against serial application should compare edge sets and conflict
    rows, not version counters.
    """
    delta = interference.delta if interference is not None else 0.0
    floor = independence_radius(incremental.max_range, delta)
    if radius is not None and radius < floor:
        raise ValueError(
            f"radius {radius!r} is below the independence radius {floor!r}: "
            "groups could share state"
        )
    if backend == "process" or pool is not None:
        if pool is None:
            raise ValueError(
                "backend='process' needs a TileWorkerPool instance (pool=...): "
                "workers must fork before the events they process"
            )
        if pool.inc is not incremental or pool.di is not interference:
            raise ValueError("pool was built for a different incremental/interference pair")
        return pool.apply_batch(events, radius=radius)
    if backend not in (None, "serial"):
        raise ValueError(f"unknown backend {backend!r}")

    t0 = time.perf_counter()
    with trace.span("dynamic.batch_apply", events=len(events)) as sp:
        idx_groups = group_events(incremental, events, radius=radius, delta=delta)
        # Phase A — serial mutations in trace order.  Geometry is final
        # afterwards.
        contexts = [incremental._mutate(ev) for ev in events]
        # Groups with no repair work (all dead-slot moves) drop out here.
        groups = []
        moved = []
        for idxs in idx_groups:
            ctxs = [contexts[i] for i in idxs if contexts[i] is not None]
            if ctxs:
                groups.append(ctxs)
                moved.append(moved_nodes(incremental, events, idxs))
        # Phase B — one call of each repair kernel for every group.
        repairs = incremental._repair_groups(groups)
        conflict_repairs = []
        if interference is not None:
            conflict_repairs = interference.update_groups(
                [(rs.edges_added, rs.edges_removed, mv) for rs, mv in zip(repairs, moved)],
                _sync=False,
            )
        incremental.topology_version += 1
        if interference is not None:
            interference._mark_synced()

        stats = BatchApplyStats(
            events=len(events),
            groups=len(idx_groups),
            group_sizes=tuple(len(g) for g in idx_groups),
            nodes_touched=sum(r.nodes_touched for r in repairs),
            edges_flipped=sum(r.edges_flipped for r in repairs),
            repairs=repairs,
            conflict_repairs=conflict_repairs,
            wall_time=time.perf_counter() - t0,
        )
        sp.set(groups=stats.groups, nodes_touched=stats.nodes_touched)
    return stats
