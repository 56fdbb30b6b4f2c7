"""Incremental ΘALG maintenance under topology events.

The locality claim made concrete (E23): because every ΘALG decision of
a node depends only on nodes within transmission range D, a topology
event at position *p* can only change

* phase-1 (Yao) choices of live nodes within D of *p* — the **dirty
  set** A; and
* phase-2 (in-degree pruning) outcomes at receivers whose incoming
  Yao-edge multiset changed, or whose distance to an in-neighbor
  changed — every such receiver is a (current or former) Yao target of
  some node in A, hence within 2D of *p*.

:class:`IncrementalTheta` maintains the exact ΘALG output under
:mod:`repro.dynamic.events` streams by re-running both phases on that
bounded region only.  A batch of independent event groups is repaired
in O(1) array passes per batch, whatever the number of groups and the
size of their dirty regions: one batched grid query finds every
group's dirty set, one query plus one owner-keyed lexsort decides
phase 1 cone by cone (only cones an event can have changed), and one
lexsort over the in-sets read off the reverse index decides phase 2
for every receiver (the per-node kernels and the dict maintainer these
replaced are kept as oracles in :mod:`repro._reference`).  A single
event or merged-region batch is the one-group case.  It replicates
the vectorized kernels' arithmetic bit-for-bit — same subtraction
orientation, same ``np.hypot``/``np.arctan2`` expressions, same
in-range epsilon (``d² ≤ D² + 1e-12``), same (distance, node-id)
tie-breaking — so the maintained topology is **edge-for-edge identical** to
:func:`repro.core.theta.theta_algorithm` recomputed from scratch on
the live node set after every event (asserted by
:meth:`IncrementalTheta.check_full_equivalence` and the property tests
in ``tests/test_dynamic_incremental.py``).

:class:`DynamicTopology` packages a maintainer with an
:class:`~repro.dynamic.events.EventTrace` for consumption by
:class:`repro.sim.engine.SimulationEngine`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from repro.core.theta import theta_algorithm
from repro.dynamic.events import (
    Event,
    EventTrace,
    FailStop,
    NodeJoin,
    NodeLeave,
    NodeMove,
    Recover,
    event_kind,
)
from repro.geometry.primitives import TWO_PI, as_points
from repro.geometry.sectors import SectorPartition
from repro.geometry.spatialindex import DynamicGridIndex
from repro.obs import trace
from repro.utils.arrays import (
    CodeSet,
    member,
    ragged_arange,
    run_starts,
    sorted_unique,
    unique_counts,
    unique_inverse,
)

__all__ = ["RepairStats", "IncrementalTheta", "DynamicTopology", "StepChurn"]

_MASK = (1 << 32) - 1
_NO_CODES = np.empty(0, dtype=np.int64)
#: Pair budget of one block of the update-radius pass (≈16 MB of float64
#: coordinate differences).
_RADIUS_PAIRS = 1 << 20


@dataclass(frozen=True)
class RepairStats:
    """Per-event repair accounting (the E23 measurands).

    Attributes
    ----------
    kind:
        Event kind tag (``join``/``leave``/``move``/``fail``/``recover``,
        or ``batch`` for a merged-region batch repair).
    node:
        The event's node id (-1 for a batch).
    update_radius:
        Largest distance from an event anchor to any touched node
        (0 when nothing was touched).  Bounded by 2D by construction.
    nodes_touched:
        Number of distinct nodes whose phase-1 or phase-2 state was
        recomputed (the dirty set plus re-pruned receivers).
    edges_flipped:
        Undirected topology edges added plus removed by this event,
        counting transient flips (an edge dropped and re-added during
        one repair counts twice).
    wall_time:
        Repair wall-clock seconds (``time.perf_counter`` based).
    edges_added / edges_removed:
        The *net* changelog: undirected global-id edges present after
        the repair but not before (and vice versa), sorted.  Transient
        flips cancel out.  This is what
        :class:`repro.dynamic.interference.DynamicInterference` consumes
        to repair conflict rows.
    """

    kind: str
    node: int
    update_radius: float
    nodes_touched: int
    edges_flipped: int
    wall_time: float
    edges_added: "tuple[tuple[int, int], ...]" = ()
    edges_removed: "tuple[tuple[int, int], ...]" = ()


class IncrementalTheta:
    """Maintain the exact ΘALG topology under join/leave/move/fail events.

    Parameters mirror :func:`repro.core.theta.theta_algorithm`; the
    initial state is seeded from one full vectorized run.  Node ids are
    *global and stable*: survivors keep their id across events, joins
    take fresh ids (or re-populate a departed slot), and all reported
    edges are in global-id space.

    State, in arrays (one table row per node id, grown with the id
    space; ``-1`` marks an empty cone):

    * ``_yao[u, s]``: u's phase-1 Yao choice in cone ``s``;
    * ``_adm[x, s]``: the source receiver ``x`` admits in cone ``s``
      (the phase-2 result);
    * ``_rev``: the sorted codes ``(v << 32) | u``, one per Yao choice
      u → v — the reverse index; the in-set of ``v`` is the run of
      codes at ``v << 32``;
    * ``_codes``: the sorted packed codes ``(lo << 32) | hi`` of the
      undirected edges (lexicographic pair order), edited with each
      repair's net changelog;
    * ``_edge_dirs[code]``: 1 or 2 — how many of the two directed
      choices of the edge survived pruning.

    Both code arrays are :class:`~repro.utils.arrays.CodeSet` objects:
    a repair's edits go to a small sorted toggle log that folds into
    the array once it outgrows a sixteenth of it, so a repair does not
    copy the whole array.
    """

    def __init__(
        self,
        points: np.ndarray,
        theta: float,
        max_range: float,
        *,
        kappa: float = 2.0,
        offset: float = 0.0,
    ) -> None:
        pts = as_points(points)
        self.theta = float(theta)
        self.max_range = float(max_range)
        self.kappa = float(kappa)
        self.offset = float(offset)
        self._part = SectorPartition(self.theta, self.offset)
        self._k = self._part.n_sectors
        self._index = DynamicGridIndex(pts, cell=self.max_range)
        self._failed: "set[int]" = set()
        #: Bumped after every state-changing event (or batch); lets
        #: consumers (snapshot cache, DynamicInterference, the harness
        #: substrate cache) key derived structures by topology state.
        self.topology_version = 0
        self._snapshot: "object | None" = None
        self._snapshot_version = -1
        self._seed(
            theta_algorithm(pts, self.theta, self.max_range, kappa=self.kappa, offset=self.offset)
        )

    def _seed(self, topo) -> None:
        """Install the state of one full ΘALG run."""
        rows = self._index.size
        self._yao = np.full((rows, self._k), -1, dtype=np.int64)
        self._adm = np.full((rows, self._k), -1, dtype=np.int64)
        self._rev = CodeSet()
        self._codes = CodeSet()
        self._edge_dirs: "dict[int, int]" = {}
        if topo.yao_nearest:
            us = np.array(list(topo.yao_nearest), dtype=np.int64)
            vs = np.fromiter(topo.yao_nearest.values(), dtype=np.int64, count=len(us))
            self._yao[us[:, 0], us[:, 1]] = vs
            self._rev = CodeSet(np.sort((vs << 32) | us[:, 0]))
        if topo.admitted:
            xs = np.array(list(topo.admitted), dtype=np.int64)
            ws = np.fromiter(topo.admitted.values(), dtype=np.int64, count=len(xs))
            self._adm[xs[:, 0], xs[:, 1]] = ws
            codes, dirs = unique_counts(_edge_code(ws, xs[:, 0]))
            self._codes = CodeSet(codes)
            self._edge_dirs = dict(zip(codes.tolist(), dirs.tolist()))

    def _ensure_rows(self, ids=()) -> None:
        """Grow the node tables to cover every id the index has seen.

        A replica also writes rows of ``ids`` its index has not seen yet:
        a refreshed region may hold a node the parent just joined.
        """
        have = len(self._yao)
        need = max(self._index.size, int(np.max(ids, initial=-1)) + 1)
        if need <= have:
            return
        rows = max(need, 2 * have)
        for name in ("_yao", "_adm"):
            table = np.full((rows, self._k), -1, dtype=np.int64)
            table[:have] = getattr(self, name)
            setattr(self, name, table)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_alive(self) -> int:
        return len(self._index)

    @property
    def size(self) -> int:
        """One past the highest node id ever seen (live or not)."""
        return self._index.size

    def alive_ids(self) -> np.ndarray:
        """Sorted global ids of live nodes."""
        return self._index.alive_ids()

    def failed_ids(self) -> "set[int]":
        """Ids currently down due to :class:`FailStop` (may recover)."""
        return set(self._failed)

    def live_points(self) -> np.ndarray:
        """Live node positions in :meth:`alive_ids` order."""
        return self._index.live_points()

    def position(self, node: int) -> np.ndarray:
        return self._index.position(node)

    def position_array(self, ids: np.ndarray) -> np.ndarray:
        """Positions for an array of global ids (vectorized)."""
        return self._index.positions_of(ids)

    def in_neighbors(self, x: int) -> np.ndarray:
        """Sorted ids of the nodes whose Yao choices include ``x``."""
        return np.sort(self._rev.runs([x])[0]) & _MASK

    def edge_set(self) -> "set[tuple[int, int]]":
        """The maintained topology N as undirected global-id pairs."""
        codes = self._codes.array()
        return set(zip((codes >> 32).tolist(), (codes & _MASK).tolist()))

    def edge_codes(self) -> np.ndarray:
        """Sorted packed ``(lo << 32) | hi`` codes of the undirected edges.

        The maintained array itself (replaced, never written in place,
        by later repairs); callers must not modify it.
        """
        return self._codes.array()

    def edge_array(self) -> np.ndarray:
        """``(m, 2)`` sorted intp array of the undirected edges."""
        codes = self._codes.array()
        edges = np.empty((len(codes), 2), dtype=np.intp)
        edges[:, 0] = codes >> 32
        edges[:, 1] = codes & _MASK
        return edges

    def all_positions(self) -> np.ndarray:
        """Positions of every id ever seen (read-only view, mutates)."""
        return self._index.all_positions()

    def snapshot_graph(self):
        """The maintained topology as an immutable :class:`GeometricGraph`.

        Node ids are global (dead slots keep their retained position and
        simply have no incident edges), so edge indices of derived
        structures — e.g. ``interference_sets`` rows — line up with
        :meth:`edge_array`.  The snapshot is cached per
        :attr:`topology_version` and carries that version as a
        ``topology_version`` attribute, which
        :func:`repro.harness.cache.cached_interference_sets` uses to key
        conflict structures without re-digesting the coordinates.
        """
        from repro.graphs.base import GeometricGraph

        v = self.topology_version
        if self._snapshot is not None and self._snapshot_version == v:
            return self._snapshot
        g = GeometricGraph(
            self._index.all_positions().copy(), self.edge_array(), kappa=self.kappa
        )
        g.topology_version = v
        self._snapshot, self._snapshot_version = g, v
        return g

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, event: Event) -> RepairStats:
        """Apply one event and locally repair the topology."""
        kind = event_kind(event)
        with trace.span("dynamic.apply_event", kind=kind, node=event.node):
            t0 = time.perf_counter()
            node = int(event.node)
            ctx = self._mutate(event)
            if ctx is None:
                # Dead-slot move: position bookkeeping only, no repair.
                return RepairStats(
                    kind=kind,
                    node=node,
                    update_radius=0.0,
                    nodes_touched=0,
                    edges_flipped=0,
                    wall_time=time.perf_counter() - t0,
                )
            stats = self._repair_batch([ctx], kind=kind, node=node)
            self.topology_version += 1
            return RepairStats(
                kind=stats.kind,
                node=stats.node,
                update_radius=stats.update_radius,
                nodes_touched=stats.nodes_touched,
                edges_flipped=stats.edges_flipped,
                wall_time=time.perf_counter() - t0,
                edges_added=stats.edges_added,
                edges_removed=stats.edges_removed,
            )

    def apply_trace(self, events: "EventTrace | list[Event]") -> "list[RepairStats]":
        """Apply a whole trace (or event list) in order."""
        seq = events.events() if isinstance(events, EventTrace) else list(events)
        return [self.apply(ev) for ev in seq]

    def apply_batch(self, events: "list[Event]") -> RepairStats:
        """Apply several events as *one* merged-region repair.

        Index mutations run serially in trace order; both ΘALG phases
        then run once over the union of the events' dirty regions, so
        nodes inside overlapping dirty disks are recomputed once instead
        of once per event.  The final topology is identical to serial
        :meth:`apply` of the same events (the repair re-establishes the
        exact ΘALG of the final live positions; property-tested in
        ``tests/test_dynamic_batching.py``).

        For grouping a step's events into *independent* groups and
        repairing them all in shared array passes, see
        :func:`repro.dynamic.batching.apply_events_parallel`.
        """
        t0 = time.perf_counter()
        contexts = [self._mutate(ev) for ev in events]
        contexts = [c for c in contexts if c is not None]
        if not contexts:
            return RepairStats(
                kind="batch",
                node=-1,
                update_radius=0.0,
                nodes_touched=0,
                edges_flipped=0,
                wall_time=time.perf_counter() - t0,
            )
        stats = self._repair_batch(contexts, kind="batch", node=-1)
        self.topology_version += 1
        return RepairStats(
            kind=stats.kind,
            node=stats.node,
            update_radius=stats.update_radius,
            nodes_touched=stats.nodes_touched,
            edges_flipped=stats.edges_flipped,
            wall_time=time.perf_counter() - t0,
            edges_added=stats.edges_added,
            edges_removed=stats.edges_removed,
        )

    # ------------------------------------------------------------------
    # Repair machinery
    # ------------------------------------------------------------------
    def _mutate(self, event: Event) -> "tuple[str, int, list[np.ndarray]] | None":
        """Apply ``event``'s index/bookkeeping mutation, *without* repair.

        Returns the repair context ``(kind, node, anchors)``, or ``None``
        for a move of a failed node (position bookkeeping only).  The
        batching layer applies every mutation of a step serially in
        trace order — join ids must appear in order and the grid index
        is not safe for concurrent mutation — before repairing groups.
        """
        kind = event_kind(event)
        node = int(event.node)
        if isinstance(event, NodeJoin):
            if node in self._failed:
                raise ValueError(f"node {node} is failed; use Recover, not NodeJoin")
            p = np.array([event.x, event.y], dtype=np.float64)
            self._index.insert(node, p)
            return kind, node, [p]
        if isinstance(event, NodeMove):
            if node in self._failed:
                # A crashed device still moves physically: update the
                # retained position (where Recover brings it back up)
                # without touching the topology.
                p = np.array([event.x, event.y], dtype=np.float64)
                self._index.set_dead_position(node, p)
                return None
            if not self._index.is_alive(node):
                raise ValueError(f"cannot move node {node}: not alive")
            old_p = self._index.position(node)
            p = np.array([event.x, event.y], dtype=np.float64)
            self._index.move(node, p)
            return kind, node, [old_p, p]
        if isinstance(event, (NodeLeave, FailStop)):
            if not self._index.is_alive(node):
                raise ValueError(f"cannot remove node {node}: not alive")
            p = self._index.position(node)
            self._index.remove(node)
            if isinstance(event, FailStop):
                self._failed.add(node)
            return kind, node, [p]
        if isinstance(event, Recover):
            if node not in self._failed:
                raise ValueError(f"cannot recover node {node}: not failed")
            self._failed.discard(node)
            p = self._index.position(node)
            self._index.insert(node, p)
            return kind, node, [p]
        raise TypeError(f"unsupported event: {event!r}")  # pragma: no cover

    def _repair_batch(
        self,
        contexts: "list[tuple[str, int, list[np.ndarray]]]",
        *,
        kind: str,
        node: int,
        collect_diff: bool = False,
    ):
        """Re-run both ΘALG phases on the union of dirty regions.

        ``contexts`` are the ``(kind, node, anchors)`` tuples of already
        *mutated* events.  With a single context this reproduces the
        serial per-event repair exactly; with several it repairs the
        merged region once.  Correctness rests on the repair invariant:
        afterwards the maintained state equals the from-scratch ΘALG of
        the current live positions on the touched region, whatever
        sequence of mutations produced those positions.

        This is the one-group call of :meth:`_repair_groups`; the stats
        carry ``kind`` and ``node``.  With ``collect_diff=True`` returns
        ``(stats, diff)`` where ``diff`` is a compact state delta
        replayable on an in-sync replica via :meth:`apply_repair_diffs`:
        ``{"out": (nodes, yao_rows), "admit": (nodes, adm_rows), "dead":
        [...]}`` with the new rows of every node whose choices or
        admissions changed (a departed node's rows are all ``-1``).
        """
        result = self._repair_groups([contexts], collect_diff=collect_diff)[0]
        if collect_diff:
            stats, diff = result
            return replace(stats, kind=kind, node=node), diff
        return replace(result, kind=kind, node=node)

    def _repair_groups(
        self,
        groups: "list[list[tuple[str, int, list[np.ndarray]]]]",
        *,
        collect_diff: bool = False,
    ) -> list:
        """Repair several independent event groups in shared array passes.

        ``groups`` holds one context list per group.  The groups must be
        independent — anchors of different groups farther apart than
        :func:`repro.dynamic.batching.independence_radius`, as
        :func:`~repro.dynamic.batching.group_events` guarantees — so no
        two groups share a dirty node, a receiver or an edge, and no
        group's array pass reads state another group's transitions
        write.  One grid query finds every group's dirty set (keyed
        ``(group << 32) | node``), one :meth:`_yao_choices_many` decides
        phase 1 for all of them, one :meth:`_admissions_many` decides
        phase 2 for every group's live receivers, one pass counts every
        group's edge-direction transitions, and one pass measures every
        group's update radius.

        Phase 1 is cone-local.  Every cone of a live event node is
        rescanned.  A dirty node ``u`` that is not an event node did not
        move, so only its cones holding an anchor within D can change
        (an event node's old and new positions are both anchors).  In
        such a cone, if the old choice ``w`` is not an event node, the
        cone's other non-event candidates are the same as before and
        none beat ``w``: the new choice is the (distance, id) minimum of
        ``w`` and the group's live event nodes within D in that cone.
        If ``w`` is an event node, ``u`` is rescanned.  The dirty set
        still counts as touched.

        Edge-direction transitions apply in the order of the per-node
        repair — each group's departed nodes first, then receivers in
        id order, each receiver's cones in the order its ``{sector:
        source}`` dicts iterated — so the transient flip counts match
        :class:`repro._reference.IncrementalThetaReference`.

        Returns one :class:`RepairStats` (kind ``"batch"``, node -1) per
        group — or one ``(stats, diff)`` pair with ``collect_diff`` —
        each equal to a lone :meth:`_repair_batch` of that group.
        """
        if not groups:
            return []
        with trace.span("dynamic.repair", groups=len(groups)):
            self._ensure_rows()
            idx = self._index
            k = self._k
            n_groups = len(groups)
            group_lo = np.arange(n_groups + 1, dtype=np.int64) << 32
            anchors: "list[np.ndarray]" = []
            anchor_nodes: "list[int]" = []
            anchor_counts: "list[int]" = []
            ev: "list[int]" = []
            dead_lists: "list[list[int]]" = []
            for g, contexts in enumerate(groups):
                before = len(anchors)
                for _, nd, points in contexts:
                    anchors.extend(points)
                    anchor_nodes.extend([nd] * len(points))
                anchor_counts.append(len(anchors) - before)
                nodes = list(dict.fromkeys(nd for _, nd, _ in contexts))
                ev.extend((g << 32) | nd for nd in nodes)
                dead_lists.append([nd for nd in nodes if not idx.is_alive(nd)])
            ev_keys = np.array(ev, dtype=np.int64)
            ev_nodes = ev_keys & _MASK
            alive = idx.alive_mask(ev_nodes)
            live_ev = ev_keys[alive]
            live_ev.sort()
            dead_keys = ev_keys[~alive]
            dead_keys.sort()
            dead = dead_keys & _MASK
            ev_nodes.sort()
            apos = np.array(anchors, dtype=np.float64).reshape(-1, 2)
            anchor_group = np.arange(n_groups, dtype=np.int64).repeat(anchor_counts)

            # Phase-1 dirty sets: live nodes within D of one of the
            # group's anchors, plus its live event nodes.
            indptr, hits = idx.query_radius_many(apos, self.max_range)
            per_anchor = indptr[1:] - indptr[:-1]
            hit_keys = (anchor_group << 32).repeat(per_anchor) | hits
            dirty_keys = sorted_unique(np.concatenate([hit_keys, live_ev]))
            dirty = dirty_keys & _MASK
            old_rows = self._yao.take(dirty, axis=0)
            new_rows = self._phase1(
                dirty_keys, old_rows, live_ev, ev_nodes, apos, anchor_nodes, per_anchor, hits, hit_keys
            )

            # Retract departed nodes' choices and admissions; install the
            # new choices and their reverse-index changes.
            dead_out = self._yao[dead]
            dead_adm = self._adm[dead]
            self._yao[dead] = -1
            self._adm[dead] = -1
            rechosen = (new_rows != old_rows).any(axis=1).nonzero()[0]
            drop, add, drop_at, add_at = _rev_changes(
                dirty[rechosen], old_rows[rechosen], new_rows[rechosen]
            )
            self._yao[dirty[rechosen]] = new_rows[rechosen]
            retract = drop
            if len(dead):
                dead_drop, _, _, _ = _rev_changes(dead, dead_out, np.full_like(dead_out, -1))
                retract = np.concatenate([dead_drop, drop])
            self._rev.toggle(np.sort(retract), np.sort(add))
            if len(dead):
                self._drop_in_sets(dead)

            # Receivers: surviving event nodes and their targets from
            # before and after the repair (distances to even unchanged
            # targets may have shifted), every target that gained or
            # lost an in-edge, and departed nodes' former targets.
            ev_rows = dirty_keys.searchsorted(live_ev)
            rechosen_group = dirty_keys[rechosen] >> 32 << 32
            rec_keys = sorted_unique(
                np.concatenate(
                    [
                        live_ev,
                        _keyed_targets(live_ev, old_rows[ev_rows]),
                        _keyed_targets(live_ev, new_rows[ev_rows]),
                        _keyed_targets(dead_keys, dead_out),
                        rechosen_group[drop_at] | (drop >> 32),
                        rechosen_group[add_at] | (add >> 32),
                    ]
                )
            )
            touched_keys = sorted_unique(np.concatenate([rec_keys, dirty_keys, dead_keys]))

            # Phase 2 for every group's live receivers in one pass.
            live_rk = rec_keys[idx.alive_mask(rec_keys & _MASK)]
            rec = live_rk & _MASK
            new_adm = self._admissions_many(rec)
            old_adm = self._adm.take(rec, axis=0)
            cells = new_adm != old_adm
            admitted = cells.any(axis=1).nonzero()[0]
            self._adm[rec[admitted]] = new_adm[admitted]
            flips, added, removed = self._count_dirs(
                live_rk, old_adm, new_adm, cells, dead_keys, dead_adm, n_groups
            )

            touched = touched_keys & _MASK
            touched_at = touched_keys.searchsorted(group_lo)
            touched_counts = (touched_at[1:] - touched_at[:-1]).tolist()
            radii = self._touched_radii(
                touched, touched_keys >> 32, touched_counts, apos, anchor_group, anchor_counts
            )
            if collect_diff:
                out_dead = (dead_out >= 0).any(axis=1)
                out_diff = _split_rows(
                    group_lo,
                    np.concatenate([dead_keys[out_dead], dirty_keys[rechosen]]),
                    np.concatenate([np.full((int(out_dead.sum()), k), -1), new_rows[rechosen]]),
                )
                adm_dead = (dead_adm >= 0).any(axis=1)
                admit_diff = _split_rows(
                    group_lo,
                    np.concatenate([dead_keys[adm_dead], live_rk[admitted]]),
                    np.concatenate([np.full((int(adm_dead.sum()), k), -1), new_adm[admitted]]),
                )
            out = []
            for g in range(n_groups):
                stats = RepairStats(
                    kind="batch",
                    node=-1,
                    update_radius=radii[g],
                    nodes_touched=touched_counts[g],
                    edges_flipped=flips[g],
                    wall_time=0.0,
                    edges_added=tuple((c >> 32, c & _MASK) for c in added[g]),
                    edges_removed=tuple((c >> 32, c & _MASK) for c in removed[g]),
                )
                if collect_diff:
                    diff = {"out": out_diff[g], "admit": admit_diff[g], "dead": dead_lists[g]}
                    out.append((stats, diff))
                else:
                    out.append(stats)
            return out

    def _phase1(
        self, dirty_keys, old_rows, live_ev, ev_nodes, apos, anchor_nodes, per_anchor, hits, hit_keys
    ) -> np.ndarray:
        """New Yao rows of the dirty nodes (cone-local; see :meth:`_repair_groups`).

        ``dirty_keys`` are the sorted ``(group << 32) | node`` dirty
        keys with their ``old_rows``; ``apos`` the anchors, each of the
        event node in ``anchor_nodes``; ``hits``/``hit_keys`` the dirty
        query's (anchor, node) pairs, ``per_anchor`` of them per anchor.
        """
        idx = self._index
        k = self._k
        dirty = dirty_keys & _MASK
        # The cones of non-event dirty nodes that hold an anchor within D.
        other = ~member(hits, ev_nodes)
        anchor_of = np.arange(len(apos)).repeat(per_anchor)[other]
        row_of = dirty_keys.searchsorted(hit_keys[other])
        sec = self._sectors(apos[anchor_of] - idx.positions_of(hits[other]))
        cone = sorted_unique(row_of * k + sec)
        c_row, c_sec = cone // k, cone % k
        w = old_rows.ravel()[cone]
        scan = np.zeros(len(dirty), dtype=bool)
        scan[c_row[member(w, ev_nodes)]] = True
        keep = ~scan[c_row]
        scan[dirty_keys.searchsorted(live_ev)] = True
        c_row, c_sec, w = c_row[keep], c_sec[keep], w[keep]
        scan_rows = scan.nonzero()[0]
        fast_rows = sorted_unique(c_row)
        head_of = np.zeros(len(dirty), dtype=np.intp)
        head_of[fast_rows] = len(scan_rows) + np.arange(len(fast_rows))
        # A fast cone's candidates: its old choice, and the group's live
        # event nodes a query at D from the head returns.  The query is
        # symmetric (same cell block and squared distance either way),
        # and every live event node's position is an anchor, so these
        # are the event nodes whose current-position anchor returned
        # the head.
        nodes = np.array(anchor_nodes, dtype=np.int64)
        current = idx.alive_mask(nodes) & (apos == idx.positions_of(nodes)).all(axis=1)
        pair = current[anchor_of] & ~scan[row_of]
        has_w = w >= 0
        table = self._yao_choices_many(
            np.concatenate([dirty[scan_rows], dirty[fast_rows]]),
            len(scan_rows),
            np.concatenate([head_of[c_row[has_w]], head_of[row_of[pair]]]),
            np.concatenate([w[has_w], nodes[anchor_of[pair]]]),
        )
        new_rows = old_rows.copy()
        new_rows[scan_rows] = table[: len(scan_rows)]
        new_rows[c_row, c_sec] = table[head_of[c_row], c_sec]
        return new_rows

    def _count_dirs(
        self, rec_keys, old_adm, new_adm, cells, dead_keys, dead_adm, n_groups
    ) -> "tuple[list[int], list[list[int]], list[list[int]]]":
        """Apply admission changes to the edge-direction counts.

        One ±1 op per retracted or admitted direction, run in the order
        of the per-node repair (see :meth:`_repair_groups`): departed
        nodes' retractions first, then per receiver in id order, per
        cone in dict iteration order, a cone's old source retracted
        before its new one is admitted.  ``rec_keys`` are the receivers'
        ``(group << 32) | node`` keys, aligned with the admission rows.
        Returns per group the undirected edges flipped (transients
        included) and the sorted codes of the edges the repair added and
        removed.  The ops of one edge are sorted by that order and
        counted with one running sum; only the edges' counts go through
        the ``_edge_dirs`` dict.
        """
        dr, ds = (dead_adm >= 0).nonzero()
        r, s = cells.nonzero()
        w_old, w_new = old_adm[r, s], new_adm[r, s]
        keys = rec_keys[r]
        has_old, has_new = w_old >= 0, w_new >= 0
        # A source that only switched cones of its receiver (one of them
        # moved) is retracted in one cone and admitted in another; the
        # flip count then depends on which comes first: the iteration
        # order of set(old) | set(new) over the receiver's dicts.
        pos = s
        switched = r[has_old][member((r[has_old] << 32) | w_old[has_old], np.sort((r[has_new] << 32) | w_new[has_new]))]
        if len(switched):
            pos = s.copy()
            for row in sorted_unique(switched).tolist():
                olds = (old_adm[row] >= 0).nonzero()[0].tolist()
                news = (new_adm[row] >= 0).nonzero()[0].tolist()
                order = list(set(dict.fromkeys(olds)) | set(dict.fromkeys(news)))
                at = (r == row).nonzero()[0]
                pos[at] = [order.index(sec) for sec in s[at].tolist()]
        # The ops: departed nodes' retractions (rank -1), the receivers'
        # retractions (even rank), then their admissions (odd rank).
        rank = ((keys & _MASK) << 17) | (pos << 1)
        n_drop = len(dr) + int(has_old.sum())
        src = np.concatenate([dead_adm[dr, ds], w_old[has_old], w_new[has_new]])
        dst = np.concatenate([dead_keys[dr], keys[has_old], keys[has_new]])
        ranks = np.concatenate([np.full(len(dr), -1), rank[has_old], rank[has_new] | 1])
        codes = _edge_code(src, dst & _MASK)
        order = np.lexsort((ranks, codes))
        codes = codes[order]
        delta = np.where(order < n_drop, -1, 1)
        group = dst[order] >> 32
        first = run_starts(codes)
        starts = first.nonzero()[0]
        uniq = codes[starts]
        dirs = self._edge_dirs
        before = np.array([dirs.get(c, 0) for c in uniq.tolist()], dtype=np.int64)
        # Count after each op: the edge's count before the repair plus
        # the running sum of its ops so far.
        total = delta.cumsum()
        after = (before - total[starts] + delta[starts])[first.cumsum() - 1] + total
        flipped = (after == delta) != (after == 0)  # (count before op == 0) != (after == 0)
        flips = np.bincount(group[flipped], minlength=n_groups).tolist()
        final = after[np.append(starts[1:], len(after)) - 1] if len(uniq) else before
        for c, count in zip(uniq.tolist(), final.tolist()):
            if count:
                dirs[c] = count
            else:
                dirs.pop(c, None)
        gained = (before == 0) & (final > 0)
        lost = (before > 0) & (final == 0)
        self._codes.toggle(uniq[lost], uniq[gained])
        code_group = group[starts]
        added: "list[list[int]]" = [[] for _ in range(n_groups)]
        removed: "list[list[int]]" = [[] for _ in range(n_groups)]
        for c, g in zip(uniq[gained].tolist(), code_group[gained].tolist()):
            added[g].append(c)
        for c, g in zip(uniq[lost].tolist(), code_group[lost].tolist()):
            removed[g].append(c)
        return flips, added, removed

    def apply_repair_diffs(self, diffs: "list[dict]") -> None:
        """Splice :meth:`_repair_groups` diffs of independent groups into
        an in-sync replica.

        The replica must hold the exact pre-repair state (same tables,
        ``_edge_dirs`` and edge codes) with the batch's index mutations
        already applied.  The diffs must come from groups of one batch
        (they share no node or edge, so they commute).  Writes the
        recorded Yao and admission rows, deriving the reverse-index
        edits from target-set changes and the edge-direction counts from
        changed admissions, without any geometry queries: splicing is
        O(diff) row work plus one merge per sorted array for the whole
        list, not per group.  Does *not* bump ``topology_version``; the
        caller bumps once per batch.
        """
        diffs = [d for d in diffs if len(d["out"][0]) or len(d["admit"][0]) or d["dead"]]
        if not diffs:
            return
        nodes = np.concatenate([d["out"][0] for d in diffs])
        rows = np.concatenate([d["out"][1] for d in diffs])
        admit_nodes = np.concatenate([d["admit"][0] for d in diffs])
        admit_rows = np.concatenate([d["admit"][1] for d in diffs])
        self._ensure_rows(np.concatenate([nodes, admit_nodes]))
        drop, add, _, _ = _rev_changes(nodes, np.take(self._yao, nodes, axis=0), rows)
        self._rev.toggle(np.sort(drop), np.sort(add))
        self._yao[nodes] = rows
        old = np.take(self._adm, admit_nodes, axis=0)
        r, s = np.nonzero(old != admit_rows)
        ow, nw, x = old[r, s], admit_rows[r, s], admit_nodes[r]
        codes, at = unique_inverse(
            np.concatenate([_edge_code(ow[ow >= 0], x[ow >= 0]), _edge_code(nw[nw >= 0], x[nw >= 0])])
        )
        net = np.zeros(len(codes), dtype=np.int64)
        np.add.at(net, at, np.repeat([-1, 1], [int((ow >= 0).sum()), int((nw >= 0).sum())]))
        dirs = self._edge_dirs
        gained: "list[int]" = []
        lost: "list[int]" = []
        for c, d in zip(codes.tolist(), net.tolist()):
            before = dirs.get(c, 0)
            after = before + d
            if after:
                dirs[c] = after
            else:
                dirs.pop(c, None)
            if (before > 0) != (after > 0):
                (gained if after else lost).append(c)
        self._codes.toggle(_sorted_codes(lost), _sorted_codes(gained))
        self._adm[admit_nodes] = admit_rows
        dead = [nd for d in diffs for nd in d["dead"]]
        if dead:
            self._drop_in_sets(dead)

    def region_state(self, nodes: "list[int]") -> dict:
        """The ΘALG state at ``nodes``, for :meth:`set_region_state` on a replica.

        Their Yao and admission rows, the reverse-index codes ``in`` of
        their in-sets, and the sorted ``codes`` of every edge at them
        with the edges' direction counts ``dirs``.  Reads only.
        """
        self._ensure_rows()
        ids = np.asarray(nodes, dtype=np.int64)
        codes = self._edges_at(ids)
        return {
            "nodes": list(nodes),
            "yao": self._yao[ids],
            "adm": self._adm[ids],
            "in": np.sort(self._rev.runs(ids)[0]),
            "codes": codes,
            "dirs": np.array([self._edge_dirs[c] for c in codes.tolist()], dtype=np.int64),
        }

    def set_region_state(self, state: dict) -> None:
        """Overwrite the keys a :meth:`region_state` covers with its values.

        Set semantics: each listed node's Yao row, admission row and
        in-set become the recorded ones, and the edges at those nodes
        become exactly the recorded edges with their direction counts.
        No derived edit follows — the in-set of a former target or the
        count of an edge elsewhere stays as it is — so the keys written
        equal the source's, and no other key moves.  Does not bump
        ``topology_version``.
        """
        ids = np.asarray(state["nodes"], dtype=np.int64)
        self._ensure_rows(ids)
        self._yao[ids] = state["yao"]
        self._adm[ids] = state["adm"]
        mine = np.sort(self._rev.runs(ids)[0])
        theirs = state["in"]
        self._rev.toggle(mine[~member(mine, theirs)], theirs[~member(theirs, mine)])
        codes = state["codes"]
        dirs = self._edge_dirs
        mine = self._edges_at(ids)
        gone = mine[~member(mine, codes)]
        for c in gone.tolist():
            del dirs[c]
        dirs.update(zip(codes.tolist(), state["dirs"].tolist()))
        self._codes.toggle(gone, codes[~member(codes, self._codes.array())])

    def _edges_at(self, ids: np.ndarray) -> np.ndarray:
        """Sorted codes of the edges with an endpoint in ``ids``."""
        codes = self._codes.array()
        ids = np.sort(ids)
        return codes[member(codes >> 32, ids) | member(codes & _MASK, ids)]

    def _drop_in_sets(self, nodes) -> None:
        """Empty the in-sets of ``nodes`` (a departed node has none)."""
        codes = self._rev.runs(nodes)[0]
        if len(codes):
            self._rev.toggle(np.sort(codes), _NO_CODES)

    def _touched_radii(
        self,
        touched: np.ndarray,
        touched_group: np.ndarray,
        counts: "list[int]",
        anchors: np.ndarray,
        anchor_group: np.ndarray,
        anchor_counts: "list[int]",
    ) -> "list[float]":
        """Per group, the max over its touched nodes of the distance to
        the *nearest* anchor of the same group (0 when none touched).

        ``touched`` and ``anchors`` are group-major, with their group ids
        and per-group counts alongside.  Blocks of up to 1024 touched
        nodes meet the anchors of the groups they span in one broadcast;
        in a block that spans several groups, pairs across groups are
        masked out, so each node sees its own group's anchors only.  A
        block's pair count stays under ``_RADIUS_PAIRS``.
        """
        radii = [0.0] * len(counts)
        if len(touched) == 0:
            return radii
        a_hi = list(accumulate(anchor_counts))
        tg = touched_group.tolist()
        tpos = self._index.positions_of(touched)
        tx, ty, ax, ay = tpos[:, 0], tpos[:, 1], anchors[:, 0], anchors[:, 1]
        nearest = np.empty(len(touched))
        lo = 0
        while lo < len(touched):
            hi = min(len(touched), lo + 1024)
            first = a_hi[tg[lo]] - anchor_counts[tg[lo]]
            span = a_hi[tg[hi - 1]] - first
            if (hi - lo) * span > _RADIUS_PAIRS:
                hi = lo + max(1, _RADIUS_PAIRS // span)
            last = a_hi[tg[hi - 1]]
            dist = np.hypot(tx[lo:hi, None] - ax[first:last], ty[lo:hi, None] - ay[first:last])
            if tg[lo] != tg[hi - 1]:
                dist[touched_group[lo:hi, None] != anchor_group[first:last]] = np.inf
            nearest[lo:hi] = dist.min(axis=1)
            lo = hi
        ends = list(accumulate(counts))
        some = [g for g, c in enumerate(counts) if c]
        starts = [ends[g] - counts[g] for g in some]
        for g, r in zip(some, np.maximum.reduceat(nearest, starts).tolist()):
            radii[g] = r
        return radii

    def _yao_choices_many(
        self,
        nodes,
        n_scan: "int | None" = None,
        owner: "np.ndarray | None" = None,
        others: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Phase 1: the (distance, id)-nearest candidate per cone of ``nodes``.

        Returns a ``(len(nodes), k)`` table of Yao rows (``-1``: empty
        cone).  The first ``n_scan`` nodes (default all) take every live
        node within D as candidates — one batched query at ``D`` with
        the source excluded; a dead node among them gets an empty row.
        ``owner``/``others`` add candidate pairs (``others[i]`` for
        ``nodes[owner[i]]``), which is how the cone-local repair decides
        a node's changed cones without a query.  Bit-for-bit the
        arithmetic of :func:`repro.graphs.yao.yao_out_edges` per source:
        ``d = pts[v] - pts[u]``, ``dist = np.hypot``, sector from
        ``arctan2`` mod 2π, ties broken by (distance, target id) under
        one lexsort keyed by owner first.
        """
        idx = self._index
        nodes = np.asarray(nodes, dtype=np.intp)
        scan = nodes[: len(nodes) if n_scan is None else n_scan]
        live = idx.alive_mask(scan).nonzero()[0]
        pos = idx.positions_of(nodes)
        indptr, nbrs = idx.query_radius_many(pos[live], self.max_range, exclude=scan[live])
        cand_owner = live.repeat(indptr[1:] - indptr[:-1])
        if owner is not None:
            cand_owner = np.concatenate([cand_owner, owner])
            nbrs = np.concatenate([nbrs, others])
        return self._nearest_per_cone(cand_owner, nbrs, pos)

    def _admissions_many(self, receivers) -> np.ndarray:
        """Phase 2 for a set of live receivers: re-prune incoming Yao edges.

        Mirrors the phase-2 lexsort of :func:`theta_algorithm`: each
        receiver ``x`` groups its in-neighbors (read off the reverse
        index) by the cone of ``x`` containing them (``d = pts[w] -
        pts[x]``) and admits the (distance, source id) minimum per cone.
        Returns a ``(len(receivers), k)`` table of admission rows; no
        state is modified.
        """
        rec = np.asarray(receivers, dtype=np.int64)
        codes, owner = self._rev.runs(rec)
        return self._nearest_per_cone(owner, codes & _MASK, self._index.positions_of(rec))

    def _sectors(self, d: np.ndarray) -> np.ndarray:
        """Cone index of each direction vector ``d`` (the kernels' expression)."""
        return self._part.index_of_angle(np.mod(np.arctan2(d[:, 1], d[:, 0]), TWO_PI))

    def _nearest_per_cone(
        self, owner: np.ndarray, others: np.ndarray, head_pos: np.ndarray
    ) -> np.ndarray:
        """Per head, the (distance, id)-nearest of its ``others`` per cone.

        ``others[i]`` belongs to head ``owner[i]`` (at ``head_pos``);
        ``owner`` is the primary sort key, so every head's cones are
        decided independently in the one lexsort.  Returns the
        ``(len(head_pos), k)`` table (``-1``: no candidate in the cone).
        """
        out = np.full((len(head_pos), self._k), -1, dtype=np.int64)
        if len(others) == 0:
            return out
        d = self._index.positions_of(others) - head_pos.take(owner, axis=0)
        dist = np.hypot(d[:, 0], d[:, 1])
        # (owner, sector) packed as the flat index of the table cell.
        cell = owner.astype(np.int64) * self._k + self._sectors(d)
        order = np.lexsort((others, dist, cell))
        sel = order[run_starts(cell[order])]
        out.ravel()[cell[sel]] = others[sel]
        return out

    # ------------------------------------------------------------------
    # Correctness backstop
    # ------------------------------------------------------------------
    def check_full_equivalence(self) -> "set[tuple[int, int]]":
        """Symmetric difference vs. a from-scratch ΘALG on live nodes.

        Returns the empty set when the maintained topology is
        edge-for-edge identical to :func:`theta_algorithm` recomputed on
        the live node set (edges mapped back to global ids).  This is
        the E23 correctness backstop; tests assert it is empty after
        every event.
        """
        ids = self.alive_ids()
        # The edge codes and the direction counts must both agree.
        maintained = self.edge_set()
        counted = {(c >> 32, c & _MASK) for c in self._edge_dirs}
        if len(ids) < 2:
            return maintained | counted
        topo = theta_algorithm(
            self.live_points(), self.theta, self.max_range, kappa=self.kappa, offset=self.offset
        )
        scratch = {
            (int(ids[a]), int(ids[b])) if ids[a] < ids[b] else (int(ids[b]), int(ids[a]))
            for a, b in topo.graph.edges
        }
        return (scratch ^ maintained) | (scratch ^ counted)




def _edge_code(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Packed ``(lo << 32) | hi`` codes of the undirected edges ``{a, b}``."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return (np.minimum(a, b) << 32) | np.maximum(a, b)


def _rev_changes(nodes: np.ndarray, old: np.ndarray, new: np.ndarray):
    """Reverse-index edits when the Yao rows of ``nodes`` go ``old`` → ``new``.

    Diffed by *target set*, not per cone: a target that merely switched
    cones of its source (possible only when one of them moved) keeps its
    code.  Returns the codes ``(v << 32) | u`` to drop and to add, and
    for each the index into ``nodes`` of its source ``u``.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    src = np.arange(len(nodes)).repeat(old.shape[1])
    o, n = old.ravel(), new.ravel()
    om, nm = o >= 0, n >= 0
    oc = (o[om] << 32) | nodes[src[om]]
    nc = (n[nm] << 32) | nodes[src[nm]]
    gone = ~member(oc, np.sort(nc))
    fresh = ~member(nc, np.sort(oc))
    return oc[gone], nc[fresh], src[om][gone], src[nm][fresh]


def _sorted_codes(codes: "list[int]") -> np.ndarray:
    return np.sort(np.array(codes, dtype=np.int64))


def _keyed_targets(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(group << 32) | v`` for every entry ``v >= 0`` of each row, the
    group taken from the row's ``(group << 32) | node`` key."""
    has = rows >= 0
    groups = (keys >> 32 << 32).repeat(rows.shape[1]).reshape(rows.shape)
    return groups[has] | rows[has]


def _split_rows(group_lo: np.ndarray, keys: np.ndarray, rows: np.ndarray) -> list:
    """``(nodes, rows)`` per group of ``(group << 32) | node`` keyed table rows."""
    order = np.argsort(keys)
    keys, rows = keys[order], rows[order]
    at = np.searchsorted(keys, group_lo).tolist()
    nodes = keys & _MASK
    return [(nodes[a:b], rows[a:b]) for a, b in zip(at[:-1], at[1:])]


@dataclass
class StepChurn:
    """What one engine step's worth of events did to the network.

    Repair counters are summed over the step's independent event groups:
    ``repairs`` and ``conflict_repairs`` hold one entry per group, and a
    node repaired for several events of one group counts once.
    """

    events_applied: int = 0
    nodes_touched: int = 0
    edges_flipped: int = 0
    failed_nodes: "list[int]" = field(default_factory=list)
    removed_nodes: "list[int]" = field(default_factory=list)
    joined_nodes: "list[int]" = field(default_factory=list)
    repairs: "list[RepairStats]" = field(default_factory=list)
    #: Conflict rows recomputed / CSR entries spliced this step (0 when
    #: no DynamicInterference is attached).
    conflict_rows_touched: int = 0
    conflict_entries_changed: int = 0
    conflict_repairs: "list" = field(default_factory=list)
    #: Independent event groups this step's events split into (0 for a
    #: step without events).
    batch_groups: int = 0
    #: State entries exchanged across process boundaries (process
    #: backend only; 0 in-process).
    halo_nodes: int = 0


class DynamicTopology:
    """An :class:`IncrementalTheta` driven by an event trace, for the engine.

    :meth:`step` applies every event scheduled at step ``t`` and reports
    a :class:`StepChurn` so :class:`repro.sim.engine.SimulationEngine`
    can drop buffers at failed nodes and account churn counters;
    :meth:`active_edges` exposes the maintained topology in global-id
    space (stable across events), matching a router sized to
    :attr:`capacity`.

    Parameters
    ----------
    interference:
        Optional :class:`repro.dynamic.interference.DynamicInterference`
        kept in lockstep with the topology: its conflict rows are
        repaired after every step from the repair's net edge changelog.
    backend / workers:
        Every non-empty step goes through
        :func:`repro.dynamic.batching.apply_events_parallel`: its events
        are grouped by dirty-region overlap and every group is repaired
        in one batch-wide call of each repair kernel.  ``backend``
        selects where: ``None`` or ``"serial"`` in this process, and
        ``"process"`` in a lazily built
        :class:`~repro.parallel.pool.TileWorkerPool` of ``workers``
        processes sized to :attr:`capacity` (call :meth:`close`, or use
        as a context manager, to stop it).
    parallel:
        Deprecated and inert: accepted for old callers, ignored.  There
        is one repair route whatever its value.
    capacity:
        Optional explicit node-id capacity (router sizing).  Defaults
        to the largest id mentioned by ``incremental`` or ``events`` —
        but a *live* schedule (:class:`repro.dynamic.events.LiveEventSchedule`)
        is empty at construction time, so sessions that accept joins
        while running pass the headroom they provisioned up front.
    """

    def __init__(
        self,
        incremental: IncrementalTheta,
        events: EventTrace,
        *,
        interference=None,
        parallel: bool = False,
        backend: "str | None" = None,
        workers: "int | None" = None,
        capacity: "int | None" = None,
    ) -> None:
        self.incremental = incremental
        self.events = events
        self.interference = interference
        self.backend = backend
        self.workers = workers
        self.events_applied = 0
        self.nodes_touched_total = 0
        self.edges_flipped_total = 0
        self.conflict_rows_total = 0
        self.conflict_entries_total = 0
        self.batch_groups_total = 0
        self.halo_nodes_total = 0
        self.repairs: "list[RepairStats]" = []
        self._pool = None
        max_id = incremental.size - 1
        for _, ev in events:
            max_id = max(max_id, ev.node)
        #: Upper bound on node ids over the whole trace (router sizing).
        self.capacity = max_id + 1 if capacity is None else int(capacity)
        if self.capacity <= max_id:
            raise ValueError(
                f"capacity {self.capacity} cannot cover node id {max_id}"
            )

    def _process_pool(self):
        """The lazily-built TileWorkerPool of the process backend."""
        if self._pool is None:
            from repro.parallel.pool import TileWorkerPool

            self._pool = TileWorkerPool(
                self.incremental,
                self.interference,
                workers=self.workers,
                capacity=max(self.capacity, self.incremental.size) + 16,
            )
        return self._pool

    def close(self) -> None:
        """Stop the process pool, if one was started (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "DynamicTopology":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def step(self, t: int) -> StepChurn:
        """Apply the events scheduled for step ``t`` in one batch-wide repair.

        :class:`StepChurn` counts repair work per event group, so a node
        in the merged region of several events counts once.
        """
        churn = StepChurn()
        evs = list(self.events.at(t))
        if evs:
            # Called through the module attribute so a wrapper installed
            # on ``batching.apply_events_parallel`` sees every step.
            from repro.dynamic import batching

            pool = self._process_pool() if self.backend == "process" else None
            batch = batching.apply_events_parallel(
                self.incremental,
                evs,
                interference=self.interference,
                backend=self.backend,
                pool=pool,
            )
            churn.events_applied = len(evs)
            churn.nodes_touched = batch.nodes_touched
            churn.edges_flipped = batch.edges_flipped
            churn.batch_groups = batch.groups
            churn.halo_nodes = batch.halo_nodes
            churn.repairs.extend(batch.repairs)
            churn.conflict_repairs.extend(batch.conflict_repairs)
            churn.conflict_rows_touched = batch.conflict_rows_touched
            churn.conflict_entries_changed = batch.conflict_entries_changed
        for ev in evs:
            if isinstance(ev, FailStop):
                churn.failed_nodes.append(ev.node)
                churn.removed_nodes.append(ev.node)
            elif isinstance(ev, NodeLeave):
                churn.removed_nodes.append(ev.node)
            elif isinstance(ev, (NodeJoin, Recover)):
                churn.joined_nodes.append(ev.node)
        self.events_applied += churn.events_applied
        self.nodes_touched_total += churn.nodes_touched
        self.edges_flipped_total += churn.edges_flipped
        self.conflict_rows_total += churn.conflict_rows_touched
        self.conflict_entries_total += churn.conflict_entries_changed
        self.batch_groups_total += churn.batch_groups
        self.halo_nodes_total += churn.halo_nodes
        self.repairs.extend(churn.repairs)
        return churn

    def active_edges(self) -> np.ndarray:
        """Current topology edges in global-id space."""
        return self.incremental.edge_array()

    def alive_ids(self) -> np.ndarray:
        return self.incremental.alive_ids()
