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
group's dirty set, one query plus one owner-keyed lexsort decides phase
1 for every dirty node, and one lexsort over the flattened in-sets
decides phase 2 for every receiver (the per-node versions these
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
from itertools import accumulate, chain, repeat

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
from repro.utils.arrays import run_starts, sorted_unique

__all__ = ["RepairStats", "IncrementalTheta", "DynamicTopology", "StepChurn"]

_MASK = (1 << 32) - 1
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

    State kept per live node ``u``:

    * ``_out[u]``: ``{sector → target}`` — u's phase-1 Yao choices;
    * ``_in[x]``: ``{sources w with x ∈ N(w)}`` — reverse index;
    * ``_admit[x]``: ``{sector → admitted source}`` — phase-2 result;
    * ``_edge_dirs[(lo << 32) | hi]``: 1 or 2 — how many of the two
      directed choices of undirected edge ``{lo, hi}`` survived pruning,
      keyed by the packed int64 edge code (lexicographic pair order).
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
        self._index = DynamicGridIndex(pts, cell=self.max_range)
        self._failed: "set[int]" = set()
        #: Bumped after every state-changing event (or batch); lets
        #: consumers (snapshot cache, DynamicInterference, the harness
        #: substrate cache) key derived structures by topology state.
        self.topology_version = 0
        self._snapshot: "object | None" = None
        self._snapshot_version = -1

        topo = theta_algorithm(pts, self.theta, self.max_range, kappa=self.kappa, offset=self.offset)
        self._out: "dict[int, dict[int, int]]" = {}
        self._in: "dict[int, set[int]]" = {}
        for (u, sec), v in topo.yao_nearest.items():
            self._out.setdefault(u, {})[sec] = v
            self._in.setdefault(v, set()).add(u)
        self._admit: "dict[int, dict[int, int]]" = {}
        self._edge_dirs: "dict[int, int]" = {}
        for (x, sec), w in topo.admitted.items():
            self._admit.setdefault(x, {})[sec] = w
            key = (w << 32) | x if w < x else (x << 32) | w
            self._edge_dirs[key] = self._edge_dirs.get(key, 0) + 1

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

    def edge_set(self) -> "set[tuple[int, int]]":
        """The maintained topology N as undirected global-id pairs."""
        return {(c >> 32, c & _MASK) for c in self._edge_dirs}

    def edge_array(self) -> np.ndarray:
        """``(m, 2)`` sorted intp array of the undirected edges."""
        # Sorted packed (lo << 32) | hi codes: the lexicographic pair order.
        codes = np.fromiter(self._edge_dirs, dtype=np.int64, count=len(self._edge_dirs))
        codes.sort()
        edges = np.empty((len(codes), 2), dtype=np.intp)
        edges[:, 0] = codes >> 32
        edges[:, 1] = codes & 0xFFFFFFFF
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
        replayable on an in-sync replica via :meth:`apply_repair_diff`.
        Diff entries are recorded in repair order (dict insertion order
        survives pickling), so a replay produces the exact same
        transition sequence.
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
        ``(group << 32) | node`` and split by group after one sort), one
        :meth:`_yao_choices_many` decides phase 1 for all of them, one
        :meth:`_admissions_many` decides phase 2 for every group's live
        receivers, and one pass measures every group's update radius.
        Transitions still apply group by group in sorted node and
        receiver order, each group with its own changelog and diff.

        Returns one :class:`RepairStats` (kind ``"batch"``, node -1) per
        group — or one ``(stats, diff)`` pair with ``collect_diff`` —
        each equal to a lone :meth:`_repair_batch` of that group.
        """
        if not groups:
            return []
        with trace.span("dynamic.repair", groups=len(groups)):
            idx = self._index
            n_groups = len(groups)
            group_lo = np.arange(n_groups + 1, dtype=np.int64) << 32
            anchors: "list[np.ndarray]" = []
            anchor_counts: "list[int]" = []
            plans: "list[tuple[list[int], list[int]]]" = []
            alive_keys: "list[int]" = []
            for g, contexts in enumerate(groups):
                event_nodes = list(dict.fromkeys(nd for _, nd, _ in contexts))
                before = len(anchors)
                for ctx in contexts:
                    anchors.extend(ctx[2])
                anchor_counts.append(len(anchors) - before)
                alive = [nd for nd in event_nodes if idx.is_alive(nd)]
                dead = [nd for nd in event_nodes if not idx.is_alive(nd)]
                alive_keys.extend((g << 32) | nd for nd in alive)
                plans.append((alive, dead))
            apos = np.asarray(anchors, dtype=np.float64).reshape(-1, 2)
            anchor_group = np.repeat(np.arange(n_groups, dtype=np.int64), anchor_counts)

            # Phase-1 dirty sets: live nodes whose candidate neighborhood
            # intersects a disk of radius D around one of the group's
            # anchors, keyed (group << 32) | node.
            indptr, hits = idx.query_radius_many(apos, self.max_range)
            hit_group = np.repeat(anchor_group << 32, np.diff(indptr))
            dirty_keys = sorted_unique(
                np.concatenate([hit_group | hits, np.asarray(alive_keys, dtype=np.int64)])
            )
            dirty_nodes = dirty_keys & _MASK
            dirty_all = dirty_nodes.tolist()
            dirty_at = np.searchsorted(dirty_keys, group_lo).tolist()
            choices = self._yao_choices_many(dirty_nodes)

            logs: "list[dict[int, int]]" = []
            flips: "list[int]" = []
            out_diffs: "list[dict[int, dict[int, int] | None]]" = []
            admit_diffs: "list[dict[int, dict[int, int] | None]]" = []
            receiver_sets: "list[set[int]]" = []
            touched_sets: "list[set[int]]" = []
            for g, (alive, dead) in enumerate(plans):
                log: "dict[int, int]" = {}
                out_diff: "dict[int, dict[int, int] | None]" = {}
                admit_diff: "dict[int, dict[int, int] | None]" = {}
                # Surviving event nodes re-prune, and so do their targets
                # from before the repair: their distances to even
                # unchanged targets may have shifted (moves — including a
                # leave/re-join at a new position inside one batch).
                receivers = set(alive)
                for nd in alive:
                    receivers.update(self._out.get(nd, {}).values())
                flipped = 0
                for nd in dead:
                    if nd in self._out:
                        # Departed node: retract its Yao choices; each
                        # former target loses an in-edge and must re-prune.
                        out_diff[nd] = None
                        for v in self._out.pop(nd).values():
                            self._in[v].discard(nd)
                            receivers.add(v)

                dirty = dirty_all[dirty_at[g] : dirty_at[g + 1]]
                for u in dirty:
                    new_choices = choices.get(u, {})
                    old_choices = self._out.get(u, {})
                    if new_choices != old_choices:
                        # Diff by *target set*, not per sector: a target
                        # that merely switched cones of u (possible only
                        # when u or the target moved) keeps its in-edge,
                        # and the mover is already in ``receivers``.
                        if collect_diff:
                            out_diff[u] = new_choices if new_choices else None
                        old_targets = set(old_choices.values())
                        new_targets = set(new_choices.values())
                        for v in old_targets - new_targets:
                            if v in self._in:
                                self._in[v].discard(u)
                            receivers.add(v)
                        for v in new_targets - old_targets:
                            self._in.setdefault(v, set()).add(u)
                            receivers.add(v)
                    if new_choices:
                        self._out[u] = new_choices
                    else:
                        self._out.pop(u, None)

                for nd in alive:
                    receivers.update(self._out.get(nd, {}).values())
                for nd in dead:
                    # Retract the departed node's own admissions and in-set.
                    old_admit = self._admit.pop(nd, None)
                    if old_admit:
                        admit_diff[nd] = None
                        for w in old_admit.values():
                            flipped += self._drop_dir(w, nd, log)
                    self._in.pop(nd, None)
                    receivers.discard(nd)
                logs.append(log)
                flips.append(flipped)
                out_diffs.append(out_diff)
                admit_diffs.append(admit_diff)
                receiver_sets.append(receivers)
                touched_sets.append(receivers.union(dirty, dead))

            # Phase 2 for every group's live receivers in one pass;
            # transitions then apply per group in sorted receiver order,
            # so changelogs and diff replay order match a lone repair.
            rec_counts = [len(r) for r in receiver_sets]
            rec_keys = np.fromiter(
                chain.from_iterable(receiver_sets), dtype=np.int64, count=sum(rec_counts)
            )
            rec_keys |= np.repeat(group_lo[:-1], rec_counts)
            rec_keys.sort()
            live_keys = rec_keys[idx.alive_mask(rec_keys & _MASK)]
            live_rec = (live_keys & _MASK).tolist()
            rec_at = np.searchsorted(live_keys, group_lo).tolist()
            admissions = self._admissions_many(live_rec)
            for g in range(n_groups):
                log, admit_diff = logs[g], admit_diffs[g]
                for x in live_rec[rec_at[g] : rec_at[g + 1]]:
                    new_admit = admissions.get(x, {})
                    if new_admit != self._admit.get(x, {}):
                        flips[g] += self._install_admit(x, new_admit, log)
                        if collect_diff:
                            admit_diff[x] = new_admit or None

            touched_counts = [len(t) for t in touched_sets]
            touched = np.fromiter(
                chain.from_iterable(touched_sets), dtype=np.intp, count=sum(touched_counts)
            )
            touched_group = np.repeat(np.arange(n_groups), touched_counts)
            radii = self._touched_radii(
                touched, touched_group, touched_counts, apos, anchor_group, anchor_counts
            )
            out = []
            for g in range(n_groups):
                log = logs[g]
                changed = sorted(log)
                stats = RepairStats(
                    kind="batch",
                    node=-1,
                    update_radius=radii[g],
                    nodes_touched=touched_counts[g],
                    edges_flipped=flips[g],
                    wall_time=0.0,
                    edges_added=tuple((k >> 32, k & _MASK) for k in changed if log[k] > 0),
                    edges_removed=tuple((k >> 32, k & _MASK) for k in changed if log[k] < 0),
                )
                if collect_diff:
                    diff = {"out": out_diffs[g], "admit": admit_diffs[g], "dead": list(plans[g][1])}
                    out.append((stats, diff))
                else:
                    out.append(stats)
            return out

    def apply_repair_diff(self, diff: dict) -> None:
        """Splice a :meth:`_repair_batch` diff into an in-sync replica.

        The replica must hold the exact pre-repair state (same ``_out``,
        ``_admit``, ``_edge_dirs``) with the batch's index mutations
        already applied.  Replays the recorded transitions — deriving
        ``_in`` edits from out-diff target-set changes and
        ``_edge_dirs`` counts from admit-diff sector changes — without
        any geometry queries, so splicing a group's diff is O(diff), not
        O(dirty region).  Does *not* bump ``topology_version``; the
        caller bumps once per batch after splicing every group.
        """
        for u, new_choices in diff["out"].items():
            old_targets = set(self._out.get(u, {}).values())
            new_targets = set(new_choices.values()) if new_choices else set()
            for v in old_targets - new_targets:
                if v in self._in:
                    self._in[v].discard(u)
            for v in new_targets - old_targets:
                self._in.setdefault(v, set()).add(u)
            if new_choices:
                self._out[u] = dict(new_choices)
            else:
                self._out.pop(u, None)
        for x, new_admit in diff["admit"].items():
            self._install_admit(x, dict(new_admit) if new_admit else {})
        for nd in diff["dead"]:
            self._in.pop(int(nd), None)

    def region_state(self, nodes: "list[int]") -> dict:
        """The ΘALG state at ``nodes``, for :meth:`set_region_state` on a replica.

        Their Yao choices, in-sets and admissions (a node without one is
        absent), and the sorted ``codes`` of every edge at them with the
        edges' direction counts ``dirs``.  Reads only; the dicts are the
        live ones, so a caller in this process must not mutate them.
        """
        codes = self._edges_at(nodes)
        return {
            "nodes": list(nodes),
            "out": {u: self._out[u] for u in nodes if u in self._out},
            "in": {u: self._in[u] for u in nodes if u in self._in},
            "admit": {u: self._admit[u] for u in nodes if u in self._admit},
            "codes": codes,
            "dirs": np.array([self._edge_dirs[c] for c in codes.tolist()], dtype=np.int64),
        }

    def set_region_state(self, state: dict) -> None:
        """Overwrite the keys a :meth:`region_state` covers with its values.

        Set semantics: each listed node's choices, in-set and admissions
        become the recorded ones (or go, when absent there), and the
        edges at those nodes become exactly the recorded edges with
        their direction counts.  No derived edit follows — the ``_in``
        of a former target or the count of an edge elsewhere stays as it
        is — so the keys written equal the source's, and no other key
        moves.  Does not bump ``topology_version``.
        """
        nodes = state["nodes"]
        for table, new, copy in (
            (self._out, state["out"], dict),
            (self._in, state["in"], set),
            (self._admit, state["admit"], dict),
        ):
            for u in nodes:
                value = new.get(u)
                if value is None:
                    table.pop(u, None)
                else:
                    table[u] = copy(value)
        codes = state["codes"]
        dirs = self._edge_dirs
        mine = self._edges_at(nodes)
        for c in mine[~np.isin(mine, codes)].tolist():
            del dirs[c]
        dirs.update(zip(codes.tolist(), state["dirs"].tolist()))

    def _edges_at(self, nodes: "list[int]") -> np.ndarray:
        """Sorted codes of the edges with an endpoint in ``nodes`` (one scan)."""
        codes = np.fromiter(self._edge_dirs, dtype=np.int64, count=len(self._edge_dirs))
        ids = np.asarray(nodes, dtype=np.int64)
        codes = codes[np.isin(codes >> 32, ids) | np.isin(codes & _MASK, ids)]
        codes.sort()
        return codes

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

    def _yao_choices_many(self, nodes: "list[int]") -> "dict[int, dict[int, int]]":
        """Phase 1 for a whole dirty set: nearest in-range neighbor per cone.

        Returns ``{u: {sector: target}}`` for the live ``nodes`` with at
        least one choice.  Bit-for-bit the arithmetic of
        :func:`repro.graphs.yao.yao_out_edges` per source: one batched
        query at ``D`` with the source excluded, ``d = pts[v] - pts[u]``,
        ``dist = np.hypot``, sector from ``arctan2`` mod 2π, ties broken
        by (distance, target id) under one lexsort keyed by owner first.
        """
        idx = self._index
        arr = np.asarray(nodes, dtype=np.intp)
        live = arr[idx.alive_mask(arr)]
        pos = idx.positions_of(live)
        indptr, nbrs = idx.query_radius_many(pos, self.max_range, exclude=live)
        owner = np.repeat(np.arange(len(live)), np.diff(indptr))
        return self._nearest_per_cone(live, owner, nbrs, pos)

    def _admissions_many(self, receivers: "list[int]") -> "dict[int, dict[int, int]]":
        """Phase 2 for a set of live receivers: re-prune incoming Yao edges.

        Mirrors the phase-2 lexsort of :func:`theta_algorithm`: each
        receiver ``x`` groups its in-neighbors by the cone of ``x``
        containing them (``d = pts[w] - pts[x]``) and admits the
        (distance, source id) minimum per cone.  Returns ``{x: {sector:
        source}}`` for the receivers with at least one admission; no
        state is modified.
        """
        rec = np.asarray(receivers, dtype=np.intp)
        in_sets = list(map(self._in.get, receivers, repeat(frozenset())))
        counts = np.fromiter(map(len, in_sets), dtype=np.intp, count=len(in_sets))
        src = np.fromiter(chain.from_iterable(in_sets), dtype=np.intp, count=int(counts.sum()))
        owner = np.repeat(np.arange(len(rec)), counts)
        return self._nearest_per_cone(rec, owner, src, self._index.positions_of(rec))

    def _nearest_per_cone(
        self, heads: np.ndarray, owner: np.ndarray, others: np.ndarray, head_pos: np.ndarray
    ) -> "dict[int, dict[int, int]]":
        """Per head, the (distance, id)-nearest of its ``others`` per cone.

        ``others[i]`` belongs to ``heads[owner[i]]`` (at ``head_pos``);
        ``owner`` is the primary sort key, so every head's cones are
        decided independently in the one lexsort.
        """
        if len(others) == 0:
            return {}
        d = self._index.positions_of(others) - head_pos[owner]
        dist = np.hypot(d[:, 0], d[:, 1])
        ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), TWO_PI)
        sec = np.atleast_1d(self._part.index_of_angle(ang))
        order = np.lexsort((others, dist, sec, owner))
        sel = order[run_starts(owner[order], sec[order])]
        out: "dict[int, dict[int, int]]" = {}
        for h, s, v in zip(heads[owner[sel]].tolist(), sec[sel].tolist(), others[sel].tolist()):
            row = out.get(h)
            if row is None:
                out[h] = row = {}
            row[s] = v
        return out

    def _install_admit(
        self, x: int, new: "dict[int, int]", log: "dict[int, int] | None" = None
    ) -> int:
        """Replace receiver ``x``'s admissions with ``new``.

        Retracts and records admitted directions per changed cone.
        Returns the number of undirected edges flipped (added + removed);
        net creations/deletions are counted into ``log`` when given (+1
        created, -1 deleted, transients cancel).
        """
        old = self._admit.get(x, {})
        flipped = 0
        for sec in set(old) | set(new):
            ow, nw = old.get(sec), new.get(sec)
            if ow == nw:
                continue
            if ow is not None:
                flipped += self._drop_dir(ow, x, log)
            if nw is not None:
                flipped += self._add_dir(nw, x, log)
        if new:
            self._admit[x] = new
        else:
            self._admit.pop(x, None)
        return flipped

    def _add_dir(self, w: int, x: int, log: "dict[int, int] | None" = None) -> int:
        """Record that the directed choice w→x is admitted; 1 if the
        undirected edge {w, x} was created."""
        key = (w << 32) | x if w < x else (x << 32) | w
        c = self._edge_dirs.get(key, 0)
        self._edge_dirs[key] = c + 1
        if c == 0:
            if log is not None:
                bal = log.get(key, 0) + 1
                if bal:
                    log[key] = bal
                else:
                    del log[key]
            return 1
        return 0

    def _drop_dir(self, w: int, x: int, log: "dict[int, int] | None" = None) -> int:
        """Retract the admitted direction w→x; 1 if the undirected edge
        {w, x} disappeared."""
        key = (w << 32) | x if w < x else (x << 32) | w
        c = self._edge_dirs[key]
        if c == 1:
            del self._edge_dirs[key]
            if log is not None:
                bal = log.get(key, 0) - 1
                if bal:
                    log[key] = bal
                else:
                    del log[key]
            return 1
        self._edge_dirs[key] = c - 1
        return 0

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
        if len(ids) < 2:
            return self.edge_set()
        topo = theta_algorithm(
            self.live_points(), self.theta, self.max_range, kappa=self.kappa, offset=self.offset
        )
        scratch = {
            (int(ids[a]), int(ids[b])) if ids[a] < ids[b] else (int(ids[b]), int(ids[a]))
            for a, b in topo.graph.edges
        }
        return scratch ^ self.edge_set()


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
