"""Incremental interference-set maintenance under churn (§2.4 made local).

:class:`repro.dynamic.incremental.IncrementalTheta` repairs the ΘALG
topology on a ≤2D dirty disk per event, but a routing step under the
guard-zone MAC still had to rebuild the CSR ``interference_sets`` from
scratch — ~10 s at n=30k, which made churned MAC experiments
rebuild-bound.  This module makes the conflict structure as local as
the topology repair:

* a conflict *row* I(e) only changes when an edge inside it flips or an
  endpoint inside its guard neighborhood moves.  Because the relation
  is symmetric (``e' ∈ I(e) ⟺ e ∈ I(e')``), recomputing the rows of
  exactly the *changed* edges — net added edges, net removed edges, and
  edges incident to a moved node — and mirroring each changed entry
  into the neighbor's row repairs every affected row;
* all rows of one batch — every independent event group's changed
  edges — are recomputed in O(1) array passes per batch: one batched
  grid query
  (:meth:`~repro.geometry.spatialindex.DynamicGridIndex.query_radius_many`)
  around both endpoints of every row at the maximum possible guard
  reach, one expansion of the candidate nodes to their incident edges,
  and one filter by the *bit-identical* predicate of the vectorized
  kernel (:func:`repro.interference.conflict.interference_sets`):
  squared hit distance ``≤`` squared shrunk guard radius
  ``((1+Δ)·len·(1−1e-12))²``, inclusive at ties.  The per-row version
  it replaced is kept as an oracle in :mod:`repro._reference`.

The relation lives in arrays, not in per-edge Python sets.  Every
tracked edge code holds a process-local *slot*; a table sorted by code
maps codes to slots with one ``searchsorted``.  One sorted int64 array
holds ``(slot_a << 32) | slot_b`` for both orientations of every
conflicting pair, next to per-slot degree and guard-radius arrays.
Updates do not copy that array: changed keys toggle entries of a few
sorted logs of growing size (a key logged an odd number of times flips
its presence in the array).  A full log folds into the next, and the
largest folds into the array once it passes ``_COMPACT_FRACTION`` of
it, so a row read is an array slice corrected by the logs' slices.  A
repair reads the old rows of every changed edge at once, sorts old and
new keys once each, adds each changed entry's mirror as the swapped
key, and installs everything with one merge.  The dict-of-sets
maintainer this replaced is :class:`repro._reference.ConflictRowsReference`.

The maintained rows materialize on demand into a CSR
:class:`~repro.interference.conflict.InterferenceSets` aligned with
``IncrementalTheta.edge_array()`` and **edge-for-edge identical** to a
from-scratch rebuild on the live topology — asserted after every event
of the acceptance traces in ``tests/test_dynamic_interference.py`` and
re-checked by claim E24.

:class:`DynamicMAC` closes the loop for the engine: §3.3 random edge
activation with probabilities ``1/(2·I_e)`` sampled from the
*maintained* conflict degrees, so a churned MAC step costs a local
repair instead of a global rebuild.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from repro.interference.conflict import InterferenceSets, interference_sets
from repro.interference.model import InterferenceModel, interference_radius
from repro.obs import metrics, trace
from repro.utils.arrays import (
    member,
    merge_sorted,
    ragged_arange,
    sorted_unique,
    toggle_sorted,
    unique_inverse,
)
from repro.utils.rng import as_rng

__all__ = [
    "ConflictRepairStats",
    "DynamicInterference",
    "DynamicMAC",
    "MacStep",
    "edge_uniforms",
]

_MASK = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_EMPTY: "frozenset[int]" = frozenset()
_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_KEYS.flags.writeable = False

#: Changed keys go to the smallest of a few sorted logs.  Log ``i``
#: holds up to ``_LOG_MIN * _LOG_RATIO**i`` keys and then folds into log
#: ``i + 1``; the first log whose size reaches ``_COMPACT_FRACTION`` of
#: the pair array folds into the array instead.  A fold copies its
#: target, so each key is copied about ``_LOG_RATIO / 2`` times per
#: level and the array only once per ``_COMPACT_FRACTION`` of its
#: length in changes, however large it is.
_COMPACT_FRACTION = 1 / 8
_LOG_MIN = 1 << 14
_LOG_RATIO = 8

#: Installed key changes wait for the next row read (or an explicit
#: flush) before they are merged, but never more than this many.
_QUEUE_LIMIT = 32


def _codes_of(pairs) -> np.ndarray:
    """Sorted packed ``(lo << 32) | hi`` codes of undirected edge pairs."""
    return np.array(sorted((int(lo) << 32) | int(hi) for lo, hi in pairs), dtype=np.int64)


def _both_ways(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct directed keys: every key of ``keys`` and its mirror."""
    if len(keys) == 0:
        return _NO_KEYS
    return sorted_unique(np.concatenate([keys, ((keys & _MASK) << 32) | (keys >> 32)]))


def edge_uniforms(codes: np.ndarray, seed: int, step: int) -> np.ndarray:
    """Deterministic per-edge uniforms in ``[0, 1)`` for MAC activation.

    A SplitMix64-style integer finalizer over ``(edge code, seed, step)``.
    Unlike a sequential generator the draw is *order-independent*: any
    process can evaluate any edge subset in any order and agree
    bit-for-bit on every edge's uniform — which is what lets the tile
    worker pool activate edges per tile interior while staying identical
    to :meth:`DynamicMAC.deterministic_step` in the parent.
    """
    salt = (
        ((int(seed) + 1) * 0x9E3779B97F4A7C15) ^ (int(step) * 0xD1B54A32D192ED03)
    ) & _MASK64
    z = np.asarray(codes, dtype=np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ np.uint64(salt)) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    # Top 53 bits → the double-precision lattice of [0, 1).
    return (z >> np.uint64(11)).astype(np.float64) * float(2.0**-53)


@dataclass(frozen=True)
class MacStep:
    """One resolved deterministic MAC step (§3.3 activate + resolve).

    ``edges`` are the activated undirected pairs sorted by packed code,
    ``ok`` marks the ones whose guard zones admit them (both endpoints
    clear of every other activated transmission), ``costs`` their
    ``length**kappa`` energy costs.  Pool-side and serial evaluation
    produce identical instances.
    """

    edges: np.ndarray
    costs: np.ndarray
    ok: np.ndarray

    @property
    def activated(self) -> int:
        return int(len(self.edges))

    @property
    def succeeded(self) -> int:
        return int(np.count_nonzero(self.ok))


@dataclass(frozen=True)
class ConflictRepairStats:
    """Per-event (or per-batch) conflict-repair accounting (E24 measurands).

    Attributes
    ----------
    rows_recomputed:
        Conflict rows rebuilt from geometry (added edges plus persisting
        edges incident to a moved node).
    entries_changed:
        Row entries spliced in or out across the whole structure,
        counting both sides of each symmetric pair.  A pair of two
        rebuilt rows whose later row (in code order) belongs to an added
        edge counts four: the row-by-row splice this measures met it
        once from each side.
    edges_added / edges_removed:
        Net topology edges this repair reacted to.
    wall_time:
        Conflict-repair wall-clock seconds.
    """

    rows_recomputed: int
    entries_changed: int
    edges_added: int
    edges_removed: int
    wall_time: float


class DynamicInterference:
    """Maintain §2.4 interference sets I(e) over a churned ΘALG topology.

    Parameters
    ----------
    incremental:
        The :class:`~repro.dynamic.incremental.IncrementalTheta` whose
        topology the conflict structure tracks.  The initial rows are
        seeded from one vectorized from-scratch build.
    delta:
        Guard-zone parameter Δ of the interference model.

    Protocol: after every ``incremental.apply(event)`` call
    :meth:`update_event` with the returned
    :class:`~repro.dynamic.incremental.RepairStats` (whose net
    ``edges_added`` / ``edges_removed`` changelog drives the repair).
    :class:`~repro.dynamic.incremental.DynamicTopology` and
    :func:`repro.dynamic.batching.apply_events_parallel` do this
    automatically.  :meth:`interference_sets` raises if the topology
    advanced without a matching update, so a stale conflict structure
    can never be served silently.
    """

    def __init__(self, incremental, delta: float) -> None:
        self.inc = incremental
        self.delta = float(delta)
        self._index = incremental._index
        D = float(incremental.max_range)
        # Any topology edge satisfies d² ≤ D² + 1e-12 (the kernel's
        # in-range epsilon), so no guard radius exceeds (1+Δ)·√(D²+1e-12):
        # one candidate query radius covers both conflict directions.
        self._r_in = (1.0 + self.delta) * float(np.sqrt(D * D + 1e-12))
        self._incident: "dict[int, set[int]]" = {}
        self._csr: "InterferenceSets | None" = None
        self._synced_version = -1
        self._seed_from_scratch()

    # ------------------------------------------------------------------
    # Seeding and introspection
    # ------------------------------------------------------------------
    def _seed_from_scratch(self) -> None:
        """Build the store from one vectorized full build; slot k is edge k."""
        graph = self.inc.snapshot_graph()
        sets = interference_sets(graph, self.delta)
        edges = graph.edges
        m = len(edges)
        codes = (edges[:, 0].astype(np.int64) << 32) | edges[:, 1].astype(np.int64)
        order = np.argsort(codes)
        #: Tracked codes, sorted, and the slot of each.
        self._codes = codes[order]
        self._slots = order.astype(np.int64)
        #: Per slot: its code (-1 when free), squared shrunk guard
        #: radius and conflict degree |I(e)|.
        self._slot_code = codes.copy()
        r = interference_radius(graph.edge_lengths, self.delta) * (1.0 - 1e-12)
        self._rad2 = r * r
        self._deg = np.diff(sets.indptr).astype(np.int64)
        self._free = _NO_KEYS
        #: Sorted directed pair keys, and the logs of keys toggled since
        #: (smallest first); the relation is ``_pairs`` XOR every log.
        self._pairs = (
            np.repeat(np.arange(m, dtype=np.int64), self._deg) << 32
        ) | sets.indices.astype(np.int64)
        self._logs: "list[np.ndarray]" = [_NO_KEYS]
        #: Installed ``(gain, lose, freed slots)`` changes not yet merged.
        self._queued: list = []
        incident: "dict[int, set[int]]" = {}
        for (lo, hi), code in zip(edges.tolist(), codes.tolist()):
            incident.setdefault(lo, set()).add(code)
            incident.setdefault(hi, set()).add(code)
        self._incident = incident
        self._csr = sets
        self._synced_version = self.inc.topology_version

    @property
    def n_edges(self) -> int:
        return len(self._codes)

    @property
    def nbytes(self) -> int:
        """Bytes held by the conflict structure's arrays (CSR cache included)."""
        self._flush()
        arrays = [
            self._codes,
            self._slots,
            self._slot_code,
            self._rad2,
            self._deg,
            self._free,
            self._pairs,
            *self._logs,
        ]
        if self._csr is not None:
            arrays += [self._csr.indptr, self._csr.indices]
        return sum(a.nbytes for a in arrays)

    def edge_codes(self) -> np.ndarray:
        """Sorted packed ``(lo << 32) | hi`` keys of the tracked edges."""
        return self._codes.copy()

    def conflict_rows(self, codes) -> "list[np.ndarray]":
        """I(e) of each tracked edge code in ``codes``, as sorted code arrays."""
        codes = np.asarray(codes, dtype=np.int64)
        slots, inverse = unique_inverse(self._slot_of(codes))
        keys = self._rows_of(slots)
        owner = keys >> 32
        member = self._slot_code[keys & _MASK]
        order = np.lexsort((member, owner))
        member = member[order]
        bounds = np.searchsorted(owner[order], np.append(slots, slots[-1] + 1 if len(slots) else 0))
        rows = [member[bounds[i] : bounds[i + 1]] for i in range(len(slots))]
        return [rows[i] for i in inverse.tolist()]

    # ------------------------------------------------------------------
    # The slot-pair store
    # ------------------------------------------------------------------
    def _positions(self, codes: np.ndarray) -> np.ndarray:
        """Indices of ``codes`` in the code table; ``KeyError`` if untracked."""
        table = self._codes
        if len(codes) == 0:
            return np.empty(0, dtype=np.intp)
        if len(table) == 0:
            raise KeyError(int(codes[0]))
        pos = np.searchsorted(table, codes)
        found = table[np.minimum(pos, len(table) - 1)] == codes
        if not found.all():
            raise KeyError(int(codes[~found][0]))
        return pos

    def _slot_of(self, codes) -> np.ndarray:
        """Slots of tracked edge codes; ``KeyError`` for an untracked one."""
        return self._slots[self._positions(np.asarray(codes, dtype=np.int64))]

    def _rad2_of(self, codes) -> np.ndarray:
        """Squared shrunk guard radii of tracked edge codes."""
        return self._rad2[self._slot_of(codes)]

    def _track(self, codes: np.ndarray) -> np.ndarray:
        """Give untracked ``codes`` free slots and enter them in the table;
        returns the slots, aligned with ``codes``."""
        k = len(codes)
        if k == 0:
            return _NO_KEYS
        if len(self._free) < k:
            cap = len(self._slot_code)
            grow = max(cap, k - len(self._free), 16)
            self._slot_code = np.concatenate([self._slot_code, np.full(grow, -1, dtype=np.int64)])
            self._rad2 = np.concatenate([self._rad2, np.zeros(grow)])
            self._deg = np.concatenate([self._deg, np.zeros(grow, dtype=np.int64)])
            self._free = np.concatenate([np.arange(cap + grow - 1, cap - 1, -1), self._free])
        slots = self._free[len(self._free) - k :]
        self._free = self._free[: len(self._free) - k]
        order = np.argsort(codes)
        at = self._codes.searchsorted(codes[order])
        self._codes = np.insert(self._codes, at, codes[order])
        self._slots = np.insert(self._slots, at, slots[order])
        self._slot_code[slots] = codes
        return slots

    def _untrack(self, codes: np.ndarray) -> np.ndarray:
        """Drop ``codes`` from the table; returns their slots, still held.

        The slots keep their rows until :meth:`_install` retracts them
        and hands the slots back to the free list.
        """
        if len(codes) == 0:
            return _NO_KEYS
        pos = self._positions(codes)
        slots = self._slots[pos]
        keep = np.ones(len(self._codes), dtype=bool)
        keep[pos] = False
        self._codes = self._codes[keep]
        self._slots = self._slots[keep]
        return slots

    def _rows_of(self, slots: np.ndarray) -> np.ndarray:
        """Directed keys of the current rows of the sorted ``slots``.

        The rows' slice of the pair array, toggled by each log's slice;
        sorted.
        """
        self._flush()
        if len(slots) == 0:
            return _NO_KEYS
        lo, hi = slots << 32, (slots + 1) << 32
        got = _NO_KEYS
        for keys in (self._pairs, *self._logs):
            if len(keys):
                start = keys.searchsorted(lo)
                got = toggle_sorted(got, keys[ragged_arange(start, keys.searchsorted(hi) - start)])
        return got

    def _merge(self, gain: np.ndarray, lose: np.ndarray) -> None:
        """Make the absent keys ``gain`` present and the present keys
        ``lose`` absent (both sorted directed keys).

        Each changed key toggles its entry in the smallest log: one
        run-merging sort of the log with both runs, dropping keys met
        twice.  Full logs then fold into larger ones, the last into the
        array.
        """
        logs = self._logs
        logs[0] = toggle_sorted(logs[0], gain, lose)
        limit = max(_COMPACT_FRACTION * len(self._pairs), _LOG_MIN)
        cap = _LOG_MIN
        i = 0
        while len(logs[i]) > cap:
            if cap >= limit:
                self._pairs = toggle_sorted(self._pairs, logs[i])
                logs[i] = _NO_KEYS
                break
            if i + 1 == len(logs):
                logs.append(_NO_KEYS)
            logs[i + 1] = toggle_sorted(logs[i + 1], logs[i])
            logs[i] = _NO_KEYS
            i += 1
            cap *= _LOG_RATIO

    def _compact(self) -> None:
        """Fold every log into the pair array."""
        for keys in self._logs:
            if len(keys):
                self._pairs = toggle_sorted(self._pairs, keys)
        self._logs = [_NO_KEYS]

    def _install(self, gain: np.ndarray, lose: np.ndarray, rem_slots: np.ndarray) -> None:
        """Install directed key changes: degrees now, the merge later.

        ``gain`` and ``lose`` are sorted directed keys, mirrors included;
        ``lose`` holds every entry of the removed edges' rows.  Degrees
        change at once.  The keys queue until the next row read or
        :meth:`_flush` merges them, so a caller can merge while it would
        otherwise wait.  The removed edges' slots join the free list
        only then, so a queued key never names a reused slot.
        """
        np.subtract.at(self._deg, lose >> 32, 1)
        np.add.at(self._deg, gain >> 32, 1)
        if len(rem_slots):
            self._slot_code[rem_slots] = -1
        self._queued.append((gain, lose, rem_slots))
        if len(self._queued) > _QUEUE_LIMIT:
            self._flush()

    def _flush(self) -> None:
        """Merge every queued change, in install order."""
        for gain, lose, rem_slots in self._queued:
            self._merge(gain, lose)
            if len(rem_slots):
                self._free = np.concatenate([self._free, rem_slots])
        self._queued.clear()

    def _twice(self, a: np.ndarray, b: np.ndarray, rc_slots, add_slots) -> np.ndarray:
        """Mask of the gained pairs ``(a, b)`` (slots) the row-by-row
        splice counted twice.

        A pair of two rebuilt rows whose later row (in code order) is an
        added edge's: that row did not exist when the earlier one
        spliced, so the splice met the pair once from each side.
        """
        if len(add_slots) == 0 or len(a) == 0:
            return np.zeros(len(a), dtype=bool)
        flags = np.zeros(len(self._slot_code), dtype=np.int8)
        flags[rc_slots] = 1
        flags[add_slots] = 3
        later = np.where(self._slot_code[a] > self._slot_code[b], a, b)
        return (flags[a] & flags[b] & (flags[later] >> 1)).astype(bool)

    def _code_pairs(self, keys: np.ndarray, part: np.ndarray, n_parts: int) -> list:
        """Directed slot keys (mirrors included) as per-part ``(k, 2)``
        code pairs ``(lo, hi)`` in lexicographic order."""
        ca, cb = self._slot_code[keys >> 32], self._slot_code[keys & _MASK]
        one = ca < cb
        ca, cb, part = ca[one], cb[one], part[one]
        # (part, lo, hi) order: stable passes, cheaper than np.lexsort.
        order = np.argsort(cb)
        order = order[np.argsort(ca[order], kind="stable")]
        order = order[np.argsort(part[order], kind="stable")]
        pairs = np.column_stack([ca[order], cb[order]])
        bounds = np.searchsorted(part[order], np.arange(n_parts + 1)).tolist()
        return [pairs[bounds[i] : bounds[i + 1]] for i in range(n_parts)]

    # ------------------------------------------------------------------
    # Incremental repair
    # ------------------------------------------------------------------
    def update_event(self, stats) -> ConflictRepairStats:
        """Repair conflict rows after one serial ``IncrementalTheta.apply``.

        ``stats`` is the event's :class:`RepairStats`; a surviving mover
        additionally forces a recompute of its persisting incident rows
        (their guard radii moved with it).
        """
        moved: "list[int]" = []
        if stats.kind == "move" and self._index.is_alive(stats.node):
            moved.append(int(stats.node))
        return self.update(stats.edges_added, stats.edges_removed, moved)

    def update(
        self,
        added,
        removed,
        moved_nodes,
        *,
        _sync: bool = True,
        collect_diff: bool = False,
    ):
        """Splice a net topology diff into the maintained conflict rows.

        The one-group call of :meth:`update_groups`.

        Parameters
        ----------
        added / removed:
            Net undirected global-id edge changes (``(lo, hi)`` pairs).
        moved_nodes:
            Live nodes whose position changed: their persisting incident
            edges get recomputed rows too.
        collect_diff:
            Return ``(stats, row_diff)`` where ``row_diff`` replays the
            same splice on an in-sync replica (:meth:`apply_row_diff`)
            without touching geometry.
        """
        return self.update_groups(
            [(added, removed, moved_nodes)], _sync=_sync, collect_diff=collect_diff
        )[0]

    def update_groups(self, items, *, _sync: bool = True, collect_diff: bool = False) -> list:
        """Splice several independent groups' topology diffs at once.

        ``items`` are ``(added, removed, moved_nodes)`` triples, one per
        event group, as :meth:`update` takes them.  The groups must be
        independent (the 2(4+Δ)D grouping of
        :func:`repro.dynamic.batching.group_events`): then they share no
        edge and no conflict row.  One :meth:`_recompute_rows` rebuilds
        every group's rows, one read of the old rows and one sort of
        each side give every changed entry, and one :meth:`_merge`
        installs them with their mirrors.  Returns
        one :class:`ConflictRepairStats` — or one ``(stats, row_diff)``
        pair with ``collect_diff`` — per group, each equal to a lone
        :meth:`update` of that group bar ``wall_time``.  The groups'
        wall times sum to the call's wall time: each group's own
        bookkeeping time plus a share of the shared passes proportional
        to its recomputed rows.

        A ``row_diff`` holds sorted int64 arrays: the ``removed`` and
        ``added`` edge codes, the recomputed ``codes`` with their
        ``rad2``, and the ``gained`` and ``lost`` entries as ``(k, 2)``
        code pairs ``(lo, hi)``, ``lo < hi``, in lexicographic order.
        ``lost`` includes every entry of a removed edge's row, so a
        replay reads no rows.
        """
        t0 = time.perf_counter()
        with trace.span("dynamic.conflict_repair", groups=len(items)) as sp:
            plans = []
            own: "list[float]" = []
            for added, removed, moved_nodes in items:
                t = time.perf_counter()
                removed_codes = _codes_of(removed)
                added_codes = _codes_of(added)
                self._unregister(removed_codes)
                self._register(added_codes)
                # Rows to rebuild from geometry: added edges, plus the
                # persisting edges whose guard zones moved with a mover.
                recompute: "set[int]" = set(added_codes.tolist())
                for nd in moved_nodes:
                    recompute.update(self._incident.get(int(nd), _EMPTY))
                codes = np.array(sorted(recompute), dtype=np.int64)
                plans.append((removed_codes, added_codes, codes))
                own.append(time.perf_counter() - t)

            n_groups = len(plans)
            removed, added, codes = (
                np.concatenate([p[i] for p in plans]) if plans else _NO_KEYS for i in range(3)
            )
            rem_gid = np.repeat(np.arange(n_groups), [len(p[0]) for p in plans])
            rc_gid = np.repeat(np.arange(n_groups), [len(p[2]) for p in plans])
            rem_slots = self._untrack(removed)
            add_slots = self._track(added)
            rad2, indptr, _, hit_slots = self._recompute_rows(codes)
            rc_slots = self._slot_of(codes)
            new = np.sort((np.repeat(rc_slots, np.diff(indptr)) << 32) | hit_slots)
            gain, lose = self._row_changes(rc_slots, new, rem_slots)
            changed = np.concatenate([gain, lose])
            if n_groups == 1:
                gid = np.zeros(len(changed), dtype=np.int64)
            else:
                # One end of every changed pair is a rebuilt or removed row.
                held = np.concatenate([rc_slots, rem_slots])
                order = np.argsort(held)
                held, held_gid = held[order], np.concatenate([rc_gid, rem_gid])[order]
                a, b = changed >> 32, changed & _MASK
                gid = held_gid[np.searchsorted(held, np.where(member(a, held), a, b))]
            twice = self._twice(gain >> 32, gain & _MASK, rc_slots, add_slots)
            entries = np.bincount(gid, minlength=n_groups) + np.bincount(
                gid[: len(gain)][twice], minlength=n_groups
            )
            if collect_diff:
                # Part 2g holds group g's gained pairs, part 2g + 1 its lost ones.
                part = 2 * gid
                part[len(gain) :] += 1
                pairs = self._code_pairs(changed, part, 2 * n_groups)
                bounds = np.searchsorted(rc_gid, np.arange(n_groups + 1)).tolist()
                diffs = [
                    {
                        "removed": removed_codes,
                        "added": added_codes,
                        "codes": group_codes,
                        "rad2": rad2[bounds[g] : bounds[g + 1]],
                        "gained": pairs[2 * g],
                        "lost": pairs[2 * g + 1],
                    }
                    for g, (removed_codes, added_codes, group_codes) in enumerate(plans)
                ]
            self._install(gain, lose, rem_slots)
            self._csr = None
            if _sync:
                self._synced_version = self.inc.topology_version
            shared = time.perf_counter() - t0 - sum(own)
            n_rows = len(codes)
            out = []
            for g, (removed_codes, added_codes, group_codes) in enumerate(plans):
                share = len(group_codes) / n_rows if n_rows else 1.0 / n_groups
                stats = ConflictRepairStats(
                    rows_recomputed=len(group_codes),
                    entries_changed=int(entries[g]),
                    edges_added=len(added_codes),
                    edges_removed=len(removed_codes),
                    wall_time=own[g] + shared * share,
                )
                out.append((stats, diffs[g]) if collect_diff else stats)
            sp.set(rows=n_rows, entries=int(entries.sum()))
        reg = metrics.active()
        if reg is not None:
            reg.counter("dynamic.conflict_repairs").inc(n_groups)
            reg.counter("dynamic.conflict_rows_recomputed").inc(n_rows)
        return out

    def apply_row_diff(self, diff: dict, *, _sync: bool = True) -> ConflictRepairStats:
        """Replay an :meth:`update` ``collect_diff`` delta on a replica.

        The one-diff call of :meth:`apply_row_diffs`.
        """
        return self.apply_row_diffs([diff], _sync=_sync)[0]

    def apply_row_diffs(self, diffs: list, *, _sync: bool = True) -> "list[ConflictRepairStats]":
        """Replay the row diffs of independent groups in one merge.

        The replica must hold the exact pre-update rows, and the diffs
        must come from groups of one batch (they share no row).  The
        recorded radii and entry changes replace the geometry queries,
        so the resulting state — and the returned stats, bar
        ``wall_time`` — match the originating process bit for bit.
        Slots are process-local: diffs name edges by code only.
        """
        if not diffs:
            return []
        t0 = time.perf_counter()
        for diff in diffs:
            self._unregister(diff["removed"])
            self._register(diff["added"])
        removed, added, codes, rad2, gained, lost = (
            diffs[0][key] if len(diffs) == 1 else np.concatenate([d[key] for d in diffs])
            for key in ("removed", "added", "codes", "rad2", "gained", "lost")
        )
        add_slots = self._track(added)
        # Lost pairs still name removed edges: look every pair end up
        # before untracking them, each distinct code once, in order.
        ends, end_of = unique_inverse(np.concatenate([gained, lost]).ravel())
        slots = self._slot_of(ends)[end_of]
        rem_slots = self._untrack(removed)
        rc_slots = self._slot_of(codes)
        self._rad2[rc_slots] = rad2
        a, b = slots[0::2], slots[1::2]
        keys, mirrors = (a << 32) | b, (b << 32) | a
        k = len(gained)
        gain = np.sort(np.concatenate([keys[:k], mirrors[:k]]))
        lose = np.sort(np.concatenate([keys[k:], mirrors[k:]]))
        self._install(gain, lose, rem_slots)

        twice = self._twice(a[:k], b[:k], rc_slots, add_slots)
        n_gained = [len(d["gained"]) for d in diffs]
        twice_per = np.bincount(np.repeat(np.arange(len(diffs)), n_gained)[twice], minlength=len(diffs))
        self._csr = None
        if _sync:
            self._synced_version = self.inc.topology_version
        wall = time.perf_counter() - t0
        n = len(codes)
        return [
            ConflictRepairStats(
                rows_recomputed=len(d["codes"]),
                entries_changed=2 * (n_gained[g] + len(d["lost"]) + int(twice_per[g])),
                edges_added=len(d["added"]),
                edges_removed=len(d["removed"]),
                wall_time=wall * (len(d["codes"]) / n if n else 1.0 / len(diffs)),
            )
            for g, d in enumerate(diffs)
        ]

    def _row_changes(self, rc_slots, new, rem_slots) -> "tuple[np.ndarray, np.ndarray]":
        """Directed keys, mirrors included, that rewriting rows gains and loses.

        ``new`` holds the sorted directed keys of the rows of the
        distinct ``rc_slots``.  One read gets the old rows of those and
        of the removed edges' ``rem_slots``.  Entries at a removed edge
        all go; a rewritten row's key on one side only changed.
        """
        old = self._rows_of(np.sort(np.concatenate([rc_slots, rem_slots])))
        retract = _NO_KEYS
        if len(rem_slots):
            rem = np.sort(rem_slots)
            gone = member(old >> 32, rem) | member(old & _MASK, rem)
            retract, old = _both_ways(old[gone]), old[~gone]
        old = np.sort(old)
        gain = _both_ways(new[~member(new, old)])
        lose = merge_sorted(_both_ways(old[~member(old, new)]), retract)
        return gain, lose

    def region_rows(self, codes: np.ndarray) -> dict:
        """The rows of the sorted tracked edge ``codes``, for :meth:`set_region_rows`.

        ``pairs`` holds one ``(code, member)`` row per entry of each
        row; ``partners`` are the members outside ``codes``, sorted,
        each with its radius in ``partner_rad2``.
        """
        slots = self._slot_of(codes)
        keys = self._rows_of(np.sort(slots))
        pairs = np.column_stack([self._slot_code[keys >> 32], self._slot_code[keys & _MASK]])
        partners = sorted_unique(pairs[:, 1][~member(pairs[:, 1], codes)])
        return {
            "codes": codes,
            "rad2": self._rad2[slots],
            "pairs": pairs,
            "partners": partners,
            "partner_rad2": self._rad2_of(partners),
        }

    def set_region_rows(self, nodes, state: dict) -> None:
        """Make the edges at ``nodes`` and their rows those of :meth:`region_rows`.

        Set semantics: the tracked edges at ``nodes`` become exactly
        ``state["codes"]`` — edges the source lacks are dropped with
        every entry of their rows — and each of their rows becomes the
        recorded one.  Every changed entry is written on both sides (the
        relation is symmetric), so the row of an edge elsewhere changes
        only in its entries with these edges.  A partner this replica
        does not track yet is tracked with the recorded radius and a row
        of just those entries.  Degrees follow the entries; nothing is
        recomputed from geometry.
        """
        codes, partners = state["codes"], state["partners"]
        mine = np.fromiter(
            chain.from_iterable(self._incident.get(u, _EMPTY) for u in nodes), dtype=np.int64
        )
        drop = sorted_unique(mine[~member(mine, codes)])
        known = np.concatenate([codes, partners])
        add = np.sort(known[~member(known, self._codes)])
        self._unregister(drop)
        self._register(add)
        rem_slots = self._untrack(drop)
        self._track(add)
        slots = self._slot_of(codes)
        self._rad2[slots] = state["rad2"]
        self._rad2[self._slot_of(partners)] = state["partner_rad2"]
        pairs = state["pairs"]
        new = np.sort((self._slot_of(pairs[:, 0]) << 32) | self._slot_of(pairs[:, 1]))
        gain, lose = self._row_changes(slots, new, rem_slots)
        self._install(gain, lose, rem_slots)
        self._csr = None

    def _unregister(self, codes) -> None:
        """Drop removed edges from the node → incident-edge map."""
        incident = self._incident
        for c in np.asarray(codes).tolist():
            for nd in (c >> 32, c & _MASK):
                s = incident.get(nd)
                if s is not None:
                    s.discard(c)
                    if not s:
                        del incident[nd]

    def _register(self, codes) -> None:
        """Register added edges so row recomputes can see them."""
        incident = self._incident
        for c in np.asarray(codes).tolist():
            incident.setdefault(c >> 32, set()).add(c)
            incident.setdefault(c & _MASK, set()).add(c)

    def _mark_synced(self) -> None:
        """Batch applier hook: declare the structure current again."""
        self._synced_version = self.inc.topology_version

    def _recompute_rows(self, codes: np.ndarray) -> tuple:
        """Guard radii and rows I(c) of tracked ``codes`` from current geometry.

        First installs every code's squared shrunk guard radius
        ``((1+Δ)·len·(1−1e-12))²`` (kernel arithmetic) into ``_rad2``,
        so rows can read each other's radii.  Then, in one pass over all
        rows: a batched grid query at the shared maximum guard reach
        around both endpoints of every row gives a candidate superset;
        each candidate node expands to its incident edges ``k``; and the
        exact kernel predicate — squared hit distance ``≤`` squared
        shrunk radius, inclusive at ties — decides both conflict
        directions:

        * ``d²(u, p) ≤ r²(code)``: every edge at node ``u`` has an
          endpoint inside *code*'s guard zone (out-direction);
        * ``d²(u, p) ≤ r²(k)`` for ``k`` incident to ``u``: *code*'s
          endpoint ``p`` lies inside ``k``'s guard zone (in-direction).

        Returns the radii aligned with ``codes`` and the rows as CSR:
        row ``i`` is ``hits[indptr[i]:indptr[i + 1]]``, sorted codes,
        whose slots are ``hit_slots`` — ``(rad2, indptr, hits, hit_slots)``.
        """
        nrows = len(codes)
        if nrows == 0:
            return np.empty(0), np.zeros(1, dtype=np.intp), _NO_KEYS, _NO_KEYS
        idx = self._index
        arr = np.asarray(codes, dtype=np.int64)
        # Rows share endpoints (every row at a mover does): query each
        # endpoint node once.
        ends, end_of = unique_inverse(np.concatenate([arr >> 32, arr & _MASK]))
        pos = idx.positions_of(ends)
        pa, pb = pos[end_of[:nrows]], pos[end_of[nrows:]]
        length = np.hypot(pa[:, 0] - pb[:, 0], pa[:, 1] - pb[:, 1])
        r = interference_radius(length, self.delta) * (1.0 - 1e-12)
        own_r2 = r * r
        self._rad2[self._slot_of(arr)] = own_r2

        indptr, cand = idx.query_radius_many(pos, self._r_in)
        d = idx.positions_of(cand) - np.take(pos, np.repeat(np.arange(len(ends)), np.diff(indptr)), axis=0)
        d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        # (row, hit) pairs: the hits of both endpoints of every row.
        per_end = np.diff(indptr)[end_of]
        hit = ragged_arange(indptr[:-1][end_of], per_end)
        prow = np.repeat(np.arange(2 * nrows) % nrows, per_end)
        # Expand each hit node to its incident edges, numbered by sorted code.
        nodes, node_of = unique_inverse(cand)
        inc_sets = list(map(self._incident.get, nodes.tolist(), repeat(_EMPTY)))
        counts = np.fromiter(map(len, inc_sets), dtype=np.intp, count=len(inc_sets))
        flat = np.fromiter(chain.from_iterable(inc_sets), dtype=np.int64, count=int(counts.sum()))
        kcodes, k_of = unique_inverse(flat)
        kslots = self._slot_of(kcodes)
        k_r2 = self._rad2[kslots]
        reps = counts[node_of[hit]]
        k = k_of[ragged_arange((np.cumsum(counts) - counts)[node_of[hit]], reps)]
        prow = np.repeat(prow, reps)
        pd2 = np.repeat(d2[hit], reps)
        keep = ((pd2 <= own_r2[prow]) | (pd2 <= k_r2[k])) & (kcodes[k] != arr[prow])
        # One sort of (row, edge) keys dedupes and orders every row.
        key = sorted_unique(prow[keep] * len(kcodes) + k[keep])
        bounds = np.searchsorted(key, np.arange(nrows + 1) * len(kcodes))
        hit = key % len(kcodes)
        return own_r2, bounds, kcodes[hit], kslots[hit]

    # ------------------------------------------------------------------
    # Materialization and backstop
    # ------------------------------------------------------------------
    def _check_synced(self) -> None:
        if self._synced_version != self.inc.topology_version:
            raise RuntimeError(
                "DynamicInterference is out of sync with its topology "
                f"(synced at version {self._synced_version}, topology at "
                f"{self.inc.topology_version}); call update() after every event"
            )

    def degree_array(self) -> np.ndarray:
        """``|I(e)|`` aligned with ``edge_array()``, *without* CSR.

        The MAC hot path only needs conflict degrees for its activation
        bounds; reading them off the per-slot degree array skips the
        O(nnz) CSR materialization (nnz is ~10⁷ at n=10⁴).
        """
        self._check_synced()
        return self._deg[self._slots]

    def degrees_of(self, codes: np.ndarray) -> np.ndarray:
        """``|I(e)|`` for the given packed edge codes, as one gather.

        Raises ``KeyError`` for a code that is not a tracked edge.
        """
        self._check_synced()
        return self._deg[self._slot_of(codes)]

    def interference_sets(self) -> InterferenceSets:
        """The maintained conflict structure as a CSR ``InterferenceSets``.

        Rows align with ``IncrementalTheta.edge_array()`` (sorted
        undirected global-id edges).  Materialization is cached until
        the next :meth:`update`; a topology that advanced without a
        matching update raises instead of serving stale rows.  It
        compacts the store, renumbers slots by code rank and sorts once.
        """
        self._check_synced()
        if self._csr is None:
            self._flush()
            self._compact()
            m = len(self._codes)
            rank = np.zeros(len(self._slot_code), dtype=np.int64)
            rank[self._slots] = np.arange(m, dtype=np.int64)
            keys = (rank[self._pairs >> 32] << 32) | rank[self._pairs & _MASK]
            keys.sort(kind="stable")  # linear when slots already follow code order
            indptr = np.zeros(m + 1, dtype=np.intp)
            np.cumsum(np.bincount(keys >> 32, minlength=m), out=indptr[1:])
            self._csr = InterferenceSets(indptr, keys & _MASK)
        return self._csr

    def degrees(self) -> np.ndarray:
        """``|I(e)|`` aligned with ``edge_array()`` (shared, read-only)."""
        return self.interference_sets().degrees

    def check_full_equivalence(self) -> int:
        """Rows differing from a from-scratch rebuild (0 = bit-identical).

        The E24 correctness backstop: rebuilds ``interference_sets`` on
        the maintained topology snapshot and compares row-for-row.
        """
        ref = interference_sets(self.inc.snapshot_graph(), self.delta)
        mine = self.interference_sets()
        if mine == ref:
            return 0
        mism = abs(len(ref) - len(mine))
        for k in range(min(len(ref), len(mine))):
            if not np.array_equal(np.asarray(ref[k]), np.asarray(mine[k])):
                mism += 1
        return max(mism, 1)


class DynamicMAC:
    """§3.3 random edge activation over a *maintained* churned topology.

    The static :class:`~repro.core.interference_mac.RandomActivationMAC`
    computes interference sets once per graph; under churn that means a
    full rebuild per step.  This wrapper samples activation probabilities
    ``1/(2·I_e)`` from a :class:`DynamicInterference`'s maintained
    degrees — refreshed per topology version, so a step after k events
    costs k local conflict repairs plus one CSR materialization.

    The per-step interface matches ``RandomActivationMAC``
    (:meth:`active_edges` / :meth:`success_mask`), so
    :class:`repro.sim.engine.SimulationEngine` drives either through the
    same ``mac=`` hook.
    """

    def __init__(
        self,
        interference: DynamicInterference,
        *,
        rng=None,
        bound_mode: str = "own",
    ) -> None:
        from repro.core.interference_mac import estimate_edge_interference

        if bound_mode not in ("own", "neighborhood"):
            raise ValueError(f"mode must be 'own' or 'neighborhood', got {bound_mode!r}")
        self.interference = interference
        self.inc = interference.inc
        self.delta = interference.delta
        self.bound_mode = bound_mode
        self.rng = as_rng(rng)
        self._estimate = estimate_edge_interference
        self._model = InterferenceModel(self.delta)
        self._cache_version = -1
        self._edges = np.empty((0, 2), dtype=np.intp)
        self._costs = np.empty(0)
        self._probs = np.empty(0)

    def _refresh(self) -> None:
        """Re-derive edges/costs/activation probs once per topology version."""
        v = self.inc.topology_version
        if v == self._cache_version:
            return
        edges = self.inc.edge_array()
        if self.bound_mode == "own":
            # Degrees straight off the maintained rows, in the edge
            # array's order — no second sort, no CSR build.
            codes = self.inc.edge_codes()
            bounds = np.maximum(self.interference.degrees_of(codes).astype(np.float64), 1.0)
        else:
            sets = self.interference.interference_sets()
            bounds = self._estimate(None, self.delta, mode=self.bound_mode, sets=sets)
        d = self.inc.position_array(edges[:, 0]) - self.inc.position_array(edges[:, 1])
        lengths = np.hypot(d[:, 0], d[:, 1])
        self._edges = edges
        self._costs = lengths**self.inc.kappa
        self._probs = 1.0 / (2.0 * bounds)
        self._cache_version = v

    @property
    def interference_number(self) -> int:
        """``I`` — max interference-set size of the current topology."""
        arr = self.interference.degree_array()
        return int(arr.max()) if len(arr) else 0

    def active_edges(self) -> "tuple[np.ndarray, np.ndarray]":
        """Sample this step's active edges (both orientations + costs)."""
        self._refresh()
        m = len(self._edges)
        if m == 0:
            return np.empty((0, 2), dtype=np.intp), np.empty(0)
        with trace.span("mac.activate", edges=m) as sp:
            mask = self.rng.random(m) < self._probs
            e = self._edges[mask]
            c = self._costs[mask]
            directed = np.vstack([e, e[:, ::-1]]) if len(e) else np.empty((0, 2), dtype=np.intp)
            costs = np.concatenate([c, c]) if len(c) else np.empty(0)
            sp.set(activated=len(e))
        reg = metrics.active()
        if reg is not None:
            reg.counter("mac.activation_rounds").inc()
            reg.counter("mac.activated_edges").inc(len(e))
        return directed, costs

    def success_mask(self, batch) -> np.ndarray:
        """Resolve guard-zone interference among a :class:`~repro.sim.packets.TxBatch`.

        Same semantics as ``RandomActivationMAC.success_mask``, evaluated
        on the *live* maintained positions (global-id space).
        """
        k = len(batch)
        if k == 0:
            return np.ones(0, dtype=bool)
        with trace.span("mac.resolve", attempts=k) as sp:
            ok = self._model.resolve_codes(self.inc.all_positions(), batch.edge_codes())
            sp.set(succeeded=int(np.count_nonzero(ok)))
        reg = metrics.active()
        if reg is not None:
            reg.counter("mac.resolved_attempts").inc(k)
            reg.counter("mac.collision_failures").inc(k - int(np.count_nonzero(ok)))
        return ok

    def deterministic_step(self, *, seed: int, step: int) -> MacStep:
        """One activate+resolve round with hash-derived randomness.

        The serial reference of the pool-side MAC
        (:meth:`repro.parallel.pool.TileWorkerPool.mac_step`): activation
        draws come from :func:`edge_uniforms` instead of the sequential
        ``rng``, so the same ``(seed, step)`` yields the same step
        whether evaluated here or sharded across tile workers.
        Resolution matches :meth:`success_mask` — an activated edge
        succeeds iff no other activated edge's guard region touches one
        of its endpoints.
        """
        self._refresh()
        m = len(self._edges)
        empty = MacStep(
            edges=np.empty((0, 2), dtype=np.int64),
            costs=np.empty(0),
            ok=np.empty(0, dtype=bool),
        )
        if m == 0:
            return empty
        with trace.span("mac.deterministic_step", edges=m, step=step) as sp:
            edges = np.asarray(self._edges, dtype=np.int64)
            codes = (edges[:, 0] << 32) | edges[:, 1]
            active = edge_uniforms(codes, seed, step) < self._probs
            e = edges[active]
            c = self._costs[active]
            if len(e) == 0:
                return empty
            mat = self._model.interference_matrix(self.inc.all_positions(), e)
            ok = ~mat.any(axis=1) if mat.size else np.ones(len(e), dtype=bool)
            sp.set(activated=len(e), succeeded=int(np.count_nonzero(ok)))
        reg = metrics.active()
        if reg is not None:
            reg.counter("mac.activation_rounds").inc()
            reg.counter("mac.activated_edges").inc(len(e))
            reg.counter("mac.resolved_attempts").inc(len(e))
            reg.counter("mac.collision_failures").inc(len(e) - int(np.count_nonzero(ok)))
        return MacStep(edges=e, costs=c, ok=ok)
