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
  edges incident to a moved node — and splicing the diffs into their
  neighbors' rows repairs every affected row;
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
from repro.utils.arrays import ragged_arange, sorted_unique, unique_inverse
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


def _pack(lo: int, hi: int) -> int:
    """One int64 key per undirected edge ``(lo, hi)``, lex-order preserving."""
    return (lo << 32) | hi


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
        counting both sides of each symmetric pair.
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
        self._rows: "dict[int, set[int]]" = {}
        self._incident: "dict[int, set[int]]" = {}
        self._rad2: "dict[int, float]" = {}
        self._csr: "InterferenceSets | None" = None
        self._synced_version = -1
        self._seed_from_scratch()

    # ------------------------------------------------------------------
    # Seeding and introspection
    # ------------------------------------------------------------------
    def _seed_from_scratch(self) -> None:
        """Build rows/incident maps from one vectorized full build."""
        graph = self.inc.snapshot_graph()
        sets = interference_sets(graph, self.delta)
        edges = graph.edges
        codes = (edges[:, 0].astype(np.int64) << 32) | edges[:, 1].astype(np.int64)
        lengths = graph.edge_lengths
        indptr, indices = sets.indptr, sets.indices
        rows: "dict[int, set[int]]" = {}
        incident: "dict[int, set[int]]" = {}
        rad2: "dict[int, float]" = {}
        code_list = codes.tolist()
        for k, code in enumerate(code_list):
            rows[code] = set(codes[indices[indptr[k] : indptr[k + 1]]].tolist())
            r = float(interference_radius(lengths[k], self.delta) * (1.0 - 1e-12))
            rad2[code] = r * r
        for (lo, hi), code in zip(edges.tolist(), code_list):
            incident.setdefault(lo, set()).add(code)
            incident.setdefault(hi, set()).add(code)
        self._rows, self._incident, self._rad2 = rows, incident, rad2
        self._csr = sets
        self._synced_version = self.inc.topology_version

    @property
    def n_edges(self) -> int:
        return len(self._rows)

    def edge_codes(self) -> np.ndarray:
        """Sorted packed ``(lo << 32) | hi`` keys of the tracked edges."""
        return np.fromiter(sorted(self._rows), dtype=np.int64, count=len(self._rows))

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
        edge and no conflict row.  Each group retracts and registers its
        edges, one :meth:`_recompute_rows` rebuilds every group's rows,
        and each group splices its rows in sorted code order.  Returns
        one :class:`ConflictRepairStats` — or one ``(stats, row_diff)``
        pair with ``collect_diff`` — per group, each equal to a lone
        :meth:`update` of that group bar ``wall_time``.  The groups'
        wall times sum to the call's wall time: each group's own
        retract/register/splice time plus a share of the shared pass
        proportional to its recomputed rows.
        """
        t0 = time.perf_counter()
        with trace.span("dynamic.conflict_repair", groups=len(items)) as sp:
            plans = []
            entries: "list[int]" = []
            own: "list[float]" = []
            all_codes: "list[int]" = []
            for added, removed, moved_nodes in items:
                t = time.perf_counter()
                removed_codes = [_pack(int(lo), int(hi)) for lo, hi in removed]
                added_codes = [_pack(int(lo), int(hi)) for lo, hi in added]
                entries.append(self._retract(removed_codes))
                self._register(added_codes)
                # Rows to rebuild from geometry: added edges, plus the
                # persisting edges whose guard zones moved with a mover.
                recompute: "set[int]" = set(added_codes)
                for nd in moved_nodes:
                    recompute.update(self._incident.get(int(nd), _EMPTY))
                codes = sorted(recompute)
                all_codes.extend(codes)
                plans.append((removed_codes, added_codes, codes))
                own.append(time.perf_counter() - t)

            rad2_list, new_rows = self._recompute_rows(all_codes)
            diffs = []
            lo = 0
            for g, (removed_codes, added_codes, codes) in enumerate(plans):
                t = time.perf_counter()
                hi = lo + len(codes)
                for c, new_row in zip(codes, new_rows[lo:hi]):
                    entries[g] += self._splice_row(c, set(new_row))
                if collect_diff:
                    diffs.append(
                        {
                            "removed": removed_codes,
                            "added": added_codes,
                            "rad2": dict(zip(codes, rad2_list[lo:hi])),
                            "rows": dict(zip(codes, new_rows[lo:hi])),
                        }
                    )
                own[g] += time.perf_counter() - t
                lo = hi

            self._csr = None
            if _sync:
                self._synced_version = self.inc.topology_version
            shared = time.perf_counter() - t0 - sum(own)
            n_rows = len(all_codes)
            out = []
            for g, (removed_codes, added_codes, codes) in enumerate(plans):
                part = len(codes) / n_rows if n_rows else 1.0 / len(plans)
                stats = ConflictRepairStats(
                    rows_recomputed=len(codes),
                    entries_changed=entries[g],
                    edges_added=len(added_codes),
                    edges_removed=len(removed_codes),
                    wall_time=own[g] + shared * part,
                )
                out.append((stats, diffs[g]) if collect_diff else stats)
            sp.set(rows=n_rows, entries=sum(entries))
        reg = metrics.active()
        if reg is not None:
            reg.counter("dynamic.conflict_repairs").inc(len(items))
            reg.counter("dynamic.conflict_rows_recomputed").inc(len(all_codes))
        return out

    def apply_row_diff(self, diff: dict, *, _sync: bool = True) -> ConflictRepairStats:
        """Replay an :meth:`update` ``collect_diff`` delta on a replica.

        The replica must hold the exact pre-update rows (same ``_rows``,
        ``_incident``, ``_rad2``).  Performs the identical retract /
        register / splice sequence with the *recorded* recomputed rows
        instead of geometry queries, so the resulting state — and the
        returned stats, bar ``wall_time`` — match the originating
        worker's bit for bit.
        """
        t0 = time.perf_counter()
        removed_codes = diff["removed"]
        added_codes = diff["added"]
        entries = self._retract(removed_codes)
        self._register(added_codes)
        self._rad2.update(diff["rad2"])
        for c, new_list in diff["rows"].items():
            entries += self._splice_row(c, set(new_list))
        self._csr = None
        if _sync:
            self._synced_version = self.inc.topology_version
        return ConflictRepairStats(
            rows_recomputed=len(diff["rows"]),
            entries_changed=entries,
            edges_added=len(added_codes),
            edges_removed=len(removed_codes),
            wall_time=time.perf_counter() - t0,
        )

    def _retract(self, removed_codes: "list[int]") -> int:
        """Drop removed edges' rows and their membership in neighbors'
        rows (symmetry gives the exact affected set for free)."""
        rows = self._rows
        incident = self._incident
        entries = 0
        for c in removed_codes:
            row = rows.pop(c, None)
            self._rad2.pop(c, None)
            for nd in (c >> 32, c & _MASK):
                s = incident.get(nd)
                if s is not None:
                    s.discard(c)
                    if not s:
                        del incident[nd]
            if row:
                entries += 2 * len(row)
                for nb in row:
                    nb_row = rows.get(nb)
                    if nb_row is not None:
                        nb_row.discard(c)
        return entries

    def _register(self, added_codes: "list[int]") -> None:
        """Register added edges so row recomputes can see them."""
        incident = self._incident
        for c in added_codes:
            incident.setdefault(c >> 32, set()).add(c)
            incident.setdefault(c & _MASK, set()).add(c)

    def _splice_row(self, c: int, new_row: "set[int]") -> int:
        """Install ``new_row`` as I(c), mirroring each change into the
        symmetric neighbor rows; returns entries changed (both sides)."""
        rows = self._rows
        entries = 0
        old_row = rows.get(c, _EMPTY)
        for nb in old_row - new_row:
            nb_row = rows.get(nb)
            if nb_row is not None:
                nb_row.discard(c)
            entries += 2
        for nb in new_row - old_row:
            nb_row = rows.get(nb)
            if nb_row is not None:
                nb_row.add(c)
            entries += 2
        rows[c] = new_row
        return entries

    def _mark_synced(self) -> None:
        """Batch applier hook: declare the structure current again."""
        self._synced_version = self.inc.topology_version

    def _recompute_rows(self, codes: "list[int]") -> "tuple[list[float], list[list[int]]]":
        """Guard radii and rows I(c) of ``codes`` from current geometry.

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

        Returns the radii and the sorted rows, aligned with ``codes``.
        """
        nrows = len(codes)
        if nrows == 0:
            return [], []
        idx = self._index
        arr = np.array(codes, dtype=np.int64)
        # Rows share endpoints (every row at a mover does): query each
        # endpoint node once.
        ends, end_of = unique_inverse(np.concatenate([arr >> 32, arr & _MASK]))
        pos = idx.positions_of(ends)
        pa, pb = pos[end_of[:nrows]], pos[end_of[nrows:]]
        length = np.hypot(pa[:, 0] - pb[:, 0], pa[:, 1] - pb[:, 1])
        r = interference_radius(length, self.delta) * (1.0 - 1e-12)
        own_r2 = r * r
        rad2_list = own_r2.tolist()
        rad2 = self._rad2
        rad2.update(zip(codes, rad2_list))

        indptr, cand = idx.query_radius_many(pos, self._r_in)
        d = idx.positions_of(cand) - pos[np.repeat(np.arange(len(ends)), np.diff(indptr))]
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
        k_r2 = np.fromiter(map(rad2.__getitem__, kcodes.tolist()), dtype=np.float64, count=len(kcodes))
        reps = counts[node_of[hit]]
        k = k_of[ragged_arange((np.cumsum(counts) - counts)[node_of[hit]], reps)]
        prow = np.repeat(prow, reps)
        pd2 = np.repeat(d2[hit], reps)
        keep = ((pd2 <= own_r2[prow]) | (pd2 <= k_r2[k])) & (kcodes[k] != arr[prow])
        # One sort of (row, edge) keys dedupes and orders every row.
        key = sorted_unique(prow[keep] * len(kcodes) + k[keep])
        bounds = np.searchsorted(key, np.arange(nrows + 1) * len(kcodes)).tolist()
        hits = kcodes[key % len(kcodes)].tolist()
        return rad2_list, [hits[bounds[i] : bounds[i + 1]] for i in range(nrows)]

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
        bounds; reading row sizes straight off the maintained sets skips
        the O(nnz) CSR materialization (nnz is ~10⁷ at n=10⁴).
        """
        return self.degrees_of(self.edge_codes())

    def degrees_of(self, codes: np.ndarray) -> np.ndarray:
        """``|I(e)|`` for the given packed edge codes (tracked edges only)."""
        self._check_synced()
        rows = self._rows
        return np.fromiter(
            map(len, map(rows.__getitem__, codes.tolist())), dtype=np.int64, count=len(codes)
        )

    def interference_sets(self) -> InterferenceSets:
        """The maintained conflict structure as a CSR ``InterferenceSets``.

        Rows align with ``IncrementalTheta.edge_array()`` (sorted
        undirected global-id edges).  Materialization is cached until
        the next :meth:`update`; a topology that advanced without a
        matching update raises instead of serving stale rows.
        """
        self._check_synced()
        if self._csr is None:
            rows = self._rows
            codes = sorted(rows)
            keys = np.fromiter(codes, dtype=np.int64, count=len(codes))
            self._csr = InterferenceSets.from_rows(keys, [rows[c] for c in codes])
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
            codes = (edges[:, 0].astype(np.int64) << 32) | edges[:, 1]
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

    def success_mask(self, transmissions) -> np.ndarray:
        """Resolve guard-zone interference among the attempts.

        Same semantics as ``RandomActivationMAC.success_mask``, evaluated
        on the *live* maintained positions (global-id space).
        """
        k = len(transmissions)
        if k == 0:
            return np.ones(0, dtype=bool)
        with trace.span("mac.resolve", attempts=k) as sp:
            und = np.asarray(
                [(min(t.src, t.dst), max(t.src, t.dst)) for t in transmissions], dtype=np.intp
            )
            uniq, inverse = np.unique(und, axis=0, return_inverse=True)
            mat = self._model.interference_matrix(self.inc.all_positions(), uniq)
            if mat.size:
                edge_ok = ~mat.any(axis=1)
            else:
                edge_ok = np.ones(len(uniq), dtype=bool)
            ok = edge_ok[inverse]
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
