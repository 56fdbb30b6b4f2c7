"""Retained naive reference implementations of the vectorized kernels.

Every hot-path kernel that was rewritten with batched/array operations
keeps its original straightforward implementation here, verbatim in
spirit: explicit Python loops over numpy data, one query at a time.
The golden-equivalence suite (``tests/test_kernel_equivalence.py``)
pins each vectorized kernel edge-for-edge against these, and the
property tests reuse them as oracles.  They are *not* exported through
the public API and are never on a hot path.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from repro.dynamic.incremental import IncrementalTheta, RepairStats
from repro.dynamic.interference import ConflictRepairStats
from repro.geometry.primitives import TWO_PI, as_points
from repro.geometry.sectors import SectorPartition
from repro.graphs.base import GeometricGraph
from repro.interference.conflict import interference_sets
from repro.interference.model import InterferenceModel, interference_radius
from repro.obs import trace
from repro.utils.arrays import run_starts, sorted_unique

_MASK = (1 << 32) - 1

__all__ = [
    "all_pairs_within_reference",
    "admissions_reference",
    "ConflictRowsReference",
    "IncrementalThetaReference",
    "ReferenceStepRouter",
    "anycast_apply_reference",
    "anycast_decide_reference",
    "balancing_apply_reference",
    "balancing_decide_reference",
    "honeycomb_step_reference",
    "mac_resolve_reference",
    "query_radius_reference",
    "records_of",
    "conflict_row_reference",
    "edge_rad2_reference",
    "interference_sets_reference",
    "max_edge_stretch_reference",
    "theta_edges_reference",
    "yao_choices_reference",
    "yao_out_edges_reference",
]


def all_pairs_within_reference(points: np.ndarray, radius: float) -> np.ndarray:
    """All index pairs ``(i, j), i < j`` with distance ≤ radius, O(n²) scan.

    Uses the same inclusive epsilon as ``GridIndex.all_pairs_within``.
    """
    pts = as_points(points)
    n = len(pts)
    pairs: list[tuple[int, int]] = []
    r2 = radius * radius + 1e-12
    for i in range(n):
        for j in range(i + 1, n):
            d = pts[j] - pts[i]
            if d[0] * d[0] + d[1] * d[1] <= r2:
                pairs.append((i, j))
    if not pairs:
        return np.empty((0, 2), dtype=np.intp)
    return np.asarray(pairs, dtype=np.intp)


def yao_out_edges_reference(
    points: np.ndarray,
    theta: float,
    max_range: float,
    *,
    offset: float = 0.0,
) -> np.ndarray:
    """Per-node loop Yao phase 1 (the pre-vectorization implementation)."""
    pts = as_points(points)
    part = SectorPartition(theta, offset)
    n = len(pts)
    if n < 2:
        return np.empty((0, 2), dtype=np.intp)
    out: list[tuple[int, int]] = []
    r2 = max_range * max_range + 1e-12
    for u in range(n):
        d_all = pts - pts[u]
        dist2 = d_all[:, 0] ** 2 + d_all[:, 1] ** 2
        cand = np.nonzero(dist2 <= r2)[0]
        cand = cand[cand != u]
        if len(cand) == 0:
            continue
        d = pts[cand] - pts[u]
        dist = np.hypot(d[:, 0], d[:, 1])
        ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), TWO_PI)
        sec = part.index_of_angle(ang)
        order = np.lexsort((cand, dist, sec))
        sec_sorted = sec[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = sec_sorted[1:] != sec_sorted[:-1]
        for k in order[first]:
            out.append((u, int(cand[k])))
    if not out:
        return np.empty((0, 2), dtype=np.intp)
    return np.asarray(out, dtype=np.intp)


def theta_edges_reference(
    points: np.ndarray,
    theta: float,
    max_range: float,
    *,
    offset: float = 0.0,
) -> "tuple[dict[tuple[int, int], int], dict[tuple[int, int], int], list[tuple[int, int]]]":
    """Dict-building ΘALG phases 1–2 (the pre-vectorization implementation).

    Returns ``(yao_nearest, admitted, kept_edges)`` exactly as the old
    ``theta_algorithm`` inner loops produced them.
    """
    pts = as_points(points)
    part = SectorPartition(theta, offset)
    directed = yao_out_edges_reference(pts, theta, max_range, offset=offset)

    yao_nearest: dict[tuple[int, int], int] = {}
    if len(directed):
        d = pts[directed[:, 1]] - pts[directed[:, 0]]
        ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), TWO_PI)
        sec = np.atleast_1d(part.index_of_angle(ang))
        for (u, v), s in zip(directed, sec):
            yao_nearest[(int(u), int(s))] = int(v)

    admitted: dict[tuple[int, int], int] = {}
    if len(directed):
        src, dst = directed[:, 0], directed[:, 1]
        d = pts[src] - pts[dst]
        ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), TWO_PI)
        sec_in = np.atleast_1d(part.index_of_angle(ang))
        dist = np.hypot(d[:, 0], d[:, 1])
        order = np.lexsort((src, dist, sec_in, dst))
        prev_key: "tuple[int, int] | None" = None
        for k in order:
            key = (int(dst[k]), int(sec_in[k]))
            if key != prev_key:
                admitted[key] = int(src[k])
                prev_key = key

    kept_edges = [(w, x) for (x, _), w in admitted.items()]
    return yao_nearest, admitted, kept_edges


def interference_sets_reference(graph: GeometricGraph, delta: float) -> list[np.ndarray]:
    """Per-edge KD-tree loop I(e) (the pre-vectorization implementation)."""
    pts = graph.points
    edges = graph.edges
    m = len(edges)
    if m == 0:
        return []
    tree = cKDTree(pts)
    incident: list[list[int]] = [[] for _ in range(graph.n_nodes)]
    for k, (i, j) in enumerate(edges):
        incident[i].append(k)
        incident[j].append(k)

    radii = interference_radius(graph.edge_lengths, delta)
    sets: list[set[int]] = [set() for _ in range(m)]
    for k in range(m):
        i, j = edges[k]
        r = radii[k]
        # Open-disk semantics: shrink the inclusive KD-tree radius by an
        # epsilon relative to r so boundary points are excluded.
        rq = r * (1.0 - 1e-12)
        victims: set[int] = set()
        for node in tree.query_ball_point(pts[i], rq) + tree.query_ball_point(pts[j], rq):
            victims.update(incident[node])
        victims.discard(k)
        for v in victims:
            sets[k].add(v)
            sets[v].add(k)
    return [np.asarray(sorted(s), dtype=np.intp) for s in sets]


def max_edge_stretch_reference(
    d_sub: np.ndarray,
    sources: np.ndarray,
    ref: GeometricGraph,
    edge_weights: np.ndarray,
) -> float:
    """Per-edge Python loop over reference edges (Theorem 2.2 reduction)."""
    max_edge_stretch = 1.0
    if ref.n_edges:
        src_pos = {int(s): k for k, s in enumerate(sources)}
        for (u, v), w in zip(ref.edges, edge_weights):
            row = src_pos.get(int(u))
            if row is None:
                row = src_pos.get(int(v))
                if row is None:
                    continue
                target = int(u)
            else:
                target = int(v)
            dsub = d_sub[row, target]
            if np.isfinite(dsub) and w > 0:
                max_edge_stretch = max(max_edge_stretch, float(dsub / w))
    return max_edge_stretch


# ---------------------------------------------------------------------------
# The per-record routing step (pre-batch)
#
# Before transmissions became one struct-of-arrays batch, each step built
# one record per attempt.  A record here is the plain tuple
# ``(src, dst, dest, cost)``; for anycast ``dest`` is the group index.
# ---------------------------------------------------------------------------


def records_of(batch) -> "list[tuple[int, int, int, float]]":
    """A :class:`~repro.sim.packets.TxBatch` as per-attempt records."""
    return list(
        zip(batch.src.tolist(), batch.dst.tolist(), batch.dest.tolist(), batch.cost.tolist())
    )


def balancing_decide_reference(
    heights: np.ndarray,
    destinations: np.ndarray,
    threshold: float,
    gamma: float,
    directed_edges: np.ndarray,
    costs: np.ndarray,
) -> "list[tuple[int, int, int, float]]":
    """Per-candidate loop of ``BalancingRouter.decide`` (pre-vectorization).

    ``heights`` is the ``(n_nodes, n_destinations)`` buffer matrix at
    the beginning of the step; it is not modified.
    """
    edges = np.asarray(directed_edges, dtype=np.intp).reshape(-1, 2)
    costs = np.asarray(costs, dtype=np.float64).reshape(-1)
    if len(edges) == 0:
        return []
    h0 = heights
    avail = h0.copy()

    diff = h0[edges[:, 0], :] - h0[edges[:, 1], :] - gamma * costs[:, None]
    best_col = np.argmax(diff, axis=1)
    best_val = diff[np.arange(len(edges)), best_col]
    candidates = np.nonzero(best_val > threshold)[0]

    out: "list[tuple[int, int, int, float]]" = []
    for k in candidates:
        v, w = int(edges[k, 0]), int(edges[k, 1])
        row = h0[v, :] - h0[w, :] - gamma * costs[k]
        usable = avail[v, :] > 0
        if not usable.any():
            continue
        masked = np.where(usable, row, -np.inf)
        col = int(np.argmax(masked))
        if masked[col] <= threshold:
            continue
        avail[v, col] -= 1
        out.append((v, w, int(destinations[col]), float(costs[k])))
    return out


def balancing_apply_reference(router, records, success=None) -> int:
    """Per-record ``BalancingRouter.apply``: commit one record at a time.

    Accounting goes through ``RoutingStats.record_attempts`` as in the
    router, so energy sums round the same way.  Each send is checked
    against the buffer's step-start height, the router's invariant.
    """
    k = len(records)
    success = (
        np.ones(k, dtype=bool) if success is None else np.asarray(success, dtype=bool).reshape(-1)
    )
    if len(success) != k:
        raise ValueError("success mask length mismatch")
    if k == 0:
        return 0
    cost = np.fromiter((rec[3] for rec in records), dtype=np.float64, count=k)
    cols = []
    for rec in records:
        if rec[2] not in router._dest_col:
            raise KeyError(f"{rec[2]} is not a registered destination")
        cols.append(router._dest_col[rec[2]])
    router.stats.record_attempts(cost, success)
    h = router.heights
    h0 = h.copy()
    sent: "dict[tuple[int, int], int]" = {}
    delivered = 0
    for (src, dst, dest, _), col, ok in zip(records, cols, success.tolist()):
        if not ok:
            continue
        sent[src, col] = sent.get((src, col), 0) + 1
        if sent[src, col] > h0[src, col]:
            raise RuntimeError(
                f"balancing invariant violated: sending from empty buffer Q_({src},{dest})"
            )
        h[src, col] -= 1
        if dst == dest:
            delivered += 1
        else:
            h[dst, col] += 1
    if delivered:
        router.stats.record_delivery(delivered)
    return delivered


def mac_resolve_reference(points: np.ndarray, delta: float, records) -> np.ndarray:
    """Per-transmission §3.3 resolve: an O(k²) scan of attempt pairs.

    Attempt i fails iff the guard region of another attempt on a
    *different* undirected edge contains an endpoint of attempt i's
    edge; the two directions of one edge never kill each other.
    """
    model = InterferenceModel(delta)
    pts = np.asarray(points, dtype=np.float64)
    und = [(min(r[0], r[1]), max(r[0], r[1])) for r in records]
    ok = np.ones(len(records), dtype=bool)
    for i, ei in enumerate(und):
        for ej in und:
            if ej != ei and model.region_contains(pts, ej, pts[list(ei)]).any():
                ok[i] = False
                break
    return ok


def anycast_decide_reference(router, directed_edges, costs) -> "list[tuple[int, int, int, float]]":
    """``AnycastBalancingRouter.decide`` building one record per attempt."""
    edges = np.asarray(directed_edges, dtype=np.intp).reshape(-1, 2)
    costs = np.asarray(costs, dtype=np.float64).reshape(-1)
    if len(edges) == 0:
        return []
    cfg = router.config
    h0 = router.heights
    avail = h0.copy()
    out: "list[tuple[int, int, int, float]]" = []
    diff = h0[edges[:, 0], :] - h0[edges[:, 1], :] - cfg.gamma * costs[:, None]
    best_val = diff.max(axis=1)
    for k in np.nonzero(best_val > cfg.threshold)[0]:
        v, w = int(edges[k, 0]), int(edges[k, 1])
        row = h0[v, :] - h0[w, :] - cfg.gamma * costs[k]
        usable = avail[v, :] > 0
        if not usable.any():
            continue
        masked = np.where(usable, row, -np.inf)
        g = int(np.argmax(masked))
        if masked[g] <= cfg.threshold:
            continue
        avail[v, g] -= 1
        out.append((v, w, g, float(costs[k])))
    return out


def anycast_apply_reference(router, records, success=None) -> int:
    """``AnycastBalancingRouter.apply`` committing one record at a time."""
    if success is None:
        success = np.ones(len(records), dtype=bool)
    success = np.asarray(success, dtype=bool).reshape(-1)
    if len(success) != len(records):
        raise ValueError("success mask length mismatch")
    delivered = 0
    for (src, dst, g, cost), ok in zip(records, success):
        router.stats.record_attempt(cost, bool(ok))
        if not ok:
            continue
        if router.heights[src, g] <= 0:
            raise RuntimeError("anycast invariant violated: empty buffer send")
        router.heights[src, g] -= 1
        if router.member[dst, g]:
            delivered += 1
            router.stats.record_delivery()
        else:
            router.heights[dst, g] += 1
    return delivered


class ReferenceStepRouter:
    """An engine-drivable twin that steps a router the per-record way.

    Wraps a production :class:`~repro.core.balancing.BalancingRouter`,
    :class:`~repro.core.anycast.AnycastBalancingRouter` or
    :class:`~repro.sim.tracking.TrackedBalancingRouter` and replaces
    only :meth:`run_step` with the reference decide / resolve / apply;
    ``success_fn`` receives the record list.  Every other attribute
    (stats, heights, injection, buffer drops under churn) is the wrapped
    router's.
    """

    def __init__(self, router) -> None:
        self.router = router

    def __getattr__(self, name):
        return getattr(self.router, name)

    def run_step(self, directed_edges, costs, injections=None, success_fn=None) -> int:
        from repro.core.anycast import AnycastBalancingRouter
        from repro.sim.tracking import TrackedBalancingRouter

        r = self.router
        inner = r.router if isinstance(r, TrackedBalancingRouter) else r
        if isinstance(r, AnycastBalancingRouter):
            records = anycast_decide_reference(r, directed_edges, costs)
        else:
            cfg = inner.config
            records = balancing_decide_reference(
                inner.heights, inner.destinations, cfg.threshold, cfg.gamma,
                directed_edges, costs,
            )
        mask = None if success_fn is None else np.asarray(success_fn(records), dtype=bool)
        if isinstance(r, AnycastBalancingRouter):
            delivered = anycast_apply_reference(r, records, mask)
            for node, group, count in injections or []:
                r.inject(node, group, count)
            r.stats.end_step(r.max_height(), delivered)
            return delivered
        delivered = balancing_apply_reference(inner, records, mask)
        if isinstance(r, TrackedBalancingRouter):
            return _tracked_finish(r, records, mask, injections, delivered)
        for node, dest, count in injections or []:
            inner.inject(node, dest, count)
        inner.end_step(delivered)
        return delivered


def _tracked_finish(tracked, records, mask, injections, delivered) -> int:
    """``TrackedBalancingRouter.run_step`` after apply, one record at a time."""
    if mask is None:
        mask = np.ones(len(records), dtype=bool)
    for (src, dst, dest, _), ok in zip(records, mask):
        if not ok:
            continue
        col = tracked._col(dest)
        bucket = tracked._stamps[src][col]
        if not bucket:
            raise AssertionError(f"tracking drift at buffer ({src}, dest {dest})")
        stamp = bucket.popleft()
        if dst == dest:
            tracked.delays.append(tracked._clock - stamp)
        else:
            tracked._stamps[dst][col].append(stamp)
    for node, dest, count in injections or []:
        accepted = tracked.router.inject(node, dest, count)
        col = tracked._col(dest)
        for _ in range(accepted):
            tracked._stamps[node][col].append(tracked._clock)
    tracked.router.end_step(delivered)
    tracked._clock += 1
    tracked._check_consistency()
    return delivered


def honeycomb_step_reference(hc, injections=None) -> int:
    """``HoneycombRouter.step`` with the per-record decide and apply."""
    contestants = hc.select_contestants()
    if len(contestants):
        coins = hc.rng.random(len(contestants)) < hc.config.p_transmit
        chosen = contestants[coins]
    else:
        chosen = contestants
    records: "list[tuple[int, int, int, float]]" = []
    router = hc.router
    if len(chosen):
        edges = hc.directed_pairs[chosen]
        costs = np.full(len(edges), hc.config.unit_cost)
        cfg = router.config
        records = balancing_decide_reference(
            router.heights, router.destinations, cfg.threshold, cfg.gamma, edges, costs
        )
    if records:
        pairs = np.asarray([(rec[0], rec[1]) for rec in records], dtype=np.intp)
        mask = hc.independent_success_mask(pairs)
    else:
        mask = np.ones(0, dtype=bool)
    delivered = balancing_apply_reference(router, records, mask)
    for node, dest, count in injections or []:
        router.inject(node, dest, count)
    router.end_step(delivered)
    return delivered


def query_radius_reference(index, center, radius: float, *, exclude: "int | None" = None) -> np.ndarray:
    """``DynamicGridIndex.query_radius`` by a scan of every live node.

    The index's rule without its sorted cell arrays: a live node is a
    hit when its cell ``floor(p / cell)`` lies within ``ceil(radius /
    cell)`` cells of the center's on both axes and ``d² ≤ r² + 1e-12``
    (the index's expression, so boundary hits agree bit for bit).
    Sorted ids, ``exclude`` omitted.  The oracle of the cell-sorted
    index's queries.
    """
    ids = index.alive_ids()
    center = np.asarray(center, dtype=np.float64).reshape(2)
    pos = index.positions_of(ids)
    block = np.abs(np.floor(pos / index.cell) - np.floor(center / index.cell)).max(axis=1)
    d = pos - center
    hit = (block <= np.ceil(radius / index.cell)) & (d[:, 0] ** 2 + d[:, 1] ** 2 <= radius * radius + 1e-12)
    out = ids[hit]
    if exclude is not None:
        out = out[out != exclude]
    return out.astype(np.intp)


def yao_choices_reference(inc, u: int) -> "dict[int, int]":
    """Per-node phase 1 of ``IncrementalTheta`` (the pre-batching repair).

    ``{sector → target}`` for node ``u`` of the maintainer ``inc``: the
    nearest in-range neighbor per cone (candidates from
    :func:`query_radius_reference`), ties broken by (distance, target
    id).  ``{}`` for a dead node.
    """
    index = inc._index
    if not index.is_alive(u):
        return {}
    pu = index.position(u)
    nbrs = query_radius_reference(index, pu, inc.max_range, exclude=u)
    if len(nbrs) == 0:
        return {}
    d = index.positions_of(nbrs) - pu
    dist = np.hypot(d[:, 0], d[:, 1])
    ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), TWO_PI)
    sec = np.atleast_1d(inc._part.index_of_angle(ang))
    order = np.lexsort((nbrs, dist, sec))
    sel = order[run_starts(sec[order])]
    return dict(zip(sec[sel].tolist(), nbrs[sel].tolist()))


def admissions_reference(inc, x: int) -> "dict[int, int]":
    """Per-receiver phase 2 of ``IncrementalTheta`` (pre-batching).

    ``{sector → admitted source}`` for receiver ``x`` from its current
    in-set ``inc.in_neighbors(x)``: in-neighbors grouped by the cone of
    ``x`` containing them, the (distance, source id) minimum admitted
    per cone.  Pure: the maintainer is not modified.
    """
    sources = inc.in_neighbors(x)
    if not len(sources):
        return {}
    index = inc._index
    src = np.asarray(sources, dtype=np.intp)
    px = index.position(x)
    d = index.positions_of(src) - px
    ang = np.mod(np.arctan2(d[:, 1], d[:, 0]), TWO_PI)
    sec_in = np.atleast_1d(inc._part.index_of_angle(ang))
    dist = np.hypot(d[:, 0], d[:, 1])
    order = np.lexsort((src, dist, sec_in))
    sel = order[run_starts(sec_in[order])]
    return dict(zip(sec_in[sel].tolist(), src[sel].tolist()))


def edge_rad2_reference(dyn, code: int) -> float:
    """Squared shrunk guard radius of one packed edge of ``DynamicInterference``."""
    pab = dyn._index.positions_of(np.array([code >> 32, code & 0xFFFFFFFF], dtype=np.intp))
    length = np.hypot(pab[0, 0] - pab[1, 0], pab[0, 1] - pab[1, 1])
    r = float(interference_radius(length, dyn.delta) * (1.0 - 1e-12))
    return r * r


def conflict_row_reference(dyn, code: int) -> "set[int]":
    """Per-row conflict recompute of ``DynamicInterference`` (pre-batching).

    I(code) from current geometry, the maintained ``_incident`` map and
    the radii ``_rad2_of`` reads: one :func:`query_radius_reference` per
    endpoint at the shared maximum guard reach, then per candidate node ``u`` at squared
    distance ``d2`` from an endpoint, every edge ``k`` at ``u`` with
    ``d2 ≤ r²(code)`` or ``d2 ≤ r²(k)``; ``code`` itself excluded.
    """
    index = dyn._index
    pab = index.positions_of(np.array([code >> 32, code & 0xFFFFFFFF], dtype=np.intp))
    r2_own = float(dyn._rad2_of(np.array([code], dtype=np.int64))[0])
    incident = dyn._incident
    row: "set[int]" = set()
    for p in pab:
        cand = query_radius_reference(index, p, dyn._r_in)
        if len(cand) == 0:
            continue
        d = index.positions_of(cand) - p
        d2s = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        for u, d2 in zip(cand.tolist(), d2s.tolist()):
            edges_u = incident.get(u)
            if not edges_u:
                continue
            if d2 <= r2_own:
                row.update(edges_u)
            else:
                ks = sorted(edges_u)
                rad2 = dyn._rad2_of(np.array(ks, dtype=np.int64)).tolist()
                for k, r2 in zip(ks, rad2):
                    if k not in row and d2 <= r2:
                        row.add(k)
    row.discard(code)
    return row


class ConflictRowsReference:
    """The dict-of-sets conflict-row maintainer (pre-array store).

    ``DynamicInterference`` before its rows moved into a sorted
    slot-pair array: ``_rows`` maps each edge code to the set of codes
    of I(e), ``_incident`` each node to its edge codes, ``_rad2`` each
    code to its squared shrunk guard radius.  :meth:`update_groups`
    repairs the groups one after another, each as the per-event
    maintainer did — retract the removed edges' rows, register the
    added edges, recompute every rebuilt row with
    :func:`conflict_row_reference`, and splice the rows in code order,
    mirroring every changed entry into the neighbor's row.  Stats (bar
    ``wall_time``, which is 0) and row diffs come out in the array
    store's format, so a differential test compares them directly.
    """

    def __init__(self, incremental, delta: float) -> None:
        self.inc = incremental
        self.delta = float(delta)
        self._index = incremental._index
        D = float(incremental.max_range)
        self._r_in = (1.0 + self.delta) * float(np.sqrt(D * D + 1e-12))
        graph = incremental.snapshot_graph()
        sets = interference_sets(graph, self.delta)
        edges = graph.edges
        codes = ((edges[:, 0].astype(np.int64) << 32) | edges[:, 1].astype(np.int64)).tolist()
        self._rows: "dict[int, set[int]]" = {}
        self._incident: "dict[int, set[int]]" = {}
        self._rad2: "dict[int, float]" = {}
        lengths = graph.edge_lengths
        for k, code in enumerate(codes):
            self._rows[code] = {codes[j] for j in sets[k].tolist()}
            r = float(interference_radius(lengths[k], self.delta) * (1.0 - 1e-12))
            self._rad2[code] = r * r
        for (lo, hi), code in zip(edges.tolist(), codes):
            self._incident.setdefault(lo, set()).add(code)
            self._incident.setdefault(hi, set()).add(code)

    def _rad2_of(self, codes) -> np.ndarray:
        return np.array([self._rad2[int(c)] for c in codes], dtype=np.float64)

    def rows(self) -> "dict[int, list[int]]":
        """Every row as a sorted code list, keyed by edge code."""
        return {c: sorted(row) for c, row in self._rows.items()}

    def update_groups(self, items, *, collect_diff: bool = False) -> list:
        return [self._update(*item, collect_diff=collect_diff) for item in items]

    def _update(self, added, removed, moved_nodes, *, collect_diff: bool):
        removed_codes = sorted((int(lo) << 32) | int(hi) for lo, hi in removed)
        added_codes = sorted((int(lo) << 32) | int(hi) for lo, hi in added)
        gained: "set[tuple[int, int]]" = set()
        lost: "set[tuple[int, int]]" = set()
        entries = self._retract(removed_codes, lost)
        for c in added_codes:
            self._incident.setdefault(c >> 32, set()).add(c)
            self._incident.setdefault(c & 0xFFFFFFFF, set()).add(c)
        recompute = set(added_codes)
        for nd in moved_nodes:
            recompute.update(self._incident.get(int(nd), ()))
        codes = sorted(recompute)
        for c in codes:
            self._rad2[c] = edge_rad2_reference(self, c)
        new_rows = [conflict_row_reference(self, c) for c in codes]
        for c, row in zip(codes, new_rows):
            entries += self._splice_row(c, row, gained, lost)
        stats = ConflictRepairStats(
            rows_recomputed=len(codes),
            entries_changed=entries,
            edges_added=len(added_codes),
            edges_removed=len(removed_codes),
            wall_time=0.0,
        )
        if not collect_diff:
            return stats

        def pairs(found):
            return np.array(sorted(found), dtype=np.int64).reshape(-1, 2)

        return stats, {
            "removed": np.array(removed_codes, dtype=np.int64),
            "added": np.array(added_codes, dtype=np.int64),
            "codes": np.array(codes, dtype=np.int64),
            "rad2": self._rad2_of(codes),
            "gained": pairs(gained),
            "lost": pairs(lost),
        }

    def _retract(self, removed_codes: "list[int]", lost: set) -> int:
        """Drop removed edges' rows and their membership in neighbors' rows."""
        rows = self._rows
        entries = 0
        for c in removed_codes:
            row = rows.pop(c, None)
            self._rad2.pop(c, None)
            for nd in (c >> 32, c & 0xFFFFFFFF):
                s = self._incident.get(nd)
                if s is not None:
                    s.discard(c)
                    if not s:
                        del self._incident[nd]
            if row:
                entries += 2 * len(row)
                for nb in row:
                    nb_row = rows.get(nb)
                    if nb_row is not None:
                        nb_row.discard(c)
                    lost.add((min(c, nb), max(c, nb)))
        return entries

    def _splice_row(self, c: int, new_row: "set[int]", gained: set, lost: set) -> int:
        """Install ``new_row`` as I(c), mirroring each change into the
        neighbor rows; returns entries changed (both sides)."""
        rows = self._rows
        entries = 0
        old_row = rows.get(c, frozenset())
        for nb in old_row - new_row:
            nb_row = rows.get(nb)
            if nb_row is not None:
                nb_row.discard(c)
            lost.add((min(c, nb), max(c, nb)))
            entries += 2
        for nb in new_row - old_row:
            nb_row = rows.get(nb)
            if nb_row is not None:
                nb_row.add(c)
            gained.add((min(c, nb), max(c, nb)))
            entries += 2
        rows[c] = new_row
        return entries


class IncrementalThetaReference(IncrementalTheta):
    """The dict-of-dicts ΘALG maintainer (pre-array state): the oracle.

    ``IncrementalTheta`` before its state moved into tables: ``_out[u]``
    maps each cone of ``u`` to its Yao choice, ``_in[x]`` is the set of
    sources choosing ``x``, ``_admit[x]`` maps each cone of receiver
    ``x`` to its admitted source, and ``_edge_dirs`` counts surviving
    directions per packed edge code.  Its :meth:`_repair_groups`
    recomputes *every* cone of every dirty node with the per-node
    kernels and applies transitions one node and one cone at a time, so
    a differential test can hold the cone-local array repair to its
    choices, admissions, in-sets, edges and :class:`RepairStats`.
    Index mutations (``_mutate``) and the update-radius pass are shared.
    """

    def _seed(self, topo) -> None:
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

    def in_neighbors(self, x: int) -> np.ndarray:
        return np.array(sorted(self._in.get(x, ())), dtype=np.int64)

    def edge_set(self) -> "set[tuple[int, int]]":
        return {(c >> 32, c & _MASK) for c in self._edge_dirs}

    def edge_codes(self) -> np.ndarray:
        return np.sort(np.fromiter(self._edge_dirs, dtype=np.int64, count=len(self._edge_dirs)))

    def edge_array(self) -> np.ndarray:
        codes = self.edge_codes()
        return np.column_stack([codes >> 32, codes & _MASK]).astype(np.intp)

    def _repair_groups(
        self,
        groups: "list[list[tuple[str, int, list[np.ndarray]]]]",
        *,
        collect_diff: bool = False,
    ) -> list:
        """The dict repair of ``IncrementalTheta`` before array state.

        Every group's dirty nodes recompute every cone with
        :func:`yao_choices_reference`, receivers re-prune with
        :func:`admissions_reference`, and transitions apply node by node
        in sorted order, each group with its own changelog and diff
        (``{"out": {u: choices | None}, "admit": {x: admissions | None},
        "dead": [...]}``).
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
            found = [query_radius_reference(idx, p, self.max_range) for p in apos]
            hits = np.concatenate([np.empty(0, dtype=np.intp), *found]).astype(np.int64)
            hit_group = np.repeat(anchor_group << 32, [len(f) for f in found])
            dirty_keys = sorted_unique(
                np.concatenate([hit_group | hits, np.asarray(alive_keys, dtype=np.int64)])
            )
            dirty_nodes = dirty_keys & _MASK
            dirty_all = dirty_nodes.tolist()
            dirty_at = np.searchsorted(dirty_keys, group_lo).tolist()
            choices = {u: c for u in dirty_all if (c := yao_choices_reference(self, u))}

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
            admissions = {x: a for x in live_rec if (a := admissions_reference(self, x))}
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
        """Replay a dict diff of :meth:`_repair_groups` on an in-sync replica."""
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
