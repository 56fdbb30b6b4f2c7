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

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.primitives import TWO_PI, as_points
from repro.geometry.sectors import SectorPartition
from repro.graphs.base import GeometricGraph
from repro.interference.model import interference_radius
from repro.sim.packets import Transmission

__all__ = [
    "all_pairs_within_reference",
    "balancing_decide_reference",
    "halo_catchup_reference",
    "interference_sets_reference",
    "max_edge_stretch_reference",
    "theta_edges_reference",
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


def balancing_decide_reference(
    heights: np.ndarray,
    destinations: np.ndarray,
    threshold: float,
    gamma: float,
    directed_edges: np.ndarray,
    costs: np.ndarray,
) -> list[Transmission]:
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

    out: list[Transmission] = []
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
        out.append(
            Transmission(src=v, dst=w, dest=int(destinations[col]), cost=float(costs[k]))
        )
    return out


def _anchors_near(a: np.ndarray, b: np.ndarray, r: float) -> bool:
    """Whether any point of ``a`` is within ``r`` of a point of ``b``."""
    for p in a:
        for q in b:
            dx = float(p[0]) - float(q[0])
            dy = float(p[1]) - float(q[1])
            if dx * dx + dy * dy <= r * r:
                return True
    return False


def halo_catchup_reference(
    backlog: list,
    pending: list,
    need_anchors: "np.ndarray | None",
    radius: float,
) -> "tuple[list, list]":
    """Linear-scan catch-up selection of ``TileWorkerPool._drain``.

    Entries are tuples whose first two fields are ``(seq, anchors)``;
    ``backlog`` is ordered by ``seq``.  Seeds are the backlog entries
    within ``radius`` of ``need_anchors``; one descending pass then adds
    every backlog entry within ``radius`` of a pending entry, a seed, or
    a later entry already added.  Returns ``(delivered, kept)``: the
    selected entries plus ``pending`` in ``seq`` order, and the rest of
    the backlog.  (The ``max_backlog`` flush is not part of it.)
    """
    n = len(backlog)
    need = [False] * n
    if need_anchors is not None and len(need_anchors):
        for i, entry in enumerate(backlog):
            need[i] = _anchors_near(entry[1], need_anchors, radius)
    sel_anchors = [e[1] for e in pending] + [backlog[i][1] for i in range(n) if need[i]]
    for i in range(n - 1, -1, -1):
        if need[i]:
            continue
        anch = backlog[i][1]
        if any(_anchors_near(anch, s, radius) for s in sel_anchors):
            need[i] = True
            sel_anchors.append(anch)
    selected = [backlog[i] for i in range(n) if need[i]]
    kept = [backlog[i] for i in range(n) if not need[i]]
    return sorted(selected + list(pending), key=lambda e: e[0]), kept
