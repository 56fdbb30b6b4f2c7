"""Greedy geographic routing — the §1.2 geometric-routing baseline.

The related work cites GPSR (Karp-Kung [30]) and other protocols "that
exploit the underlying geometry of the network".  The greedy mode of
those protocols forwards each packet to the neighbor geographically
closest to the destination; it is stateless and local, but strands
packets at *local minima* — nodes with no neighbor closer to the
destination.  (Full GPSR escapes minima by perimeter routing on a
planar subgraph; the greedy mode alone is the standard baseline and the
reason planar structures like the Gabriel graph matter in this
literature.)

The router exposes the same step interface as the other routers plus a
``local_minimum_drops`` counter, so experiments can compare greedy
deliverability across topologies (ΘALG vs Gabriel vs G*) — sparser
graphs have more minima.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graphs.base import GeometricGraph
from repro.sim.baseline_routers import resolve_attempts
from repro.sim.stats import RoutingStats

__all__ = ["GreedyGeographicRouter", "greedy_geographic_path"]


def greedy_geographic_path(
    graph: GeometricGraph,
    src: int,
    dst: int,
    *,
    max_hops: int | None = None,
) -> "tuple[list[int], bool]":
    """Offline greedy-forwarding trace from ``src`` toward ``dst``.

    Returns ``(node_path, delivered)``; the path ends either at ``dst``
    or at the local minimum where greedy forwarding gets stuck.  Greedy
    progress is strict (the chosen neighbor must be closer to ``dst``
    than the current node), which also guarantees termination.
    """
    pts = graph.points
    if max_hops is None:
        max_hops = graph.n_nodes + 1
    path = [int(src)]
    cur = int(src)
    for _ in range(max_hops):
        if cur == dst:
            return path, True
        here = float(np.hypot(*(pts[cur] - pts[dst])))
        nbrs = graph.neighbors(cur)
        if len(nbrs) == 0:
            return path, False
        d = pts[nbrs] - pts[dst]
        dist = np.hypot(d[:, 0], d[:, 1])
        k = int(np.argmin(dist))
        if dist[k] >= here - 1e-15:
            return path, False  # local minimum
        cur = int(nbrs[k])
        path.append(cur)
    return path, path[-1] == dst


class GreedyGeographicRouter:
    """Stateless greedy geographic forwarding with FIFO queues.

    Per step, for each usable directed edge (v, w): if w is v's best
    greedy next hop for some packet buffered at the start of the step
    (strictly closer to that packet's destination than v), attempt to
    forward one such packet; a MAC's ``success_fn`` decides which
    attempts go through.  Packets at
    a local minimum are dropped immediately and counted — greedy mode
    has no recovery, which is the measured phenomenon.
    """

    def __init__(self, graph: GeometricGraph, *, max_queue: int = 10_000) -> None:
        self.graph = graph
        self.max_queue = int(max_queue)
        self.queues: list[deque[int]] = [deque() for _ in range(graph.n_nodes)]
        self.stats = RoutingStats()
        self.local_minimum_drops = 0

    # ------------------------------------------------------------------
    def _greedy_next(self, node: int, dest: int) -> "int | None":
        pts = self.graph.points
        here = float(np.hypot(*(pts[node] - pts[dest])))
        nbrs = self.graph.neighbors(node)
        if len(nbrs) == 0:
            return None
        d = pts[nbrs] - pts[dest]
        dist = np.hypot(d[:, 0], d[:, 1])
        k = int(np.argmin(dist))
        if dist[k] >= here - 1e-15:
            return None
        return int(nbrs[k])

    def inject(self, node: int, dest: int, count: int = 1) -> int:
        """Enqueue packets; ones already at a local minimum are dropped."""
        accepted = 0
        for _ in range(int(count)):
            if len(self.queues[node]) >= self.max_queue:
                break
            if node != dest and self._greedy_next(node, dest) is None:
                self.local_minimum_drops += 1
                continue
            self.queues[node].append(int(dest))
            accepted += 1
        self.stats.record_injection(int(count), accepted)
        return accepted

    def total_packets(self) -> int:
        return sum(len(q) for q in self.queues)

    def run_step(self, directed_edges, costs, injections=None, success_fn=None) -> int:
        """One step: forward, along each usable edge (u, v), the first
        packet queued at u whose greedy next hop is v.

        Attempts are read off the step-start queues, so a packet moves
        at most one hop per step, and go through ``success_fn`` as one
        batch; a failed attempt is charged and its packet stays queued.
        """
        edges = np.asarray(directed_edges, dtype=np.intp).reshape(-1, 2)
        costs = np.asarray(costs, dtype=np.float64).reshape(-1)
        usable = {(int(u), int(v)): float(c) for (u, v), c in zip(edges, costs)}
        attempts: list[tuple[int, int, int, float]] = []
        for (u, v), c in usable.items():
            for dest in self.queues[u]:
                if self._greedy_next(u, dest) == v:
                    attempts.append((u, v, dest, c))
                    break
        delivered = 0
        for (u, v, dest, c), ok in zip(attempts, resolve_attempts(attempts, success_fn)):
            self.stats.record_attempt(c, ok)
            if not ok:
                continue
            # Every packet for ``dest`` at u shares the greedy next hop v,
            # so the first one is the packet picked.
            self.queues[u].remove(dest)
            if v == dest:
                delivered += 1
                self.stats.record_delivery()
            elif self._greedy_next(v, dest) is None:
                self.local_minimum_drops += 1
                self.stats.dropped += 1
            else:
                self.queues[v].append(dest)
        for node, dest, count in injections or []:
            self.inject(node, dest, count)
        self.stats.end_step(
            max((len(q) for q in self.queues), default=0), delivered
        )
        return delivered
