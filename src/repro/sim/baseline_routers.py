"""Baseline routers for comparison against (T, γ)-balancing.

The paper notes (§1.2) that most deployed ad-hoc routing protocols are
shortest-path heuristics without worst-case guarantees.  These two
baselines anchor the E6/E12 comparisons:

* :class:`ShortestPathRouter` — static min-energy routing tables
  (Dijkstra on |uv|^κ), FIFO queues per node, one packet per usable
  directed edge per step, drop-on-full admission.  This is the
  "DSR/AODV-like" reference point.
* :class:`RandomWalkRouter` — forwards a random buffered packet to a
  random usable neighbor; the weakest sensible baseline (finite
  expected delivery on connected graphs, dreadful energy).

Both expose the same step interface as
:class:`repro.core.balancing.BalancingRouter` so the engine can drive
any of them interchangeably, MAC included: each step's attempts go
through ``success_fn`` as one :class:`~repro.sim.packets.TxBatch`, and a
failed attempt charges its energy and leaves the packet queued (§3.3
retransmission).
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.graphs.base import GeometricGraph
from repro.sim.packets import TxBatch
from repro.sim.stats import RoutingStats
from repro.utils.rng import as_rng

__all__ = ["ShortestPathRouter", "RandomWalkRouter"]


def resolve_attempts(attempts: "list[tuple[int, int, int, float]]", success_fn) -> "list[bool]":
    """Success flags of ``(src, dst, dest, cost)`` attempts.

    All succeed without a MAC; otherwise ``success_fn`` resolves them
    as one batch (``col`` carries the destination id).
    """
    if success_fn is None:
        return [True] * len(attempts)
    src, dst, dest, cost = zip(*attempts) if attempts else ((),) * 4
    ok = np.asarray(success_fn(TxBatch(src, dst, dest, dest, cost)), dtype=bool).reshape(-1)
    if len(ok) != len(attempts):
        raise ValueError("success mask length mismatch")
    return ok.tolist()


class _QueueRouterBase:
    """Shared plumbing: FIFO queues of destination ids per node."""

    def __init__(self, graph: GeometricGraph, max_queue: int) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.graph = graph
        self.max_queue = int(max_queue)
        self.queues: list[deque[int]] = [deque() for _ in range(graph.n_nodes)]
        self.stats = RoutingStats()

    def inject(self, node: int, dest: int, count: int = 1) -> int:
        """Enqueue up to ``count`` packets at ``node`` bound for ``dest``."""
        accepted = 0
        for _ in range(int(count)):
            if len(self.queues[node]) >= self.max_queue:
                break
            self.queues[node].append(int(dest))
            accepted += 1
        self.stats.record_injection(int(count), accepted)
        return accepted

    def total_packets(self) -> int:
        return sum(len(q) for q in self.queues)

    def max_height(self) -> int:
        return max((len(q) for q in self.queues), default=0)

    def end_step(self, delivered: int) -> None:
        self.stats.end_step(self.max_height(), delivered)

class ShortestPathRouter(_QueueRouterBase):
    """Min-energy shortest-path routing with FIFO queues.

    Routing tables are computed once from the construction-time graph;
    if the usable edge set shrinks at some step, packets whose next hop
    is unavailable simply wait (the classic failure mode of
    table-driven protocols under churn that the balancing algorithm
    avoids).
    """

    def __init__(self, graph: GeometricGraph, *, max_queue: int = 10_000) -> None:
        super().__init__(graph, max_queue)
        _, pred = dijkstra(graph.cost_adjacency, directed=False, return_predecessors=True)
        self._pred = pred

    def next_hop(self, node: int, dest: int) -> int | None:
        """Successor of ``node`` on the min-energy path to ``dest``."""
        if node == dest:
            return None
        # Walk predecessors from dest back toward node.
        cur = int(dest)
        prev = cur
        while cur != node:
            nxt = self._pred[node, cur]
            if nxt < 0:
                return None
            prev = cur
            cur = int(nxt)
        return prev

    def run_step(
        self,
        directed_edges: np.ndarray,
        costs: np.ndarray,
        injections=None,
        success_fn=None,
    ) -> int:
        """One step: forward FIFO heads along their next-hop edges."""
        edges = np.asarray(directed_edges, dtype=np.intp).reshape(-1, 2)
        costs = np.asarray(costs, dtype=np.float64).reshape(-1)
        usable: dict[tuple[int, int], float] = {
            (int(u), int(v)): float(c) for (u, v), c in zip(edges, costs)
        }
        # One packet per directed edge: the first packet queued at u
        # whose next hop is v (FIFO within that destination class).
        # Attempts are read off the step-start queues.
        attempts: list[tuple[int, int, int, float]] = []
        for (u, v), c in usable.items():
            for dest in self.queues[u]:
                if self.next_hop(u, dest) == v:
                    attempts.append((u, v, dest, c))
                    break
        delivered = 0
        for (u, v, dest, c), ok in zip(attempts, resolve_attempts(attempts, success_fn)):
            self.stats.record_attempt(c, ok)
            if not ok:
                continue
            # The first ``dest`` packet at u is the one picked: every
            # packet for ``dest`` shares the next hop v.
            self.queues[u].remove(dest)
            if v == dest:
                delivered += 1
                self.stats.record_delivery()
            else:
                self.queues[v].append(dest)
        for node, dest, count in injections or []:
            self.inject(node, dest, count)
        self.end_step(delivered)
        return delivered


class RandomWalkRouter(_QueueRouterBase):
    """Forward a random packet along each usable edge with probability ½.

    Deliberately naive: no state beyond the queues.  Used to show the
    gap between "anything that moves packets" and the balancing bound.
    """

    def __init__(self, graph: GeometricGraph, *, max_queue: int = 10_000, rng=None) -> None:
        super().__init__(graph, max_queue)
        self.rng = as_rng(rng)

    def run_step(
        self,
        directed_edges: np.ndarray,
        costs: np.ndarray,
        injections=None,
        success_fn=None,
    ) -> int:
        """One step: each usable edge forwards, with probability ½, the
        next step-start packet of its sender's queue."""
        edges = np.asarray(directed_edges, dtype=np.intp).reshape(-1, 2)
        costs = np.asarray(costs, dtype=np.float64).reshape(-1)
        planned: dict[int, int] = {}
        attempts: list[tuple[int, int, int, float]] = []
        for (u, v), c in zip(edges.tolist(), costs.tolist()):
            q = self.queues[u]
            k = planned.get(u, 0)
            if k >= len(q) or self.rng.random() < 0.5:
                continue
            attempts.append((u, v, q[k], c))
            planned[u] = k + 1
        delivered = 0
        for (u, v, dest, c), ok in zip(attempts, resolve_attempts(attempts, success_fn)):
            self.stats.record_attempt(c, ok)
            if not ok:
                continue
            # Packets for one destination are interchangeable, and a
            # planned packet for ``dest`` is still queued ahead of any
            # packet that arrived this step.
            self.queues[u].remove(dest)
            if v == dest:
                delivered += 1
                self.stats.record_delivery()
            elif len(self.queues[v]) < self.max_queue:
                self.queues[v].append(dest)
            else:
                # Lost to overflow mid-flight (counted as a drop).
                self.stats.dropped += 1
        for node, dest, count in injections or []:
            self.inject(node, dest, count)
        self.end_step(delivered)
        return delivered
