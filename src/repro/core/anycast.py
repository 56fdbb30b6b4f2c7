"""Anycast balancing (extension; §1.2 lineage).

The paper generalizes Awerbuch-Brinkmann-Scheideler's *anycast*
balancing results to edge costs: "[10] extended these results to
arbitrary anycasting situations and showed that simple balancing
strategies achieve a throughput that can be brought arbitrarily close
to a best possible throughput.  Our work generalizes the results of
[10] to incorporate edge costs."  This module closes the loop by
implementing the anycast variant *with* the cost-aware rule, so the
library covers both directions of that generalization.

Model: a packet is addressed to a destination *group* g ⊆ V and is
absorbed upon reaching any member.  Buffers are kept per (node, group):
``h_{v,g}`` — with ``h_{m,g} = 0`` pinned for every member m of g
(members absorb instantly, the anycast analogue of the destination
buffer).  The step rule is unchanged: move a packet across (v, w) for
the group maximizing ``h_{v,g} − h_{w,g} − γ·c(e)`` when that exceeds
T.  The gradient now naturally points toward the *nearest* member.
"""

from __future__ import annotations

import numpy as np

from repro.core.balancing import BalancingConfig
from repro.sim.packets import TxBatch
from repro.sim.stats import RoutingStats

__all__ = ["AnycastBalancingRouter"]


class AnycastBalancingRouter:
    """(T, γ)-balancing with destination *groups*.

    Parameters
    ----------
    n_nodes:
        Network size.
    groups:
        List of destination groups (iterables of node ids).  Group k is
        addressed by its index.
    config:
        The usual (T, γ, H) parameters.
    """

    def __init__(
        self,
        n_nodes: int,
        groups: "list[list[int] | set[int] | tuple[int, ...]]",
        config: BalancingConfig,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if not groups:
            raise ValueError("at least one destination group is required")
        self.n_nodes = int(n_nodes)
        self.groups: list[frozenset[int]] = []
        for g in groups:
            members = frozenset(int(m) for m in g)
            if not members:
                raise ValueError("destination groups must be non-empty")
            if any(m < 0 or m >= n_nodes for m in members):
                raise ValueError("group member out of range")
            self.groups.append(members)
        self.config = config
        self.heights = np.zeros((self.n_nodes, len(self.groups)), dtype=np.int64)
        #: boolean membership matrix: member[v, k] ⇔ v ∈ groups[k]
        self.member = np.zeros((self.n_nodes, len(self.groups)), dtype=bool)
        for k, g in enumerate(self.groups):
            for m in g:
                self.member[m, k] = True
        self.stats = RoutingStats()

    # ------------------------------------------------------------------
    def height(self, node: int, group: int) -> int:
        return int(self.heights[node, group])

    def total_packets(self) -> int:
        return int(self.heights.sum())

    def max_height(self) -> int:
        return int(self.heights.max()) if self.heights.size else 0

    # ------------------------------------------------------------------
    def inject(self, node: int, group: int, count: int = 1) -> int:
        """Offer ``count`` packets for group ``group`` at ``node``."""
        if not 0 <= group < len(self.groups):
            raise KeyError(f"unknown group index {group}")
        if self.member[node, group]:
            raise ValueError("cannot inject at a member of the destination group")
        space = self.config.max_height - int(self.heights[node, group])
        accepted = max(0, min(int(count), space))
        self.heights[node, group] += accepted
        self.stats.record_injection(int(count), accepted)
        return accepted

    def decide(self, directed_edges: np.ndarray, costs: np.ndarray) -> TxBatch:
        """Per usable directed edge, pick the best group (if above T).

        The returned batch carries the *group index* in both ``col`` and
        ``dest``.
        """
        edges = np.asarray(directed_edges, dtype=np.intp).reshape(-1, 2)
        costs = np.asarray(costs, dtype=np.float64).reshape(-1)
        if len(edges) != len(costs):
            raise ValueError("directed_edges and costs must have equal length")
        if len(edges) == 0:
            return TxBatch.empty()
        cfg = self.config
        h0 = self.heights
        avail = h0.copy()
        picked: list[int] = []
        groups: list[int] = []
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
            picked.append(int(k))
            groups.append(g)
        idx = np.asarray(picked, dtype=np.intp)
        return TxBatch(edges[idx, 0], edges[idx, 1], groups, groups, costs[idx])

    def apply(self, batch: TxBatch, success=None) -> int:
        """Commit moves; a packet reaching any group member is absorbed."""
        k = len(batch)
        if success is None:
            success = np.ones(k, dtype=bool)
        success = np.asarray(success, dtype=bool).reshape(-1)
        if len(success) != k:
            raise ValueError("success mask length mismatch")
        if k == 0:
            return 0
        g = batch.col
        if int(g.min()) < 0 or int(g.max()) >= len(self.groups):
            raise KeyError(f"unknown group index in {g.tolist()}")
        if (batch.dest != g).any():
            raise ValueError("anycast batch dest must equal col (the group index)")
        src, dst, g = batch.src[success], batch.dst[success], g[success]
        h = self.heights
        np.subtract.at(h, (src, g), 1)
        if (h[src, g] < 0).any():
            np.add.at(h, (src, g), 1)
            raise RuntimeError("anycast invariant violated: empty buffer send")
        # Per-attempt accounting keeps the energy sums' sequential
        # float accumulation.
        for cost, ok in zip(batch.cost.tolist(), success.tolist()):
            self.stats.record_attempt(cost, ok)
        absorbed = self.member[dst, g]
        np.add.at(h, (dst[~absorbed], g[~absorbed]), 1)
        delivered = int(np.count_nonzero(absorbed))
        if delivered:
            self.stats.record_delivery(delivered)
        return delivered

    def run_step(self, directed_edges, costs, injections=None, success_fn=None) -> int:
        """One synchronous step (mirrors :class:`BalancingRouter`)."""
        txs = self.decide(directed_edges, costs)
        mask = None if success_fn is None else success_fn(txs)
        delivered = self.apply(txs, mask)
        for node, group, count in injections or []:
            self.inject(node, group, count)
        self.stats.end_step(self.max_height(), delivered)
        return delivered
