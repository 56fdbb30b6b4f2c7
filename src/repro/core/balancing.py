"""The (T, γ)-balancing routing algorithm (§3.2).

Every node ``v`` keeps one buffer ``Q_{v,d}`` per destination ``d``;
``h_{v,d}`` is its *height* (packet count), capped at ``H``; destination
buffers are always empty (packets reaching them are absorbed).

Per time step, for every usable directed edge ``e = (v, w)`` with cost
``c(e)``:

1. find the destination ``d`` maximizing ``h_{v,d} − h_{w,d} − c(e)·γ``;
2. if that value exceeds the threshold ``T``, move one packet of
   destination ``d`` from ``Q_{v,d}`` to ``Q_{w,d}``.

Then absorb arrivals at their destinations and accept new injections,
deleting any injected packet whose buffer is already at height ``H``
(simple source admission control).

Theorem 3.1: with ``T ≥ B + 2(δ−1)`` and ``γ ≥ (T+B+δ)·L̄/C̄`` the
algorithm is ``(1−ε, 1 + 2(1+(T+δ)/B)·L̄/ε, 1 + 2/ε)``-competitive —
it delivers a (1−ε) fraction of what *any* schedule with buffer size B
and average cost C̄ can deliver, using buffers a factor ≈ O(L̄/ε)
larger and average cost a factor ≤ 1+2/ε larger.

Implementation notes
--------------------
* Decisions for all edges of a step use the heights *at the beginning
  of the step* (as in the paper's synchronous model); when several
  edges try to drain the same buffer, sends are additionally capped by
  the packets actually available, processed in edge order — this only
  removes sends the idealized model could not have performed either.
* The γ-term prices energy into the potential drop: a packet only
  crosses an expensive edge if the height differential pays for it.
* ``γ = 0`` recovers the cost-oblivious balancing of Awerbuch et al.,
  used as an ablation in experiment E6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import metrics, trace
from repro.sim.packets import TxBatch
from repro.sim.stats import RoutingStats
from repro.utils.arrays import run_starts, unique_counts, unique_inverse
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["BalancingConfig", "BalancingRouter"]


@dataclass(frozen=True)
class BalancingConfig:
    """Parameters of the (T, γ)-balancing algorithm.

    Attributes
    ----------
    threshold:
        T — minimum potential drop required to move a packet.
    gamma:
        γ — price per unit of edge cost, in units of buffer height.
    max_height:
        H — buffer capacity per (node, destination) pair.
    """

    threshold: float
    gamma: float
    max_height: int

    def __post_init__(self) -> None:
        check_nonnegative("threshold", self.threshold)
        check_nonnegative("gamma", self.gamma)
        check_positive("max_height", self.max_height)


class BalancingRouter:
    """State and step logic of the (T, γ)-balancing algorithm.

    Parameters
    ----------
    n_nodes:
        Number of nodes in the network.
    destinations:
        Node ids that appear as packet destinations.  Buffers are only
        materialized for these, so memory is ``n_nodes × len(destinations)``.
    config:
        The (T, γ, H) parameters.

    Notes
    -----
    The router is topology-agnostic: each call to :meth:`decide`
    receives the currently usable directed edges and their costs, which
    is exactly the interface the adversarial model of §3.1 prescribes
    (topology and costs may change arbitrarily between steps).
    """

    def __init__(
        self,
        n_nodes: int,
        destinations: "np.ndarray | list[int] | None",
        config: BalancingConfig,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        if destinations is None:
            destinations = np.arange(n_nodes)
        self.destinations = np.asarray(sorted(set(int(d) for d in destinations)), dtype=np.intp)
        if len(self.destinations) == 0:
            raise ValueError("at least one destination is required")
        if (self.destinations < 0).any() or (self.destinations >= n_nodes).any():
            raise ValueError("destination id out of range")
        self._dest_col = {int(d): k for k, d in enumerate(self.destinations)}
        self.config = config
        #: heights h[v, k] of buffer Q_{v, destinations[k]}
        self.heights = np.zeros((self.n_nodes, len(self.destinations)), dtype=np.int64)
        self.stats = RoutingStats()
        self._dest_rows = self.destinations  # alias for readability

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def height(self, node: int, dest: int) -> int:
        """Current height of ``Q_{node, dest}``."""
        return int(self.heights[node, self._dest_col[int(dest)]])

    def total_packets(self) -> int:
        """Packets currently buffered anywhere in the network."""
        return int(self.heights.sum())

    def max_height(self) -> int:
        """Largest buffer height currently present."""
        return int(self.heights.max()) if self.heights.size else 0

    # ------------------------------------------------------------------
    # Step phase 1: transmission decisions
    # ------------------------------------------------------------------
    def decide(
        self,
        directed_edges: np.ndarray,
        costs: np.ndarray,
    ) -> TxBatch:
        """Choose at most one packet per directed edge to move.

        Parameters
        ----------
        directed_edges:
            ``(k, 2)`` array of usable directed edges ``(v, w)``; both
            orientations of an undirected edge may appear (the model
            allows one packet per direction).
        costs:
            ``(k,)`` edge costs ``c(e)`` (energy for one transmission).

        Returns
        -------
        The chosen transmissions, in edge order.  Heights are *not*
        modified — call :meth:`apply` with a success mask to commit the
        moves.
        """
        edges = np.asarray(directed_edges, dtype=np.intp).reshape(-1, 2)
        costs = np.asarray(costs, dtype=np.float64).reshape(-1)
        if len(edges) != len(costs):
            raise ValueError("directed_edges and costs must have equal length")
        if len(edges) == 0:
            return TxBatch.empty()
        cfg = self.config
        h0 = self.heights  # beginning-of-step heights for decisions
        ncols = h0.shape[1]

        # Vectorized candidate selection: for all edges at once compute
        # the best destination column and its potential drop.
        diff = h0[edges[:, 0], :] - h0[edges[:, 1], :] - cfg.gamma * costs[:, None]
        candidates = np.flatnonzero(diff.max(axis=1) > cfg.threshold)
        if len(candidates) == 0:
            return TxBatch.empty()
        src = edges[candidates, 0]
        chosen_col = diff[candidates].argmax(axis=1)

        # A candidate's best column always has a packet at step start
        # (drop > threshold ≥ 0 forces h0[v, col] ≥ 1), so the chosen
        # columns stand as long as no buffer is over-demanded: each pick
        # then still finds its first-argmax column available.  One
        # grouped count per touched buffer detects the exception.
        uniq, cnt = unique_counts(src * np.intp(ncols) + chosen_col)
        over = cnt > h0[np.divmod(uniq, ncols)]
        if over.any():
            # Some buffer has more takers than packets.  Redo the
            # candidates of the affected sources with the sequential
            # semantics: each source claims packets in edge order, every
            # pick taking the best column its earlier picks left
            # available.  Sources do not couple, so round r settles the
            # r-th redone candidate of every affected source at once.
            redo = np.flatnonzero(np.isin(src, uniq[over] // ncols))
            sources, row_of = unique_inverse(src[redo])
            avail = h0[sources]
            drops = diff[candidates[redo]]
            order = np.argsort(row_of, kind="stable")
            first = run_starts(row_of[order])
            rank = np.empty(len(redo), dtype=np.intp)
            rank[order] = np.arange(len(redo)) - np.flatnonzero(first)[np.cumsum(first) - 1]
            keep = np.ones(len(candidates), dtype=bool)
            for r in range(int(rank.max()) + 1):
                sel = np.flatnonzero(rank == r)
                rows = row_of[sel]
                masked = np.where(avail[rows] > 0, drops[sel], -np.inf)
                col = masked.argmax(axis=1)
                ok = masked[np.arange(len(sel)), col] > cfg.threshold
                keep[redo[sel]] = ok
                chosen_col[redo[sel[ok]]] = col[ok]
                avail[rows[ok], col[ok]] -= 1
            candidates = candidates[keep]
            chosen_col = chosen_col[keep]
            src = src[keep]

        return TxBatch(
            src,
            edges[candidates, 1],
            chosen_col,
            self.destinations[chosen_col],
            costs[candidates],
        )

    # ------------------------------------------------------------------
    # Step phase 2: commit moves, absorb, inject
    # ------------------------------------------------------------------
    def apply(
        self,
        batch: TxBatch,
        success: "np.ndarray | None" = None,
    ) -> int:
        """Commit a transmission batch; returns the number of packets absorbed.

        Parameters
        ----------
        batch:
            The attempts, as :meth:`decide` returns them; ``batch.col``
            must be ``batch.dest``'s column of :attr:`destinations`.
        success:
            Optional boolean mask (e.g. from the interference model);
            failed attempts consume energy but do not move the packet
            (retransmission semantics of §3.3).
        """
        k = len(batch)
        if success is None:
            success = np.ones(k, dtype=bool)
        success = np.asarray(success, dtype=bool).reshape(-1)
        if len(success) != k:
            raise ValueError("success mask length mismatch")
        if k == 0:
            return 0
        ncols = len(self.destinations)
        col, dest = batch.col, batch.dest
        if int(col.min()) < 0 or int(col.max()) >= ncols:
            raise KeyError(f"batch columns must lie in [0, {ncols}), got {col.tolist()}")
        wrong = self.destinations[col] != dest
        if wrong.any():
            i = int(np.flatnonzero(wrong)[0])
            d = int(dest[i])
            if d not in self._dest_col:
                raise KeyError(f"{d} is not a registered destination")
            raise ValueError(
                f"batch column {int(col[i])} holds destination "
                f"{int(self.destinations[col[i]])}, not {d}"
            )

        if success.all():
            src_ok, dst_ok, col_ok, dest_ok = batch.src, batch.dst, col, dest
        else:
            src_ok, dst_ok = batch.src[success], batch.dst[success]
            col_ok, dest_ok = col[success], dest[success]
        h = self.heights
        np.subtract.at(h, (src_ok, col_ok), 1)
        # Invariant: no buffer sends more packets than it held at the
        # start of the step (decide() guarantees this by construction).
        short = h[src_ok, col_ok] < 0
        if short.any():
            np.add.at(h, (src_ok, col_ok), 1)
            first = int(np.flatnonzero(short)[0])
            v, d = int(src_ok[first]), int(dest_ok[first])
            raise RuntimeError(
                f"balancing invariant violated: sending from empty buffer Q_({v},{d})"
            )
        self.stats.record_attempts(batch.cost, success)
        absorbed = dst_ok == dest_ok
        np.add.at(h, (dst_ok[~absorbed], col_ok[~absorbed]), 1)
        delivered = int(np.count_nonzero(absorbed))
        if delivered:
            self.stats.record_delivery(delivered)
        return delivered

    def inject(self, node: int, dest: int, count: int = 1) -> int:
        """Offer ``count`` packets at ``node`` for ``dest``; returns accepted.

        Injections that would push the buffer above ``H`` are deleted
        (§3.2's admission control).  Injecting at the destination itself
        is rejected at the API level (the model never does this).
        """
        if node == dest:
            raise ValueError("cannot inject a packet at its own destination")
        col = self._dest_col.get(int(dest))
        if col is None:
            raise KeyError(f"{dest} is not a registered destination")
        space = self.config.max_height - int(self.heights[node, col])
        accepted = max(0, min(int(count), space))
        self.heights[node, col] += accepted
        self.stats.record_injection(int(count), accepted)
        return accepted

    def end_step(self, delivered_this_step: int) -> None:
        """Close the step for statistics purposes."""
        self.stats.end_step(self.max_height(), delivered_this_step)

    # ------------------------------------------------------------------
    def run_step(
        self,
        directed_edges: np.ndarray,
        costs: np.ndarray,
        injections: "list[tuple[int, int, int]] | None" = None,
        success_fn=None,
    ) -> int:
        """Convenience: one full step (decide → apply → inject).

        Parameters
        ----------
        injections:
            List of ``(node, dest, count)`` tuples offered this step.
        success_fn:
            Optional callable mapping the chosen :class:`TxBatch` to a
            boolean success mask (interference resolution).

        Returns
        -------
        Packets delivered this step.
        """
        reg = metrics.active()
        if reg is not None:
            fail0, drop0 = self.stats.interference_failures, self.stats.dropped
        with trace.span("balancing.decide"):
            txs = self.decide(directed_edges, costs)
        mask = None if success_fn is None else success_fn(txs)
        with trace.span("balancing.apply", attempts=len(txs)):
            delivered = self.apply(txs, mask)
        for node, dest, count in injections or []:
            self.inject(node, dest, count)
        self.end_step(delivered)
        if reg is not None:
            st = self.stats
            reg.counter("balancing.steps").inc()
            reg.counter("balancing.attempts").inc(len(txs))
            reg.counter("balancing.delivered").inc(delivered)
            reg.counter("balancing.interference_failures").inc(st.interference_failures - fail0)
            reg.counter("balancing.dropped").inc(st.dropped - drop0)
            reg.gauge("balancing.total_buffer").set(self.total_packets())
        return delivered
