"""Packet-identity tracking on top of the balancing router (extension).

The balancing analysis treats packets in one buffer as fungible, so the
core router stores integer heights.  For *delay* statistics (not a
measure the paper analyzes, but one every systems reader asks about)
this wrapper assigns identities: each buffer keeps a FIFO of injection
timestamps, moves mirror the height changes, and deliveries record the
end-to-end delay.

The wrapper delegates every decision to the wrapped
:class:`~repro.core.balancing.BalancingRouter`, so throughput/energy
numbers are identical — only bookkeeping is added.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # runtime import would be circular (core imports sim)
    from repro.core.balancing import BalancingRouter

__all__ = ["TrackedBalancingRouter"]


class TrackedBalancingRouter:
    """Delay-tracking façade over a :class:`BalancingRouter`.

    FIFO identity assignment: when a packet moves out of ``Q_{v,d}``,
    the *oldest* timestamp in that buffer moves with it.  (Any
    assignment consistent with the heights yields the same throughput;
    FIFO gives the standard delay semantics.)
    """

    def __init__(self, router: "BalancingRouter") -> None:
        self.router = router
        n, k = router.heights.shape
        self._stamps: list[list[deque[int]]] = [
            [deque() for _ in range(k)] for _ in range(n)
        ]
        self._clock = 0
        self.delays: list[int] = []

    # ------------------------------------------------------------------
    @property
    def stats(self):
        return self.router.stats

    def total_packets(self) -> int:
        return self.router.total_packets()

    def _col(self, dest: int) -> int:
        return self.router._dest_col[int(dest)]

    # ------------------------------------------------------------------
    def run_step(self, directed_edges, costs, injections=None, success_fn=None) -> int:
        """One synchronous step with identity bookkeeping."""
        batch = self.router.decide(directed_edges, costs)
        mask = None if success_fn is None else np.asarray(success_fn(batch), dtype=bool)
        if mask is None:
            mask = np.ones(len(batch), dtype=bool)
        delivered = self.router.apply(batch, mask)
        moved = zip(
            batch.src[mask].tolist(),
            batch.dst[mask].tolist(),
            batch.col[mask].tolist(),
            batch.dest[mask].tolist(),
        )
        for src, dst, col, dest in moved:
            bucket = self._stamps[src][col]
            if not bucket:
                raise AssertionError(
                    f"tracking drift at buffer ({src}, dest {dest}): "
                    "no timestamp for a departing packet — was the wrapped "
                    "router mutated directly?"
                )
            stamp = bucket.popleft()
            if dst == dest:
                self.delays.append(self._clock - stamp)
            else:
                self._stamps[dst][col].append(stamp)
        for node, dest, count in injections or []:
            accepted = self.router.inject(node, dest, count)
            col = self._col(dest)
            for _ in range(accepted):
                self._stamps[node][col].append(self._clock)
        self.router.end_step(delivered)
        self._clock += 1
        self._check_consistency()
        return delivered

    def drop_buffered_packets(self, nodes) -> int:
        """Discard packets *and their timestamps* buffered at ``nodes``.

        Called by :func:`repro.dynamic.faults.drop_buffered_packets`
        when a tracked node fails or leaves; clearing both sides keeps
        the stamps-mirror-heights invariant intact.
        """
        h = self.router.heights
        lost = 0
        for v in (int(v) for v in nodes):
            if v < h.shape[0]:
                lost += int(h[v].sum())
                h[v] = 0
                for bucket in self._stamps[v]:
                    bucket.clear()
        return lost

    def _check_consistency(self) -> None:
        """Timestamps must mirror heights exactly (debug invariant)."""
        h = self.router.heights
        for v in range(h.shape[0]):
            for k in range(h.shape[1]):
                if len(self._stamps[v][k]) != h[v, k]:
                    raise AssertionError(
                        f"tracking drift at buffer ({v}, col {k}): "
                        f"{len(self._stamps[v][k])} stamps vs height {h[v, k]}"
                    )

    # ------------------------------------------------------------------
    def delay_summary(self) -> dict[str, float]:
        """Mean/median/p95/max end-to-end delay of delivered packets."""
        if not self.delays:
            return {"count": 0.0, "mean": 0.0, "median": 0.0, "p95": 0.0, "max": 0.0}
        d = np.asarray(self.delays, dtype=np.float64)
        return {
            "count": float(len(d)),
            "mean": float(d.mean()),
            "median": float(np.median(d)),
            "p95": float(np.percentile(d, 95)),
            "max": float(d.max()),
        }
