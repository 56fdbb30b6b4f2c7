"""Injection records and the per-step transmission batch.

Packets in the balancing analysis are fungible within a buffer
``Q_{v,d}`` (the algorithm only reads buffer *heights*), so the
simulator tracks integer counts rather than packet objects; these
records describe the events that change the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Injection", "TxBatch"]


@dataclass(frozen=True)
class Injection:
    """``count`` packets injected at ``node`` destined for ``dest``.

    ``time`` is the step at which the adversary injects them (packets
    become routable in the *next* step, matching §3.2's "afterwards,
    receive all newly injected packets").
    """

    time: int
    node: int
    dest: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.node == self.dest:
            raise ValueError("source equals destination; packet would be trivially delivered")


class TxBatch:
    """One step's attempted packet moves, as aligned arrays.

    Attempt ``i`` moves one packet across directed edge
    ``src[i] → dst[i]``.  A router's ``decide`` produces the batch, the
    MAC's ``success_mask`` resolves it and the router's ``apply``
    commits it, all without leaving numpy.

    Attributes
    ----------
    src, dst:
        Directed edge endpoints (``intp``).
    col:
        Column of the router's buffer table the packet leaves
        (``intp``): the destination's column for
        :class:`~repro.core.balancing.BalancingRouter`, the group index
        for anycast, the destination id for the queue routers.
    dest:
        Destination node of the packet (selects the buffer; for anycast
        the group index).
    cost:
        Energy charged per attempt (``c(e)``, typically |uv|^κ;
        ``float64``).
    """

    __slots__ = ("src", "dst", "col", "dest", "cost")

    def __init__(self, src, dst, col, dest, cost) -> None:
        self.src = np.asarray(src, dtype=np.intp).reshape(-1)
        self.dst = np.asarray(dst, dtype=np.intp).reshape(-1)
        self.col = np.asarray(col, dtype=np.intp).reshape(-1)
        self.dest = np.asarray(dest, dtype=np.intp).reshape(-1)
        self.cost = np.asarray(cost, dtype=np.float64).reshape(-1)
        k = len(self.src)
        if not (len(self.dst) == len(self.col) == len(self.dest) == len(self.cost) == k):
            raise ValueError("transmission batch arrays must have equal length")

    @classmethod
    def empty(cls) -> "TxBatch":
        """A batch of no attempts."""
        none = np.empty(0, dtype=np.intp)
        return cls(none, none, none, none, np.empty(0))

    def __len__(self) -> int:
        return len(self.src)

    def edge_codes(self) -> np.ndarray:
        """Packed undirected edge codes ``(min << 32) | max`` per attempt.

        Both directions of one edge share a code, which is what the §3.3
        resolve groups by.
        """
        lo = np.minimum(self.src, self.dst).astype(np.int64)
        hi = np.maximum(self.src, self.dst).astype(np.int64)
        return (lo << 32) | hi
