"""Fault semantics for routing under churn.

A :class:`~repro.dynamic.events.FailStop` (or :class:`NodeLeave`) takes
a node out of the network *with its buffers*: every packet queued at it
is lost.  The routers themselves are fault-oblivious — the
(T, γ)-balancing router reroutes automatically, because zeroing a
failed node's buffer heights removes it from every potential gradient
and the repaired topology no longer offers its edges.  What this module
adds is the *accounting*: buffered packets at failed nodes are drained
and charged to :attr:`RoutingStats.churn_drops
<repro.sim.stats.RoutingStats.churn_drops>`, so delivery-under-churn
numbers stay conservation-exact
(``accepted == delivered + buffered + churn_drops`` at the end of a
run).

Works with every router the engine drives: height-matrix routers
(:class:`~repro.core.balancing.BalancingRouter`,
:class:`~repro.core.anycast.AnycastBalancingRouter`), FIFO-queue
routers (:class:`~repro.sim.baseline_routers.ShortestPathRouter`,
:class:`~repro.sim.geographic.GreedyGeographicRouter`, …), and
wrappers that delegate to an inner ``router`` attribute
(:class:`~repro.sim.tracking.TrackedBalancingRouter`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["drop_buffered_packets", "filter_injections"]


def drop_buffered_packets(router, nodes: "Iterable[int]") -> int:
    """Discard every packet buffered at ``nodes``; return how many.

    The caller (normally :class:`repro.sim.engine.SimulationEngine`)
    charges the returned count to the run's stats via
    :meth:`RoutingStats.record_churn_drops
    <repro.sim.stats.RoutingStats.record_churn_drops>`.  Unknown router
    shapes raise so silent packet leaks cannot happen.
    """
    # A node removed twice in one step (fail, recover, fail) is listed
    # twice; its buffer is charged once.
    node_list = list(dict.fromkeys(int(v) for v in nodes))
    if not node_list:
        return 0
    heights = getattr(router, "heights", None)
    if heights is not None:
        idx = np.asarray(node_list, dtype=np.intp)
        idx = idx[idx < heights.shape[0]]
        lost = int(heights[idx].sum())
        heights[idx] = 0
        return lost
    queues = getattr(router, "queues", None)
    if queues is not None:
        lost = 0
        for v in node_list:
            if v < len(queues):
                lost += len(queues[v])
                queues[v].clear()
        return lost
    inner = getattr(router, "router", None)
    if inner is not None:
        # Delegating wrappers (e.g. TrackedBalancingRouter) keep shadow
        # packet records; let them clean those up if they know how.
        dropper = getattr(router, "drop_buffered_packets", None)
        if dropper is not None:
            return int(dropper(node_list))
        return drop_buffered_packets(inner, node_list)
    raise TypeError(
        f"don't know where {type(router).__name__} buffers packets; "
        "expected a 'heights' array, 'queues' list, or inner 'router'"
    )


def filter_injections(injections, alive) -> "tuple[list, int]":
    """Split a step's injections into deliverable and dead-on-arrival.

    An injection ``(node, dest, count)`` is only usable when both
    endpoints are currently up: a down source cannot inject, and a
    packet for a down destination can never be absorbed.  Returns
    ``(usable, refused)`` where ``usable`` keeps the injections' order
    and ``refused`` is the packet count whose injection was refused
    (charged as offered-but-not-accepted drops).  Only the injection
    endpoints are looked up, with one ``searchsorted`` on the sorted
    ``alive`` ids, so the cost does not grow with the live set.
    """
    injections = list(injections)
    if not injections:
        return [], 0
    live = np.sort(np.asarray(alive, dtype=np.int64).ravel())
    ends = np.fromiter(
        (int(v) for node, dest, _ in injections for v in (node, dest)),
        dtype=np.int64,
        count=2 * len(injections),
    )
    if len(live):
        at = np.minimum(np.searchsorted(live, ends), len(live) - 1)
        up = live[at] == ends
    else:
        up = np.zeros(len(ends), dtype=bool)
    usable = []
    refused = 0
    for (node, dest, count), ok in zip(injections, (up[0::2] & up[1::2]).tolist()):
        if ok:
            usable.append((node, dest, count))
        else:
            refused += int(count)
    return usable, refused
