"""The process-pool context shared by every fork-worker pool.

Claims execute through :mod:`repro.campaign.runner` (``repro verify`` is
a one-cell-per-claim campaign); the tiled worker pool and engine of
:mod:`repro.parallel` start their workers from the same context.
"""

from __future__ import annotations

import multiprocessing as mp

__all__ = ["pool_context"]


def pool_context() -> mp.context.BaseContext:
    """The multiprocessing context shared by campaign and parallel pools.

    fork shares the imported modules (cheap start) and is preferred
    wherever available; spawn is the fallback.  Workers created from
    this context live for the whole run (``maxtasksperchild`` unset), so
    each keeps its per-process substrate cache warm across the tasks it
    executes.
    """
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method)
