"""Shared-memory lifecycle: deterministic cleanup, crash containment.

The contract under test: every segment a :class:`ShmArena` allocates is
unlinked exactly once by its owning process — on normal close, on pool
teardown, and on the worker-crash path (a SIGKILLed worker mid-batch
must leave no ``/dev/shm`` entries behind and surface a clear
:class:`WorkerCrashError`).
"""

import math
import os
import signal
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import (
    IncrementalTheta,
    NodeMove,
    max_range_for_connectivity,
    uniform_points,
)
from repro.parallel import ShmArena, TileWorkerPool, WorkerCrashError, attach

THETA = math.pi / 9


def _segment_exists(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


class TestArena:
    def test_share_attach_round_trip(self):
        src = np.arange(12, dtype=np.float64).reshape(6, 2)
        with ShmArena() as arena:
            view = arena.share(src)
            handle = arena.handle(view)
            attached, seg = attach(handle)
            assert np.array_equal(attached, src)
            attached[0, 0] = 99.0
            assert view[0, 0] == 99.0  # same physical pages
            seg.close()

    def test_close_unlinks_and_is_idempotent(self):
        arena = ShmArena()
        arena.empty((4,), np.int64)
        names = list(arena.names)
        assert all(_segment_exists(n) for n in names)
        arena.close()
        arena.close()
        assert arena.names == []
        assert not any(_segment_exists(n) for n in names)
        with pytest.raises(RuntimeError, match="closed"):
            arena.empty((2,), np.int64)

    def test_foreign_array_has_no_handle(self):
        with ShmArena() as arena:
            with pytest.raises(KeyError, match="not allocated"):
                arena.handle(np.zeros(3))

    def test_handle_is_picklable(self):
        import pickle

        with ShmArena() as arena:
            h = arena.handle(arena.empty((3, 2), np.float64))
            h2 = pickle.loads(pickle.dumps(h))
            assert h2 == h and h2.nbytes() == 48

    def test_allocation_failure_reports_budget_and_owner(self, monkeypatch):
        from repro.parallel import shm as shm_mod

        arena = ShmArena()
        arena.empty((8,), np.float64)  # 64 pinned bytes show in the error

        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(shm_mod.shared_memory, "SharedMemory", refuse)
        with pytest.raises(OSError) as excinfo:
            arena.empty((1024, 2), np.float64)
        msg = str(excinfo.value)
        assert "16,384 bytes" in msg  # requested
        assert "(1024, 2)" in msg and "<f8" in msg
        assert f"owner pid {os.getpid()}" in msg
        assert "already pins 64 bytes across 1 segments" in msg
        assert "share_dtype" in msg  # remediation hint
        monkeypatch.undo()
        arena.close()

    def test_available_bytes_reports_dev_shm(self):
        free = ShmArena.available_bytes()
        assert free is None or free >= 0


class TestPoolLifecycle:
    def _pool(self, *, workers=2):
        pts = uniform_points(60, rng=9)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc = IncrementalTheta(pts, THETA, d0)
        # Two pinned tiles: a narrower default cover would start one worker.
        pool = TileWorkerPool(inc, workers=workers, capacity=inc.size + 16, tiles=(2, 1))
        return inc, pool

    def test_close_unlinks_segments_and_restores_index(self):
        inc, pool = self._pool()
        names = list(pool._arena.names)
        assert names and all(_segment_exists(n) for n in names)
        assert inc._index._shared
        pool.close()
        assert not any(_segment_exists(n) for n in names)
        assert not inc._index._shared
        # the index survives close with private buffers — still usable
        assert len(inc.alive_ids()) == 60

    def test_sigkilled_worker_raises_and_unlinks(self):
        inc, pool = self._pool(workers=2)
        names = list(pool._arena.names)
        victim = pool._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        node = int(inc.alive_ids()[0])
        x, y = (float(v) for v in inc._index.position(node))
        with pytest.raises(WorkerCrashError, match="died with exit code") as excinfo:
            pool.apply_batch([NodeMove(node=node, x=x + 1e-3, y=y)])
        # the error carries the victim's last telemetry snapshot (shipped
        # with the startup handshake before the SIGKILL landed)
        err = excinfo.value
        assert err.telemetry is not None
        assert err.telemetry["rss_bytes"] > 0
        assert err.telemetry["batch"] == 0  # died before its first batch
        assert "last telemetry" in str(err)
        assert "rss=" in str(err) and "batch=0" in str(err)
        # the crash path closed the pool and unlinked everything
        assert pool._closed
        assert not any(_segment_exists(n) for n in names)
        with pytest.raises(RuntimeError, match="closed"):
            pool.apply_batch([])

    def test_crash_teardown_survives_double_unlink_and_rebuild(self):
        # The crash path unlinks everything; later close() calls (atexit,
        # __del__, context exit) must be no-ops, and the survivor state
        # must accept a brand-new pool.
        inc, pool = self._pool(workers=2)
        os.kill(pool._procs[1].pid, signal.SIGKILL)
        pool._procs[1].join(timeout=5.0)
        node = int(inc.alive_ids()[0])
        x, y = (float(v) for v in inc._index.position(node))
        with pytest.raises(WorkerCrashError):
            pool.apply_batch([NodeMove(node=node, x=x + 1e-3, y=y)])
        pool.close()  # second teardown after the crash path: strict no-op
        pool._arena.close()
        assert pool._arena.names == []
        with TileWorkerPool(inc, workers=2, capacity=inc.size + 16) as fresh:
            assert fresh.apply_batch([]).events == 0

    def test_capacity_ceiling_is_a_clear_error(self):
        from repro import NodeJoin

        inc, pool = self._pool(workers=1)
        base = inc.size
        joins = [
            NodeJoin(node=base + i, x=0.3 + 0.01 * i, y=0.4)
            for i in range(20)  # capacity headroom is 16: the 17th overflows
        ]
        with pool:
            with pytest.raises(RuntimeError, match="shared-buffer capacity"):
                pool.apply_batch(joins)


def _shm_names() -> "set[str]":
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _live_children() -> "list[int]":
    """Live (non-zombie) direct children of this process."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            out.append(int(entry))
    return sorted(out)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_pool_start_and_close_leave_shm_and_children_as_they_were():
    # The resource tracker is a long-lived child started by the first
    # segment a process creates; start it up front so it is part of the
    # baseline rather than mistaken for a leaked worker.
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    pts = uniform_points(80, rng=3)
    inc = IncrementalTheta(pts, THETA, max_range_for_connectivity(pts, slack=1.5))
    shm_before, children_before = _shm_names(), _live_children()
    pool = TileWorkerPool(inc, workers=2, tiles=(2, 1))
    assert pool.workers == 2
    assert len(_shm_names() - shm_before) >= 2
    assert len(set(_live_children()) - set(children_before)) == 2
    pool.close()
    assert _shm_names() == shm_before
    assert _live_children() == children_before
