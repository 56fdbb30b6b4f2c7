"""Measurement, correctness and clean-up helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

#: The checkout root: ``perfbench/`` sits directly under it.
ROOT = Path(__file__).resolve().parent.parent

#: Benchmark state (checkpoint digests, span dumps) lives here, inside the
#: checkout, and is ignored by git.
STATE_DIR = ROOT / ".perfbench"

#: Steps (or step requests) per block of the timed loop.  The traced run
#: alternates traced and untraced blocks, so every block is one unit of
#: the tracing-overhead comparison.
BLOCK = 4


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in [0, 100])."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def halves_drift(samples) -> float:
    """Mean of the second half of ``samples`` over the first half's, minus 1."""
    h = len(samples) // 2
    if h == 0:
        return 0.0
    first = sum(samples[:h]) / h
    second = sum(samples[h:]) / (len(samples) - h)
    return second / first - 1.0 if first > 0 else 0.0


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------
#: Accepted band of ``z = n·π·(D_c/side)² − ln n`` for uniform worlds: about
#: the 30th to 60th percentile of its distribution at n = 10³…2·10³
#: (D_c: the connectivity-critical range).
Z_BAND = (1.9, 3.2)
MAX_DRAWS = 64


def is_typical(points, side: float = 1.0) -> bool:
    """Whether a uniform point set has a typical critical range.

    D_c is set by the most isolated node, so it swings by about 10%
    between seeds, and every layer's cost grows with D².  Workloads
    redraw their uniform worlds until ``z`` falls in :data:`Z_BAND`,
    which keeps that swing out of the seed-to-seed spread.
    """
    from repro.graphs.transmission import max_range_for_connectivity

    n = len(points)
    d = max_range_for_connectivity(points, slack=1.0, method="sparse") / side
    return Z_BAND[0] <= n * math.pi * d * d - math.log(n) <= Z_BAND[1]


# ----------------------------------------------------------------------
# Processes, memory and shared-memory segments
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size of a process in MB (``VmHWM``), 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a process from ``/proc``, 0 if gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids() -> "list[int]":
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


def shm_segments() -> "set[str]":
    """Names of the ``multiprocessing.shared_memory`` segments now present."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker this process started.

    ``multiprocessing`` launches the tracker on the first segment and
    leaves it running until interpreter exit; stopping it here lets the
    clean-up check demand that no child process survives.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def cleanup_problems(shm_before: "set[str]") -> "list[str]":
    """Leaks after a workload has shut down: segments first, then children.

    Segments are checked before the resource tracker stops, because the
    tracker unlinks whatever it still has registered when it exits and
    would hide the leak.
    """
    leaked = sorted(shm_segments() - shm_before)
    problems = [f"leaked shared-memory segment /dev/shm/{name}" for name in leaked]
    stop_resource_tracker()
    problems += [f"child process {pid} still running" for pid in child_pids()]
    return problems


# ----------------------------------------------------------------------
# Checkpoint digests, kept across runs in one checkout
# ----------------------------------------------------------------------
def source_digest() -> str:
    """Digest of the program and benchmark sources (keys the stored digests)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def digest_of(payload) -> str:
    """Stable digest of a JSON-able payload (floats by ``repr``)."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def check_digest(key: str, digest: str) -> "str | None":
    """Compare ``digest`` with the one an earlier run stored under ``key``.

    The first run of a key stores its digest; later runs — traced or not
    — must reproduce it.  Returns a problem description on a mismatch.
    """
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    stored = known.get(key)
    if stored is not None:
        if stored != digest:
            return f"checkpoint digest {digest[:12]} differs from {stored[:12]} of an earlier run ({key})"
        return None
    known[key] = digest
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return None


def dump_spans(recorder, path: Path) -> str:
    """Write a recorder's spans under the state directory; returns the path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    recorder.dump(path)
    return str(path.relative_to(ROOT))


class Checks:
    """Named pass/fail checks of one run; failures count as failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: "list[str]" = []

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.problems.append(problem)
        return ok

    def extend(self, problems: "list[str]", what: str) -> None:
        """One check that passes when ``problems`` is empty."""
        self.check(not problems, f"{what}: " + "; ".join(problems[:5]))
