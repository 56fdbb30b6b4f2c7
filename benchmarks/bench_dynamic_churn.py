"""Performance bench: incremental ΘALG repair vs. from-scratch rebuild.

The payoff of the dynamic subsystem (ISSUE E23/E24, ``docs/dynamics.md``):
at production scale an event repairs a bounded disk, while a rebuild
pays for the whole network.  Three gated comparisons at n = 10 000:

* topology: mean per-event ΘALG repair ≥ 5× faster than one
  from-scratch :func:`~repro.core.theta.theta_algorithm` run;
* interference: mean per-event conflict-row repair
  (:class:`repro.dynamic.interference.DynamicInterference`) ≥ 5× faster
  than a from-scratch :func:`~repro.interference.conflict.
  interference_sets` rebuild under the same 1%-churn MAC workload;
* batching: disjoint-region batch application of a high-churn trace
  (10%/step) beats the serial per-event loop while producing the
  identical edge set and conflict CSR.

The interference comparison also gates memory: after the churn the
maintained conflict structure may hold at most
``CONFLICT_BYTES_PER_ENTRY`` bytes of arrays per conflict entry
(``DynamicInterference.nbytes``; one entry is one side of one
conflicting pair), reported as ``extra_info``.

Runs in the CI bench-smoke job next to ``bench_perf_scaling.py``; the
wall-clock means land in ``BENCH_baseline.json`` under the usual 3×
regression gate.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.core.theta import theta_algorithm
from repro.dynamic.batching import apply_events_parallel
from repro.dynamic.events import random_event_trace
from repro.dynamic.incremental import IncrementalTheta
from repro.dynamic.interference import DynamicInterference
from repro.geometry.pointsets import uniform_points
from repro.graphs.transmission import max_range_for_connectivity
from repro.interference.conflict import interference_sets

THETA = math.pi / 9
DELTA = 0.5
SPEEDUP_FLOOR = 5.0
#: Memory ceiling of the maintained conflict structure, bytes per entry.
CONFLICT_BYTES_PER_ENTRY = 24.0


def _world(n: int, *, rng: int = 2):
    # Scale the square by sqrt(n): constant density, size-independent D.
    side = math.sqrt(n)
    pts = uniform_points(n, rng=rng) * side
    d = max_range_for_connectivity(pts, method="sparse")
    return pts, d, side


@pytest.mark.parametrize("n", [10_000])
def test_churn_incremental_vs_rebuild(benchmark, n):
    pts, d, side = _world(n)
    trace = random_event_trace(
        pts, max(1, round(0.01 * n)), side=side, move_sigma=d / 2.0, rng=3
    )
    inc = IncrementalTheta(pts, THETA, d)

    # Events mutate the maintainer, so exactly one timed round.
    stats = benchmark.pedantic(lambda: inc.apply_trace(trace), rounds=1, iterations=1)
    assert len(stats) == len(trace)
    per_event = float(np.mean([s.wall_time for s in stats]))

    live = inc.live_points()
    t_rebuild = []
    for _ in range(3):
        t0 = time.perf_counter()
        theta_algorithm(live, THETA, d)
        t_rebuild.append(time.perf_counter() - t0)
    rebuild = float(np.mean(t_rebuild))

    speedup = rebuild / per_event
    print(
        f"\nn={n}: {len(stats)} events, {per_event * 1e3:.3f} ms/event vs "
        f"{rebuild * 1e3:.1f} ms/rebuild — {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental repair only {speedup:.1f}x faster than a full rebuild "
        f"at n={n} (floor: {SPEEDUP_FLOOR}x)"
    )
    # And it stayed correct while being fast.
    assert not inc.check_full_equivalence()


@pytest.mark.parametrize("n", [10_000])
def test_churn_full_rebuild_baseline(benchmark, n):
    # The comparison partner as its own tracked series, so the baseline
    # JSON records both sides of the E23 speedup claim.
    pts, d, _ = _world(n)
    topo = benchmark.pedantic(
        lambda: theta_algorithm(pts, THETA, d), rounds=1, iterations=1
    )
    assert topo.graph.n_edges > 0


@pytest.mark.parametrize("n", [10_000])
def test_churn_mac_conflict_incremental_vs_rebuild(benchmark, n):
    """E24 gate: conflict-row repair under a 1%-churn MAC workload.

    Each event repairs only the rows whose guard zones intersect the
    dirty disk; a per-step MAC over the maintained structure would
    otherwise pay a full ``interference_sets`` rebuild.
    """
    pts, d, side = _world(n)
    events = list(
        random_event_trace(
            pts, max(1, round(0.01 * n)), side=side, move_sigma=d / 2.0, rng=3
        ).events()
    )
    inc = IncrementalTheta(pts, THETA, d)
    di = DynamicInterference(inc, DELTA)

    def churn():
        return [di.update_event(inc.apply(ev)) for ev in events]

    conflict_stats = benchmark.pedantic(churn, rounds=1, iterations=1)
    per_event = float(np.mean([cs.wall_time for cs in conflict_stats]))

    snapshot = inc.snapshot_graph()
    t_rebuild = []
    for _ in range(3):
        t0 = time.perf_counter()
        interference_sets(snapshot, DELTA)
        t_rebuild.append(time.perf_counter() - t0)
    rebuild = float(np.mean(t_rebuild))

    speedup = rebuild / per_event
    print(
        f"\nn={n}: {len(conflict_stats)} events, {per_event * 1e3:.3f} ms/repair vs "
        f"{rebuild * 1e3:.1f} ms/rebuild — {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"conflict repair only {speedup:.1f}x faster than a full rebuild "
        f"at n={n} (floor: {SPEEDUP_FLOOR}x)"
    )
    # The churned store, before a CSR materialization is cached beside it.
    entries = int(di.degree_array().sum())
    per_entry = di.nbytes / max(entries, 1)
    benchmark.extra_info["conflict_entries"] = entries
    benchmark.extra_info["conflict_bytes_per_entry"] = round(per_entry, 3)
    print(f"conflict store: {entries} entries, {per_entry:.2f} bytes/entry")
    assert per_entry <= CONFLICT_BYTES_PER_ENTRY, (
        f"conflict store holds {per_entry:.1f} bytes per entry at n={n} "
        f"(ceiling: {CONFLICT_BYTES_PER_ENTRY})"
    )
    # Bit-identical to the from-scratch rows while being fast.
    assert di.check_full_equivalence() == 0


@pytest.mark.parametrize("n", [10_000])
def test_churn_mac_full_conflict_rebuild_baseline(benchmark, n):
    # The comparison partner of the E24 speedup claim as its own series.
    pts, d, _ = _world(n)
    inc = IncrementalTheta(pts, THETA, d)
    snapshot = inc.snapshot_graph()
    sets = benchmark.pedantic(
        lambda: interference_sets(snapshot, DELTA), rounds=1, iterations=1
    )
    assert len(sets) == snapshot.n_edges


@pytest.mark.parametrize("n", [10_000])
def test_churn_parallel_vs_serial(benchmark, n):
    """Disjoint-region batch application beats the serial event loop.

    A 10%-per-step churn trace makes the per-event dirty disks overlap
    heavily; grouping the step's events and repairing each merged
    region once dedups that overlap, so batch application wins even on
    one core — while producing the identical edge set and conflict CSR.
    """
    pts, d, side = _world(n)
    per_step = max(1, round(0.10 * n))
    events = list(
        random_event_trace(
            pts, per_step * 2, side=side, move_sigma=d / 2.0, rng=5
        ).events()
    )

    inc_s = IncrementalTheta(pts, THETA, d)
    di_s = DynamicInterference(inc_s, DELTA)
    t0 = time.perf_counter()
    for ev in events:
        di_s.update_event(inc_s.apply(ev))
    t_serial = time.perf_counter() - t0

    inc_p = IncrementalTheta(pts, THETA, d)
    di_p = DynamicInterference(inc_p, DELTA)

    def run_batched():
        for lo in range(0, len(events), per_step):
            apply_events_parallel(inc_p, events[lo : lo + per_step], interference=di_p)

    t0 = time.perf_counter()
    benchmark.pedantic(run_batched, rounds=1, iterations=1)
    t_parallel = time.perf_counter() - t0

    print(
        f"\nn={n}: {len(events)} events — serial {t_serial:.2f}s vs "
        f"batched {t_parallel:.2f}s ({t_serial / t_parallel:.2f}x)"
    )
    # Correctness first: same topology, same conflict rows.
    assert np.array_equal(inc_s.edge_array(), inc_p.edge_array())
    assert di_s.interference_sets() == di_p.interference_sets()
    assert di_p.check_full_equivalence() == 0
    assert t_parallel < t_serial, (
        f"batched application ({t_parallel:.2f}s) not faster than the serial "
        f"event loop ({t_serial:.2f}s) on a 10%-churn trace at n={n}"
    )
