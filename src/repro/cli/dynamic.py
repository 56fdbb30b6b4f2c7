"""``python -m repro dynamic``: claim E23's measurement for one configuration.

The generated trace holds ``n * churn * steps`` mixed events (moves
40%, join/leave/fail/recover 15% each), ``round(churn * n)`` to a step;
``--events-in`` replays a recorded trace at its recorded steps instead.
Events are applied one by one, or with ``--parallel`` one
:meth:`repro.dynamic.DynamicTopology.step` per step (with ``--backend
process`` the first step's time includes starting the worker pool).
"""

from __future__ import annotations

import json
import math
import sys
import time

from repro.cli.common import (
    int_at_least,
    nonnegative_float,
    nonnegative_int,
    positive_int,
    probability,
    trace_parent,
)


def add_parsers(sub) -> None:
    p = sub.add_parser(
        "dynamic",
        parents=[trace_parent()],
        help="churn one network and report incremental repair cost (E23 for one configuration)",
        description="Churn one network and report the E23 repair cost for "
        "that configuration; exits 1 if the final topology or conflict rows "
        "differ from a full rebuild.",
    )
    p.add_argument(
        "--n", type=int_at_least(4), default=1000, metavar="N",
        help="number of nodes (default 1000)",
    )
    p.add_argument(
        "--churn", type=probability, default=0.01, metavar="RATE",
        help="per-node per-step event probability (default 0.01)",
    )
    p.add_argument(
        "--steps", type=positive_int, default=100, metavar="T",
        help="number of simulated steps (default 100)",
    )
    p.add_argument(
        "--seed", type=nonnegative_int, default=23, metavar="S",
        help="RNG seed for points and the event trace (default 23)",
    )
    p.add_argument(
        "--mac", action="store_true",
        help="maintain §2.4 interference sets incrementally and report "
        "per-event conflict-repair stats",
    )
    p.add_argument(
        "--delta", type=nonnegative_float, default=0.5, metavar="D",
        help="guard-zone parameter Δ for --mac (default 0.5)",
    )
    p.add_argument(
        "--parallel", action="store_true",
        help="apply each step's events as one batch through DynamicTopology "
        "(independent groups repaired in shared array passes)",
    )
    p.add_argument(
        "--backend", choices=("serial", "process"), default="serial",
        help="--parallel: repair in this process (serial, the default) or in "
        "a tiled worker pool over shared memory (process)",
    )
    p.add_argument(
        "--workers", type=positive_int, default=None, metavar="W",
        help="--parallel --backend process: worker process count "
        "(default: available cores)",
    )
    p.add_argument(
        "--events-in", default=None, metavar="FILE",
        help="replay a recorded event-trace JSON file at its recorded steps "
        "instead of generating one (the event_trace_to_dict format; also "
        "what GET /v1/sessions/{id}/events returns)",
    )
    p.add_argument(
        "--events-out", default=None, metavar="FILE",
        help="write the event trace used by this run as JSON "
        "(replayable via --events-in)",
    )
    p.set_defaults(run=run)


def run(args) -> int:
    import numpy as np

    from repro.analysis import tables
    from repro.core.theta import theta_algorithm
    from repro.dynamic import (
        DynamicInterference,
        DynamicTopology,
        EventTrace,
        IncrementalTheta,
        event_trace_from_dict,
        event_trace_to_dict,
        random_event_trace,
    )
    from repro.geometry.pointsets import uniform_points
    from repro.harness.cache import cached_range
    from repro.interference.conflict import interference_sets
    from repro.utils.rng import as_rng

    if args.workers is not None and not (args.parallel and args.backend == "process"):
        print("dynamic: --workers needs --parallel --backend process", file=sys.stderr)
        return 2

    gen = as_rng(args.seed)
    pts = uniform_points(args.n, rng=gen)
    d0 = cached_range(pts, 1.5)
    if args.events_in:
        try:
            with open(args.events_in) as fh:
                events = event_trace_from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"dynamic: cannot load events from {args.events_in}: {exc}", file=sys.stderr)
            return 2
        if not len(events):
            print(f"dynamic: {args.events_in} holds no events", file=sys.stderr)
            return 2
        print(f"replaying {len(events)} events from {args.events_in}")
    else:
        n_events = max(1, round(args.churn * args.n * args.steps))
        drawn = random_event_trace(pts, n_events, move_sigma=d0 / 2.0, rng=gen)
        per_step = max(1, round(args.churn * args.n))
        events = EventTrace((i // per_step, ev) for i, ev in enumerate(drawn.events()))
    if args.events_out:
        try:
            with open(args.events_out, "w") as fh:
                json.dump(event_trace_to_dict(events), fh)
        except OSError as exc:
            print(f"dynamic: cannot write {args.events_out}: {exc}", file=sys.stderr)
            return 2
        print(f"event trace written to {args.events_out} ({len(events)} events)")
    inc = IncrementalTheta(pts, math.pi / 9, d0)
    di = DynamicInterference(inc, args.delta) if args.mac else None

    evs = events.events()
    steps = sorted({t for t, _ in events})
    wall: "list[float]" = []
    conflict_repairs = []
    if args.parallel:
        with DynamicTopology(
            inc, events, interference=di, backend=args.backend, workers=args.workers
        ) as topo:
            for t in steps:
                t0 = time.perf_counter()
                churn = topo.step(t)
                wall.append(time.perf_counter() - t0)
                conflict_repairs.extend(churn.conflict_repairs)
        repairs = topo.repairs
    else:
        repairs = []
        for ev in evs:
            stats = inc.apply(ev)
            repairs.append(stats)
            wall.append(stats.wall_time)
            if di is not None:
                conflict_repairs.append(di.update_event(stats))
    mismatches = 1 if inc.check_full_equivalence() else 0
    conflict_mismatches = 1 if di is not None and di.check_full_equivalence() else 0

    t0 = time.perf_counter()
    theta_algorithm(inc.live_points(), math.pi / 9, d0)
    full_ms = (time.perf_counter() - t0) * 1e3
    event_ms = float(np.sum(wall)) / len(evs) * 1e3
    touched = np.asarray([rs.nodes_touched for rs in repairs], dtype=np.float64)
    radii = [rs.update_radius for rs in repairs]
    row = {
        "n": int(args.n),
        "live_n": int(inc.n_alive),
        "events": len(evs),
        "mean_touched": float(touched.mean()),
        "p95_touched": float(np.percentile(touched, 95)),
        "max_touched": int(touched.max()),
        "touched_per_n": float(touched.mean() / args.n),
        "mean_update_radius_over_D": float(np.mean(radii) / d0),
        "max_update_radius_over_D": float(np.max(radii) / d0),
        "edges_flipped_per_event": float(np.mean([rs.edges_flipped for rs in repairs])),
        "ms_per_event": event_ms,
        "full_rebuild_ms": full_ms,
        "rebuild_speedup": full_ms / event_ms if event_ms > 0 else float("inf"),
        "equality_mismatches": mismatches,
    }
    mode = "parallel batches" if args.parallel else "serial events"
    if args.events_in:
        workload = f"replay of {len(evs)} events over {len(steps)} steps"
    else:
        workload = f"churn={args.churn:g}/node/step, steps={args.steps}"
    print(
        tables.render_table(
            [row],
            title=f"dynamic churn — n={args.n}, {workload}, seed={args.seed} ({mode})",
        )
    )
    if di is not None and conflict_repairs:
        t0 = time.perf_counter()
        interference_sets(inc.snapshot_graph(), args.delta)
        conflict_full_ms = (time.perf_counter() - t0) * 1e3
        conflict_ms = float(np.sum([cs.wall_time for cs in conflict_repairs])) / len(evs) * 1e3
        rows_recomputed = [cs.rows_recomputed for cs in conflict_repairs]
        crow = {
            "edges": int(di.n_edges),
            "mean_conflict_rows": float(np.mean(rows_recomputed)),
            "p95_conflict_rows": float(np.percentile(rows_recomputed, 95)),
            "entries_changed_per_event": float(
                np.mean([cs.entries_changed for cs in conflict_repairs])
            ),
            "conflict_ms_per_event": conflict_ms,
            "conflict_rebuild_ms": conflict_full_ms,
            "conflict_speedup": conflict_full_ms / conflict_ms if conflict_ms > 0 else float("inf"),
            "equality_mismatches": conflict_mismatches,
        }
        print()
        print(tables.render_table([crow], title=f"conflict repair — delta={args.delta:g}"))
    mix = ", ".join(f"{k}={v}" for k, v in sorted(events.counts().items()))
    print(f"event mix: {mix}")
    if args.parallel:
        line = (
            f"batch groups: {topo.batch_groups_total} across {len(steps)} steps "
            f"(backend: {args.backend}"
        )
        if topo.halo_nodes_total:
            line += f", halo entries: {topo.halo_nodes_total}"
        print(line + ")")
    backstop = "edge-for-edge equal" if not mismatches else "MISMATCH vs from-scratch ΘALG"
    print(f"final topology vs full rebuild: {backstop}")
    if di is not None:
        cb = "row-for-row equal" if not conflict_mismatches else "MISMATCH vs from-scratch interference_sets"
        print(f"final conflict rows vs full rebuild: {cb}")
    return 1 if mismatches or conflict_mismatches else 0
