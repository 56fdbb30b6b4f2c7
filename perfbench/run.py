#!/usr/bin/env python3
"""Whole-step benchmark of the simulation stack (see perfbench/README.md).

    python3 perfbench/run.py --workload {churn,traffic,service,pool,pool-serial} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Builds the workload from ``--seed``, measures it for ``--seconds`` and
checks its outputs.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer split from a separate traced run.  Human
readable lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Run it from the root
of a repository checkout (it imports ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("churn", "traffic", "service", "pool", "pool-serial")

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = [
    ("steps_per_s", "steps/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("events_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: Steady-state guard: the mean step (service: step-request) time of the
#: second half of the window may differ from the first half's by at most
#: this share.  Wider than the metric bounds: on a shared 2-core machine
#: the halves of a steady run differ by up to ±20% (slow steps come in
#: bursts: event mix, GC, the pool's backlog flush), while a workload
#: that is not steady — ``traffic`` from empty buffers — climbs by 60%.
STEADY_BOUND = 0.4


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size", default="full", choices=("full", "tiny"),
        help="tiny shrinks every workload for the self-test (default full)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Replace the script directory with the checkout root and its sources.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

    trace = bool(args.trace)
    # Tiny worlds (the self-test) are too small to reach a steady state.
    steady = STEADY_BOUND if args.size == "full" else float("inf")
    if args.workload == "service":
        from perfbench import service

        result = service.run(args.seed, args.seconds, trace, args.size, steady)
    else:
        from perfbench import sim

        result = sim.run(args.workload, args.seed, args.seconds, trace, args.size, steady)

    if trace:
        from perfbench.spans import PER_LAYER

        table = PER_LAYER
    else:
        table = END_TO_END
    info = result["info"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    for key, value in info.items():
        if key != "problems":
            print(f"#   {key}: {value}")
    for problem in info["problems"]:
        print(f"# FAIL {problem}")
    metrics = {}
    for name, unit in table:
        value = float(result["metrics"][name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:42s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
