#!/usr/bin/env python3
"""Self-test of the benchmark (about a minute on 2 cores).

    python3 perfbench/selfcheck.py

1. Runs every workload — the two ``BENCHMARK.json`` lists and the three
   kept out of it as unsteady — at ``--size tiny``, untraced and then
   traced, and checks each result line: exit status 0, a correct run,
   exactly the metric names and units ``BENCHMARK.json`` lists, and the
   same checkpoint digest traced and untraced.
2. Checks that the checks catch what they are for: a corrupted output (a
   packet lost from the stats, an edge dropped from the maintained
   topology) and a leaked worker process and shared-memory segment.

Exits 0 when everything holds, 1 otherwise (the failures are printed).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def bench(workload: str, trace: int) -> "tuple[dict | None, str, str]":
    """Run one tiny benchmark; returns (result line, digest, failure)."""
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "3", "--trace", str(trace), "--size", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "", f"exit {proc.returncode}: {proc.stderr.strip()[-600:]}"
    match = re.search(r"checkpoint_digest: (\w+)", proc.stdout)
    problems = "; ".join(line[len("# FAIL ") :] for line in lines if line.startswith("# FAIL "))
    return json.loads(lines[-1]), match.group(1) if match else "", problems


def check_runs(spec: dict) -> "list[str]":
    from perfbench.run import WORKLOADS

    failures = []
    for workload in WORKLOADS:
        digests = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            t0 = time.perf_counter()
            result, digest, failure = bench(workload, trace)
            label = f"{workload} trace={trace}"
            print(f"{label}: {time.perf_counter() - t0:.1f}s", flush=True)
            if result is None:
                failures.append(f"{label}: {failure}")
                continue
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: {result['failed']} failed operations: {failure}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                diff = sorted(set(got.items()) ^ set(want.items()))
                failures.append(f"{label}: metrics differ from BENCHMARK.json {key}: {diff}")
            digests.append(digest)
        if len(digests) == 2 and (not digests[0] or digests[0] != digests[1]):
            failures.append(f"{workload}: traced and untraced checkpoint digests differ: {digests}")
    return failures


def check_checks() -> "list[str]":
    """Corrupt an output and leak a worker; the checks must notice."""
    import multiprocessing
    from multiprocessing import shared_memory

    from perfbench import common, sim

    failures = []
    stack = sim.build_churn(SEED, sim.PARAMS["churn"]["tiny"], 1.0)
    for _ in range(8):
        stack.engine.step()
    if any(sim.correctness_problems(stack).values()):
        failures.append("checks fail on an intact run")
    stack.router.stats.delivered += 1
    if not sim.correctness_problems(stack)["conservation"]:
        failures.append("conservation check missed a packet counted as delivered twice")
    stack.router.stats.delivered -= 1
    inc = stack.topo.incremental
    inc._edge_dirs.pop(next(iter(inc._edge_dirs)))
    if not sim.correctness_problems(stack)["theta_equivalence"]:
        failures.append("ΘALG equivalence check missed a dropped edge")

    before = common.shm_segments()
    worker = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
    worker.start()
    segment = shared_memory.SharedMemory(create=True, size=64)
    problems = common.cleanup_problems(before)
    if not any("child process" in p for p in problems):
        failures.append("clean-up check missed a leaked worker process")
    if not any(segment.name in p for p in problems):
        failures.append("clean-up check missed a leaked shared-memory segment")
    worker.terminate()
    worker.join(5)
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # the stopped resource tracker already unlinked it
        pass
    leftover = common.cleanup_problems(before)
    if leftover:
        failures.append(f"clean-up check still reports after cleaning: {leftover}")
    return failures


def main() -> int:
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = check_runs(spec) + check_checks()
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print("selfcheck: every workload runs tiny, traced and untraced, and the checks catch faults")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
