"""One simulation step of the routing layer, timed with pytest-benchmark.

Three cases, all at n=1000 with 4 sinks:

* ``test_step_dynamic_mac`` — one churn-free ``SimulationEngine.step``
  over a maintained ΘALG topology with the §3.3 ``DynamicMAC`` (Δ=0.5):
  MAC activation, (T, γ)-balancing decide, guard-zone resolve, apply and
  ~10 injections.  This is the step a ``repro serve`` session runs
  between churn batches.
* ``test_step_dynamic_churn`` — the same engine step carrying a churn
  batch of one fail, one recover, one join and one leave, the shape of
  a ``repro serve`` session's churn step: ΘALG repair, conflict-row
  repair and the MAC's per-version refresh, then the routing step.
* ``test_step_balancing_mac_free`` — one ``BalancingRouter.run_step``
  over every directed edge of the static topology, on a world whose
  buffers were pre-loaded, so decide and apply carry hundreds of
  attempts per step.

All run in the CI bench-smoke job and are gated against
``BENCH_baseline.json`` by ``check_regression.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    BalancingConfig,
    BalancingRouter,
    DynamicInterference,
    DynamicTopology,
    EventTrace,
    FailStop,
    IncrementalTheta,
    NodeJoin,
    NodeLeave,
    Recover,
    SimulationEngine,
    max_range_for_connectivity,
    theta_algorithm,
    uniform_points,
)
from repro.dynamic import DynamicMAC, LiveEventSchedule

N = 1000
SINKS = [0, 1, 2, 3]
THETA = math.pi / 9


def _traffic(seed: int, n: int, rate: float):
    gen = np.random.default_rng(seed)

    def injections(t):
        out = []
        for _ in range(int(gen.poisson(rate))):
            src, dest = int(gen.integers(n)), SINKS[int(gen.integers(len(SINKS)))]
            if src != dest:
                out.append((src, dest, 1))
        return out

    return injections


@pytest.fixture(scope="module")
def mac_engine():
    pts = uniform_points(N, rng=0)
    inc = IncrementalTheta(pts, THETA, max_range_for_connectivity(pts, slack=1.5))
    di = DynamicInterference(inc, 0.5)
    dyn = DynamicTopology(inc, EventTrace([], horizon=0), interference=di)
    mac = DynamicMAC(di, rng=1)
    router = BalancingRouter(dyn.capacity, SINKS, BalancingConfig(0.0, 0.0, 64))
    engine = SimulationEngine(router, injections_fn=_traffic(2, N, 10.0), dynamic=dyn, mac=mac)
    engine.run_steps(300)  # fill buffers up to a steady state
    return engine


def test_step_dynamic_mac(benchmark, mac_engine):
    before = mac_engine.router.stats.attempts
    benchmark(mac_engine.step)
    stats = mac_engine.router.stats
    assert stats.attempts > before
    assert stats.interference_failures > 0


def test_step_dynamic_churn(benchmark):
    pts = uniform_points(N, rng=0)
    inc = IncrementalTheta(pts, THETA, max_range_for_connectivity(pts, slack=1.5))
    di = DynamicInterference(inc, 0.5)
    schedule = LiveEventSchedule()
    dyn = DynamicTopology(inc, schedule, interference=di, capacity=2 * N)
    mac = DynamicMAC(di, rng=1)
    router = BalancingRouter(dyn.capacity, SINKS, BalancingConfig(0.0, 0.0, 64))
    engine = SimulationEngine(router, injections_fn=_traffic(2, N, 10.0), dynamic=dyn, mac=mac)
    engine.run_steps(100)
    gen = np.random.default_rng(6)
    alive = set(range(len(SINKS), N))
    failed: "list[int]" = []
    gone: "list[int]" = []

    def churn_step():
        # A fail, a recover, a join (re-populating a departed slot when
        # there is one) and a leave, all valid, at the engine's next step.
        doomed, leaving = (int(v) for v in gen.choice(sorted(alive), 2, replace=False))
        t = engine.t
        schedule.append(t, FailStop(doomed))
        if failed:
            back = failed.pop(0)
            schedule.append(t, Recover(back))
            alive.add(back)
        new = gone.pop(0) if gone else inc.size
        schedule.append(t, NodeJoin(new, float(gen.random()), float(gen.random())))
        alive.add(new)
        schedule.append(t, NodeLeave(leaving))
        alive.difference_update((doomed, leaving))
        failed.append(doomed)
        gone.append(leaving)
        return engine.step()

    churn_step()
    benchmark(churn_step)
    assert dyn.events_applied >= 8
    assert not inc.check_full_equivalence()


def test_step_balancing_mac_free(benchmark):
    pts = uniform_points(N, rng=3)
    g = theta_algorithm(pts, THETA, max_range_for_connectivity(pts, slack=1.5)).graph
    router = BalancingRouter(g.n_nodes, SINKS, BalancingConfig(1.0, 0.0, 64))
    gen = np.random.default_rng(4)
    for _ in range(4000):
        src = int(gen.integers(len(SINKS), N))
        router.inject(src, SINKS[int(gen.integers(len(SINKS)))], 2)
    edges = g.directed_edge_array()
    costs = np.concatenate([g.edge_costs, g.edge_costs])
    traffic = _traffic(5, N, 10.0)
    for t in range(50):
        router.run_step(edges, costs, traffic(t))

    def step():
        return router.run_step(edges, costs, traffic(0))

    assert len(router.decide(edges, costs)) >= 100
    benchmark(step)
    assert router.stats.delivered > 0
