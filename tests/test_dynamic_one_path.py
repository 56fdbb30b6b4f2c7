"""One churn route: ``DynamicTopology.step`` against per-event repair.

``DynamicTopology.step`` repairs all of a step's events in one
batch-wide pass (:func:`repro.dynamic.batching.apply_events_parallel`).
The per-event route it replaced — ``IncrementalTheta.apply`` then
``DynamicInterference.update_event`` for each event — is kept here as a
reference (:func:`per_event_step`), and a full simulation is run through
both from one generated scenario:

* uniform and clustered strip worlds, ``SimulationEngine`` with a
  ``DynamicMAC`` and a ``BalancingRouter``;
* multi-event steps holding fail + recover of one node, a move of a
  failed node, fail + move + recover of one node, leave plus a fresh
  join, local and long moves, next to one-event and empty steps;
* the serial and the process backend;
* a live :class:`~repro.service.session.Session` fed multi-event
  batches.

Edge arrays after every step, conflict rows, RoutingStats and every
StepSeries column except the three churn-work columns
(``repair_nodes_touched``, ``conflict_rows_touched``, ``batch_groups``,
counted per event group on the batch route) must be identical; on the
process backend ``halo_nodes`` counts its cross-process traffic too.  An
exact-work gate pins the route itself: one ``_repair_groups`` and one
``update_groups`` call per step, whatever its event count.
"""

import math
from collections import Counter
from types import MethodType

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
    NodeMove,
    Recover,
    SimulationEngine,
)
from repro.dynamic import DynamicMAC
from repro.dynamic.incremental import StepChurn
from repro.obs.metrics import StepSeries
from repro.service.protocol import parse_session_config
from repro.service.session import SessionManager
from tests.test_dynamic_conflict_store import _count_calls

THETA = math.pi / 9
DELTA = 0.5
D = 1.0
#: A strip of 48D × 4D: wider than two 2(4+Δ)D independence widths, so
#: the default tile cover gives a 2-worker process pool a tile each.
WIDTH, HEIGHT = 48.0, 4.0
DESTS = [0, 1]
STEPS = 36
#: StepSeries columns the batch route counts per event group.
CHURN_WORK = {"repair_nodes_touched", "conflict_rows_touched", "batch_groups"}


def per_event_step(dyn, t: int) -> StepChurn:
    """The per-event route: ``apply`` and ``update_event`` per event."""
    churn = StepChurn()
    for ev in dyn.events.at(t):
        stats = dyn.incremental.apply(ev)
        churn.events_applied += 1
        churn.nodes_touched += stats.nodes_touched
        churn.edges_flipped += stats.edges_flipped
        churn.repairs.append(stats)
        if dyn.interference is not None:
            cs = dyn.interference.update_event(stats)
            churn.conflict_repairs.append(cs)
            churn.conflict_rows_touched += cs.rows_recomputed
            churn.conflict_entries_changed += cs.entries_changed
        if isinstance(ev, FailStop):
            churn.failed_nodes.append(ev.node)
            churn.removed_nodes.append(ev.node)
        elif isinstance(ev, NodeLeave):
            churn.removed_nodes.append(ev.node)
        elif isinstance(ev, (NodeJoin, Recover)):
            churn.joined_nodes.append(ev.node)
    dyn.events_applied += churn.events_applied
    dyn.nodes_touched_total += churn.nodes_touched
    dyn.edges_flipped_total += churn.edges_flipped
    dyn.conflict_rows_total += churn.conflict_rows_touched
    dyn.conflict_entries_total += churn.conflict_entries_changed
    dyn.repairs.extend(churn.repairs)
    return churn


def strip_world(layout: str, gen: np.random.Generator) -> np.ndarray:
    if layout == "uniform":
        return gen.random((300, 2)) * [WIDTH, HEIGHT]
    centers = np.column_stack([np.arange(6) * 8.0 + 4.0, np.full(6, HEIGHT / 2)])
    pts = centers[gen.integers(6, size=280)] + gen.normal(scale=1.0, size=(280, 2))
    return np.clip(pts, 0.0, [WIDTH, HEIGHT])


class _Churn:
    """Valid events against a tracked alive/failed/departed state."""

    def __init__(self, gen, pts, protected) -> None:
        self.gen = gen
        self.pos = {i: (float(x), float(y)) for i, (x, y) in enumerate(pts)}
        self.alive = [i for i in range(len(pts)) if i not in protected]
        self.failed: "list[int]" = []
        self.next_id = len(pts)

    def _take(self, pool) -> int:
        return pool.pop(int(self.gen.integers(len(pool))))

    def _near(self, u, scale=D):
        xy = np.clip(np.array(self.pos[u]) + self.gen.normal(scale=scale, size=2), 0.0, [WIDTH, HEIGHT])
        self.pos[u] = (float(xy[0]), float(xy[1]))
        return self.pos[u]

    def _anywhere(self, u):
        x, y = self.gen.random(2) * [WIDTH, HEIGHT]
        self.pos[u] = (float(x), float(y))
        return self.pos[u]

    def motif(self, name: str) -> list:
        if name == "move":
            u = self.alive[int(self.gen.integers(len(self.alive)))]
            return [NodeMove(u, *self._near(u))]
        if name == "long move":
            u = self.alive[int(self.gen.integers(len(self.alive)))]
            return [NodeMove(u, *self._anywhere(u))]
        if name == "fail":
            u = self._take(self.alive)
            self.failed.append(u)
            return [FailStop(u)]
        if name == "recover" and self.failed:
            u = self._take(self.failed)
            self.alive.append(u)
            return [Recover(u)]
        if name == "dead move" and self.failed:
            u = self.failed[int(self.gen.integers(len(self.failed)))]
            return [NodeMove(u, *self._near(u, 2 * D))]
        if name == "fail recover":
            u = self.alive[int(self.gen.integers(len(self.alive)))]
            return [FailStop(u), Recover(u)]
        if name == "fail move recover":
            u = self.alive[int(self.gen.integers(len(self.alive)))]
            return [FailStop(u), NodeMove(u, *self._near(u)), Recover(u)]
        if name == "leave join":
            u = self._take(self.alive)
            v, self.next_id = self.next_id, self.next_id + 1
            self.pos[v] = self.pos[u]
            self.alive.append(v)
            return [NodeLeave(u), NodeJoin(v, *self._near(v))]
        return self.motif("move")


#: Motifs of one event each.
SINGLE = ("move", "long move", "fail", "recover", "dead move")
MOTIFS = SINGLE + ("fail recover", "fail move recover", "leave join")


def scenario(gen, pts, steps: int) -> EventTrace:
    """Steps cycling through multi-event, one-event and empty steps."""
    churn = _Churn(gen, pts, set(DESTS))
    items = []
    for t in range(steps):
        shape = t % 4
        if shape == 3:
            continue  # an empty step
        if shape == 2:
            evs = churn.motif(SINGLE[int(gen.integers(len(SINGLE)))])
        else:
            k = int(gen.integers(2, 6))
            evs = [ev for m in gen.choice(len(MOTIFS), k) for ev in churn.motif(MOTIFS[int(m)])]
        items.extend((t, ev) for ev in evs)
    return EventTrace(items, horizon=steps)


def _simulate(pts, trace, route: str, seed: int):
    inc = IncrementalTheta(pts, THETA, D)
    di = DynamicInterference(inc, DELTA)
    backend = "process" if route == "process" else None
    dyn = DynamicTopology(inc, trace, interference=di, backend=backend, workers=2)
    if route == "per-event":
        dyn.step = MethodType(per_event_step, dyn)
    mac = DynamicMAC(di, rng=seed + 3)
    router = BalancingRouter(dyn.capacity, DESTS, BalancingConfig(0.0, 0.0, 64))
    gen = np.random.default_rng(seed + 4)

    def injections(t):
        alive = dyn.alive_ids()
        out = []
        for _ in range(3):
            src, dest = int(alive[int(gen.integers(len(alive)))]), DESTS[int(gen.integers(2))]
            if src != dest:
                out.append((src, dest, 2))
        return out

    series = StepSeries()
    engine = SimulationEngine(
        router, injections_fn=injections, dynamic=dyn, mac=mac, step_series=series
    )
    edges = []
    try:
        for _ in range(trace.horizon):
            engine.step()
            edges.append(dyn.active_edges().copy())
        if route == "process":
            assert dyn._pool is not None and dyn._pool.workers == 2
    finally:
        dyn.close()
    return {
        "edges": edges,
        "rows": di.interference_sets(),
        "stats": router.stats.to_dict(),
        "series": series.arrays(),
        "groups": dyn.batch_groups_total,
        "events": dyn.events_applied,
    }


@pytest.mark.parametrize("layout", ["uniform", "clustered"])
@pytest.mark.parametrize("seed", [3, 8])
def test_step_matches_per_event_repair(layout, seed):
    gen = np.random.default_rng(seed)
    pts = strip_world(layout, gen)
    trace = scenario(gen, pts, STEPS)
    assert len(trace) > STEPS
    ref = _simulate(pts, trace, "per-event", seed)
    for route in ("serial", "process"):
        got = _simulate(pts, trace, route, seed)
        for t, (a, b) in enumerate(zip(ref["edges"], got["edges"])):
            assert np.array_equal(a, b), (route, t)
        assert got["rows"] == ref["rows"], route
        assert got["stats"] == ref["stats"], route
        # halo_nodes counts state the process backend ships between
        # processes: 0 in-process, so it is compared on the serial route.
        skip = CHURN_WORK | ({"halo_nodes"} if route == "process" else set())
        for name, col in ref["series"].items():
            if name not in skip:
                assert np.array_equal(got["series"][name], col), (route, name)
        if route == "process":
            assert got["series"]["halo_nodes"][-1] > 0
        assert got["events"] == ref["events"] == len(trace)
        # Steps are merged into groups: never more repairs than events.
        assert 0 < got["groups"] <= len(trace)
        assert ref["groups"] == 0


# ----------------------------------------------------------------------
# A live session fed multi-event batches
# ----------------------------------------------------------------------
def _batches(gen, n: int, count: int) -> "list[list[dict]]":
    """Client batches: perfbench-style rows plus same-node chains."""
    alive, failed, next_id = set(range(n)) - set(DESTS), [], n
    out = []
    for b in range(count):
        rows = []
        src, doomed, leaving, flicker = (int(v) for v in gen.choice(sorted(alive), 4, replace=False))
        rows.append({"kind": "inject", "node": src, "dest": DESTS[b % 2], "count": 3})
        if b % 3 == 2:  # a one-row batch
            out.append([{"kind": "fail", "node": doomed}])
            alive.discard(doomed)
            failed.append(doomed)
            continue
        rows.append({"kind": "fail", "node": doomed})
        if failed:
            back = failed.pop(0)
            rows.append({"kind": "move", "node": back, "pos": [float(gen.random()), float(gen.random())]})
            rows.append({"kind": "recover", "node": back})
            alive.add(back)
        rows.append({"kind": "fail", "node": flicker})
        rows.append({"kind": "recover", "node": flicker})
        rows.append({"kind": "leave", "node": leaving})
        rows.append({"kind": "join", "node": next_id, "pos": [float(gen.random()), float(gen.random())]})
        rows.append({"kind": "inject", "node": next_id, "dest": DESTS[0], "count": 1})
        alive.add(next_id)
        next_id += 1
        alive -= {doomed, leaving}
        failed.append(doomed)
        out.append(rows)
    return out


def test_session_matches_per_event_repair():
    config = parse_session_config(
        {"n": 200, "seed": 5, "delta": DELTA, "dests": DESTS, "traffic_rate": 2.0}
    )
    manager = SessionManager(max_sessions=2)
    batch = manager.create(config)
    ref = manager.create(config)
    ref.dynamic.step = MethodType(per_event_step, ref.dynamic)
    try:
        for i, rows in enumerate(_batches(np.random.default_rng(9), config.n, 24)):
            for session in (batch, ref):
                session.inject(rows)
                session.advance(1 + i % 3)
            assert np.array_equal(batch.dynamic.active_edges(), ref.dynamic.active_edges()), i
        assert batch.dynamic.interference.interference_sets() == ref.dynamic.interference.interference_sets()
        assert batch.final_stats() == ref.final_stats()
        assert batch.router.total_packets() == ref.router.total_packets()
        got, want = batch.series.arrays(), ref.series.arrays()
        for name, col in want.items():
            if name not in CHURN_WORK:
                assert np.array_equal(got[name], col), name
        assert batch.dynamic.events_applied == ref.dynamic.events_applied > 0
        assert batch.dynamic.batch_groups_total > 0
    finally:
        manager.delete(batch.id)
        manager.delete(ref.id)


# ----------------------------------------------------------------------
# Exact work: one batch-wide call of each repair kernel per step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [1, 4, 20])
def test_step_makes_one_batch_wide_repair(monkeypatch, k):
    gen = np.random.default_rng(40 + k)
    pts = strip_world("uniform", gen)
    churn = _Churn(gen, pts, set(DESTS))
    evs = []
    while len(evs) < k:
        evs.extend(churn.motif(MOTIFS[len(evs) % len(MOTIFS)]))
    trace = EventTrace([(0, ev) for ev in evs[:k]], horizon=1)
    inc = IncrementalTheta(pts, THETA, D)
    di = DynamicInterference(inc, DELTA)
    dyn = DynamicTopology(inc, trace, interference=di)
    counts: Counter = Counter()
    _count_calls(
        monkeypatch,
        counts,
        [
            (IncrementalTheta, "_repair_groups"),
            (DynamicInterference, "update_groups"),
            (IncrementalTheta, "apply"),
            (DynamicInterference, "update_event"),
        ],
    )
    churn_stats = dyn.step(0)
    assert churn_stats.events_applied == k
    assert counts == {"_repair_groups": 1, "update_groups": 1}
    assert not inc.check_full_equivalence()
    assert di.check_full_equivalence() == 0
