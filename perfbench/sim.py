"""The in-process workloads: ``churn``, ``traffic`` and ``pool``.

Each builds the real stack — :class:`~repro.sim.engine.SimulationEngine`
over :class:`~repro.dynamic.incremental.DynamicTopology` (optionally with
:class:`~repro.dynamic.interference.DynamicInterference` /
:class:`~repro.dynamic.interference.DynamicMAC` and the process-backend
:class:`~repro.parallel.pool.TileWorkerPool`) driving a
:class:`~repro.core.balancing.BalancingRouter` — from generated inputs,
then steps it for a timed window and checks the outcome.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import common
from perfbench.spans import Recorder, engine_hooks, layer_hooks, per_layer_metrics

THETA = math.pi / 9
DELTA = 0.5
KAPPA = 2.0
#: Buffer bound H: large enough that no workload ever drops a packet.
BUFFER = 1 << 20
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``churn`` runs every seed on one world (points and sinks): its step
#: cost moved by up to 1.75× between seeded worlds, so the seed drives
#: only the events, the traffic and the MAC draws.
WORLD_SEED = 0

#: Workload sizes.  ``checkpoint`` (steps after warm-up, a multiple of
#: the block size) is where the digest and exact work counts are taken;
#: ``max_rate`` (steps/s) only sizes the pre-generated event trace.
PARAMS = {
    "churn": {
        "full": dict(n=2000, per_step=20, rate=20.0, dests=4, warmup=2, checkpoint=24, max_rate=50),
        "tiny": dict(n=150, per_step=2, rate=4.0, dests=2, warmup=1, checkpoint=8, max_rate=100),
    },
    "traffic": {
        "full": dict(n=1000, rate=100.0, dests=16, preload=5, warmup=2, checkpoint=48),
        "tiny": dict(n=120, rate=10.0, dests=3, preload=5, warmup=1, checkpoint=8),
    },
    "pool": {
        "full": dict(
            clusters=8, per_cluster=125, moves=10, rate=8.0, workers=2, warmup=3, checkpoint=48,
            max_rate=150, backend="process",
        ),
        "tiny": dict(
            clusters=8, per_cluster=25, moves=4, rate=2.0, workers=2, warmup=1, checkpoint=8,
            max_rate=100, backend="process",
        ),
    },
}
#: The same world and churn applied by serial batched repair: bypasses
#: ``parallel/``, so a pool change must leave it unchanged.
PARAMS["pool-serial"] = {size: dict(p, backend="serial") for size, p in PARAMS["pool"].items()}


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per input stream of one workload seed."""
    return np.random.default_rng([int(seed), stream])


def _typical_uniform(seed: int, n: int, side: float) -> np.ndarray:
    """The first of the seed's uniform draws with a typical critical range."""
    from repro.geometry.pointsets import uniform_points

    for draw in range(common.MAX_DRAWS):
        pts = uniform_points(n, side=side, rng=_rng(seed, 100 + draw))
        if common.is_typical(pts, side):
            break
    return pts


class _Timings(dict):
    """``with timings("theta_s"):`` adds the block's wall seconds."""

    def __call__(self, key: str):
        timings = self

        class _Block:
            def __enter__(self):
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                timings[key] = timings.get(key, 0.0) + time.perf_counter() - self.t0

        return _Block()


class PoissonTraffic:
    """``injections_fn``: Poisson(rate) single packets per step.

    ``pick(gen)`` returns one ``(src, dest)`` pair; self-addressed picks
    are skipped, as the session server does.
    """

    def __init__(self, gen: np.random.Generator, rate: float, pick) -> None:
        self.gen = gen
        self.rate = float(rate)
        self.pick = pick

    def __call__(self, t: int) -> "list[tuple[int, int, int]]":
        out = []
        for _ in range(int(self.gen.poisson(self.rate))):
            src, dest = self.pick(self.gen)
            if src != dest:
                out.append((src, dest, 1))
        return out


@dataclass
class Stack:
    """One built workload: the engine and what the checks need."""

    engine: object
    router: object
    topo: object
    series: object
    horizon: "int | None"
    warmup: int
    checkpoint: int
    timings: dict = field(default_factory=dict)
    #: whether the ΘALG / conflict-row equivalence backstops apply.
    maintained: bool = True

    @property
    def pool(self):
        return self.topo._pool

    def close(self) -> None:
        self.topo.close()

    def work_counts(self) -> "dict[str, float]":
        """Exact cumulative work counts (they repeat for a seed)."""
        series, stats, pool = self.series, self.router.stats, self.pool
        return {
            "count.events_applied": series.final("events_applied"),
            "count.nodes_touched": series.final("repair_nodes_touched"),
            "count.conflict_rows": series.final("conflict_rows_touched"),
            "count.batch_groups": series.final("batch_groups"),
            "count.halo_entries": series.final("halo_nodes"),
            "count.diffs_suppressed": pool.diffs_suppressed_total if pool is not None else 0,
            "count.decide_tx": stats.attempts,
            "count.mac_successes": stats.successes,
            "count.delivered": stats.delivered,
            "count.sse_frames": 0,
        }

    def digest_payload(self) -> dict:
        inc = self.topo.incremental
        return {
            "stats": self.router.stats.to_dict(),
            "series": self.series.summary(),
            "counts": self.work_counts(),
            "edges": common.digest_of(inc.edge_array().tolist()),
            "heights": common.digest_of(self.router.heights.tolist()),
        }


def _engine(router, topo, traffic, mac=None):
    from repro.obs.metrics import StepSeries
    from repro.sim.engine import SimulationEngine

    series = StepSeries()
    engine = SimulationEngine(router, injections_fn=traffic, dynamic=topo, mac=mac, step_series=series)
    return engine, series


def build_churn(seed: int, p: dict, seconds: float) -> Stack:
    """n uniform nodes, 1%/step mixed churn, MAC, 4 never-removed sinks."""
    from repro.core.balancing import BalancingConfig, BalancingRouter
    from repro.dynamic.events import EventTrace, FailStop, NodeLeave, Recover, random_event_trace
    from repro.dynamic.incremental import DynamicTopology, IncrementalTheta
    from repro.dynamic.interference import DynamicInterference, DynamicMAC
    from repro.graphs.transmission import max_range_for_connectivity

    t = _Timings()
    n, per = p["n"], p["per_step"]
    side = math.sqrt(n)
    pts = _typical_uniform(WORLD_SEED, n, side)
    with t("range_s"):
        d = max_range_for_connectivity(pts, slack=1.5)
    horizon = p["warmup"] + p["checkpoint"] + int(seconds * p["max_rate"]) + 1
    dests = sorted(int(v) for v in _rng(WORLD_SEED, 2).choice(n, p["dests"], replace=False))
    raw = random_event_trace(pts, per * horizon, side=side, move_sigma=d / 2, rng=_rng(seed, 1))
    # Pack the one-event-per-step trace into steps of ``per`` events, in
    # order.  Sinks never go down: their leave/fail/recover events are
    # dropped (the rest of the trace stays valid).  A step also closes
    # early rather than remove one node twice (fail, recover, fail): the
    # engine would charge that node's buffer to churn_drops twice.  The
    # packed prefix does not depend on the horizon, so checkpoint digests
    # do not depend on --seconds.
    items, step, size, removed = [], 0, 0, set()
    for _, ev in raw:
        gone = isinstance(ev, (NodeLeave, FailStop))
        if ev.node in dests and (gone or isinstance(ev, Recover)):
            continue
        if size == per or (gone and ev.node in removed):
            step, size, removed = step + 1, 0, set()
        items.append((step, ev))
        size += 1
        if gone:
            removed.add(ev.node)
    horizon = step  # the last step may be short: it is never run
    trace = EventTrace(items)
    with t("theta_s"):
        inc = IncrementalTheta(pts, THETA, d, kappa=KAPPA)
    with t("conflict_s"):
        di = DynamicInterference(inc, DELTA)
    with t("session_s"):
        topo = DynamicTopology(inc, trace, interference=di)
        mac = DynamicMAC(di, rng=_rng(seed, 3))
        router = BalancingRouter(topo.capacity, dests, BalancingConfig(0.0, 0.0, BUFFER))

        def pick(gen):
            alive = topo.alive_ids()
            return int(alive[int(gen.integers(len(alive)))]), dests[int(gen.integers(len(dests)))]

        engine, series = _engine(router, topo, PoissonTraffic(_rng(seed, 4), p["rate"], pick), mac)
    return Stack(engine, router, topo, series, horizon, p["warmup"], p["checkpoint"], dict(t))


def build_traffic(seed: int, p: dict, seconds: float) -> Stack:
    """Churn-free routing load on pre-loaded buffers (no MAC)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    from repro.core.balancing import BalancingConfig, BalancingRouter
    from repro.dynamic.events import EventTrace
    from repro.dynamic.incremental import DynamicTopology, IncrementalTheta
    from repro.graphs.transmission import max_range_for_connectivity

    t = _Timings()
    n = p["n"]
    pts = _typical_uniform(seed, n, math.sqrt(n))
    with t("range_s"):
        d = max_range_for_connectivity(pts, slack=1.5)
    with t("theta_s"):
        inc = IncrementalTheta(pts, THETA, d, kappa=KAPPA)
    dests = sorted(int(v) for v in _rng(seed, 2).choice(n, p["dests"], replace=False))
    with t("session_s"):
        topo = DynamicTopology(inc, EventTrace([], horizon=0))
        router = BalancingRouter(topo.capacity, dests, BalancingConfig(0.0, 0.0, BUFFER))

        def pick(gen):
            return int(gen.integers(n)), dests[int(gen.integers(len(dests)))]

        engine, series = _engine(router, topo, PoissonTraffic(_rng(seed, 4), p["rate"], pick))
    # A t=0 burst of ``preload`` packets per hop of distance to each sink:
    # the buffers start on the gradient the load sustains (about as many
    # deliveries per step as injections), so step cost is flat from the
    # first step instead of climbing for thousands of steps.
    edges = inc.edge_array()
    adj = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)).tocsr()
    hops = shortest_path(adj, directed=False, unweighted=True, indices=dests)
    for k, dest in enumerate(dests):
        for v, h in enumerate(hops[k].tolist()):
            if v != dest and math.isfinite(h):
                router.inject(v, dest, int(p["preload"] * h))
    return Stack(engine, router, topo, series, None, p["warmup"], p["checkpoint"], dict(t), maintained=False)


def build_pool(seed: int, p: dict, seconds: float) -> Stack:
    """Far-apart dense clusters churned through the 2-worker process pool."""
    from repro.core.balancing import BalancingConfig, BalancingRouter
    from repro.dynamic.events import EventTrace, NodeMove
    from repro.dynamic.incremental import DynamicTopology, IncrementalTheta
    from repro.dynamic.interference import DynamicInterference, DynamicMAC

    t = _Timings()
    k, per = p["clusters"], p["per_cluster"]
    d, spacing = 2.0, 400.0
    gen = _rng(seed, 0)
    lattice = [(x, y) for x in range(4) for y in range(2)][:k]
    centers = (np.array(lattice, dtype=np.float64) + 0.5) * spacing
    pts = np.vstack([c + gen.normal(scale=3 * d, size=(per, 2)) for c in centers])
    n = len(pts)
    horizon = p["warmup"] + p["checkpoint"] + int(seconds * p["max_rate"]) + 1
    moves = _rng(seed, 1)
    items = []
    for step in range(horizon):
        ids = moves.choice(n, size=p["moves"], replace=False)
        new = centers[ids // per] + moves.normal(scale=3 * d, size=(len(ids), 2))
        items.extend(
            (step, NodeMove(int(i), float(x), float(y))) for i, (x, y) in zip(ids.tolist(), new.tolist())
        )
    trace = EventTrace(items, horizon=horizon)
    with t("theta_s"):
        inc = IncrementalTheta(pts, THETA, d, kappa=KAPPA)
    with t("conflict_s"):
        di = DynamicInterference(inc, DELTA)
    topo = DynamicTopology(
        inc, trace, interference=di, parallel=True, backend=p["backend"], workers=p["workers"]
    )
    if p["backend"] == "process":
        with t("pool_s"):
            topo._process_pool()
    dest_gen = _rng(seed, 2)
    dests = [c * per + int(dest_gen.integers(per)) for c in range(k)]
    with t("session_s"):
        mac = DynamicMAC(di, rng=_rng(seed, 3))
        router = BalancingRouter(topo.capacity, dests, BalancingConfig(0.0, 0.0, BUFFER))

        def pick(g):
            c = int(g.integers(k))
            return c * per + int(g.integers(per)), dests[c]

        engine, series = _engine(router, topo, PoissonTraffic(_rng(seed, 4), p["rate"], pick), mac)
    return Stack(engine, router, topo, series, horizon, p["warmup"], p["checkpoint"], dict(t))


BUILDERS = {"churn": build_churn, "traffic": build_traffic, "pool": build_pool, "pool-serial": build_pool}


def _timed(fn, acc: list):
    """Wrap ``fn`` so each call adds its wall seconds to ``acc[0]``."""

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[0] += time.perf_counter() - t0

    return wrapper


def correctness_problems(stack: Stack) -> "dict[str, list[str]]":
    """Outcome checks of a finished run, by name (empty lists pass)."""
    router, stats, series = stack.router, stack.router.stats, stack.series
    leftover = router.total_packets()
    out = {
        "conservation": []
        if stats.accepted == stats.delivered + leftover + stats.churn_drops
        else [
            f"accepted {stats.accepted} != delivered {stats.delivered} + leftover {leftover}"
            f" + churn_drops {stats.churn_drops}"
        ],
        "series": series.reconcile(stats.to_dict())
        + ([] if len(series) == stack.engine.t else [f"{len(series)} rows for {stack.engine.t} steps"]),
    }
    if stack.maintained:
        inc, di = stack.topo.incremental, stack.topo.interference
        diff = inc.check_full_equivalence()
        out["theta_equivalence"] = [f"{len(diff)} edges differ from a from-scratch ΘALG"] if diff else []
        rows = di.check_full_equivalence()
        out["conflict_equivalence"] = [f"{rows} conflict rows differ from a rebuild"] if rows else []
    return out


def run(name: str, seed: int, seconds: float, trace: bool, size: str, steady_bound: float) -> dict:
    """Set up, time, check and tear down one in-process workload."""
    p = PARAMS[name][size]
    build = BUILDERS[name]
    checks = common.Checks()
    shm_before = common.shm_segments()
    setups, stack = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if stack is not None:
                stack.close()
                stack = None
                gc.collect()
            t0 = time.perf_counter()
            stack = build(seed, p, seconds)
            for _ in range(stack.warmup):
                stack.engine.step()
            setups.append((time.perf_counter() - t0, stack.timings))
        spans_path = common.STATE_DIR / "spans" / f"{name}-{size}-seed{seed}.jsonl"
        out = _window(stack, seconds, trace, spans_path)
        stack.close()
        checks.extend(common.cleanup_problems(shm_before), "clean-up")
        for what, problems in correctness_problems(stack).items():
            checks.extend(problems, what)
    finally:
        if stack is not None:
            stack.close()

    key = f"{name}|{size}|seed={seed}|{common.source_digest()}"
    problem = common.check_digest(key, out["digest"])
    checks.check(problem is None, problem or "")
    drift = common.halves_drift(out["step_s"])
    checks.check(
        abs(drift) <= steady_bound,
        f"steady-state guard: second-half step time differs by {drift:+.1%}"
        f" (bound {steady_bound:.0%})",
    )
    attempted = len(out["step_s"]) + checks.attempted
    failed = len(checks.problems)
    info = {
        "steps": len(out["step_s"]),
        "window_s": out["window_s"],
        "checkpoint_digest": out["digest"][:16],
        "steady_drift": drift,
        "problems": checks.problems,
    }
    setup_s = common.median([s for s, _ in setups])
    if not trace:
        step_s, block_s, write_s = out["step_s"], out["block_s"], out["write_s"]
        metrics = {
            "steps_per_s": len(step_s) / out["window_s"],
            "step_ms_p50": 1e3 * common.median(step_s),
            "step_ms_p90": 1e3 * common.percentile(step_s, 90),
            "request_ms_p50": 1e3 * common.median(block_s),
            "request_ms_p90": 1e3 * common.percentile(block_s, 90),
            "events_ms_p50": 1e3 * common.median(write_s),
            "setup_s": setup_s,
            "peak_rss_mb": out["rss_mb"],
        }
        info["samples"] = {"step": len(step_s), "request": len(block_s), "events": len(write_s)}
    else:
        timings = {key: common.median([t.get(key, 0.0) for _, t in setups]) for key in setups[0][1]}
        extra = {
            "setup.range_s": timings.get("range_s", 0.0),
            "setup.theta_s": timings.get("theta_s", 0.0),
            "setup.conflict_s": timings.get("conflict_s", 0.0),
            "setup.pool_s": timings.get("pool_s", 0.0),
            "setup.session_ms": 1e3 * timings.get("session_s", 0.0),
            "trace.overhead": out["overhead"],
            "parallel.pool.worker_cpu_share": out["worker_cpu_s"] / out["traced_wall"],
            "bench.error_rate": failed / attempted,
        }
        extra.update(out["counts"])
        metrics = per_layer_metrics(
            out["summary"], wall=out["traced_wall"], steps=out["traced_steps"], extra=extra
        )
        info["spans"] = out["summary"]["spans"]
        info["spans_file"] = out["spans_file"]
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "info": info}


def _window(stack: Stack, seconds: float, trace: bool, spans_path) -> dict:
    """The timed loop: blocks of steps until ``seconds`` pass and the checkpoint is in.

    Untraced runs time every step, every block (the in-process analogue
    of one 4-step request) and each step's writes — churn application in
    ``DynamicTopology.step`` plus packet admission in
    ``BalancingRouter.inject``.  Traced runs alternate traced and
    untraced blocks; shares use the traced blocks' wall, and the
    overhead compares the two kinds.
    """
    engine, router, topo = stack.engine, stack.router, stack.topo
    step_s, block_s, write_s = [], [], []
    acc = [0.0]
    rec = hooks = None
    if trace:
        rec = Recorder()
        hooks = layer_hooks() + engine_hooks([engine])
    else:
        topo.step = _timed(topo.step, acc)
        router.inject = _timed(router.inject, acc)
    pool = stack.pool
    worker_pids = [proc.pid for proc in pool._procs] if pool is not None else []
    checkpoint_t = stack.warmup + stack.checkpoint
    horizon = stack.horizon if stack.horizon is not None else math.inf
    wall = {True: 0.0, False: 0.0}
    steps = {True: 0, False: 0}
    worker_cpu = 0.0
    counts = digest = rss_mb = None
    excluded = 0.0
    block = 0
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    try:
        while engine.t + common.BLOCK <= horizon:
            if counts is not None and time.perf_counter() >= deadline:
                break
            tracing = trace and block % 2 == 0
            if tracing:
                rec.install(hooks)
                cpu0 = sum(common.cpu_seconds(pid) for pid in worker_pids)
            b0 = time.perf_counter()
            for _ in range(common.BLOCK):
                s0 = time.perf_counter()
                engine.step()
                step_s.append(time.perf_counter() - s0)
                write_s.append(acc[0])
                acc[0] = 0.0
            b1 = time.perf_counter()
            if tracing:
                rec.uninstall()
                worker_cpu += sum(common.cpu_seconds(pid) for pid in worker_pids) - cpu0
            block_s.append(b1 - b0)
            wall[tracing] += b1 - b0
            steps[tracing] += common.BLOCK
            block += 1
            if counts is None and engine.t >= checkpoint_t:
                c0 = time.perf_counter()
                counts = stack.work_counts()
                digest = common.digest_of(stack.digest_payload())
                # Peak RSS up to a fixed amount of work: what the program
                # keeps per step served would otherwise grow with its speed.
                rss_mb = common.vm_hwm_mb() + sum(common.vm_hwm_mb(pid) for pid in worker_pids)
                excluded += time.perf_counter() - c0
        window_s = time.perf_counter() - t_begin - excluded
    finally:
        if rec is not None:
            rec.uninstall()
        vars(topo).pop("step", None)
        vars(router).pop("inject", None)
    out = {
        "step_s": step_s,
        "block_s": block_s,
        "write_s": write_s,
        "window_s": window_s,
        "counts": counts,
        "digest": digest,
        "rss_mb": rss_mb,
    }
    if trace:
        per_traced = wall[True] / max(steps[True], 1)
        per_untraced = wall[False] / max(steps[False], 1)
        out.update(
            summary=rec.summary(),
            traced_wall=wall[True],
            traced_steps=steps[True],
            worker_cpu_s=worker_cpu,
            overhead=per_traced / per_untraced - 1.0 if steps[False] else 0.0,
            spans_file=common.dump_spans(rec, spans_path),
        )
    return out
