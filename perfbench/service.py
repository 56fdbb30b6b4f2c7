"""The ``service`` workload: the session server driven over HTTP/SSE.

One closed-loop client with two connections: a keep-alive control
connection alternates ``POST /v1/sessions/{id}/step?steps=4`` between two
sessions, sending a ``POST .../events`` batch before every 4th step
request of a session, and one SSE subscriber follows the first session.
The server is ``perfbench/serve.py`` — ``repro serve`` plus the
benchmark's hooks — in a subprocess on loopback.
"""

from __future__ import annotations

import asyncio
import json
import re
import select
import signal
import subprocess
import sys
import time

import numpy as np

from perfbench import common
from perfbench.spans import per_layer_metrics

SESSIONS = 2
SETUP_REPEATS = 3
#: Sessions are built on fixed worlds (points, sinks, the server-side
#: traffic and MAC draws, all from the session seed): their step cost
#: moved by up to 1.5× between seeded worlds.  The workload seed drives
#: the client's event batches.
WORLD_SEED = 0
#: Steps per step request.
STEPS = 4

PARAMS = {
    "full": dict(n=1000, delta=0.5, dests=4, traffic_rate=10.0, checkpoint=48),
    "tiny": dict(n=100, delta=0.5, dests=2, traffic_rate=2.0, checkpoint=16),
}

#: Seconds to wait for the server to announce its port / to drain.
START_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _typical_session_seed(gen: np.random.Generator, n: int) -> int:
    """A session seed whose world (``uniform_points(n, rng=seed)``, as the
    server builds it) has a typical critical range."""
    from repro.geometry.pointsets import uniform_points

    for _ in range(common.MAX_DRAWS):
        seed = int(gen.integers(1 << 30))
        if common.is_typical(uniform_points(n, rng=seed)):
            break
    return seed


class Conn:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Conn":
        return cls(*await asyncio.open_connection("127.0.0.1", port, limit=1 << 24))

    async def request(self, method: str, path: str, body=None) -> "tuple[int, dict | None]":
        payload = json.dumps(body).encode() if body is not None else b""
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {len(payload)}\r\n\r\n".encode()
            + payload
        )
        await self.writer.drain()
        head = (await self.reader.readuntil(b"\r\n\r\n")).decode("latin-1")
        status = int(head.split(" ", 2)[1])
        length = 0
        for line in head.split("\r\n")[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        raw = await self.reader.readexactly(length) if length else b""
        return status, json.loads(raw) if raw else None

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def subscribe(port: int, sid: str) -> asyncio.Task:
    """Attach an SSE consumer; the task resolves to its (event, data) list."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
    writer.write(f"GET /v1/sessions/{sid}/series HTTP/1.1\r\nhost: bench\r\n\r\n".encode())
    await writer.drain()
    await reader.readuntil(b"\r\n\r\n")

    async def consume():
        events, buf = [], b""
        try:
            while True:
                while b"\n\n" in buf:
                    block, buf = buf.split(b"\n\n", 1)
                    text = block.decode().strip()
                    if not text or text.startswith(":"):
                        continue
                    fields = dict(ln.split(": ", 1) for ln in text.split("\n") if ": " in ln)
                    events.append((fields["event"], json.loads(fields["data"])))
                    if events[-1][0] in ("end", "evicted"):
                        return events
                chunk = await reader.read(1 << 16)
                if not chunk:
                    return events
                buf += chunk
        finally:
            writer.close()

    return asyncio.create_task(consume())


def stream_problems(events, final_stats: dict) -> "list[str]":
    """Hello baseline plus every step delta must equal the final stats."""
    from repro.obs.metrics import StepSeries

    if not events or events[0][0] != "hello":
        return ["stream did not start with a hello frame"]
    if events[-1][0] != "end":
        return [f"stream ended with {events[-1][0]!r}, not 'end'"]
    baseline = events[0][1]["baseline"]
    deltas = [d for e, d in events if e == "step"]
    problems = []
    steps = [d["step"] for d in deltas]
    first = events[0][1]["from_step"]
    if steps != list(range(first, first + len(steps))):
        problems.append("step frames out of order, duplicated or missing")
    for name in StepSeries.COUNTER_FIELDS + StepSeries.CHURN_FIELDS:
        total = baseline[name] + sum(d[name] for d in deltas)
        if name in final_stats and total != final_stats[name]:
            problems.append(f"{name}: baseline+deltas = {total}, final stats say {final_stats[name]}")
    return problems


class Server:
    """The launcher subprocess."""

    def __init__(self, spans_path) -> None:
        cmd = [sys.executable, str(common.ROOT / "perfbench" / "serve.py")]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        self.proc = subprocess.Popen(
            cmd, cwd=common.ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.kill()
            raise RuntimeError(f"server did not announce a port (got {line!r})")
        self.port = int(match.group(1))

    def stop(self) -> "int | None":
        """SIGTERM, wait for the drain; returns the exit code (None: killed)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            return None
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


class ClientSession:
    """Client-side view of one session: liveness tracking for valid batches."""

    def __init__(self, sid: str, n: int, dests: "list[int]", gen: np.random.Generator) -> None:
        self.id = sid
        self.gen = gen
        self.dests = list(dests)
        self.alive = set(range(n))
        self.failed: "list[int]" = []
        self.next_id = n
        self.capacity = 2 * n
        self.requests = 0

    def event_batch(self) -> "list[dict]":
        """One inject row plus fail/recover/join/leave rows, all valid.

        The join and the leave keep the live population steady, so step
        cost does not creep up over the window.
        """
        g = self.gen
        pool = sorted(self.alive - set(self.dests))
        src, doomed, leaving = (int(v) for v in g.choice(pool, 3, replace=False))
        rows = [
            {"kind": "inject", "node": src, "dest": self.dests[int(g.integers(len(self.dests)))], "count": 5},
            {"kind": "fail", "node": doomed},
        ]
        if self.failed:
            back = self.failed.pop(int(g.integers(len(self.failed))))
            rows.append({"kind": "recover", "node": back})
            self.alive.add(back)
        if self.next_id < self.capacity:
            rows.append({"kind": "join", "node": self.next_id, "pos": [float(g.random()), float(g.random())]})
            self.alive.add(self.next_id)
            self.next_id += 1
        rows.append({"kind": "leave", "node": leaving})
        self.alive -= {doomed, leaving}
        self.failed.append(doomed)
        return rows


class World:
    """One set-up: server, control connection, sessions, SSE subscriber."""

    @classmethod
    async def start(cls, seed: int, p: dict, spans_path) -> "World":
        self = cls()
        self.server = Server(spans_path)
        self.sse = None
        try:
            await self._open(seed, p)
        except BaseException:
            self.abort()
            raise
        return self

    async def _open(self, seed: int, p: dict) -> None:
        self.conn = await Conn.open(self.server.port)
        self.sessions = []
        self.session_s = []
        for i in range(SESSIONS):
            gen = _rng(WORLD_SEED, 10 + i)
            dests = sorted(int(v) for v in gen.choice(p["n"], p["dests"], replace=False))
            config = {
                "n": p["n"],
                "seed": _typical_session_seed(gen, p["n"]),
                "delta": p["delta"],
                "dests": dests,
                "traffic_rate": p["traffic_rate"],
                "name": f"perfbench-{i}",
            }
            t0 = time.perf_counter()
            status, body = await self.conn.request("POST", "/v1/sessions", config)
            self.session_s.append(time.perf_counter() - t0)
            if status != 201:
                raise RuntimeError(f"session create failed: {status} {body}")
            self.sessions.append(ClientSession(body["session"]["id"], p["n"], dests, _rng(seed, 20 + i)))
        self.sse = await subscribe(self.server.port, self.sessions[0].id)

    async def shutdown(self, checks: common.Checks) -> dict:
        """Report, per-session stats, delete, SIGTERM; checks the outcome."""
        status, report = await self.conn.request("GET", "/perfbench/report")
        checks.check(status == 200, f"GET /perfbench/report returned {status}")
        evictions = 0
        for s in self.sessions:
            status, body = await self.conn.request("GET", f"/v1/sessions/{s.id}")
            checks.check(status == 200, f"GET session {s.id} returned {status}")
            detail = body["session"]
            st, leftover = detail["stats"], detail["leftover"]
            checks.check(
                st["accepted"] == st["delivered"] + leftover + st["churn_drops"],
                f"session {s.id}: accepted {st['accepted']} != delivered {st['delivered']}"
                f" + leftover {leftover} + churn_drops {st['churn_drops']}",
            )
            evictions += detail["stream"]["evictions"]
        finals = {}
        for s in self.sessions:
            status, body = await self.conn.request("DELETE", f"/v1/sessions/{s.id}")
            checks.check(status == 200, f"DELETE session {s.id} returned {status}")
            finals[s.id] = body["final_stats"] if status == 200 else {}
        await self.conn.close()
        try:
            events = await asyncio.wait_for(self.sse, STOP_TIMEOUT)
        except asyncio.TimeoutError:
            events = []
        checks.extend(stream_problems(events, finals[self.sessions[0].id]), "SSE reconcile")
        code = self.server.stop()
        checks.check(code == 0, f"server exited with {code} on SIGTERM, not 0")
        report["sse_evictions"] = evictions
        return report

    def abort(self) -> None:
        if self.sse is not None:
            self.sse.cancel()
        self.server.kill()


def run(seed: int, seconds: float, trace: bool, size: str, steady_bound: float) -> dict:
    return asyncio.run(_run(seed, seconds, trace, size, steady_bound))


async def _run(seed: int, seconds: float, trace: bool, size: str, steady_bound: float) -> dict:
    p = PARAMS[size]
    checks = common.Checks()
    shm_before = common.shm_segments()
    spans_path = common.STATE_DIR / "spans" / f"service-{size}-seed{seed}-server.jsonl" if trace else None
    setups = []
    world = None
    try:
        for _ in range(SETUP_REPEATS):
            if world is not None:
                await world.shutdown(checks)
                world = None
            t0 = time.perf_counter()
            world = await World.start(seed, p, spans_path)
            setups.append((time.perf_counter() - t0, world.session_s))
        out = await _window(world, p, seconds, trace, checks)
        report = await world.shutdown(checks)
        world = None
    finally:
        if world is not None:
            world.abort()
    checks.extend(common.cleanup_problems(shm_before), "clean-up")
    problem = common.check_digest(f"service|{size}|seed={seed}|{common.source_digest()}", out["digest"])
    checks.check(problem is None, problem or "")
    drift = common.halves_drift(out["step_lat"])
    checks.check(
        abs(drift) <= steady_bound,
        f"steady-state guard: second-half request time differs by {drift:+.1%}"
        f" (bound {steady_bound:.0%})",
    )
    attempted = out["requests"] + checks.attempted
    failed = out["non_2xx"] + len(checks.problems)
    step_lat, event_lat, step_s = out["step_lat"], out["event_lat"], report["step_s"]
    info = {
        "step_requests": len(step_lat),
        "event_requests": len(event_lat),
        "window_s": out["window_s"],
        "checkpoint_digest": out["digest"][:16],
        "steady_drift": drift,
        "problems": checks.problems,
    }
    if not trace:
        metrics = {
            "steps_per_s": STEPS * len(step_lat) / out["window_s"],
            "step_ms_p50": 1e3 * common.median(step_s),
            "step_ms_p90": 1e3 * common.percentile(step_s, 90),
            "request_ms_p50": 1e3 * common.median(step_lat),
            "request_ms_p90": 1e3 * common.percentile(step_lat, 90),
            "events_ms_p50": 1e3 * common.median(event_lat),
            "setup_s": common.median([s for s, _ in setups]),
            "peak_rss_mb": out["rss_mb"],
        }
        info["samples"] = {"step": len(step_s), "request": len(step_lat), "events": len(event_lat)}
    else:
        summary = report["summary"]
        server_top = sum(
            summary["top_s"].get(k, 0.0) for k in ("service.advance", "service.inject", "service.publish")
        )
        setup = report["setup"]
        extra = {
            "setup.range_s": setup.get("range_s", 0.0) / SESSIONS,
            "setup.theta_s": setup.get("theta_s", 0.0) / SESSIONS,
            "setup.conflict_s": setup.get("conflict_s", 0.0) / SESSIONS,
            "setup.session_ms": 1e3 * common.median([s for _, per in setups for s in per]),
            "service.publish.sse_evictions": report["sse_evictions"],
            "trace.overhead": out["overhead"],
            "bench.error_rate": failed / attempted,
        }
        extra.update(out["counts"])
        metrics = per_layer_metrics(
            summary,
            wall=out["traced_wall"],
            steps=out["traced_steps"],
            requests=out["traced_requests"],
            http_s=out["traced_latency"] - server_top,
            extra=extra,
        )
        info["spans"] = summary["spans"]
        info["spans_file"] = report["spans_file"]
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "info": info}


async def _window(world: World, p: dict, seconds: float, trace: bool, checks: common.Checks) -> dict:
    """Closed-loop request cycles until ``seconds`` pass and the checkpoint is in.

    One block is one cycle: every session gets 4 step requests, the first
    preceded by an event batch.  Traced runs alternate traced and
    untraced blocks (the wrappers are toggled between blocks, outside
    the timed time).
    """
    conn = world.conn
    step_lat, event_lat = [], []
    non_2xx = 0
    wall = {True: 0.0, False: 0.0}
    steps = {True: 0, False: 0}
    latency = {True: 0.0, False: 0.0}
    requests = {True: 0, False: 0}
    counts = digest = rss_mb = None
    excluded = 0.0
    block = 0
    status, _ = await conn.request("POST", "/perfbench/window")
    checks.check(status == 200, f"POST /perfbench/window returned {status}")
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    while counts is None or time.perf_counter() < deadline:
        tracing = trace and block % 2 == 0
        if tracing:
            c0 = time.perf_counter()
            await conn.request("POST", "/perfbench/trace?on=1")
            excluded += time.perf_counter() - c0
        b0 = time.perf_counter()
        for _ in range(common.BLOCK):
            for s in world.sessions:
                if s.requests % 4 == 0:
                    r0 = time.perf_counter()
                    body = {"events": s.event_batch()}
                    status, _ = await conn.request("POST", f"/v1/sessions/{s.id}/events", body)
                    dt = time.perf_counter() - r0
                    event_lat.append(dt)
                    latency[tracing] += dt
                    requests[tracing] += 1
                    non_2xx += not 200 <= status < 300
                r0 = time.perf_counter()
                status, _ = await conn.request("POST", f"/v1/sessions/{s.id}/step?steps={STEPS}")
                dt = time.perf_counter() - r0
                step_lat.append(dt)
                latency[tracing] += dt
                requests[tracing] += 1
                non_2xx += not 200 <= status < 300
                s.requests += 1
        b1 = time.perf_counter()
        wall[tracing] += b1 - b0
        steps[tracing] += STEPS * common.BLOCK * len(world.sessions)
        block += 1
        if tracing:
            c0 = time.perf_counter()
            await conn.request("POST", "/perfbench/trace?on=0")
            excluded += time.perf_counter() - c0
        if counts is None and len(step_lat) >= p["checkpoint"]:
            c0 = time.perf_counter()
            status, body = await conn.request("GET", "/perfbench/counts")
            checks.check(status == 200, f"GET /perfbench/counts returned {status}")
            per = [body["sessions"][s.id] for s in world.sessions]
            digest = common.digest_of(per)
            counts = _work_counts(per)
            # Peak RSS up to a fixed amount of work (sessions keep a row
            # per step served, so a faster server would grow further).
            rss_mb = common.vm_hwm_mb() + body["rss_mb"]
            excluded += time.perf_counter() - c0
    window_s = time.perf_counter() - t_begin - excluded
    per_traced = wall[True] / max(steps[True], 1)
    per_untraced = wall[False] / max(steps[False], 1)
    return {
        "step_lat": step_lat,
        "event_lat": event_lat,
        "requests": len(step_lat) + len(event_lat),
        "non_2xx": non_2xx,
        "window_s": window_s,
        "digest": digest,
        "counts": counts,
        "rss_mb": rss_mb,
        "traced_wall": wall[True],
        "traced_steps": steps[True],
        "traced_requests": requests[True],
        "traced_latency": latency[True],
        "overhead": per_traced / per_untraced - 1.0 if trace and steps[False] else 0.0,
    }


def _work_counts(per_session: "list[dict]") -> "dict[str, float]":
    def total(section: str, key: str) -> float:
        return sum(s[section][key] for s in per_session)

    return {
        "count.events_applied": total("series", "events_applied"),
        "count.nodes_touched": total("series", "repair_nodes_touched"),
        "count.conflict_rows": total("series", "conflict_rows_touched"),
        "count.batch_groups": total("series", "batch_groups"),
        "count.halo_entries": total("series", "halo_nodes"),
        "count.diffs_suppressed": 0,
        "count.decide_tx": total("stats", "attempts"),
        "count.mac_successes": total("stats", "successes"),
        "count.delivered": total("stats", "delivered"),
        "count.sse_frames": per_session[0]["published"],
    }
