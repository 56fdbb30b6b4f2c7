"""The session service: protocol validation, streaming, failure paths.

Covers the ``repro-service/v1`` contracts end-to-end against a real
listener on a loopback port — malformed JSON, unknown sessions, event
injection refused against dead nodes, backpressure (429 at the session
bound, slow-consumer eviction on the SSE fan-out), the idle-TTL reaper
ending a stream mid-subscription, graceful drain, and the exact
delta-reconciliation contract of the series stream (baseline + sum of
deltas == final RoutingStats, including for late subscribers).
"""

import asyncio
import json

import pytest

from repro.dynamic.events import (
    EventTrace,
    LiveEventSchedule,
    NodeJoin,
    NodeMove,
    event_from_dict,
    event_to_dict,
)
from repro.obs.metrics import StepSeries
from repro.service.protocol import (
    ProtocolError,
    parse_event_rows,
    parse_session_config,
    parse_step_count,
)
from repro.service.server import ServiceServer
from repro.service.session import SessionManager
from repro.service.stream import Broadcast

TIMEOUT = 30.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


# ----------------------------------------------------------------------
# Minimal asyncio HTTP/SSE client helpers
# ----------------------------------------------------------------------
async def http(port, method, path, body=None, *, raw: "bytes | None" = None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = raw if raw is not None else (
        json.dumps(body).encode() if body is not None else b""
    )
    head = (
        f"{method} {path} HTTP/1.1\r\nhost: t\r\n"
        f"content-length: {len(payload)}\r\nconnection: close\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    response = await reader.read(-1)
    writer.close()
    status = int(response.split(b" ", 2)[1])
    _, _, body_bytes = response.partition(b"\r\n\r\n")
    headers = response.partition(b"\r\n\r\n")[0].decode("latin-1").lower()
    if "application/json" in headers:
        return status, json.loads(body_bytes)
    return status, body_bytes.decode()


async def open_sse(port, sid):
    """Subscribe to a session's series stream; returns (reader, writer)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET /v1/sessions/{sid}/series HTTP/1.1\r\nhost: t\r\n\r\n".encode())
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    assert b"200 OK" in head and b"text/event-stream" in head
    return reader, writer


async def read_sse_events(reader, *, until_terminal=True):
    """Parse SSE frames until a terminal event (or EOF)."""
    events, buf = [], b""
    while True:
        while b"\n\n" in buf:
            block, buf = buf.split(b"\n\n", 1)
            text = block.decode().strip()
            if not text or text.startswith(":"):
                continue
            fields = dict(
                line.split(": ", 1) for line in text.split("\n") if ": " in line
            )
            events.append((fields["event"], json.loads(fields["data"])))
            if until_terminal and events[-1][0] in ("end", "evicted"):
                return events
        chunk = await reader.read(4096)
        if not chunk:
            return events
        buf += chunk


# ----------------------------------------------------------------------
# Protocol validation (no sockets)
# ----------------------------------------------------------------------
class TestProtocol:
    def test_defaults_and_bounds(self):
        cfg = parse_session_config({"n": 100, "seed": 7})
        assert cfg.n == 100 and cfg.dests == (0,) and cfg.max_nodes == 200
        with pytest.raises(ProtocolError) as exc:
            parse_session_config({"n": 100_000})  # over quick-profile cap
        assert exc.value.status == 400
        with pytest.raises(ProtocolError):
            parse_session_config({"n": 64, "bogus_knob": 1})
        with pytest.raises(ProtocolError):
            parse_session_config({"dests": [99]})  # out of [0, n)
        with pytest.raises(ProtocolError):
            parse_session_config([1, 2, 3])

    def test_event_rows(self):
        rows = parse_event_rows(
            {"events": [
                {"kind": "fail", "node": 3},
                {"kind": "move", "node": 1, "pos": [0.5, 0.5]},
                {"kind": "inject", "node": 2, "dest": 0, "count": 4},
            ]}
        )
        assert [r["kind"] for r in rows] == ["fail", "move", "inject"]
        for bad in (
            None,
            {"events": []},
            {"events": [{"kind": "explode", "node": 1}]},
            {"events": [{"kind": "join", "node": 1}]},  # join needs pos
            {"events": [{"kind": "move", "node": 1, "pos": [float("nan"), 0]}]},
            {"events": [{"kind": "inject", "node": 1}]},  # inject needs dest
        ):
            with pytest.raises(ProtocolError) as exc:
                parse_event_rows(bad)
            assert exc.value.status == 400

    def test_step_count(self):
        assert parse_step_count({"steps": "25"}, "quick") == 25
        assert parse_step_count({}, "quick") == 1
        for bad in ({"steps": "0"}, {"steps": "1000001"}, {"steps": "nope"}):
            with pytest.raises(ProtocolError):
                parse_step_count(bad, "quick")


class TestLiveEventSchedule:
    def test_append_at_and_trace_round_trip(self):
        sched = LiveEventSchedule()
        sched.append(3, NodeJoin(9, 0.2, 0.3))
        sched.append(1, NodeMove(2, 0.5, 0.5))
        assert len(sched) == 2 and sched.horizon == 4
        assert [type(e).__name__ for e in sched.at(3)] == ["NodeJoin"]
        assert sched.at(0) == []
        trace = sched.to_trace(horizon=10)
        assert isinstance(trace, EventTrace)
        assert trace.horizon == 10 and len(trace) == 2
        # Wire rows survive a dict round-trip exactly.
        for _, ev in trace:
            assert event_from_dict(event_to_dict(ev)) == ev


# ----------------------------------------------------------------------
# Broadcast backpressure (no sockets)
# ----------------------------------------------------------------------
class TestBroadcastEviction:
    def test_slow_consumer_is_evicted_with_terminal_frame(self):
        async def scenario():
            bc = Broadcast(queue_size=4)
            slow, fast = bc.subscribe(), bc.subscribe()
            for i in range(4):
                bc.publish("step", {"i": i})
                assert (await fast.next_event()) == ("step", {"i": i})
            bc.publish("step", {"i": 4})  # overflows `slow` only
            assert bc.evictions == 1 and bc.n_subscribers == 1
            assert not fast.evicted
            # The slow consumer still drains its backlog, then sees the
            # terminal eviction frame and is closed.
            seen = []
            while not slow.closed:
                seen.append(await slow.next_event())
            assert seen[-1][0] == "evicted"
            assert slow.evicted
            # Surviving subscriber keeps receiving, in order.
            bc.publish("step", {"i": 5})
            assert (await fast.next_event())[1] == {"i": 4}
            assert (await fast.next_event())[1] == {"i": 5}

        run(scenario())


# ----------------------------------------------------------------------
# Server end-to-end over loopback
# ----------------------------------------------------------------------
async def start_server(**kwargs):
    server = ServiceServer(port=0, **kwargs)
    await server.start()
    return server


CFG = {"n": 32, "seed": 5, "traffic_rate": 2.0}


class TestServerFailurePaths:
    def test_malformed_json_is_400(self):
        async def scenario():
            server = await start_server()
            try:
                status, body = await http(
                    server.port, "POST", "/v1/sessions", raw=b"{not json"
                )
                assert status == 400 and body["error"]["code"] == "invalid_json"
                status, body = await http(server.port, "BLARG!", "/v1/sessions")
                assert status == 405  # unknown method on a real route
                status, body = await http(server.port, "GET", "/nowhere")
                assert status == 404 and body["error"]["code"] == "not_found"
                status, body = await http(server.port, "PUT", "/v1/sessions")
                assert status == 405 and body["error"]["code"] == "method_not_allowed"
            finally:
                await server.shutdown(reason="test")

        run(scenario())

    def test_unknown_session_is_404_everywhere(self):
        async def scenario():
            server = await start_server()
            try:
                for method, path in (
                    ("GET", "/v1/sessions/s9999-abc"),
                    ("DELETE", "/v1/sessions/s9999-abc"),
                    ("POST", "/v1/sessions/s9999-abc/step?steps=1"),
                    ("GET", "/v1/sessions/s9999-abc/series"),
                ):
                    status, body = await http(server.port, method, path)
                    assert status == 404, (method, path)
                    assert body["error"]["code"] == "unknown_session"
            finally:
                await server.shutdown(reason="test")

        run(scenario())

    def test_dead_node_event_is_409(self):
        async def scenario():
            server = await start_server()
            try:
                _, created = await http(server.port, "POST", "/v1/sessions", CFG)
                sid = created["session"]["id"]
                ev = f"/v1/sessions/{sid}/events"
                status, _ = await http(
                    server.port, "POST", ev, {"events": [{"kind": "fail", "node": 3}]}
                )
                assert status == 200
                await http(server.port, "POST", f"/v1/sessions/{sid}/step?steps=1")
                # Node 3 is now down: failing it again, moving it, or
                # injecting traffic at it must 409, atomically.
                for rows, code in (
                    ([{"kind": "fail", "node": 3}], "dead_node"),
                    ([{"kind": "leave", "node": 3}], "dead_node"),
                    ([{"kind": "inject", "node": 3, "dest": 0, "count": 1}], "dead_node"),
                    ([{"kind": "join", "node": 3, "pos": [0.1, 0.1]}], "bad_event"),
                    ([{"kind": "recover", "node": 4}], "bad_event"),
                    ([{"kind": "fail", "node": 31000}], "bad_node"),
                ):
                    status, body = await http(server.port, "POST", ev, {"events": rows})
                    assert status == 409, rows
                    assert body["error"]["code"] == code, rows
                # Recover works, and afterwards the node takes traffic.
                status, _ = await http(
                    server.port, "POST", ev, {"events": [{"kind": "recover", "node": 3}]}
                )
                assert status == 200
                await http(server.port, "POST", f"/v1/sessions/{sid}/step?steps=1")
                status, _ = await http(
                    server.port, "POST", ev,
                    {"events": [{"kind": "inject", "node": 3, "dest": 0, "count": 1}]},
                )
                assert status == 200
            finally:
                await server.shutdown(reason="test")

        run(scenario())

    def test_cross_batch_pending_events_are_validated(self):
        """A batch must be validated against rows already scheduled at
        the same (not-yet-applied) step by earlier POSTs — otherwise two
        individually-valid batches wedge the engine mid-step."""

        async def scenario():
            server = await start_server()
            try:
                _, created = await http(server.port, "POST", "/v1/sessions", CFG)
                sid = created["session"]["id"]
                ev = f"/v1/sessions/{sid}/events"
                status, _ = await http(
                    server.port, "POST", ev, {"events": [{"kind": "leave", "node": 5}]}
                )
                assert status == 200
                # Same event again in a *separate* batch, no step between:
                # the pending leave must be visible to validation.
                status, body = await http(
                    server.port, "POST", ev, {"events": [{"kind": "leave", "node": 5}]}
                )
                assert status == 409 and body["error"]["code"] == "dead_node"
                # Traffic addressed at the pending-leave node is refused
                # the same way the engine would refuse it after applying.
                status, body = await http(
                    server.port, "POST", ev,
                    {"events": [{"kind": "inject", "node": 5, "dest": 0, "count": 1}]},
                )
                assert status == 409 and body["error"]["code"] == "dead_node"
                # Pending fail/recover chains across batches stay legal.
                for rows in (
                    [{"kind": "fail", "node": 7}],
                    [{"kind": "recover", "node": 7}],
                ):
                    status, _ = await http(server.port, "POST", ev, {"events": rows})
                    assert status == 200
                # The accumulated step applies cleanly: nothing wedged.
                status, _ = await http(
                    server.port, "POST", f"/v1/sessions/{sid}/step?steps=2"
                )
                assert status == 200
                _, detail = await http(server.port, "GET", f"/v1/sessions/{sid}")
                assert detail["session"]["events_applied"] == 3
            finally:
                await server.shutdown(reason="test")

        run(scenario())

    def test_session_limit_is_429(self):
        async def scenario():
            server = await start_server(max_sessions=2)
            try:
                for _ in range(2):
                    status, _ = await http(server.port, "POST", "/v1/sessions", CFG)
                    assert status == 201
                status, body = await http(server.port, "POST", "/v1/sessions", CFG)
                assert status == 429 and body["error"]["code"] == "session_limit"
                # Deleting one frees a slot.
                _, listing = await http(server.port, "GET", "/v1/sessions")
                sid = listing["sessions"][0]["id"]
                status, _ = await http(server.port, "DELETE", f"/v1/sessions/{sid}")
                assert status == 200
                status, _ = await http(server.port, "POST", "/v1/sessions", CFG)
                assert status == 201
            finally:
                await server.shutdown(reason="test")

        run(scenario())


class TestStreaming:
    def test_deltas_reconcile_exactly_including_late_subscriber(self):
        async def scenario():
            server = await start_server()
            try:
                _, created = await http(server.port, "POST", "/v1/sessions", CFG)
                sid = created["session"]["id"]
                # Step before subscribing: the subscriber is late and
                # must be handed a non-zero baseline.
                await http(server.port, "POST", f"/v1/sessions/{sid}/step?steps=10")
                reader, writer = await open_sse(server.port, sid)
                await http(
                    server.port, "POST", f"/v1/sessions/{sid}/events",
                    {"events": [
                        {"kind": "fail", "node": 7},
                        {"kind": "inject", "node": 3, "dest": 0, "count": 5},
                    ]},
                )
                await http(server.port, "POST", f"/v1/sessions/{sid}/step?steps=15")
                _, deleted = await http(server.port, "DELETE", f"/v1/sessions/{sid}")
                final = deleted["final_stats"]
                events = await read_sse_events(reader)
                writer.close()
                kinds = [e for e, _ in events]
                assert kinds[0] == "hello" and kinds[-1] == "end"
                assert "events" in kinds  # the injection notification
                hello = events[0][1]
                assert hello["from_step"] == 10
                assert hello["baseline"]["injected"] > 0
                deltas = [d for e, d in events if e == "step"]
                assert len(deltas) == 15
                assert [d["step"] for d in deltas] == list(range(10, 25))
                for name in ("injected", "accepted", "delivered", "dropped",
                             "attempts", "churn_drops", "events_applied"):
                    total = hello["baseline"][name] + sum(d[name] for d in deltas)
                    if name in final:
                        assert total == final[name], name
                end = events[-1][1]
                assert end["reason"] == "deleted"
                assert end["final_stats"] == final
            finally:
                await server.shutdown(reason="test")

        run(scenario())

    def test_ttl_reaper_ends_idle_session_mid_stream(self):
        async def scenario():
            server = await start_server(session_ttl=0.3, reap_interval=0.05)
            try:
                _, created = await http(server.port, "POST", "/v1/sessions", CFG)
                sid = created["session"]["id"]
                await http(server.port, "POST", f"/v1/sessions/{sid}/step?steps=5")
                reader, writer = await open_sse(server.port, sid)
                # Subscribing is passive — it does not refresh the TTL;
                # the reaper must end the stream with reason=expired.
                events = await read_sse_events(reader)
                writer.close()
                assert events[-1][0] == "end"
                assert events[-1][1]["reason"] == "expired"
                status, _ = await http(server.port, "GET", f"/v1/sessions/{sid}")
                assert status == 404
            finally:
                await server.shutdown(reason="test")

        run(scenario())

    def test_graceful_drain_ends_streams_and_refuses_new_work(self):
        async def scenario():
            server = await start_server()
            _, created = await http(server.port, "POST", "/v1/sessions", CFG)
            sid = created["session"]["id"]
            await http(server.port, "POST", f"/v1/sessions/{sid}/step?steps=5")
            reader, writer = await open_sse(server.port, sid)
            await server.shutdown(reason="server-drain")
            events = await read_sse_events(reader)
            writer.close()
            assert events[-1][0] == "end"
            assert events[-1][1]["reason"] == "server-drain"
            assert events[-1][1]["steps"] == 5
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", server.port)

        run(scenario())


class TestSessionManagerUnit:
    def test_ttl_reaper_uses_injected_clock_and_skips_busy(self):
        async def scenario():
            now = [0.0]
            manager = SessionManager(max_sessions=4, ttl_seconds=10.0, clock=lambda: now[0])
            cfg = parse_session_config({"n": 16})
            a = manager.create(cfg)
            b = manager.create(cfg)
            now[0] = 11.0
            b.touch()
            async with a.lock:  # busy sessions are never reaped
                assert manager.reap_idle() == []
            assert manager.reap_idle() == [a.id]
            assert len(manager) == 1 and a.closed
            with pytest.raises(ProtocolError) as exc:
                manager.get(a.id)
            assert exc.value.status == 404
            assert manager.expired_total == 1

        run(scenario())

    def test_reservation_holds_session_bound(self):
        async def scenario():
            manager = SessionManager(max_sessions=1, ttl_seconds=10.0)
            cfg = parse_session_config({"n": 16})
            sid = manager.reserve()
            with pytest.raises(ProtocolError) as exc:  # slot is claimed pre-build
                manager.reserve()
            assert exc.value.status == 429
            session = manager.register(manager.build(sid, cfg))
            with pytest.raises(ProtocolError):
                manager.reserve()
            manager.delete(session.id)
            assert manager.reserve()
            manager.release()  # an abandoned build gives the slot back
            assert manager.reserve()

        run(scenario())

    def test_join_then_inject_in_one_batch(self):
        manager = SessionManager(max_sessions=1, ttl_seconds=10.0)
        session = manager.create(parse_session_config({"n": 16, "dests": [0]}))
        rows = parse_event_rows({"events": [
            {"kind": "join", "node": 16, "pos": [0.5, 0.5]},
            {"kind": "inject", "node": 16, "dest": 0, "count": 2},
        ]})
        assert session.inject(rows)["scheduled"] == 1
        accepted = session.router.stats.accepted
        session.advance(1)
        assert 16 in session.dynamic.alive_ids().tolist()
        assert session.router.stats.accepted >= accepted + 2
        # Refused whole: node 17 is not alive when its inject row is
        # checked, and a join may not skip the next unused id.
        for rows, code in (
            ([{"kind": "inject", "node": 17, "dest": 0, "count": 1},
              {"kind": "join", "node": 17, "pos": [0.4, 0.4]}], "dead_node"),
            ([{"kind": "join", "node": 18, "pos": [0.4, 0.4]}], "bad_event"),
        ):
            with pytest.raises(ProtocolError) as exc:
                session.inject(parse_event_rows({"events": rows}))
            assert exc.value.status == 409 and exc.value.code == code, rows
        assert session.schedule.at(session.engine.t) == []
        session.advance(1)
        manager.delete(session.id)

    def test_drain_waits_for_busy_sessions(self):
        async def scenario():
            manager = SessionManager(max_sessions=2, ttl_seconds=10.0)
            session = manager.create(parse_session_config({"n": 16}))
            await session.lock.acquire()  # a step batch is "in flight"
            drain = asyncio.create_task(manager.drain(reason="test-drain"))
            await asyncio.sleep(0.05)
            assert not drain.done() and not session.closed
            session.lock.release()
            assert await drain == 1
            assert session.closed and len(manager) == 0

        run(scenario())
