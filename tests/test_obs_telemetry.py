"""Tests for repro.obs.telemetry: cross-process spans, samples, OpenMetrics.

The satellite acceptance criteria live here: OpenMetrics text must
round-trip counter/gauge/histogram values exactly, and a traced
2-worker :class:`TileWorkerPool` batch must land spans from every
worker pid on the parent's tracer with monotonic per-track timestamps.
"""

from __future__ import annotations

import io
import json
import math
import os

import numpy as np
import pytest

from repro import (
    DynamicInterference,
    IncrementalTheta,
    max_range_for_connectivity,
    obs,
    random_event_trace,
    uniform_points,
)
from repro.obs import metrics, telemetry, trace
from repro.obs.telemetry import (
    LiveView,
    ResourceSampler,
    TelemetryWriter,
    parse_openmetrics,
    read_snapshots,
    render_snapshot,
    render_top,
    resource_sample,
    to_openmetrics,
)
from repro.parallel import TileWorkerPool

THETA = math.pi / 9


@pytest.fixture(autouse=True)
def _obs_off_after():
    """Never leak an enabled tracer/registry into other tests."""
    yield
    obs.disable()


class TestResourceSampling:
    def test_self_sample_reads_proc(self):
        s = resource_sample()
        assert s["pid"] == os.getpid()
        assert s["rss_bytes"] > 0  # Linux CI: /proc is always there
        assert s["cpu_user_s"] >= 0.0
        assert s["cpu_sys_s"] >= 0.0
        assert s["ts"] > 0

    def test_missing_pid_never_raises(self):
        s = resource_sample(2**22 + 12345)  # beyond default pid_max
        assert s["rss_bytes"] == 0
        assert s["cpu_user_s"] == 0.0

    def test_sampler_adds_uptime_arena_and_extras(self):
        class FakeArena:
            nbytes = 4096

        sampler = ResourceSampler(arena=FakeArena())
        s = sampler.sample(worker=3, batch=7)
        assert s["uptime_s"] >= 0.0
        assert s["shm_bytes"] == 4096
        assert s["worker"] == 3
        assert s["batch"] == 7

    def test_sampler_without_arena_has_no_shm_key(self):
        assert "shm_bytes" not in ResourceSampler().sample()


class TestOpenMetrics:
    def _registry_snapshot(self):
        reg = metrics.MetricsRegistry()
        reg.counter("pool.batches").inc(3)
        reg.counter("engine.steps").inc(0.125)  # exact binary fraction
        reg.gauge("pool.shm_bytes").set(1536.5)
        reg.gauge("pool.shm_bytes").set(812.25)
        reg.histogram("cell.seconds").observe(0.1)
        reg.histogram("cell.seconds").observe(7.25)
        reg.histogram("cell.seconds").observe(0.30000000000000004)
        return reg.snapshot()

    def test_round_trip_is_value_exact(self):
        """Satellite: counter/gauge/histogram values survive bit-for-bit."""
        snap = self._registry_snapshot()
        parsed = parse_openmetrics(to_openmetrics(snap))
        assert parsed == snap

    def test_round_trip_non_finite(self):
        snap = {
            "counters": {"c": math.inf},
            "gauges": {"g": {"value": math.nan, "max": math.inf}},
            "histograms": {},
        }
        parsed = parse_openmetrics(to_openmetrics(snap))
        assert parsed["counters"]["c"] == math.inf
        assert math.isnan(parsed["gauges"]["g"]["value"])
        assert parsed["gauges"]["g"]["max"] == math.inf

    def test_round_trip_empty_histogram_inf_bounds(self):
        reg = metrics.MetricsRegistry()
        reg.histogram("h")  # registered, never observed: min=+Inf, max=-Inf
        snap = reg.snapshot()
        parsed = parse_openmetrics(to_openmetrics(snap))
        assert parsed == snap
        assert parsed["histograms"]["h"]["min"] == math.inf
        assert parsed["histograms"]["h"]["max"] == -math.inf
        assert parsed["histograms"]["h"]["mean"] == 0.0

    def test_exact_name_survives_sanitization(self):
        snap = {
            "counters": {'weird.name with "quotes"\nand spaces': 2.0},
            "gauges": {},
            "histograms": {},
        }
        text = to_openmetrics(snap)
        assert 'name="weird.name with \\"quotes\\"\\nand spaces"' in text
        assert parse_openmetrics(text) == snap

    def test_text_format_shape(self):
        text = to_openmetrics(self._registry_snapshot())
        assert text.endswith("# EOF\n")
        assert "# TYPE repro_pool_batches counter" in text
        assert "repro_pool_batches_total" in text
        assert "# TYPE repro_cell_seconds summary" in text
        assert 'repro_cell_seconds_count{name="cell.seconds"}' in text
        assert 'field="max"' in text

    def test_parse_rejects_undeclared_metric(self):
        with pytest.raises(ValueError, match="no TYPE"):
            parse_openmetrics('repro_x{name="x"} 1.0\n# EOF\n')


class TestTelemetryStream:
    def test_writer_header_and_read_back(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        w = TelemetryWriter(path, interval=0.0)
        assert w.write({"kind": "campaign", "seq": 1})
        assert w.write({"kind": "campaign", "seq": 2})
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["schema"] == telemetry.TELEMETRY_SCHEMA
        snaps = read_snapshots(path)
        assert [s["seq"] for s in snaps] == [1, 2]  # header skipped

    def test_writer_throttles_and_force_overrides(self, tmp_path):
        w = TelemetryWriter(tmp_path / "t.jsonl", interval=3600.0)
        assert w.write({"seq": 1})
        assert not w.write({"seq": 2})  # inside the throttle window
        assert w.write({"seq": 3}, force=True)
        assert [s["seq"] for s in read_snapshots(w.path)] == [1, 3]
        assert w.n_written == 2

    def test_reader_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        TelemetryWriter(path, interval=0.0).write({"seq": 1})
        with path.open("a") as fh:
            fh.write('{"seq": 2, "cells": {"done"')  # killed mid-line
        assert [s["seq"] for s in read_snapshots(path)] == [1]

    def test_reader_missing_file_is_empty(self, tmp_path):
        assert read_snapshots(tmp_path / "absent.jsonl") == []


SNAPSHOT = {
    "kind": "campaign",
    "ts": 1000.0,
    "name": "unit",
    "cells": {"total": 8, "done": 5, "failed": 1, "remaining": 3},
    "workers": {
        "101": {
            "cells": 3,
            "cell_seconds": 0.6,
            "rss_bytes": 50_000_000,
            "cpu_user_s": 1.0,
            "cpu_sys_s": 0.5,
        },
        "102": {"cells": 2, "cell_seconds": 0.3, "rss_bytes": 48_000_000},
    },
    "parent": {"pid": 100, "rss_bytes": 90_000_000, "cpu_user_s": 2.0, "cpu_sys_s": 0.25},
    "elapsed_s": 10.0,
    "rate_cells_per_s": 0.5,
}


class TestRendering:
    def test_render_snapshot_panel(self):
        text = render_snapshot(SNAPSHOT, title="campaign 'unit'")
        assert "campaign 'unit'" in text
        assert "5/8 done, 1 failed, 3 remaining" in text
        assert "parent pid 100" in text
        assert "rss 90.0MB" in text
        assert "workers — 2 processes" in text
        assert "101" in text and "102" in text

    def test_render_snapshot_halo_traffic_columns(self):
        # Tiled-pool workers carry halo-subscription gauges; the panel
        # must surface them (and omit the columns for plain campaigns).
        snap = json.loads(json.dumps(SNAPSHOT))
        snap["workers"]["101"].update(
            {"diffs_in": 12, "diffs_suppressed": 34, "stale_cells": 56, "shm_bytes": 5_000_000}
        )
        text = render_snapshot(snap)
        assert "diffs_in" in text and "diffs_suppressed" in text and "stale_cells" in text
        assert "12" in text and "34" in text and "56" in text
        assert "5.0MB" in text
        assert "diffs_in" not in render_snapshot(SNAPSHOT)

    def test_render_top_requires_store(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="store.json"):
            render_top(tmp_path)

    def test_render_top_without_snapshots(self, tmp_path):
        (tmp_path / "store.json").write_text(json.dumps({"name": "unit"}))
        text = render_top(tmp_path)
        assert "campaign 'unit'" in text
        assert "no telemetry.jsonl snapshots yet" in text

    def test_render_top_with_stream(self, tmp_path):
        (tmp_path / "store.json").write_text(json.dumps({"name": "unit"}))
        TelemetryWriter(tmp_path / "telemetry.jsonl", interval=0.0).write(SNAPSHOT)
        text = render_top(tmp_path)
        assert "5/8 done" in text
        assert "last snapshot:" in text
        assert "1 snapshots on stream" in text


class TestLiveView:
    def test_non_tty_emits_compact_lines(self):
        buf = io.StringIO()
        view = LiveView(stream=buf)
        view.update(SNAPSHOT, title="t")
        view.update(SNAPSHOT, title="t")
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("live: 5/8 done, 1 failed") for line in lines)

    def test_close_prints_full_panel(self):
        buf = io.StringIO()
        view = LiveView(stream=buf)
        view.update(SNAPSHOT)
        view.close(SNAPSHOT, title="final")
        out = buf.getvalue()
        assert "final" in out
        assert "workers — 2 processes" in out


class TestWorkerTracerDrain:
    def test_disabled_returns_none(self):
        assert trace.active() is None
        assert telemetry.worker_tracer() is None

    def test_in_process_tracer_is_not_foreign(self):
        tracer = obs.enable(fresh=True)
        got = telemetry.worker_tracer()
        assert got is tracer  # same pid: the parent's own tracer comes back
        assert not got.foreign

    def test_drain_skips_non_foreign(self):
        tracer = obs.enable(fresh=True)
        mark = tracer.total_appended
        tracer.instant("local")
        events, new_mark = telemetry.drain_events(tracer, mark)
        assert events == [] and new_mark == mark  # already on the parent ring

    def test_drain_foreign_events_and_advances_mark(self):
        tracer = obs.enable(fresh=True)
        tracer.foreign = True  # what worker_tracer does after a fork
        mark = tracer.total_appended
        tracer.instant("w1")
        tracer.instant("w2")
        events, new_mark = telemetry.drain_events(tracer, mark)
        assert [e["name"] for e in events] == ["w1", "w2"]
        assert new_mark == tracer.total_appended
        assert telemetry.drain_events(tracer, new_mark)[0] == []


def _churned_pool(tracer, *, n_batches=4, batch=10):
    """Run a traced 2-worker pool through a few churn batches."""
    pts = uniform_points(80, rng=7)
    d0 = max_range_for_connectivity(pts, slack=1.5)
    inc = IncrementalTheta(pts, THETA, d0)
    di = DynamicInterference(inc, 0.5)
    tr = random_event_trace(
        pts, n_batches * batch, move_sigma=d0 / 2.0, rng=np.random.default_rng(7)
    )
    events = list(tr.events())
    cap = max([inc.size] + [int(ev.node) + 1 for ev in events]) + 8
    # Two pinned tiles: a narrower default cover would start one worker.
    pool = TileWorkerPool(inc, di, workers=2, capacity=cap, tiles=(2, 1))
    try:
        for lo in range(0, len(events), batch):
            pool.apply_batch(events[lo : lo + batch])
    finally:
        pool.close()


class TestCrossProcessTraceMerge:
    """Satellite: spans from >= 2 pool workers merge into the parent export."""

    def test_pool_spans_merge_with_correct_pids(self):
        tracer = obs.enable(fresh=True)
        _churned_pool(tracer)
        events = tracer.events()
        pids = {e["pid"] for e in events}
        assert os.getpid() in pids
        worker_pids = pids - {os.getpid()}
        assert len(worker_pids) >= 2, f"expected spans from 2 workers, pids={pids}"
        names = {e["name"] for e in events}
        assert "pool.apply_batch" in names  # parent side
        assert "pool.batch" in names  # worker side
        # Worker spans carry worker pids, parent spans the parent pid.
        assert all(e["pid"] in worker_pids for e in events if e["name"] == "pool.batch")
        assert all(
            e["pid"] == os.getpid() for e in events if e["name"] == "pool.apply_batch"
        )

    def test_chrome_tracks_are_monotonic_per_pid(self):
        tracer = obs.enable(fresh=True)
        _churned_pool(tracer)
        chrome = trace.chrome_trace_events(tracer.events())
        assert len({e["pid"] for e in chrome}) >= 3
        last_ts: dict = {}
        for ev in chrome:
            pid = ev["pid"]
            assert ev["ts"] >= last_ts.get(pid, -math.inf), f"pid {pid} track not sorted"
            last_ts[pid] = ev["ts"]

    def test_batch_span_carries_diff_accounting(self):
        tracer = obs.enable(fresh=True)
        metrics.enable(fresh=True)
        _churned_pool(tracer)
        batches = [e for e in tracer.events() if e["name"] == "pool.apply_batch"]
        assert batches
        for ev in batches:
            assert ev["args"]["workers"] == 2
            assert ev["args"]["halo_entries"] >= 0
            assert ev["args"]["diff_bytes"] >= 0
        snap = metrics.active().snapshot()
        assert snap["counters"]["pool.batches"] == len(batches)
        assert snap["gauges"]["pool.worker_rss_bytes"]["value"] > 0

    def test_untraced_pool_ships_no_events(self):
        assert trace.active() is None
        pts = uniform_points(60, rng=9)
        d0 = max_range_for_connectivity(pts, slack=1.5)
        inc = IncrementalTheta(pts, THETA, d0)
        di = DynamicInterference(inc, 0.5)
        pool = TileWorkerPool(inc, di, workers=2, capacity=inc.size + 8)
        try:
            # Telemetry still rides the replies (resource samples) but no
            # span events leak across when tracing is off.
            for tele in pool._last_tele.values():
                assert "events" not in tele
                assert tele["rss_bytes"] > 0
        finally:
            pool.close()
