"""Tests for the campaign subsystem: spec, store, runner, query, CLI.

The resume-semantics tests use a counting fake claim (registered into
the live REGISTRY via monkeypatch, harness importable from this module
so the registry's module/func indirection still works) to prove that
cells marked complete on the manifest are never re-executed.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.campaigns import campaign_claim_summary, group_reduce
from repro.campaign.query import (
    QueryError,
    flatten_cells,
    format_rows,
    parse_where,
    run_query,
    select_columns,
)
from repro.campaign.runner import run_campaign, run_cell
from repro.campaign.spec import SpecError, load_spec
from repro.campaign.store import CELL_SCHEMA, CampaignStore, StoreError, unjsonify
from repro.harness.registry import REGISTRY
from repro.harness.results import ResultsDirError, resolve_results_dir

SPEC_DOC = {
    "schema": "repro-campaign-spec/v1",
    "name": "unit",
    "profile": "quick",
    "grid": {"claim": ["e1"], "n": [24, 32], "seed": [0, 1]},
    "fixed": {"distributions": ["uniform"]},
}

#: executions recorded by fake_harness, reset per test via the fixture.
FAKE_CALLS: "list[int]" = []


def fake_harness(*, width=3, rng=None) -> "list[dict]":
    """Counting stand-in harness; returns rows with non-finite floats."""
    FAKE_CALLS.append(int(rng))
    return [
        {"seed": int(rng), "width": width, "bound": math.inf, "gap": math.nan},
    ]


def rendezvous_harness(*, width=3, rng=None) -> "list[dict]":
    """fake_harness that holds each cell until a second process has one too.

    Every call drops its pid into ``$REPRO_TEST_RENDEZVOUS`` and waits (at
    most 10 s) for a second pid to appear there.  A worker blocked here
    cannot take more cells, so a two-worker pool must hand the next cell
    to the other worker; without the hold, one fast worker may drain the
    whole queue before its sibling has started.
    """
    meet = Path(os.environ["REPRO_TEST_RENDEZVOUS"])
    (meet / str(os.getpid())).touch()
    deadline = time.monotonic() + 10.0
    while len(list(meet.iterdir())) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    return fake_harness(width=width, rng=rng)


def fake_check(rows, profile):
    return []


@pytest.fixture
def fake_claim(monkeypatch):
    """Register claim 'e1' as the counting fake for the duration of a test."""
    FAKE_CALLS.clear()
    fake = replace(
        REGISTRY["e1"],
        module=__name__,
        func="fake_harness",
        check=fake_check,
        quick_params={"width": 3},
    )
    monkeypatch.setitem(REGISTRY, "e1", fake)
    return fake


def write_spec(tmp_path, doc=SPEC_DOC):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


FAKE_SPEC_DOC = {
    "schema": "repro-campaign-spec/v1",
    "name": "fake",
    "profile": "quick",
    "grid": {"claim": ["e1"], "seed": [0, 1, 2, 3]},
}


class TestSpec:
    def test_load_and_expand(self, tmp_path):
        spec = load_spec(write_spec(tmp_path))
        assert spec.name == "unit"
        assert spec.n_cells() == 4
        cells = spec.cells()
        assert len(cells) == 4
        assert {c.claim for c in cells} == {"e1"}
        assert {c.seed for c in cells} == {0, 1}
        # scalar-n convenience: e1 sweeps ns, so n=24 becomes ns=(24,)
        assert all(c.params["ns"] in ((24,), (32,)) for c in cells)

    def test_cell_ids_stable_under_axis_reorder(self, tmp_path):
        doc = dict(SPEC_DOC, grid={"seed": [0, 1], "n": [24, 32], "claim": ["e1"]})
        a = {c.cell_id for c in load_spec(write_spec(tmp_path)).cells()}
        b = {c.cell_id for c in load_spec(write_spec(tmp_path, doc)).cells()}
        assert a == b

    def test_toml_spec(self, tmp_path):
        pytest.importorskip("tomllib")  # Python >= 3.11
        path = tmp_path / "spec.toml"
        path.write_text(
            'schema = "repro-campaign-spec/v1"\n'
            'name = "t"\nprofile = "quick"\n'
            "[grid]\nclaim = [\"e1\"]\nn = [24]\n"
        )
        spec = load_spec(path)
        assert spec.n_cells() == 1

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ({"grid": {"claim": ["e99"]}}, "unknown claim"),
            ({"grid": {"n": [24]}}, "place 'claim'"),
            ({"grid": {"claim": ["e1"], "bogus_param": [1]}}, "does not accept"),
            ({"schema": "nope/v0"}, "unsupported spec schema"),
            ({"grid": {}}, "non-empty 'grid'"),
            ({"profile": "warp"}, "profile"),
        ],
    )
    def test_malformed_specs_die_before_running(self, tmp_path, mutation, fragment):
        doc = {**SPEC_DOC, **mutation}
        with pytest.raises(SpecError, match=fragment):
            load_spec(write_spec(tmp_path, doc))

    def test_duplicate_cell_ids_fail_expansion(self, tmp_path):
        doc = {**SPEC_DOC, "grid": {"claim": ["e1", "e1"]}}
        with pytest.raises(SpecError, match=r"cell e1-[0-9a-f]{10} more than once"):
            load_spec(write_spec(tmp_path, doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="no such campaign spec"):
            load_spec(tmp_path / "absent.json")


class TestStore:
    def test_inf_nan_round_trip(self, tmp_path, fake_claim):
        """Cells with inf/nan survive the store as strict JSON strings."""
        spec = load_spec(write_spec(tmp_path, FAKE_SPEC_DOC))
        store = CampaignStore.create(tmp_path / "store", spec)
        cell = spec.cells()[0]
        store.write_cell(run_cell(cell))
        raw = json.loads((tmp_path / "store" / "cells" / f"{cell.cell_id}.json").read_text())
        assert raw["schema"] == CELL_SCHEMA
        assert raw["rows"][0]["bound"] == "inf"  # strict JSON on disk
        assert raw["rows"][0]["gap"] == "nan"
        rec = store.load_cell(cell.cell_id)
        assert rec["rows"][0]["bound"] == math.inf  # real floats on read
        assert math.isnan(rec["rows"][0]["gap"])

    def test_unjsonify_nested(self):
        doc = {"a": ["inf", "-inf", "nan", "keep"], "b": {"c": "inf"}}
        out = unjsonify(doc)
        assert out["a"][0] == math.inf and out["a"][1] == -math.inf
        assert math.isnan(out["a"][2]) and out["a"][3] == "keep"
        assert out["b"]["c"] == math.inf

    def test_create_twice_errors(self, tmp_path):
        spec = load_spec(write_spec(tmp_path))
        CampaignStore.create(tmp_path / "s", spec)
        with pytest.raises(StoreError, match="--resume"):
            CampaignStore.create(tmp_path / "s", spec)

    def test_open_rejects_different_spec(self, tmp_path):
        spec = load_spec(write_spec(tmp_path))
        CampaignStore.create(tmp_path / "s", spec)
        other = load_spec(write_spec(tmp_path, dict(SPEC_DOC, name="other")))
        with pytest.raises(StoreError, match="different spec"):
            CampaignStore.open(tmp_path / "s", other)

    def test_open_missing(self, tmp_path):
        with pytest.raises(StoreError, match="no campaign store"):
            CampaignStore.open(tmp_path / "nowhere")

    def test_torn_manifest_line_tolerated(self, tmp_path, fake_claim):
        spec = load_spec(write_spec(tmp_path, FAKE_SPEC_DOC))
        store = CampaignStore.create(tmp_path / "s", spec)
        cell = spec.cells()[0]
        store.write_cell(run_cell(cell))
        with store.manifest_path.open("a") as fh:
            fh.write('{"cell": "e1-trunc')  # killed mid-append
        assert store.completed_ids() == {cell.cell_id}


class TestResume:
    def test_completed_cells_never_rerun(self, tmp_path, fake_claim):
        spec = load_spec(write_spec(tmp_path, FAKE_SPEC_DOC))
        first = run_campaign(spec, tmp_path / "s", max_cells=2)
        assert first.stopped_early and first.n_run == 2
        assert len(FAKE_CALLS) == 2
        ran_first = set(FAKE_CALLS)
        second = run_campaign(spec, tmp_path / "s", resume=True)
        assert second.complete and second.n_skipped == 2 and second.n_run == 2
        # the two cells completed before the interruption did not re-execute
        assert len(FAKE_CALLS) == 4
        assert set(FAKE_CALLS[2:]) == {0, 1, 2, 3} - ran_first

    def test_resumed_store_matches_uninterrupted(self, tmp_path, fake_claim):
        spec = load_spec(write_spec(tmp_path, FAKE_SPEC_DOC))
        run_campaign(spec, tmp_path / "a", max_cells=3)
        run_campaign(spec, tmp_path / "a", resume=True)
        run_campaign(spec, tmp_path / "b")

        def strip(rec):
            return {k: v for k, v in rec.items() if k not in ("runtime_seconds", "cache", "worker")}

        recs_a = [strip(r) for r in CampaignStore.open(tmp_path / "a").cell_records()]
        recs_b = [strip(r) for r in CampaignStore.open(tmp_path / "b").cell_records()]
        assert recs_a == recs_b

    def test_run_without_resume_on_existing_store_errors(self, tmp_path, fake_claim):
        spec = load_spec(write_spec(tmp_path, FAKE_SPEC_DOC))
        run_campaign(spec, tmp_path / "s", max_cells=1)
        with pytest.raises(StoreError, match="--resume"):
            run_campaign(spec, tmp_path / "s")

    def test_resume_of_complete_store_is_noop(self, tmp_path, fake_claim):
        spec = load_spec(write_spec(tmp_path, FAKE_SPEC_DOC))
        run_campaign(spec, tmp_path / "s")
        calls = len(FAKE_CALLS)
        report = run_campaign(spec, tmp_path / "s", resume=True)
        assert report.complete and report.n_run == 0
        assert len(FAKE_CALLS) == calls


@pytest.fixture
def small_store(tmp_path, fake_claim):
    spec = load_spec(write_spec(tmp_path, FAKE_SPEC_DOC))
    run_campaign(spec, tmp_path / "store")
    return tmp_path / "store"


class TestQuery:
    def test_where_filters(self, small_store):
        out = run_query(str(small_store), where=["seed>=2"], fmt="json")
        rows = json.loads(out)
        assert len(rows) == 2 and all(r["seed"] >= 2 for r in rows)
        out = run_query(str(small_store), where=["seed!=0"], fmt="json")
        assert len(json.loads(out)) == 3
        assert run_query(str(small_store), where=["seed=99"]) == "(no cells match)"

    def test_where_string_equality(self, small_store):
        rows = json.loads(run_query(str(small_store), where=["claim=e1"], fmt="json"))
        assert len(rows) == 4

    def test_malformed_where(self):
        with pytest.raises(QueryError, match="malformed --where"):
            parse_where("not a condition")

    def test_columns_projection_and_unknown(self, small_store):
        out = run_query(str(small_store), columns=["cell", "seed"], fmt="csv")
        header = out.splitlines()[0]
        assert header == "cell,seed"
        with pytest.raises(QueryError, match="unknown column"):
            run_query(str(small_store), columns=["nope"])

    def test_formats(self, small_store):
        table = run_query(str(small_store), fmt="table")
        assert "cell" in table and "passed" in table and "==" in table
        csv_out = run_query(str(small_store), fmt="csv")
        assert len(csv_out.splitlines()) == 5  # header + 4 cells
        json_rows = json.loads(run_query(str(small_store), fmt="json"))
        assert len(json_rows) == 4 and json_rows[0]["claim"] == "e1"
        with pytest.raises(QueryError, match="unknown format"):
            format_rows([{"a": 1}], ["a"], "yaml")

    def test_rows_mode_exposes_row_fields(self, small_store):
        rows = json.loads(run_query(str(small_store), fmt="json", include_rows=True))
        assert all("width" in r and "row" in r for r in rows)
        assert all(r["width"] == 3 for r in rows)
        # non-finite row values render as their strict-JSON string forms
        assert all(r["bound"] == "inf" and r["gap"] == "nan" for r in rows)

    def test_flatten_and_select(self, small_store):
        recs = list(CampaignStore.open(small_store).cell_records())
        flat = flatten_cells(recs)
        cols = select_columns(flat, None)
        assert cols[:4] == ["cell", "claim", "profile", "seed"]


class TestAggregation:
    def test_group_reduce(self):
        rows = [
            {"claim": "e1", "runtime_seconds": 1.0, "passed": True},
            {"claim": "e1", "runtime_seconds": 3.0, "passed": False},
            {"claim": "e2", "runtime_seconds": 2.0, "passed": True},
        ]
        out = group_reduce(
            rows,
            by=("claim",),
            metrics={"runtime_seconds": "mean", "passed": "all", "claim": "count"},
        )
        assert out[0] == {
            "claim": "e1", "mean_runtime_seconds": 2.0, "all_passed": False, "n_cells": 2,
        }
        assert out[1]["mean_runtime_seconds"] == 2.0 and out[1]["all_passed"] is True

    def test_group_reduce_unknown_agg(self):
        with pytest.raises(ValueError, match="unknown aggregation"):
            group_reduce([], by=("a",), metrics={"a": "median"})

    def test_campaign_claim_summary(self, small_store):
        summary = campaign_claim_summary(small_store)
        assert len(summary) == 1
        assert summary[0]["claim"] == "e1"
        assert summary[0]["n_cells"] == 4
        assert summary[0]["pass_rate"] == 1.0


class TestResultsDir:
    def test_campaign_store_honors_results_dir_env(self, tmp_path, monkeypatch, fake_claim, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "redirected"))
        spec_path = write_spec(tmp_path, FAKE_SPEC_DOC)
        assert main(["campaign", "run", str(spec_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "redirected" / "campaigns" / "fake" / "store.json").is_file()

    def test_unwritable_results_dir_is_a_clear_error(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the directory should go")
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(blocker))
        with pytest.raises(ResultsDirError, match="REPRO_RESULTS_DIR"):
            resolve_results_dir("campaigns/x")

    def test_cli_reports_unwritable_dir(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(blocker))
        spec_path = write_spec(tmp_path, FAKE_SPEC_DOC)
        assert main(["campaign", "run", str(spec_path)]) == 2
        assert "REPRO_RESULTS_DIR" in capsys.readouterr().err


class TestCampaignCli:
    def test_cells_action(self, tmp_path, capsys):
        assert main(["campaign", "cells", str(write_spec(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "4 cells" in out and "e1-" in out

    def test_run_resume_and_exit_codes(self, tmp_path, fake_claim, capsys):
        spec_path = write_spec(tmp_path, FAKE_SPEC_DOC)
        store = tmp_path / "s"
        assert main([
            "campaign", "run", str(spec_path), "--store", str(store), "--max-cells", "2",
        ]) == 3
        assert "relaunch with --resume" in capsys.readouterr().err
        assert main([
            "campaign", "run", str(spec_path), "--store", str(store), "--resume",
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign complete: all 4 cells hold" in out
        assert "per-claim rollup" in out

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["campaign", "run", str(bad)]) == 2
        assert "campaign:" in capsys.readouterr().err

    def test_failed_cell_exits_1(self, tmp_path, fake_claim, monkeypatch, capsys):
        monkeypatch.setitem(
            REGISTRY, "e1",
            replace(REGISTRY["e1"], check=lambda rows, profile: ["boom"]),
        )
        spec_path = write_spec(tmp_path, FAKE_SPEC_DOC)
        code = main(["campaign", "run", str(spec_path), "--store", str(tmp_path / "s")])
        assert code == 1
        assert "FAILED" in capsys.readouterr().err

    def test_query_cli(self, small_store, capsys):
        assert main(["query", str(small_store), "--where", "seed=1"]) == 0
        out = capsys.readouterr().out
        assert "1 cells" in out
        assert main(["query", str(small_store), "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5

    def test_query_bad_store_exits_2(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "nope")]) == 2
        assert "query:" in capsys.readouterr().err

    def test_query_bad_where_exits_2(self, small_store, capsys):
        assert main(["query", str(small_store), "--where", "???"]) == 2
        assert "malformed" in capsys.readouterr().err


class TestPoolExecution:
    def test_jobs_2_produces_identical_store(self, tmp_path):
        """Real registry claims through the process pool, vs serial."""
        doc = dict(
            SPEC_DOC,
            name="pool",
            grid={"claim": ["e1"], "n": [24, 32], "seed": [0, 1]},
        )
        spec = load_spec(write_spec(tmp_path, doc))
        run_campaign(spec, tmp_path / "serial", jobs=1)
        run_campaign(spec, tmp_path / "pool", jobs=2)

        def strip(rec):
            return {k: v for k, v in rec.items() if k not in ("runtime_seconds", "cache", "worker")}

        serial = [strip(r) for r in CampaignStore.open(tmp_path / "serial").cell_records()]
        pooled = [strip(r) for r in CampaignStore.open(tmp_path / "pool").cell_records()]
        assert serial == pooled
        assert all(r["passed"] for r in serial)


class TestCampaignTelemetry:
    def test_store_grows_a_snapshot_stream(self, tmp_path, fake_claim):
        from repro.obs.telemetry import read_snapshots

        spec = load_spec(write_spec(tmp_path, FAKE_SPEC_DOC))
        run_campaign(spec, tmp_path / "s")
        store = CampaignStore.open(tmp_path / "s")
        snaps = read_snapshots(store.telemetry_path)
        assert snaps, "run_campaign wrote no telemetry snapshots"
        final = snaps[-1]
        assert final["kind"] == "campaign"
        assert final["name"] == "fake"
        assert final["cells"] == {"total": 4, "done": 4, "failed": 0, "remaining": 0}
        assert final["parent"]["rss_bytes"] > 0
        # One worker slot (jobs=1 runs in-process) with all 4 cells on it.
        (slot,) = final["workers"].values()
        assert slot["cells"] == 4
        assert slot["rss_bytes"] > 0

    def test_records_carry_worker_samples(self, tmp_path, fake_claim):
        import os

        spec = load_spec(write_spec(tmp_path, FAKE_SPEC_DOC))
        run_campaign(spec, tmp_path / "s")
        for rec in CampaignStore.open(tmp_path / "s").cell_records():
            w = rec["worker"]
            assert w["pid"] == os.getpid()  # jobs=1: in-process
            assert w["rss_bytes"] > 0
            assert "telemetry" not in rec  # merged + stripped before disk

    def test_pooled_snapshot_tracks_worker_pids(self, tmp_path, fake_claim):
        from repro.obs.telemetry import read_snapshots

        spec = load_spec(write_spec(tmp_path, FAKE_SPEC_DOC))
        run_campaign(spec, tmp_path / "s", jobs=2)
        final = read_snapshots(CampaignStore.open(tmp_path / "s").telemetry_path)[-1]
        assert sum(w["cells"] for w in final["workers"].values()) == 4
        assert final["cells"]["done"] == 4

    def test_live_view_writes_to_stream(self, tmp_path, fake_claim):
        import io

        buf = io.StringIO()
        spec = load_spec(write_spec(tmp_path, FAKE_SPEC_DOC))
        run_campaign(spec, tmp_path / "s", live=True, live_stream=buf)
        out = buf.getvalue()
        # Non-TTY: one compact line per cell, then the final full panel.
        assert out.count("live: ") == 4
        assert "live: 4/4 done, 0 failed" in out
        assert "4/4 done, 0 failed, 0 remaining" in out

    def test_cli_live_flag(self, tmp_path, fake_claim, capsys):
        spec_path = write_spec(tmp_path, FAKE_SPEC_DOC)
        assert main([
            "campaign", "run", str(spec_path), "--store", str(tmp_path / "s"), "--live",
        ]) == 0
        out = capsys.readouterr().out
        assert "live: " in out
        assert "campaign complete: all 4 cells hold" in out

    def test_final_snapshot_forced_even_for_noop_resume(self, tmp_path, fake_claim):
        from repro.obs.telemetry import read_snapshots

        spec = load_spec(write_spec(tmp_path, FAKE_SPEC_DOC))
        run_campaign(spec, tmp_path / "s")
        store = CampaignStore.open(tmp_path / "s")
        before = len(read_snapshots(store.telemetry_path))
        run_campaign(spec, tmp_path / "s", resume=True)  # nothing left to run
        snaps = read_snapshots(store.telemetry_path)
        assert len(snaps) > before  # the forced final write still lands
        assert snaps[-1]["cells"]["done"] == 4

    def test_traced_campaign_merges_cell_spans(self, tmp_path, fake_claim, monkeypatch):
        from repro import obs
        from repro.obs import trace

        meet = tmp_path / "rendezvous"
        meet.mkdir()
        monkeypatch.setenv("REPRO_TEST_RENDEZVOUS", str(meet))
        monkeypatch.setitem(
            REGISTRY, "e1", replace(fake_claim, func="rendezvous_harness")
        )
        tracer = obs.enable(fresh=True)
        try:
            spec = load_spec(write_spec(tmp_path, FAKE_SPEC_DOC))
            run_campaign(spec, tmp_path / "s", jobs=2)
            cell_spans = [e for e in tracer.events() if e["name"] == "claim.e1"]
            assert len(cell_spans) == 4
            assert {e["args"]["cell"] for e in cell_spans} == {
                c.cell_id for c in spec.cells()
            }
            assert len({e["pid"] for e in cell_spans}) >= 2, (
                "expected spans from >= 2 pool workers"
            )
            assert trace.active() is tracer  # pool teardown left the parent tracer
        finally:
            obs.disable()

    def test_pooled_trace_ships_step_series(self, tmp_path, capsys):
        """A traced ``--jobs 2`` campaign exports every worker's step
        series, each reconciling against its run's final stats."""
        from repro import obs
        from repro.obs.metrics import StepSeries

        doc = {
            "name": "e6-pair",
            "profile": "quick",
            "grid": {"claim": ["e6"], "seed": [0, 1]},
            "check": False,  # the telemetry is under test, not the predicate
        }
        spec_path = write_spec(tmp_path, doc)
        runs = {}
        try:
            for jobs in (1, 2):
                tdir = tmp_path / f"trace{jobs}"
                assert main([
                    "campaign", "run", str(spec_path), "--jobs", str(jobs),
                    "--store", str(tmp_path / f"s{jobs}"), "--trace", str(tdir),
                ]) == 0
                obs.disable()
                runs[jobs] = json.loads((tdir / "series.json").read_text())["runs"]
        finally:
            obs.disable()
        capsys.readouterr()
        assert runs[1] and len(runs[2]) == len(runs[1])
        for rec in runs[2]:
            assert StepSeries.from_dict(rec).reconcile(rec["final_stats"]) == [], rec["name"]
