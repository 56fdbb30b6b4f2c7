"""Tests for the claim-verification harness (registry, cache, results, runner).

Claims execute through the campaign runner (``repro verify`` is a
one-cell-per-claim campaign), so the runner tests drive ``run_cell``
and the verify CLI.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.__main__ import main
from repro.campaign import CampaignSpec, run_cell
from repro.harness import cache as cache_mod
from repro.harness.cache import SubstrateCache, points_digest
from repro.harness.registry import REGISTRY, build_rows, resolve_ids
from repro.harness.results import SCHEMA, default_results_dir, jsonify, write_result


def verify_cell(claim_id: str, profile: str = "quick"):
    """The one cell ``repro verify`` runs for ``claim_id``."""
    spec = CampaignSpec(
        name=f"verify-{profile}", profile=profile, grid={"claim": (claim_id,)}, fixed={}
    )
    (cell,) = spec.cells()
    return cell


class TestRegistry:
    def test_covers_e1_through_e24(self):
        assert list(REGISTRY) == [f"e{i}" for i in range(1, 25)]

    def test_claims_are_well_formed(self):
        for claim in REGISTRY.values():
            assert claim.paper_ref, claim.id
            assert callable(claim.check), claim.id
            assert callable(claim.harness()), claim.id  # module/function resolve
            assert claim.params("full") is claim.full_params
            assert claim.params("quick") is claim.quick_params

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            REGISTRY["e1"].params("medium")

    def test_resolve_ids(self):
        assert resolve_ids(None) == list(REGISTRY)
        assert resolve_ids("all") == list(REGISTRY)
        assert resolve_ids("e4, e7") == ["e4", "e7"]
        with pytest.raises(KeyError, match="e99"):
            resolve_ids("e1,e99")

    def test_resolve_ids_collapses_repeats_in_first_seen_order(self):
        assert resolve_ids("e1,e1,E1") == ["e1"]
        assert resolve_ids("e7, e4,E7,e4") == ["e7", "e4"]
        assert resolve_ids(" , ") == list(REGISTRY)  # no id named: no filter

    def test_build_rows_quick(self):
        rows = build_rows(REGISTRY["e1"], "quick")
        assert rows and all("max_degree" in r for r in rows)


class TestCache:
    def test_get_or_build_builds_once(self):
        c = SubstrateCache()
        calls = []
        for _ in range(3):
            v = c.get_or_build("k", lambda: calls.append(1) or "value")
        assert v == "value"
        assert len(calls) == 1
        assert c.stats.hits == 2 and c.stats.misses == 1

    def test_fifo_eviction(self):
        c = SubstrateCache(max_entries=2)
        for k in "abc":
            c.get_or_build(k, lambda k=k: k)
        assert len(c) == 2
        assert c.stats.evictions == 1
        c.get_or_build("a", lambda: "rebuilt")  # "a" was evicted
        assert c.stats.misses == 4

    def test_points_digest_is_content_keyed(self):
        a = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert points_digest(a) == points_digest(a.copy())
        assert points_digest(a) != points_digest(a + 1e-9)
        assert points_digest(a) != points_digest(a.ravel())  # shape matters

    def test_cached_range_shares_work(self):
        cache_mod.clear_cache()
        pts = np.random.default_rng(0).random((32, 2))
        d1 = cache_mod.cached_range(pts, 1.5)
        d2 = cache_mod.cached_range(pts.copy(), 1.5)
        assert d1 == d2
        assert cache_mod.cache_stats() == {"hits": 1, "misses": 1, "evictions": 0}


class TestResults:
    def test_jsonify_handles_numpy_and_nonfinite(self):
        payload = {
            "i": np.int64(3),
            "f": np.float64(1.5),
            "b": np.bool_(True),
            "nan": float("nan"),
            "inf": float("inf"),
            "ninf": float("-inf"),
            "nested": [np.int32(1), {"x": math.inf}],
        }
        out = jsonify(payload)
        assert out == {
            "i": 3,
            "f": 1.5,
            "b": True,
            "nan": "nan",
            "inf": "inf",
            "ninf": "-inf",
            "nested": [1, {"x": "inf"}],
        }
        json.dumps(out, allow_nan=False)  # strict JSON round-trips

    def test_write_result_respects_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "redirected"))
        assert default_results_dir() == tmp_path / "redirected"
        cell = {
            "cell": "e0-0123456789", "claim": "e0", "title": "t", "paper_ref": "ref",
            "profile": "quick", "seed": 0, "overrides": {}, "params": {},
            "rows": [{"v": np.float64(2.0)}], "n_rows": 1, "passed": True,
            "failures": [], "runtime_seconds": 0.1, "cache": {}, "worker": {"pid": 1},
        }
        path = write_result(cell)
        assert path == tmp_path / "redirected" / "e0.json"
        rec = json.loads(path.read_text())
        assert rec["schema"] == SCHEMA
        assert rec["passed"] is True
        assert rec["n_rows"] == 1 and rec["rows"] == [{"v": 2.0}]
        # cell/store bookkeeping stays out of the claim record
        assert not {"cell", "overrides", "worker", "trace"} & set(rec)

    def test_default_results_dir_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        assert str(default_results_dir()).endswith("results")


class TestRunner:
    def test_verify_claim_passes(self):
        rec = run_cell(verify_cell("e1"))
        assert rec["passed"] and rec["rows"] and rec["runtime_seconds"] >= 0
        assert rec["paper_ref"] == "Lemma 2.1"
        assert rec["seed"] == REGISTRY["e1"].seed
        assert rec["params"] == dict(REGISTRY["e1"].quick_params)

    def test_crashing_predicate_is_a_failure_not_a_crash(self, monkeypatch):
        def boom(rows, profile):
            raise RuntimeError("kaput")

        broken = dataclasses.replace(REGISTRY["e1"], check=boom)
        monkeypatch.setitem(REGISTRY, "e1", broken)
        rec = run_cell(verify_cell("e1"))
        assert not rec["passed"]
        assert "predicate raised RuntimeError" in rec["failures"][0]

    def test_unknown_claim_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["verify", "--quick", "--only", "e99"]) == 2
        assert "e99" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_parallel_matches_serial(self, tmp_path, monkeypatch, capsys):
        keys = ("claim", "seed", "params", "rows", "n_rows", "passed", "failures")
        out = {}
        for jobs in (1, 2):
            monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / f"jobs{jobs}"))
            assert main(["verify", "--quick", "--jobs", str(jobs), "--only", "e1,e5"]) == 0
            out[jobs] = [
                json.loads((tmp_path / f"jobs{jobs}" / f"{cid}.json").read_text())
                for cid in ("e1", "e5")
            ]
        capsys.readouterr()
        assert [r["claim"] for r in out[2]] == ["e1", "e5"]
        for s, p in zip(out[1], out[2]):
            assert {k: s[k] for k in keys} == {k: p[k] for k in keys}
