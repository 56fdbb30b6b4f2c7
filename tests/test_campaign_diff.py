"""Campaign store diff: content-digest join, statuses, exit semantics."""

import json

import pytest

from repro.campaign.diff import DiffError, diff_records, run_diff
from repro.campaign.spec import load_spec
from repro.campaign.store import CampaignStore, StoreError

SPEC_DOC = {
    "schema": "repro-campaign-spec/v1",
    "name": "diffme",
    "profile": "quick",
    "grid": {"claim": ["e1"], "n": [24, 32], "seed": [0, 1]},
}


@pytest.fixture
def cells(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_DOC))
    return load_spec(path).cells()


def record(cell, *, passed=True, runtime=1.0, failures=()):
    return {
        "cell": cell.cell_id,
        "claim": cell.claim,
        "profile": "quick",
        "seed": cell.seed,
        "overrides": dict(cell.overrides),
        "passed": passed,
        "failures": list(failures),
        "n_rows": 3,
        "runtime_seconds": runtime,
        "rows": [],
    }


def make_stores(tmp_path, cells, recs_a, recs_b):
    path = tmp_path / "spec.json"
    spec = load_spec(path)
    sa = CampaignStore.create(tmp_path / "a", spec)
    sb = CampaignStore.create(tmp_path / "b", spec)
    for rec in recs_a:
        sa.write_cell(rec)
    for rec in recs_b:
        sb.write_cell(rec)
    return str(tmp_path / "a"), str(tmp_path / "b")


class TestDiffRecords:
    def test_statuses(self, cells):
        c0, c1, c2, c3 = cells
        rows = diff_records(
            [record(c0), record(c1), record(c3)],
            [record(c0), record(c1, passed=False, failures=["x"]), record(c2)],
        )
        by_cell = {r["cell"]: r["status"] for r in rows}
        assert by_cell[c0.cell_id] == "same"
        assert by_cell[c1.cell_id] == "regressed"
        assert by_cell[c2.cell_id] == "only_b"
        assert by_cell[c3.cell_id] == "only_a"

    def test_fail_to_pass_is_improved(self, cells):
        c = cells[0]
        (row,) = diff_records([record(c, passed=False)], [record(c)])
        assert row["status"] == "improved"

    def test_metric_drift_lower_is_better(self, cells):
        c = cells[0]
        (row,) = diff_records(
            [record(c, runtime=1.0)],
            [record(c, runtime=1.5)],
            metrics=["runtime_seconds"],
            tolerance=0.2,
        )
        assert row["status"] == "regressed"
        assert row["runtime_seconds_drift"] == pytest.approx(0.5)
        (row,) = diff_records(
            [record(c, runtime=1.0)],
            [record(c, runtime=0.5)],
            metrics=["runtime_seconds"],
            tolerance=0.2,
        )
        assert row["status"] == "improved"

    def test_metric_within_tolerance_is_same(self, cells):
        c = cells[0]
        (row,) = diff_records(
            [record(c, runtime=1.0)],
            [record(c, runtime=1.05)],
            metrics=["runtime_seconds"],
            tolerance=0.1,
        )
        assert row["status"] == "same"

    def test_plus_prefix_flips_direction(self, cells):
        c = cells[0]
        (row,) = diff_records(
            [record(c)], [dict(record(c), n_rows=1)], metrics=["+n_rows"]
        )
        assert row["status"] == "regressed"

    def test_pass_flip_dominates_metric_gain(self, cells):
        c = cells[0]
        (row,) = diff_records(
            [record(c, runtime=2.0)],
            [record(c, passed=False, runtime=0.1)],
            metrics=["runtime_seconds"],
        )
        assert row["status"] == "regressed"

    def test_non_numeric_metric_errors(self, cells):
        c = cells[0]
        with pytest.raises(DiffError, match="not numeric"):
            diff_records([record(c)], [record(c)], metrics=["claim"])


class TestRunDiff:
    def test_regression_count_and_render(self, tmp_path, cells):
        a, b = make_stores(
            tmp_path,
            cells,
            [record(c) for c in cells],
            [record(cells[0]), record(cells[1], passed=False)]
            + [record(c) for c in cells[2:]],
        )
        text, n = run_diff(a, b)
        assert n == 1 and "regressed" in text
        text, n = run_diff(a, b, fmt="json")
        assert {r["status"] for r in json.loads(text)} == {"same", "regressed"}

    def test_only_changed_filter(self, tmp_path, cells):
        a, b = make_stores(
            tmp_path, cells, [record(c) for c in cells], [record(c) for c in cells]
        )
        text, n = run_diff(a, b, only_changed=True)
        assert n == 0 and text == "(no cells changed)"

    def test_missing_store_raises(self, tmp_path, cells):
        a, _ = make_stores(tmp_path, cells, [], [])
        with pytest.raises(StoreError, match="no campaign store"):
            run_diff(a, str(tmp_path / "nowhere"))


class TestCLI:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(["campaign", "diff", *argv])

    def test_exit_codes(self, tmp_path, cells, capsys):
        a, b = make_stores(
            tmp_path,
            cells,
            [record(c) for c in cells],
            [record(cells[0], passed=False)] + [record(c) for c in cells[1:]],
        )
        assert self.run_cli(a, b) == 1
        out = capsys.readouterr()
        assert "regressed" in out.out and "1 cell(s) regressed" in out.err
        assert self.run_cli(a, a) == 0
        assert self.run_cli(a, str(tmp_path / "nope")) == 2
        assert self.run_cli(a, b, "--metric", "claim") == 2

    def test_metric_and_format_flags(self, tmp_path, cells, capsys):
        a, b = make_stores(
            tmp_path,
            cells,
            [record(c, runtime=1.0) for c in cells],
            [record(c, runtime=3.0) for c in cells],
        )
        code = self.run_cli(
            a, b, "--metric", "runtime_seconds", "--tolerance", "0.5",
            "--format", "csv", "--only-changed",
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "runtime_seconds_drift" in out.splitlines()[0]
