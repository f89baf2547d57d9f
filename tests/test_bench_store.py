"""Trajectory/profile store: the schema-2 gate, profiles, round trips.

No simulator here either.
"""

import json

import pytest

from repro.harness.bench import store
from repro.harness.bench.collect import SCENARIOS, BenchResult


def _result(name, ops, seconds_list):
    best = min(seconds_list)
    return BenchResult(
        name=name, ops=ops, seconds=best, ops_per_sec=ops / best,
        cycles=1, stores=1, transactions=1, repeats=len(seconds_list),
        all_seconds=list(seconds_list),
    )


class TestMigration:
    """Schema 2 is the only schema ``load_trajectory`` reads."""

    @staticmethod
    def _refused(tmp_path, schema):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"schema": schema, "entries": []}))
        with pytest.raises(ValueError) as excinfo:
            store.load_trajectory(path)
        return str(excinfo.value)

    def test_retired_schema_1_refused(self, tmp_path):
        assert "schema 1 is not supported" in self._refused(tmp_path, 1)

    def test_newer_schema_refused(self, tmp_path):
        assert "schema 3 is not supported" in self._refused(tmp_path, 3)

    def test_committed_trajectory_is_v2_with_samples(self):
        data = store.load_trajectory(store.default_trajectory_path())
        raw = json.loads(store.default_trajectory_path().read_text())
        assert raw["schema"] == 2  # the only schema the reader takes
        for entry in data["entries"]:
            for name in entry["results"]:
                assert store.entry_samples(entry, name), (entry["label"], name)

    def test_committed_github_ci_baseline_exists(self):
        """CI gates --check against this entry; it must carry enough
        samples for the statistical detectors."""
        data = store.load_trajectory(store.default_trajectory_path())
        entry = store.baseline_entry(data, env="github-ci", quick=True)
        assert entry is not None
        assert entry["host_calibration"] > 0
        for name in entry["results"]:
            assert len(store.entry_samples(entry, name)) >= 5, name

    def test_committed_github_ci_baselines_cover_every_scenario(self):
        """CI's quick gate judges every registered scenario: none fails
        as missing or insufficient against the committed trajectory."""
        data = store.load_trajectory(store.default_trajectory_path())
        for name in SCENARIOS:
            entry = store.baseline_entry(data, env="github-ci", quick=True,
                                         scenario=name)
            assert entry is not None, name
            assert entry["host_calibration"] > 0, name
            assert len(store.entry_samples(entry, name)) >= 5, name


class TestProfiles:
    def test_write_profile_keeps_all_samples(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ENV", "prof-env")
        path = tmp_path / "deep" / "profile.json"
        seconds = [1.0, 1.2, 0.8, 1.1, 0.9, 1.05]
        store.write_profile(path, {"s": _result("s", 1000, seconds)},
                            label="ab-run", quick=True,
                            timestamp="2026-08-08T00:00:00",
                            calibration=0.01, commit="deadbeef")
        doc = store.load_trajectory(path)  # profiles read as trajectories
        assert doc["schema"] == 2
        entry = doc["entries"][0]
        assert entry["label"] == "ab-run"
        assert entry["commit"] == "deadbeef"
        assert entry["env"] == "prof-env"
        assert len(store.entry_samples(entry, "s")) == len(seconds)

    def test_bench_result_samples_property(self):
        result = _result("s", 1000, [2.0, 4.0])
        assert result.samples_ops_per_sec == [500.0, 250.0]
        assert result.to_dict()["samples_ops_per_sec"] == [500.0, 250.0]

    def test_entry_samples_missing_scenario_is_empty(self):
        assert store.entry_samples({"results": {}}, "nope") == []

    def test_load_missing_file(self, tmp_path):
        data = store.load_trajectory(tmp_path / "absent.json")
        assert data == {"schema": 2, "entries": []}

    def test_current_commit_in_this_repo(self):
        sha = store.current_commit()
        assert sha is None or (len(sha) >= 7 and sha.strip() == sha)
