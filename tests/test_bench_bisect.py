"""`repro bench bisect`: attribute a regression to an entry/commit range.

Runs entirely on the committed synthetic fixture trajectory (10 entries,
a 12 % regression injected at index 6) plus in-memory variants — no
simulator.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.bench import bisect_trajectory, load_trajectory

FIXTURE = (Path(__file__).parent / "data" / "bench_profiles"
           / "bisect_trajectory.json")
SCENARIO = "uniform_nvoverlay"
ENV = "fixture-env"


@pytest.fixture()
def trajectory():
    return load_trajectory(FIXTURE)


class TestAttribution:
    def test_attributes_to_the_injected_entry(self, trajectory):
        expected = trajectory["first_bad_index"]
        report = bisect_trajectory(trajectory, SCENARIO, env=ENV)
        assert report.status == "regression"
        assert report.regressed
        assert report.first_bad["index"] == expected
        assert report.first_bad["commit"] == f"c{expected}"
        assert report.last_good["index"] == expected - 1
        assert report.last_good["commit"] == f"c{expected - 1}"
        assert report.median_ratio < 0.95

    def test_probes_are_logarithmic_not_linear(self, trajectory):
        """Binary search: 10 entries need ~log2 probes, not 10."""
        report = bisect_trajectory(trajectory, SCENARIO, env=ENV)
        assert 1 < len(report.steps) <= 5

    def test_clean_trajectory_reports_clean(self, trajectory):
        clean = copy.deepcopy(trajectory)
        good = clean["entries"][:clean["first_bad_index"]]
        clean["entries"] = good
        report = bisect_trajectory(clean, SCENARIO, env=ENV)
        assert report.status == "clean"
        assert not report.regressed
        assert report.first_bad is None
        assert report.last_good["index"] == len(good) - 1

    def test_regression_at_first_entry_after_good(self, trajectory):
        """Degenerate range: good entry, then immediately bad."""
        narrow = copy.deepcopy(trajectory)
        first_bad = narrow["first_bad_index"]
        narrow["entries"] = [narrow["entries"][first_bad - 1],
                             narrow["entries"][first_bad]]
        report = bisect_trajectory(narrow, SCENARIO, env=ENV)
        assert report.status == "regression"
        assert report.first_bad["commit"] == f"c{first_bad}"
        assert report.last_good["commit"] == f"c{first_bad - 1}"

    def test_env_mismatch_is_insufficient(self, trajectory):
        report = bisect_trajectory(trajectory, SCENARIO, env="other-env")
        assert report.status == "insufficient"
        assert report.considered == []

    def test_quick_filter_excludes_full_entries(self, trajectory):
        report = bisect_trajectory(trajectory, SCENARIO, env=ENV, quick=True)
        assert report.status == "insufficient"  # fixtures are quick=False

    def test_sample_starved_entries_are_skipped(self, trajectory):
        """Empty or 3-sample entries are listed, never judged."""
        stripped = copy.deepcopy(trajectory)
        empty = stripped["entries"][0]["results"][SCENARIO]
        empty["samples_ops_per_sec"] = []
        empty["all_seconds"] = []
        empty["ops"] = 0
        bad_index = stripped["first_bad_index"]
        short = stripped["entries"][bad_index]["results"][SCENARIO]
        short["samples_ops_per_sec"] = short["samples_ops_per_sec"][:3]
        report = bisect_trajectory(stripped, SCENARIO, env=ENV)
        assert report.skipped == [0, bad_index]
        assert 0 not in report.considered
        assert bad_index not in report.considered
        # Attribution shifts to the next regressed entry.
        assert report.status == "regression"
        assert report.first_bad["index"] == bad_index + 1

    def test_report_is_machine_readable(self, trajectory):
        report = bisect_trajectory(trajectory, SCENARIO, env=ENV)
        payload = report.to_dict()
        json.dumps(payload)  # JSON-safe end to end
        assert payload["status"] == "regression"
        assert payload["first_bad"]["commit"]
        assert all({"index", "label", "commit", "regressed", "check"}
                   <= set(step) for step in payload["steps"])


class TestCli:
    def test_bisect_json_verdict(self, capsys):
        argv = ["bench", "bisect", "--scenario", SCENARIO, "--env", ENV,
                "--trajectory", str(FIXTURE), "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "regression"
        assert payload["first_bad"]["commit"] == "c6"
        assert payload["last_good"]["commit"] == "c5"

    def test_bisect_human_output(self, capsys):
        argv = ["bench", "bisect", "--scenario", SCENARIO, "--env", ENV,
                "--trajectory", str(FIXTURE)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "verdict: regression" in out
        assert "c6" in out and "probe entry" in out

    def test_bisect_insufficient_exits_1(self, capsys):
        argv = ["bench", "bisect", "--scenario", SCENARIO,
                "--env", "nothing-here", "--trajectory", str(FIXTURE)]
        assert main(argv) == 1
        assert "insufficient" in capsys.readouterr().out

    def test_fixture_generator_is_deterministic(self, tmp_path):
        """The committed fixtures match what the generator produces."""
        import importlib.util

        gen_path = FIXTURE.parent / "_generate.py"
        spec = importlib.util.spec_from_file_location("_generate", gen_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.make_bisect_trajectory() == json.loads(
            FIXTURE.read_text())
        assert module.make_fixtures() == json.loads(
            (FIXTURE.parent / "fixtures.json").read_text())
