"""Tests for the throughput harness (`repro bench`) and its trajectory.

Collect-stage tests are deterministic: the clock is a scripted fake
(monkeypatching the ``perf_counter`` seam in
``repro.harness.bench.collect``) and the machine is a canned
sample-stream player substituted at the ``_build`` seam — no bench test
here depends on wall-clock timing.  The one intentionally real-timing
smoke is opt-in via ``@pytest.mark.slow`` (``pytest --run-slow``).

Detector, store and bisect coverage live in
``test_bench_detectors.py`` / ``test_bench_store.py`` /
``test_bench_bisect.py`` (simulator-free).
"""

import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.harness import bench
from repro.harness.bench import (
    BenchResult,
    SCENARIOS,
    append_entry,
    baseline_entry,
    collect,
    env_id,
    load_trajectory,
    run_bench,
    run_fingerprint,
    run_scenario,
)
from repro.harness.spec import RunSpec


class FakeClock:
    """Scripted ``perf_counter``: each call returns the running total,
    then advances it by the next scripted delta (cycling)."""

    def __init__(self, deltas):
        self.deltas = list(deltas)
        self.index = 0
        self.now = 0.0

    def __call__(self):
        current = self.now
        self.now += self.deltas[self.index % len(self.deltas)]
        self.index += 1
        return current


class FakeMachine:
    """Canned sample-stream player standing in for ``Machine``."""

    def __init__(self, ops=32000, cycles=4888, stores=160, transactions=80):
        self.stats = SimpleNamespace(get=lambda key: ops)
        self._outcome = SimpleNamespace(
            cycles=cycles, stores=stores, transactions=transactions)
        self.runs = 0

    def run(self, workload):
        self.runs += 1
        return self._outcome


def fake_collect(monkeypatch, elapsed_per_repeat, **machine_kwargs):
    """Install the fake clock + canned machine; collect's timed region
    then measures exactly ``elapsed_per_repeat`` per repeat.  The host
    calibration (which shares the clock seam) is pinned to a constant
    so CLI paths don't consume the scripted deltas."""
    deltas = []
    for elapsed in elapsed_per_repeat:
        deltas.extend([elapsed, 0.0])  # start->stop, stop->next start
    monkeypatch.setattr(collect, "perf_counter", FakeClock(deltas))
    monkeypatch.setattr(bench, "host_calibration",
                        lambda rounds=collect.CALIBRATION_ROUNDS: 0.009)
    machines = []

    def build(spec):
        machine = FakeMachine(**machine_kwargs)
        machines.append(machine)
        return machine, None, None

    monkeypatch.setattr(collect, "_build", build)
    return machines


def _result(name: str, ops_per_sec: float, samples=None) -> BenchResult:
    seconds = ([1000.0 / s for s in samples] if samples
               else [1000.0 / ops_per_sec])
    return BenchResult(
        name=name, ops=1000, seconds=min(seconds),
        ops_per_sec=ops_per_sec, cycles=1, stores=1, transactions=1, repeats=len(seconds),
        all_seconds=seconds,
    )


class TestScenarios:
    def test_catalog_pairs_schemes(self):
        schemes = {s.scheme for s in SCENARIOS.values()}
        assert schemes == {"nvoverlay", "picl"}
        workloads = {s.workload for s in SCENARIOS.values()}
        assert workloads == {"uniform", "btree", "ycsb_a", "load_burst"}

    def test_serve_scenario_uses_the_timetravel_load_settings(self):
        from repro.load.scenarios import DEFAULT_SERVE_POLICY, SERVE_NVO_PARAMS

        spec = SCENARIOS["timetravel_serve_nvoverlay"].spec(quick=True)
        assert spec.serve == DEFAULT_SERVE_POLICY
        assert spec.nvo_params == SERVE_NVO_PARAMS
        assert spec.nvo_params.quota_pages is not None

    def test_quick_spec_scales_down(self):
        scenario = SCENARIOS["uniform_nvoverlay"]
        full = scenario.spec(quick=False)
        quick = scenario.spec(quick=True)
        assert quick.scale == pytest.approx(full.scale * scenario.quick_scale)
        assert quick.workload == full.workload
        assert quick.scheme == full.scheme

    def test_run_scenario_measures_deterministically(self, monkeypatch):
        """Fake clock + canned stream: every number is exact."""
        fake_collect(monkeypatch, [0.5, 0.4, 0.2], ops=1000, transactions=80)
        result = run_scenario(SCENARIOS["ycsb_a_picl"], quick=True,
                              repeats=3)
        assert result.all_seconds == [pytest.approx(s) for s in
                                      [0.5, 0.4, 0.2]]
        assert result.seconds == pytest.approx(0.2)  # best repeat wins
        assert result.ops == 1000
        assert result.ops_per_sec == pytest.approx(1000 / 0.2)
        assert result.samples_ops_per_sec == [
            pytest.approx(1000 / s) for s in [0.5, 0.4, 0.2]]
        assert result.transactions == 80
        assert result.repeats == 3
        payload = result.to_dict()
        assert payload["ops"] == 1000
        assert payload["repeats"] == 3
        assert len(payload["samples_ops_per_sec"]) == 3

    def test_run_scenario_keeps_every_repeat_sample(self, monkeypatch):
        machines = fake_collect(monkeypatch, [0.3, 0.1, 0.2, 0.4, 0.25])
        result = run_scenario(SCENARIOS["uniform_nvoverlay"], repeats=5)
        assert len(machines) == 5  # fresh machine per repeat
        assert result.all_seconds == [pytest.approx(s) for s in
                                      [0.3, 0.1, 0.2, 0.4, 0.25]]
        assert result.seconds == pytest.approx(0.1)
        assert len(result.samples_ops_per_sec) == 5

    def test_run_bench_rejects_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown bench scenario"):
            run_bench(["nope"], quick=True)

    def test_run_bench_runs_selected(self, monkeypatch):
        fake_collect(monkeypatch, [0.5])
        results = run_bench(["uniform_picl", "btree_picl"], repeats=1)
        assert set(results) == {"uniform_picl", "btree_picl"}

    @pytest.mark.slow
    def test_real_timing_smoke(self):
        """The one wall-clock test: the real simulator, really timed."""
        result = run_scenario(SCENARIOS["ycsb_a_picl"], quick=True,
                              repeats=2)
        assert result.ops > 0
        assert result.ops_per_sec > 0
        assert result.seconds == min(result.all_seconds)
        assert len(result.all_seconds) == 2

    def test_oracle_scenario_runs(self):
        result = run_scenario(SCENARIOS["uniform_picl"], quick=True,
                              repeats=1, oracle=True)
        assert result.ops > 0


class TestOracleFingerprint:
    @pytest.mark.parametrize("scheme", ["nvoverlay", "picl"])
    def test_armed_run_changes_no_fingerprint(self, scheme):
        """The oracle is observation-only: arming it must not move a
        single counter, cycle, or memory byte — only the spec key."""
        spec = RunSpec(workload="uniform", scheme=scheme, scale=0.1)
        plain = run_fingerprint(spec)
        armed = run_fingerprint(spec.with_changes(oracle=True))
        assert plain.pop("spec_key") != armed.pop("spec_key")
        assert armed == plain


class TestTrajectory:
    def test_load_missing_file(self, tmp_path):
        data = load_trajectory(tmp_path / "absent.json")
        assert data == {"schema": 2, "entries": []}

    def test_append_and_baseline_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ENV", "test-env")
        path = tmp_path / "traj.json"
        results = {"uniform_nvoverlay": _result("uniform_nvoverlay", 100.0)}
        append_entry(path, results, label="first", quick=True,
                     timestamp="2026-01-01T00:00:00")
        append_entry(path, results, label="second", quick=True,
                     timestamp="2026-01-02T00:00:00")
        data = load_trajectory(path)
        assert [e["label"] for e in data["entries"]] == ["first", "second"]
        assert data["entries"][0]["env"] == "test-env"
        # Most recent matching entry wins.
        assert baseline_entry(data, quick=True)["label"] == "second"
        # quick mismatch and env mismatch both disqualify.
        assert baseline_entry(data, quick=False) is None
        assert baseline_entry(data, env="other-env") is None

    def test_baseline_is_the_newest_entry_that_measured_the_scenario(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BENCH_ENV", "test-env")
        path = tmp_path / "traj.json"
        append_entry(path, {name: _result(name, 100.0)
                            for name in ("uniform_picl", "btree_picl")},
                     label="both", quick=True, timestamp="2026-01-01T00:00:00")
        append_entry(path, {"btree_picl": _result("btree_picl", 100.0)},
                     label="one", quick=True, timestamp="2026-01-02T00:00:00")
        data = load_trajectory(path)
        assert baseline_entry(data, quick=True)["label"] == "one"
        assert baseline_entry(data, quick=True, scenario="btree_picl")["label"] == "one"
        assert baseline_entry(data, quick=True, scenario="uniform_picl")["label"] == "both"
        assert baseline_entry(data, quick=True, scenario="ycsb_a_picl") is None

    def test_env_id_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ENV", "github-ci")
        assert env_id() == "github-ci"
        monkeypatch.delenv("REPRO_BENCH_ENV")
        assert "py" in env_id()

    def test_trajectory_file_is_valid_json(self, tmp_path):
        path = tmp_path / "traj.json"
        append_entry(path, {"s": _result("s", 10.0)}, label="x", quick=False,
                     timestamp="2026-01-01T00:00:00")
        parsed = json.loads(path.read_text())
        assert parsed["schema"] == 2
        assert parsed["entries"][0]["results"]["s"]["ops_per_sec"] == 10.0
        assert parsed["entries"][0]["results"]["s"]["samples_ops_per_sec"]


class TestCli:
    def test_bench_command_end_to_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ENV", "test-env")
        path = tmp_path / "traj.json"
        # Canned collect: both runs measure identical distributions, so
        # the detector gate must pass deterministically — no wall-clock
        # jitter, no wide threshold.
        fake_collect(monkeypatch, [0.5, 0.45, 0.55, 0.48, 0.52])
        argv = ["bench", "--quick", "--scenarios", "ycsb_a_picl",
                "--repeats", "5", "--trajectory", str(path), "--check",
                "--label", "unit test"]
        # First run: no baseline — the gate fails loudly, but the entry
        # is still recorded so the next run has a baseline.
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "ycsb_a_picl" in captured.out
        assert "no baseline entry for env 'test-env'" in captured.err
        data = load_trajectory(path)
        assert [e["label"] for e in data["entries"]] == ["unit test"]
        # Second run: baseline exists; identical canned distribution →
        # statistical gate passes.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "regression gate: OK" in captured.err
        assert len(load_trajectory(path)["entries"]) == 2

    def test_bench_check_flags_canned_regression(self, tmp_path, capsys,
                                                 monkeypatch):
        """A 30% slowdown in the canned stream fires both detectors."""
        monkeypatch.setenv("REPRO_BENCH_ENV", "test-env")
        path = tmp_path / "traj.json"
        append_entry(path, {"ycsb_a_picl": _result(
            "ycsb_a_picl",
            max(32000 / s for s in [0.50, 0.45, 0.55, 0.48, 0.52]),
            samples=[32000 / s for s in [0.50, 0.45, 0.55, 0.48, 0.52]])},
            label="fast", quick=True, timestamp="2026-01-01T00:00:00")
        fake_collect(monkeypatch, [0.65, 0.59, 0.72, 0.62, 0.68])
        argv = ["bench", "--quick", "--scenarios", "ycsb_a_picl",
                "--repeats", "5", "--trajectory", str(path), "--check",
                "--no-update"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "REGRESSION ycsb_a_picl" in captured.err
        assert "mann_whitney" in captured.err
        assert "bootstrap_median" in captured.err
        # --no-update must not have appended.
        assert len(load_trajectory(path)["entries"]) == 1

    def test_bench_check_missing_baseline_fails_clearly(
        self, tmp_path, capsys, monkeypatch
    ):
        """--check with no baseline for this env: exit 1, clear message,
        no traceback (regression test for the old silent skip)."""
        monkeypatch.setenv("REPRO_BENCH_ENV", "never-benched-env")
        path = tmp_path / "traj.json"
        fake_collect(monkeypatch, [0.5])
        argv = ["bench", "--quick", "--scenarios", "ycsb_a_picl",
                "--trajectory", str(path), "--check", "--no-update"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "no baseline entry for env 'never-benched-env'" in captured.err
        assert "run without --check" in captured.err
        assert "Traceback" not in captured.err

    def test_bench_check_with_too_few_repeats_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        """Three repeats cannot feed the detectors: refused before any
        scenario is collected."""
        monkeypatch.setenv("REPRO_BENCH_ENV", "test-env")

        def never(*args, **kwargs):
            raise AssertionError("run_bench called")

        monkeypatch.setattr(bench, "run_bench", never)
        argv = ["bench", "--quick", "--scenarios", "ycsb_a_picl",
                "--repeats", "3", "--trajectory", str(tmp_path / "t.json"),
                "--check", "--no-update"]
        assert main(argv) == 2
        assert "--check needs --repeats >= 5" in capsys.readouterr().err

    def test_bench_check_fails_on_a_starved_baseline(
        self, tmp_path, capsys, monkeypatch
    ):
        """A 3-sample baseline scenario fails the gate by name instead
        of being judged by a weaker rule."""
        monkeypatch.setenv("REPRO_BENCH_ENV", "test-env")
        path = tmp_path / "traj.json"
        append_entry(path, {"ycsb_a_picl": _result(
            "ycsb_a_picl", 64000.0, samples=[64000.0, 65000.0, 63000.0])},
            label="three repeats", quick=True,
            timestamp="2026-01-01T00:00:00")
        fake_collect(monkeypatch, [0.5, 0.45, 0.55, 0.48, 0.52])
        argv = ["bench", "--quick", "--scenarios", "ycsb_a_picl",
                "--trajectory", str(path), "--check", "--no-update"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "INSUFFICIENT ycsb_a_picl" in err
        assert "baseline 3" in err
        assert "regression gate: OK" not in err

    def test_bench_check_judges_every_scenario_against_its_newest_entry(
        self, tmp_path, capsys, monkeypatch
    ):
        """A newest entry holding one scenario (a paired A/B) leaves the
        others judged against the older entry that measured them: a
        slowdown there still fails the gate."""
        monkeypatch.setenv("REPRO_BENCH_ENV", "test-env")
        path = tmp_path / "traj.json"
        fast = [32000 / s for s in [0.50, 0.45, 0.55, 0.48, 0.52]]
        append_entry(path, {name: _result(name, max(fast), samples=fast)
                            for name in ("ycsb_a_picl", "uniform_picl")},
                     label="full", quick=True, timestamp="2026-01-01T00:00:00")
        append_entry(path, {"uniform_picl": _result(
            "uniform_picl", max(fast), samples=fast)},
            label="a/b", quick=True, timestamp="2026-01-02T00:00:00")
        argv = ["bench", "--quick", "--scenarios", "ycsb_a_picl,uniform_picl",
                "--repeats", "5", "--trajectory", str(path), "--check",
                "--no-update"]
        fake_collect(monkeypatch, [0.5, 0.45, 0.55, 0.48, 0.52])
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "regression gate: OK, 2 scenarios judged against 2 " in err
        fake_collect(monkeypatch, [0.65, 0.59, 0.72, 0.62, 0.68])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "REGRESSION ycsb_a_picl" in err and "baseline 'full'" in err

    def test_bench_check_fails_a_scenario_no_entry_measured(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BENCH_ENV", "test-env")
        path = tmp_path / "traj.json"
        fast = [32000 / s for s in [0.50, 0.45, 0.55, 0.48, 0.52]]
        append_entry(path, {"uniform_picl": _result(
            "uniform_picl", max(fast), samples=fast)},
            label="partial", quick=True, timestamp="2026-01-01T00:00:00")
        fake_collect(monkeypatch, [0.5, 0.45, 0.55, 0.48, 0.52])
        argv = ["bench", "--quick", "--scenarios", "ycsb_a_picl,uniform_picl",
                "--repeats", "5", "--trajectory", str(path), "--check",
                "--no-update"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "MISSING ycsb_a_picl" in err
        assert "uniform_picl" not in err.split("MISSING", 1)[1].split("\n")[0]
        assert "regression gate: OK" not in err

    def test_bench_refuses_a_schema_1_trajectory(self, tmp_path, capsys,
                                                 monkeypatch):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"schema": 1, "entries": []}))

        def never(*args, **kwargs):
            raise AssertionError("run_bench called")

        monkeypatch.setattr(bench, "run_bench", never)
        argv = ["bench", "--quick", "--trajectory", str(path), "--no-update"]
        assert main(argv) == 2
        assert "schema 1 is not supported" in capsys.readouterr().err

    def test_bench_profile_out_survives_no_update(self, tmp_path, capsys,
                                                  monkeypatch):
        """--no-update discards nothing when --profile-out is given:
        the full per-repeat distribution lands in the profile file."""
        monkeypatch.setenv("REPRO_BENCH_ENV", "test-env")
        path = tmp_path / "traj.json"
        profile = tmp_path / "profile.json"
        elapsed = [0.5, 0.4, 0.6, 0.45, 0.55]
        fake_collect(monkeypatch, elapsed)
        argv = ["bench", "--quick", "--scenarios", "ycsb_a_picl",
                "--repeats", "5", "--trajectory", str(path), "--no-update",
                "--profile-out", str(profile), "--label", "ab investigation"]
        assert main(argv) == 0
        assert "profile written" in capsys.readouterr().err
        assert not path.exists()  # --no-update respected for trajectory
        doc = load_trajectory(profile)
        entry = doc["entries"][0]
        assert entry["label"] == "ab investigation"
        samples = entry["results"]["ycsb_a_picl"]["samples_ops_per_sec"]
        assert samples == [pytest.approx(32000 / s, rel=1e-3)
                           for s in elapsed]
        assert entry["host_calibration"] > 0

    def test_bench_unknown_scenario_exit_code(self, capsys):
        assert main(["bench", "--scenarios", "nope", "--no-update"]) == 2
        assert "unknown bench scenario" in capsys.readouterr().err

    def test_committed_trajectory_has_optimization_entries(self):
        data = load_trajectory(bench.default_trajectory_path())
        labels = [e["label"] for e in data["entries"]]
        assert any("pre-optimization" in label for label in labels)
        assert any("post-optimization" in label for label in labels)
