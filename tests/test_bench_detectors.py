"""Statistical regression detectors, judged on golden fixture profiles.

Pure-function tests: nothing here runs the simulator.  The fixtures under ``tests/data/bench_profiles/``
are deterministic (see ``_generate.py`` there) and encode the
acceptance cases:

* known regressions (10 % and 30 % injected slowdowns) — both
  detectors must flag both;
* known noise (50 independent resamples of the baseline distribution)
  — zero false positives, on every trial, for every detector;
* a pure calibration shift (host 1.3x slower, same code) — neither
  detector may flag it once normalized, and each *would* flag it
  unnormalized (proving the normalization is load-bearing, not
  decorative).
"""

import json
from pathlib import Path

import pytest

from repro.harness.bench import check
from repro.harness.bench.collect import BenchResult

FIXTURES = Path(__file__).parent / "data" / "bench_profiles" / "fixtures.json"


@pytest.fixture(scope="module")
def fx():
    return json.loads(FIXTURES.read_text())


def _cal_ratio(fx, case):
    return check.calibration_ratio(
        fx["baseline"]["host_calibration"], case["host_calibration"])


DETECTOR_FUNCS = {"bootstrap_median": check.bootstrap_median,
             "mann_whitney": check.mann_whitney}
DETECTOR_NAMES = sorted(DETECTOR_FUNCS)


@pytest.mark.parametrize("detector", DETECTOR_NAMES)
class TestGoldenFixtures:
    def test_flags_10pct_regression(self, fx, detector):
        verdict = DETECTOR_FUNCS[detector](
            fx["baseline"]["samples"], fx["regression_10"]["samples"],
            cal_ratio=_cal_ratio(fx, fx["regression_10"]))
        assert verdict.regressed, verdict.detail
        assert verdict.median_ratio == pytest.approx(0.90, abs=0.03)

    def test_flags_30pct_regression(self, fx, detector):
        verdict = DETECTOR_FUNCS[detector](
            fx["baseline"]["samples"], fx["regression_30"]["samples"],
            cal_ratio=_cal_ratio(fx, fx["regression_30"]))
        assert verdict.regressed, verdict.detail
        assert verdict.median_ratio == pytest.approx(0.70, abs=0.03)

    def test_zero_false_positives_on_noise(self, fx, detector):
        """50 seeded noise-only trials: not a single flag allowed."""
        flagged = []
        for index, trial in enumerate(fx["noise_trials"]):
            verdict = DETECTOR_FUNCS[detector](
                fx["baseline"]["samples"], trial, cal_ratio=1.0)
            if verdict.regressed:
                flagged.append((index, verdict.detail))
        assert flagged == []
        assert len(fx["noise_trials"]) >= 50

    def test_immune_to_pure_calibration_shift(self, fx, detector):
        """Slower host, same code: normalized verdict must pass."""
        case = fx["calibration_shift"]
        verdict = DETECTOR_FUNCS[detector](
            fx["baseline"]["samples"], case["samples"],
            cal_ratio=_cal_ratio(fx, case))
        assert not verdict.regressed, verdict.detail
        assert verdict.median_ratio == pytest.approx(1.0, abs=0.03)

    def test_calibration_shift_would_flag_unnormalized(self, fx, detector):
        """The same shifted samples DO flag without normalization —
        i.e. the calibration ratio is what absorbs the host change."""
        case = fx["calibration_shift"]
        verdict = DETECTOR_FUNCS[detector](
            fx["baseline"]["samples"], case["samples"], cal_ratio=1.0)
        assert verdict.regressed, verdict.detail

    def test_declines_below_min_samples(self, fx, detector):
        short = fx["baseline"]["samples"][: check.MIN_SAMPLES - 1]
        with pytest.raises(ValueError, match="needs >= 5 samples"):
            DETECTOR_FUNCS[detector](fx["baseline"]["samples"], short)
        with pytest.raises(ValueError, match="needs >= 5 samples"):
            DETECTOR_FUNCS[detector](short, fx["baseline"]["samples"])


class TestDeterminism:
    def test_bootstrap_is_seeded(self, fx):
        a = check.bootstrap_median(
            fx["baseline"]["samples"], fx["noise_trials"][0])
        b = check.bootstrap_median(
            fx["baseline"]["samples"], fx["noise_trials"][0])
        assert a == b
        assert a.ci_low is not None and a.ci_high is not None
        assert a.ci_low <= a.ci_high

    def test_bootstrap_seed_changes_interval(self, fx):
        a = check.bootstrap_median(
            fx["baseline"]["samples"], fx["noise_trials"][0], seed=1)
        b = check.bootstrap_median(
            fx["baseline"]["samples"], fx["noise_trials"][0], seed=2)
        assert (a.ci_low, a.ci_high) != (b.ci_low, b.ci_high)

    def test_verdicts_serialize(self, fx):
        for verdict in check.compare_samples(
                fx["baseline"]["samples"], fx["regression_10"]["samples"]):
            payload = verdict.to_dict()
            assert payload["detector"] == verdict.detector
            assert payload["regressed"] is True
            json.dumps(payload)  # JSON-safe


class TestEdgeCases:
    def test_degenerate_all_tied(self):
        verdict = check.mann_whitney([5.0] * 8, [5.0] * 8)
        assert not verdict.regressed
        assert "degenerate" in verdict.detail

    def test_calibration_ratio_missing_values(self):
        assert check.calibration_ratio(None, 0.01) == 1.0
        assert check.calibration_ratio(0.01, None) == 1.0
        assert check.calibration_ratio(0.0, 0.01) == 1.0
        assert check.calibration_ratio(0.01, 0.013) == pytest.approx(1.3)

    def test_normalize_samples(self):
        assert check.normalize_samples([10.0, 20.0], 1.5) == [15.0, 30.0]


def _result(name, ops, seconds_list):
    best = min(seconds_list)
    return BenchResult(
        name=name, ops=ops, seconds=best, ops_per_sec=ops / best,
        cycles=1, stores=1, transactions=1, repeats=len(seconds_list),
        all_seconds=list(seconds_list),
    )


class TestCheckResults:
    """The gate path ``--check`` uses: fresh results vs stored entries."""

    def _baselines(self, fx):
        return {"uniform_nvoverlay": self._baseline(fx)}

    def _baseline(self, fx):
        return {
            "label": "base", "env": "test-env", "quick": True,
            "host_calibration": fx["baseline"]["host_calibration"],
            "results": {
                "uniform_nvoverlay": {
                    "ops": 64000,
                    "ops_per_sec": max(fx["baseline"]["samples"]),
                    "samples_ops_per_sec": fx["baseline"]["samples"],
                },
            },
        }

    def test_regressed_scenario_flagged(self, fx):
        ops = 64000
        seconds = [ops / s for s in fx["regression_10"]["samples"]]
        checks = check.check_results(
            {"uniform_nvoverlay": _result("uniform_nvoverlay", ops, seconds)},
            self._baselines(fx),
            calibration=fx["baseline"]["host_calibration"])
        outcome = checks["uniform_nvoverlay"]
        assert outcome.regressed and not outcome.insufficient
        assert {v.detector for v in outcome.verdicts} == set(DETECTOR_NAMES)

    def test_noise_passes(self, fx):
        ops = 64000
        seconds = [ops / s for s in fx["noise_trials"][3]]
        checks = check.check_results(
            {"uniform_nvoverlay": _result("uniform_nvoverlay", ops, seconds)},
            self._baselines(fx),
            calibration=fx["baseline"]["host_calibration"])
        assert not checks["uniform_nvoverlay"].regressed

    def test_too_few_baseline_samples_fail_and_name_the_scenario(self, fx):
        """A starved baseline is never judged, however the run looks."""
        ops = 64000
        baseline = self._baseline(fx)
        baseline["results"]["uniform_nvoverlay"]["samples_ops_per_sec"] = (
            fx["baseline"]["samples"][:3])
        seconds = [ops / s for s in fx["noise_trials"][3]]
        checks = check.check_results(
            {"uniform_nvoverlay": _result("uniform_nvoverlay", ops, seconds)},
            {"uniform_nvoverlay": baseline},
            calibration=fx["baseline"]["host_calibration"])
        outcome = checks["uniform_nvoverlay"]
        assert outcome.insufficient and not outcome.regressed
        assert outcome.verdicts == []
        assert "baseline 3" in outcome.detail

    def test_scenario_without_a_baseline_fails_as_missing(self, fx):
        """A scenario no entry measured fails instead of being skipped."""
        results = {"brand_new": _result("brand_new", 10, [1.0])}
        for baselines in ({}, {"brand_new": None}, self._baselines(fx)):
            outcome = check.check_results(results, baselines)["brand_new"]
            assert outcome.missing and not outcome.regressed
            assert outcome.verdicts == []

    def test_scenario_check_serializes(self, fx):
        ops = 64000
        seconds = [ops / s for s in fx["regression_30"]["samples"]]
        checks = check.check_results(
            {"uniform_nvoverlay": _result("uniform_nvoverlay", ops, seconds)},
            self._baselines(fx),
            calibration=fx["baseline"]["host_calibration"])
        payload = checks["uniform_nvoverlay"].to_dict()
        json.dumps(payload)
        assert payload["regressed"] is True
        assert len(payload["verdicts"]) == len(DETECTOR_NAMES)
