"""Simulator-throughput benchmarking: collect / store / check / bisect.

The value of this reproduction is *experiments per hour*: every figure,
sweep and crash-sweep funnels through the per-memory-op loop in
``repro.sim.hierarchy``, so simulator throughput — not the harness —
bounds cold-cache wall clock.  This package measures it, records it,
and guards it, in four stages:

* :mod:`.collect` — run the timed scenarios (:data:`SCENARIOS`) and
  record **all** repeat samples plus the host-calibration
  microbenchmark, not just best-of-N; also the golden-parity
  :func:`run_fingerprint`.
* :mod:`.store` — per-scenario profiles in ``BENCH_sim_throughput.json``
  (schema 2: sample distributions per entry; any other schema is
  refused) plus standalone ``--profile-out`` documents.
* :mod:`.check` — the one judging path: two pure, stdlib-only
  statistical detectors (Mann-Whitney U rank test, seeded bootstrap CI
  on the median ratio), both run on every scenario after normalizing by
  the host-calibration ratio; fewer than :data:`MIN_SAMPLES` samples on
  a side fails as insufficient instead of being judged.
* :mod:`.bisect` — ``repro bench bisect``: walk the recorded entries
  through that same path to attribute a regression to the narrowest
  entry/commit range.

``ops`` counts line-granular memory operations executed by the
hierarchy (the ``l1.accesses`` counter), and the timed region includes
lazy trace generation — that is the real cost of an experiment.
"""

from ... import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".": ("bisect", "check", "collect", "store"),
    ".bisect": ("BisectReport", "BisectStep", "bisect_trajectory"),
    ".check": (
        "ALPHA",
        "BOOTSTRAP_CONFIDENCE",
        "BOOTSTRAP_RESAMPLES",
        "BOOTSTRAP_SEED",
        "MIN_EFFECT",
        "MIN_SAMPLES",
        "DetectorVerdict",
        "ScenarioCheck",
        "bootstrap_median",
        "calibration_ratio",
        "check_entry_pair",
        "check_results",
        "compare_samples",
        "mann_whitney",
        "normalize_samples",
    ),
    ".collect": (
        "CALIBRATION_ROUNDS",
        "SCENARIOS",
        "BenchResult",
        "BenchScenario",
        "host_calibration",
        "run_bench",
        "run_fingerprint",
        "run_scenario",
    ),
    ".store": (
        "TRAJECTORY_FILENAME",
        "TRAJECTORY_SCHEMA",
        "append_entry",
        "baseline_entry",
        "current_commit",
        "default_trajectory_path",
        "entry_samples",
        "env_id",
        "load_trajectory",
        "make_entry",
        "write_profile",
    ),
})
