"""Production multi-tenant traffic scenarios behind one registry API.

The service-level evaluation layer: Zipf-skewed multi-tenant traffic
(``repro.workloads.tenant``) driven through the standard harness, with
scenarios — steady, burst, diurnal, worker-failure, timetravel —
registered in a single registry that the CLI (``repro load``), tests and
future experiments all resolve names through.

    from repro.load import run_steady_load, run_worker_failure

    result = run_steady_load(scale=0.1, jobs=2)
    print(result.render())

    # node dies mid-burst, recovers from NVM, resumes traffic:
    result = run_worker_failure(crash_at=0.5)
    assert result.ok

Results flow through ``RunSpec``/``ParallelRunner``/``RunCache`` and the
report helpers, and add per-tenant snapshot overhead, NVM write
amplification and p95/p99 store-latency columns on top of the usual
cycle/byte numbers.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".scenarios": (
        "DEFAULT_CRASH_AT",
        "DEFAULT_SERVE_POLICY",
        "QUICK_SCALE",
        "SERVE_NVO_PARAMS",
        "LoadResult",
        "Scenario",
        "get_scenario",
        "register_scenario",
        "run_burst_load",
        "run_scenario",
        "run_steady_load",
        "run_timetravel_serve",
        "run_worker_failure",
        "scenario_names",
    ),
})
