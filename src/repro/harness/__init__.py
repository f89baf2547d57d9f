"""Experiment harness: specs, runner, cache, pool, experiments, reports.

The import surface downstream code should use:

* :class:`RunSpec` — one (workload x scheme x config) cell, as a value;
* :func:`run_one` / :func:`compare` — run cells, with optional caching;
* :class:`ParallelRunner` — fan a spec grid over a process pool;
* :class:`RunCache` — the content-addressed on-disk result store;
* ``experiments`` / ``sweep`` / ``report`` — per-figure drivers.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".": ("experiments", "report", "sweep"),
    ".cache": ("RunCache", "default_cache_dir"),
    ".parallel": ("CellProgress", "ParallelRunner", "RunSummary"),
    ".runner": (
        "COMPARED_SCHEMES",
        "SCHEMES",
        "RunRecord",
        "compare",
        "make_scheme",
        "normalize_records",
        "run_one",
        "simulate",
    ),
    ".spec": ("CACHE_SCHEMA_VERSION", "RunSpec"),
})
