"""Shared benchmark configuration and result emission.

Every benchmark regenerates one table/figure of the paper.  Simulation
scale is controlled with ``REPRO_BENCH_SCALE`` (default 0.5; the paper's
runs are ~100x larger still — see DESIGN.md), worker processes with
``REPRO_BENCH_JOBS`` (default: one per CPU) and the on-disk result cache
with ``REPRO_BENCH_CACHE=0`` to disable it.  Rendered tables go both
to stdout and to ``benchmarks/results/<name>.txt`` so results survive
pytest's output capture.

``paper_comparison`` runs the full 12-workload x 7-scheme grid through
one ``ParallelRunner`` pass (pool + cache) and memoizes it, so the
Fig. 11 and Fig. 12 benchmarks (which read different columns of the
same runs) only pay for it once per session.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

from repro.harness.parallel import ParallelRunner
from repro.harness.runner import (
    RunRecord,
    comparison_specs,
    normalize_records,
)
from repro.harness.spec import RunSpec
from repro.workloads import PAPER_WORKLOADS

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or None  # None -> cpu count
USE_CACHE = os.environ.get("REPRO_BENCH_CACHE", "1") != "0"
RESULTS_DIR = Path(__file__).parent / "results"

_comparison_cache: Dict[str, Dict[str, RunRecord]] = {}


def paper_comparison() -> Dict[str, Dict[str, RunRecord]]:
    """The full scheme comparison over all twelve paper workloads."""
    if not _comparison_cache:
        grids = [
            comparison_specs(RunSpec(workload=w, scheme="ideal", scale=SCALE))
            for w in PAPER_WORKLOADS
        ]
        flat = [spec for specs in grids for spec in specs]
        runner = ParallelRunner(jobs=JOBS, cache=USE_CACHE)
        records = runner.run(flat)
        offset = 0
        for workload, specs in zip(PAPER_WORKLOADS, grids):
            chunk = records[offset:offset + len(specs)]
            offset += len(specs)
            _comparison_cache[workload] = normalize_records(
                {spec.scheme: record for spec, record in zip(specs, chunk)}
            )
    return _comparison_cache


def emit(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")
