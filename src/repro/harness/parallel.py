"""Fan an experiment grid out over a process pool, through the cache.

``ParallelRunner.run(specs)`` is the one funnel every harness entry
point (``compare``, ``experiments.*``, ``sweep.*``, the benchmarks and
the CLI) pushes its (workload x scheme x config) cells through:

* cached cells are answered from :class:`repro.harness.cache.RunCache`
  without simulating;
* the rest run on a ``concurrent.futures.ProcessPoolExecutor`` with
  ``jobs`` workers (``jobs=1`` stays in-process, which keeps tracebacks
  and pdb usable);
* results come back in spec order, bit-identical to a serial run —
  specs travel as ``RunSpec.to_dict()`` and records return as
  ``RunRecord.to_dict()``, so no simulator state is ever pickled.

Per-cell progress (done/total, cache hit, wall-clock) streams to an
optional callback; the aggregate lands in ``runner.last_summary`` which
``repro.harness.report.format_run_summary`` renders.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .cache import RunCache, resolve_cache
from .runner import RunRecord, import_simulator, simulate
from .spec import RunSpec


def _simulate_payload(
    spec_dict: Dict[str, Any], cache_dir: Optional[str] = None
) -> Tuple[Dict[str, Any], float, bool]:
    """Pool worker: dict in, (record dict, seconds, was_cache_hit) out.

    When a cache directory is given, the worker consults the cache
    itself (a concurrent harness invocation — or an identical spec
    earlier in this grid — may have filled the entry after the parent's
    prescan) and writes its own result back.  Lookups use ``peek`` so
    counting stays with the parent, which folds a hit delta in per
    ``True`` flag.
    """
    spec = RunSpec.from_dict(spec_dict)
    start = time.perf_counter()
    if cache_dir is not None:
        cache = RunCache(cache_dir)
        record = cache.peek(spec)
        if record is not None:
            return record.to_dict(), time.perf_counter() - start, True
        record = simulate(spec)
        cache.put(spec, record)
        return record.to_dict(), time.perf_counter() - start, False
    record = simulate(spec)
    return record.to_dict(), time.perf_counter() - start, False


@dataclass(frozen=True)
class CellProgress:
    """One completed cell, as reported to the progress callback."""

    done: int
    total: int
    label: str
    seconds: float
    cached: bool


@dataclass
class RunSummary:
    """Aggregate accounting for one ``ParallelRunner.run`` call."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    elapsed_seconds: float = 0.0
    jobs: int = 1
    cells: List[CellProgress] = field(default_factory=list)

    @property
    def all_cached(self) -> bool:
        return self.total > 0 and self.cache_hits == self.total


ProgressCallback = Callable[[CellProgress], None]


class ParallelRunner:
    """Run ``RunSpec`` grids: cache first, then a worker pool.

    ``jobs=None`` uses ``os.cpu_count()``; ``jobs=1`` runs in-process.
    ``cache`` follows the harness convention (``None`` -> default
    on-disk cache, ``False`` -> off, instance -> itself).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Union[None, bool, RunCache] = False,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.cache = resolve_cache(cache)
        self.progress = progress
        self.last_summary: Optional[RunSummary] = None

    # -- internals ---------------------------------------------------------
    def _report(self, summary: RunSummary, label: str, seconds: float,
                cached: bool) -> None:
        cell = CellProgress(
            done=summary.executed + summary.cache_hits,
            total=summary.total,
            label=label,
            seconds=seconds,
            cached=cached,
        )
        summary.cells.append(cell)
        if self.progress is not None:
            self.progress(cell)

    def _run_pool(
        self,
        pending: List[Tuple[int, RunSpec]],
        results: List[Optional[RunRecord]],
        summary: RunSummary,
    ) -> None:
        # Lazy import: a grid answered from the cache never pays for the
        # pool.  The simulator loads here, once, so the forked workers
        # inherit it instead of each importing it again.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        import_simulator()
        workers = min(self.jobs, len(pending))
        cache_dir = str(self.cache.directory) if self.cache is not None else None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_simulate_payload, spec.to_dict(), cache_dir):
                    (index, spec)
                for index, spec in pending
            }
            outstanding = set(futures)
            while outstanding:
                finished, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in finished:
                    index, spec = futures[future]
                    record_dict, seconds, worker_hit = future.result()
                    record = RunRecord.from_dict(record_dict)
                    results[index] = record
                    if worker_hit:
                        # The worker answered from the cache (filled after
                        # our prescan); count it as a hit, not a run.
                        summary.cache_hits += 1
                        if self.cache is not None:
                            self.cache.add_counters(hits=1)
                        self._report(summary, spec.label, seconds, cached=True)
                    else:
                        # The worker wrote the entry itself (when caching).
                        summary.executed += 1
                        self._report(summary, spec.label, seconds, cached=False)

    # -- API ---------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Run every spec; records return in spec order."""
        started = time.perf_counter()
        specs = list(specs)
        summary = RunSummary(total=len(specs), jobs=self.jobs)
        results: List[Optional[RunRecord]] = [None] * len(specs)

        pending: List[Tuple[int, RunSpec]] = []
        for index, spec in enumerate(specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                results[index] = cached
                summary.cache_hits += 1
                self._report(summary, spec.label, 0.0, cached=True)
            else:
                pending.append((index, spec))

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                for index, spec in pending:
                    start = time.perf_counter()
                    record = simulate(spec)
                    results[index] = record
                    if self.cache is not None:
                        self.cache.put(spec, record)
                    summary.executed += 1
                    self._report(summary, spec.label,
                                 time.perf_counter() - start, cached=False)
            else:
                self._run_pool(pending, results, summary)

        if self.cache is not None:
            self.cache.flush_counters()
        summary.elapsed_seconds = time.perf_counter() - started
        self.last_summary = summary
        return results  # type: ignore[return-value]

    def run_one(self, spec: RunSpec) -> RunRecord:
        return self.run([spec])[0]
