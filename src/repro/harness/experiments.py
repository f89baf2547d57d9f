"""One experiment definition per paper table/figure (§VII).

Each function regenerates the data behind one artifact of the paper's
evaluation and returns it as plain dicts/lists the report module can
render.  The benchmarks under ``benchmarks/`` are thin wrappers around
these, so users can also call them directly:

    from repro.harness import experiments
    data = experiments.fig11_normalized_cycles(scale=0.5, jobs=4)

Every function that simulates builds its full ``RunSpec`` grid up front
and pushes it through one :class:`repro.harness.parallel.ParallelRunner`
call, so ``jobs=N`` fans the whole figure out at once and the on-disk
result cache (on by default; ``cache=False`` disables, ``$REPRO_CACHE_DIR``
relocates) answers unchanged cells without simulating.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core import NVOverlayParams
from ..sim import SystemConfig
from ..sim.config import BurstyEpochPolicy
from ..workloads import PAPER_WORKLOADS
from .cache import RunCache
from .parallel import ParallelRunner, ProgressCallback
from .runner import (
    COMPARED_SCHEMES,
    RunRecord,
    comparison_specs,
    make_scheme,
    normalize_records,
)
from .spec import RunSpec

DEFAULT_SCALE = 1.0

#: The ``cache`` convention shared by every experiment/sweep entry
#: point: ``True``/``None`` -> the default on-disk cache, ``False`` ->
#: off, a ``RunCache`` -> use that instance.
CacheOption = Union[None, bool, RunCache]


def _runner(
    jobs: Optional[int],
    cache: CacheOption,
    progress: Optional[ProgressCallback],
) -> ParallelRunner:
    return ParallelRunner(jobs=jobs or 1, cache=cache, progress=progress)


def table1_qualitative() -> Dict[str, Dict[str, object]]:
    """Table I: qualitative feature comparison, derived from the scheme
    classes themselves so it cannot drift from the implementation."""
    rows: Dict[str, Dict[str, object]] = {}
    for name in COMPARED_SCHEMES:
        scheme = make_scheme(name)
        rows[name] = {
            "min_write_amplification": scheme.minimum_write_amplification,
            "no_commit_time": scheme.no_commit_time,
            "no_read_flush": scheme.no_read_flush,
            "software_redirection": scheme.software_redirection,
            "persistence_barriers": scheme.persistence_barriers,
            "unbounded_working_set": scheme.unbounded_working_set,
            "non_inclusive_llc": scheme.supports_non_inclusive_llc,
            "distributed_versioning": scheme.distributed_versioning,
        }
    return rows


def _comparison_grid(
    workloads: Sequence[str],
    schemes: Optional[Sequence[str]],
    config: Optional[SystemConfig],
    scale: float,
    runner: ParallelRunner,
) -> Dict[str, Dict[str, RunRecord]]:
    """Every (workload, scheme) cell of Figs. 11/12 in one pool pass."""
    grids: List[List[RunSpec]] = []
    flat: List[RunSpec] = []
    for workload in workloads:
        template = RunSpec(workload=workload, scheme="ideal", config=config,
                           scale=scale)
        specs = comparison_specs(template, schemes)
        grids.append(specs)
        flat.extend(specs)
    records = runner.run(flat)
    result: Dict[str, Dict[str, RunRecord]] = {}
    offset = 0
    for workload, specs in zip(workloads, grids):
        chunk = records[offset:offset + len(specs)]
        offset += len(specs)
        result[workload] = normalize_records(
            {spec.scheme: record for spec, record in zip(specs, chunk)}
        )
    return result


def fig11_normalized_cycles(
    workloads: Optional[Sequence[str]] = None,
    config: Optional[SystemConfig] = None,
    scale: float = DEFAULT_SCALE,
    schemes: Optional[Sequence[str]] = None,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 11: wall-clock cycles normalized to no-snapshot execution."""
    runner = _runner(jobs, cache, progress)
    grid = _comparison_grid(
        list(workloads or PAPER_WORKLOADS), schemes, config, scale, runner
    )
    return {
        workload: {
            name: rec.extra["normalized_cycles"]
            for name, rec in records.items()
            if name != "ideal"
        }
        for workload, records in grid.items()
    }


def fig12_write_amplification(
    workloads: Optional[Sequence[str]] = None,
    config: Optional[SystemConfig] = None,
    scale: float = DEFAULT_SCALE,
    schemes: Optional[Sequence[str]] = None,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 12: NVM bytes written, normalized to NVOverlay."""
    runner = _runner(jobs, cache, progress)
    grid = _comparison_grid(
        list(workloads or PAPER_WORKLOADS), schemes, config, scale, runner
    )
    return {
        workload: {
            name: rec.extra.get("normalized_write_bytes", 0.0)
            for name, rec in records.items()
            if name != "ideal"
        }
        for workload, records in grid.items()
    }


def fig13_metadata_cost(
    workloads: Optional[Sequence[str]] = None,
    config: Optional[SystemConfig] = None,
    scale: float = DEFAULT_SCALE,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, float]:
    """Fig. 13: Master Table size as a percentage of the write working set.

    The theoretical lower bound is 12.5% (an 8-byte leaf entry per 64-byte
    line); low page occupancy (yada) pushes the ratio up.
    """
    names = list(workloads or PAPER_WORKLOADS)
    specs = [
        RunSpec(workload=w, scheme="nvoverlay", config=config, scale=scale)
        for w in names
    ]
    records = _runner(jobs, cache, progress).run(specs)
    result: Dict[str, float] = {}
    for workload, record in zip(names, records):
        metadata = record.extra["master_metadata_bytes"]
        working_set = max(record.extra["mapped_working_set_bytes"], 1)
        result[workload] = 100.0 * metadata / working_set
    return result


def fig14_epoch_sensitivity(
    epoch_sizes: Sequence[int] = (5_000, 10_000, 20_000, 40_000),
    workload: str = "art",
    config: Optional[SystemConfig] = None,
    scale: float = DEFAULT_SCALE,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Fig. 14: cycles and writes vs epoch size (PiCL/PiCL-L2/NVOverlay).

    The paper sweeps 500K..4M store-uop epochs; these defaults are the
    same 8x sweep around our scaled default epoch.
    """
    base_config = config or SystemConfig()
    grids: List[List[RunSpec]] = []
    flat: List[RunSpec] = []
    for epoch_size in epoch_sizes:
        cfg = base_config.with_changes(epoch_size_stores=epoch_size)
        template = RunSpec(workload=workload, scheme="ideal", config=cfg,
                           scale=scale)
        specs = comparison_specs(template, ["picl", "picl_l2", "nvoverlay"])
        grids.append(specs)
        flat.extend(specs)
    records = _runner(jobs, cache, progress).run(flat)
    result: Dict[int, Dict[str, Dict[str, float]]] = {}
    offset = 0
    for epoch_size, specs in zip(epoch_sizes, grids):
        chunk = records[offset:offset + len(specs)]
        offset += len(specs)
        by_scheme = normalize_records(
            {spec.scheme: record for spec, record in zip(specs, chunk)}
        )
        result[epoch_size] = {
            name: {
                "normalized_cycles": rec.extra["normalized_cycles"],
                "normalized_write_bytes": rec.extra.get("normalized_write_bytes", 0.0),
                "nvm_bytes": float(rec.total_nvm_bytes),
            }
            for name, rec in by_scheme.items()
            if name != "ideal"
        }
    return result


def fig15_evict_reasons(
    workload: str = "art",
    config: Optional[SystemConfig] = None,
    scale: float = DEFAULT_SCALE,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fig. 15: evict-reason decomposition, with and without tag walker.

    Reasons are grouped the way the paper's legend does: capacity miss,
    coherence/log, tag walk.  PiCL without its ACS cannot commit epochs
    at all; the paper's Fig. 15b keeps the bars for comparison by running
    the same configuration (the walk IS the commit path), so the
    ``without_walker`` variant reuses the PiCL records unchanged.
    """
    base = RunSpec(workload=workload, scheme="picl", config=config, scale=scale)
    specs = {
        "picl": base,
        "picl_l2": base.with_changes(scheme="picl_l2"),
        "nvo_walker": base.with_changes(scheme="nvoverlay"),
        "nvo_no_walker": base.with_changes(
            scheme="nvoverlay",
            nvo_params=NVOverlayParams(enable_tag_walker=False),
        ),
    }
    keys = list(specs)
    records = dict(zip(keys, _runner(jobs, cache, progress).run(
        [specs[key] for key in keys]
    )))

    def decompose(record: RunRecord) -> Dict[str, float]:
        reasons = record.evict_reasons
        capacity = reasons.get("capacity", 0)
        coherence = (
            reasons.get("coherence", 0)
            + reasons.get("store_evict", 0)
            + reasons.get("log", 0)
            + reasons.get("other", 0)
        )
        walk = reasons.get("tag_walk", 0)
        total = max(capacity + coherence + walk, 1)
        return {
            "capacity": 100.0 * capacity / total,
            "coherence_log": 100.0 * coherence / total,
            "tag_walk": 100.0 * walk / total,
        }

    return {
        "with_walker": {
            "picl": decompose(records["picl"]),
            "picl_l2": decompose(records["picl_l2"]),
            "nvoverlay": decompose(records["nvo_walker"]),
        },
        "without_walker": {
            "picl": decompose(records["picl"]),
            "picl_l2": decompose(records["picl_l2"]),
            "nvoverlay": decompose(records["nvo_no_walker"]),
        },
    }


def fig16_omc_buffer(
    workload: str = "art",
    config: Optional[SystemConfig] = None,
    scale: float = DEFAULT_SCALE,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 16: the battery-backed OMC buffer's effect on an all-one-epoch
    stress run (cycles and NVM data writes, plus buffer hit rate)."""
    base_config = config or SystemConfig()
    # One epoch for the entire run stresses redundant write-back absorption.
    cfg = base_config.with_changes(epoch_size_stores=1 << 60)
    base = RunSpec(workload=workload, scheme="ideal", config=cfg, scale=scale)
    specs = [
        base,
        base.with_changes(scheme="nvoverlay",
                          nvo_params=NVOverlayParams(use_omc_buffer=False)),
        base.with_changes(scheme="nvoverlay",
                          nvo_params=NVOverlayParams(use_omc_buffer=True)),
    ]
    ideal, no_buffer, with_buffer = _runner(jobs, cache, progress).run(specs)
    result: Dict[str, Dict[str, float]] = {}
    for label, record in (("no_buffer", no_buffer), ("with_buffer", with_buffer)):
        row = {
            "normalized_cycles": record.cycles / max(ideal.cycles, 1),
            "nvm_data_writes": record.extra["nvm_data_writes"],
        }
        if label == "with_buffer":
            writes = max(record.extra.get("omc_buffer_writes", 0), 1)
            row["buffer_hit_rate"] = record.extra.get("omc_buffer_hits", 0) / writes
        result[label] = row
    return result


def tail_latency(
    workload: str = "btree",
    schemes: Sequence[str] = ("ideal", "sw_logging", "hw_shadow", "picl", "nvoverlay"),
    config: Optional[SystemConfig] = None,
    scale: float = DEFAULT_SCALE,
    seed: int = 1,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, Dict[str, int]]:
    """Per-operation latency percentiles per scheme (extension study).

    Not a paper figure, but the paper's §II-A argument made measurable:
    persistence barriers do not just slow execution on average — they
    stretch the operation latency *tail*, while background schemes keep
    the distribution close to the ideal machine's.  Runs with
    ``capture_latency`` specs, so the percentiles ride the same cache
    and pool as every other figure.
    """
    specs = [
        RunSpec(workload=workload, scheme=name, config=config, scale=scale,
                seed=seed, capture_latency=True)
        for name in schemes
    ]
    records = _runner(jobs, cache, progress).run(specs)
    return {
        name: {
            "p50": int(record.extra["op_latency_p50"]),
            "p99": int(record.extra["op_latency_p99"]),
            "p999": int(record.extra["op_latency_p999"]),
            "max_bucket": int(record.extra["op_latency_max_bucket"]),
        }
        for name, record in zip(schemes, records)
    }


def fig17_bandwidth(
    workload: str = "btree",
    config: Optional[SystemConfig] = None,
    scale: float = DEFAULT_SCALE,
    bursty: bool = False,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, List[Tuple[int, int]]]:
    """Fig. 17: NVM write bandwidth over time, PiCL vs NVOverlay.

    With ``bursty``, three windows of very short epochs (1%, 10%, 100% of
    the default, echoing the paper's 1K/10K/100K) model time-travel
    debugging's localized snapshot bursts.
    """
    base_config = config or SystemConfig()
    cfg = base_config
    if bursty:
        total_stores_estimate = int(110_000 * scale)
        default = base_config.epoch_size_stores
        third = total_stores_estimate // 3
        # The paper's bursts are 1K/10K/100K-store epochs against a 1M
        # default (0.1%, 1%, 10%); scaled to our default epoch.
        policy = BurstyEpochPolicy(
            base_size=default,
            bursts=(
                (int(third * 0.4), int(third * 0.6), max(default // 1000, 5)),
                (int(third * 1.4), int(third * 1.6), max(default // 100, 25)),
                (int(third * 2.4), int(third * 2.6), max(default // 10, 100)),
            ),
        )
        cfg = base_config.with_changes(epoch_policy=policy)
    schemes = ("picl", "nvoverlay")
    specs = [
        RunSpec(workload=workload, scheme=scheme, config=cfg, scale=scale)
        for scheme in schemes
    ]
    records = _runner(jobs, cache, progress).run(specs)
    return {
        scheme: record.bandwidth_series
        for scheme, record in zip(schemes, records)
    }
