"""Parameter sweeps: scalability and design-choice ablations.

The paper's central scalability argument (§II-D) is qualitative: no
centralized epochs, no monolithic tag walker, write-backs amortized over
execution.  These sweeps make it quantitative on the simulator:

* ``scalability_sweep`` — NVOverlay's normalized overhead as the machine
  grows (cores and LLC slices scale together, workload per-core held
  constant): flat overhead = the scalability claim.
* ``scaling_curve`` — the 4→64-core overhead-vs-cores curve across
  several schemes at once (``repro scaling``), on ``SystemConfig.scaled``
  geometries with batched epoch sync, optionally oracle-armed.
* ``vd_size_ablation`` — cores per Versioned Domain (1/2/4/8): larger
  VDs synchronize epochs over more cores but suffer more intra-VD
  version churn.
* ``omc_count_ablation`` — address-partitioned OMCs (1..8): metadata
  duplication vs. parallelism.
* ``walk_rate_ablation`` — tag-walker scan rate vs. snapshot lag
  (rec-epoch distance behind execution) and write traffic.

Each builds its ``RunSpec`` grid up front and runs it through one
:class:`repro.harness.parallel.ParallelRunner` pass, so ``jobs=N``
parallelizes the sweep and the on-disk cache skips unchanged points.
Each returns plain dicts the report module can render; the ablation
benches under ``benchmarks/`` wrap them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core import NVOverlayParams
from ..sim import SystemConfig
from .experiments import CacheOption, _runner
from .parallel import ProgressCallback
from .spec import RunSpec


def scalability_sweep(
    core_counts: Sequence[int] = (4, 8, 16),
    workload: str = "uniform",
    txns_per_core_scale: float = 0.5,
    base_config: Optional[SystemConfig] = None,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[int, Dict[str, float]]:
    """NVOverlay overhead vs machine size, per-core work held constant."""
    base = base_config or SystemConfig()
    specs: List[RunSpec] = []
    for cores in core_counts:
        if cores % base.cores_per_vd:
            raise ValueError(f"{cores} cores do not divide into VDs")
        config = base.with_changes(
            num_cores=cores,
            llc_slices=max(2, cores // 4),
            # Epoch size scales with the machine so per-VD epochs match.
            epoch_size_stores=base.epoch_size_stores * cores // 16,
        )
        for scheme in ("ideal", "nvoverlay"):
            specs.append(RunSpec(workload=workload, scheme=scheme,
                                 config=config, scale=txns_per_core_scale))
    records = _runner(jobs, cache, progress).run(specs)
    result: Dict[int, Dict[str, float]] = {}
    for index, cores in enumerate(core_counts):
        ideal, nvo = records[2 * index], records[2 * index + 1]
        result[cores] = {
            "normalized_cycles": nvo.cycles / max(ideal.cycles, 1),
            "nvm_bytes_per_store": nvo.total_nvm_bytes / max(nvo.stores, 1),
            "rec_epoch": nvo.extra["rec_epoch"],
        }
    return result


def scaling_curve(
    core_counts: Sequence[int] = (4, 8, 16, 32, 64),
    schemes: Sequence[str] = ("nvoverlay", "picl"),
    workload: str = "uniform",
    txns_per_core_scale: float = 0.2,
    cores_per_vd: int = 2,
    num_sockets: int = 1,
    batch_epoch_sync: bool = True,
    oracle: bool = False,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[int, Dict[str, float]]:
    """The paper-style overhead-vs-cores curve, multiple schemes at once.

    Sweeps the machine from ``core_counts[0]`` up to 64+ cores using
    :meth:`SystemConfig.scaled` geometries (per-core cache capacity and
    per-VD epoch length held constant) and runs every scheme against the
    ``ideal`` no-snapshot baseline at each size.  NVOverlay's per-VD
    walkers should keep its curve flat while PiCL-style LLC walks
    degrade — §VI's headline scalability claim.

    ``batch_epoch_sync`` enables the scale-out epoch batching (on by
    default here; the 16-core paper experiments leave it off).  With
    ``oracle=True`` every run is invariant-checked — the sweep finishing
    at all means zero violations across the grid.
    """
    specs: List[RunSpec] = []
    all_schemes = ("ideal",) + tuple(schemes)
    for cores in core_counts:
        config = SystemConfig.scaled(
            cores,
            cores_per_vd=cores_per_vd,
            num_sockets=num_sockets,
            batch_epoch_sync=batch_epoch_sync,
        )
        for scheme in all_schemes:
            specs.append(RunSpec(workload=workload, scheme=scheme,
                                 config=config, scale=txns_per_core_scale,
                                 oracle=oracle))
    records = _runner(jobs, cache, progress).run(specs)
    width = len(all_schemes)
    result: Dict[int, Dict[str, float]] = {}
    for index, cores in enumerate(core_counts):
        ideal = records[width * index]
        row: Dict[str, float] = {}
        for offset, scheme in enumerate(schemes, start=1):
            record = records[width * index + offset]
            row[f"{scheme}.normalized_cycles"] = (
                record.cycles / max(ideal.cycles, 1)
            )
            row[f"{scheme}.nvm_bytes_per_store"] = (
                record.total_nvm_bytes / max(record.stores, 1)
            )
        result[cores] = row
    return result


def vd_size_ablation(
    vd_sizes: Sequence[int] = (1, 2, 4),
    workload: str = "btree",
    scale: float = 0.5,
    base_config: Optional[SystemConfig] = None,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[int, Dict[str, float]]:
    """Effect of Versioned Domain width (cores sharing one L2/epoch)."""
    base = base_config or SystemConfig()
    specs: List[RunSpec] = []
    for cores_per_vd in vd_sizes:
        if base.num_cores % cores_per_vd:
            raise ValueError(f"VD size {cores_per_vd} does not divide cores")
        config = base.with_changes(cores_per_vd=cores_per_vd)
        for scheme in ("ideal", "nvoverlay"):
            specs.append(RunSpec(workload=workload, scheme=scheme,
                                 config=config, scale=scale))
    records = _runner(jobs, cache, progress).run(specs)
    result: Dict[int, Dict[str, float]] = {}
    for index, cores_per_vd in enumerate(vd_sizes):
        ideal, nvo = records[2 * index], records[2 * index + 1]
        result[cores_per_vd] = {
            "normalized_cycles": nvo.cycles / max(ideal.cycles, 1),
            "nvm_bytes_per_store": nvo.total_nvm_bytes / max(nvo.stores, 1),
            "epoch_advances": float(nvo.extra["epoch_advances"]),
            "coherence_syncs": float(nvo.extra["coherence_syncs"]),
        }
    return result


def omc_count_ablation(
    omc_counts: Sequence[int] = (1, 2, 4),
    workload: str = "art",
    scale: float = 0.5,
    base_config: Optional[SystemConfig] = None,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[int, Dict[str, float]]:
    """Effect of the number of address-partitioned OMCs."""
    specs = [
        RunSpec(workload=workload, scheme="nvoverlay", config=base_config,
                scale=scale, nvo_params=NVOverlayParams(num_omcs=num_omcs))
        for num_omcs in omc_counts
    ]
    records = _runner(jobs, cache, progress).run(specs)
    result: Dict[int, Dict[str, float]] = {}
    for num_omcs, record in zip(omc_counts, records):
        result[num_omcs] = {
            "cycles": float(record.cycles),
            "metadata_bytes": record.extra["master_metadata_bytes"],
            "metadata_pct_of_ws": 100.0
            * record.extra["master_metadata_bytes"]
            / max(record.extra["mapped_working_set_bytes"], 1),
        }
    return result


def protocol_ablation(
    workload: str = "btree",
    scale: float = 0.5,
    base_config: Optional[SystemConfig] = None,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, Dict[str, float]]:
    """MESI vs MOESI under CST (§IV-E protocol compatibility).

    MOESI's Owned state defers load-downgrade write-backs, trading fewer
    coherence-driven OMC writes for versions that stay dirty on-chip
    longer (slower recoverability between walker passes).
    """
    base = base_config or SystemConfig()
    protocols = ("mesi", "moesi")
    specs: List[RunSpec] = []
    for protocol in protocols:
        config = base.with_changes(coherence_protocol=protocol)
        for scheme in ("ideal", "nvoverlay"):
            specs.append(RunSpec(workload=workload, scheme=scheme,
                                 config=config, scale=scale))
    records = _runner(jobs, cache, progress).run(specs)
    result: Dict[str, Dict[str, float]] = {}
    for index, protocol in enumerate(protocols):
        ideal, nvo = records[2 * index], records[2 * index + 1]
        result[protocol] = {
            "normalized_cycles": nvo.cycles / max(ideal.cycles, 1),
            "nvm_data_bytes": float(nvo.nvm_bytes.get("data", 0)),
            "coherence_writebacks": float(
                nvo.evict_reasons.get("coherence", 0)
            ),
            "tag_walk_writebacks": float(nvo.evict_reasons.get("tag_walk", 0)),
        }
    return result


def transport_ablation(
    core_counts: Sequence[int] = (4, 8, 16),
    workload: str = "uniform",
    scale: float = 0.3,
    base_config: Optional[SystemConfig] = None,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, Dict[int, float]]:
    """Directory vs snoop transport as the machine grows (§II-D).

    Broadcast coherence pays a per-snooper cost on every miss, so its
    cycles grow with machine size while the distributed directory stays
    flat — the quantitative version of why prior single-bus designs do
    not scale.  Returns {transport: {cores: cycles}}.
    """
    base = base_config or SystemConfig()
    transports = ("directory", "snoop")
    specs: List[RunSpec] = []
    for transport in transports:
        for cores in core_counts:
            config = base.with_changes(
                num_cores=cores,
                llc_slices=max(2, cores // 4),
                coherence_transport=transport,
            )
            specs.append(RunSpec(workload=workload, scheme="nvoverlay",
                                 config=config, scale=scale))
    records = _runner(jobs, cache, progress).run(specs)
    result: Dict[str, Dict[int, float]] = {t: {} for t in transports}
    index = 0
    for transport in transports:
        for cores in core_counts:
            result[transport][cores] = float(records[index].cycles)
            index += 1
    return result


def walk_rate_ablation(
    rates: Sequence[int] = (8, 64, 256),
    workload: str = "btree",
    scale: float = 0.5,
    base_config: Optional[SystemConfig] = None,
    *,
    jobs: Optional[int] = None,
    cache: CacheOption = True,
    progress: Optional[ProgressCallback] = None,
) -> Dict[int, Dict[str, float]]:
    """Tag-walker scan rate vs snapshot lag and write traffic.

    Snapshot lag = the epoch frontier at finalize minus the rec-epoch
    right before the shutdown flush (``extra["final_epoch"]`` /
    ``extra["rec_epoch_at_finalize"]`` on the record), i.e. how far
    behind execution recoverability trails — the §IV-C trade-off.
    """
    base = base_config or SystemConfig()
    specs = [
        RunSpec(workload=workload, scheme="nvoverlay",
                config=base.with_changes(tag_walk_rate=rate), scale=scale,
                nvo_params=NVOverlayParams(num_omcs=2))
        for rate in rates
    ]
    records = _runner(jobs, cache, progress).run(specs)
    result: Dict[int, Dict[str, float]] = {}
    for rate, record in zip(rates, records):
        lag = record.extra["final_epoch"] - record.extra["rec_epoch_at_finalize"]
        result[rate] = {
            "snapshot_lag_epochs": float(lag),
            "tag_walk_writebacks": float(
                record.evict_reasons.get("tag_walk", 0)
            ),
            "nvm_data_bytes": float(record.nvm_bytes.get("data", 0)),
        }
    return result
