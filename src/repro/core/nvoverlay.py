"""The NVOverlay snapshotting scheme: CST frontend + MNM backend wired up.

This is the paper's contribution assembled as a ``SnapshotScheme``:

* the hierarchy runs the version access protocol (``uses_version_protocol``);
* version write-backs route to the OMC cluster, optionally through the
  battery-backed OMC buffer;
* per-VD tag walkers persist stale versions in the background and drive
  the distributed recoverable-epoch protocol;
* epoch advances dump core contexts to NVM and update the wrap-around
  sense machinery (§IV-D);
* ``finalize`` performs an orderly shutdown — advance every VD one final
  epoch, flush all dirty versions, report min-vers — after which the
  entire execution is recoverable and the Master Table maps the final
  memory image.

Public entry points a user typically touches: construct with
``NVOverlayParams``, attach via ``Machine(config, scheme)``, run a
workload, then use ``scheme.cluster`` for recovery and time-travel reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim.config import CacheGeometry
from ..sim.scheme import SnapshotScheme
from .epoch import EpochSpace, SenseController
from .omc import OMCCluster
from .tag_walker import ScanBudget, TagWalker


@dataclass(frozen=True)
class NVOverlayParams:
    """Tunables for the NVOverlay mechanism (defaults follow the paper)."""

    #: Number of OMCs (address-partitioned, one elected master).
    num_omcs: int = 2
    #: Overlay pool pages per OMC (4 KB each).
    pool_pages: int = 65536
    #: Battery-backed write-back buffer in front of the OMCs (§IV-E).
    use_omc_buffer: bool = False
    #: Buffer geometry; defaults to the LLC's geometry when enabled
    #: (the Fig. 16 configuration).
    buffer_geometry: Optional[CacheGeometry] = None
    #: Keep merged per-epoch tables for time-travel reads (§V-E).
    retain_epoch_tables: bool = True
    #: Storage quota in pages across all OMCs; exceeding it triggers
    #: version compaction (§V-D).  None disables the quota.
    quota_pages: Optional[int] = None
    #: Pages the OS grants per pool-exhaustion exception (§V-D); 0 makes
    #: exhaustion a hard error instead.
    os_grow_pages: int = 0
    #: Enable the background tag walkers (Fig. 15 ablates this).
    enable_tag_walker: bool = True


class NVOverlay(SnapshotScheme):
    """Coherent Snapshot Tracking + Multi-snapshot NVM Mapping."""

    name = "nvoverlay"
    uses_version_protocol = True

    # Table I row: NVOverlay checks every column.
    minimum_write_amplification = True
    no_commit_time = True
    no_read_flush = True
    software_redirection = "none"
    persistence_barriers = False
    unbounded_working_set = True
    supports_non_inclusive_llc = True
    distributed_versioning = True

    def __init__(self, params: Optional[NVOverlayParams] = None) -> None:
        super().__init__()
        self.params = params or NVOverlayParams()
        self.cluster: Optional[OMCCluster] = None
        self.walkers: List[TagWalker] = []
        self.space: Optional[EpochSpace] = None
        self.sense: Optional[SenseController] = None
        #: Snapshot of (rec_epoch, max cur_epoch + 1) taken when finalize
        #: begins — i.e. the run's end state *before* the shutdown flush
        #: makes everything recoverable.  The walk-rate ablation reads
        #: these through ``record.extra``.
        self.finalize_rec_epoch: Optional[int] = None
        self.finalize_epoch: Optional[int] = None
        self.scan_budget: Optional[ScanBudget] = None

    # -- lifecycle -------------------------------------------------------
    def attach(self, machine) -> None:
        super().attach(machine)
        config = machine.config
        buffer_geometry = None
        if self.params.use_omc_buffer:
            buffer_geometry = (
                self.params.buffer_geometry or config.llc_geometry
            )
        self.cluster = OMCCluster(
            num_omcs=self.params.num_omcs,
            num_vds=config.num_vds,
            nvm=machine.nvm,
            stats=machine.stats,
            pool_pages=self.params.pool_pages,
            buffer_geometry=buffer_geometry,
            retain_epoch_tables=self.params.retain_epoch_tables,
            quota_pages=self.params.quota_pages,
            os_grow_pages=self.params.os_grow_pages,
        )
        self.cluster.set_fault_injector(getattr(machine, "fault_injector", None))
        self.space = EpochSpace(config.epoch_bits)
        self.sense = SenseController(self.space, config.num_vds)
        self.walkers = [
            TagWalker(
                machine.hierarchy,
                vd,
                self.cluster,
                machine.stats,
            )
            for vd in machine.hierarchy.vds
        ]
        # Every VD's L2 has the configured geometry, so one budget serves
        # every walker.
        l2 = config.l2_geometry
        self.scan_budget = ScanBudget(
            config.tag_walk_rate,
            l2.ways,
            l2.num_sets,
            enabled=self.params.enable_tag_walker,
        )

    # -- CST hooks ---------------------------------------------------------
    def on_version_writeback(
        self, vd_id: int, line: int, oid: int, data: int, reason: str, now: int
    ) -> int:
        assert self.cluster is not None
        return self.cluster.insert_version(line, oid, data, now)

    def on_version_migrate(
        self, from_vd: int, to_vd: int, line: int, oid: int, now: int
    ) -> None:
        assert self.cluster is not None
        self.cluster.lower_min_ver(to_vd, oid)

    def on_epoch_advance(self, vd_id: int, old_epoch: int, new_epoch: int, now: int) -> int:
        """Context dump + wrap-around bookkeeping at an epoch boundary."""
        assert self.cluster is not None and self.sense is not None
        machine = self.machine
        assert machine is not None
        config = machine.config
        self.sense.on_vd_advance(vd_id, new_epoch)
        self.cluster.record_context(vd_id, old_epoch)
        base_line = (vd_id + 1) << 20  # distinct context area per VD
        t = now
        for i in range(config.cores_per_vd):
            t += machine.nvm.write_background(
                base_line + i, config.context_dump_bytes, t, "context"
            )
        return t - now

    # -- background work ------------------------------------------------------
    def poll(self, now: int) -> None:
        sets = self.scan_budget.sets_due(now)
        if sets:
            for walker in self.walkers:
                walker.scan(sets, now)

    # -- shutdown ----------------------------------------------------------------
    def finalize(self, now: int) -> None:
        """Orderly shutdown: make the final state recoverable."""
        machine = self.machine
        assert machine is not None and self.cluster is not None
        hierarchy = machine.hierarchy
        final_epoch = max(vd.cur_epoch for vd in hierarchy.vds) + 1
        self.finalize_rec_epoch = self.cluster.rec_epoch
        self.finalize_epoch = final_epoch
        for vd in hierarchy.vds:
            hierarchy.advance_epoch(vd, final_epoch, now)
        for vd in hierarchy.vds:
            hierarchy.flush_vd(vd, now)
        for vd in hierarchy.vds:
            self.cluster.update_min_ver(vd.id, final_epoch, now)

    # -- introspection --------------------------------------------------------
    def rec_epoch(self) -> int:
        assert self.cluster is not None
        return self.cluster.rec_epoch

    def master_metadata_bytes(self) -> int:
        assert self.cluster is not None
        return self.cluster.master_metadata_bytes()

    def mapped_working_set_bytes(self) -> int:
        assert self.cluster is not None
        return self.cluster.mapped_working_set_bytes()
