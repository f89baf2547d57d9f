"""The Overlay Memory Controller (OMC) and its cluster (§V).

Each OMC owns an address partition and maintains, per Fig. 9:

* a pool of NVM overlay pages (``PagePool``) holding version data;
* one volatile per-epoch mapping table ``M_E`` per in-flight epoch;
* the persistent Master Mapping Table reflecting the most recent
  *recoverable* epoch;
* optionally a battery-backed write-back buffer absorbing redundant
  version write-backs (§IV-E).

Recoverability (§V-B): every tag walker periodically reports its VD's
``min-ver``.  The cluster's master OMC keeps the array of most recent
reports; the recoverable epoch is ``min(min-vers) - 1`` — every epoch up
to it has been fully persisted by every VD.  When it advances, the master
atomically persists ``rec-epoch`` and all OMCs merge the per-epoch tables
up through it into their Master Tables (metadata-only copies; no version
data moves).

One refinement found necessary during implementation (documented in
DESIGN.md): when a *dirty* version migrates between VDs via a
cache-to-cache transfer (Fig. 6), the receiving VD's entry in the
min-ver array is immediately lowered to that version's epoch.  Without
this, a stale min-ver report from the receiver could let rec-epoch
overtake the still-unpersisted version.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.config import CACHE_LINE_SIZE, CacheGeometry
from ..sim.nvm import NVM
from ..sim.stats import Stats
from .mapping import ENTRY_BYTES, EpochTable, MasterTable, VersionLocation
from .omc_buffer import OMCBuffer
from .page_pool import SIZE_CLASSES, PagePool, PoolExhaustedError


class OMC:
    """One overlay memory controller: an address partition's MNM state."""

    def __init__(
        self,
        omc_id: int,
        nvm: NVM,
        stats: Stats,
        pool_pages: int = 65536,
        buffer_geometry: Optional[CacheGeometry] = None,
        retain_epoch_tables: bool = True,
        os_grow_pages: int = 0,
    ) -> None:
        self.id = omc_id
        self.nvm = nvm
        self.stats = stats
        # Interned stat keys: _place_version runs once per write-back.
        self._versions_key = f"omc{omc_id}.versions"
        self._redundant_key = f"omc{omc_id}.redundant_versions"
        # Direct ref into the counter dict (Stats.reset clears in place).
        self._counters = stats._counters
        self.pool = PagePool(pool_pages, stats, name=f"omc{omc_id}.pool")
        #: Pages the "OS" grants per exhaustion exception (§V-D); zero
        #: propagates ``PoolExhaustedError`` to the caller instead.
        self.os_grow_pages = os_grow_pages
        self.master = MasterTable()
        self.retain_epoch_tables = retain_epoch_tables
        self.tables: Dict[int, EpochTable] = {}
        self.merged_through = 0
        self.buffer: Optional[OMCBuffer] = None
        if buffer_geometry is not None:
            self.buffer = OMCBuffer(buffer_geometry, stats, self._place_version_cb)
        # Placement cursors: epoch -> page -> current sub-page with room,
        # and epoch -> page -> extent count (for size-class selection).
        self._cursors: Dict[int, Dict[int, object]] = {}
        # Compaction keeps its own cursor namespace: a relocated sub-page
        # is never retained (its versions live only through the Master
        # Table), so it must never be shared with write-path versions of
        # the same epoch, whose slots a retained epoch table may need.
        self._reloc_cursors: Dict[int, Dict[int, object]] = {}
        self._extent_counts: Dict[int, Dict[int, int]] = {}
        self._epoch_subpages: Dict[int, List[int]] = {}
        self._subpage_epoch: Dict[int, int] = {}
        self._pending_stall = 0
        # Merge undo journal: while a cluster-coordinated merge is in
        # flight (between begin_merge and commit_merge) every Master
        # Table mutation is journalled and every reclamation deferred,
        # so a crash before the rec-epoch pointer persists can roll the
        # table back to the previous recoverable image.
        self.merge_active = False
        self._merge_undo: List[Tuple[int, Optional[VersionLocation]]] = []
        self._merge_freed: List[VersionLocation] = []
        self._merge_dropped_epochs: List[int] = []
        self._merge_prev_through = 0

    # ------------------------------------------------------------------
    # Version ingest
    # ------------------------------------------------------------------
    def insert_version(self, line: int, oid: int, data: int, now: int) -> int:
        """Accept one version write-back; returns stall cycles."""
        if oid <= self.merged_through:
            raise RuntimeError(
                f"OMC {self.id}: version for epoch {oid} arrived after that "
                f"epoch was merged (through {self.merged_through}); the "
                "min-ver protocol was violated"
            )
        self._pending_stall = 0
        if self.buffer is not None:
            self.buffer.insert(line, oid, data, now)
        else:
            self._place_version(line, oid, data, now)
        stall, self._pending_stall = self._pending_stall, 0
        return stall

    def _place_version_cb(self, line: int, oid: int, data: int, now: int) -> None:
        self._place_version(line, oid, data, now)

    def _place_version(self, line: int, oid: int, data: int, now: int) -> None:
        """Write a version into its epoch's overlay pages + table."""
        table = self.tables.get(oid)
        if table is None:
            table = EpochTable(oid)
            self.tables[oid] = table
        page = line >> 6  # 64 lines per 4 KB page
        subpage = self._subpage_with_room(oid, page)
        slot = self.pool.write_version(subpage, line, oid, data)
        location = VersionLocation(subpage.id, slot)
        previous = table.insert(line, location)
        if previous is not None:
            # Redundant write-back within the epoch: the old slot is dead.
            self._counters[self._redundant_key] += 1
        self._pending_stall += self.nvm.write_background(
            line, CACHE_LINE_SIZE, now, "data"
        )
        self._counters[self._versions_key] += 1

    def _subpage_with_room(self, epoch: int, page: int, for_relocation: bool = False):
        cursor_map = self._reloc_cursors if for_relocation else self._cursors
        cursors = cursor_map.get(epoch)
        if cursors is None:
            cursors = cursor_map[epoch] = {}
        subpage = cursors.get(page)
        if subpage is not None and not subpage.full():  # type: ignore[union-attr]
            return subpage
        extents = self._extent_counts.setdefault(epoch, {})
        extent_index = extents.get(page, 0)
        size_class = SIZE_CLASSES[min(extent_index, len(SIZE_CLASSES) - 1)]
        try:
            new_subpage = self.pool.alloc_subpage(size_class)
        except PoolExhaustedError:
            if not self.os_grow_pages:
                raise
            # §V-D: the OMC raises an exception to the OS, which simply
            # allocates more pages and notifies the OMC of the range.
            self.pool.grow(self.os_grow_pages)
            self.stats.inc(f"omc{self.id}.os_grows")
            new_subpage = self.pool.alloc_subpage(size_class)
        # Align the retention flag with the epoch-retention state at
        # allocation time.  Relocated sub-pages are reachable only via
        # the Master Table, so marking them retained (the old behaviour)
        # pinned every relocated version against all future compaction.
        new_subpage.retained = self.retain_epoch_tables and not for_relocation
        cursors[page] = new_subpage
        extents[page] = extent_index + 1
        self._epoch_subpages.setdefault(epoch, []).append(new_subpage.id)
        self._subpage_epoch[new_subpage.id] = epoch
        return new_subpage

    # ------------------------------------------------------------------
    # Background merge into the Master Table
    # ------------------------------------------------------------------
    def merge_through(self, epoch: int, now: int) -> int:
        """Merge all per-epoch tables with epoch <= ``epoch`` (§V-C).

        Only table entries are copied — no version data moves.  Returns
        the number of entries merged.
        """
        if self.buffer is not None:
            self.buffer.flush_epochs_through(epoch, now)
        merged = 0
        metadata_bytes = 0
        for e in sorted(self.tables):
            if e > epoch:
                break
            if e <= self.merged_through:
                continue  # retained table from an earlier merge
            table = self.tables[e]
            for line, location in table.entries():
                merged += 1
                new_nodes, previous = self.master.insert(line, location)
                self.pool.subpage(location.subpage_id).master_refs += 1
                metadata_bytes += ENTRY_BYTES * (1 + new_nodes)
                if self.merge_active:
                    self._merge_undo.append((line, previous))
                    if previous is not None:
                        self._merge_freed.append(previous)
                elif previous is not None:
                    self._drop_master_ref(previous)
            if not self.retain_epoch_tables:
                if self.merge_active:
                    self._merge_dropped_epochs.append(e)
                else:
                    self._drop_epoch_table(e)
        # Table-entry updates are adjacent within radix nodes, so the OMC
        # coalesces them into full-line NVM transfers.
        chunk = 0
        while metadata_bytes > 0:
            nbytes = min(64, metadata_bytes)
            self.nvm.write_background(self.id + 16 * chunk, nbytes, now, "metadata")
            metadata_bytes -= nbytes
            chunk += 1
        self.merged_through = max(self.merged_through, epoch)
        if merged:
            self.stats.inc(f"omc{self.id}.merged_entries", merged)
        return merged

    # -- merge undo journal -------------------------------------------------
    def begin_merge(self) -> None:
        """Open the undo journal for a cluster-coordinated merge."""
        self.merge_active = True
        self._merge_undo = []
        self._merge_freed = []
        self._merge_dropped_epochs = []
        self._merge_prev_through = self.merged_through

    def commit_merge(self) -> None:
        """The rec-epoch pointer persisted: apply deferred reclamation."""
        for location in self._merge_freed:
            self._drop_master_ref(location)
        for epoch in self._merge_dropped_epochs:
            self._drop_epoch_table(epoch)
        self.merge_active = False
        self._merge_undo = []
        self._merge_freed = []
        self._merge_dropped_epochs = []

    def rollback_merge(self) -> int:
        """Undo an uncommitted merge; returns the entries rolled back.

        Restored previous locations keep the master ref they already
        held (its drop was deferred, never applied); only the refs taken
        by this merge's inserts are released.
        """
        undone = 0
        for line, previous in reversed(self._merge_undo):
            current = self.master.lookup(line)
            if current is not None:
                self.pool.subpage(current.subpage_id).master_refs -= 1
            if previous is None:
                self.master.remove(line)
            else:
                self.master.insert(line, previous)
            undone += 1
        self.merged_through = self._merge_prev_through
        self.merge_active = False
        self._merge_undo = []
        self._merge_freed = []
        self._merge_dropped_epochs = []
        if undone:
            self.stats.inc(f"omc{self.id}.merge_rollback_entries", undone)
        return undone

    def _drop_master_ref(self, location: VersionLocation) -> None:
        subpage = self.pool.subpage(location.subpage_id)
        subpage.master_refs -= 1
        if subpage.master_refs == 0 and not subpage.retained:
            self._free_subpage(subpage.id)

    def _drop_epoch_table(self, epoch: int) -> None:
        """Reclaim a merged epoch's DRAM table and unreferenced storage."""
        self.tables.pop(epoch, None)
        self._cursors.pop(epoch, None)
        self._reloc_cursors.pop(epoch, None)
        self._extent_counts.pop(epoch, None)
        for subpage_id in self._epoch_subpages.pop(epoch, []):
            subpage = self.pool._subpages.get(subpage_id)
            if subpage is None:
                continue  # already reclaimed when its last master ref dropped
            subpage.retained = False
            if subpage.master_refs == 0:
                self._free_subpage(subpage_id)

    def _free_subpage(self, subpage_id: int) -> None:
        epoch = self._subpage_epoch.pop(subpage_id, None)
        if epoch is not None:
            # Drop any placement cursor that points at this sub-page.
            for cursor_map in (self._cursors, self._reloc_cursors):
                cursors = cursor_map.get(epoch)
                if cursors is None:
                    continue
                for page, subpage in list(cursors.items()):
                    if subpage.id == subpage_id:  # type: ignore[union-attr]
                        del cursors[page]
        self.pool.free_subpage(subpage_id)

    def drop_epochs_before(self, epoch: int) -> None:
        """Release retained (time-travel) epochs older than ``epoch``."""
        for e in [e for e in self.tables if e < epoch and e <= self.merged_through]:
            self._drop_epoch_table(e)

    # ------------------------------------------------------------------
    # Snapshot access
    # ------------------------------------------------------------------
    def read_master(self, line: int) -> Optional[int]:
        """Data token of a line in the current consistent image."""
        location = self.master.lookup(line)
        if location is None:
            return None
        _line, _oid, data = self.pool.read_version(location.subpage_id, location.slot)
        return data

    def time_travel_read(self, line: int, epoch: int) -> Optional[Tuple[int, int]]:
        """Newest version of ``line`` with epoch <= ``epoch`` (§V-E).

        Returns (data, version_epoch) with MVCC-style fall-through, or
        None if the line has no version that old.

        When the fall-through exhausts the retained per-epoch tables it
        falls back to the Master Table: a version whose epoch table was
        reclaimed (GC, or never retained) survives there for as long as
        it is the line's most recent merged version.  The master version
        is accepted only if it is old enough for the requested snapshot
        — never a version newer than ``epoch``.
        """
        if self.buffer is not None:
            self.buffer.flush_all(0)
        for e in sorted(self.tables, reverse=True):
            if e > epoch:
                continue
            location = self.tables[e].lookup(line)
            if location is not None:
                _line, oid, data = self.pool.read_version(
                    location.subpage_id, location.slot
                )
                return data, oid
        location = self.master.lookup(line)
        if location is not None:
            _line, oid, data = self.pool.read_version(
                location.subpage_id, location.slot
            )
            if oid <= epoch:
                return data, oid
        return None

    def master_lines(self) -> Iterable[Tuple[int, int]]:
        """(line, data) for every line mapped by the Master Table."""
        for line, location in self.master.entries():
            _line, _oid, data = self.pool.read_version(
                location.subpage_id, location.slot
            )
            yield line, data

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def check_master_refs(self) -> None:
        """Verify every sub-page's ``master_refs`` against the Master Table.

        Counts the Master Table entries pointing into each sub-page and
        compares them with ``master_refs``, which merge, relocation and
        rollback maintain incrementally (compaction reads its skip counts
        and live-slot totals straight off them).  Every referenced
        sub-page must also be allocated and belong to an epoch.  Only
        meaningful outside an open merge, whose reclamation is deferred.
        Raises ``AssertionError`` on any divergence, like
        ``RadixTree.check_consistency``.
        """
        if self.merge_active:
            raise RuntimeError(f"OMC {self.id}: master_refs checked mid-merge")
        counted: Dict[int, int] = {}
        for _line, location in self.master.entries():
            counted[location.subpage_id] = counted.get(location.subpage_id, 0) + 1
        subpages = self.pool._subpages
        for subpage_id in counted:
            if subpage_id not in subpages:
                raise AssertionError(
                    f"OMC {self.id}: Master Table points into freed sub-page "
                    f"{subpage_id}"
                )
            if subpage_id not in self._subpage_epoch:
                raise AssertionError(
                    f"OMC {self.id}: referenced sub-page {subpage_id} has no epoch"
                )
        for subpage_id, subpage in subpages.items():
            found = counted.get(subpage_id, 0)
            if subpage.master_refs != found:
                raise AssertionError(
                    f"OMC {self.id}: sub-page {subpage_id} records "
                    f"{subpage.master_refs} master refs, Master Table holds {found}"
                )

    def master_metadata_bytes(self) -> int:
        return self.master.node_bytes()

    def mapped_working_set_bytes(self) -> int:
        return self.master.mapped_lines() * CACHE_LINE_SIZE


class OMCCluster:
    """All OMCs plus the master OMC's distributed rec-epoch logic."""

    def __init__(
        self,
        num_omcs: int,
        num_vds: int,
        nvm: NVM,
        stats: Stats,
        pool_pages: int = 65536,
        buffer_geometry: Optional[CacheGeometry] = None,
        retain_epoch_tables: bool = True,
        quota_pages: Optional[int] = None,
        os_grow_pages: int = 0,
    ) -> None:
        if num_omcs < 1:
            raise ValueError("need at least one OMC")
        self.stats = stats
        self.nvm = nvm
        self.omcs = [
            OMC(
                i, nvm, stats,
                pool_pages=pool_pages,
                buffer_geometry=buffer_geometry,
                retain_epoch_tables=retain_epoch_tables,
                os_grow_pages=os_grow_pages,
            )
            for i in range(num_omcs)
        ]
        self.quota_pages = quota_pages
        #: Most recent min-ver report per VD (the master OMC's array).
        self.min_vers: Dict[int, int] = {vd: 1 for vd in range(num_vds)}
        #: Per-VD lowering sequence number: bumped whenever a dirty
        #: migration lowers the bound, so walker reports computed before
        #: the lowering are recognizably stale (see update_min_ver).
        self._min_ver_seq: Dict[int, int] = {vd: 0 for vd in range(num_vds)}
        self.rec_epoch = 0
        self._contexts: Dict[int, List[int]] = {vd: [] for vd in range(num_vds)}
        #: Optional crash-point injector (repro.faults); wired by the
        #: scheme at attach time.  None disables every hook.
        self.fault_injector = None
        #: Optional protocol oracle (repro.oracle); set when the oracle
        #: binds to an armed machine.  None disables every hook.
        self.oracle = None
        #: Epoch pins held by snapshot sessions (repro.serve):
        #: epoch -> number of sessions reading at it.  ``reclaim`` never
        #: drops an epoch at or above the lowest pinned epoch.
        self._epoch_pins: Dict[int, int] = {}

    def set_fault_injector(self, injector) -> None:
        """Arm (or disarm, with None) crash-point hooks cluster-wide."""
        self.fault_injector = injector
        for omc in self.omcs:
            if omc.buffer is not None:
                omc.buffer.injector = injector

    def omc_of(self, line: int) -> OMC:
        # Partition by 16 MB address region (the paper gives each OMC an
        # address partition); interleaving at line granularity would
        # halve every Master Table leaf's occupancy.
        return self.omcs[(line >> 18) % len(self.omcs)]

    # -- data path ---------------------------------------------------------
    def insert_version(self, line: int, oid: int, data: int, now: int) -> int:
        return self.omc_of(line).insert_version(line, oid, data, now)

    # -- rec-epoch protocol --------------------------------------------------
    def min_ver_seq(self, vd_id: int) -> int:
        """Current lowering sequence number for a VD (walker pass token)."""
        return self._min_ver_seq[vd_id]

    def update_min_ver(
        self, vd_id: int, min_ver: int, now: int, seq: Optional[int] = None
    ) -> None:
        """A VD's tag walker finished a pass and reports its min-ver.

        ``seq`` is the lowering sequence number the walker sampled when
        the pass *began*.  If a dirty migration lowered the VD's bound in
        between, the report is stale: it was computed without knowledge
        of the migrated-in version and must never raise the bound past
        the pending lowered value.  A ``seq`` of None marks a
        synchronous, authoritative report (finalize) that may raise
        unconditionally.
        """
        if seq is not None and seq != self._min_ver_seq[vd_id]:
            self.stats.inc("omc.stale_min_ver_reports")
            min_ver = min(min_ver, self.min_vers[vd_id])
        self.min_vers[vd_id] = min_ver
        if self.oracle is not None:
            self.oracle.on_min_ver(vd_id, min_ver, now)
        self._advance_rec_epoch(now)

    def lower_min_ver(self, vd_id: int, oid: int) -> None:
        """A dirty version of epoch ``oid`` migrated into ``vd_id``."""
        if oid < self.min_vers[vd_id]:
            self.min_vers[vd_id] = oid
            self._min_ver_seq[vd_id] += 1
            self.stats.inc("omc.min_ver_lowered")

    def _advance_rec_epoch(self, now: int) -> None:
        candidate = min(self.min_vers.values()) - 1
        if candidate <= self.rec_epoch:
            return
        previous = self.rec_epoch
        # Merge first, persist the pointer last: the 8-byte rec-epoch
        # write is the atomic commit point (§V-B).  Each OMC journals its
        # Master Table mutations so a crash anywhere before the pointer
        # persists rolls back to the previous recoverable image intact.
        for omc in self.omcs:
            if self.fault_injector is not None:
                self.fault_injector.on_event("merge", now)
            if self.oracle is not None:
                self.oracle.on_merge(omc.id, candidate, now)
            omc.begin_merge()
            omc.merge_through(candidate, now)
        self.rec_epoch = candidate
        # The master OMC atomically persists rec-epoch (8 B pointer).
        self.nvm.write_background(0, ENTRY_BYTES, now, "metadata")
        self.stats.set("omc.rec_epoch", candidate)
        for omc in self.omcs:
            omc.commit_merge()
        if self.oracle is not None:
            self.oracle.on_rec_epoch(previous, candidate, now)
        if self.quota_pages is not None:
            from .gc import compact_if_needed  # local import: gc uses OMC

            compact_if_needed(self, now)

    def abort_in_flight_merges(self) -> int:
        """Crash recovery step one: roll back any uncommitted merges.

        Returns the number of OMCs that had a merge in flight (at most
        all of them if the crash hit between the first ``begin_merge``
        and the rec-epoch pointer write).
        """
        aborted = 0
        for omc in self.omcs:
            if omc.merge_active:
                omc.rollback_merge()
                aborted += 1
        return aborted

    def record_context(self, vd_id: int, epoch: int) -> None:
        """Remember that a VD dumped its core contexts for ``epoch``."""
        self._contexts[vd_id].append(epoch)

    # -- cold restart ---------------------------------------------------------
    def cold_restart(self) -> "OMCCluster":
        """Rebuild a fresh cluster from persistent state only (§V-E).

        "Volatile OMC data structures are also rebuilt during the
        recovery": per-epoch tables and the pool bitmap live in DRAM and
        die with power.  What survives is rec-epoch, the Master Table
        and the overlay data pages.  This reconstructs a working cluster
        holding exactly the recoverable image — epochs beyond rec-epoch
        (and their time-travel tables) are gone, as they would be after
        a real crash.
        """
        restarted = OMCCluster(
            num_omcs=len(self.omcs),
            num_vds=len(self.min_vers),
            nvm=self.nvm,
            stats=self.stats,
            pool_pages=self.omcs[0].pool.num_pages,
            retain_epoch_tables=self.omcs[0].retain_epoch_tables,
            quota_pages=self.quota_pages,
        )
        restarted.rec_epoch = self.rec_epoch
        for vd in restarted.min_vers:
            restarted.min_vers[vd] = self.rec_epoch + 1
        for old_omc, new_omc in zip(self.omcs, restarted.omcs):
            new_omc.merged_through = self.rec_epoch
            for line, location in old_omc.master.entries():
                _line, oid, data = old_omc.pool.read_version(
                    location.subpage_id, location.slot
                )
                if oid > self.rec_epoch:
                    continue  # not recoverable: its epoch never committed
                # Re-place the surviving version into fresh overlay pages
                # (rebuilding the bitmap) and re-map it in the new master.
                page = line >> 6
                subpage = new_omc._subpage_with_room(oid, page)
                # The rebuilt per-epoch tables reference these slots until
                # a reclaim explicitly drops them, regardless of the
                # retention policy new versions will follow.
                subpage.retained = True
                slot = new_omc.pool.write_version(subpage, line, oid, data)
                new_location = VersionLocation(subpage.id, slot)
                subpage.master_refs += 1
                new_omc.master.insert(line, new_location)
                table = new_omc.tables.setdefault(oid, EpochTable(oid))
                table.insert(line, new_location)
        self.stats.inc("omc.cold_restarts")
        return restarted

    # -- snapshot access -------------------------------------------------------
    def recover(self) -> Tuple[int, Dict[int, int]]:
        """Crash recovery (§V-E): the consistent image at rec-epoch."""
        image: Dict[int, int] = {}
        for omc in self.omcs:
            image.update(omc.master_lines())
        return self.rec_epoch, image

    def recovered_context_epoch(self, vd_id: int) -> Optional[int]:
        """Newest dumped context at or before rec-epoch for a VD."""
        candidates = [e for e in self._contexts[vd_id] if e <= self.rec_epoch]
        return max(candidates, default=None)

    def time_travel_read(self, line: int, epoch: int) -> Optional[Tuple[int, int]]:
        return self.omc_of(line).time_travel_read(line, epoch)

    # -- snapshot sessions & reclaim ---------------------------------------
    def pin_epoch(self, epoch: int) -> None:
        """A snapshot session opened a read view at ``epoch``.

        O(1): one counter bump — no table scan, no per-sub-page work —
        which is what makes session acquisition constant-time no matter
        how many epochs are retained.
        """
        self._epoch_pins[epoch] = self._epoch_pins.get(epoch, 0) + 1

    def unpin_epoch(self, epoch: int) -> None:
        """A snapshot session at ``epoch`` released its read view."""
        count = self._epoch_pins.get(epoch)
        if not count:
            raise ValueError(f"unpin of epoch {epoch}, which holds no pin")
        if count == 1:
            del self._epoch_pins[epoch]
        else:
            self._epoch_pins[epoch] = count - 1

    def pinned_epoch_floor(self) -> Optional[int]:
        """Lowest epoch an active session pins, or None when unpinned."""
        return min(self._epoch_pins) if self._epoch_pins else None

    def reclaim(self, now: int) -> int:
        """Drop unpinned retained epochs, then compact under the quota.

        The serve-side GC entry point.  Epoch tables strictly below both
        the recoverable frontier and the lowest pinned epoch are
        released; their still-live versions stay readable through the
        Master Table fall-back in ``time_travel_read``.  With retention
        dropped, version compaction can actually relocate the survivors
        and return whole pages to the pool.  Returns the number of
        versions compaction relocated.
        """
        floor = self.rec_epoch + 1
        pinned = self.pinned_epoch_floor()
        if pinned is not None:
            floor = min(floor, pinned)
        if self.oracle is not None:
            self.oracle.on_reclaim(floor, now)
        for omc in self.omcs:
            omc.drop_epochs_before(floor)
        from .gc import compact_if_needed  # local import: gc uses OMC

        return compact_if_needed(self, now)

    def snapshot_image(self, epoch: int) -> Dict[int, int]:
        """Full reconstructed image as of ``epoch`` (debug interface)."""
        image: Dict[int, int] = {}
        for omc in self.omcs:
            lines = set()
            for e, table in omc.tables.items():
                if e <= epoch:
                    lines.update(line for line, _loc in table.entries())
            for line in lines:
                result = omc.time_travel_read(line, epoch)
                if result is not None:
                    image[line] = result[0]
        return image

    # -- accounting ---------------------------------------------------------------
    def master_metadata_bytes(self) -> int:
        return sum(omc.master_metadata_bytes() for omc in self.omcs)

    def mapped_working_set_bytes(self) -> int:
        return sum(omc.mapped_working_set_bytes() for omc in self.omcs)

    def pages_in_use(self) -> int:
        return sum(omc.pool.pages_in_use() for omc in self.omcs)
