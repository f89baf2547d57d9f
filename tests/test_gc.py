"""Tests for garbage collection and version compaction (§V-D)."""

import pytest

from repro.core import (
    OMC,
    OMCCluster,
    PoolExhaustedError,
    compact,
    compact_if_needed,
)
from repro.core.mapping import VersionLocation
from repro.sim import NVM, Stats, SystemConfig


def make_omc(**kwargs):
    stats = Stats()
    nvm = NVM(SystemConfig(), stats)
    kwargs.setdefault("pool_pages", 1024)
    kwargs.setdefault("retain_epoch_tables", False)
    return OMC(0, nvm, stats, **kwargs)


def fill_epochs(omc, epochs, lines_per_epoch=64, stride=1):
    for epoch in epochs:
        for i in range(lines_per_epoch):
            omc.insert_version(i * stride, epoch, epoch * 1000 + i, 0)
        omc.merge_through(epoch, 0)


class TestCompaction:
    def test_compact_moves_old_live_versions(self):
        omc = make_omc()
        # Epoch 1 writes lines 0..63; epoch 2 rewrites only half, so
        # epoch 1's sub-pages stay pinned by the surviving 32 lines.
        for line in range(64):
            omc.insert_version(line, 1, 100 + line, 0)
        omc.merge_through(1, 0)
        for line in range(32):
            omc.insert_version(line, 2, 200 + line, 0)
        omc.merge_through(2, 0)
        before_pages = omc.pool.pages_in_use()
        moved = compact(omc, now=0)
        omc.check_master_refs()
        assert moved == 32  # the surviving epoch-1 versions
        assert omc.pool.pages_in_use() <= before_pages
        # The image is unchanged.
        for line in range(32):
            assert omc.read_master(line) == 200 + line
        for line in range(32, 64):
            assert omc.read_master(line) == 100 + line

    def test_compact_counts_nvm_writes(self):
        omc = make_omc()
        fill_epochs(omc, [1])
        for line in range(8):
            omc.insert_version(line, 2, 0, 0)
        omc.merge_through(2, 0)
        before = omc.nvm.bytes_written("data")
        moved = compact(omc, now=0)
        omc.check_master_refs()
        assert moved > 0
        assert omc.nvm.bytes_written("data") == before + moved * 64

    def test_compact_nothing_to_do(self):
        omc = make_omc()
        assert compact(omc, now=0) == 0
        omc.check_master_refs()

    def test_compact_skips_retained_epochs(self):
        omc = make_omc(retain_epoch_tables=True)
        fill_epochs(omc, [1])
        assert compact(omc, now=0) == 0  # retained sub-pages untouched
        omc.check_master_refs()
        # The skips are accounted, not silent, so callers can retry.
        assert omc.stats.get("omc0.compaction_skipped_retained") == 64
        assert omc.stats.get("omc0.compaction_skipped_pinned") == 0

    def test_pinned_skips_counted_separately(self):
        # With a pin floor, retained epochs at/above it are "pinned by an
        # active session" (free up on release), not merely "retained".
        omc = make_omc(retain_epoch_tables=True)
        fill_epochs(omc, [1])
        assert compact(omc, now=0, pin_floor=1) == 0
        omc.check_master_refs()
        assert omc.stats.get("omc0.compaction_skipped_pinned") == 64
        assert omc.stats.get("omc0.compaction_skipped_retained") == 0

    def test_relocated_subpages_are_not_retained(self):
        # Regression: _relocate used to inherit SubPage's retained=True
        # default, permanently pinning every relocated version.
        omc = make_omc(retain_epoch_tables=True)
        fill_epochs(omc, [1])
        for line in range(8):
            omc.insert_version(line, 2, 200 + line, 0)
        omc.merge_through(2, 0)
        omc.drop_epochs_before(2)  # epoch 1's retention released
        moved = compact(omc, now=0)
        omc.check_master_refs()
        assert moved > 0
        for line in range(8, 64):
            location = omc.master.lookup(line)
            assert not omc.pool.subpage(location.subpage_id).retained

    def test_time_travel_sees_original_oid_after_compaction(self):
        omc = make_omc()
        fill_epochs(omc, [1])
        for line in range(8):
            omc.insert_version(line, 2, 0, 0)
        omc.merge_through(2, 0)
        compact(omc, now=0)
        omc.check_master_refs()
        # Versions moved physically but keep epoch 1 identity via master.
        assert omc.read_master(40) == 1040


class TestQuota:
    def test_cluster_quota_triggers_compaction(self):
        stats = Stats()
        nvm = NVM(SystemConfig(), stats)
        cluster = OMCCluster(
            1, 1, nvm, stats,
            pool_pages=1024, retain_epoch_tables=False, quota_pages=2,
        )
        for epoch in range(1, 30):
            for line in range(64):
                if epoch == 1 or line < 48:
                    cluster.insert_version(line, epoch, epoch * 1000 + line, 0)
            cluster.update_min_ver(0, epoch + 1, 0)
        assert stats.get("omc0.compacted_versions") > 0
        cluster.omcs[0].check_master_refs()

    def test_no_quota_no_compaction(self):
        stats = Stats()
        nvm = NVM(SystemConfig(), stats)
        cluster = OMCCluster(
            1, 1, nvm, stats, pool_pages=1024, retain_epoch_tables=False,
        )
        assert compact_if_needed(cluster, 0) == 0

    def test_quota_checked_per_relocation_not_per_epoch(self):
        # Regression: the quota used to be checked only between epochs,
        # so one sparse epoch spread over many pages was drained
        # wholesale even when freeing a single page would have satisfied
        # the target.  Now compaction stops mid-epoch at the quota.
        omc = make_omc()
        for page in range(8):
            for i in range(64):
                omc.insert_version(page * 64 + i, 1, 1000 + page * 64 + i, 0)
        omc.merge_through(1, 0)
        for page in range(8):
            for i in range(56):  # rewrite 56 of 64: 8 survivors per page
                omc.insert_version(page * 64 + i, 2, 2000 + page * 64 + i, 0)
        omc.merge_through(2, 0)
        before = omc.pool.pages_in_use()
        target = before - 1
        moved = compact(omc, now=0, target_pages=target)
        omc.check_master_refs()
        survivors = 8 * 8
        assert 0 < moved < survivors  # the old code moved all survivors
        assert omc.pool.pages_in_use() <= target

    def test_compact_noop_when_pool_already_fits(self):
        omc = make_omc()
        fill_epochs(omc, [1, 2])
        target = omc.pool.pages_in_use() + 1
        assert compact(omc, now=0, target_pages=target) == 0
        omc.check_master_refs()


def exhaust_pool(pool):
    """Burn every free page and partial-carve slot with dummy sub-pages."""
    dummies = []
    for size_class in (64, 16, 4):
        while True:
            try:
                dummies.append(pool.alloc_subpage(size_class))
            except PoolExhaustedError:
                break
    return dummies


class TestPoolExhaustion:
    def _sparse_omc(self, **kwargs):
        """An OMC with one sparse old epoch worth compacting."""
        omc = make_omc(pool_pages=32, **kwargs)
        fill_epochs(omc, [1])
        for line in range(32):
            omc.insert_version(line, 2, 200 + line, 0)
        omc.merge_through(2, 0)
        return omc

    def test_grow_recovers_mid_compaction_exhaustion(self):
        omc = self._sparse_omc()
        exhaust_pool(omc.pool)
        with pytest.raises(PoolExhaustedError):
            compact(omc, now=0)
        omc.pool.grow(4)
        assert compact(omc, now=0) > 0
        omc.check_master_refs()
        # The image survived the aborted pass and the retry.
        for line in range(32):
            assert omc.read_master(line) == 200 + line
        for line in range(32, 64):
            assert omc.read_master(line) == 1000 + line

    def test_os_grow_pages_absorbs_compaction_exhaustion(self):
        omc = self._sparse_omc(os_grow_pages=4)
        exhaust_pool(omc.pool)
        assert compact(omc, now=0) > 0  # §V-D exception handled inline
        omc.check_master_refs()
        assert omc.stats.get("omc0.os_grows") > 0


#: One epoch-1 overlay page, written so its three extents hold lines
#: interleaved by line number: the first (4 slots) stays retained, the
#: second (16 slots) stays fully live, the third (64 slots) is mostly
#: superseded in epoch 2 and keeps only ``SURVIVORS`` live.
RETAINED_OFFSETS = (10, 30, 45, 60)
FULL_OFFSETS = tuple(o for o in range(17) if o not in RETAINED_OFFSETS)
MOVABLE_OFFSETS = tuple(
    o for o in range(64) if o not in RETAINED_OFFSETS + FULL_OFFSETS
)
SURVIVORS = (20, 35, 50, 55)


def mixed_epoch_omc():
    """Epoch 1 mixes retained, full and movable sub-pages on two pages."""
    omc = make_omc(retain_epoch_tables=True)

    def write(offsets, epoch, retained):
        # Retention is fixed when a sub-page is allocated.
        omc.retain_epoch_tables = retained
        for base in (0, 64):
            for offset in offsets:
                omc.insert_version(base + offset, epoch, epoch * 1000 + offset, 0)
        omc.retain_epoch_tables = True

    write(RETAINED_OFFSETS, 1, True)
    write(FULL_OFFSETS, 1, False)
    write(MOVABLE_OFFSETS, 1, False)
    omc.merge_through(1, 0)
    write([o for o in MOVABLE_OFFSETS if o not in SURVIVORS], 2, False)
    omc.merge_through(2, 0)
    return omc


def classify_epoch1_lines(omc):
    """(retained, full, movable) master-mapped epoch-1 lines, from the table."""
    retained, full, movable = [], [], []
    for line, location in omc.master.entries():
        if omc._subpage_epoch[location.subpage_id] != 1:
            continue
        subpage = omc.pool.subpage(location.subpage_id)
        if subpage.retained:
            retained.append(line)
        elif subpage.master_refs >= subpage.capacity:
            full.append(line)
        else:
            movable.append(line)
    return retained, full, movable


class TestExactAccounting:
    """The per-sub-page pass moves and counts exactly what a line-ordered
    walk of the Master Table would, including a mid-epoch quota break."""

    def _compact_to_mid_epoch(self, pin_floor=None):
        omc = mixed_epoch_omc()
        retained, full, movable = classify_epoch1_lines(omc)
        assert retained and full and movable
        before = dict(omc.master.entries())
        target = omc.pool.pages_in_use() - 1
        moved = compact(omc, now=0, target_pages=target, pin_floor=pin_floor)
        omc.check_master_refs()
        after = dict(omc.master.entries())
        relocated = [line for line in before if after[line] != before[line]]
        return omc, retained, movable, relocated, moved

    def test_relocates_lowest_movable_lines_in_order(self):
        omc, _retained, movable, relocated, moved = self._compact_to_mid_epoch()
        assert moved == len(relocated)
        assert 0 < moved < len(movable)  # the quota broke mid-epoch
        assert relocated == sorted(movable)[:moved]
        assert omc.stats.get("omc0.compacted_versions") == moved
        # The image is unchanged by the moves.
        for line in relocated:
            assert omc.read_master(line) == 1000 + (line & 63)

    def test_skipped_retained_counts_only_lines_below_the_break(self):
        omc, retained, _movable, relocated, _moved = self._compact_to_mid_epoch()
        break_line = relocated[-1]
        below = sum(1 for line in retained if line < break_line)
        assert 0 < below < len(retained)  # up-front counting would differ
        assert omc.stats.get("omc0.compaction_skipped_retained") == below
        assert omc.stats.get("omc0.compaction_skipped_pinned") == 0

    def test_pin_floor_moves_the_count_to_pinned(self):
        omc, retained, _movable, relocated, _moved = self._compact_to_mid_epoch(
            pin_floor=1
        )
        below = sum(1 for line in retained if line < relocated[-1])
        assert omc.stats.get("omc0.compaction_skipped_pinned") == below
        assert omc.stats.get("omc0.compaction_skipped_retained") == 0

    def test_full_subpages_never_move(self):
        omc = mixed_epoch_omc()
        _retained, full, _movable = classify_epoch1_lines(omc)
        before = {line: omc.master.lookup(line) for line in full}
        compact(omc, now=0)
        omc.check_master_refs()
        assert all(omc.master.lookup(line) == before[line] for line in full)

    def test_without_a_quota_every_retained_line_is_counted(self):
        omc = mixed_epoch_omc()
        retained, _full, movable = classify_epoch1_lines(omc)
        assert compact(omc, now=0) == len(movable)
        omc.check_master_refs()
        assert omc.stats.get("omc0.compaction_skipped_retained") == len(retained)


class TestLiveVersions:
    def test_superseded_slots_are_not_live(self):
        omc = mixed_epoch_omc()
        location = omc.master.lookup(SURVIVORS[0])
        subpage = omc.pool.subpage(location.subpage_id)
        live = omc.pool.live_versions(subpage, omc.master.lookup)
        assert [line for line, _slot in live] == list(SURVIVORS)
        for line, slot in live:
            assert omc.master.lookup(line) == VersionLocation(subpage.id, slot)


class TestMasterRefsInvariant:
    def test_holds_through_merge_compaction_and_reclaim(self):
        omc = mixed_epoch_omc()
        omc.check_master_refs()
        compact(omc, now=0)
        omc.check_master_refs()
        omc.drop_epochs_before(3)
        compact(omc, now=0)
        omc.check_master_refs()

    def test_detects_drifted_refcount(self):
        omc = mixed_epoch_omc()
        location = omc.master.lookup(SURVIVORS[0])
        omc.pool.subpage(location.subpage_id).master_refs += 1
        with pytest.raises(AssertionError, match="master refs"):
            omc.check_master_refs()

    def test_refuses_an_open_merge(self):
        omc = mixed_epoch_omc()
        omc.begin_merge()
        with pytest.raises(RuntimeError, match="mid-merge"):
            omc.check_master_refs()
