"""Garbage collection and version compaction (§V-D).

Merged versions that the Master Table no longer references are reclaimed
automatically through sub-page reference counts (see ``repro.core.omc``).
What remains is the storage-explosion problem the paper calls out:
rarely-updated lines pin their whole overlay (sub-)page alive.  When the
pool exceeds its quota, *version compaction* copies the still-live
versions of the oldest epochs into the most recent epoch — as if those
addresses had just been written — after which the source sub-pages drop
to zero references and their pages return to the pool.

A pass works on sub-pages, not lines.  It groups the sub-pages the
Master Table still references (``master_refs > 0``) by the epoch that
produced them, oldest first, and never walks the Master Table itself.
Retained (time-travel) sub-pages are skipped whole, their
``master_refs`` added to the skip counters; full sub-pages are skipped
whole because moving them frees nothing.  Only the remaining sub-pages
have their slots enumerated (``PagePool.live_versions``), and their live
versions move in line order — the order a line-by-line walk of the
Master Table would visit them.  When the quota is reached mid-epoch,
only retained lines below the break line count as skipped, so the
counters match that walk exactly.

Compaction costs NVM data writes (one line per surviving version), which
is the write-amplification/storage trade-off §V-F lets users make.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..sim.config import CACHE_LINE_SIZE, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from .omc import OMC, OMCCluster
    from .page_pool import SubPage


def compact_if_needed(cluster: "OMCCluster", now: int) -> int:
    """Compact any OMC whose pool exceeds its share of the quota."""
    if cluster.quota_pages is None:
        return 0
    per_omc_quota = max(1, cluster.quota_pages // len(cluster.omcs))
    pin_floor = cluster.pinned_epoch_floor()
    moved = 0
    for omc in cluster.omcs:
        if omc.pool.pages_in_use() > per_omc_quota:
            moved += compact(
                omc, now, target_pages=per_omc_quota, pin_floor=pin_floor
            )
    return moved


def compact(
    omc: "OMC",
    now: int,
    target_pages: int = 0,
    pin_floor: Optional[int] = None,
) -> int:
    """Copy live versions out of the oldest epochs (§V-D).

    Works sub-page by sub-page, grouped by the epoch that produced them,
    oldest first, relocating live versions into the current epoch until
    the pool fits within ``target_pages`` (or everything old moved).
    Returns the number of versions relocated.

    Within an epoch, retained (time-travel) sub-pages are never moved
    and full sub-pages are skipped whole; only the remaining sub-pages
    have their slots enumerated, and their live versions move in line
    order.  The retained skips are accounted rather than silent, from
    ``master_refs``, so callers can retry: ``compaction_skipped_pinned``
    counts lines an active snapshot session still pins (epoch >=
    ``pin_floor``) — those free up when the session releases;
    ``compaction_skipped_retained`` counts lines whose retention the
    caller could drop first (``drop_epochs_before``).
    """
    pool = omc.pool
    if target_pages:
        # An undersized quota must degrade to steady-state packing, not
        # to relocating every live version on every pass: clamp the
        # target to the best perfectly-packed footprint of the live
        # versions (which the master_refs-based accounting now measures
        # honestly), and do nothing when the pool already fits.
        lines_per_page = PAGE_SIZE // CACHE_LINE_SIZE
        best_possible = -(-pool.live_slots() // lines_per_page)
        target_pages = max(target_pages, best_possible)
        if pool.pages_in_use() <= target_pages:
            return 0
    by_epoch = _live_subpages_by_epoch(omc)
    if not by_epoch:
        return 0
    target_epoch = max(
        max(omc.tables, default=0), omc.merged_through + 1, max(by_epoch) + 1
    )
    # The newest epoch's sub-pages are the densest with live versions;
    # relocating them frees nothing, so they stay put unless they are
    # all there is.
    candidates = sorted(by_epoch)
    if len(candidates) > 1:
        candidates = candidates[:-1]
    master_lookup = omc.master.lookup
    moved = 0
    skipped_pinned = 0
    skipped_retained = 0
    for epoch in candidates:
        pages_before = pool.pages_in_use()
        retained: List["SubPage"] = []
        versions: List[Tuple[int, int, int]] = []
        for subpage in by_epoch[epoch]:
            if subpage.retained:
                retained.append(subpage)
            elif subpage.master_refs < subpage.capacity:
                versions.extend(
                    (line, subpage.id, slot)
                    for line, slot in pool.live_versions(subpage, master_lookup)
                )
            # else: every slot live — this sub-page wastes no space, so
            # relocating it can never free a page; it would only be
            # write amplification (re-compacting last pass's output).
        versions.sort()
        break_line = None
        for line, subpage_id, slot in versions:
            _line, oid, data = pool.read_version(subpage_id, slot)
            _relocate(omc, line, oid, data, target_epoch, now)
            moved += 1
            # Check the quota after every relocation, not once per epoch:
            # a dense epoch used to be drained wholesale, overshooting the
            # target and burning NVM data writes the quota never asked for.
            if target_pages and pool.pages_in_use() <= target_pages:
                break_line = line
                break
        if retained:
            if break_line is None:
                skipped = sum(subpage.master_refs for subpage in retained)
            else:
                # The pass stops at the quota: retained lines above the
                # break line were never reached in line order.
                skipped = sum(
                    1
                    for subpage in retained
                    for line, _slot in pool.live_versions(subpage, master_lookup)
                    if line < break_line
                )
            if pin_floor is not None and epoch >= pin_floor:
                skipped_pinned += skipped
            else:
                skipped_retained += skipped
        if break_line is not None:
            break
        if moved and pool.pages_in_use() >= pages_before:
            # Draining the oldest remaining epoch freed nothing; newer
            # epochs are denser still, so pressing on is pure churn.
            break
    if moved:
        omc.stats.inc(f"omc{omc.id}.compacted_versions", moved)
    if skipped_pinned:
        omc.stats.inc(f"omc{omc.id}.compaction_skipped_pinned", skipped_pinned)
    if skipped_retained:
        omc.stats.inc(f"omc{omc.id}.compaction_skipped_retained", skipped_retained)
    return moved


def _live_subpages_by_epoch(omc: "OMC") -> Dict[int, List["SubPage"]]:
    """Sub-pages the Master Table references, grouped by their epoch."""
    subpages = omc.pool._subpages
    by_epoch: Dict[int, List["SubPage"]] = {}
    for subpage_id, epoch in omc._subpage_epoch.items():
        subpage = subpages[subpage_id]
        if subpage.master_refs > 0:
            by_epoch.setdefault(epoch, []).append(subpage)
    return by_epoch


def _relocate(omc: "OMC", line: int, oid: int, data: int, target_epoch: int, now: int) -> None:
    """Re-home one live version into ``target_epoch``'s overlay pages.

    The version keeps its *original* OID in the content store so
    time-travel reads still see the correct version epoch; only its
    physical placement (and hence reclamation group) changes.
    """
    page = line >> 6
    subpage = omc._subpage_with_room(target_epoch, page, for_relocation=True)
    slot = omc.pool.write_version(subpage, line, oid, data)
    from .mapping import VersionLocation

    new_location = VersionLocation(subpage.id, slot)
    subpage.master_refs += 1
    _new_nodes, previous = omc.master.insert(line, new_location)
    omc.nvm.write_background(line, CACHE_LINE_SIZE, now, "data")
    if previous is not None:
        omc._drop_master_ref(previous)
