"""Userspace msync-based Snapshot (Mahar et al.).

A pure-software baseline needing no hardware support at all: the working
set is an mmap'd region, every epoch the runtime write-protects it, each
first store to a page takes a write-protect fault (the kernel remaps a
private copy — userspace copy-on-write), and the epoch boundary is an
``msync`` that writes every dirty page to the device at *page*
granularity plus a small commit record.

Two costs dominate and both are modelled directly: the per-page fault
(microseconds of kernel time, charged to the faulting core) and the
page-granularity write amplification — one dirty line still flushes the
whole 4 KB page, 64 back-to-back transfers on one NVM bank.  The scheme
is the natural partner of the ``cxl`` device profile (`SystemConfig
.nvm_profile`): this is how snapshotting looks on an unmodified host
with CXL-attached memory.
"""

from __future__ import annotations

from typing import Set

from ..sim.config import CACHE_LINE_SHIFT, PAGE_SHIFT, PAGE_SIZE
from .base import GlobalEpochScheme

#: Write-protect fault + private-copy remap, charged to the faulting core.
PAGE_FAULT_CYCLES = 1400
#: Lines per page; a page's flush lands on its first line's bank.
PAGE_LINES = 1 << (PAGE_SHIFT - CACHE_LINE_SHIFT)


class MsyncSnapshot(GlobalEpochScheme):
    """Page-granularity copy-on-write with msync epoch boundaries."""

    name = "msync_snapshot"
    persistence_barriers = True
    software_redirection = "page_fault"
    minimum_write_amplification = False

    def __init__(self) -> None:
        super().__init__()
        self._dirty_pages: Set[int] = set()

    def store_hook(self, core_id: int, line: int, now: int) -> int:
        page = line >> (PAGE_SHIFT - CACHE_LINE_SHIFT)
        if page in self._dirty_pages:
            return 0
        self._dirty_pages.add(page)
        self.machine.stats.inc("msync.page_faults")
        return PAGE_FAULT_CYCLES

    def commit_epoch(self, now: int) -> int:
        """The msync point: flush every dirty page, whole, behind barriers."""
        nvm = self.machine.nvm
        t = now
        for page in sorted(self._dirty_pages):
            t += nvm.write_sync(page << (PAGE_SHIFT - CACHE_LINE_SHIFT),
                                PAGE_SIZE, t, "data")
        # Durability point: the snapshot generation record.
        t += nvm.write_sync(self.epoch, 8, t, "metadata")
        self.machine.stats.inc("msync.pages_flushed", len(self._dirty_pages))
        self._dirty_pages.clear()
        self.machine.stall_all_cores_until(t)
        return t - now
