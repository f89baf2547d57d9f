"""Snapshot query engine: concurrent point-in-time readers + GC (§V-E).

The MNM backend produces hundreds of snapshots per second; this package
*consumes* them at scale.  ``SessionManager``/``SnapshotSession`` give
O(1) epoch-pinned read views over the Master Mapping Table,
``ReaderScheduler`` multiplexes many concurrent sessions into a live
``Machine`` run alongside the write-side store stream, and
``ServePolicy`` is the frozen knob set that rides ``RunSpec`` through
the cache and the parallel runner.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".policy": ("MODES", "ServePolicy"),
    ".scheduler": ("MAPPING_WALK_CYCLES", "ReaderScheduler"),
    ".session": ("SessionManager", "SnapshotSession"),
})
