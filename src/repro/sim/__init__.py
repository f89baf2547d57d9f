"""Trace-driven multicore simulator substrate for the NVOverlay repro.

Layers (bottom up): cache arrays and device timing models, a directory
MESI hierarchy with optional version-access-protocol support, and the
``Machine`` runner that interleaves multi-threaded workloads
deterministically.  Snapshotting designs plug in via
``repro.sim.scheme.SnapshotScheme``.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".cache": ("MESI", "CacheArray", "CacheLine"),
    ".config": (
        "CACHE_LINE_SHIFT",
        "CACHE_LINE_SIZE",
        "NVM_PROFILES",
        "PAGE_SHIFT",
        "PAGE_SIZE",
        "AdaptiveEpochPolicy",
        "CacheGeometry",
        "NVMDeviceProfile",
        "SystemConfig",
    ),
    ".dram": ("DRAM",),
    ".hierarchy": ("Hierarchy",),
    ".interconnect": ("Interconnect",),
    ".memory": ("MainMemory", "line_base", "line_of", "lines_touched", "page_of"),
    ".nvm": ("NVM", "WRITE_CATEGORIES"),
    ".scheme": (
        "EVICT_REASONS",
        "REASON_CAPACITY",
        "REASON_COHERENCE",
        "REASON_OTHER",
        "REASON_STORE_EVICT",
        "REASON_TAG_WALK",
        "NoSnapshot",
        "SnapshotScheme",
    ),
    ".stats": ("Stats",),
    ".system": ("Machine", "RunResult"),
    ".trace": ("LOAD", "STORE", "MemOp", "TraceRecorder", "load", "store"),
    ".validate": ("InvariantViolation", "validate_hierarchy"),
    ".wear": ("WearReport", "WearTracker"),
})
