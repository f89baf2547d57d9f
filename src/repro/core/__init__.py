"""NVOverlay's core mechanisms: CST epochs/walkers + the MNM backend.

The version access protocol itself runs inside ``repro.sim.hierarchy``
(enabled by ``NVOverlay.uses_version_protocol``); this package holds
everything that is NVOverlay-specific: epoch arithmetic and wrap-around,
tag walkers, the OMC cluster with its mapping tables, page pool, buffer,
garbage collection, and the snapshot retrieval API.
"""

from dataclasses import dataclass
from typing import Optional

from .. import _lazy_exports
from ..sim.config import CacheGeometry


@dataclass(frozen=True)
class NVOverlayParams:
    """Tunables for the NVOverlay mechanism (defaults follow the paper).

    Defined here, beside only ``sim.config``, so ``RunSpec`` can hash and
    rebuild it without importing the scheme; ``repro.core.nvoverlay``
    re-imports it.
    """

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


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".epoch": ("EpochSkewError", "EpochSpace", "SenseController", "merge"),
    ".gc": ("compact", "compact_if_needed"),
    ".mapping": (
        "ENTRY_BYTES",
        "EpochTable",
        "MasterTable",
        "RadixTree",
        "VersionLocation",
    ),
    ".nvoverlay": ("NVOverlay",),
    ".omc": ("OMC", "OMCCluster"),
    ".omc_buffer": ("OMCBuffer",),
    ".page_pool": ("SIZE_CLASSES", "PagePool", "PoolExhaustedError", "SubPage"),
    ".snapshot": ("RecoveredImage", "SnapshotReader", "golden_image", "replay_delta"),
    ".tag_walker": ("TagWalker",),
})
__all__.append("NVOverlayParams")
