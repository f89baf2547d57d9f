"""The paper's comparison points (§VI-B) plus the related-work schemes
(ICL, adaptive JASS, msync Snapshot), all as ``SnapshotScheme``s."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "..sim.scheme": ("NoSnapshot",),
    ".base": ("GlobalEpochScheme",),
    ".hw_shadow": ("HWShadowPaging",),
    ".icl": ("ICLogging",),
    ".jass": ("JASSAdaptive",),
    ".msync": ("MsyncSnapshot",),
    ".picl": ("PiCL", "PiCLL2"),
    ".sw_shadow": ("SWShadowPaging",),
    ".sw_undo_log": ("SWUndoLogging",),
})
