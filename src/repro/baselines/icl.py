"""In-Cache-Line Logging (Cohen et al., ASPLOS 2019).

ICL embeds the undo-log entry *inside the cache line it protects*: each
line reserves a few words for the previous value plus a validity bit, so
logging a store costs one extra write to a line that is already hot —
same bank, no second fetch — instead of a persistence barrier to a
separate log region.  Epoch commit then only has to flip the validity
bits, which software batches (one metadata line covers hundreds of
entries), and a background pruner reclaims stale embedded entries so the
space overhead stays bounded.

The model charges:

* per first-store-per-line: one *background* log write of the embedded
  entry to the line's own bank (in-line locality — contrast
  ``sw_logging``'s synchronous barrier to a distant log region);
* at commit: background write-back of the dirty data plus the batched
  validity flips (one 64 B metadata write per 512 lines), with a single
  small synchronous commit record as the durability point;
* continuously: the pruner drains a bounded number of stale entries per
  poll, each batch costing one background metadata write.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Set, Tuple

from ..sim.config import CACHE_LINE_SIZE
from .base import GlobalEpochScheme

#: Embedded undo entry: old word value + address tag + validity/epoch bits.
ICL_UNDO_ENTRY_BYTES = 24
#: Validity bits flipped per 64 B metadata write (one bit per line).
FLIPS_PER_LINE = CACHE_LINE_SIZE * 8
#: Stale entries reclaimed per poll quantum.
PRUNE_RATE = 16
#: Entries whose reclamation is folded into one background metadata write.
PRUNE_BATCH = 8


class ICLogging(GlobalEpochScheme):
    """Per-line embedded undo entries with epoch-batched validity flips."""

    name = "icl"
    no_commit_time = True  # commit work is background except the record
    software_redirection = "in_line"

    def __init__(self) -> None:
        super().__init__()
        #: Lines whose embedded entry is live this epoch.
        self._logged: Set[int] = set()
        #: Committed epochs' entries awaiting background reclamation.
        self._prune_queue: Deque[Tuple[int, List[int]]] = deque()

    def store_hook(self, core_id: int, line: int, now: int) -> int:
        if line in self._logged:
            return 0
        self._logged.add(line)
        # The entry lives in the stored line itself: same bank, and only
        # back-pressure (never a barrier) can stall the core.
        return self.machine.nvm.write_background(
            line, ICL_UNDO_ENTRY_BYTES, now, "log"
        )

    def commit_epoch(self, now: int) -> int:
        nvm = self.machine.nvm
        stall = 0
        ordered = sorted(self.epoch_write_set)
        for line in ordered:
            stall += nvm.write_background(line, CACHE_LINE_SIZE, now, "data")
        # Batched validity flips: one metadata line validates 512 entries.
        flips = -(-len(ordered) // FLIPS_PER_LINE)  # ceil-div
        for i in range(flips):
            stall += nvm.write_background(i, CACHE_LINE_SIZE, now, "metadata")
        # The single synchronous write: the epoch commit record.
        stall += nvm.write_sync(self.epoch, 8, now + stall, "metadata")
        if self._logged:
            self._prune_queue.append((self.epoch, sorted(self._logged)))
            self._logged.clear()
        return stall

    def poll(self, now: int) -> None:
        """Reclaim stale embedded entries at a bounded background rate."""
        if not self._prune_queue:
            return
        stats = self.machine.stats
        nvm = self.machine.nvm
        budget = PRUNE_RATE
        pruned = 0
        while budget > 0 and self._prune_queue:
            epoch, lines = self._prune_queue[0]
            take = lines[:budget]
            del lines[: len(take)]
            budget -= len(take)
            pruned += len(take)
            if not lines:
                self._prune_queue.popleft()
            for i in range(-(-len(take) // PRUNE_BATCH)):  # ceil-div
                nvm.write_background(take[i * PRUNE_BATCH], 8, now, "metadata")
                stats.inc("icl.prune_writes")
        if pruned:
            stats.inc("icl.pruned_entries", pruned)

    def finalize(self, now: int) -> None:
        super().finalize(now)
        # Drain whatever the pruner still owes before the run ends.
        while self._prune_queue:
            self.poll(now)
