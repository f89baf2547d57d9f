"""Per-VD opportunistic L2 tag walker (§IV-C) and min-ver reporting.

Each Versioned Domain has a tag walker built into its L2 controller.  It
scans cache tags opportunistically (modelled as a scan budget that
accrues with simulated time, one :class:`ScanBudget` for every VD's
walker) and writes dirty versions of previous epochs back to the OMC,
downgrading them M -> E.  When a full pass over
the L2 completes, the walker computes the VD's ``min-ver`` — the
smallest OID among dirty versions still cached — and reports it to the
master OMC, which drives the recoverable epoch (§V-B).

NVOverlay's correctness does not depend on the walker making progress
(§IV-C): snapshots only become *recoverable* more slowly if it lags,
which the Fig. 15 experiment demonstrates by disabling it outright.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.hierarchy import Hierarchy, VDState
from ..sim.stats import Stats

if TYPE_CHECKING:  # pragma: no cover
    from .omc import OMCCluster


class ScanBudget:
    """Tag-scan budget shared by the walkers of one L2 geometry.

    The budget accrues with simulated time at ``tags_per_kilocycle`` and
    is spent on whole sets.  Every VD's walker is polled at the same
    clocks, at the same rate, over an L2 of the same geometry, so all of
    them would hold the same budget: one accrual serves them all and
    each poll says how many sets every walker scans.
    """

    def __init__(
        self, tags_per_kilocycle: int, ways: int, num_sets: int, enabled: bool = True
    ) -> None:
        self.rate = tags_per_kilocycle
        self.enabled = enabled
        self._ways = ways
        self._num_sets = num_sets
        self._budget = 0.0  # fractional tags of accrued scan budget
        self._cap = float(num_sets * ways)
        self._last_poll = 0

    def sets_due(self, now: int) -> int:
        """Accrue the time since the last poll; return the sets to scan."""
        elapsed = now - self._last_poll
        if elapsed <= 0 or not self.enabled:
            return 0
        self._last_poll = now
        budget = self._budget + elapsed * self.rate / 1000.0
        ways = self._ways
        # Most polls accrue less than one set's worth of budget.
        if budget < ways:
            self._budget = budget
            return 0
        # Cap one poll's work at a single full pass; budget beyond that
        # buys nothing (the walker would just re-observe the same tags).
        # One subtraction for all the sets is exact in floating point:
        # the subtrahend is an integer no larger than the budget.
        sets = min(int(budget // ways), self._num_sets)
        self._budget = min(budget - sets * ways, self._cap)
        return sets


class TagWalker:
    """Background scanner over one VD's L2 tags."""

    def __init__(
        self,
        hierarchy: Hierarchy,
        vd: VDState,
        cluster: "OMCCluster",
        stats: Stats,
    ) -> None:
        self.hierarchy = hierarchy
        self.vd = vd
        self.cluster = cluster
        self.stats = stats
        self._cursor = 0  # next L2 set to scan
        self._l2_num_sets = vd.l2._num_sets
        # Lowering sequence number sampled when the current pass began;
        # reported with the pass so the OMC can detect stale reports.
        self._pass_seq = cluster.min_ver_seq(vd.id)
        self.passes_completed = 0

    def scan(self, sets: int, now: int) -> None:
        """Scan the next ``sets`` L2 sets, completing passes as they end."""
        hierarchy = self.hierarchy
        vd = self.vd
        num_sets = self._l2_num_sets
        cursor = self._cursor
        # No dirty version predates epoch 1 (OIDs start at 1), so an
        # epoch-1 scan persists nothing and the hierarchy only counts it.
        # The epoch cannot advance mid-scan: neither the set scans nor
        # ``_complete_pass`` run the epoch protocol.
        epoch_one = vd.cur_epoch == 1
        scan_set = hierarchy.walker_scan_set
        while sets:
            if cursor == 0:
                self._pass_seq = self.cluster.min_ver_seq(vd.id)
            end = min(num_sets, cursor + sets)
            if epoch_one:
                hierarchy.walker_count_sets(vd, cursor, end)
            else:
                for set_index in range(cursor, end):
                    scan_set(vd, set_index, now)
            sets -= end - cursor
            cursor = end
            if cursor == num_sets:
                cursor = 0
                self._complete_pass(now)
        self._cursor = cursor

    def _complete_pass(self, now: int) -> None:
        """End of a full scan: compute and report min-ver (§V-B)."""
        injector = self.hierarchy.fault_injector
        if injector is not None:
            injector.on_event("walker_pass", now)
        self.passes_completed += 1
        min_ver = self.hierarchy.min_dirty_oid(self.vd)
        oracle = self.hierarchy.oracle
        if oracle is not None:
            oracle.on_walker_pass(self.vd.id, min_ver, now)
        self.cluster.update_min_ver(self.vd.id, min_ver, now, seq=self._pass_seq)
        self.stats.inc("walker.passes")

    def force_pass(self, now: int) -> None:
        """Synchronously walk everything (used at finalize)."""
        self._pass_seq = self.cluster.min_ver_seq(self.vd.id)
        scan = self.hierarchy.walker_scan_set
        for set_index in range(self.vd.l2.geometry.num_sets):
            scan(self.vd, set_index, now)
        self._complete_pass(now)
