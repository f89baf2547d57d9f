"""System configuration mirroring Table II of the NVOverlay paper.

The paper simulates a 16-core, 4-way superscalar machine at 3 GHz with
32 KB L1-D, 256 KB L2, a 32 MB shared LLC, 4 DDR3-1333 DRAM controllers
and a 16-bank NVDIMM with 133 ns write latency.  ``SystemConfig`` encodes
exactly those knobs plus the epoch/snapshotting parameters the evaluation
sweeps.  Cache capacities default to scaled-down values (the pure-Python
simulator runs workloads roughly two orders of magnitude smaller than the
paper's 1.6 B-instruction runs); ``SystemConfig.paper_scale`` restores the
published geometry for users with patience.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Tuple

CACHE_LINE_SIZE = 64
CACHE_LINE_SHIFT = 6
PAGE_SIZE = 4096
PAGE_SHIFT = 12


class EpochPolicy:
    """Decides the epoch length as a function of execution progress.

    The default is a fixed size, but time-travel debugging (§VII-E)
    starts bursts of very short epochs around suspicious code regions —
    ``BurstyEpochPolicy`` models exactly that for Fig. 17b.
    ``AdaptiveEpochPolicy`` closes the Fig. 14 sensitivity loop online:
    each epoch commit feeds the observed write set back into the next
    epoch size.
    """

    def size_at(self, total_stores: int) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop any per-run controller state (called at machine build).

        Stateless policies (fixed, bursty) have nothing to drop; the
        hook exists so one reset call covers every policy kind.
        """

    def observe_commit(self, stores: int, dirty_lines: int) -> None:
        """Feedback from one committed epoch (stateless policies ignore it)."""


@dataclass(frozen=True)
class FixedEpochPolicy(EpochPolicy):
    size: int

    def size_at(self, total_stores: int) -> int:
        return self.size


@dataclass(frozen=True)
class BurstyEpochPolicy(EpochPolicy):
    """A base epoch size with windows of much shorter epochs.

    ``bursts`` are (start_store, end_store, epoch_size) windows over the
    cumulative system store count.
    """

    base_size: int
    bursts: Tuple[Tuple[int, int, int], ...]

    def size_at(self, total_stores: int) -> int:
        for start, end, size in self.bursts:
            if start <= total_stores < end:
                return size
        return self.base_size


@dataclass(frozen=True)
class AdaptiveEpochPolicy(EpochPolicy):
    """JASS-style online epoch sizing driven by observed write sets.

    Fig. 14 showed snapshot overhead tracks the *dirty-line* count per
    epoch far more closely than the raw store count: write-local phases
    tolerate long epochs cheaply while scattered phases want short ones.
    This controller closes that loop at run time — every committed epoch
    reports its write set and the next epoch's size is nudged
    multiplicatively toward ``target_dirty_lines``.

    The dataclass fields are pure knobs (they form the cache key); the
    controller's running estimate lives outside the field set and is
    re-seeded from ``base_size`` at every machine build, so repeated runs
    of one spec are deterministic.
    """

    base_size: int = 10_000
    min_size: int = 500
    max_size: int = 100_000
    target_dirty_lines: int = 512
    #: Fraction of the measured error applied per epoch (0 < gain <= 1).
    gain: float = 0.5

    def __post_init__(self) -> None:
        if not (0 < self.min_size <= self.base_size <= self.max_size):
            raise ValueError(
                "adaptive epoch sizes must satisfy "
                "0 < min_size <= base_size <= max_size"
            )
        if self.target_dirty_lines < 1:
            raise ValueError("target_dirty_lines must be positive")
        if not (0.0 < self.gain <= 1.0):
            raise ValueError("gain must be in (0, 1]")
        self.reset()

    def reset(self) -> None:
        # Runtime state bypasses the frozen field set on purpose: it
        # never participates in equality, hashing or serialization.
        object.__setattr__(self, "_current", self.base_size)

    def size_at(self, total_stores: int) -> int:
        return self._current  # type: ignore[attr-defined]

    def observe_commit(self, stores: int, dirty_lines: int) -> None:
        if stores <= 0:
            return
        # Epochs that dirtied more than the target shrink, sparser ones
        # grow; the ratio is clamped so one pathological epoch cannot
        # swing the controller by more than 4x.
        ratio = self.target_dirty_lines / max(1, dirty_lines)
        ratio = min(4.0, max(0.25, ratio))
        step = 1.0 + self.gain * (ratio - 1.0)
        nudged = int(self._current * step)  # type: ignore[attr-defined]
        object.__setattr__(
            self, "_current", max(self.min_size, min(self.max_size, nudged))
        )


@dataclass(frozen=True)
class NVMDeviceProfile:
    """Latency/bandwidth deltas for where the NVM is attached.

    The default profile models the paper's local NVDIMM (all deltas are
    identity).  The ``cxl`` profile models a CXL-attached memory
    expander: every access crosses the CXL.mem link (hundreds of extra
    nanoseconds each way) and the device's effective per-bank bandwidth
    is roughly halved, so back-pressure engages earlier.
    """

    name: str
    #: Added to ``nvm_read_latency`` / ``nvm_write_latency`` (cycles).
    extra_read_latency: int = 0
    extra_write_latency: int = 0
    #: Multiplier on per-bank occupancy (>1 = less device bandwidth).
    occupancy_scale: float = 1.0
    #: Multiplier on the back-pressure threshold (<1 = earlier stalls).
    backpressure_scale: float = 1.0


NVM_PROFILES = {
    "local": NVMDeviceProfile(name="local"),
    # ~150 ns extra read / ~135 ns extra write for the CXL.mem round
    # trip at 3 GHz, half the per-bank write bandwidth, and the
    # back-pressure window tightened to match the slower drain.
    "cxl": NVMDeviceProfile(
        name="cxl",
        extra_read_latency=450,
        extra_write_latency=400,
        occupancy_scale=2.0,
        backpressure_scale=0.5,
    ),
}


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache array."""

    size_bytes: int
    ways: int
    latency: int  # access latency in cycles

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * CACHE_LINE_SIZE) != 0:
            raise ValueError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.ways}-way sets of {CACHE_LINE_SIZE}B lines"
            )

    # cached_property on a frozen dataclass: the value lands in the
    # instance __dict__ (not a field), so hashing/equality are unchanged
    # but per-access recomputation — formerly visible in simulator
    # profiles — happens once.
    @cached_property
    def num_lines(self) -> int:
        return self.size_bytes // CACHE_LINE_SIZE

    @cached_property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class SystemConfig:
    """Full machine + snapshotting configuration.

    The defaults are a faithful but scaled-down rendition of Table II:
    same core count, associativities and latencies; cache capacities are
    divided by 16 so that workloads of ~10^5 operations exercise capacity
    evictions the way the paper's 10^9-instruction runs exercised the
    full-size hierarchy.
    """

    num_cores: int = 16
    cores_per_vd: int = 2
    frequency_ghz: float = 3.0

    l1_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(1024, 4, 4)
    )
    l2_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(8192, 8, 8)
    )
    llc_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(256 * 1024, 16, 30)
    )
    llc_slices: int = 4

    # DRAM: DDR3-1333, 4 controllers.  Latency expressed in CPU cycles.
    dram_latency: int = 160
    dram_controllers: int = 4

    # NVDIMM: 16 banks, 133 ns write latency (≈400 cycles at 3 GHz).
    nvm_banks: int = 16
    nvm_write_latency: int = 400
    nvm_read_latency: int = 300
    # Per-bank occupancy per 64 B transfer (models device write bandwidth).
    nvm_bank_occupancy: int = 64
    # Background writes deeper than this (in cycles of queueing delay)
    # back-pressure the issuing core.
    nvm_backpressure_cycles: int = 8000
    # Bandwidth accounting bucket width (cycles) for time-series stats.
    nvm_bandwidth_bucket: int = 50_000
    #: Device attachment profile ("local" or "cxl"); applies the
    #: ``NVM_PROFILES`` deltas on top of the latency knobs above.
    nvm_profile: str = "local"

    #: Directory capacity per LLC slice, in tracked lines.  None models
    #: an unbounded (perfect) directory; a finite value adds the real
    #: structure's back-invalidations: evicting a directory entry forces
    #: every holder to give the line up (§II-D scalability pressure).
    directory_entries_per_slice: Optional[int] = None

    interconnect_hop_latency: int = 12
    #: Extra hops for crossing a socket boundary (multi-socket systems).
    socket_hop_penalty: int = 2
    #: Sockets the VDs/LLC slices are distributed over (1 = single die).
    num_sockets: int = 1

    #: Baseline coherence protocol: "mesi" or "moesi".  MOESI adds the
    #: Owned state: a downgraded dirty line stays dirty-shared at its
    #: owner instead of writing back (§IV-E protocol-compatibility note).
    coherence_protocol: str = "mesi"
    #: Request transport: "directory" (distributed, at the LLC slices)
    #: or "snoop" (bus broadcast — §IV-E compatibility; every miss
    #: snoops all VDs, which is what stops scaling past small machines).
    coherence_transport: str = "directory"

    #: Where working data lives (§III-B: "the application can use DRAM,
    #: or NVM, or both as working memory"): "dram" (the evaluation's
    #: write-back DRAM buffer) or "nvm" (misses and write-backs pay NVM
    #: latencies and occupy its banks alongside snapshot traffic).
    working_memory: str = "dram"

    # --- Epoch / snapshotting parameters -------------------------------
    # The paper uses 1 M store uops per epoch; scaled down by ~100x.
    epoch_size_stores: int = 10_000
    #: Optional dynamic epoch sizing (Fig. 17b); overrides
    #: ``epoch_size_stores`` when set.
    epoch_policy: Optional[EpochPolicy] = None
    epoch_bits: int = 16
    # Cycles to drain pipelines + dump core context at an epoch boundary.
    epoch_advance_stall: int = 200
    # Bytes of per-core context dumped to NVM at each epoch boundary
    # (scaled down with the epoch size; the paper's full register +
    # internal state dump at 1M-store epochs amortizes the same way).
    context_dump_bytes: int = 128

    # Tag walker scan rate: L2 tags examined per 1000 cycles.
    tag_walk_rate: int = 64

    #: Coalesce the cross-VD side effects of coherence-driven epoch
    #: advances (§III-C) — sense update, OMC context record, per-core
    #: context dump, advance stall — to one batch per transaction
    #: boundary instead of firing them inside every synced store/load.
    #: The *local* epoch register still advances immediately (version
    #: ordering in the caches depends on it).  Off by default: the
    #: 16-core paper geometry keeps its per-store timing; the scale-out
    #: sweeps enable it.
    batch_epoch_sync: bool = False

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("num_cores must be positive")
        if self.cores_per_vd < 1:
            raise ValueError("cores_per_vd must be positive")
        if self.num_cores % self.cores_per_vd != 0:
            raise ValueError(
                f"num_cores ({self.num_cores}) must be a multiple of "
                f"cores_per_vd ({self.cores_per_vd})"
            )
        if self.llc_slices < 1:
            raise ValueError("llc_slices must be positive")
        if self.llc_geometry.size_bytes % self.llc_slices != 0:
            raise ValueError("LLC size must divide evenly across slices")
        slice_bytes = self.llc_geometry.size_bytes // self.llc_slices
        slice_set_bytes = self.llc_geometry.ways * CACHE_LINE_SIZE
        if slice_bytes % slice_set_bytes != 0:
            raise ValueError(
                f"LLC slice of {slice_bytes} B cannot form "
                f"{self.llc_geometry.ways}-way sets of {CACHE_LINE_SIZE} B "
                f"lines; adjust llc_slices ({self.llc_slices}) or ways"
            )
        if self.epoch_bits < 4 or self.epoch_bits > 32:
            raise ValueError("epoch_bits must be in [4, 32]")
        if self.coherence_protocol not in ("mesi", "moesi"):
            raise ValueError(
                f"unknown coherence protocol {self.coherence_protocol!r}"
            )
        if self.coherence_transport not in ("directory", "snoop"):
            raise ValueError(
                f"unknown coherence transport {self.coherence_transport!r}"
            )
        if self.working_memory not in ("dram", "nvm"):
            raise ValueError(
                f"unknown working memory kind {self.working_memory!r}"
            )
        if self.nvm_profile not in NVM_PROFILES:
            raise ValueError(
                f"unknown NVM device profile {self.nvm_profile!r}; "
                f"known: {sorted(NVM_PROFILES)}"
            )
        if self.num_sockets < 1 or self.num_cores % self.num_sockets:
            raise ValueError("cores must divide evenly across sockets")
        if self.num_sockets > 1:
            # VDs and slices are split into contiguous blocks, one per
            # socket, so every socket must get the same number of each.
            if self.num_vds % self.num_sockets:
                raise ValueError(
                    f"{self.num_vds} VDs cannot distribute evenly over "
                    f"{self.num_sockets} sockets"
                )
            if self.llc_slices % self.num_sockets:
                raise ValueError(
                    f"{self.llc_slices} LLC slices cannot distribute "
                    f"evenly over {self.num_sockets} sockets"
                )

    @property
    def num_vds(self) -> int:
        return self.num_cores // self.cores_per_vd

    @property
    def vd_epoch_size_stores(self) -> int:
        """Per-VD epoch length giving the same snapshot frequency.

        ``epoch_size_stores`` counts *system-wide* stores per epoch (the
        paper's "1M store uops").  A VD only sees its cores' share of
        those stores, so its local epoch advances after proportionally
        fewer stores — otherwise per-VD epochs would be ``num_vds`` times
        longer in wall-clock than the global epochs of the baselines.
        """
        return self.vd_epoch_size_at(0)

    def epoch_size_at(self, total_stores: int) -> int:
        """System-wide epoch size at a given point in execution."""
        if self.epoch_policy is not None:
            return max(1, self.epoch_policy.size_at(total_stores))
        return self.epoch_size_stores

    def vd_epoch_size_at(self, vd_total_stores: int) -> int:
        """Per-VD epoch size (see ``vd_epoch_size_stores``), possibly
        under a dynamic policy evaluated at the VD's own store count."""
        scaled_total = vd_total_stores * self.num_cores // self.cores_per_vd
        size = self.epoch_size_at(scaled_total)
        return max(1, size * self.cores_per_vd // self.num_cores)

    @property
    def llc_slice_geometry(self) -> CacheGeometry:
        g = self.llc_geometry
        return CacheGeometry(g.size_bytes // self.llc_slices, g.ways, g.latency)

    def with_changes(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def paper_scale(cls) -> "SystemConfig":
        """The literal Table II configuration (slow in pure Python)."""
        return cls(
            l1_geometry=CacheGeometry(32 * 1024, 8, 4),
            l2_geometry=CacheGeometry(256 * 1024, 8, 8),
            llc_geometry=CacheGeometry(32 * 1024 * 1024, 16, 30),
            epoch_size_stores=1_000_000,
        )

    @classmethod
    def scaled(cls, num_cores: int, cores_per_vd: int = 2,
               num_sockets: int = 1, **overrides) -> "SystemConfig":
        """A consistent geometry for an arbitrary core count (4–64+).

        Holds the *per-core* resources of the 16-core default constant:
        the LLC grows linearly with cores, the slice count tracks
        ``num_cores // 4`` (so per-slice capacity stays fixed), and the
        system-wide epoch size scales so each VD sees the same epoch
        length in its own stores.  Any field can still be overridden.
        """
        if num_cores < cores_per_vd:
            raise ValueError(
                f"num_cores ({num_cores}) must be at least cores_per_vd "
                f"({cores_per_vd})"
            )
        base = cls()
        slices = overrides.pop("llc_slices", max(2, num_cores // 4))
        llc = overrides.pop("llc_geometry", CacheGeometry(
            base.llc_geometry.size_bytes * num_cores // base.num_cores,
            base.llc_geometry.ways,
            base.llc_geometry.latency,
        ))
        epoch_stores = overrides.pop(
            "epoch_size_stores",
            max(1, base.epoch_size_stores * num_cores // base.num_cores),
        )
        return cls(
            num_cores=num_cores,
            cores_per_vd=cores_per_vd,
            num_sockets=num_sockets,
            llc_slices=slices,
            llc_geometry=llc,
            epoch_size_stores=epoch_stores,
            **overrides,
        )

    @classmethod
    def small(cls) -> "SystemConfig":
        """A tiny configuration for unit tests (4 cores, 2 VDs)."""
        return cls(
            num_cores=4,
            cores_per_vd=2,
            l1_geometry=CacheGeometry(512, 2, 4),
            l2_geometry=CacheGeometry(2048, 4, 8),
            llc_geometry=CacheGeometry(16 * 1024, 4, 30),
            llc_slices=2,
            epoch_size_stores=64,
        )
