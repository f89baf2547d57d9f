"""Tests for the related-work baseline schemes (PR 10).

Covers the three additions to ``repro.baselines`` — In-Cache-Line
Logging, JASS-style adaptive checkpointing, and the msync-based
userspace Snapshot — plus the two ``sim``-layer mechanisms they brought
with them: the CXL-attached NVM device profile and the adaptive
epoch-sizing policy.
"""

import dataclasses

import pytest

from repro.harness.runner import COMPARED_SCHEMES, SCHEMES, make_scheme, simulate
from repro.harness.spec import (
    RunSpec,
    config_from_dict,
    config_to_dict,
)
from repro.sim import (
    NVM,
    NVM_PROFILES,
    AdaptiveEpochPolicy,
    Machine,
    Stats,
    SystemConfig,
)
from repro.workloads import make_workload

SMALL = SystemConfig.small()
NEW_SCHEMES = ("icl", "jass_adaptive", "msync_snapshot")


def _spec(scheme, *, config=SMALL, workload="uniform", scale=0.02, **kw):
    return RunSpec(workload=workload, scheme=scheme, config=config,
                   scale=scale, seed=1, **kw)


def _run_machine(scheme, *, config=SMALL, workload="uniform", scale=0.02):
    """A direct Machine run, for asserting on raw scheme counters."""
    machine = Machine(config, scheme=make_scheme(scheme))
    machine.run(make_workload(
        workload, num_threads=config.num_cores, scale=scale, seed=1,
    ))
    return machine


class TestRegistry:
    def test_new_schemes_registered_and_compared(self):
        for name in NEW_SCHEMES:
            assert name in SCHEMES
            assert name in COMPARED_SCHEMES
            scheme = make_scheme(name)
            assert scheme.name == name
            assert not scheme.uses_version_protocol

    def test_new_schemes_run_through_runspec(self):
        for name in NEW_SCHEMES:
            record = simulate(_spec(name))
            assert record.scheme == name
            assert record.cycles > 0 and record.stores > 0
            assert record.total_nvm_bytes > 0


class TestICL:
    def test_logs_in_background_and_prunes(self):
        stats = _run_machine("icl").stats
        # One embedded entry per first-store-per-line — background, so no
        # sync barrier per store; the only sync writes are commit records
        # (one per epoch rollover plus the final partial epoch).
        assert stats.get("nvm.bytes.log") > 0
        assert stats.get("nvm.sync_writes") <= stats.get("epoch.advances") + 1
        # The pruner ran and reclaimed the committed epochs' entries.
        assert stats.get("icl.pruned_entries") > 0
        assert stats.get("icl.prune_writes") > 0

    def test_cheaper_than_sw_logging(self):
        """The whole point of ICL: no per-store persistence barrier."""
        icl = simulate(_spec("icl"))
        sw = simulate(_spec("sw_logging"))
        assert icl.cycles < sw.cycles


class TestJASSAdaptive:
    def test_switches_strategies_under_mixed_locality(self):
        stats = _run_machine(
            "jass_adaptive", workload="kmeans", scale=0.05
        ).stats
        # kmeans rewrites its centroid pages densely: some pages must
        # have migrated off the default undo leg.
        assert stats.get("jass.switches") > 0
        assert stats.get("jass.redirections") > 0
        assert stats.get("jass.log_entries") > 0

    def test_sparse_workload_stays_on_undo_leg(self):
        scheme = make_scheme("jass_adaptive")
        machine = Machine(SMALL, scheme=scheme)
        workload = make_workload("uniform", num_threads=4, scale=0.02, seed=1)
        machine.run(workload)
        # Uniform random stores rarely dirty 8+ lines of one page per
        # 64-store epoch, so the shadow leg should stay rare.
        undo = machine.stats.get("jass.undo_pages")
        shadow = machine.stats.get("jass.shadow_pages")
        assert undo > shadow


class TestMsyncSnapshot:
    def test_page_faults_and_page_granularity_flushes(self):
        stats = _run_machine("msync_snapshot").stats
        assert stats.get("msync.page_faults") > 0
        assert stats.get("msync.pages_flushed") > 0
        # Page-granularity amplification: data bytes are a whole number
        # of 4 KB pages, far above the lines actually dirtied.
        data_bytes = stats.get("nvm.bytes.data")
        assert data_bytes % 4096 == 0
        assert data_bytes >= stats.get("msync.pages_flushed") * 4096

    def test_most_expensive_software_scheme(self):
        msync = simulate(_spec("msync_snapshot"))
        sw = simulate(_spec("sw_logging"))
        assert msync.total_nvm_bytes > sw.total_nvm_bytes


class TestCXLProfile:
    def test_profiles_registered(self):
        assert set(NVM_PROFILES) >= {"local", "cxl"}
        assert NVM_PROFILES["local"].extra_write_latency == 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="NVM device profile"):
            SystemConfig(nvm_profile="pcie")

    def test_device_latencies_shift(self):
        local = NVM(SMALL, Stats())
        cxl = NVM(SMALL.with_changes(nvm_profile="cxl"), Stats())
        assert cxl.write_latency > local.write_latency
        assert cxl.read_latency > local.read_latency
        assert cxl.bank_occupancy > local.bank_occupancy
        assert cxl.backpressure < local.backpressure

    def test_cxl_changes_measured_latency_distribution(self):
        """End to end: same cells, measurably slower on CXL."""
        local = simulate(_spec("msync_snapshot", capture_latency=True))
        cxl = simulate(_spec(
            "msync_snapshot", config=SMALL.with_changes(nvm_profile="cxl"),
            capture_latency=True,
        ))
        assert cxl.cycles > local.cycles
        assert (cxl.extra["store_latency_p99"]
                >= local.extra["store_latency_p99"])

    def test_profile_is_part_of_the_cache_key(self):
        a = _spec("msync_snapshot").cache_key()
        b = _spec(
            "msync_snapshot", config=SMALL.with_changes(nvm_profile="cxl")
        ).cache_key()
        assert a != b


class TestAdaptiveEpochPolicy:
    def test_controller_nudges_toward_target(self):
        policy = AdaptiveEpochPolicy(
            base_size=1000, min_size=100, max_size=10_000,
            target_dirty_lines=64,
        )
        assert policy.size_at(0) == 1000
        policy.observe_commit(stores=1000, dirty_lines=256)  # too dirty
        shrunk = policy.size_at(0)
        assert shrunk < 1000
        policy.observe_commit(stores=shrunk, dirty_lines=4)  # very sparse
        assert policy.size_at(0) > shrunk
        policy.reset()
        assert policy.size_at(0) == 1000

    def test_clamps_to_bounds(self):
        policy = AdaptiveEpochPolicy(
            base_size=1000, min_size=900, max_size=1100,
            target_dirty_lines=64,
        )
        for _ in range(10):
            policy.observe_commit(1000, 10_000)
        assert policy.size_at(0) == 900
        for _ in range(10):
            policy.observe_commit(1000, 1)
        assert policy.size_at(0) == 1100

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveEpochPolicy(base_size=10, min_size=100, max_size=1000)
        with pytest.raises(ValueError):
            AdaptiveEpochPolicy(gain=0.0)
        with pytest.raises(ValueError):
            AdaptiveEpochPolicy(target_dirty_lines=0)

    def test_serialization_round_trip(self):
        policy = AdaptiveEpochPolicy(
            base_size=2000, min_size=200, max_size=20_000,
            target_dirty_lines=128, gain=0.25,
        )
        config = SMALL.with_changes(epoch_policy=policy)
        restored = config_from_dict(config_to_dict(config))
        assert restored.epoch_policy == policy
        # Runtime state never leaks into the cache key: a mutated
        # controller serializes identically to a fresh one.
        policy.observe_commit(1000, 10_000)
        assert config_to_dict(config) == config_to_dict(
            SMALL.with_changes(epoch_policy=dataclasses.replace(policy))
        )

    @pytest.mark.parametrize("scheme", ["nvoverlay", "sw_logging", "icl"])
    def test_runs_deterministically_under_schemes(self, scheme):
        policy = AdaptiveEpochPolicy(
            base_size=64, min_size=16, max_size=256, target_dirty_lines=8,
        )
        config = SMALL.with_changes(epoch_policy=policy)
        first = _run_machine(scheme, config=config, scale=0.05)
        second = _run_machine(scheme, config=config, scale=0.05)
        assert first.stats.counters() == second.stats.counters()
        assert first.hierarchy.memory_image() == second.hierarchy.memory_image()

    def test_epoch_size_actually_adapts(self):
        """The controller must move the epoch size away from base."""
        policy = AdaptiveEpochPolicy(
            base_size=64, min_size=16, max_size=4096, target_dirty_lines=4,
        )
        config = SMALL.with_changes(epoch_policy=policy)
        scheme = make_scheme("sw_logging")
        machine = Machine(config, scheme=scheme)
        workload = make_workload("uniform", num_threads=4, scale=0.05, seed=1)
        machine.run(workload)
        assert policy.size_at(0) != 64
        # And the run behaves differently from the fixed-size policy.
        fixed = simulate(_spec("sw_logging", scale=0.05))
        adaptive = simulate(_spec("sw_logging", config=config, scale=0.05))
        assert fixed.cycles != adaptive.cycles
