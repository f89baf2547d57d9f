"""Tests for the snapshot serving engine (``repro.serve``).

Covers the session layer (O(1) epoch-pinned acquisition, explicit
release, miss classification), the policy round trip, the scheduler's
preconditions, the session-frontier oracle invariants, and the headline
demo: 32 concurrent reader sessions over a burst write stream with the
oracle armed, version GC reclaiming pages under session pins.
"""

import json

import pytest

from repro.core import NVOverlayParams, OMCCluster
from repro.harness.runner import build_run, make_scheme, run_one
from repro.harness.spec import RunSpec
from repro.oracle import InvariantViolation, ProtocolOracle
from repro.serve import MODES, ReaderScheduler, ServePolicy, SessionManager
from repro.sim import NVM, Machine, Stats, SystemConfig


def make_cluster(**kwargs):
    stats = Stats()
    nvm = NVM(SystemConfig(), stats)
    kwargs.setdefault("pool_pages", 1024)
    kwargs.setdefault("retain_epoch_tables", True)
    return OMCCluster(1, 1, nvm, stats, **kwargs), stats


def check_master_refs(cluster):
    for omc in cluster.omcs:
        omc.check_master_refs()


def advance(cluster, epochs, lines=8):
    """Write ``lines`` lines per epoch and move the frontier past each."""
    for epoch in epochs:
        for i in range(lines):
            cluster.insert_version(i, epoch, epoch * 100 + i, 0)
        cluster.update_min_ver(0, epoch + 1, 0)


class TestServePolicy:
    def test_round_trip(self):
        policy = ServePolicy(sessions=8, reads_per_session=4, mode="open",
                             reads_per_txn=1.5, gc_every=16, seed=7)
        rebuilt = ServePolicy.from_dict(json.loads(json.dumps(policy.to_dict())))
        assert rebuilt == policy

    @pytest.mark.parametrize("kwargs", [
        {"sessions": 0},
        {"reads_per_session": 0},
        {"mode": "poisson"},
        {"reads_per_txn": 0.0},
        {"gc_every": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServePolicy(**kwargs)

    def test_modes_listed(self):
        assert ServePolicy().mode in MODES

    def test_spec_embeds_policy(self):
        spec = RunSpec(workload="uniform", scheme="nvoverlay",
                       serve=ServePolicy(sessions=4))
        rebuilt = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.serve == spec.serve
        assert RunSpec(workload="uniform", scheme="nvoverlay").serve is None


class TestSessions:
    def test_acquire_pins_the_frontier(self):
        cluster, _ = make_cluster()
        advance(cluster, [1, 2, 3])
        manager = SessionManager(cluster)
        session = manager.acquire()
        assert session.epoch == cluster.rec_epoch == 3
        assert cluster.pinned_epoch_floor() == 3
        assert session.staleness() == 0
        session.release()
        assert cluster.pinned_epoch_floor() is None

    def test_acquire_beyond_frontier_is_an_error(self):
        cluster, _ = make_cluster()
        advance(cluster, [1])
        manager = SessionManager(cluster)
        with pytest.raises(ValueError):
            manager.acquire(epoch=cluster.rec_epoch + 1)

    def test_release_is_idempotent(self):
        cluster, _ = make_cluster()
        advance(cluster, [1])
        manager = SessionManager(cluster)
        session = manager.acquire()
        session.release()
        session.release()
        assert manager.released == 1
        with pytest.raises(RuntimeError):
            session.read(0)

    def test_context_manager_releases(self):
        cluster, _ = make_cluster()
        advance(cluster, [1])
        manager = SessionManager(cluster)
        with manager.acquire() as session:
            assert not session.released
        assert session.released
        assert not manager.active

    def test_historic_session_reads_its_era(self):
        cluster, _ = make_cluster()
        advance(cluster, [1, 2])
        manager = SessionManager(cluster)
        session = manager.acquire(epoch=1)
        data, oid = session.read(3 << 6)
        assert (data, oid) == (103, 1)  # epoch-2 rewrite stays invisible
        assert session.staleness() == 1
        assert session.hits == 1

    def test_miss_classification(self):
        cluster, _ = make_cluster()
        advance(cluster, [1, 2])
        # Reclaim with nothing pinned drops epoch 1's retained table.
        cluster.reclaim(0)
        check_master_refs(cluster)
        manager = SessionManager(cluster)
        session = manager.acquire(epoch=1)
        # Line 3 was rewritten in epoch 2; its epoch-1 version is gone
        # and the master copy is too new for this session: a stale miss,
        # never future data.
        assert session.read(3 << 6) is None
        # Line 4000 was never written at all: a cold miss.
        assert session.read(4000 << 6) is None
        assert session.stale_misses == 1
        assert session.cold_misses == 1

    def test_frontier_session_is_fully_servable_after_reclaim(self):
        cluster, _ = make_cluster()
        advance(cluster, [1, 2, 3])
        cluster.reclaim(0)
        check_master_refs(cluster)
        manager = SessionManager(cluster)
        session = manager.acquire()  # at the frontier
        for line in range(8):
            data, oid = session.read(line << 6)
            assert data == 300 + line and oid <= session.epoch

    def test_pinned_epoch_survives_reclaim(self):
        cluster, _ = make_cluster()
        advance(cluster, [1, 2])
        manager = SessionManager(cluster)
        session = manager.acquire(epoch=1)
        cluster.reclaim(0)  # must not drop epoch 1 while pinned
        check_master_refs(cluster)
        data, oid = session.read(3 << 6)
        assert (data, oid) == (103, 1)
        session.release()

    def test_release_folds_aggregates(self):
        cluster, _ = make_cluster()
        advance(cluster, [1, 2])
        manager = SessionManager(cluster)
        session = manager.acquire(epoch=1)
        session.read(0)
        session.read(4000 << 6)
        manager.release_all()
        assert manager.reads == 2
        assert manager.hits == 1
        assert manager.cold_misses == 1
        assert manager.staleness_max == 1


class TestFrontierOracle:
    def arm(self, cluster):
        oracle = ProtocolOracle()
        oracle.cluster = cluster
        cluster.oracle = oracle
        return oracle

    def test_acquire_beyond_frontier_fires(self):
        cluster, _ = make_cluster()
        advance(cluster, [1])
        oracle = self.arm(cluster)
        with pytest.raises(InvariantViolation) as exc:
            oracle.on_session_acquire(0, cluster.rec_epoch + 1, 0)
        assert exc.value.invariant == "session-frontier"

    def test_future_version_read_fires(self):
        cluster, _ = make_cluster()
        advance(cluster, [1, 2])
        oracle = self.arm(cluster)
        with pytest.raises(InvariantViolation) as exc:
            oracle.on_session_read(0, 1, 3, 2, 0)  # oid 2 > session epoch 1
        assert exc.value.invariant == "session-read-version"

    def test_reclaim_over_a_pin_fires(self):
        cluster, _ = make_cluster()
        advance(cluster, [1, 2])
        oracle = self.arm(cluster)
        cluster.pin_epoch(1)
        with pytest.raises(InvariantViolation) as exc:
            oracle.on_reclaim(2, 0)
        assert exc.value.invariant == "session-pin"

    def test_clean_session_lifecycle_passes(self):
        cluster, _ = make_cluster()
        advance(cluster, [1, 2])
        oracle = self.arm(cluster)
        manager = SessionManager(cluster)
        session = manager.acquire()
        session.read(0)
        session.release()
        kinds = [e.kind for e in oracle.trace.events]
        assert {"session_acquire", "session_read", "session_release"} <= set(kinds)


class TestSchedulerPreconditions:
    def test_needs_the_nvoverlay_scheme(self):
        machine = Machine(SystemConfig(), scheme=make_scheme("ideal"))
        with pytest.raises(ValueError, match="ideal"):
            ReaderScheduler(machine, ServePolicy(sessions=2))

    def test_needs_retained_tables(self):
        params = NVOverlayParams(retain_epoch_tables=False)
        machine = Machine(SystemConfig(), scheme=make_scheme("nvoverlay", params))
        with pytest.raises(ValueError, match="retain_epoch_tables"):
            ReaderScheduler(machine, ServePolicy(sessions=2))

    def test_refuses_a_second_hook(self):
        machine = Machine(SystemConfig(), scheme=make_scheme("nvoverlay"))
        ReaderScheduler(machine, ServePolicy(sessions=2))
        with pytest.raises(ValueError, match="txn_hook"):
            ReaderScheduler(machine, ServePolicy(sessions=2))


class TestServeDemo:
    def test_32_sessions_over_burst_writes_oracle_armed(self):
        """The acceptance demo: >=32 concurrent reader sessions over a
        burst write stream, frontier oracle armed (any violation raises),
        and compaction provably reclaiming pages under quota pressure."""
        spec = RunSpec(
            workload="load_burst",
            scheme="nvoverlay",
            config=SystemConfig(epoch_size_stores=200),
            scale=0.02,
            seed=1,
            capture_latency=True,
            oracle=True,
            nvo_params=NVOverlayParams(
                pool_pages=512, quota_pages=256, os_grow_pages=128
            ),
            serve=ServePolicy(sessions=32, reads_per_session=16, gc_every=64),
        )
        record = run_one(spec)
        e = record.extra
        assert e["serve_sessions"] == 32
        assert e["serve_sessions_acquired"] >= 32
        assert e["serve_sessions_released"] == e["serve_sessions_acquired"]
        assert e["serve_reads"] > 0
        assert e["serve_read_hits"] > 0
        assert e["serve_read_p99"] >= e["serve_read_p50"] > 0
        # GC ran under session pins and provably returned pages.
        assert e["serve_reclaims"] > 0
        assert e["serve_compacted_versions"] > 0
        assert e["serve_pages_reclaimed"] > 0
        assert e["serve_gc_skipped_pinned"] > 0
        # Misses are counted, never wrong data (the oracle checked every
        # resolved read against the session epoch).
        assert e["serve_stale_misses"] + e["serve_cold_misses"] < e["serve_reads"]

    def test_master_refs_hold_after_every_reclaim(self):
        """Every GC pass of a served run leaves master_refs exact."""
        spec = RunSpec(
            workload="load_burst",
            scheme="nvoverlay",
            config=SystemConfig(epoch_size_stores=300),
            scale=0.01,
            seed=2,
            nvo_params=NVOverlayParams(
                pool_pages=512, quota_pages=32, os_grow_pages=128
            ),
            serve=ServePolicy(sessions=8, reads_per_session=4, gc_every=16),
        )
        machine, workload, scheduler = build_run(spec)
        cluster = scheduler.cluster
        reclaim = cluster.reclaim
        passes = []

        def checked_reclaim(now):
            moved = reclaim(now)
            check_master_refs(cluster)
            passes.append(moved)
            return moved

        cluster.reclaim = checked_reclaim
        result = machine.run(workload)
        scheduler.finalize(result.cycles)
        assert len(passes) == scheduler.reclaims > 1
        assert sum(passes) > 0

    def test_unserved_runs_are_unchanged(self):
        """serve=None must not perturb the write side at all."""
        base = RunSpec(workload="uniform", scheme="nvoverlay", scale=0.05)
        served = base.with_changes(
            serve=ServePolicy(sessions=4, reads_per_session=4, gc_every=1024),
            nvo_params=NVOverlayParams(os_grow_pages=128),
        )
        plain = run_one(base)
        with_readers = run_one(served)
        assert with_readers.cycles == plain.cycles
        assert with_readers.stores == plain.stores
