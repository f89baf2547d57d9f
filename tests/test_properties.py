"""Property-based integration tests over the whole stack.

These drive the simulator with hypothesis-generated operation scripts
and check the two global invariants everything else rests on:

1. **Coherence**: after any interleaving, every line's final value (in
   the hierarchy's merged image) is the token of its globally-last store.
2. **Snapshot consistency**: NVOverlay's recovered image at rec-epoch
   equals the golden image derived from the committed store log, for any
   workload shape.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NVOverlay, NVOverlayParams, SnapshotReader, golden_image
from repro.sim import Machine, load, store

from tests.util import (
    ScriptedWorkload,
    check_hierarchy_invariants,
    final_image_matches_stores,
    tiny_config,
)

# A compact universe of lines: a few shared, a few per-thread.
LINES = [0x4000 + 64 * i for i in range(12)]


def scripts_strategy(num_threads=4, max_txns=40):
    op = st.builds(
        lambda is_store, line_index: (
            store(LINES[line_index]) if is_store else load(LINES[line_index])
        ),
        st.booleans(),
        st.integers(0, len(LINES) - 1),
    )
    txn = st.lists(op, min_size=1, max_size=4)
    thread = st.lists(txn, max_size=max_txns)
    return st.lists(thread, min_size=num_threads, max_size=num_threads)


class TestCoherenceProperty:
    @given(scripts_strategy())
    @settings(max_examples=60, deadline=None)
    def test_final_image_matches_store_log(self, scripts):
        machine = Machine(tiny_config(), capture_store_log=True)
        machine.run(ScriptedWorkload(scripts))
        mismatches, _total = final_image_matches_stores(machine)
        assert mismatches == 0
        check_hierarchy_invariants(machine.hierarchy)

    @given(scripts_strategy())
    @settings(max_examples=30, deadline=None)
    def test_versioned_hierarchy_same_final_image(self, scripts):
        """CST must never change the *functional* memory semantics."""
        scheme = NVOverlay(NVOverlayParams(num_omcs=1, pool_pages=2048))
        machine = Machine(
            tiny_config(epoch_size_stores=16), scheme=scheme,
            capture_store_log=True,
        )
        machine.run(ScriptedWorkload(scripts))
        mismatches, _total = final_image_matches_stores(machine)
        assert mismatches == 0


class TestFiniteDirectoryProperty:
    @given(scripts_strategy(), st.integers(2, 10))
    @settings(max_examples=30, deadline=None)
    def test_back_invalidation_never_loses_data(self, scripts, capacity):
        machine = Machine(
            tiny_config(directory_entries_per_slice=capacity),
            capture_store_log=True,
        )
        machine.run(ScriptedWorkload(scripts))
        mismatches, _total = final_image_matches_stores(machine)
        assert mismatches == 0


class TestMOESIProperty:
    @given(scripts_strategy())
    @settings(max_examples=40, deadline=None)
    def test_moesi_final_image_matches_store_log(self, scripts):
        machine = Machine(
            tiny_config(coherence_protocol="moesi"), capture_store_log=True
        )
        machine.run(ScriptedWorkload(scripts))
        mismatches, _total = final_image_matches_stores(machine)
        assert mismatches == 0
        check_hierarchy_invariants(machine.hierarchy)

    @given(scripts_strategy(), st.integers(8, 64))
    @settings(max_examples=30, deadline=None)
    def test_moesi_recovery_equals_golden(self, scripts, epoch_size):
        scheme = NVOverlay(NVOverlayParams(num_omcs=1, pool_pages=2048))
        machine = Machine(
            tiny_config(coherence_protocol="moesi", epoch_size_stores=epoch_size),
            scheme=scheme,
            capture_store_log=True,
        )
        machine.run(ScriptedWorkload(scripts))
        image = SnapshotReader(scheme.cluster).recover()
        assert image.lines == golden_image(machine.hierarchy.store_log, image.epoch)


class TestSnapshotProperty:
    @given(scripts_strategy(), st.integers(8, 64))
    @settings(max_examples=40, deadline=None)
    def test_recovery_equals_golden(self, scripts, epoch_size):
        scheme = NVOverlay(NVOverlayParams(num_omcs=2, pool_pages=2048))
        machine = Machine(
            tiny_config(epoch_size_stores=epoch_size),
            scheme=scheme,
            capture_store_log=True,
        )
        machine.run(ScriptedWorkload(scripts))
        image = SnapshotReader(scheme.cluster).recover()
        assert image.lines == golden_image(machine.hierarchy.store_log, image.epoch)

    @given(scripts_strategy(), st.integers(2, 12), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_compaction_keeps_recovery_and_master_refs(
        self, scripts, epoch_size, retain
    ):
        """Under a one-page quota every merge compacts; the recovered
        image stays golden and ``master_refs`` stays exact, before and
        after a serve-side reclaim."""
        scheme = NVOverlay(NVOverlayParams(
            num_omcs=1, pool_pages=64, quota_pages=1, os_grow_pages=16,
            retain_epoch_tables=retain,
        ))
        machine = Machine(
            tiny_config(epoch_size_stores=epoch_size),
            scheme=scheme,
            capture_store_log=True,
        )
        machine.run(ScriptedWorkload(scripts))
        cluster = scheme.cluster
        log = machine.hierarchy.store_log
        for _ in range(2):
            for omc in cluster.omcs:
                omc.check_master_refs()
            image = SnapshotReader(cluster).recover()
            assert image.lines == golden_image(log, image.epoch)
            cluster.reclaim(0)

    @given(scripts_strategy(num_threads=4, max_txns=25))
    @settings(max_examples=25, deadline=None)
    def test_every_epoch_reconstructs(self, scripts):
        """Time-travel reads are exact for *every* epoch of the run."""
        scheme = NVOverlay(NVOverlayParams(num_omcs=1, pool_pages=2048))
        machine = Machine(
            tiny_config(epoch_size_stores=12), scheme=scheme,
            capture_store_log=True,
        )
        machine.run(ScriptedWorkload(scripts))
        reader = SnapshotReader(scheme.cluster)
        final = reader.recover().epoch
        log = machine.hierarchy.store_log
        for epoch in range(1, final + 1):
            assert reader.image_at(epoch) == golden_image(log, epoch)
