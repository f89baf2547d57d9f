"""Golden-stats parity: optimized hot paths are bit-identical to the seed.

``tests/data/golden_parity.json`` holds fingerprints captured from the
pre-optimization implementation: the full ``Stats`` counter dump, every
time series, the final working-memory and merged hierarchy images, and
the spec cache key, each hashed.  The optimized simulator must reproduce
every one of them exactly — a perf change that shifts any counter,
cycle count or memory byte is a semantics change, not an optimization.

These are the heaviest tier-1 tests (many full small-scale runs); the
cells stay at scale 0.2 so the whole file runs in tens of seconds.
"""

import json
from pathlib import Path

import pytest

from repro.harness.bench import run_fingerprint
from repro.harness.spec import RunSpec, nvo_params_from_dict
from repro.serve import ServePolicy
from repro.sim.config import CacheGeometry, SystemConfig

FIXTURE = Path(__file__).parent / "data" / "golden_parity.json"

with FIXTURE.open() as fh:
    _CELLS = json.load(fh)["cells"]


def _cell_id(cell):
    cores = cell.get("cores")
    geometry = "" if cores is None else f"-{cores}c"
    if cell.get("batch_epoch_sync"):
        geometry += "-batched"
    if cell.get("nvm_profile", "local") != "local":
        geometry += f"-{cell['nvm_profile']}"
    if cell.get("serve"):
        geometry += "-serve"
    for name, value in sorted(cell.get("config", {}).items()):
        if isinstance(value, dict):
            value = f"{value['size_bytes']}x{value['ways']}"
        geometry += f"-{name}={value}"
    return f"{cell['workload']}-{cell['scheme']}{geometry}"


def _cell_config(cell):
    """Geometry for a cell: default 16-core unless ``cores`` says else.

    ``epoch_size_stores`` (16-core cells only) shortens the epochs so a
    small cell still merges, reclaims and compacts many times.  A
    ``config`` dict overrides any other ``SystemConfig`` field; cache
    geometries are spelled as ``{"size_bytes", "ways", "latency"}``.
    """
    cores = cell.get("cores")
    profile = cell.get("nvm_profile", "local")
    config = {
        name: CacheGeometry(**value) if isinstance(value, dict) else value
        for name, value in cell.get("config", {}).items()
    }
    if cores is None:
        overrides = dict(config)
        if profile != "local":
            overrides["nvm_profile"] = profile
        if "epoch_size_stores" in cell:
            overrides["epoch_size_stores"] = cell["epoch_size_stores"]
        return SystemConfig(**overrides) if overrides else None
    return SystemConfig.scaled(
        cores, batch_epoch_sync=cell.get("batch_epoch_sync", False),
        nvm_profile=profile, **config,
    )


def _cell_spec(cell):
    serve = cell.get("serve")
    return RunSpec(
        workload=cell["workload"],
        scheme=cell["scheme"],
        config=_cell_config(cell),
        scale=cell["scale"],
        seed=cell["seed"],
        nvo_params=nvo_params_from_dict(cell.get("nvo_params")),
        serve=ServePolicy.from_dict(serve) if serve else None,
    )


@pytest.mark.parametrize("cell", _CELLS, ids=[_cell_id(c) for c in _CELLS])
def test_fingerprint_matches_seed(cell):
    fingerprint = run_fingerprint(_cell_spec(cell))
    expected = cell["fingerprint"]
    mismatched = {
        key: (expected[key], fingerprint.get(key))
        for key in expected
        if fingerprint.get(key) != expected[key]
    }
    assert not mismatched, (
        f"{cell['workload']}/{cell['scheme']} "
        f"diverged from the seed implementation: {mismatched}"
    )


def test_fixture_covers_all_pinned_schemes_and_three_workloads():
    pairs = {(c["workload"], c["scheme"]) for c in _CELLS}
    assert len(pairs) >= 10
    assert {s for _, s in pairs} == {
        "nvoverlay", "picl", "icl", "jass_adaptive", "msync_snapshot",
    }
    assert len({w for w, _ in pairs}) >= 3


def test_fixture_pins_the_cxl_device_profile():
    cxl = [c for c in _CELLS if c.get("nvm_profile") == "cxl"]
    assert cxl, "no CXL-profile cell in the fixture"
    # The CXL profile must actually change timing: its fingerprint may
    # not collide with the same cell on the local profile.
    for cell in cxl:
        twins = [
            c for c in _CELLS
            if c.get("nvm_profile", "local") == "local"
            and (c["workload"], c["scheme"], c.get("cores"))
            == (cell["workload"], cell["scheme"], cell.get("cores"))
        ]
        for twin in twins:
            assert twin["fingerprint"]["cycles"] != cell["fingerprint"]["cycles"]


def test_fixture_pins_scaled_geometries():
    """32- and 64-core fingerprints guard the scale-out refactors."""
    cores = {c.get("cores") for c in _CELLS}
    assert {None, 32, 64} <= cores
    for scale in (32, 64):
        schemes = {c["scheme"] for c in _CELLS if c.get("cores") == scale}
        assert schemes == {"nvoverlay", "picl"}
    assert any(c.get("batch_epoch_sync") for c in _CELLS)


def test_fingerprint_is_deterministic():
    spec = RunSpec(workload="uniform", scheme="nvoverlay", scale=0.05, seed=3)
    assert run_fingerprint(spec) == run_fingerprint(spec)


def test_fixture_pins_version_compaction():
    """A serve cell under a pool quota pins the GC pass (§V-D)."""
    gc_cells = [
        c for c in _CELLS
        if c.get("serve") and (c.get("nvo_params") or {}).get("quota_pages")
    ]
    assert gc_cells, "no serve cell with a pool quota in the fixture"


def test_fixture_pins_protocol_variants():
    """Every protocol variant a hierarchy path branches on has a cell."""
    variants = [c.get("config", {}) for c in _CELLS]
    moesi = {c["scheme"] for c in _CELLS
             if c.get("config", {}).get("coherence_protocol") == "moesi"}
    assert moesi == {"nvoverlay", "picl"}
    assert any(v.get("coherence_transport") == "snoop" for v in variants)
    assert any(v.get("directory_entries_per_slice") for v in variants)
    assert any(v.get("working_memory") == "nvm" for v in variants)
    assert any(v.get("num_sockets", 1) > 1 for v in variants)
    # An L2 whose set count is not a multiple of the L1's maps one L2
    # set onto several L1 sets, so a walker scan gathers from each.
    l1_sets = SystemConfig().l1_geometry.num_sets
    assert any(
        _cell_config(c).l2_geometry.num_sets % l1_sets
        for c in _CELLS if "l2_geometry" in c.get("config", {})
    )
