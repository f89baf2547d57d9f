"""The benchmark's workloads, as the program's own public inputs.

``paper_grid`` is the CLI command ``repro compare``; the other two are one
``RunSpec`` each, run through ``harness.runner.simulate``.  The seed is
the only input that varies between runs.  Simulated caches start empty in
every cell (each one builds a fresh ``Machine``).  ``repro`` is imported
lazily so the benchmark's parent process can stay light.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List

WORKLOADS = ["paper_grid", "scaleout_64c", "timetravel_serve"]

#: ``repro compare`` on the 16-core paper geometry; ``--jobs`` stays at 2,
#: the dev host's core count, so the pool is exercised the way users run it.
GRID_WORKLOAD = "btree"
GRID_SCALE = 0.5
GRID_JOBS = 2


def grid_argv(seed: int) -> List[str]:
    return ["compare", "--workload", GRID_WORKLOAD, "--scale", str(GRID_SCALE),
            "--jobs", str(GRID_JOBS), "--seed", str(seed)]


def grid_spec(scheme: str, seed: int):
    """The ``RunSpec`` the CLI builds for one ``paper_grid`` cell."""
    from repro.harness.spec import RunSpec

    return RunSpec(workload=GRID_WORKLOAD, scheme=scheme, scale=GRID_SCALE,
                   seed=seed)


def cell_spec(workload: str, seed: int):
    """The one ``RunSpec`` of an in-process workload."""
    from repro.harness.spec import RunSpec

    if workload == "scaleout_64c":
        from repro.sim import SystemConfig

        return RunSpec(
            workload="uniform", scheme="nvoverlay", scale=0.5, seed=seed,
            config=SystemConfig.scaled(64, batch_epoch_sync=True),
        )
    if workload == "timetravel_serve":
        from repro.core import NVOverlayParams
        from repro.serve import ServePolicy

        # The ``timetravel`` load scenario's reader policy and overlay
        # sizing, spelled out so the cell does not move if the scenario does.
        return RunSpec(
            workload="load_burst", scheme="nvoverlay", scale=0.05, seed=seed,
            capture_latency=True,
            serve=ServePolicy(sessions=32, reads_per_session=32, gc_every=64,
                              seed=seed),
            nvo_params=NVOverlayParams(pool_pages=4096, quota_pages=512,
                                       os_grow_pages=512),
        )
    raise KeyError(workload)


def record_digest(record) -> Dict:
    """The outputs a record is checked on, read from its fields only."""
    return {
        "workload": record.workload,
        "scheme": record.scheme,
        "cycles": record.cycles,
        "stores": record.stores,
        "transactions": record.transactions,
        "nvm_bytes": dict(sorted(record.nvm_bytes.items())),
        "evict_reasons": dict(sorted(record.evict_reasons.items())),
        "serve": {k: v for k, v in sorted(record.extra.items())
                  if k.startswith("serve_")},
    }


def fingerprint(digests: Iterable[Dict]) -> str:
    ordered = sorted(digests, key=lambda d: d["scheme"])
    blob = json.dumps(ordered, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:20]
