"""The module -> layer map and what each layer's numbers should move.

Every module under ``src/repro`` matches exactly one layer's patterns
(``fnmatch`` on the dotted module name); ``test_layers.py`` checks that,
and that every layer gets traced calls on some workload, so a new module
cannot go unmeasured.  ``should_move`` names the end-to-end metric and the
workload on which a change to that layer is expected to show.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Dict, List

LAYERS: Dict[str, dict] = {
    "cli": {
        "modules": ["repro", "repro.__main__", "repro.cli"],
        "extras": ["modules_loaded"],
        "should_move": [["warm_s", "paper_grid"], ["setup_s", "paper_grid"]],
    },
    "harness.spec": {
        "modules": ["repro.harness.spec"],
        "extras": [],
        "should_move": [["warm_s", "paper_grid"]],
    },
    "harness.cache": {
        "modules": ["repro.harness.cache"],
        "extras": ["hits", "misses", "hit_ratio"],
        "should_move": [["warm_s", "paper_grid"]],
    },
    "harness.parallel": {
        "modules": ["repro.harness.parallel"],
        "extras": ["busy_s", "wait_s", "utilization"],
        "should_move": [["wall_s", "paper_grid"]],
    },
    # The runner plus the entry points built on it: figure/sweep/report code,
    # load scenarios, and the crash/oracle verification runs it dispatches.
    "harness.runner": {
        "modules": ["repro.harness", "repro.harness.runner",
                    "repro.harness.report", "repro.harness.experiments",
                    "repro.harness.sweep", "repro.harness.bench",
                    "repro.harness.bench.*", "repro.load", "repro.load.*",
                    "repro.faults", "repro.faults.*",
                    "repro.oracle", "repro.oracle.*"],
        "extras": ["record_bytes"],
        "should_move": [["wall_s", "paper_grid"]],
    },
    "workloads": {
        "modules": ["repro.workloads", "repro.workloads.*", "repro.sim.trace"],
        "extras": ["txns", "accesses"],
        "should_move": [["setup_s", "paper_grid"], ["wall_s", "paper_grid"],
                        ["setup_s", "timetravel_serve"],
                        ["wall_s", "timetravel_serve"]],
    },
    "sim.system": {
        "modules": ["repro.sim", "repro.sim.system", "repro.sim.config",
                    "repro.sim.parallel", "repro.sim.validate"],
        "extras": [],
        "should_move": [["sim_accesses_per_s", "scaleout_64c"]],
    },
    "sim.hierarchy": {
        "modules": ["repro.sim.hierarchy", "repro.core.epoch"],
        "extras": ["calls_per_access"],
        "should_move": [["sim_accesses_per_s", "scaleout_64c"],
                        ["wall_s", "paper_grid"]],
    },
    "sim.interconnect": {
        "modules": ["repro.sim.interconnect"],
        "extras": [],
        "should_move": [["sim_accesses_per_s", "scaleout_64c"]],
    },
    "sim.cache": {
        "modules": ["repro.sim.cache"],
        "extras": ["l1_hit_ratio", "l2_hit_ratio", "llc_hit_ratio"],
        "should_move": [["sim_accesses_per_s", "scaleout_64c"]],
    },
    "core.tag_walker": {
        "modules": ["repro.core.tag_walker"],
        "extras": [],
        "should_move": [["sim_accesses_per_s", "scaleout_64c"]],
    },
    # The NVOverlay scheme front end (CST hooks, OMC buffer) routes every
    # version write-back into the OMC cluster.
    "core.omc": {
        "modules": ["repro.core", "repro.core.omc", "repro.core.omc_buffer",
                    "repro.core.nvoverlay"],
        "extras": [],
        "should_move": [["sim_accesses_per_s", "timetravel_serve"],
                        ["peak_rss_mb", "timetravel_serve"]],
    },
    "core.mapping": {
        "modules": ["repro.core.mapping", "repro.core.snapshot"],
        "extras": [],
        "should_move": [["sim_accesses_per_s", "timetravel_serve"],
                        ["peak_rss_mb", "timetravel_serve"]],
    },
    "core.page_pool": {
        "modules": ["repro.core.page_pool"],
        "extras": ["utilization"],
        "should_move": [["sim_accesses_per_s", "timetravel_serve"],
                        ["peak_rss_mb", "timetravel_serve"]],
    },
    "core.gc": {
        "modules": ["repro.core.gc"],
        "extras": ["versions_compacted"],
        "should_move": [["sim_accesses_per_s", "timetravel_serve"],
                        ["peak_rss_mb", "timetravel_serve"]],
    },
    "sim.nvm": {
        "modules": ["repro.sim.nvm", "repro.sim.wear"],
        "extras": ["bytes_written"],
        "should_move": [["sim_accesses_per_s", "scaleout_64c"]],
    },
    "sim.dram": {
        "modules": ["repro.sim.dram", "repro.sim.memory"],
        "extras": [],
        "should_move": [["sim_accesses_per_s", "scaleout_64c"]],
    },
    "sim.stats": {
        "modules": ["repro.sim.stats"],
        "extras": [],
        "should_move": [["wall_s", "paper_grid"], ["wall_s", "scaleout_64c"],
                        ["wall_s", "timetravel_serve"]],
    },
    # Scheme hooks; ``sim.scheme`` holds the base interface and ``ideal``.
    "baselines": {
        "modules": ["repro.baselines", "repro.baselines.*", "repro.sim.scheme"],
        "extras": [],
        "should_move": [["wall_s", "paper_grid"]],
    },
    "serve": {
        "modules": ["repro.serve", "repro.serve.*"],
        "extras": ["reads", "read_hit_ratio", "stale_misses"],
        "should_move": [["sim_accesses_per_s", "timetravel_serve"]],
    },
}

#: The ten cells of ``repro compare``: ``ideal`` plus the nine compared
#: schemes.  Each gets ``baselines.<scheme>.cell_s``.
GRID_SCHEMES = ["ideal", "sw_logging", "sw_shadow", "hw_shadow", "picl",
                "picl_l2", "icl", "jass_adaptive", "msync_snapshot",
                "nvoverlay"]

#: Whole-run numbers of the traced run that belong to no single layer.
TRACE_METRICS = [
    ("trace.wall_s", "s"),             # traced wall_s, same definition as wall_s
    ("trace.untraced_wall_s", "s"),    # wall_s of an untraced iteration
    ("trace.overhead_s", "s"),         # the difference of the two
    ("trace.iteration_s", "s"),        # cold + warm traced process time
    ("trace.spans", "count"),
    ("warm.cli_harness_share", "ratio"),  # cli + harness.* self time / warm pass
]

_UNITS = {"calls": "count", "self_s": "s", "share": "ratio",
          "modules_loaded": "count", "hits": "count", "misses": "count",
          "hit_ratio": "ratio", "busy_s": "s", "wait_s": "s",
          "utilization": "ratio", "record_bytes": "bytes", "txns": "count",
          "accesses": "count", "calls_per_access": "ratio",
          "l1_hit_ratio": "ratio", "l2_hit_ratio": "ratio",
          "llc_hit_ratio": "ratio", "versions_compacted": "count",
          "bytes_written": "bytes", "reads": "count",
          "read_hit_ratio": "ratio", "stale_misses": "count"}


def layer_of(module: str) -> str:
    """The single layer whose patterns match ``module``."""
    matches = matching_layers(module)
    if len(matches) != 1:
        raise KeyError(f"{module} maps to {matches or 'no layer'}")
    return matches[0]


def matching_layers(module: str) -> List[str]:
    return [layer for layer, info in LAYERS.items()
            if any(fnmatchcase(module, pat) for pat in info["modules"])]


def per_layer_metrics() -> List[tuple]:
    """(name, unit) of every per-layer metric, in table order."""
    out = []
    for layer, info in LAYERS.items():
        for key in ("calls", "self_s", "share"):
            out.append((f"{layer}.{key}", _UNITS[key]))
        for extra in info["extras"]:
            unit = _UNITS.get(extra, "ratio")
            out.append((f"{layer}.{extra}", unit))
    out += [(f"baselines.{s}.cell_s", "s") for s in GRID_SCHEMES]
    out += TRACE_METRICS
    return out
