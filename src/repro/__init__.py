"""NVOverlay reproduction: high-frequency snapshotting to NVM (ISCA 2021).

A pure-Python, trace-driven reproduction of Wang et al.'s NVOverlay on a
deterministic multicore simulator.  The package layers as:

* ``repro.sim`` — the substrate: caches, directory MESI, DRAM/NVM
  timing, the machine runner;
* ``repro.core`` — NVOverlay itself: Coherent Snapshot Tracking (epochs,
  tag walkers) and Multi-snapshot NVM Mapping (OMC, mapping tables,
  page pool, GC, snapshot retrieval);
* ``repro.baselines`` — the five comparison schemes of the evaluation;
* ``repro.workloads`` — real index structures over simulated memory and
  STAMP-like generators;
* ``repro.harness`` — one experiment per paper table/figure.

Quickstart::

    from repro import Machine, NVOverlay, SnapshotReader, make_workload

    scheme = NVOverlay()
    machine = Machine(scheme=scheme)
    machine.run(make_workload("btree", num_threads=16, scale=0.2))
    image = SnapshotReader(scheme.cluster).recover()
"""

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

__version__ = "1.0.0"


def _lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` re-exporting ``exports`` lazily.

    The one pattern every package ``__init__`` uses (PEP 562): it lists
    its public names by the relative submodule that defines them, and
    the ``"."`` entry lists submodules exported as themselves::

        __all__, __getattr__, __dir__ = _lazy_exports(__name__, {
            ".config": ("SystemConfig",),
            ".": ("report",),
        })

    A name's submodule is imported the first time the name is read and
    the value is then bound on the package, so ``import repro.cli``
    loads only the modules the CLI reads, never the simulator behind
    them.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if module == ".":
            value = importlib.import_module(f".{name}", package)
        else:
            value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return list(where), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".baselines": (
        "HWShadowPaging",
        "ICLogging",
        "JASSAdaptive",
        "MsyncSnapshot",
        "NoSnapshot",
        "PiCL",
        "PiCLL2",
        "SWShadowPaging",
        "SWUndoLogging",
    ),
    ".core": (
        "NVOverlay",
        "NVOverlayParams",
        "OMCCluster",
        "RecoveredImage",
        "SnapshotReader",
        "golden_image",
    ),
    ".harness": ("RunSpec", "compare", "run_one"),
    ".sim": ("Machine", "RunResult", "SystemConfig"),
    ".workloads": ("PAPER_WORKLOADS", "make_workload", "workload_names"),
})
__all__.append("__version__")
