"""Fault injection and crash-recovery verification (§V-B validated).

``repro.faults.plan`` is dependency-free and safe to import from the
core/sim layers; the verification side (``verify_crash``, ``crash_sweep``)
pulls in the harness.  Names load lazily from the submodule that defines
them, so importing this package — or ``repro.harness.spec``, which needs
:class:`CrashPlan` — never drags the whole runner in.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".plan": (
        "ANY_EVENT",
        "CRASH_EVENTS",
        "CrashPlan",
        "FaultInjector",
        "SimulatedCrash",
        "seeded_plans",
        "sweep_plans",
    ),
    ".verify": (
        "PROBE_COUNT",
        "CrashVerification",
        "CrashSweepPoint",
        "CrashSweepResult",
        "verify_crash",
        "crashed_run_record",
        "crash_sweep",
    ),
})
