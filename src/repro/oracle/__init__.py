"""Opt-in protocol oracle: online invariant checking, structured event
tracing, and cross-scheme differential execution.

Arm a run with ``Machine(..., oracle=ProtocolOracle())`` or
``RunSpec(..., oracle=True)``; unarmed runs pay nothing (hooks bound at
build time, same pattern as the fault injector).  See ``docs/api.md``
("Invariant oracle & differential testing").
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".trace": ("EVENT_KINDS", "TraceBuffer", "TraceEvent", "format_window"),
    ".invariants": ("InvariantViolation", "ProtocolOracle"),
    ".differential": ("DifferentialMismatch", "compare_outcomes", "run_differential"),
})
