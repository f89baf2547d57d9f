"""Bisect stage: attribute a flagged regression to an entry/commit range.

Given a trajectory whose newest entry regresses against its oldest
comparable entry, walk the recorded history with the same judging path
the gate uses and find the narrowest adjacent pair (last good entry,
first bad entry) where the slowdown appears.  Every comparison is
calibration-normalized entry-to-entry, so a host change mid-history
does not masquerade as a code regression.

An entry with fewer than :data:`.check.MIN_SAMPLES` samples for the
scenario is never judged: it is listed in ``BisectReport.skipped``.
The committed trajectory's oldest full-mode entries hold three samples
each, so a walk over them reports ``insufficient``.

The walk is a binary search and therefore assumes one dominant
regression in the range (the classic ``git bisect`` contract); with
several, it attributes the earliest boundary the detectors can still
see from the known-good side.  The result is a machine-readable
:class:`BisectReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from . import check as check_mod
from .store import entry_samples


@dataclass
class BisectStep:
    """One probe of the binary search: entry ``index`` vs the good end."""

    index: int
    label: str
    commit: Optional[str]
    regressed: bool
    check: check_mod.ScenarioCheck

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "label": self.label,
            "commit": self.commit,
            "regressed": self.regressed,
            "check": self.check.to_dict(),
        }


def _entry_ref(index: int, entry: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "index": index,
        "label": entry.get("label"),
        "timestamp": entry.get("timestamp"),
        "commit": entry.get("commit"),
    }


@dataclass
class BisectReport:
    """Machine-readable verdict of one bisection."""

    scenario: str
    env: str
    #: "regression" (attributed), "clean" (endpoints agree), or
    #: "insufficient" (fewer than two comparable entries).
    status: str
    last_good: Optional[Dict[str, Any]] = None
    first_bad: Optional[Dict[str, Any]] = None
    #: median(first_bad)/median(last_good), calibration-normalized.
    median_ratio: Optional[float] = None
    steps: List[BisectStep] = field(default_factory=list)
    #: Trajectory indices that were comparable (env + scenario + samples).
    considered: List[int] = field(default_factory=list)
    #: Entries of this env and mode with fewer than MIN_SAMPLES samples.
    skipped: List[int] = field(default_factory=list)
    detail: str = ""

    @property
    def regressed(self) -> bool:
        return self.status == "regression"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "env": self.env,
            "status": self.status,
            "regressed": self.regressed,
            "last_good": self.last_good,
            "first_bad": self.first_bad,
            "median_ratio": (round(self.median_ratio, 4)
                             if self.median_ratio is not None else None),
            "steps": [s.to_dict() for s in self.steps],
            "considered": self.considered,
            "skipped": self.skipped,
            "detail": self.detail,
        }


def bisect_trajectory(
    data: Dict[str, Any],
    scenario: str,
    env: str,
    quick: bool = False,
) -> BisectReport:
    """Attribute a regression in ``scenario`` to the narrowest entry range.

    ``data`` is a loaded trajectory document.  Only entries matching
    ``env`` and ``quick`` (quick and full runs are never comparable)
    that carry at least :data:`.check.MIN_SAMPLES` samples for the
    scenario participate; each probe goes through the same judging path
    ``--check`` uses.
    """
    report = BisectReport(scenario=scenario, env=env, status="insufficient")

    candidates: List[tuple] = []
    for index, entry in enumerate(data.get("entries", [])):
        if entry.get("env") != env or bool(entry.get("quick")) != quick:
            continue
        if scenario not in entry.get("results", {}):
            continue
        if len(entry_samples(entry, scenario)) < check_mod.MIN_SAMPLES:
            report.skipped.append(index)
            continue
        candidates.append((index, entry))

    report.considered = [index for index, _ in candidates]
    if len(candidates) < 2:
        report.detail = (f"need >= 2 comparable entries for env {env!r} "
                         f"and scenario {scenario!r} with >= "
                         f"{check_mod.MIN_SAMPLES} samples; "
                         f"found {len(candidates)}")
        return report

    good_index, good_entry = candidates[0]

    def probe(position: int) -> BisectStep:
        index, entry = candidates[position]
        outcome = check_mod.check_entry_pair(good_entry, entry, scenario)
        assert outcome is not None  # both sides have samples
        return BisectStep(index=index, label=entry.get("label", ""),
                          commit=entry.get("commit"),
                          regressed=outcome.regressed, check=outcome)

    last = probe(len(candidates) - 1)
    report.steps.append(last)
    if not last.regressed:
        report.status = "clean"
        report.last_good = _entry_ref(*candidates[-1])
        report.median_ratio = last.check.median_ratio
        report.detail = ("newest entry does not regress against the "
                         "oldest comparable entry; nothing to bisect")
        return report

    lo, hi = 0, len(candidates) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        step = probe(mid)
        report.steps.append(step)
        if step.regressed:
            hi = mid
        else:
            lo = mid

    first_bad = next(s for s in report.steps if s.index == candidates[hi][0])
    report.status = "regression"
    report.last_good = _entry_ref(*candidates[lo])
    report.first_bad = _entry_ref(*candidates[hi])
    report.median_ratio = first_bad.check.median_ratio
    good_ref = report.last_good.get("commit") or report.last_good.get("label")
    bad_ref = report.first_bad.get("commit") or report.first_bad.get("label")
    report.detail = (
        f"regression enters between entry {report.last_good['index']} "
        f"({good_ref}) and entry {report.first_bad['index']} ({bad_ref}); "
        f"median ratio {first_bad.check.median_ratio:.3f} vs entry "
        f"{good_index}")
    return report
