"""Store stage: versioned per-scenario profiles in the trajectory file.

``BENCH_sim_throughput.json`` at the repo root is the PR-over-PR perf
history.  Schema v2 makes it a *profile* store: every scenario result
carries the full per-repeat sample distribution
(``samples_ops_per_sec``) plus the host-calibration measurement, so the
detectors in :mod:`.check` can judge distributions instead of scalars
and :mod:`.bisect` can attribute a regression to an entry range.

Schema 2 is the only schema this code reads: :func:`load_trajectory`
refuses any other, naming the schema it found.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .collect import BenchResult

#: Name of the trajectory file at the repo root.
TRAJECTORY_FILENAME = "BENCH_sim_throughput.json"
TRAJECTORY_SCHEMA = 2


def env_id() -> str:
    """Environment key baselines are matched on (never cross machines)."""
    override = os.environ.get("REPRO_BENCH_ENV")
    if override:
        return override
    return "{}-{}-py{}.{}".format(
        platform.system(), platform.machine(),
        sys.version_info.major, sys.version_info.minor,
    )


def default_trajectory_path() -> Path:
    """``BENCH_sim_throughput.json`` at the repo root (cwd fallback)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent / TRAJECTORY_FILENAME
    return Path.cwd() / TRAJECTORY_FILENAME


def current_commit() -> Optional[str]:
    """Short git commit id of the working tree, or None outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=default_trajectory_path().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def load_trajectory(path: Path) -> Dict[str, Any]:
    """Load the schema-2 trajectory (or profile) document at ``path``."""
    if not path.exists():
        return {"schema": TRAJECTORY_SCHEMA, "entries": []}
    data = json.loads(path.read_text())
    schema = data.get("schema")
    if schema != TRAJECTORY_SCHEMA:
        raise ValueError(
            f"{path}: trajectory schema {schema!r} is not supported; "
            f"this code reads schema {TRAJECTORY_SCHEMA} only"
        )
    return data


def make_entry(
    results: Dict[str, BenchResult],
    label: str,
    quick: bool,
    timestamp: Optional[str] = None,
    calibration: Optional[float] = None,
    commit: Optional[str] = None,
) -> Dict[str, Any]:
    """One schema-v2 trajectory entry (not yet appended anywhere)."""
    entry = {
        "label": label,
        "timestamp": timestamp or time.strftime("%Y-%m-%dT%H:%M:%S"),
        "env": env_id(),
        "quick": quick,
        "host_calibration": (
            round(calibration, 6) if calibration is not None else None
        ),
        "results": {name: result.to_dict() for name, result in results.items()},
    }
    if commit:
        entry["commit"] = commit
    return entry


def append_entry(
    path: Path,
    results: Dict[str, BenchResult],
    label: str,
    quick: bool,
    timestamp: Optional[str] = None,
    calibration: Optional[float] = None,
    commit: Optional[str] = None,
) -> Dict[str, Any]:
    """Append one measurement entry to the trajectory and rewrite it."""
    data = load_trajectory(path)
    entry = make_entry(results, label, quick, timestamp=timestamp,
                       calibration=calibration, commit=commit)
    data["entries"].append(entry)
    path.write_text(json.dumps(data, indent=2, sort_keys=False) + "\n")
    return entry


def write_profile(
    path: Path,
    results: Dict[str, BenchResult],
    label: str,
    quick: bool,
    timestamp: Optional[str] = None,
    calibration: Optional[float] = None,
    commit: Optional[str] = None,
) -> Dict[str, Any]:
    """Write one run's full profile (all samples) to a standalone file.

    The document has the same shape as the trajectory file (schema v2,
    one entry), so everything that reads trajectories — the detectors,
    ``bisect``, ad-hoc analysis — reads profiles too.  This is the
    ``--profile-out`` path: an A/B investigation run with
    ``--no-update`` still keeps its raw per-repeat data.
    """
    entry = make_entry(results, label, quick, timestamp=timestamp,
                       calibration=calibration, commit=commit)
    doc = {"schema": TRAJECTORY_SCHEMA, "entries": [entry]}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    return entry


def baseline_entry(
    data: Dict[str, Any],
    env: Optional[str] = None,
    quick: Optional[bool] = None,
    scenario: Optional[str] = None,
) -> Optional[Dict[str, Any]]:
    """The most recent entry matching this environment (and quick flag).

    With ``scenario``, the most recent such entry that measured it: an
    entry recording only some scenarios (a paired A/B) leaves the others
    judged against the older entries that hold them.
    """
    env = env or env_id()
    for entry in reversed(data.get("entries", [])):
        if entry.get("env") != env:
            continue
        if quick is not None and bool(entry.get("quick")) != quick:
            continue
        if scenario is not None and not entry_samples(entry, scenario):
            continue
        return entry
    return None


def entry_samples(entry: Dict[str, Any], scenario: str) -> List[float]:
    """The stored sample distribution for ``scenario`` in ``entry``.

    Empty when the entry never measured that scenario.
    """
    result = entry.get("results", {}).get(scenario)
    if not result:
        return []
    return list(result.get("samples_ops_per_sec", []))
