"""The benchmark's own checks of its layer map.

From the repository root::

    python3 -m pytest perfbench/test_layers.py -q

* every module under ``src/repro`` maps to exactly one layer;
* every layer gets at least one traced call on some workload (this runs
  one short traced iteration of each workload, a few minutes in all);
* ``BENCHMARK.json`` lists exactly the metrics ``run.py`` reports.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cells  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def program_modules():
    src = ROOT / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        yield ".".join(parts)


def test_every_module_maps_to_exactly_one_layer():
    bad = {m: layers.matching_layers(m) for m in program_modules()
           if len(layers.matching_layers(m)) != 1}
    assert not bad, f"modules without exactly one layer: {bad}"


def test_every_layer_pattern_matches_a_module():
    modules = list(program_modules())
    from fnmatch import fnmatchcase

    unused = [(layer, pat) for layer, info in layers.LAYERS.items()
              for pat in info["modules"]
              if not any(fnmatchcase(m, pat) for m in modules)]
    assert not unused


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == cells.WORKLOADS
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        layers.per_layer_metrics()


@pytest.fixture(scope="module")
def traced_calls():
    calls = {}
    for workload in cells.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], proc.stderr[-3000:]
        calls[workload] = {layer: result["metrics"][f"{layer}.calls"]["value"]
                           for layer in layers.LAYERS}
    return calls


def test_every_layer_is_traced_on_some_workload(traced_calls):
    silent = [layer for layer in layers.LAYERS
              if not any(calls[layer] for calls in traced_calls.values())]
    assert not silent, f"layers with no traced call on any workload: {silent}"
