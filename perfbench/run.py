"""The repository benchmark: host cost of the reproduction, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1   # per-layer table

Workloads (``cells.py``): ``paper_grid`` is ``python -m repro compare``
on btree, run cold against an empty private result cache and then warm;
``scaleout_64c`` and ``timetravel_serve`` are one ``RunSpec`` each, run
through ``harness.runner.simulate`` in a fresh interpreter and then read
back from the cache by a second fresh interpreter.  One iteration is
that cold pass plus that warm pass; iterations repeat until ``--seconds``
is used up, and each reported value is the median over iterations.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
one untraced iteration gives the reference wall time, then traced
iterations (``tracer.py``) give the per-layer table of ``layers.py``.
Every pass is checked: record fingerprints (``expected.json`` for the
seeds recorded there, otherwise the run's first iteration), cache hits
(0 on a cold pass, all on a warm one), the warm output byte-identical to
the cold one, and the rendered ``norm_cycles``/``norm_bytes`` against
the records read back through ``RunCache``.  A failed check or a crashed
pass counts as a failed operation.

Human-readable tables go to stdout first; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cells  # noqa: E402
import layers  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_s", "s"),
    ("sim_accesses_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
MIN_ITERATIONS = 2
#: Warm passes (and set-up probes) per iteration.
EXTRA_PASSES = 3
CHILD_TIMEOUT_S = 150


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        expected = json.loads((HERE / "expected.json").read_text())
        self.expected: Optional[str] = expected.get(workload, {}).get(str(seed))
        #: Fingerprint every pass of this run must reproduce.
        self.reference: Optional[str] = self.expected
        self.iteration = 0

    # -- processes ---------------------------------------------------------
    def env(self) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_BENCH_")}
        env.pop("REPRO_CACHE_DIR", None)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.work)
        return env

    def spawn(self, argv: List[str], cache_dir: Path, stopped: bool = False):
        """Run a child to completion.

        Returns (ok, stdout, wall seconds, peak RSS MB, spawn time).  The
        peak RSS comes from ``wait4`` and so covers the pool workers the
        child waited for.  A child still running after ``CHILD_TIMEOUT_S``
        is killed with its whole process group.  ``stopped`` children end
        by killing their own group, which then counts as success.
        """
        env = self.env()
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable] + [a.replace("{T_SPAWN}", repr(t_spawn)) for a in argv],
                cwd=self.root, env=env, stdout=out, stderr=err,
                start_new_session=True,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                                    (proc.pid, signal.SIGKILL))
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t_spawn
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            _reap_group(proc.pid)
        if stopped and proc.returncode == -signal.SIGKILL:
            proc.returncode = 0
        stdout = out_path.read_text()
        rss = usage.ru_maxrss / 1024.0
        if proc.returncode != 0:
            tail = err_path.read_text()[-2000:]
            self.problem(f"{argv[:3]} exited {proc.returncode}: {tail}")
            return False, stdout, wall, rss, t_spawn
        return True, stdout, wall, rss, t_spawn

    def problem(self, message: str) -> None:
        print(f"[{self.workload}] FAIL: {message}", file=sys.stderr)

    def verify(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problem(message)
        return ok

    def count(self, result):
        """Book one operation (one pass) as attempted, and failed if falsy."""
        self.attempted += 1
        self.failed += 0 if result else 1
        return result

    def check_fingerprint(self, fp: Optional[str], what: str) -> bool:
        if fp is None:
            return self.verify(False, f"{what}: no record")
        if self.reference is None:
            self.reference = fp
        want = self.reference
        source = "expected.json" if self.expected else "first iteration"
        return self.verify(fp == want, f"{what}: fingerprint {fp} != {want} ({source})")

    def fresh_dir(self, name: str) -> Path:
        path = self.work / f"it{self.iteration}" / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    # -- paper_grid ----------------------------------------------------------
    def grid_readback(self, cache_dir: Path, stdout: str) -> Optional[str]:
        """Check the rendered table against the cached records; fingerprint."""
        from repro.harness.cache import RunCache

        rows = _parse_table(stdout)
        cache = RunCache(cache_dir)
        records = {s: cache.get(cells.grid_spec(s, self.seed))
                   for s in ["ideal"] + sorted(rows)}
        missing = [s for s, r in records.items() if r is None]
        if missing or len(records) != len(layers.GRID_SCHEMES):
            self.problem(f"grid readback: {len(records)} cells, missing {missing}")
            return None
        base = max(records["ideal"].cycles, 1)
        nvo = max(records["nvoverlay"].total_nvm_bytes, 1)
        for scheme, row in rows.items():
            rec = records[scheme]
            want = {"norm_cycles": rec.cycles / base,
                    "norm_bytes": rec.total_nvm_bytes / nvo}
            for column, value in want.items():
                # The table prints two decimals; a missing column fails too.
                if not abs(row.get(column, float("nan")) - value) <= 0.0051:
                    self.problem(f"grid {scheme}.{column}: rendered "
                                 f"{row.get(column)} vs record {value:.4f}")
                    return None
        return cells.fingerprint(cells.record_digest(r) for r in records.values())

    # -- passes ------------------------------------------------------------
    # Each pass returns None when it crashed or failed a check.
    def grid_cold(self, cache_dir: Path) -> Optional[dict]:
        probe = cache_dir.parent / "probe.txt"
        ok, out, wall, rss, t_spawn = self.spawn(
            [str(HERE / "child.py"), "launch", str(probe), "0"]
            + cells.grid_argv(self.seed), cache_dir)
        totals = _cache_totals(cache_dir)
        if not (ok and self.verify(totals == (0, len(layers.GRID_SCHEMES)),
                                   f"cold grid pass: cache hits/misses {totals}")):
            return None
        if not self.check_fingerprint(self.grid_readback(cache_dir, out),
                                      "cold grid pass"):
            return None
        entries = _probe_entries(probe)
        return {"setup_s": min(e for e, _, _ in entries) - t_spawn,
                "wall_s": wall, "rss": rss, "output": out,
                "sim_accesses_per_s": sum(a for _, _, a in entries)
                / sum(r for _, r, _ in entries)}

    def grid_warm(self, cache_dir: Path, cold: dict, k: int) -> Optional[dict]:
        ok, out, wall, rss, _ = self.spawn(
            ["-m", "repro"] + cells.grid_argv(self.seed), cache_dir)
        cells_n = len(layers.GRID_SCHEMES)
        totals = _cache_totals(cache_dir)
        if not (ok and self.verify(
                out == cold["output"] and totals == (cells_n * (k + 1), cells_n),
                f"warm grid pass: hits/misses {totals}, output identical "
                f"{out == cold['output']}")):
            return None
        return {"warm_s": wall, "rss": rss}

    def grid_setup(self) -> Optional[float]:
        """Fresh ``repro compare`` until its first simulated access, then stop."""
        cache_dir = self.fresh_dir("setup")
        probe = cache_dir.parent / "probe.txt"
        probe.unlink(missing_ok=True)
        ok, _, _, _, t_spawn = self.spawn(
            [str(HERE / "child.py"), "launch", str(probe), "1"]
            + cells.grid_argv(self.seed), cache_dir, stopped=True)
        entries = _probe_entries(probe) if ok else []
        if not self.verify(bool(entries), "grid set-up probe saw no access"):
            return None
        return min(e for e, _, _ in entries) - t_spawn

    def cell_cold(self, cache_dir: Path) -> Optional[dict]:
        ok, out, _, rss, _ = self.spawn(
            [str(HERE / "child.py"), "cold", self.workload, str(self.seed),
             str(cache_dir), "{T_SPAWN}"], cache_dir)
        cold = _last_json(out) if ok else None
        if not (self.verify(cold is not None and not cold["hit_before"],
                            "cold pass crashed or hit the cache")
                and self.check_fingerprint(cells.fingerprint([cold["digest"]]),
                                           "cold pass")):
            return None
        return {"setup_s": cold["setup_s"], "wall_s": cold["wall_s"],
                "sim_accesses_per_s": cold["accesses"] / cold["run_s"],
                "rss": rss, "output": cold["digest"]}

    def cell_warm(self, cache_dir: Path, cold: dict, k: int) -> Optional[dict]:
        ok, out, wall, rss, _ = self.spawn(
            [str(HERE / "child.py"), "warm", self.workload, str(self.seed),
             str(cache_dir)], cache_dir)
        warm = _last_json(out) if ok else None
        if not self.verify(warm is not None and warm["hit"]
                           and warm["digest"] == cold["output"],
                           "warm pass missed the cache or read a different record"):
            return None
        return {"warm_s": wall, "rss": rss}

    def cell_setup(self) -> Optional[float]:
        cache_dir = self.fresh_dir("setup")
        ok, out, _, _, _ = self.spawn(
            [str(HERE / "child.py"), "setup", self.workload, str(self.seed),
             str(cache_dir), "{T_SPAWN}"], cache_dir)
        probe = _last_json(out) if ok else None
        if not self.verify(probe is not None, "set-up probe failed"):
            return None
        return probe["setup_s"]

    def iterate(self, sample: Dict[str, List[float]]) -> None:
        """Cold pass, then warm passes interleaved with set-up probes.

        Warm passes and set-up probes are short, so several per iteration
        spread their samples over the whole run.
        """
        grid = self.workload == "paper_grid"
        cache_dir = self.fresh_dir("cache")
        cold = self.count((self.grid_cold if grid else self.cell_cold)(cache_dir))
        if cold:
            for key in ("setup_s", "wall_s", "sim_accesses_per_s"):
                sample[key].append(cold[key])
            rss = cold["rss"]
            for k in range(EXTRA_PASSES):
                warm = self.count((self.grid_warm if grid else self.cell_warm)(
                    cache_dir, cold, k))
                if warm:
                    sample["warm_s"].append(warm["warm_s"])
                    rss = max(rss, warm["rss"])
                setup = self.count((self.grid_setup if grid else self.cell_setup)())
                if setup:
                    sample["setup_s"].append(setup)
            sample["peak_rss_mb"].append(rss)
        self.iteration += 1

    # -- traced passes -----------------------------------------------------
    def traced_pass(self, name: str, cache_dir: Path) -> Optional[dict]:
        """One traced pass: its summary plus per-span-name calls/self time."""
        from tracer import load_chunks, self_times

        span_file = cache_dir.parent / f"spans-{name}"
        ok, out, wall, _, _ = self.spawn(
            [str(HERE / "child.py"), "traced", name, self.workload,
             str(self.seed), str(cache_dir), str(span_file),
             str(self.iteration), "{T_SPAWN}"], cache_dir)
        summary = _last_json(out) if ok else None
        if not self.verify(summary is not None, f"traced {name} pass crashed"):
            return None
        table, counters, spans = self_times(load_chunks(str(span_file)))
        for path in span_file.parent.glob(span_file.name + ".*"):
            path.unlink()
        summary.update(table=table, counters=counters, spans=spans, wall=wall)
        return summary

    def traced_iteration(self) -> Optional[dict]:
        """One traced cold + warm pass, checked like the untraced ones."""
        grid = self.workload == "paper_grid"
        cells_n = len(layers.GRID_SCHEMES) if grid else 1
        cache_dir = self.fresh_dir("cache")
        cold = self.traced_pass("cold", cache_dir)
        if cold is not None:
            if grid:
                cold["wall_s"] = cold["process_s"]
                fp = self.grid_readback(cache_dir, cold["stdout"])
            else:
                fp = cells.fingerprint([cold["digest"]]) if cold["digest"] else None
            totals = _cache_totals(cache_dir)
            if not (self.verify(totals == (0, cells_n),
                                f"traced cold pass: cache hits/misses {totals}")
                    and self.check_fingerprint(fp, "traced cold pass")):
                cold = None
        if not self.count(cold):
            return None
        warm = self.traced_pass("warm", cache_dir)
        if warm is not None:
            same = (warm["stdout"] == cold["stdout"] if grid
                    else warm["digest"] == cold["digest"])
            totals = _cache_totals(cache_dir)
            if not self.verify(same and totals == (cells_n, cells_n),
                               f"traced warm pass: hits/misses {totals}, "
                               f"same output {same}"):
                warm = None
        if not self.count(warm):
            return None
        records = _grid_records(cache_dir, self.seed) if grid else [cold["digest"]]
        self.iteration += 1
        return {"cold": cold, "warm": warm, "records": records,
                "cache": _cache_info(cache_dir)}

    # -- running --------------------------------------------------------------
    def run(self, seconds: float, trace: bool) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            if trace:
                return self._run_traced(seconds)
            return self._run_timed(seconds)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                self.work.parent.rmdir()
            except OSError:
                pass

    def _loop(self, seconds: float, step, min_iterations: int) -> None:
        start = time.monotonic()
        durations: List[float] = []
        while True:
            t0 = time.monotonic()
            step()
            durations.append(time.monotonic() - t0)
            elapsed = time.monotonic() - start
            if (len(durations) >= min_iterations
                    and elapsed + statistics.median(durations) > seconds):
                return

    def _run_timed(self, seconds: float) -> dict:
        sample: Dict[str, List[float]] = {name: [] for name, _ in END_TO_END}
        self._loop(seconds, lambda: self.iterate(sample), MIN_ITERATIONS)
        print_table(f"{self.workload} (seed {self.seed}): end-to-end",
                    [(name, unit, sample[name]) for name, unit in END_TO_END])
        return {name: {"value": _median(sample[name]), "unit": unit}
                for name, unit in END_TO_END}

    def _run_traced(self, seconds: float) -> dict:
        sample: Dict[str, List[float]] = {name: [] for name, _ in END_TO_END}
        start = time.monotonic()
        self.iterate(sample)
        untraced_wall = _median(sample["wall_s"])
        iterations: List[dict] = []

        def step():
            result = self.traced_iteration()
            if result is not None:
                iterations.append(result)

        self._loop(max(0.0, seconds - (time.monotonic() - start)), step, 1)
        values = per_layer_values(iterations, untraced_wall)
        calls = [per_layer_values([it], untraced_wall) for it in iterations]
        if any(_calls_of(c) != _calls_of(calls[0]) for c in calls[1:]):
            print(f"[{self.workload}] note: call counts differ between traced "
                  "iterations", file=sys.stderr)
        print_layer_table(f"{self.workload} (seed {self.seed}): per layer, "
                          f"{len(iterations)} traced iteration(s)", values)
        units = dict(layers.per_layer_metrics())
        return {name: {"value": values.get(name, 0.0), "unit": unit}
                for name, unit in units.items()}


# -- per-layer table ------------------------------------------------------------
def per_layer_values(iterations: List[dict],
                     untraced_wall: float) -> Dict[str, float]:
    """Median over traced iterations of every per-layer metric."""
    per_it = [_one_iteration(it, untraced_wall) for it in iterations]
    names = [name for name, _ in layers.per_layer_metrics()]
    return {name: _median([v.get(name, 0.0) for v in per_it]) for name in names}


def _one_iteration(it: dict, untraced_wall: float) -> Dict[str, float]:
    cold, warm = it["cold"], it["warm"]
    wall = cold["wall"] + warm["wall"]
    by_layer: Dict[str, List[float]] = {layer: [0, 0.0] for layer in layers.LAYERS}
    warm_by_layer: Dict[str, float] = {layer: 0.0 for layer in layers.LAYERS}
    for pass_name, summary in (("cold", cold), ("warm", warm)):
        for key, (calls, self_s) in summary["table"].items():
            layer = key.split(":", 1)[0]
            by_layer[layer][0] += calls
            by_layer[layer][1] += self_s
            if pass_name == "warm":
                warm_by_layer[layer] += self_s
    counters: Dict[str, float] = {}
    for summary in (cold, warm):
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    v: Dict[str, float] = {}
    for layer, (calls, self_s) in by_layer.items():
        v[f"{layer}.calls"] = calls
        v[f"{layer}.self_s"] = self_s
        v[f"{layer}.share"] = self_s / wall
    records = it["records"]
    accesses = counters.get("accesses", 0.0)
    v["cli.modules_loaded"] = warm["modules_loaded"]
    v["harness.cache.hits"] = it["cache"]["total_hits"]
    v["harness.cache.misses"] = it["cache"]["total_misses"]
    v["harness.cache.hit_ratio"] = _ratio(v["harness.cache.hits"],
                                          v["harness.cache.hits"] + v["harness.cache.misses"])
    busy = counters.get("busy_s", 0.0)
    v["harness.parallel.busy_s"] = busy
    v["harness.parallel.wait_s"] = sum(
        s for k, (_, s) in cold["table"].items()
        if k == "harness.parallel:ParallelRunner.run")
    v["harness.parallel.utilization"] = _ratio(busy, counters.get("parallel_capacity_s", 0.0))
    v["harness.runner.record_bytes"] = it["cache"]["bytes"]
    v["workloads.txns"] = sum(r["transactions"] for r in records)
    v["workloads.accesses"] = accesses
    v["sim.hierarchy.calls_per_access"] = _ratio(v["sim.hierarchy.calls"], accesses)
    v["sim.cache.l1_hit_ratio"] = _ratio(counters.get("l1_hits", 0.0), accesses)
    v["sim.cache.l2_hit_ratio"] = _ratio(counters.get("l2_hits", 0.0),
                                         counters.get("l2_accesses", 0.0))
    llc = counters.get("llc_hits", 0.0)
    v["sim.cache.llc_hit_ratio"] = _ratio(llc, llc + counters.get("llc_misses", 0.0))
    v["core.page_pool.utilization"] = _ratio(counters.get("pool_util_sum", 0.0),
                                             counters.get("pool_util_n", 0.0))
    v["core.gc.versions_compacted"] = counters.get("versions_compacted", 0.0)
    v["sim.nvm.bytes_written"] = sum(r["nvm_bytes"].get("total", 0) for r in records)
    reads = sum(r["serve"].get("serve_reads", 0) for r in records)
    v["serve.reads"] = reads
    v["serve.read_hit_ratio"] = _ratio(
        sum(r["serve"].get("serve_read_hits", 0) for r in records), reads)
    v["serve.stale_misses"] = sum(r["serve"].get("serve_stale_misses", 0) for r in records)
    for scheme in layers.GRID_SCHEMES:
        v[f"baselines.{scheme}.cell_s"] = counters.get(f"cell_s.{scheme}", 0.0)
    v["trace.wall_s"] = cold["wall_s"]
    v["trace.untraced_wall_s"] = untraced_wall
    v["trace.overhead_s"] = cold["wall_s"] - untraced_wall
    v["trace.iteration_s"] = wall
    v["trace.spans"] = cold["spans"] + warm["spans"]
    harness = sum(s for layer, s in warm_by_layer.items()
                  if layer == "cli" or layer.startswith("harness."))
    v["warm.cli_harness_share"] = harness / warm["wall"]
    return v


def _calls_of(values: Dict[str, float]) -> Dict[str, float]:
    return {k: v for k, v in values.items() if k.endswith(".calls")}


# -- helpers ----------------------------------------------------------------------
def _become_subreaper() -> None:
    """Adopt orphaned grandchildren (pool workers), so they can be reaped."""
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: orphans are reaped by init instead


def _reap_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        time.sleep(0.005)


def _probe_entries(path: Path) -> List[tuple]:
    """``Machine.run`` probe lines: (entry time, run seconds, accesses)."""
    if not path.exists():
        return []
    return [tuple(map(float, line.split()))
            for line in path.read_text().splitlines() if line.strip()]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _last_json(text: str) -> Optional[dict]:
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def _parse_table(text: str) -> Dict[str, Dict[str, float]]:
    """``repro compare``'s rendered rows: scheme -> column -> value."""
    rows: Dict[str, Dict[str, float]] = {}
    columns: List[str] = []
    for line in text.splitlines():
        tokens = line.split()
        if "norm_cycles" in tokens:
            columns = tokens[1:]
        elif columns and len(tokens) == len(columns) + 1:
            try:
                rows[tokens[0]] = dict(zip(columns, map(float, tokens[1:])))
            except ValueError:
                continue
    return rows


def _cache_info(cache_dir: Path) -> dict:
    from repro.harness.cache import RunCache

    return RunCache(cache_dir).info()


def _cache_totals(cache_dir: Path):
    info = _cache_info(cache_dir)
    return info["total_hits"], info["total_misses"]


def _grid_records(cache_dir: Path, seed: int) -> List[dict]:
    from repro.harness.cache import RunCache

    cache = RunCache(cache_dir)
    out = []
    for scheme in layers.GRID_SCHEMES:
        record = cache.get(cells.grid_spec(scheme, seed))
        if record is not None:
            out.append(cells.record_digest(record))
    return out


def _quartiles(values: List[float]):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_table(title: str, rows) -> None:
    print(title)
    print(f"  {'metric':<22} {'unit':<6} {'median':>12} {'IQR':>10} {'n':>3}")
    for name, unit, values in rows:
        q1, q3 = _quartiles(values)
        print(f"  {name:<22} {unit:<6} {_median(values):>12.4f} "
              f"{q3 - q1:>10.4f} {len(values):>3}")


def print_layer_table(title: str, values: Dict[str, float]) -> None:
    print(title)
    print(f"  {'layer':<18} {'calls':>10} {'self_s':>9} {'share':>7}  extras")
    for layer, info in layers.LAYERS.items():
        extras = "  ".join(f"{e}={values.get(f'{layer}.{e}', 0.0):.4g}"
                           for e in info["extras"])
        print(f"  {layer:<18} {values[f'{layer}.calls']:>10.0f} "
              f"{values[f'{layer}.self_s']:>9.3f} "
              f"{values[f'{layer}.share']:>7.3f}  {extras}")
    cells_s = "  ".join(f"{s}={values[f'baselines.{s}.cell_s']:.2f}"
                        for s in layers.GRID_SCHEMES
                        if values[f"baselines.{s}.cell_s"])
    print(f"  cell seconds: {cells_s}")
    for name, unit in layers.TRACE_METRICS:
        print(f"  {name:<24} {values[name]:.4f} {unit}")


def _preflight(root: Path) -> Optional[str]:
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return f"no program source at {root / 'src' / 'repro'}; run from the repository root"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=cells.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    error = _preflight(root)
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    _become_subreaper()
    workloads = cells.WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for workload in workloads:
        bench = Bench(root, workload, args.seed)
        result = bench.run(args.seconds, bool(args.trace))
        attempted += bench.attempted
        failed += bench.failed
        source = "expected.json" if bench.expected else "not recorded for this seed"
        print(f"  fingerprint: {bench.reference} ({source})")
        print(f"  failed/attempted: {bench.failed}/{bench.attempted}\n")
        prefix = "" if len(workloads) == 1 else f"{workload}."
        metrics.update({prefix + k: v for k, v in result.items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
