"""One benchmark pass in a fresh interpreter; ``run.py`` starts these.

Usage (from the repository root, ``PYTHONPATH=src``)::

    child.py cold   WORKLOAD SEED CACHE_DIR T_SPAWN   # in-process cell, cache miss
    child.py setup  WORKLOAD SEED CACHE_DIR T_SPAWN   # cold pass up to its first access
    child.py warm   WORKLOAD SEED CACHE_DIR           # same cell, from the cache
    child.py launch PROBE_FILE STOP ARG...            # python -m repro ARG...
    child.py traced PASS WORKLOAD SEED CACHE_DIR SPAN_FILE ITERATION T_SPAWN

``cold``/``setup``/``warm``/``traced`` print one JSON line as the last
line of stdout.  ``launch`` runs the CLI unchanged, with a probe on
``Machine.run`` that appends ``entry_time run_seconds accesses`` for each
simulated cell to PROBE_FILE (pool workers inherit it through fork); with
STOP=1 the first access ends the process group instead.  ``T_SPAWN`` is the
parent's ``time.monotonic()`` just before it started this process, so the
set-up time covers interpreter start too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import cells


def install_run_probe(on_entry=None, on_exit=None) -> None:
    """Time each ``Machine.run`` call: one wrapper per cell, no spans.

    ``on_entry(entry_time)`` runs before the first simulated access;
    ``on_exit(entry_time, run_seconds, accesses)`` after the run.
    """
    from repro.sim.system import Machine

    run = Machine.run

    def probed(self, *args, **kwargs):
        entry = time.monotonic()
        if on_entry is not None:
            on_entry(entry)
        start = time.perf_counter()
        result = run(self, *args, **kwargs)
        if on_exit is not None:
            on_exit(entry, time.perf_counter() - start,
                    self.stats.get("l1.accesses"))
        return result

    Machine.run = probed


def max_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold(workload: str, seed: int, cache_dir: str, t_spawn: float) -> dict:
    import repro.cli  # noqa: F401  (the user's import, part of set-up)
    from repro.harness.cache import RunCache
    from repro.harness.runner import simulate

    probes = []
    install_run_probe(on_exit=lambda *p: probes.append(p))
    spec = cells.cell_spec(workload, seed)
    cache = RunCache(cache_dir)
    hit_before = cache.get(spec) is not None
    start = time.perf_counter()
    record = simulate(spec)
    wall = time.perf_counter() - start
    cache.put(spec, record)
    cache.flush_counters()
    (entry, run_s, accesses), = probes
    return {
        "setup_s": entry - t_spawn, "wall_s": wall, "run_s": run_s,
        "accesses": accesses, "hit_before": hit_before,
        "digest": cells.record_digest(record),
    }


def setup(workload: str, seed: int, t_spawn: float) -> None:
    """The cold pass up to its first simulated access; then exit."""
    import repro.cli  # noqa: F401
    from repro.harness.runner import simulate

    def stop(entry):
        print(json.dumps({"setup_s": entry - t_spawn}), flush=True)
        os._exit(0)

    install_run_probe(on_entry=stop)
    simulate(cells.cell_spec(workload, seed))


def warm(workload: str, seed: int, cache_dir: str) -> dict:
    import repro.cli  # noqa: F401
    from repro.harness.cache import RunCache

    record = RunCache(cache_dir).get(cells.cell_spec(workload, seed))
    return {"hit": record is not None,
            "digest": cells.record_digest(record) if record else None}


def launch(probe_file: str, stop: bool, argv) -> None:
    """``python -m repro ARGV`` with the ``Machine.run`` probe installed.

    With ``stop`` the first simulated access (in whichever pool worker
    gets there first) ends the whole process group.
    """
    import runpy
    import signal

    def on_entry(entry):
        if stop:
            with open(probe_file, "a") as handle:
                handle.write(f"{entry!r} 0 0\n")
            os.killpg(0, signal.SIGKILL)

    def on_exit(entry, run_s, accesses):
        with open(probe_file, "a") as handle:
            handle.write(f"{entry!r} {run_s!r} {accesses}\n")

    install_run_probe(on_entry, on_exit)
    sys.argv = ["repro"] + list(argv)
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


# -- traced passes ------------------------------------------------------------
def _machine_run_hook(tracer, args, result) -> None:
    """Per-cell simulator counters, read through unwrapped functions."""
    from repro.core.page_pool import PagePool
    from repro.sim.stats import Stats

    machine = args[0]
    snap = tracer.original(Stats.snapshot)(machine.stats)

    def total(prefix: str, suffix: str) -> int:
        return sum(v for k, v in snap.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    tracer.add("accesses", snap.get("l1.accesses", 0))
    tracer.add("l1_hits", snap.get("l1.load_hits", 0) + snap.get("l1.store_hits", 0))
    tracer.add("l2_hits", snap.get("l2.hits", 0))
    tracer.add("l2_accesses", snap.get("l2.accesses", 0))
    tracer.add("llc_hits", total("llc.", ".hits"))
    tracer.add("llc_misses", total("llc.", ".misses"))
    tracer.add("versions_compacted", total("omc", ".compacted_versions"))
    cluster = getattr(machine.scheme, "cluster", None)
    if cluster is not None:
        utilization = tracer.original(PagePool.utilization)
        for omc in cluster.omcs:
            tracer.add("pool_util_sum", utilization(omc.pool))
            tracer.add("pool_util_n", 1)


def _parallel_run_hook(tracer, args, result) -> None:
    summary = args[0].last_summary
    for cell in summary.cells:
        if not cell.cached:
            tracer.add(f"cell_s.{cell.label.rsplit('/', 1)[-1]}", cell.seconds)
            tracer.add("busy_s", cell.seconds)
    tracer.add("parallel_elapsed_s", summary.elapsed_seconds)
    tracer.add("parallel_capacity_s", summary.elapsed_seconds * summary.jobs)


def traced(pass_name: str, workload: str, seed: int, cache_dir: str,
           span_file: str, iteration: int, t_spawn: float) -> dict:
    from layers import layer_of
    from tracer import Tracer

    tracer = Tracer(layer_of, span_file, iteration)
    tracer.hooks = {
        "repro.sim.system.Machine.run": _machine_run_hook,
        "repro.harness.parallel.ParallelRunner.run": _parallel_run_hook,
    }
    loaded_before = len(sys.modules)
    idx = tracer.open(tracer.name_id("cli", "import repro.cli"))
    import repro.cli
    tracer.close(idx)
    modules_loaded = len(sys.modules) - loaded_before
    tracer.install()

    out = {"modules_loaded": modules_loaded}
    if workload == "paper_grid":
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = repro.cli.main(cells.grid_argv(seed))
        out.update(status=status, stdout=buffer.getvalue())
    else:
        from repro.harness import cache as cache_mod
        from repro.harness import runner

        cache = cache_mod.RunCache(cache_dir)
        spec = cells.cell_spec(workload, seed)
        record = cache.get(spec)
        if pass_name == "cold":
            out["hit_before"] = record is not None
            start = time.perf_counter()
            record = runner.simulate(spec)
            out["wall_s"] = time.perf_counter() - start
            tracer.add(f"cell_s.{spec.scheme}", out["wall_s"])
            cache.put(spec, record)
        else:
            out["hit"] = record is not None
        cache.flush_counters()
        out["digest"] = cells.record_digest(record) if record else None
    out["end"] = time.monotonic()
    out["process_s"] = out["end"] - t_spawn
    tracer.dump()
    return out


def main(argv) -> None:
    mode, args = argv[0], argv[1:]
    if mode == "launch":
        launch(args[0], args[1] == "1", args[2:])
        return
    if mode == "setup":
        setup(args[0], int(args[1]), float(args[3]))
        return
    if mode == "cold":
        out = cold(args[0], int(args[1]), args[2], float(args[3]))
    elif mode == "warm":
        out = warm(args[0], int(args[1]), args[2])
    elif mode == "traced":
        out = traced(args[0], args[1], int(args[2]), args[3], args[4],
                     int(args[5]), float(args[6]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["max_rss_mb"] = max_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
