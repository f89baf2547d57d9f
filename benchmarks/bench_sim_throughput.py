"""Simulator throughput: how fast the reproduction itself runs.

Unlike the other benchmarks (which regenerate paper figures measured in
simulated cycles), this one times the simulator in *wall-clock* terms:
memory operations simulated per second, per scenario.  It is the
benchmark-suite twin of ``python -m repro bench`` — same scenarios, same
measurement path — and exists so a plain ``pytest benchmarks`` run also
surfaces throughput regressions.

Quick mode (scaled-down scenarios) keeps this under a few seconds; set
``REPRO_BENCH_REPEATS`` to change the best-of repeat count.
"""

from repro.harness import bench, report

from _common import REPEATS, emit


def test_sim_throughput(benchmark):
    results = benchmark.pedantic(
        lambda: bench.run_bench(quick=True, repeats=REPEATS),
        rounds=1,
        iterations=1,
    )
    emit(
        "sim_throughput",
        report.format_table(
            "Simulator throughput (quick scenarios, best of "
            f"{REPEATS} repeats)",
            ["ops_per_sec", "seconds"],
            {
                name: {"ops_per_sec": r.ops_per_sec, "seconds": r.seconds}
                for name, r in results.items()
            },
            value_format="{:.2f}",
        ),
    )
    assert set(results) == set(bench.SCENARIOS)
    for name, result in results.items():
        # Every scenario must actually simulate work and report a rate.
        assert result.ops > 0, name
        assert result.ops_per_sec > 0, name
    # The simulated op counts are deterministic per scenario, so the two
    # schemes of a pairing see the exact same workload stream.
    assert results["ycsb_a_nvoverlay"].ops == results["ycsb_a_picl"].ops
