"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "btree"
        assert args.scheme == "nvoverlay"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "bogus"])

    def test_experiment_names(self):
        args = build_parser().parse_args(["experiment", "fig13"])
        assert args.name == "fig13"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_workloads_lists_names(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "btree" in out and "kmeans" in out

    def test_run_prints_stats(self, capsys):
        assert main([
            "run", "--workload", "uniform", "--scheme", "picl", "--scale", "0.02",
        ]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out and "nvm bytes" in out

    def test_run_nvoverlay_extras(self, capsys):
        assert main([
            "run", "--workload", "uniform", "--scale", "0.02",
        ]) == 0
        assert "rec_epoch" in capsys.readouterr().out

    def test_compare_prints_table(self, capsys):
        assert main(["compare", "--workload", "uniform", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "nvoverlay" in out and "norm_cycles" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "nvoverlay" in capsys.readouterr().out

    def test_experiment_fig13(self, capsys):
        assert main(["experiment", "fig13", "--scale", "0.02"]) == 0
        assert "pct_of_ws" in capsys.readouterr().out

    def test_experiment_fig14(self, capsys):
        assert main(["experiment", "fig14", "--scale", "0.02"]) == 0
        assert "epoch=" in capsys.readouterr().out

    def test_experiment_fig15(self, capsys):
        assert main(["experiment", "fig15", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "with_walker" in out and "tag_walk" in out

    def test_experiment_fig16(self, capsys):
        assert main(["experiment", "fig16", "--scale", "0.05"]) == 0
        assert "buffer" in capsys.readouterr().out

    def test_experiment_fig17_bursty(self, capsys):
        assert main(["experiment", "fig17", "--scale", "0.02", "--bursty"]) == 0
        assert "Fig. 17b" in capsys.readouterr().out

    def test_trace_capture(self, tmp_path, capsys):
        out_file = tmp_path / "u.trace"
        assert main([
            "trace", "--workload", "uniform", "--scale", "0.02",
            "--threads", "2", "--out", str(out_file),
        ]) == 0
        assert out_file.exists()
        assert "wrote" in capsys.readouterr().out


def test_import_leaves_the_bench_package_unloaded():
    """``import repro.cli`` must not pay for the bench harness."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, repro.cli; "
            "print('repro.harness.bench' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


#: Modules a cache-hit CLI call must never load: the simulator, the
#: schemes, the workloads, the figure drivers and the process pool.
SIMULATOR_MODULES = (
    "repro.sim.hierarchy",
    "repro.sim.system",
    "repro.core.omc",
    "repro.core.tag_walker",
    "repro.baselines.",
    "repro.workloads.",
    "repro.harness.experiments",
    "concurrent.futures",
)

#: ``repro workloads`` output: every registered workload, sorted.
WORKLOAD_NAMES = (
    "art bayes btree bursty genome hash_table intruder kmeans labyrinth "
    "load_burst load_diurnal load_steady rbtree ssca2 stream uniform vacation "
    "yada ycsb_a ycsb_b ycsb_c ycsb_d ycsb_e ycsb_f zipf"
).split()

#: The packages whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = (
    "repro", "repro.sim", "repro.core", "repro.baselines", "repro.harness",
    "repro.workloads", "repro.faults", "repro.serve", "repro.oracle",
    "repro.load", "repro.harness.bench",
)


def _python(args, **env):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=src, **env),
                          check=True, capture_output=True, text=True)


def _simulator_modules(names):
    return sorted(name for name in names if name.startswith(SIMULATOR_MODULES))


def test_import_loads_no_simulator_module():
    code = "import sys, repro.cli; print('\\n'.join(sys.modules))"
    assert _simulator_modules(_python(["-c", code]).stdout.split()) == []


def test_warm_compare_loads_no_simulator_module(tmp_path):
    """A cache-hit ``python -m repro compare`` imports only what it reads
    and prints exactly what the cold run printed."""
    argv = ["-X", "importtime", "-m", "repro", "compare", "--workload",
            "uniform", "--scale", "0.02", "--schemes", "picl,nvoverlay",
            "--jobs", "2"]
    cold = _python(argv, REPRO_CACHE_DIR=str(tmp_path))
    warm = _python(argv, REPRO_CACHE_DIR=str(tmp_path))
    loaded = [line.rsplit("|", 1)[1].strip()
              for line in warm.stderr.splitlines()
              if line.startswith("import time:")]
    assert "repro.cli" in loaded
    assert _simulator_modules(loaded) == []
    assert "repro.sim.system" in cold.stderr  # the cold run did simulate
    assert warm.stdout == cold.stdout


def test_every_lazy_export_resolves():
    code = "\n".join([
        "import importlib",
        f"for name in {LAZY_PACKAGES!r}:",
        "    package = importlib.import_module(name)",
        "    for attr in package.__all__:",
        "        getattr(package, attr)",
        "    assert set(package.__all__) <= set(dir(package)), name",
        "from repro import *",
        "import repro.core",
        "from repro.core.nvoverlay import NVOverlayParams as old_path",
        "assert old_path is NVOverlayParams is repro.core.NVOverlayParams",
        "print(len(repro.__all__))",
    ])
    # 24 re-exports plus ``__version__``.
    assert _python(["-c", code]).stdout.strip() == "25"


def test_workloads_command_lists_every_workload():
    assert _python(["-m", "repro", "workloads"]).stdout.split() == WORKLOAD_NAMES
