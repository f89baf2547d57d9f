"""Run the benchmark over several seeds and report each metric's spread.

From the repository root::

    python3 perfbench/spread.py --workloads paper_grid --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out set_a.json

For every workload and metric it prints the median over seeds, the
quartile distance (``statistics.quantiles(values, n=4)``) as a share of
the median, and the bound from ``BENCHMARK.json``; a spread above a third
of its bound is flagged.  ``--trace 1`` collects the per-layer metrics
instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        values, attempted, failed = {}, 0, 0
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if k in bounds), flush=True)
        stats = {name: summarize(vals) for name, vals in values.items()}
        report[workload] = {"attempted": attempted, "failed": failed,
                            "metrics": stats}
        print(f"{workload}: failed/attempted {failed}/{attempted}")
        for name, st in stats.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and st["spread"] > bound / 3:
                flag = "  <-- above bound/3"
            print(f"  {name:<28} median {st['median']:<14.6g} IQR/median "
                  f"{st['spread']:.4f}  bound {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
