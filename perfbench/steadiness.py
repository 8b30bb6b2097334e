"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/steadiness.py --runs 10 --seconds 15 [--workload NAME ...]
        [--first-seed 1]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints a
Markdown table per workload: median, first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them), min, max and the
quartile distance as a share of the median of each end-to-end metric, and
the same for each checked output value (first command of each run) with
the range ``run.py`` accepts.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "iqr_share": (q3 - q1) / med if med else float("nan")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sys.path.insert(0, str(HERE))
    from run import ACCEPTED

    for workload in workloads:
        values, walls, failed = {}, [], 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            walls.append(time.perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            outputs = {}
            for line in proc.stdout.splitlines():
                if line.startswith("output "):
                    _, name, value = line.split()
                    outputs.setdefault(name, float(value))
            for name, value in outputs.items():
                values.setdefault(name, []).append(value)
        print(f"\n### {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, --seconds {args.seconds}, "
              f"failed commands {failed}, run wall median {statistics.median(walls):.1f} s "
              f"(max {max(walls):.1f} s)\n")
        print("| metric | median | q1 | q3 | min | max | (q3-q1)/median | bound |")
        print("|---|---|---|---|---|---|---|---|")
        for name, vals in values.items():
            s = spread(vals)
            bound = (bounds[name] if name in bounds
                     else "accepted [{:.6g}, {:.6g}]".format(*ACCEPTED[workload][name]))
            print(f"| {name} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} | "
                  f"{s['min']:.6g} | {s['max']:.6g} | {s['iqr_share']:.4f} | {bound} |")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
