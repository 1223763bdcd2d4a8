#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code, compared.

  python3 perfbench/steady.py --runs 5

Runs `perfbench/run.py --trace 0` once per seed on every workload in
BENCHMARK.json, with its run_seconds, one process at a time: set A on seeds
1..N, set B on seeds N+1..2N. For each workload and end-to-end metric
it prints both sets' medians and quartiles, the spread (interquartile range
over median) of each set and of all 2N runs, and the change of B's median
against A's. A metric agrees when that change is within its bound in
BENCHMARK.json, in the worse direction, and (setup_s aside) every spread is
below the bound too. The share of failed operations must be equal in both sets.
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


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"steady: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def main() -> int:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = {"A": range(1, args.runs + 1), "B": range(args.runs + 1, 2 * args.runs + 1)}
    all_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = {s: [run_once(workload, seed, bench["run_seconds"]) for seed in seeds[s]] for s in seeds}
        elapsed = [r["elapsed_s"] for rs in results.values() for r in rs]
        correct = all(r["correct"] for rs in results.values() for r in rs)
        shares = {s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for s, rs in results.items()}
        print(f"{workload}: correct={correct} failed share A={shares['A']:.4f} B={shares['B']:.4f}  "
              f"process time median {statistics.median(elapsed):.1f} s, max {max(elapsed):.1f} s")
        ok = correct and shares["A"] == shares["B"]
        for name, bound in bounds.items():
            a = [r["metrics"][name]["value"] for r in results["A"]]
            b = [r["metrics"][name]["value"] for r in results["B"]]
            ma, qa1, qa3, sa = spread(a)
            mb, qb1, qb3, sb = spread(b)
            _, _, _, pooled = spread(a + b)
            change = (mb - ma) / ma
            worse = change if next(m for m in bench["end_to_end"] if m["name"] == name)["better"] == "lower" else -change
            agrees = worse <= bound and (name == "setup_s" or max(sa, sb) <= bound)
            ok = ok and agrees
            print(f"  {name:12s} A {ma:9.4f} [{qa1:.4f}, {qa3:.4f}] spread {sa:6.2%}  "
                  f"B {mb:9.4f} [{qb1:.4f}, {qb3:.4f}] spread {sb:6.2%}  all {pooled:6.2%}  "
                  f"B vs A {change:+6.2%}  bound {bound:.0%}  {'agree' if agrees else 'DISAGREE'}")
        all_ok = all_ok and ok
    print("steady: all workloads agree" if all_ok else "steady: some metrics disagree")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
