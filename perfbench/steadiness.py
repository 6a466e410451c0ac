#!/usr/bin/env python3
"""Steadiness of netloc's benchmark: repeated, interleaved sets of runs.

    python3 perfbench/steadiness.py [--sets 10] [--workloads a,b] [--seconds S]
                                    [--seed-base 1] [--json out.json]

Each set runs every workload once, with the set's own seed (seed-base +
set index), rotating the workload order from set to set so slow drift in
the machine does not land on one workload. For every end-to-end metric
it prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median, the
bound from BENCHMARK.json and whether the spread stays below a third of
it. The failed share of every run is printed too: it must not vary.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    begin = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - begin
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), elapsed


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()
    chosen = args.workloads.split(",")

    runs = {w: [] for w in chosen}
    for s in range(args.sets):
        seed = args.seed_base + s
        order = chosen[s % len(chosen):] + chosen[:s % len(chosen)]
        for workload in order:
            result, elapsed = run_once(workload, seed, args.seconds)
            result["elapsed_s"] = elapsed
            result["seed"] = seed
            runs[workload].append(result)
            print(f"set {s + 1}/{args.sets} {workload} seed {seed}: "
                  f"{elapsed:.1f} s, failed {result['failed']}/"
                  f"{result['attempted']}", file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':16} {'metric':14} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6}  steady")
    for workload, results in runs.items():
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results
                      if metric in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = "yes" if spread < bound / 3 else "NO"
            if metric == "setup_s":
                steady = "(not gated)"
            print(f"{workload:16} {metric:14} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:8.4f} {bound:6.3f}  {steady}")
        shares = {r["failed"] / r["attempted"] for r in results}
        seconds = [r["elapsed_s"] for r in results]
        print(f"{workload:16} failed share {sorted(shares)}; run time "
              f"{min(seconds):.1f}-{max(seconds):.1f} s")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
