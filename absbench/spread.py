#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's spread.

Run from the repository root:

    python3 absbench/spread.py --workloads gset-g1 gset-g22 --seeds 1 2 3 4 5

For every workload and gated metric it prints the median and the
interquartile distance as a share of the median (Python's
statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. A steady benchmark keeps every spread below a third of
its bound. Runs go one at a time, so they do not disturb each other.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "absbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed with code {done.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in args.workloads:
        values = {name: [] for name in bounds}
        for s in args.seeds:
            out = run_once(w, s, args.seconds, 0)
            for name in bounds:
                values[name].append(out["metrics"][name]["value"])
            print(f"{w} seed {s}: attempted {out['attempted']} failed {out['failed']}",
                  file=sys.stderr)
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"{w:<11} {name:<18} median {med:<14.6g} spread {spread:7.4f} "
                  f"bound {bounds[name]:.3f} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
