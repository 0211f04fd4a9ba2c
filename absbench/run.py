#!/usr/bin/env python3
"""Builds the benchmark and abs-server from source, then runs one workload.

Run from the repository root:

    python3 absbench/run.py --workload gset-g22 --seed 1 --seconds 45 --trace 0

Build output goes to standard error; the benchmark's report, ending in
one JSON line, goes to standard output. Artefacts (build, spans) stay in
$CARGO_TARGET_DIR, or .bench_build when it is unset.
"""

import json
import os
import subprocess
import sys


def missing_metrics(last_line: str, traced: bool) -> list:
    """Names of BENCHMARK.json metrics the result line lacks."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = [m["name"] for m in bench["per_layer" if traced else "end_to_end"]]
    try:
        got = json.loads(last_line).get("metrics", {})
    except (json.JSONDecodeError, AttributeError):
        return wanted
    return [name for name in wanted if name not in got]


def main() -> int:
    root = os.getcwd()
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    builds = [
        # abs-server from the repository workspace, exactly as shipped.
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "abs-server"],
        # The benchmark, a package of its own.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("absbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "absbench"),
        *sys.argv[1:],
        "--server-bin", os.path.join(release, "abs-server"),
        "--out-dir", os.path.join(target, "absbench-out"),
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        return done.returncode
    # A gated metric that could not be computed fails the run loudly;
    # it must never read as a pass.
    lines = done.stdout.strip().splitlines()
    traced = any(a == "--trace" and b == "1" for a, b in zip(sys.argv, sys.argv[1:]))
    missing = missing_metrics(lines[-1] if lines else "", traced)
    if missing:
        print(f"run.py: result lacks gated metrics: {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
