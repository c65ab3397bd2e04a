"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload certify --runs 10 [--first-seed 1] [--seconds S]

Runs are sequential, one process each, with seeds 1..runs (offset by
``--first-seed``).  For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, and compares that spread with the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: incorrect outputs, %d failed" % (seed, result["failed"]), file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d (%.1f s): %s" % (seed, wall, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items()
        )), flush=True)

    print("%-40s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("%-40s %12.6g %12.6g %12.6g %8.4f %6s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
