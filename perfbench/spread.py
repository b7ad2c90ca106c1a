"""Run-to-run spread of the end-to-end metrics.  Run from the root of a
tcvm checkout:

    python3 perfbench/spread.py --runs 10 [--workload power_n50 ...] [--out FILE]

Runs each workload once per seed (1..runs), untraced and for BENCHMARK.json's
``run_seconds``, one run at a time.  For every end-to-end metric it prints
the median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  ``--out`` appends every run's record to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = ["--workload", name, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            if args.out:
                argv += ["--out", args.out]
            done = subprocess.run([sys.executable, script, *argv], capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{name} seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}", flush=True)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        for metric, vals in values.items():
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"  {metric:16s} median {med:12.6g}  spread {(q[2] - q[0]) / med:6.3f}  bound {bounds[metric]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
