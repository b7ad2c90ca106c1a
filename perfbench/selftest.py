"""Self-tests of the benchmark.  Run from the root of a tcvm checkout:

    python3 perfbench/selftest.py

1. Every workload, in smoke mode, untraced and traced, prints a last line
   with exactly the keys of the result contract and exactly the metric
   names and units that BENCHMARK.json lists, and passes its gate.
2. The correctness gate of every workload passes on the true reference and
   trips on a deliberately perturbed one.
3. In a directory that holds only BENCHMARK.json and the benchmark's own
   files, the benchmark exits non-zero without printing a result.

Exits 0 when every check holds.  Scratch files go to .bench_build/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(".bench_build", "selftest")


def _bench(argv, cwd=None):
    script = os.path.join(HERE, "run.py") if cwd is None else os.path.join("perfbench", "run.py")
    return subprocess.run(
        [sys.executable, script, *argv],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=cwd,
    )


def check_contract(failures):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            done = _bench(["--workload", w["name"], "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke"])
            label = f"{w['name']} trace={trace}"
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted[trace]))}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: gate failed: {done.stdout[-2000:]}")
            print(f"ok   smoke {label}: {len(got)} metrics, attempted={result['attempted']}")


def check_gates(failures):
    for wl in workloads.WORKLOADS.values():
        units, _batches, _setup = run.run_untraced(wl, 11, 0.0, True, run._UnitSpeed())
        done = [u for u in units if u.output is not None]
        reference = wl.reference(done)
        wl.check(done, reference)
        true_dev = max(u.dev for u in done)
        wl.check(done, wl.perturb(reference))
        bad_dev = max(u.dev for u in done)
        if true_dev > 1.0 or bad_dev <= 1.0 or len(done) != len(units):
            failures.append(f"{wl.name}: gate dev {true_dev:.3g} on the reference, {bad_dev:.3g} perturbed")
        else:
            print(f"ok   gate {wl.name}: dev {true_dev:.3g} on the reference, {bad_dev:.3g} perturbed")


def check_bare_directory(failures):
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    with open("BENCHMARK.json") as fh:
        paths = json.load(fh)["paths"]
    for path in paths:
        shutil.copytree(path, os.path.join(bare, path), ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(["--workload", "power_n50", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        failures.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[-500:]!r}")
    else:
        print(f"ok   bare directory: exit {done.returncode} and no result")


def main() -> int:
    failures = []
    check_gates(failures)
    check_bare_directory(failures)
    check_contract(failures)
    for line in failures:
        print("FAIL " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
