"""Record the power_n50 reference: the outputs of every pool cycle.

Run from the root of a tcvm checkout:

    python3 perfbench/record_reference.py

It overwrites perfbench/reference/power_n50.json.  Record it again only when
a change is meant to alter power results; under the seed contract they stay
bit-identical.
"""

import json
import os
import sys

import run  # sets the BLAS thread count before numpy loads
from harness import git_commit

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402


def main() -> int:
    wl = workloads.PowerN50()
    cycles = []
    for k in range(wl.pool):
        units = wl.cycle(k, workloads.POWER_ROWS)
        for unit in units:
            unit.output = wl.call(unit)
        cycles.append(
            {"calibration": units[0].output, "rows": {u.label: u.output for u in units[1:]}}
        )
        print(f"cycle {k + 1}/{wl.pool} recorded", file=sys.stderr)
    record = {
        "n": wl.n,
        "alpha": wl.alpha,
        "reps": wl.reps,
        "seed_base": wl.seed_base,
        "pool": wl.pool,
        "rows": list(workloads.POWER_ROWS),
        "git_commit": git_commit(),
        "cycles": cycles,
    }
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with open(workloads.POWER_REFERENCE, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
