"""Time one Monte Carlo block of the engine, layer by layer.

Usage, from the root of a tcvm checkout:

    python3 scripts/time_blocks.py [--src DIR]

Imports tcvm from DIR (default: ``src`` of this checkout), so the same
script can time another checkout.  A block is the engine's 4096 rows at
n = 50, as in one power-row call.  Reports the best of 5 runs, in
milliseconds per block, of:

* ``draw``: ``engine._draw_block`` for LoConN(0.5,4) rows;
* ``kernels_all``: ``batch_statistics`` with all five kinds on that block;
* ``kernel_<kind>``: ``batch_statistics`` with that kind alone.

Prints one JSON object with the timings, the block shape and the versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N, ROWS, REPEAT, SEED = 50, 4096, 5, 11


def best_ms(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    import numpy
    import scipy
    from tcvm import engine
    from tcvm.alternatives import parse_spec
    from tcvm.baselines import BaselineKind, batch_statistics

    spec = parse_spec("LoConN(0.5,4)")
    block = engine._draw_block(spec, N, SEED, 0, ROWS)
    kinds = list(BaselineKind)
    batch_statistics(block, kinds)  # fills the per-n caches (a_n, C_n, weights)

    timings = {
        "draw": best_ms(lambda: engine._draw_block(spec, N, SEED, 0, ROWS), REPEAT),
        "kernels_all": best_ms(lambda: batch_statistics(block, kinds), REPEAT),
    }
    for kind in kinds:
        timings[f"kernel_{kind.value}"] = best_ms(
            lambda: batch_statistics(block, [kind]), REPEAT
        )
    record = {
        "n": N,
        "rows": ROWS,
        "repeat": REPEAT,
        "ms_per_block": {k: round(v, 2) for k, v in timings.items()},
        "machine": platform.machine(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
