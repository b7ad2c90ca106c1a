"""Time one Monte Carlo block of the engine, layer by layer.

Usage, from the root of a tcvm checkout:

    python3 scripts/time_blocks.py [--src DIR]

Imports tcvm from DIR (default: ``src`` of this checkout), so the same
script can time another checkout.  A block is the engine's 4096 rows, as in
one power-row call.  Reports the best of 10 runs, in milliseconds per
block, of:

* ``draw_<spec>_n<n>``: ``engine._draw_block`` for the null at n = 50 and
  n = 20 and for each of the seven power rows of the ``power_n50``
  benchmark workload at n = 50, into one ``engine._Workspace`` per spec
  built outside the timed loop, as ``engine._map_blocks`` reuses one per
  worker for every block of a run;
* ``kernels_<spec>``: ``batch_statistics`` with all five kinds on a block of
  each of the eight units of a ``power_n50`` cycle at n = 50, the null
  calibration and the seven power rows, timed in interleaved rounds;
* ``kernel_<kind>``: each kind alone on the LoConN(0.5,4) block, and
  ``kernel_tcvm+cvm``: the pair (one call of the folded kernel returns
  both, whichever of the two is asked for);
* ``moment_products``: ``engine._fourth_products``, the moment check's
  per-row work, on a null block at n = 20 at the two points of the
  ``moments_n20`` benchmark workload.

``us_per_slice`` times the stages of ``batch_statistics`` on one kernel
slice of the LoConN(0.5,4) block (``_CHUNK_ELEMS // 50`` rows at n = 50),
best of 50 interleaved rounds, in microseconds: ``sort_scale``
(``statistic._sorted_rows``), ``moments`` (``_standardize_sorted``),
``fold_weights`` (the folded odd weights, built once per slice when TCVM,
CVM or AD is asked), ``tcvm_cvm`` (``_weighted_cvm``, which returns both)
and ``ad``, both given those weights, ``sw`` and ``bcmr``
(``baselines._batch_*``).

``us_per_call`` times ``statistic.compute_tstar``, the stepwise statistic
behind ``tcvm_test``, and ``statistic.tcvm_test`` itself (table lookup,
statistic and decision) on one seeded normal sample at each of n = 50,
1,000 and 2,000, best of 15 interleaved rounds, in microseconds:
``compute_tstar_n<n>`` and ``tcvm_test_n<n>``.

``us_per_row`` times the traced benchmark replay's way of drawing, one
``engine.replication_rng(seed, r)`` and one ``alternatives.draw`` per row,
on 2048 null rows at n = 20 and n = 50 (best of 5): ``replay_rng_n<n>``,
``replay_draw_n<n>`` and their sum ``replay_n<n>``.  ``reset_n20`` times
the per-row stream reset alone as ``engine._draw_block`` pays it on a
4096-row block: the resets that ``engine._stream_resets`` built once for
the null workspace at n = 20, re-keyed per transform chunk, and one reset
per row, best of 5.

``ns_per_value`` holds ``kernels_all_n10000``: ``batch_statistics`` with
all five kinds on a 256-row null block at n = 10^4 (best of 5).

Prints one JSON object with the timings, the block shape and the versions;
``kernels_max_over_min`` is the slowest of the eight ``kernels_<spec>``
over the fastest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROWS, REPEAT, SEED = 4096, 10, 11
STAGE_REPEAT, REPLAY_ROWS, REPLAY_REPEAT = 50, 2048, 5
TSTAR_SIZES, TSTAR_REPEAT = (50, 1000, 2000), 15
LARGE_N, LARGE_ROWS, LARGE_REPEAT = 10_000, 256, 5
MOMENT_POINTS = ((0.0, 0.0), (0.3, 1.1))
POWER_ROWS = (
    "LoConN(0.5,4)",
    "SB(0,0.707)",
    "Logistic(0,1)",
    "ScConN(0.2,3)",
    "Beta(2,1)",
    "HalfN(0,1)",
    "LoConN(0.1,5)",
)


def best_ms(fn, repeat: int = REPEAT) -> float:
    return interleaved_best_ms({None: fn}, repeat)[None]


def interleaved_best_ms(fns, repeat: int = REPEAT):
    """Best time of each function, timed in turn once per round.

    The rounds take every function through the same stretches of machine
    speed, so a slow few seconds of the host cannot single one out.
    """
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(repeat):
        for key, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            best[key] = min(best[key], time.perf_counter() - t0)
    return {key: 1e3 * t for key, t in best.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    import scipy
    from tcvm import alternatives, baselines, engine, statistic
    from tcvm.alternatives import parse_spec
    from tcvm.baselines import BaselineKind, batch_statistics

    def draw_ms(text: str, n: int) -> float:
        ws = engine._Workspace(parse_spec(text), n, SEED, ROWS)
        return best_ms(lambda: engine._draw_block(ws, 0, ROWS))

    def own_block(spec, n: int, rows: int = ROWS):
        # a workspace of its own, which no later draw overwrites
        return engine._draw_block(engine._Workspace(spec, n, SEED, rows), 0, rows)

    timings = {"draw_null_n50": draw_ms("Normal(0,1)", 50)}
    for text in POWER_ROWS:
        timings[f"draw_{text}_n50"] = draw_ms(text, 50)
    timings["draw_null_n20"] = draw_ms("Normal(0,1)", 20)

    null = own_block(engine.NULL_SPEC, 50)
    null_n20 = own_block(engine.NULL_SPEC, 20)
    timings["moment_products"] = best_ms(
        lambda: engine._fourth_products(MOMENT_POINTS, null_n20)
    )

    kinds = list(BaselineKind)
    batch_statistics(null, kinds)  # fills the per-n caches (a_n, endpoint terms, weights)
    units = {"null": null}
    for text in POWER_ROWS:
        units[text] = own_block(parse_spec(text), 50)
    unit_ms = interleaved_best_ms(
        {name: (lambda unit=unit: batch_statistics(unit, kinds)) for name, unit in units.items()}
    )
    for name, ms in unit_ms.items():
        timings[f"kernels_{name}"] = ms
    block = units["LoConN(0.5,4)"]
    for kind in kinds:
        timings[f"kernel_{kind.value}"] = best_ms(lambda: batch_statistics(block, [kind]))
    pair = [BaselineKind.TCVM, BaselineKind.CVM]
    timings["kernel_tcvm+cvm"] = best_ms(lambda: batch_statistics(block, pair))

    rows = baselines._CHUNK_ELEMS // block.shape[1]
    part = block[:rows]
    x_sorted = statistic._sorted_rows(part)
    y, ssq = statistic._standardize_sorted(x_sorted)
    odd = np.where(y < 0.0, *statistic._rank_weights(y.shape[1]))
    stage_ms = interleaved_best_ms(
        {
            "sort_scale": lambda: statistic._sorted_rows(part),
            "moments": lambda: statistic._standardize_sorted(x_sorted),
            "fold_weights": lambda: np.where(y < 0.0, *statistic._rank_weights(y.shape[1])),
            "tcvm_cvm": lambda: statistic._weighted_cvm(y, odd),
            "ad": lambda: baselines._batch_ad(y, odd),
            "sw": lambda: baselines._batch_sw_like(x_sorted, ssq),
            "bcmr": lambda: baselines._batch_bcmr(x_sorted, ssq),
        },
        STAGE_REPEAT,
    )

    replay = {}
    for n in (20, 50):
        rngs = []

        def make_rngs():
            rngs[:] = [engine.replication_rng(SEED, r) for r in range(REPLAY_ROWS)]

        def draw_rows():
            for rng in rngs:
                alternatives.draw(engine.NULL_SPEC, n, rng)

        make_rngs()
        draw_rows()  # fills the spec's sampler cache, where there is one
        rng_ms = best_ms(make_rngs, REPLAY_REPEAT)
        row_ms = float("inf")
        for _ in range(REPLAY_REPEAT):
            make_rngs()  # each round draws from fresh streams
            row_ms = min(row_ms, best_ms(draw_rows, 1))
        replay[f"replay_rng_n{n}"] = 1e3 * rng_ms / REPLAY_ROWS
        replay[f"replay_draw_n{n}"] = 1e3 * row_ms / REPLAY_ROWS
        replay[f"replay_n{n}"] = replay[f"replay_rng_n{n}"] + replay[f"replay_draw_n{n}"]

    ws = engine._Workspace(engine.NULL_SPEC, 20, SEED, ROWS)
    chunk = len(ws.rows)

    def reset_rows():
        for first in range(0, ROWS, chunk):
            m = min(chunk, ROWS - first)
            reset = ws.resets(first, m)
            for _ in range(m):
                reset()

    replay["reset_n20"] = 1e3 * best_ms(reset_rows, REPLAY_REPEAT) / ROWS

    tstar_samples = {n: np.random.default_rng(SEED + n).standard_normal(n) for n in TSTAR_SIZES}
    calls = {}
    for n, x in tstar_samples.items():
        calls[f"compute_tstar_n{n}"] = lambda x=x: statistic.compute_tstar(x)
        calls[f"tcvm_test_n{n}"] = lambda x=x: statistic.tcvm_test(x)
    call_ms = interleaved_best_ms(calls, TSTAR_REPEAT)

    large = own_block(engine.NULL_SPEC, LARGE_N, LARGE_ROWS)
    large_ms = best_ms(lambda: batch_statistics(large, kinds), LARGE_REPEAT)
    record = {
        "rows": ROWS,
        "repeat": REPEAT,
        "ms_per_block": {k: round(v, 2) for k, v in timings.items()},
        "slice_rows": rows,
        "us_per_slice": {k: round(1e3 * v, 1) for k, v in stage_ms.items()},
        "us_per_row": {k: round(v, 2) for k, v in replay.items()},
        "us_per_call": {k: round(1e3 * v, 1) for k, v in call_ms.items()},
        "kernels_max_over_min": round(max(unit_ms.values()) / min(unit_ms.values()), 3),
        "ns_per_value": {"kernels_all_n10000": round(1e6 * large_ms / large.size, 1)},
        "machine": platform.machine(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
