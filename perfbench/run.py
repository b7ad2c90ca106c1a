"""Run one tcvm benchmark workload and print its metrics.

Usage, from the root of a tcvm checkout:

    python3 perfbench/run.py --workload power_n50 --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run measures the workload untraced and reports the
end-to-end metrics.  With ``--trace 1`` it measures the same workload, then
replays every call through the layer functions with a span around each one,
checks that the replay reproduced the untraced outputs, and reports the
per-layer metrics.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out FILE`` appends the full result record,
with its provenance, to FILE as one JSON line.  ``--smoke`` runs a tiny
version of the workload, for self-tests only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time

# One BLAS thread per caller, so the busy threads never exceed the two
# workers of the largest workload.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import harness

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

END_TO_END = (
    ("reps_per_s", "1/s"),
    ("tests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
KIND_NAMES = ("tcvm", "cvm", "bcmr", "ad", "sw")
PER_LAYER = (
    ("engine.rng_us_per_rep", "us"),
    ("alternatives.draw_us_per_rep", "us"),
    ("normal.H_ns_per_elem", "ns"),
    ("normal.psi_ns_per_elem", "ns"),
    *((f"kernel.{k}_ns_per_elem", "ns") for k in KIND_NAMES),
    ("batch.sort_std_ms_per_block", "ms"),
    ("engine.block_bytes", "bytes"),
    ("engine.blocks", "count"),
    ("engine.parallel_eff", "ratio"),
    ("engine.reduce_ms", "ms"),
    ("statistic.compute_tstar_ms", "ms"),
    ("statistic.quadratures_per_call", "count"),
    ("table.decide_us", "us"),
    ("table.interpolated_frac", "ratio"),
    *((f"kernel.{k}_nonfinite", "count") for k in KIND_NAMES),
    ("kernel.ad_clamped", "count"),
    ("kernel.cvm_guard_rows", "count"),
    ("ref_dev", "tol"),
    ("failed_frac", "ratio"),
    ("latency_samples", "count"),
    ("trace.overhead_s", "s"),
    ("trace.accounted_frac", "ratio"),
)
# spans that hold no layer call of their own: their self time is glue
GLUE_SPANS = ("unit",)
# spans that time the engine's own calls, as opposed to probes and counters
ENGINE_SPANS = ("engine.rng", "alternatives.draw", "engine.reduce", "statistic.compute_tstar", "table.decide")

# fresh-process imports per run, spread evenly over the measured time: the
# host's speed holds for a few seconds at a time, so samples taken back to
# back all see the same stretch of it.  setup_s is their minimum: the import
# times of a run fall in a fast and a slow group, and their median moves
# with the share of slow stretches the run happened to meet.
SETUP_SAMPLES = 15
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import tcvm\n"
    "tcvm.embedded_table()\n"
    "print(repr(time.perf_counter() - t))\n"
)


class _UnitSpeed:
    """A probe stand-in that leaves wall times as measured."""

    def maybe(self) -> None:
        pass

    def measure(self) -> None:
        pass

    def scale(self, _midpoint: float) -> float:
        return 1.0


class BenchError(Exception):
    """The benchmark cannot run here."""


def setup_sample() -> float:
    """Seconds to import tcvm and parse its table in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise BenchError("importing tcvm failed:\n" + done.stderr)
    return float(done.stdout.strip().splitlines()[-1])


def run_untraced(wl, seed: int, seconds: float, smoke: bool, probe, setup_samples: int = 0):
    """Whole batches of calls until ``seconds`` have passed (one in smoke mode).

    Between calls it also takes ``setup_samples`` fresh-process setup
    samples, one every ``seconds / setup_samples`` of measured time; the
    time they take does not count as measured time.
    """
    units, batches, setup = [], [], []
    every = seconds / max(setup_samples, 1)
    paused = 0.0
    start = time.perf_counter()

    def take_setup():
        nonlocal paused
        t = time.perf_counter()
        setup.append(setup_sample())
        paused += time.perf_counter() - t

    for batch in wl.batches(seed, smoke):
        if batches and (smoke or time.perf_counter() - start - paused >= seconds):
            break
        for unit in batch:
            due = time.perf_counter() - start - paused >= len(setup) * every
            if len(setup) < setup_samples and due:
                take_setup()
            probe.maybe()
            t0 = time.perf_counter()
            try:
                unit.output = wl.call(unit)
            except Exception as exc:  # a failed call is counted, not fatal
                unit.error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            unit.wall, unit.mid = t1 - t0, 0.5 * (t0 + t1)
        units.extend(batch)
        batches.append(batch)
    while len(setup) < setup_samples:
        take_setup()
    probe.measure()
    return units, batches, setup


def replay_traced(wl, units, tracer):
    """Replay every call with spans; return the units whose outputs differ."""
    mismatched = []
    for unit in units:
        if unit.output is None:
            continue
        try:
            with tracer.span("unit"):
                out = wl.replay(unit, tracer)
        except Exception as exc:
            unit.error = f"traced replay: {type(exc).__name__}: {exc}"
            mismatched.append(unit)
            continue
        if not wl.same(unit.output, out):
            mismatched.append(unit)
    return mismatched


def end_to_end(wl, units, batches, setup, peak_rss_mb, probe):
    """End-to-end metrics; call times are scaled to nominal machine speed."""
    ok = [u for u in units if u.error is None]
    wall = {id(u): u.wall * probe.scale(u.mid) for u in ok}
    if getattr(wl, "rate_per_batch", False):
        groups = [[u for u in b if u.error is None] for b in batches]
    else:
        groups = [[u] for u in ok]
    groups = [g for g in groups if g]
    lat = [1e3 * wall[id(u)] for u in ok]

    def rate(key):
        rates = [sum(key(u) for u in g) / sum(wall[id(u)] for u in g) for g in groups]
        return harness.median(rates) if rates else 0.0

    return {
        "reps_per_s": rate(lambda u: u.reps),
        "tests_per_s": rate(lambda u: 1),
        "latency_p50_ms": harness.percentile(lat, 50) if lat else 0.0,
        "latency_p95_ms": harness.percentile(lat, 95) if lat else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": min(setup),
    }, {"latency_samples": len(lat), "rate_samples": len(groups)}


def per_layer(wl, units, tracer, traced_wall, untraced_wall, gate):
    tot = tracer.totals()
    selfs = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counters

    def per(span, count, scale):
        return tot.get(span, 0.0) / count * scale if count else 0.0

    reps = c.get("reps_drawn", 0)
    blocks = c.get("blocks", 0)
    n_calls = len([u for u in units if u.output is not None])
    tstar_calls = calls.get("statistic.compute_tstar", 0)
    engine_time = sum(tot.get(s, 0.0) for s in ENGINE_SPANS) + sum(
        tot.get(f"kernel.{k}", 0.0) for k in KIND_NAMES
    )
    accounted = sum(v for k, v in selfs.items() if k not in GLUE_SPANS)
    m = {
        "engine.rng_us_per_rep": per("engine.rng", reps, 1e6),
        "alternatives.draw_us_per_rep": per("alternatives.draw", reps, 1e6),
        "normal.H_ns_per_elem": per("normal.H", c.get("probe_elems", 0), 1e9),
        "normal.psi_ns_per_elem": per("normal.psi", c.get("probe_elems", 0), 1e9),
    }
    for k in KIND_NAMES:
        m[f"kernel.{k}_ns_per_elem"] = per(f"kernel.{k}", c.get(f"elems.{k}", 0), 1e9)
    m.update(
        {
            "batch.sort_std_ms_per_block": per("batch.sort_std", c.get("sort_std_blocks", 0), 1e3),
            "engine.block_bytes": float(c.get("block_bytes_max", 0)),
            "engine.blocks": float(blocks),
            "engine.parallel_eff": engine_time / (wl.workers * untraced_wall) if untraced_wall else 0.0,
            "engine.reduce_ms": per("engine.reduce", n_calls if blocks else 0, 1e3),
            "statistic.compute_tstar_ms": per("statistic.compute_tstar", tstar_calls, 1e3),
            "statistic.quadratures_per_call": c.get("quadratures", 0) / tstar_calls if tstar_calls else 0.0,
            "table.decide_us": per("table.decide", calls.get("table.decide", 0), 1e6),
            "table.interpolated_frac": c.get("interpolated", 0) / tstar_calls if tstar_calls else 0.0,
        }
    )
    for k in KIND_NAMES:
        m[f"kernel.{k}_nonfinite"] = float(c.get(f"kernel.{k}_nonfinite", 0))
    m["kernel.ad_clamped"] = float(c.get("kernel.ad_clamped", 0))
    m["kernel.cvm_guard_rows"] = float(c.get("kernel.cvm_guard_rows", 0))
    m["ref_dev"] = gate["ref_dev"]
    m["failed_frac"] = gate["failed_frac"]
    m["latency_samples"] = float(gate["latency_samples"])
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.accounted_frac"] = accounted / traced_wall if traced_wall else 0.0
    return m, {name: round(v, 6) for name, v in sorted(selfs.items())}


def _clean(value: float) -> float:
    return float(value) if math.isfinite(value) else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tcvm", "__init__.py")):
        print(f"perfbench: no tcvm sources under {SRC}; run from the root of a tcvm checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tcvm

    if not os.path.abspath(tcvm.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported tcvm from {tcvm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    probe = harness.SpeedProbe()
    try:
        units, batches, setup = run_untraced(
            wl, args.seed, args.seconds, args.smoke, probe, 2 if args.smoke else SETUP_SAMPLES
        )
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced_wall = sum(u.wall for u in units if u.error is None)

    mismatched = []
    if args.trace:
        tracer = harness.Tracer()
        t0 = time.perf_counter()
        mismatched = replay_traced(wl, units, tracer)
        traced_wall = time.perf_counter() - t0

    # correctness gate, outside every measured region
    with_output = [u for u in units if u.output is not None]
    wl.check(with_output, wl.reference(with_output))
    for unit in units:
        if unit.error or unit.dev > 1.0 or not workloads.output_finite(unit.output or {}):
            unit.failed = True
    for unit in mismatched:
        unit.failed = True
    failed = sum(u.failed for u in units)
    gate = {
        "ref_dev": max((u.dev for u in with_output), default=0.0),
        "failed_frac": failed / len(units),
    }

    e2e, counts = end_to_end(wl, units, batches, setup, peak_rss_mb, probe)
    e2e_raw, _counts = end_to_end(wl, units, batches, setup, peak_rss_mb, _UnitSpeed())
    gate["latency_samples"] = counts["latency_samples"]
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "reps_per_call": wl.reps_per_unit(args.smoke),
        "workers": wl.workers,
        "block": tcvm.engine._BLOCK,
        "calls": len(units),
        "failed": failed,
        "trace_mismatches": len(mismatched),
        "errors": sorted({u.error for u in units if u.error})[:5],
        "call_ms": [round(1e3 * u.wall, 2) for u in units],
        "call_speed_scale": [round(probe.scale(u.mid), 4) for u in units],
        "setup_samples_s": setup,
        "probe_ms": {
            "count": len(probe.seconds),
            "median": 1e3 * harness.median(probe.seconds),
            "min": 1e3 * min(probe.seconds),
            "max": 1e3 * max(probe.seconds),
        },
        **counts,
        "end_to_end": {k: _clean(e2e[k]) for k, _u in END_TO_END},
        "end_to_end_unscaled": {k: _clean(e2e_raw[k]) for k, _u in END_TO_END},
        "gate": {k: _clean(v) for k, v in gate.items()},
        "provenance": harness.provenance(),
    }
    units_of = dict(END_TO_END + PER_LAYER)
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} calls={len(units)} failed={failed}")
    for name, unit in END_TO_END:
        print(f"  {name:32s} {e2e[name]:14.6g} {unit}")
    for name in ("ref_dev", "failed_frac"):
        print(f"  {name:32s} {gate[name]:14.6g} {units_of[name]}")
    metrics = {name: {"value": _clean(e2e[name]), "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        layer, selfs = per_layer(wl, units, tracer, traced_wall, untraced_wall, gate)
        record["per_layer"] = {k: _clean(v) for k, v in layer.items()}
        record["self_time_s"] = selfs
        record["traced_wall_s"] = traced_wall
        record["untraced_wall_s"] = untraced_wall
        for name, unit in PER_LAYER:
            print(f"  {name:32s} {layer[name]:14.6g} {unit}")
        print("  self time by span (s): " + ", ".join(f"{k}={v:.3f}" for k, v in selfs.items()))
        metrics = {name: {"value": _clean(layer[name]), "unit": unit} for name, unit in PER_LAYER}
    line = json.dumps(record, allow_nan=False, sort_keys=True)
    print("RECORD " + line)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    result = {
        "correct": failed == 0 and not mismatched,
        "attempted": len(units),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
