"""The benchmark workloads.

Each workload makes its inputs from the run seed, calls the package's public
entry points in a closed loop (one caller, each call waits for the previous
one), and groups its calls into batches that always complete together, so
the mix of calls behind a median does not depend on where the clock stops.

Every workload also has a traced replay.  It repeats the same calls through
the layer functions the entry point is built from (the replication streams,
the samplers, ``batch_statistics`` per kind, the psi and H antiderivatives,
``compute_tstar`` and ``decide``), with the engine's seeds and its block
decomposition (``engine._BLOCK`` replications per block), and records a
span around each call.  Its outputs must equal the untraced outputs, which
shows that both runs did the same work.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from tcvm import alternatives, baselines, engine, normal, process, statistic, table
from tcvm.alternatives import parse_spec
from tcvm.baselines import REJECTION_TAIL, BaselineKind

from harness import Tracer

KINDS = (
    BaselineKind.TCVM,
    BaselineKind.CVM,
    BaselineKind.BCMR,
    BaselineKind.AD,
    BaselineKind.SW,
)
AD_CLAMP = 1e-15  # batch AD clamps probabilities to [AD_CLAMP, 1 - AD_CLAMP]
CVM_GUARD = 26.0  # the whole-line kernel refuses rows with max|y|/sqrt(2) above this
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


@dataclass
class Unit:
    """One call of a workload's entry point and what became of it."""

    label: str
    reps: int
    args: dict
    wall: float = 0.0
    mid: float = 0.0  # perf_counter at the middle of the call
    output: object = None
    error: Optional[str] = None
    dev: float = 0.0  # deviation from the reference, in tolerance units
    failed: bool = False


def derived_seed(seed: int, stream: int, index: int) -> int:
    """64-bit engine seed for call ``index`` of a run with seed ``seed``."""
    state = np.random.SeedSequence([seed & (2**64 - 1), stream, index]).generate_state(1, np.uint64)
    return int(state[0])


def _blocks(reps: int):
    """The engine's replication blocks, read from the engine itself."""
    block = engine._BLOCK
    for start in range(0, reps, block):
        yield start, min(block, reps - start)


def _upper_index(alpha: float, reps: int) -> int:
    return int(math.ceil((1 - Fraction(str(float(alpha)))) * reps))


def _order_statistic(sorted_stats: np.ndarray, alpha: float, tail: str) -> float:
    """The engine's critical value: order statistic ceil((1 - alpha) * reps)."""
    reps = sorted_stats.size
    k = _upper_index(alpha, reps)
    return float(sorted_stats[k - 1] if tail == "upper" else sorted_stats[reps - k])


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(list(values), dtype=float))))


class Workload:
    name = ""
    workers = 1
    n = 0  # sample size of one replication

    def batches(self, seed: int, smoke: bool) -> Iterator[List[Unit]]:
        raise NotImplementedError

    def call(self, unit: Unit):
        raise NotImplementedError

    def replay(self, unit: Unit, tr: Tracer):
        raise NotImplementedError

    def reps_per_unit(self, smoke: bool) -> int:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        return a == b

    def reference(self, units: Sequence[Unit]):
        raise NotImplementedError

    def perturb(self, reference):
        """A deliberately wrong copy of the reference, for the self-test."""
        raise NotImplementedError

    def check(self, units: Sequence[Unit], reference) -> None:
        """Set ``dev`` on every unit that produced an output."""
        raise NotImplementedError

    # shared pieces of the traced replay ------------------------------------

    def _draw(self, tr: Tracer, spec, n: int, seed: int, start: int, count: int):
        with tr.span("engine.rng"):
            rngs = [engine.replication_rng(seed, start + i) for i in range(count)]
        with tr.span("alternatives.draw"):
            block = np.empty((count, n))
            for i, rng in enumerate(rngs):
                block[i] = alternatives.draw(spec, n, rng)
        tr.count("reps_drawn", count)
        tr.count("blocks")
        tr.counters["block_bytes_max"] = max(tr.counters.get("block_bytes_max", 0), block.nbytes)
        return block

    def _kernels(self, tr: Tracer, block: np.ndarray, kinds, probe: bool):
        """``batch_statistics`` per kind, plus probes of its shared layers."""
        n = block.shape[1]
        with tr.span("batch.sort_std"):
            xs = np.sort(block, axis=1)
            y = (xs - xs.mean(axis=1, keepdims=True)) / xs.std(axis=1, keepdims=True)
        tr.count("sort_std_blocks")
        with tr.span("bench.counters"):
            if BaselineKind.AD in kinds:
                u = normal.cdf(y)
                tr.count("kernel.ad_clamped", np.count_nonzero((u < AD_CLAMP) | (u > 1 - AD_CLAMP)))
            if BaselineKind.CVM in kinds:
                zmax = np.max(np.abs(y), axis=1) / math.sqrt(2.0)
                tr.count("kernel.cvm_guard_rows", np.count_nonzero(zmax > CVM_GUARD))
        if probe and (BaselineKind.TCVM in kinds or BaselineKind.CVM in kinds):
            # the TCVM kernel's inputs: standardized rows clipped to [-a_n, a_n]
            a = normal.endpoint(n).a_n
            yc = np.clip(y, -a, a)
            with tr.span("normal.psi"):
                normal.recip_pdf_antiderivative(yc)
            with tr.span("normal.H"):
                normal.cdf_over_pdf_antiderivative(yc)
            tr.count("probe_elems", yc.size)
        out = {}
        for kind in kinds:
            with tr.span(f"kernel.{kind.value}"):
                out[kind] = baselines.batch_statistics(block, [kind])[kind]
            tr.count(f"elems.{kind.value}", block.size)
            tr.count(f"kernel.{kind.value}_nonfinite", np.count_nonzero(~np.isfinite(out[kind])))
        return out


# ---------------------------------------------------------------------------
# power_n50: null calibration of all five kinds, then power rows at n = 50.
# ---------------------------------------------------------------------------

POWER_ROWS = (
    "LoConN(0.5,4)",
    "SB(0,0.707)",
    "Logistic(0,1)",
    "ScConN(0.2,3)",
    "Beta(2,1)",
    "HalfN(0,1)",
    "LoConN(0.1,5)",
)
POWER_REFERENCE = os.path.join(REFERENCE_DIR, "power_n50.json")


class PowerN50(Workload):
    """Calibration plus seven power rows form one cycle.

    Cycles come from a pool whose outputs were recorded at the commit that
    defined the benchmark; the run seed picks the order in which the pool is
    visited.  The gate compares every output with that record under the seed
    contract: rejection counts exactly, critical values to 1e-9 relative.
    """

    name = "power_n50"
    n = 50
    alpha = 0.05
    reps = 4096
    pool = 16
    seed_base = 1_709_062_300

    def reps_per_unit(self, smoke: bool) -> int:
        return self.reps

    def cycle_seed(self, k: int, j: int) -> int:
        """Engine seed of unit ``j`` (0 = calibration) of pool cycle ``k``."""
        return self.seed_base + 100 * k + j

    def cycle(self, k: int, rows: Sequence[str]) -> List[Unit]:
        cal = Unit("calibration", self.reps, {"k": k, "seed": self.cycle_seed(k, 0)})
        units = [cal]
        for j, text in enumerate(rows, start=1):
            units.append(
                Unit(
                    text,
                    self.reps,
                    {"k": k, "seed": self.cycle_seed(k, j), "spec": parse_spec(text), "cal": cal},
                )
            )
        return units

    def batches(self, seed, smoke):
        order = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 1])).permutation(self.pool)
        rows = POWER_ROWS[:1] if smoke else POWER_ROWS
        c = 0
        while True:
            yield self.cycle(int(order[c % self.pool]), rows)
            c += 1

    @staticmethod
    def _crits(cal: Unit) -> Dict[BaselineKind, float]:
        if cal.output is None:
            raise RuntimeError("the calibration of this cycle failed")
        return {BaselineKind(k): v for k, v in cal.output.items()}

    def call(self, unit):
        if unit.label == "calibration":
            crits = engine.estimate_null_critical_values(
                KINDS, self.n, self.alpha, unit.reps, unit.args["seed"], workers=1
            )
            return {k.value: float(crits[k]) for k in KINDS}
        report = engine.estimate_power(
            KINDS,
            unit.args["spec"],
            self.n,
            self.alpha,
            unit.reps,
            unit.args["seed"],
            self._crits(unit.args["cal"]),
            workers=1,
        )
        return {k.value: int(round(report.rates[k] * unit.reps)) for k in KINDS}

    def replay(self, unit, tr):
        seed = unit.args["seed"]
        if unit.label == "calibration":
            stats = {k: np.empty(unit.reps) for k in KINDS}
            for start, count in _blocks(unit.reps):
                block = self._draw(tr, engine.NULL_SPEC, self.n, seed, start, count)
                per = self._kernels(tr, block, KINDS, probe=start == 0)
                with tr.span("engine.reduce"):
                    for k in KINDS:
                        stats[k][start : start + count] = per[k]
            with tr.span("engine.reduce"):
                return {
                    k.value: _order_statistic(np.sort(stats[k]), self.alpha, REJECTION_TAIL[k])
                    for k in KINDS
                }
        crits = self._crits(unit.args["cal"])
        counts = {k.value: 0 for k in KINDS}
        for start, count in _blocks(unit.reps):
            block = self._draw(tr, unit.args["spec"], self.n, seed, start, count)
            per = self._kernels(tr, block, KINDS, probe=start == 0)
            with tr.span("engine.reduce"):
                for k in KINDS:
                    if REJECTION_TAIL[k] == "upper":
                        counts[k.value] += int(np.count_nonzero(per[k] > crits[k]))
                    else:
                        counts[k.value] += int(np.count_nonzero(per[k] < crits[k]))
        return counts

    def reference(self, units):
        with open(POWER_REFERENCE) as fh:
            return json.load(fh)

    def perturb(self, reference):
        bad = json.loads(json.dumps(reference))
        for cycle in bad["cycles"]:
            for row in cycle["rows"].values():
                row["tcvm"] += 1
            cycle["calibration"]["ad"] *= 1.0 + 1e-6
        return bad

    def check(self, units, reference):
        if reference["reps"] != self.reps or reference["seed_base"] != self.seed_base:
            raise ValueError("the power reference was recorded with another configuration")
        for unit in units:
            if unit.output is None:
                continue
            ref = reference["cycles"][unit.args["k"]]
            if unit.label == "calibration":
                unit.dev = max(
                    abs(unit.output[k] - v) / (1e-9 * abs(v)) for k, v in ref["calibration"].items()
                )
            else:
                # counts must match exactly: one count off reads as 2 tolerances
                unit.dev = max(abs(unit.output[k] - v) / 0.5 for k, v in ref["rows"][unit.label].items())


# ---------------------------------------------------------------------------
# moments_n20: Monte Carlo check of the exact fourth moment at n = 20.
# ---------------------------------------------------------------------------


class MomentsN20(Workload):
    """Each call checks two points from three blocks of null draws.

    The gate recomputes each z-score against ``process.fourth_moment_exact``
    and requires |z| <= 5 (criterion 6 uses 4 for a single 1M-rep call; a
    run here makes dozens of calls).
    """

    name = "moments_n20"
    n = 20
    points = ((0.0, 0.0), (0.3, 1.1))
    z_max = 5.0

    def reps_per_unit(self, smoke: bool) -> int:
        return 12_288  # three 4096-rep blocks: the engine's minimum is 10,000

    def batches(self, seed, smoke):
        i = 0
        while True:
            yield [Unit("moments", self.reps_per_unit(smoke), {"seed": derived_seed(seed, 3, i)})]
            i += 1

    def call(self, unit):
        checks = engine.verify_fourth_moments(
            self.points, self.n, unit.reps, unit.args["seed"], workers=1
        )
        return [(c.empirical, c.stderr, c.exact, c.z_score) for c in checks]

    def replay(self, unit, tr):
        seed, reps, n = unit.args["seed"], unit.reps, self.n
        per_block = engine._BLOCK
        sums = np.zeros((len(self.points), (reps + per_block - 1) // per_block))
        sq_sums = np.zeros_like(sums)
        cdfs = [(normal.cdf(x), normal.cdf(y)) for x, y in self.points]
        sqrt_n = math.sqrt(n)
        for start, count in _blocks(reps):
            block = self._draw(tr, engine.NULL_SPEC, n, seed, start, count)
            with tr.span("engine.reduce"):
                for j, ((x, y), (px, py)) in enumerate(zip(self.points, cdfs)):
                    bx = ((block <= x).sum(axis=1) - n * px) / sqrt_n
                    by = ((block <= y).sum(axis=1) - n * py) / sqrt_n
                    prod = bx * bx * by * by
                    sums[j, start // per_block] = prod.sum()
                    sq_sums[j, start // per_block] = (prod * prod).sum()
        out = []
        with tr.span("engine.reduce"):
            for j, (x, y) in enumerate(self.points):
                mean = float(sums[j].sum()) / reps
                var = max(float(sq_sums[j].sum()) / reps - mean * mean, 0.0)
                stderr = math.sqrt(var / reps)
                exact = process.fourth_moment_exact(process.MomentPoint.of(x, y), n)
                out.append((mean, stderr, float(exact), (mean - exact) / stderr))
        return out

    def same(self, a, b):
        # the cross-block sums may be reassociated; 1e-9 relative is far
        # below the Monte Carlo error and far above reassociation noise
        return len(a) == len(b) and all(
            math.isclose(u, v, rel_tol=1e-9, abs_tol=1e-12)
            for ra, rb in zip(a, b)
            for u, v in zip(ra, rb)
        )

    def reference(self, units):
        return [
            process.fourth_moment_exact(process.MomentPoint.of(x, y), self.n)
            for x, y in self.points
        ]

    def perturb(self, reference):
        return [1.2 * v for v in reference]

    def check(self, units, reference):
        for unit in units:
            if unit.output is None:
                continue
            dev = 0.0
            for (mean, stderr, exact, _z), ref in zip(unit.output, reference):
                dev = max(dev, abs(mean - ref) / stderr / self.z_max)
                dev = max(dev, abs(exact - ref) / (1e-12 * abs(ref)))
            unit.dev = dev


# ---------------------------------------------------------------------------
# single_test: one tcvm_test call per sample of a seeded corpus.
# ---------------------------------------------------------------------------

_SHAPES = ("student_t3", "lognormal", "uniform", "laplace", "chisq4", "loc_mixture")


def _make_sample(rng: np.random.Generator, shape: str, n: int) -> np.ndarray:
    if shape == "normal":
        return rng.normal(rng.uniform(-5.0, 5.0), math.exp(rng.uniform(-2.3, 2.3)), n)
    if shape == "student_t3":
        return rng.standard_t(3, n)
    if shape == "lognormal":
        return rng.lognormal(0.0, 0.5, n)
    if shape == "uniform":
        return rng.uniform(0.0, 1.0, n)
    if shape == "laplace":
        return rng.laplace(0.0, 1.0, n)
    if shape == "chisq4":
        return rng.chisquare(4.0, n)
    return rng.standard_normal(n) + np.where(rng.random(n) < 0.1, 3.0, 0.0)


class SingleTest(Workload):
    """One pass calls ``tcvm_test`` once on every sample of the corpus.

    Sizes are stratified log-uniform in 10..2000, so every seed gets the same
    spread of n; half the samples are normal, half come from six non-normal
    shapes.  Caches are not pre-warmed: the first pass pays for them, as a
    one-shot user does.  The gate compares every statistic with the direct
    quadrature oracle ``compute_tstar_direct`` to 1e-6 relative and checks
    the decision against the statistic.
    """

    name = "single_test"
    corpus_size = 240
    n_min, n_max = 10, 2000
    alpha = 0.05
    rate_per_batch = True  # throughput per corpus pass: sizes differ per call

    def reps_per_unit(self, smoke: bool) -> int:
        return 1

    def corpus(self, seed: int, smoke: bool) -> List[np.ndarray]:
        size = 24 if smoke else self.corpus_size
        rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 4]))
        u = (np.arange(size) + rng.random(size)) / size
        sizes = np.rint(self.n_min * (self.n_max / self.n_min) ** u).astype(int)
        shapes = ["normal"] * (size // 2) + [_SHAPES[i % len(_SHAPES)] for i in range(size - size // 2)]
        shapes = [shapes[i] for i in rng.permutation(size)]
        samples = [_make_sample(rng, s, int(n)) for s, n in zip(shapes, sizes)]
        return [samples[i] for i in rng.permutation(size)]

    def batches(self, seed, smoke):
        samples = self.corpus(seed, smoke)
        while True:
            yield [Unit("test", 1, {"index": i, "x": x}) for i, x in enumerate(samples)]

    def call(self, unit):
        outcome, result = statistic.tcvm_test(unit.args["x"], alpha=self.alpha)
        return (outcome.statistic, outcome.critical_value, outcome.reject, outcome.interpolated, result.m)

    def replay(self, unit, tr):
        with tr.span("statistic.compute_tstar"):
            result = statistic.compute_tstar(unit.args["x"])
        tr.count("quadratures", 2 * (result.m + 1))
        with tr.span("table.decide"):
            outcome = statistic.decide(result.t_star, result.n, self.alpha)
        tr.count("interpolated", int(outcome.interpolated))
        return (outcome.statistic, outcome.critical_value, outcome.reject, outcome.interpolated, result.m)

    def reference(self, units):
        """Direct-quadrature statistic of every distinct sample."""
        ref = {}
        for unit in units:
            i = unit.args["index"]
            if i not in ref:
                ref[i] = statistic.compute_tstar_direct(unit.args["x"])
        return ref

    def perturb(self, reference):
        return {i: v * (1.0 + 1e-5) for i, v in reference.items()}

    def check(self, units, reference):
        crit_table = table.embedded_table()
        for unit in units:
            if unit.output is None:
                continue
            stat, crit, reject, interpolated, _m = unit.output
            ref = reference[unit.args["index"]]
            unit.dev = abs(stat - ref) / (1e-6 * abs(ref) + 1e-12)
            expected = crit_table.critical_value(unit.args["x"].size, self.alpha)
            if (crit, interpolated) != expected or reject != (stat > crit):
                unit.failed = True


WORKLOADS = {w.name: w for w in (PowerN50(), MomentsN20(), SingleTest())}


def output_finite(output) -> bool:
    if isinstance(output, dict):
        return _finite(output.values())
    if isinstance(output, tuple):
        return _finite(output[:2])
    return _finite(v for row in output for v in row)
