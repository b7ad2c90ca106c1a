"""Seeded Monte Carlo: critical values, power, size, and moment checks.

Reproducibility contract: replication ``r`` of a run with master seed ``s``
draws from a counter-based Philox stream keyed by ``(s, r)``.  Work is
partitioned into blocks of ``_BLOCK`` replication indices, each block fills
a disjoint slice of preallocated output arrays, and aggregation only ever
sorts or sums.  ``batch_statistics`` computes each row's statistics from
that row alone, in the same bits however the rows are sliced, so results
do not depend on the worker count, the block size or the kernel slice.
The one exception is the moment check, whose float sums are reduced per
block: it is bit-identical for any worker count, not for any block size.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .alternatives import AlternativeSpec, _sampler
from .baselines import _CHUNK_ELEMS, REJECTION_TAIL, BaselineKind, batch_statistics
from .normal import MAX_ENDPOINT_N, c_n, cdf, d_n, endpoint
from .process import MomentPoint, fourth_moment_exact
from .table import ALPHA_LEVELS, CriticalValueRow, CriticalValueTable

__all__ = [
    "NULL_SPEC",
    "PowerReport",
    "ConstantCEstimate",
    "MomentCheck",
    "replication_rng",
    "estimate_critical_values",
    "simulate_table",
    "estimate_null_critical_values",
    "estimate_power",
    "estimate_constant_c",
    "verify_fourth_moment",
    "verify_fourth_moments",
]

NULL_SPEC = AlternativeSpec("Normal", (0.0, 1.0))

_BLOCK = 4096  # replications per work block


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent stream for one replication of one run."""
    key = np.array([seed & (2**64 - 1), rep & (2**64 - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_block(
    spec: AlternativeSpec, n: int, seed: int, start: int, count: int
) -> np.ndarray:
    """Rows for replications start .. start + count - 1.

    Row i equals ``draw(spec, n, replication_rng(seed, start + i))`` bit for
    bit.  One Philox serves the whole block: before each row its key becomes
    (seed, start + i) and its counter, buffer and cached 32-bit half return
    to their freshly built values, which is cheaper than a new generator.
    Each row only fills the family's raw draws; the elementwise transform
    runs once per chunk of at most ``_CHUNK_ELEMS`` values.
    """
    sam = _sampler(spec)
    bit_gen = np.random.Philox(key=np.array([seed & (2**64 - 1), 0], dtype=np.uint64))
    fresh = bit_gen.state  # holds copies; the setter copies them back in
    key = fresh["state"]["key"]
    fillers = sam.row_fillers(np.random.Generator(bit_gen))
    rows = max(1, min(count, _CHUNK_ELEMS // n))
    raw = [np.empty((rows, n)) for _ in fillers]
    out = np.empty((count, n))
    for first in range(0, count, rows):
        m = min(rows, count - first)
        for i in range(m):
            key[1] = (start + first + i) & (2**64 - 1)
            bit_gen.state = fresh
            for fill, buf in zip(fillers, raw):
                fill(buf[i])
        out[first : first + m] = sam.transform([buf[:m] for buf in raw])
    return out


def _check_run(n: int, reps: int, workers: int, min_reps: int) -> None:
    # before anything is drawn: a block holds up to _BLOCK rows of n values
    if not 1 <= n <= MAX_ENDPOINT_N:
        raise ValueError(f"need 1 <= n <= {MAX_ENDPOINT_N:,}, got {n}")
    if reps < min_reps:
        raise ValueError(f"need reps >= {min_reps:,}, got {reps}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")


def _check_atom(n: int, kinds: Sequence[BaselineKind]) -> None:
    # at n = 3 all samples with |y_(2)| >= a_3 give the same TCVM value
    if n < 4 and BaselineKind.TCVM in kinds:
        raise ValueError(
            f"TCVM needs n >= 4, got {n}: at n = 3 the statistic's null law has "
            "an atom at its maximum (~41% of samples)"
        )


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")


def _run_blocks(
    reps: int,
    workers: int,
    task: Callable[[int, int], None],
) -> None:
    """Apply ``task(start, count)`` over fixed replication blocks."""
    blocks = [
        (start, min(_BLOCK, reps - start)) for start in range(0, reps, _BLOCK)
    ]
    if workers <= 1 or len(blocks) == 1:
        for start, count in blocks:
            task(start, count)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda b: task(*b), blocks))


def _null_statistics(
    kinds: Sequence[BaselineKind],
    spec: AlternativeSpec,
    n: int,
    reps: int,
    seed: int,
    workers: int = 1,
) -> Dict[BaselineKind, np.ndarray]:
    stats = {kind: np.empty(reps) for kind in kinds}

    def task(start: int, count: int) -> None:
        block = _draw_block(spec, n, seed, start, count)
        for kind, values in batch_statistics(block, kinds).items():
            stats[kind][start : start + count] = values

    _run_blocks(reps, workers, task)
    return stats


def _upper_index(alpha: float, reps: int) -> int:
    """1-based order-statistic index ceil((1 - alpha) * reps), exactly."""
    frac = (1 - Fraction(str(float(alpha)))) * reps
    return int(math.ceil(frac))


def _critical_from_sorted(
    sorted_stats: np.ndarray, alpha: float, tail: str
) -> float:
    reps = sorted_stats.size
    k = _upper_index(alpha, reps)
    if not 1 <= k <= reps:
        raise ValueError(f"alpha={alpha} unusable with {reps} replications")
    if tail == "upper":
        return float(sorted_stats[k - 1])
    return float(sorted_stats[reps - k])


def estimate_critical_values(
    n: int,
    alphas: Sequence[float] = ALPHA_LEVELS,
    reps: int = 50_000,
    seed: int = 0,
    workers: int = 1,
) -> CriticalValueRow:
    """Upper empirical quantiles of the null statistic at each level.

    Simulates ``reps`` standard-normal samples of size ``n`` and returns the
    order statistics at index ceil((1-alpha)*reps), together with the
    deterministic a_n and C_n columns.
    """
    _check_run(n, reps, workers, min_reps=100)
    _check_atom(n, [BaselineKind.TCVM])
    for a in alphas:
        _check_alpha(a)
    stats = _null_statistics([BaselineKind.TCVM], NULL_SPEC, n, reps, seed, workers)
    s = np.sort(stats[BaselineKind.TCVM])
    crits = {float(a): _critical_from_sorted(s, a, "upper") for a in alphas}
    return CriticalValueRow(
        n=n, critical_values=crits, a_n=endpoint(n).a_n, c_n=c_n(n)
    )


def simulate_table(
    sizes: Iterable[int],
    alphas: Sequence[float] = ALPHA_LEVELS,
    reps: int = 50_000,
    seed: int = 0,
    workers: int = 1,
) -> CriticalValueTable:
    """Fresh critical-value table for the given sample sizes."""
    rows = {
        n: estimate_critical_values(n, alphas, reps, seed, workers)
        for n in sizes
    }
    return CriticalValueTable(
        rows=rows,
        provenance=f"simulated(reps={reps}, seed={seed})",
        alphas=tuple(float(a) for a in alphas),
    )


def estimate_null_critical_values(
    kinds: Sequence[BaselineKind],
    n: int,
    alpha: float,
    reps: int = 50_000,
    seed: int = 0,
    workers: int = 1,
) -> Dict[BaselineKind, float]:
    """Simulated critical value for every test kind, from shared null draws."""
    kinds = list(kinds)
    _check_run(n, reps, workers, min_reps=100)
    _check_atom(n, kinds)
    _check_alpha(alpha)
    stats = _null_statistics(kinds, NULL_SPEC, n, reps, seed, workers)
    return {
        kind: _critical_from_sorted(np.sort(values), alpha, REJECTION_TAIL[kind])
        for kind, values in stats.items()
    }


@dataclass(frozen=True)
class PowerReport:
    """Rejection rates of several tests against one alternative."""

    spec: AlternativeSpec
    n: int
    alpha: float
    reps: int
    seed: int
    rates: Dict[BaselineKind, float]
    stderr: Dict[BaselineKind, float]
    critical_values: Dict[BaselineKind, float]


def estimate_power(
    kinds: Sequence[BaselineKind],
    spec: AlternativeSpec,
    n: int,
    alpha: float,
    reps: int,
    seed: int,
    critical_values: Dict[BaselineKind, float],
    workers: int = 1,
) -> PowerReport:
    """Rejection frequency per kind, with common random numbers across kinds.

    Every replication draws one sample and evaluates all statistics on it,
    so the per-kind rates are positively coupled exactly as in a paired
    comparison.
    """
    kinds = list(kinds)
    _check_run(n, reps, workers, min_reps=1)
    _check_atom(n, kinds)
    _check_alpha(alpha)
    missing = [k for k in kinds if k not in critical_values]
    if missing:
        raise ValueError(f"missing critical values for {missing}")
    n_blocks = (reps + _BLOCK - 1) // _BLOCK
    counts = {kind: np.zeros(n_blocks, dtype=np.int64) for kind in kinds}

    def task(start: int, count: int) -> None:
        block = _draw_block(spec, n, seed, start, count)
        stats = batch_statistics(block, kinds)
        for kind in kinds:
            crit = critical_values[kind]
            if REJECTION_TAIL[kind] == "upper":
                hits = np.count_nonzero(stats[kind] > crit)
            else:
                hits = np.count_nonzero(stats[kind] < crit)
            counts[kind][start // _BLOCK] = hits

    _run_blocks(reps, workers, task)
    rates = {kind: int(counts[kind].sum()) / reps for kind in kinds}
    stderr = {
        kind: math.sqrt(max(r * (1.0 - r), 0.0) / reps) for kind, r in rates.items()
    }
    return PowerReport(
        spec=spec,
        n=n,
        alpha=float(alpha),
        reps=reps,
        seed=seed,
        rates=rates,
        stderr=stderr,
        critical_values=dict(critical_values),
    )


@dataclass(frozen=True)
class ConstantCEstimate:
    """Mean of the centred statistic plus 3/2, with its standard error.

    The centred statistic converges to a law whose mean is the unknown
    shift constant minus 3/2 (the two squared-Gaussian terms contribute
    1 and 1/2), so mean(t_star - D_n) + 3/2 estimates that constant.
    """

    value: float
    stderr: float
    n: int
    reps: int
    seed: int


def estimate_constant_c(
    n: int, reps: int = 1000, seed: int = 0, workers: int = 1
) -> ConstantCEstimate:
    _check_run(n, reps, workers, min_reps=100)
    if n < 100:
        raise ValueError(f"the centred-statistic study needs n >= 100, got {n}")
    centred = np.empty(reps)
    dn = d_n(n)

    def task(start: int, count: int) -> None:
        block = _draw_block(NULL_SPEC, n, seed, start, count)
        tstar = batch_statistics(block, [BaselineKind.TCVM])[BaselineKind.TCVM]
        centred[start : start + count] = tstar - dn

    _run_blocks(reps, workers, task)
    value = float(np.mean(centred) + 1.5)
    stderr = float(np.std(centred, ddof=1) / math.sqrt(reps))
    return ConstantCEstimate(value=value, stderr=stderr, n=n, reps=reps, seed=seed)


@dataclass(frozen=True)
class MomentCheck:
    """Empirical vs exact E(b_n^2(x) b_n^2(y)) with a z-score."""

    x: float
    y: float
    n: int
    reps: int
    seed: int
    empirical: float
    exact: float
    stderr: float
    z_score: float


def verify_fourth_moments(
    points: Sequence[Tuple[float, float]],
    n: int,
    reps: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> List[MomentCheck]:
    """Monte Carlo check of the exact fourth-moment formula at several points.

    All points share the same simulated samples (the checks are correlated,
    but each z-score is individually valid).
    """
    _check_run(n, reps, workers, min_reps=10_000)
    pts = [(float(x), float(y)) for x, y in points]
    if not all(math.isfinite(v) for pt in pts for v in pt):
        raise ValueError(f"moment points must be finite, got {pts}")
    n_blocks = (reps + _BLOCK - 1) // _BLOCK
    # one slot per (point, block); reduced in fixed order after all blocks
    sums = np.zeros((len(pts), n_blocks))
    sq_sums = np.zeros((len(pts), n_blocks))
    sqrt_n = math.sqrt(n)
    cdfs = [(cdf(x), cdf(y)) for x, y in pts]

    def task(start: int, count: int) -> None:
        block = _draw_block(NULL_SPEC, n, seed, start, count)
        slot = start // _BLOCK
        for j, ((x, y), (px, py)) in enumerate(zip(pts, cdfs)):
            bx = ((block <= x).sum(axis=1) - n * px) / sqrt_n
            by = ((block <= y).sum(axis=1) - n * py) / sqrt_n
            prod = bx * bx * by * by
            sums[j, slot] = prod.sum()
            sq_sums[j, slot] = (prod * prod).sum()

    _run_blocks(reps, workers, task)
    out = []
    for j, (x, y) in enumerate(pts):
        mean = float(sums[j].sum()) / reps
        var = max(float(sq_sums[j].sum()) / reps - mean * mean, 0.0)
        stderr = math.sqrt(var / reps)
        exact = fourth_moment_exact(MomentPoint.of(x, y), n)
        z = (mean - exact) / stderr if stderr > 0 else math.inf
        out.append(
            MomentCheck(
                x=x,
                y=y,
                n=n,
                reps=reps,
                seed=seed,
                empirical=float(mean),
                exact=float(exact),
                stderr=float(stderr),
                z_score=float(z),
            )
        )
    return out


def verify_fourth_moment(
    x: float, y: float, n: int, reps: int = 1_000_000, seed: int = 0, workers: int = 1
) -> MomentCheck:
    """Single-point version of :func:`verify_fourth_moments`."""
    return verify_fourth_moments([(x, y)], n, reps, seed, workers)[0]
