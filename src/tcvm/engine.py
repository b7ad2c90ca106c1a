"""Seeded Monte Carlo: critical values, power, size, and moment checks.

Reproducibility contract: replication ``r`` of a run with master seed ``s``
draws from a counter-based Philox stream keyed by ``(s, r)``, whose fresh
state is a fixed image that differs between streams in one key word; a
block of ``_BLOCK`` replications, or fewer where that would pass
``_BLOCK_VALUES`` values, resets one Philox to each row's stream by copying
that image in, and each worker draws all its blocks into one workspace.
Each block returns per-replication arrays, computed from each row alone,
and they are joined in replication order whatever the worker count, so no
worker writes shared arrays and every count, sort, sum or mean runs once
over all replications.  ``batch_statistics`` computes
each row's statistics in the same bits however the rows are sliced, so no
result depends on the worker count, the block size or the kernel slice.
"""

from __future__ import annotations

import ctypes
import io
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .alternatives import AlternativeSpec, replication_rng
from .baselines import _CHUNK_ELEMS, REJECTION_TAIL, BaselineKind, batch_statistics
from .normal import MAX_ENDPOINT_N, c_n, d_n, endpoint
from .process import MomentPoint, b_n, fourth_moment_exact
from .table import ALPHA_LEVELS, CriticalValueRow, CriticalValueTable, _check_tcvm_n

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
    "verify_fourth_moments",
]

NULL_SPEC = AlternativeSpec("Normal", (0.0, 1.0))

_BLOCK = 4096  # replications per work block, at most
_BLOCK_VALUES = 2**22  # values per work block, at most: 32 MB, unless one row holds more


_MASK64 = 2**64 - 1
# Keys the image copy is checked on, one of them at or above 2^63.
_CHECK_KEYS = (7, 0xD1B54A32D192ED03)
# numpy's philox_state starts with pointers to the counter and the key,
# then holds buffer_pos, a 4-word buffer, has_uint32 and uinteger.  On
# numpy 2.4 the key and then the counter follow it inside the Philox object.
_STATE_BYTES = 64
_IMAGE_BYTES = 96  # a state image: buffer_pos to the counter's end, key word 1 at word 7
# (state, key, counter) offsets from id(bit_gen) that passed; racing threads repeat the check
_CHECKED_LAYOUTS: set = set()


def _uint64_view(owner: object, address: int, words: int) -> np.ndarray:
    """``words`` uint64 at ``address`` inside ``owner``, which the view keeps alive."""
    buf = (ctypes.c_uint64 * words).from_address(address)
    buf.owner = owner
    return np.frombuffer(buf, np.uint64)


def _after_reset(rng: np.random.Generator, reset: Callable[[int], None], key: int):
    """The ``state`` dict and next draws of ``rng`` reset to ``key`` from a used state.

    The draws before the reset leave the counter, the buffer and the cached
    32-bit half in use; the draws after it read doubles, normals and 32-bit
    integers.  Returns the state's repr, exact for its ints and integer
    arrays, and the draws' bytes.
    """
    rng.random(3)
    rng.integers(0, 2**32, 3, dtype=np.uint32)
    reset(key)
    state = repr(rng.bit_generator.state)
    draws = (rng.random(5), rng.standard_normal(5), rng.integers(0, 2**32, 5, dtype=np.uint32))
    return state, b"".join(d.tobytes() for d in draws)


def _stream_resets(rng: np.random.Generator, rows: int) -> Callable[[int, int], Callable[[], None]]:
    """A function of ``(start, count)``, count <= rows, returning a reset for count rows.

    The i-th call of that reset makes ``rng`` the fresh stream keyed (key
    word 0, start + i).  Each call copies the next 96-byte row of a table
    of ``rows`` fresh state images, made once from the state the setter
    leaves, where this generator's key and counter follow its struct inside
    the object at offsets from ``id(bit_gen)`` that passed the check once
    in this process: for each key of ``_CHECK_KEYS``, a used generator
    reset both ways reads the same ``state`` dict and draws the same values
    after.  Else the state setter.  Each ``(start, count)`` rewrites only
    the table's key words, in place, and rewinds the stream that reads it.
    """
    bit_gen = rng.bit_generator
    fresh = bit_gen.state  # holds copies; the setter copies them back in
    fresh_key = fresh["state"]["key"]

    def set_state(k: int) -> None:
        fresh_key[1] = k
        bit_gen.state = fresh

    def by_setter(start: int, count: int) -> Callable[[], None]:
        keys = iter(range(start, start + count))

        def set_next() -> None:
            set_state(next(keys) & _MASK64)

        return set_next

    try:
        base = id(bit_gen)  # CPython: the object's address
        addr = bit_gen.ctypes.state_address
        if not base <= addr <= base + type(bit_gen).__basicsize__ - 16 - _IMAGE_BYTES:
            return by_setter
        ctr_at, key_at = (int(w) for w in _uint64_view(bit_gen, addr, 2))
        if (key_at, ctr_at) != (addr + _STATE_BYTES, addr + _STATE_BYTES + 16):
            return by_setter
        words = _uint64_view(bit_gen, addr + 16, _IMAGE_BYTES // 8)
    except (AttributeError, TypeError, ValueError):
        return by_setter
    layout = (addr - base, key_at - base, ctr_at - base)
    set_state(0)
    image = words.copy()

    def write(k: int) -> None:
        image[7] = k
        words[:] = image

    if layout not in _CHECKED_LAYOUTS:
        if any(_after_reset(rng, write, k) != _after_reset(rng, set_state, k) for k in _CHECK_KEYS):
            return by_setter
        _CHECKED_LAYOUTS.add(layout)
    # readinto fills the 96 bytes of words and steps on to the next image;
    # the table is the stream's own buffer, where each reset writes its keys
    images = io.BytesIO()
    images.write(np.tile(image, rows))
    keys = np.frombuffer(images.getbuffer(), np.uint64).reshape(rows, image.size)[:, 7]
    offsets = np.arange(rows, dtype=np.uint64)
    read = partial(images.readinto, memoryview(words))

    def by_copy(start: int, count: int) -> Callable[[], None]:
        np.add(offsets[:count], np.uint64(start & _MASK64), out=keys[:count])  # wraps mod 2^64
        images.seek(0)
        return read

    return by_copy


_FILLS_IN_PLACE = frozenset({"random", "standard_normal"})  # Generator methods taking out=


def _fill(method: Callable, args: Tuple[float, ...], out: np.ndarray) -> None:
    out[...] = method(*args, out.size)


class _Workspace:
    """One worker's buffers for blocks of up to ``rows`` rows of ``spec`` at ``n``.

    Holds ``spec``, the block output and one Philox, keyed by ``seed``, with
    its resets for one transform chunk of at most ``_CHUNK_ELEMS`` values; per
    raw call of the family, a filler (the generator method itself where it
    takes ``out=``) and a raw buffer of one chunk; and, per row of the chunk,
    the one call's row view, or each call's (filler, row view) pair.  Every
    block reuses them, so drawing allocates only the transform's temporaries.
    """

    __slots__ = ("spec", "resets", "fills", "raw", "rows", "out")

    def __init__(self, spec: AlternativeSpec, n: int, seed: int, rows: int):
        self.spec = spec
        chunk = max(1, min(rows, _CHUNK_ELEMS // n))
        rng = replication_rng(seed, 0)
        self.resets = _stream_resets(rng, chunk)
        self.fills = [
            getattr(rng, method) if method in _FILLS_IN_PLACE
            else partial(_fill, getattr(rng, method), args)
            for method, args in spec._calls
        ]
        self.raw = [np.empty((chunk, n)) for _ in self.fills]
        views = [list(buf) for buf in self.raw]
        self.rows = views[0] if len(views) == 1 else [tuple(zip(self.fills, v)) for v in zip(*views)]
        self.out = np.empty((rows, n))


def _draw_block(ws: _Workspace, start: int, count: int) -> np.ndarray:
    """Rows for replications start .. start + count - 1, count <= the rows of ``ws``.

    Row i equals ``draw(spec, n, replication_rng(seed, start + i))``, for the
    spec, n and seed of ``ws``, bit for bit.  One Philox serves the block:
    before each row, ``ws.resets`` makes it the fresh stream of replication
    start + i, which is cheaper than a new generator.  Each row only fills
    the family's raw draws into its prebuilt row views; the elementwise
    transform runs once per chunk of at most ``_CHUNK_ELEMS`` values, without
    overflow warnings: ``batch_statistics`` refuses rows that reach inf or nan.

    The rows are a view of ``ws.out``, which the next block drawn in the
    same workspace overwrites.
    """
    spec, fills, raw = ws.spec, ws.fills, ws.raw
    out = ws.out[:count]
    chunk = len(ws.rows)
    for first in range(0, count, chunk):
        m = min(chunk, count - first)
        reset = ws.resets(start + first, m)
        if len(fills) == 1:
            fill = fills[0]
            for view in ws.rows[:m]:
                reset()
                fill(out=view)
        else:
            for pairs in ws.rows[:m]:
                reset()
                for fill, view in pairs:
                    fill(out=view)
        with np.errstate(over="ignore", invalid="ignore"):
            out[first : first + m] = spec._transform([buf[:m] for buf in raw], spec.params)
    return out


def _check_n(n: int) -> None:
    # before anything is drawn: a block holds at least one row of n values
    if not 1 <= n <= MAX_ENDPOINT_N:
        raise ValueError(f"need 1 <= n <= {MAX_ENDPOINT_N:,}, got {n}")


def _check_run(n: int, reps: int, workers: int, min_reps: int) -> None:
    _check_n(n)
    if reps < min_reps:
        raise ValueError(f"need reps >= {min_reps:,}, got {reps}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")


def _check_kinds(n: int, kinds: Sequence[BaselineKind]) -> None:
    if not kinds:
        raise ValueError("need at least one test kind")
    if n < 3:  # the kernel's own refusal, before a block is drawn
        raise ValueError(f"a sample needs at least 3 observations, got {n}")
    if BaselineKind.TCVM in kinds:
        _check_tcvm_n(n)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")


def _block_rows(n: int) -> int:
    """Rows per work block at ``n``: ``_BLOCK``, or fewer past ``_BLOCK_VALUES`` values."""
    return min(_BLOCK, max(1, _BLOCK_VALUES // n))


def _map_blocks(
    spec: AlternativeSpec, n: int, reps: int, seed: int, workers: int, fn: Callable
) -> dict:
    """Each block's dict of per-row arrays from ``fn``, joined in replication order.

    A block holds ``_block_rows(n)`` rows.  At most min(workers, blocks,
    cores) threads run, and each draws all its blocks into one workspace of
    its own, kept for the run, so ``fn`` must not keep the block it is
    given (both callers return fresh arrays).
    """
    rows = min(_block_rows(n), reps)
    local = threading.local()

    def run(start: int):
        ws = getattr(local, "workspace", None)
        if ws is None:
            ws = local.workspace = _Workspace(spec, n, seed, rows)
        return fn(_draw_block(ws, start, min(rows, reps - start)))

    starts = range(0, reps, rows)
    threads = min(workers, len(starts), os.cpu_count() or 1)
    if threads <= 1:
        parts = [run(start) for start in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, starts))
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _statistics(
    spec: AlternativeSpec, kinds: Sequence[BaselineKind], n: int, reps: int,
    seed: int, workers: int,
) -> Dict[BaselineKind, np.ndarray]:
    """Each kind's statistic for every replication, in replication order."""
    return _map_blocks(
        spec, n, reps, seed, workers, lambda block: batch_statistics(block, kinds)
    )


def _upper_index(alpha: float, reps: int) -> int:
    """1-based order-statistic index ceil((1 - alpha) * reps), exactly."""
    frac = (1 - Fraction(str(float(alpha)))) * reps
    return int(math.ceil(frac))


def _null_critical_values(
    kinds: Sequence[BaselineKind], n: int, alphas: Sequence[float],
    reps: int, seed: int, workers: int,
) -> Dict[BaselineKind, Dict[float, float]]:
    """Per kind and level, order statistic ceil((1-alpha)*reps) of the rejection tail."""
    _check_run(n, reps, workers, min_reps=100)
    _check_kinds(n, kinds)
    if not alphas:
        raise ValueError("need at least one level")
    levels = {}  # order-statistic index -> level
    for a in alphas:
        _check_alpha(a)
        i = _upper_index(a, reps)
        if i in levels:
            raise ValueError(
                f"alpha = {levels[i]} and {a} both pick order statistic {i} of "
                f"reps = {reps}: give distinct levels, or more reps"
            )
        levels[i] = a
    out = {}
    for kind, values in _statistics(NULL_SPEC, kinds, n, reps, seed, workers).items():
        s = np.sort(values)
        s = s if REJECTION_TAIL[kind] == "upper" else s[::-1]
        # 0 < a < 1 puts the index in 1..reps
        out[kind] = {float(a): float(s[i - 1]) for i, a in levels.items()}
    return out


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
    kind = BaselineKind.TCVM
    crits = _null_critical_values([kind], n, alphas, reps, seed, workers)[kind]
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
    crits = _null_critical_values(list(kinds), n, [alpha], reps, seed, workers)
    return {kind: by_alpha[float(alpha)] for kind, by_alpha in crits.items()}


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
    _check_kinds(n, kinds)
    _check_alpha(alpha)
    missing = [k for k in kinds if k not in critical_values]
    if missing:
        raise ValueError(f"missing critical values for {missing}")
    # nan would reject nothing and -inf everything, each with stderr 0
    bad = {k.value: critical_values[k] for k in kinds if not math.isfinite(critical_values[k])}
    if bad:
        raise ValueError(f"critical values must be finite, got {bad}")

    rejects = {"upper": np.greater, "lower": np.less}
    stats = _statistics(spec, kinds, n, reps, seed, workers)
    hits = {k: rejects[REJECTION_TAIL[k]](stats[k], critical_values[k]) for k in kinds}
    rates = {k: np.count_nonzero(h) / reps for k, h in hits.items()}
    stderr = {k: math.sqrt(r * (1.0 - r) / reps) for k, r in rates.items()}
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
    tstar = _statistics(NULL_SPEC, [BaselineKind.TCVM], n, reps, seed, workers)
    centred = tstar[BaselineKind.TCVM] - d_n(n)
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


def _fourth_products(
    points: Sequence[Tuple[float, float]], block: np.ndarray
) -> Dict[int, np.ndarray]:
    """b_n^2(x) * b_n^2(y) for every row of ``block``, keyed by point index."""
    values = dict.fromkeys(v for pt in points for v in pt)  # each distinct value once
    sq = {v: b_n(block, v) ** 2 for v in values}
    return {j: sq[x] * sq[y] for j, (x, y) in enumerate(points)}


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
    if not pts:
        raise ValueError("need at least one moment point")
    if not all(math.isfinite(v) for pt in pts for v in pt):
        raise ValueError(f"moment points must be finite, got {pts}")
    prods = _map_blocks(NULL_SPEC, n, reps, seed, workers, partial(_fourth_products, pts))
    out = []
    for (x, y), prod in zip(pts, prods.values()):
        mean = float(prod.sum()) / reps
        var = max(float((prod * prod).sum()) / reps - mean * mean, 0.0)
        stderr = math.sqrt(var / reps)
        exact = fourth_moment_exact(MomentPoint.of(x, y), n)
        if stderr > 0:
            z = (mean - exact) / stderr
        else:  # every replication gave the same product
            z = 0.0 if mean == exact else math.copysign(math.inf, mean - exact)
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

