"""Span recording, provenance and summary statistics for the benchmark."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Sequence

import numpy as np


class Tracer:
    """In-memory spans recorded around calls into the package's layers.

    Each span keeps its name, its parent and its start and end times.  A
    span's self time is its duration minus the time its child spans cover.
    Counters record exact counts at the same boundaries.
    """

    def __init__(self) -> None:
        self._spans: List[list] = []  # [name, parent index, start, end]
        self._stack: List[int] = []
        self.counters: Dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        index = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self._spans[index][3] = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        out: Dict[str, float] = {}
        for name, parent, start, end in self._spans:
            out[name] = out.get(name, 0.0) + (end - start)
            if parent >= 0:
                pname = self._spans[parent][0]
                out[pname] = out.get(pname, 0.0) - (end - start)
        return out

    def totals(self) -> Dict[str, float]:
        """Seconds of inclusive time per span name."""
        out: Dict[str, float] = {}
        for name, _parent, start, end in self._spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name, *_rest in self._spans:
            out[name] = out.get(name, 0) + 1
        return out


class SpeedProbe:
    """Tracks the machine's speed with a fixed computation that shares no code
    with tcvm.

    Shared hosts can change speed by a third within seconds.  The probe (about
    12 ms of Python loops, Philox streams, sorting and special functions, like
    the workloads) runs twice between calls, at most every ``every`` seconds.  A
    call's wall time times ``scale`` is its time at nominal machine speed.
    """

    NOMINAL_S = 12e-3  # the probe's time on the machine that defined the benchmark

    def __init__(self, every: float = 0.5) -> None:
        self.every = every
        rng = np.random.default_rng(12345)
        self._small = rng.standard_normal(20_000)
        self._large = rng.standard_normal(200_000)
        self.times: List[float] = []  # probe midpoints
        self.seconds: List[float] = []  # probe durations
        self._work()  # first-call costs stay out of the samples

    def _work(self) -> float:
        from scipy import special

        s = 0.0
        for _ in range(8):
            for i in range(4000):
                s += i * 0.5
            y = np.sort(self._small)
            s += float(special.erfc(y).sum() + np.log1p(np.abs(y)).sum())
        gens = [np.random.Generator(np.random.Philox(key=[i, 7])) for i in range(120)]
        block = np.empty((120, 64))
        for i, g in enumerate(gens):
            block[i] = g.standard_normal(64)
        y = np.sort(block, axis=1)
        s += float(special.erfi(y / 4).sum() + special.ndtr(y).sum())
        return s + float(np.exp(-0.5 * self._large * self._large).sum())

    def measure(self) -> None:
        """Time the probe twice and keep the faster: the first run refills
        the caches that the previous call evicted."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            self._work()
            t1 = time.perf_counter()
            best = min(best, t1 - t0)
        self.times.append(t1 - 0.5 * best)
        self.seconds.append(best)

    def maybe(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.every:
            self.measure()

    def scale(self, midpoint: float) -> float:
        """Factor that converts the wall time of a call centred on
        ``midpoint`` to nominal speed."""
        return self.NOMINAL_S / float(np.interp(midpoint, self.times, self.seconds))


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> Dict[str, str]:
    out = {"l2": "unknown", "l3": "unknown"}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        level = _read(os.path.join(base, entry, "level"))
        if level in ("2", "3"):
            out["l" + level] = _read(os.path.join(base, entry, "size")) or "unknown"
    return out


def git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def provenance() -> Dict[str, object]:
    """Machine, library and source versions for a result record."""
    import numpy
    import scipy
    import tcvm

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tcvm": getattr(tcvm, "__version__", "unknown"),
        "git_commit": git_commit(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "argv": sys.argv[1:],
    }
