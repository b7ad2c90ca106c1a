"""The truncated weighted goodness-of-fit statistic and the decision rule.

The statistic integrates the squared standardized empirical process against
1/phi over (-a_n, a_n) with a_n the (1 - 1/n) normal quantile.  Writing
Y_i = (X_i - mean)/S_n and N(x) = #{i : Y_i <= x},

    T = (1/n) * int_{-a_n}^{a_n} (N(x) - n*Phi(x))^2 / phi(x) dx.

Every route takes its Y from ``_standardize_sorted`` of ``_sorted_rows``,
the one place that sorts and scales a validated sample and refuses a
constant one; ``_standardized_row`` is that pair for one sample.  Two
production routes and one test oracle:

* ``compute_tstar``        - the stepwise form behind ``tcvm_test`` and
                             ``tcvm test``: delete, grid, psi and H at both
                             bounds of each interval (``normal._psi_h``) and
                             C_n in closed form; returns the counts k, m.
* ``_weighted_cvm``        - the folded closed-form kernel behind
                             ``batch_statistics``: TCVM and CVM per row.
* ``compute_tstar_direct`` - the oracle: ``scipy.integrate.quad`` of the
                             defining integral, split at the data points.
                             The package's only numerical integration; it
                             loads scipy.integrate only when first called.

The whole-line functional, ``compute_untruncated``, is the "CVM" column;
the folded kernel and AD weight each point by its rank in its smaller tail.
Every route reduces by README's rule: multiply, then numpy ``sum``, no BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .normal import (
    LN2_OVER_2,
    SQRT_2PI,
    _endpoint_terms,
    _folded_neg_psi_h,
    _psi_h,
    c_n,
    d_n,
    endpoint,
)
from .table import CriticalValueTable, embedded_table

__all__ = [
    "DegenerateSampleError",
    "TcvmResult",
    "TestOutcome",
    "compute_tstar",
    "compute_tstar_direct",
    "compute_untruncated",
    "decide",
    "tcvm_test",
]

_SQRT2 = math.sqrt(2.0)
# psi's factor exp(y^2/2) overflows for |y| beyond ~37.7; the whole-line
# statistic of a row reaching past this is +inf
_MAX_ABS_Y = 26.0 * _SQRT2


class DegenerateSampleError(ValueError):
    """All observations equal: the sample cannot be standardized."""


def _sample_matrix(samples: np.ndarray) -> np.ndarray:
    """Validate a (R, n) sample matrix: real, n >= 3 and every value finite."""
    if np.iscomplexobj(samples):
        raise ValueError("sample is complex: its imaginary part would be dropped")
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a (replications, n) matrix, got shape {x.shape}")
    if x.shape[1] < 3:
        raise ValueError(f"a sample needs at least 3 observations, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    return x


def _sorted_rows(x: np.ndarray) -> np.ndarray:
    """The rows of a validated matrix sorted, each scaled by a power of two.

    Row by row, max|x| < 2**e <= 2 * max|x| with max|x| read off the sorted
    ends, and the row is multiplied by 2**-e.  The scaling is exact, so
    squares and sums of the result cannot overflow and carry the same bits
    as those of x wherever those do not overflow.  The one place a constant
    sample is refused: a row that is not constant has a nonzero divisor-n SD
    once scaled, so every statistic is defined.
    """
    xs = np.sort(x, axis=1)
    ends = np.maximum(np.abs(xs[:, :1]), np.abs(xs[:, -1:]))
    np.ldexp(xs, -np.frexp(ends)[1], out=xs)
    if np.any(xs[:, 0] == xs[:, -1]):
        raise DegenerateSampleError("sample is constant")
    return xs


def _sample_row(values: Sequence[float]) -> np.ndarray:
    """A validated one-dimensional sample as a one-row matrix, shape (1, n)."""
    if np.iscomplexobj(values):
        raise ValueError("sample is complex: its imaginary part would be dropped")
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"sample must be one-dimensional, got shape {x.shape}")
    return _sample_matrix(x[np.newaxis, :])


def _standardize_sorted(x_sorted: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rowwise (y, ssq): y = (x - mean)/S_n, divisor n, and ssq = sum (x - mean)^2.

    The one moments pass over rows from ``_sorted_rows``: d = x - mean,
    ssq = sum d*d and y = d / sqrt(ssq/n), written into d.  These are the
    operations of numpy's ``std``, ``var`` and ``sum((x - mean)**2)``, so SW
    (divided by ssq) and BCMR (divided by ssq/n) need no pass of their own.
    Reduces over the sorted rows, so every caller feeding the same multiset
    of values per row gets bit-identical output.
    """
    d = x_sorted - x_sorted.mean(axis=1, keepdims=True)
    ssq = (d * d).sum(axis=1, keepdims=True)
    d /= np.sqrt(ssq / x_sorted.shape[1])
    return d, ssq[:, 0]


def _standardized_row(values: Sequence[float]) -> np.ndarray:
    """A validated, non-constant sample standardized and sorted, shape (1, n)."""
    return _standardize_sorted(_sorted_rows(_sample_row(values)))[0]


@dataclass(frozen=True)
class TcvmResult:
    """Statistic value with the counts of the stepwise evaluation."""

    t_star: float
    t_centered: float
    n: int
    a_n: float
    c_n: float
    k: int
    m: int


def compute_tstar(values: Sequence[float]) -> TcvmResult:
    """Stepwise evaluation of the truncated statistic.

    Deletes the k standardized observations at or below -a_n and those at
    or above a_n, grids the m retained ones between -a_n and a_n, takes the
    weight integrals A_j, B_j as differences of psi and H (``normal._psi_h``,
    one lookup per interval) and assembles

        T = (1/n) sum (j+k)^2 A_j - 2 sum (j+k) B_j + C_n.
    """
    return _stepwise_tstar(_standardized_row(values)[0])


def _stepwise_tstar(y: np.ndarray) -> TcvmResult:
    """``compute_tstar`` of a standardized, ascending sample."""
    n = y.size
    a = _endpoint_terms(n)[0]
    k, hi = int(np.searchsorted(y, -a, "right")), int(np.searchsorted(y, a, "left"))
    grid = np.concatenate(([-a], y[k:hi], [a]))
    m = hi - k

    psi, h = np.empty((2, m + 1, 2))  # at both bounds of each interval
    u = np.abs(grid) / _SQRT2
    for j in range(m + 1):  # unchecked: |x| <= a_n <= 5.33 for every n <= 10^7
        psi[j], h[j] = _psi_h(grid[j : j + 2], u[j : j + 2])
    a_int, b_int = psi[:, 1] - psi[:, 0], h[:, 1] - h[:, 0]

    weights = np.arange(m + 1, dtype=float) + k
    cn = c_n(n)
    t_star = float((weights**2 * a_int).sum() / n - 2.0 * (weights * b_int).sum() + cn)
    return TcvmResult(
        t_star=t_star, t_centered=t_star - d_n(n), n=n, a_n=a, c_n=cn, k=k, m=m
    )


def compute_tstar_direct(values: Sequence[float]) -> float:
    """Direct quadrature of the defining integral over (-a_n, a_n).

    The integrand (N(x) - n*Phi(x))^2 / (n*phi(x)) is smooth between jumps
    of the empirical count N, so the integral is split at every standardized
    observation inside the interval and each piece goes to
    ``scipy.integrate.quad``.  A piece that does not converge raises
    ``IntegrationWarning`` as an error.  The independent cross-check for
    ``compute_tstar`` and the folded kernel.
    """
    import warnings

    from scipy import integrate

    y = _standardized_row(values)[0]
    n = y.size
    a = endpoint(n).a_n

    def integrand(t: float, count: float) -> float:
        gap = count - 0.5 * n * math.erfc(-t / _SQRT2)  # N - n*Phi(t)
        return gap * gap * SQRT_2PI * math.exp(0.5 * t * t) / n

    cuts = np.concatenate(([-a], y[(y > -a) & (y < a)], [a]))
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            if hi <= lo:
                continue
            count = float(np.searchsorted(y, 0.5 * (lo + hi), side="right"))
            total += integrate.quad(integrand, lo, hi, args=(count,), epsabs=1e-12, epsrel=1e-10)[0]
    return total


# n kept per weight cache: the rank weights of every n in 10..10^4 take 763 MiB
_WEIGHT_CACHE_SIZE = 32


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def _rank_weights(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(2i - 1, 2(n - i) + 1) for i = 1..n, read-only: the odd weights of
    the order statistics counted from the left and from the right."""
    i = np.arange(1, n + 1, dtype=float)
    left, right = 2.0 * i - 1.0, 2.0 * (n - i) + 1.0
    left.flags.writeable = right.flags.writeable = False
    return left, right


def _weighted_cvm(y: np.ndarray, odd: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The folded kernel: (TCVM, CVM) per row, from one psi/H evaluation.

    Rows must be standardized and ascending.  Folding at 0 reflects the
    right half onto the left: y_i goes to -|y_i|, and its count there is its
    rank j_i among the points of its sign, counted from the outside in
    (j_i = i for y_i < 0, n + 1 - i otherwise).  With ``odd`` = 2 j_i - 1
    (AD's weights too), v_i = max(-|y_i|, -a) and psi, H, G anchored at 0,

        T = -(1/n) sum odd_i psi(v_i) + 2 sum H(v_i) - 2n G(-a),

    a = a_n for TCVM and a = inf, G(-inf) = -ln(2)/2, for CVM.  Each point
    contributes O(1), so the error grows like eps * n, not with the O(n^2)
    terms of the unfolded sums.  -psi and -H come from
    ``normal._folded_neg_psi_h`` at |y|/sqrt(2), |y| clipped at _MAX_ABS_Y,
    and the sums take the signs back (negation is exact).  CVM comes first,
    +inf for a row reaching past _MAX_ABS_Y; then psi(-a_n), H(-a_n) from
    ``normal._endpoint_terms`` go in below -a_n and the same sums give TCVM.
    """
    n = y.shape[1]
    a, psi_a, h_a, g_a = _endpoint_terms(n)
    v = np.abs(y)  # -v is the folded point
    np.minimum(v, _MAX_ABS_Y, out=v)
    beyond = v > a
    v /= _SQRT2
    p, s = _folded_neg_psi_h(v)

    def total(g: float) -> np.ndarray:
        return (odd * p).sum(axis=1) / n - 2.0 * s.sum(axis=1) - 2.0 * n * g

    cvm = total(-LN2_OVER_2)
    cvm[np.maximum(np.abs(y[:, 0]), np.abs(y[:, -1])) > _MAX_ABS_Y] = np.inf
    np.copyto(p, -psi_a, where=beyond)
    np.copyto(s, -h_a, where=beyond)
    return total(g_a), cvm


def compute_untruncated(values: Sequence[float]) -> float:
    """Whole-line statistic of one sample; +inf past the range of exp(y^2/2).

    Integrates (N(x) - n*Phi(x))^2/(n*phi(x)) over all of R; folded, the
    two unbounded end pieces leave the constant n*ln(2).
    """
    y = _standardized_row(values)
    return float(_weighted_cvm(y, np.where(y < 0.0, *_rank_weights(y.shape[1])))[1][0])


@dataclass(frozen=True)
class TestOutcome:
    """Result of comparing the statistic against a critical value."""

    statistic: float
    critical_value: float
    reject: bool
    alpha: float
    n: int
    interpolated: bool


def decide(
    statistic: float,
    n: int,
    alpha: float,
    table: Optional[CriticalValueTable] = None,
) -> TestOutcome:
    """Compare a statistic value with the tabulated critical value.

    Rejection requires a strictly greater statistic; equality accepts; nan raises.
    """
    if math.isnan(statistic):
        raise ValueError("the statistic is nan: no critical value can decide it")
    tab = table if table is not None else embedded_table()
    crit, interpolated = tab.critical_value(n, alpha)
    return TestOutcome(
        statistic=float(statistic),
        critical_value=crit,
        reject=bool(statistic > crit),
        alpha=float(alpha),
        n=n,
        interpolated=interpolated,
    )


def tcvm_test(
    values: Sequence[float],
    alpha: float = 0.05,
    table: Optional[CriticalValueTable] = None,
) -> Tuple[TestOutcome, TcvmResult]:
    """Run the normality test on a sample at the given significance level.

    Returns the decision plus the full statistic breakdown.
    """
    y = _standardized_row(values)[0]
    tab = table if table is not None else embedded_table()
    tab.critical_value(y.size, alpha)  # refuses an uncovered n before the per-interval loop
    result = _stepwise_tstar(y)
    return decide(result.t_star, result.n, alpha, tab), result
