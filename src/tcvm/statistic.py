"""The truncated weighted goodness-of-fit statistic and the decision rule.

The statistic integrates the squared standardized empirical process against
1/phi over (-a_n, a_n) with a_n the (1 - 1/n) normal quantile.  Writing
Y_i = (X_i - mean)/S_n and N(x) = #{i : Y_i <= x},

    T = (1/n) * int_{-a_n}^{a_n} (N(x) - n*Phi(x))^2 / phi(x) dx.

Two production routes and one test oracle:

* ``compute_tstar``        - the stepwise form behind ``tcvm_test`` (delete,
                             sort, grid, weight integrals by adaptive
                             quadrature, C_n in closed form); returns all
                             intermediates.
* ``_weighted_cvm``        - the folded closed-form kernel behind
                             ``batch_statistics`` (one row per sample).
* ``compute_tstar_direct`` - the oracle: ``scipy.integrate.quad`` of the
                             defining integral, split at the data points.
                             It shares no integrator with either route, and
                             loads scipy.integrate only when first called.

The same functional over the whole real line, ``compute_untruncated``, is
the "CVM" column of the power study: it differs only in the endpoint,
infinity instead of a_n.  The folded kernel splits the integral at 0 and
reflects the right half onto the left, so that every observation
contributes a bounded closed-form term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .normal import (
    LN2_OVER_2,
    SQRT_2PI,
    c_n,
    cdf_sq_over_pdf_antiderivative,
    d_n,
    endpoint,
    int_cdf_over_pdf,
    int_recip_pdf,
    recip_and_cdf_over_pdf_antiderivatives,
)
from .table import CriticalValueTable, embedded_table

__all__ = [
    "DegenerateSampleError",
    "StandardizedSample",
    "TcvmResult",
    "TestOutcome",
    "as_sample",
    "standardize",
    "compute_tstar",
    "compute_tstar_direct",
    "compute_untruncated",
    "decide",
    "tcvm_test",
]

_SQRT2 = math.sqrt(2.0)
# erfi(|y|/sqrt(2)) overflows for |y| beyond ~37.6; the whole-line statistic
# of a row reaching past this is +inf
_MAX_ABS_Y = 26.0 * _SQRT2


class DegenerateSampleError(ValueError):
    """All observations equal: the sample cannot be standardized."""


def as_sample(values: Sequence[float]) -> np.ndarray:
    """Validate and return a sample as a 1-d float array (n >= 3, finite)."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"sample must be one-dimensional, got shape {x.shape}")
    if x.size < 3:
        raise ValueError(f"sample needs at least 3 observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    return x


@dataclass(frozen=True)
class StandardizedSample:
    """Observations centred by the mean and scaled by the divisor-n SD."""

    y: np.ndarray
    mean: float
    s_n: float
    n: int


def _scaled(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(x * 2**-e, e) row by row: max|x| < 2**e <= 2 * max|x| in each row.

    Rows run along the last axis, and e keeps that axis with length 1.  The
    scaling is exact, so squares and sums of the result cannot overflow and
    carry the same bits as those of x wherever those do not overflow.
    """
    e = np.frexp(np.max(np.abs(x), axis=-1, keepdims=True))[1]
    return np.ldexp(x, -e), e


def _sorted_row(values: Sequence[float]) -> np.ndarray:
    """A validated, non-constant sample as one ascending row, shape (1, n).

    Scaled by a power of two, so that its squares cannot overflow.
    """
    xs = np.sort(as_sample(values))
    if xs[0] == xs[-1]:
        raise DegenerateSampleError("sample is constant")
    return _scaled(xs[np.newaxis, :])[0]


def standardize(values: Sequence[float]) -> StandardizedSample:
    x, e = _scaled(as_sample(values))
    e = int(e[0])
    mean = float(x.mean())
    s = float(x.std())  # divisor n
    if s == 0.0:
        raise DegenerateSampleError("sample standard deviation is zero")
    return StandardizedSample(
        y=(x - mean) / s, mean=math.ldexp(mean, e), s_n=math.ldexp(s, e), n=x.size
    )


@dataclass(frozen=True)
class TcvmResult:
    """Statistic value with the intermediates of the stepwise evaluation."""

    t_star: float
    t_centered: float
    n: int
    a_n: float
    c_n: float
    k: int
    m: int
    tilde_y: np.ndarray
    a: np.ndarray
    b: np.ndarray


def compute_tstar(values: Sequence[float]) -> TcvmResult:
    """Stepwise evaluation of the truncated statistic.

    Deletes observations at or beyond mean +- a_n * S_n, grids the retained
    standardized order statistics between -a_n and a_n, computes the weight
    integrals A_j, B_j by adaptive quadrature and assembles

        T = (1/n) sum (j+k)^2 A_j - 2 sum (j+k) B_j + C_n.
    """
    x = as_sample(values)
    n = x.size
    std = standardize(x)
    a = endpoint(n).a_n

    lower = std.mean - a * std.s_n
    upper = std.mean + a * std.s_n
    k = int(np.count_nonzero(x <= lower))
    retained = np.sort(x[(x > lower) & (x < upper)], kind="stable")
    m = retained.size

    tilde_y = np.empty(m + 2)
    tilde_y[0] = -a
    tilde_y[-1] = a
    tilde_y[1:-1] = np.clip((retained - std.mean) / std.s_n, -a, a)

    a_int = np.empty(m + 1)
    b_int = np.empty(m + 1)
    for j in range(m + 1):
        a_int[j] = int_recip_pdf(tilde_y[j], tilde_y[j + 1])
        b_int[j] = int_cdf_over_pdf(tilde_y[j], tilde_y[j + 1])

    weights = np.arange(m + 1, dtype=float) + k
    cn = c_n(n)
    t_star = float(weights**2 @ a_int / n - 2.0 * weights @ b_int + cn)
    t_centered = t_star - d_n(n)
    return TcvmResult(
        t_star=t_star,
        t_centered=t_centered,
        n=n,
        a_n=a,
        c_n=cn,
        k=k,
        m=m,
        tilde_y=tilde_y,
        a=a_int,
        b=b_int,
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

    x = as_sample(values)
    n = x.size
    std = standardize(x)
    a = endpoint(n).a_n
    y = np.sort(std.y)

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


def _sample_matrix(samples: np.ndarray) -> np.ndarray:
    """Validate a (R, n) sample matrix: n >= 3 and every value finite."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a (replications, n) matrix, got shape {x.shape}")
    if x.shape[1] < 3:
        raise ValueError("samples need at least 3 observations")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite values")
    return x


def _standardize_sorted(x_sorted: np.ndarray) -> np.ndarray:
    """Rowwise standardized values of a matrix whose rows are ascending.

    Reduces over the sorted rows, so every caller feeding the same multiset
    of values per row gets bit-identical output.
    """
    mean = x_sorted.mean(axis=1, keepdims=True)
    s = x_sorted.std(axis=1, keepdims=True)
    if np.any(s == 0.0):
        raise DegenerateSampleError("at least one sample is constant")
    return (x_sorted - mean) / s


def _weighted_cvm(y: np.ndarray, truncated: Sequence[bool]) -> List[np.ndarray]:
    """The folded kernel: one statistic per flag, from one psi/H evaluation.

    Rows must be standardized and ascending.  A true flag integrates over
    (-a_n, a_n) (TCVM), a false one over the whole line (CVM).  Folding at 0
    reflects the right half onto the left: y_i goes to -|y_i|, and its
    count there is its rank j_i among the points of its sign, counted from
    the outside in (j_i = i for y_i < 0, n + 1 - i otherwise).  With
    v_i = max(-|y_i|, -a) and psi, H, G anchored at 0,

        T = -(1/n) sum (2 j_i - 1) psi(v_i) + 2 sum H(v_i) - 2n G(-a),

    with G(-inf) = -ln(2)/2.  Each point contributes O(1), so the error
    grows like eps * n rather than with the O(n^2) terms of the unfolded
    sums.  When every flag truncates, psi and H are evaluated at
    max(-|y|, -a_n), which keeps erfi and Q in range for any n; otherwise
    at max(-|y|, -_MAX_ABS_Y), with psi(-a_n), H(-a_n) put in below -a_n
    for the truncated results, which is the same function, and the
    whole-line result of a row that reaches past _MAX_ABS_Y is +inf.
    """
    n = y.shape[1]
    a = endpoint(n).a_n
    v = np.abs(y)
    clipped = all(truncated)
    if not clipped:
        overflow = v.max(axis=1) > _MAX_ABS_Y
    np.minimum(v, a if clipped else _MAX_ABS_Y, out=v)
    np.negative(v, out=v)
    psi, h = recip_and_cdf_over_pdf_antiderivatives(v)
    i = np.arange(1, n + 1, dtype=float)
    odd = np.where(y < 0.0, 2.0 * i - 1.0, 2.0 * (n - i) + 1.0)
    out = []
    for trunc in truncated:
        p, q = psi, h
        if trunc and not clipped:
            psi_a, h_a = recip_and_cdf_over_pdf_antiderivatives(-a)
            beyond = v < -a
            p, q = np.where(beyond, psi_a, psi), np.where(beyond, h_a, h)
        g = cdf_sq_over_pdf_antiderivative(-a) if trunc else -LN2_OVER_2
        t = 2.0 * q.sum(axis=1) - (odd * p).sum(axis=1) / n - 2.0 * n * g
        out.append(t if trunc else np.where(overflow, np.inf, t))
    return out


def compute_untruncated(values: Sequence[float]) -> float:
    """Whole-line statistic of one sample; +inf past the range of erfi.

    Integrates (N(x) - n*Phi(x))^2/(n*phi(x)) over all of R; folded, the
    two unbounded end pieces leave the constant n*ln(2).
    """
    y = _standardize_sorted(_sorted_row(values))
    return float(_weighted_cvm(y, [False])[0][0])


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

    Rejection requires a strictly greater statistic; equality accepts.
    """
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
    result = compute_tstar(values)
    outcome = decide(result.t_star, result.n, alpha, table)
    return outcome, result
