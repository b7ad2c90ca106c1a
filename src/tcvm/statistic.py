"""The truncated weighted goodness-of-fit statistic and the decision rule.

The statistic integrates the squared standardized empirical process against
1/phi over (-a_n, a_n) with a_n the (1 - 1/n) normal quantile.  Writing
Y_i = (X_i - mean)/S_n and N(x) = #{i : Y_i <= x},

    T = (1/n) * int_{-a_n}^{a_n} (N(x) - n*Phi(x))^2 / phi(x) dx.

Three evaluation routes are provided and tested against each other:

* ``compute_tstar``        - the stepwise form (delete, sort, grid, weight
                             integrals by adaptive quadrature, C_n in closed
                             form); returns all intermediates.
* ``compute_tstar_direct`` - direct adaptive quadrature of the defining
                             integral, split at the data points; the
                             independent cross-check for the stepwise form.
* ``compute_tstar_batch``  - vectorised closed-form route for Monte Carlo
                             work (one row per sample).

``compute_untruncated`` evaluates the same functional over the whole real
line; that variant is the "CVM" column of the power study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .normal import (
    LN2_OVER_2,
    c_n,
    cdf,
    cdf_over_pdf_antiderivative,
    cdf_sq_over_pdf_antiderivative,
    d_n,
    endpoint,
    int_cdf_over_pdf,
    int_recip_pdf,
    pdf,
    recip_and_cdf_over_pdf_antiderivatives,
    recip_pdf_antiderivative,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate
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
    "compute_tstar_batch",
    "compute_untruncated",
    "compute_untruncated_batch",
    "decide",
    "tcvm_test",
]

# erfi overflows for arguments beyond ~26.6; standardized data never get
# near this except for adversarial inputs to the untruncated variant
_MAX_ABS_Z = 26.0


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


def standardize(values: Sequence[float]) -> StandardizedSample:
    x = as_sample(values)
    mean = float(x.mean())
    s = float(x.std())  # divisor n
    if s == 0.0 or not math.isfinite(s):
        raise DegenerateSampleError("sample standard deviation is zero")
    return StandardizedSample(y=(x - mean) / s, mean=mean, s_n=s, n=x.size)


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


def compute_tstar_direct(
    values: Sequence[float], config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Direct quadrature of the defining integral over (-a_n, a_n).

    The integrand (N(x) - n*Phi(x))^2 / (n*phi(x)) is smooth between jumps
    of the empirical count N, so the integral is split at every standardized
    observation inside the interval.  Keeps an evaluation path that shares
    nothing with the stepwise weight-sum assembly.
    """
    x = as_sample(values)
    n = x.size
    std = standardize(x)
    a = endpoint(n).a_n
    y = np.sort(std.y)

    cuts = np.concatenate(([-a], y[(y > -a) & (y < a)], [a]))
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi <= lo:
            continue
        count = float(np.searchsorted(y, 0.5 * (lo + hi), side="right"))

        def integrand(t, count=count):
            return (count - n * cdf(t)) ** 2 / (n * pdf(t))

        total += integrate(integrand, float(lo), float(hi), config)
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


def _batch_standardize(samples: np.ndarray) -> np.ndarray:
    """Rowwise sorted standardized values for a (R, n) sample matrix."""
    return _standardize_sorted(np.sort(_sample_matrix(samples), axis=1))


def _tstar_from_psi_h(psi: np.ndarray, h: np.ndarray, a: float) -> np.ndarray:
    """Statistic from psi and H of the ascending rows clipped to [-a_n, a_n]."""
    n = psi.shape[1]
    odd = 2.0 * np.arange(1, n + 1) - 1.0
    sum_a = n * n * recip_pdf_antiderivative(a) - psi @ odd
    sum_b = n * cdf_over_pdf_antiderivative(a) - h.sum(axis=1)
    return sum_a / n - 2.0 * sum_b + c_n(n)


def _tstar_from_sorted_std(y: np.ndarray) -> np.ndarray:
    """Statistic kernel; rows must be standardized and ascending.

    Clips before evaluating psi and H, so it works for any n: unclipped
    values reach sqrt(n - 1), where erfi overflows and Q is not fitted.
    """
    a = endpoint(y.shape[1]).a_n
    psi, h = recip_and_cdf_over_pdf_antiderivatives(np.clip(y, -a, a))
    return _tstar_from_psi_h(psi, h, a)


def compute_tstar_batch(samples: np.ndarray) -> np.ndarray:
    """Vectorised statistic for a matrix of samples (one row each).

    Equivalent to ``compute_tstar`` row by row: observations outside
    [-a_n, a_n] collapse onto the endpoints, which reproduces the deletion
    step because the zero-width end intervals contribute nothing while the
    interior weights still count the collapsed points.
    """
    return _tstar_from_sorted_std(_batch_standardize(samples))


def _check_whole_line_range(y: np.ndarray) -> None:
    zmax = float(np.max(np.abs(y))) / math.sqrt(2.0)
    if zmax > _MAX_ABS_Z:
        raise ValueError(
            f"standardized observation too extreme (|y|max = {zmax * math.sqrt(2):.1f}); "
            "the whole-line statistic would overflow double precision"
        )


def _untruncated_from_psi_h(y: np.ndarray, psi: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Whole-line statistic from psi and H of the unclipped ascending rows."""
    n = y.shape[1]
    odd = 2.0 * np.arange(1, n) - 1.0
    sum_a = (n - 1) ** 2 * psi[:, -1] - psi[:, :-1] @ odd
    sum_b = (n - 1) * h[:, -1] - h[:, :-1].sum(axis=1)
    # Phi^2 pieces: interior n*(G(y_n) - G(y_1)) plus the finite tails
    # n*(G(y_1) + ln2/2) and n*(G(-y_n) + ln2/2) collapse to
    # n*(G(y_n) + G(-y_n) + ln 2)
    total_sq = n * (
        cdf_sq_over_pdf_antiderivative(y[:, -1])
        + cdf_sq_over_pdf_antiderivative(-y[:, -1])
        + 2.0 * LN2_OVER_2
    )
    return sum_a / n - 2.0 * sum_b + total_sq


def _untruncated_from_sorted_std(y: np.ndarray) -> np.ndarray:
    """Whole-line kernel; rows must be standardized and ascending."""
    _check_whole_line_range(y)
    return _untruncated_from_psi_h(y, *recip_and_cdf_over_pdf_antiderivatives(y))


def _tstar_and_untruncated_from_sorted_std(
    y: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Both kernels from one evaluation of psi and H on the unclipped rows.

    Entries at or beyond +-a_n take psi(+-a_n) and H(+-a_n), which is what
    clipping first gives, so each result equals its own kernel bit for bit.
    """
    _check_whole_line_range(y)
    a = endpoint(y.shape[1]).a_n
    psi, h = recip_and_cdf_over_pdf_antiderivatives(y)
    psi_end, h_end = recip_and_cdf_over_pdf_antiderivatives(np.array([-a, a]))
    below, above = y <= -a, y >= a
    psi_clip = np.where(below, psi_end[0], np.where(above, psi_end[1], psi))
    h_clip = np.where(below, h_end[0], np.where(above, h_end[1], h))
    return _tstar_from_psi_h(psi_clip, h_clip, a), _untruncated_from_psi_h(y, psi, h)


def compute_untruncated_batch(samples: np.ndarray) -> np.ndarray:
    """Vectorised whole-line variant of the statistic.

    Integrates (N(x) - n*Phi(x))^2/(n*phi(x)) over all of R: interior
    intervals use the closed-form antiderivatives, the two unbounded end
    pieces reduce to n * int Phi^2/phi tail integrals (each finite).
    """
    return _untruncated_from_sorted_std(_batch_standardize(samples))


def compute_untruncated(values: Sequence[float]) -> float:
    """Whole-line statistic for a single sample."""
    x = as_sample(values)
    return float(compute_untruncated_batch(x[np.newaxis, :])[0])


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
