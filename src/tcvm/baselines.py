"""Comparison statistics for the power study.

Five test kinds enter the comparison harness:

* ``TCVM`` - the truncated weighted statistic (upper-tail rejection);
* ``CVM``  - the same weighted functional integrated over the whole real
  line (upper tail).  This is what the published power column labelled CVM
  measures, not the classical quadratic EDF statistic;
* ``BCMR`` - the L2-Wasserstein distance-to-normality ratio (upper tail);
* ``AD``   - Anderson-Darling with estimated parameters (upper tail);
* ``SW``   - the normal-scores correlation statistic with plain m/||m||
  weights (lower tail), which is the variant the published power column
  tracks.  Royston's W is available separately as :func:`shapiro_wilk`,
  which calls ``scipy.stats.shapiro``.

All statistics are location-scale invariant, and all critical values are
obtained by simulation (never from published asymptotic tables), so the
rejection decisions are internally consistent.  The scalar AD, BCMR and
normal-scores functions are one-row calls of the batch kernels.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Dict, Iterable, Sequence

import numpy as np

from .normal import cdf, pdf, quantile
from .statistic import (
    _sample_matrix,
    _sorted_row,
    _sorted_rows,
    _standardize_sorted,
    _weighted_cvm,
)

__all__ = [
    "BaselineKind",
    "REJECTION_TAIL",
    "anderson_darling",
    "shapiro_wilk",
    "shapiro_francia",
    "bcmr",
    "batch_statistics",
]

_U_CLAMP = 1e-15
# values per pass of batch_statistics and of the engine's drawing, so that
# the temporaries of a pass stay in L2
_CHUNK_ELEMS = 1 << 15


class BaselineKind(enum.Enum):
    TCVM = "tcvm"
    CVM = "cvm"
    BCMR = "bcmr"
    AD = "ad"
    SW = "sw"

    @classmethod
    def parse(cls, name: str) -> "BaselineKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown test kind {name!r}; choose from {valid}") from None


# the kinds of the folded kernel: does the integral stop at +-a_n?
_TRUNCATED: Dict[BaselineKind, bool] = {BaselineKind.TCVM: True, BaselineKind.CVM: False}

# which tail of the null distribution rejects
REJECTION_TAIL: Dict[BaselineKind, str] = {
    BaselineKind.TCVM: "upper",
    BaselineKind.CVM: "upper",
    BaselineKind.BCMR: "upper",
    BaselineKind.AD: "upper",
    BaselineKind.SW: "lower",
}


@lru_cache(maxsize=None)
def _sf_weights(n: int) -> np.ndarray:
    """Normal scores m_i = quantile((i - 3/8)/(n + 1/4)), scaled to unit length."""
    m = quantile((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    return m / np.sqrt(float(m @ m))


@lru_cache(maxsize=None)
def _bcmr_weights(n: int) -> np.ndarray:
    """w_i = int_{(i-1)/n}^{i/n} of the normal quantile = phi drop across the block."""
    qs = pdf(quantile(np.arange(1, n) / n))
    w = np.empty(n)
    w[0] = -qs[0]
    w[1:-1] = qs[:-1] - qs[1:]
    w[-1] = qs[-1]
    return w


def shapiro_wilk(values: Sequence[float]) -> float:
    """Royston's W (3 <= n <= 5000), by ``scipy.stats.shapiro`` (AS R94)."""
    row = _sorted_row(values)
    if row.shape[1] > 5000:
        raise ValueError(f"n = {row.shape[1]} exceeds the supported range for W (<= 5000)")
    # imported here: at module level scipy.stats would more than double the
    # time and memory that ``import tcvm`` takes
    from scipy.stats import shapiro

    return float(shapiro(row[0]).statistic)


def anderson_darling(values: Sequence[float]) -> float:
    """A^2 with estimated mean and divisor-n scale (order-statistic form)."""
    return float(_batch_ad(_standardize_sorted(_sorted_row(values)))[0])


def shapiro_francia(values: Sequence[float]) -> float:
    """W' statistic: squared correlation with plain normalized normal scores."""
    return float(_batch_sw_like(_sorted_row(values))[0])


def bcmr(values: Sequence[float]) -> float:
    """Minimal L2-Wasserstein distance to the normal family over S_n^2.

    R = 1 - (sum X_(i) w_i)^2 / S_n^2 with exact block integrals of the
    normal quantile as weights; 0 <= R <= 1 and small values indicate a
    nearly normal quantile profile.
    """
    return float(_batch_bcmr(_sorted_row(values))[0])


# ---------------------------------------------------------------------------
# Vectorised kernels for the Monte Carlo engine.  Every row reduction is a
# multiply-then-sum along the row: unlike ``@`` (BLAS gemv groups rows) and
# ``einsum``, its rounding does not depend on the other rows of the array.
# ---------------------------------------------------------------------------


def _batch_ad(y_sorted: np.ndarray) -> np.ndarray:
    n = y_sorted.shape[1]
    u = np.clip(cdf(y_sorted), _U_CLAMP, 1.0 - _U_CLAMP)
    odd = 2.0 * np.arange(1, n + 1) - 1.0
    s = ((np.log(u) + np.log1p(-u[:, ::-1])) * odd).sum(axis=1)
    return -n - s / n


def _batch_sw_like(x_sorted: np.ndarray) -> np.ndarray:
    ssq = np.sum(
        (x_sorted - x_sorted.mean(axis=1, keepdims=True)) ** 2, axis=1
    )
    return (x_sorted * _sf_weights(x_sorted.shape[1])).sum(axis=1) ** 2 / ssq


def _batch_bcmr(x_sorted: np.ndarray) -> np.ndarray:
    n = x_sorted.shape[1]
    var = x_sorted.var(axis=1)
    return 1.0 - (x_sorted * _bcmr_weights(n)).sum(axis=1) ** 2 / var


def batch_statistics(
    samples: np.ndarray, kinds: Iterable[BaselineKind]
) -> Dict[BaselineKind, np.ndarray]:
    """Evaluate several test statistics on a (replications, n) matrix.

    Sorting and standardization are shared across kinds, which is also what
    makes common-random-number power comparisons cheap.  TCVM and CVM come
    from one call of the folded kernel, which evaluates psi and H once.

    The rows go through in slices of at most ``_CHUNK_ELEMS`` values, so
    that the temporaries stay in cache: each slice is sorted and scaled by
    ``_sorted_rows``, as a scalar sample is (so a constant row raises
    ``DegenerateSampleError`` whatever the kinds), standardized and run
    through every requested kernel before the next slice starts.  Every
    reduction runs along one row alone, so a row's results have the same
    bits however the rows are split: they do not depend on the slice, on
    the engine's block size or on its worker count.
    """
    kinds = list(kinds)
    x = _sample_matrix(samples)
    folded = [k for k in kinds if k in _TRUNCATED]
    flags = [_TRUNCATED[k] for k in folded]
    need_std = bool(folded) or BaselineKind.AD in kinds
    out = {kind: np.empty(x.shape[0]) for kind in kinds}
    rows = max(1, _CHUNK_ELEMS // x.shape[1])
    for first in range(0, x.shape[0], rows):
        part = slice(first, first + rows)
        x_sorted = _sorted_rows(x[part])
        y_sorted = _standardize_sorted(x_sorted) if need_std else None
        if folded:
            for kind, values in zip(folded, _weighted_cvm(y_sorted, flags)):
                out[kind][part] = values
        for kind in kinds:
            if kind is BaselineKind.AD:
                out[kind][part] = _batch_ad(y_sorted)
            elif kind is BaselineKind.SW:
                out[kind][part] = _batch_sw_like(x_sorted)
            elif kind is BaselineKind.BCMR:
                out[kind][part] = _batch_bcmr(x_sorted)
    return out
