"""Empirical-process evaluation and exact moment formulas.

These are the cross-validation oracles for the Monte Carlo engine: the raw
and standardized empirical processes at a point, the variance of the
limiting bridge, the covariance of its squares, and the exact finite-n
fourth moment E(b_n^2(x) b_n^2(y)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .normal import cdf
from .statistic import _standardized_row

__all__ = [
    "MomentPoint",
    "b_n",
    "b_hat_n",
    "ebb2",
    "cov_b2",
    "fourth_moment_exact",
]


def _cdf(x):
    """Phi(x) at evaluation points, refused at nan; +-inf give Phi = 0 or 1 exactly."""
    p = cdf(x)
    if np.isnan(p).any():
        raise ValueError(f"evaluation points must not be nan, got {x}")
    return p


def b_n(values, x: float) -> float | np.ndarray:
    """Raw empirical process (#{X_i <= x} - n*Phi(x)) / sqrt(n).

    A float for one sample, one value per row of an (R, n) matrix, in the
    same bits.  The limiting covariance Phi(x^y)(1 - Phi(xvy)) presumes the
    values are standard-normal draws; the evaluation works for any sample.
    """
    if np.iscomplexobj(values):
        raise ValueError("sample is complex: its imaginary part would be dropped")
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] == 0:
        raise ValueError("b_n expects a non-empty sample or (R, n) matrix")
    n = v.shape[-1]
    out = (np.count_nonzero(v <= x, axis=-1) - n * _cdf(x)) / np.sqrt(n)
    return float(out) if v.ndim == 1 else out


def b_hat_n(values: Sequence[float], x: float) -> float:
    """Standardized empirical process: b_n applied to (X_i - mean)/S_n."""
    return b_n(_standardized_row(values)[0], x)


def ebb2(x) -> float:
    """Variance Phi(x)(1 - Phi(x)) of the limiting bridge at x."""
    out = _cdf(x) * cdf(-np.asarray(x, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class MomentPoint:
    """A pair of evaluation points carried as z = Phi(min), t = Phi(max)."""

    x: float
    y: float
    z: float
    t: float

    @classmethod
    def of(cls, x: float, y: float) -> "MomentPoint":
        lo, hi = (x, y) if x <= y else (y, x)
        return cls(x=lo, y=hi, z=float(_cdf(lo)), t=float(_cdf(hi)))


def cov_b2(p: MomentPoint) -> float:
    """Cov(b^2(x), b^2(y)) = 2*(z*(1-t))^2 for the limiting bridge."""
    return 2.0 * (p.z * (1.0 - p.t)) ** 2


def fourth_moment_exact(p: MomentPoint, n: int) -> float:
    """E(b_n^2(x) b_n^2(y)) for n iid standard-normal observations.

    The limit term z*t - t^2*z - 5*t*z^2 + 3*t^2*z^2 + 2*z^2 equals
    ebb2(x)*ebb2(y) + cov_b2, and the finite-n correction is
    z*(t-1)*(2t + 4z - 6tz - 1)/n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z, t = p.z, p.t
    limit = z * t - t * t * z - 5.0 * t * z * z + 3.0 * t * t * z * z + 2.0 * z * z
    correction = z * (t - 1.0) * (2.0 * t + 4.0 * z - 6.0 * t * z - 1.0) / n
    return limit + correction
