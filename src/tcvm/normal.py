"""Standard-normal kernel: density, distribution, quantile, truncation
endpoint, and the weight integrals against 1/phi.

Everything downstream integrates combinations of 1/phi(x), Phi(x)/phi(x)
and Phi(x)^2/phi(x).  Two routes are provided:

* adaptive Gauss-Kronrod quadrature (``int_recip_pdf``, ``int_cdf_over_pdf``,
  ``c_n``, ``d_n``), the reference implementations used by the scalar
  statistic and the test oracles;
* closed-form antiderivatives built from erfi/erf plus two well-conditioned
  auxiliary integrals (``recip_pdf_antiderivative`` and friends), which power
  the vectorised Monte Carlo path.  Their derivations:

      d/dx [ pi*erfi(x/sqrt(2)) ]                        = 1/phi(x)
      d/dx [ (pi/2)*erfi(z)(1+erf(z)) - sqrt(pi)*Q(|z|) ] = Phi(x)/phi(x)
      d/dx [ (pi/4)*erfi(z)(1+erf(z))^2
             - sqrt(pi)*(Q(|z|) + sgn(z)*Q2(|z|)) ]      = Phi(x)^2/phi(x)

  with z = x/sqrt(2), Q(u) = int_0^u exp(-t^2) erfi(t) dt and
  Q2(u) = int_0^u erf(t) erfi(t) exp(-t^2) dt.  Q and Q2 grow only
  logarithmically, so Chebyshev fits give them uniform absolute accuracy and
  the huge exp(x^2/2) factors live entirely in erfi, which scipy evaluates
  with full relative precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy import special as _sp

from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate

__all__ = [
    "SQRT_2PI",
    "LN2_OVER_2",
    "Endpoint",
    "pdf",
    "cdf",
    "quantile",
    "endpoint",
    "int_recip_pdf",
    "int_cdf_over_pdf",
    "c_n",
    "d_n",
    "recip_pdf_antiderivative",
    "cdf_over_pdf_antiderivative",
    "recip_and_cdf_over_pdf_antiderivatives",
    "cdf_sq_over_pdf_antiderivative",
    "upper_tail_sq_integral",
    "interval_weights",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)

# int_{-inf}^{0} Phi^2/phi dx; also int_x^inf (1-Phi)^2/phi at x = 0.
LN2_OVER_2 = 0.5 * math.log(2.0)

MAX_ENDPOINT_N = 10**7  # keeps exp(a_n^2/2) comfortably inside float64


def pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / SQRT_2PI
    return float(out) if out.ndim == 0 else out


def cdf(x):
    """Standard normal distribution function (erfc-based, full precision)."""
    out = _sp.ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


# Acklam's rational approximation to the normal quantile (~1.15e-9 relative),
# refined below with one Newton step using cdf/pdf.
_ACK_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ACK_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ACK_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ACK_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425


def _acklam(p: np.ndarray) -> np.ndarray:
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    x = np.empty_like(p)

    lower = p < _P_LOW
    upper = p > 1.0 - _P_LOW
    central = ~(lower | upper)

    if np.any(central):
        q = p[central] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        x[central] = num * q / den

    for mask, sign in ((lower, 1.0), (upper, -1.0)):
        if np.any(mask):
            tail_p = p[mask] if sign > 0 else 1.0 - p[mask]
            q = np.sqrt(-2.0 * np.log(tail_p))
            num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
            den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
            x[mask] = sign * num / den

    return x


def quantile(p):
    """Standard normal quantile for p in (0, 1).

    Rational initial approximation plus one Newton refinement; the round
    trip |cdf(quantile(p)) - p| stays below 1e-13 across (0, 1).
    """
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)) or not np.all(np.isfinite(arr)):
        raise ValueError("quantile requires probabilities strictly inside (0, 1)")
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    x = _acklam(flat.copy())
    # one Newton step: x <- x - (cdf(x) - p)/pdf(x); skipped where 1/pdf
    # would overflow (|x| > 37), where the rational value already carries
    # more relative accuracy than the probability can express
    safe = np.abs(x) < 37.0
    x[safe] -= (_sp.ndtr(x[safe]) - flat[safe]) * SQRT_2PI * np.exp(0.5 * x[safe] ** 2)
    return float(x[0]) if scalar else x.reshape(arr.shape)


@dataclass(frozen=True)
class Endpoint:
    """Truncation endpoint a_n = quantile(1 - 1/n) for sample size n."""

    n: int
    a_n: float


def endpoint(n: int) -> Endpoint:
    """Endpoint of the integration interval for sample size ``n``."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"n must be an integer, got {type(n).__name__}")
    if n < 2:
        raise ValueError(f"endpoint requires n >= 2, got {n}")
    if n > MAX_ENDPOINT_N:
        raise ValueError(
            f"n = {n} exceeds the supported maximum {MAX_ENDPOINT_N} "
            "(exp(a_n^2/2) would lose accuracy in double precision)"
        )
    n = int(n)
    return Endpoint(n=n, a_n=0.0 if n == 2 else quantile(1.0 - 1.0 / n))


def _check_bounds(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bounds must be finite, got [{lo}, {hi}]")
    if lo > hi:
        raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")


def int_recip_pdf(lo: float, hi: float, config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """A-integral: int_lo^hi dx / phi(x), by adaptive quadrature."""
    _check_bounds(lo, hi)
    return integrate(lambda x: SQRT_2PI * np.exp(0.5 * x * x), lo, hi, config)


def int_cdf_over_pdf(lo: float, hi: float, config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """B-integral: int_lo^hi Phi(x)/phi(x) dx, by adaptive quadrature."""
    _check_bounds(lo, hi)
    return integrate(
        lambda x: _sp.ndtr(x) * SQRT_2PI * np.exp(0.5 * x * x), lo, hi, config
    )


@lru_cache(maxsize=None)
def c_n(n: int, config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """C_n = n * int_{-a_n}^{a_n} Phi^2(x)/phi(x) dx."""
    a = endpoint(n).a_n
    val = integrate(
        lambda x: _sp.ndtr(x) ** 2 * SQRT_2PI * np.exp(0.5 * x * x), -a, a, config
    )
    return n * val


@lru_cache(maxsize=None)
def d_n(n: int, config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """D_n = int_{-a_n}^{a_n} Phi(x)(1 - Phi(x))/phi(x) dx."""
    a = endpoint(n).a_n
    if a == 0.0:
        return 0.0
    return integrate(
        lambda x: _sp.ndtr(x) * _sp.ndtr(-x) * SQRT_2PI * np.exp(0.5 * x * x),
        -a,
        a,
        config,
    )


# ---------------------------------------------------------------------------
# Closed-form antiderivatives for the vectorised path.
# ---------------------------------------------------------------------------

_Q_BREAK = 3.0
_Q_MAX = 40.0
_Q2_MAX = 6.0  # erf(u) == 1 to double precision beyond this


def _chebyshev_antiderivative(fun, lo: float, hi: float, deg: int) -> np.ndarray:
    """Coefficients of int_lo^x fun on [lo, hi], in the mapped variable."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    coeffs = _cheb.chebinterpolate(lambda v: fun(mid + half * v), deg)
    return _cheb.chebint(coeffs, lbnd=-1) * half


def _chop(coeffs: np.ndarray) -> np.ndarray:
    """Leading Chebyshev coefficients down to double-precision resolution.

    The plateau rule of Aurentz & Trefethen, "Chopping a Chebyshev series",
    ACM TOMS 43(4), 2017: find where the monotone envelope of |c_k| stops
    decaying, then cut where the envelope plus a linear tilt is smallest.
    Series that never reach a plateau are returned whole.
    """
    tol = np.finfo(float).eps
    n = coeffs.size
    if n < 17:
        return coeffs
    envelope = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if envelope[0] == 0.0:
        return coeffs[:1]
    envelope = envelope / envelope[0]
    for j in range(2, n + 1):  # 1-based indices, as in the paper
        j2 = int(1.25 * j + 5.5)  # round half up
        if j2 > n:
            return coeffs
        e1, e2 = envelope[j - 1], envelope[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            plateau = j - 1
            break
    if envelope[plateau - 1] == 0.0:
        return coeffs[:plateau]
    floor = tol ** (7.0 / 6.0)
    j3 = int(np.count_nonzero(envelope >= floor))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = floor
    tilted = np.log10(envelope[:j2]) + np.linspace(0.0, -math.log10(tol) / 3.0, j2)
    return coeffs[: max(int(np.argmin(tilted)), 1)]


def _dawsn_scaled(u):
    return (2.0 / _SQRT_PI) * _sp.dawsn(u)


# The fits are chopped to double-precision resolution (98 -> 30 and 194 -> 52
# terms; each value moves by at most 4.4e-16).  The [3, 40] piece keeps all
# its terms: its dropped tail would sum to 1.5e-15, and it only runs for
# |z| > 3.
_Q_LO_COEF = _chop(_chebyshev_antiderivative(_dawsn_scaled, 0.0, _Q_BREAK, 96))
_Q_HI_COEF = _chebyshev_antiderivative(_dawsn_scaled, _Q_BREAK, _Q_MAX, 384)
_Q_AT_BREAK = float(_cheb.chebval(1.0, _Q_LO_COEF))

# On [0, 3], Q is a degree-5 Taylor polynomial about the nearest point k/128.
# Q(k/128) comes from the chopped fit; the derivatives come from Dawson's
# function D, since Q^(j) = (2/sqrt(pi)) D^(j-1) with D' = 1 - 2uD and
# D^(k+1) = -2u D^(k) - 2k D^(k-1).  At |u - k/128| <= 1/256 the remainder
# is below 2e-16, so the values stay within 4.4e-16 of the unchopped fit.
_Q_STEPS = 128  # grid points per unit; a power of two keeps u * 128 exact
_Q_DEG = 5


def _taylor_table() -> np.ndarray:
    """Rows of Taylor coefficients in s = 128u - k, highest degree first."""
    g = np.arange(int(_Q_BREAK * _Q_STEPS) + 1) / _Q_STEPS
    dawson = [_sp.dawsn(g)]
    dawson.append(1.0 - 2.0 * g * dawson[0])
    for k in range(1, _Q_DEG - 1):
        dawson.append(-2.0 * g * dawson[k] - 2.0 * k * dawson[k - 1])
    rows = [_cheb.chebval(2.0 * g / _Q_BREAK - 1.0, _Q_LO_COEF)]
    for j in range(1, _Q_DEG + 1):
        scale = (2.0 / _SQRT_PI) / (math.factorial(j) * float(_Q_STEPS) ** j)
        rows.append(scale * dawson[j - 1])
    return np.array(rows[::-1])


_Q_TAYLOR = _taylor_table()  # (6, 385): 18 KB


def _q_lo(u: np.ndarray) -> np.ndarray:
    """Q on [0, 3] from the Taylor table."""
    s = u * float(_Q_STEPS)
    k = np.rint(s)  # nearest grid point
    s -= k  # exact: |s| <= 1/2
    k = k.astype(np.intp)
    out = _Q_TAYLOR[0].take(k)
    for row in _Q_TAYLOR[1:]:
        out *= s
        out += row.take(k)
    return out


def _q(u: np.ndarray) -> np.ndarray:
    """Q(u) = int_0^u exp(-t^2) erfi(t) dt for u >= 0 (even extension)."""
    if np.any(u > _Q_MAX):
        raise ValueError(
            f"argument {float(np.max(u)):.2f} outside the supported range "
            f"[0, {_Q_MAX}] of the auxiliary integral"
        )
    lo = u <= _Q_BREAK
    if lo.all():
        return _q_lo(u)
    out = np.empty_like(u)
    out[lo] = _q_lo(u[lo])
    v = (2.0 * u[~lo] - (_Q_MAX + _Q_BREAK)) / (_Q_MAX - _Q_BREAK)
    out[~lo] = _Q_AT_BREAK + _cheb.chebval(v, _Q_HI_COEF)
    return out


def _q2_integrand(u):
    return _sp.erf(u) * _sp.erfi(u) * np.exp(-u * u)


_Q2_COEF = _chop(_chebyshev_antiderivative(_q2_integrand, 0.0, _Q2_MAX, 192))
_Q2_AT_MAX = float(_cheb.chebval(1.0, _Q2_COEF))
_Q_AT_Q2_MAX = float(_q(np.array([_Q2_MAX]))[0])


def _q2(u: np.ndarray) -> np.ndarray:
    """Q2(u) = int_0^u erf(t) erfi(t) exp(-t^2) dt for u >= 0 (odd extension)."""
    inside = u <= _Q2_MAX
    out = np.empty_like(u)
    if np.any(inside):
        out[inside] = _cheb.chebval(2.0 * u[inside] / _Q2_MAX - 1.0, _Q2_COEF)
    if not np.all(inside):
        # erf == 1 there, so Q2 continues exactly like Q
        out[~inside] = _Q2_AT_MAX + _q(u[~inside]) - _Q_AT_Q2_MAX
    return out


def recip_pdf_antiderivative(x):
    """F with F' = 1/phi and F(0) = 0, i.e. pi * erfi(x/sqrt(2))."""
    x = np.asarray(x, dtype=float)
    out = math.pi * _sp.erfi(x / _SQRT2)
    return float(out) if out.ndim == 0 else out


def recip_and_cdf_over_pdf_antiderivatives(x):
    """Arrays (psi, H): the antiderivatives of 1/phi and of Phi/phi, F(0) = 0.

    H = (psi/2) * erfc(-z) - sqrt(pi) * Q(|z|) reuses the erfi inside psi.
    Halving is exact, so both equal the separate functions bit for bit.
    """
    x = np.asarray(x, dtype=float)
    z = np.atleast_1d(x / _SQRT2)
    psi = math.pi * _sp.erfi(z)
    # erfc(-z) == 1 + erf(z) without the cancellation at z << 0
    h = 0.5 * psi * _sp.erfc(-z) - _SQRT_PI * _q(np.abs(z))
    return psi.reshape(x.shape), h.reshape(x.shape)


def cdf_over_pdf_antiderivative(x):
    """F with F' = Phi/phi and F(0) = 0."""
    out = recip_and_cdf_over_pdf_antiderivatives(x)[1]
    return float(out) if out.ndim == 0 else out


def cdf_sq_over_pdf_antiderivative(x):
    """F with F' = Phi^2/phi and F(0) = 0."""
    x = np.asarray(x, dtype=float)
    z = np.atleast_1d(x / _SQRT2)
    absz = np.abs(z)
    out = 0.25 * math.pi * _sp.erfi(z) * _sp.erfc(-z) ** 2 - _SQRT_PI * (
        _q(absz) + np.sign(z) * _q2(absz)
    )
    out = out.reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def upper_tail_sq_integral(x):
    """int_x^{+inf} (1 - Phi(t))^2 / phi(t) dt (finite for every real x)."""
    x = np.asarray(x, dtype=float)
    out = cdf_sq_over_pdf_antiderivative(-x) + LN2_OVER_2
    return float(out) if np.ndim(out) == 0 else out


def interval_weights(grid: np.ndarray):
    """A- and B-integrals over consecutive intervals of an ascending grid.

    ``grid`` has shape (..., m) with nondecreasing last axis; returns two
    arrays of shape (..., m-1) with A_j = int 1/phi and B_j = int Phi/phi
    over [grid_j, grid_{j+1}].  Evaluated from the closed-form
    antiderivatives; adjacent ties yield exact zeros.
    """
    psi, h = recip_and_cdf_over_pdf_antiderivatives(grid)
    a = np.diff(psi, axis=-1)
    b = np.diff(h, axis=-1)
    # roundoff can leave tiny negatives on zero-width intervals
    return np.maximum(a, 0.0), np.maximum(b, 0.0)
