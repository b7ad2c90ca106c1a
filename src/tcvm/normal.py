"""Standard-normal kernel: density, distribution, quantile, truncation
endpoint, and the weight integrals against 1/phi.

The quantile and a_n come from ``scipy.special.ndtri``.  Everything
downstream integrates combinations of 1/phi(x), Phi(x)/phi(x) and
Phi(x)^2/phi(x), in closed form: antiderivatives built from erfi/erf plus
two well-conditioned auxiliary integrals (``recip_pdf_antiderivative`` and
friends) give ``c_n``, ``d_n`` and the folded kernel of the vectorised
Monte Carlo path.  Only the stepwise weights of the scalar statistic
(``int_recip_pdf``, ``int_cdf_over_pdf``) still come from quadrature: a
private fixed-tolerance Gauss-Kronrod integrator, ``_integrate``.

The folded kernel reflects the positive half-line onto the negative one, so
it evaluates psi and H (the antiderivatives of 1/phi and Phi/phi, both 0 at
0) at non-positive points only, and G (that of Phi^2/phi) only at -a_n;
over the whole line, -G(-inf) = ln(2)/2 (``LN2_OVER_2``).  The
derivations:

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

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy import special as _sp

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


def quantile(p):
    """Standard normal quantile for p in (0, 1), from ``scipy.special.ndtri``."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)) or not np.all(np.isfinite(arr)):
        raise ValueError("quantile requires probabilities strictly inside (0, 1)")
    out = _sp.ndtri(arr)
    return float(out) if out.ndim == 0 else out


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
    # -quantile(1/n) keeps the tail probability 1/n exact; 1 - 1/n would round it
    return Endpoint(n=n, a_n=0.0 if n == 2 else -quantile(1.0 / n))


# ---------------------------------------------------------------------------
# Adaptive quadrature for the stepwise weights.
# ---------------------------------------------------------------------------

# Stop once the summed error estimate is within max(abs, rel * |integral|);
# give up after this many bisections.
_REL_TOL = 1e-10
_ABS_TOL = 1e-12
_MAX_BISECTIONS = 2000

# 7-15 Gauss-Kronrod pair on [-1, 1].  Positive abscissae; even indices are
# the Kronrod-only points, odd indices the embedded 7-point Gauss nodes.
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.000000000000000,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))  # 15 ascending abscissae


def _gk15(f, lo: float, hi: float):
    """One Gauss-Kronrod panel; returns (value, error_estimate)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fx = f(mid + half * _NODES)
    if not np.all(np.isfinite(fx)):
        raise ArithmeticError(f"integrand returned a non-finite value on [{lo!r}, {hi!r}]")
    # fold symmetric nodes back onto the positive-abscissa table:
    # pairs[i] = f(-xgk[i]) + f(+xgk[i]) with xgk descending as in _XGK
    pairs = fx[:7] + fx[14:7:-1]
    resk = half * (np.dot(pairs, _WGK[:7]) + fx[7] * _WGK[7])
    resg = half * (np.dot(pairs[1::2], _WG[:3]) + fx[7] * _WG[3])
    # |K15 - G7| overestimates the K15 error for smooth integrands, which
    # just costs a few extra bisections
    return resk, abs(resk - resg)


def _integrate(f, lo: float, hi: float) -> float:
    """Integrate the array function ``f`` over the finite interval [lo, hi].

    Splits at 0 first when the interval straddles it, so the subdivision
    tracks integrands like exp(x^2/2) that grow towards both ends, then
    bisects the piece with the largest error estimate until the tolerance
    holds.  Raises ValueError for invalid bounds and ArithmeticError for a
    non-finite integrand value or an exhausted bisection budget.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"integration bounds must be finite, got [{lo}, {hi}]")
    if lo > hi:
        raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")
    if lo == hi:
        return 0.0

    heap = []  # (-error, tie-breaker, a, b, value)
    total_val = 0.0
    total_err = 0.0
    for a, b in [(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)]:
        val, err = _gk15(f, a, b)
        total_val += val
        total_err += err
        heapq.heappush(heap, (-err, len(heap), a, b, val))
    counter = len(heap)

    splits = 0
    while total_err > max(_ABS_TOL, _REL_TOL * abs(total_val)):
        if splits >= _MAX_BISECTIONS:
            raise ArithmeticError(
                f"quadrature did not reach tolerance after {_MAX_BISECTIONS} "
                f"bisections (estimate={total_val!r}, error~{total_err:.3e})"
            )
        neg_err, _, a, b, val = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # interval at floating-point resolution; accept its estimate
            total_err += neg_err  # remove this interval's error from the sum
            if not heap:
                break
            continue
        lval, lerr = _gk15(f, a, mid)
        rval, rerr = _gk15(f, mid, b)
        total_val += lval + rval - val
        total_err += lerr + rerr + neg_err  # neg_err subtracts the old error
        heapq.heappush(heap, (-lerr, counter, a, mid, lval))
        heapq.heappush(heap, (-rerr, counter + 1, mid, b, rval))
        counter += 2
        splits += 1

    return float(total_val)


def int_recip_pdf(lo: float, hi: float) -> float:
    """A-integral: int_lo^hi dx / phi(x), by adaptive quadrature."""
    return _integrate(lambda x: SQRT_2PI * np.exp(0.5 * x * x), lo, hi)


def int_cdf_over_pdf(lo: float, hi: float) -> float:
    """B-integral: int_lo^hi Phi(x)/phi(x) dx, by adaptive quadrature."""
    return _integrate(lambda x: _sp.ndtr(x) * SQRT_2PI * np.exp(0.5 * x * x), lo, hi)


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


@lru_cache(maxsize=None)
def c_n(n: int) -> float:
    """C_n = n * int_{-a_n}^{a_n} Phi^2(x)/phi(x) dx, in closed form."""
    a = endpoint(n).a_n
    g = cdf_sq_over_pdf_antiderivative(np.array([-a, a]))
    return n * float(g[1] - g[0])


@lru_cache(maxsize=None)
def d_n(n: int) -> float:
    """D_n = int_{-a_n}^{a_n} Phi(x)(1 - Phi(x))/phi(x) dx, in closed form.

    The integrand is Phi/phi - Phi^2/phi, so D_n = [H] - C_n/n over the
    interval.  Both terms are near psi(a_n), which grows like n/a_n^2 while
    D_n grows like ln ln n, so the difference keeps about 2e-11 relative
    accuracy at n = 10^7.
    """
    a = endpoint(n).a_n
    h = cdf_over_pdf_antiderivative(np.array([-a, a]))
    return float(h[1] - h[0]) - c_n(n) / n


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
