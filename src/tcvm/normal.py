"""Standard-normal kernel: density, distribution, quantile, truncation
endpoint, and the weight integrals against 1/phi.

The quantile and a_n come from ``scipy.special.ndtri``.  Everything
downstream integrates combinations of 1/phi(x), Phi(x)/phi(x) and
Phi(x)^2/phi(x), in closed form: antiderivatives built from Dawson's
function, erfi/erf and well-conditioned auxiliary integrals (``recip_pdf_antiderivative`` and
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
logarithmically, so Chebyshev fits give them uniform absolute accuracy.

psi and H are not evaluated through erfi.  With u = |z| and Dawson's
function D(u) = (sqrt(pi)/2) exp(-u^2) erfi(u), erfi(u) = (2/sqrt(pi))
exp(u^2) D(u) and erfc(u) = exp(-u^2) erfcx(u), so the first two lines give

    psi(x) = sign(x) * 2 sqrt(pi) exp(u^2) D(u)
    H(x)   = -sqrt(pi) R(u) + [x > 0] psi(x),   R = D erfcx + Q.

D and R stay O(1) (D ~ 1/(2u), R ~ ln(u)/sqrt(pi)), and degree-5 Taylor
tables on the grid k/128 of [0, 40] hold them to about an ulp, so the huge
factor exp(x^2/2) is one ``np.exp`` and each point costs a table lookup.
For x <= 0 nothing cancels: H keeps full absolute accuracy up to x = -56.5,
where psi itself has long overflowed.
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


def _dawsn_scaled(u):
    return (2.0 / _SQRT_PI) * _sp.dawsn(u)


# Fixed lengths at double-precision resolution: the leading 30 of 98 terms
# here and 52 of 194 for Q2 are each within 4.4e-16 of the whole series.  The
# [3, 40] piece keeps all its terms: its tail would sum to 1.5e-15, and it
# only runs for |z| > 3.
_Q_LO_COEF = _chebyshev_antiderivative(_dawsn_scaled, 0.0, _Q_BREAK, 96)[:30]
_Q_HI_COEF = _chebyshev_antiderivative(_dawsn_scaled, _Q_BREAK, _Q_MAX, 384)
_Q_AT_BREAK = float(_cheb.chebval(1.0, _Q_LO_COEF))

# Taylor tables: a function is a degree-5 polynomial in s = 128u - k about
# the nearest grid point k/128, |s| <= 1/2, one row per coefficient.  The
# derivatives come from the recurrences of Dawson's function D and of erfcx,
#
#     D' = 1 - 2uD,                  D^(j+1) = -2u D^(j) - 2j D^(j-1),
#     erfcx' = 2u erfcx - 2/sqrt(pi), erfcx^(j+1) = 2u erfcx^(j) + 2j erfcx^(j-1),
#
# and Q^(j) = (2/sqrt(pi)) D^(j-1).  Q's table on [0, 3] stops at degree 5:
# its remainder is below 2e-16.  The psi and H tables on [0, 40] also fold
# in the sixth-degree term (``_taylor_rows``).
_STEPS = 128  # grid points per unit; a power of two keeps u * 128 exact
_DEG = 5


def _grid(hi: float) -> np.ndarray:
    return np.arange(int(hi * _STEPS) + 1) / _STEPS


def _dawson_derivatives(g: np.ndarray, d: np.ndarray) -> list:
    """[D, D', ..., D^(6)] on the grid g, from the values d = D(g)."""
    out = [d, 1.0 - 2.0 * g * d]
    for j in range(1, _DEG + 1):
        out.append(-2.0 * g * out[j] - 2.0 * j * out[j - 1])
    return out


def _erfcx_derivatives(g: np.ndarray) -> list:
    """[erfcx, erfcx', ..., erfcx^(6)] on the grid g."""
    out = [_sp.erfcx(g), 2.0 * g * _sp.erfcx(g) - 2.0 / _SQRT_PI]
    for j in range(1, _DEG + 1):
        out.append(2.0 * g * out[j] + 2.0 * j * out[j - 1])
    return out


def _taylor_rows(values: np.ndarray, derivatives: list, factor: float) -> np.ndarray:
    """Rows of Taylor coefficients in s, highest degree first.

    ``derivatives[j - 1]`` is f^(j) / factor on the grid.  A sixth one is
    folded into the degree-5 polynomial by Chebyshev economization,
    s^6 ~ (3/8) s^4 - (9/256) s^2 + 1/2048 on |s| <= 1/2: that leaves an
    error 1/32 of the dropped term's, which, unlike s^6, has nearly zero mean,
    so that sums over many points do not drift.  The constant stays exact at
    u = 0, where every table is 0.
    """
    c = [values] + [
        factor / (math.factorial(j) * float(_STEPS) ** j) * f
        for j, f in enumerate(derivatives, start=1)
    ]
    if len(c) > _DEG + 1:
        c6 = c.pop()
        c[4] = c[4] + 0.375 * c6
        c[2] = c[2] - (9.0 / 256.0) * c6
        shift = c6 / 2048.0
        shift[0] = 0.0
        c[0] = c[0] + shift
    return np.array(c[::-1])


def _taylor(u: np.ndarray, *tables: np.ndarray) -> list:
    """Taylor tables on one grid at 0 <= u <= their last point, by Horner."""
    s = u * float(_STEPS)
    k = np.rint(s)  # nearest grid point
    s -= k  # exact: |s| <= 1/2
    k = k.astype(np.intp)
    outs = []
    for table in tables:
        out = table[0].take(k)
        for row in table[1:]:
            out *= s
            out += row.take(k)
        outs.append(out)
    return outs


def _check_range(u: np.ndarray) -> None:
    """Refuse u = |x|/sqrt(2) beyond the tables and the fit of Q (or nan)."""
    if not np.all(u <= _Q_MAX):
        raise ValueError(
            f"argument |x|/sqrt(2) = {float(np.max(u)):.2f} outside the "
            f"supported range [0, {_Q_MAX}]"
        )


def _q_table() -> np.ndarray:
    """Q on [0, 3]: values from the Chebyshev fit, derivatives from D.

    D comes from scipy's ``dawsn``: the small-u correction of ``_dawsn``
    would move Q by less than an ulp and only change the bits of C_n.
    """
    g = _grid(_Q_BREAK)
    q = _cheb.chebval(2.0 * g / _Q_BREAK - 1.0, _Q_LO_COEF)
    return _taylor_rows(q, _dawson_derivatives(g, _sp.dawsn(g))[:_DEG], 2.0 / _SQRT_PI)


_Q_TAYLOR = _q_table()  # (6, 385): 18 KB


def _q(u: np.ndarray) -> np.ndarray:
    """Q(u) = int_0^u exp(-t^2) erfi(t) dt for u >= 0 (even extension)."""
    _check_range(u)
    lo = u <= _Q_BREAK
    if lo.all():
        return _taylor(u, _Q_TAYLOR)[0]
    out = np.empty_like(u)
    out[lo] = _taylor(u[lo], _Q_TAYLOR)[0]
    v = (2.0 * u[~lo] - (_Q_MAX + _Q_BREAK)) / (_Q_MAX - _Q_BREAK)
    out[~lo] = _Q_AT_BREAK + _cheb.chebval(v, _Q_HI_COEF)
    return out


def _dawsn(g: np.ndarray) -> np.ndarray:
    """Dawson's function; below 1/4 from its Maclaurin series.

    There scipy's ``dawsn`` is off by up to 17 ulps (3.8e-15 at u = 1/64);
    the series sum_n (-2u^2)^n u / (2n+1)!! is within an ulp in 12 terms.
    """
    out = _sp.dawsn(g)
    u = g[g < 0.25]
    term = u.copy()
    total = u.copy()
    for n in range(1, 12):
        term *= -2.0 * u * u / (2 * n + 1)
        total += term
    out[g < 0.25] = total
    return out


def _psi_h_tables():
    """Tables of P = 2 sqrt(pi) D and S = sqrt(pi) R, R = D erfcx + Q, on [0, 40].

    With u = |x|/sqrt(2), psi(x) = sign(x) exp(u^2) P(u) and
    H(x) = -S(u) + [x > 0] psi(x).  Values of R from ``dawsn``, ``erfcx``
    and ``_q``; its derivatives by Leibniz's rule for D erfcx plus those of Q.
    """
    g = _grid(_Q_MAX)
    d = _dawson_derivatives(g, _dawsn(g))
    e = _erfcx_derivatives(g)
    r = [
        sum(math.comb(j, i) * d[i] * e[j - i] for i in range(j + 1))
        + (2.0 / _SQRT_PI) * d[j - 1]
        for j in range(1, _DEG + 2)
    ]
    return (
        _taylor_rows(2.0 * _SQRT_PI * d[0], d[1:], 2.0 * _SQRT_PI),
        _taylor_rows(_SQRT_PI * (d[0] * e[0] + _q(g)), r, _SQRT_PI),
    )


_P_TAYLOR, _S_TAYLOR = _psi_h_tables()  # (6, 5121) each: 492 KB together


def _folded_neg_psi_h(u: np.ndarray):
    """(-psi, -H) at x = -sqrt(2) u, for 0 <= u <= 40 (unchecked).

    -psi is +inf, with an overflow warning, past u = 26.6; the folded kernel
    clips u to 26 before it calls this.
    """
    p, s = _taylor(u, _P_TAYLOR, _S_TAYLOR)
    p *= np.exp(u * u)
    return p, s


def _q2_integrand(u):
    return _sp.erf(u) * _sp.erfi(u) * np.exp(-u * u)


_Q2_COEF = _chebyshev_antiderivative(_q2_integrand, 0.0, _Q2_MAX, 192)[:52]
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


def recip_and_cdf_over_pdf_antiderivatives(x):
    """Arrays (psi, H): the antiderivatives of 1/phi and of Phi/phi, F(0) = 0.

    From the tables at u = |x|/sqrt(2) (``_psi_h_tables``).  psi is +-inf
    past the overflow of exp(u^2) (|x| > 37.7), and so is H for x > 0;
    u > 40 raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    x1 = np.atleast_1d(x)
    u = np.abs(x1) / _SQRT2
    _check_range(u)
    with np.errstate(over="ignore"):
        psi, h = _folded_neg_psi_h(u)  # -psi, -H at -|x|
    psi = np.copysign(psi, x1)
    h = np.where(x1 > 0.0, psi - h, -h)
    return psi.reshape(x.shape), h.reshape(x.shape)


def recip_pdf_antiderivative(x):
    """F with F' = 1/phi and F(0) = 0, i.e. pi * erfi(x/sqrt(2))."""
    out = recip_and_cdf_over_pdf_antiderivatives(x)[0]
    return float(out) if out.ndim == 0 else out


def cdf_over_pdf_antiderivative(x):
    """F with F' = Phi/phi and F(0) = 0; finite at every x <= 0 in range."""
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
def _endpoint_terms(n: int):
    """(a_n, psi(-a_n), H(-a_n), G(-a_n)): the folded kernel's per-n constants."""
    a = endpoint(n).a_n
    psi, h = recip_and_cdf_over_pdf_antiderivatives(-a)
    return a, float(psi), float(h), cdf_sq_over_pdf_antiderivative(-a)


@lru_cache(maxsize=None)
def d_n(n: int) -> float:
    """D_n = int_{-a_n}^{a_n} Phi(x)(1 - Phi(x))/phi(x) dx, in closed form.

    The integrand Phi/phi - Phi^2/phi is even, so D_n = 2 (G(-a_n) - H(-a_n))
    with G and H its two antiderivatives, both 0 at 0.  On the negative
    half-line both stay O(ln a_n), like D_n itself, so nothing of the size
    of psi(a_n) ~ n/a_n^2 cancels, and D_n keeps a few ulps of relative
    accuracy up to n = 10^7.
    """
    _, _, h, g = _endpoint_terms(n)
    return 2.0 * (g - h)
