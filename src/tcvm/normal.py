"""Standard-normal kernel: density, distribution, quantile, truncation
endpoint, and the weight integrals against 1/phi.

a_n comes from ``_ndtri``, a port of Cephes ``ndtri`` with the bits of
``scipy.special.ndtri``.  ``cdf`` and ``quantile`` call ``scipy.special``,
which they import when first called, so ``endpoint``, the tables and all
that is built on them load no scipy module.  Everything downstream
integrates combinations of 1/phi(x), Phi(x)/phi(x) and Phi(x)^2/phi(x).
Their antiderivatives psi, H and G, all 0 at 0, are read from Taylor tables
at u = |x|/sqrt(2), and ``_psi_h`` alone unfolds the signs of psi and H: the
public antiderivatives call it behind one range check, and the stepwise
statistic unchecked, at bounds in [-a_n, a_n].  ``c_n``, ``d_n`` and the
folded kernel read the tables at -|x| directly.

The folded kernel reflects the positive half-line onto the negative one, so
it evaluates psi and H at non-positive points only, and G only at -a_n;
over the whole line, -G(-inf) = ln(2)/2 (``LN2_OVER_2``).  The derivations:
with u = |x|/sqrt(2), Dawson's function D(u) = exp(-u^2) int_0^u exp(t^2) dt
and erfcx(u) = exp(u^2) erfc(u), the integrands at x = -sqrt(2) u <= 0 are

    1/phi = sqrt(2 pi) exp(u^2),     Phi/phi = sqrt(pi/2) erfcx(u),
    Phi^2/phi = sqrt(pi/8) erfcx(u) erfc(u),

so that, with dx = -sqrt(2) du,

    psi(x) = sign(x) 2 sqrt(pi) exp(u^2) D(u),
    H(x)   = -sqrt(pi) R(u),        R = int_0^u erfcx,            x <= 0,
    G(x)   = -(sqrt(pi)/2) V(u),    V = int_0^u erfcx erfc,       x <= 0.

Phi(x) = 1 - Phi(-x) gives the positive half-line, where no table is needed:

    H(x) = psi(x) + H(-x),    G(x) = psi(x) + 2 H(-x) - G(-x).

D, R and V stay O(1) (D ~ 1/(2u), R ~ ln(u)/sqrt(pi), V -> ln(2)/sqrt(pi)),
and degree-5 Taylor tables on the grid k/128 of [0, 40] (of [0, 6] for V,
which is constant to double precision past 6) hold them to about
an ulp, so the huge factor exp(x^2/2) is one ``np.exp`` and each point
costs a table lookup.  The tables are derived at import from the values of
D, erfcx and erfc on that grid, which ship with the package
(``_GRIDS_FILE``).  The grid values of R and V integrate the Taylor
polynomials of their integrands cell by cell (``_integral``).  For x <= 0
nothing cancels: H and G keep full absolute accuracy down to
x = -40 sqrt(2), where psi itself has long overflowed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SQRT_2PI",
    "LN2_OVER_2",
    "Endpoint",
    "pdf",
    "cdf",
    "quantile",
    "endpoint",
    "c_n",
    "d_n",
    "recip_pdf_antiderivative",
    "cdf_over_pdf_antiderivative",
    "cdf_sq_over_pdf_antiderivative",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
# sqrt(pi) - _SQRT_PI: the rounded _SQRT_PI is 8.2e-17 low, which as a factor
# of H or G would be a one-signed error in sums over many points
_SQRT_PI_LO = 1.453787399267733e-16

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
    from scipy.special import ndtr

    out = ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def quantile(p):
    """Standard normal quantile for p in (0, 1), from ``scipy.special.ndtri``."""
    arr = np.asarray(p, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)) or not np.all(np.isfinite(arr)):
        raise ValueError("quantile requires probabilities strictly inside (0, 1)")
    from scipy.special import ndtri

    out = ndtri(arr)
    return float(out) if out.ndim == 0 else out


# Cephes ndtri: a rational function of p - 1/2 in the centre, and of
# z = 1/sqrt(-2 ln p) in the lower tail for p > exp(-32); endpoint asks for
# no p past that or in the upper tail.  Monic denominators omit their leading 1.
_NDTRI_CENTRE = (
    (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
     1.39312609387279679503e1, -1.23916583867381258016e0),
    (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
     -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
     1.59056225126211695515e1, -1.18331621121330003142e0),
)
_NDTRI_TAIL = (
    (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
     4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
     -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4),
    (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
     1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
     -3.80806407691578277194e-2, -9.33259480895457427372e-4),
)
_EXP_M2 = 0.13533528323661269189  # exp(-2): the centre is (exp(-2), 1 - exp(-2))


def _rational(z: float, coefficients) -> float:
    """z P(z) / Q(z), by Horner and in the order of operations of Cephes
    (``z * polevl(z, P) / p1evl(z, Q)``), which the bits depend on."""
    num, den = 0.0, 1.0
    for c in coefficients[0]:
        num = num * z + c
    for c in coefficients[1]:
        den = den * z + c
    return z * num / den


def _ndtri(p: float) -> float:
    """Standard normal quantile of one float exp(-32) < p <= 1 - exp(-2), a port
    of Cephes ``ndtri`` with the bits of ``scipy.special.ndtri``; it gives a_n
    = -ndtri(1/n), 1e-7 <= 1/n <= 1/3, without loading scipy."""
    if p > _EXP_M2:
        y = p - 0.5
        y2 = y * y
        return (y + y * _rational(y2, _NDTRI_CENTRE)) * 2.50662827463100050242
    x = math.sqrt(-2.0 * math.log(p))
    z = 1.0 / x
    return -(x - math.log(x) / x - _rational(z, _NDTRI_TAIL))


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
    # -ndtri(1/n) keeps the tail probability 1/n exact; 1 - 1/n would round it
    return Endpoint(n=n, a_n=0.0 if n == 2 else -_ndtri(1.0 / n))


# ---------------------------------------------------------------------------
# Closed-form antiderivatives.
# ---------------------------------------------------------------------------

_U_MAX = 40.0  # the tables' range of u = |x|/sqrt(2)
_V_FLAT = 6.0  # V is ln(2)/sqrt(pi) to double precision past here
_RANGE_ERROR = f"argument |x|/sqrt(2) = {{:.2f}} outside the supported range [0, {_U_MAX}]"

# Taylor tables: a function is a degree-5 polynomial in s = 128u - k about
# the nearest grid point k/128, |s| <= 1/2, one row per coefficient.  The
# derivatives come from the recurrences of Dawson's function D, of erfcx
# and of erfc,
#
#     D' = 1 - 2uD,                    D^(j+1) = -2u D^(j) - 2j D^(j-1),
#     erfcx' = 2u erfcx - 2/sqrt(pi),  erfcx^(j+1) = 2u erfcx^(j) + 2j erfcx^(j-1),
#     erfc' = -2/sqrt(pi) exp(-u^2),   erfc^(j+1) = -2u erfc^(j) - 2(j-1) erfc^(j-1),
#
# and those of R = int erfcx and V = int erfcx erfc are their integrands'
# (by Leibniz's rule for V).  Every table folds in the sixth-degree term
# (``_taylor_rows``).  The values of D, erfcx and erfc on the grid ship in
# ``_GRIDS_FILE``, 3 x 5121 doubles: erfcx and erfc from ``scipy.special``,
# D from its Maclaurin series below u = 1/4 (where ``scipy.special.dawsn``
# is off by up to 3.8e-15 relative) and from ``dawsn`` above.  The tests
# rebuild them from scipy and check every bit.
_STEPS = 128  # grid points per unit; a power of two keeps u * 128 exact
_DEG = 5
_GRIDS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_taylor_grids.npy")


def _derivatives(g: np.ndarray, f, df, sign: float, lag: int = 0) -> list:
    """[f, f', ..., f^(6)] on the grid g from f, f' and the recurrence
    f^(j+1) = sign * 2 (g f^(j) + (j - lag) f^(j-1))."""
    out = [f, df]
    for j in range(1, _DEG + 1):
        out.append(sign * 2.0 * (g * out[j] + (j - lag) * out[j - 1]))
    return out


def _integral(derivatives: list) -> np.ndarray:
    """int_0^g f on the grid g, from ``derivatives`` = [f, f', ...] there.

    Each point's Taylor polynomial is integrated exactly over the half-cells
    of width h = 1/256 on either side of it.  The cells are summed left to
    right with Neumaier's compensation, so that rounding does not drift over
    thousands of cells: the running sums are ``np.cumsum``'s, and the
    rounding error of each addition (by TwoSum) is summed apart and added
    back.
    """
    h = 0.5 / _STEPS
    terms = [f * (h ** (j + 1) / math.factorial(j + 1)) for j, f in enumerate(derivatives)]
    even, odd = sum(terms[0::2]), sum(terms[1::2])
    cells = (even + odd)[:-1] + (even - odd)[1:]  # right half of k-1, left of k
    total = np.cumsum(cells)
    before = np.concatenate(([0.0], total[:-1]))
    added = total - before
    error = (before - (total - added)) + (cells - added)
    return np.concatenate(([0.0], total + np.cumsum(error)))


def _taylor_rows(values: np.ndarray, derivatives: list, factor: float) -> np.ndarray:
    """Rows of Taylor coefficients in s, highest degree first.

    ``derivatives[j - 1]`` is f^(j) / factor on the grid, j = 1..6.  The
    sixth is folded into the degree-5 polynomial by Chebyshev economization,
    s^6 ~ (3/8) s^4 - (9/256) s^2 + 1/2048 on |s| <= 1/2: that leaves an
    error 1/32 of the dropped term's, which, unlike s^6, has nearly zero mean,
    so that sums over many points do not drift.  The constant stays exact at
    u = 0, where every table is 0.
    """
    c = [values] + [
        factor / (math.factorial(j) * float(_STEPS) ** j) * f
        for j, f in enumerate(derivatives, start=1)
    ]
    c6 = c.pop()
    c[4] = c[4] + 0.375 * c6
    c[2] = c[2] - (9.0 / 256.0) * c6
    shift = c6 / 2048.0
    shift[0] = 0.0
    c[0] = c[0] + shift
    return np.array(c[::-1])


def _taylor(u: np.ndarray, *tables: np.ndarray) -> list:
    """Taylor tables on one grid at 0 <= u <= 40, by Horner.

    Past a table's last point its last row is read: W ends at ``_V_FLAT``,
    where that row's polynomial is V's constant to double precision.
    """
    s = u * float(_STEPS)
    k = np.rint(s)  # nearest grid point
    s -= k  # exact: |s| <= 1/2
    k = k.astype(np.intp)
    outs = []
    for table in tables:
        out = table[0].take(k, mode="clip")
        for row in table[1:]:
            out *= s
            out += row.take(k, mode="clip")
        outs.append(out)
    return outs


def _tables():
    """Taylor tables of P = 2 sqrt(pi) D and S = sqrt(pi) R on [0, 40], and
    of W = (sqrt(pi)/2) V on [0, 6]: at x = -sqrt(2) u <= 0,
    psi(x) = -exp(u^2) P(u), H(x) = -S(u) and G(x) = -W(u)."""
    g = np.arange(int(_U_MAX * _STEPS) + 1) / _STEPS
    d, e, c = np.load(_GRIDS_FILE)
    d = _derivatives(g, d, 1.0 - 2.0 * g * d, -1.0)
    e = _derivatives(g, e, 2.0 * g * e - 2.0 / _SQRT_PI, 1.0)
    c = _derivatives(g, c, (-2.0 / _SQRT_PI) * np.exp(-g * g), -1.0, lag=1)
    # S' = sqrt(pi) erfcx and W' = (sqrt(pi)/2) erfcx erfc, with sqrt(pi)
    # to twice double precision: S and W then round once, in ``_integral``
    ds = [_SQRT_PI * x + _SQRT_PI_LO * x for x in e]
    w = int(_V_FLAT * _STEPS) + 1
    dw = [
        0.5 * sum(math.comb(j, i) * ds[i][:w] * c[j - i][:w] for i in range(j + 1))
        for j in range(_DEG + 2)
    ]
    return (
        _taylor_rows(2.0 * _SQRT_PI * d[0], d[1:], 2.0 * _SQRT_PI),
        _taylor_rows(_integral(ds), ds[:-1], 1.0),
        _taylor_rows(_integral(dw), dw[:-1], 1.0),
    )


_P_TAYLOR, _S_TAYLOR, _W_TAYLOR = _tables()  # (6, 5121), (6, 5121), (6, 769): 528 KB


def _folded_neg_psi_h(u: np.ndarray):
    """(-psi, -H) at x = -sqrt(2) u, for 0 <= u <= 40 (unchecked).

    -psi is +inf, with an overflow warning, past u = 26.6; the folded kernel
    clips u to 26 before it calls this.
    """
    p, s = _taylor(u, _P_TAYLOR, _S_TAYLOR)
    p *= np.exp(u * u)
    return p, s


def _psi_h(x: np.ndarray, u: np.ndarray):
    """(psi(x), H(x)) at u = |x|/sqrt(2) <= 40, unchecked and with overflow
    warnings: the one place that unfolds the signs, H(x) = psi(x) + H(-x) at x > 0."""
    p, s = _folded_neg_psi_h(u)
    psi = np.copysign(p, x)
    return psi, np.where(x > 0.0, psi - s, -s)


def _checked(x, f):
    """f(x, u) at u = |x|/sqrt(2) in the shape of x, a float for a scalar, past
    the public antiderivatives' one range check; overflow gives +-inf silently."""
    x1 = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.abs(x1) / _SQRT2
    if not np.all(u <= _U_MAX):
        raise ValueError(_RANGE_ERROR.format(float(np.max(u))))
    with np.errstate(over="ignore"):
        out = f(x1, u).reshape(np.shape(x))
    return float(out) if out.ndim == 0 else out


def recip_pdf_antiderivative(x):
    """F with F' = 1/phi and F(0) = 0, i.e. pi * erfi(x/sqrt(2))."""
    return _checked(x, lambda x, u: _psi_h(x, u)[0])


def cdf_over_pdf_antiderivative(x):
    """F with F' = Phi/phi and F(0) = 0; finite at every x <= 0 in range."""
    return _checked(x, lambda x, u: _psi_h(x, u)[1])


def cdf_sq_over_pdf_antiderivative(x):
    """F with F' = Phi^2/phi and F(0) = 0; finite at every x <= 0 in range.

    G(x) = -(sqrt(pi)/2) V(u) at x <= 0 and psi(x) + 2 H(-x) - G(-x) at
    x > 0, so +inf past the overflow of psi.
    """

    def unfolded(x, u):
        p, s = _folded_neg_psi_h(u)  # psi(|x|), -H(-|x|)
        g = -_taylor(u, _W_TAYLOR)[0]  # G(-|x|)
        return np.where(x > 0.0, p - 2.0 * s - g, g)

    return _checked(x, unfolded)


def c_n(n: int) -> float:
    """C_n = n * int_{-a_n}^{a_n} Phi^2(x)/phi(x) dx, in closed form.

    Phi^2 = Phi - Phi (1 - Phi), and Phi/phi integrates to psi(a_n) over the
    interval, so C_n = n (psi(a_n) - D_n), from ``_endpoint_terms``'s cache.
    """
    _, psi, _, _ = _endpoint_terms(n)  # psi(-a_n) = -psi(a_n)
    return n * (-psi - d_n(n))


@lru_cache(maxsize=None)
def _endpoint_terms(n: int):
    """(a_n, psi(-a_n), H(-a_n), G(-a_n)): the folded kernel's per-n constants,
    from the tables unchecked, since a_n <= 5.33 (u <= 3.8) for every n <= 10^7."""
    a = endpoint(n).a_n
    u = np.array([a / _SQRT2])
    (p,), (s,) = _folded_neg_psi_h(u)
    return a, -float(p), -float(s), -float(_taylor(u, _W_TAYLOR)[0][0])


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
