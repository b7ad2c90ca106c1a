import math

import numpy as np
import pytest
from scipy import integrate

from conftest import composite_simpson
from tcvm import normal as nk

SQRT_2PI = math.sqrt(2.0 * math.pi)


def recip_pdf(x):
    return SQRT_2PI * np.exp(0.5 * np.asarray(x) ** 2)


def _tight_quad(f, lo: float, hi: float) -> float:
    # scipy's QUADPACK is the independent oracle for the closed forms
    return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=3e-14)[0]


class TestPdfCdf:
    def test_pdf_at_zero(self):
        assert nk.pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-16)

    def test_pdf_symmetry(self):
        assert nk.pdf(1.0) == nk.pdf(-1.0)

    def test_pdf_at_two(self):
        # high-precision evaluation of the closed form
        assert nk.pdf(2.0) == pytest.approx(0.05399096651318806, abs=1e-17)

    def test_cdf_at_zero(self):
        assert nk.cdf(0.0) == 0.5

    def test_cdf_minus_one_within_mills_bracket(self):
        # bounds x*pdf(x)/(1+x^2) <= cdf(-x) <= pdf(x)/x at x = 1
        assert 0.12098 <= nk.cdf(-1.0) <= 0.24197

    def test_cdf_at_upper_decile_quantile(self):
        assert nk.cdf(1.2816) == pytest.approx(0.9000, abs=5e-5)

    def test_cdf_complement_identity(self):
        x = np.linspace(-10.0, 10.0, 2001)
        assert np.max(np.abs(nk.cdf(x) + nk.cdf(-x) - 1.0)) <= 1e-15

    def test_cdf_monotone(self):
        x = np.linspace(-12.0, 12.0, 4001)
        assert np.all(np.diff(nk.cdf(x)) >= 0.0)


class TestQuantile:
    def test_median(self):
        assert nk.quantile(0.5) == 0.0

    def test_upper_decile(self):
        assert nk.quantile(1.0 - 1.0 / 10.0) == pytest.approx(1.2816, abs=5e-5)

    def test_upper_centile(self):
        assert nk.quantile(1.0 - 1.0 / 100.0) == pytest.approx(2.3263, abs=5e-5)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            nk.quantile(p)

    def test_cdf_of_quantile_round_trip(self):
        p = np.concatenate(
            [
                np.array([1e-12, 1e-9, 1e-6]),
                np.linspace(1e-4, 1.0 - 1e-4, 20001),
                np.array([1.0 - 1e-9, 1.0 - 1e-12]),
            ]
        )
        assert np.max(np.abs(nk.cdf(nk.quantile(p)) - p)) <= 1e-13

    def test_quantile_of_cdf_round_trip(self):
        # the p-representation quantizes near 1, which caps the achievable
        # x-accuracy at spacing(cdf(x))/pdf(x); allow exactly that
        x = np.linspace(-8.0, 8.0, 3203)
        err = np.abs(nk.quantile(nk.cdf(x)) - x)
        cap = 1e-12 + 2.0 * np.spacing(nk.cdf(x)) / nk.pdf(x)
        assert np.all(err <= cap)

    def test_quantile_of_cdf_left_half_tight(self):
        x = np.linspace(-8.0, 0.0, 1601)
        assert np.max(np.abs(nk.quantile(nk.cdf(x)) - x)) <= 1e-12

    def test_upper_tail_probability_relative_error(self):
        # for p >= 1/2 the tail 1 - p is exact, so the quantile must return
        # it to working precision, not only p itself
        q = np.concatenate([np.logspace(-15.0, -1.0, 2000), np.linspace(0.1, 0.5, 2001)])
        p = 1.0 - q
        tail = 1.0 - p
        assert np.max(np.abs(nk.cdf(-nk.quantile(p)) / tail - 1.0)) <= 1e-12


class TestEndpoint:
    def test_values_match_table(self):
        assert nk.endpoint(50).a_n == pytest.approx(2.0537, abs=5e-5)
        assert nk.endpoint(200).a_n == pytest.approx(2.5758, abs=5e-5)

    def test_degenerate_n2(self):
        assert nk.endpoint(2).a_n == 0.0

    def test_monotone_in_n(self):
        values = [nk.endpoint(n).a_n for n in range(3, 400)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nk.endpoint(1)
        with pytest.raises(TypeError):
            nk.endpoint(10.5)
        with pytest.raises(ValueError):
            nk.endpoint(10**7 + 1)

    @pytest.mark.parametrize("n", [10, 50, 10**3, 10**4, 10**5, 10**6, 10**7])
    def test_tail_probability_is_one_over_n(self, n):
        assert abs(n * nk.cdf(-nk.endpoint(n).a_n) - 1.0) <= 1e-14

    def test_bounded_by_sqrt_two_log_n(self):
        for n in np.unique(np.logspace(math.log10(3), 6, 60).astype(int)):
            assert nk.endpoint(int(n)).a_n <= math.sqrt(2.0 * math.log(n))


def test_mills_ratio_bounds_on_grid():
    x = np.arange(0.01, 10.0 + 1e-9, 0.01)
    lower = x * nk.pdf(x) / (1.0 + x * x)
    upper = nk.pdf(x) / x
    tail = nk.cdf(-x)
    assert np.all(lower <= tail)
    assert np.all(tail <= upper)


class TestWeightIntegrals:
    def test_zero_width(self):
        for c in (-2.0, 0.0, 1.7):
            assert nk.int_recip_pdf(c, c) == 0.0
            assert nk.int_cdf_over_pdf(c, c) == 0.0

    def test_symmetric_halves(self):
        whole = nk.int_recip_pdf(-1.0, 1.0)
        left = nk.int_recip_pdf(-1.0, 0.0)
        right = nk.int_recip_pdf(0.0, 1.0)
        assert whole == pytest.approx(left + right, rel=1e-12)
        assert left == pytest.approx(right, rel=1e-12)

    def test_recip_pdf_vs_simpson(self):
        oracle = composite_simpson(recip_pdf, 0.0, 1.0)
        assert oracle == pytest.approx(2.995314662331128, rel=1e-12)
        assert nk.int_recip_pdf(0.0, 1.0) == pytest.approx(oracle, rel=1e-8)

    def test_cdf_over_pdf_vs_simpson(self):
        oracle = composite_simpson(lambda x: nk.cdf(x) * recip_pdf(x), 0.0, 1.0)
        assert oracle == pytest.approx(2.0934066496783217, rel=1e-12)
        assert nk.int_cdf_over_pdf(0.0, 1.0) == pytest.approx(oracle, rel=1e-8)

    def test_b_bounded_by_a(self):
        for lo, hi in [(-3.0, -1.0), (-1.0, 2.0), (0.5, 4.0)]:
            assert 0.0 < nk.int_cdf_over_pdf(lo, hi) <= nk.int_recip_pdf(lo, hi)

    def test_additivity(self):
        lo, mid, hi = -1.3, 0.4, 2.1
        assert nk.int_recip_pdf(lo, hi) == pytest.approx(
            nk.int_recip_pdf(lo, mid) + nk.int_recip_pdf(mid, hi), rel=1e-11
        )
        assert nk.int_cdf_over_pdf(lo, hi) == pytest.approx(
            nk.int_cdf_over_pdf(lo, mid) + nk.int_cdf_over_pdf(mid, hi), rel=1e-11
        )

    def test_bound_errors(self):
        with pytest.raises(ValueError):
            nk.int_recip_pdf(1.0, 0.0)
        with pytest.raises(ValueError):
            nk.int_cdf_over_pdf(0.0, math.inf)

    # the private integrator behind both weights

    def test_integrate_polynomial_exact(self):
        assert nk._integrate(lambda x: 3.0 * x**2, 0.0, 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_integrate_exponential(self):
        assert nk._integrate(np.exp, 0.0, 2.0) == pytest.approx(math.e**2 - 1.0, rel=1e-12)

    def test_integrate_oscillatory(self):
        assert nk._integrate(np.sin, 0.0, 3.0 * math.pi) == pytest.approx(2.0, rel=1e-11)

    def test_integrate_nonfinite_integrand_rejected(self):
        with np.errstate(over="ignore"):
            with pytest.raises(ArithmeticError, match="non-finite"):
                nk._integrate(lambda x: np.exp(x * x), 0.0, 40.0)

    def test_integrate_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(nk, "_MAX_BISECTIONS", 2)
        with pytest.raises(ArithmeticError, match="after 2 bisections"):
            nk.int_recip_pdf(0.0, 5.5)


class TestCnDn:
    @pytest.mark.parametrize(
        "n,expected",
        [(10, 28.5798), (50, 534.8787), (100, 1814.0555)],
    )
    def test_c_n_reference_values(self, n, expected):
        assert nk.c_n(n) == pytest.approx(expected, rel=1e-3)

    def test_c_n_increasing(self):
        values = [nk.c_n(n) for n in (10, 20, 50, 100, 200, 500)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_c_n_identity_with_antiderivatives(self):
        # symmetry gives int_{-a}^{a} Phi^2/phi = Psi(a) - D_n with
        # Psi(a) = int_0^a 1/phi, so the two quadrature routes must agree
        for n in (10, 50, 250):
            a = nk.endpoint(n).a_n
            psi_a = nk.recip_pdf_antiderivative(a)
            assert nk.c_n(n) == pytest.approx(n * (psi_a - nk.d_n(n)), rel=1e-10)

    @pytest.mark.parametrize(
        "n,d_rel",
        [(3, 1e-12), (10, 1e-12), (50, 1e-12), (10**3, 1e-12), (10**4, 1e-12),
         (10**5, 1e-10), (10**6, 1e-10), (10**7, 1e-10)],
    )
    def test_closed_forms_match_tight_quadrature(self, n, d_rel):
        a = nk.endpoint(n).a_n
        c_ref = n * _tight_quad(lambda x: nk.cdf(x) ** 2 * recip_pdf(x), -a, a)
        d_ref = _tight_quad(lambda x: nk.cdf(x) * nk.cdf(-x) * recip_pdf(x), -a, a)
        assert nk.c_n(n) == pytest.approx(c_ref, rel=1e-13)
        assert nk.d_n(n) == pytest.approx(d_ref, rel=d_rel)

    def test_d_n_degenerate(self):
        assert nk.d_n(2) == 0.0

    def test_d_n_vs_simpson(self):
        a = nk.endpoint(10).a_n
        oracle = composite_simpson(
            lambda x: nk.cdf(x) * nk.cdf(-x) * recip_pdf(x), -a, a
        )
        assert nk.d_n(10) == pytest.approx(oracle, rel=1e-8)

    def test_d_n_monotone(self):
        assert nk.d_n(1000) > nk.d_n(100) > 0.0

    def test_d_n_log_log_growth(self):
        # D_n - ln ln n climbs slowly towards ln 2 + Euler's constant ~ 1.270;
        # sanity only: bounded and increasing at accessible n
        gaps = [nk.d_n(n) - math.log(math.log(n)) for n in (10**4, 10**5, 10**6)]
        assert all(0.9 <= g <= 1.3 for g in gaps)
        assert gaps[0] < gaps[1] < gaps[2]


class TestAntiderivatives:
    @pytest.mark.parametrize("x", [-9.0, -3.3, -0.4, 0.7, 2.0, 4.5, 6.5, 9.0])
    def test_cdf_over_pdf_antiderivative(self, x):
        ref = _tight_quad(lambda t: nk.cdf(t) * recip_pdf(t), 0.0, x)
        assert nk.cdf_over_pdf_antiderivative(x) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("x", [-7.5, -1.2, 0.9, 3.0, 8.0])
    def test_cdf_sq_over_pdf_antiderivative(self, x):
        oracle = composite_simpson(
            lambda t: nk.cdf(t) ** 2 * recip_pdf(t), 0.0, x, panels=2**19
        )
        assert nk.cdf_sq_over_pdf_antiderivative(x) == pytest.approx(oracle, rel=1e-9)

    @staticmethod
    def _upper_tail_sq(x: float) -> float:
        """int_x^inf (1-Phi)^2/phi by Simpson, stable in the far tail."""
        from scipy import special

        return composite_simpson(
            lambda t: nk.pdf(t) * (0.5 * SQRT_2PI * special.erfcx(t / math.sqrt(2.0))) ** 2,
            x,
            40.0,
            panels=2**19,
        )

    def test_upper_tail_sq_at_zero(self):
        # int_0^inf (1-Phi)^2/phi = int_{-inf}^0 Phi^2/phi: the whole-line
        # constant of the folded kernel
        assert nk.LN2_OVER_2 == pytest.approx(self._upper_tail_sq(0.0), rel=1e-9)

    def test_upper_tail_sq_matches_quadrature(self):
        # reflected, the tail is int_{-inf}^{-x} Phi^2/phi = G(-x) + ln(2)/2
        for x in (-2.0, 0.5, 3.0):
            tail = nk.cdf_sq_over_pdf_antiderivative(-x) + nk.LN2_OVER_2
            assert tail == pytest.approx(self._upper_tail_sq(x), rel=1e-9)

    def test_interval_weights_match_scalar_ops(self, rng):
        grid = np.sort(rng.uniform(-2.0, 2.0, size=12))
        grid[5] = grid[4]  # adjacent tie must give exact zeros
        a_vec, b_vec = nk.interval_weights(grid)
        for j in range(len(grid) - 1):
            assert a_vec[j] == pytest.approx(
                nk.int_recip_pdf(grid[j], grid[j + 1]), rel=1e-10, abs=1e-12
            )
            assert b_vec[j] == pytest.approx(
                nk.int_cdf_over_pdf(grid[j], grid[j + 1]), rel=1e-10, abs=1e-12
            )
        assert a_vec[4] == 0.0
        assert b_vec[4] == 0.0


class TestChoppedSeries:
    """The Q and Q2 fits are chopped at import (Aurentz & Trefethen)."""

    def test_term_counts(self):
        assert nk._Q_LO_COEF.size == 30
        assert nk._Q2_COEF.size == 52
        assert nk._Q_HI_COEF.size == 386

    def test_matches_unchopped_fits(self):
        # the unchopped fits are evaluated here with chebval: _q reads a
        # table built from the chopped fit at import, which patching the
        # coefficients would not reach
        from numpy.polynomial import chebyshev as cheb

        lo = nk._chebyshev_antiderivative(nk._dawsn_scaled, 0.0, nk._Q_BREAK, 96)
        mid = nk._chebyshev_antiderivative(nk._q2_integrand, 0.0, nk._Q2_MAX, 192)

        def q_ref(u):
            out = np.empty_like(u)
            hi = u > nk._Q_BREAK
            out[~hi] = cheb.chebval(2.0 * u[~hi] / nk._Q_BREAK - 1.0, lo)
            v = (2.0 * u[hi] - (nk._Q_MAX + nk._Q_BREAK)) / (nk._Q_MAX - nk._Q_BREAK)
            out[hi] = cheb.chebval(1.0, lo) + cheb.chebval(v, nk._Q_HI_COEF)
            return out

        def q2_ref(u):
            out = np.empty_like(u)
            far = u > nk._Q2_MAX
            out[~far] = cheb.chebval(2.0 * u[~far] / nk._Q2_MAX - 1.0, mid)
            at_max = q_ref(np.array([nk._Q2_MAX]))[0]
            out[far] = cheb.chebval(1.0, mid) + q_ref(u[far]) - at_max
            return out

        grid = np.arange(385) / 128.0  # the Taylor table's points on [0, 3]
        u = np.concatenate(
            [
                np.linspace(0.0, 40.0, 400_001),
                grid,
                grid[:-1] + 1.0 / 256.0,  # midpoints: the farthest from a point
                [np.nextafter(3.0, 0.0), 3.0, np.nextafter(3.0, 4.0), 3.0 + 2**-20],
            ]
        )
        assert np.max(np.abs(nk._q(u) - q_ref(u))) <= 1e-15
        assert np.max(np.abs(nk._q2(u) - q2_ref(u))) <= 1e-15

    def test_chop_keeps_short_or_plateau_free_series(self):
        short = np.array([1.0, 0.5, 0.25])
        assert nk._chop(short) is short
        slow = 1.0 / np.arange(1.0, 60.0)  # never reaches eps
        assert nk._chop(slow).size == slow.size


def test_shared_erfi_pair_is_bit_identical():
    from scipy import special

    x = np.concatenate([np.linspace(-9.0, 9.0, 2001), [0.0, -4.25, 4.25, 30.0]])
    psi, h = nk.recip_and_cdf_over_pdf_antiderivatives(x)
    z = x / math.sqrt(2.0)
    separate_h = 0.5 * math.pi * special.erfi(z) * special.erfc(-z) - math.sqrt(
        math.pi
    ) * nk._q(np.abs(z))
    np.testing.assert_array_equal(psi, nk.recip_pdf_antiderivative(x))
    np.testing.assert_array_equal(h, separate_h)
    np.testing.assert_array_equal(h, nk.cdf_over_pdf_antiderivative(x))
