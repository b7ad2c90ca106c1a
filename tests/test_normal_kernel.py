import fnmatch
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from conftest import composite_simpson
from tcvm import normal as nk
from tcvm.table import embedded_table

SQRT_2PI = math.sqrt(2.0 * math.pi)
EPS = np.finfo(float).eps


def recip_pdf(x):
    return SQRT_2PI * np.exp(0.5 * np.asarray(x) ** 2)


def cdf_over_pdf(x):
    # Phi/phi = sqrt(pi/2) erfcx(-x/sqrt(2)): finite where Phi underflows
    return math.sqrt(0.5 * math.pi) * special.erfcx(-x / math.sqrt(2.0))


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


class TestNdtriPort:
    """a_n comes from ``normal._ndtri``, a port of Cephes ndtri; it must keep
    the bits that ``scipy.special.ndtri`` gave a_n before the port."""

    @staticmethod
    def _assert_same_bits(mine, ref):
        mine, ref = np.asarray(mine, dtype=float), np.asarray(ref, dtype=float)
        np.testing.assert_array_equal(mine.view(np.uint64), ref.view(np.uint64))

    def test_every_n_up_to_200_000_and_of_the_embedded_table(self):
        n = range(3, 200_001)
        assert set(embedded_table().sizes) <= set(n)
        self._assert_same_bits(
            [nk.endpoint(k).a_n for k in n], -special.ndtri(1.0 / np.array(n))
        )

    def test_seeded_sizes_and_p_in_the_lower_tail_and_the_centre(self):
        # endpoint asks only for p = 1/n, 1e-7 <= p <= 1/3, so the port keeps
        # the centre and the lower tail down to exp(-32), not Cephes's
        # reflection of the upper tail nor its table past exp(-32)
        rng = np.random.default_rng(26)
        n = np.exp(rng.uniform(math.log(200_000), math.log(nk.MAX_ENDPOINT_N), 2000))
        n = np.concatenate([n.astype(int), [10**5, 10**6, nk.MAX_ENDPOINT_N]])
        self._assert_same_bits(
            [nk.endpoint(int(k)).a_n for k in n], -special.ndtri(1.0 / n)
        )
        p = np.concatenate(
            [
                rng.uniform(nk._EXP_M2, 1.0 - nk._EXP_M2, 100_000),  # the centre
                np.exp(-32.0 * rng.random(100_000)),  # the lower tail
                [math.exp(-31.999), 0.5, 1.0 - nk._EXP_M2],
                # the boundary between the rational functions, and both sides of it
                [nk._EXP_M2, np.nextafter(nk._EXP_M2, 0.0), np.nextafter(nk._EXP_M2, 1.0)],
            ]
        )
        p = p[(p > math.exp(-32.0)) & (p <= 1.0 - nk._EXP_M2)]
        self._assert_same_bits([nk._ndtri(float(q)) for q in p], special.ndtri(p))


def _dawsn(g):
    """Dawson's function; below 1/4 from its Maclaurin series.

    There scipy's ``dawsn`` is off by up to 3.8e-15 relative (at u = 1/64);
    the series sum_n (-2u^2)^n u / (2n+1)!! is within 2 ulps in 12 terms.
    """
    out = special.dawsn(g)
    u = g[g < 0.25]
    term = u.copy()
    total = u.copy()
    for n in range(1, 12):
        term *= -2.0 * u * u / (2 * n + 1)
        total += term
    out[g < 0.25] = total
    return out


def _source_grids():
    """D, erfcx and erfc on the grid k/128 of [0, 40], the contents of
    ``normal._GRIDS_FILE``; ``np.save(nk._GRIDS_FILE, _source_grids())``
    rewrites that file."""
    g = np.arange(int(nk._U_MAX * nk._STEPS) + 1) / nk._STEPS
    return np.array([_dawsn(g), special.erfcx(g), special.erfc(g)])


class TestStoredGrids:
    def test_file_has_the_bits_of_its_source(self):
        stored = np.load(nk._GRIDS_FILE)
        assert stored.shape == (3, 5121) and stored.dtype == np.float64
        np.testing.assert_array_equal(
            stored.view(np.uint64), _source_grids().view(np.uint64)
        )

    def test_dawson_series_is_within_two_ulps(self):
        mpmath = pytest.importorskip("mpmath")
        g = np.arange(32) / 128.0  # the grid points below 1/4
        d = np.load(nk._GRIDS_FILE)[0][:32]
        with mpmath.workdps(40):
            ref = [float(mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-u * u) * mpmath.erfi(u))
                   for u in map(mpmath.mpf, g.tolist())]
        assert np.all(np.abs(d - ref) <= 2.0 * np.spacing(ref))

    def test_package_data_declares_the_file(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["tcvm"]
        name = os.path.basename(nk._GRIDS_FILE)
        assert any(fnmatch.fnmatch(name, pattern) for pattern in globs)
        assert os.path.dirname(nk._GRIDS_FILE) == os.path.join(root, "src", "tcvm")


def test_mills_ratio_bounds_on_grid():
    x = np.arange(0.01, 10.0 + 1e-9, 0.01)
    lower = x * nk.pdf(x) / (1.0 + x * x)
    upper = nk.pdf(x) / x
    tail = nk.cdf(-x)
    assert np.all(lower <= tail)
    assert np.all(tail <= upper)


def _weights(lo, hi):
    # compute_tstar's weights A and B: psi and H at both bounds from one
    # unchecked ``_psi_h`` lookup, differenced
    x = np.array([lo, hi])
    psi, h = nk._psi_h(x, np.abs(x) / math.sqrt(2.0))
    return psi[1] - psi[0], h[1] - h[0]


def _a(lo, hi):
    return _weights(lo, hi)[0]


def _b(lo, hi):
    return _weights(lo, hi)[1]


class TestWeightIntegrals:
    """The stepwise weights A and B, on bounds inside the helper's domain."""

    def test_zero_width(self):
        for c in (-2.0, 0.0, 1.7):
            assert _weights(c, c) == (0.0, 0.0)

    def test_symmetric_halves(self):
        whole = _a(-1.0, 1.0)
        left = _a(-1.0, 0.0)
        right = _a(0.0, 1.0)
        assert whole == pytest.approx(left + right, rel=1e-12)
        assert left == pytest.approx(right, rel=1e-12)

    def test_recip_pdf_vs_simpson(self):
        oracle = composite_simpson(recip_pdf, 0.0, 1.0)
        assert oracle == pytest.approx(2.995314662331128, rel=1e-12)
        assert _a(0.0, 1.0) == pytest.approx(oracle, rel=1e-8)

    def test_cdf_over_pdf_vs_simpson(self):
        oracle = composite_simpson(lambda x: nk.cdf(x) * recip_pdf(x), 0.0, 1.0)
        assert oracle == pytest.approx(2.0934066496783217, rel=1e-12)
        assert _b(0.0, 1.0) == pytest.approx(oracle, rel=1e-8)

    def test_b_bounded_by_a(self):
        for lo, hi in [(-3.0, -1.0), (-1.0, 2.0), (0.5, 4.0)]:
            assert 0.0 < _b(lo, hi) <= _a(lo, hi)

    def test_additivity(self):
        lo, mid, hi = -1.3, 0.4, 2.1
        assert _a(lo, hi) == pytest.approx(_a(lo, mid) + _a(mid, hi), rel=1e-11)
        assert _b(lo, hi) == pytest.approx(_b(lo, mid) + _b(mid, hi), rel=1e-11)

    @pytest.mark.parametrize("n", [10**4, 10**7])
    def test_tiny_intervals_next_to_the_endpoints(self, n):
        # A and B are differences of values of size up to psi(a_n), and each
        # psi carries the rounding of u^2 = a_n^2/2 inside exp(u^2): at most
        # eps (1 + u^2) psi(a_n) per bound
        a = nk.endpoint(n).a_n
        bound = 2.0 * EPS * (1.0 + 0.5 * a * a) * nk.recip_pdf_antiderivative(a)
        for width in (8.0 * np.spacing(a), 1e-12, 1e-9, 1e-6, 1e-3):
            for lo, hi in ((a - width, a), (-a, -a + width)):
                assert abs(_a(lo, hi) - _tight_quad(recip_pdf, lo, hi)) <= bound
                assert abs(_b(lo, hi) - _tight_quad(cdf_over_pdf, lo, hi)) <= bound


# D_n = 2 * int_0^{a_n} Phi(x) Phi(-x) / phi(x) dx by mpmath.quad at 40 digits,
# with a_n = endpoint(n).a_n taken as its exact double
_D_N_REFERENCE = {
    10: "1.500476008381754910439219",
    50: "2.207552889108385131175092",
    10**3: "2.925989125231815498922240",
    10**4: "3.270009615989542591176061",
    10**5: "3.529148938855275320759698",
    10**6: "3.736621621946158746552146",
    10**7: "3.909431071446407002194468",
}


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

    @pytest.mark.parametrize("n", sorted(_D_N_REFERENCE))
    def test_d_n_matches_high_precision_reference(self, n):
        assert nk.d_n(n) == pytest.approx(float(_D_N_REFERENCE[n]), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [3, 4, 7, 10, 31, 100, 577, 10**3, 4321, 10**4, 10**5, 99_991, 10**6, 10**7])
    def test_endpoint_terms_have_the_bits_of_the_public_antiderivatives(self, n):
        # the per-n cache reads the tables unchecked; the checked public
        # functions at -a_n give the same bits
        a = nk.endpoint(n).a_n
        expected = (
            a,
            nk.recip_pdf_antiderivative(-a),
            nk.cdf_over_pdf_antiderivative(-a),
            nk.cdf_sq_over_pdf_antiderivative(-a),
        )
        assert [v.hex() for v in nk._endpoint_terms(n)] == [v.hex() for v in expected]

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

    # G by mpmath at 40 digits: -(sqrt(pi)/2) V(|x|/sqrt(2)), where V has long
    # reached ln(2)/sqrt(pi).  Here erfi overflows to -inf and erfc^2
    # underflows to 0, which once made G nan.
    @pytest.mark.parametrize(
        "x,ref",
        [
            (-40.0, "-0.3465735902799726547086160607290882840378"),
            (-45.0, "-0.3465735902799726547086160607290882840378"),
            (-56.0, "-0.3465735902799726547086160607290882840378"),
        ],
    )
    def test_cdf_sq_over_pdf_antiderivative_far_left(self, x, ref):
        g = nk.cdf_sq_over_pdf_antiderivative(x)
        assert abs(g - float(ref)) <= np.spacing(abs(float(ref)))

    def test_cdf_sq_over_pdf_antiderivative_over_the_half_line(self):
        # at the tables' end G is the whole-line kernel's constant -ln(2)/2
        g = nk.cdf_sq_over_pdf_antiderivative(-40.0 * math.sqrt(2.0))
        assert abs(g + nk.LN2_OVER_2) <= np.spacing(nk.LN2_OVER_2)

    def test_interval_weights_match_scalar_ops(self, rng):
        # the stepwise weights against quadrature, and against differences
        # of the vectorised antiderivatives, whose fold they share bit for bit
        grid = np.sort(rng.uniform(-2.0, 2.0, size=12))
        psi, h = nk.recip_pdf_antiderivative(grid), nk.cdf_over_pdf_antiderivative(grid)
        for j in range(len(grid) - 1):
            lo, hi = grid[j], grid[j + 1]
            a, b = _weights(lo, hi)
            assert (a, b) == (psi[j + 1] - psi[j], h[j + 1] - h[j])
            a_ref = integrate.quad(recip_pdf, lo, hi)[0]
            b_ref = integrate.quad(cdf_over_pdf, lo, hi)[0]
            assert a == pytest.approx(a_ref, rel=1e-10, abs=1e-12)
            assert b == pytest.approx(b_ref, rel=1e-10, abs=1e-12)


# (u, R(u), V(u)) by mpmath at 40 digits: R = int_0^u erfcx and
# V = int_0^u erfcx erfc by quadrature (R cross-checked up to u = 6 against
# (sqrt(pi)/2) erfi(u) - (u^2/sqrt(pi)) 2F2(1, 1; 3/2, 2; u^2), and
# V(inf) = ln(2)/sqrt(pi)).  Grid points k/128 and midpoints of the tables,
# u < 1/4, both sides of u = 3, 6 and 26.6, and u up to 40.
_R_V_REFERENCE = [
    (9.5367431640625e-07, "0.0000009536738032791020882645832379960614708873", "0.0000009536732901520331757046360143491893262117"),
    (0.0078125, "0.007778222848641969638760775131849079634855", "0.007743989127099977207763678464640887258874"),
    (0.01171875, "0.0116418032684181540509414936222275641286", "0.0115650031106093592253896454778909926679"),
    (0.1, "0.09467358330615255560111088330221493299351", "0.08943809553291806623219676681727619382049"),
    (0.2, "0.1798272520417719571889448602592351781117", "0.1603783366632377636563427357198641501421"),
    (0.24999999906867743, "0.2192985795864180323753482461981017487187", "0.1900056686639662997125034441279079712186"),
    (0.5, "0.3913582448274258996044767521280765840112", "0.293647614105110187190180156913985405117"),
    (1.00390625, "0.6489273921299781224440380647687531400204", "0.3728853026290439500606112704205874120375"),
    (1.5, "0.8322917978159503547769270550574030049764", "0.3885690358701517679710206114360642581731"),
    (2.0, "0.975362087484156024192974268615867458895", "0.3908345886475489766250176387068227864542"),
    (2.50390625, "1.092063288787275768836455398904745471935", "0.3910524332598332236042557166934109179021"),
    (2.99609375, "1.18757829559120551987882680267277439537", "0.391065827608291450843518004759259664209"),
    (2.9999999999999996, "1.188277933981285955326223593828100877313", "0.3910658432554708595709548251621766424893"),
    (3.0, "1.188277933981286034818703384223171711682", "0.3910658432554708595727108535483964811152"),
    (3.0000000000000004, "1.188277933981286114311183174618231823013", "0.3910658432554708595744668819346163145884"),
    (3.0000009536743164, "1.188278104690061798025966472821622016665", "0.3910658432592418899361238803795160116677"),
    (3.00390625, "1.188976742715998774115551165959982155128", "0.3910658585039558797179059762093083192403"),
    (4.25, "1.37774344725336628804977284350903672944", "0.3910664191112618878384690382265358274323"),
    (5.00390625, "1.467839217655887429679997844851921234087", "0.39106641913740151818015717156949012879"),
    (5.99609375, "1.568265343729438494131784910255027817439", "0.391066419137416976386979648923472833425"),
    (6.0, "1.568627867146780916721920940945444852853", "0.391066419137416976394969325794084811122"),
    (6.00390625, "1.568990160761321720336165066404152267161", "0.3910664191374169764025834672709494235857"),
    (8.0, "1.729273894789901764152167376419884645454", "0.3910664191374169765549598054653186409122"),
    (11.25390625, "1.920745468733469587562730894339889105124", "0.3910664191374169765549598054653666394881"),
    (17.0, "2.152852202559002954407285921964162979867", "0.3910664191374169765549598054653666394881"),
    (26.6, "2.405151016996002429642954517207592648014", "0.3910664191374169765549598054653666394881"),
    (26.59765625, "2.405101338611638555892896935267512249829", "0.3910664191374169765549598054653666394881"),
    (26.6015625, "2.405184133490613968907927775170937939339", "0.3910664191374169765549598054653666394881"),
    (26.60390625, "2.405233804590654157446604648659807750806", "0.3910664191374169765549598054653666394881"),
    (31.00390625, "2.49153347091368618508965621114176900049", "0.3910664191374169765549598054653666394881"),
    (35.5, "2.567900971077632643722364940994915503571", "0.3910664191374169765549598054653666394881"),
    (39.00390625, "2.620988447010239367719225270233849145863", "0.3910664191374169765549598054653666394881"),
    (39.99609375, "2.635156346128418355385866493776903497831", "0.3910664191374169765549598054653666394881"),
    (40.0, "2.635211428253775642934970001462722340953", "0.3910664191374169765549598054653666394881"),
]
_SQRT_PI_40 = Fraction("1.772453850905516027298167483341145182798")


class TestIntegralTables:
    """R = S/sqrt(pi) and V = 2W/sqrt(pi), the tables whose values come from
    ``_integral``, against mpmath.  The errors are taken in exact rational
    arithmetic, so the test's own rounding stays out of them."""

    @staticmethod
    def _errors():
        u = np.array([row[0] for row in _R_V_REFERENCE])
        s, w = nk._taylor(u, nk._S_TAYLOR, nk._W_TAYLOR)
        r_err, v_err = [], []
        for si, wi, (_, r, v) in zip(s.tolist(), w.tolist(), _R_V_REFERENCE):
            r_err.append(float(Fraction(si) / _SQRT_PI_40 - Fraction(r)))
            v_err.append(float(2 * Fraction(wi) / _SQRT_PI_40 - Fraction(v)))
        return np.array(r_err), np.array(v_err)

    def test_r(self):
        assert np.max(np.abs(self._errors()[0])) <= 4.4e-16

    def test_r_has_no_one_signed_error(self):
        # a one-signed error in H = -sqrt(pi) R adds up over the n points of a
        # row in the folded kernel's sum
        assert abs(np.mean(self._errors()[0])) <= 5e-17

    def test_v(self):
        assert np.max(np.abs(self._errors()[1])) <= 1.1e-16


def test_g_with_w_on_0_6_has_the_bits_of_a_w_on_0_40(monkeypatch):
    # V is constant to double precision past u = 6, so W's table stops there
    u = np.concatenate([np.linspace(0.0, nk._U_MAX, 400_001), np.arange(5121) / 128])
    x = np.concatenate([-u, u]) * math.sqrt(2.0)
    x = x[np.abs(x) / math.sqrt(2.0) <= nk._U_MAX]
    g = nk.cdf_sq_over_pdf_antiderivative(x)
    monkeypatch.setattr(nk, "_V_FLAT", nk._U_MAX)
    monkeypatch.setattr(nk, "_W_TAYLOR", nk._tables()[2])
    assert nk._W_TAYLOR.shape == (6, 5121)
    full = nk.cdf_sq_over_pdf_antiderivative(x)
    np.testing.assert_array_equal(full.view(np.uint64), g.view(np.uint64))


def test_shared_table_pair_is_bit_identical():
    # the public antiderivatives, scalar or array, and the stepwise route's
    # unchecked lookup all unfold through ``_psi_h``
    x = np.concatenate(
        [np.linspace(-9.0, 9.0, 2001), [0.0, -0.0, -4.25, 4.25, 30.0, -38.0, 38.0, -56.0]]
    )
    with np.errstate(over="ignore"):
        psi, h = nk._psi_h(x, np.abs(x) / math.sqrt(2.0))
    np.testing.assert_array_equal(psi, nk.recip_pdf_antiderivative(x))
    np.testing.assert_array_equal(h, nk.cdf_over_pdf_antiderivative(x))
    for i in (0, 1500, 2004):
        assert nk.recip_pdf_antiderivative(float(x[i])) == psi[i]
        assert nk.cdf_over_pdf_antiderivative(float(x[i])) == h[i]
    # the folded kernel evaluates the same functions at -|x|, negated
    inside = -np.abs(x[np.abs(x) <= 36.0])
    folded = nk._folded_neg_psi_h(np.abs(inside) / math.sqrt(2.0))
    expected = nk.recip_pdf_antiderivative(inside), nk.cdf_over_pdf_antiderivative(inside)
    np.testing.assert_array_equal(-folded[0], expected[0])
    np.testing.assert_array_equal(-folded[1], expected[1])


# (x, psi(x), H(x)) by mpmath at 40 digits: psi = pi erfi(x/sqrt(2)), H the
# quadrature of Phi/phi from 0 to x (cross-checked against the erfi/Q closed
# form).  x = -sqrt(2) u rounded, at grid points u = k/128 and midpoints of
# the tables, at u < 0.05, on both sides of u = 3 and u = 26, up to u = 40,
# and at x = -38, -45, -56, past the overflow of exp(u^2), where H must stay
# finite (erfi = -inf times erfc = 0 once made it nan).
_PSI_H_REFERENCE = [
    (-0.0, "0.0", "0.0"),
    (-1.4142135623730952e-300, "-3.5449077018110324056e-300", "-1.7724538509055810466e-300"),
    (-1.4142135623730952e-12, "-3.5449077018110323128e-12", "-1.7724538509045161564e-12"),
    (-1.4142135623730952e-06, "-3.5449077018122139598e-6", "-1.7724528509061069795e-6"),
    (-0.0014142135623730952, "-0.003544908883447287635", "-0.001771454441390310395"),
    (-0.005524271728019903, "-0.013847366141509862889", "-0.0069084242040819010936"),
    (-0.011048543456039806, "-0.027695154878620753672", "-0.013786541041276732749"),
    (-0.01657281518405971, "-0.041543788845624567573", "-0.020634559034592182478"),
    (-0.02209708691207961, "-0.055393690754200825417", "-0.027452684882591916296"),
    (-0.028284271247461905, "-0.070907608257903988496", "-0.035053750789929284263"),
    (-0.03314563036811942, "-0.083098989861996162751", "-0.041000077927174474106"),
    (-0.06929646455628166, "-0.17383959586294978053", "-0.084516875100171638052"),
    (-0.7071067811865476, "-1.9319289830082139051", "-0.69366442812799482175"),
    (-0.7126310529145675, "-1.9497441257239185638", "-0.69792033092801658191"),
    (-1.4031650189170553, "-5.1102673077532644972", "-1.1413014080265395564"),
    (-1.4142135623730951, "-5.1849654391337214256", "-1.1472371061785132064"),
    (-2.8173785812901504, "-56.834325324628235716", "-1.7252419600058458259"),
    (-4.231592143663246, "-4901.5415439034909737", "-2.1036861726260369879"),
    (-4.237116415391266, "-5009.8774705477768314", "-2.1049277232724415352"),
    (-4.242639338420133, "-5120.7517378403589804", "-2.106167497457666452"),
    (-4.242640687119286, "-5120.7791317559566035", "-2.1061678000311810893"),
    (-4.242642035818438, "-5120.8065258283039176", "-2.1061681026046080766"),
    (-4.248164958847306, "-5234.3107568367115206", "-2.1074064062640691051"),
    (-4.2536892305753256, "-5350.538260683269505", "-2.1086435453218275246"),
    (-11.048543456039805, "-7.3561436599101809477e+25", "-3.0415270149512562604"),
    (-22.616368454513484, "-1.307255772201737365e+110", "-3.7548300034999596793"),
    (-28.289795519189923, "-5.415797139311120414e+172", "-3.9783061698100475807"),
    (-36.758504078244435, "-1.7406772745638070935e+292", "-4.2399206601540535542"),
    (-36.764028349972456, "-2.1323038222644789323e+292", "-4.2400708234510818419"),
    (-36.76955127300132, "-2.61199086473584531e+292", "-4.2402209275663723464"),
    (-36.76955262170048, "-2.6121203033988934169e+292", "-4.2402209642190845254"),
    (-36.76955397039963, "-2.6122497484804198167e+292", "-4.2402210008717951688"),
    (-36.77507689342849, "-3.2000040485616251561e+292", "-4.2403710824648154993"),
    (-36.78060116515651, "-3.9203166236856322346e+292", "-4.240521178195026203"),
    (-37.61808075912433, "-1.2983875878319524093e+306", "-4.2630191820838827865"),
    (-38.0, "-2.4000680309728150467e+312", "-4.2731134839834706532"),
    (-45.0, "-2.9461515234998055558e+438", "-4.4420906434826478682"),
    (-45.243785452483, "-1.7545758857623733225e+443", "-4.4474908265582800524"),
    (-56.0, "-4.2149082835156980317e+679", "-4.6606924760601546992"),
    (-56.55749395146777, "-1.7640023283057499646e+693", "-4.6705953733785426742"),
    (-56.56301822319578, "-2.410759322374101133e+693", "-4.6706930134334240347"),
    (-56.568542494923804, "-3.2947450444137883822e+693", "-4.6707906439586296359"),
]
_IDS = [repr(x) for x, _, _ in _PSI_H_REFERENCE]


class TestPsiHTables:
    """psi and H from the Taylor tables of D and R against mpmath."""

    @pytest.mark.parametrize("x,psi_ref,h_ref", _PSI_H_REFERENCE, ids=_IDS)
    def test_psi(self, x, psi_ref, h_ref):
        psi = nk.recip_pdf_antiderivative(x)
        assert nk.recip_pdf_antiderivative(-x) == -psi
        ref = float(psi_ref)
        if math.isinf(ref):
            assert psi == ref
            return
        # exp(u^2) carries the rounding of u = |x|/sqrt(2) and of u^2; the
        # erfi formula reached 17.5 eps (1 + u^2) on these points
        u = abs(x) / math.sqrt(2.0)
        assert abs(psi - ref) <= 4.0 * np.finfo(float).eps * (1.0 + u * u) * abs(ref)

    @pytest.mark.parametrize("x,psi_ref,h_ref", _PSI_H_REFERENCE, ids=_IDS)
    def test_h(self, x, psi_ref, h_ref):
        # the erfi formula reached 2**-49 (two ulps of 4) on these points
        assert abs(nk.cdf_over_pdf_antiderivative(x) - float(h_ref)) <= 2.0**-49

    def test_psi_overflows_to_inf_without_warning(self):
        x = np.array([-38.0, 38.0, 56.0])
        psi, h = nk.recip_pdf_antiderivative(x), nk.cdf_over_pdf_antiderivative(x)
        np.testing.assert_array_equal(psi, [-np.inf, np.inf, np.inf])
        assert np.isfinite(h[0])
        np.testing.assert_array_equal(h[1:], [np.inf, np.inf])

    @pytest.mark.parametrize("x", [57.0, -57.0, math.inf, math.nan])
    def test_outside_the_tables_raises(self, x):
        for fn in (
            nk.recip_pdf_antiderivative,
            nk.cdf_over_pdf_antiderivative,
            nk.cdf_sq_over_pdf_antiderivative,
        ):
            with pytest.raises(ValueError, match="supported range"):
                fn(np.array([0.5, x]))

    def test_zero_at_zero(self):
        x = np.array([0.0])
        psi, h = nk.recip_pdf_antiderivative(x), nk.cdf_over_pdf_antiderivative(x)
        assert (psi[0], h[0]) == (0.0, 0.0)
