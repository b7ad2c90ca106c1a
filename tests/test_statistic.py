import math

import numpy as np
import pytest
from scipy import special

from tcvm import normal as nk
from tcvm import statistic
from tcvm.baselines import (
    BaselineKind,
    anderson_darling,
    batch_statistics,
    bcmr,
    shapiro_francia,
    shapiro_wilk,
)
from tcvm.process import b_hat_n, b_n
from tcvm.statistic import (
    DegenerateSampleError,
    compute_tstar,
    compute_tstar_direct,
    compute_untruncated,
    _standardized_row,
    _stepwise_tstar,
    decide,
    tcvm_test,
)
from tcvm.table import TableCoverageError, UnsupportedAlphaError


def _standardized(values):
    return _standardized_row(values)[0]


class TestStandardize:
    def test_three_point_sample(self):
        y = _standardized([1.0, -1.0, 0.0])
        assert y == pytest.approx([-math.sqrt(1.5), 0.0, math.sqrt(1.5)])

    def test_hand_computed(self):
        # mean 2.5, divisor-n SD sqrt(1.25)
        y = _standardized([4.0, 2.0, 3.0, 1.0])
        assert y == pytest.approx([-1.5, -0.5, 0.5, 1.5] / np.sqrt(1.25))

    def test_affine_invariance(self, rng):
        x = rng.standard_normal(40)
        a, b = 2.5, -7.0
        np.testing.assert_allclose(_standardized(a * x + b), _standardized(x), atol=1e-12)

    def test_invariants(self, rng):
        x = rng.gamma(2.0, size=200)
        y = _standardized(x)
        assert abs(y.mean()) <= 1e-12 * y.size
        assert np.mean(y**2) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            _standardized([3.0, 3.0, 3.0])

    def test_too_small_and_nonfinite(self):
        with pytest.raises(ValueError):
            _standardized([1.0, 2.0])
        with pytest.raises(ValueError):
            _standardized([1.0, 2.0, math.nan])
        with pytest.raises(ValueError, match="one-dimensional"):
            _standardized([[1.0, 2.0, 3.0]])


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(tcvm_test, id="tcvm_test"),
        pytest.param(compute_tstar, id="compute_tstar"),
        pytest.param(compute_tstar_direct, id="compute_tstar_direct"),
        pytest.param(compute_untruncated, id="compute_untruncated"),
        pytest.param(anderson_darling, id="anderson_darling"),
        pytest.param(shapiro_francia, id="shapiro_francia"),
        pytest.param(shapiro_wilk, id="shapiro_wilk"),
        pytest.param(bcmr, id="bcmr"),
        pytest.param(lambda x: batch_statistics(np.stack([x, x]), list(BaselineKind)), id="batch"),
        pytest.param(lambda x: b_n(x, 0.5), id="b_n"),
        pytest.param(lambda x: b_n(np.stack([x, x]), 0.5), id="b_n_matrix"),
        pytest.param(lambda x: b_hat_n(x, 0.5), id="b_hat_n"),
        pytest.param(lambda x: tcvm_test(x.tolist()), id="tcvm_test_list"),
    ],
)
@pytest.mark.parametrize("imag", [0.0, 0.25])
def test_complex_samples_are_refused(entry, imag):
    # a real-part cast would test data the caller never passed; a complex
    # dtype is refused even when every imaginary part is zero
    with pytest.raises(ValueError, match="complex"):
        entry(np.linspace(-1.0, 2.0, 20) + 1j * imag)


class TestComputeTstar:
    def test_affine_invariance(self, rng):
        x = rng.standard_normal(30)
        t1 = compute_tstar(x).t_star
        t2 = compute_tstar(5.0 * x + 3.0).t_star
        assert t2 == pytest.approx(t1, abs=1e-9)

    def test_permutation_invariance(self, rng):
        x = rng.standard_normal(25)
        t1 = compute_tstar(x).t_star
        t2 = compute_tstar(rng.permutation(x)).t_star
        assert t1 == t2

    def test_deletion_bookkeeping(self, rng):
        x = np.concatenate([rng.standard_normal(12), [-50.0, 60.0]])
        res = compute_tstar(x)
        assert res.k == 1
        assert res.m == 12
        # the weights j + k count the deleted point below -a_n; the grid runs
        # from -a_n through the retained points to a_n
        grid = np.concatenate(([-res.a_n], _standardized(x)[1:-1], [res.a_n]))
        psi, h = nk.recip_pdf_antiderivative(grid), nk.cdf_over_pdf_antiderivative(grid)
        j = np.arange(res.m + 1) + res.k
        expected = j**2 @ np.diff(psi) / res.n - 2.0 * j @ np.diff(h) + res.c_n
        assert res.t_star == pytest.approx(expected, rel=1e-10)

    def test_all_deleted_reduces_to_endpoint_formula(self):
        res = compute_tstar([0.0, 0.0, 1.0])
        assert res.m == 0
        assert res.k == 2
        bounds = np.array([-res.a_n, res.a_n])
        psi, h = nk.recip_pdf_antiderivative(bounds), nk.cdf_over_pdf_antiderivative(bounds)
        a_0, b_0 = np.diff(psi)[0], np.diff(h)[0]
        expected = (res.k**2 / 3.0) * a_0 - 2.0 * res.k * b_0 + res.c_n
        assert res.t_star == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [10, 50, 200, 2000])
    def test_has_the_bits_of_the_plain_sums(self, n):
        # psi and H at the grid, differenced, weighted and summed along the
        # row by numpy, as every kernel reduces: no BLAS dot product
        x = np.random.default_rng(n).standard_t(4, n)
        y = _standardized(x)
        a = nk.endpoint(n).a_n
        grid = np.concatenate(([-a], y[(y > -a) & (y < a)], [a]))
        psi, h = nk._psi_h(grid, np.abs(grid) / math.sqrt(2.0))
        w = np.arange(grid.size - 1, dtype=float) + np.count_nonzero(y <= -a)
        t = (w**2 * np.diff(psi)).sum() / n - 2.0 * (w * np.diff(h)).sum() + nk.c_n(n)
        assert compute_tstar(x).t_star == t

    @pytest.mark.parametrize(
        "n, inner",
        [(10, []), (10, [-0.5, 0.0, 0.5]), (50, np.linspace(-3.0, 3.0, 38)), (200, [])],
    )
    def test_counts_at_the_endpoints(self, n, inner):
        # points exactly at -a_n and a_n, tied, and one ulp inside either;
        # the rest of the row sits at the ends of the line
        a = nk.endpoint(n).a_n
        edges = [-a, -a, np.nextafter(-a, 0.0), np.nextafter(a, 0.0), a, a, a]
        fill = n - len(edges) - len(inner)
        y = np.sort(np.concatenate((edges, inner, [-9.0] * (fill // 2), [9.0] * (fill - fill // 2))))
        res = _stepwise_tstar(y)
        assert res.k == sum(v <= -a for v in y.tolist())
        assert res.m == sum(-a < v < a for v in y.tolist())
        assert (res.a_n, res.n) == (a, n)

    def test_centered_offset(self, rng):
        x = rng.standard_normal(20)
        res = compute_tstar(x)
        assert res.t_centered == pytest.approx(res.t_star - nk.d_n(20), rel=1e-12)

    def test_matches_direct_quadrature(self, rng):
        for n in (5, 10, 25, 50):
            x = rng.standard_normal(n)
            step = compute_tstar(x).t_star
            direct = compute_tstar_direct(x)
            assert step == pytest.approx(direct, abs=1e-6)

    def test_matches_direct_at_n_2000(self, rng):
        # the closed-form weights read 9.3e-12 relative on this sample
        x = rng.standard_normal(2000)
        assert compute_tstar(x).t_star == pytest.approx(compute_tstar_direct(x), rel=2e-10)

    def test_matches_direct_on_bounded_support_data(self, rng):
        # no observation beyond a_n: the top and bottom grid gaps are wide
        x = nk.quantile(nk.cdf(-1.0) + rng.random(50) * (nk.cdf(1.0) - nk.cdf(-1.0)))
        assert compute_tstar(x).t_star == pytest.approx(
            compute_tstar_direct(x), abs=1e-7
        )

    def test_outlier_increases_statistic(self, rng):
        x = rng.standard_normal(30)
        res = compute_tstar(x)
        y = x.copy()
        y[3] = x.mean() + 10.0 * x.std()
        assert compute_tstar(y).t_star > res.t_star

    def test_normal_scores_sample_is_small(self):
        scores = nk.quantile((np.arange(1, 21) - 0.375) / 20.25)
        assert compute_tstar(scores).t_star < 0.9857  # 15% critical value, n=20


def _batch(samples, kind=BaselineKind.TCVM):
    return batch_statistics(samples, [kind])[kind]


class TestBatch:
    def test_matches_scalar(self, rng):
        for n in (5, 12, 50, 120):
            block = rng.standard_normal((8, n))
            batch = _batch(block)
            for i in range(block.shape[0]):
                assert batch[i] == pytest.approx(
                    compute_tstar(block[i]).t_star, abs=1e-9
                )

    def test_matches_scalar_with_ties_and_outliers(self, rng):
        x = np.concatenate([rng.standard_normal(20), [-40.0, -40.0, 55.0], [1.1, 1.1]])
        assert _batch(x[np.newaxis, :])[0] == pytest.approx(
            compute_tstar(x).t_star, abs=1e-9
        )

    def test_degenerate_row(self):
        with pytest.raises(DegenerateSampleError):
            _batch(np.ones((2, 5)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            _batch(np.zeros(5))

    def test_randomized_cross_validation(self, rng):
        # adversarial shapes: heavy ties, one-sided outliers, tiny n,
        # near-degenerate spreads
        makers = [
            lambda n: np.round(rng.standard_normal(n), 1),
            lambda n: np.concatenate([rng.standard_normal(n - 2), [80.0, 90.0]]),
            lambda n: np.concatenate([[-70.0], rng.standard_normal(n - 1)]),
            lambda n: 1e-7 * rng.standard_normal(n) + 3.0,
            lambda n: rng.integers(0, 3, n).astype(float),
        ]
        for trial in range(25):
            n = int(rng.integers(3, 40))
            x = makers[trial % len(makers)](n)
            if np.std(x) == 0.0:
                continue
            # the stepwise sums cancel against C_n ~ n psi(a_n), so the two
            # routes agree to a floor well above eps
            assert _batch(x[np.newaxis, :])[0] == pytest.approx(
                compute_tstar(x).t_star, rel=1e-8, abs=1e-8
            ), (trial, n)

    def test_matches_direct_at_large_n(self, rng):
        # each point adds a bounded term, so the error grows like eps * n
        # rather than with C_n ~ n^2
        x = rng.standard_normal(200_000)
        assert _batch(x[np.newaxis, :])[0] == pytest.approx(
            compute_tstar_direct(x), rel=1e-9
        )

    def test_large_n_smoke(self, rng):
        # the truncation endpoint grows like sqrt(2 ln n); exp(a^2/2) must
        # stay representable and the statistic finite up to very large n
        x = rng.standard_normal((2, 1_000_000))
        t = _batch(x)
        assert np.all(np.isfinite(t))
        assert np.all(t > 0)


def _untruncated_direct(x):
    """Independent oracle: piecewise adaptive quadrature with stable tails."""
    from scipy import integrate as si

    x = np.asarray(x, dtype=float)
    n = x.size
    y = np.sort((x - x.mean()) / x.std())
    sq2 = math.sqrt(2.0)

    def left_tail(t):
        return n * nk.pdf(t) * (0.5 * nk.SQRT_2PI * special.erfcx(-t / sq2)) ** 2

    def right_tail(t):
        return n * nk.pdf(t) * (0.5 * nk.SQRT_2PI * special.erfcx(t / sq2)) ** 2

    total = si.quad(left_tail, -40.0, y[0], epsabs=1e-11, epsrel=1e-11, limit=500)[0]
    total += si.quad(right_tail, y[-1], 40.0, epsabs=1e-11, epsrel=1e-11, limit=500)[0]
    for j in range(n - 1):
        f = lambda t, j=j: (j + 1 - n * nk.cdf(t)) ** 2 / (n * nk.pdf(t))
        total += si.quad(f, y[j], y[j + 1], epsabs=1e-11, epsrel=1e-11, limit=500)[0]
    return total


class TestUntruncated:
    def test_matches_direct_quadrature(self, rng):
        for maker in (
            lambda: rng.standard_normal(20),
            lambda: rng.standard_t(2, 40),
            lambda: rng.random(15),
        ):
            x = maker()
            assert compute_untruncated(x) == pytest.approx(
                _untruncated_direct(x), rel=1e-9
            )

    def test_matches_direct_quadrature_at_n2000(self, rng):
        for _ in range(3):
            x = rng.standard_t(6, 2000)
            assert compute_untruncated(x) == pytest.approx(
                _untruncated_direct(x), rel=1e-12
            )

    def test_affine_invariance(self, rng):
        x = rng.standard_t(5, 35)
        assert compute_untruncated(0.3 * x + 9.0) == pytest.approx(
            compute_untruncated(x), rel=1e-9
        )

    def test_dominates_truncated(self, rng):
        # the whole-line integral includes the truncated one plus positive mass
        x = rng.standard_normal(30)
        assert compute_untruncated(x) > compute_tstar(x).t_star

    def test_batch_matches_scalar(self, rng):
        block = rng.standard_t(3, size=(6, 25))
        batch = _batch(block, BaselineKind.CVM)
        for i in range(6):
            assert batch[i] == pytest.approx(compute_untruncated(block[i]), rel=1e-10)

    def test_overflow_guard(self, rng):
        # a single dominant outlier at n = 2000 standardizes to ~44 sd,
        # far past where exp(y^2/2) is representable: a certain rejection
        x = np.concatenate([rng.standard_normal(1999), [1e12]])
        assert compute_untruncated(x) == math.inf

    def test_overflow_row_leaves_tcvm_and_other_rows_alone(self, rng):
        block = rng.standard_normal((4, 2000))
        block[1, 7] = 1e12
        both = batch_statistics(block, [BaselineKind.TCVM, BaselineKind.CVM])
        cvm = both[BaselineKind.CVM]
        assert cvm[1] == math.inf
        assert np.all(np.isfinite(np.delete(cvm, 1)))
        np.testing.assert_array_equal(cvm[[0, 2, 3]], _batch(block[[0, 2, 3]], BaselineKind.CVM))
        np.testing.assert_array_equal(both[BaselineKind.TCVM], _batch(block))


class TestDecision:
    def test_reject_above_critical(self):
        out = decide(1.70, 50, 0.05)
        assert out.reject and out.critical_value == 1.6897 and not out.interpolated

    def test_accept_below_critical(self):
        assert not decide(1.60, 50, 0.05).reject

    def test_boundary_equality_accepts(self):
        assert not decide(0.7547, 10, 0.15).reject

    def test_interpolated_flag(self):
        assert decide(2.0, 225, 0.05).interpolated

    def test_errors(self):
        with pytest.raises(TableCoverageError):
            decide(1.0, 9, 0.05)
        with pytest.raises(UnsupportedAlphaError):
            decide(1.0, 50, 0.03)

    def test_nan_statistic_is_refused(self):
        # returned reject=False, accepting normality on a meaningless number
        with pytest.raises(ValueError, match="nan"):
            decide(float("nan"), 50, 0.05)
        with pytest.raises(ValueError, match="nan"):
            decide(np.float64("nan"), 50, 0.05)
        assert decide(math.inf, 50, 0.05).reject

    def test_non_integer_n_is_refused(self):
        # 55.5 was interpolated between the rows at 55 and 60
        with pytest.raises(TypeError, match="n must be an integer, got float"):
            decide(1.0, 55.5, 0.05)
        assert decide(1.0, np.int64(55), 0.05) == decide(1.0, 55, 0.05)

    def test_below_four_names_the_rule_not_simulation(self):
        # critical values cannot be simulated below n = 4 either
        with pytest.raises(TableCoverageError, match="TCVM needs n >= 4") as info:
            tcvm_test([1.0, 2.5, 0.3])
        assert "simulate" not in str(info.value)

    def test_uncovered_n_is_refused_before_the_per_interval_loop(self, monkeypatch, rng):
        def unreachable(x, u):
            raise AssertionError("the per-interval loop ran")

        monkeypatch.setattr(statistic, "_psi_h", unreachable)
        x = rng.standard_normal(20_000)
        with pytest.raises(TableCoverageError, match="n=20000 outside"):
            tcvm_test(x)
        with pytest.raises(UnsupportedAlphaError):
            tcvm_test(x[:50], alpha=0.03)

    @pytest.mark.parametrize(
        "sample,error",
        [
            (np.r_[np.arange(19_999.0), np.nan], "non-finite"),
            (np.ones(20_000), "constant"),
            ([1.0, 2.0], "at least 3"),
        ],
        ids=["nonfinite", "constant", "two_values"],
    )
    def test_sample_errors_come_before_table_errors(self, sample, error):
        # the table cannot cover n = 20,000 or n = 2, nor alpha = 0.03
        with pytest.raises(ValueError, match=error):
            tcvm_test(sample, alpha=0.03)

    def test_end_to_end_normal_accepts(self, rng):
        x = rng.standard_normal(50)
        outcome, result = tcvm_test(x, alpha=0.05)
        assert outcome.statistic == result.t_star
        assert outcome.n == 50
        assert not outcome.reject  # this seed draws an unremarkable sample

    def test_end_to_end_lognormal_rejects(self, rng):
        x = np.exp(rng.standard_normal(50))
        outcome, _ = tcvm_test(x, alpha=0.05)
        assert outcome.reject

    def test_tight_config_matches_default(self, rng):
        x = rng.standard_normal(15)
        assert compute_tstar(x).t_star == pytest.approx(compute_tstar_direct(x), abs=1e-9)
