import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from tcvm import normal as nk
from tcvm.process import MomentPoint, b_hat_n, b_n, cov_b2, ebb2, fourth_moment_exact


class TestEmpiricalProcess:
    def test_far_left_limit(self):
        assert b_n([0.2, -0.4, 1.1], -60.0) == 0.0

    def test_single_point_at_median(self):
        assert b_n([0.0], 0.0) == pytest.approx(0.5, rel=1e-15)

    def test_four_point_arithmetic(self):
        expected = (2 - 4 * nk.cdf(0.5)) / 2.0
        assert b_n([-1.0, 0.0, 1.0, 2.0], 0.5) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("x", [-1.3, 0.0, 0.3, 1.1, 60.0])
    def test_matrix_rows_equal_the_scalar(self, x, rng):
        block = rng.standard_normal((257, 20))
        rows = b_n(block, x)
        assert rows.shape == (257,)
        assert [float(v).hex() for v in rows] == [b_n(row, x).hex() for row in block]

    def test_b_hat_affine_invariance(self, rng):
        x = rng.standard_normal(30)
        assert b_hat_n(3.0 * x + 1.0, 0.7) == b_hat_n(x, 0.7)

    def test_b_hat_four_point(self):
        x = np.array([-1.0, 0.0, 1.0, 2.0])
        y = (x - x.mean()) / x.std()
        assert b_hat_n(x, 0.5) == pytest.approx(
            (np.count_nonzero(y <= 0.5) - 4 * nk.cdf(0.5)) / 2.0, rel=1e-14
        )

    def test_b_hat_far_right_limit(self, rng):
        assert b_hat_n(rng.standard_normal(10), 60.0) == pytest.approx(0.0, abs=1e-14)


class TestEbb2:
    def test_at_zero(self):
        assert ebb2(0.0) == 0.25

    def test_symmetry(self):
        for x in (0.3, 1.7, 2.9):
            assert ebb2(x) == pytest.approx(ebb2(-x), rel=1e-15)

    def test_at_one_via_cdf(self):
        assert ebb2(1.0) == pytest.approx(nk.cdf(1.0) * (1.0 - nk.cdf(1.0)), rel=1e-15)

    def test_range(self):
        x = np.linspace(-6, 6, 101)
        vals = ebb2(x)
        assert np.all(vals > 0) and np.all(vals <= 0.25)


class TestMomentPoint:
    def test_canonicalizes(self):
        p = MomentPoint.of(1.2, -0.5)
        assert p.x == -0.5 and p.y == 1.2
        assert 0.0 <= p.z <= p.t <= 1.0


class TestCovB2:
    def test_at_origin(self):
        assert cov_b2(MomentPoint.of(0.0, 0.0)) == pytest.approx(0.125, rel=1e-15)

    def test_vanishes_when_upper_point_saturates(self):
        assert cov_b2(MomentPoint.of(0.0, 40.0)) == 0.0

    def test_nonnegative_grid(self):
        xs = np.linspace(-4, 4, 33)
        assert all(cov_b2(MomentPoint.of(x, y)) >= 0.0 for x in xs for y in xs)

    def test_monte_carlo_bridge_marginals(self, rng):
        # simulate the limiting joint law at (x, y) = (-0.5, 0.7): centred
        # Gaussian pair with var z(1-z), t(1-t) and covariance z(1-t)
        p = MomentPoint.of(-0.5, 0.7)
        var_u = p.z * (1 - p.z)
        var_v = p.t * (1 - p.t)
        cov_uv = p.z * (1 - p.t)
        cov_mat = np.array([[var_u, cov_uv], [cov_uv, var_v]])
        chol = np.linalg.cholesky(cov_mat)
        draws = rng.standard_normal((1_000_000, 2)) @ chol.T
        prod = draws[:, 0] ** 2 * draws[:, 1] ** 2
        emp_cov = prod.mean() - var_u * var_v
        se = prod.std() / math.sqrt(prod.size)
        assert abs(emp_cov - cov_b2(p)) <= 3.0 * se


class TestFourthMoment:
    @pytest.mark.parametrize("n", [1, 5, 20, 100])
    def test_binomial_identity_at_origin(self, n):
        # F_n(0) ~ Binomial(n, 1/2)/n gives E b_n^4(0) = (3n-2)/(16n)
        exact = fourth_moment_exact(MomentPoint.of(0.0, 0.0), n)
        assert exact == pytest.approx((3 * n - 2) / (16.0 * n), abs=1e-15)

    def test_limit_equals_variance_plus_covariance(self):
        xs = np.linspace(-3, 3, 13)
        for x in xs:
            for y in xs:
                p = MomentPoint.of(x, y)
                limit = ebb2(x) * ebb2(y) + cov_b2(p)
                big_n = fourth_moment_exact(p, 10**12)
                assert big_n == pytest.approx(limit, abs=1e-11)

    def test_correction_scales_as_one_over_n(self):
        p = MomentPoint.of(0.4, 1.3)
        limit = ebb2(0.4) * ebb2(1.3) + cov_b2(p)
        scaled = [n * (fourth_moment_exact(p, n) - limit) for n in (10, 100, 1000)]
        assert scaled[0] == pytest.approx(scaled[1], abs=1e-10)
        assert scaled[1] == pytest.approx(scaled[2], abs=1e-10)

    def test_nonnegative_on_grid(self):
        xs = np.linspace(-4, 4, 17)
        for n in (5, 20, 200):
            for x in xs:
                for y in xs:
                    assert fourth_moment_exact(MomentPoint.of(x, y), n) >= 0.0

    def test_monte_carlo_small(self, rng):
        p = MomentPoint.of(0.3, 1.1)
        n, reps = 20, 200_000
        draws = rng.standard_normal((reps, n))
        bx = ((draws <= 0.3).sum(axis=1) - n * nk.cdf(0.3)) / math.sqrt(n)
        by = ((draws <= 1.1).sum(axis=1) - n * nk.cdf(1.1)) / math.sqrt(n)
        prod = bx**2 * by**2
        z = (prod.mean() - fourth_moment_exact(p, n)) / (
            prod.std() / math.sqrt(reps)
        )
        assert abs(z) <= 5.0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            fourth_moment_exact(MomentPoint.of(0.0, 1.0), 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: MomentPoint.of(math.nan, 0.0),
        lambda: MomentPoint.of(0.3, math.nan),
        lambda: b_n([0.2, -0.4, 1.1], math.nan),
        lambda: ebb2(math.nan),
        lambda: ebb2(np.array([0.0, math.nan])),
    ],
    ids=["moment_point_x", "moment_point_y", "b_n", "ebb2", "ebb2_array"],
)
def test_nan_point_refused(call):
    # each returned nan with no error, and fourth_moment_exact then gave nan
    with pytest.raises(ValueError, match="must not be nan"):
        call()


def test_infinite_points_give_exact_zeros():
    assert b_n([0.2, -0.4, 1.1], math.inf) == 0.0
    assert ebb2(math.inf) == ebb2(-math.inf) == 0.0
    assert fourth_moment_exact(MomentPoint.of(math.inf, 0.0), 20) == 0.0


def _cov_integral(limit: float, nodes: int = 360) -> float:
    x, w = leggauss(nodes)
    x = x * limit
    w = w * limit
    gx, gy = np.meshgrid(x, x, indexing="ij")
    z = nk.cdf(np.minimum(gx, gy))
    t = nk.cdf(np.maximum(gx, gy))
    integrand = 2.0 * z**2 * (1.0 - t) ** 2 / (nk.pdf(gx) * nk.pdf(gy))
    return float(w @ integrand @ w)


def test_cov_integral_converges_with_predicted_tail():
    """The double integral of cov_b2/(phi phi) converges as the box grows.

    The integrand behaves like 4/L^3 along the dominant edges, so the missing
    tail beyond [-L, L]^2 shrinks like const/L^2: increments must decrease at
    that rate and tail-corrected extrapolations from successive pairs must
    agree, pinning down a finite limit.
    """
    i6, i8, i10 = _cov_integral(6.0), _cov_integral(8.0), _cov_integral(10.0)
    inc_68 = i8 - i6
    inc_810 = i10 - i8
    assert inc_68 > 0 and inc_810 > 0
    assert inc_810 < inc_68
    # increment ratio for a c/L^2 tail: (8^-2 - 10^-2)/(6^-2 - 8^-2) ~ 0.46;
    # higher-order terms push it lower
    assert 0.2 <= inc_810 / inc_68 <= 0.6
    # extrapolate the limit from both pairs assuming tail = c/L^2
    def extrapolate(l1, i1, l2, i2):
        u1, u2 = 1.0 / l1**2, 1.0 / l2**2
        c = (i2 - i1) / (u1 - u2)
        return i2 + c * u2

    lim_a = extrapolate(6.0, i6, 8.0, i8)
    lim_b = extrapolate(8.0, i8, 10.0, i10)
    assert lim_a == pytest.approx(lim_b, abs=0.03)
    assert 2.0 < lim_b < 5.0  # finite, order-one limit
