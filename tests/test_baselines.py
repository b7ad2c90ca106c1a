import ast
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sstats

from tcvm import normal as nk
from tcvm.baselines import (
    BaselineKind,
    REJECTION_TAIL,
    anderson_darling,
    batch_statistics,
    bcmr,
    shapiro_francia,
    shapiro_wilk,
    _batch_ad,
    _batch_bcmr,
    _batch_sw_like,
    _bcmr_weights,
    _sf_weights,
)
from tcvm.statistic import (
    _MAX_ABS_Y,
    DegenerateSampleError,
    _standardize_sorted,
    _weighted_cvm,
    compute_tstar,
    compute_untruncated,
)


def _quad(f, lo: float, hi: float) -> float:
    return integrate.quad(f, lo, hi, epsabs=1e-12, epsrel=1e-10)[0]


def _ad_integral(x) -> float:
    """Direct quadrature of the defining A^2 integral, substituting u = P(t).

    With parameters estimated by (mean, divisor-n sd), the integral becomes
    int_0^1 (F_n(t(u)) - u)^2 / (u(1-u)) du, with F_n constant between the
    probability images of the order statistics.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    u_pts = np.sort(nk.cdf((np.sort(x) - x.mean()) / x.std()))
    cuts = np.concatenate(([0.0], u_pts, [1.0]))
    total = 0.0
    for j in range(n + 1):
        lo, hi = cuts[j], cuts[j + 1]
        if hi <= lo:
            continue
        fn = j / n
        f = lambda u, fn=fn: (fn - u) ** 2 / (u * (1.0 - u))
        eps = 1e-11  # integrand is finite at 0/1 but 0/0 in floats
        total += _quad(f, max(lo, eps), min(hi, 1.0 - eps))
    return n * total


class TestAndersonDarling:
    def test_negation_symmetry(self, rng):
        x = rng.standard_normal(30)
        assert anderson_darling(-x) == pytest.approx(anderson_darling(x), rel=1e-12)

    def test_affine_invariance(self, rng):
        x = rng.gamma(3.0, size=40)
        assert anderson_darling(2.0 * x + 5.0) == pytest.approx(
            anderson_darling(x), rel=1e-10
        )

    def test_matches_defining_integral(self, rng):
        x = rng.standard_normal(50)
        assert anderson_darling(x) == pytest.approx(
            _ad_integral(x), abs=1e-6
        )

    def test_positive(self, rng):
        assert anderson_darling(rng.standard_normal(20)) > 0

    def test_clamped_point_matches_batch(self, rng):
        # one dominant outlier at n = 100 standardizes to ~9.9 sd, where the
        # probability saturates to 1.0 in floats and is clamped, silently
        x = np.concatenate([rng.standard_normal(99), [1e9]])
        batch = batch_statistics(x[np.newaxis, :], [BaselineKind.AD])[BaselineKind.AD][0]
        assert anderson_darling(x) == batch
        assert np.isfinite(batch)


class TestShapiroWilk:
    def test_matches_scipy(self, rng):
        for n in (3, 5, 12, 50, 300):
            x = rng.standard_normal(n)
            assert shapiro_wilk(x) == pytest.approx(
                sstats.shapiro(x).statistic, abs=2e-6
            )

    def test_range(self, rng):
        for _ in range(5):
            w = shapiro_wilk(rng.standard_t(3, 25))
            assert 0.0 < w <= 1.0

    def test_normal_scores_near_one(self):
        scores = nk.quantile((np.arange(1, 51) - 0.375) / 50.25)
        assert shapiro_wilk(scores) > 0.99

    def test_affine_invariance(self, rng):
        x = rng.standard_normal(40)
        assert shapiro_wilk(7.0 * x - 3.0) == pytest.approx(shapiro_wilk(x), rel=1e-10)

    def test_size_limit(self, rng):
        with pytest.raises(ValueError):
            shapiro_wilk(rng.standard_normal(5001))


class TestShapiroFrancia:
    def test_normal_scores_near_one(self):
        scores = nk.quantile((np.arange(1, 51) - 0.375) / 50.25)
        assert shapiro_francia(scores) > 0.995

    def test_is_squared_correlation(self, rng):
        x = np.sort(rng.standard_normal(25))
        m = nk.quantile((np.arange(1, 26) - 0.375) / 25.25)
        r = np.corrcoef(x, m)[0, 1]
        # weights are not centred, but sum(m) = 0 by symmetry so the squared
        # correlation and the statistic agree
        assert shapiro_francia(x) == pytest.approx(r**2, rel=1e-10)

    def test_affine_invariance(self, rng):
        x = rng.random(30)
        assert shapiro_francia(-2.0 * x + 1.0) == pytest.approx(
            shapiro_francia(x), rel=1e-10
        )


class TestBcmr:
    def test_weights_telescope_to_zero(self):
        for n in (5, 50, 200):
            assert _bcmr_weights(n).sum() == pytest.approx(0.0, abs=1e-14)

    def test_weights_match_quadrature(self):
        n = 10
        w = _bcmr_weights(n)
        for i in (1, 4, 9):
            lo, hi = (i - 1) / n, i / n
            ref = _quad(nk.quantile, max(lo, 1e-12), min(hi, 1 - 1e-12))
            assert w[i - 1] == pytest.approx(ref, abs=1e-9)

    def test_range_and_minimum_at_normal_quantiles(self, rng):
        scores = nk.quantile((np.arange(1, 51) - 0.5) / 50)
        base = bcmr(scores)
        contaminated = scores.copy()
        contaminated[-1] += 4.0
        assert 0.0 <= base < bcmr(contaminated) <= 1.0

    def test_affine_invariance(self, rng):
        x = rng.standard_t(4, 45)
        assert bcmr(0.5 * x + 20.0) == pytest.approx(bcmr(x), rel=1e-9)


class TestBatchStatistics:
    def test_matches_scalar_ops(self, rng):
        block = rng.standard_t(5, size=(4, 30))
        stats = batch_statistics(block, list(BaselineKind))
        scalar = {
            BaselineKind.TCVM: lambda x: compute_tstar(x).t_star,
            BaselineKind.CVM: compute_untruncated,
            BaselineKind.BCMR: bcmr,
            BaselineKind.AD: anderson_darling,
            BaselineKind.SW: shapiro_francia,
        }
        for kind, fn in scalar.items():
            for i in range(block.shape[0]):
                assert stats[kind][i] == pytest.approx(fn(block[i]), rel=1e-8), kind

    def test_tcvm_and_cvm_together_equal_each_alone(self, rng):
        # together they share psi and H of the unclipped rows; alone, TCVM
        # clips first.  Rows reach beyond +-a_n and hit it exactly.
        n = 50
        a = nk.endpoint(n).a_n
        block = np.vstack(
            [
                rng.standard_t(3, size=(40, n)),
                _row_standardizing_to(a, n, rng),
                _row_standardizing_to(-a, n, rng),
            ]
        )
        y = _standardize_sorted(np.sort(block, axis=1))[0]
        assert np.any(y > a) and np.any(y < -a)
        assert np.any(y == a) and np.any(y == -a)
        tcvm, cvm = BaselineKind.TCVM, BaselineKind.CVM
        alone = {k: batch_statistics(block, [k])[k] for k in (tcvm, cvm)}
        for kinds in ([tcvm, cvm], [cvm, tcvm], list(BaselineKind)):
            together = batch_statistics(block, kinds)
            for k in (tcvm, cvm):
                np.testing.assert_array_equal(together[k], alone[k])

    @pytest.mark.parametrize("n,reps", [(50, 700), (1000, 40), (10_000, 5)])
    def test_rows_split_any_way_give_the_same_bits(self, rng, n, reps):
        # the whole block runs as two slices inside batch_statistics; its
        # pieces as one slice each
        block = rng.standard_t(4, size=(reps, n))
        kinds = list(BaselineKind)
        whole = batch_statistics(block, kinds)
        for rows in (1, 3, 8, 13):
            pieces = [batch_statistics(block[i : i + rows], kinds) for i in range(0, reps, rows)]
            for kind in kinds:
                joined = np.concatenate([piece[kind] for piece in pieces])
                np.testing.assert_array_equal(joined, whole[kind], err_msg=f"{kind} {rows}")

    def test_row_scaling_keeps_the_bits_of_ordinary_rows(self, rng):
        # scaling each row by a power of two is exact: the kernels on the
        # unscaled rows give the same bits
        block = rng.standard_normal((200, 50))
        x_sorted = np.sort(block, axis=1)
        y_sorted, ssq = _standardize_sorted(x_sorted)
        tcvm, cvm = _weighted_cvm(y_sorted)
        unscaled = {
            BaselineKind.TCVM: tcvm,
            BaselineKind.CVM: cvm,
            BaselineKind.AD: _batch_ad(y_sorted),
            BaselineKind.SW: _batch_sw_like(x_sorted, ssq),
            BaselineKind.BCMR: _batch_bcmr(x_sorted, ssq),
        }
        stats = batch_statistics(block, list(BaselineKind))
        for kind, values in unscaled.items():
            np.testing.assert_array_equal(stats[kind], values, err_msg=str(kind))

    def test_squares_past_overflow_match_scalar(self):
        x = np.array([1e200, -1e200, 3e199, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stats = batch_statistics(x[np.newaxis, :], list(BaselineKind))
        assert stats[BaselineKind.TCVM][0] == pytest.approx(compute_tstar(x).t_star, rel=1e-9)
        assert stats[BaselineKind.CVM][0] == compute_untruncated(x)
        assert stats[BaselineKind.AD][0] == anderson_darling(x)
        assert stats[BaselineKind.BCMR][0] == bcmr(x)
        assert stats[BaselineKind.SW][0] == shapiro_francia(x)

    def test_tails_registry_complete(self):
        assert set(REJECTION_TAIL) == set(BaselineKind)
        assert REJECTION_TAIL[BaselineKind.SW] == "lower"
        assert REJECTION_TAIL[BaselineKind.TCVM] == "upper"

    def test_kind_parsing(self):
        assert BaselineKind.parse(" SW ") is BaselineKind.SW
        with pytest.raises(ValueError, match="unknown test kind"):
            BaselineKind.parse("banana")

    @pytest.mark.parametrize("kind", ["ad", None, 3])
    def test_kinds_must_be_members(self, rng, kind):
        with pytest.raises(ValueError, match="unknown test kind.*BaselineKind.AD"):
            batch_statistics(rng.standard_normal((2, 10)), [BaselineKind.TCVM, kind])


def _plain_statistics(block: np.ndarray) -> dict:
    """Every kind by its plain formula, one full-array pass per operation.

    Each operation is the one the kernels run, so the bits must agree: the
    kernels share one moments pass, work in place and fold signs, but do
    not reorder any floating-point operation.
    """
    n = block.shape[1]
    xs = np.sort(block, axis=1)
    xs = np.ldexp(xs, -np.frexp(np.max(np.abs(xs), axis=1, keepdims=True))[1])
    y = (xs - xs.mean(axis=1, keepdims=True)) / xs.std(axis=1, keepdims=True)
    i = np.arange(1, n + 1)
    u = np.clip(nk.cdf(y), 1e-15, 1.0 - 1e-15)
    ad = -n - ((np.log(u) + np.log1p(-u[:, ::-1])) * (2.0 * i - 1.0)).sum(axis=1) / n
    ssq = np.sum((xs - xs.mean(axis=1, keepdims=True)) ** 2, axis=1)
    sw = (xs * _sf_weights(n)).sum(axis=1) ** 2 / ssq
    bcmr_ = 1.0 - (xs * _bcmr_weights(n)).sum(axis=1) ** 2 / xs.var(axis=1)
    odd = np.where(y < 0.0, 2.0 * i - 1.0, 2.0 * (n - i) + 1.0)

    def folded(limit, g):
        v = -np.minimum(np.abs(y), limit)
        psi, h = nk.recip_pdf_antiderivative(v), nk.cdf_over_pdf_antiderivative(v)
        return 2.0 * h.sum(axis=1) - (odd * psi).sum(axis=1) / n - 2.0 * n * g

    a = nk.endpoint(n).a_n
    tcvm = folded(a, nk.cdf_sq_over_pdf_antiderivative(-a))
    cvm = folded(_MAX_ABS_Y, -0.5 * np.log(2.0))
    cvm[np.max(np.abs(y), axis=1) > _MAX_ABS_Y] = np.inf
    return {
        BaselineKind.TCVM: tcvm,
        BaselineKind.CVM: cvm,
        BaselineKind.AD: ad,
        BaselineKind.SW: sw,
        BaselineKind.BCMR: bcmr_,
    }


@pytest.mark.parametrize("n,reps", [(5, 3000), (50, 1500), (1000, 40), (3000, 6)])
def test_kernels_have_the_bits_of_the_plain_formulas(rng, n, reps):
    block = rng.standard_t(3, size=(reps, n))
    if n == 3000:
        block[0, 7] = 1e4  # standardizes to ~54.8, past the whole-line limit
    plain = _plain_statistics(block)
    if n == 3000:
        assert plain[BaselineKind.CVM][0] == np.inf
    together = batch_statistics(block, list(BaselineKind))
    for kind, values in plain.items():
        np.testing.assert_array_equal(together[kind], values, err_msg=str(kind))
        alone = batch_statistics(block, [kind])[kind]
        np.testing.assert_array_equal(alone, values, err_msg=str(kind))


def _row_standardizing_to(target: float, n: int, rng) -> np.ndarray:
    """A sample whose standardized sorted row holds ``target`` exactly.

    Bisects the last observation t until its standardized value brackets
    the target between adjacent doubles, then scans the neighbouring
    doubles for an exact hit; draws a new base sample if none hits.
    """

    def y_of(t):
        row = base.copy()
        row[-1] = t
        y = _standardize_sorted(np.sort(row)[np.newaxis, :])[0][0]
        return y[-1] if target > 0 else y[0]

    for _ in range(20):
        base = rng.standard_normal(n)
        lo, hi = (0.0, 50.0) if target > 0 else (-50.0, 0.0)
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if y_of(mid) < target else (lo, mid)
        t = lo
        for _ in range(40):
            if y_of(t) == target:
                base[-1] = t
                return base
            t = np.nextafter(t, np.inf)
    raise AssertionError(f"no sample standardizes exactly to {target}")


def test_null_quantiles_match_published_tables(rng):
    """5% critical points with well-known reference values.

    Anderson-Darling (estimated parameters) ~ 0.752 and the normal-scores
    correlation statistic at n = 50 ~ 0.953.  A coarse simulation pins each
    within a tight band, which guards against any silent change of
    convention (divisor, tail, weights).
    """
    reps, n = 20_000, 50
    block = rng.standard_normal((reps, n))
    stats = batch_statistics(block, [BaselineKind.AD, BaselineKind.SW])
    ad_crit = np.quantile(stats[BaselineKind.AD], 0.95)
    sf_crit = np.quantile(stats[BaselineKind.SW], 0.05)
    assert ad_crit == pytest.approx(0.752, abs=0.025)
    assert sf_crit == pytest.approx(0.953, abs=0.004)


@pytest.mark.parametrize(
    "fn",
    [bcmr, shapiro_francia, anderson_darling, lambda x: compute_tstar(x).t_star, compute_untruncated],
)
def test_squares_past_overflow(fn):
    # squaring 1e200 overflows; the statistics are scale invariant, and a
    # power-of-two scale keeps every bit
    x = np.array([1e200, -1e200, 3e199, 5.0])
    assert fn(x) == fn(np.ldexp(x, -600))


def _batch_of(kind):
    def fn(x):
        return batch_statistics(np.vstack([x, x]), [kind])[kind]

    fn.__name__ = f"batch_{kind.value}"
    return fn


def test_weight_caches_stay_bounded(rng):
    from tcvm.statistic import _WEIGHT_CACHE_SIZE, _rank_weights

    caches = (_rank_weights, _sf_weights, _bcmr_weights)
    for n in range(4, 204):
        batch_statistics(rng.standard_normal((1, n)), list(BaselineKind))
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == _WEIGHT_CACHE_SIZE
        assert info.currsize <= _WEIGHT_CACHE_SIZE


@pytest.mark.parametrize(
    "fn", [shapiro_wilk, shapiro_francia, bcmr] + [_batch_of(k) for k in BaselineKind]
)
def test_constant_sample_raises(fn):
    # one check for every statistic, whichever kinds a batch asks for
    with pytest.raises(DegenerateSampleError, match="constant"):
        fn(np.full(12, 2.5))


def test_import_leaves_scipy_stats_unloaded():
    # shapiro_wilk imports scipy.stats and compute_tstar_direct imports
    # scipy.integrate on first use: loading either with the package or on
    # the tcvm_test path would add much of the import time and memory
    import tcvm

    src = os.path.dirname(os.path.dirname(os.path.abspath(tcvm.__file__)))
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import tcvm\n"
        "tcvm.embedded_table()\n"
        "tcvm.tcvm_test([0.3, -1.2, 0.8, 2.5, -0.4, 1.1, -0.9, 0.05, 1.7, -2.2])\n"
        "print([m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_user_path_loads_no_scipy_module(tmp_path):
    # a_n, the Taylor grids and the table lookup need no scipy, so a one-shot
    # tcvm test pays for numpy alone; a subprocess, because the pytest config
    # imports scipy.integrate for its warning filter
    import tcvm

    data = tmp_path / "sample.txt"
    data.write_text("\n".join(str(v) for v in np.linspace(-2.0, 2.5, 60) ** 3))
    src = os.path.dirname(os.path.dirname(os.path.abspath(tcvm.__file__)))
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import tcvm, tcvm.cli\n"
        "tcvm.embedded_table()\n"
        "tcvm.tcvm_test([0.3, -1.2, 0.8, 2.5, -0.4, 1.1, -0.9, 0.05, 1.7, -2.2])\n"
        f"assert tcvm.cli.main(['test', {str(data)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_user_path_loads_only_the_modules_it_calls(tmp_path):
    # import tcvm binds no submodule, and a one-shot test loads neither the
    # Monte Carlo engine, its samplers and comparison tests, nor the stdlib
    # and numpy modules they bring
    import tcvm

    data = tmp_path / "sample.txt"
    data.write_text("\n".join(str(v) for v in np.linspace(-2.0, 2.5, 60) ** 3))
    src = os.path.dirname(os.path.dirname(os.path.abspath(tcvm.__file__)))
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'tcvm' or m.startswith('tcvm.'))\n"
        "import tcvm\n"
        "stages = [loaded()]\n"
        "tcvm.embedded_table()\n"
        "stages.append(loaded())\n"
        "tcvm.tcvm_test([0.3, -1.2, 0.8, 2.5, -0.4, 1.1, -0.9, 0.05, 1.7, -2.2])\n"
        "stages.append(loaded())\n"
        "import tcvm.cli\n"
        f"assert tcvm.cli.main(['test', {str(data)!r}]) == 0\n"
        "stages.append(loaded())\n"
        "heavy = ('numpy.random', 'concurrent.futures', 'fractions')\n"
        "print((stages, [m for m in heavy if m in sys.modules]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    stages, heavy = ast.literal_eval(done.stdout.strip().splitlines()[-1])
    table = ["tcvm", "tcvm._table_data", "tcvm.normal", "tcvm.table"]
    assert stages == [
        ["tcvm"],
        table,
        sorted(table + ["tcvm.statistic"]),
        sorted(table + ["tcvm.cli", "tcvm.statistic"]),
    ]
    assert heavy == []
