import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcvm import normal as nk
from tcvm.alternatives import (
    TABLE1_ALTERNATIVES,
    AlternativeSpec,
    ArityError,
    ParamDomainError,
    SpecError,
    UnknownFamilyError,
    _ALIASES,
    _FAMILIES,
    _PhiloxKey,
    _family,
    draw,
    parse_spec,
    replication_rng,
    sample,
)


class TestParse:
    def test_location_mixture(self):
        spec = parse_spec("LoConN(0.5,4)")
        assert spec.family == "LoConN"
        assert spec.params == (0.5, 4.0)

    def test_tukey(self):
        assert parse_spec("Tukey(0.14)") == AlternativeSpec("Tukey", (0.14,))

    def test_arity_error(self):
        with pytest.raises(ArityError):
            parse_spec("Beta(2)")

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            parse_spec("Zeta(1,2)")

    @pytest.mark.parametrize(
        "text",
        ["LoConN(1.5,1)", "ScConN(0.1,-1)", "TruncN(2,1)", "Weibull(0)", "SB(0,0)"],
    )
    def test_domain_errors(self, text):
        with pytest.raises(ParamDomainError):
            parse_spec(text)

    def test_syntax_errors(self):
        with pytest.raises(SpecError):
            parse_spec("LoConN 0.5 4")
        with pytest.raises(SpecError):
            parse_spec("LoConN(a,b)")

    @pytest.mark.parametrize(
        "alias,family",
        [("t(10)", "StudentT"), ("Logist(0,1)", "Logistic"), ("chi2(4)", "ChiSq")],
    )
    def test_aliases(self, alias, family):
        assert parse_spec(alias).family == family

    def test_round_trip_string(self):
        spec = parse_spec("ScConN(0.1,7)")
        assert parse_spec(str(spec)) == spec


def _text(family, params):
    return f"{family}({','.join(repr(float(p)) for p in params)})"


class TestOneSpecCheck:
    """A spec built by hand is checked as strictly as a parsed one, when it is built."""

    @staticmethod
    def every_path(family, params):
        yield lambda: AlternativeSpec(family, params)
        yield lambda: AlternativeSpec(family=family, params=list(params))
        yield lambda: parse_spec(_text(family, params))
        yield lambda: dataclasses.replace(parse_spec("Normal(0,1)"), family=family, params=params)

    @pytest.mark.parametrize("params", [(0.0,), (0.0, 1.0, 5.0)], ids=str)
    def test_built_spec_with_wrong_arity(self, params):
        # one parameter short ended in IndexError; one too many was ignored
        for call in self.every_path("Normal", params):
            with pytest.raises(ArityError):
                call()

    @pytest.mark.parametrize(
        "family, params",
        [
            ("Normal", (0.0, math.nan)),
            ("Tukey", (math.nan,)),
            ("Normal", (0.0, math.inf)),
            ("Unif", (0.0, math.inf)),
            ("Normal", (-math.inf, 1.0)),
        ],
        ids=["Normal(0,nan)", "Tukey(nan)", "Normal(0,inf)", "Unif(0,inf)", "Normal(-inf,1)"],
    )
    def test_nan_or_infinite_parameter(self, family, params):
        # each drew nan or inf: a run calibrated, then failed on its samples
        for call in self.every_path(family, params):
            with pytest.raises(ParamDomainError):
                call()

    @pytest.mark.parametrize("params", [(-math.inf, 1.0), (0.5, math.inf)], ids=str)
    def test_truncn_takes_infinite_bounds(self, params):
        spec = AlternativeSpec("TruncN", params)
        assert parse_spec(str(spec)) == spec
        draws = sample(spec, 10_000, seed=3)
        assert np.isfinite(draws).all()
        assert params[0] < draws.min() and draws.max() < params[1]

    def test_unknown_family_raises_when_built(self):
        with pytest.raises(UnknownFamilyError):
            AlternativeSpec("Zeta", (1.0, 2.0))

    @pytest.mark.parametrize("params", ["12", ("1", 2.0), (1.0, 2j)], ids=str)
    def test_non_numeric_parameter_raises_when_built(self, params):
        # float() would read the string "12" as Normal(1,2)
        with pytest.raises(SpecError, match="must be real numbers"):
            AlternativeSpec("Normal", params)

    def test_fields_are_family_and_params(self):
        assert [f.name for f in dataclasses.fields(AlternativeSpec)] == ["family", "params"]


# One out-of-domain value per parameter of every family (nan aside), and
# the parameter's label; TruncN's bounds may be infinite, so only their
# order can fail
_OUT_OF_DOMAIN = [
    ("LoConN(1.5,1)", "mixing probability"),
    ("LoConN(0.5,inf)", "shift"),
    ("ScConN(-0.1,3)", "mixing probability"),
    ("ScConN(0.1,0)", "contaminating variance"),
    ("TruncN(1,-inf)", "lower bound"),
    ("TruncN(inf,inf)", "upper bound"),
    ("SB(-inf,1)", "Johnson gamma"),
    ("SB(0,-1)", "Johnson delta"),
    ("SU(inf,1)", "Johnson gamma"),
    ("SU(0,inf)", "Johnson delta"),
    ("TriangleI(0)", "half-width"),
    ("TriangleII(-1)", "width"),
    ("Unif(-inf,1)", "lower bound"),
    ("Unif(1,0.5)", "upper bound"),
    ("Beta(0,2)", "alpha"),
    ("Beta(2,inf)", "beta"),
    ("t(0)", "degrees of freedom"),
    ("Logistic(inf,1)", "location"),
    ("Logistic(0,0)", "scale"),
    ("Laplace(-inf,1)", "location"),
    ("Laplace(0,-1)", "scale"),
    ("Weibull(0)", "shape"),
    ("HalfN(inf,1)", "location"),
    ("HalfN(0,0)", "scale"),
    ("ChiSq(-1)", "degrees of freedom"),
    ("Lognormal(-inf,1)", "log-mean mu"),
    ("Lognormal(0,0)", "log-scale sigma"),
    ("Tukey(inf)", "lambda"),
    ("Normal(inf,1)", "mean"),
    ("Normal(0,inf)", "standard deviation"),
]


@pytest.mark.parametrize("text, label", _OUT_OF_DOMAIN)
def test_domain_error_names_the_parameter(text, label):
    # an infinite mean was refused as "parameters must be finite, got (...)"
    with pytest.raises(ParamDomainError) as err:
        parse_spec(text)
    assert str(err.value).startswith(f"{_family(text.split('(')[0]).name}: ")
    assert label in str(err.value)
    # a spec built by hand from the same text raises the same error
    name, inner = text[:-1].split("(")
    with pytest.raises(ParamDomainError) as built:
        AlternativeSpec(name, tuple(float(p) for p in inner.split(",")))
    assert type(built.value) is type(err.value)
    assert str(built.value) == str(err.value)


def test_out_of_domain_cases_name_every_parameter():
    named = {(_family(text.split("(")[0]).name, label) for text, label in _OUT_OF_DOMAIN}
    assert named == {
        (fam.name, label) for fam in _FAMILIES.values() for label, _ in fam.params
    }


_NAMES = sorted({fam.name for fam in _FAMILIES.values()} | set(_ALIASES))
_PARAM = st.floats(allow_nan=True, allow_infinity=True)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(_NAMES), st.lists(_PARAM, max_size=3))
def test_any_name_and_parameters_raise_only_spec_errors(name, params):
    text = f"{name}({','.join(repr(p) for p in params)})"
    for call in (lambda: parse_spec(text), lambda: AlternativeSpec(name, tuple(params))):
        try:
            call()
        except SpecError:
            pass


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        spec = parse_spec("SU(0,1)")
        a = sample(spec, 1000, seed=42)
        b = sample(spec, 1000, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        spec = parse_spec("Unif(0,1)")
        assert not np.array_equal(sample(spec, 100, 1), sample(spec, 100, 2))


# sha256 of draw(spec, 50, replication_rng(7, r)).tobytes() for r = 0..3,
# recorded before the families were split into raw calls and transforms;
# any change to a family's generator calls or arithmetic shows here.
PINNED_DRAWS = {
    "LoConN(0.3,2.5)": "e28b0448c3a3c4ebf9263816960b1dc44987eb13fe6bd209fc6bbbd0881ea516",
    "ScConN(0.3,4)": "38e5680eee5ed292eff285456d787c3d7b3ff684e5a7e50e57abd486e99d288d",
    "TruncN(-1.5,0.5)": "1dfe485be20dd6fb62c5013424b07f48199303fd72bf7f5945cd8399fff199f7",
    "SB(0.5,0.707)": "d83d3c0460abfba1b078e9a1af2117a8a91f6cfa8f9f29d2806ace4b62eed1eb",
    "SU(0.5,2)": "8ba606cb82875d3780ff96c6f93fb64dbbbc14f41f8d97ec2567cf04c4695f23",
    "TriangleI(1.5)": "2d402c115af327e5f3e39b5f846c6263bcfbf14a1a060305b5c6272b34316cf9",
    "TriangleII(2)": "5b3a3889a8d519454ef47d3ff877a9dbbc5761b4c2c6ea252d8cae8171510c65",
    "Unif(-1,3)": "bfe0eaae79b215fc9d1a446e9e64fcc2d9c05c61e6947f438eef10cf39543322",
    "Beta(2,3)": "37f0f88e1683b6d13254c18ae9a6aff01435356e4aed4df43968771eaebe722f",
    "t(4)": "8c252e9f43b635c0d0ce5e165ddf840f854ed2cc9dccfa97da7568796f45bb17",
    "Logistic(1,2)": "ad1a4ac806cd183e33bd4a54ca66ecbf9cfa9d15ec594f1b0432a900cbbb893c",
    "Laplace(1,2)": "8cbf0e1d49f5d6bc2158f44d246423a376fb9271fee1e75d9bf3e27f9a7adcdb",
    "Weibull(1.5)": "181c1fea5abfe50326cec7961e9d989e1b49defbe050a21da79d8ed8687c8c1b",
    "HalfN(1,2)": "cb48a010557ee922a78b8eafc1ce5d0b0b0f7314cb930e5446dfd3a751c7345c",
    "ChiSq(3)": "ca62404a16632e967c7dce0fde51a02e54bf9378c633f3405610c219b600b2d4",
    "Lognormal(0.5,1)": "a19b8b0f1471303c3ef5336412f810006adf245baed37ecd515551f1c2e95952",
    "Tukey(0.14)": "9d0b6f4ba996d8c60ba1f816e9ce8470e922a6b9663e7b704c4c0cb20c2cd82a",
    "Normal(1,2)": "bd070aa00418ce14d5a805d152e11227fc3aa4d066d485c2737b2a4a101e625e",
}


def test_every_family_is_pinned():
    pinned = {parse_spec(text).family for text in PINNED_DRAWS}
    assert pinned == {fam.name for fam in _FAMILIES.values()}


@pytest.mark.parametrize("text", sorted(PINNED_DRAWS))
def test_draws_match_pinned_digest(text):
    from tcvm.engine import _draw_block, _Workspace, replication_rng

    spec = parse_spec(text)
    digest = hashlib.sha256()
    for r in range(4):
        digest.update(draw(spec, 50, replication_rng(7, r)).tobytes())
    assert digest.hexdigest() == PINNED_DRAWS[text]
    block = _draw_block(_Workspace(spec, 50, 7, 4), 0, 4)
    assert hashlib.sha256(block.tobytes()).hexdigest() == PINNED_DRAWS[text]


class TestSamplerCache:
    """``draw`` takes the calls and parameters a spec was built with."""

    def test_zero_and_negative_zero_keep_their_own_entries(self):
        # LoConN(1, a) adds a to every raw normal draw; -0.0 + a shows a's sign
        raw = [np.zeros(1), np.array([-0.0])]
        for zero in (0.0, -0.0, 0.0, -0.0):
            spec = AlternativeSpec("LoConN", (1.0, zero))
            out = spec._transform(raw, spec.params)
            assert math.copysign(1.0, out[0]) == math.copysign(1.0, zero)

    @pytest.mark.parametrize("params", [[1.0, 2.0], (1, 2), (np.float64(1.0), 2.0)], ids=str)
    def test_other_parameter_containers_draw_the_pinned_values(self, params):
        from tcvm.engine import replication_rng

        digest = hashlib.sha256()
        for r in range(4):
            digest.update(draw(AlternativeSpec("Normal", params), 50, replication_rng(7, r)).tobytes())
        assert digest.hexdigest() == PINNED_DRAWS["Normal(1,2)"]

    def test_built_spec_holds_canonical_name_and_floats(self):
        spec = AlternativeSpec("t", [4])
        assert spec == parse_spec("t(4)")
        assert repr(spec) == "AlternativeSpec(family='StudentT', params=(4.0,))"

    def test_spec_built_from_a_list_is_hashable(self):
        spec = AlternativeSpec("Normal", [1.0, 2.0])
        assert hash(spec) == hash(parse_spec("Normal(1,2)"))
        assert {spec: 1}[parse_spec("Normal(1,2)")] == 1

    def test_changing_the_list_after_construction_changes_nothing(self):
        params = [1.0, 2.0]
        spec = AlternativeSpec("Normal", params)
        before = draw(spec, 4, replication_rng(7, 0))
        params[0] = 5.0
        assert spec.params == (1.0, 2.0)
        np.testing.assert_array_equal(draw(spec, 4, replication_rng(7, 0)), before)

    def test_pickle_round_trip_draws_the_same(self):
        for text in PINNED_DRAWS:
            spec = parse_spec(text)
            back = pickle.loads(pickle.dumps(spec))
            assert back == spec and repr(back) == repr(spec)
            np.testing.assert_array_equal(
                draw(back, 50, replication_rng(7, 1)), draw(spec, 50, replication_rng(7, 1))
            )


@pytest.mark.parametrize(
    "seed, rep", [(0, 0), (7, 3), (2**63, 2**63 + 1), (2**64 - 1, 2**64 - 1), (-1, 2**64 + 5)]
)
def test_replication_rng_is_the_keyed_philox(seed, rep):
    key = np.array([seed % 2**64, rep % 2**64], dtype=np.uint64)
    ours, keyed = replication_rng(seed, rep), np.random.Generator(np.random.Philox(key=key))
    assert repr(ours.bit_generator.state) == repr(keyed.bit_generator.state)
    for method in ("random", "standard_normal"):
        np.testing.assert_array_equal(getattr(ours, method)(5), getattr(keyed, method)(5))
    np.testing.assert_array_equal(
        ours.integers(0, 2**32, 5, dtype=np.uint32), keyed.integers(0, 2**32, 5, dtype=np.uint32)
    )


def test_philox_key_refuses_other_state_sizes():
    with pytest.raises(ValueError, match="2 words"):
        _PhiloxKey(np.zeros(2, np.uint64)).generate_state(4, np.uint32)


SUPPORT = {
    "TruncN(-1,1)": (-1.0, 1.0),
    "TruncN(-2,1)": (-2.0, 1.0),
    "SB(0,0.5)": (0.0, 1.0),
    "SB(1,2)": (0.0, 1.0),
    "Beta(2,2)": (0.0, 1.0),
    "Beta(2,1)": (0.0, 1.0),
    "TriangleI(1)": (-1.0, 1.0),
    "TriangleII(1)": (0.0, 1.0),
    "HalfN(0,1)": (0.0, math.inf),
    "Weibull(2)": (0.0, math.inf),
    "ChiSq(4)": (0.0, math.inf),
    "Lognormal(0,1)": (0.0, math.inf),
    "Unif(0,1)": (0.0, 1.0),
}


@pytest.mark.parametrize("text", SUPPORT)
def test_support(text):
    lo, hi = SUPPORT[text]
    draws = sample(parse_spec(text), 100_000, seed=7)
    assert draws.min() >= lo - 1e-12
    assert draws.max() <= hi + 1e-12


SYMMETRIC_FAMILIES = [
    "TriangleI(1.5)",
    "TruncN(-2,2)",
    "ScConN(0.3,4)",
    "Tukey(0.5)",
    "Tukey(-0.5)",
    "t(5)",
    "Logistic(0,1)",
    "Laplace(0,1)",
    "SU(0,1)",
]


@pytest.mark.parametrize("text", SYMMETRIC_FAMILIES)
def test_sign_balance_of_symmetric_families(text):
    n = 100_000
    draws = sample(parse_spec(text), n, seed=11)
    imbalance = abs(np.count_nonzero(draws > 0) - np.count_nonzero(draws < 0))
    assert imbalance <= 4.0 * math.sqrt(n)


class TestMoments:
    def test_location_mixture_mean(self):
        draws = sample(parse_spec("LoConN(0.5,3)"), 100_000, seed=3)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.5) <= 4.0 * se

    def test_scale_mixture_variance_uses_variance_parameter(self):
        # ScConN(p, a) contaminates with variance a: var = (1-p) + p*a
        draws = sample(parse_spec("ScConN(0.5,4)"), 200_000, seed=5)
        assert draws.var() == pytest.approx(0.5 + 0.5 * 4.0, rel=0.03)

    def test_triangle_mean_zero(self):
        draws = sample(parse_spec("TriangleI(1)"), 100_000, seed=9)
        assert abs(draws.mean()) <= 4.0 * draws.std() / math.sqrt(draws.size)

    def test_uniform_moments(self):
        draws = sample(parse_spec("Unif(0,1)"), 100_000, seed=13)
        assert draws.mean() == pytest.approx(0.5, abs=0.005)
        assert draws.var() == pytest.approx(1.0 / 12.0, rel=0.02)

    def test_laplace_variance(self):
        draws = sample(parse_spec("Laplace(0,1)"), 200_000, seed=17)
        assert draws.var() == pytest.approx(2.0, rel=0.03)

    def test_weibull_mean(self):
        draws = sample(parse_spec("Weibull(2)"), 200_000, seed=19)
        assert draws.mean() == pytest.approx(math.gamma(1.5), rel=0.01)

    def test_lognormal_mean(self):
        draws = sample(parse_spec("Lognormal(0,1)"), 400_000, seed=23)
        assert draws.mean() == pytest.approx(math.exp(0.5), rel=0.02)


def quantile_fn(text: str, u) -> np.ndarray:
    """Quantile of a family at u, as its sampler applies it.

    That is the transform of one uniform draw u, or, for a family drawn
    from one standard normal through a monotone transform, the transform of
    the normal quantile of u.
    """
    spec = parse_spec(text)
    fam = _FAMILIES[spec.family.lower()]
    u = np.asarray(u, dtype=float)
    raw = u if fam.raw == (("random", ()),) else nk.quantile(u)
    return fam.transform([raw], spec.params)


class TestQuantileFn:
    def test_tukey_median(self):
        assert quantile_fn("Tukey(0)", 0.5) == 0.0

    def test_uniform_identity(self):
        u = np.linspace(0.05, 0.95, 7)
        np.testing.assert_allclose(quantile_fn("Unif(0,1)", u), u)

    def test_laplace_upper_decile(self):
        assert quantile_fn("Laplace(0,1)", 0.9) == pytest.approx(-math.log(0.2), rel=1e-12)

    def test_truncn_matches_formula(self):
        u = 0.3
        expected = nk.quantile(nk.cdf(-1.0) + u * (nk.cdf(1.0) - nk.cdf(-1.0)))
        assert quantile_fn("TruncN(-1,1)", u) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "text",
        ["Tukey(0.14)", "Logistic(0,1)", "SB(0,0.5)", "SU(0,1)", "TriangleII(2)"],
    )
    def test_monotone(self, text):
        u = np.linspace(0.01, 0.99, 99)
        q = quantile_fn(text, u)
        assert np.all(np.diff(q) >= 0.0)

    def test_domain(self):
        # generators draw u in [0, 1): u = 0 must give a finite value
        for text in ("Tukey(0)", "Tukey(0.14)", "Logistic(0,1)", "TruncN(-1,1)", "Laplace(0,1)"):
            assert np.isfinite(quantile_fn(text, 0.0)), text
        # and the same value as the smallest nonzero draw, 2^-53
        for text in ("Tukey(0)", "Logistic(0,1)", "Laplace(0,1)"):
            assert quantile_fn(text, 0.0) == quantile_fn(text, 2.0**-53), text

    @pytest.mark.parametrize(
        "a, b", [(9.0, 10.0), (40.0, 50.0), (-50.0, -40.0), (-math.inf, -40.0)]
    )
    def test_one_tail_truncn_draws_vary_inside(self, a, b):
        # cdf(a) and cdf(b) rounded to one value here, and every draw was the
        # same constant outside (a, b)
        from scipy.stats import truncnorm

        draws = sample(AlternativeSpec("TruncN", (a, b)), 10_000, seed=5)
        assert a < draws.min() and draws.max() < b
        assert np.unique(draws).size == draws.size
        mean, var = truncnorm.stats(a, b, moments="mv")
        assert abs(draws.mean() - mean) <= 5.0 * math.sqrt(var / draws.size)

    @pytest.mark.parametrize("a, b", [(1e-20, 2e-20), (-1e-20, 1e-20), (-1e-300, 1e-300)])
    def test_truncn_narrower_than_the_cdf_resolves_draws_inside(self, a, b):
        # cdf(a) and cdf(b) lie within a few ulps of 1/2 here: the draws were
        # 0.0, or a few values outside (a, b)
        draws = sample(AlternativeSpec("TruncN", (a, b)), 1000, seed=1)
        assert np.unique(draws).size > 1
        assert a <= draws.min() and draws.max() <= b

    def test_far_tail_truncn_stays_in_support(self):
        # cdf(-10) ~ 7.6e-24 lies far below the 2^-53 floor of the other families
        q = quantile_fn("TruncN(-10,-9)", np.array([0.0, 0.5, 1.0 - 2.0**-53]))
        assert np.all(np.abs(q + 9.5) <= 0.5 + 1e-12) and np.all(np.diff(q) > 0.0)


def test_quantile_based_sampling_matches_quantile_fn():
    # inverse-CDF families push the generator's uniforms through the quantile
    seed = 77
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    u = rng.random(50)
    expected = np.log(u / (1.0 - u))  # standard logistic quantile
    drawn = sample(parse_spec("Logistic(0,1)"), 50, seed)
    np.testing.assert_allclose(drawn, expected, rtol=1e-12)
    np.testing.assert_allclose(quantile_fn("Logistic(0,1)", u), expected, rtol=1e-12)


def test_table1_catalogue_parses():
    assert len(TABLE1_ALTERNATIVES) == 35
    rows = [row for _, row, _ in TABLE1_ALTERNATIVES]
    assert rows == list(range(1, 36))
    for _, _, text in TABLE1_ALTERNATIVES:
        parse_spec(text)
