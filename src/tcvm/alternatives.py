"""Alternative-hypothesis families: a small spec grammar and seeded samplers.

Families follow the Gan-Koehler naming used by the power study:

* ``LoConN(p, a)``  - mixture of N(0,1) w.p. 1-p and N(a,1) w.p. p
* ``ScConN(p, a)``  - mixture of N(0,1) w.p. 1-p and N(0, a) w.p. p, where
  ``a`` is the contaminating *variance* (N(mean; variance) notation)
* ``TruncN(a, b)``  - N(0,1) conditioned on (a, b)
* ``SB(a, b)`` / ``SU(a, b)`` - Johnson bounded / unbounded transforms of a
  standard normal draw Z: 1/(1 + exp(-(Z-a)/b)) and sinh((Z-a)/b)
* ``TriangleI(a)``  - symmetric triangle on [-a, a]
* ``TriangleII(a)`` - decreasing triangle on [0, a]
* ``Tukey(lam)``    - quantile (u^lam - (1-u)^lam)/lam, logistic at lam = 0
* plus Unif, Beta, StudentT (``t``), Logistic, Laplace, Weibull, HalfN,
  ChiSq, Lognormal and Normal.

Sampling is inverse-CDF based wherever the family has a closed quantile;
the rest use transforms of normal draws or the generator's dedicated
methods.  Every draw consumes a caller-provided ``numpy.random.Generator``,
so identical (spec, n, seed) triples reproduce bit-identical samples.

Each family declares its parameters' names and domains, which every spec
is checked against once, when it is built (an error names the parameter),
and its raw generator calls, in order, with an elementwise transform of
their arrays.  A spec keeps its calls and the transform, so the engine can
fill many rows of raw draws, each from its own stream, and transform them
in one pass with the same bits as ``draw`` gives row by row.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .normal import cdf, quantile

__all__ = [
    "AlternativeSpec",
    "SpecError",
    "UnknownFamilyError",
    "ArityError",
    "ParamDomainError",
    "parse_spec",
    "sample",
    "draw",
    "replication_rng",
    "TABLE1_ALTERNATIVES",
]


class SpecError(ValueError):
    """Base class for alternative-spec failures."""


class UnknownFamilyError(SpecError):
    pass


class ArityError(SpecError):
    pass


class ParamDomainError(SpecError):
    pass


def _open_unit(u: np.ndarray) -> np.ndarray:
    # draws lie on a 2^-53 grid in [0, 1): 0 becomes the smallest nonzero one
    return np.clip(np.asarray(u, float), 2.0**-53, 1.0 - 2.0**-53)


def _tukey_quantile(u: np.ndarray, lam: float) -> np.ndarray:
    u = _open_unit(u)
    if lam == 0.0:
        return np.log(u / (1.0 - u))
    return (u**lam - (1.0 - u) ** lam) / lam


def _triangle1_quantile(u, p):
    u, a = np.asarray(u, float), p[0]
    lower = a * (np.sqrt(2.0 * u) - 1.0)
    upper = a * (1.0 - np.sqrt(2.0 * (1.0 - u)))
    return np.where(u < 0.5, lower, upper)


# A raw call names a Generator method and the indices of the parameters it
# takes before the size: ("beta", (0, 1)) draws rng.beta(p[0], p[1], n).
_RawCall = Tuple[str, Tuple[int, ...]]
_U: _RawCall = ("random", ())
_Z: _RawCall = ("standard_normal", ())


# A parameter domain is a test of one value and the rule it states.  nan
# is refused before any domain is tested, since it fails every comparison.
_Domain = Tuple[Callable[[float], bool], str]
_REAL: _Domain = (math.isfinite, "must be finite")
_POSITIVE: _Domain = (lambda p: math.isfinite(p) and p > 0.0, "must be finite and > 0")
_PROB: _Domain = (lambda p: 0.0 <= p <= 1.0, "must lie in [0, 1]")
# N(0,1) conditioned on a half-line draws finite values
_BOUND: _Domain = (lambda p: not math.isnan(p), "must not be nan")


@dataclass(frozen=True)
class _Family:
    """A family's parameters, its raw generator calls, in order, and their
    transform.

    ``params`` holds one (label, domain) pair per parameter; ``ordered``
    asks for params[0] < params[1].  ``transform(raw, params)`` maps the
    arrays of the raw calls to the sample elementwise, so it gives the same
    bits on one row or on many.
    """

    name: str
    params: Tuple[Tuple[str, _Domain], ...]
    raw: Tuple[_RawCall, ...]
    transform: Callable[[Sequence[np.ndarray], Tuple[float, ...]], np.ndarray]
    ordered: bool = False


def _inverse_cdf(quantile_of):
    """Transform of one uniform draw through the family's quantile."""
    return lambda raw, p: quantile_of(raw[0], p)


def _as_drawn(raw, _params):
    return raw[0]


def _truncn_quantile(u, params):
    a, b = params
    if (b - a) * (max(abs(a), abs(b)) + b - a) < 2.0**-53:
        # phi is flat across (a, b) to double precision, where the cdf
        # cannot resolve the interval: the truncated law is uniform
        return a + np.asarray(u, float) * (b - a)
    if a >= 0.0:  # cdf rounds to 1 in the upper tail: draw the mirror image
        return -_truncn_quantile(1.0 - np.asarray(u, float), (-b, -a))
    if b <= 0.0:  # one lower tail, where cdf may underflow: mix in logs
        from scipy.special import log_ndtr, ndtri_exp

        u = _open_unit(u)
        log_p = np.logaddexp(log_ndtr(a) + np.log1p(-u), log_ndtr(b) + np.log(u))
        return ndtri_exp(log_p)
    lo, hi = cdf(a), cdf(b)
    # lo may lie far below 2^-53, so only 0 itself is moved off the end
    return quantile(np.clip(lo + u * (hi - lo), 5e-324, 1.0 - 2.0**-53))


def _triangle2(u, p):
    return p[0] * (1.0 - np.sqrt(1.0 - np.asarray(u, float)))


def _unif(u, p):
    return p[0] + (p[1] - p[0]) * np.asarray(u, float)


def _logistic(u, p):
    return p[0] + p[1] * _tukey_quantile(np.asarray(u, float), 0.0)


def _laplace_quantile(u, p):
    u = _open_unit(u) - 0.5
    return p[0] - p[1] * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def _tukey(u, p):
    return _tukey_quantile(np.asarray(u, float), p[0])


_LOCATION = ("location", _REAL)
_SCALE = ("scale", _POSITIVE)
_DELTA = ("Johnson delta", _POSITIVE)
_DF = ("degrees of freedom", _POSITIVE)

_FAMILIES: Dict[str, _Family] = {
    fam.name.lower(): fam
    for fam in (
        _Family(
            "LoConN",
            (("mixing probability", _PROB), ("shift", _REAL)),
            (_U, _Z),
            lambda raw, p: raw[1] + np.where(raw[0] < p[0], p[1], 0.0),
        ),
        _Family(
            "ScConN",
            (("mixing probability", _PROB), ("contaminating variance", _POSITIVE)),
            (_U, _Z),
            lambda raw, p: raw[1] * np.where(raw[0] < p[0], math.sqrt(p[1]), 1.0),
        ),
        _Family(
            "TruncN",
            (("lower bound", _BOUND), ("upper bound", _BOUND)),
            (_U,),
            _inverse_cdf(_truncn_quantile),
            ordered=True,
        ),
        _Family(
            "SB",
            (("Johnson gamma", _REAL), _DELTA),
            (_Z,),
            lambda raw, p: 1.0 / (1.0 + np.exp(-(raw[0] - p[0]) / p[1])),
        ),
        _Family(
            "SU",
            (("Johnson gamma", _REAL), _DELTA),
            (_Z,),
            lambda raw, p: np.sinh((raw[0] - p[0]) / p[1]),
        ),
        _Family(
            "TriangleI",
            (("half-width", _POSITIVE),),
            (_U,),
            _inverse_cdf(_triangle1_quantile),
        ),
        _Family("TriangleII", (("width", _POSITIVE),), (_U,), _inverse_cdf(_triangle2)),
        _Family(
            "Unif",
            (("lower bound", _REAL), ("upper bound", _REAL)),
            (_U,),
            _inverse_cdf(_unif),
            ordered=True,
        ),
        _Family(
            "Beta",
            (("alpha", _POSITIVE), ("beta", _POSITIVE)),
            (("beta", (0, 1)),),
            _as_drawn,
        ),
        _Family("StudentT", (_DF,), (("standard_t", (0,)),), _as_drawn),
        _Family("Logistic", (_LOCATION, _SCALE), (_U,), _inverse_cdf(_logistic)),
        _Family("Laplace", (_LOCATION, _SCALE), (_U,), _inverse_cdf(_laplace_quantile)),
        _Family(
            "Weibull",
            (("shape", _POSITIVE),),
            (_U,),
            # draws in [0, 1) are used unclipped: log1p(-u) is finite there
            lambda raw, p: (-np.log1p(-raw[0])) ** (1.0 / p[0]),
        ),
        _Family(
            "HalfN",
            (_LOCATION, _SCALE),
            (_Z,),
            lambda raw, p: p[0] + p[1] * np.abs(raw[0]),
        ),
        _Family("ChiSq", (_DF,), (("chisquare", (0,)),), _as_drawn),
        _Family(
            "Lognormal",
            (("log-mean mu", _REAL), ("log-scale sigma", _POSITIVE)),
            (_Z,),
            lambda raw, p: np.exp(p[0] + p[1] * raw[0]),
        ),
        _Family("Tukey", (("lambda", _REAL),), (_U,), _inverse_cdf(_tukey)),
        _Family(
            "Normal",
            (("mean", _REAL), ("standard deviation", _POSITIVE)),
            (_Z,),
            lambda raw, p: p[0] + p[1] * raw[0],
        ),
    )
}

_ALIASES = {
    "t": "studentt",
    "logist": "logistic",
    "chi2": "chisq",
    "lognorm": "lognormal",
    "uniform": "unif",
    "triangle i": "trianglei",
    "triangle ii": "triangleii",
    "n": "normal",
}


@dataclass(frozen=True)
class AlternativeSpec:
    """A family and its parameters, checked once, when the spec is built.

    The family may be named by any case or alias (``"t"``); the spec keeps
    its canonical name (``"StudentT"``) and its parameters as a tuple of
    floats, so a spec built from a list is hashable and does not follow
    later changes to the list.  A wrong family, parameter count, nan, value
    outside its domain or bound order raises a ``SpecError`` here, with the
    message ``parse_spec`` gives for the same text.  Besides its two fields,
    a spec holds its raw generator calls, ``(method, args)`` in order, and
    its family's elementwise transform: ``draw(spec, n, rng)`` is
    ``_transform(raw, params)``, where ``raw`` holds the array of
    ``rng.<method>(*args, n)`` for each call.
    """

    family: str
    params: Tuple[float, ...]

    def __post_init__(self) -> None:
        fam = _family(self.family)
        given = tuple(self.params)
        if not all(isinstance(p, numbers.Real) for p in given):  # float("1") would pass
            raise SpecError(f"{fam.name}: parameters must be real numbers, got {given!r}")
        params = tuple(float(p) for p in given)
        _check(fam, params)
        calls = tuple((method, tuple(params[i] for i in idx)) for method, idx in fam.raw)
        object.__setattr__(self, "family", fam.name)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_calls", calls)
        object.__setattr__(self, "_transform", fam.transform)

    def __reduce__(self):
        # pickle cannot store a lambda transform: keep the fields, check them again
        return AlternativeSpec, (self.family, self.params)

    def __str__(self) -> str:
        inner = ",".join(format(p, "g") for p in self.params)
        return f"{self.family}({inner})"


_SPEC_RE = re.compile(r"^\s*([A-Za-z][A-Za-z0-9 ]*?)\s*\(\s*([^()]*)\s*\)\s*$")


def parse_spec(text: str) -> AlternativeSpec:
    """Parse strings like ``"LoConN(0.5,4)"`` into a validated spec."""
    m = _SPEC_RE.match(text)
    if not m:
        raise SpecError(
            f"cannot parse {text!r}: expected Family(p1,p2,...) with numeric "
            "parameters"
        )
    raw_name, raw_params = m.groups()
    parts = [p.strip() for p in raw_params.split(",")] if raw_params.strip() else []
    try:
        params = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise SpecError(f"non-numeric parameter in {text!r}") from exc
    return AlternativeSpec(raw_name, params)


def _family(name: str) -> _Family:
    key = name.strip().lower()
    fam = _FAMILIES.get(_ALIASES.get(key, key))
    if fam is None:
        known = ", ".join(sorted(f.name for f in _FAMILIES.values()))
        raise UnknownFamilyError(f"unknown family {name!r}; known: {known}")
    return fam


def _check(fam: _Family, params: Tuple[float, ...]) -> None:
    """Arity, then nan, then each parameter's domain, then the order."""
    if len(params) != len(fam.params):
        raise ArityError(
            f"{fam.name} takes {len(fam.params)} parameter(s), got {len(params)}: {params}"
        )
    if any(math.isnan(p) for p in params):
        raise ParamDomainError(f"{fam.name}: parameters must not be nan, got {params}")
    for p, (label, (test, rule)) in zip(params, fam.params):
        if not test(p):
            raise ParamDomainError(f"{fam.name}: {label} {rule}, got {p}")
    if fam.ordered and not params[0] < params[1]:
        (low, _), (high, _) = fam.params
        raise ParamDomainError(f"{fam.name}: {low} must be < {high}, got {params}")


class _PhiloxKey(ISeedSequence):
    """A seed sequence whose state is a given Philox key.

    Given ``key=``, numpy's ``Philox`` still builds an entropy-seeded
    ``SeedSequence`` and then drops it, which is over half of its
    construction time.  ``Philox(_PhiloxKey(key))`` reads the key from this
    sequence instead: the same stream, with this object as its
    ``seed_seq`` where ``Philox(key=key)`` has None.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint64):
        if n_words != 2:
            raise ValueError(f"a Philox key is 2 words, not {n_words}")
        return self.key


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent stream for one replication of one run: Philox keyed (seed, rep)."""
    key = np.array([seed & (2**64 - 1), rep & (2**64 - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def draw(spec: AlternativeSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n iid draws using the supplied generator."""
    if n < 1:
        raise ValueError(f"need n >= 1 draws, got {n}")
    raw = [getattr(rng, method)(*args, n) for method, args in spec._calls]
    return spec._transform(raw, spec.params)


def sample(spec: AlternativeSpec, n: int, seed: int) -> np.ndarray:
    """n iid draws; bit-identical for identical (spec, n, seed)."""
    return draw(spec, n, replication_rng(seed, 0))


# The 35 alternatives of the published n = 50 power comparison, in table
# order: (type group, row number, spec string).
TABLE1_ALTERNATIVES: Tuple[Tuple[int, int, str], ...] = (
    (1, 1, "LoConN(0.5,4)"),
    (1, 2, "LoConN(0.5,3)"),
    (1, 3, "LoConN(0.5,2)"),
    (2, 4, "SB(0,0.5)"),
    (2, 5, "Unif(0,1)"),
    (2, 6, "SB(0,0.707)"),
    (2, 7, "TruncN(-1,1)"),
    (2, 8, "Beta(2,2)"),
    (2, 9, "TriangleI(1)"),
    (3, 10, "t(10)"),
    (3, 11, "Logistic(0,1)"),
    (4, 12, "ScConN(0.05,3)"),
    (4, 13, "ScConN(0.05,5)"),
    (5, 14, "ScConN(0.1,5)"),
    (5, 15, "ScConN(0.1,7)"),
    (6, 16, "ScConN(0.2,3)"),
    (6, 17, "ScConN(0.2,7)"),
    (7, 18, "Laplace(0,1)"),
    (7, 19, "SU(0,1)"),
    (7, 20, "t(2)"),
    (8, 21, "Beta(2,1)"),
    (8, 22, "TruncN(-2,1)"),
    (8, 23, "Beta(3,2)"),
    (9, 24, "SB(1,2)"),
    (9, 25, "Weibull(2)"),
    (9, 26, "HalfN(0,1)"),
    (10, 27, "LoConN(0.2,3)"),
    (10, 28, "LoConN(0.2,5)"),
    (11, 29, "LoConN(0.1,3)"),
    (11, 30, "LoConN(0.1,5)"),
    (12, 31, "LoConN(0.05,3)"),
    (12, 32, "LoConN(0.05,5)"),
    (13, 33, "TriangleII(1)"),
    (13, 34, "ChiSq(4)"),
    (13, 35, "Lognormal(0,1)"),
)
