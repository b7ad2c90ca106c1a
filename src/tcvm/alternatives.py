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

Each family declares its raw generator calls, in order, and an elementwise
transform of their arrays.  ``_sampler`` hands out both, so the engine can
fill many rows of raw draws, each from its own stream, and transform them
in one pass with the same bits as ``draw`` gives row by row.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

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


@dataclass(frozen=True)
class AlternativeSpec:
    family: str
    params: Tuple[float, ...]

    def __str__(self) -> str:
        inner = ",".join(format(p, "g") for p in self.params)
        return f"{self.family}({inner})"


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
_FILLS_IN_PLACE = frozenset({"random", "standard_normal"})  # accept out=


@dataclass(frozen=True)
class _Family:
    """A family's raw generator calls, in order, and their transform.

    ``transform(raw, params)`` maps the arrays of the raw calls to the
    sample elementwise, so it gives the same bits on one row or on many.
    """

    name: str
    arity: int
    validate: Callable[[Tuple[float, ...]], Optional[str]]
    raw: Tuple[_RawCall, ...]
    transform: Callable[[Sequence[np.ndarray], Tuple[float, ...]], np.ndarray]
    infinite_ok: bool = False  # may a parameter be +-inf (never nan)?


def _ok(_params: Tuple[float, ...]) -> Optional[str]:
    return None


def _positive(idx: int, label: str):
    def check(params: Tuple[float, ...]) -> Optional[str]:
        if params[idx] <= 0:
            return f"{label} must be > 0, got {params[idx]}"
        return None

    return check


def _all(*checks):
    def check(params):
        for c in checks:
            msg = c(params)
            if msg:
                return msg
        return None

    return check


def _prob(idx: int, label: str):
    def check(params):
        if not 0.0 <= params[idx] <= 1.0:
            return f"{label} must lie in [0, 1], got {params[idx]}"
        return None

    return check


def _ordered(i: int, j: int):
    def check(params):
        if not params[i] < params[j]:
            return f"interval requires {params[i]} < {params[j]}"
        return None

    return check


def _inverse_cdf(quantile_of):
    """Transform of one uniform draw through the family's quantile."""
    return lambda raw, p: quantile_of(raw[0], p)


def _as_drawn(raw, _params):
    return raw[0]


def _truncn_quantile(u, params):
    a, b = params
    if a >= 0.0:  # cdf rounds to 1 in the upper tail: draw the mirror image
        return -_truncn_quantile(1.0 - np.asarray(u, float), (-b, -a))
    if b <= 0.0:  # one lower tail, where cdf may underflow: mix in logs
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


_FAMILIES: Dict[str, _Family] = {}


def _register(fam: _Family) -> None:
    _FAMILIES[fam.name.lower()] = fam


_register(
    _Family(
        "LoConN",
        2,
        _prob(0, "mixing probability"),
        (_U, _Z),
        lambda raw, p: raw[1] + np.where(raw[0] < p[0], p[1], 0.0),
    )
)
_register(
    _Family(
        "ScConN",
        2,
        _all(_prob(0, "mixing probability"), _positive(1, "contaminating variance")),
        (_U, _Z),
        lambda raw, p: raw[1] * np.where(raw[0] < p[0], math.sqrt(p[1]), 1.0),
    )
)
_register(
    _Family(
        "TruncN",
        2,
        _ordered(0, 1),
        (_U,),
        _inverse_cdf(_truncn_quantile),
        infinite_ok=True,  # N(0,1) conditioned on a half-line draws finite values
    )
)
_register(
    _Family(
        "SB",
        2,
        _positive(1, "Johnson delta"),
        (_Z,),
        lambda raw, p: 1.0 / (1.0 + np.exp(-(raw[0] - p[0]) / p[1])),
    )
)
_register(
    _Family(
        "SU",
        2,
        _positive(1, "Johnson delta"),
        (_Z,),
        lambda raw, p: np.sinh((raw[0] - p[0]) / p[1]),
    )
)
_register(
    _Family(
        "TriangleI",
        1,
        _positive(0, "half-width"),
        (_U,),
        _inverse_cdf(_triangle1_quantile),
    )
)
_register(
    _Family(
        "TriangleII",
        1,
        _positive(0, "width"),
        (_U,),
        _inverse_cdf(_triangle2),
    )
)
_register(
    _Family(
        "Unif",
        2,
        _ordered(0, 1),
        (_U,),
        _inverse_cdf(_unif),
    )
)
_register(
    _Family(
        "Beta",
        2,
        _all(_positive(0, "alpha"), _positive(1, "beta")),
        (("beta", (0, 1)),),
        _as_drawn,
    )
)
_register(
    _Family(
        "StudentT",
        1,
        _positive(0, "degrees of freedom"),
        (("standard_t", (0,)),),
        _as_drawn,
    )
)
_register(
    _Family(
        "Logistic",
        2,
        _positive(1, "scale"),
        (_U,),
        _inverse_cdf(_logistic),
    )
)
_register(
    _Family(
        "Laplace",
        2,
        _positive(1, "scale"),
        (_U,),
        _inverse_cdf(_laplace_quantile),
    )
)
_register(
    _Family(
        "Weibull",
        1,
        _positive(0, "shape"),
        (_U,),
        # draws in [0, 1) are used unclipped: log1p(-u) is finite there
        lambda raw, p: (-np.log1p(-raw[0])) ** (1.0 / p[0]),
    )
)
_register(
    _Family(
        "HalfN",
        2,
        _positive(1, "scale"),
        (_Z,),
        lambda raw, p: p[0] + p[1] * np.abs(raw[0]),
    )
)
_register(
    _Family(
        "ChiSq",
        1,
        _positive(0, "degrees of freedom"),
        (("chisquare", (0,)),),
        _as_drawn,
    )
)
_register(
    _Family(
        "Lognormal",
        2,
        _positive(1, "log-scale sigma"),
        (_Z,),
        lambda raw, p: np.exp(p[0] + p[1] * raw[0]),
    )
)
_register(
    _Family(
        "Tukey",
        1,
        _ok,
        (_U,),
        _inverse_cdf(_tukey),
    )
)
_register(
    _Family(
        "Normal",
        2,
        _positive(1, "standard deviation"),
        (_Z,),
        lambda raw, p: p[0] + p[1] * raw[0],
    )
)

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
    fam = _family(raw_name)
    parts = [p.strip() for p in raw_params.split(",")] if raw_params.strip() else []
    try:
        params = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise SpecError(f"non-numeric parameter in {text!r}") from exc
    _check(fam, params)
    return AlternativeSpec(family=fam.name, params=params)


def _family(name: str) -> _Family:
    key = name.strip().lower()
    fam = _FAMILIES.get(_ALIASES.get(key, key))
    if fam is None:
        known = ", ".join(sorted(f.name for f in _FAMILIES.values()))
        raise UnknownFamilyError(f"unknown family {name!r}; known: {known}")
    return fam


def _check(fam: _Family, params: Tuple[float, ...]) -> None:
    """Arity, then finiteness, then the family's own domain."""
    if len(params) != fam.arity:
        raise ArityError(
            f"{fam.name} takes {fam.arity} parameter(s), got {len(params)}: {params}"
        )
    # nan fails every comparison, so checks like `p <= 0` below would let it pass
    if any(math.isnan(p) for p in params):
        raise ParamDomainError(f"{fam.name}: parameters must not be nan, got {params}")
    if not (fam.infinite_ok or all(map(math.isfinite, params))):
        raise ParamDomainError(f"{fam.name}: parameters must be finite, got {params}")
    msg = fam.validate(params)
    if msg:
        raise ParamDomainError(f"{fam.name}: {msg}")


@dataclass(frozen=True)
class _Sampler:
    """A validated spec as raw generator calls plus an elementwise transform.

    ``draw(spec, n, rng)`` is ``transform`` applied to the arrays of
    ``rng.<method>(*args, n)`` for each ``(method, args)`` in ``calls``, in
    order.  The transform works elementwise, so callers may fill many rows
    of raw draws, each from its own stream, and transform them at once.
    """

    calls: Tuple[Tuple[str, Tuple[float, ...]], ...]
    transform: Callable[[Sequence[np.ndarray]], np.ndarray]

    def row_fillers(self, rng: np.random.Generator) -> List[Callable[[np.ndarray], None]]:
        """One callable per raw call, filling a 1-d row in place from ``rng``."""
        fillers = []
        for method, args in self.calls:
            fn = getattr(rng, method)
            if method in _FILLS_IN_PLACE:
                fillers.append(lambda row, fn=fn: fn(out=row))
            else:

                def fill(row, fn=fn, args=args):
                    row[...] = fn(*args, row.size)

                fillers.append(fill)
        return fillers


def _sampler(spec: AlternativeSpec) -> _Sampler:
    """The raw calls and transform of a spec, with its parameters checked."""
    fam, params = _family(spec.family), spec.params
    _check(fam, params)
    return _Sampler(
        calls=tuple((method, tuple(params[i] for i in idx)) for method, idx in fam.raw),
        transform=lambda raw: fam.transform(raw, params),
    )


def draw(spec: AlternativeSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n iid draws using the supplied generator."""
    if n < 1:
        raise ValueError(f"need n >= 1 draws, got {n}")
    s = _sampler(spec)
    return s.transform([getattr(rng, method)(*args, n) for method, args in s.calls])


def sample(spec: AlternativeSpec, n: int, seed: int) -> np.ndarray:
    """n iid draws; bit-identical for identical (spec, n, seed)."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed & (2**64 - 1), 0], dtype=np.uint64)))
    return draw(spec, n, rng)


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
