"""Truncated weighted goodness-of-fit test for normality.

The test statistic integrates the squared standardized empirical process,
weighted by the reciprocal normal density, over (-a_n, a_n) with
a_n = Phi^{-1}(1 - 1/n).  The package provides the statistic, embedded and
simulated critical values, comparison tests (the same weighted functional
over the whole line, Anderson-Darling, normal-scores correlation,
Wasserstein distance), samplers for the alternative families of the
published power study, and a reproducible Monte Carlo engine tying them
together.

Exports load on first use: ``import tcvm`` imports no submodule, and
``tcvm.tcvm_test`` loads the statistic and its table but not the Monte Carlo
engine, its samplers or the comparison tests.  Submodules resolve the same
way, so ``tcvm.engine`` works after a plain ``import tcvm``.
"""

import importlib

__version__ = "1.0.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "alternatives": (
        "AlternativeSpec", "ArityError", "ParamDomainError", "SpecError",
        "TABLE1_ALTERNATIVES", "UnknownFamilyError", "parse_spec", "sample",
    ),
    "baselines": (
        "BaselineKind", "REJECTION_TAIL", "anderson_darling", "batch_statistics",
        "bcmr", "shapiro_francia", "shapiro_wilk",
    ),
    "engine": (
        "ConstantCEstimate", "MomentCheck", "PowerReport", "estimate_constant_c",
        "estimate_critical_values", "estimate_null_critical_values",
        "estimate_power", "replication_rng", "simulate_table", "verify_fourth_moments",
    ),
    "normal": ("Endpoint", "c_n", "cdf", "d_n", "endpoint", "pdf", "quantile"),
    "process": ("MomentPoint", "b_hat_n", "b_n", "cov_b2", "ebb2", "fourth_moment_exact"),
    "statistic": (
        "DegenerateSampleError", "TcvmResult", "TestOutcome", "compute_tstar",
        "compute_tstar_direct", "compute_untruncated", "decide", "tcvm_test",
    ),
    "table": (
        "ALPHA_LEVELS", "CriticalValueRow", "CriticalValueTable", "TableCoverageError",
        "UnsupportedAlphaError", "embedded_table",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import an export's home module, or a submodule, on first access."""
    home = _HOME.get(name)
    try:
        module = importlib.import_module(f"{__name__}.{home or name}")
    except ModuleNotFoundError as exc:
        if home or exc.name != f"{__name__}.{name}":
            raise  # a broken import inside the package, not an unknown name
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    if home is None:
        return module  # the import bound it in the package already
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
