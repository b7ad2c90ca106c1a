"""Truncated weighted goodness-of-fit test for normality.

The test statistic integrates the squared standardized empirical process,
weighted by the reciprocal normal density, over (-a_n, a_n) with
a_n = Phi^{-1}(1 - 1/n).  The package provides the statistic, embedded and
simulated critical values, comparison tests (the same weighted functional
over the whole line, Anderson-Darling, normal-scores correlation,
Wasserstein distance), samplers for the alternative families of the
published power study, and a reproducible Monte Carlo engine tying them
together.
"""

from .alternatives import (
    AlternativeSpec,
    ArityError,
    ParamDomainError,
    SpecError,
    TABLE1_ALTERNATIVES,
    UnknownFamilyError,
    parse_spec,
    sample,
)
from .baselines import (
    BaselineKind,
    REJECTION_TAIL,
    anderson_darling,
    batch_statistics,
    bcmr,
    shapiro_francia,
    shapiro_wilk,
)
from .engine import (
    ConstantCEstimate,
    MomentCheck,
    PowerReport,
    estimate_constant_c,
    estimate_critical_values,
    estimate_null_critical_values,
    estimate_power,
    replication_rng,
    simulate_table,
    verify_fourth_moments,
)
from .normal import (
    Endpoint,
    c_n,
    cdf,
    d_n,
    endpoint,
    pdf,
    quantile,
)
from .process import MomentPoint, b_hat_n, b_n, cov_b2, ebb2, fourth_moment_exact
from .statistic import (
    DegenerateSampleError,
    TcvmResult,
    TestOutcome,
    compute_tstar,
    compute_tstar_direct,
    compute_untruncated,
    decide,
    tcvm_test,
)
from .table import (
    ALPHA_LEVELS,
    CriticalValueRow,
    CriticalValueTable,
    TableCoverageError,
    UnsupportedAlphaError,
    embedded_table,
)

__version__ = "1.0.0"

__all__ = [
    "ALPHA_LEVELS",
    "AlternativeSpec",
    "ArityError",
    "BaselineKind",
    "ConstantCEstimate",
    "CriticalValueRow",
    "CriticalValueTable",
    "DegenerateSampleError",
    "Endpoint",
    "MomentCheck",
    "MomentPoint",
    "ParamDomainError",
    "PowerReport",
    "REJECTION_TAIL",
    "SpecError",
    "TABLE1_ALTERNATIVES",
    "TableCoverageError",
    "TcvmResult",
    "TestOutcome",
    "UnknownFamilyError",
    "UnsupportedAlphaError",
    "anderson_darling",
    "b_hat_n",
    "b_n",
    "batch_statistics",
    "bcmr",
    "c_n",
    "cdf",
    "compute_tstar",
    "compute_tstar_direct",
    "compute_untruncated",
    "cov_b2",
    "d_n",
    "decide",
    "ebb2",
    "embedded_table",
    "endpoint",
    "estimate_constant_c",
    "estimate_critical_values",
    "estimate_null_critical_values",
    "estimate_power",
    "fourth_moment_exact",
    "parse_spec",
    "pdf",
    "quantile",
    "replication_rng",
    "sample",
    "shapiro_francia",
    "shapiro_wilk",
    "simulate_table",
    "tcvm_test",
    "verify_fourth_moments",
]
