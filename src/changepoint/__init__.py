"""Change-point estimation for Gaussian mean shifts.

Computes the limiting distribution of the change-point MLE offset from
ladder quantities of the associated random walk, reduces multivariate
mean changes to a scalar standardized magnitude, detects changes with
iterated-logarithm p-values, and validates everything against a seeded
Monte Carlo engine.  See the ``changepoint`` CLI for the end-to-end
pipeline.
"""

from .errors import (
    ChangePointError,
    ConfigurationError,
    DegenerateChangeError,
    DegenerateDataError,
    DomainError,
    FactorizationError,
    PrecisionError,
    UnreachableLevelError,
)
from .exactdist import (
    LadderTables,
    Pmf,
    build_ladder_tables,
    build_pmf,
    symmetric_interval,
    tv_bound,
)
from .model import (
    ChangeModel,
    Dataset,
    log_transform,
    read_dataset_csv,
    standardized_change_multivariate,
    standardized_change_univariate,
)
from .estimators import (
    ConditionalPmf,
    MleResult,
    cobb_conditional,
    confidence_interval,
    mle_known,
    mle_profile,
)
from .detect import (
    DetectionReport,
    covariance_change_statistic,
    darling_erdos_transform,
    mean_change_statistic,
    p_value,
    residual_diagnostics,
)
from .montecarlo import (
    SimConfig,
    SimulationReport,
    generate_sequence,
    ladder_oracle,
    oracle_xi_infinity,
    run_study,
    tv_distance,
)

__version__ = "0.1.0"

__all__ = [
    "ChangePointError",
    "ConfigurationError",
    "DegenerateChangeError",
    "DegenerateDataError",
    "DomainError",
    "FactorizationError",
    "PrecisionError",
    "UnreachableLevelError",
    "LadderTables",
    "Pmf",
    "build_ladder_tables",
    "build_pmf",
    "symmetric_interval",
    "tv_bound",
    "ChangeModel",
    "Dataset",
    "log_transform",
    "read_dataset_csv",
    "standardized_change_multivariate",
    "standardized_change_univariate",
    "ConditionalPmf",
    "MleResult",
    "cobb_conditional",
    "confidence_interval",
    "mle_known",
    "mle_profile",
    "DetectionReport",
    "covariance_change_statistic",
    "darling_erdos_transform",
    "mean_change_statistic",
    "p_value",
    "residual_diagnostics",
    "SimConfig",
    "SimulationReport",
    "generate_sequence",
    "ladder_oracle",
    "oracle_xi_infinity",
    "run_study",
    "tv_distance",
    "__version__",
]
