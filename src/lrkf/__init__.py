"""Online Bayesian learning for streaming data.

The core filter maintains a Gaussian posterior over the parameters of a
differentiable prediction model, one observation at a time, with the
precision factored as diagonal plus low rank so each step is linear in
the parameter count. Companion modules provide a spherical variant,
covariance inflation, full and diagonal EKF baselines, replay-buffer SGD,
predictive distributions, non-stationary stream generators, a contextual
bandit harness, and an experiment CLI.
"""

from .belief import (
    DenseBelief,
    DlrBelief,
    SphericalBelief,
    dlr_to_dense,
    load_belief,
    sample_parameters,
    save_belief,
)
from .diagonal import DynamicsConfig, LowRankConfig
from .exceptions import ConfigError, NumericalDegeneracyError
from .models import (
    CategoricalFamily,
    FunctionModel,
    GaussianFamily,
    Linearization,
    MlpModel,
    MlpSpec,
    initialize_mean,
    linearize,
)

__all__ = [
    "CategoricalFamily",
    "ConfigError",
    "DenseBelief",
    "DlrBelief",
    "DynamicsConfig",
    "FunctionModel",
    "GaussianFamily",
    "Linearization",
    "LowRankConfig",
    "MlpModel",
    "MlpSpec",
    "NumericalDegeneracyError",
    "SphericalBelief",
    "dlr_to_dense",
    "initialize_mean",
    "linearize",
    "load_belief",
    "sample_parameters",
    "save_belief",
]

__version__ = "0.1.0"
