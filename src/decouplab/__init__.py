"""Numerical laboratory for one-shot decoupling at desk-scale dimensions.

The package builds decoupling instances (a state, a channel, smoothing
radii), certifies the one-shot entropies that control them, and checks the
concentration story end to end: closed-form Haar moments, Lipschitz and
uniform bounds, expander-style tails, typicality, and a CLI that runs the
whole battery reproducibly from JSON configs.
"""

from .decoupling import (
    DecouplingInstance,
    TailParameters,
    Weights,
    dupuis_expectation_bound,
    f_value,
    f_values,
    fqsw_instance,
    g_value,
    g_values,
    haar_expected_g_squared,
    iid_parameters,
    lipschitz_bound,
    max_g_bound,
    prepare,
    tail_parameters,
    thermalization_check,
)
from .ensembles import (
    UnitaryEnsemble,
    clifford_group,
    haar_ensemble,
    pauli_group,
    qtpe_lambda,
    random_circuit_ensemble,
)
from .entropy import (
    EntropyReport,
    SmoothingConfig,
    h2_conditional,
    h2_prime,
    hmax_prime,
    hmax_smooth,
    hmin_smooth,
    shannon,
)
from .errors import (
    CapError,
    ComputationError,
    ConfigError,
    DecouplabError,
    DimensionError,
    DomainError,
)
from .linalg import SystemShape, shape
from .quantum import ChannelStinespring, DensitySystem

__version__ = "0.1.0"

__all__ = [
    "CapError",
    "ChannelStinespring",
    "ComputationError",
    "ConfigError",
    "DecouplabError",
    "DecouplingInstance",
    "DensitySystem",
    "DimensionError",
    "DomainError",
    "EntropyReport",
    "SmoothingConfig",
    "SystemShape",
    "TailParameters",
    "UnitaryEnsemble",
    "Weights",
    "clifford_group",
    "dupuis_expectation_bound",
    "f_value",
    "f_values",
    "fqsw_instance",
    "g_value",
    "g_values",
    "h2_conditional",
    "h2_prime",
    "haar_ensemble",
    "haar_expected_g_squared",
    "hmax_prime",
    "hmax_smooth",
    "hmin_smooth",
    "iid_parameters",
    "lipschitz_bound",
    "max_g_bound",
    "pauli_group",
    "prepare",
    "qtpe_lambda",
    "random_circuit_ensemble",
    "shape",
    "shannon",
    "tail_parameters",
    "thermalization_check",
    "__version__",
]
