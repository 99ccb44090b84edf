"""Time-multiplexed click-detector modeling and loss-tolerant photon statistics.

The package covers the full path from a twin-beam source to published
numbers: forward click models, shot-by-shot simulation, efficiency
calibration, least-squares reconstruction with error propagation, and
figures of merit (correlation, number squeezing, family fits).
"""

from .detector import (
    MAX_BINS,
    TMDConfig,
    collective_forward,
    convolution_matrix,
    detector_response,
    forward,
    joint_forward,
    loss_matrix,
)
from .errors import (
    ConditioningError,
    ConfigError,
    DataFormatError,
    DegenerateConditionError,
    DomainError,
    NumericalError,
    TmdkitError,
    TruncationError,
)
from .io import (
    ingest_shots,
    parse_config,
    serialize_config,
    write_json_doc,
    write_shots,
)
from .montecarlo import (
    ExperimentConfig,
    run_collective_experiment,
    run_experiment,
)
from .pipelines import default_config, run_replicate
from .reconstruct import (
    invert_joint,
    invert_single,
    klyshko_efficiency,
    propagate_errors,
)
from .sources import (
    SourceModel,
    fock_dist,
    multimode_pair_dist,
    poisson_dist,
    thermal_dist,
    twin_beam_joint,
)
from .stats import (
    ClickStatistics,
    JointPhotonDistribution,
    PhotonDistribution,
    correlation,
    default_n_max,
    fit_poisson,
    fit_thermal,
    marginals,
    moment,
    number_squeezing_db,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_BINS",
    "ClickStatistics",
    "ConditioningError",
    "ConfigError",
    "DataFormatError",
    "DegenerateConditionError",
    "DomainError",
    "ExperimentConfig",
    "JointPhotonDistribution",
    "NumericalError",
    "PhotonDistribution",
    "SourceModel",
    "TMDConfig",
    "TmdkitError",
    "TruncationError",
    "collective_forward",
    "convolution_matrix",
    "correlation",
    "default_config",
    "default_n_max",
    "detector_response",
    "fit_poisson",
    "fit_thermal",
    "fock_dist",
    "forward",
    "ingest_shots",
    "invert_joint",
    "invert_single",
    "joint_forward",
    "klyshko_efficiency",
    "loss_matrix",
    "marginals",
    "moment",
    "multimode_pair_dist",
    "number_squeezing_db",
    "parse_config",
    "poisson_dist",
    "propagate_errors",
    "run_collective_experiment",
    "run_experiment",
    "run_replicate",
    "serialize_config",
    "thermal_dist",
    "twin_beam_joint",
    "write_json_doc",
    "write_shots",
]
