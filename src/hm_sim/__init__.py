"""Hidden-measurement simulator.

States of an N-dimensional quantum system are represented as real vectors
in the (N^2 - 1)-dimensional unit ball; projective measurements become
breakable elastic membranes stretched over the simplex of the observable's
eigenstate vectors.  The package verifies numerically that this mechanism
reproduces the Born rule, first-kind repeatability and Lueders collapse.
"""

from .bloch import (
    BlochVector,
    DensityOperator,
    PureState,
    bloch_to_density,
    density_to_bloch,
    pure_to_density,
)
from .dynamics import (
    CollapseTrace,
    MeasurementPlan,
    MembraneModel,
    RandomSource,
    luders_posterior,
    prepare_measurement,
    run_measurement,
    spin_machine_measure,
)
from .errors import (
    ConfigError,
    DimensionError,
    GeometryError,
    HmSimError,
    ImpossibleOutcomeError,
    InvalidMembranePointError,
    InvalidStateError,
    ObservableError,
    OracleMismatchError,
)
from .geometry import (
    MeasurementSimplex,
    Observable,
    barycentric_coordinates,
    born_probabilities,
    build_measurement_simplex,
    canonical_observable,
    project_onto_membrane,
    spin_observable,
)
from .harness import (
    ChiSquareResult,
    ConvergenceReport,
    chi_square_check,
    sample_elementary_outcomes,
    simulate_statistics,
    universal_average_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "ChiSquareResult",
    "CollapseTrace",
    "ConfigError",
    "ConvergenceReport",
    "DensityOperator",
    "DimensionError",
    "GeometryError",
    "HmSimError",
    "ImpossibleOutcomeError",
    "InvalidMembranePointError",
    "InvalidStateError",
    "MeasurementPlan",
    "MeasurementSimplex",
    "MembraneModel",
    "Observable",
    "ObservableError",
    "OracleMismatchError",
    "PureState",
    "RandomSource",
    "barycentric_coordinates",
    "bloch_to_density",
    "born_probabilities",
    "build_measurement_simplex",
    "canonical_observable",
    "chi_square_check",
    "density_to_bloch",
    "luders_posterior",
    "prepare_measurement",
    "project_onto_membrane",
    "pure_to_density",
    "run_measurement",
    "sample_elementary_outcomes",
    "simulate_statistics",
    "spin_machine_measure",
    "spin_observable",
    "universal_average_experiment",
]
