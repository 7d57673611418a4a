"""Noise covariance identification for linear time-varying state-space models.

Implements the generalised measurement difference method: residues built
with annihilation matrices (so unobservable states and unknown inputs are
handled), a structure-defining parametrisation of Q and R, and ordinary /
weighted least-squares estimation of the parameter vector.
"""

from .errors import (
    DataError,
    IndefiniteWeight,
    MdmError,
    NoAnnihilator,
    NotPositiveSemidefinite,
    RankDeficientDesign,
    ValidationError,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    replication_matrix,
    unification_matrix,
    vec,
)
from .model import (
    KNOWN_INPUT,
    UNKNOWN_INPUT,
    InitialCondition,
    LtvModel,
    MeasurementData,
    NoiseStructure,
    SimulatedRuns,
    Trajectory,
    assemble_qr,
    defining_replication,
    simulate,
    simulate_runs,
    validate,
)
from .residue import WindowBlocks, window_blocks
from .estimator import (
    Estimate,
    EtaCovariances,
    WeightedRuns,
    StackedSystem,
    assemble_p,
    build_design,
    build_stacked_system,
    feasible_design,
    gaussian_eta_covariances,
    min_feasible_window,
    ordinary_estimates,
    ordinary_mdm,
    weighted_estimates,
    weighted_mdm,
    weighted_pipeline,
)
from .benchmarks import (
    BenchmarkSpec,
    McResult,
    PRESET_NAMES,
    emit_plot_data,
    emit_table,
    preset,
    run_mc,
)

__version__ = "0.1.0"
