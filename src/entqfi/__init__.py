"""Entanglement measures and rotation-optimized mean QFI for two qubits.

The package generates seed-reproducible random two-qubit density matrices,
computes concurrence, negativity and the numerically minimized relative
entropy of entanglement, optimizes the mean quantum Fisher information
over local Euler rotations by exhaustive grid search, and classifies state
pairs by how the entanglement measures order against the optimized QFI.
"""

from .states import (
    IDENTITY_2,
    IDENTITY_4,
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    EigendecompositionError,
    Spectrum,
    apply_local_unitary,
    density_matrix,
    herm_eig,
    kron,
    partial_trace,
    partial_transpose,
    relative_entropy,
    von_neumann_entropy,
)
from .sampling import (
    derive_stream,
    haar_unitary,
    random_density_matrix,
    simplex_eigenvalues,
)
from .measures import (
    ReeSolution,
    ReeSolverConfig,
    concurrence,
    is_separable,
    negativity,
    ree,
    ree_bell_diagonal_oracle,
    ree_pure_oracle,
)
from .fisher import (
    HEISENBERG_LIMIT,
    SHOT_NOISE_LEVEL,
    QfiResult,
    c_matrix,
    collective_spin,
    max_mean_qfi,
    qfi_direction,
)
from .rotations import (
    EulerAngleSet,
    LoccOptimum,
    euler_unitary,
    grid_search,
    optimize_with_refinement,
)
from .ordering import (
    DEFAULT_EPS,
    DISCORDANT_CELLS,
    MEASURE_NAMES,
    OrderingClass,
    PairWitness,
    StateRecord,
    census,
    classify_pair,
    find_counterexamples,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    emit_census_report,
    emit_plot_data,
    emit_state_csv,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "IDENTITY_2",
    "IDENTITY_4",
    "PAULI",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "EigendecompositionError",
    "Spectrum",
    "apply_local_unitary",
    "density_matrix",
    "herm_eig",
    "kron",
    "partial_trace",
    "partial_transpose",
    "relative_entropy",
    "von_neumann_entropy",
    "derive_stream",
    "haar_unitary",
    "random_density_matrix",
    "simplex_eigenvalues",
    "ReeSolution",
    "ReeSolverConfig",
    "concurrence",
    "is_separable",
    "negativity",
    "ree",
    "ree_bell_diagonal_oracle",
    "ree_pure_oracle",
    "HEISENBERG_LIMIT",
    "SHOT_NOISE_LEVEL",
    "QfiResult",
    "c_matrix",
    "collective_spin",
    "max_mean_qfi",
    "qfi_direction",
    "EulerAngleSet",
    "LoccOptimum",
    "euler_unitary",
    "grid_search",
    "optimize_with_refinement",
    "DEFAULT_EPS",
    "DISCORDANT_CELLS",
    "MEASURE_NAMES",
    "OrderingClass",
    "PairWitness",
    "StateRecord",
    "census",
    "classify_pair",
    "find_counterexamples",
    "ExperimentConfig",
    "ExperimentResult",
    "emit_census_report",
    "emit_plot_data",
    "emit_state_csv",
    "run_experiment",
    "__version__",
]
