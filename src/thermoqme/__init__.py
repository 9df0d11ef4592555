"""Simulator for the nonlinear thermodynamic quantum master equation.

Integrates the density matrix of an N-level quantum subsystem coupled to a
classical heat bath, co-evolves the bath energy, and carries the closed-form
two-level algebra used to validate the generic engine.
"""

from .operators import (
    NATURAL,
    PhysicalConstants,
    SpectralDecomposition,
    anticommutator,
    canonical_correlation,
    commutator,
    hermitianize,
    log_density,
    modified_operator,
    modified_operator_quadrature,
    nonlinear_part,
    operator_function,
    spectral_decompose,
    validate_density_matrix,
    validate_hermitian,
    von_neumann_entropy,
)
from .master_equation import (
    CouplingChannel,
    QuantumSystem,
    check_bath_equilibrium,
    energy_expectation,
    equilibrium_state,
    master_rhs,
)
from .environment import EnvironmentObservableReport, HeatBath, environment_rhs
from .two_level import (
    SIGMA,
    PauliVector,
    TwoLevelParams,
    bloch_equilibrium,
    bloch_linearized_matrix,
    bloch_nonlinear_part,
    bloch_nonlinear_part_uniform_form,
    bloch_rhs,
    mu,
    mu_derivative,
    pauli_anticommutator,
    pauli_commutator,
    pauli_compose,
    pauli_decompose,
    pauli_function,
    two_level_bath,
    two_level_channels,
    two_level_hamiltonian,
    two_level_system,
)
from .integrator import (
    IntegratorConfig,
    MonitorTolerances,
    Trajectory,
    TrajectoryPoint,
    simulate,
    step,
)
from .config import (
    ConfigError,
    SimulationConfig,
    build_run,
    config_to_dict,
    load_config,
    parse_config,
)

__version__ = "0.1.0"
