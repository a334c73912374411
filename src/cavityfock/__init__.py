"""Simulator for single-photon Fock-state production in an atom-cavity
system, driven by adiabatic-passage and shortcut pulse schedules."""

from .dynamics import TimeGrid, Trajectory, propagate
from .errors import (
    CavityFockError,
    ConfigError,
    IntegrationError,
    ModelMismatchError,
    ParameterDomainError,
)
from .hamiltonians import (
    Dissipation,
    LinearHamiltonian,
    ModelConfig,
    bound_hamiltonian,
    jump_operators,
    linear_hamiltonian,
)
from .hilbert import (
    EigenSystem,
    ProductBasis,
    analytic_eigensystem,
    build_basis,
    ladder_operators,
    number_operator,
    transition_operator,
)
from .observables import populations
from .pulses import (
    ControlSchedule,
    PulseParameters,
    counterdiabatic_amplitude,
    physical_pulse_pair,
    stirap_pair,
)
from .scenarios import (
    PRESETS,
    RunSummary,
    SimulationConfig,
    resolve_preset,
    run,
    simulate,
    sweep,
    write_trajectory_csv,
)

__version__ = "0.25.0"

__all__ = [
    "CavityFockError",
    "ConfigError",
    "ControlSchedule",
    "Dissipation",
    "EigenSystem",
    "IntegrationError",
    "LinearHamiltonian",
    "ModelConfig",
    "ModelMismatchError",
    "ParameterDomainError",
    "PRESETS",
    "ProductBasis",
    "PulseParameters",
    "RunSummary",
    "SimulationConfig",
    "TimeGrid",
    "Trajectory",
    "analytic_eigensystem",
    "bound_hamiltonian",
    "build_basis",
    "counterdiabatic_amplitude",
    "jump_operators",
    "ladder_operators",
    "linear_hamiltonian",
    "number_operator",
    "physical_pulse_pair",
    "populations",
    "propagate",
    "resolve_preset",
    "run",
    "simulate",
    "stirap_pair",
    "sweep",
    "transition_operator",
    "write_trajectory_csv",
]
