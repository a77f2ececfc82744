"""Simulation of a viscoelastic string dropped on a rigid obstacle.

The string obeys a damped wave equation with pinned ends; the obstacle
constraint is enforced by a velocity penalty active only while the string
is below the barrier and moving downward.  The package provides an
implicit finite-difference solver, an independent sine-mode spectral
solver for cross-validation, energy/contact diagnostics, and a CLI.
"""

from .core import (
    ConfigurationError,
    FieldSeries,
    Grid1D,
    InitialData,
    NumericBlowupError,
    Physics,
    ProbeContractError,
    SimConfig,
    TimeGrid,
    evaluate_initial,
    example1_config,
    example2_config,
    single_mode_config,
    validate_config,
)
from .fd_solver import penalty_force, run
from .trisolve import ThomasFactorization, assemble_step_matrix

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "FieldSeries",
    "Grid1D",
    "InitialData",
    "NumericBlowupError",
    "Physics",
    "ProbeContractError",
    "SimConfig",
    "ThomasFactorization",
    "TimeGrid",
    "assemble_step_matrix",
    "evaluate_initial",
    "example1_config",
    "example2_config",
    "penalty_force",
    "run",
    "single_mode_config",
    "validate_config",
]
