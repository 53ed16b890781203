"""Correlated equilibria for finite-state mean-field games: verify, solve, simulate."""

__version__ = "0.1.0"

from .model import (
    EXACT,
    FLOAT,
    CapacityError,
    FiniteSpace,
    FlowTrajectory,
    GameSpec,
    ProbabilityVector,
    RestrictedStrategy,
    dist,
    enumerate_strategies,
    psi_sample,
    validate_game,
)
from .mfg import (
    CorrelatedFlow,
    consistency_check,
    dp_best_response,
    factor_flow,
    mkv_propagate,
    optimality_gap,
    verify_solution,
)
from .nplayer import (
    ExplicitProfile,
    FactoredProfile,
    SimulationConfig,
    deviation_gain,
    exchangeability_check,
    solve_symmetric_ce,
    symmetrize,
)
from .limits import (
    convergence_report,
    empirical_rho_n,
    epsilon_curve,
    lift,
)
from .transport import flow_space_distance, solve_transport

__all__ = [
    "EXACT",
    "FLOAT",
    "CapacityError",
    "CorrelatedFlow",
    "ExplicitProfile",
    "FactoredProfile",
    "FiniteSpace",
    "FlowTrajectory",
    "GameSpec",
    "ProbabilityVector",
    "RestrictedStrategy",
    "SimulationConfig",
    "consistency_check",
    "convergence_report",
    "deviation_gain",
    "dist",
    "dp_best_response",
    "empirical_rho_n",
    "enumerate_strategies",
    "epsilon_curve",
    "exchangeability_check",
    "factor_flow",
    "flow_space_distance",
    "lift",
    "mkv_propagate",
    "optimality_gap",
    "psi_sample",
    "solve_symmetric_ce",
    "solve_transport",
    "symmetrize",
    "validate_game",
    "verify_solution",
    "__version__",
]
