"""Robust self-triggered distributed MPC for disturbed linear multi-agent systems."""

from .model import (AgentModel, CouplingSpec, HPolytope, Scenario, ScenarioError,
                    SolverParams, group_members, membership, validate_scenario)
from .synthesis import (CertificateReport, TerminalIngredients, certify,
                        lqr_gain, synthesize, terminal_radii, terminal_weight)
from .tightening import TightenedSets, ToleranceSchedule, tighten_local_sets, tolerance_schedule
from .local_solver import (AgentGroup, CondensedOcp, OcpSolution, agent_group, agent_groups,
                           condense, solve_centralized, solve_inner)
from .dual_admm import (AdmmError, AdmmState, consensus_adjoint, consensus_diff,
                        run_admm)
from .trigger import TriggerDecision, deviation_bound, select_Mk
from .simulator import (DisturbanceSampler, MonteCarloReport, Pipeline, SimLog,
                        monte_carlo, prepare, run_closed_loop, step_plant)

__all__ = [
    "AgentModel", "CouplingSpec", "HPolytope", "Scenario", "ScenarioError",
    "SolverParams", "membership", "validate_scenario",
    "CertificateReport", "TerminalIngredients", "certify", "lqr_gain",
    "synthesize", "terminal_radii", "terminal_weight",
    "TightenedSets", "ToleranceSchedule", "tighten_local_sets", "tolerance_schedule",
    "AgentGroup", "CondensedOcp", "OcpSolution", "agent_group", "agent_groups", "condense",
    "group_members", "solve_centralized", "solve_inner",
    "AdmmError", "AdmmState", "consensus_adjoint", "consensus_diff", "run_admm",
    "TriggerDecision", "deviation_bound", "select_Mk",
    "DisturbanceSampler", "MonteCarloReport", "Pipeline", "SimLog",
    "monte_carlo", "prepare", "run_closed_loop", "step_plant",
]

__version__ = "0.1.0"
