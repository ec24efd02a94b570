"""Proximal Jacobi consensus ADMM on the coupling multipliers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import SolverParams
from .local_solver import CondensedOcp, OcpSolution, solve_inner


class AdmmError(RuntimeError):
    """Raised when an inner subproblem fails inside the dual iteration."""

    def __init__(self, message, agent_index=None):
        super().__init__(message)
        self.agent_index = agent_index


def consensus_diff(lambdas: np.ndarray) -> np.ndarray:
    """E lam: path-graph differences lam^i - lam^{i+1}, shape (M-1, d).

    For M = 1 the map is empty and the iteration degenerates to projected dual
    ascent on a single multiplier.
    """
    return lambdas[:-1] - lambdas[1:]


def consensus_adjoint(w: np.ndarray) -> np.ndarray:
    """E'w: agent i receives w^i - w^{i-1} (zero beyond either end), shape (M, d)."""
    return np.diff(w, axis=0, prepend=0.0, append=0.0)


def consensus_gain(M: int) -> float:
    """Largest eigenvalue of E'E per coordinate (path-graph Laplacian)."""
    return float(2.0 - 2.0 * np.cos(np.pi * (M - 1) / M))


@dataclass
class AdmmState:
    """Iterate state: multiplier copies (one row per agent), aggregate
    multiplier, per-row coupling excess f_total - b_total, stats."""

    lambdas: np.ndarray
    omega: np.ndarray
    coupling_excess: np.ndarray
    iteration: int = 0
    primal_residual: float = np.inf
    dual_residual: float = np.inf
    solutions: list = field(default_factory=list)
    total_inner_iterations: int = 0

    @property
    def coupling_violation(self) -> float:
        """Largest positive entry of the coupling excess (0 when all rows hold)."""
        return max(0.0, float(np.max(self.coupling_excess)))


def lambda_update(lambdas, f_values, b_shares, omega, rho: float, tau: float) -> np.ndarray:
    """Simultaneous clipped proximal step for every agent copy (rows of (M, d) arrays)."""
    step = ((f_values - b_shares) - consensus_adjoint(omega)
            - rho * consensus_adjoint(consensus_diff(lambdas)))
    return np.maximum(0.0, lambdas + step / tau)


def omega_update(omega, lambdas, rho: float, gamma: float) -> np.ndarray:
    """Aggregate-multiplier step along the consensus residual.

    Sign note: the ascent direction consistent with the lambda step above is
    +rho*gamma*E lam; the opposite sign makes the saddle iteration divergent.
    """
    return omega + rho * gamma * consensus_diff(lambdas)


def default_tau(ocps, rho: float, M: int) -> float:
    """Stepsize weight: consensus-penalty curvature plus worst dual curvature.

    Each agent's dual curvature ||F H^-1 F'||_2 is fixed by its OCP template.
    """
    curv = max(ocp.template.dual_curvature for ocp in ocps)
    return rho * consensus_gain(M) + max(curv, 1e-8)


def run_admm(ocps: list[CondensedOcp], params: SolverParams,
             trace_path=None) -> tuple[list[OcpSolution], AdmmState, bool]:
    """Algorithm loop: lambda step, inner solves, omega step, until residuals pass.

    Convergence requires the consensus residual, the per-agent multiplier
    change and the aggregate coupling violation to fall below tolerance.
    When trace_path is given, one CSV row (iter, primal_res, dual_res,
    total_cost) is appended per iteration.
    """
    M = len(ocps)
    d = ocps[0].template.F.shape[0]
    b_shares = np.array([ocp.b_share for ocp in ocps])
    tau = params.tau if params.tau is not None else default_tau(ocps, params.rho, M)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if tau < params.rho * consensus_gain(M):
        raise ValueError("tau below rho * sigma_max(E'E); proximal step would not majorize")

    state = AdmmState(lambdas=np.zeros((M, d)), omega=np.zeros((M - 1, d)),
                      coupling_excess=np.full(d, np.inf))
    warm = [None] * M

    def inner(i, lam):
        sol = solve_inner(ocps[i], lam, warm_start=warm[i],
                          tol=params.inner_tol, max_iter=params.inner_max_iter)
        if sol.status == "infeasible":
            raise AdmmError(f"inner problem infeasible for agent {i}", agent_index=i)
        warm[i] = sol.warm
        state.total_inner_iterations += sol.iterations
        return sol

    def coupling_values():
        return np.array([ocp.coupling_values(sol.u_star)
                         for ocp, sol in zip(ocps, state.solutions)])

    state.solutions = [inner(i, state.lambdas[i]) for i in range(M)]
    f_values = coupling_values()
    b_total = b_shares.sum(axis=0)

    trace = open(trace_path, "w") if trace_path is not None else None
    if trace is not None:
        trace.write("iter,primal_res,dual_res,total_cost\n")

    converged = False
    try:
        for k in range(1, params.max_iter + 1):
            new_lambdas = lambda_update(state.lambdas, f_values, b_shares,
                                        state.omega, params.rho, tau)
            state.solutions = [inner(i, new_lambdas[i]) for i in range(M)]
            f_values = coupling_values()
            state.omega = omega_update(state.omega, new_lambdas, params.rho, params.gamma)

            state.primal_residual = float(np.linalg.norm(consensus_diff(new_lambdas)))
            state.dual_residual = float(np.linalg.norm(new_lambdas - state.lambdas,
                                                       axis=1).max())
            state.coupling_excess = f_values.sum(axis=0) - b_total
            state.lambdas = new_lambdas
            state.iteration = k
            if trace is not None:
                total_cost = sum(sol.J_star for sol in state.solutions)
                trace.write(f"{k},{state.primal_residual:.17g},"
                            f"{state.dual_residual:.17g},{total_cost:.17g}\n")

            if (state.primal_residual <= params.tol_primal
                    and state.dual_residual <= params.tol_dual
                    and state.coupling_violation <= params.tol_primal):
                converged = True
                break
    finally:
        if trace is not None:
            trace.close()

    return state.solutions, state, converged
