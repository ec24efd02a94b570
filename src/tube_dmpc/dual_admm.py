"""Proximal Jacobi consensus ADMM on the coupling multipliers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SolverParams
from .local_solver import CondensedOcp, OcpSolution, solve_inner


class AdmmError(RuntimeError):
    """Raised when an inner subproblem fails inside the dual iteration (agent_index: the agent)."""

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
    multiplier, per-row coupling excess f_total - b_total, stats, and the
    final inner active sets (one InnerResult.active per group)."""

    lambdas: np.ndarray
    omega: np.ndarray
    coupling_excess: np.ndarray
    iteration: int = 0
    primal_residual: float = np.inf
    dual_residual: float = np.inf
    total_inner_iterations: int = 0
    active: list = None

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

    Each agent's dual curvature ||F H^-1 F'||_2 is fixed by its agent group.
    """
    curv = max(float(ocp.group.dual_curvature[ocp.slots].max()) for ocp in ocps)
    return rho * consensus_gain(M) + max(curv, 1e-8)


def run_admm(ocps: list[CondensedOcp], params: SolverParams, trace_path=None,
             guess=None) -> tuple[list[OcpSolution], AdmmState, bool]:
    """Algorithm loop: lambda step, inner solves, omega step, until residuals pass.

    `ocps` holds one CondensedOcp per agent group; the multiplier copies are
    stacked in agent order, and each group is solved in lockstep. Returns one
    OcpSolution per entry of `ocps`. Convergence requires the consensus
    residual, the per-agent multiplier change and the aggregate coupling
    violation to fall below tolerance. When trace_path is given, one CSV row
    (iter, primal_res, dual_res, total_cost) is appended per iteration.
    `guess` holds one active-set guess (see solve_inner) or None per entry
    of `ocps` for its first solve; each later solve of a group is guessed
    from the active sets of the one before.
    """
    agents = np.sort(np.concatenate([ocp.agents for ocp in ocps]))
    rows = [np.searchsorted(agents, ocp.agents) for ocp in ocps]  # each group's rows
    M, d = agents.size, ocps[0].F.shape[1]
    b_shares = np.empty((M, d))
    for ocp, r in zip(ocps, rows):
        b_shares[r] = ocp.b_share
    tau = params.tau if params.tau is not None else default_tau(ocps, params.rho, M)
    if tau < params.rho * consensus_gain(M):
        raise ValueError("tau below rho * sigma_max(E'E); proximal step would not majorize")

    state = AdmmState(lambdas=np.zeros((M, d)), omega=np.zeros((M - 1, d)),
                      coupling_excess=np.full(d, np.inf))
    results = [None] * len(ocps)  # each group's latest InnerResult
    guess = [None] * len(ocps) if guess is None else list(guess)
    solved_at = [None] * len(ocps)  # the multiplier rows of that solve, as bytes

    def inner(lambdas) -> np.ndarray:
        """One lockstep solve per group; returns the coupling values, one row per agent.

        A group whose multiplier rows equal those of its last solve bit for bit
        keeps that solve's result: its answers are the optimum at those
        multipliers (to inner_tol where the polish fell back to splitting).
        """
        f_values = np.empty((M, d))
        infeasible = []
        for k, (ocp, r) in enumerate(zip(ocps, rows)):
            lam = lambdas[r]
            if lam.tobytes() != solved_at[k]:
                warm = results[k].warm if results[k] is not None else None
                results[k] = solve_inner(ocp, lam, warm, tol=params.inner_tol,
                                         max_iter=params.inner_max_iter, guess=guess[k])
                guess[k] = results[k].active
                solved_at[k] = lam.tobytes()
                state.total_inner_iterations += results[k].iterations
            f_values[r] = ocp.coupling_values(results[k].u)
            # flagged infeasible with an infeasible final iterate
            bad = np.asarray(results[k].flags) == "infeasible"
            if bad.any():
                infeasible += ocp.agents[bad & ~ocp.feasible(results[k].u)].tolist()
        if infeasible:
            i = min(infeasible)
            raise AdmmError(f"inner problem infeasible for agent {i}", agent_index=i)
        return f_values

    def solutions() -> list:
        return [result.solution for result in results]

    f_values = inner(state.lambdas)
    b_total = b_shares.sum(axis=0)

    trace = open(trace_path, "w") if trace_path is not None else None
    if trace is not None:
        trace.write("iter,primal_res,dual_res,total_cost\n")

    converged = False
    try:
        for k in range(1, params.max_iter + 1):
            new_lambdas = lambda_update(state.lambdas, f_values, b_shares,
                                        state.omega, params.rho, tau)
            f_values = inner(new_lambdas)
            state.omega = omega_update(state.omega, new_lambdas, params.rho, params.gamma)

            state.primal_residual = float(np.linalg.norm(consensus_diff(new_lambdas)))
            state.dual_residual = float(np.linalg.norm(new_lambdas - state.lambdas,
                                                       axis=1).max())
            state.coupling_excess = f_values.sum(axis=0) - b_total
            state.lambdas = new_lambdas
            state.iteration = k
            if trace is not None:
                total_cost = sum(float(sol.J_star.sum()) for sol in solutions())
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

    state.active = [result.active for result in results]
    return solutions(), state, converged
