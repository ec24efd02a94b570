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
    """E'w: agent i receives w^i - w^{i-1} (zero beyond either end), shape (M, d).

    The differences of a zero-padded copy: the same bytes as np.diff with
    zeros prepended and appended, signed zeros included, at a fraction of
    its cost.
    """
    padded = np.zeros((w.shape[0] + 2,) + w.shape[1:])
    padded[1:-1] = w
    return padded[1:] - padded[:-1]


def consensus_gain(M: int) -> float:
    """Largest eigenvalue of E'E per coordinate (path-graph Laplacian)."""
    return float(2.0 - 2.0 * np.cos(np.pi * (M - 1) / M))


@dataclass
class AdmmState:
    """Iterate state: multiplier copies (one row per agent), aggregate
    multiplier, per-row coupling excess f_total - b_total, stats (inner
    splitting iterations and active-set rounds summed over every solve), and
    the final inner active sets (one InnerResult.active per group)."""

    lambdas: np.ndarray
    omega: np.ndarray
    coupling_excess: np.ndarray
    iteration: int = 0
    primal_residual: float = np.inf
    dual_residual: float = np.inf
    total_inner_iterations: int = 0
    total_active_set_rounds: int = 0
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
    violation to fall below tolerance. A user tau is checked first. Then
    every group is solved at lambda = 0: when those answers all converged
    and keep every coupled row (excess <= 0), they are returned at iteration
    0 with zero residuals, before any consensus state is built. When
    trace_path is given, one CSV row (iter, primal_res, dual_res,
    total_cost) is appended per iteration after a header. `guess` holds one
    active-set guess (see solve_inner) or None per entry of `ocps` for its
    first solve; each later solve of a group is guessed from the active sets
    of the one before.
    """
    M, d = sum(ocp.slots.size for ocp in ocps), ocps[0].F.shape[1]
    if params.tau is not None and params.tau < params.rho * consensus_gain(M):
        raise ValueError("tau below rho * sigma_max(E'E); proximal step would not majorize")
    results = [None] * len(ocps)  # each group's latest InnerResult
    guess = [None] * len(ocps) if guess is None else list(guess)
    solved_at = [None] * len(ocps)  # the multiplier rows of that solve, as bytes
    inner_iterations = active_set_rounds = 0  # summed over every solve

    def inner(lams) -> None:
        """One lockstep solve per group k at its multiplier rows lams[k].

        A group whose multiplier rows equal those of its last solve bit for bit
        keeps that solve's result: its answers are the optimum at those
        multipliers (to inner_tol where the polish fell back to splitting).
        """
        nonlocal inner_iterations, active_set_rounds
        infeasible = []
        for k, (ocp, lam) in enumerate(zip(ocps, lams)):
            key = lam.tobytes()
            if key != solved_at[k]:
                results[k] = solve_inner(ocp, lam, results[k], tol=params.inner_tol,
                                         max_iter=params.inner_max_iter, guess=guess[k])
                guess[k], solved_at[k] = results[k].active, key
                inner_iterations += results[k].iterations
                active_set_rounds += int(results[k].rounds.sum())
            # flagged infeasible with an infeasible final iterate
            if "infeasible" in results[k].flags and "infeasible" in results[k].status:
                infeasible += [i for i, status in zip(ocp.agents.tolist(), results[k].status)
                               if status == "infeasible"]
        if infeasible:
            i = min(infeasible)
            raise AdmmError(f"inner problem infeasible for agent {i}", agent_index=i)

    inner([np.zeros((ocp.slots.size, d)) for ocp in ocps])
    # the dual is differentiable (strictly convex inner problems), so answers at
    # lambda = 0 that keep every coupled row are the exact coupled optimum
    excess = (sum(result.coupling.sum(axis=0) for result in results)
              - sum(ocp.slots.size * ocp.b_share for ocp in ocps))
    converged = (bool((excess <= 0.0).all())
                 and all(flag == "converged" for result in results for flag in result.flags))
    state = AdmmState(lambdas=np.zeros((M, d)), omega=np.zeros((M - 1, d)),
                      coupling_excess=excess)
    trace = open(trace_path, "w") if trace_path is not None else None
    if trace is not None:
        trace.write("iter,primal_res,dual_res,total_cost\n")
    try:
        if converged:
            state.primal_residual = state.dual_residual = 0.0
        else:
            converged = _consensus(ocps, params, state, results, inner, trace)
    finally:
        if trace is not None:
            trace.close()
    state.total_inner_iterations = inner_iterations
    state.total_active_set_rounds = active_set_rounds
    state.active = [result.active for result in results]
    return [result.solution for result in results], state, converged


def _consensus(ocps, params, state: AdmmState, results, inner, trace) -> bool:
    """The ADMM iterations of run_admm from its solves at lambda = 0; returns convergence."""
    agents = np.sort(np.concatenate([ocp.agents for ocp in ocps]))
    rows = [np.searchsorted(agents, ocp.agents) for ocp in ocps]  # each group's rows
    b_shares = np.empty(state.lambdas.shape)
    for ocp, r in zip(ocps, rows):
        b_shares[r] = ocp.b_share
    b_total = b_shares.sum(axis=0)
    tau = (params.tau if params.tau is not None
           else default_tau(ocps, params.rho, state.lambdas.shape[0]))

    def coupling_rows() -> np.ndarray:
        """The latest coupling values, one row per agent."""
        f_values = np.empty(state.lambdas.shape)
        for r, result in zip(rows, results):
            f_values[r] = result.coupling
        return f_values

    f_values = coupling_rows()
    state.coupling_excess = f_values.sum(axis=0) - b_total
    for k in range(1, params.max_iter + 1):
        new_lambdas = lambda_update(state.lambdas, f_values, b_shares,
                                    state.omega, params.rho, tau)
        inner([new_lambdas[r] for r in rows])
        f_values = coupling_rows()
        state.omega = omega_update(state.omega, new_lambdas, params.rho, params.gamma)

        state.primal_residual = float(np.linalg.norm(consensus_diff(new_lambdas)))
        state.dual_residual = float(np.linalg.norm(new_lambdas - state.lambdas,
                                                   axis=1).max())
        state.coupling_excess = f_values.sum(axis=0) - b_total
        state.lambdas = new_lambdas
        state.iteration = k
        if trace is not None:
            total_cost = sum(float(result.solution.J_star.sum()) for result in results)
            trace.write(f"{k},{state.primal_residual:.17g},"
                        f"{state.dual_residual:.17g},{total_cost:.17g}\n")

        if (state.primal_residual <= params.tol_primal
                and state.dual_residual <= params.tol_dual
                and state.coupling_violation <= params.tol_primal):
            return True
    return False
