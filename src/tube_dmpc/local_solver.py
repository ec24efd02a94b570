"""Condensed per-agent OCPs, the splitting QP solver, and a centralized oracle."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import AgentModel, Scenario
from .synthesis import TerminalIngredients
from .tightening import TightenedSets, ToleranceSchedule

FEAS_TOL = 1e-6
RELAXATION = 1.6  # classic over-relaxation factor for the splitting iteration
STALL_WINDOW = 2000
STALL_LEVEL = 1e-3


class OcpInfeasibleError(RuntimeError):
    """Raised by the centralized oracle when the stacked problem is infeasible."""


def rollout_maps(A, B, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Phi[l] = A^l and Gamma[l] with z(l) = Phi[l] x0 + Gamma[l] u, l = 0..N."""
    n, m = A.shape[0], B.shape[1]
    Phi = np.zeros((N + 1, n, n))
    Gamma = np.zeros((N + 1, n, N * m))
    Phi[0] = np.eye(n)
    for l in range(N):
        Phi[l + 1] = A @ Phi[l]
        Gamma[l + 1] = A @ Gamma[l]
        Gamma[l + 1][:, l * m:(l + 1) * m] += B
    return Phi, Gamma


@dataclass(frozen=True)
class CondensedOcp:
    """State-eliminated OCP: J(u) = 0.5 u'Hu + q'u + c0 over stacked inputs.

    Constraint bundle: halfspace rows (rows_C u <= rows_rhs), the terminal
    ellipsoid ||ball_C u + ball_off|| <= ball_radius, and the affine coupling
    map f(u) = f0 + F u with per-agent share b_share of the tightened RHS.
    """

    H: np.ndarray
    q: np.ndarray
    c0: float
    rows_C: np.ndarray
    rows_rhs: np.ndarray
    ball_C: np.ndarray
    ball_off: np.ndarray
    ball_radius: float
    F: np.ndarray
    f0: np.ndarray
    b_share: np.ndarray
    x0: np.ndarray
    Phi: np.ndarray
    Gamma: np.ndarray

    def trajectory(self, u: np.ndarray) -> np.ndarray:
        return self.Phi @ self.x0 + self.Gamma @ u

    def cost(self, u: np.ndarray) -> float:
        return float(0.5 * u @ self.H @ u + self.q @ u + self.c0)

    def coupling_values(self, u: np.ndarray) -> np.ndarray:
        return self.f0 + self.F @ u


@dataclass
class OcpSolution:
    """Solver output for one agent at one state."""

    u_star: np.ndarray
    z_star: np.ndarray
    J_star: float
    status: str  # optimal | infeasible | iteration-cap
    residual_primal: float
    residual_dual: float
    iterations: int
    warm: tuple | None = field(default=None, repr=False)


def condense(agent: AgentModel, ing: TerminalIngredients, tightened: TightenedSets,
             Psi_x, Psi_u, x0, N: int, b_share=None) -> CondensedOcp:
    """Assemble the condensed OCP at state x0 over horizon N."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n, m, p = agent.n, agent.m, Psi_x.shape[0]
    Phi, Gamma = rollout_maps(agent.A, agent.B, N)

    H = np.zeros((N * m, N * m))
    q = np.zeros(N * m)
    c0 = float(x0 @ agent.Q @ x0)
    for l in range(1, N + 1):
        W = ing.P if l == N else agent.Q
        H += 2.0 * Gamma[l].T @ W @ Gamma[l]
        q += 2.0 * Gamma[l].T @ W @ (Phi[l] @ x0)
        c0 += float(x0 @ Phi[l].T @ W @ Phi[l] @ x0)
    for l in range(N):
        H[l * m:(l + 1) * m, l * m:(l + 1) * m] += 2.0 * agent.R

    rows, rhs = [], []
    for l in range(1, N):
        Z = tightened.Z[l]
        rows.append(Z.G @ Gamma[l])
        rhs.append(Z.h - Z.G @ (Phi[l] @ x0))
    GU, hU = agent.U.G, agent.U.h
    for l in range(N):
        block = np.zeros((GU.shape[0], N * m))
        block[:, l * m:(l + 1) * m] = GU
        rows.append(block)
        rhs.append(hU)
    rows_C = np.vstack(rows)
    rows_rhs = np.concatenate(rhs)

    L = np.linalg.cholesky(ing.P)  # P = L L', so ||z||_P = ||L' z||
    ball_C = L.T @ Gamma[N]
    ball_off = L.T @ (Phi[N] @ x0)

    # coupling block l: Psi_x z(l) + Psi_u u(l), from the same rollout
    F = (Psi_x @ Gamma[:N]).reshape(N * p, N * m) + np.kron(np.eye(N), Psi_u)
    f0 = (Psi_x @ Phi[:N]).reshape(N * p, n) @ x0
    if b_share is None:
        b_share = np.zeros(f0.shape[0])

    return CondensedOcp(H=H, q=q, c0=c0, rows_C=rows_C, rows_rhs=rows_rhs,
                        ball_C=ball_C, ball_off=ball_off, ball_radius=ing.eps_r,
                        F=F, f0=f0, b_share=np.asarray(b_share, dtype=float),
                        x0=x0, Phi=Phi, Gamma=Gamma)


def project_ball(s: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the origin-centered ball (radial scaling)."""
    nrm = np.linalg.norm(s)
    if nrm <= radius:
        return s.copy()
    return s * (radius / nrm)


def _split_qp(H, g, rows_C, rows_rhs, balls, tol, max_iter, warm=None):
    """ADMM splitting for min 0.5u'Hu + g'u s.t. rows and ball blocks.

    balls: list of (C, offset, radius). Returns (u, warm_state, iters,
    r_primal, r_dual, flag) with flag in {converged, iteration-cap, infeasible}.
    A row with all-zero coefficients is dropped when its rhs is >= 0 and
    makes the problem infeasible when its rhs is < 0.
    """
    norms = np.linalg.norm(rows_C, axis=1)
    zero = norms == 0.0
    if np.any(rows_rhs[zero] < 0):
        return (np.zeros(H.shape[0]), None, 0, float(-rows_rhs[zero].min()), 0.0,
                "infeasible")
    if np.any(zero):
        rows_C, rows_rhs, norms = rows_C[~zero], rows_rhs[~zero], norms[~zero]
    nrows = rows_C.shape[0]
    scale = 1.0 / norms
    blocks = [rows_C * scale[:, None]]
    rhs_s = rows_rhs * scale

    ball_slices, ball_data = [], []
    offset = nrows
    for C, off, radius in balls:
        beta = np.linalg.norm(C, 2)
        beta = 1.0 / beta if beta > 0 else 1.0
        blocks.append(C * beta)
        ball_slices.append(slice(offset, offset + C.shape[0]))
        ball_data.append((off * beta, radius * beta))
        offset += C.shape[0]
    C = np.vstack(blocks)

    sigma = np.linalg.norm(H, 2) / max(1.0, np.linalg.norm(C, 2) ** 2)
    sigma = float(np.clip(sigma, 1e-3, 1e6))
    K = cho_factor(H + sigma * C.T @ C)

    total = C.shape[0]
    if warm is not None and warm[0].shape[0] == total:
        s, y = warm[0].copy(), warm[1].copy()
    else:
        s, y = np.zeros(total), np.zeros(total)

    sigmaCT = sigma * C.T
    r_prim = r_dual = np.inf
    stall = 0
    flag = "iteration-cap"
    it = 0
    for it in range(1, max_iter + 1):
        u = cho_solve(K, sigmaCT @ (s - y) - g)
        Cu = C @ u
        Cu_rel = RELAXATION * Cu + (1.0 - RELAXATION) * s
        v = Cu_rel + y
        s_new = v.copy()
        s_new[:nrows] = np.minimum(v[:nrows], rhs_s)
        for sl, (off_s, rad_s) in zip(ball_slices, ball_data):
            s_new[sl] = project_ball(v[sl] + off_s, rad_s) - off_s
        y = y + Cu_rel - s_new
        r_prim = float(np.linalg.norm(Cu - s_new, np.inf))
        r_dual = float(sigma * np.linalg.norm(C.T @ (s_new - s), np.inf))
        s = s_new
        if r_prim < tol and r_dual < tol:
            flag = "converged"
            break
        if r_prim > STALL_LEVEL:
            stall += 1
            if stall >= STALL_WINDOW:
                flag = "infeasible"
                break
        else:
            stall = 0
    return u, (s, y), it, r_prim, r_dual, flag


def _solution_from(ocp: CondensedOcp, u, warm, iters, rp, rd, flag) -> OcpSolution:
    viol = 0.0
    if ocp.rows_C.shape[0]:
        viol = float(np.max(ocp.rows_C @ u - ocp.rows_rhs))
    ball_viol = float(np.linalg.norm(ocp.ball_C @ u + ocp.ball_off) - ocp.ball_radius)
    feasible = viol <= FEAS_TOL and ball_viol <= FEAS_TOL
    if flag == "converged" and feasible:
        status = "optimal"
    elif flag == "infeasible" and not feasible:
        status = "infeasible"
    else:
        status = "iteration-cap"
    return OcpSolution(u_star=u, z_star=ocp.trajectory(u), J_star=ocp.cost(u),
                       status=status, residual_primal=rp, residual_dual=rd,
                       iterations=iters, warm=warm)


def solve_inner(ocp: CondensedOcp, lam, warm_start=None,
                tol: float = 1e-8, max_iter: int = 20000) -> OcpSolution:
    """Minimize J(u) + lam'(f(u) - b_share) over the constraint bundle."""
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape[0] != ocp.F.shape[0]:
        raise ValueError(f"lambda has dim {lam.shape[0]}, expected {ocp.F.shape[0]}")
    if np.any(lam < 0):
        raise ValueError("lambda must be componentwise nonnegative")
    g = ocp.q + ocp.F.T @ lam
    u, warm, iters, rp, rd, flag = _split_qp(
        ocp.H, g, ocp.rows_C, ocp.rows_rhs,
        [(ocp.ball_C, ocp.ball_off, ocp.ball_radius)],
        tol, max_iter, warm=warm_start)
    return _solution_from(ocp, u, warm, iters, rp, rd, flag)


def dual_value(ocp: CondensedOcp, lam, sol: OcpSolution) -> float:
    """Value of the concave dual function at lam given the inner minimizer."""
    return sol.J_star + float(lam @ (ocp.coupling_values(sol.u_star) - ocp.b_share))


def solve_centralized(scenario: Scenario, ingredients, tightened_list,
                      schedule: ToleranceSchedule, x0_all,
                      tol: float = 1e-8, max_iter: int = 20000):
    """Stacked solve with the coupling rows as hard constraints.

    Ground-truth oracle for the distributed path; returns (per-agent
    solutions, total cost).
    """
    ocps = [condense(agent, ing, tz, scenario.coupling.Psi_x[i],
                     scenario.coupling.Psi_u[i], x0_all[i], scenario.N)
            for i, (agent, ing, tz) in enumerate(zip(scenario.agents, ingredients,
                                                     tightened_list))]
    dims = [ocp.H.shape[0] for ocp in ocps]
    total_dim = sum(dims)
    starts = np.concatenate([[0], np.cumsum(dims)]).astype(int)

    H = np.zeros((total_dim, total_dim))
    g = np.zeros(total_dim)
    rows, rhs = [], []
    balls = []
    coupling_C = np.zeros((schedule.b.shape[0], total_dim))
    coupling_rhs = schedule.b.copy()
    for i, ocp in enumerate(ocps):
        sl = slice(starts[i], starts[i + 1])
        H[sl, sl] = ocp.H
        g[sl] = ocp.q
        block = np.zeros((ocp.rows_C.shape[0], total_dim))
        block[:, sl] = ocp.rows_C
        rows.append(block)
        rhs.append(ocp.rows_rhs)
        ball_C = np.zeros((ocp.ball_C.shape[0], total_dim))
        ball_C[:, sl] = ocp.ball_C
        balls.append((ball_C, ocp.ball_off, ocp.ball_radius))
        coupling_C[:, sl] = ocp.F
        coupling_rhs -= ocp.f0
    rows.append(coupling_C)
    rhs.append(coupling_rhs)
    rows_C = np.vstack(rows)
    rows_rhs = np.concatenate(rhs)

    u, warm, iters, rp, rd, flag = _split_qp(H, g, rows_C, rows_rhs, balls,
                                             tol, max_iter)
    if flag == "infeasible":
        viol = rows_C @ u - rows_rhs
        worst = int(np.argmax(viol))
        raise OcpInfeasibleError(
            f"stacked problem infeasible; most violated row {worst} "
            f"by {viol[worst]:.3e}")

    solutions = []
    total = 0.0
    for i, ocp in enumerate(ocps):
        ui = u[starts[i]:starts[i + 1]]
        sol = _solution_from(ocp, ui, None, iters, rp, rd, flag)
        solutions.append(sol)
        total += sol.J_star
    return solutions, float(total)
