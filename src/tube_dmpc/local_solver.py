"""Condensed per-agent OCPs, the splitting QP solver, and a centralized oracle."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .model import AgentModel, Scenario
from .synthesis import TerminalIngredients
from .tightening import TightenedSets, ToleranceSchedule

FEAS_TOL = 1e-6
RELAXATION = 1.6  # classic over-relaxation factor for the splitting iteration
STALL_WINDOW = 2000
STALL_LEVEL = 1e-3
SCALE_FLOOR = np.finfo(float).tiny  # a row or block normed below this cannot be rescaled


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


def _read_only(obj):
    """Clear the write flag of every array field of a template (tuples included)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class SplitSetup:
    """State-independent part of the splitting QP: scaled constraints, step, factor.

    Rows of the halfspace block are scaled to unit norm; rows normed below
    SCALE_FLOOR (all-zero rows included) are dropped through `zero`. Each
    ball block is scaled by 1/||C_ball||_2 and `balls` holds (slice, scale,
    scaled radius) per block. `factor` is the upper Cholesky factor of
    H + sigma C'C in LAPACK layout.
    """

    zero: np.ndarray | None  # mask of the dropped halfspace rows, None when none is
    row_scale: np.ndarray
    C: np.ndarray
    sigma: float
    sigmaCT: np.ndarray
    factor: np.ndarray
    balls: tuple


def split_setup(H, rows_C, ball_Cs, ball_radii) -> SplitSetup:
    """Scale the constraint blocks, pick the step sigma and factor H + sigma C'C."""
    norms = np.linalg.norm(rows_C, axis=1)
    zero = norms < SCALE_FLOOR
    if np.any(zero):
        rows_C, norms = rows_C[~zero], norms[~zero]
    else:
        zero = None
    nrows = rows_C.shape[0]
    scale = 1.0 / norms
    blocks = [rows_C * scale[:, None]]

    balls = []
    offset = nrows
    for C, radius in zip(ball_Cs, ball_radii):
        beta = np.linalg.norm(C, 2)
        beta = 1.0 / beta if beta >= SCALE_FLOOR else 1.0
        blocks.append(C * beta)
        balls.append((slice(offset, offset + C.shape[0]), beta, radius * beta))
        offset += C.shape[0]
    C = np.vstack(blocks)
    del blocks  # the oracle's stacked blocks are large: free them before the SVDs

    sigma = np.linalg.norm(H, 2) / max(1.0, np.linalg.norm(C, 2) ** 2)
    sigma = float(np.clip(sigma, 1e-3, 1e6))
    sigmaCT = sigma * C.T
    factor, _ = cho_factor(H + sigmaCT @ C, lower=False)
    setup = SplitSetup(zero=zero, row_scale=scale, C=C, sigma=sigma, sigmaCT=sigmaCT,
                       factor=factor, balls=tuple(balls))
    _read_only(setup)
    return setup


def split_iterate(setup: SplitSetup, g, rows_rhs, ball_offsets, tol, max_iter, warm=None):
    """ADMM splitting for min 0.5u'Hu + g'u s.t. rows and ball blocks.

    H and the constraint matrices are fixed by `setup`; the call supplies the
    linear term, the halfspace right-hand sides and one offset per ball.
    Returns (u, warm_state, iters, r_primal, r_dual, flag) with flag in
    {converged, iteration-cap, infeasible}. A row dropped by the setup (all
    coefficients zero, or too small to rescale) is ignored when its rhs is
    >= 0 and makes the problem infeasible when its rhs is < 0.
    """
    if setup.zero is not None:
        zero_rhs = rows_rhs[setup.zero]
        if np.any(zero_rhs < 0):
            return (np.zeros(g.shape[0]), None, 0, float(-zero_rhs.min()), 0.0,
                    "infeasible")
        rows_rhs = rows_rhs[~setup.zero]
    rhs_s = rows_rhs * setup.row_scale
    nrows = rhs_s.shape[0]
    balls = [(sl, off * beta, rad_s)
             for (sl, beta, rad_s), off in zip(setup.balls, ball_offsets)]

    C, sigma, sigmaCT, factor = setup.C, setup.sigma, setup.sigmaCT, setup.factor
    CT = C.T
    total = C.shape[0]
    if warm is not None and warm[0].shape[0] == total:
        s, y = warm[0].copy(), warm[1].copy()
    else:
        s, y = np.zeros(total), np.zeros(total)

    r_prim = r_dual = np.inf
    stall = 0
    flag = "iteration-cap"
    it = 0
    for it in range(1, max_iter + 1):
        u, info = dpotrs(factor, sigmaCT @ (s - y) - g, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        Cu = C @ u
        Cu_rel = RELAXATION * Cu + (1.0 - RELAXATION) * s
        v = Cu_rel + y
        s_new = v.copy()
        s_new[:nrows] = np.minimum(v[:nrows], rhs_s)
        for sl, off_s, rad_s in balls:  # project onto the ball ||. + off_s|| <= rad_s
            w = v[sl] + off_s
            nrm = np.sqrt(w.dot(w))
            if nrm > rad_s:
                w *= rad_s / nrm
            s_new[sl] = w - off_s
        y = y + Cu_rel - s_new
        r_prim = float(np.abs(Cu - s_new).max())
        r_dual = float(sigma * np.abs(CT @ (s_new - s)).max())
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


@dataclass(frozen=True, eq=False)
class OcpTemplate:
    """State-independent part of one agent's condensed OCP, built once per scenario.

    Only q, c0, the halfspace right-hand sides, the ball offset and f0 depend
    on the state x0; `condense` reads them off these arrays. `W[l - 1]` is the
    stage weight at step l (P at l = N), `q_maps[l - 1]` = 2 Gamma[l]' W[l - 1],
    `rhs_G`/`rhs_h` are the tightened state sets Z[1..N-1], `rhs_U` the input
    rows over the horizon, `ball_map` = L' with P = L L', and `f0_map` the x0
    part of the coupling map. `dual_curvature` is ||F H^-1 F'||_2 and `split`
    the splitting solver's setup. Every array is read-only.
    """

    Phi: np.ndarray
    Gamma: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    W: tuple
    q_maps: tuple
    rows_C: np.ndarray
    rhs_G: tuple
    rhs_h: tuple
    rhs_U: np.ndarray
    ball_map: np.ndarray
    ball_C: np.ndarray
    ball_radius: float
    F: np.ndarray
    f0_map: np.ndarray
    dual_curvature: float
    split: SplitSetup = field(repr=False)


def ocp_template(agent: AgentModel, ing: TerminalIngredients, tightened: TightenedSets,
                 Psi_x, Psi_u, N: int) -> OcpTemplate:
    """Assemble everything of the condensed OCP that does not depend on x0."""
    n, m, p = agent.n, agent.m, Psi_x.shape[0]
    Phi, Gamma = rollout_maps(agent.A, agent.B, N)
    Q = np.array(agent.Q)
    W = (Q,) * (N - 1) + (np.array(ing.P),)

    H = np.zeros((N * m, N * m))
    q_maps = []
    for l in range(1, N + 1):
        H += 2.0 * Gamma[l].T @ W[l - 1] @ Gamma[l]
        q_maps.append(2.0 * Gamma[l].T @ W[l - 1])
    for l in range(N):
        H[l * m:(l + 1) * m, l * m:(l + 1) * m] += 2.0 * agent.R

    rows = [tightened.Z[l].G @ Gamma[l] for l in range(1, N)]
    GU = agent.U.G
    for l in range(N):
        block = np.zeros((GU.shape[0], N * m))
        block[:, l * m:(l + 1) * m] = GU
        rows.append(block)
    rows_C = np.vstack(rows)

    L = np.linalg.cholesky(ing.P)  # P = L L', so ||z||_P = ||L' z||
    ball_map = L.T
    ball_C = ball_map @ Gamma[N]

    # coupling block l: Psi_x z(l) + Psi_u u(l), from the same rollout
    F = (Psi_x @ Gamma[:N]).reshape(N * p, N * m) + np.kron(np.eye(N), Psi_u)
    f0_map = (Psi_x @ Phi[:N]).reshape(N * p, n)

    template = OcpTemplate(
        Phi=Phi, Gamma=Gamma, H=H, Q=Q, W=W, q_maps=tuple(q_maps), rows_C=rows_C,
        rhs_G=tuple(np.array(tightened.Z[l].G) for l in range(1, N)),
        rhs_h=tuple(np.array(tightened.Z[l].h) for l in range(1, N)),
        rhs_U=np.tile(agent.U.h, N), ball_map=ball_map, ball_C=ball_C,
        ball_radius=ing.eps_r, F=F, f0_map=f0_map,
        dual_curvature=float(np.linalg.norm(F @ np.linalg.solve(H, F.T), 2)),
        split=split_setup(H, rows_C, [ball_C], [ing.eps_r]))
    _read_only(template)
    return template


@dataclass(frozen=True)
class CondensedOcp:
    """State-eliminated OCP: J(u) = 0.5 u'Hu + q'u + c0 over stacked inputs.

    Constraint bundle: halfspace rows (rows_C u <= rows_rhs), the terminal
    ellipsoid ||ball_C u + ball_off|| <= ball_radius, and the affine coupling
    map f(u) = f0 + F u with per-agent share b_share of the tightened RHS.
    The state-independent matrices live in `template`.
    """

    template: OcpTemplate
    x0: np.ndarray
    q: np.ndarray
    c0: float
    rows_rhs: np.ndarray
    ball_off: np.ndarray
    f0: np.ndarray
    b_share: np.ndarray

    @property
    def H(self) -> np.ndarray:
        return self.template.H

    @property
    def rows_C(self) -> np.ndarray:
        return self.template.rows_C

    @property
    def ball_C(self) -> np.ndarray:
        return self.template.ball_C

    @property
    def ball_radius(self) -> float:
        return self.template.ball_radius

    @property
    def F(self) -> np.ndarray:
        return self.template.F

    def trajectory(self, u: np.ndarray) -> np.ndarray:
        return self.template.Phi @ self.x0 + self.template.Gamma @ u

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


def condense(template: OcpTemplate, x0, b_share=None) -> CondensedOcp:
    """The condensed OCP of `template` at state x0 (only the x0-dependent terms)."""
    t = template
    x0 = np.asarray(x0, dtype=float).ravel()
    N = len(t.W)
    free = [Phi_l @ x0 for Phi_l in t.Phi]  # input-free rollout z(l) = A^l x0

    q = np.zeros(t.H.shape[0])
    c0 = float(x0 @ t.Q @ x0)
    for l in range(1, N + 1):
        q += t.q_maps[l - 1] @ free[l]
        c0 += float(x0 @ t.Phi[l].T @ t.W[l - 1] @ t.Phi[l] @ x0)

    rows_rhs = np.concatenate([h - G @ free[l]
                               for l, G, h in zip(range(1, N), t.rhs_G, t.rhs_h)]
                              + [t.rhs_U])
    f0 = t.f0_map @ x0
    if b_share is None:
        b_share = np.zeros(f0.shape[0])
    return CondensedOcp(template=t, x0=x0, q=q, c0=c0, rows_rhs=rows_rhs,
                        ball_off=t.ball_map @ free[N], f0=f0,
                        b_share=np.asarray(b_share, dtype=float))


def project_ball(s: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the origin-centered ball (radial scaling).

    split_iterate performs the same arithmetic inline on its ball blocks.
    """
    nrm = np.linalg.norm(s)
    if nrm <= radius:
        return s.copy()
    return s * (radius / nrm)


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
    u, warm, iters, rp, rd, flag = split_iterate(
        ocp.template.split, g, ocp.rows_rhs, [ocp.ball_off], tol, max_iter,
        warm=warm_start)
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
    ocps = [condense(ocp_template(agent, ing, tz, scenario.coupling.Psi_x[i],
                                  scenario.coupling.Psi_u[i], scenario.N), x0_all[i])
            for i, (agent, ing, tz) in enumerate(zip(scenario.agents, ingredients,
                                                     tightened_list))]
    dims = [ocp.H.shape[0] for ocp in ocps]
    total_dim = sum(dims)
    starts = np.concatenate([[0], np.cumsum(dims)]).astype(int)

    H = np.zeros((total_dim, total_dim))
    g = np.zeros(total_dim)
    rows, rhs = [], []
    ball_Cs = []
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
        ball_Cs.append(ball_C)
        coupling_C[:, sl] = ocp.F
        coupling_rhs -= ocp.f0
    rows.append(coupling_C)
    rhs.append(coupling_rhs)
    rows_C = np.vstack(rows)
    del rows  # one stacked copy of the (large) halfspace block is enough
    rows_rhs = np.concatenate(rhs)

    setup = split_setup(H, rows_C, ball_Cs, [ocp.ball_radius for ocp in ocps])
    u, warm, iters, rp, rd, flag = split_iterate(
        setup, g, rows_rhs, [ocp.ball_off for ocp in ocps], tol, max_iter)
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
