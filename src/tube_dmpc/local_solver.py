"""Condensed per-agent OCPs, the splitting QP solver, and a centralized oracle."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import groupby

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
    ball block is scaled by 1/||C_ball||_2. `balls` holds one entry per run of
    consecutive ball blocks of equal size, so that one array expression
    projects them all: (rows, scales, scaled radii). `factor` is
    the upper Cholesky factor of H + sigma C'C in LAPACK layout.
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

    balls, offset = [], nrows  # one entry per run of consecutive equal-size ball blocks
    for size, run in groupby(zip(ball_Cs, ball_radii), key=lambda pair: pair[0].shape[0]):
        Cs, radii = zip(*run)
        beta = np.array([1.0 / b if b >= SCALE_FLOOR else 1.0
                         for b in (np.linalg.norm(C, 2) for C in Cs)])
        blocks += [C * b for C, b in zip(Cs, beta)]
        rows = slice(offset, offset + size * len(Cs))
        balls.append((rows, beta, np.array(radii) * beta))
        offset = rows.stop
        for arr in balls[-1][1:]:
            arr.setflags(write=False)
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


def split_iterate(setup: SplitSetup, G, rows_rhs, ball_offsets, tol, max_iter, warm=None):
    """ADMM splitting for min 0.5u'Hu + g'u s.t. rows and ball blocks, one problem per column.

    H and the constraint matrices are fixed by `setup`; column j of G (k, B),
    of rows_rhs (r, B) and of each ball's offset block (nb, B) is problem j's
    linear term, halfspace right-hand sides and ball offset. One batched
    iteration advances every problem still in the working set; a problem
    leaves it at its own convergence, stall or iteration-cap test, so each
    column follows the iterates it would follow alone. `warm` is the
    splitting state (S, Y), each (total, B). Returns (U, (S, Y), iterations,
    r_primal, r_dual, flags), one column or entry per problem, with flags in
    {converged, iteration-cap, infeasible}. A row dropped by the setup (all
    coefficients zero, or too small to rescale) is ignored when its rhs is
    >= 0 and makes the problem infeasible when its rhs is < 0.
    """
    C, sigma, sigmaCT, factor = setup.C, setup.sigma, setup.sigmaCT, setup.factor
    CT = C.T
    (k, B), total = G.shape, C.shape[0]
    if warm is None:
        warm = (np.zeros((total, B)), np.zeros((total, B)))
    S_out, Y_out = warm[0].copy(), warm[1].copy()
    U_out = np.zeros((k, B))
    iterations = np.zeros(B, dtype=int)
    r_prim_out, r_dual_out = np.zeros(B), np.zeros(B)
    flags = np.full(B, "iteration-cap", dtype=object)

    cols = np.arange(B)  # the working set
    if setup.zero is not None:
        zero_rhs = rows_rhs[setup.zero]
        dead = (zero_rhs < 0).any(axis=0)
        r_prim_out[dead] = -zero_rhs[:, dead].min(axis=0)
        flags[dead] = "infeasible"
        cols = cols[~dead]
        rows_rhs = rows_rhs[~setup.zero]
    nrows = rows_rhs.shape[0]
    # halfspace bounds, +inf on the ball rows so that one minimum clips every row
    upper = np.full((total, cols.size), np.inf)
    upper[:nrows] = rows_rhs[:, cols] * setup.row_scale[:, None]
    # per run of equal-size balls: rows, scaled offsets (blocks, nb, columns), scaled
    # radii and the floor of the projection's denominator (the radius, or 1 at radius 0)
    balls, first = [], 0
    for sl, beta, rad_s in setup.balls:
        off = np.stack(ball_offsets[first:first + beta.size])[:, :, cols] * beta[:, None, None]
        rad_s = rad_s[:, None, None]
        balls.append((sl, off, rad_s, np.where(rad_s > 0, rad_s, 1.0)))
        first += beta.size
    G = G[:, cols]
    S, Y = S_out[:, cols], Y_out[:, cols]
    last_ok = np.zeros(cols.size, dtype=int)  # last iteration with r_prim <= STALL_LEVEL

    for it in range(1, max_iter + 1 if cols.size else 1):  # none if every problem failed
        U, info = dpotrs(factor, sigmaCT @ (S - Y) - G, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        CU = C @ U
        CU_rel = RELAXATION * CU + (1.0 - RELAXATION) * S
        V = CU_rel + Y
        S_new = np.minimum(V, upper)
        for sl, off_s, rad_s, floor in balls:  # project each block onto ||. + off_s|| <= rad_s
            W = V[sl].reshape(off_s.shape) + off_s
            W *= rad_s / np.maximum(np.sqrt(np.vecdot(W, W, axis=1, keepdims=True)), floor)
            np.subtract(W, off_s, out=S_new[sl].reshape(off_s.shape))
        Y = V - S_new
        P = CU - S_new
        r_prim = np.maximum.reduce(np.abs(P, out=P))
        r_list = r_prim.tolist()  # Python min/max beat ufunc reductions over a few columns
        r_min = min(r_list)
        if max(r_list) <= STALL_LEVEL:
            last_ok.fill(it)
        elif r_min <= STALL_LEVEL:
            np.copyto(last_ok, it, where=r_prim <= STALL_LEVEL)
        S_old, S = S, S_new
        if not (r_min < tol or it == max_iter
                or (it >= STALL_WINDOW and it - np.minimum.reduce(last_ok) >= STALL_WINDOW)):
            continue  # no column can leave: skip the dual residual

        r_dual = sigma * np.maximum.reduce(np.abs(CT @ (S - S_old)))
        converged = (r_prim < tol) & (r_dual < tol)
        stalled = it - last_ok >= STALL_WINDOW
        done = converged | stalled | (it == max_iter)
        if not done.any():
            continue
        j = cols[done]
        U_out[:, j], S_out[:, j], Y_out[:, j] = U[:, done], S[:, done], Y[:, done]
        iterations[j], r_prim_out[j], r_dual_out[j] = it, r_prim[done], r_dual[done]
        flags[j] = np.where(converged[done], "converged",
                            np.where(stalled[done], "infeasible", "iteration-cap"))
        keep = ~done
        if not keep.any():
            break
        cols, G, upper, S, Y = cols[keep], G[:, keep], upper[:, keep], S[:, keep], Y[:, keep]
        last_ok = last_ok[keep]
        balls = [(sl, off_s[:, :, keep], *radii) for sl, off_s, *radii in balls]
    return U_out, (S_out, Y_out), iterations, r_prim_out, r_dual_out, flags.tolist()


@dataclass(frozen=True, eq=False)
class OcpTemplate:
    """State-independent part of one agent's condensed OCP, built once per scenario.

    Only q, c0, the halfspace right-hand sides, the ball offset and f0 depend
    on the state x0; `condense` reads them off these arrays. `W[l - 1]` is the
    stage weight at step l (P at l = N), `q_maps[l - 1]` = 2 Gamma[l]' W[l - 1],
    `rhs_G`/`rhs_h` are the tightened state sets Z[1..N-1], `rhs_U` the input
    rows over the horizon, `ball_map` = L' with P = L L', and `f0_map` the x0
    part of the coupling map. `feedback_coupling` maps x to the stacked coupling
    values (Psi_x + Psi_u K)(A + BK)^l x, l < N, of the terminal-feedback plan.
    `dual_curvature` is ||F H^-1 F'||_2 and `split` the splitting solver's
    setup. Every array is read-only.
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
    feedback_coupling: np.ndarray
    dual_curvature: float
    split: SplitSetup = field(repr=False)


def ocp_template(agent: AgentModel, ing: TerminalIngredients, tightened: TightenedSets,
                 Psi_x, Psi_u, N: int, split: SplitSetup | None = None) -> OcpTemplate:
    """Assemble everything of the condensed OCP that does not depend on x0.

    `split` is the setup of an agent with equal solver data, if one was built.
    """
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
    K = ing.K
    Phi_K, _ = rollout_maps(agent.A + agent.B @ K, agent.B, N)
    feedback_coupling = ((Psi_x + Psi_u @ K) @ Phi_K[:N]).reshape(N * p, n)

    template = OcpTemplate(
        Phi=Phi, Gamma=Gamma, H=H, Q=Q, W=W, q_maps=tuple(q_maps), rows_C=rows_C,
        rhs_G=tuple(np.array(tightened.Z[l].G) for l in range(1, N)),
        rhs_h=tuple(np.array(tightened.Z[l].h) for l in range(1, N)),
        rhs_U=np.tile(agent.U.h, N), ball_map=ball_map, ball_C=ball_C,
        ball_radius=ing.eps_r, F=F, f0_map=f0_map, feedback_coupling=feedback_coupling,
        dual_curvature=float(np.linalg.norm(F @ np.linalg.solve(H, F.T), 2)),
        split=split if split is not None else split_setup(H, rows_C, [ball_C], [ing.eps_r]))
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

    def trajectory(self, u: np.ndarray) -> np.ndarray:
        return self.template.Phi @ self.x0 + self.template.Gamma @ u

    def cost(self, u: np.ndarray) -> float:
        return float(0.5 * u @ self.template.H @ u + self.q @ u + self.c0)

    def coupling_values(self, u: np.ndarray) -> np.ndarray:
        return self.f0 + self.template.F @ u


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


def _feasible(ocp: CondensedOcp, u) -> bool:
    t = ocp.template
    viol = 0.0
    if t.rows_C.shape[0]:
        viol = float(np.max(t.rows_C @ u - ocp.rows_rhs))
    ball_viol = float(np.linalg.norm(t.ball_C @ u + ocp.ball_off) - t.ball_radius)
    return viol <= FEAS_TOL and ball_viol <= FEAS_TOL


def _solution_from(ocp: CondensedOcp, u, iters, rp, rd, flag) -> OcpSolution:
    feasible = _feasible(ocp, u)
    if flag == "converged" and feasible:
        status = "optimal"
    elif flag == "infeasible" and not feasible:
        status = "infeasible"
    else:
        status = "iteration-cap"
    return OcpSolution(u_star=u, z_star=ocp.trajectory(u), J_star=ocp.cost(u),
                       status=status, residual_primal=rp, residual_dual=rd,
                       iterations=iters)


@dataclass(frozen=True, eq=False)
class InnerResult:
    """Lockstep inner solve of a group of agents that share one SplitSetup.

    Row j of `u` and entry j of the per-agent arrays belong to ocps[j]; `F`
    stacks their coupling maps. `warm` is the group's splitting state and
    `iterations` the inner iterations summed over the group. The per-agent
    OcpSolutions are assembled on first access to `solutions`.
    """

    ocps: tuple
    F: np.ndarray
    u: np.ndarray
    warm: tuple
    agent_iterations: np.ndarray
    r_primal: np.ndarray
    r_dual: np.ndarray
    flags: list

    @property
    def iterations(self) -> int:
        return int(self.agent_iterations.sum())

    @cached_property
    def solutions(self) -> list:
        return [_solution_from(ocp, self.u[j], int(self.agent_iterations[j]),
                               float(self.r_primal[j]), float(self.r_dual[j]), self.flags[j])
                for j, ocp in enumerate(self.ocps)]

    def coupling_values(self) -> np.ndarray:
        """f0 + F u of every agent of the group, one row per agent."""
        f0 = np.array([ocp.f0 for ocp in self.ocps])
        return f0 + (self.F @ self.u[:, :, None])[:, :, 0]

    def infeasible(self) -> list:
        """Positions in the group flagged infeasible whose final iterate is infeasible too."""
        return [j for j, flag in enumerate(self.flags)
                if flag == "infeasible" and not _feasible(self.ocps[j], self.u[j])]


def solve_inner(ocps, lams, warm=None, tol: float = 1e-8,
                max_iter: int = 20000) -> InnerResult:
    """Minimize J_i(u) + lam_i'(f_i(u) - b_share_i) for every agent i of a group.

    The agents share one SplitSetup (`template.split`); row i of `lams` is
    agent i's multiplier and `warm` the state a previous call returned for
    the same group. One batched splitting iteration advances them all.
    """
    ocps = tuple(ocps)
    F = np.stack([ocp.template.F for ocp in ocps])
    lams = np.asarray(lams, dtype=float).reshape(len(ocps), -1)
    if lams.shape[1] != F.shape[1]:
        raise ValueError(f"lambda has dim {lams.shape[1]}, expected {F.shape[1]}")
    if np.any(lams < 0):
        raise ValueError("lambda must be componentwise nonnegative")
    G = np.array([ocp.q for ocp in ocps]) + (F.transpose(0, 2, 1) @ lams[:, :, None])[:, :, 0]
    U, warm, iters, rp, rd, flags = split_iterate(
        ocps[0].template.split, G.T, np.array([ocp.rows_rhs for ocp in ocps]).T,
        [np.array([ocp.ball_off for ocp in ocps]).T], tol, max_iter, warm=warm)
    return InnerResult(ocps=ocps, F=F, u=np.ascontiguousarray(U.T), warm=warm,
                       agent_iterations=iters, r_primal=rp, r_dual=rd, flags=flags)


def _solver_key(agent: AgentModel, ing: TerminalIngredients, tightened: TightenedSets) -> tuple:
    """Bytes of everything a template's split setup is built from (the coupling excluded)."""
    sets = tightened.Z[1:]
    arrays = ((agent.A, agent.B, agent.Q, agent.R, agent.U.G, agent.U.h, ing.P)
              + tuple(Z.G for Z in sets) + tuple(Z.h for Z in sets))
    return tuple((a.shape, a.tobytes()) for a in arrays) + (ing.eps_r,)


def ocp_templates(agents, ingredients, tightened, Psi_x, Psi_u, N: int) -> tuple:
    """One template per agent, built once per distinct input data.

    Agents whose data are byte-equal share one template. Agents that differ
    only in what their coupling map reads (Psi_x, Psi_u and the feedback K)
    share one SplitSetup, which lets the dual iteration solve them in lockstep.
    """
    built, splits, templates = {}, {}, []
    for agent, ing, tz, Px, Pu in zip(agents, ingredients, tightened, Psi_x, Psi_u):
        split_key = _solver_key(agent, ing, tz)
        key = (split_key, ing.K.tobytes(), Px.shape, Px.tobytes(), Pu.shape, Pu.tobytes())
        if key not in built:
            built[key] = ocp_template(agent, ing, tz, Px, Pu, N, split=splits.get(split_key))
            splits.setdefault(split_key, built[key].split)
        templates.append(built[key])
    return tuple(templates)


def solve_centralized(scenario: Scenario, ingredients, tightened_list,
                      schedule: ToleranceSchedule, x0_all,
                      tol: float = 1e-8, max_iter: int = 20000):
    """Stacked solve with the coupling rows as hard constraints.

    Ground-truth oracle for the distributed path; returns (per-agent
    solutions, total cost).
    """
    templates = ocp_templates(scenario.agents, ingredients, tightened_list,
                              scenario.coupling.Psi_x, scenario.coupling.Psi_u, scenario.N)
    ocps = [condense(t, x0) for t, x0 in zip(templates, x0_all)]
    dims = [ocp.template.H.shape[0] for ocp in ocps]
    total_dim = sum(dims)
    starts = np.concatenate([[0], np.cumsum(dims)]).astype(int)

    H = np.zeros((total_dim, total_dim))
    g = np.zeros(total_dim)
    rows, rhs = [], []
    ball_Cs = []
    coupling_C = np.zeros((schedule.b.shape[0], total_dim))
    coupling_rhs = schedule.b.copy()
    for i, ocp in enumerate(ocps):
        t = ocp.template
        sl = slice(starts[i], starts[i + 1])
        H[sl, sl] = t.H
        g[sl] = ocp.q
        block = np.zeros((t.rows_C.shape[0], total_dim))
        block[:, sl] = t.rows_C
        rows.append(block)
        rhs.append(ocp.rows_rhs)
        ball_C = np.zeros((t.ball_C.shape[0], total_dim))
        ball_C[:, sl] = t.ball_C
        ball_Cs.append(ball_C)
        coupling_C[:, sl] = t.F
        coupling_rhs -= ocp.f0
    rows.append(coupling_C)
    rhs.append(coupling_rhs)
    rows_C = np.vstack(rows)
    del rows  # one stacked copy of the (large) halfspace block is enough
    rows_rhs = np.concatenate(rhs)

    setup = split_setup(H, rows_C, ball_Cs, [ocp.template.ball_radius for ocp in ocps])
    U, _, iters, rp, rd, flags = split_iterate(
        setup, g[:, None], rows_rhs[:, None], [ocp.ball_off[:, None] for ocp in ocps],
        tol, max_iter)
    u, iters, rp, rd, flag = U[:, 0], int(iters[0]), float(rp[0]), float(rd[0]), flags[0]
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
        sol = _solution_from(ocp, ui, iters, rp, rd, flag)
        solutions.append(sol)
        total += sol.J_star
    return solutions, float(total)
