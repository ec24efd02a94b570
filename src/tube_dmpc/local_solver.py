"""Condensed per-agent OCPs, the splitting QP solver, and a centralized oracle."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import groupby

import numpy as np

from .model import AgentModel, Scenario, group_members
from .synthesis import TerminalIngredients
from .tightening import TightenedSets, ToleranceSchedule
from .trigger import deviation_table, quad_form

FEAS_TOL = 1e-6
RELAXATION = 1.6  # classic over-relaxation factor for the splitting iteration
STALL_WINDOW = 2000
STALL_LEVEL = 1e-3
POLISH_LEVEL = 1e-1  # splitting residual at which solve_inner guesses the active set
ACTIVE_SET_ROUNDS = 8  # polish rounds per column before solve_inner falls back to splitting
KKT_TOL = 1e-10  # slack allowed in the polish's feasibility and tightness checks
SCALE_FLOOR = np.finfo(float).tiny  # a row or block normed below this cannot be rescaled


class OcpInfeasibleError(RuntimeError):
    """Raised by the centralized oracle when the stacked problem is infeasible."""


def powers(A, count: int) -> np.ndarray:
    """A^0, ..., A^(count - 1), each power A times the one before."""
    out = np.empty((count,) + A.shape)
    out[0] = np.eye(A.shape[0])
    for l in range(1, count):
        out[l] = A @ out[l - 1]
    return out


def rollout_maps(A, B, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Phi[l] = A^l and Gamma[l] with z(l) = Phi[l] x0 + Gamma[l] u, l = 0..N."""
    n, m = A.shape[0], B.shape[1]
    Gamma = np.zeros((N + 1, n, N * m))
    for l in range(N):
        Gamma[l + 1] = A @ Gamma[l]
        Gamma[l + 1][:, l * m:(l + 1) * m] += B
    return powers(A, N + 1), Gamma


def _read_only(obj):
    """Clear the write flag of every array field of a setup or group (tuples included)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class SplitSetup:
    """State-independent part of the splitting QP: scaled constraints, step, inverse.

    Rows of the halfspace block are scaled to unit norm; rows normed below
    SCALE_FLOOR (all-zero rows included) are dropped through `zero`. Each
    ball block is scaled by 1/||C_ball||_2. `balls` holds one entry per run of
    consecutive ball blocks of equal size, so that one array expression
    projects them all: (rows, scales, scaled radii). With K = H + sigma C'C,
    `solve_map` is K^-1 and `step_map` is sigma K^-1 C'.
    """

    zero: np.ndarray | None  # mask of the dropped halfspace rows, None when none is
    row_scale: np.ndarray
    C: np.ndarray
    sigma: float
    solve_map: np.ndarray
    step_map: np.ndarray
    balls: tuple


def split_setup(H, rows_C, ball_Cs, ball_radii) -> SplitSetup:
    """Scale the constraint blocks, pick the step sigma and invert H + sigma C'C."""
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
    solve_map = np.linalg.inv(H + sigma * (C.T @ C))
    setup = SplitSetup(zero=zero, row_scale=scale, C=C, sigma=sigma, solve_map=solve_map,
                       step_map=(sigma * solve_map) @ C.T, balls=tuple(balls))
    _read_only(setup)
    return setup


def dead_columns(setup: SplitSetup, rows_rhs) -> np.ndarray:
    """Mask of the columns of rows_rhs (r, B) that a row dropped by the setup makes infeasible."""
    if setup.zero is None:
        return np.zeros(rows_rhs.shape[1], dtype=bool)
    return (rows_rhs[setup.zero] < 0).any(axis=0)


def split_iterate(setup: SplitSetup, G, rows_rhs, ball_offsets, tol, max_iter, warm=None):
    """ADMM splitting for min 0.5u'Hu + g'u s.t. rows and ball blocks, one problem per column.

    H and the constraint matrices are fixed by `setup`; column j of G (k, B),
    of rows_rhs (r, B) and of each ball's offset block (nb, B) is problem j's
    linear term, halfspace right-hand sides and ball offset. One batched
    iteration advances every problem still in the working set; a problem
    leaves it at its own convergence, stall or iteration-cap test, and no
    column reads another's data. Batched and single-column BLAS calls round
    differently, so a column follows the iterates it would follow alone up to
    rounding. Where its iterates are so large that their rounding approaches
    `tol` (iterates near 1e8 at tol 1e-8), that rounding decides its residual
    tests, and it can stop at another iteration than alone. `warm` is the
    splitting state (S, Y), each (total, B). Returns (U, (S, Y), iterations,
    r_primal, r_dual, flags), one column or entry per problem, with flags in
    {converged, iteration-cap, infeasible}. A row dropped by the setup (all
    coefficients zero, or too small to rescale) is ignored when its rhs is
    >= 0 and makes the problem infeasible when its rhs is < 0.
    """
    C, sigma, step_map = setup.C, setup.sigma, setup.step_map
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
        dead = dead_columns(setup, rows_rhs)
        r_prim_out[dead] = -rows_rhs[setup.zero][:, dead].min(axis=0)
        flags[dead] = "infeasible"
        cols = cols[~dead]
        rows_rhs = rows_rhs[~setup.zero]
    nrows = rows_rhs.shape[0]
    # halfspace bounds, +inf on the ball rows so that one minimum clips every row
    upper = np.full((total, cols.size), np.inf)
    upper[:nrows] = rows_rhs[:, cols] * setup.row_scale[:, None]
    # per run of equal-size balls: rows, scaled offsets (blocks, nb, columns), scaled radii
    balls, first = [], 0
    for sl, beta, rad_s in setup.balls:
        off = np.stack(ball_offsets[first:first + beta.size])[:, :, cols] * beta[:, None, None]
        balls.append((sl, off, rad_s[:, None, None]))
        first += beta.size
    KG = setup.solve_map @ G[:, cols]
    S, Y = S_out[:, cols], Y_out[:, cols]
    last_ok = np.zeros(cols.size, dtype=int)  # last iteration with r_prim <= STALL_LEVEL

    for it in range(1, max_iter + 1 if cols.size else 1):  # none if every problem failed
        U = step_map @ (S - Y)
        U -= KG
        CU = C @ U
        CU_rel = RELAXATION * CU + (1.0 - RELAXATION) * S
        V = CU_rel + Y
        S_new = np.minimum(V, upper)
        for sl, off_s, rad_s in balls:  # project each block onto ||. + off_s|| <= rad_s
            # only a block outside its ball moves (V + off - off would round V away where
            # |off| >> |V|), and hypot cannot overflow where the sum of squares would
            W = V[sl].reshape(off_s.shape) + off_s
            norm = np.hypot.reduce(W, axis=1, keepdims=True)
            outside = norm > rad_s
            W *= np.divide(rad_s, norm, out=np.ones_like(norm), where=outside)
            np.subtract(W, off_s, out=S_new[sl].reshape(off_s.shape), where=outside)
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
        cols, KG, upper, S, Y = cols[keep], KG[:, keep], upper[:, keep], S[:, keep], Y[:, keep]
        last_ok = last_ok[keep]
        balls = [(sl, off_s[:, :, keep], *radii) for sl, off_s, *radii in balls]
    return U_out, (S_out, Y_out), iterations, r_prim_out, r_dual_out, flags.tolist()


@dataclass(frozen=True, eq=False)
class PolishSetup:
    """State-independent part of the active-set polish of one split setup's problems.

    Over the scaled halfspace rows C_r of the setup (its dropped rows left
    out): `H_inv` = H^-1, `CH_inv` = C_r H^-1 and `schur` = C_r H^-1 C_r'.
    """

    H_inv: np.ndarray
    CH_inv: np.ndarray
    schur: np.ndarray


def polish_setup(H, split: SplitSetup) -> PolishSetup:
    C_r = split.C[:split.row_scale.size]
    H_inv = np.linalg.inv(H)
    CH_inv = C_r @ H_inv
    setup = PolishSetup(H_inv=H_inv, CH_inv=CH_inv, schur=CH_inv @ C_r.T)
    _read_only(setup)
    return setup


def polish(pol: PolishSetup, U0, CU0, b, active):
    """Exact minimizers on guessed active sets of halfspace rows.

    Column j of U0 = -H^-1 g, CU0 = C_r U0, b (the scaled right-hand sides
    of the setup's kept rows) and `active` (a mask over those rows) belongs
    to problem j. The guessed rows are held as equalities: their multipliers
    mu solve (C_A H^-1 C_A') mu = C_A u0 - b_A, by conjugate gradients on
    the masked Schur matrix, every column at once, and then u = u0 - H^-1
    C_r' mu. Returns (U, mu, slack, kkt): the answers, the multipliers of the
    scaled rows (0 off the guess), the row slacks C_r u - b, and whether
    mu >= 0, every row holds and every guessed row is tight (each to KKT_TOL
    relative to max(1, |b|)). No factorization or solve runs: every step is
    a product with offline data. Where no column guesses a row, no CG step
    runs: mu = 0, U = U0 and slack = CU0 - b exactly. A column whose
    guessed rows are (nearly) dependent and inconsistent has a singular
    masked system on which CG diverges; where its values overflow, it is
    refused with mu = 0, U = U0 and slack = CU0 - b.
    """
    lost = None
    if active.any():
        res = np.where(active, CU0 - b, 0.0)
        mu, p = np.zeros_like(res), res.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            rr = np.vecdot(res, res, axis=0)
            # CG converges in at most rank(C_A H^-1 C_A') <= min(|A|, k) steps, +1 for rounding
            steps = int(np.minimum(active.sum(axis=0), U0.shape[0]).max()) + 1
            for _ in range(steps):
                Sp = pol.schur @ p
                Sp *= active
                pSp = np.vecdot(p, Sp, axis=0)
                alpha = np.divide(rr, pSp, out=np.zeros_like(rr), where=pSp > 0)
                mu += alpha * p
                res -= alpha * Sp
                rr_new = np.vecdot(res, res, axis=0)
                p = res + np.divide(rr_new, rr, out=np.zeros_like(rr), where=rr > 0) * p
                rr = rr_new
            U, slack = U0 - pol.CH_inv.T @ mu, CU0 - pol.schur @ mu - b
        lost = ~(np.isfinite(mu) & np.isfinite(slack)).all(axis=0) | ~np.isfinite(U).all(axis=0)
        if lost.any():
            mu[:, lost], U[:, lost], slack[:, lost] = 0.0, U0[:, lost], CU0[:, lost] - b[:, lost]
    else:
        mu, U, slack = np.zeros_like(CU0), U0, CU0 - b
    tol = KKT_TOL * np.maximum(1.0, np.abs(b))
    kkt = ((mu >= 0.0) & (slack <= tol) & (~active | (slack >= -tol))).all(axis=0)
    if lost is not None:
        kkt &= ~lost
    return U, mu, slack, kkt


@dataclass(frozen=True, eq=False)
class AgentGroup:
    """Agents with one model (A, B, Q, R, X, U, w_bar) and their offline data.

    Member j is agent index[j] (agent order). The members share `agent`, the
    terminal ingredients `ing` and the state-independent part of the condensed
    OCP: the input rollout map `Gamma`, the Hessian H, the halfspace rows
    `rows_C` (the tightened state sets Z[1..N-1], then the input rows over the
    horizon), `ball_C` = L' Gamma[N] with P = L L', `split` the splitting
    solver's setup and `polish` its polish data. Every x0-dependent term is
    one stacked map of x0: `x0_map` x0 + `x0_const` holds, by rows, the
    linear term q, the halfspace right-hand sides, the ball offset L'z(N)
    and the input-free rollout z(0..N); `c0_form` is the constant cost's
    quadratic form. `deviation` is the trigger's deviation table (d, d * d).
    Their coupling data are stacked along axis 0, one entry per member: the
    rows Psi_x and Psi_u, the coupling map F with its x0 part `f0_map`,
    `feedback_coupling` (x to the stacked coupling values (Psi_x + Psi_u K)
    (A + BK)^l x, l < N, of the terminal-feedback plan) and `dual_curvature`
    ||F H^-1 F'||_2. Every array is read-only.
    """

    index: np.ndarray
    agent: AgentModel
    ing: TerminalIngredients
    Gamma: np.ndarray
    H: np.ndarray
    rows_C: np.ndarray
    ball_C: np.ndarray
    x0_map: np.ndarray
    x0_const: np.ndarray
    c0_form: np.ndarray
    deviation: tuple
    Psi_x: np.ndarray
    Psi_u: np.ndarray
    F: np.ndarray
    f0_map: np.ndarray
    feedback_coupling: np.ndarray
    dual_curvature: np.ndarray
    split: SplitSetup = field(repr=False)
    polish: PolishSetup = field(repr=False)

    def shift_active(self, active, steps: int) -> np.ndarray:
        """The active sets `active` (one rows_C mask per row) moved on by `steps` plan steps.

        rows_C holds the N - 1 state-row blocks of z(1..N-1) and then the N
        input-row blocks of u(0..N-1). Each part moves `steps` blocks to the
        left, as the plan does once it has applied that many steps; the blocks
        that come free at its tail are guessed inactive.
        """
        N, n_input = self.Gamma.shape[0] - 1, self.agent.U.G.shape[0]
        total = self.rows_C.shape[0]
        n_state = total - N * n_input
        out = np.zeros_like(active)
        for start, stop, size in ((0, n_state, n_state // max(N - 1, 1)),
                                  (n_state, total, n_input)):
            cut = start + steps * size
            if cut < stop:
                out[:, start:stop - steps * size] = active[:, cut:stop]
        return out


def agent_group(agent: AgentModel, ing: TerminalIngredients, tightened: TightenedSets,
                Psi_x, Psi_u, N: int, index=None) -> AgentGroup:
    """Assemble the offline data of the agents `index` that share `agent`'s model.

    Psi_x[j] and Psi_u[j] are member j's coupling rows; `index` defaults to
    0, 1, ..., one per pair of rows.
    """
    n, m = agent.n, agent.m
    Phi, Gamma = rollout_maps(agent.A, agent.B, N)
    W = np.stack((agent.Q,) * (N - 1) + (ing.P,))  # stage weight at l = 1..N (P at l = N)
    GW = 2.0 * Gamma[1:].transpose(0, 2, 1) @ W  # 2 Gamma[l]' W_l
    H = (GW @ Gamma[1:]).sum(axis=0)
    diag = np.arange(N)  # (l, l) blocks of an (N, rows, N, columns) view
    H.reshape(N, m, N, m)[diag, :, diag] += 2.0 * agent.R

    Z = tightened.Z[1:N]  # the tightened state sets of z(1..N-1)
    GU = agent.U.G
    inputs = np.zeros((N, GU.shape[0], N, m))
    inputs[diag, :, diag] = GU
    rows_C = np.vstack([Zl.G @ Gamma[l] for l, Zl in enumerate(Z, start=1)]
                       + [inputs.reshape(-1, N * m)])

    L = np.linalg.cholesky(ing.P)  # P = L L', so ||z||_P = ||L' z||
    ball_C = L.T @ Gamma[N]
    split = split_setup(H, rows_C, [ball_C], [ing.eps_r])
    # rows of the x0 map: q = sum 2 Gamma[l]' W_l Phi[l] x0, the halfspace right-hand sides
    # h_l - G_l Phi[l] x0 (constant on the input rows), L' Phi[N] x0 and Phi[0..N] x0
    x0_map = np.vstack([(GW @ Phi[1:]).sum(axis=0)]
                       + [-(Zl.G @ Phi[l]) for l, Zl in enumerate(Z, start=1)]
                       + [np.zeros((N * GU.shape[0], n)), L.T @ Phi[N], Phi.reshape(-1, n)])
    x0_const = np.concatenate([np.zeros(N * m)] + [Zl.h for Zl in Z] + [agent.U.h] * N
                              + [np.zeros((N + 2) * n)])

    # coupling block l of member j: Psi_x[j] z(l) + Psi_u[j] u(l), from the same rollout
    Psi_x, Psi_u = np.stack(Psi_x), np.stack(Psi_u)
    size, p = Psi_x.shape[:2]
    F = (Psi_x[:, None] @ Gamma[:N]).reshape(size, N * p, N * m)
    F.reshape(size, N, p, N, m)[:, diag, :, diag] += Psi_u
    Phi_K = powers(agent.A + agent.B @ ing.K, N)  # (A + BK)^l, l < N
    group = AgentGroup(
        index=np.arange(size) if index is None else np.array(index), agent=agent, ing=ing,
        Gamma=Gamma, H=H, rows_C=rows_C, ball_C=ball_C, x0_map=x0_map, x0_const=x0_const,
        c0_form=agent.Q + (Phi[1:].transpose(0, 2, 1) @ W @ Phi[1:]).sum(axis=0),
        deviation=deviation_table(agent, ing, N), Psi_x=Psi_x, Psi_u=Psi_u, F=F,
        f0_map=(Psi_x[:, None] @ Phi[:N]).reshape(size, N * p, n),
        feedback_coupling=((Psi_x + Psi_u @ ing.K)[:, None] @ Phi_K).reshape(size, N * p, n),
        dual_curvature=np.linalg.norm(F @ np.linalg.solve(H, F.transpose(0, 2, 1)), 2,
                                      axis=(1, 2)),
        split=split, polish=polish_setup(H, split))
    _read_only(group)
    return group


def agent_groups(scenario: Scenario, ingredients, tightened, members=None) -> tuple:
    """One AgentGroup per entry of `members` (by default group_members of the agents).

    `ingredients` and `tightened` hold one entry per agent.
    """
    if members is None:
        members = group_members(scenario.agents)
    Psi_x, Psi_u = scenario.coupling.Psi_x, scenario.coupling.Psi_u
    return tuple(agent_group(scenario.agents[idx[0]], ingredients[idx[0]], tightened[idx[0]],
                             [Psi_x[i] for i in idx], [Psi_u[i] for i in idx], scenario.N, idx)
                 for idx in members)


@dataclass(frozen=True, eq=False)
class CondensedOcp:
    """State-eliminated OCPs of some members of one group, one row per member.

    Row j is member slots[j], agent agents[j]: J_j(u) = 0.5 u'Hu + q[j]'u +
    c0[j] over its stacked inputs, subject to the halfspace rows rows_C u <=
    rows_rhs[j] and the terminal ellipsoid ||ball_C u + ball_off[j]|| <= eps_r,
    with the affine coupling map f_j(u) = f0[j] + F[j] u and share b_share of
    the tightened RHS. `free[j]` is the input-free rollout z(0..N) from x0[j].
    The state-independent matrices live in `group`.
    """

    group: AgentGroup
    slots: np.ndarray
    x0: np.ndarray
    q: np.ndarray
    c0: np.ndarray
    rows_rhs: np.ndarray
    ball_off: np.ndarray
    free: np.ndarray
    f0: np.ndarray
    F: np.ndarray
    b_share: np.ndarray

    @property
    def agents(self) -> np.ndarray:
        return self.group.index[self.slots]

    def trajectory(self, U) -> np.ndarray:
        """Nominal states z(0..N) under the input rows U, shape (rows, N + 1, n)."""
        return self.free + (self.group.Gamma @ U[:, None, :, None])[..., 0]

    def cost(self, U) -> np.ndarray:
        return (((0.5 * U)[:, None, :] @ self.group.H @ U[:, :, None])[:, 0, 0]
                + (self.q[:, None, :] @ U[:, :, None])[:, 0, 0] + self.c0)

    def coupling_values(self, U) -> np.ndarray:
        return self.f0 + (self.F @ U[:, :, None])[:, :, 0]

    def feasible(self, U) -> np.ndarray:
        g = self.group
        viol = np.max((g.rows_C @ U[:, :, None])[..., 0] - self.rows_rhs, axis=1,
                      initial=-np.inf)
        ball = (np.linalg.norm((g.ball_C @ U[:, :, None])[..., 0] + self.ball_off, axis=1)
                - g.ing.eps_r)
        return (viol <= FEAS_TOL) & (ball <= FEAS_TOL)


@dataclass
class OcpSolution:
    """Solver output for the rows of one CondensedOcp (row j: its agent agents[j])."""

    u_star: np.ndarray
    z_star: np.ndarray
    J_star: np.ndarray
    status: tuple  # per row: optimal | infeasible | iteration-cap
    residual_primal: np.ndarray
    residual_dual: np.ndarray
    iterations: np.ndarray


def condense(group: AgentGroup, x0, slots=None, b_share=None) -> CondensedOcp:
    """The condensed OCPs of the members `slots` (default: all) at the state rows x0.

    Only the x0-dependent terms are computed: one product of the group's x0
    map with every state row (row j's values do not depend on the other rows)
    and one quadratic form for c0.
    """
    g = group
    slots = np.arange(g.index.size) if slots is None else np.asarray(slots)
    X = np.asarray(x0, dtype=float).reshape(slots.size, -1)
    col = X[:, :, None]
    k, r = g.H.shape[0], g.rows_C.shape[0]
    q, rows_rhs, ball_off, free = np.split((g.x0_map @ col)[..., 0] + g.x0_const,
                                           [k, k + r, k + r + g.ball_C.shape[0]], axis=1)
    F = g.F[slots]
    if b_share is None:
        b_share = np.zeros(F.shape[1])
    return CondensedOcp(group=g, slots=slots, x0=X, q=q, c0=quad_form(X, g.c0_form),
                        rows_rhs=rows_rhs, ball_off=ball_off,
                        free=free.reshape(slots.size, -1, X.shape[1]),
                        f0=(g.f0_map[slots] @ col)[..., 0], F=F,
                        b_share=np.asarray(b_share, dtype=float))


def feedback_guess(ocp: CondensedOcp) -> np.ndarray:
    """The rows_C rows that the saturated terminal-feedback plan reaches, one mask per row.

    From row j's x0 the plan applies u(l) = K z(l), scaled radially into U
    (u / max(1, max_i (G_U u)_i / h_U,i), where validation keeps h_U > 0),
    and z(l + 1) = A z(l) + B u(l). A row of rows_C is guessed active where
    its slack under that plan is >= -KKT_TOL max(1, |rhs|).
    """
    g = ocp.group
    A, B, K, U = g.agent.A, g.agent.B, g.ing.K, g.agent.U
    z, plan = ocp.x0, []
    for _ in range(g.Gamma.shape[0] - 1):
        u = z @ K.T
        u /= np.maximum(1.0, (u @ U.G.T / U.h).max(axis=1, keepdims=True))
        plan.append(u)
        z = z @ A.T + u @ B.T
    slack = np.hstack(plan) @ g.rows_C.T - ocp.rows_rhs
    return slack >= -KKT_TOL * np.maximum(1.0, np.abs(ocp.rows_rhs))


def _solution_from(ocp: CondensedOcp, U, iters, rp, rd, flags) -> OcpSolution:
    feasible = ocp.feasible(U)
    flags = np.asarray(flags)
    status = np.where((flags == "converged") & feasible, "optimal",
                      np.where((flags == "infeasible") & ~feasible, "infeasible", "iteration-cap"))
    return OcpSolution(u_star=U, z_star=ocp.trajectory(U), J_star=ocp.cost(U),
                       status=tuple(status.tolist()), residual_primal=rp, residual_dual=rd,
                       iterations=iters)


@dataclass(frozen=True, eq=False)
class InnerResult:
    """Lockstep inner solve of the rows of one CondensedOcp.

    Row j of `u` and entry j of the per-row arrays belong to row j of `ocp`.
    `warm` is the splitting state, `polished` marks the rows whose answer the
    polish gave, `active` holds each row's final active set (a mask over
    rows_C: the rows the polish held tight, or the rows with a positive
    splitting dual), `rounds` the active-set rounds each row ran and
    `iterations` the splitting iterations summed over the rows. The
    OcpSolution is assembled on first access to `solution`.
    """

    ocp: CondensedOcp
    u: np.ndarray
    warm: tuple
    agent_iterations: np.ndarray
    r_primal: np.ndarray
    r_dual: np.ndarray
    flags: list
    polished: np.ndarray
    active: np.ndarray
    rounds: np.ndarray

    @property
    def iterations(self) -> int:
        return int(self.agent_iterations.sum())

    @cached_property
    def solution(self) -> OcpSolution:
        return _solution_from(self.ocp, self.u, self.agent_iterations, self.r_primal,
                              self.r_dual, self.flags)


def solve_inner(ocp: CondensedOcp, lams, warm=None, tol: float = 1e-8,
                max_iter: int = 20000, guess=None) -> InnerResult:
    """Minimize J_j(u) + lam_j'(f_j(u) - b_share) for every row j of `ocp`.

    Row j of `lams` is row j's multiplier, `warm` the state a previous call
    returned for the same rows and row j of `guess` (a rows_C mask, as in
    InnerResult.active; by default feedback_guess, the rows that the
    saturated terminal-feedback plan reaches) row j's first guess of its
    active set. The rows run primal-dual active-set rounds: each round
    polishes every pending row on its guess and keeps the answers that pass
    the KKT test of the full problem: mu >= 0, every halfspace row feasible
    and the guessed rows tight to KKT_TOL, and the terminal ball strictly
    inactive (its multiplier is zero). A kept answer counts no iteration, its
    residuals are its largest row violation and 0, and its warm state is the
    splitting iteration's fixed point at the answer. A refused row next
    guesses the scaled rows with mu + (C_r u - b) > 0; it leaves the rounds
    when that guess equals its last one or after ACTIVE_SET_ROUNDS rounds.
    Those rows, and the rows that a row dropped by the setup makes infeasible
    (they run no round, so the splitting run flags them), are split to the
    residual max(tol, POLISH_LEVEL) and, if that converged, polished on the
    halfspace rows with a positive splitting dual. A row refused again keeps
    splitting to `tol` from the state it reached, within what is left of
    `max_iter`, and its iterations add up.
    """
    lams = np.asarray(lams, dtype=float).reshape(ocp.q.shape[0], -1)
    if lams.shape[1] != ocp.F.shape[1]:
        raise ValueError(f"lambda has dim {lams.shape[1]}, expected {ocp.F.shape[1]}")
    if np.any(lams < 0):
        raise ValueError("lambda must be componentwise nonnegative")
    g, split, pol = ocp.group, ocp.group.split, ocp.group.polish
    G = (ocp.q + (ocp.F.transpose(0, 2, 1) @ lams[:, :, None])[:, :, 0]).T
    rhs, ball_off = ocp.rows_rhs.T, ocp.ball_off.T
    (k, B), (total, nrows) = G.shape, (split.C.shape[0], split.row_scale.size)
    S, Y = (np.zeros((total, B)), np.zeros((total, B))) if warm is None else map(np.copy, warm)
    U = np.zeros((k, B))
    iters, rp, rd = np.zeros(B, dtype=int), np.zeros(B), np.zeros(B)
    flags = np.full(B, "converged", dtype=object)
    active = np.zeros((nrows, B), dtype=bool)  # over the kept rows
    polished = np.zeros(B, dtype=bool)
    rounds = np.zeros(B, dtype=int)
    # the polish's products of g alone: u0 = -H^-1 g, C_r u0 and the scaled kept rows' b
    U0, CU0 = -(pol.H_inv @ G), -(pol.CH_inv @ G)
    b = (rhs if split.zero is None else rhs[~split.zero]) * split.row_scale[:, None]

    def accept(cols, guess_cols):
        """Polish the columns `cols` on their guesses and keep the passing answers.

        Returns the mask of kept columns and every column's next guess.
        """
        U_pol, mu, slack, kkt = polish(pol, U0[:, cols], CU0[:, cols], b[:, cols], guess_cols)
        ok = kkt & (np.hypot.reduce(g.ball_C @ U_pol + ball_off[:, cols], axis=0) < g.ing.eps_r)
        j = cols[ok]
        U[:, j] = U_pol[:, ok]
        S[:, j] = split.C @ U[:, j]  # the splitting fixed point: S = C u, Y = mu / sigma
        Y[:nrows, j], Y[nrows:, j] = mu[:, ok] / split.sigma, 0.0
        rp[j], rd[j] = np.maximum(slack[:, ok].max(axis=0, initial=0.0), 0.0), 0.0
        active[:, j], polished[j] = guess_cols[:, ok], True
        return ok, mu + slack > 0.0

    guess = np.asarray(feedback_guess(ocp) if guess is None else guess, dtype=bool).T
    if split.zero is not None:
        guess = guess[~split.zero]
    dead = dead_columns(split, rhs)
    todo, left = np.flatnonzero(~dead), [np.flatnonzero(dead)]  # left: the columns to split
    guess = guess[:, todo]
    for _ in range(ACTIVE_SET_ROUNDS):
        if not todo.size:
            break
        rounds[todo] += 1
        ok, nxt = accept(todo, guess)
        moved = ~ok & (nxt != guess).any(axis=0)
        left.append(todo[~ok & ~moved])
        todo, guess = todo[moved], nxt[:, moved]
    todo = np.sort(np.concatenate(left + [todo]))
    if todo.size:
        U[:, todo], (S[:, todo], Y[:, todo]), iters[todo], rp[todo], rd[todo], flags[todo] = (
            split_iterate(split, G[:, todo], rhs[:, todo], [ball_off[:, todo]],
                          max(tol, POLISH_LEVEL), max_iter, warm=(S[:, todo], Y[:, todo])))
        active[:, todo] = Y[:nrows, todo] > 0
        todo = todo[flags[todo] == "converged"]
        ok, _ = accept(todo, active[:, todo])
        refused = todo[~ok]
        redo = refused if tol < POLISH_LEVEL else refused[:0]
        budget = max_iter - int(iters[redo].max(initial=0))
        if redo.size and budget == 0:
            flags[redo] = "iteration-cap"
        elif redo.size:
            U[:, redo], (S[:, redo], Y[:, redo]), more, rp[redo], rd[redo], flags[redo] = (
                split_iterate(split, G[:, redo], rhs[:, redo], [ball_off[:, redo]], tol, budget,
                              warm=(S[:, redo], Y[:, redo])))
            iters[redo] += more
            active[:, redo] = Y[:nrows, redo] > 0
    if split.zero is not None:
        kept, active = active, np.zeros((split.zero.size, B), dtype=bool)
        active[~split.zero] = kept
    return InnerResult(ocp=ocp, u=np.ascontiguousarray(U.T), warm=(S, Y), agent_iterations=iters,
                       r_primal=rp, r_dual=rd, flags=flags.tolist(), polished=polished,
                       active=np.ascontiguousarray(active.T), rounds=rounds)


def solve_centralized(scenario: Scenario, ingredients, tightened_list,
                      schedule: ToleranceSchedule, x0_all,
                      tol: float = 1e-8, max_iter: int = 20000):
    """Stacked solve with the coupling rows as hard constraints.

    Ground-truth oracle for the distributed path, built from the same agent
    groups; the stacked inputs run over the groups and, within each, its
    members. It splits to `tol` without the polish of solve_inner, so it
    stays an independent reference and builds no polish data for the stacked
    problem. Returns (one OcpSolution per group, total cost).
    """
    groups = agent_groups(scenario, ingredients, tightened_list)
    ocps = [condense(grp, [x0_all[i] for i in grp.index.tolist()]) for grp in groups]
    rows_of = [(ocp, j) for ocp in ocps for j in range(ocp.slots.size)]
    dims = [ocp.group.H.shape[0] for ocp, _ in rows_of]
    total_dim = sum(dims)
    starts = np.concatenate([[0], np.cumsum(dims)]).astype(int)

    H = np.zeros((total_dim, total_dim))
    g = np.zeros(total_dim)
    rows, rhs = [], []
    ball_Cs = []
    coupling_C = np.zeros((schedule.b.shape[0], total_dim))
    coupling_rhs = schedule.b.copy()
    for i, (ocp, j) in enumerate(rows_of):
        grp = ocp.group
        sl = slice(starts[i], starts[i + 1])
        H[sl, sl] = grp.H
        g[sl] = ocp.q[j]
        block = np.zeros((grp.rows_C.shape[0], total_dim))
        block[:, sl] = grp.rows_C
        rows.append(block)
        rhs.append(ocp.rows_rhs[j])
        ball_C = np.zeros((grp.ball_C.shape[0], total_dim))
        ball_C[:, sl] = grp.ball_C
        ball_Cs.append(ball_C)
        coupling_C[:, sl] = ocp.F[j]
        coupling_rhs -= ocp.f0[j]
    rows.append(coupling_C)
    rhs.append(coupling_rhs)
    rows_C = np.vstack(rows)
    del rows  # one stacked copy of the (large) halfspace block is enough
    rows_rhs = np.concatenate(rhs)

    setup = split_setup(H, rows_C, ball_Cs, [ocp.group.ing.eps_r for ocp, _ in rows_of])
    U, _, iters, rp, rd, flags = split_iterate(
        setup, g[:, None], rows_rhs[:, None], [ocp.ball_off[j][:, None] for ocp, j in rows_of],
        tol, max_iter)
    u, flag = U[:, 0], flags[0]
    if flag == "infeasible":
        viol = rows_C @ u - rows_rhs
        worst = int(np.argmax(viol))
        raise OcpInfeasibleError(
            f"stacked problem infeasible; most violated row {worst} "
            f"by {viol[worst]:.3e}")

    solutions, first = [], 0
    for ocp in ocps:
        B, k = ocp.q.shape
        solutions.append(_solution_from(ocp, u[first:first + B * k].reshape(B, k),
                                        np.full(B, iters[0]), np.full(B, rp[0]),
                                        np.full(B, rd[0]), [flag] * B))
        first += B * k
    return solutions, float(sum(J for sol in solutions for J in sol.J_star.tolist()))
