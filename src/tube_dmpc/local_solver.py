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
NEWTON_STEPS = 20  # Newton steps on the terminal ball's multiplier per polish
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


def read_only(obj):
    """Clear the write flag of every array field of a dataclass (tuples and lists included)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        for arr in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class SplitSetup:
    """State-independent part of the splitting QP: scaled constraints, step, inverse.

    Rows of the halfspace block are scaled to unit norm; rows normed below
    SCALE_FLOOR (all-zero rows included) are dropped through `zero`. Each
    ball block is scaled by 1/||C_ball||_2, or left unscaled where that norm
    is below sqrt(SCALE_FLOOR) and its scaled offsets could overflow. `balls`
    holds one entry per run of consecutive ball blocks of equal size, so that
    one array expression projects them all: (rows, scales, scaled radii).
    With K = H + sigma C'C, `solve_map` is K^-1 and `step_map` is sigma K^-1 C'.
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
        beta = np.array([1.0 / b if b >= np.sqrt(SCALE_FLOOR) else 1.0
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
    read_only(setup)
    return setup


def dead_columns(setup: SplitSetup, rows_rhs) -> np.ndarray:
    """Mask of the columns of rows_rhs (r, B) that a row dropped by the setup makes infeasible."""
    if setup.zero is None:
        return np.zeros(rows_rhs.shape[1], dtype=bool)
    return (rows_rhs[setup.zero] < 0).any(axis=0)


def split_iterate(setup: SplitSetup, G, rows_rhs, ball_offsets, tol, max_iter):
    """ADMM splitting for min 0.5u'Hu + g'u s.t. rows and ball blocks, one problem per column.

    H and the constraint matrices are fixed by `setup`; column j of G (k, B),
    of rows_rhs (r, B) and of each ball's offset block (nb, B) is problem j's
    linear term, halfspace right-hand sides and ball offset. Every problem
    starts from zero. One batched iteration advances every problem still in
    the working set; a problem leaves it at its own convergence, stall or
    iteration-cap test, and no column reads another's data. Batched and
    single-column BLAS calls round differently, so a column follows the
    iterates it would follow alone up to rounding. Where its iterates are so
    large that their rounding approaches `tol` (iterates near 1e8 at tol
    1e-8), that rounding decides its residual tests, and it can stop at
    another iteration than alone. Returns (U, Y, iterations, flags) per
    column: Y (total, B) is the scaled splitting dual (positive on a clipped
    row, nonzero on a clipped ball block), flags are in {converged,
    iteration-cap, infeasible}. A row dropped by the setup is ignored when
    its rhs is >= 0 and makes the problem infeasible when its rhs is < 0.
    """
    C, sigma, step_map = setup.C, setup.sigma, setup.step_map
    CT = C.T
    (k, B), total = G.shape, C.shape[0]
    U_out, Y_out = np.zeros((k, B)), np.zeros((total, B))
    iterations, flags = np.zeros(B, dtype=int), np.full(B, "iteration-cap", dtype=object)

    cols = np.arange(B)  # the working set
    if setup.zero is not None:
        dead = dead_columns(setup, rows_rhs)
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
    S, Y = np.zeros((total, cols.size)), np.zeros((total, cols.size))
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
        U_out[:, j], Y_out[:, j], iterations[j] = U[:, done], Y[:, done], it
        flags[j] = np.where(converged[done], "converged",
                            np.where(stalled[done], "infeasible", "iteration-cap"))
        keep = ~done
        if not keep.any():
            break
        cols, KG, upper, S, Y = cols[keep], KG[:, keep], upper[:, keep], S[:, keep], Y[:, keep]
        last_ok = last_ok[keep]
        balls = [(sl, off_s[:, :, keep], *radii) for sl, off_s, *radii in balls]
    return U_out, Y_out, iterations, flags.tolist()


@dataclass(frozen=True, eq=False)
class PolishSetup:
    """State-independent part of the active-set polish of one split setup's problems.

    Over the scaled halfspace rows C_r of the setup (its dropped rows left
    out): `H_inv` = H^-1, `CH_inv` = C_r H^-1 and `schur` = C_r H^-1 C_r'.
    Over the terminal ball's rows C_b, in the eigenbasis V of D = C_b H^-1
    C_b' (D = V diag(`ball_eig`) V'): `ball_V` = V, `ball_H_inv` = V'C_b H^-1
    and `ball_E` = C_r H^-1 C_b' V.
    """

    H_inv: np.ndarray
    CH_inv: np.ndarray
    schur: np.ndarray
    ball_V: np.ndarray
    ball_eig: np.ndarray
    ball_H_inv: np.ndarray
    ball_E: np.ndarray


def polish_setup(H, split: SplitSetup, ball_C) -> PolishSetup:
    C_r = split.C[:split.row_scale.size]
    H_inv = np.linalg.inv(H)
    CH_inv, CbH_inv = C_r @ H_inv, ball_C @ H_inv
    eig, V = np.linalg.eigh(CbH_inv @ ball_C.T)
    ball_H_inv = V.T @ CbH_inv
    setup = PolishSetup(H_inv=H_inv, CH_inv=CH_inv, schur=CH_inv @ C_r.T, ball_V=V,
                        ball_eig=np.maximum(eig, 0.0), ball_H_inv=ball_H_inv,
                        ball_E=C_r @ ball_H_inv.T)
    read_only(setup)
    return setup


def _masked_cg(pol: PolishSetup, active, res, w=None):
    """mu = 0 off the mask A = `active` with (T mu)_A = res_A, by conjugate gradients per column.

    T = C_r (H + nu C_b'C_b)^-1 C_r' = schur - ball_E diag(w) ball_E', w = nu / (1 + nu ball_eig)
    (Woodbury; `schur` where w is None). min(|A|, k) >= rank(T_A) steps, +1 for rounding.
    """
    # F order (a gathered batch's) whatever the inputs' layout: the CG's products then round
    # the same for a column of a whole batch and of a gathered one
    res = np.asfortranarray(res)
    mu, p = np.zeros_like(res), res.copy()
    rr = np.vecdot(res, res, axis=0)
    for _ in range(int(np.minimum(active.sum(axis=0), pol.H_inv.shape[0]).max()) + 1):
        Sp = pol.schur @ p
        if w is not None:
            Sp -= pol.ball_E @ (w * (pol.ball_E.T @ p))
        Sp *= active
        pSp = np.vecdot(p, Sp, axis=0)
        alpha = np.divide(rr, pSp, out=np.zeros_like(rr), where=pSp > 0)
        mu += alpha * p
        res -= alpha * Sp
        rr_new = np.vecdot(res, res, axis=0)
        p = res + np.divide(rr_new, rr, out=np.zeros_like(rr), where=rr > 0) * p
        rr = rr_new
    return mu


def polish(pol: PolishSetup, U0, CU0, b, active, on=None, Y0=None, radius=None):
    """Exact minimizers on guessed active sets of halfspace rows and of the terminal ball.

    Column j of U0 = -H^-1 g, CU0 = C_r U0, b (the scaled kept rows' right-hand
    sides), `active` (a mask over those rows) and Y0 = C_b U0 + off belongs to
    problem j. The guessed rows are held as equalities, and where `on` is set
    so is ||y|| = radius, y = C_b u + off. At a ball multiplier nu, with M =
    (I + nu D)^-1, D = C_b H^-1 C_b' and E = C_r H^-1 C_b', _masked_cg gives
    mu from (CU0 - b - nu E M Y0)_A; then y = M (Y0 - E'mu) and u = u0 - H^-1
    (C_r'mu + nu C_b'y). Off the ball nu = 0. On it, Newton's method on the
    concave 1/||y(nu)|| = 1/radius from 0, clamped at 0 (Moré & Sorensen
    1983), stops once a step does not raise nu or after NEWTON_STEPS steps.
    Returns (U, mu, slack = C_r u - b, nu, kkt): kkt is mu >= 0, every row
    holding and every guessed row tight, each to KKT_TOL max(1, |b|) (the
    ball's test is the caller's). With nothing guessed no CG step runs: mu =
    0, U is U0 itself and slack = CU0 - b. A column whose guessed rows are
    (nearly) dependent and inconsistent has a singular masked system on which
    CG diverges; where its values overflow, it is refused as if it guessed
    nothing: mu = 0, nu = 0, U = U0 and slack = CU0 - b.
    """
    tol = KKT_TOL * np.maximum(1.0, np.abs(b))
    nu = np.zeros(U0.shape[1])
    ball = on is not None and on.any()
    if not (ball or active.any()):
        slack = CU0 - b
        return U0, np.zeros_like(slack), slack, nu, (slack <= tol).all(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        if not ball:
            mu = _masked_cg(pol, active, np.where(active, CU0 - b, 0.0))
            U, slack = U0 - pol.CH_inv.T @ mu, CU0 - pol.schur @ mu - b
        else:  # the ball's terms in D's eigenbasis, where M is diagonal
            E, eig, y0, done = pol.ball_E, pol.ball_eig[:, None], pol.ball_V.T @ Y0, ~on
            for step in range(NEWTON_STEPS + 1):
                M = 1.0 / (1.0 + nu * eig)
                mu = _masked_cg(pol, active, np.where(active, CU0 - b - E @ (nu * M * y0), 0.0),
                                nu * M)
                y = M * (y0 - E.T @ mu)
                if done.all() or step == NEWTON_STEPS:
                    break
                norm = np.sqrt(np.vecdot(y, y, axis=0))
                # on the guessed rows T d mu = -E M y, and dy = -M (D y + E' d mu)
                dmu = _masked_cg(pol, active, np.where(active, -(E @ (M * y)), 0.0), nu * M)
                slope = np.vecdot(y, -M * (eig * y + E.T @ dmu), axis=0)  # ||y|| d||y||/d nu
                # the Newton step on 1/||y|| - 1/radius raises nu left of its root; a step that
                # does not has converged, is clamped at 0 (an inactive ball) or cannot move it
                nxt = np.maximum(nu + np.divide(norm * norm * (radius - norm), radius * slope,
                                                out=np.zeros_like(nu), where=~done & (slope < 0)),
                                 0.0)
                done |= nxt <= nu
                nu = nxt
            U = U0 - pol.CH_inv.T @ mu - pol.ball_H_inv.T @ (nu * y)
            slack = CU0 - pol.schur @ mu - E @ (nu * y) - b
    lost = ~(np.isfinite(mu) & np.isfinite(slack)).all(axis=0) | ~np.isfinite(U).all(axis=0)
    if lost.any():
        mu[:, lost], U[:, lost], slack[:, lost] = 0.0, U0[:, lost], CU0[:, lost] - b[:, lost]
        nu[lost] = 0.0
    kkt = ((mu >= 0.0) & (slack <= tol) & (~active | (slack >= -tol))).all(axis=0)
    return U, mu, slack, nu, kkt & ~lost


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
        split=split, polish=polish_setup(H, split, ball_C))
    read_only(group)
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
    e = k + r + g.ball_C.shape[0]
    terms = (g.x0_map @ col)[..., 0] + g.x0_const
    q, rows_rhs, ball_off, free = terms[:, :k], terms[:, k:k + r], terms[:, k + r:e], terms[:, e:]
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


def _status(flags, feasible) -> tuple:
    """Per row: optimal where its run converged to a feasible answer, infeasible where it
    was flagged infeasible and its answer is infeasible, iteration-cap otherwise."""
    return tuple("optimal" if flag == "converged" and ok
                 else "infeasible" if flag == "infeasible" and not ok else "iteration-cap"
                 for flag, ok in zip(flags, feasible))


@dataclass(frozen=True, eq=False)
class InnerResult:
    """Lockstep inner solve of the rows of one CondensedOcp.

    Row j of `u`, column j of `slack` and entry j of the other per-row fields
    belong to row j of `ocp`. `polished` marks the rows whose answer the
    polish gave, with their slacks of the scaled halfspace rows in `slack`
    and their terminal-ball slack ||C_b u + off|| - eps_r in `ball`. `active`
    holds each row's final active set (a mask over rows_C: the rows the
    polish held tight, or the rows with a positive splitting dual), `rounds`
    the active-set rounds each row ran and `iterations` the splitting
    iterations summed over the rows. The statuses, the coupling values and
    the OcpSolution (trajectories and costs) are computed on first access.
    """

    ocp: CondensedOcp
    u: np.ndarray
    slack: np.ndarray
    ball: np.ndarray
    agent_iterations: np.ndarray
    flags: list
    polished: np.ndarray
    active: np.ndarray
    rounds: np.ndarray

    @property
    def iterations(self) -> int:
        return int(self.agent_iterations.sum())

    @cached_property
    def status(self) -> tuple:
        """Each row's OcpSolution status: a polished row's feasibility from its scaled slacks
        over the row scales and its ball slack, a split row's from rows_C u and the ball norm."""
        scale = self.ocp.group.split.row_scale[:, None]
        feasible = (((self.slack / scale).max(axis=0, initial=-np.inf) <= FEAS_TOL)
                    & (self.ball <= FEAS_TOL))
        if not all(self.polished.tolist()):  # Python all beats ndarray.all over a few rows
            feasible = np.where(self.polished, feasible, self.ocp.feasible(self.u))
        return _status(self.flags, feasible.tolist())

    @cached_property
    def coupling(self) -> np.ndarray:
        """The coupling values f_j(u_j), one row per row of `ocp`."""
        return self.ocp.coupling_values(self.u)

    @cached_property
    def solution(self) -> OcpSolution:
        return OcpSolution(u_star=self.u, z_star=self.ocp.trajectory(self.u),
                           J_star=self.ocp.cost(self.u), status=self.status,
                           iterations=self.agent_iterations)


def solve_inner(ocp: CondensedOcp, lams, tol: float = 1e-8, max_iter: int = 20000,
                guess=None) -> InnerResult:
    """Minimize J_j(u) + lam_j'(f_j(u) - b_share) for every row j of `ocp`.

    Row j of `lams` is row j's multiplier and row j of `guess` (a rows_C
    mask, as in InnerResult.active; by default feedback_guess) its first
    guess of the active rows; every row first guesses the terminal ball
    inactive. The rows run primal-dual active-set rounds (Hintermüller, Ito
    & Kunisch 2002): each round polishes every pending row on its guess and
    keeps the answers that pass the KKT test: the polish's, and the ball
    strictly inactive or, where guessed active, nu >= 0 and its norm within
    KKT_TOL max(1, eps_r) of eps_r. The first round takes every row on whole
    arrays. A kept answer counts no iteration. A refused row next guesses the
    rows with mu + (C_r u - b) > 0 and the ball if nu + (||C_b u + off|| -
    eps_r) > 0, and leaves the rounds when that guess equals its last one or
    after ACTIVE_SET_ROUNDS rounds. A row still refused then, from a nonempty
    first guess (its rounds cycled), runs them once more from the empty
    guess. The rows left, and those that a row dropped by the setup makes
    infeasible, are split from zero to `tol` within `max_iter` iterations
    and, where that converged, polished once more on the splitting's support.
    """
    lams = np.asarray(lams, dtype=float).reshape(ocp.q.shape[0], -1)
    if lams.shape[1] != ocp.F.shape[1]:
        raise ValueError(f"lambda has dim {lams.shape[1]}, expected {ocp.F.shape[1]}")
    if (lams < 0).any():
        raise ValueError("lambda must be componentwise nonnegative")
    g, split, pol = ocp.group, ocp.group.split, ocp.group.polish
    G = (ocp.q + (ocp.F.transpose(0, 2, 1) @ lams[:, :, None])[:, :, 0]).T
    rhs, ball_off, eps = ocp.rows_rhs.T, ocp.ball_off.T, g.ing.eps_r
    B, nrows = G.shape[1], split.row_scale.size
    # the polish's products of g alone: u0 = -H^-1 g, C_r u0 and the scaled kept rows' b
    U0, CU0 = -(pol.H_inv @ G), -(pol.CH_inv @ G)
    b = (rhs if split.zero is None else rhs[~split.zero]) * split.row_scale[:, None]

    def polish_round(cols, guess, on=None):
        """(U, mu, slack, nu, ball slack, kept mask) of `cols` on `guess`, ball tight at `on`."""
        U0_r, off = U0[:, cols], ball_off[:, cols]
        U_r, mu_r, slack_r, nu_r, kkt = polish(pol, U0_r, CU0[:, cols], b[:, cols], guess, on,
                                               None if on is None else g.ball_C @ U0_r + off, eps)
        ball = np.hypot.reduce(g.ball_C @ U_r + off, axis=0) - eps
        ok = ball < 0.0 if on is None else np.where(
            on, (nu_r >= 0.0) & (np.abs(ball) <= KKT_TOL * max(1.0, eps)), ball < 0.0)
        return U_r, mu_r, slack_r, nu_r, ball, kkt & ok

    def accept(cols, guess):
        """Keep what passes of `cols` on `guess` (kept rows, then the ball): (kept, next)."""
        U_r, mu_r, slack_r, nu_r, ball_r, ok = polish_round(cols, guess[:-1], guess[-1])
        j = cols[ok]
        U[:, j], slack[:, j], ball[j] = U_r[:, ok], slack_r[:, ok], ball_r[ok]
        active[:, j], polished[j] = guess[:-1, ok], True
        return ok, np.vstack((mu_r + slack_r > 0.0, nu_r + ball_r > 0.0))

    def rounds_of(todo, guess, nxt, budget):
        """At most `budget` more rounds of `todo`, refused on `guess`, next guessing `nxt`.

        Returns the columns that stop on an unchanged guess, those still refused
        after the last round and the guesses these were refused on.
        """
        stuck = []
        for _ in range(budget):
            moved = (nxt != guess).any(axis=0)
            stuck.append(todo[~moved])
            todo, guess = todo[moved], nxt[:, moved]
            if not todo.size:
                break
            rounds[todo] += 1
            ok, nxt = accept(todo, guess)
            todo, guess, nxt = todo[~ok], guess[:, ~ok], nxt[:, ~ok]
        return stuck, todo, guess

    active = np.array(feedback_guess(ocp) if guess is None else guess, dtype=bool).T
    rounds, left = np.ones(B, dtype=int), []  # left: the columns to split
    if split.zero is not None:
        # a column that a dropped row makes infeasible runs no round; it guesses no row, so
        # that it adds no CG step to the others' first round
        active, dead = active[~split.zero], dead_columns(split, rhs)
        active[:, dead], rounds[dead] = False, 0
        left.append(np.flatnonzero(dead))
    # round 1 polishes every column on whole arrays, with the ball guessed inactive and no
    # gather or scatter: its answers start the outputs, and a refused column keeps its first
    # guess in `active` until a later round or its splitting run replaces its entries
    U, mu, slack, _, ball, polished = polish_round(slice(None), active)
    if split.zero is not None:
        polished &= ~dead
    if not polished.all():
        todo = np.flatnonzero(~polished & (rounds > 0))
        first = np.vstack((active[:, todo], np.zeros((1, todo.size), dtype=bool)))
        stuck, cycled, last = rounds_of(
            todo, first, np.vstack((mu[:, todo] + slack[:, todo] > 0.0, ball[todo] > 0.0)),
            ACTIVE_SET_ROUNDS - 1)
        again = active[:, cycled].any(axis=0)  # a nonempty first guess
        restuck, recycled, _ = rounds_of(cycled[again], last[:, again],
                                         np.zeros_like(last[:, again]), ACTIVE_SET_ROUNDS)
        left += stuck + restuck + [cycled[~again], recycled]

    iters, flags = np.zeros(B, dtype=int), ["converged"] * B
    todo = np.sort(np.concatenate(left)) if left else np.zeros(0, dtype=int)
    if todo.size:
        U, flags = U.copy(), np.array(flags, dtype=object)  # U may be U0, which accept reads
        U[:, todo], Y, iters[todo], flags[todo] = split_iterate(
            split, G[:, todo], rhs[:, todo], [ball_off[:, todo]], tol, max_iter)
        active[:, todo] = Y[:nrows] > 0
        conv = flags[todo] == "converged"
        accept(todo[conv], np.vstack((Y[:nrows, conv] > 0, (Y[nrows:, conv] != 0.0).any(axis=0))))
        flags = flags.tolist()
    if split.zero is not None:
        kept, active = active, np.zeros((split.zero.size, B), dtype=bool)
        active[~split.zero] = kept
    return InnerResult(ocp=ocp, u=np.ascontiguousarray(U.T), slack=slack, ball=ball,
                       agent_iterations=iters, flags=flags, polished=polished,
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
    U, _, iters, flags = split_iterate(
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
        U = u[first:first + B * k].reshape(B, k)
        solutions.append(OcpSolution(u_star=U, z_star=ocp.trajectory(U), J_star=ocp.cost(U),
                                     status=_status([flag] * B, ocp.feasible(U).tolist()),
                                     iterations=np.full(B, iters[0])))
        first += B * k
    return solutions, float(sum(J for sol in solutions for J in sol.J_star.tolist()))
