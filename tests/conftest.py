import copy
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from tube_dmpc.local_solver import (ACTIVE_SET_ROUNDS, POLISH_LEVEL, agent_group,
                                    condense, dead_columns, feedback_guess, polish,
                                    rollout_maps, solve_inner, split_iterate)
from tube_dmpc.model import validate_scenario
from tube_dmpc.simulator import prepare

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def one_agent(agent, ing, tightened, Psi_x, Psi_u, N, index=0):
    """The agent group of the single agent `index` with coupling rows Psi_x, Psi_u."""
    return agent_group(agent, ing, tightened, [Psi_x], [Psi_u], N, index=[index])


def condense_reference(agent, ing, tightened, x0, N):
    """One agent's x0-dependent condensed terms at x0, in the arithmetic order of condense.

    The stacked x0 map is built from scratch, a plan step at a time, from
    rollout_maps and the tightened sets, and then applied to x0 in one
    product (a row's rounding can depend on its place in the matrix): q, the
    halfspace right-hand sides, the terminal-ball offset L'z(N) with P = L L'
    and the input-free rollout z(0..N); the constant c0 is a quadratic form.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n, k = agent.n, N * agent.m
    Phi, Gamma = rollout_maps(agent.A, agent.B, N)
    q_map, form = np.zeros((k, n)), np.zeros((n, n))
    for l in range(1, N + 1):
        W = ing.P if l == N else agent.Q
        q_map += 2.0 * Gamma[l].T @ W @ Phi[l]
        form += Phi[l].T @ W @ Phi[l]
    Z = tightened.Z[1:N]
    inputs = N * agent.U.G.shape[0]
    L = np.linalg.cholesky(ing.P)
    x0_map = np.vstack([q_map] + [-(Zl.G @ Phi[l]) for l, Zl in enumerate(Z, start=1)]
                       + [np.zeros((inputs, n)), L.T @ Phi[N], Phi.reshape(-1, n)])
    const = np.concatenate([np.zeros(k)] + [Zl.h for Zl in Z] + [agent.U.h] * N
                           + [np.zeros((N + 2) * n)])
    r = sum(Zl.h.size for Zl in Z) + inputs
    q, rows_rhs, ball_off, free = np.split(x0_map @ x0 + const, [k, k + r, k + r + n])
    return {"q": q, "c0": float(x0 @ (agent.Q + form) @ x0), "rows_rhs": rows_rhs,
            "ball_off": ball_off, "free": free.reshape(N + 1, n)}


def row(sol, j=0):
    """Row j of an OcpSolution as one agent's values."""
    return SimpleNamespace(u_star=sol.u_star[j], z_star=sol.z_star[j],
                           J_star=float(sol.J_star[j]), status=sol.status[j],
                           iterations=int(sol.iterations[j]))


def fleet_ocps(scenario, pipeline, x0=None, b_share=None):
    """One condensed problem per agent group, every agent at x0[i] (default: scenario.x0)."""
    x0 = scenario.x0 if x0 is None else x0
    return [condense(grp, [x0[i] for i in grp.index.tolist()], b_share=b_share)
            for grp in pipeline.groups]


def plan(group, x0, lam, slot=0):
    """Member `slot` of `group` solved alone at state x0 under lam: a one-row OcpSolution."""
    return solve_inner(condense(group, [x0], [slot]), [lam]).solution


def solve_one(ocp, lam):
    """Inner solve of a one-row problem (a group of one): its row's solution."""
    return row(solve_inner(ocp, [lam]).solution)


def reference_solve(ocp, lams, guess=None, tol=1e-8, max_iter=20000) -> dict:
    """solve_inner's answers and carried fields, computed the straightforward way.

    Each round gathers its pending columns and scatters the kept answers
    into zero-filled outputs; a column still refused after ACTIVE_SET_ROUNDS
    rounds from a nonempty first guess moves to the empty guess and runs
    that many rounds again; the columns left split and are polished again.
    The carried fields are recomputed from the answers by the CondensedOcp
    methods: the status from `feasible` (rows_C u - rhs and the
    terminal-ball norm), the trajectory (the free rollout plus Gamma u), the
    cost (0.5 u'Hu + q'u + c0) and the coupling values (f0 + F u). Returns
    one array or tuple per field.
    """
    g, split, pol = ocp.group, ocp.group.split, ocp.group.polish
    lams = np.asarray(lams, dtype=float).reshape(ocp.q.shape[0], -1)
    G = (ocp.q + (ocp.F.transpose(0, 2, 1) @ lams[:, :, None])[:, :, 0]).T
    rhs, ball_off = ocp.rows_rhs.T, ocp.ball_off.T
    (k, B), nrows, total = G.shape, split.row_scale.size, split.C.shape[0]
    U, S, Y = np.zeros((k, B)), np.zeros((total, B)), np.zeros((total, B))
    iters, flags = np.zeros(B, dtype=int), np.full(B, "converged", dtype=object)
    active, polished = np.zeros((nrows, B), dtype=bool), np.zeros(B, dtype=bool)
    rounds = np.zeros(B, dtype=int)
    U0, CU0 = -(pol.H_inv @ G), -(pol.CH_inv @ G)
    b = (rhs if split.zero is None else rhs[~split.zero]) * split.row_scale[:, None]

    def accept(cols, guess_cols):
        U_pol, mu, slack, kkt = polish(pol, U0[:, cols], CU0[:, cols], b[:, cols], guess_cols)
        ok = kkt & (np.hypot.reduce(g.ball_C @ U_pol + ball_off[:, cols], axis=0) < g.ing.eps_r)
        j = cols[ok]
        U[:, j], active[:, j], polished[j] = U_pol[:, ok], guess_cols[:, ok], True
        return ok, mu + slack > 0.0

    def rounds_from(todo, guess):
        """(columns left on an unchanged guess, refused in the last round, their guesses)."""
        left = []
        for r in range(ACTIVE_SET_ROUNDS):
            if not todo.size:
                break
            rounds[todo] += 1
            ok, nxt = accept(todo, guess)
            if r == ACTIVE_SET_ROUNDS - 1:
                return left, todo[~ok], guess[:, ~ok]
            moved = ~ok & (nxt != guess).any(axis=0)
            left.append(todo[~ok & ~moved])
            todo, guess = todo[moved], nxt[:, moved]
        return left, todo, guess

    start = np.array(feedback_guess(ocp) if guess is None else guess, dtype=bool).T
    if split.zero is not None:
        start = start[~split.zero]
    dead = dead_columns(split, rhs)
    left, cycled, last = rounds_from(np.flatnonzero(~dead), start[:, ~dead])
    again = start[:, cycled].any(axis=0) & last.any(axis=0)
    more, recycled, _ = rounds_from(cycled[again],
                                    np.zeros((nrows, int(again.sum())), dtype=bool))
    todo = np.sort(np.concatenate([np.flatnonzero(dead), *left, cycled[~again], *more,
                                   recycled]).astype(int))
    if todo.size:
        U[:, todo], (S[:, todo], Y[:, todo]), iters[todo], _, _, flags[todo] = split_iterate(
            split, G[:, todo], rhs[:, todo], [ball_off[:, todo]], max(tol, POLISH_LEVEL),
            max_iter)
        active[:, todo] = Y[:nrows, todo] > 0
        todo = todo[flags[todo] == "converged"]
        ok, _ = accept(todo, active[:, todo])
        redo = todo[~ok] if tol < POLISH_LEVEL else todo[:0]
        budget = max_iter - int(iters[redo].max(initial=0))
        if redo.size and budget == 0:
            flags[redo] = "iteration-cap"
        elif redo.size:
            U[:, redo], (S[:, redo], Y[:, redo]), extra, _, _, flags[redo] = split_iterate(
                split, G[:, redo], rhs[:, redo], [ball_off[:, redo]], tol, budget,
                warm=(S[:, redo], Y[:, redo]))
            iters[redo] += extra
            active[:, redo] = Y[:nrows, redo] > 0
    if split.zero is not None:
        kept, active = active, np.zeros((split.zero.size, B), dtype=bool)
        active[~split.zero] = kept

    u = np.ascontiguousarray(U.T)
    feasible = ocp.feasible(u)
    status = np.where((flags == "converged") & feasible, "optimal",
                      np.where((flags == "infeasible") & ~feasible, "infeasible", "iteration-cap"))
    return {"u": u, "status": tuple(status.tolist()), "cost": ocp.cost(u),
            "trajectory": ocp.trajectory(u), "coupling": ocp.coupling_values(u),
            "active": active.T, "rounds": rounds, "flags": flags.tolist()}


def coupling_terms(agent, Psi_x, Psi_u, x0, u):
    """Reference coupling values over the horizon by direct nominal simulation.

    Block l is Psi_x z(l) + Psi_u u(l) with z the disturbance-free rollout
    from x0 under the stacked input sequence u.
    """
    u = np.asarray(u, dtype=float).ravel()
    m = agent.m
    z = np.asarray(x0, dtype=float).ravel()
    blocks = []
    for l in range(u.size // m):
        ul = u[l * m:(l + 1) * m]
        blocks.append(Psi_x @ z + Psi_u @ ul)
        z = agent.A @ z + agent.B @ ul
    return np.concatenate(blocks)


def w_bar_scaled(scenario, factor):
    """The scenario with every disturbance bound (ball radius and box) scaled by factor."""
    agents = tuple(replace(a, w_bar=a.w_bar * factor,
                           box_half_widths=None if a.box_half_widths is None
                           else a.box_half_widths * factor)
                   for a in scenario.agents)
    return replace(scenario, agents=agents)


def load_raw(name):
    with open(SCENARIO_DIR / name) as fh:
        return yaml.safe_load(fh)


@pytest.fixture(scope="session")
def default_raw():
    return load_raw("four_agent.yaml")


@pytest.fixture(scope="session")
def default_scenario(default_raw):
    return validate_scenario(copy.deepcopy(default_raw))


@pytest.fixture(scope="session")
def default_pipeline(default_scenario):
    return prepare(default_scenario)


@pytest.fixture(scope="session")
def nominal_scenario(default_raw):
    """Default scenario with the disturbance switched off."""
    raw = copy.deepcopy(default_raw)
    for node in raw["agents"]:
        node["disturbance"] = {"w_bar": 0.0}
    return validate_scenario(raw)


def slow_raw(x0s=(-0.95, -0.9), u_max=0.35, w_hw=0.12, t_run=25, seed=0):
    """Scalar two-agent scenario whose runs produce consecutive solve instants."""
    agents = [{"A": [[1.05]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
               "state_set": {"box": [10.0]}, "input_set": {"box": [u_max]},
               "disturbance": {"box": [w_hw]}, "x0": [x0]} for x0 in x0s]
    return {"name": "slow", "horizon": 5, "t_run": t_run, "seed": seed,
            "agents": agents,
            "coupling": {"absolute": True,
                         "psi_x": [[[0.02]]] * len(x0s),
                         "psi_u": [[[0.1]]] * len(x0s),
                         "rhs": [1.0]}}


@pytest.fixture(scope="session")
def slow_scenario():
    return validate_scenario(slow_raw())
