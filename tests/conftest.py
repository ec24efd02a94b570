import copy
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import settings

from tube_dmpc.local_solver import (ACTIVE_SET_ROUNDS, KKT_TOL, SPLIT_MAX_ITER, SPLIT_TOL,
                                    agent_group, condense, dead_columns, feedback_guess, polish,
                                    rollout_maps, solve_inner, split_iterate)
from tube_dmpc.model import validate_scenario
from tube_dmpc.simulator import prepare

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# the default settings, but a failing example (one replayed from the example database too)
# also prints a @reproduce_failure blob that rebuilds it exactly
settings.register_profile("reproducible", print_blob=True)
settings.load_profile("reproducible")


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


def reference_solve(ocp, lams, guess=None) -> dict:
    """solve_inner's answers and carried fields, computed the straightforward way.

    Each round always passes the polish a ball guess and scatters the kept
    answers into zero-filled outputs; round 1 takes every column at once, as
    solve_inner's does (a one-column batch can round differently), and every
    later round gathers its pending columns. Every column first guesses the
    terminal ball inactive; a column still refused after ACTIVE_SET_ROUNDS
    rounds from a nonempty first guess moves to the empty guess (ball
    inactive) and runs that many rounds again; the columns left split from
    zero to SPLIT_TOL and are polished once more on the splitting's support.
    The carried fields are recomputed from the answers by the CondensedOcp
    methods: the status from `feasible` (rows_C u - rhs and the terminal-ball
    norm), the trajectory (the free rollout plus Gamma u), the cost (0.5 u'Hu
    + q'u + c0) and the coupling values (f0 + F u). Returns one array or
    tuple per field.
    """
    g, split, pol, eps = ocp.group, ocp.group.split, ocp.group.polish, ocp.group.ing.eps_r
    lams = np.asarray(lams, dtype=float).reshape(ocp.q.shape[0], -1)
    G = (ocp.q + (ocp.F.transpose(0, 2, 1) @ lams[:, :, None])[:, :, 0]).T
    rhs, ball_off = ocp.rows_rhs.T, ocp.ball_off.T
    (k, B), nrows = G.shape, split.row_scale.size
    U, iters = np.zeros((k, B)), np.zeros(B, dtype=int)
    flags = np.full(B, "converged", dtype=object)
    active, polished = np.zeros((nrows, B), dtype=bool), np.zeros(B, dtype=bool)
    rounds = np.zeros(B, dtype=int)
    U0, CU0 = -(pol.H_inv @ G), -(pol.CH_inv @ G)
    b = (rhs if split.zero is None else rhs[~split.zero]) * split.row_scale[:, None]

    def accept(cols, guess_cols, on):
        Y0 = g.ball_C @ U0[:, cols] + ball_off[:, cols]
        U_pol, mu, slack, nu, kkt = polish(pol, U0[:, cols], CU0[:, cols], b[:, cols],
                                           guess_cols, on, Y0, eps)
        ball = np.hypot.reduce(g.ball_C @ U_pol + ball_off[:, cols], axis=0) - eps
        tight = (nu >= 0.0) & (np.abs(ball) <= KKT_TOL * max(1.0, eps))
        ok = kkt & np.where(on, tight, ball < 0.0) & ~dead[cols]
        j = cols[ok]
        U[:, j], active[:, j], polished[j] = U_pol[:, ok], guess_cols[:, ok], True
        return ok, mu + slack > 0.0, nu + ball > 0.0

    def rounds_from(todo, guess, on, budget):
        """(columns left on an unchanged guess, refused in the last round, their guesses)."""
        left = []
        for r in range(budget):
            if not todo.size:
                break
            rounds[todo] += 1
            ok, nxt, nxt_on = accept(todo, guess, on)
            if r == budget - 1:
                return left, todo[~ok], guess[:, ~ok], on[~ok]
            moved = ~ok & ((nxt != guess).any(axis=0) | (nxt_on != on))
            left.append(todo[~ok & ~moved])
            todo, guess, on = todo[moved], nxt[:, moved], nxt_on[moved]
        return left, todo, guess, on

    start = np.array(feedback_guess(ocp) if guess is None else guess, dtype=bool).T
    if split.zero is not None:
        start = start[~split.zero]
    # a column that a dropped row makes infeasible guesses no row in round 1, is never kept
    # and runs no other round
    dead = dead_columns(split, rhs)
    start[:, dead], rounds[~dead] = False, 1
    ok, nxt, nxt_on = accept(np.arange(B), start, np.zeros(B, dtype=bool))
    todo = np.flatnonzero(~ok & ~dead)
    moved = (nxt[:, todo] != start[:, todo]).any(axis=0) | nxt_on[todo]
    left, cycled, last, last_on = rounds_from(todo[moved], nxt[:, todo[moved]],
                                              nxt_on[todo[moved]], ACTIVE_SET_ROUNDS - 1)
    again = start[:, cycled].any(axis=0) & (last.any(axis=0) | last_on)
    more, recycled, _, _ = rounds_from(cycled[again],
                                       np.zeros((nrows, int(again.sum())), dtype=bool),
                                       np.zeros(int(again.sum()), dtype=bool), ACTIVE_SET_ROUNDS)
    todo = np.sort(np.concatenate([np.flatnonzero(dead), todo[~moved], *left, cycled[~again],
                                   *more, recycled]).astype(int))
    if todo.size:
        U[:, todo], Y, iters[todo], flags[todo] = split_iterate(
            split, G[:, todo], rhs[:, todo], [ball_off[:, todo]], SPLIT_TOL, SPLIT_MAX_ITER)
        active[:, todo] = Y[:nrows] > 0
        conv = flags[todo] == "converged"
        accept(todo[conv], active[:, todo[conv]], (Y[nrows:, conv] != 0.0).any(axis=0))
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


def binding_raw():
    """A binding instance (instance A): four copies of the default agent with R = 30 and a
    0.02 disturbance box, under one relative row psi_x = (-0.7354, 0.6776), psi_u =
    0.8952, rhs 21.61, whose dual optimum is about 1,499 in block 0."""
    raw = load_raw("four_agent.yaml")
    x0s = [[-5.7069, 1.7742], [-0.9765, -1.4787], [-7.4991, 2.5735], [-7.3273, 2.1779]]
    raw["agents"] = [dict(raw["agents"][0], R=[[30.0]], disturbance={"box": [0.02, 0.02]},
                          x0=x0) for x0 in x0s]
    raw["coupling"] = {"absolute": False, "psi_x": [[[-0.7354, 0.6776]]] * 4,
                       "psi_u": [[[0.8952]]] * 4, "rhs": [21.61]}
    return raw


@pytest.fixture(scope="session")
def default_raw():
    return load_raw("four_agent.yaml")


@pytest.fixture(scope="session")
def default_scenario(default_raw):
    return validate_scenario(copy.deepcopy(default_raw))


@pytest.fixture(scope="session")
def default_pipeline(default_scenario):
    return prepare(default_scenario)


@pytest.fixture
def fresh_pipeline(default_scenario):
    """The default scenario's pipeline for one test alone: no earlier run filled its replay
    slot, so its first run solves t = 0 and a solver patched by the test stores nothing
    that other tests replay."""
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
