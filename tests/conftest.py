import copy
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from tube_dmpc.local_solver import agent_group, condense, rollout_maps, solve_inner
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
