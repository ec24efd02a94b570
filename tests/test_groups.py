"""Agent groups: the stacked group arithmetic against a per-agent reference.

The references below are the per-agent forms that the group expressions
replace, kept here as the oracle: condensing one agent at one state, its
nominal trajectory and cost, its coupling maps, and its trigger bound g(M)
with the stage costs of its plan. Random fleets draw their agents from a few
models of one shape in interleaved order; a random subset of agents solves.
Every group quantity must equal its reference bit for bit. Quadratic forms
go through `trigger.quad_form`, whose value for a row does not depend on the
other rows (an einsum over the rows does not have that property).
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tube_dmpc.local_solver import agent_groups, condense, group_members, rollout_maps
from tube_dmpc.model import AgentModel, CouplingSpec, HPolytope, Scenario
from tube_dmpc.synthesis import TerminalIngredients
from tube_dmpc.tightening import tighten_local_sets
from tube_dmpc.trigger import _deviation_bound, quad_form, g_profile, stage_costs


def reference_condense(group, j, x0):
    """Member j's condensed OCP terms at x0, one agent at a time."""
    N = len(group.W)
    free = [Phi_l @ x0 for Phi_l in group.Phi]
    q = np.zeros(group.H.shape[0])
    c0 = float(x0 @ group.agent.Q @ x0)
    for l in range(1, N + 1):
        q += group.q_maps[l - 1] @ free[l]
        c0 += float(x0 @ group.Phi[l].T @ group.W[l - 1] @ group.Phi[l] @ x0)
    rows_rhs = np.concatenate([h - G @ free[l]
                               for l, G, h in zip(range(1, N), group.rhs_G, group.rhs_h)]
                              + [group.rhs_U])
    return {"q": q, "c0": c0, "rows_rhs": rows_rhs, "ball_off": group.ball_map @ free[N],
            "f0": group.f0_map[j] @ x0}


def reference_maps(agent, ing, Px, Pu, H, N):
    """One agent's coupling map F, its x0 part, terminal-feedback map and dual curvature."""
    n, m, p = agent.n, agent.m, Px.shape[0]
    Phi, Gamma = rollout_maps(agent.A, agent.B, N)
    Phi_K, _ = rollout_maps(agent.A + agent.B @ ing.K, agent.B, N)
    F = (Px @ Gamma[:N]).reshape(N * p, N * m) + np.kron(np.eye(N), Pu)
    return {"F": F, "f0_map": (Px @ Phi[:N]).reshape(N * p, n),
            "feedback_coupling": ((Px + Pu @ ing.K) @ Phi_K[:N]).reshape(N * p, n),
            "dual_curvature": float(np.linalg.norm(F @ np.linalg.solve(H, F.T), 2))}


def reference_g_profile(agent, ing, z, u, N):
    """(g(1..N), stage costs) of one plan, with one row of norms per plan step."""
    M = np.arange(1, N + 1)[:, None]
    k = np.arange(1, N + 1)
    last = k == N
    norms = np.sqrt(np.where(last, z[N] @ ing.P @ z[N], quad_form(z[1:], agent.Q)))
    lam_max = np.where(last, ing.lam_max_P, agent.lam_max_Q)
    d = np.where(k >= M, _deviation_bound(agent, lam_max, np.maximum(k - M, 0), M), 0.0)
    costs = stage_costs(agent, z[:N], u.reshape(N, agent.m))
    return (2.0 * norms * d + d * d).sum(axis=1) - np.cumsum(costs), costs


ENTRIES = st.floats(-1.5, 1.5)


def spd(draw, k):
    L = draw(arrays(np.float64, (k, k), elements=ENTRIES))
    return L @ L.T + 0.1 * np.eye(k)


@st.composite
def fleets(draw):
    """Agents from 1-3 models of one shape (n, m), interleaved, with ingredients, a
    horizon, coupling rows, states, a plan per agent and the agents that solve."""
    n, m, N, p = (draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 7)),
                  draw(st.integers(1, 2)))
    models, ingredients = [], []
    for _ in range(draw(st.integers(1, 3))):
        A = draw(arrays(np.float64, (n, n), elements=ENTRIES))
        A = A * min(1.0, 1.2 / max(np.linalg.norm(A, 2), 1e-12))  # keeps Z[1..N-1] nonempty
        models.append(AgentModel(
            A=A, B=draw(arrays(np.float64, (n, m), elements=ENTRIES)),
            w_bar=draw(st.floats(0.001, 0.05)),
            X=HPolytope.box(draw(arrays(np.float64, n, elements=st.floats(2.0, 9.0)))),
            U=HPolytope.box(draw(arrays(np.float64, m, elements=st.floats(0.5, 2.0)))),
            Q=spd(draw, n), R=spd(draw, m)))
        ingredients.append(TerminalIngredients(
            K=draw(arrays(np.float64, (m, n), elements=ENTRIES)), P=spd(draw, n), r=1.0,
            eps_r=draw(st.floats(0.1, 3.0)), contraction=0.5))
    labels = draw(st.lists(st.integers(0, len(models) - 1), min_size=1, max_size=8))
    M = len(labels)
    rows = st.floats(-0.5, 0.5)
    coupling = CouplingSpec(
        Psi_x=tuple(draw(arrays(np.float64, (p, n), elements=rows)) for _ in range(M)),
        Psi_u=tuple(draw(arrays(np.float64, (p, m), elements=rows)) for _ in range(M)), p=p)
    x0 = draw(arrays(np.float64, (M, n), elements=st.floats(-5.0, 5.0)))
    scenario = Scenario(agents=tuple(models[k] for k in labels), coupling=coupling, N=N,
                        T_run=1, x0=tuple(x0))
    plans = draw(arrays(np.float64, (M, N * m), elements=st.floats(-2.0, 2.0)))
    solving = draw(arrays(np.bool_, M))
    return scenario, [ingredients[k] for k in labels], x0, plans, solving


@settings(max_examples=80, deadline=None)
@given(fleets())
def test_group_arithmetic_equals_per_agent_reference(case):
    scenario, ingredients, x0, plans, solving = case
    N, agents = scenario.N, scenario.agents
    members = group_members(agents)
    groups = agent_groups(scenario, ingredients,
                          [tighten_local_sets(agent, N) for agent in agents], members)
    assert sorted(np.concatenate(members).tolist()) == list(range(len(agents)))
    for grp in groups:
        for j, i in enumerate(grp.index.tolist()):
            ref = reference_maps(agents[i], grp.ing, scenario.coupling.Psi_x[i],
                                 scenario.coupling.Psi_u[i], grp.H, N)
            for name, value in ref.items():
                np.testing.assert_array_equal(getattr(grp, name)[j], value, err_msg=name)

        slots = np.flatnonzero(solving[grp.index])
        if not slots.size:
            continue
        ids = grp.index[slots]
        ocp = condense(grp, x0[ids], slots)
        np.testing.assert_array_equal(ocp.agents, ids)
        U = plans[ids]
        Z = ocp.trajectory(U)
        cost = ocp.cost(U)
        profiles, spent = g_profile(grp, SimpleNamespace(z_star=Z, u_star=U))
        for j, (i, slot) in enumerate(zip(ids.tolist(), slots.tolist())):
            for name, value in reference_condense(grp, slot, x0[i]).items():
                np.testing.assert_array_equal(getattr(ocp, name)[j], value, err_msg=name)
            z = grp.Phi @ x0[i] + grp.Gamma @ U[j]
            np.testing.assert_array_equal(Z[j], z)
            assert cost[j] == float(0.5 * U[j] @ grp.H @ U[j] + ocp.q[j] @ U[j] + ocp.c0[j])
            g, costs = reference_g_profile(grp.agent, grp.ing, z, U[j], N)
            np.testing.assert_array_equal(profiles[j], g)
            np.testing.assert_array_equal(spent[j], np.cumsum(costs))
            # the realized stage costs of the first M steps, as a per-agent sum (M < 8
            # keeps numpy's summation sequential, as the cumulated sum is)
            assert all(spent[j, M - 1] == costs[:M].sum() for M in range(1, N + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    arrays(np.float64, (n, n), elements=ENTRIES),
    st.integers(1, 70).flatmap(lambda k: arrays(np.float64, (k, n), elements=ENTRIES)))))
def testquad_form_rows_equal_single_products(case):
    W, x = case
    values = quad_form(x, W)
    for k in range(x.shape[0]):
        assert values[k] == float(x[k] @ W @ x[k])
