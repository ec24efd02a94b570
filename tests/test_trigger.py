import numpy as np
import pytest

from tube_dmpc.model import AgentModel, HPolytope
from tube_dmpc.local_solver import condense, solve_inner
from tube_dmpc.trigger import (cost_decrease_bound_g, deviation_bound,
                               g_profile, select_Mk)


def test_deviation_bound_zero_disturbance(nominal_scenario):
    agent = nominal_scenario.agents[0]
    for l in range(4):
        for Mk in range(1, 5):
            assert deviation_bound(agent, agent.Q, l, Mk) == 0.0


def test_deviation_bound_unit_norm_branch():
    agent = AgentModel(A=np.eye(2), B=np.eye(2), w_bar=0.3,
                       X=HPolytope.box([10, 10]), U=HPolytope.box([10, 10]),
                       Q=np.eye(2), R=np.eye(2))
    assert deviation_bound(agent, np.eye(2), l=1, Mk=2) == pytest.approx(0.6)


def test_deviation_bound_monotone_in_Mk(default_scenario):
    agent = default_scenario.agents[0]
    vals = [deviation_bound(agent, agent.Q, 1, Mk) for Mk in range(1, 6)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v >= 0 for v in vals)


def test_deviation_bound_monte_carlo_sound(default_scenario, default_pipeline):
    # worst case over extreme-point disturbance sequences never exceeds the bound
    agent = default_scenario.agents[0]
    ing = default_pipeline.ingredients[0]
    rng = np.random.default_rng(9)
    n_seq = 20000
    N = default_scenario.N
    LQ = np.linalg.cholesky(agent.Q)
    LP = np.linalg.cholesky(ing.P)
    for Mk in (1, 3, 5):
        W = 0.3 * rng.choice([-1.0, 1.0], size=(n_seq, Mk, agent.n))
        e = np.zeros((n_seq, agent.n))
        for j in range(Mk):
            e = e @ agent.A.T + W[:, j]
        for l in range(N + 1):
            dev = e @ np.linalg.matrix_power(agent.A, l).T
            for phi, L in ((agent.Q, LQ), (ing.P, LP)):
                norms = np.linalg.norm(dev @ L, axis=1)
                assert norms.max() <= deviation_bound(agent, phi, l, Mk) + 1e-12


def test_cost_bound_zero_disturbance_is_negative(nominal_scenario):
    from tube_dmpc.simulator import prepare
    pipe = prepare(nominal_scenario)
    sc = nominal_scenario
    ocp = condense(pipe.templates[0], sc.x0[0])
    sol = solve_inner(ocp, np.zeros(ocp.F.shape[0]))
    assert sol.status == "optimal"
    for Mk in range(1, sc.N + 1):
        g = cost_decrease_bound_g(sc.agents[0], Mk, sol, pipe.ingredients[0])
        # with w_bar = 0 the bound is exactly minus the skipped stage costs
        assert g < 0


def test_cost_bound_origin_zero(nominal_scenario):
    from tube_dmpc.simulator import prepare
    pipe = prepare(nominal_scenario)
    sc = nominal_scenario
    ocp = condense(pipe.templates[0], np.zeros(2))
    sol = solve_inner(ocp, np.zeros(ocp.F.shape[0]))
    g = cost_decrease_bound_g(sc.agents[0], 1, sol, pipe.ingredients[0])
    assert g == pytest.approx(0.0, abs=1e-8)


def test_cost_bound_upper_bounds_realized_difference(default_scenario,
                                                     default_pipeline):
    # re-solve oracle over sampled disturbances at the chosen interval
    sc, pipe = default_scenario, default_pipeline
    agent, ing = sc.agents[0], pipe.ingredients[0]
    x0 = np.array([-10.0, -4.0])
    lam0 = np.zeros(sc.coupling.p * sc.N)
    ocp0 = condense(pipe.templates[0], x0)
    sol0 = solve_inner(ocp0, lam0)
    assert sol0.status == "optimal"
    rng = np.random.default_rng(17)
    for Mk in (1, 5):
        g = cost_decrease_bound_g(agent, Mk, sol0, ing)
        assert g < 0
        for _ in range(100):
            x = x0.copy()
            for l in range(Mk):
                u = sol0.u_star[l * agent.m:(l + 1) * agent.m]
                x = agent.A @ x + agent.B @ u + rng.uniform(-0.3, 0.3, size=2)
            sol1 = solve_inner(condense(pipe.templates[0], x), lam0)
            assert sol1.status == "optimal"
            assert sol1.J_star - sol0.J_star <= g + 1e-5


def test_select_all_nonnegative_forces_one():
    decision = select_Mk([np.array([0.5, 0.2, 0.1])])
    assert decision.Mk == 1
    assert decision.fallback == (True,)


def test_select_zero_disturbance_prefers_full_horizon(nominal_scenario):
    from tube_dmpc.simulator import prepare
    pipe = prepare(nominal_scenario)
    sc = nominal_scenario
    ocp = condense(pipe.templates[0], sc.x0[0])
    sol = solve_inner(ocp, np.zeros(ocp.F.shape[0]))
    profile = g_profile(sc.agents[0], sol, pipe.ingredients[0], sc.N)
    assert np.all(np.diff(profile) < 0)  # strictly improving with longer M
    decision = select_Mk([profile])
    assert decision.Mk == sc.N
    assert decision.fallback == (False,)


def test_select_min_across_agents():
    profiles = [np.array([-1.0, -2.0, -3.0, -2.5, -2.0]),
                np.array([-1.0, -4.0, -3.0, -2.5, -2.0]),
                np.array([-1.0, -2.0, -3.0, -4.0, -5.0]),
                np.array([-1.0, -2.0, -3.0, -3.5, -3.0])]
    decision = select_Mk(profiles)
    assert decision.Mk_per_agent == (3, 2, 5, 4)
    assert decision.Mk == 2


def test_select_tie_breaks_to_larger():
    decision = select_Mk([np.array([-2.0, -2.0, -1.0])])
    assert decision.Mk_per_agent == (2,)
