from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tube_dmpc.model import AgentModel, HPolytope
from tube_dmpc.synthesis import NORM_ONE_TOL, TerminalIngredients, error_gain
from tube_dmpc.trigger import deviation_bound, g_profile, select_Mk

from conftest import plan, row


# -- references: the per-M loop and the scan that g_profile and select_Mk replace --

def reference_deviation_bound(agent, lam, l, Mk):
    a = agent.norm_A
    if abs(a - 1.0) <= NORM_ONE_TOL:
        return float(np.sqrt(lam) * agent.w_bar * Mk)
    return float(np.sqrt(lam) * agent.w_bar * a ** l * error_gain(a, Mk))


def cost_decrease_bound_g(agent, Mk, sol, ing):
    """The per-M loop: (perturbed retained costs g0, realized skipped stage costs).

    g(Mk) = g0 - spent; both parts are returned to scale the comparison tolerance.
    """
    N = sol.z_star.shape[0] - 1
    m = agent.m
    z, u = sol.z_star, sol.u_star
    g0 = 0.0
    for l in range(N - Mk):
        zq = float(np.sqrt(z[Mk + l] @ agent.Q @ z[Mk + l]))
        d = reference_deviation_bound(agent, agent.lam_max_Q, l, Mk)
        g0 += 2.0 * zq * d + d * d
    zp = float(np.sqrt(z[N] @ ing.P @ z[N]))
    dp = reference_deviation_bound(agent, ing.lam_max_P, N - Mk, Mk)
    g0 += 2.0 * zp * dp + dp * dp
    spent = 0.0
    for l in range(Mk):
        ul = u[l * m:(l + 1) * m]
        spent += float(z[l] @ agent.Q @ z[l]) + float(ul @ agent.R @ ul)
    return g0, spent


def reference_select(g_profiles):
    """(Mk_per_agent, fallback) by a scan: most negative g, ties to the larger M."""
    Mk_list, fallback = [], []
    for g in g_profiles:
        best_M, best_g = None, 0.0
        for M, val in enumerate(g, start=1):
            if val < 0 and val <= best_g:
                best_M, best_g = M, val
        Mk_list.append(1 if best_M is None else best_M)
        fallback.append(best_M is None)
    return tuple(Mk_list), tuple(fallback)


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
    sol = plan(pipe.groups[0], sc.x0[0], np.zeros(sc.coupling.p * sc.N))
    assert row(sol).status == "optimal"
    profile = g_profile(pipe.groups[0], sol)[0][0]
    for Mk in range(1, sc.N + 1):
        # with w_bar = 0 the bound is exactly minus the skipped stage costs
        assert profile[Mk - 1] < 0


def test_cost_bound_origin_zero(nominal_scenario):
    from tube_dmpc.simulator import prepare
    pipe = prepare(nominal_scenario)
    sc = nominal_scenario
    sol = plan(pipe.groups[0], np.zeros(2), np.zeros(sc.coupling.p * sc.N))
    g = g_profile(pipe.groups[0], sol)[0][0, 0]
    assert g == pytest.approx(0.0, abs=1e-8)


def test_cost_bound_upper_bounds_realized_difference(default_scenario,
                                                     default_pipeline):
    # re-solve oracle over sampled disturbances at the chosen interval
    sc, pipe = default_scenario, default_pipeline
    agent, group = sc.agents[0], pipe.groups[0]
    x0 = np.array([-10.0, -4.0])
    lam0 = np.zeros(sc.coupling.p * sc.N)
    plan0 = plan(group, x0, lam0)
    sol0 = row(plan0)
    assert sol0.status == "optimal"
    rng = np.random.default_rng(17)
    profile = g_profile(group, plan0)[0][0]
    for Mk in (1, 5):
        g = profile[Mk - 1]
        assert g < 0
        for _ in range(100):
            x = x0.copy()
            for l in range(Mk):
                u = sol0.u_star[l * agent.m:(l + 1) * agent.m]
                x = agent.A @ x + agent.B @ u + rng.uniform(-0.3, 0.3, size=2)
            sol1 = row(plan(group, x, lam0))
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
    profile = g_profile(pipe.groups[0], plan(pipe.groups[0], sc.x0[0],
                                             np.zeros(sc.coupling.p * sc.N)))[0][0]
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


def test_deviation_bound_broadcasts_over_l_and_Mk(default_scenario):
    agent = default_scenario.agents[0]
    l, Mk = np.arange(6)[:, None], np.arange(1, 6)[None, :]
    table = deviation_bound(agent, agent.Q, l, Mk)
    assert table.shape == (6, 5)
    for i in range(6):
        for j in range(5):
            assert table[i, j] == pytest.approx(
                reference_deviation_bound(agent, agent.lam_max_Q, i, j + 1), rel=1e-14)


@st.composite
def trigger_cases(draw):
    """A random stabilizable (A, B) (||A|| = 1 in some draws), weights, a plan, w_bar >= 0."""
    n, m, N = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.normal(size=(n, n)) * draw(st.sampled_from([0.3, 1.0, 2.0]))
    if draw(st.booleans()):
        A = A / np.linalg.norm(A, 2)  # the ||A|| = 1 case
    B = rng.normal(size=(n, m))
    ctrb = np.hstack([np.linalg.matrix_power(A, j) @ B for j in range(n)])
    assume(np.linalg.matrix_rank(ctrb) == n)  # controllable, hence stabilizable

    def spd(k):
        L = rng.normal(size=(k, k))
        return L @ L.T + 0.1 * np.eye(k)

    w_bar = draw(st.sampled_from([0.0, 0.05, 0.3, 2.0]))
    agent = AgentModel(A=A, B=B, w_bar=w_bar, X=HPolytope.box([10.0] * n),
                       U=HPolytope.box([10.0] * m), Q=spd(n), R=spd(m))
    ing = TerminalIngredients(K=np.zeros((m, n)), P=spd(n), r=1.0, eps_r=0.5,
                              contraction=0.5)
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    sol = SimpleNamespace(z_star=scale * rng.normal(size=(N + 1, n)),
                          u_star=scale * rng.normal(size=N * m))
    return agent, ing, sol, N


@settings(max_examples=200, deadline=None)
@given(trigger_cases())
def test_g_profile_equals_per_M_loop(case):
    agent, ing, sol, N = case
    profiles, spent = g_profile(SimpleNamespace(agent=agent, ing=ing),
                                SimpleNamespace(z_star=sol.z_star[None], u_star=sol.u_star[None]))
    assert profiles.shape == spent.shape == (1, N)
    for M in range(1, N + 1):
        g0, ref_spent = cost_decrease_bound_g(agent, M, sol, ing)
        assert abs(profiles[0, M - 1] - (g0 - ref_spent)) <= 1e-12 * (abs(g0) + abs(ref_spent))
        assert abs(spent[0, M - 1] - ref_spent) <= 1e-12 * abs(ref_spent)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda N: st.lists(
    st.lists(st.one_of(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0]),
                       st.floats(-1e3, 1e3)), min_size=N, max_size=N),
    min_size=1, max_size=6)))
def test_select_Mk_equals_scan(profiles):
    decision = select_Mk([np.array(g) for g in profiles])
    Mk_per_agent, fallback = reference_select(profiles)
    assert decision.Mk_per_agent == Mk_per_agent
    assert decision.fallback == fallback
    assert decision.Mk == min(Mk_per_agent)
