"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import dataclasses
import time

import numpy as np
import pytest
import yaml

from tube_dmpc.cli import main
from tube_dmpc.dual_admm import run_admm
from tube_dmpc.local_solver import solve_centralized
from tube_dmpc.simulator import monte_carlo, prepare, run_closed_loop
from tube_dmpc.synthesis import lqr_gain, terminal_weight
from tube_dmpc.tightening import schedule_values, tighten_local_sets
from tube_dmpc.trigger import g_profile, select_Mk

from conftest import SCENARIO_DIR, fleet_ocps, load_raw, plan, row

N_MC_RUNS = 100
N_DEVIATION_SEQUENCES = 100000
N_TRIGGER_TRANSITIONS = 1000


def report(criterion, ok, details=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if details:
        line += f" ({details})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def mc_default(default_scenario, default_pipeline):
    return monte_carlo(default_scenario, N_MC_RUNS, pipeline=default_pipeline)


@pytest.fixture(scope="module")
def mc_slow(slow_scenario):
    return monte_carlo(slow_scenario, 40, pipeline=prepare(slow_scenario))


@pytest.fixture(scope="module")
def trigger_ensemble(default_scenario, default_pipeline):
    """Sampled open-loop transitions with re-solve oracle at the new state."""
    sc, pipe = default_scenario, default_pipeline
    rng = np.random.default_rng(2024)
    lam0 = np.zeros(sc.coupling.p * sc.N)
    transitions = []
    starts = list(sc.x0) + [np.array([-8.0, 0.0]), np.array([-6.0, 2.0])]
    per_state = -(-N_TRIGGER_TRANSITIONS // len(starts))
    for x0 in starts:
        agent, group = sc.agents[0], pipe.groups[0]
        plan0 = plan(group, x0, lam0)
        sol0 = row(plan0)
        assert sol0.status == "optimal"
        profile = g_profile(group, plan0)[0][0]
        Mk = select_Mk([profile]).Mk
        g = profile[Mk - 1]
        assert g < 0
        g0 = g + sum(float(sol0.z_star[l] @ agent.Q @ sol0.z_star[l])
                     + float(sol0.u_star[l] * agent.R[0, 0] * sol0.u_star[l])
                     for l in range(Mk))
        sumQ = float(x0 @ agent.Q @ x0)
        for _ in range(per_state):
            x = np.asarray(x0, float).copy()
            for l in range(Mk):
                u = sol0.u_star[l * agent.m:(l + 1) * agent.m]
                x = agent.A @ x + agent.B @ u + rng.uniform(-0.3, 0.3, size=2)
            sol1 = row(plan(group, x, lam0))
            transitions.append({
                "resolved": sol1.status == "optimal",
                "dV": sol1.J_star - sol0.J_star,
                "g_total": float(g),
                "g0_total": float(g0),
                "sumQ": sumQ,
            })
    return transitions


def test_criterion_1_terminal_ingredient_regression():
    A = np.array([[1.1, 0.12], [0.35, 0.0075]])
    B = np.array([[1.5], [0.5]])
    Q, R = np.eye(2), np.array([[0.1]])
    t0 = time.perf_counter()
    K = lqr_gain(A, B, Q, R)
    P = terminal_weight(A, B, K, Q, R)
    elapsed = time.perf_counter() - t0
    k_err = np.max(np.abs(K - np.array([[-0.7033, -0.0710]])))
    p_err = np.max(np.abs(P - np.array([[1.0516, 0.0057], [0.0057, 1.0015]])))
    report(1, k_err <= 5e-3 and p_err <= 1e-3 and elapsed < 1.0,
           f"K err {k_err:.2e} <= 5e-3, P err {p_err:.2e} <= 1e-3, {elapsed:.3f}s")


def test_criterion_2_certificate_gate(tmp_path):
    scenario_path = str(SCENARIO_DIR / "four_agent.yaml")
    t0 = time.perf_counter()
    code_ok = main(["certify", "--scenario", scenario_path, "--out",
                    str(tmp_path / "ok")])
    raw = load_raw("four_agent.yaml")
    for node in raw["agents"]:
        node["disturbance"] = {"box": [30.0, 30.0]}  # w_bar scaled by 100
    inflated = tmp_path / "inflated.yaml"
    inflated.write_text(yaml.safe_dump(raw))
    code_bad = main(["certify", "--scenario", str(inflated), "--out",
                     str(tmp_path / "bad")])
    elapsed = time.perf_counter() - t0
    report(2, code_ok == 0 and code_bad == 1 and elapsed < 1.0,
           f"exit {code_ok} on shipped, exit {code_bad} on 100x w_bar, {elapsed:.3f}s")


def test_criterion_3_constraint_satisfaction(mc_default):
    ok = (mc_default.local_violations == 0 and mc_default.global_violations == 0
          and not mc_default.failures)
    report(3, ok, f"{N_MC_RUNS} runs x 30 steps: {mc_default.local_violations} local, "
                  f"{mc_default.global_violations} global violations")


def test_criterion_4_recursive_feasibility(mc_default):
    ok = mc_default.all_feasible and len(mc_default.recursive_feasible) == N_MC_RUNS
    report(4, ok, f"all trigger-instant solves optimal across {N_MC_RUNS} runs")


def test_criterion_5_admm_vs_centralized(default_scenario, default_pipeline):
    sc, pipe = default_scenario, default_pipeline
    t0 = time.perf_counter()
    sols, state, converged = run_admm(fleet_ocps(sc, pipe, b_share=pipe.schedule.b / sc.M),
                                      sc.solver)
    admm_cost = sum(s.J_star.sum() for s in sols)
    _, central_cost = solve_centralized(sc, pipe.ingredients, pipe.tightened,
                                        pipe.schedule, sc.x0)
    elapsed = time.perf_counter() - t0
    gap = abs(admm_cost - central_cost) / central_cost
    spread = max(float(np.max(np.abs(a - b))) for a in state.lambdas
                 for b in state.lambdas)
    coupling_res = state.coupling_violation
    ok = (converged and gap <= 5e-3 and spread <= 1e-4
          and coupling_res <= 1e-4 and elapsed < 30.0)
    report(5, ok, f"cost gap {gap:.2e} <= 5e-3, spread {spread:.1e} <= 1e-4, "
                  f"coupling residual {coupling_res:.1e} <= 1e-4, {elapsed:.2f}s")


def test_criterion_6_deviation_bound_soundness(default_scenario, default_pipeline):
    from tube_dmpc.trigger import deviation_bound

    agent = default_scenario.agents[0]
    ing = default_pipeline.ingredients[0]
    N = default_scenario.N
    rng = np.random.default_rng(99)
    per_Mk = N_DEVIATION_SEQUENCES // N
    LQ = np.linalg.cholesky(agent.Q)
    LP = np.linalg.cholesky(ing.P)
    exceedances = 0
    checked = 0
    for Mk in range(1, N + 1):
        W = 0.3 * rng.choice([-1.0, 1.0], size=(per_Mk, Mk, agent.n))
        e = np.zeros((per_Mk, agent.n))
        for j in range(Mk):
            e = e @ agent.A.T + W[:, j]
        for l in range(N + 1):
            dev = e @ np.linalg.matrix_power(agent.A, l).T
            for phi, L in ((agent.Q, LQ), (ing.P, LP)):
                bound = deviation_bound(agent, phi, l, Mk)
                worst = float(np.linalg.norm(dev @ L, axis=1).max())
                checked += per_Mk
                if worst > bound + 1e-10:
                    exceedances += 1
    report(6, exceedances == 0,
           f"{checked} adversarial deviation checks, {exceedances} exceedances")


def test_criterion_7_trigger_bound_soundness(trigger_ensemble, mc_default, mc_slow):
    transitions = [tr for tr in trigger_ensemble if tr["resolved"]]
    closed_loop = [tr for tr in mc_default.transitions + mc_slow.transitions
                   if tr["g_total"] < 0]
    all_checked = transitions + closed_loop
    exceed = sum(tr["dV"] > tr["g_total"] + 1e-5 for tr in all_checked)
    unresolved = len(trigger_ensemble) - len(transitions)
    ok = (len(all_checked) >= N_TRIGGER_TRANSITIONS and exceed == 0
          and unresolved == 0)
    report(7, ok, f"{len(all_checked)} transitions, {exceed} exceedances, "
                  f"{unresolved} re-solve failures")


def test_criterion_8_computation_burden(default_scenario, default_pipeline):
    log_s = run_closed_loop(default_scenario, pipeline=default_pipeline)
    log_p = run_closed_loop(dataclasses.replace(default_scenario,
                                                trigger_mode="periodic"),
                            pipeline=default_pipeline)
    st, pe = log_s.solve_instants(), log_p.solve_instants()
    report(8, st < pe, f"self-triggered {st} vs periodic {pe} solve instants, "
                       f"ratio {st / pe:.3f}")


def test_criterion_9_empirical_iss(nominal_scenario, mc_default, mc_slow,
                                   trigger_ensemble):
    # disturbance-free: total optimal cost strictly decreases across instants
    # while any agent is outside its terminal set (periodic run gives a
    # non-trivial instant sequence; the self-triggered one is also checked)
    pipe0 = prepare(nominal_scenario)
    decreasing = True
    nominal_pairs = 0
    for mode in ("periodic", "self-triggered"):
        sc = dataclasses.replace(nominal_scenario, trigger_mode=mode)
        log = run_closed_loop(sc, pipeline=pipe0)
        outside = []
        for rec in log.triggers:
            xs = log.states[rec.t_k]
            outside.append(any(pipe0.ingredients[i].p_norm(xs[i])
                               > pipe0.ingredients[i].eps_r for i in range(sc.M)))
        for k in range(len(log.triggers) - 1):
            if outside[k] and outside[k + 1]:
                nominal_pairs += 1
                if not (log.triggers[k + 1].total_cost
                        < log.triggers[k].total_cost - 1e-9):
                    decreasing = False
    decreasing = decreasing and nominal_pairs >= 3

    # disturbed: V(t_{k+1}) - V(t_k) <= alpha_hat - sum ||x||_Q^2 at every
    # logged transition (closed loop) and over the sampled ensemble
    iss_violations = 0
    total = 0
    for tr in mc_default.transitions + mc_slow.transitions:
        total += 1
        if tr["dV"] > tr["g0_total"] - tr["sumQ"] + 1e-5:
            iss_violations += 1
    for tr in trigger_ensemble:
        if not tr["resolved"]:
            continue
        total += 1
        if tr["dV"] > tr["g0_total"] - tr["sumQ"] + 1e-5:
            iss_violations += 1
    report(9, decreasing and iss_violations == 0 and total > 0,
           f"nominal decrease holds over {nominal_pairs} instant pairs; "
           f"{iss_violations}/{total} ISS violations")


def test_criterion_10_tightening_schedule(default_scenario, default_pipeline,
                                          nominal_scenario):
    eps = schedule_values(default_scenario, default_pipeline.ingredients)
    increasing = (eps[0] == 0.0 and np.all(np.diff(eps[1:]) > 0)
                  and eps[1] > 0 and eps[-1] < 1.0)

    ings0 = prepare(nominal_scenario).ingredients
    eps0 = schedule_values(nominal_scenario, ings0)
    zero_ok = bool(np.all(eps0 == 0.0))
    sets_ok = True
    for agent in nominal_scenario.agents:
        tz = tighten_local_sets(agent, nominal_scenario.N)
        for Z in tz.Z:
            if not (np.array_equal(Z.G, agent.X.G) and np.array_equal(Z.h, agent.X.h)):
                sets_ok = False
    report(10, increasing and zero_ok and sets_ok,
           f"0 < {eps[1]:.4f} < ... < {eps[-1]:.4f} < 1; w_bar=0 gives eps=0 and Z=X")
