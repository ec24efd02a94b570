import numpy as np
import pytest

from tube_dmpc.model import AgentModel, HPolytope, SolverParams
from tube_dmpc.synthesis import synthesize
from tube_dmpc.tightening import tighten_local_sets
from tube_dmpc.local_solver import condense, ocp_template, solve_centralized, solve_inner
from tube_dmpc.dual_admm import (consensus_adjoint, consensus_diff, consensus_gain,
                                 lambda_update, omega_update, run_admm)


def scalar_agent(a=0.5, inp=5.0):
    return AgentModel(A=np.array([[a]]), B=np.array([[1.0]]), w_bar=0.0,
                      X=HPolytope.box([10.0]), U=HPolytope.box([inp]),
                      Q=np.eye(1), R=np.eye(1))


def test_consensus_map_single_agent_empty():
    assert consensus_diff(np.ones((1, 3))).shape == (0, 3)
    np.testing.assert_array_equal(consensus_adjoint(np.zeros((0, 3))), np.zeros((1, 3)))
    assert consensus_gain(1) == 0.0


def test_consensus_map_two_agents():
    # E = [I, -I]: E lam = lam^0 - lam^1 and E'w = (w, -w)
    lam = np.array([[1.0, 2.0], [3.0, 5.0]])
    np.testing.assert_array_equal(consensus_diff(lam), [[-2.0, -3.0]])
    w = np.array([[0.5, -4.0]])
    np.testing.assert_array_equal(consensus_adjoint(w), [[0.5, -4.0], [-0.5, 4.0]])


def test_consensus_map_four_agents_path_laplacian():
    M, d = 4, 3
    # dense E'E assembled column by column from the operator
    basis = np.eye(M * d).reshape(M * d, M, d)
    gram = np.stack([consensus_adjoint(consensus_diff(e)).ravel() for e in basis], axis=1)
    np.testing.assert_array_equal(gram, gram.T)
    eigs = np.linalg.eigvalsh(gram)
    # oracle: path-graph Laplacian spectrum 2 - 2cos(k pi / M), tensored with I_d
    lap_eigs = np.sort([2 - 2 * np.cos(k * np.pi / M) for k in range(M)])
    np.testing.assert_allclose(np.sort(eigs)[::d], lap_eigs, atol=1e-12)
    assert eigs.max() < 4.0
    assert consensus_gain(M) == pytest.approx(eigs.max())


def test_lambda_update_slack_stays_zero():
    lambdas = np.zeros((2, 2))
    f = np.array([[-1.0, -0.5], [-0.2, -0.3]])  # strictly below share
    b = np.zeros((2, 2))
    out = lambda_update(lambdas, f, b, np.zeros((1, 2)), rho=1.0, tau=2.0)
    np.testing.assert_array_equal(out, np.zeros((2, 2)))


def test_lambda_update_single_scalar_step():
    out = lambda_update(np.zeros((1, 1)), np.array([[1.0]]), np.zeros((1, 1)),
                        np.zeros((0, 1)), rho=1.0, tau=1.0)
    assert out[0][0] == pytest.approx(1.0)


def test_lambda_update_drives_consensus_closed_form():
    # identical gradients, omega frozen at zero: difference contracts linearly
    rho, tau = 1.0, 4.0
    lam = np.array([[3.0], [1.0]])
    f = np.array([[0.5], [0.5]])
    b = np.zeros((2, 1))
    diff_oracle = lam[0][0] - lam[1][0]
    mean_oracle = 0.5 * (lam[0][0] + lam[1][0])
    for _ in range(100):
        lam = lambda_update(lam, f, b, np.zeros((1, 1)), rho=rho, tau=tau)
        diff_oracle *= 1.0 - 2.0 * rho / tau
        mean_oracle += 0.5 / tau  # both copies gain f/tau
    assert lam[0][0] - lam[1][0] == pytest.approx(diff_oracle, abs=1e-12)
    assert 0.5 * (lam[0][0] + lam[1][0]) == pytest.approx(mean_oracle, abs=1e-9)


def test_omega_update_consensus_exact_unchanged():
    lam = np.array([[1.0, 2.0], [1.0, 2.0]])
    omega = np.array([[0.3, -0.4]])
    out = omega_update(omega, lam, rho=1.0, gamma=1.0)
    np.testing.assert_array_equal(out, omega)


def test_omega_update_two_agent_scalar_step():
    # lam = (1, 0), rho = gamma = 1: step along the violation; the convergent
    # sign pairs the printed lambda rule with +rho*gamma*E lam
    out = omega_update(np.zeros((1, 1)), np.array([[1.0], [0.0]]),
                       rho=1.0, gamma=1.0)
    assert out[0, 0] == pytest.approx(1.0)


def test_gamma_zero_rejected():
    with pytest.raises(Exception):
        SolverParams(gamma=0.0)


def test_run_admm_inactive_coupling_matches_independent(default_scenario,
                                                        default_pipeline):
    sc, pipe = default_scenario, default_pipeline
    b_share = pipe.schedule.b / sc.M
    ocps = [condense(pipe.templates[i], sc.x0[i], b_share=b_share) for i in range(sc.M)]
    sols, state, converged = run_admm(ocps, sc.solver)
    assert converged
    for lam in state.lambdas:
        np.testing.assert_allclose(lam, np.zeros_like(lam), atol=1e-9)
    for ocp, sol in zip(ocps, sols):
        ref = solve_inner(ocp, np.zeros(ocp.template.F.shape[0]))
        assert sol.J_star == pytest.approx(ref.J_star, abs=1e-5)
        np.testing.assert_allclose(sol.u_star, ref.u_star, atol=1e-5)


def test_run_admm_active_coupling_against_centralized():
    # two scalar agents sharing u1 + u2 <= 0, both pulled positive
    from tube_dmpc.model import CouplingSpec, Scenario
    from tube_dmpc.tightening import ToleranceSchedule

    agent = scalar_agent()
    ing = synthesize(agent)
    tz = tighten_local_sets(agent, 2)
    Px, Pu = np.zeros((1, 1)), np.ones((1, 1))
    b = np.zeros(2)
    ocps = [condense(ocp_template(agent, ing, tz, Px, Pu, 2), [-3.0], b_share=b / 2)
            for _ in range(2)]
    params = SolverParams(rho=1.0, gamma=1.0, max_iter=2000,
                          tol_primal=1e-6, tol_dual=1e-6)
    sols, state, converged = run_admm(ocps, params)
    assert converged

    sc = Scenario(agents=(agent, agent),
                  coupling=CouplingSpec(Psi_x=(Px, Px), Psi_u=(Pu, Pu), p=1),
                  N=2, T_run=1, x0=(np.array([-3.0]), np.array([-3.0])))
    sched = ToleranceSchedule(eps=np.zeros(3), b=b, p=1)
    csols, ccost = solve_centralized(sc, [ing, ing], [tz, tz], sched,
                                     [np.array([-3.0])] * 2)
    total = sum(s.J_star for s in sols)
    assert abs(total - ccost) / ccost <= 5e-3
    # consensus and coupling residual at convergence
    spread = max(np.max(np.abs(a - bb)) for a in state.lambdas for bb in state.lambdas)
    assert spread <= 10 * params.tol_primal
    f_total = sum(ocp.coupling_values(s.u_star) for ocp, s in zip(ocps, sols))
    assert np.all(f_total <= b + 1e-4)


def test_run_admm_single_agent_projected_ascent_analytic():
    # one scalar agent, one binding coupling row: compare against a dual grid
    agent = scalar_agent(a=0.5, inp=5.0)
    ing = synthesize(agent)
    tz = tighten_local_sets(agent, 1)
    Px, Pu = np.zeros((1, 1)), np.ones((1, 1))
    b = np.array([-1.0])  # force u <= -1 while the free optimum pulls positive
    ocp = condense(ocp_template(agent, ing, tz, Px, Pu, 1), [-3.0], b_share=b)
    params = SolverParams(rho=1.0, gamma=1.0, max_iter=5000,
                          tol_primal=1e-8, tol_dual=1e-8)
    sols, state, converged = run_admm([ocp], params)
    assert converged
    lam_star = state.lambdas[0][0]

    # oracle: maximize the dual function over a 1-D grid with refinement
    def dual_at(lam):
        sol = solve_inner(ocp, np.array([lam]))
        return sol.J_star + lam * (ocp.coupling_values(sol.u_star)[0] - b[0])

    grid = np.linspace(0.0, 10.0, 201)
    vals = [dual_at(g) for g in grid]
    coarse = grid[int(np.argmax(vals))]
    fine = np.linspace(max(0.0, coarse - 0.1), coarse + 0.1, 201)
    vals = [dual_at(g) for g in fine]
    lam_oracle = fine[int(np.argmax(vals))]
    assert lam_star == pytest.approx(lam_oracle, abs=2e-3)
    # primal consistent with the bound at the optimum
    assert ocp.coupling_values(sols[0].u_star)[0] == pytest.approx(b[0], abs=1e-6)


def test_run_admm_deterministic(default_scenario, default_pipeline):
    sc, pipe = default_scenario, default_pipeline
    b_share = pipe.schedule.b / sc.M
    def once():
        ocps = [condense(pipe.templates[i], sc.x0[i], b_share=b_share) for i in range(sc.M)]
        return run_admm(ocps, sc.solver)
    s1, st1, _ = once()
    s2, st2, _ = once()
    assert st1.iteration == st2.iteration
    for a, b2 in zip(st1.lambdas, st2.lambdas):
        np.testing.assert_array_equal(a, b2)
    for x, y in zip(s1, s2):
        np.testing.assert_array_equal(x.u_star, y.u_star)


def test_lambda_nonnegative_throughout():
    agent = scalar_agent()
    ing = synthesize(agent)
    tz = tighten_local_sets(agent, 2)
    Px, Pu = np.zeros((1, 1)), np.ones((1, 1))
    b = np.zeros(2)
    ocps = [condense(ocp_template(agent, ing, tz, Px, Pu, 2), [-3.0], b_share=b / 2)
            for _ in range(2)]
    lambdas = np.zeros((2, 2))
    omega = np.zeros((1, 2))
    rng = np.random.default_rng(2)
    for _ in range(50):
        f = rng.uniform(-2, 2, size=(2, 2))
        lambdas = lambda_update(lambdas, f, np.array([b / 2] * 2), omega, rho=1.0, tau=4.0)
        omega = omega_update(omega, lambdas, rho=1.0, gamma=1.0)
        assert np.all(lambdas >= 0.0)


def test_run_admm_trace_csv(tmp_path, default_scenario, default_pipeline):
    sc, pipe = default_scenario, default_pipeline
    b_share = pipe.schedule.b / sc.M
    ocps = [condense(pipe.templates[i], sc.x0[i], b_share=b_share) for i in range(sc.M)]
    path = tmp_path / "admm_trace.csv"
    _, state, _ = run_admm(ocps, sc.solver, trace_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,primal_res,dual_res,total_cost"
    assert len(lines) == 1 + state.iteration


def test_user_tau_below_floor_rejected():
    agent = scalar_agent()
    ing = synthesize(agent)
    tz = tighten_local_sets(agent, 2)
    Px, Pu = np.zeros((1, 1)), np.ones((1, 1))
    ocps = [condense(ocp_template(agent, ing, tz, Px, Pu, 2), [-1.0], b_share=np.zeros(2))
            for _ in range(2)]
    params = SolverParams(rho=1.0, tau=0.5)  # below rho * sigma_max(E'E) = 2
    with pytest.raises(ValueError, match="tau"):
        run_admm(ocps, params)
