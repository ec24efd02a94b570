import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tube_dmpc.model import AgentModel, CouplingSpec, HPolytope, Scenario, SolverParams
from tube_dmpc.synthesis import synthesize
from tube_dmpc.tightening import ToleranceSchedule, tighten_local_sets
from tube_dmpc import dual_admm
from tube_dmpc.local_solver import (agent_group, agent_groups, condense, solve_centralized,
                                    solve_inner)
from tube_dmpc.dual_admm import (AdmmError, consensus_adjoint, consensus_diff,
                                 consensus_gain, lambda_update, omega_update, run_admm)

from conftest import fleet_ocps, one_agent, solve_one


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


def test_consensus_adjoint_bytes_equal_diff():
    # the repeat-lambda skip of run_admm compares multiplier bytes: the adjoint must
    # round, and sign its zeros, exactly as np.diff with zeros at both ends
    rng = np.random.default_rng(8)
    for _ in range(200):
        M, d = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        w = rng.normal(size=(M - 1, d)) * (rng.random((M - 1, d)) < 0.5)
        w[rng.random(w.shape) < 0.2] = -0.0
        expected = np.diff(w, axis=0, prepend=0.0, append=0.0)
        got = consensus_adjoint(w)
        assert got.shape == expected.shape == (M, d)
        assert got.tobytes() == expected.tobytes()


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
    ocps = fleet_ocps(sc, pipe, b_share=pipe.schedule.b / sc.M)
    sols, state, converged = run_admm(ocps, sc.solver)
    assert converged
    for lam in state.lambdas:
        np.testing.assert_allclose(lam, np.zeros_like(lam), atol=1e-9)
    for ocp, sol in zip(ocps, sols):
        for j, i in enumerate(ocp.agents):
            ref = solve_one(condense(ocp.group, [sc.x0[i]], [j], ocp.b_share),
                            np.zeros(ocp.F.shape[1]))
            assert sol.J_star[j] == pytest.approx(ref.J_star, abs=1e-5)
            np.testing.assert_allclose(sol.u_star[j], ref.u_star, atol=1e-5)


def test_run_admm_mixed_groups_match_independent_solves(default_scenario, default_pipeline):
    # agents 0, 2 and 4 use the default model; agents 1 and 3 have a larger R, so
    # a split setup of their own, and the two groups interleave in agent order
    sc, pipe = default_scenario, default_pipeline
    agent = dataclasses.replace(sc.agents[0], R=2.0 * sc.agents[0].R)
    Px, Pu = sc.coupling.Psi_x, sc.coupling.Psi_u
    base = agent_group(sc.agents[0], pipe.ingredients[0], pipe.tightened[0],
                       [Px[0], Px[1], Px[3]], [Pu[0], Pu[1], Pu[3]], sc.N, index=[0, 2, 4])
    own = agent_group(agent, synthesize(agent), tighten_local_sets(agent, sc.N),
                      [Px[0]] * 2, [Pu[0]] * 2, sc.N, index=[1, 3])
    b_share = np.full(pipe.schedule.b.shape, 1e3)  # coupling inactive
    ocps = [condense(base, [sc.x0[0], sc.x0[2], sc.x0[1]], b_share=b_share),
            condense(own, [sc.x0[1], sc.x0[3]], b_share=b_share)]
    assert base.split is not own.split
    sols, state, converged = run_admm(ocps, sc.solver)
    assert converged
    np.testing.assert_array_equal(state.lambdas, 0.0)
    for ocp, sol in zip(ocps, sols):
        for j in range(ocp.slots.size):
            ref = solve_one(condense(ocp.group, ocp.x0[j], [j], b_share),
                            np.zeros(ocp.F.shape[1]))
            assert sol.status[j] == ref.status == "optimal"
            assert sol.J_star[j] == pytest.approx(ref.J_star, abs=1e-5)
            np.testing.assert_allclose(sol.u_star[j], ref.u_star, atol=1e-5)


def test_admm_error_names_lowest_infeasible_agent():
    # double integrator: the x1 row of Z[1] does not move with u, so x0 = (9, 3)
    # (x1(1) = 12 > 10) is infeasible for every input. Agents 0 and 2 form one
    # group and are solved first; agent 1 has its own (a wider input box)
    def integrator(inp):
        return AgentModel(A=np.array([[1.0, 1.0], [0.0, 1.0]]), B=np.array([[0.0], [1.0]]),
                          w_bar=0.0, X=HPolytope.box([10.0, 10.0]), U=HPolytope.box([inp]),
                          Q=np.eye(2), R=np.eye(1))

    def group(agent, index, N=3):
        return agent_group(agent, synthesize(agent), tighten_local_sets(agent, N),
                           [np.zeros((1, 2))] * len(index), [np.zeros((1, 1))] * len(index),
                           N, index=index)

    shared, other = group(integrator(2.0), [0, 2]), group(integrator(3.0), [1])
    b_share = np.full(3, 1e3)
    ocps = [condense(shared, [[2.0, 1.0], [9.0, 3.0]], b_share=b_share),
            condense(other, [9.0, 3.0], b_share=b_share)]
    with pytest.raises(AdmmError, match="agent 1") as err:
        run_admm(ocps, SolverParams())
    assert err.value.agent_index == 1


def test_run_admm_active_coupling_against_centralized():
    # two scalar agents sharing u1 + u2 <= 0, both pulled positive
    from tube_dmpc.model import CouplingSpec, Scenario
    from tube_dmpc.tightening import ToleranceSchedule

    agent = scalar_agent()
    ing = synthesize(agent)
    tz = tighten_local_sets(agent, 2)
    Px, Pu = np.zeros((1, 1)), np.ones((1, 1))
    b = np.zeros(2)
    ocps = [condense(agent_group(agent, ing, tz, [Px, Px], [Pu, Pu], 2), [[-3.0], [-3.0]],
                     b_share=b / 2)]
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
    total = sum(s.J_star.sum() for s in sols)
    assert abs(total - ccost) / ccost <= 5e-3
    # consensus and coupling residual at convergence
    spread = max(np.max(np.abs(a - bb)) for a in state.lambdas for bb in state.lambdas)
    assert spread <= 10 * params.tol_primal
    f_total = sum(ocp.coupling_values(s.u_star).sum(axis=0) for ocp, s in zip(ocps, sols))
    assert np.all(f_total <= b + 1e-4)


def recorded_solves(monkeypatch):
    """The multiplier rows of every solve_inner call that run_admm makes."""
    calls = []

    def recording(ocp, lams, *args, **kwargs):
        calls.append(np.array(lams))
        return solve_inner(ocp, lams, *args, **kwargs)

    monkeypatch.setattr(dual_admm, "solve_inner", recording)
    return calls


def test_run_admm_reuses_the_solve_at_an_unchanged_multiplier(monkeypatch, default_scenario,
                                                              default_pipeline):
    # the default coupling is inactive: the answers at multiplier 0 keep the row, so
    # run_admm certifies them at iteration 0 after one solve per group
    sc, pipe = default_scenario, default_pipeline
    calls = recorded_solves(monkeypatch)
    ocps = fleet_ocps(sc, pipe, b_share=pipe.schedule.b / sc.M)
    sols, state, converged = run_admm(ocps, sc.solver)
    assert converged and state.iteration == 0
    assert len(calls) == len(ocps)
    assert state.total_inner_iterations == sum(int(s.iterations.sum()) for s in sols)


def test_run_admm_skips_a_group_whose_multiplier_rows_stay_put(monkeypatch):
    # binding row u0 + u1 <= 0 on agents 0 and 1 (one group); agent 2 (a model of its
    # own) adds nothing to the row and holds a share of 2 of its slack, so its
    # multiplier row stays at 0 for the first iterations and its first solve serves them
    def group(agent, Pu, index):
        return agent_group(agent, synthesize(agent), tighten_local_sets(agent, 2),
                           [np.zeros((1, 1))] * len(index), [Pu] * len(index), 2, index=index)

    ocps = [condense(group(scalar_agent(), np.ones((1, 1)), [0, 1]), [[-3.0], [-3.0]],
                     b_share=np.full(2, -1.0)),
            condense(group(scalar_agent(a=0.4), np.zeros((1, 1)), [2]), [1.0],
                     b_share=np.full(2, 2.0))]
    calls = recorded_solves(monkeypatch)
    params = SolverParams(rho=1.0, gamma=1.0, max_iter=2000, tol_primal=1e-6, tol_dual=1e-6)
    sols, state, converged = run_admm(ocps, params)
    assert converged and np.all(state.lambdas > 0)
    idle = [lam for lam in calls if lam.shape[0] == 1]
    assert len(calls) - len(idle) == state.iteration + 1  # the pulled group moves every time
    assert len(idle) <= state.iteration - 1  # two skipped solves at least
    np.testing.assert_array_equal(idle[0], 0.0)
    assert idle[1].any()
    assert all(a.tobytes() != b.tobytes() for a, b in zip(idle, idle[1:]))
    for ocp, sol in zip(ocps, sols):
        fresh = solve_inner(ocp, state.lambdas[ocp.agents]).solution
        np.testing.assert_allclose(sol.u_star, fresh.u_star, rtol=0, atol=1e-12)


def test_run_admm_kept_answers_are_those_at_the_final_multiplier(monkeypatch):
    # binding coupling: the multiplier moves, and no group is solved twice in a row at one
    agent = scalar_agent()
    Px, Pu = np.zeros((1, 1)), np.ones((1, 1))
    ocp = condense(agent_group(agent, synthesize(agent), tighten_local_sets(agent, 2),
                               [Px, Px], [Pu, Pu], 2), [[-3.0], [-3.0]], b_share=np.zeros(2))
    calls = recorded_solves(monkeypatch)
    params = SolverParams(rho=1.0, gamma=1.0, max_iter=2000, tol_primal=1e-6, tol_dual=1e-6)
    (sol,), state, converged = run_admm([ocp], params)
    assert converged and np.all(state.lambdas > 0)
    assert all(a.tobytes() != b.tobytes() for a, b in zip(calls, calls[1:]))
    assert len(calls) <= state.iteration + 1
    fresh = solve_inner(ocp, state.lambdas).solution
    np.testing.assert_allclose(sol.u_star, fresh.u_star, rtol=0, atol=1e-12)


def test_run_admm_single_agent_projected_ascent_analytic():
    # one scalar agent, one binding coupling row: compare against a dual grid
    agent = scalar_agent(a=0.5, inp=5.0)
    ing = synthesize(agent)
    tz = tighten_local_sets(agent, 1)
    Px, Pu = np.zeros((1, 1)), np.ones((1, 1))
    b = np.array([-1.0])  # force u <= -1 while the free optimum pulls positive
    ocp = condense(one_agent(agent, ing, tz, Px, Pu, 1), [-3.0], b_share=b)
    params = SolverParams(rho=1.0, gamma=1.0, max_iter=5000,
                          tol_primal=1e-8, tol_dual=1e-8)
    sols, state, converged = run_admm([ocp], params)
    assert converged
    lam_star = state.lambdas[0][0]

    # oracle: maximize the dual function over a 1-D grid with refinement
    def dual_at(lam):
        sol = solve_one(ocp, np.array([lam]))
        return sol.J_star + lam * (ocp.coupling_values(sol.u_star[None])[0, 0] - b[0])

    grid = np.linspace(0.0, 10.0, 201)
    vals = [dual_at(g) for g in grid]
    coarse = grid[int(np.argmax(vals))]
    fine = np.linspace(max(0.0, coarse - 0.1), coarse + 0.1, 201)
    vals = [dual_at(g) for g in fine]
    lam_oracle = fine[int(np.argmax(vals))]
    assert lam_star == pytest.approx(lam_oracle, abs=2e-3)
    # primal consistent with the bound at the optimum
    assert ocp.coupling_values(sols[0].u_star)[0, 0] == pytest.approx(b[0], abs=1e-6)


def test_run_admm_deterministic(default_scenario, default_pipeline):
    sc, pipe = default_scenario, default_pipeline
    def once():
        return run_admm(fleet_ocps(sc, pipe, b_share=pipe.schedule.b / sc.M), sc.solver)
    s1, st1, _ = once()
    s2, st2, _ = once()
    assert st1.iteration == st2.iteration
    for a, b2 in zip(st1.lambdas, st2.lambdas):
        np.testing.assert_array_equal(a, b2)
    for x, y in zip(s1, s2):
        np.testing.assert_array_equal(x.u_star, y.u_star)


def test_lambda_nonnegative_throughout():
    b = np.zeros(2)
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
    path = tmp_path / "admm_trace.csv"
    _, state, _ = run_admm(fleet_ocps(sc, pipe, b_share=pipe.schedule.b / sc.M), sc.solver,
                           trace_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,primal_res,dual_res,total_cost"
    assert len(lines) == 1 + state.iteration


def test_user_tau_below_floor_rejected():
    agent = scalar_agent()
    ing = synthesize(agent)
    tz = tighten_local_sets(agent, 2)
    Px, Pu = np.zeros((1, 1)), np.ones((1, 1))
    ocps = [condense(agent_group(agent, ing, tz, [Px, Px], [Pu, Pu], 2), [[-1.0], [-1.0]],
                     b_share=np.zeros(2))]
    params = SolverParams(rho=1.0, tau=0.5)  # below rho * sigma_max(E'E) = 2
    with pytest.raises(ValueError, match="tau"):
        run_admm(ocps, params)


@st.composite
def certificate_cases(draw):
    """Fleets of one to five agents over two scalar models in random order, their
    states (|x0| >= 0.1, so that the cost is not about 0), random coupled rows, and
    each row's right-hand side as an offset from its value at lambda = 0, kept off 0
    (the certificate holds where every offset is > 0)."""
    models = [scalar_agent(a=draw(st.floats(0.3, 1.2)), inp=draw(st.floats(1.0, 5.0)))
              for _ in range(2)]
    labels = draw(st.lists(st.integers(0, 1), min_size=1, max_size=5))
    N, p = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    coef = st.floats(-1.0, 1.0)
    agents = tuple(models[k] for k in labels)
    coupling = CouplingSpec(
        Psi_x=tuple(np.array([[draw(coef)] for _ in range(p)]) for _ in agents),
        Psi_u=tuple(np.array([[draw(coef)] for _ in range(p)]) for _ in agents), p=p)
    sign = st.sampled_from([-1.0, 1.0])
    x0 = tuple(np.array([draw(sign) * draw(st.floats(0.1, 1.5))]) for _ in agents)
    offset = np.array([draw(st.floats(1e-6, 0.5)) for _ in range(N * p)])
    if not draw(st.booleans()):  # a binding case: some rows, one at least, break
        broken = draw(st.lists(st.integers(0, N * p - 1), min_size=1))
        offset[broken] *= -1.0
    return Scenario(agents=agents, coupling=coupling, N=N, T_run=1, x0=x0), offset


@settings(max_examples=40, deadline=None)
@given(certificate_cases())
def test_run_admm_certifies_a_slack_row_at_lambda_zero(case):
    # where the answers at lambda = 0 keep every row they are the coupled optimum, and
    # run_admm returns them at iteration 0; a row they break makes it iterate
    sc, offset = case
    ings = [synthesize(agent) for agent in sc.agents]
    tight = [tighten_local_sets(agent, sc.N) for agent in sc.agents]
    groups = agent_groups(sc, ings, tight)
    free = [solve_inner(condense(grp, [sc.x0[i] for i in grp.index.tolist()]),
                        np.zeros((grp.index.size, sc.N * sc.coupling.p))) for grp in groups]
    assume(all(flag == "converged" for res in free for flag in res.flags))
    b = sum(res.ocp.coupling_values(res.u).sum(axis=0) for res in free) + offset
    ocps = [dataclasses.replace(res.ocp, b_share=b / sc.M) for res in free]
    sols, state, converged = run_admm(ocps, SolverParams(max_iter=3))
    if np.all(offset > 0.0):
        assert converged and state.iteration == 0
        assert state.primal_residual == state.dual_residual == 0.0
        np.testing.assert_array_equal(state.lambdas, 0.0)
        np.testing.assert_array_equal(state.omega, 0.0)
        assert np.all(state.coupling_excess <= 0.0)
        for sol, res in zip(sols, free):
            np.testing.assert_array_equal(sol.u_star, res.u)
        sched = ToleranceSchedule(eps=np.zeros(sc.N + 1), b=b, p=sc.coupling.p)
        _, central = solve_centralized(sc, ings, tight, sched, sc.x0)
        total = sum(float(sol.J_star.sum()) for sol in sols)
        assert abs(total - central) <= 5e-3 * abs(central)
    else:
        assert state.iteration >= 1
