import numpy as np
import pytest

from tube_dmpc.model import AgentModel, HPolytope
from tube_dmpc.synthesis import synthesize
from tube_dmpc.local_solver import condense
from tube_dmpc.tightening import (TighteningError, coupling_terms, schedule_values,
                                  tighten_local_sets, tolerance_schedule)


def box_agent(A, B, w_bar=0.0, state=10.0, inp=10.0, box=None):
    A = np.atleast_2d(np.asarray(A, float))
    B = np.asarray(B, float).reshape(A.shape[0], -1)
    return AgentModel(A=A, B=B, w_bar=w_bar,
                      X=HPolytope.box([state] * A.shape[0]),
                      U=HPolytope.box([inp] * B.shape[1]),
                      Q=np.eye(A.shape[0]), R=np.eye(B.shape[1]),
                      box_half_widths=None if box is None else np.asarray(box, float))


def test_schedule_zero_disturbance(nominal_scenario):
    ings = [synthesize(agent) for agent in nominal_scenario.agents]
    sched = tolerance_schedule(nominal_scenario, ings)
    np.testing.assert_array_equal(sched.eps, np.zeros(nominal_scenario.N + 1))
    np.testing.assert_array_equal(sched.b, np.ones(nominal_scenario.coupling.p
                                                   * nominal_scenario.N))


def test_schedule_step_zero_is_zero(default_scenario, default_pipeline):
    eps = schedule_values(default_scenario, default_pipeline.ingredients)
    assert eps[0] == 0.0


def test_schedule_first_step_oracle(default_scenario, default_pipeline):
    # direct evaluation with an independently computed spectral norm of A;
    # eps(1) has no ||A|| dependence: 4 * ||[0.008, 0.002]|| * w_bar
    eps = schedule_values(default_scenario, default_pipeline.ingredients)
    w_bar = 0.3 * np.sqrt(2)
    oracle1 = 4 * np.sqrt(0.008 ** 2 + 0.002 ** 2) * w_bar
    assert eps[1] == pytest.approx(oracle1, rel=1e-12)
    assert oracle1 == pytest.approx(0.0140, abs=5e-5)

    A = default_scenario.agents[0].A
    norm_A = np.sqrt(np.linalg.eigvalsh(A.T @ A).max())  # eigendecomposition route
    for l in range(2, 6):
        if l < 5:
            oracle = 4 * np.sqrt(0.008 ** 2 + 0.002 ** 2) * w_bar \
                * (norm_A ** l - 1) / (norm_A - 1)
            assert eps[l] == pytest.approx(oracle, rel=1e-10)
    # terminal entry uses the Psi_x + Psi_u K rows
    gains = [ing.K for ing in default_pipeline.ingredients]
    oracleN = sum(
        np.max(np.linalg.norm(Px + Pu @ K, axis=1)) * w_bar
        * (norm_A ** 5 - 1) / (norm_A - 1)
        for Px, Pu, K in zip(default_scenario.coupling.Psi_x,
                             default_scenario.coupling.Psi_u, gains))
    assert eps[5] == pytest.approx(oracleN, rel=1e-10)


def test_schedule_monotone(default_scenario, default_pipeline):
    eps = schedule_values(default_scenario, default_pipeline.ingredients)
    assert np.all(np.diff(eps) > 0)
    assert eps[-1] < 1.0


def test_schedule_infeasible_raises(default_scenario, default_pipeline):
    sc = default_scenario.with_w_bar_scaled(100.0)
    with pytest.raises(TighteningError, match="infeasible tightening"):
        tolerance_schedule(sc, default_pipeline.ingredients)


def test_tighten_zero_disturbance_keeps_sets(nominal_scenario):
    agent = nominal_scenario.agents[0]
    tz = tighten_local_sets(agent, nominal_scenario.N)
    for Z in tz.Z:
        np.testing.assert_array_equal(Z.G, agent.X.G)
        np.testing.assert_array_equal(Z.h, agent.X.h)


def test_tighten_identity_dynamics_offsets():
    agent = box_agent(np.eye(2), np.eye(2), w_bar=0.1, state=1.0)
    tz = tighten_local_sets(agent, 4)
    np.testing.assert_allclose(tz.Z[3].h, 0.7 * np.ones(4), rtol=1e-12)
    np.testing.assert_allclose(tz.Z[1].h, 0.9 * np.ones(4), rtol=1e-12)


def test_tighten_identity_monte_carlo_sound():
    # sampled l-step error sums never push a tightened point past the face
    agent = box_agent(np.eye(2), np.eye(2), w_bar=0.1, state=1.0)
    tz = tighten_local_sets(agent, 4)
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(100000, 3, 2))
    dirs /= np.linalg.norm(dirs, axis=2)[:, :, None]
    radii = 0.1 * rng.uniform(size=(100000, 3, 1)) ** 0.5
    errors = (dirs * radii).sum(axis=1)  # A = I: plain sums of ball samples
    face_max = errors.max()  # worst value of g'e for axis-aligned g
    assert tz.Z[3].h[0] + face_max <= 1.0 + 1e-9


def test_tighten_nesting(default_scenario, default_pipeline):
    for agent in default_scenario.agents:
        tz = tighten_local_sets(agent, default_scenario.N)
        for Za, Zb in zip(tz.Z, tz.Z[1:]):
            assert np.all(Zb.h <= Za.h + 1e-15)


def test_tighten_infeasible_reported():
    agent = box_agent(2.0 * np.eye(2), np.eye(2), w_bar=1.0, state=1.0)
    with pytest.raises(TighteningError, match="infeasible at step"):
        tighten_local_sets(agent, 4)


def test_coupling_terms_zero():
    agent = box_agent([[0.5]], [[1.0]])
    Px, Pu = np.array([[1.0]]), np.array([[0.0]])
    f = coupling_terms(agent, Px, Pu, [0.0], np.zeros(3))
    np.testing.assert_array_equal(f, np.zeros(3))


def test_coupling_terms_single_block_is_x0():
    agent = box_agent(np.eye(2), np.eye(2))
    Px, Pu = np.eye(2), np.zeros((2, 2))
    f = coupling_terms(agent, Px, Pu, [3.0, -1.0], np.zeros(2))
    np.testing.assert_array_equal(f, [3.0, -1.0])


def test_coupling_terms_open_loop_matrix_power_oracle(default_scenario):
    agent = default_scenario.agents[0]
    Px, Pu = default_scenario.coupling.Psi_x[0], default_scenario.coupling.Psi_u[0]
    x0 = np.array([-10.0, -4.0])
    N = default_scenario.N
    f = coupling_terms(agent, Px, Pu, x0, np.zeros(N))
    oracle = np.concatenate([Px @ (np.linalg.matrix_power(agent.A, l) @ x0)
                             for l in range(N)])
    np.testing.assert_allclose(f, oracle, atol=1e-12)


def test_coupling_affine_consistency(default_scenario, default_pipeline):
    # the condensed coupling map f0 + F u against direct simulation
    agent = default_scenario.agents[1]
    ing, tz = default_pipeline.ingredients[1], default_pipeline.tightened[1]
    Px, Pu = default_scenario.coupling.Psi_x[1], default_scenario.coupling.Psi_u[1]
    N = default_scenario.N
    rng = np.random.default_rng(11)
    for _ in range(25):
        x0 = rng.uniform(-5, 5, size=2)
        u = rng.uniform(-2, 2, size=N)
        direct = coupling_terms(agent, Px, Pu, x0, u)
        ocp = condense(agent, ing, tz, Px, Pu, x0, N)
        np.testing.assert_allclose(direct, ocp.coupling_values(u), atol=1e-12)


def test_tightening_soundness_sampled(default_scenario, default_pipeline):
    # sum_i Psi_x e^i(l) <= eps(l) * 1_p for sampled disturbance trajectories
    sc = default_scenario
    eps = schedule_values(sc, default_pipeline.ingredients)
    rng = np.random.default_rng(5)
    n_samples = 10000
    for l in range(1, sc.N + 1):
        total = np.zeros((n_samples, sc.coupling.p))
        for i, agent in enumerate(sc.agents):
            e = np.zeros((n_samples, agent.n))
            for j in range(l):
                w = rng.uniform(-0.3, 0.3, size=(n_samples, agent.n))
                e = e @ agent.A.T + w
            Psi = sc.coupling.Psi_x[i] if l < sc.N else (
                sc.coupling.Psi_x[i] + sc.coupling.Psi_u[i] @ default_pipeline.ingredients[i].K)
            total += e @ Psi.T
        assert total.max() <= eps[l] + 1e-12


def test_coupling_terms_dimension_errors():
    agent = box_agent([[0.5]], [[1.0]])
    Px, Pu = np.array([[1.0]]), np.array([[0.0]])
    with pytest.raises(TighteningError, match="x0"):
        coupling_terms(agent, Px, Pu, [0.0, 1.0], np.zeros(3))
