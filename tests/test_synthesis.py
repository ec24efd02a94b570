import numpy as np
import pytest
from scipy import linalg as sla

from tube_dmpc.model import HPolytope
from tube_dmpc.synthesis import (certify, error_gain, lqr_gain, synthesize,
                                 terminal_radii, terminal_weight)
from tube_dmpc.tightening import schedule_values

from conftest import w_bar_scaled

A5 = np.array([[1.1, 0.12], [0.35, 0.0075]])
B5 = np.array([[1.5], [0.5]])
Q5 = np.eye(2)
R5 = np.array([[0.1]])


def scalar_dare_oracle(a, b, q, r, tol=1e-12):
    """Fixed-point iteration of the scalar Riccati recursion."""
    s = q
    for _ in range(10000):
        s_new = q + a * a * s - (a * b * s) ** 2 / (r + b * b * s)
        if abs(s_new - s) < tol:
            return s_new
        s = s_new
    raise AssertionError("oracle did not converge")


def test_gain_matches_reported_values():
    K = lqr_gain(A5, B5, Q5, R5)
    np.testing.assert_allclose(K, [[-0.7033, -0.0710]], atol=5e-3)


def test_gain_zero_dynamics():
    K = lqr_gain(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
    np.testing.assert_allclose(K, np.zeros((2, 2)), atol=1e-12)


def test_gain_scalar_against_fixed_point_oracle():
    s = scalar_dare_oracle(0.5, 1.0, 1.0, 1.0)
    k_oracle = -0.5 * s / (1.0 + s)
    K = lqr_gain([[0.5]], [[1.0]], [[1.0]], [[1.0]])
    assert K[0, 0] == pytest.approx(k_oracle, abs=1e-9)
    assert k_oracle == pytest.approx(-0.2655644370746374, abs=1e-12)


def test_gain_against_scipy_route():
    S = sla.solve_discrete_are(A5, B5, Q5, R5)
    K_ref = -np.linalg.solve(R5 + B5.T @ S @ B5, B5.T @ S @ A5)
    np.testing.assert_allclose(lqr_gain(A5, B5, Q5, R5), K_ref, atol=1e-9)


def test_terminal_weight_matches_reported_values():
    K = lqr_gain(A5, B5, Q5, R5)
    P = terminal_weight(A5, B5, K, Q5, R5)
    np.testing.assert_allclose(P, [[1.0516, 0.0057], [0.0057, 1.0015]], atol=1e-3)


def test_terminal_weight_deadbeat():
    # A + BK = 0: the series has a single term
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.eye(2)
    K = -A
    P = terminal_weight(A, B, K, np.eye(2), 0.5 * np.eye(2))
    np.testing.assert_allclose(P, np.eye(2) + K.T @ (0.5 * np.eye(2)) @ K, atol=1e-12)


def test_terminal_weight_scalar_geometric():
    P = terminal_weight([[0.5]], [[0.0]], [[0.0]], [[1.0]], [[1.0]])
    assert P[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_terminal_weight_against_scipy_route():
    K = lqr_gain(A5, B5, Q5, R5)
    Acl = A5 + B5 @ K
    ref = sla.solve_discrete_lyapunov(Acl.T, Q5 + K.T @ R5 @ K)
    np.testing.assert_allclose(terminal_weight(A5, B5, K, Q5, R5), ref, atol=1e-9)


def test_lyapunov_residual_invariant(default_pipeline, default_scenario):
    for agent, ing in zip(default_scenario.agents, default_pipeline.ingredients):
        Acl = agent.A + agent.B @ ing.K
        res = Acl.T @ ing.P @ Acl + agent.Q + ing.K.T @ agent.R @ ing.K - ing.P
        assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(ing.P)


def test_radii_unit_box_identity_weight():
    X = HPolytope.box([1.0, 1.0])
    U = HPolytope.box([1e9])
    r, eps_r = terminal_radii(np.eye(2), np.zeros((1, 2)), np.eye(2), X, U)
    assert r == pytest.approx(1.0)
    assert eps_r < r


def test_radii_scale_homogeneous():
    X = HPolytope.box([20.0, 5.0])
    U = HPolytope.box([2.0])
    K = lqr_gain(A5, B5, Q5, R5)
    P = terminal_weight(A5, B5, K, Q5, R5)
    r1, _ = terminal_radii(P, K, Q5, X, U)
    r2, _ = terminal_radii(P, K, Q5, HPolytope.box([40.0, 10.0]), HPolytope.box([4.0]))
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


def test_ellipsoid_containment_sampled(default_pipeline, default_scenario):
    # 1e4 boundary points of the r-ellipsoid stay in X and map into U under K
    agent = default_scenario.agents[0]
    ing = default_pipeline.ingredients[0]
    rng = np.random.default_rng(42)
    dirs = rng.normal(size=(10000, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    L = np.linalg.cholesky(ing.P)
    pts = ing.r * np.linalg.solve(L.T, dirs.T).T  # ||pts||_P = r
    assert np.all(agent.X.G @ pts.T <= agent.X.h[:, None] + 1e-9)
    assert np.all(agent.U.G @ (ing.K @ pts.T) <= agent.U.h[:, None] + 1e-9)


def test_one_step_contraction(default_pipeline, default_scenario):
    agent = default_scenario.agents[0]
    ing = default_pipeline.ingredients[0]
    Acl = agent.A + agent.B @ ing.K
    rng = np.random.default_rng(7)
    dirs = rng.normal(size=(2000, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    L = np.linalg.cholesky(ing.P)
    pts = (rng.uniform(size=(2000, 1)) * ing.r) * np.linalg.solve(L.T, dirs.T).T
    for z in pts:
        before = z @ ing.P @ z
        after = (Acl @ z) @ ing.P @ (Acl @ z)
        assert after <= ing.contraction * before + 1e-12
    # consequently the eps_r = sqrt(kappa) r image stays inside the eps-ball
    assert np.sqrt(ing.contraction) * ing.r == pytest.approx(ing.eps_r)


def test_error_gain_branches():
    assert error_gain(1.0, 4) == 4
    assert error_gain(2.0, 3) == pytest.approx(7.0)      # 1 + 2 + 4
    assert error_gain(0.5, 3) == pytest.approx(1.75)     # 1 + .5 + .25
    assert error_gain(1.0 + 1e-12, 5) == 5               # within the ==1 tolerance


def test_certify_default_scenario(default_scenario, default_pipeline):
    report = default_pipeline.certificate
    assert report.overall_ok
    assert all(a.global_ok for a in report.agents)
    assert all(a.invariance_ok for a in report.agents)
    assert report.schedule_ok and not report.schedule_vacuous
    assert report.terminal_ok
    # the strict N-step re-planning bound is not met by this data; it is
    # reported but does not gate
    assert not report.strict_local_all_ok


def test_certify_zero_disturbance(nominal_scenario):
    ings = [synthesize(agent) for agent in nominal_scenario.agents]
    report = certify(nominal_scenario, ings, schedule_values(nominal_scenario, ings))
    assert report.overall_ok
    assert report.schedule_vacuous
    assert report.strict_local_all_ok
    assert all(a.local_margin > 0 for a in report.agents)
    assert all(a.global_margin > 0 for a in report.agents)
    assert all(a.invariance_margin > 0 for a in report.agents)


def test_certify_huge_disturbance(default_scenario, default_pipeline):
    sc = w_bar_scaled(default_scenario, 1e3 / default_scenario.agents[0].w_bar)
    report = certify(sc, default_pipeline.ingredients,
                     schedule_values(sc, default_pipeline.ingredients))
    assert not report.overall_ok
    assert all(a.local_margin < 0 for a in report.agents)
    assert all(a.global_margin < 0 for a in report.agents)


def test_certify_monotone_in_w_bar(default_scenario, default_pipeline):
    # passing at w_bar implies passing at any smaller w_bar
    report = default_pipeline.certificate
    sc = w_bar_scaled(default_scenario, 0.5)
    smaller = certify(sc, default_pipeline.ingredients,
                      schedule_values(sc, default_pipeline.ingredients))
    for a, b in zip(report.agents, smaller.agents):
        assert b.global_margin >= a.global_margin
        assert b.invariance_margin >= a.invariance_margin
        assert b.local_margin >= a.local_margin
    assert smaller.overall_ok


def test_contraction_factor_in_unit_interval(default_pipeline):
    for ing in default_pipeline.ingredients:
        assert 0.0 < ing.contraction < 1.0


def test_gain_rejects_unstabilizable_pair():
    # unstable second mode that B cannot reach
    A = np.array([[0.5, 0.0], [0.0, 2.0]])
    B = np.array([[1.0], [0.0]])
    from tube_dmpc.synthesis import SynthesisError
    with pytest.raises(SynthesisError, match="stabilizable"):
        lqr_gain(A, B, np.eye(2), np.eye(1))
