"""Inner answers are the QP optimum: KKT conditions on the golden runs, and the
polish against a splitting solve run to 1e-13."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tube_dmpc import dual_admm
from tube_dmpc.local_solver import (KKT_TOL, PolishSetup, agent_group, condense,
                                    feedback_guess, polish, solve_inner, split_iterate)
from tube_dmpc.model import AgentModel, HPolytope, validate_scenario
from tube_dmpc.simulator import prepare, run_closed_loop
from tube_dmpc.synthesis import TerminalIngredients
from tube_dmpc.tightening import tighten_local_sets

from conftest import binding_raw, load_raw

KKT_LEVEL = 1e-9


def kkt_violations(ocp, j, lam, u) -> dict:
    """Row j's KKT residuals at u, with multipliers recovered from the rows near their bound.

    The halfspace rows are normalized; a row within KKT_LEVEL of its bound
    counts as active, and so does the terminal ball within KKT_LEVEL of its
    radius. The multipliers are the least-squares fit of stationarity on
    the active rows.
    """
    g = ocp.group
    grad = g.H @ u + ocp.q[j] + ocp.F[j].T @ lam
    norms = np.linalg.norm(g.rows_C, axis=1)
    rows = norms > 0
    A = g.rows_C[rows] / norms[rows, None]
    slack = A @ u - ocp.rows_rhs[j][rows] / norms[rows]
    centre = g.ball_C @ u + ocp.ball_off[j]
    ball_slack = np.linalg.norm(centre) - g.ing.eps_r
    active = np.abs(slack) <= KKT_LEVEL
    normals, gaps = [A[active].T], [slack[active]]
    if abs(ball_slack) <= KKT_LEVEL:
        normals.append((g.ball_C.T @ centre / np.linalg.norm(centre))[:, None])
        gaps.append([ball_slack])
    J, gap = np.hstack(normals), np.concatenate(gaps)
    mu = np.linalg.lstsq(J, -grad, rcond=None)[0] if gap.size else gap
    scale = max(1.0, np.abs(ocp.q[j] + ocp.F[j].T @ lam).max())
    return {
        "stationarity": np.abs(grad + J @ mu).max() / scale,
        "primal": max(slack.max(initial=0.0), ball_slack, 0.0),
        "complementarity": np.abs(mu * gap).max(initial=0.0),
        "dual_sign": max(-mu.min(initial=0.0), 0.0),
    }


@pytest.mark.parametrize("scenario", ["four_agent.yaml", "mixed_six.yaml"])
@pytest.mark.parametrize("mode", ["self-triggered", "periodic"])
def test_golden_run_answers_satisfy_kkt(monkeypatch, scenario, mode):
    sc = validate_scenario(load_raw(scenario))
    sc = replace(sc, trigger_mode=mode)
    answers = []

    def recording(ocp, lams, *args, **kwargs):
        result = solve_inner(ocp, lams, *args, **kwargs)
        answers.append((np.array(lams), result))
        return result

    monkeypatch.setattr(dual_admm, "solve_inner", recording)
    run_closed_loop(sc, pipeline=prepare(sc))
    assert answers
    for lams, result in answers:
        for j in range(result.u.shape[0]):
            worst = kkt_violations(result.ocp, j, lams[j], result.u[j])
            assert max(worst.values()) <= KKT_LEVEL, (j, worst)


@pytest.fixture(scope="module")
def ball_groups(default_scenario, default_pipeline):
    """The default agent's group at its own terminal radius and at a tenth of it."""
    sc, pipe = default_scenario, default_pipeline
    ing = pipe.ingredients[0]
    return {factor: agent_group(sc.agents[0], replace(ing, eps_r=ing.eps_r * factor),
                                pipe.tightened[0], [sc.coupling.Psi_x[0]],
                                [sc.coupling.Psi_u[0]], sc.N)
            for factor in (1.0, 0.1)}


# at a tenth of the radius this state ends its plan on the terminal ball
BALL_ACTIVE = (10.7, -3.4, 0.1, [0.0] * 10)


@settings(max_examples=40, deadline=None)
@given(st.floats(-12.0, 12.0), st.floats(-4.5, 4.5), st.sampled_from([1.0, 0.1]),
       st.lists(st.floats(0.0, 3.0), min_size=10, max_size=10))
@example(*BALL_ACTIVE)
def test_polish_matches_tight_splitting(ball_groups, x1, x2, factor, lam):
    # a polished answer is the optimum to rounding, on the terminal ball as off it
    group = ball_groups[factor]
    ocp = condense(group, [[x1, x2]])
    lam = np.array(lam)
    result = solve_inner(ocp, [lam])
    G = (ocp.q[0] + ocp.F[0].T @ lam)[:, None]
    ref, _, _, flags = split_iterate(group.split, G, ocp.rows_rhs.T, [ocp.ball_off.T],
                                     1e-13, 400000)
    if flags != ["converged"]:
        return  # no reference: the state has no feasible plan, or hardly one
    u_ref = ref[:, 0]
    scale = max(1.0, np.abs(u_ref).max())
    on_ball = np.linalg.norm(group.ball_C @ u_ref + ocp.ball_off[0]) >= group.ing.eps_r - 1e-9
    if on_ball:
        assert abs(result.ball[0]) <= 1e-9
    assert result.polished[0] and result.iterations == 0
    assert result.flags == ["converged"]
    np.testing.assert_allclose(result.u[0], u_ref, rtol=0, atol=1e-11 * scale)


def test_ball_guess_on_an_inside_answer_stays_at_zero(default_scenario, ball_groups):
    # the scenario's states at multiplier 0, on their feedback-plan rows, end their plans
    # inside the terminal ball; guessing the ball active there, the Newton step on nu is
    # clamped at 0 and the polish returns the answers of the halfspace case
    group = ball_groups[1.0]
    pol, eps = group.polish, group.ing.eps_r
    ocp = condense(group, default_scenario.x0, [0] * len(default_scenario.x0))
    G, guess = ocp.q.T, feedback_guess(ocp).T
    U0, CU0 = -(pol.H_inv @ G), -(pol.CH_inv @ G)
    b = ocp.rows_rhs.T * group.split.row_scale[:, None]
    Y0 = group.ball_C @ U0 + ocp.ball_off.T
    halfspace = polish(pol, U0, CU0, b, guess)
    assert guess.any() and halfspace[4].all()
    assert (np.linalg.norm(group.ball_C @ halfspace[0] + ocp.ball_off.T, axis=0) < eps).all()
    on_ball = polish(pol, U0, CU0, b, guess, np.ones(G.shape[1], dtype=bool), Y0, eps)
    assert on_ball[3].tolist() == [0.0] * G.shape[1]
    for single, both in zip(halfspace, on_ball):
        np.testing.assert_array_equal(both, single)


def test_empty_guess_runs_no_cg_step(default_scenario, default_pipeline, monkeypatch):
    group = default_pipeline.groups[0]
    pol, rows = group.polish, group.polish.schur.shape[0]
    rng = np.random.default_rng(4)
    G, b = rng.normal(size=(group.H.shape[0], 3)), rng.normal(size=(rows, 3))
    U0, CU0 = -(pol.H_inv @ G), -(pol.CH_inv @ G)
    steps, vecdot = [], np.vecdot

    def counting_vecdot(*args, **kwargs):  # every CG step takes two inner products
        steps.append(1)
        return vecdot(*args, **kwargs)

    monkeypatch.setattr(np, "vecdot", counting_vecdot)

    empty = np.zeros((rows, 3), dtype=bool)
    U, mu, slack, nu, kkt = polish(pol, U0, CU0, b, empty)
    assert not steps
    assert np.all(mu == 0.0) and np.all(nu == 0.0)
    assert U.tobytes() == U0.tobytes()
    assert slack.tobytes() == (CU0 - b).tobytes()
    assert kkt.tolist() == (CU0 - b <= KKT_TOL * np.maximum(1.0, np.abs(b))).all(axis=0).tolist()

    # one column guesses the first rows of the u(0) and u(1) blocks: CG runs, holds them
    # tight with the multipliers of the direct solve, and leaves the empty columns as above
    n_input = default_scenario.agents[0].U.G.shape[0]
    first = rows - default_scenario.N * n_input
    mixed = empty.copy()
    mixed[[first, first + n_input], 1] = True
    U, mu, slack, _, _ = polish(pol, U0, CU0, b, mixed)
    assert steps
    A = mixed[:, 1]
    mu_ref = np.linalg.solve(pol.schur[np.ix_(A, A)], CU0[A, 1] - b[A, 1])
    np.testing.assert_allclose(mu[A, 1], mu_ref, rtol=1e-9)
    np.testing.assert_allclose(slack[A, 1], 0.0, atol=1e-9 * np.abs(b[A, 1]).max())
    assert np.all(mu[~A, 1] == 0.0)
    for j in (0, 2):
        assert np.all(mu[:, j] == 0.0)
        np.testing.assert_array_equal(U[:, j], U0[:, j])
        np.testing.assert_array_equal(slack[:, j], CU0[:, j] - b[:, j])


def test_overflowing_guess_is_refused_without_warning():
    # H^-1 = diag(1, 1e-310) with C_r = I: guessing both rows, column 0's CG step divides by
    # a subnormal curvature and overflows; it is refused as unguessed (mu = 0, U = U0), and
    # column 1, whose guess holds row 0 only, keeps the answer it gets alone (pytest turns a
    # RuntimeWarning into an error)
    H_inv = np.diag([1.0, 1e-310])
    pol = PolishSetup(H_inv=H_inv, CH_inv=H_inv, schur=H_inv, ball_V=np.eye(1),
                      ball_eig=np.zeros(1), ball_H_inv=np.zeros((1, 2)),
                      ball_E=np.zeros((2, 1)))
    U0 = np.array([[0.0, 3.0], [2.0, 0.5]])
    b = np.array([[0.0, 1.0], [1.0, 1.0]])
    active = np.array([[True, True], [True, False]])
    U, mu, slack, nu, kkt = polish(pol, U0, U0, b, active)
    assert kkt.tolist() == [False, True]
    assert np.all(mu[:, 0] == 0.0) and U[:, 0].tolist() == U0[:, 0].tolist()
    assert slack[:, 0].tolist() == (U0 - b)[:, 0].tolist()
    alone = polish(pol, U0[:, 1:], U0[:, 1:], b[:, 1:], active[:, 1:])
    for full, single in zip((U, mu, slack, nu, kkt), alone):
        assert full[..., 1:].tobytes() == single.tobytes()
    np.testing.assert_allclose(U[:, 1], [1.0, 0.5])


def test_newton_step_on_an_underflowing_slope_is_skipped():
    # from this state the inputs cannot steer z(2) into the terminal ball: guessing the ball
    # active, nu climbs to about 5e107 and the slope of ||y(nu)|| underflows to about
    # -1e-323, which times radius 0.1 rounds to -0; the step is skipped (no division by zero,
    # which pytest turns into an error), and the column is flagged infeasible after its
    # rounds and a split
    agent = AgentModel(
        A=np.array([[0.7834392969455922, 0.6930901328143817, 0.0],
                    [5.724605557466005e-07, 0.0, 0.7384063120873312],
                    [0.7169633226455507, 0.0, -0.09227998947593978]]),
        B=np.array([[0.220703125], [-0.1953125], [-1.25]]), w_bar=0.03240100159528208,
        X=HPolytope.box([3.0830187680720487, 3.0, 3.0]), U=HPolytope.box([1.5]),
        Q=0.1 * np.eye(3), R=np.array([[0.1]]))
    ing = TerminalIngredients(
        K=np.zeros((1, 3)),
        P=np.array([[0.46187744140625, -0.768402099609375, 0.0],
                    [-0.768402099609375, 3.2169586181640626, 0.41362237039592414],
                    [0.0, 0.41362237039592414, 0.21518045263573288]]),
        r=1.0, eps_r=0.1, contraction=0.5)
    group = agent_group(agent, ing, tighten_local_sets(agent, 2), [np.zeros((1, 3))],
                        [np.zeros((1, 1))], 2)
    result = solve_inner(condense(group, [[1.390625] * 3]), np.zeros((1, group.F.shape[1])))
    assert result.flags == ["infeasible"] and result.rounds.tolist() == [3]
    assert not result.polished.any() and result.solution.status == ("infeasible",)


@pytest.fixture(scope="module")
def binding_group():
    """The group and x0 of the binding instance (conftest.binding_raw)."""
    sc = validate_scenario(binding_raw())
    (group,) = prepare(sc).groups
    return group, sc.x0


@pytest.mark.parametrize("lam0", [1000.0, 1500.0])
def test_binding_instance_is_polished_on_the_ball(binding_group, lam0):
    # near the dual optimum agents 2 and 3 end their plans on the terminal ball: round 1
    # refuses them, round 2 guesses the ball active and polishes them; nothing splits,
    # and every answer is the optimum of a splitting solve run to 1e-13
    group, x0 = binding_group
    ocp = condense(group, x0)
    lams = np.zeros((4, group.F.shape[1]))
    lams[:, 0] = lam0
    result = solve_inner(ocp, lams)
    assert result.polished.all() and result.iterations == 0
    assert result.rounds.tolist() == [1, 1, 2, 2]
    assert (result.ball[:2] < 0.0).all()
    assert np.abs(result.ball[2:]).max() <= KKT_TOL * max(1.0, group.ing.eps_r)
    assert result.solution.status == ("optimal",) * 4
    G = (ocp.q + (ocp.F.transpose(0, 2, 1) @ lams[:, :, None])[:, :, 0]).T
    ref, _, _, flags = split_iterate(group.split, G, ocp.rows_rhs.T, [ocp.ball_off.T],
                                     1e-13, 400000)
    assert flags == ["converged"] * 4
    scale = np.maximum(1.0, np.abs(ref).max(axis=0))
    assert (np.abs(result.u - ref.T).max(axis=1) <= 1e-11 * scale).all()
