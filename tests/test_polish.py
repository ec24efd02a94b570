"""Inner answers are the QP optimum: KKT conditions on the golden runs, and the
polish against a splitting solve run to 1e-13."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tube_dmpc import dual_admm
from tube_dmpc.local_solver import agent_group, condense, solve_inner, split_iterate
from tube_dmpc.model import validate_scenario
from tube_dmpc.simulator import prepare, run_closed_loop

from conftest import load_raw

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
    # a polished answer is the optimum to rounding; an answer on the terminal ball
    # is never polished: it comes from splitting on to the inner tolerance
    group = ball_groups[factor]
    ocp = condense(group, [[x1, x2]])
    lam = np.array(lam)
    result = solve_inner(ocp, [lam])
    G = (ocp.q[0] + ocp.F[0].T @ lam)[:, None]
    ref, _, _, _, _, flags = split_iterate(group.split, G, ocp.rows_rhs.T, [ocp.ball_off.T],
                                           1e-13, 400000)
    if flags != ["converged"]:
        return  # no reference: the state has no feasible plan, or hardly one
    u_ref = ref[:, 0]
    scale = max(1.0, np.abs(u_ref).max())
    on_ball = np.linalg.norm(group.ball_C @ u_ref + ocp.ball_off[0]) >= group.ing.eps_r - 1e-9
    if on_ball:
        assert not result.polished[0]
        assert result.flags == ["converged"]
        np.testing.assert_allclose(result.u[0], u_ref, rtol=0, atol=1e-5 * scale)
    if result.polished[0]:
        np.testing.assert_allclose(result.u[0], u_ref, rtol=0, atol=1e-11 * scale)
