import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tube_dmpc.dual_admm import run_admm
from tube_dmpc.model import AgentModel, HPolytope, validate_scenario
from tube_dmpc.simulator import prepare
from tube_dmpc.synthesis import TerminalIngredients, synthesize
from tube_dmpc.tightening import tighten_local_sets, ToleranceSchedule
from tube_dmpc.local_solver import (condense, rollout_maps, solve_centralized, solve_inner,
                                    split_iterate, split_setup)

from conftest import fleet_ocps, load_raw, one_agent, row, solve_one


def project_ball(s, radius):
    """Euclidean projection onto the origin-centered ball (radial scaling).

    split_iterate performs the same arithmetic inline on its ball blocks.
    """
    nrm = np.linalg.norm(s)
    if nrm <= radius:
        return s.copy()
    return s * (radius / nrm)


def dual_value(ocp, lam, sol):
    """Value of the concave dual function at lam given the inner minimizer."""
    return sol.J_star + float(lam @ (ocp.coupling_values(sol.u_star[None])[0] - ocp.b_share))


def make_agent(A, B, state=1e6, inp=1e6, w_bar=0.0):
    A = np.atleast_2d(np.asarray(A, float))
    B = np.asarray(B, float).reshape(A.shape[0], -1)
    return AgentModel(A=A, B=B, w_bar=w_bar,
                      X=HPolytope.box([state] * A.shape[0]),
                      U=HPolytope.box([inp] * B.shape[1]),
                      Q=np.eye(A.shape[0]), R=np.eye(B.shape[1]))


def wide_ingredients(agent, eps_r=1e6):
    ing = synthesize(agent)
    return TerminalIngredients(K=ing.K, P=ing.P, r=ing.r, eps_r=eps_r,
                               contraction=ing.contraction)


def plain_ocp(agent, ing, x0, N):
    tz = tighten_local_sets(agent, N)
    p = 1
    return condense(one_agent(agent, ing, tz, np.zeros((p, agent.n)),
                              np.zeros((p, agent.m)), N), x0)


def test_rollout_structure():
    A = np.array([[1.1, 0.12], [0.35, 0.0075]])
    B = np.array([[1.5], [0.5]])
    Phi, Gamma = rollout_maps(A, B, 3)
    np.testing.assert_array_equal(Phi[0], np.eye(2))
    np.testing.assert_array_equal(Gamma[0], np.zeros((2, 3)))
    np.testing.assert_allclose(Phi[2], A @ A)
    np.testing.assert_allclose(Gamma[2][:, 0], (A @ B).ravel())
    np.testing.assert_allclose(Gamma[2][:, 1], B.ravel())
    np.testing.assert_allclose(Gamma[2][:, 2], np.zeros(2))


def test_condense_n1_hand_expansion():
    # scalar, N = 1: J = q x0^2 + r u^2 + p (a x0 + b u)^2
    a, b = 0.7, 1.3
    agent = make_agent([[a]], [[b]])
    ing = wide_ingredients(agent)
    p = ing.P[0, 0]
    ocp = plain_ocp(agent, ing, [2.0], 1)
    # J(u) = 0.5 H u^2 + q u + c0
    assert ocp.group.H[0, 0] == pytest.approx(2 * (1.0 + p * b * b))
    assert ocp.q[0, 0] == pytest.approx(2 * p * b * a * 2.0)
    assert ocp.c0[0] == pytest.approx(2.0 ** 2 + p * (a * 2.0) ** 2)


def test_origin_fixed_point():
    agent = make_agent([[0.5]], [[1.0]], state=10.0, inp=10.0)
    ing = synthesize(agent)
    ocp = plain_ocp(agent, ing, [0.0], 3)
    sol = solve_one(ocp, np.zeros(3))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u_star, np.zeros(3), atol=1e-7)
    assert sol.J_star == pytest.approx(0.0, abs=1e-10)


def test_unconstrained_matches_normal_equations():
    agent = make_agent([[1.1, 0.12], [0.35, 0.0075]], [[1.5], [0.5]])
    ing = wide_ingredients(agent)
    ocp = plain_ocp(agent, ing, [1.0, -2.0], 4)
    sol = solve_one(ocp, np.zeros(4))
    assert sol.status == "optimal"
    u_ref = -np.linalg.solve(ocp.group.H, ocp.q[0])
    np.testing.assert_allclose(sol.u_star, u_ref, atol=1e-6)


def test_saturated_inputs_match_grid_search():
    # integrator chain, |u| <= 1, far initial state: both inputs saturate
    agent = make_agent([[1.0]], [[1.0]], state=1e6, inp=1.0)
    ing = wide_ingredients(agent)
    ocp = plain_ocp(agent, ing, [10.0], 2)
    sol = solve_one(ocp, np.zeros(2))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u_star, [-1.0, -1.0], atol=1e-6)

    grid = np.linspace(-1.0, 1.0, 2001)
    U1, U2 = np.meshgrid(grid, grid, indexing="ij")
    p = ing.P[0, 0]
    z1 = 10.0 + U1
    z2 = z1 + U2
    J = 100.0 + U1 ** 2 + z1 ** 2 + U2 ** 2 + p * z2 ** 2
    idx = np.unravel_index(np.argmin(J), J.shape)
    assert (grid[idx[0]], grid[idx[1]]) == (-1.0, -1.0)
    assert sol.J_star == pytest.approx(J[idx], rel=1e-9)


def test_terminal_ball_constrains_solution():
    agent = make_agent([[1.0]], [[1.0]], state=1e6, inp=1e6)
    base = synthesize(agent)
    ing = TerminalIngredients(K=base.K, P=np.eye(1), r=base.r, eps_r=0.1,
                              contraction=base.contraction)
    ocp = plain_ocp(agent, ing, [5.0], 2)
    sol = solve_one(ocp, np.zeros(2))
    assert sol.status == "optimal"
    assert abs(sol.z_star[-1, 0]) <= 0.1 + 1e-6


def test_project_ball_exact():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = rng.normal(size=4) * rng.uniform(0, 3)
        out = project_ball(s, 1.5)
        if np.linalg.norm(s) <= 1.5:
            np.testing.assert_array_equal(out, s)
        else:
            assert np.linalg.norm(out) == pytest.approx(1.5)
            np.testing.assert_allclose(out, 1.5 * s / np.linalg.norm(s))


def test_kkt_stationarity_inactive_constraints():
    agent = make_agent([[1.1, 0.12], [0.35, 0.0075]], [[1.5], [0.5]])
    ing = wide_ingredients(agent)
    ocp = plain_ocp(agent, ing, [0.5, -0.5], 3)
    lam = np.array([0.3, 0.1, 0.4])
    sol = solve_one(ocp, lam)
    assert sol.status == "optimal"
    grad = ocp.group.H @ sol.u_star + ocp.q[0] + ocp.F[0].T @ lam
    assert np.linalg.norm(grad) <= 1e-5


def test_dual_function_concave_on_segments():
    agent = make_agent([[0.9]], [[1.0]], state=20.0, inp=1.0)
    ing = synthesize(agent)
    tz = tighten_local_sets(agent, 3)
    Px, Pu = np.array([[0.5]]), np.array([[1.0]])
    ocp = condense(one_agent(agent, ing, tz, Px, Pu, 3), [4.0], b_share=np.full(3, 0.2))
    rng = np.random.default_rng(1)
    for _ in range(10):
        la = rng.uniform(0, 2, size=3)
        lb = rng.uniform(0, 2, size=3)
        mid = 0.5 * (la + lb)
        g = {key: dual_value(ocp, lam, solve_one(ocp, lam))
             for key, lam in (("a", la), ("b", lb), ("m", mid))}
        assert g["m"] >= 0.5 * (g["a"] + g["b"]) - 1e-7


def test_deterministic_iterates():
    agent = make_agent([[1.05]], [[1.0]], state=5.0, inp=0.5)
    ing = synthesize(agent)
    ocp = plain_ocp(agent, ing, [1.5], 4)
    a = solve_one(ocp, np.zeros(4))
    b = solve_one(ocp, np.zeros(4))
    np.testing.assert_array_equal(a.u_star, b.u_star)
    assert a.iterations == b.iterations
    assert a.J_star == b.J_star


def test_centralized_single_agent_loose_coupling(default_scenario, default_pipeline):
    # one agent, very loose coupling: identical to the lam = 0 inner solve
    import dataclasses
    sc = default_scenario
    agent, ing, tz = sc.agents[0], default_pipeline.ingredients[0], default_pipeline.tightened[0]
    sub = dataclasses.replace(sc, agents=(agent,), x0=(sc.x0[0],),
                              coupling=dataclasses.replace(
                                  sc.coupling, Psi_x=(sc.coupling.Psi_x[0],),
                                  Psi_u=(sc.coupling.Psi_u[0],)))
    sched = ToleranceSchedule(eps=np.zeros(sc.N + 1),
                              b=np.full(sc.coupling.p * sc.N, 1e6),
                              p=sc.coupling.p)
    sols, total = solve_centralized(sub, [ing], [tz], sched, [sc.x0[0]])
    ocp = condense(default_pipeline.groups[0], [sc.x0[0]], [0])
    ref = solve_one(ocp, np.zeros(sc.coupling.p * sc.N))
    assert len(sols) == 1 and row(sols[0]).status == "optimal"
    assert total == pytest.approx(ref.J_star, rel=1e-7)
    np.testing.assert_allclose(row(sols[0]).u_star, ref.u_star, atol=1e-5)


def test_centralized_symmetric_active_coupling():
    # two identical scalar agents sharing u1 + u2 <= 0, both pulled positive
    agent = make_agent([[0.5]], [[1.0]], state=10.0, inp=5.0)
    ing = synthesize(agent)
    tz = tighten_local_sets(agent, 2)
    import dataclasses
    from tube_dmpc.model import CouplingSpec, Scenario, SolverParams
    Px, Pu = np.zeros((1, 1)), np.ones((1, 1))
    sc = Scenario(agents=(agent, agent),
                  coupling=CouplingSpec(Psi_x=(Px, Px), Psi_u=(Pu, Pu), p=1),
                  N=2, T_run=1, x0=(np.array([-3.0]), np.array([-3.0])),
                  solver=SolverParams())
    sched = ToleranceSchedule(eps=np.zeros(3), b=np.zeros(2), p=1)
    sols, total = solve_centralized(sc, [ing, ing], [tz, tz], sched,
                                    [np.array([-3.0]), np.array([-3.0])])
    (sol,) = sols  # the two agents form one group
    np.testing.assert_allclose(sol.u_star[0], sol.u_star[1], atol=1e-5)
    coupling = sol.u_star[0] + sol.u_star[1]
    assert np.all(coupling <= 1e-6)
    assert coupling[0] == pytest.approx(0.0, abs=1e-5)  # first stage active

    # 2-D grid-search oracle over the shared (symmetric) input sequence
    grid = np.linspace(-1.0, 0.5, 601)
    U1, U2 = np.meshgrid(grid, grid, indexing="ij")
    feasible = (U1 <= 0.0 + 1e-12) & (U2 <= 0.0 + 1e-12)  # u1+u2<=0 symmetric
    x0 = -3.0
    z1 = 0.5 * x0 + U1
    z2 = 0.5 * z1 + U2
    p = ing.P[0, 0]
    J = 2 * (x0 ** 2 + U1 ** 2 + z1 ** 2 + U2 ** 2 + p * z2 ** 2)
    J[~feasible] = np.inf
    assert total == pytest.approx(J.min(), rel=1e-3)


def test_centralized_default_t0(default_scenario, default_pipeline):
    sols, total = solve_centralized(default_scenario, default_pipeline.ingredients,
                                    default_pipeline.tightened,
                                    default_pipeline.schedule, default_scenario.x0)
    assert all(st == "optimal" for s in sols for st in s.status)
    assert total > 0
    ocps = fleet_ocps(default_scenario, default_pipeline)
    coupling = sum(o.coupling_values(s.u_star).sum(axis=0) for o, s in zip(ocps, sols))
    assert np.all(coupling <= default_pipeline.schedule.b + 1e-6)


def test_condensed_hessian_pd_and_cost_nonnegative(default_scenario, default_pipeline):
    sc, pipe = default_scenario, default_pipeline
    ocp = condense(pipe.groups[0], [sc.x0[0]], [0])
    H = ocp.group.H
    np.testing.assert_allclose(H, H.T, atol=1e-12)
    assert np.linalg.eigvalsh(H).min() > 0
    sol = solve_one(ocp, np.zeros(ocp.F.shape[1]))
    assert sol.J_star >= 0.0
    rng = np.random.default_rng(4)
    assert np.all(ocp.cost(rng.normal(size=(20, H.shape[0]))) >= 0.0)


def test_centralized_infeasible_reports_most_violated_row():
    from tube_dmpc.model import CouplingSpec, Scenario
    from tube_dmpc.local_solver import OcpInfeasibleError

    agent = make_agent([[0.5]], [[1.0]], state=10.0, inp=1.0)
    ing = synthesize(agent)
    tz = tighten_local_sets(agent, 2)
    Px, Pu = np.zeros((1, 1)), np.ones((1, 1))
    sc = Scenario(agents=(agent, agent),
                  coupling=CouplingSpec(Psi_x=(Px, Px), Psi_u=(Pu, Pu), p=1),
                  N=2, T_run=1, x0=(np.array([0.0]), np.array([0.0])))
    # u1 + u2 <= -3 unreachable with |u| <= 1
    sched = ToleranceSchedule(eps=np.zeros(3), b=np.full(2, -3.0), p=1)
    with pytest.raises(OcpInfeasibleError, match="row"):
        solve_centralized(sc, [ing, ing], [tz, tz], sched,
                          [np.zeros(1), np.zeros(1)])


def test_solve_inner_rejects_negative_lambda(default_scenario, default_pipeline):
    sc, pipe = default_scenario, default_pipeline
    ocp = condense(pipe.groups[0], [sc.x0[0]], [0])
    with pytest.raises(ValueError, match="nonnegative"):
        solve_one(ocp, -np.ones(ocp.F.shape[1]))


def test_zero_constraint_row_dropped_or_infeasible():
    # double integrator: the x1 row of Z[1] times Gamma[1] is G B = 0, so only
    # its rhs h - G A x0 decides: >= 0 drops the row, < 0 is infeasible
    agent = make_agent([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], state=10.0, inp=2.0)
    ing = synthesize(agent)
    ocp = plain_ocp(agent, ing, [2.0, 1.0], 3)
    assert np.any(np.linalg.norm(ocp.group.rows_C, axis=1) == 0.0)
    sol = solve_one(ocp, np.zeros(3))
    assert sol.status == "optimal"
    assert np.all(ocp.group.rows_C @ sol.u_star <= ocp.rows_rhs[0] + 1e-6)

    bad = solve_one(plain_ocp(agent, ing, [9.0, 3.0], 3), np.zeros(3))  # x1(1) = 12
    assert bad.status == "infeasible"

    # x1(1) = 10.3 breaks only the dropped row once the terminal ball is wide, so
    # the polish alone (which sees the kept rows) would accept the kept rows'
    # optimum: a guessed active set must not hide the dropped row
    wide = TerminalIngredients(K=np.zeros((1, 2)), P=np.eye(2), r=100.0, eps_r=100.0,
                               contraction=0.5)
    bad_ocp = plain_ocp(agent, wide, [9.5, 0.8], 3)
    zero = bad_ocp.group.split.zero
    kept = dataclasses.replace(bad_ocp, rows_rhs=np.where(zero, 0.0, bad_ocp.rows_rhs))
    true = solve_inner(kept, np.zeros((1, 3)))
    assert true.polished[0]
    rows = zero.size
    for guess in (true.active, np.zeros((1, rows), dtype=bool), np.ones((1, rows), dtype=bool)):
        res = solve_inner(bad_ocp, np.zeros((1, 3)), guess=guess)
        assert res.flags == ["infeasible"] and not res.polished[0]
        assert row(res.solution).status == "infeasible"


def test_subnormal_constraint_rows_dropped():
    # B = 2.2e-311: the state rows G Gamma[l] and the ball block have subnormal
    # norms whose reciprocals overflow; they are dropped or left unscaled
    agent = make_agent([[0.0]], [[2.22507386e-311]])
    ing = TerminalIngredients(K=np.zeros((1, 1)), P=np.eye(1), r=1.0, eps_r=1.0,
                              contraction=0.5)
    sol = solve_one(plain_ocp(agent, ing, [0.0], 2), np.zeros(2))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u_star, np.zeros(2), atol=1e-9)


def test_centralized_zero_psi_u_matches_admm(default_raw):
    # Psi_u = 0 makes block 0 of every stacked coupling row all zeros
    raw = copy.deepcopy(default_raw)
    raw["coupling"]["psi_u"] = [[[0.0]]] * len(raw["agents"])
    sc = validate_scenario(raw)
    pipe = prepare(sc)
    sols, central = solve_centralized(sc, pipe.ingredients, pipe.tightened,
                                      pipe.schedule, sc.x0)
    assert all(st == "optimal" for s in sols for st in s.status)
    admm_sols, _, converged = run_admm(fleet_ocps(sc, pipe, b_share=pipe.schedule.b / sc.M),
                                       sc.solver)
    assert converged
    total = sum(s.J_star.sum() for s in admm_sols)
    assert abs(total - central) / central <= 5e-3


@st.composite
def split_batches(draw):
    """One split setup (SPD H, an all-zero row, a row pair a'u <= c1, -a'u <= c2,
    random rows, one ball) and B columns of linear terms, rhs and ball offsets.

    Column 0 has rhs < 0 on the zero row (infeasible before any iteration),
    column 1 has c1 = c2 = -1 (no u satisfies both: it runs to the cap),
    column 3 is feasible at u = 0 and column 2 repeats column 3's data.
    """
    k, r, nb, B = (draw(st.integers(1, 5)), draw(st.integers(0, 6)),
                   draw(st.integers(1, 3)), draw(st.integers(4, 8)))
    entries = st.floats(-1.5, 1.5)
    L = draw(arrays(np.float64, (k, k), elements=entries))
    a = draw(arrays(np.float64, k, elements=entries))
    assume(np.linalg.norm(a) > 0.1)
    rows = np.vstack([np.zeros((1, k)), a, -a,
                      draw(arrays(np.float64, (r, k), elements=entries))])
    ball_C = draw(arrays(np.float64, (nb, k), elements=entries))
    G = draw(arrays(np.float64, (k, B), elements=st.floats(-5.0, 5.0)))
    rhs = draw(arrays(np.float64, (rows.shape[0], B), elements=st.floats(0.0, 3.0)))
    offsets = draw(arrays(np.float64, (nb, B), elements=entries))
    rhs[0, 0] = -1.0
    rhs[1:3, 1] = -1.0
    offsets[:, 3] = 0.0
    assume(np.linalg.norm(G[:, 3]) > 0.1)  # u = 0 would be the optimum at once
    G[:, 2], rhs[:, 2], offsets[:, 2] = G[:, 3], rhs[:, 3], offsets[:, 3]
    return (L @ L.T + 0.5 * np.eye(k), rows, ball_C, draw(st.floats(0.1, 5.0)),
            G, rhs, offsets, draw(st.integers(100, 300)))


# ball scale 1e9 makes column 4's iterates about 1e8, where one ulp (1.49e-8) exceeds
# tol = 1e-8: there rounding decides the residual tests, and both the batched call and
# the call with column 4 alone converge at iteration 63
ROUNDING_BOUND_CASE = (
    0.5 * np.eye(4),
    np.array([[0.0, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0]]),
    np.array([[1e-9, 0, 0, 0]]), 0.25, np.ones((4, 5)),
    np.array([[-1.0, 0, 0, 0, 0], [0, -1, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, 0, 0, 0],
              [0, 0, 0, 0, 0]]),
    np.array([[-0.375, -0.375, 0, 0, -0.375]]), 100)
# ball_C = 3.8e-236 is rescaled by 2.6e235: the squared norm of the scaled ball block
# overflowed, and the projection sent the block to the centre instead of leaving it
OVERFLOW_CASE = (
    np.array([[0.5]]), np.array([[0.0], [1.0], [-1.0], [0.0]]),
    np.array([[3.80703886e-236]]), 1.0, np.ones((1, 4)),
    np.array([[-1.0, 0, 0, 0], [0, -1, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0]]),
    np.array([[1.0, 1.0, 0, 0]]), 100)


@settings(max_examples=30, deadline=None)
@given(split_batches())
@example(ROUNDING_BOUND_CASE)
@example(OVERFLOW_CASE)
def test_batched_columns_equal_solo_solves(case):
    # every column of one batched call is solved alone: the same flag, iteration count
    # and U and Y bytes as the call with that column alone
    H, rows, ball_C, radius, G, rhs, offsets, max_iter = case
    tol = 1e-8
    setup = split_setup(H, rows, [ball_C], [radius])
    U, Y, iters, flags = split_iterate(setup, G, rhs, [offsets], tol, max_iter)
    for j in range(G.shape[1]):
        u, y, it, flag = split_iterate(setup, G[:, [j]], rhs[:, [j]], [offsets[:, [j]]], tol,
                                       max_iter)
        assert (flags[j], iters[j]) == (flag[0], it[0]), j
        assert U[:, j].tobytes() == u[:, 0].tobytes(), j
        assert Y[:, j].tobytes() == y[:, 0].tobytes(), j
    assert (flags[0], iters[0]) == ("infeasible", 0)
    assert (flags[1], iters[1]) == ("iteration-cap", max_iter)


def test_split_members_of_a_group_equal_solo_solves():
    # at t = 0 with lambda = 0, members 0, 1 and 3 of the infeasible-x0 group fall back to
    # splitting (member 2 is polished): each gets the u bytes, flag and iteration count of
    # its solve alone
    sc = validate_scenario(load_raw("four_agent_infeasible_x0.yaml"))
    (group,) = prepare(sc).groups
    x0 = [sc.x0[i] for i in group.index.tolist()]
    res = solve_inner(condense(group, x0), np.zeros((len(x0), group.F.shape[1])))
    for j in (0, 1, 3):
        alone = solve_inner(condense(group, [x0[j]], [j]), np.zeros((1, group.F.shape[1])))
        assert (res.flags[j], res.agent_iterations[j]) == ("infeasible", 2000), j
        assert (alone.flags[0], alone.agent_iterations[0]) == ("infeasible", 2000), j
        assert res.u[j].tobytes() == alone.u[0].tobytes(), j


def test_tiny_ball_block_left_alone_when_inside():
    # |0.5 + 3.8e-236 u| <= 1 holds for every |u| < 1e235: the ball changes nothing
    H, G = np.array([[2.0]]), np.array([[-2.0]])  # unconstrained optimum u = 1
    rows, rhs = np.array([[1.0]]), np.array([[5.0]])
    setup = split_setup(H, rows, [np.array([[3.80703886e-236]])], [1.0])
    U, *_, flags = split_iterate(setup, G, rhs, [np.array([[0.5]])], 1e-10, 1000)
    assert flags == ["converged"]
    np.testing.assert_allclose(U, [[1.0]], atol=1e-8)


def test_ball_block_near_the_float_floor_is_left_unscaled():
    # ||ball_C|| = 5e-308 is above SCALE_FLOOR, but its scale 2e307 would overflow the
    # offset 30: the block stays unscaled, and the ball it bounds (||30 + 5e-308 u|| <= 1
    # needs |u| beyond the float range) makes the problem infeasible, without an overflow
    H, G = np.array([[2.0]]), np.array([[-2.0]])
    rows, rhs = np.array([[1.0]]), np.array([[5.0]])
    setup = split_setup(H, rows, [np.array([[5e-308]])], [1.0])
    assert setup.balls[0][1].tolist() == [1.0]
    U, Y, iters, flags = split_iterate(setup, G, rhs, [np.array([[30.0]])], 1e-10, 5000)
    assert flags == ["infeasible"] and np.isfinite(U).all() and np.isfinite(Y).all()
