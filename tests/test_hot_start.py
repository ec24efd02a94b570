"""Active-set rounds of the inner solves: a guess saves work and never moves an answer."""

import copy
import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tube_dmpc import dual_admm, local_solver
from tube_dmpc.local_solver import (KKT_TOL, agent_group, agent_groups, condense, feedback_guess,
                                    solve_inner, split_iterate)
from tube_dmpc.model import AgentModel, HPolytope, validate_scenario
from tube_dmpc.simulator import run_closed_loop
from tube_dmpc.synthesis import TerminalIngredients
from tube_dmpc.tightening import tighten_local_sets

from conftest import load_raw, reference_solve
from test_groups import assert_close, fleets


@pytest.fixture(scope="module")
def ball_groups(default_scenario, default_pipeline):
    """The default agent's group at its own terminal radius and at a tenth of it."""
    sc, pipe = default_scenario, default_pipeline
    ing = pipe.ingredients[0]
    return {factor: agent_group(sc.agents[0], replace(ing, eps_r=ing.eps_r * factor),
                                pipe.tightened[0], [sc.coupling.Psi_x[0]],
                                [sc.coupling.Psi_u[0]], sc.N)
            for factor in (1.0, 0.1)}


@st.composite
def group_problems(draw):
    """(terminal radius factor, states, multipliers, guess kind, random masks) for B columns."""
    B = draw(st.integers(1, 4))
    x0 = [[draw(st.floats(-12.0, 12.0)), draw(st.floats(-4.5, 4.5))] for _ in range(B)]
    lams = [draw(st.lists(st.floats(0.0, 3.0), min_size=10, max_size=10)) for _ in range(B)]
    kind = draw(st.sampled_from(["true", "empty", "all", "random"]))
    return draw(st.sampled_from([1.0, 0.1])), x0, lams, kind, draw(st.randoms())


def guess_of(kind, plain, rnd) -> np.ndarray:
    """A guess of the given kind for the rows of the answer `plain` (solved unguessed)."""
    shape = plain.active.shape
    return {"true": plain.active, "empty": np.zeros(shape, dtype=bool),
            "all": np.ones(shape, dtype=bool),
            "random": np.array([[rnd.random() < 0.2 for _ in range(shape[1])]
                                for _ in range(shape[0])])}[kind]


@settings(max_examples=60, deadline=None)
@given(group_problems())
def test_guess_never_moves_the_answer(ball_groups, problem):
    factor, x0, lams, kind, rnd = problem
    group = ball_groups[factor]
    ocp = condense(group, x0, [0] * len(x0))
    plain = solve_inner(ocp, lams)
    hot = solve_inner(ocp, lams, guess=guess_of(kind, plain, rnd))
    assert hot.flags == plain.flags
    for j in range(len(x0)):
        scale = max(1.0, np.abs(plain.u[j]).max())
        # two polished answers are the optimum to rounding; a splitting answer is
        # within the inner tolerance of it
        level = 1e-9 if plain.polished[j] and hot.polished[j] else 1e-5
        np.testing.assert_allclose(hot.u[j], plain.u[j], rtol=0, atol=level * scale)


@settings(max_examples=40, deadline=None)
@given(group_problems())
def test_rounds_match_tight_splitting(ball_groups, problem):
    # from every guess kind, every column that has a reference is polished, on the
    # terminal ball as off it, and matches an independent splitting solve run to 1e-13
    # without polish (the tolerance of test_polish_matches_tight_splitting)
    factor, x0, lams, kind, rnd = problem
    group = ball_groups[factor]
    ocp = condense(group, x0, [0] * len(x0))
    result = solve_inner(ocp, lams, guess=guess_of(kind, solve_inner(ocp, lams), rnd))
    G = (ocp.q + (ocp.F.transpose(0, 2, 1) @ np.array(lams)[:, :, None])[:, :, 0]).T
    ref, _, _, flags = split_iterate(group.split, G, ocp.rows_rhs.T, [ocp.ball_off.T],
                                     1e-13, 400000)
    for j, flag in enumerate(flags):
        if flag != "converged":
            continue  # no reference: the state has no feasible plan, or hardly one
        scale = max(1.0, np.abs(ref[:, j]).max())
        assert result.polished[j] and result.agent_iterations[j] == 0, j
        np.testing.assert_allclose(result.u[j], ref[:, j], rtol=0, atol=1e-11 * scale)


def polish_guesses(monkeypatch) -> list:
    """Record the guesses (one row per column) of every polish call that has columns."""
    seen, polish = [], local_solver.polish

    def recording(pol, U0, CU0, b, active, *ball):
        if active.shape[1]:
            seen.append(active.T.copy())
        return polish(pol, U0, CU0, b, active, *ball)

    monkeypatch.setattr(local_solver, "polish", recording)
    return seen


def test_stuck_guess_leaves_to_splitting(ball_groups, monkeypatch):
    # the state has no feasible plan: the rounds reach a guess that maps to itself and
    # leave it to splitting, which flags it infeasible; started on that guess's rows, the
    # rounds hold the ball inactive, then active (the answer lies outside it), and leave
    group = ball_groups[1.0]
    assert group.split.zero is None  # a polish guess is a full rows_C mask
    ocp, lam = condense(group, [[-15.0, -4.9]]), np.zeros((1, group.F.shape[1]))
    seen = polish_guesses(monkeypatch)
    first = solve_inner(ocp, lam)
    assert first.flags == ["infeasible"] and not first.polished[0]
    assert first.agent_iterations[0] > 0
    rounds = int(first.rounds[0])
    assert rounds < local_solver.ACTIVE_SET_ROUNDS  # it left on an unchanged guess
    stuck = seen[rounds - 1]
    seen.clear()
    again = solve_inner(ocp, lam, guess=stuck)
    assert again.rounds.tolist() == [2] and again.flags == first.flags
    assert not again.polished[0] and len(seen) == 2  # two refused rounds, then splitting
    for guess in seen:
        np.testing.assert_array_equal(guess, stuck)
    assert again.solution.status == first.solution.status == ("infeasible",)


def test_ball_column_is_polished_in_round_two(ball_groups, monkeypatch):
    # this plan ends on the terminal ball: guessed its own rows, round 1 holds the ball
    # inactive and is refused; round 2 keeps the rows and guesses the ball active, and is
    # polished there, without a splitting iteration
    group = ball_groups[0.1]
    ocp, lam = condense(group, [[10.7, -3.4]]), np.zeros((1, group.F.shape[1]))
    first = solve_inner(ocp, lam)
    assert first.polished[0] and first.iterations == 0
    assert abs(first.ball[0]) <= KKT_TOL * max(1.0, group.ing.eps_r)
    seen = polish_guesses(monkeypatch)
    again = solve_inner(ocp, lam, guess=first.active)
    assert again.rounds.tolist() == [2] and again.polished[0] and again.iterations == 0
    assert len(seen) == 2
    for guess in seen:
        np.testing.assert_array_equal(guess, first.active)
    np.testing.assert_allclose(again.u, first.u, rtol=0, atol=1e-12 * np.abs(first.u).max())
    assert again.solution.status == ("optimal",)


def test_one_round_keeps_the_closed_loop(default_scenario, default_pipeline, fresh_pipeline,
                                         monkeypatch):
    # with a single round most columns fall back to splitting and polish; the answers
    # stay the optimum, so the closed loop moves by rounding only
    sc = dataclasses.replace(default_scenario, trigger_mode="periodic")
    rounds = run_closed_loop(sc, pipeline=default_pipeline)
    monkeypatch.setattr(local_solver, "ACTIVE_SET_ROUNDS", 1)
    one = run_closed_loop(sc, pipeline=fresh_pipeline)
    assert one.counters["inner_iterations"] > rounds.counters["inner_iterations"]
    for blocks_a, blocks_b in ((rounds.u, one.u), (rounds.x, one.x)):
        for block_a, block_b in zip(blocks_a, blocks_b):
            np.testing.assert_allclose(block_b, block_a, rtol=1e-9, atol=1e-12)
    assert [rec.statuses for rec in one.triggers] == [rec.statuses for rec in rounds.triggers]


def test_true_active_set_takes_no_iteration(default_scenario, default_pipeline):
    sc, (group,) = default_scenario, default_pipeline.groups
    rng = np.random.default_rng(3)
    x0 = np.vstack([np.array(sc.x0), rng.uniform([-12.0, -4.5], [12.0, 4.5], (12, 2))])
    lams = rng.uniform(0.0, 2.0, (x0.shape[0], group.F.shape[1]))
    lams[:4] = 0.0
    ocp = condense(group, x0, rng.integers(0, 4, x0.shape[0]))
    plain = solve_inner(ocp, lams)
    assert plain.polished.sum() >= 12 and plain.iterations > 0
    hot = solve_inner(ocp, lams, guess=plain.active)
    assert hot.polished[plain.polished].all()
    assert hot.agent_iterations[plain.polished].max() == 0
    np.testing.assert_allclose(hot.u[plain.polished], plain.u[plain.polished], rtol=0,
                               atol=1e-9 * np.abs(plain.u).max())


@st.composite
def row_layouts(draw):
    """An agent group with N steps, rX state rows and rU input rows, and a mask over rows_C."""
    N, rX, rU = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    signs = st.sampled_from([-2.0, -1.0, 1.0, 2.0])
    agent = AgentModel(A=np.array([[0.9]]), B=np.ones((1, 1)), w_bar=0.0,
                       X=HPolytope(np.array([[draw(signs)] for _ in range(rX)]), np.ones(rX)),
                       U=HPolytope(np.array([[draw(signs)] for _ in range(rU)]), np.ones(rU)),
                       Q=np.eye(1), R=np.eye(1))
    ing = TerminalIngredients(K=np.zeros((1, 1)), P=np.eye(1), r=1.0, eps_r=1.0,
                              contraction=0.5)
    group = agent_group(agent, ing, tighten_local_sets(agent, N), [np.ones((1, 1))],
                        [np.ones((1, 1))], N)
    B = draw(st.integers(1, 3))
    mask = np.array(draw(st.lists(st.booleans(), min_size=B * group.rows_C.shape[0],
                                  max_size=B * group.rows_C.shape[0]))).reshape(B, -1)
    return group, N, rX, rU, mask, draw(st.integers(0, N + 1))


@settings(max_examples=80, deadline=None)
@given(row_layouts())
def test_shift_active_moves_each_block_left(layout):
    group, N, rX, rU, mask, steps = layout
    assert mask.shape[1] == (N - 1) * rX + N * rU
    B = mask.shape[0]
    state = mask[:, :(N - 1) * rX].reshape(B, N - 1, rX)  # blocks of z(1..N-1)
    inputs = mask[:, (N - 1) * rX:].reshape(B, N, rU)  # blocks of u(0..N-1)
    shifted = group.shift_active(mask, steps)
    new_state = shifted[:, :(N - 1) * rX].reshape(B, N - 1, rX)
    new_inputs = shifted[:, (N - 1) * rX:].reshape(B, N, rU)
    for blocks, new in ((state, new_state), (inputs, new_inputs)):
        for l in range(new.shape[1]):
            expected = blocks[:, l + steps] if l + steps < blocks.shape[1] else False
            np.testing.assert_array_equal(new[:, l], expected)
    if steps == 0:
        np.testing.assert_array_equal(shifted, mask)


def test_runs_do_not_share_guesses(default_scenario, default_pipeline):
    # the active sets carried between instants are local to one run: the runs of two seeds
    # come out the same whichever runs first
    sc = dataclasses.replace(default_scenario, trigger_mode="periodic")
    first = [run_closed_loop(sc, pipeline=default_pipeline, seed=s) for s in (5, 6)]
    second = [run_closed_loop(sc, pipeline=default_pipeline, seed=s) for s in (6, 5)][::-1]
    for a, b in zip(first, second):
        assert a.counters == b.counters
        for blocks_a, blocks_b in ((a.x, b.x), (a.u, b.u)):
            for block_a, block_b in zip(blocks_a, blocks_b):
                np.testing.assert_array_equal(block_a, block_b)
        assert [rec.total_cost for rec in a.triggers] == [rec.total_cost for rec in b.triggers]


def replicated_raw(M: int, seed: int) -> dict:
    """M agents, agent i a copy of default agent i mod 4 with a 0.05 disturbance box and x0
    moved by up to (0.5, 0.3), under one relative row -x2 + 0.01 u <= 3.5 per agent."""
    raw = load_raw("four_agent.yaml")
    rng = np.random.default_rng(seed)
    agents = [copy.deepcopy(raw["agents"][i % 4]) for i in range(M)]
    for agent in agents:
        agent["disturbance"] = {"box": [0.05, 0.05]}
        agent["x0"] = (np.array(agent["x0"]) + rng.uniform([-0.5, -0.3], [0.5, 0.3])).tolist()
    raw["agents"] = agents
    raw["coupling"] = {"absolute": False, "psi_x": [[[0.0, -1.0]]] * M,
                       "psi_u": [[[0.01]]] * M, "rhs": [3.5 * M]}
    return raw


@pytest.mark.parametrize("raw", [load_raw("four_agent.yaml"), load_raw("mixed_six.yaml"),
                                 replicated_raw(64, 3)], ids=["four_agent", "mixed_six", "m64"])
def test_first_instant_takes_one_round(raw, monkeypatch):
    # at t = 0 every column starts from the saturated terminal-feedback plan's rows and is
    # accepted in its first round, without a splitting iteration
    sc = dataclasses.replace(validate_scenario(raw), T_run=1)
    results, solve = [], dual_admm.solve_inner

    def recording(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(dual_admm, "solve_inner", recording)
    log = run_closed_loop(sc)
    assert log.triggers[0].t_k == 0 and results
    assert sum(result.rounds.size for result in results) == len(log.triggers[0].ocp_agents)
    for result in results:
        assert result.rounds.tolist() == [1] * result.rounds.size
        assert result.polished.all() and result.iterations == 0
    assert log.counters["inner_iterations"] == 0
    assert log.counters["active_set_rounds"] == len(log.triggers[0].ocp_agents)


def reference_feedback_slack(group, tightened, x0) -> np.ndarray:
    """The rows_C slacks of one state's saturated feedback plan, a plan step at a time."""
    agent, K, N = group.agent, group.ing.K, group.Gamma.shape[0] - 1
    z, states, inputs = np.asarray(x0, dtype=float), [], []
    for l in range(N):
        u = K @ z
        u = u / max(1.0, float(np.max(agent.U.G @ u / agent.U.h)))
        inputs.append(agent.U.G @ u - agent.U.h)
        z = agent.A @ z + agent.B @ u
        if l + 1 < N:
            states.append(tightened.Z[l + 1].G @ z - tightened.Z[l + 1].h)
    return np.concatenate(states + inputs)


def test_feedback_guess_holds_the_rows_the_plan_reaches(default_scenario, default_pipeline,
                                                        monkeypatch):
    # near the origin the plan stays strictly inside every row and the guess is empty; from
    # the scenario's states it saturates inputs, and the guess is the rows it reaches
    (group,), tightened = default_pipeline.groups, default_pipeline.tightened[0]
    inside = condense(group, [[0.0, 0.0], [0.4, -0.2], [-0.3, 0.1]], [0, 1, 2])
    far = condense(group, default_scenario.x0)
    for ocp in (inside, far):
        slack = np.array([reference_feedback_slack(group, tightened, x) for x in ocp.x0])
        np.testing.assert_array_equal(
            feedback_guess(ocp), slack >= -KKT_TOL * np.maximum(1.0, np.abs(ocp.rows_rhs)))
    assert (np.abs(group.ing.K @ inside.x0[1]) > 0).all()
    assert not feedback_guess(inside).any() and feedback_guess(far).any(axis=1).all()
    # solve_inner's default guess is that one: its first polish holds no row
    seen = polish_guesses(monkeypatch)
    result = solve_inner(inside, np.zeros((3, group.F.shape[1])))
    assert not seen[0].any() and result.rounds.tolist() == [1, 1, 1]


@settings(max_examples=80, deadline=None)
@given(fleets(), st.data())
def test_default_guess_keeps_answers_and_flags(case, data):
    # the feedback-plan guess only changes where the rounds start: the flags are those from
    # the empty guess, and so are the answers, to rounding wherever the empty guess's answer
    # is polished; a guess from which the rounds cycle restarts from the empty guess
    scenario, ingredients, x0, _, _ = case
    tightened = [tighten_local_sets(agent, scenario.N) for agent in scenario.agents]
    for group in agent_groups(scenario, ingredients, tightened):
        ocp = condense(group, x0[group.index])
        lams = data.draw(arrays(np.float64, (group.index.size, group.F.shape[1]),
                                elements=st.floats(0.0, 3.0)))
        cold = solve_inner(ocp, lams)
        empty = solve_inner(ocp, lams, guess=np.zeros((group.index.size, group.rows_C.shape[0]),
                                                      dtype=bool))
        assert cold.flags == empty.flags
        scale = np.maximum(1.0, np.abs(empty.u).max(axis=1))
        level = np.where(empty.polished, 1e-12, 1e-5)
        assert (np.abs(cold.u - empty.u).max(axis=1) <= level * scale).all()


@settings(max_examples=60, deadline=None)
@given(fleets(), st.data())
def test_carried_fields_match_reference(case, data):
    # the answers, statuses, costs, trajectories, coupling values, active sets and rounds
    # that a solve carries equal those of the gather-and-scatter reference, whose carried
    # fields are recomputed from its answers, at multiplier 0 and above, from every kind
    # of guess
    scenario, ingredients, x0, _, _ = case
    tightened = [tighten_local_sets(agent, scenario.N) for agent in scenario.agents]
    for group in agent_groups(scenario, ingredients, tightened):
        ocp = condense(group, x0[group.index])
        shape = (group.index.size, group.F.shape[1])
        lams = (np.zeros(shape) if data.draw(st.booleans())
                else data.draw(arrays(np.float64, shape, elements=st.floats(0.0, 3.0))))
        mask = (group.index.size, group.rows_C.shape[0])
        guess = data.draw(st.sampled_from([None, np.zeros(mask, dtype=bool),
                                           data.draw(arrays(np.bool_, mask))]))
        result = solve_inner(ocp, lams, guess=guess)
        # near B = 1e-158 an infeasible row's split answer runs to about 1e157, and the cost
        # u'Hu that both sides compute overflows to inf alike, as does its scale term here
        with np.errstate(over="ignore"):
            sol, ref = result.solution, reference_solve(ocp, lams, guess)
        assert result.flags == ref["flags"] and sol.status == ref["status"]
        np.testing.assert_array_equal(result.active, ref["active"])
        np.testing.assert_array_equal(result.rounds, ref["rounds"])
        u = ref["u"]
        assert_close(sol.u_star, u, u)
        assert_close(sol.z_star, ref["trajectory"], ocp.free, group.Gamma @ u.T)
        with np.errstate(over="ignore"):
            assert_close(sol.J_star, ref["cost"], ocp.c0, ocp.q * u, u @ group.H * u)
        assert_close(result.coupling, ref["coupling"], ocp.f0, ocp.F @ u[:, :, None])
