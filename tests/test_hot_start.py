"""Hot-started inner solves: an active-set guess saves work and never moves an answer."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tube_dmpc.local_solver import agent_group, condense, solve_inner
from tube_dmpc.model import AgentModel, HPolytope
from tube_dmpc.simulator import run_closed_loop
from tube_dmpc.synthesis import TerminalIngredients
from tube_dmpc.tightening import tighten_local_sets


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


@settings(max_examples=60, deadline=None)
@given(group_problems())
def test_guess_never_moves_the_answer(ball_groups, problem):
    factor, x0, lams, kind, rnd = problem
    group = ball_groups[factor]
    ocp = condense(group, x0, [0] * len(x0))
    plain = solve_inner(ocp, lams)
    shape = plain.active.shape
    guess = {"true": plain.active, "empty": np.zeros(shape, dtype=bool),
             "all": np.ones(shape, dtype=bool),
             "random": np.array([[rnd.random() < 0.2 for _ in range(shape[1])]
                                 for _ in range(shape[0])])}[kind]
    hot = solve_inner(ocp, lams, guess=guess)
    assert hot.flags == plain.flags
    for j in range(len(x0)):
        scale = max(1.0, np.abs(plain.u[j]).max())
        # two polished answers are the optimum to rounding; a splitting answer is
        # within the inner tolerance of it
        level = 1e-9 if plain.polished[j] and hot.polished[j] else 1e-5
        np.testing.assert_allclose(hot.u[j], plain.u[j], rtol=0, atol=level * scale)


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
