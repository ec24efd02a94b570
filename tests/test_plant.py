"""The array-valued plant side against per-agent reference loops.

The references are the per-agent forms the simulator's stacked expressions
replace: one disturbance draw per agent and step, x+ = A x + B u + w per
agent, K x and the P-norm test per agent, one membership test per point and
the coupled row summed agent by agent. Random fleets draw their agents from a
few models in interleaved order, so that agent groups interleave.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tube_dmpc.simulator as simulator
from tube_dmpc.model import AgentModel, CouplingSpec, HPolytope, Scenario, membership, \
    validate_scenario
from tube_dmpc.local_solver import agent_groups
from tube_dmpc.simulator import (DisturbanceSampler, SimLog, VIOLATION_TOL, prepare,
                                 run_closed_loop, step_plant)
from tube_dmpc.synthesis import TerminalIngredients
from tube_dmpc.tightening import tighten_local_sets

from conftest import load_raw
from test_simulator import hetero_raw

ENTRIES = st.floats(-1.5, 1.5)


def reference_draw(agent, rng, mode):
    """One step's disturbance for one agent, drawn as a single sample."""
    n = agent.n
    if agent.w_bar == 0.0:
        return np.zeros(n)
    if agent.box_half_widths is not None:
        hw = agent.box_half_widths
        if mode == "extreme":
            return hw * rng.choice([-1.0, 1.0], size=n)
        return rng.uniform(-hw, hw)
    direction = rng.normal(size=n)
    direction /= max(np.linalg.norm(direction), 1e-300)
    if mode == "extreme":
        return agent.w_bar * direction
    radius = agent.w_bar * rng.uniform() ** (1.0 / n)
    return radius * direction


def reference_step(agent, x, u, w):
    return agent.A @ x + agent.B @ u + w


def reference_coupling_row(coupling, xs, us):
    row = np.zeros(coupling.p)
    for i in range(len(xs)):
        row += coupling.Psi_x[i] @ xs[i] + coupling.Psi_u[i] @ us[i]
    return row


@st.composite
def fleets(draw, max_agents=5):
    """Agents with mixed (n, m), box sets, and no, box or ball disturbances."""
    agents = []
    for _ in range(draw(st.integers(1, max_agents))):
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        kind = draw(st.sampled_from(["zero", "box", "ball"]))
        box = None
        if kind == "box":
            box = draw(arrays(np.float64, n, elements=st.floats(0.0, 0.5)))
            w_bar = float(np.linalg.norm(box))
        else:
            w_bar = 0.0 if kind == "zero" else draw(st.floats(0.01, 0.5))
        agents.append(AgentModel(
            A=draw(arrays(np.float64, (n, n), elements=ENTRIES)),
            B=draw(arrays(np.float64, (n, m), elements=ENTRIES)),
            w_bar=w_bar,
            X=HPolytope.box(draw(arrays(np.float64, n, elements=st.floats(0.5, 2.0)))),
            U=HPolytope.box(draw(arrays(np.float64, m, elements=st.floats(0.5, 2.0)))),
            Q=np.eye(n), R=np.eye(m), box_half_widths=box))
    return tuple(agents)


def ingredients_for(draw, agents):
    out = []
    for agent in agents:
        L = draw(arrays(np.float64, (agent.n, agent.n), elements=ENTRIES))
        out.append(TerminalIngredients(
            K=draw(arrays(np.float64, (agent.m, agent.n), elements=ENTRIES)),
            P=L @ L.T + np.eye(agent.n), r=1.0, eps_r=draw(st.floats(0.1, 3.0)),
            contraction=0.5))
    return out


def grouped(draw, models, max_agents=6):
    """Agents drawn from `models` in random (interleaved) order, with the ingredients
    of their model, as the one-step scenario the agent groups are built from."""
    labels = draw(st.lists(st.integers(0, len(models) - 1), min_size=1, max_size=max_agents))
    agents = tuple(models[k] for k in labels)
    ings = ingredients_for(draw, models)
    scenario = Scenario(agents=agents, coupling=coupling_for(draw, agents), N=1, T_run=1,
                        x0=tuple(np.zeros(a.n) for a in agents))
    groups = agent_groups(scenario, [ings[k] for k in labels],
                          [tighten_local_sets(a, 1) for a in agents])
    return scenario, list(groups)


def coupling_for(draw, agents):
    p = draw(st.integers(1, 3))
    return CouplingSpec(
        Psi_x=tuple(draw(arrays(np.float64, (p, a.n), elements=st.floats(-0.5, 0.5)))
                    for a in agents),
        Psi_u=tuple(draw(arrays(np.float64, (p, a.m), elements=st.floats(-0.5, 0.5)))
                    for a in agents),
        p=p)


@settings(max_examples=60, deadline=None)
@given(fleets(), st.integers(0, 2**32 - 1), st.sampled_from(["uniform", "extreme"]),
       st.integers(0, 12))
def test_sample_block_equals_single_draws(agents, seed, mode, steps):
    block = DisturbanceSampler(agents, seed, mode)
    single = DisturbanceSampler(agents, seed, mode)
    for i, agent in enumerate(agents):
        rows = block.sample(i, steps)
        assert rows.shape == (steps, agent.n)
        for t in range(steps):
            np.testing.assert_array_equal(rows[t], reference_draw(agent, single._rngs[i], mode))


@pytest.mark.parametrize("hw", [0.05, 0.3])
def test_box_stream_equals_rng_uniform(hw):
    # the box stream is drawn with rng.uniform's arithmetic, not by rng.uniform:
    # every seed must still give rng.uniform's bytes
    agents = tuple(AgentModel(A=0.5 * np.eye(2), B=np.ones((2, 1)), w_bar=float(np.hypot(*box)),
                              X=HPolytope.box([1.0, 1.0]), U=HPolytope.box([1.0]), Q=np.eye(2),
                              R=np.eye(1), box_half_widths=np.array(box))
                   for box in ([hw, hw], [hw, 0.7 * hw]))
    for seed in range(200):
        sampler, reference = DisturbanceSampler(agents, seed), DisturbanceSampler(agents, seed)
        for i, agent in enumerate(agents):
            half = agent.box_half_widths
            expected = reference._rngs[i].uniform(-half, half, size=(30, agent.n))
            assert sampler.sample(i, 30).tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(fleets(max_agents=3), st.data())
def test_stacked_plant_equals_per_agent(models, data):
    draw = data.draw
    scenario, groups = grouped(draw, models)
    agents = scenario.agents
    states = [draw(arrays(np.float64, a.n, elements=st.floats(-3.0, 3.0))) for a in agents]
    assert sorted(np.concatenate([g.index for g in groups]).tolist()) == list(range(len(agents)))
    # in half the groups the first member sits exactly on the terminal radius: an ulp
    # decides the test
    for k in range(0, len(groups), 2):
        ing = groups[k].ing
        groups[k] = dataclasses.replace(groups[k], ing=dataclasses.replace(
            ing, eps_r=ing.p_norm(states[groups[k].index[0]])))
    X = [np.stack([states[i] for i in g.index]) for g in groups]

    inside = simulator._in_terminal_sets(groups, [x[None] for x in X], 0, len(agents))
    for grp in groups:
        for i in grp.index:
            assert inside[i] == (grp.ing.p_norm(states[i]) <= grp.ing.eps_r), i
    for grp, x in zip(groups, X):
        U = draw(arrays(np.float64, (grp.index.size, grp.agent.m), elements=ENTRIES))
        W = draw(arrays(np.float64, x.shape, elements=ENTRIES))
        nxt = step_plant(grp.agent.A, grp.agent.B, x, U, W)
        KX = (grp.ing.K @ x[..., None])[..., 0]
        for j, i in enumerate(grp.index):
            np.testing.assert_array_equal(nxt[j], reference_step(agents[i], x[j], U[j], W[j]))
            np.testing.assert_array_equal(KX[j], grp.ing.K @ x[j])


@settings(max_examples=60, deadline=None)
@given(fleets(max_agents=3), st.integers(1, 8), st.data())
def test_log_checks_equal_per_point_loops(models, T, data):
    # random trajectories inside and outside the sets, cut after `steps` as an aborted run
    draw = data.draw
    scenario, groups = grouped(draw, models)
    scenario = dataclasses.replace(scenario, T_run=T)
    agents, coupling = scenario.agents, scenario.coupling
    log = SimLog.allocate(scenario, tuple(groups))
    for block in log.x + log.u + log.w:
        block[:] = draw(arrays(np.float64, block.shape, elements=st.floats(-3.0, 3.0)))
    steps = draw(st.integers(0, T))
    log.close(steps)

    local = 0
    for t in range(steps + 1):
        for i, agent in enumerate(agents):
            local += not membership(agent.X, log.states[t][i], tol=VIOLATION_TOL)
            if t < steps:
                local += not membership(agent.U, log.inputs[t][i], tol=VIOLATION_TOL)
    rows = [reference_coupling_row(coupling, log.states[t], log.inputs[t]) for t in range(steps)]
    assert len(log.states) == steps + 1 and len(log.inputs) == len(log.disturbances) == steps
    assert log.local_violations(scenario) == local
    assert log.coupling.shape == (steps, coupling.p)
    for t, row in enumerate(rows):
        np.testing.assert_allclose(log.coupling[t], row, rtol=1e-12, atol=1e-15)
    assert log.global_violations() == sum(bool(np.any(r > 1.0 + VIOLATION_TOL)) for r in rows)


def test_membership_stack_matches_points():
    box = HPolytope.box([1.0, 2.0])
    points = np.array([[0.0, 0.0], [1.0, 2.0], [1.5, 0.0], [0.0, -2.1]])
    np.testing.assert_array_equal(membership(box, points),
                                  [membership(box, y) for y in points])
    assert membership(box, np.empty((0, 2))).shape == (0,)
    assert type(membership(box, points[0])) is bool


@pytest.mark.parametrize("case", ["self-triggered", "periodic", "hetero", "ball", "extreme"])
def test_run_trajectory_matches_per_agent_steps(case, default_raw, monkeypatch):
    # every logged step is the per-agent update of the logged state, input and
    # disturbance, and the disturbances are the per-step draws of the run's seed
    raw = copy.deepcopy(hetero_raw() if case == "hetero" else default_raw)
    if case == "periodic":
        raw["trigger_mode"] = "periodic"
    if case == "ball":
        for node in raw["agents"]:
            node["disturbance"] = {"w_bar": 0.3}
    mode = "extreme" if case == "extreme" else "uniform"
    if case == "extreme":
        sampler_cls = simulator.DisturbanceSampler
        monkeypatch.setattr(simulator, "DisturbanceSampler",
                            lambda agents, seed: sampler_cls(agents, seed, "extreme"))
    sc = validate_scenario(raw)
    pipe = prepare(sc)
    log = run_closed_loop(sc, pipeline=pipe)
    assert len(pipe.groups) == (2 if case == "hetero" else 1)
    single = DisturbanceSampler(sc.agents, sc.seed, mode)
    for t in range(sc.T_run):
        for i, agent in enumerate(sc.agents):
            np.testing.assert_array_equal(log.disturbances[t][i],
                                          reference_draw(agent, single._rngs[i], mode))
            np.testing.assert_array_equal(
                log.states[t + 1][i],
                reference_step(agent, log.states[t][i], log.inputs[t][i],
                               log.disturbances[t][i]))
            ing = pipe.ingredients[i]
            if log.modes[t][i] == "terminal":
                np.testing.assert_array_equal(log.inputs[t][i], ing.K @ log.states[t][i])
        np.testing.assert_allclose(
            log.coupling[t], reference_coupling_row(sc.coupling, log.states[t], log.inputs[t]),
            rtol=1e-12)
    for rec in log.triggers:  # each instant's mode split is the per-agent P-norm test
        xs = log.states[rec.t_k]
        ocp = tuple(i for i in range(sc.M) if case == "periodic"
                    or pipe.ingredients[i].p_norm(xs[i]) > pipe.ingredients[i].eps_r)
        assert rec.ocp_agents == ocp


def test_plant_calls_per_group_step_agent_and_set(monkeypatch):
    sc = validate_scenario(hetero_raw())
    pipe = prepare(sc)
    calls = {"step_plant": 0, "sample": 0, "membership": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(simulator, "step_plant", counted("step_plant", simulator.step_plant))
    monkeypatch.setattr(simulator.DisturbanceSampler, "sample",
                        counted("sample", simulator.DisturbanceSampler.sample))
    monkeypatch.setattr(simulator, "membership", counted("membership", simulator.membership))
    log = run_closed_loop(sc, pipeline=pipe)
    assert calls == {"step_plant": 2 * sc.T_run, "sample": sc.M, "membership": 0}
    assert log.local_violations(sc) == 0
    assert calls["membership"] == 2 * len(pipe.groups)


def test_grouped_local_violations_match_per_agent_count():
    # mixed_six interleaves three groups; states and inputs pushed outside X and U at
    # scattered (step, agent) cells count once each, as in a per-agent check
    sc = validate_scenario(load_raw("mixed_six.yaml"))
    log = run_closed_loop(sc)
    assert len(log.groups) == 3 and log.local_violations(sc) == 0
    for t, i in [(0, 0), (3, 4), (3, 5), (sc.T_run, 2)]:
        log.states[t][i][:] = 1e3
    for t, i in [(1, 1), (1, 3), (sc.T_run - 1, 5)]:
        log.inputs[t][i][:] = -1e3
    log.states[5][1][1] = 5.0 + 0.5 * VIOLATION_TOL  # on the boundary within tolerance
    reference = sum(not membership(agent.X, log.states[t][i], tol=VIOLATION_TOL)
                    for t in range(log.steps + 1) for i, agent in enumerate(sc.agents))
    reference += sum(not membership(agent.U, log.inputs[t][i], tol=VIOLATION_TOL)
                     for t in range(log.steps) for i, agent in enumerate(sc.agents))
    assert reference == 7
    assert log.local_violations(sc) == reference
