import copy
import csv
import dataclasses
import json

import numpy as np
import pytest

import tube_dmpc.simulator as simulator
from tube_dmpc.model import validate_scenario
from tube_dmpc.simulator import (DisturbanceSampler, InitialInfeasibilityError,
                                 collect_transitions, monte_carlo, prepare,
                                 run_closed_loop, step_plant, write_summary_json)
from tube_dmpc.trigger import TriggerDecision

from conftest import fleet_ocps, load_raw


def test_step_plant_zero():
    agent = validate_scenario(load_raw("four_agent.yaml")).agents[0]
    np.testing.assert_array_equal(
        step_plant(agent.A, agent.B, np.zeros(2), np.zeros(1), np.zeros(2)), [0, 0])


def test_step_plant_first_column(default_scenario):
    agent = default_scenario.agents[0]
    np.testing.assert_allclose(
        step_plant(agent.A, agent.B, np.array([1.0, 0.0]), np.zeros(1), np.zeros(2)),
        [1.1, 0.35])


def test_step_plant_superposition(default_scenario):
    agent = default_scenario.agents[0]
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, u, w = rng.normal(size=2), rng.normal(size=1), rng.normal(size=2)
        np.testing.assert_allclose(step_plant(agent.A, agent.B, x, u, w),
                                   step_plant(agent.A, agent.B, x, u, np.zeros(2)) + w)


def test_sampler_stays_in_box(default_scenario):
    sampler = DisturbanceSampler(default_scenario.agents, seed=3)
    for i in range(default_scenario.M):
        w = sampler.sample(i, 200)
        assert w.shape == (200, 2)
        assert np.all(np.abs(w) <= 0.3)


def test_sampler_extreme_hits_corners(default_scenario):
    sampler = DisturbanceSampler(default_scenario.agents, seed=3, mode="extreme")
    w = sampler.sample(0, 50)
    np.testing.assert_allclose(np.abs(w), np.tile([0.3, 0.3], (50, 1)))


def test_sampler_reproducible(default_scenario):
    a = DisturbanceSampler(default_scenario.agents, seed=5)
    b = DisturbanceSampler(default_scenario.agents, seed=5)
    for i in range(default_scenario.M):
        np.testing.assert_array_equal(a.sample(i, 20), b.sample(i, 20))


def test_pure_terminal_run_contracts(nominal_scenario):
    # start every agent inside its terminal set with no disturbance
    pipe = prepare(nominal_scenario)
    small = tuple(0.3 * pipe.ingredients[i].eps_r
                  * np.array([1.0, 0.0]) / np.sqrt(pipe.ingredients[i].P[0, 0])
                  for i in range(nominal_scenario.M))
    sc = dataclasses.replace(nominal_scenario, x0=small, T_run=10)
    log = run_closed_loop(sc, pipeline=pipe)
    assert log.solve_instants() == 0
    assert all(mode == "terminal" for row in log.modes for mode in row)
    for i in range(sc.M):
        norms = [pipe.ingredients[i].p_norm(log.states[t][i]) for t in range(11)]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_default_run_invariants(default_scenario, default_pipeline):
    log = run_closed_loop(default_scenario, pipeline=default_pipeline)
    assert log.local_violations(default_scenario) == 0
    assert log.global_violations() == 0
    assert len(log.states) == default_scenario.T_run + 1
    assert len(log.coupling) == default_scenario.T_run
    # trigger consistency: consecutive instants differ by the applied interval
    for r0, r1 in zip(log.triggers, log.triggers[1:]):
        assert r1.t_k - r0.t_k == r0.Mk_applied
        assert 1 <= r0.Mk <= default_scenario.N
    assert all(st == "optimal" for rec in log.triggers for st in rec.statuses)


def test_applied_inputs_equal_stored_segments(default_scenario, default_pipeline,
                                              monkeypatch):
    original = simulator.run_admm
    solved = []  # the (group problem, solution) pairs of every instant, in order

    def capturing(ocps, params, **kwargs):
        result = original(ocps, params, **kwargs)
        solved.append(list(zip(ocps, result[0])))
        return result

    monkeypatch.setattr(simulator, "run_admm", capturing)
    log = run_closed_loop(default_scenario, pipeline=default_pipeline)
    assert len(solved) == len(log.triggers)
    for rec, pairs in zip(log.triggers, solved):
        assert sorted(i for ocp, _ in pairs for i in ocp.agents.tolist()) == list(rec.ocp_agents)
        for ocp, sol in pairs:
            for j, i in enumerate(ocp.agents.tolist()):
                m = default_scenario.agents[i].m
                for s in range(rec.Mk_applied):
                    np.testing.assert_array_equal(log.inputs[rec.t_k + s][i],
                                                  sol.u_star[j, s * m:(s + 1) * m])


def test_periodic_solves_every_step(default_scenario, default_pipeline):
    sc = dataclasses.replace(default_scenario, trigger_mode="periodic")
    log = run_closed_loop(sc, pipeline=default_pipeline)
    assert log.solve_instants() == sc.T_run
    assert all(rec.Mk == 1 for rec in log.triggers)
    assert log.local_violations(sc) == 0 and log.global_violations() == 0


def test_periodic_matches_forced_unit_interval(default_scenario, default_pipeline,
                                               monkeypatch):
    # identical seeds: periodic equals self-triggered with the selection bypassed,
    # compared before any agent reaches its terminal set
    short = dataclasses.replace(default_scenario, T_run=4)
    log_p = run_closed_loop(dataclasses.replace(short, trigger_mode="periodic"),
                            pipeline=default_pipeline)

    def forced_unit(profiles):
        return TriggerDecision(Mk_per_agent=tuple(1 for _ in profiles),
                               Mk=1, fallback=tuple(False for _ in profiles))

    monkeypatch.setattr(simulator, "select_Mk", forced_unit)
    log_s = run_closed_loop(short, pipeline=default_pipeline)
    for t in range(short.T_run):
        for i in range(short.M):
            np.testing.assert_array_equal(log_p.states[t][i], log_s.states[t][i])
            np.testing.assert_array_equal(log_p.inputs[t][i], log_s.inputs[t][i])


def test_self_triggered_fewer_solves(default_scenario, default_pipeline):
    log_s = run_closed_loop(default_scenario, pipeline=default_pipeline)
    log_p = run_closed_loop(dataclasses.replace(default_scenario,
                                                trigger_mode="periodic"),
                            pipeline=default_pipeline)
    assert log_s.solve_instants() < log_p.solve_instants()
    assert any(rec.Mk > 1 for rec in log_s.triggers)


def test_initial_infeasibility_error():
    sc = validate_scenario(load_raw("four_agent_infeasible_x0.yaml"))
    pipe = prepare(sc)
    with pytest.raises(InitialInfeasibilityError, match="initial infeasibility"):
        run_closed_loop(sc, pipeline=pipe)


def test_nominal_run_uses_full_horizon(nominal_scenario):
    pipe = prepare(nominal_scenario)
    log = run_closed_loop(nominal_scenario, pipeline=pipe)
    assert log.triggers[0].Mk == nominal_scenario.N
    assert log.local_violations(nominal_scenario) == 0
    # deterministic: re-running yields identical trajectories
    log2 = run_closed_loop(nominal_scenario, pipeline=pipe)
    for t in range(nominal_scenario.T_run + 1):
        for i in range(nominal_scenario.M):
            np.testing.assert_array_equal(log.states[t][i], log2.states[t][i])


def test_monte_carlo_zero_disturbance_deterministic(nominal_scenario):
    pipe = prepare(nominal_scenario)
    report = monte_carlo(nominal_scenario, 3, pipeline=pipe)
    assert report.local_violations == 0
    assert report.global_violations == 0
    assert report.all_feasible
    assert len(set(report.solve_instants)) == 1  # seeds do not matter without noise


def test_monte_carlo_shrinking_disturbance_shrinks_cloud(default_raw):
    raw_small = copy.deepcopy(default_raw)
    for node in raw_small["agents"]:
        node["disturbance"] = {"box": [0.03, 0.03]}
    small = validate_scenario(raw_small)
    big = validate_scenario(copy.deepcopy(default_raw))
    rep_small = monte_carlo(small, 5)
    rep_big = monte_carlo(big, 5)
    assert max(rep_small.final_norms) < max(rep_big.final_norms)


def test_monte_carlo_transitions_satisfy_bounds(slow_scenario):
    pipe = prepare(slow_scenario)
    assert pipe.certificate.overall_ok
    report = monte_carlo(slow_scenario, 30, pipeline=pipe)
    assert report.local_violations == 0 and report.global_violations == 0
    assert report.all_feasible
    trs = report.transitions
    assert trs, "slow scenario should produce consecutive comparable instants"
    for tr in trs:
        assert tr["dV"] <= tr["g_total"] + 1e-5
        assert tr["dV"] <= tr["g0_total"] - tr["sumQ"] + 1e-5


def test_collect_transitions_requires_same_agents(default_scenario, default_pipeline):
    log = run_closed_loop(default_scenario, pipeline=default_pipeline)
    for tr in collect_transitions(log):
        assert tr["Mk"] >= 1


def test_final_interval_truncated_at_horizon(default_raw):
    raw = copy.deepcopy(default_raw)
    raw["t_run"] = 3
    sc = validate_scenario(raw)
    log = run_closed_loop(sc, pipeline=prepare(sc))
    rec = log.triggers[0]
    assert rec.Mk == 5 and rec.Mk_applied == 3
    assert len(log.inputs) == 3 and len(log.states) == 4


def test_agent_inside_terminal_set_routed_to_feedback(default_raw):
    raw = copy.deepcopy(default_raw)
    raw["agents"][2]["x0"] = [0.05, 0.05]
    sc = validate_scenario(raw)
    pipe = prepare(sc)
    log = run_closed_loop(sc, pipeline=pipe)
    assert log.triggers[0].ocp_agents == (0, 1, 3)
    assert log.modes[0][2] == "terminal"
    assert log.local_violations(sc) == 0 and log.global_violations() == 0


def test_coupled_violation_clears_recursive_feasible(default_scenario, default_pipeline,
                                                     tmp_path, monkeypatch):
    log = run_closed_loop(default_scenario, pipeline=default_pipeline)
    assert log.recursive_feasible()
    log.coupling[3] = np.full(log.p, 1.5)  # every inner status stays optimal
    assert not log.recursive_feasible()
    write_summary_json(log, default_scenario, tmp_path / "summary.json")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["global_violations"] == 1
    assert summary["recursive_feasible"] is False

    run = simulator.run_closed_loop

    def breached(*args, **kwargs):
        out = run(*args, **kwargs)
        out.coupling[0] = np.full(out.p, 1.5)
        return out

    monkeypatch.setattr(simulator, "run_closed_loop", breached)
    report = monte_carlo(default_scenario, 2, pipeline=default_pipeline)
    assert report.recursive_feasible == [False, False]
    assert report.as_dict()["recursive_feasible_all"] is False


def test_admm_fallback_accepts_small_violation(default_scenario, default_pipeline,
                                               monkeypatch):
    real_run = simulator.run_admm
    sched = default_pipeline.schedule
    headroom = np.repeat(sched.eps[:-1] / 2.0, sched.p)  # per row of b

    def flaky(ocps, params, **kw):
        sols, state, _ = real_run(ocps, params, **kw)
        state.coupling_excess = 0.9 * headroom
        return sols, state, False  # below headroom: usable last iterate

    monkeypatch.setattr(simulator, "run_admm", flaky)
    log = run_closed_loop(default_scenario, pipeline=default_pipeline)
    assert log.counters["fallback_steps"] == log.solve_instants() > 0


def test_admm_failure_aborts_with_partial_log(default_scenario, default_pipeline,
                                              monkeypatch):
    real_run = simulator.run_admm
    sched = default_pipeline.schedule
    headroom = np.repeat(sched.eps[:-1] / 2.0, sched.p)  # per row of b

    def broken(ocps, params, **kw):
        sols, state, _ = real_run(ocps, params, **kw)
        state.coupling_excess = 10.0 * headroom
        return sols, state, False

    monkeypatch.setattr(simulator, "run_admm", broken)
    with pytest.raises(simulator.SimulationAborted, match="did not converge") as exc:
        run_closed_loop(default_scenario, pipeline=default_pipeline)
    assert exc.value.log is not None  # partial log attached for diagnostics


def test_aborted_log_covers_the_steps_made(default_scenario, default_pipeline,
                                          monkeypatch, tmp_path):
    # the second instant fails: the partial log holds exactly the steps before it
    real_run = simulator.run_admm
    sched = default_pipeline.schedule
    calls = []

    def second_fails(ocps, params, **kw):
        sols, state, converged = real_run(ocps, params, **kw)
        calls.append(len(calls))
        if len(calls) == 2:
            state.coupling_excess = 10.0 * np.repeat(sched.eps[:-1] / 2.0, sched.p)
            converged = False
        return sols, state, converged

    monkeypatch.setattr(simulator, "run_admm", second_fails)
    with pytest.raises(simulator.SimulationAborted) as exc:
        run_closed_loop(default_scenario, pipeline=default_pipeline)
    log = exc.value.log
    steps = log.triggers[0].Mk_applied
    assert 0 < steps == log.steps < log.T_run
    assert len(log.states) == steps + 1 and len(log.inputs) == steps
    assert log.coupling.shape == (steps, log.p) and log.modes.shape == (steps, log.M)
    assert log.local_violations(default_scenario) == 0 and log.global_violations() == 0
    simulator.write_trace_csv(log, default_scenario, tmp_path / "trace.csv")
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == 1 + steps * log.M
    write_summary_json(log, default_scenario, tmp_path / "summary.json")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_coupling_value"] == float(log.coupling.max())
    assert summary["final_states"] == [x.tolist() for x in log.states[steps]]


def hetero_raw():
    """Mixed fleet: a two-input double integrator plus a scalar agent."""
    return {
        "name": "hetero", "horizon": 4, "t_run": 12, "seed": 3,
        "agents": [
            {"A": [[1.0, 0.1], [0.0, 1.0]], "B": [[0.5, 0.0], [0.0, 0.8]],
             "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[0.2, 0.0], [0.0, 0.2]],
             "state_set": {"box": [8.0, 4.0]}, "input_set": {"box": [1.5, 1.5]},
             "disturbance": {"box": [0.05, 0.05]}, "x0": [-3.0, 1.0]},
            {"A": [[0.9]], "B": [[1.0]],
             "Q": [[1.0]], "R": [[0.5]],
             "state_set": {"box": [6.0]}, "input_set": {"box": [2.0]},
             "disturbance": {"box": [0.08]}, "x0": [4.0]},
        ],
        "coupling": {"absolute": True,
                     "psi_x": [[[0.05, 0.01]], [[0.04]]],
                     "psi_u": [[[-0.06, -0.04]], [[-0.08]]],
                     "rhs": [2.0]},
    }


def test_heterogeneous_fleet_end_to_end():
    # the (n, m)-mixed fleet, then the interleaved mixed fleet (groups {0, 3}, {1, 4}, {2, 5})
    from tube_dmpc.local_solver import solve_centralized
    from tube_dmpc.dual_admm import run_admm

    for raw, members in ((hetero_raw(), [[0], [1]]),
                         (load_raw("mixed_six.yaml"), [[0, 3], [1, 4], [2, 5]])):
        sc = validate_scenario(raw)
        pipe = prepare(sc)
        assert pipe.certificate.overall_ok
        assert [g.index.tolist() for g in pipe.groups] == members
        log = run_closed_loop(sc, pipeline=pipe)
        assert log.local_violations(sc) == 0 and log.global_violations() == 0
        assert all(st == "optimal" for rec in log.triggers for st in rec.statuses)
        # input dimensions preserved per agent in the log: (2,) and (1,) in the first fleet
        assert [u.shape for u in log.inputs[0]] == [(agent.m,) for agent in sc.agents]

        sols, _, converged = run_admm(fleet_ocps(sc, pipe, b_share=pipe.schedule.b / sc.M),
                                      sc.solver)
        _, central = solve_centralized(sc, pipe.ingredients, pipe.tightened,
                                       pipe.schedule, sc.x0)
        assert converged
        total = sum(s.J_star.sum() for s in sols)
        assert abs(total - central) / central <= 5e-3


def test_trace_rows_of_mixed_dimension_fleet_fill_the_header(tmp_path):
    # agent 1 has one state and one input of the header's two: its x2, u2 and w2 stay empty
    sc = validate_scenario(hetero_raw())
    log = run_closed_loop(sc, pipeline=prepare(sc))
    simulator.write_trace_csv(log, sc, tmp_path / "trace.csv")
    with open(tmp_path / "trace.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(rows) == log.steps * log.M
    for fields in rows:
        assert len(fields) == len(header)
        rec = dict(zip(header, fields))
        t, i = int(rec["t"]), int(rec["agent"])
        for key, values in (("x", log.states[t][i]), ("u", log.inputs[t][i]),
                            ("w", log.disturbances[t][i])):
            width = sum(name.startswith(key) for name in header)
            assert [float(rec[f"{key}{k + 1}"]) for k in range(values.size)] == values.tolist()
            assert all(rec[f"{key}{k + 1}"] == "" for k in range(values.size, width))
        assert ([float(rec[f"coupling_row_{r + 1}"]) for r in range(log.p)]
                == log.coupling[t].tolist())
        assert rec["mode"] == log.modes[t, i]


def test_schedule_check_rejects_nonmonotone_terminal_entry():
    # with these gains the terminal tolerance entry dips below eps(N-1),
    # so certification fails on the schedule even though the bounds pass
    raw = hetero_raw()
    raw["coupling"]["psi_u"] = [[[0.02, 0.01]], [[0.03]]]
    sc = validate_scenario(raw)
    pipe = prepare(sc)
    assert not pipe.certificate.overall_ok
    assert not pipe.certificate.schedule_ok
    assert all(a.global_ok for a in pipe.certificate.agents)


def test_single_agent_scenario_end_to_end():
    raw = {
        "name": "solo", "horizon": 4, "t_run": 10, "seed": 1,
        "agents": [{"A": [[1.05]], "B": [[1.0]], "Q": [[1.0]], "R": [[0.5]],
                    "state_set": {"box": [6.0]}, "input_set": {"box": [1.0]},
                    "disturbance": {"box": [0.05]}, "x0": [2.0]}],
        "coupling": {"absolute": True, "psi_x": [[[0.05]]],
                     "psi_u": [[[-0.05]]], "rhs": [1.0]},
    }
    sc = validate_scenario(raw)
    pipe = prepare(sc)
    assert pipe.certificate.overall_ok
    log = run_closed_loop(sc, pipeline=pipe)
    assert log.local_violations(sc) == 0 and log.global_violations() == 0
    assert all(st == "optimal" for rec in log.triggers for st in rec.statuses)
