"""The replayed first instant: a pipeline's later runs skip the t = 0 coupled solve.

Every run of one pipeline from one x0 starts with the same t = 0 problem (the
disturbances enter only after it), so the first run that converges there
stores its condensed problems, solutions and dual state in the pipeline's one
replay slot, and a later run with the same key skips `condense` and
`run_admm` at t = 0. Its outputs are those of a fresh pipeline. A run in
which `condense` or the inner solve is rebound (a span tracer, a spy) solves
t = 0 every time, so the calls here are counted by a profile hook instead.
"""

import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import tube_dmpc.cli as cli
import tube_dmpc.dual_admm as dual_admm
import tube_dmpc.local_solver as local_solver
import tube_dmpc.simulator as simulator
from tube_dmpc.cli import main
from tube_dmpc.model import validate_scenario
from tube_dmpc.simulator import (InitialInfeasibilityError, prepare, run_closed_loop,
                                 write_summary_json, write_trace_csv, write_triggers_csv)

from conftest import load_raw

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_of(name, mode="self-triggered"):
    return dataclasses.replace(validate_scenario(load_raw(name)), trigger_mode=mode)


def outputs(scenario, log, path) -> dict:
    """The bytes of the three files `tube-dmpc run` writes for `log`."""
    path.mkdir()
    write_trace_csv(log, scenario, path / "trace.csv")
    write_triggers_csv(log, path / "triggers.csv")
    write_summary_json(log, scenario, path / "summary.json")
    return {name: (path / name).read_bytes()
            for name in ("trace.csv", "triggers.csv", "summary.json")}


@pytest.fixture
def calls():
    """Calls of condense and run_admm during the test, counted by a profile hook.

    The hook rebinds no name, so the replay stays on.
    """
    codes = {local_solver.condense.__code__: "condense", dual_admm.run_admm.__code__: "run_admm"}
    counts = dict.fromkeys(codes.values(), 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    yield counts
    sys.setprofile(previous)


def solving_groups(pipeline, rec) -> int:
    """The agent groups with OCP agents at the instant `rec`: one condense call each."""
    return sum(bool(set(rec.ocp_agents) & set(g.index.tolist())) for g in pipeline.groups)


@pytest.mark.parametrize("mode", ["self-triggered", "periodic"])
@pytest.mark.parametrize("name", ["four_agent.yaml", "mixed_six.yaml"])
def test_second_run_writes_the_fresh_pipelines_bytes(tmp_path, name, mode):
    sc = scenario_of(name, mode)
    pipe = prepare(sc)
    run_closed_loop(sc, pipeline=pipe, seed=sc.seed + 1)
    assert pipe.replay  # the first run stored its t = 0 solve
    stored = pipe.replay[1]
    replayed = run_closed_loop(sc, pipeline=pipe)
    assert pipe.replay[1] is stored
    fresh = run_closed_loop(sc, pipeline=prepare(sc))
    assert replayed.counters == fresh.counters
    assert outputs(sc, replayed, tmp_path / "replayed") == outputs(sc, fresh, tmp_path / "fresh")


@pytest.mark.parametrize("mode", ["self-triggered", "periodic"])
@pytest.mark.parametrize("name", ["four_agent.yaml", "mixed_six.yaml"])
def test_second_run_skips_the_first_solve(calls, name, mode):
    sc = scenario_of(name, mode)
    pipe = prepare(sc)
    first = run_closed_loop(sc, pipeline=pipe)
    assert first.triggers[0].t_k == 0
    assert calls == {"condense": sum(solving_groups(pipe, rec) for rec in first.triggers),
                     "run_admm": first.solve_instants()}
    calls.update(condense=0, run_admm=0)
    second = run_closed_loop(sc, pipeline=pipe, seed=sc.seed + 1)
    # no call at t = 0, one run_admm call and one condense call per solving group at
    # every later instant
    assert second.triggers[0].t_k == 0
    assert calls == {"condense": sum(solving_groups(pipe, rec) for rec in second.triggers[1:]),
                     "run_admm": second.solve_instants() - 1}


def test_replayed_arrays_are_read_only(default_scenario):
    pipe = prepare(default_scenario)
    run_closed_loop(default_scenario, pipeline=pipe)
    blocks, ocps, solutions, state = pipe.replay[1]
    arrays = [state.lambdas, state.omega, state.coupling_excess, *state.active]
    for ocp, sol in zip(ocps, solutions):
        arrays += [ocp.x0, ocp.q, ocp.rows_rhs, ocp.F, ocp.b_share, sol.u_star, sol.z_star,
                   sol.J_star]
    assert not any(arr.flags.writeable for arr in arrays)


def first_solves(calls, scenario, pipeline) -> int:
    """run_admm calls at t = 0 (0 or 1) in one run of `scenario` on `pipeline`; `calls` spies."""
    before = calls["run_admm"]
    log = run_closed_loop(scenario, pipeline=pipeline)
    return calls["run_admm"] - before - (log.solve_instants() - 1)


@pytest.mark.parametrize("change", ["x0", "solver", "terminal-mask"])
def test_a_changed_key_solves_again_and_replaces_the_slot(calls, default_raw, change):
    raw = copy.deepcopy(default_raw)
    raw["agents"][2]["x0"] = [0.05, 0.05]  # inside its terminal set at t = 0
    sc = validate_scenario(raw)
    pipe = prepare(sc)
    assert first_solves(calls, sc, pipe) == 1
    key, stored = pipe.replay
    assert first_solves(calls, sc, pipe) == 0
    if change == "x0":
        other = dataclasses.replace(sc, x0=(sc.x0[0] * 0.9,) + sc.x0[1:])
    elif change == "solver":
        other = dataclasses.replace(sc, solver=dataclasses.replace(sc.solver, rho=2.0))
    else:  # the periodic mode solves every agent at t = 0: the same states, another mask
        other = dataclasses.replace(sc, trigger_mode="periodic")
    assert first_solves(calls, other, pipe) == 1
    assert pipe.replay[0] != key and pipe.replay[1] is not stored
    assert first_solves(calls, other, pipe) == 0
    assert first_solves(calls, sc, pipe) == 1  # one slot: the first key is gone


def test_initial_infeasibility_raises_on_every_run_and_stores_nothing():
    sc = validate_scenario(load_raw("four_agent_infeasible_x0.yaml"))
    pipe = prepare(sc)
    for seed in (sc.seed, sc.seed, sc.seed + 1):
        with pytest.raises(InitialInfeasibilityError, match="initial infeasibility"):
            run_closed_loop(sc, pipeline=pipe, seed=seed)
        assert pipe.replay == []


def test_a_fallback_instant_is_not_stored(monkeypatch, default_scenario):
    # an unconverged dual iterate within the headroom is applied as a fallback, not stored
    pipe = prepare(default_scenario)
    run_admm = simulator.run_admm

    def unconverged(ocps, params, **kwargs):
        solutions, state, _ = run_admm(ocps, params, **kwargs)
        return solutions, state, False

    monkeypatch.setattr(simulator, "run_admm", unconverged)
    log = run_closed_loop(default_scenario, pipeline=pipe)
    assert log.triggers[0].fallback and pipe.replay == []


def same(x, y) -> bool:
    """Equal values, with arrays compared element by element and sequences by type."""
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    if isinstance(x, (tuple, list)):
        return type(x) is type(y) and len(x) == len(y) and all(map(same, x, y))
    return x == y


def test_a_later_run_leaves_the_stored_solve_as_it_was(default_scenario):
    # the mutable parts of the stored solve (dual state, solutions) are shared by every
    # later run: its sequences are tuples, and replaying them changes no field
    pipe = prepare(default_scenario)
    run_closed_loop(default_scenario, pipeline=pipe)
    blocks, ocps, solutions, state = stored = pipe.replay[1]
    assert all(isinstance(seq, tuple) for seq in (blocks, ocps, solutions, state.active))
    before = copy.deepcopy((blocks, solutions, state))
    for seed in (default_scenario.seed, default_scenario.seed + 1):
        run_closed_loop(default_scenario, pipeline=pipe, seed=seed)
    assert pipe.replay[1] is stored
    assert blocks == before[0]
    for old, new in zip((*before[1], before[2]), (*solutions, state)):
        for f in dataclasses.fields(old):
            assert same(getattr(old, f.name), getattr(new, f.name)), f.name


@pytest.mark.parametrize("owner,name", [(simulator, "condense"), (dual_admm, "solve_inner")])
def test_a_rebound_solver_solves_the_first_instant_every_run(monkeypatch, default_scenario,
                                                             owner, name):
    # a wrapper around condense or the inner solve (a span tracer) sees the t = 0 solve
    # of every run; the slot a plain run filled is neither read nor replaced
    pipe = prepare(default_scenario)
    run_closed_loop(default_scenario, pipeline=pipe)
    stored = pipe.replay[1]
    original, seen = getattr(owner, name), []

    def wrapped(*args, **kwargs):
        seen.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)
    for _ in range(2):
        seen.clear()
        log = run_closed_loop(default_scenario, pipeline=pipe)
        assert len(seen) == log.solve_instants() and pipe.replay[1] is stored


def fresh_pipeline_per_run(monkeypatch, module):
    """Make module.run_closed_loop prepare a new pipeline for every run."""
    run = simulator.run_closed_loop

    def fresh(scenario, pipeline=None, **kwargs):
        return run(scenario, pipeline=prepare(scenario), **kwargs)

    monkeypatch.setattr(module, "run_closed_loop", fresh)


@pytest.mark.parametrize("command", ["montecarlo", "compare"])
def test_campaigns_write_the_bytes_of_fresh_pipelines(tmp_path, monkeypatch, calls, command):
    args = [command, "--scenario", str(SCENARIOS / "four_agent.yaml")]
    if command == "montecarlo":
        args += ["--runs", "5"]
    name = "montecarlo.json" if command == "montecarlo" else "comparison.json"
    assert main(args + ["--out", str(tmp_path / "shared")]) == 0
    shared = calls["run_admm"]
    calls["run_admm"] = 0
    fresh_pipeline_per_run(monkeypatch, simulator if command == "montecarlo" else cli)
    assert main(args + ["--out", str(tmp_path / "fresh")]) == 0
    runs = 5 if command == "montecarlo" else 2
    assert shared == calls["run_admm"] - (runs - 1)  # t = 0 solved once, not once per run
    assert ((tmp_path / "shared" / name).read_bytes()
            == (tmp_path / "fresh" / name).read_bytes())
