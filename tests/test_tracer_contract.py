"""The benchmark tracer (bench/spans.py) against the package names it rebinds.

bench/spans.py is read and compiled into a fresh module object, so nothing
under bench/ is imported, written or cached. A rename that breaks
`bench/run.py --trace 1` fails here, inside the default test run.
"""

import copy
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tube_dmpc
from tube_dmpc import cli, dual_admm, local_solver, simulator  # noqa: F401  (rebind targets)
from tube_dmpc.model import validate_scenario

from conftest import load_raw

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_wrapped_name_resolves(spans):
    for name, owner_path, attr in spans.WRAPPED:
        owner = spans._resolve(tube_dmpc, owner_path)
        assert callable(getattr(owner, attr, None)), name


def test_traced_run_spans_match_counters(spans, default_scenario, fresh_pipeline):
    tracer = spans.Tracer(tube_dmpc)
    tracer.install()
    try:
        tracer.run = 0
        log = simulator.run_closed_loop(default_scenario, pipeline=fresh_pipeline)
    finally:
        tracer.uninstall()
    data = tracer.arrays()
    code = data["code"]
    inner = code == spans.CODE["local_solver.solve_inner"]
    assert int(data["payload"][inner].sum()) == log.counters["inner_iterations"]
    # one condense, solve_inner, g_profile and select_Mk span per agent group and instant
    # (the default agents form one group, and every instant is certified at iteration 0),
    # so the bench's per-layer split keeps its meaning
    assert len(fresh_pipeline.groups) == 1
    ids = spans.instant_ids(data)
    assert int(ids.max()) + 1 == log.solve_instants()
    for name in ("local_solver.condense", "local_solver.solve_inner", "trigger.g_profile",
                 "trigger.select_Mk"):
        calls = code == spans.CODE[name]
        assert int(calls.sum()) == log.solve_instants(), name
        np.testing.assert_array_equal(np.bincount(ids[calls], minlength=log.solve_instants()),
                                      1, err_msg=name)


def test_traced_runs_solve_the_replayed_instant(spans, default_scenario, fresh_pipeline):
    # the tracer rebinds condense and the inner solve, so traced runs on a pipeline whose
    # slot an untraced run filled (as the bench times them) solve t = 0 each time: one
    # condense, run_admm and solve_inner span per instant, the untraced runs' counters,
    # and the slot left as it was
    untraced = simulator.run_closed_loop(default_scenario, pipeline=fresh_pipeline)
    stored = fresh_pipeline.replay[1]
    tracer = spans.Tracer(tube_dmpc)
    tracer.install()
    try:
        logs = []
        for run in (0, 1):
            tracer.run = run
            logs.append(simulator.run_closed_loop(default_scenario, pipeline=fresh_pipeline))
    finally:
        tracer.uninstall()
    assert fresh_pipeline.replay[1] is stored
    assert all(log.counters == untraced.counters for log in logs)
    data = tracer.arrays()
    code, run = data["code"], data["run"]
    instants = untraced.solve_instants()
    for r in (0, 1):
        for name in ("local_solver.condense", "dual_admm.run_admm", "local_solver.solve_inner",
                     "trigger.g_profile"):
            assert int(((code == spans.CODE[name]) & (run == r)).sum()) == instants, (r, name)
    assert int(spans.instant_ids(data).max()) + 1 == 2 * instants
    inner = code == spans.CODE["local_solver.solve_inner"]
    assert (int(data["payload"][inner].sum())
            == sum(log.counters["inner_iterations"] for log in logs))


def replicated_eight(default_raw):
    """Eight copies of the default agents: one agent group of 8, solved in lockstep."""
    raw = copy.deepcopy(default_raw)
    raw["agents"] = [copy.deepcopy(raw["agents"][i % 4]) for i in range(8)]
    for key in ("psi_x", "psi_u"):
        raw["coupling"][key] = [raw["coupling"][key][i % 4] for i in range(8)]
    raw["coupling"]["rhs"] = [20.0]
    return validate_scenario(raw)


@pytest.mark.parametrize("case", ["periodic", "replicated-8", "mixed-six", "one-round"])
def test_traced_grouped_runs_match_counters(spans, default_scenario, fresh_pipeline,
                                            default_raw, monkeypatch, case):
    # one solve_inner span per group and ADMM iteration, its payload summed over the group
    if case in ("periodic", "one-round"):
        scenario, pipeline = replace(default_scenario, trigger_mode="periodic"), fresh_pipeline
        if case == "one-round":  # one active-set round leaves columns to the splitting fallback
            monkeypatch.setattr(local_solver, "ACTIVE_SET_ROUNDS", 1)
    else:
        scenario = (replicated_eight(default_raw) if case == "replicated-8"
                    else validate_scenario(load_raw("mixed_six.yaml")))
        pipeline = simulator.prepare(scenario)
        assert len(pipeline.groups) == (1 if case == "replicated-8" else 3)
    tracer = spans.Tracer(tube_dmpc)
    tracer.install()
    try:
        tracer.run = 0
        log = simulator.run_closed_loop(scenario, pipeline=pipeline)
    finally:
        tracer.uninstall()
    data = tracer.arrays()
    code = data["code"]
    inner = code == spans.CODE["local_solver.solve_inner"]
    assert int(data["payload"][inner].sum()) == log.counters["inner_iterations"]
    assert log.counters["active_set_rounds"] > 0
    if case == "one-round":  # the payload check above compares a nonzero count
        assert log.counters["inner_iterations"] > 0
    # per instant, one condense span per group with solving agents, and one
    # solve_inner span per such group: the coupled row is slack at multiplier 0 on
    # these runs, so every instant is certified at ADMM iteration 0
    solving = [sum(bool(set(rec.ocp_agents) & set(g.index.tolist())) for g in pipeline.groups)
               for rec in log.triggers]
    assert [rec.admm_iterations for rec in log.triggers] == [0] * log.solve_instants()
    assert not data["repeat"][inner].any()
    assert int(inner.sum()) == sum(solving)
    condense = code == spans.CODE["local_solver.condense"]
    assert int(condense.sum()) == sum(solving)
    assert int(spans.instant_ids(data).max()) + 1 == log.solve_instants()


def test_traced_prepare_records_offline_layers_per_group(spans):
    # the bench's set-up metrics read these spans under simulator.prepare
    scenario = validate_scenario(load_raw("mixed_six.yaml"))
    tracer = spans.Tracer(tube_dmpc)
    tracer.install()
    try:
        pipeline = simulator.prepare(scenario)
    finally:
        tracer.uninstall()
    data = tracer.arrays()
    code, parent = data["code"], data["parent"]
    prepare = np.flatnonzero(code == spans.CODE["simulator.prepare"])
    assert prepare.size == 1 and len(pipeline.groups) == 3
    expected = {"synthesis.synthesize": 3, "tightening.tighten_local_sets": 3,
                "tightening.tolerance_schedule": 1, "synthesis.certify": 1}
    for name, count in expected.items():
        calls = code == spans.CODE[name]
        assert int(calls.sum()) == count, name
        assert np.all(parent[calls] == prepare[0]), name
