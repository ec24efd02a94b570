"""The benchmark tracer (bench/spans.py) against the package names it rebinds.

bench/spans.py is read and compiled into a fresh module object, so nothing
under bench/ is imported, written or cached. A rename that breaks
`bench/run.py --trace 1` fails here, inside the default test run.
"""

import types
from pathlib import Path

import pytest

import tube_dmpc
from tube_dmpc import cli, dual_admm, local_solver, simulator  # noqa: F401  (rebind targets)

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


def test_traced_run_spans_match_counters(spans, default_scenario, default_pipeline):
    tracer = spans.Tracer(tube_dmpc)
    tracer.install()
    try:
        tracer.run = 0
        log = simulator.run_closed_loop(default_scenario, pipeline=default_pipeline)
    finally:
        tracer.uninstall()
    data = tracer.arrays()
    code = data["code"]
    inner = code == spans.CODE["local_solver.solve_inner"]
    assert int(data["payload"][inner].sum()) == log.counters["inner_iterations"]
    condense = code == spans.CODE["local_solver.condense"]
    assert int(condense.sum()) == sum(len(rec.ocp_agents) for rec in log.triggers)
    assert int(spans.instant_ids(data).max()) + 1 == log.solve_instants()
