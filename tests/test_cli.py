import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from tube_dmpc import cli
from tube_dmpc.cli import load_scenario, main
from tube_dmpc.model import SolverParams

SCENARIO = str(Path(__file__).resolve().parent.parent / "scenarios" / "four_agent.yaml")
INFEASIBLE_X0 = str(Path(__file__).resolve().parent.parent / "scenarios"
               / "four_agent_infeasible_x0.yaml")
COUPLED_INFEASIBLE = str(Path(__file__).resolve().parent.parent / "scenarios"
                         / "four_agent_coupled_infeasible.yaml")
ANISOTROPIC = str(Path(__file__).resolve().parent.parent / "scenarios"
                  / "four_agent_anisotropic_terminal.yaml")
MIXED_SIX = str(Path(__file__).resolve().parent.parent / "scenarios" / "mixed_six.yaml")


def write_variant(tmp_path, mutate, name="variant.yaml"):
    raw = yaml.safe_load(open(SCENARIO))
    mutate(raw)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_certify_default_exit_zero(tmp_path):
    code = main(["certify", "--scenario", SCENARIO, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "certificate.json").read_text())
    assert report["overall_ok"] is True
    assert report["schedule"]["ok"] is True


def test_certify_inflated_disturbance_exit_one(tmp_path):
    def inflate(raw):
        for node in raw["agents"]:
            node["disturbance"] = {"box": [30.0, 30.0]}  # 100x
    path = write_variant(tmp_path, inflate)
    code = main(["certify", "--scenario", path, "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "certificate.json").read_text())
    assert report["overall_ok"] is False
    assert any(not a["global"]["ok"] for a in report["agents"])


def test_certify_malformed_document_exit_two(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("agents: [this is: not: valid\n")
    assert main(["certify", "--scenario", str(bad), "--out", str(tmp_path)]) == 2


def test_certify_invalid_scenario_exit_two(tmp_path):
    def zero_q(raw):
        raw["agents"][0]["Q"] = [[0.0, 0.0], [0.0, 0.0]]
    path = write_variant(tmp_path, zero_q)
    assert main(["certify", "--scenario", path, "--out", str(tmp_path)]) == 2


def test_run_writes_traces(tmp_path):
    code = main(["run", "--scenario", SCENARIO, "--out", str(tmp_path), "--seed", "0"])
    assert code == 0
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("t,agent,x1,x2,u1,w1,w2,coupling_row_1,coupling_row_2,mode")
    assert len(trace) == 1 + 30 * 4  # header + T_run rows per agent
    triggers = (tmp_path / "triggers.csv").read_text().splitlines()
    assert triggers[0] == "t_k,Mk,Mk_applied,total_cost,admm_iters"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["local_violations"] == 0
    assert summary["global_violations"] == 0
    assert summary["recursive_feasible"] is True
    assert len(summary["final_states"]) == 4


def test_run_periodic_one_row_per_step(tmp_path):
    code = main(["run", "--scenario", SCENARIO, "--out", str(tmp_path),
                 "--mode", "periodic"])
    assert code == 0
    triggers = (tmp_path / "triggers.csv").read_text().splitlines()
    assert len(triggers) == 1 + 30
    assert all(line.split(",")[1] == "1" for line in triggers[1:])


def test_run_byte_identical_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", SCENARIO, "--out", str(out1), "--seed", "3"]) == 0
    assert main(["run", "--scenario", SCENARIO, "--out", str(out2), "--seed", "3"]) == 0
    for name in ("trace.csv", "triggers.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_x0_outside_state_set_exit_two(tmp_path):
    def outside(raw):
        raw["agents"][0]["x0"] = [-30.0, 0.0]
    path = write_variant(tmp_path, outside)
    assert main(["run", "--scenario", path, "--out", str(tmp_path)]) == 2


NAN = float("nan")

# malformed documents: (mutation of the default document, text the error line must name)
MALFORMED = {
    "missing-x0": (lambda raw: raw["agents"][0].pop("x0"), "'x0'"),
    "missing-A": (lambda raw: raw["agents"][2].pop("A"), "'A'"),
    "missing-rhs": (lambda raw: raw["coupling"].pop("rhs"), "'rhs'"),
    "text-entry": (lambda raw: raw["agents"][1]["B"][0].__setitem__(0, "x"), "'B'"),
    "text-horizon": (lambda raw: raw.update(horizon="five"), "'horizon'"),
    "fractional-horizon": (lambda raw: raw.update(horizon=5.7), "'horizon'"),
    "missing-horizon": (lambda raw: raw.pop("horizon"), "'horizon'"),
    "fractional-t-run": (lambda raw: raw.update(t_run=30.5), "'t_run'"),
    "missing-t-run": (lambda raw: raw.pop("t_run"), "'t_run'"),
    "fractional-seed": (lambda raw: raw.update(seed=3.9), "'seed'"),
    "negative-seed": (lambda raw: raw.update(seed=-1), "seed"),
    "nan-in-A": (lambda raw: raw["agents"][1]["A"][0].__setitem__(1, NAN), "'A'"),
    "nan-psi-x": (lambda raw: raw["coupling"]["psi_x"][2][0].__setitem__(0, NAN), "'psi_x'"),
    "nan-disturbance-box": (lambda raw: raw["agents"][0]["disturbance"]["box"]
                            .__setitem__(1, NAN), "'box'"),
    "unknown-solver-key": (lambda raw: raw["solver"].update(foo=1), "'foo'"),
    "zero-max-iter": (lambda raw: raw["solver"].update(max_iter=0), "max_iter"),
    "negative-tol": (lambda raw: raw["solver"].update(tol=-1), "tol"),
    "text-tol": (lambda raw: raw["solver"].update(tol="fast"), "'tol'"),
    "inf-tol": (lambda raw: raw["solver"].update(tol=float("inf")), "'tol'"),
    "nan-rho": (lambda raw: raw["solver"].update(rho=NAN), "'rho'"),
    "inf-rho": (lambda raw: raw["solver"].update(rho=float("inf")), "'rho'"),
    "fractional-max-iter": (lambda raw: raw["solver"].update(max_iter=2.5), "'max_iter'"),
}
# settings that one value served, now refused as unknown solver fields
MALFORMED.update({f"retired-{key}": (lambda raw, key=key: raw["solver"].update({key: 1e-5}),
                                     f"'{key}'")
                  for key in ("gamma", "tau", "tol_primal", "tol_dual", "inner_tol",
                              "inner_max_iter")})
# a document that still sets tau is refused whatever the value, below the old floor too
MALFORMED.update({
    "negative-tau": (lambda raw: raw["solver"].update(tau=-1), "tau"),
    "tau-below-floor": (lambda raw: raw["solver"].update(tau=0.5), "tau"),
})


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_two_with_one_error_line(tmp_path, capsys, case):
    mutate, field = MALFORMED[case]
    path = write_variant(tmp_path, mutate)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and field in err[0], err


@pytest.mark.parametrize("command", ["run", "certify"])
def test_failed_synthesis_exits_two_with_one_error_line(tmp_path, capsys, command):
    # reachable to validation (controllability singular-value ratio 3.1e-8 > RANK_TOL),
    # but the unstable x2 mode is driven only through B = 1e-6: the Riccati iteration diverges
    def weak_input(raw):
        for node in raw["agents"]:
            node["A"], node["B"] = [[1.5, 0.0], [0.0, 1.4]], [[1.0], [1e-6]]
    path = write_variant(tmp_path, weak_input)
    assert main([command, "--scenario", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "Riccati" in err[0], err


def test_solver_numbers_without_a_dot_are_converted(tmp_path):
    # YAML 1.1 loads 1e-5 and 5e2 (no dot) as strings
    text = (Path(SCENARIO).read_text().replace("tol: 1.0e-5", "tol: 1e-5")
            .replace("max_iter: 500", "max_iter: 5e2"))
    path = tmp_path / "no_dot.yaml"
    path.write_text(text)
    assert yaml.safe_load(text)["solver"]["tol"] == "1e-5"
    solver = load_scenario(path).solver
    assert solver.tol == 1e-5 and solver.max_iter == 500
    assert isinstance(solver.max_iter, int)


def test_retired_gamma_flag_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", SCENARIO, "--out", str(tmp_path), "--gamma", "1"])
    assert exc.value.code == 2
    assert "--gamma" in capsys.readouterr().err


def test_shipped_scenarios_and_documented_solver_keys_match_the_schema():
    # every shipped document loads (the bench builds its fleets from four_agent.yaml), and
    # the solver line of the documented layout names exactly the SolverParams fields
    for path in sorted(Path(SCENARIO).parent.glob("*.yaml")):
        load_scenario(path)
    line = next(line for line in cli.__doc__.splitlines() if line.strip().startswith("solver:"))
    documented = yaml.safe_load(line)["solver"]
    assert list(documented) == [f.name for f in dataclasses.fields(SolverParams)]


def test_certify_synthesizes_once_per_agent_group(tmp_path, monkeypatch):
    calls, synthesize = [], cli.synthesize
    monkeypatch.setattr(cli, "synthesize", lambda agent: calls.append(agent) or synthesize(agent))
    assert main(["certify", "--scenario", MIXED_SIX, "--out", str(tmp_path)]) == 0
    assert len(calls) == 3  # six agents, three models


def test_anisotropic_terminal_set_is_refused(tmp_path, capsys):
    # the coupled row runs along the short axis of P's ellipsoid: every agent
    # starts in terminal mode and the row reads 1.766 at t = 0
    assert main(["certify", "--scenario", ANISOTROPIC, "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "certificate.json").read_text())
    assert report["terminal_row"]["ok"] is False
    assert report["terminal_row"]["margin"] == pytest.approx(-0.964, abs=1e-3)
    capsys.readouterr()
    assert main(["run", "--scenario", ANISOTROPIC, "--out", str(tmp_path / "run")]) == 2
    assert "certificates fail" in capsys.readouterr().err


def test_cli_import_leaves_scipy_optimize_out():
    # no scipy module at all: linprog is imported on first use, and the solver is numpy only
    code = ("import sys, tube_dmpc.cli; print('scipy.optimize' in sys.modules, "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert out.stdout.strip() == "False []"


def test_run_initial_infeasibility_exit_three(tmp_path):
    assert main(["run", "--scenario", INFEASIBLE_X0, "--out", str(tmp_path)]) == 3


def test_run_coupled_infeasible_exit_four(tmp_path, capsys):
    # the last dual iterate breaks the coupled row in block 0, which has no
    # tolerance: the run aborts instead of accepting a fallback
    code = main(["run", "--scenario", COUPLED_INFEASIBLE, "--out", str(tmp_path),
                 "--max-iter", "50"])
    assert code == 4
    assert "row block 0" in capsys.readouterr().err


def test_montecarlo_reports_aborted_runs(tmp_path):
    # every run aborts at t = 0; the partial logs are still checked and reported
    code = main(["montecarlo", "--scenario", COUPLED_INFEASIBLE, "--out", str(tmp_path),
                 "--runs", "2", "--max-iter", "50"])
    assert code == 1
    report = json.loads((tmp_path / "montecarlo.json").read_text())
    assert [run for run, _ in report["failures"]] == [0, 1]
    assert all("did not converge at t = 0" in why for _, why in report["failures"])
    assert report["recursive_feasible_runs"] == [False, False]
    assert report["local_violations"] == 0 and report["global_violations"] == 0


def test_montecarlo_small_campaign(tmp_path):
    code = main(["montecarlo", "--scenario", SCENARIO, "--out", str(tmp_path),
                 "--runs", "5"])
    assert code == 0
    report = json.loads((tmp_path / "montecarlo.json").read_text())
    assert report["n_runs"] == 5
    assert report["local_violations"] == 0
    assert report["recursive_feasible_all"] is True
    assert report["interval_histogram"]


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_montecarlo_without_runs_exits_two(tmp_path, capsys, runs):
    out = tmp_path / "out"
    assert main(["montecarlo", "--scenario", SCENARIO, "--out", str(out), "--runs", runs]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "--runs" in err[0], err
    assert not (out / "montecarlo.json").exists()


def test_compare_reports_fewer_solves(tmp_path):
    code = main(["compare", "--scenario", SCENARIO, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "comparison.json").read_text())
    st = report["self-triggered"]["ocp_solve_instants"]
    pe = report["periodic"]["ocp_solve_instants"]
    assert st < pe
    assert report["solve_instant_ratio"] == pytest.approx(st / pe)
    for mode in ("self-triggered", "periodic"):
        margins = report[mode]["max_constraint_margins"]
        assert margins["state"] <= 1e-6
        assert margins["input"] <= 1e-6
        assert margins["coupling"] <= 1e-6


def test_compare_nominal_reaches_full_horizon(tmp_path):
    def no_noise(raw):
        for node in raw["agents"]:
            node["disturbance"] = {"w_bar": 0.0}
    path = write_variant(tmp_path, no_noise)
    assert main(["compare", "--scenario", path, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "comparison.json").read_text())
    # one solve covers a full horizon: count is about ceil(T_run / N)
    assert report["self-triggered"]["ocp_solve_instants"] <= -(-30 // 5)


def test_inspect_dumps_ingredients(tmp_path, capsys):
    code = main(["inspect", "--scenario", SCENARIO, "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "inspect.json").read_text())
    assert len(doc["agents"]) == 4
    assert doc["schedule"]["eps"][0] == 0.0
    assert doc["certificate"]["overall_ok"] is True


def test_run_force_overrides_failed_certificates(tmp_path):
    def tiny_inputs(raw):
        for node, x0 in zip(raw["agents"], ([0.4, 0.3], [-0.4, -0.3],
                                            [0.3, -0.3], [-0.3, 0.3])):
            node["input_set"] = {"box": [0.12]}
            node["x0"] = x0
    path = write_variant(tmp_path, tiny_inputs)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "plain")]) == 2
    code = main(["run", "--scenario", path, "--out", str(tmp_path / "forced"),
                 "--force"])
    assert code in (0, 1)
    summary = json.loads((tmp_path / "forced" / "summary.json").read_text())
    assert summary["forced_despite_failed_certificates"] is True


def test_run_admm_failure_exit_four(tmp_path, monkeypatch):
    import tube_dmpc.simulator as simulator

    real_run = simulator.run_admm

    def broken(ocps, params, **kw):
        sols, state, _ = real_run(ocps, params, **kw)
        state.coupling_excess = np.ones_like(state.coupling_excess)
        return sols, state, False

    monkeypatch.setattr(simulator, "run_admm", broken)
    assert main(["run", "--scenario", SCENARIO, "--out", str(tmp_path)]) == 4


def test_compare_margins_include_final_state(default_scenario, default_pipeline):
    from tube_dmpc.cli import _constraint_margins
    from tube_dmpc.simulator import run_closed_loop

    sc = default_scenario
    log = run_closed_loop(sc, pipeline=default_pipeline)
    assert _constraint_margins(sc, log)["state"] <= 1e-6
    log.states[sc.T_run][0][:] = [21.0, 0.0]  # X is the box |x1| <= 20, |x2| <= 5
    assert log.local_violations(sc) == 1
    assert _constraint_margins(sc, log)["state"] == pytest.approx(1.0)
