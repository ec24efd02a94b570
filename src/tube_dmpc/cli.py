"""Command-line front end.

Scenario documents are YAML with the following layout (matrices row-major):

    name: four-agent
    horizon: 5
    t_run: 30
    seed: 0
    trigger_mode: self-triggered   # or periodic
    agents:
      - A: [[1.1, 0.12], [0.35, 0.0075]]
        B: [[1.5], [0.5]]
        Q: [[1.0, 0.0], [0.0, 1.0]]
        R: [[0.1]]
        state_set: {box: [20.0, 5.0]}      # or {G: [[...]], h: [...]}
        input_set: {box: [2.0]}
        disturbance: {box: [0.3, 0.3]}     # or {w_bar: 0.42}
        x0: [-10.0, -4.0]
    coupling:
      absolute: true          # encode |rows| <= rhs as +/- row pairs
      psi_x: [[[0.08, 0.02]], ...]         # one p x n matrix per agent
      psi_u: [[[0.01]], ...]               # one p x m matrix per agent
      rhs: [10.0]                          # normalized to ones at ingestion
    solver: {rho: 1.0, tol: 1.0e-5, max_iter: 500}

Exit codes: 0 success / all checks pass; 1 a reported check failed;
2 parse or validation error; 3 initial infeasibility; 4 dual-solver failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from .model import ScenarioError, Scenario, group_members, per_agent, validate_scenario
from .synthesis import SynthesisError, certify, synthesize
from .simulator import (CertificationError, InitialInfeasibilityError,
                        SimulationAborted, monte_carlo, prepare,
                        run_closed_loop, write_summary_json, write_trace_csv,
                        write_triggers_csv)
from .tightening import TighteningError, schedule_values
from .trigger import stage_costs

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INITIAL_INFEASIBLE = 3
EXIT_ADMM_FAILURE = 4

log = logging.getLogger("tube_dmpc")


def load_scenario(path, overrides=None) -> Scenario:
    with open(path) as fh:
        raw = yaml.load(fh, Loader=yaml.CSafeLoader)
    if overrides and isinstance(raw, dict):
        raw.update({k: v for k, v in overrides.items() if v is not None and k != "_solver"})
        solver_over = {k: v for k, v in (overrides.get("_solver") or {}).items()
                       if v is not None}
        if solver_over:
            raw["solver"] = {**(raw.get("solver") or {}), **solver_over}
    return validate_scenario(raw)


def _overrides(args) -> dict:
    return {
        "seed": getattr(args, "seed", None),
        "trigger_mode": getattr(args, "mode", None),
        "_solver": {
            "rho": getattr(args, "rho", None),
            "tol": getattr(args, "tol", None),
            "max_iter": getattr(args, "max_iter", None),
        },
    }


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_certify(args) -> int:
    scenario = load_scenario(args.scenario, _overrides(args))
    members = group_members(scenario.agents)
    ingredients = per_agent(scenario.agents, members, synthesize)
    # schedule_values and certify report failures (eps(N) >= 1 included), never raise
    eps = schedule_values(scenario, ingredients, members)
    certificate = certify(scenario, ingredients, eps, members)
    report = certificate.as_dict()
    out = _outdir(args) / "certificate.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    ok = certificate.overall_ok
    print(f"certificates: {'PASS' if ok else 'FAIL'} (report: {out})")
    if not certificate.strict_local_all_ok:
        print("note: strict per-agent re-planning bound not met; "
              "covered by the empirical suites, does not gate")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_inspect(args) -> int:
    scenario = load_scenario(args.scenario, _overrides(args))
    pipeline = prepare(scenario)
    doc = {
        "scenario": scenario.name,
        "agents": [
            {
                "K": ing.K.tolist(),
                "P": ing.P.tolist(),
                "r": ing.r,
                "eps_r": ing.eps_r,
                "contraction": ing.contraction,
                "tightened_offsets": [tz.h.tolist() for tz in tight.Z],
            }
            for ing, tight in zip(pipeline.ingredients, pipeline.tightened)
        ],
        "schedule": {
            "eps": [float(v) for v in pipeline.schedule.eps],
            "b": [float(v) for v in pipeline.schedule.b],
        },
        "certificate": pipeline.certificate.as_dict(),
    }
    text = json.dumps(doc, indent=2)
    out = _outdir(args) / "inspect.json"
    out.write_text(text + "\n")
    print(text)
    return EXIT_OK


def _run_single(scenario, out, force):
    pipeline = prepare(scenario)
    forced = force and not pipeline.certificate.overall_ok
    sim = run_closed_loop(scenario, pipeline=pipeline, force=force)
    write_trace_csv(sim, scenario, out / "trace.csv")
    write_triggers_csv(sim, out / "triggers.csv")
    write_summary_json(sim, scenario, out / "summary.json", forced=forced)
    violations = sim.local_violations(scenario) + sim.global_violations()
    return sim, violations, sim.recursive_feasible()


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, _overrides(args))
    out = _outdir(args)
    sim, violations, feasible = _run_single(scenario, out, args.force)
    print(f"run: {sim.T_run} steps, {sim.solve_instants()} solve instants, "
          f"{violations} constraint violations")
    return EXIT_OK if violations == 0 and feasible else EXIT_CHECK_FAILED


def cmd_montecarlo(args) -> int:
    if args.runs < 1:
        print(f"error: --runs must be at least 1, got {args.runs}", file=sys.stderr)
        return EXIT_USAGE
    scenario = load_scenario(args.scenario, _overrides(args))
    out = _outdir(args)
    pipeline = prepare(scenario)
    if not pipeline.certificate.overall_ok and not args.force:
        raise CertificationError("offline certificates fail; use --force")
    report = monte_carlo(scenario, args.runs, pipeline=pipeline, force=args.force)
    with open(out / "montecarlo.json", "w") as fh:
        json.dump(report.as_dict(), fh, indent=2)
        fh.write("\n")
    ok = (report.local_violations == 0 and report.global_violations == 0
          and report.all_feasible)
    print(f"monte carlo: {args.runs} runs, {report.local_violations} local / "
          f"{report.global_violations} global violations, "
          f"feasible={report.all_feasible}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_compare(args) -> int:
    from dataclasses import replace

    scenario = load_scenario(args.scenario, _overrides(args))
    out = _outdir(args)
    pipeline = prepare(scenario)
    result = {}
    for mode in ("self-triggered", "periodic"):
        sc = replace(scenario, trigger_mode=mode)
        sim = run_closed_loop(sc, pipeline=pipeline, force=args.force)
        stage_cost = 0.0
        for i, (g, j) in enumerate(sim.slots):
            stage_cost += float(stage_costs(sc.agents[i], sim.x[g][:-1, j],
                                            sim.u[g][:, j]).sum())
        margins = _constraint_margins(sc, sim)
        result[mode] = {
            "ocp_solve_instants": sim.solve_instants(),
            "admm_iterations": sim.counters["admm_iterations"],
            "closed_loop_cost": stage_cost,
            "max_constraint_margins": margins,
        }
    ratio = (result["self-triggered"]["ocp_solve_instants"]
             / max(result["periodic"]["ocp_solve_instants"], 1))
    result["solve_instant_ratio"] = ratio
    with open(out / "comparison.json", "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"solve instants: self-triggered {result['self-triggered']['ocp_solve_instants']} "
          f"vs periodic {result['periodic']['ocp_solve_instants']} (ratio {ratio:.3f})")
    return EXIT_OK


def _constraint_margins(scenario, sim) -> dict:
    """Largest constraint excess over the run, the final state included."""
    def worst(poly, rows):
        return float(np.max(poly.G @ rows[..., None] - poly.h[:, None], initial=-np.inf))

    agents = [(scenario.agents[i], g, j) for i, (g, j) in enumerate(sim.slots)]
    return {
        "state": max(worst(agent.X, sim.x[g][:, j]) for agent, g, j in agents),
        "input": max(worst(agent.U, sim.u[g][:, j]) for agent, g, j in agents),
        "coupling": float(np.max(sim.coupling - 1.0, initial=-np.inf)),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tube-dmpc",
                                     description="robust self-triggered distributed MPC")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, runs=False):
        p.add_argument("--scenario", required=True, help="scenario YAML path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=["self-triggered", "periodic"], default=None)
        p.add_argument("--rho", type=float, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
        p.add_argument("--force", action="store_true",
                       help="run despite failing certificates (watermarked)")
        if runs:
            p.add_argument("--runs", type=int, default=100)

    for name, fn, runs in (("certify", cmd_certify, False),
                           ("inspect", cmd_inspect, False),
                           ("run", cmd_run, False),
                           ("montecarlo", cmd_montecarlo, True),
                           ("compare", cmd_compare, False)):
        p = sub.add_parser(name)
        common(p, runs=runs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("TUBE_DMPC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, SynthesisError, TighteningError, FileNotFoundError,
            yaml.YAMLError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InitialInfeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INITIAL_INFEASIBLE
    except SimulationAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ADMM_FAILURE


if __name__ == "__main__":
    sys.exit(main())
