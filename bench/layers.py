"""Per-layer metrics from the spans of a traced benchmark run.

Every metric is (value, unit, sample count). Times come from span self
time: a span's duration minus its direct children. Per-run figures divide
by the traced runs; the exact-repeat counters cover the first
``fixed_runs`` traced runs only, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import numpy as np

from spans import CODE, instant_ids, self_times

INSTANT_LAYERS = ("local_solver.condense", "dual_admm.run_admm",
                  "trigger.g_profile", "trigger.select_Mk")
WRITERS = ("simulator.write_trace_csv", "simulator.write_triggers_csv",
           "simulator.write_summary_json")


def tail(values) -> float:
    """Highest sample that still leaves ten samples beyond it (max if fewer)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    return float(ordered[max(ordered.size - 11, 0)]) if ordered.size else float("nan")


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def _per_parent_sum(spans, dur, name, parent_name) -> np.ndarray:
    """Sum of a child's durations under each span of the parent kind."""
    code, parent = spans["code"], spans["parent"]
    parents = np.flatnonzero(code == CODE[parent_name])
    child = np.flatnonzero(code == CODE[name])
    totals = dict.fromkeys(parents.tolist(), 0.0)
    for idx in child:
        if parent[idx] in totals:
            totals[parent[idx]] += dur[idx]
    return np.array(list(totals.values()))


def per_layer(spans: dict, runs: list, fixed_runs: int, write_groups: int,
              overhead_ratio: float, traced_runs_per_s: float) -> dict:
    """All per-layer metrics of one traced workload run.

    ``runs`` holds the RunResult of every traced run, in run order;
    ``write_groups`` is how many runs had their outputs written.
    """
    code, run = spans["code"], spans["run"]
    dur = spans["end"] - spans["start"]
    own = self_times(spans)
    in_run = run >= 0
    n_runs = len(runs)

    def sel(name, scope=in_run):
        return (code == CODE[name]) & scope

    def per_parent(name, parent_name):
        return _per_parent_sum(spans, dur, name, parent_name)

    inner = sel("local_solver.solve_inner")
    admm = sel("dual_admm.run_admm")
    inner_iters = int(spans["payload"][inner].sum())
    inner_s = float(dur[inner].sum())
    n_admm = int(admm.sum())

    instants = instant_ids(spans)
    layer_mask = np.zeros(code.size, dtype=bool)
    for name in INSTANT_LAYERS:
        layer_mask |= sel(name)
    layer_mask &= instants >= 0
    instant_s = np.bincount(instants[layer_mask], weights=dur[layer_mask])
    instant_s = instant_s[np.bincount(instants[layer_mask]) > 0]

    steps = sel("simulator.step_plant")
    propagate = steps | sel("simulator.sample")
    writes = np.zeros(code.size, dtype=bool)
    for name in WRITERS:
        writes |= code == CODE[name]

    prefix = in_run & (run < fixed_runs)
    head = runs[:fixed_runs]
    all_mk = [mk for r in runs for mk in r.Mk]

    m = {
        "cli.load_scenario_ms": (_median(own[sel("cli.load_scenario", ~in_run)]) * 1e3, "ms"),
        "model.validate_ms": (_median(dur[sel("model.validate_scenario", ~in_run)]) * 1e3, "ms"),
        "synthesis.synthesize_ms": (_median(per_parent("synthesis.synthesize",
                                                        "simulator.prepare")) * 1e3, "ms"),
        "synthesis.certify_ms": (_median(per_parent("synthesis.certify",
                                                     "simulator.prepare")) * 1e3, "ms"),
        "tightening.schedule_ms": (_median(per_parent("tightening.tolerance_schedule",
                                                       "simulator.prepare")) * 1e3, "ms"),
        "tightening.tighten_ms": (_median(per_parent("tightening.tighten_local_sets",
                                                      "simulator.prepare")) * 1e3, "ms"),
        "model.membership_ms_per_run": (
            float(dur[sel("model.membership")].sum()) * 1e3 / n_runs, "ms/run"),
        "local_solver.condense_calls": (
            int(sel("local_solver.condense").sum()) / n_runs, "count/run"),
        "local_solver.condense_us_p50": (
            _median(own[sel("local_solver.condense")]) * 1e6, "us"),
        "local_solver.solve_inner_calls": (int(inner.sum()) / n_runs, "count/run"),
        "local_solver.solve_inner_us_p50": (_median(own[inner]) * 1e6, "us"),
        "local_solver.inner_iterations": (inner_iters / n_runs, "count/run"),
        "local_solver.inner_iters_per_solve": (inner_iters / max(int(inner.sum()), 1),
                                               "count"),
        "local_solver.us_per_inner_iter": (inner_s * 1e6 / max(inner_iters, 1), "us"),
        "local_solver.solve_centralized_ms": (
            _median(dur[sel("local_solver.solve_centralized", ~in_run)]) * 1e3, "ms"),
        "dual_admm.instant_ms_p50": (_median(dur[admm]) * 1e3, "ms"),
        "dual_admm.iterations_per_instant": (
            float(spans["payload"][admm].sum()) / max(n_admm, 1), "count"),
        "dual_admm.solves_per_instant": (int(inner.sum()) / max(n_admm, 1), "count"),
        "dual_admm.self_ms": (float(own[admm].sum()) * 1e3 / max(n_admm, 1), "ms"),
        "dual_admm.repeat_solve_share": (
            float(spans["repeat"][inner].sum()) / max(int(inner.sum()), 1), "ratio"),
        "trigger.g_profile_calls": (int(sel("trigger.g_profile").sum()) / n_runs, "count/run"),
        "trigger.g_profile_us_p50": (_median(own[sel("trigger.g_profile")]) * 1e6, "us"),
        "trigger.select_us": (_median(own[sel("trigger.select_Mk")]) * 1e6, "us"),
        "trigger.mean_Mk": (float(np.mean(all_mk)) if all_mk else float("nan"), "count"),
        "simulator.instant_ms_p50": (_median(instant_s) * 1e3, "ms"),
        "simulator.instant_ms_tail": (tail(instant_s) * 1e3, "ms"),
        "simulator.propagate_us_per_agent_step": (
            float(dur[propagate].sum()) * 1e6 / max(int(steps.sum()), 1), "us"),
        "simulator.self_ms_per_run": (
            float(own[sel("simulator.run_closed_loop")].sum()) * 1e3 / n_runs, "ms/run"),
        "simulator.write_ms_per_run": (
            float(dur[writes].sum()) * 1e3 / max(write_groups, 1), "ms/run"),
        "counters.solve_instants": (sum(r.instants for r in head), "count"),
        "counters.admm_iterations": (sum(r.admm_iterations for r in head), "count"),
        "counters.inner_solves": (int((code[prefix] == CODE["local_solver.solve_inner"]).sum()),
                                  "count"),
        "counters.inner_iterations": (sum(r.inner_iterations for r in head), "count"),
        "counters.repeat_lambda_solves": (int(spans["repeat"][prefix & inner].sum()), "count"),
        "tracing.overhead_ratio": (overhead_ratio, "ratio"),
        "tracing.runs_per_s": (traced_runs_per_s, "1/s"),
    }
    setups = int(sel("cli.load_scenario", ~in_run).sum())
    samples = dict.fromkeys(list(m)[:6], setups)  # the set-up metrics
    samples.update({
        "local_solver.solve_centralized_ms":
            int(sel("local_solver.solve_centralized", ~in_run).sum()),
        "local_solver.condense_us_p50": int(sel("local_solver.condense").sum()),
        "local_solver.solve_inner_us_p50": int(inner.sum()),
        "dual_admm.instant_ms_p50": n_admm,
        "trigger.g_profile_us_p50": int(sel("trigger.g_profile").sum()),
        "trigger.select_us": int(sel("trigger.select_Mk").sum()),
        "simulator.instant_ms_p50": int(instant_s.size),
        "simulator.instant_ms_tail": int(instant_s.size),
    })
    return {name: (value, unit, samples.get(name, n_runs)) for name, (value, unit) in m.items()}


def traced_inner_iterations(spans: dict) -> int:
    """Inner iterations seen by the solve_inner wrapper over all traced runs."""
    inner = (spans["code"] == CODE["local_solver.solve_inner"]) & (spans["run"] >= 0)
    return int(spans["payload"][inner].sum())
