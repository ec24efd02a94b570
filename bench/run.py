#!/usr/bin/env python3
"""Closed-loop benchmark of tube_dmpc, one workload per invocation.

    python3 bench/run.py --workload mc_default --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The workload's scenario documents are generated from ``--seed``
(see ``workloads.json``) and written under ``.bench_out/``. The benchmark
then sets the scenario up several times (``setup_s`` is the median) and
repeats closed-loop runs on consecutive run seeds for ``--seconds`` seconds,
and at least the workload's ``fixed_runs`` runs, which carry the
deterministic metrics.

Every run is checked: it fails if it raises, violates a local or the
coupled constraint, returns an inner status other than ``optimal``, or has
an unconverged or fallback instant. Each scenario variant must pass its
certificates, and the t = 0 ADMM cost must lie within 5e-3 (relative) of
the centralized oracle. Any failure makes the exit code 1.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first repeats
the runs untraced for a share of the time, then with every public call
wrapped in a span (see ``spans.py``), and prints the per-layer metrics,
the exact-repeat counters and the tracing overhead. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin BLAS to one thread before numpy loads; the benchmark starts no workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
ORACLE_GAP = 5e-3           # relative ADMM-vs-centralized cost gap (acceptance 5)
UNTRACED_SHARE = 0.3        # share of --seconds run untraced in a traced invocation

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    record = workloads.load_record()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(record["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: few agents, setups and fixed runs")
    return parser.parse_args(argv), record


def import_package():
    """tube_dmpc from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tube_dmpc" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("tube_dmpc")
    if Path(pkg.__file__).resolve().parent != (src / "tube_dmpc").resolve():
        raise SystemExit(f"error: tube_dmpc imported from {pkg.__file__}, not {src}")
    for module in ("cli", "model", "synthesis", "tightening", "local_solver",
                   "dual_admm", "trigger", "simulator"):
        importlib.import_module(f"tube_dmpc.{module}")
    return pkg


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "platform": platform.platform()}


@dataclass
class RunResult:
    run: int
    seed: int
    run_s: float            # run_closed_loop (+ the writers where the workload writes)
    loop_s: float           # run_s + the violation checks
    ok: bool
    reason: str = ""
    instants: int = 0
    admm_iterations: int = 0
    inner_iterations: int = 0
    Mk: tuple = ()
    cost: float = float("nan")
    t0_cost: float | None = None   # ADMM cost of the t = 0 instant, all agents solving
    log: object = None


def closed_loop_cost(scenario, log) -> float:
    """Sum of x'Qx + u'Ru over the run, as cmd_compare computes it."""
    total = 0.0
    for t in range(log.T_run):
        for i, agent in enumerate(scenario.agents):
            x, u = log.states[t][i], log.inputs[t][i]
            total += float(x @ agent.Q @ x) + float(u @ agent.R @ u)
    return total


def check_outputs(log, scenario, outdir: Path) -> str:
    """Reason the three written files disagree with the run, or ''."""
    with open(outdir / "trace.csv") as fh:
        rows = sum(1 for _ in fh)
    if rows != log.T_run * scenario.M + 1:
        return f"trace.csv has {rows} lines"
    with open(outdir / "triggers.csv") as fh:
        rows = sum(1 for _ in fh)
    if rows != len(log.triggers) + 1:
        return f"triggers.csv has {rows} lines"
    with open(outdir / "summary.json") as fh:
        summary = json.load(fh)
    if (summary["counters"] != log.counters or summary["local_violations"]
            or summary["global_violations"] or not summary["recursive_feasible"]):
        return "summary.json disagrees with the run"
    return ""


def write_outputs(sim, scenario, log, outdir: Path) -> None:
    sim.write_trace_csv(log, scenario, outdir / "trace.csv")
    sim.write_triggers_csv(log, outdir / "triggers.csv")
    sim.write_summary_json(log, scenario, outdir / "summary.json")


def one_run(pkg, scenario, pipeline, run, seed, write_root, with_cost) -> RunResult:
    """One timed closed-loop run and its untimed checks.

    Where the workload writes, the run writes into a fresh directory, as
    ``tube-dmpc run --out <new dir>`` would, which is removed after the
    checks: truncating files left by an earlier run would time the disk.
    """
    sim = pkg.simulator
    outdir = None
    if write_root is not None:
        outdir = write_root / str(run)
        outdir.mkdir()
    t0 = perf_counter()
    try:
        log = sim.run_closed_loop(scenario, pipeline=pipeline, seed=seed)
        if outdir is not None:
            write_outputs(sim, scenario, log, outdir)
        t1 = perf_counter()
        local = log.local_violations(scenario)
        glob = log.global_violations()
        t2 = perf_counter()
    except Exception:  # a run that raises is a failed run, not a crash
        dt = perf_counter() - t0
        if outdir is not None:
            shutil.rmtree(outdir)
        return RunResult(run, seed, dt, dt, False, traceback.format_exc().rstrip())
    res = RunResult(run, seed, t1 - t0, t2 - t0, True,
                    instants=len(log.triggers),
                    admm_iterations=log.counters["admm_iterations"],
                    inner_iterations=log.counters["inner_iterations"],
                    Mk=tuple(rec.Mk for rec in log.triggers), log=log)
    if with_cost:
        res.cost = closed_loop_cost(scenario, log)
    first = log.triggers[0] if log.triggers else None
    if first is not None and first.t_k == 0 and len(first.ocp_agents) == scenario.M:
        res.t0_cost = first.total_cost
    reasons = []
    if local or glob:
        reasons.append(f"{local} local / {glob} global violations")
    if any(st != "optimal" for rec in log.triggers for st in rec.statuses):
        reasons.append("inner status not optimal")
    if any(not rec.converged or rec.fallback for rec in log.triggers):
        reasons.append("unconverged or fallback instant")
    if outdir is not None:
        reasons.append(check_outputs(log, scenario, outdir))
        shutil.rmtree(outdir)
    res.reason = "; ".join(r for r in reasons if r)
    res.ok = not res.reason
    return res


def set_up(pkg, paths, reps):
    """Load and prepare the documents reps times (cycling); return variants and times."""
    variants, times = [], []
    for rep in range(reps):
        path = paths[rep % len(paths)]
        t0 = perf_counter()
        scenario = pkg.cli.load_scenario(path)
        pipeline = pkg.simulator.prepare(scenario)
        times.append(perf_counter() - t0)
        if rep < len(paths):
            variants.append((scenario, pipeline))
    return variants, times


def campaign(pkg, variants, seconds, min_runs, outdir, tracer=None):
    """Closed-loop runs on consecutive seeds until the time is up and min_runs are done.

    Only the last result keeps its SimLog.
    """
    results = []
    deadline = perf_counter() + seconds
    run = 0
    while run < min_runs or perf_counter() < deadline:
        scenario, pipeline = variants[run % len(variants)]
        if tracer is not None:
            tracer.run = run
        results.append(one_run(pkg, scenario, pipeline, run, scenario.seed + run, outdir,
                               with_cost=run < min_runs))
        if len(results) > 1:
            results[-2].log = None
        run += 1
    if tracer is not None:
        tracer.run = -1
    return results


def oracle_gaps(pkg, variants, results) -> list:
    """(variant, failure reason or '') of the t = 0 ADMM-vs-centralized cost check."""
    gaps = []
    for v, (scenario, pipeline) in enumerate(variants):
        first = next((r for r in results if r.run % len(variants) == v and r.ok), None)
        if first is None or first.t0_cost is None:
            gaps.append((v, "no run solved the t = 0 instant with every agent"))
            continue
        _, central = pkg.local_solver.solve_centralized(
            scenario, pipeline.ingredients, pipeline.tightened, pipeline.schedule,
            scenario.x0)
        gap = abs(first.t0_cost - central) / abs(central)
        gaps.append((v, "" if gap <= ORACLE_GAP else f"oracle gap {gap:.2e}"))
    return gaps


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else float("nan")


def end_to_end(results, setup_times, fixed_runs) -> dict:
    ok_ms = [r.run_s * 1e3 for r in results if r.ok]
    head = results[:fixed_runs]
    return {
        "setup_s": (float(np.median(setup_times)), "s", len(setup_times)),
        "runs_per_s": (len(results) / sum(r.loop_s for r in results), "1/s", len(results)),
        "run_ms_p50": (_percentile(ok_ms, 50), "ms", len(ok_ms)),
        "run_ms_p90": (_percentile(ok_ms, 90), "ms", len(ok_ms)),
        "ok_run_share": (len(ok_ms) / len(results), "ratio", len(results)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1),
        "solve_instants_per_run": (float(np.mean([r.instants for r in head])),
                                   "count", len(head)),
        "closed_loop_cost": (float(np.mean([r.cost for r in head])), "cost", len(head)),
    }


@contextmanager
def installed(tracer):
    """Rebind the traced names for the duration of the block (no-op untraced)."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def measure(pkg, spec, paths, seconds, tracer, outdir):
    """Set-up, runs and oracle gate of one workload; returns everything measured."""
    write_dir = None
    if spec["write_outputs"]:
        write_dir = outdir / "run-outputs"
        shutil.rmtree(write_dir, ignore_errors=True)
        write_dir.mkdir()
    fixed_runs = spec["fixed_runs"]
    with installed(tracer):
        variants, setup_times = set_up(pkg, paths, spec["setup_reps"])
    problems = [f"variant {v}: certificates fail"
                for v, (_, pipeline) in enumerate(variants)
                if not pipeline.certificate.overall_ok]
    measured = {"setup_times": setup_times, "variants": variants, "problems": problems,
                "results": [], "untraced": [], "gates": len(variants)}
    if problems:
        return measured
    if tracer is None:
        measured["results"] = campaign(pkg, variants, seconds, fixed_runs, write_dir)
    else:
        measured["untraced"] = campaign(pkg, variants, UNTRACED_SHARE * seconds, 1, write_dir)
        with installed(tracer):
            measured["results"] = campaign(pkg, variants, (1 - UNTRACED_SHARE) * seconds,
                                           fixed_runs, write_dir, tracer)
            last = measured["results"][-1]
            if write_dir is None and last.log is not None:
                # workloads that write nothing per run: time the writers once
                scenario = variants[last.run % len(variants)][0]
                final = outdir / "last-run-outputs"
                shutil.rmtree(final, ignore_errors=True)
                final.mkdir()
                write_outputs(pkg.simulator, scenario, last.log, final)
    with installed(tracer):
        gaps = oracle_gaps(pkg, variants, measured["results"])
    problems += [f"variant {v}: {why}" for v, why in gaps if why]
    return measured


def main(argv=None) -> int:
    args, record = parse_args(argv)
    pkg = import_package()
    spec = workloads.workload_spec(record, args.workload, tiny=args.tiny)
    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for v, doc in enumerate(workloads.scenario_documents(record, spec, args.seed, ROOT)):
        paths.append(outdir / f"scenario-{v}.yaml")
        with open(paths[-1], "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
    print(json.dumps({"machine": machine_record(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                      "generator": spec["generator"]}))

    tracer = spans.Tracer(pkg) if args.trace else None
    m = measure(pkg, spec, paths, args.seconds, tracer, outdir)
    results, problems = m["results"], m["problems"]
    runs = m["untraced"] + results
    failed_runs = [r for r in runs if not r.ok]

    if not results:
        metrics = {}
    elif tracer is None:
        metrics = end_to_end(results, m["setup_times"], spec["fixed_runs"])
    else:
        data = tracer.arrays()
        spans.write(outdir / "spans.npz", data, spans.instant_ids(data))
        if layers.traced_inner_iterations(data) != sum(r.inner_iterations for r in results):
            problems.append("tracer: solve_inner spans disagree with the inner-iteration counter")
        k = min(len(m["untraced"]), len(results))
        overhead = (sum(r.loop_s for r in m["untraced"][:k])
                    / sum(r.loop_s for r in results[:k]))
        traced_rps = len(results) / sum(r.loop_s for r in results)
        write_groups = len(results) if spec["write_outputs"] else 1
        metrics = layers.per_layer(data, results, spec["fixed_runs"], write_groups,
                                   overhead, traced_rps)

    for name, (value, unit, n) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit:10s} n={n}")
    failed = len(problems) + len(failed_runs)
    for problem in problems + [f"run {r.run} (seed {r.seed}): {r.reason}"
                               for r in failed_runs[:10]]:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = failed == 0 and bool(results)
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs) + m["gates"],
        "failed": failed,
        "metrics": {name: {"value": None if np.isnan(value) else value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
