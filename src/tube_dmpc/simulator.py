"""Closed-loop execution: trigger scheduling, dual-mode switching, logging."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .model import AgentModel, Scenario, membership
from .synthesis import certify, synthesize
from .tightening import tolerance_schedule, tighten_local_sets
from .local_solver import condense, ocp_templates
from .dual_admm import AdmmError, run_admm
from .trigger import g_profile, select_Mk, stage_costs

VIOLATION_TOL = 1e-6


class CertificationError(RuntimeError):
    """Scenario refused because the offline certificates fail (use force=True)."""


class InitialInfeasibilityError(RuntimeError):
    """The very first OCP is infeasible; the scheme's hypothesis is violated."""


class SimulationAborted(RuntimeError):
    """Mid-run failure (lost feasibility or unusable dual iterate)."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log


@dataclass(frozen=True)
class Pipeline:
    """Offline products shared across runs of one scenario.

    templates[i] is agent i's OCP template; agents with identical data share one,
    and agents that differ only in their coupling rows share its SplitSetup.
    """

    ingredients: tuple
    schedule: object
    tightened: tuple
    certificate: object
    templates: tuple


def prepare(scenario: Scenario) -> Pipeline:
    ingredients = tuple(synthesize(agent) for agent in scenario.agents)
    schedule = tolerance_schedule(scenario, ingredients)
    tightened = tuple(tighten_local_sets(agent, scenario.N) for agent in scenario.agents)
    certificate = certify(scenario, ingredients, schedule.eps)
    templates = ocp_templates(scenario.agents, ingredients, tightened,
                              scenario.coupling.Psi_x, scenario.coupling.Psi_u, scenario.N)
    return Pipeline(ingredients=ingredients, schedule=schedule, tightened=tightened,
                    certificate=certificate, templates=templates)


@dataclass
class DisturbanceSampler:
    """Reproducible per-agent disturbance streams (uniform or extreme-point)."""

    agents: tuple
    seed: int
    mode: str = "uniform"

    def __post_init__(self):
        seqs = np.random.SeedSequence(self.seed).spawn(len(self.agents))
        self._rngs = [np.random.default_rng(s) for s in seqs]

    def sample(self, i: int) -> np.ndarray:
        agent = self.agents[i]
        rng = self._rngs[i]
        n = agent.n
        if agent.w_bar == 0.0:
            return np.zeros(n)
        if agent.box_half_widths is not None:
            hw = agent.box_half_widths
            if self.mode == "extreme":
                return hw * rng.choice([-1.0, 1.0], size=n)
            return rng.uniform(-hw, hw)
        direction = rng.normal(size=n)
        direction /= max(np.linalg.norm(direction), 1e-300)
        if self.mode == "extreme":
            return agent.w_bar * direction
        radius = agent.w_bar * rng.uniform() ** (1.0 / n)
        return radius * direction


def step_plant(agent: AgentModel, x, u, w) -> np.ndarray:
    """x+ = A x + B u + w."""
    return agent.A @ np.asarray(x, float) + agent.B @ np.atleast_1d(np.asarray(u, float)) \
        + np.asarray(w, float)


@dataclass
class TriggerRecord:
    t_k: int
    Mk: int
    Mk_applied: int
    ocp_agents: tuple
    Mk_per_agent: tuple
    statuses: tuple
    total_cost: float
    admm_iterations: int
    converged: bool
    fallback: bool
    g_applied_total: float
    g0_applied_total: float
    sumQ_states: float


@dataclass
class SimLog:
    """Everything the acceptance suites need from one closed-loop run."""

    scenario_name: str
    T_run: int
    M: int
    p: int
    states: list = field(default_factory=list)        # length T_run + 1
    inputs: list = field(default_factory=list)        # length T_run
    disturbances: list = field(default_factory=list)  # length T_run
    coupling: list = field(default_factory=list)      # length T_run
    modes: list = field(default_factory=list)         # length T_run
    triggers: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def solve_instants(self) -> int:
        return len(self.triggers)

    def local_violations(self, scenario: Scenario, tol: float = VIOLATION_TOL) -> int:
        count = 0
        for t in range(self.T_run):
            for i, agent in enumerate(scenario.agents):
                if not membership(agent.X, self.states[t][i], tol=tol):
                    count += 1
                if not membership(agent.U, self.inputs[t][i], tol=tol):
                    count += 1
        for i, agent in enumerate(scenario.agents):
            if not membership(agent.X, self.states[self.T_run][i], tol=tol):
                count += 1
        return count

    def global_violations(self, tol: float = VIOLATION_TOL) -> int:
        return int(sum(np.any(row > 1.0 + tol) for row in self.coupling))

    def recursive_feasible(self) -> bool:
        """Every inner problem solved to optimality and the coupled row never broken."""
        return (all(st == "optimal" for rec in self.triggers for st in rec.statuses)
                and self.global_violations() == 0)


def _coupling_row(scenario, xs, us) -> np.ndarray:
    row = np.zeros(scenario.coupling.p)
    for i in range(scenario.M):
        row += scenario.coupling.Psi_x[i] @ xs[i] + scenario.coupling.Psi_u[i] @ us[i]
    return row


def run_closed_loop(scenario: Scenario, pipeline: Pipeline | None = None,
                    force: bool = False, seed: int | None = None) -> SimLog:
    """Execute the self-triggered (or periodic) loop for T_run steps."""
    if pipeline is None:
        pipeline = prepare(scenario)
    if not pipeline.certificate.overall_ok and not force:
        raise CertificationError("offline certificates fail; pass force=True to run anyway")

    N, T_run, M = scenario.N, scenario.T_run, scenario.M
    sched = pipeline.schedule
    sampler = DisturbanceSampler(scenario.agents,
                                 scenario.seed if seed is None else seed)
    periodic = scenario.trigger_mode == "periodic"

    log = SimLog(scenario_name=scenario.name, T_run=T_run, M=M, p=scenario.coupling.p)
    log.counters = {"ocp_solve_instants": 0, "admm_iterations": 0,
                    "inner_iterations": 0, "fallback_steps": 0}

    xs = [x.copy() for x in scenario.x0]
    log.states.append([x.copy() for x in xs])
    t = 0

    def propagate(us, mode_labels):
        nonlocal t, xs
        ws = [sampler.sample(i) for i in range(M)]
        log.inputs.append([np.atleast_1d(np.asarray(u, float)) for u in us])
        log.disturbances.append(ws)
        log.coupling.append(_coupling_row(scenario, xs, us))
        log.modes.append(list(mode_labels))
        xs = [step_plant(scenario.agents[i], xs[i], us[i], ws[i]) for i in range(M)]
        log.states.append([x.copy() for x in xs])
        t += 1

    while t < T_run:
        # periodic baseline re-solves every step for every agent; the
        # dual-mode switch belongs to the self-triggered scheme only
        if periodic:
            in_terminal = [False] * M
        else:
            in_terminal = [pipeline.ingredients[i].p_norm(xs[i])
                           <= pipeline.ingredients[i].eps_r for i in range(M)]
        dual_idx = [i for i in range(M) if in_terminal[i]]
        ocp_idx = [i for i in range(M) if not in_terminal[i]]

        if not ocp_idx:
            while t < T_run:  # every agent inside: pure terminal feedback to the end
                us = [pipeline.ingredients[i].K @ xs[i] for i in range(M)]
                propagate(us, ["terminal"] * M)
            break

        # the terminal-mode agents' nominal feedback plans take their part of b first
        contrib = sum((pipeline.templates[i].feedback_coupling @ xs[i] for i in dual_idx),
                      np.zeros(sched.b.shape[0]))
        b_share = (sched.b - contrib) / len(ocp_idx)

        ocps = [condense(pipeline.templates[i], xs[i], b_share=b_share) for i in ocp_idx]
        try:
            solutions, admm_state, converged = run_admm(ocps, scenario.solver)
        except AdmmError as exc:
            agent = ocp_idx[exc.agent_index] if exc.agent_index is not None else None
            if t == 0:
                raise InitialInfeasibilityError(
                    f"initial infeasibility: agent {agent}: {exc}") from exc
            raise SimulationAborted(
                f"feasibility lost at t = {t} (agent {agent}): {exc}", log=log) from exc

        fallback = False
        if not converged:
            # row block l of b keeps eps[l] of tolerance; half of it absorbs the iterate
            headroom = np.repeat(sched.eps[:N] / 2.0, sched.p)
            excess = admm_state.coupling_excess
            worst = int(np.argmax(excess - headroom))
            if excess[worst] > headroom[worst]:
                raise SimulationAborted(
                    f"dual iteration did not converge at t = {t}: coupling excess "
                    f"{excess[worst]:.3e} in row block {worst // sched.p} exceeds "
                    f"headroom {headroom[worst]:.3e}", log=log)
            fallback = True
            log.counters["fallback_steps"] += 1

        log.counters["ocp_solve_instants"] += 1
        log.counters["admm_iterations"] += admm_state.iteration
        log.counters["inner_iterations"] += admm_state.total_inner_iterations

        profiles = [g_profile(scenario.agents[i], sol, pipeline.ingredients[i], N)
                    for i, sol in zip(ocp_idx, solutions)]
        decision = select_Mk(profiles)
        Mk = 1 if periodic else decision.Mk
        Mk_applied = min(Mk, T_run - t)

        g_tot = float(sum(prof[Mk - 1] for prof in profiles))
        spent = sum(float(stage_costs(scenario.agents[i], sol.z_star[:Mk],
                                      sol.u_star.reshape(N, -1)[:Mk]).sum())
                    for i, sol in zip(ocp_idx, solutions))
        sumQ = sum(float(xs[i] @ scenario.agents[i].Q @ xs[i]) for i in ocp_idx)
        log.triggers.append(TriggerRecord(
            t_k=t, Mk=Mk, Mk_applied=Mk_applied,
            ocp_agents=tuple(ocp_idx),
            Mk_per_agent=decision.Mk_per_agent,
            statuses=tuple(sol.status for sol in solutions),
            total_cost=float(sum(sol.J_star for sol in solutions)),
            admm_iterations=admm_state.iteration,
            converged=converged, fallback=fallback,
            g_applied_total=g_tot, g0_applied_total=g_tot + spent, sumQ_states=sumQ))

        sol_by_agent = dict(zip(ocp_idx, solutions))
        for s in range(Mk_applied):
            us, labels = [], []
            for i in range(M):
                if i in sol_by_agent:
                    m = scenario.agents[i].m
                    us.append(sol_by_agent[i].u_star[s * m:(s + 1) * m])
                    labels.append("ocp")
                else:
                    us.append(pipeline.ingredients[i].K @ xs[i])
                    labels.append("terminal")
            propagate(us, labels)

    return log


@dataclass
class MonteCarloReport:
    n_runs: int
    local_violations: int
    global_violations: int
    recursive_feasible: list
    interval_histogram: dict
    transitions: list
    solve_instants: list
    admm_iterations: list
    failures: list
    final_norms: list

    @property
    def all_feasible(self) -> bool:
        return all(self.recursive_feasible) and not self.failures

    def as_dict(self) -> dict:
        return {
            "n_runs": self.n_runs,
            "local_violations": self.local_violations,
            "global_violations": self.global_violations,
            "recursive_feasible_all": self.all_feasible,
            "recursive_feasible_runs": list(map(bool, self.recursive_feasible)),
            "interval_histogram": {str(k): v for k, v in
                                   sorted(self.interval_histogram.items())},
            "solve_instants": self.solve_instants,
            "admm_iterations": self.admm_iterations,
            "failures": self.failures,
            "final_state_norms": self.final_norms,
            "cost_decrease": _transition_stats(self.transitions),
        }


def _transition_stats(transitions) -> dict:
    if not transitions:
        return {"count": 0}
    slack = [tr["g_total"] - tr["dV"] for tr in transitions]
    iss = [tr["g0_total"] - tr["sumQ"] - tr["dV"] for tr in transitions]
    return {
        "count": len(transitions),
        "min_bound_slack": float(min(slack)),
        "min_iss_slack": float(min(iss)),
        "mean_dV": float(np.mean([tr["dV"] for tr in transitions])),
    }


def collect_transitions(log: SimLog) -> list:
    """Consecutive trigger pairs with an unchanged OCP agent set."""
    out = []
    for r0, r1 in zip(log.triggers, log.triggers[1:]):
        if r0.ocp_agents != r1.ocp_agents:
            continue
        out.append({
            "t_k": r0.t_k, "Mk": r0.Mk,
            "dV": r1.total_cost - r0.total_cost,
            "g_total": r0.g_applied_total,
            "g0_total": r0.g0_applied_total,
            "sumQ": r0.sumQ_states,
            "converged": r0.converged and r1.converged,
        })
    return out


def monte_carlo(scenario: Scenario, n_runs: int,
                pipeline: Pipeline | None = None, force: bool = False) -> MonteCarloReport:
    """Repeated closed-loop runs over consecutive seeds, aggregated."""
    if pipeline is None:
        pipeline = prepare(scenario)
    local = glob = 0
    feasible, hist, transitions = [], {}, []
    instants, admm_iters, failures, finals = [], [], [], []
    for run in range(n_runs):
        seed = scenario.seed + run
        try:
            log = run_closed_loop(scenario, pipeline=pipeline, force=force, seed=seed)
        except (InitialInfeasibilityError, SimulationAborted) as exc:
            failures.append([run, str(exc)])
            feasible.append(False)
            partial = getattr(exc, "log", None)
            if partial is not None:
                local += partial.local_violations(scenario)
                glob += partial.global_violations()
            continue
        local += log.local_violations(scenario)
        glob += log.global_violations()
        feasible.append(log.recursive_feasible())
        for rec in log.triggers:
            hist[rec.Mk] = hist.get(rec.Mk, 0) + 1
        transitions.extend(collect_transitions(log))
        instants.append(log.solve_instants())
        admm_iters.append(log.counters["admm_iterations"])
        finals.append(float(max(np.linalg.norm(x) for x in log.states[-1])))
    return MonteCarloReport(n_runs=n_runs, local_violations=local,
                            global_violations=glob, recursive_feasible=feasible,
                            interval_histogram=hist, transitions=transitions,
                            solve_instants=instants, admm_iterations=admm_iters,
                            failures=failures, final_norms=finals)


def _fmt(value) -> str:
    """Plain decimal at full double precision (17 significant digits)."""
    return f"{float(value):.17g}"


def write_trace_csv(log: SimLog, scenario: Scenario, path) -> None:
    dims_n = max(agent.n for agent in scenario.agents)
    dims_m = max(agent.m for agent in scenario.agents)
    header = (["t", "agent"]
              + [f"x{j + 1}" for j in range(dims_n)]
              + [f"u{j + 1}" for j in range(dims_m)]
              + [f"w{j + 1}" for j in range(dims_n)]
              + [f"coupling_row_{j + 1}" for j in range(log.p)]
              + ["mode"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(log.T_run):
            for i in range(log.M):
                row = [t, i]
                row += [_fmt(v) for v in log.states[t][i]]
                row += [_fmt(v) for v in log.inputs[t][i]]
                row += [_fmt(v) for v in log.disturbances[t][i]]
                row += [_fmt(v) for v in log.coupling[t]]
                row.append(log.modes[t][i])
                writer.writerow(row)


def write_triggers_csv(log: SimLog, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_k", "Mk", "Mk_applied", "total_cost", "admm_iters"])
        for rec in log.triggers:
            writer.writerow([rec.t_k, rec.Mk, rec.Mk_applied,
                             _fmt(rec.total_cost), rec.admm_iterations])


def write_summary_json(log: SimLog, scenario: Scenario, path,
                       forced: bool = False) -> None:
    summary = {
        "scenario": log.scenario_name,
        "forced_despite_failed_certificates": forced,
        "T_run": log.T_run,
        "agents": log.M,
        "counters": log.counters,
        "local_violations": log.local_violations(scenario),
        "global_violations": log.global_violations(),
        "recursive_feasible": log.recursive_feasible(),
        "trigger_instants": [rec.t_k for rec in log.triggers],
        "intervals": [rec.Mk_applied for rec in log.triggers],
        "final_states": [[float(v) for v in x] for x in log.states[-1]],
        "max_coupling_value": float(max((float(np.max(row)) for row in log.coupling),
                                        default=0.0)),
    }
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
