"""Closed-loop execution: trigger scheduling, dual-mode switching, logging."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property

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
class PlantGroup:
    """Agents with equal (n, m): their plant data stacked along axis 0.

    index[j] is the agent in slot j; A, B, K, P, eps_r, Psi_x and Psi_u hold
    that agent's dynamics, terminal feedback and weight, terminal radius and
    coupling rows.
    """

    index: np.ndarray
    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    P: np.ndarray
    eps_r: np.ndarray
    Psi_x: np.ndarray
    Psi_u: np.ndarray


def plant_groups(agents, ingredients, coupling) -> tuple:
    """One PlantGroup per distinct (n, m), in order of first appearance."""
    members = {}
    for i, agent in enumerate(agents):
        members.setdefault((agent.n, agent.m), []).append(i)

    def stacked(items, idx):
        return np.stack([items[i] for i in idx])

    return tuple(PlantGroup(index=np.array(idx),
                            A=stacked([a.A for a in agents], idx),
                            B=stacked([a.B for a in agents], idx),
                            K=stacked([ing.K for ing in ingredients], idx),
                            P=stacked([ing.P for ing in ingredients], idx),
                            eps_r=np.array([ingredients[i].eps_r for i in idx]),
                            Psi_x=stacked(coupling.Psi_x, idx),
                            Psi_u=stacked(coupling.Psi_u, idx))
                 for idx in members.values())


@dataclass(frozen=True)
class Pipeline:
    """Offline products shared across runs of one scenario.

    templates[i] is agent i's OCP template; agents with identical data share one,
    and agents that differ only in their coupling rows share its SplitSetup.
    `plant` holds the plant groups the closed loop propagates.
    """

    ingredients: tuple
    schedule: object
    tightened: tuple
    certificate: object
    templates: tuple
    plant: tuple


def _agent_key(agent: AgentModel) -> tuple:
    """Bytes of everything synthesize and tighten_local_sets read from an agent."""
    arrays = (agent.A, agent.B, agent.Q, agent.R, agent.X.G, agent.X.h, agent.U.G, agent.U.h)
    return tuple((a.shape, a.tobytes()) for a in arrays) + (agent.w_bar,)


def _per_distinct_agent(fn, agents) -> tuple:
    """fn(agent) for every agent, evaluated once per byte-distinct agent."""
    keys = [_agent_key(agent) for agent in agents]
    done = {}
    for key, agent in zip(keys, agents):
        if key not in done:
            done[key] = fn(agent)
    return tuple(done[key] for key in keys)


def prepare(scenario: Scenario) -> Pipeline:
    ingredients = _per_distinct_agent(synthesize, scenario.agents)
    schedule = tolerance_schedule(scenario, ingredients)
    tightened = _per_distinct_agent(lambda agent: tighten_local_sets(agent, scenario.N),
                                    scenario.agents)
    certificate = certify(scenario, ingredients, schedule.eps)
    templates = ocp_templates(scenario.agents, ingredients, tightened,
                              scenario.coupling.Psi_x, scenario.coupling.Psi_u, scenario.N)
    return Pipeline(ingredients=ingredients, schedule=schedule, tightened=tightened,
                    certificate=certificate, templates=templates,
                    plant=plant_groups(scenario.agents, ingredients, scenario.coupling))


@dataclass
class DisturbanceSampler:
    """Reproducible per-agent disturbance streams (uniform or extreme-point)."""

    agents: tuple
    seed: int
    mode: str = "uniform"

    def __post_init__(self):
        seqs = np.random.SeedSequence(self.seed).spawn(len(self.agents))
        self._rngs = [np.random.default_rng(s) for s in seqs]

    def sample(self, i: int, steps: int) -> np.ndarray:
        """Agent i's next `steps` disturbances, one row per step.

        The rows equal `steps` successive single draws: box streams are drawn
        as one block, the ball stream step by step (it interleaves normal and
        uniform draws).
        """
        agent = self.agents[i]
        rng = self._rngs[i]
        n = agent.n
        if agent.w_bar == 0.0:
            return np.zeros((steps, n))
        if agent.box_half_widths is not None:
            hw = agent.box_half_widths
            if self.mode == "extreme":
                return hw * rng.choice([-1.0, 1.0], size=(steps, n))
            return rng.uniform(-hw, hw, size=(steps, n))
        out = np.empty((steps, n))
        for row in out:
            direction = rng.normal(size=n)
            direction /= max(np.linalg.norm(direction), 1e-300)
            if self.mode == "extreme":
                row[:] = agent.w_bar * direction
            else:
                radius = agent.w_bar * rng.uniform() ** (1.0 / n)
                row[:] = radius * direction
        return out


def step_plant(A, B, x, u, w) -> np.ndarray:
    """x+ = A x + B u + w, for one agent or stacked along the leading axes."""
    return (A @ x[..., None] + B @ u[..., None])[..., 0] + w


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
    """Everything the acceptance suites need from one closed-loop run.

    The trajectory is kept per plant group g: x[g] (steps + 1, M_g, n),
    u[g] and w[g] (steps, M_g, m or n). `steps` is the number of steps the run
    actually made (below T_run when it aborted). states[t][i], inputs[t][i]
    and disturbances[t][i] are agent i's rows of these blocks (views).
    """

    scenario_name: str
    T_run: int
    M: int
    p: int
    groups: tuple
    x: list
    u: list
    w: list
    coupling: np.ndarray = None   # (steps, p), filled by close()
    modes: np.ndarray = None      # (steps, M) "ocp" / "terminal"
    triggers: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @classmethod
    def allocate(cls, scenario: Scenario, groups: tuple) -> "SimLog":
        T = scenario.T_run
        return cls(scenario_name=scenario.name, T_run=T, M=scenario.M, p=scenario.coupling.p,
                   groups=groups,
                   x=[np.empty((T + 1,) + g.A.shape[:2]) for g in groups],
                   u=[np.empty((T,) + g.K.shape[:2]) for g in groups],
                   w=[np.empty((T,) + g.A.shape[:2]) for g in groups],
                   modes=np.empty((T, scenario.M), dtype="<U8"))

    def close(self, steps: int) -> None:
        """Trim the blocks to the steps made and evaluate the coupled row at each."""
        self.x = [X[:steps + 1] for X in self.x]
        self.u = [U[:steps] for U in self.u]
        self.w = [W[:steps] for W in self.w]
        self.modes = self.modes[:steps]
        terms = np.empty((steps, self.M, self.p))
        for grp, X, U in zip(self.groups, self.x, self.u):
            terms[:, grp.index] = (grp.Psi_x @ X[:-1, ..., None]
                                   + grp.Psi_u @ U[..., None])[..., 0]
        self.coupling = terms.sum(axis=1)

    @property
    def steps(self) -> int:
        return self.modes.shape[0]

    @cached_property
    def slots(self) -> list:
        """(group, slot) of every agent, in agent order."""
        where = [None] * self.M
        for g, grp in enumerate(self.groups):
            for j, i in enumerate(grp.index.tolist()):
                where[i] = (g, j)
        return where

    def agent_rows(self, blocks, t: int) -> list:
        """Agent i's row of blocks[g][t], for every agent i in order (views)."""
        return [blocks[g][t, j] for g, j in self.slots]

    @cached_property
    def states(self) -> list:
        return [self.agent_rows(self.x, t) for t in range(self.steps + 1)]

    @cached_property
    def inputs(self) -> list:
        return [self.agent_rows(self.u, t) for t in range(self.steps)]

    @cached_property
    def disturbances(self) -> list:
        return [self.agent_rows(self.w, t) for t in range(self.steps)]

    def solve_instants(self) -> int:
        return len(self.triggers)

    def local_violations(self, scenario: Scenario, tol: float = VIOLATION_TOL) -> int:
        count = 0
        for agent, (g, j) in zip(scenario.agents, self.slots):
            count += np.count_nonzero(~membership(agent.X, self.x[g][:, j], tol=tol))
            count += np.count_nonzero(~membership(agent.U, self.u[g][:, j], tol=tol))
        return int(count)

    def global_violations(self, tol: float = VIOLATION_TOL) -> int:
        return int(np.count_nonzero(np.any(self.coupling > 1.0 + tol, axis=1)))

    def recursive_feasible(self) -> bool:
        """Every inner problem solved to optimality and the coupled row never broken."""
        return (all(st == "optimal" for rec in self.triggers for st in rec.statuses)
                and self.global_violations() == 0)


def _in_terminal_sets(groups, x, t: int, M: int) -> np.ndarray:
    """||x_i(t)||_P <= eps_r per agent, with p_norm's arithmetic."""
    inside = np.empty(M, dtype=bool)
    for grp, X in zip(groups, x):
        Z = X[t]
        inside[grp.index] = np.sqrt((Z[:, None, :] @ grp.P @ Z[:, :, None])[:, 0, 0]) \
            <= grp.eps_r
    return inside


def run_closed_loop(scenario: Scenario, pipeline: Pipeline | None = None,
                    force: bool = False, seed: int | None = None) -> SimLog:
    """Execute the self-triggered (or periodic) loop for T_run steps."""
    if pipeline is None:
        pipeline = prepare(scenario)
    if not pipeline.certificate.overall_ok and not force:
        raise CertificationError("offline certificates fail; pass force=True to run anyway")

    T_run, M = scenario.T_run, scenario.M
    groups = pipeline.plant
    periodic = scenario.trigger_mode == "periodic"

    log = SimLog.allocate(scenario, groups)
    log.counters = {"ocp_solve_instants": 0, "admm_iterations": 0,
                    "inner_iterations": 0, "fallback_steps": 0}
    sampler = DisturbanceSampler(scenario.agents,
                                 scenario.seed if seed is None else seed)
    for i, (g, j) in enumerate(log.slots):
        log.x[g][0, j] = scenario.x0[i]
        log.w[g][:, j] = sampler.sample(i, T_run)

    t = 0
    terminal = np.zeros(M, dtype=bool)  # the periodic baseline never switches
    while t < T_run:
        if not periodic:
            terminal = _in_terminal_sets(groups, log.x, t, M)
        ocp_idx = np.flatnonzero(~terminal).tolist()
        if ocp_idx:
            try:
                span = _solve_instant(scenario, pipeline, log, t, terminal, ocp_idx)
            except SimulationAborted:
                log.close(t)
                raise
        else:  # every agent inside: pure terminal feedback to the end
            span = T_run - t
        log.modes[t:t + span] = np.where(terminal, "terminal", "ocp")

        feedback = [terminal[grp.index] for grp in groups]  # per group, by slot
        for _ in range(span):
            for grp, X, U, W, fb in zip(groups, log.x, log.u, log.w, feedback):
                if fb.any():
                    U[t, fb] = (grp.K[fb] @ X[t, fb, :, None])[..., 0]
                X[t + 1] = step_plant(grp.A, grp.B, X[t], U[t], W[t])
            t += 1

    log.close(t)
    return log


def _solve_instant(scenario, pipeline, log, t, terminal, ocp_idx) -> int:
    """Solve the coupled problem of the OCP agents at t and record the instant.

    Writes their plans into the input blocks; returns the steps they are applied.
    """
    N, T_run = scenario.N, scenario.T_run
    sched = pipeline.schedule
    periodic = scenario.trigger_mode == "periodic"
    xs = log.agent_rows(log.x, t)

    # the terminal-mode agents' nominal feedback plans take their part of b first
    contrib = sum((pipeline.templates[i].feedback_coupling @ xs[i]
                   for i in np.flatnonzero(terminal).tolist()),
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

    for i, sol in zip(ocp_idx, solutions):
        g, j = log.slots[i]
        log.u[g][t:t + Mk_applied, j] = sol.u_star.reshape(N, -1)[:Mk_applied]
    return Mk_applied


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
        finals.append(float(max(np.linalg.norm(x) for x in log.agent_rows(log.x, -1))))
    return MonteCarloReport(n_runs=n_runs, local_violations=local,
                            global_violations=glob, recursive_feasible=feasible,
                            interval_histogram=hist, transitions=transitions,
                            solve_instants=instants, admm_iterations=admm_iters,
                            failures=failures, final_norms=finals)


def _fmt(value) -> str:
    """Plain decimal at full double precision (17 significant digits)."""
    return f"{float(value):.17g}"


def _fmt_block(block) -> list:
    """Nested lists of _fmt strings, shaped like block."""
    flat = [_fmt(v) for v in block.ravel().tolist()]
    return np.array(flat, dtype=object).reshape(block.shape).tolist()


def write_trace_csv(log: SimLog, scenario: Scenario, path) -> None:
    dims_n = max(agent.n for agent in scenario.agents)
    dims_m = max(agent.m for agent in scenario.agents)
    header = (["t", "agent"]
              + [f"x{j + 1}" for j in range(dims_n)]
              + [f"u{j + 1}" for j in range(dims_m)]
              + [f"w{j + 1}" for j in range(dims_n)]
              + [f"coupling_row_{j + 1}" for j in range(log.p)]
              + ["mode"])
    xs, us, ws = ([_fmt_block(B[:log.steps]) for B in blocks]
                  for blocks in (log.x, log.u, log.w))
    coupling = _fmt_block(log.coupling)
    modes = log.modes.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(log.steps):
            for i, (g, j) in enumerate(log.slots):
                writer.writerow([t, i] + xs[g][t][j] + us[g][t][j] + ws[g][t][j]
                                + coupling[t] + [modes[t][i]])


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
        "final_states": [x.tolist() for x in log.agent_rows(log.x, -1)],
        "max_coupling_value": float(log.coupling.max()) if log.steps else 0.0,
    }
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
