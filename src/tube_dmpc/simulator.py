"""Closed-loop execution: trigger scheduling, dual-mode switching, logging."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import Scenario, group_members, membership, per_agent
from .synthesis import certify, synthesize
from .tightening import tolerance_schedule, tighten_local_sets
from . import dual_admm, local_solver
from .local_solver import agent_groups, condense, read_only
from .dual_admm import AdmmError, run_admm
from .trigger import g_profile, quad_form, select_Mk

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

    `groups` holds one AgentGroup per distinct agent model: the plant, the
    condensed OCPs, the dual iteration and the trigger read it. `ingredients`
    and `tightened` hold one entry per agent (shared within a group).
    `replay` is empty or holds one t = 0 coupled solve and its key (see
    _solve); a run fills it, `prepare` does not.
    """

    ingredients: tuple
    schedule: object
    tightened: tuple
    certificate: object
    groups: tuple
    replay: list = field(default_factory=list, compare=False, repr=False)


def prepare(scenario: Scenario) -> Pipeline:
    members = group_members(scenario.agents)
    ingredients = per_agent(scenario.agents, members, synthesize)
    schedule = tolerance_schedule(scenario, ingredients, members)
    tightened = per_agent(scenario.agents, members,
                          lambda agent: tighten_local_sets(agent, scenario.N))
    certificate = certify(scenario, ingredients, schedule.eps, members)
    return Pipeline(ingredients=ingredients, schedule=schedule, tightened=tightened,
                    certificate=certificate,
                    groups=agent_groups(scenario, ingredients, tightened, members))


def _uniform_box(hw, U) -> np.ndarray:
    """Uniform draws on the box [-hw, hw] from U[0, 1) draws.

    rng.uniform's own arithmetic (low + (high - low) * U), without its
    argument checks: the same bytes at under half the cost.
    """
    return (-hw) + (hw - (-hw)) * U


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
            return _uniform_box(hw, rng.random((steps, n)))
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

    def sample_group(self, index, steps: int) -> np.ndarray:
        """The next `steps` disturbances of the agents `index` (one model group).

        Shape (members, steps, n); member j's rows equal sample(index[j],
        steps). Uniform box streams are drawn into one block, one generator
        call per member, and mapped onto each member's box at once; any other
        group is drawn member by member.
        """
        agents = [self.agents[i] for i in index]
        if self.mode != "uniform" or any(a.w_bar == 0.0 or a.box_half_widths is None
                                         for a in agents):
            return np.stack([self.sample(i, steps) for i in index])
        U = np.empty((len(agents), steps, agents[0].n))
        for row, i in zip(U, index):
            self._rngs[i].random(out=row)
        return _uniform_box(np.stack([a.box_half_widths for a in agents])[:, None], U)


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

    The trajectory is kept per agent group g (pipeline.groups): x[g] (steps + 1, M_g, n),
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
                   x=[np.empty((T + 1, g.index.size, g.agent.n)) for g in groups],
                   u=[np.empty((T, g.index.size, g.agent.m)) for g in groups],
                   w=[np.empty((T, g.index.size, g.agent.n)) for g in groups],
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

    def local_violations(self, scenario: Scenario) -> int:
        """Logged states outside X plus inputs outside U, one membership call per group and set."""
        count = 0
        for grp, X, U in zip(self.groups, self.x, self.u):
            agent = scenario.agents[grp.index[0]]  # the members share their sets
            count += np.count_nonzero(~membership(agent.X, X.reshape(-1, agent.n), VIOLATION_TOL))
            count += np.count_nonzero(~membership(agent.U, U.reshape(-1, agent.m), VIOLATION_TOL))
        return int(count)

    def global_violations(self) -> int:
        return int(np.count_nonzero(np.any(self.coupling > 1.0 + VIOLATION_TOL, axis=1)))

    def recursive_feasible(self) -> bool:
        """Every inner problem solved to optimality and the coupled row never broken."""
        return (all(st == "optimal" for rec in self.triggers for st in rec.statuses)
                and self.global_violations() == 0)


def _in_terminal_sets(groups, x, t: int, M: int) -> np.ndarray:
    """||x_i(t)||_P <= eps_r per agent, with p_norm's arithmetic."""
    inside = np.empty(M, dtype=bool)
    for grp, X in zip(groups, x):
        inside[grp.index] = np.sqrt(quad_form(X[t], grp.ing.P)) <= grp.ing.eps_r
    return inside


def run_closed_loop(scenario: Scenario, pipeline: Pipeline | None = None,
                    force: bool = False, seed: int | None = None) -> SimLog:
    """Execute the self-triggered (or periodic) loop for T_run steps."""
    if pipeline is None:
        pipeline = prepare(scenario)
    if not pipeline.certificate.overall_ok and not force:
        raise CertificationError("offline certificates fail; pass force=True to run anyway")

    T_run, M = scenario.T_run, scenario.M
    groups = pipeline.groups
    periodic = scenario.trigger_mode == "periodic"

    log = SimLog.allocate(scenario, groups)
    log.counters = {"ocp_solve_instants": 0, "admm_iterations": 0,
                    "inner_iterations": 0, "active_set_rounds": 0, "fallback_steps": 0}
    sampler = DisturbanceSampler(scenario.agents,
                                 scenario.seed if seed is None else seed)
    for i, (g, j) in enumerate(log.slots):
        log.x[g][0, j] = scenario.x0[i]
    for grp, W in zip(groups, log.w):
        W[:] = sampler.sample_group(grp.index.tolist(), T_run).swapaxes(0, 1)

    # per group and slot: the active sets of the slot's last answer, moved on to step t (a
    # slot that first solves after t = 0 guesses none); they are the first guess of each
    # solve instant after t = 0
    active = [np.zeros((grp.index.size, grp.rows_C.shape[0]), dtype=bool) for grp in groups]
    t = 0
    terminal = np.zeros(M, dtype=bool)  # the periodic baseline never switches
    while t < T_run:
        if not periodic:
            terminal = _in_terminal_sets(groups, log.x, t, M)
        ocp_idx = np.flatnonzero(~terminal).tolist()
        if ocp_idx:
            try:
                solved, converged = _solve(scenario, pipeline, log, t, terminal, ocp_idx, active)
                span = _apply(scenario, pipeline, log, t, ocp_idx, active, solved, converged)
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
                    U[t, fb] = (grp.ing.K @ X[t, fb, :, None])[..., 0]
                X[t + 1] = step_plant(grp.agent.A, grp.agent.B, X[t], U[t], W[t])
            t += 1

    log.close(t)
    return log


def _solve(scenario, pipeline, log, t, terminal, ocp_idx, active) -> tuple:
    """Condense and solve the coupled problem of the OCP agents at t, one stack per group.

    Returns ((blocks, ocps, solutions, admm_state), converged): per group
    with OCP agents its log block, condensed problem and solution, and the
    dual iteration's final state. Every slot starts cold at t = 0, so that
    solve depends only on the states X[0] of every group, the terminal mask
    and the solver settings: their bytes key the pipeline's replay slot. A
    converged t = 0 solve is made read-only (its sequences tuples) and
    replaces the stored one, and a later run with its key returns the
    stored one unsolved; a solve that raises or does not converge is not
    stored. Nothing is stored or replayed while _rebound().
    """
    key = None
    if t == 0 and not _rebound():
        key = ([X[0].tobytes() for X in log.x], terminal.tobytes(), scenario.solver)
        if pipeline.replay and pipeline.replay[0] == key:
            return pipeline.replay[1], True
    sched = pipeline.schedule

    # the terminal-mode agents' nominal feedback plans take their part of b first
    b_free = sched.b
    if terminal.any():
        feedback = np.zeros((scenario.M, sched.b.shape[0]))
        for grp, X in zip(pipeline.groups, log.x):
            fb = terminal[grp.index]
            feedback[grp.index[fb]] = (grp.feedback_coupling[fb] @ X[t, fb, :, None])[..., 0]
        b_free = sched.b - feedback[terminal].sum(axis=0)
    b_share = b_free / len(ocp_idx)

    blocks, ocps = [], []  # (log block, OCP group problem) per group with OCP agents
    for g, (grp, X) in enumerate(zip(pipeline.groups, log.x)):
        slots = np.flatnonzero(~terminal[grp.index])
        if slots.size:
            blocks.append(g)
            ocps.append(condense(grp, X[t, slots], slots, b_share))
    try:
        # at t = 0 every slot is fresh: the solver's own cold start
        guess = None if t == 0 else [active[g][ocp.slots] for g, ocp in zip(blocks, ocps)]
        solutions, admm_state, converged = run_admm(ocps, scenario.solver, guess=guess)
    except AdmmError as exc:
        if t == 0:
            raise InitialInfeasibilityError(
                f"initial infeasibility: agent {exc.agent_index}: {exc}") from exc
        raise SimulationAborted(
            f"feasibility lost at t = {t} (agent {exc.agent_index}): {exc}", log=log) from exc
    solved = (blocks, ocps, solutions, admm_state)
    if key is not None and converged:
        admm_state.active = tuple(admm_state.active)
        solved = (tuple(blocks), tuple(ocps), tuple(solutions), admm_state)
        for obj in (*ocps, *solutions, admm_state):
            read_only(obj)
        pipeline.replay[:] = (key, solved)
    return solved, converged


def _rebound() -> bool:
    """Whether condense or the inner solve is rebound (a span tracer, a test spy).

    The replay stands in for both, so a run that wraps either one to time or
    count the solve work solves t = 0 every time and sees all of that work.
    """
    return (condense is not local_solver.condense
            or dual_admm.solve_inner is not local_solver.solve_inner)


def _apply(scenario, pipeline, log, t, ocp_idx, active, solved, converged) -> int:
    """Record the solve instant at t and apply its plans; returns the steps applied.

    Checks an unconverged dual iterate against the headroom, counts the
    solve's work, selects Mk and appends the TriggerRecord (the per-agent
    records are put in agent order once). Writes the plans into the input
    blocks and their active sets, moved on by the steps applied, into
    `active`. Reads `solved` only: at t = 0 it may be the pipeline's stored
    solve, shared by every later run.
    """
    N, T_run = scenario.N, scenario.T_run
    sched = pipeline.schedule
    periodic = scenario.trigger_mode == "periodic"
    blocks, ocps, solutions, admm_state = solved

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
    log.counters["active_set_rounds"] += admm_state.total_active_set_rounds

    # one row per OCP agent, in agent order: g(1..N), the stage-cost sums of the first
    # 1..N steps, the plan's cost and x0'Qx0
    order = np.argsort(np.concatenate([ocp.agents for ocp in ocps]))
    table = np.concatenate([
        np.concatenate((*g_profile(ocp.group, sol), sol.J_star[:, None],
                        quad_form(ocp.x0, ocp.group.agent.Q)[:, None]), axis=1)
        for ocp, sol in zip(ocps, solutions)])[order]
    decision = select_Mk(table[:, :N])
    Mk = 1 if periodic else decision.Mk
    Mk_applied = min(Mk, T_run - t)

    # the totals are Python sums in agent order: one rounding sequence for any grouping
    g_applied, spent, costs, sumQ = table[:, [Mk - 1, N + Mk - 1, 2 * N, 2 * N + 1]].T.tolist()
    statuses = [status for sol in solutions for status in sol.status]
    g_tot = sum(g_applied)
    log.triggers.append(TriggerRecord(
        t_k=t, Mk=Mk, Mk_applied=Mk_applied,
        ocp_agents=tuple(ocp_idx),
        Mk_per_agent=decision.Mk_per_agent,
        statuses=tuple(statuses[i] for i in order.tolist()),
        total_cost=float(sum(costs)),
        admm_iterations=admm_state.iteration,
        converged=converged, fallback=fallback,
        g_applied_total=g_tot, g0_applied_total=g_tot + sum(spent),
        sumQ_states=float(sum(sumQ))))

    for g, ocp, sol, answered in zip(blocks, ocps, solutions, admm_state.active):
        plans = sol.u_star.reshape(ocp.slots.size, N, -1)[:, :Mk_applied]
        log.u[g][t:t + Mk_applied, ocp.slots] = plans.swapaxes(0, 1)
        active[g][ocp.slots] = ocp.group.shift_active(answered, Mk_applied)
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


def write_trace_csv(log: SimLog, scenario: Scenario, path) -> None:
    """One row per step and agent: t, agent, x, u, w, the coupled row values and the mode.

    The bytes are those csv.writer writes for these fields (none needs
    quoting): numbers as _fmt writes them, CRLF line ends. An agent with
    fewer states or inputs than the widest leaves the rest of its x, u and w
    columns empty. The text is one %-format of a per-step template over a
    table with one row per step.
    """
    dims_n = max(agent.n for agent in scenario.agents)
    dims_m = max(agent.m for agent in scenario.agents)
    header = (["t", "agent"]
              + [f"x{j + 1}" for j in range(dims_n)]
              + [f"u{j + 1}" for j in range(dims_m)]
              + [f"w{j + 1}" for j in range(dims_n)]
              + [f"coupling_row_{j + 1}" for j in range(log.p)]
              + ["mode"])
    steps = log.steps
    t = np.arange(steps)[:, None].astype(object)
    template, columns = [], []
    for i, (g, j) in enumerate(log.slots):
        values = np.hstack([log.x[g][:steps, j], log.u[g][:, j], log.w[g][:, j], log.coupling])
        n, m = log.x[g].shape[2], log.u[g].shape[2]
        fields = [(n, dims_n), (m, dims_m), (n, dims_n), (log.p, log.p)]
        template.append(f"%d,{i}," + "".join("%.17g," * k + "," * (width - k)
                                             for k, width in fields) + "%s\r\n")
        columns += [t, values.astype(object), log.modes[:, i:i + 1].astype(object)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(template) * steps % tuple(np.hstack(columns).ravel().tolist()))


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
