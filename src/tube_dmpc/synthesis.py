"""Terminal ingredients (K, P, r, eps_r) and offline disturbance certificates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import AgentModel, Scenario, group_members

NORM_ONE_TOL = 1e-9
DOUBLING_TOL = 1e-12  # relative step that stops the Riccati and Lyapunov doubling iterations
DOUBLING_MAX_ITER = 200


class SynthesisError(RuntimeError):
    """Raised when an offline synthesis iteration fails to converge."""


def error_gain(norm_A: float, steps):
    """Accumulated open-loop error gain sum_{j=0}^{steps-1} ||A||^j (0 for steps <= 0).

    Equals (1 - ||A||^steps)/(1 - ||A||) away from ||A|| = 1 and `steps` at it;
    written in the manifestly nonnegative form for ||A|| > 1. Elementwise over
    an integer array of steps.
    """
    if abs(norm_A - 1.0) <= NORM_ONE_TOL:
        gain = 1.0 * steps
    else:
        gain = (norm_A ** steps - 1.0) / (norm_A - 1.0)
    return np.where(np.greater(steps, 0), gain, 0.0)


@dataclass(frozen=True)
class TerminalIngredients:
    """Per-agent terminal feedback, weight and invariant-set radii."""

    K: np.ndarray
    P: np.ndarray
    r: float
    eps_r: float
    contraction: float  # kappa = 1 - lam_min(Q)/lam_max(P)
    lam_max_P: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # read by the certificates and by every terminal deviation bound
        object.__setattr__(self, "lam_max_P", float(np.linalg.eigvalsh(self.P).max()))

    def p_norm(self, z) -> float:
        z = np.asarray(z, dtype=float).ravel()
        return float(np.sqrt(z @ self.P @ z))


def lqr_gain(A, B, Q, R) -> np.ndarray:
    """Unconstrained LQ gain K with u = K z, via the doubling iteration.

    Returns K = -(R + B'SB)^{-1} B'SA for the stabilizing Riccati solution S.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    eye = np.eye(n)

    Ak = A.copy()
    Gk = B @ np.linalg.solve(R, B.T)
    Hk = Q.copy()
    for _ in range(DOUBLING_MAX_ITER):
        W = eye + Gk @ Hk
        WiA = np.linalg.solve(W, Ak)
        WiG = np.linalg.solve(W, Gk)
        A_next = Ak @ WiA
        G_next = Gk + Ak @ WiG @ Ak.T
        H_next = Hk + WiA.T @ Hk @ Ak
        step = np.linalg.norm(H_next - Hk, "fro")
        Ak, Gk, Hk = A_next, G_next, H_next
        if not np.isfinite(Hk).all() or np.linalg.norm(Hk, "fro") > 1e14:
            raise SynthesisError("Riccati doubling iteration diverged; "
                                 "(A, B) may not be stabilizable")
        if step <= DOUBLING_TOL * max(1.0, np.linalg.norm(Hk, "fro")):
            break
    else:
        raise SynthesisError("Riccati doubling iteration did not converge "
                             f"within {DOUBLING_MAX_ITER} iterations")

    S = 0.5 * (Hk + Hk.T)
    K = -np.linalg.solve(R + B.T @ S @ B, B.T @ S @ A)
    residual = A.T @ S @ A - S + Q + (A.T @ S @ B) @ K
    if np.linalg.norm(residual) > 1e-8 * max(1.0, np.linalg.norm(S)):
        raise SynthesisError("Riccati residual too large; data may be ill-conditioned")
    if max(abs(np.linalg.eigvals(A + B @ K))) >= 1.0:
        raise SynthesisError("closed loop A + BK not Schur stable")
    return K


def terminal_weight(A, B, K, Q, R) -> np.ndarray:
    """Solve (A+BK)'P(A+BK) + Q + K'RK = P by the doubling series."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    Acl = A + B @ K
    if max(abs(np.linalg.eigvals(Acl))) >= 1.0:
        raise SynthesisError("A + BK has spectral radius >= 1; Lyapunov series diverges")

    R = np.atleast_2d(np.asarray(R, dtype=float))
    Qeff = np.atleast_2d(np.asarray(Q, dtype=float)) + K.T @ R @ K
    P, Mk = Qeff, Acl
    for _ in range(DOUBLING_MAX_ITER):
        increment = Mk.T @ P @ Mk
        P = P + increment
        Mk = Mk @ Mk
        if np.linalg.norm(increment, "fro") <= DOUBLING_TOL * max(1.0, np.linalg.norm(P, "fro")):
            break
    else:
        raise SynthesisError("Lyapunov doubling series did not converge")
    P = 0.5 * (P + P.T)
    residual = np.linalg.norm(Acl.T @ P @ Acl + Qeff - P)
    if residual > 1e-10 * max(1.0, np.linalg.norm(P)):
        raise SynthesisError(f"Lyapunov residual {residual:.3e} too large")
    return P


def terminal_radii(P, K, Q, X, U) -> tuple[float, float]:
    """Largest P-ellipsoid radius r fitting the state/input sets, and eps_r.

    r is the largest value with {||z||_P <= r} inside X and its K-image inside
    U; eps_r = sqrt(kappa) * r sits at the lower end of the admissible band.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    K = np.atleast_2d(np.asarray(K, dtype=float))
    Pinv = np.linalg.inv(P)

    bounds = []
    for g, h in zip(X.G, X.h):
        bounds.append(h / np.sqrt(g @ Pinv @ g))
    for f, d in zip(U.G, U.h):
        v = K.T @ f
        level = np.sqrt(v @ Pinv @ v)
        if level > 1e-14:  # rows with K'f = 0 impose no bound
            bounds.append(d / level)
    r = float(min(bounds))
    if r <= 0:
        raise SynthesisError("terminal radius r <= 0; origin not interior to the sets")

    kappa = contraction_factor(P, Q)
    return r, float(np.sqrt(kappa) * r)


def contraction_factor(P, Q) -> float:
    kappa = 1.0 - np.linalg.eigvalsh(np.atleast_2d(Q)).min() / np.linalg.eigvalsh(
        np.atleast_2d(P)).max()
    # kappa = 0 only in the degenerate deadbeat corner (P = Q); still sound
    if not (0.0 <= kappa < 1.0):
        raise SynthesisError(f"contraction factor {kappa} outside [0, 1)")
    return float(kappa)


def synthesize(agent: AgentModel) -> TerminalIngredients:
    """Full per-agent pipeline: gain, terminal weight, radii."""
    K = lqr_gain(agent.A, agent.B, agent.Q, agent.R)
    P = terminal_weight(agent.A, agent.B, K, agent.Q, agent.R)
    r, eps_r = terminal_radii(P, K, agent.Q, agent.X, agent.U)
    return TerminalIngredients(K=K, P=P, r=r, eps_r=eps_r,
                               contraction=contraction_factor(P, agent.Q))


@dataclass(frozen=True)
class AgentCertificate:
    """Per-agent disturbance-bound margins (rhs - w_bar, so >= 0 passes)."""

    w_bar: float
    norm_A: float
    local_rhs: float
    local_margin: float
    local_ok: bool
    global_rhs: float
    global_margin: float
    global_ok: bool
    invariance_margin: float
    invariance_ok: bool


@dataclass(frozen=True)
class CertificateReport:
    """Offline certificate results for a scenario.

    `overall_ok` gates on the global coupling bound, the terminal-invariance
    margin, the terminal-row aggregate and the tolerance schedule. The
    per-agent `local_*` fields report the strict N-step worst-case bound for
    open-loop re-planning; it is deliberately conservative and does not gate
    (its content is covered empirically by the deviation/trigger test suites).
    """

    agents: tuple
    schedule_eps: tuple
    schedule_ok: bool
    schedule_vacuous: bool
    terminal_sum_margin: float
    terminal_ok: bool
    overall_ok: bool
    strict_local_all_ok: bool

    def as_dict(self) -> dict:
        return {
            "overall_ok": self.overall_ok,
            "strict_local_all_ok": self.strict_local_all_ok,
            "schedule": {
                "eps": list(self.schedule_eps),
                "ok": self.schedule_ok,
                "vacuous": self.schedule_vacuous,
            },
            "terminal_row": {
                "margin": self.terminal_sum_margin,
                "ok": self.terminal_ok,
            },
            "agents": [
                {
                    "w_bar": a.w_bar,
                    "norm_A": a.norm_A,
                    "local": {"rhs": a.local_rhs, "margin": a.local_margin, "ok": a.local_ok},
                    "global": {"rhs": a.global_rhs, "margin": a.global_margin, "ok": a.global_ok},
                    "invariance": {"margin": a.invariance_margin, "ok": a.invariance_ok},
                }
                for a in self.agents
            ],
        }


def coupling_rows(scenario: Scenario, K, idx) -> tuple[np.ndarray, np.ndarray]:
    """Psi_x and Psi_N = Psi_x + Psi_u K of the agents idx of one group (gain K), stacked."""
    Psi_x = np.stack([scenario.coupling.Psi_x[i] for i in idx])
    Psi_u = np.stack([scenario.coupling.Psi_u[i] for i in idx])
    return Psi_x, Psi_x + Psi_u @ K


def rows_max_norm(rows) -> np.ndarray:
    """Max over rows of the 2-norm, one value per matrix of a stack."""
    return np.linalg.norm(rows, axis=-1).max(axis=-1)


def certify(scenario: Scenario, ingredients, schedule_eps, members=None) -> CertificateReport:
    """Offline checks on eps(0..N), once per entry of `members` (default: group_members).

    Never raises on a failed check. The terminal row and global bounds use the support
    r ||L^-1 psi'|| (P = L L') of {||z||_P <= r} along each row psi of Psi_N, exact in
    every direction. The local and invariance bounds use ||z||_P <= sqrt(lam_max(P)) ||z||,
    which holds for every z.
    """
    if members is None:
        members = group_members(scenario.agents)
    M = scenario.M
    agents = [None] * M
    support = [0.0] * M
    for idx in members:
        agent, ing = scenario.agents[idx[0]], ingredients[idx[0]]
        Psi_N = coupling_rows(scenario, ing.K, idx)[1]
        L_inv = np.linalg.inv(np.linalg.cholesky(ing.P))  # psi P^-1 psi' = ||psi L^-T||^2
        npsi = rows_max_norm(Psi_N)
        group_support = ing.r * rows_max_norm(Psi_N @ L_inv.T)

        gain = error_gain(agent.norm_A, scenario.N)
        sqrt_lam = np.sqrt(ing.lam_max_P)
        margin_re = ing.r - ing.eps_r
        local_rhs = float(margin_re / (sqrt_lam * gain))
        inv_margin = float(margin_re - sqrt_lam * agent.w_bar)
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero row couples nothing
            global_rhs = np.where(npsi > 0, (1.0 / M - group_support) / (npsi * gain), np.inf)

        for i, g_rhs, s in zip(idx.tolist(), global_rhs.tolist(), group_support.tolist()):
            support[i] = s
            agents[i] = AgentCertificate(
                w_bar=agent.w_bar,
                norm_A=agent.norm_A,
                local_rhs=local_rhs,
                local_margin=local_rhs - agent.w_bar,
                local_ok=bool(agent.w_bar <= local_rhs),
                global_rhs=g_rhs,
                global_margin=g_rhs - agent.w_bar,
                global_ok=bool(agent.w_bar <= g_rhs),
                invariance_margin=inv_margin,
                invariance_ok=bool(inv_margin >= 0.0),
            )

    eps = np.asarray(schedule_eps, dtype=float)
    vacuous = bool(all(agent.w_bar == 0.0 for agent in scenario.agents))
    increasing = bool(np.all(np.diff(eps[1:]) > 0)) if eps.size > 2 else True
    schedule_ok = vacuous or bool(eps[1] > 0.0 and increasing and eps[-1] < 1.0)

    terminal_margin = 1.0 - (sum(support) + eps[-1])
    terminal_ok = bool(terminal_margin >= 0.0)

    overall = (all(a.global_ok for a in agents)
               and all(a.invariance_ok for a in agents)
               and schedule_ok and terminal_ok)

    return CertificateReport(
        agents=tuple(agents),
        schedule_eps=tuple(float(e) for e in eps),
        schedule_ok=schedule_ok,
        schedule_vacuous=vacuous,
        terminal_sum_margin=float(terminal_margin),
        terminal_ok=terminal_ok,
        overall_ok=bool(overall),
        strict_local_all_ok=all(a.local_ok for a in agents),
    )
