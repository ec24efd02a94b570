"""Deviation bounds, predicted cost-decrease bounds, and inter-sample selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AgentModel
from .synthesis import TerminalIngredients, error_gain


def deviation_bound(agent: AgentModel, phi, l, Mk):
    """Worst-case phi-norm gap between plans made Mk steps apart at offset l.

    Equals sqrt(lam_max(phi)) * w_bar * ||A||^l * sum_{j<Mk} ||A||^j, which is
    sqrt(lam_max(phi)) * w_bar * Mk at ||A|| = 1; elementwise over integer
    arrays l and Mk. It is sound in every direction: ||e||_phi <=
    sqrt(lam_max(phi)) ||e|| holds for every e.
    """
    return _deviation_bound(agent, float(np.linalg.eigvalsh(np.atleast_2d(phi)).max()),
                            l, Mk)


def _deviation_bound(agent: AgentModel, lam, l, Mk):
    """deviation_bound for weights whose largest eigenvalues lam are known."""
    a = agent.norm_A
    return np.sqrt(lam) * agent.w_bar * a ** l * error_gain(a, Mk)


def quad_form(x, W) -> np.ndarray:
    """x[k]' W x[k] for every row k of x; a row's value does not depend on the other rows."""
    return (x[:, None, :] @ W @ x[:, :, None])[:, 0, 0]


def stage_costs(agent: AgentModel, z, u) -> np.ndarray:
    """Stage costs z[l]'Q z[l] + u[l]'R u[l], one per row of the states z and inputs u."""
    return quad_form(z, agent.Q) + quad_form(u, agent.R)


def deviation_table(agent: AgentModel, ing: TerminalIngredients,
                    N: int) -> tuple[np.ndarray, np.ndarray]:
    """The deviation bounds of g_profile as (d, d * d), both (N, N).

    d[M - 1, k - 1] is the deviation bound d(k - M, M) of plan step k
    (weighted by Q, by P at k = N) after an M-step run, and 0 where k < M.
    """
    M = np.arange(1, N + 1)[:, None]  # rows: candidate interval M
    k = np.arange(1, N + 1)  # columns: plan step k
    lam_max = np.where(k == N, ing.lam_max_P, agent.lam_max_Q)
    d = np.where(k >= M, _deviation_bound(agent, lam_max, np.maximum(k - M, 0), M), 0.0)
    return d, d * d


def g_profile(group, sol) -> tuple[np.ndarray, np.ndarray]:
    """Bound g(M) on the optimal-cost change after an M-step open-loop run, M = 1..N.

    One row per plan of `sol` (the OcpSolution of members of `group`). Built
    from the shifted-tail candidate: each retained stage cost ||z(k)||_Q^2,
    k = M..N-1, is perturbed by at most the deviation bound d(k - M, M), the
    appended terminal-feedback tail telescopes into the terminal weight
    (||z(N)||_P^2, offset N - M), and the realized stage costs of the M skipped
    steps are subtracted. The bounds d and d * d are the group's
    `deviation_table`. Returns (g, spent), both (plans, N): spent[:, M - 1]
    is the sum of the first M stage costs.
    """
    agent, ing = group.agent, group.ing
    Z, U = sol.z_star, sol.u_star
    B, N = Z.shape[0], Z.shape[1] - 1
    zQ = quad_form(Z.reshape(-1, agent.n), agent.Q).reshape(B, N + 1)  # l = 0..N
    norms = np.sqrt(np.concatenate([zQ[:, 1:N], quad_form(Z[:, N], ing.P)[:, None]], axis=1))
    spent = np.cumsum(zQ[:, :N] + quad_form(U.reshape(-1, agent.m), agent.R).reshape(B, N),
                      axis=1)
    d, dd = group.deviation
    return (2.0 * norms[:, None, :] * d + dd).sum(axis=2) - spent, spent


@dataclass(frozen=True)
class TriggerDecision:
    """Per-agent inter-sample times and their minimum."""

    Mk_per_agent: tuple
    Mk: int
    fallback: tuple  # True where no M had g < 0 and Mk_i = 1 was forced


def select_Mk(g_profiles) -> TriggerDecision:
    """Per agent: most negative g wins, ties to the larger M; min across agents."""
    g = np.asarray(g_profiles, dtype=float)  # one row g(1..N) per agent
    fallback = g.min(axis=1) >= 0
    Mk = np.where(fallback, 1, g.shape[1] - np.argmin(g[:, ::-1], axis=1))
    return TriggerDecision(Mk_per_agent=tuple(Mk.tolist()), Mk=int(Mk.min()),
                           fallback=tuple(fallback.tolist()))
