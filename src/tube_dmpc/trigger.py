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
    arrays l and Mk.
    """
    return _deviation_bound(agent, float(np.linalg.eigvalsh(np.atleast_2d(phi)).max()),
                            l, Mk)


def _deviation_bound(agent: AgentModel, lam, l, Mk):
    """deviation_bound for weights whose largest eigenvalues lam are known."""
    a = agent.norm_A
    return np.sqrt(lam) * agent.w_bar * a ** l * error_gain(a, Mk)


def _quad(x, W) -> np.ndarray:
    """x[k]' W x[k] for every row k of x."""
    return np.einsum("ki,ij,kj->k", x, W, x)


def stage_costs(agent: AgentModel, z, u) -> np.ndarray:
    """Stage costs z[l]'Q z[l] + u[l]'R u[l], one per row of the states z and inputs u."""
    return _quad(z, agent.Q) + _quad(u, agent.R)


def g_profile(agent: AgentModel, sol, ing: TerminalIngredients, N: int) -> np.ndarray:
    """Bound g(M) on the optimal-cost change after an M-step open-loop run, M = 1..N.

    Built from the shifted-tail candidate: each retained stage cost
    ||z(k)||_Q^2, k = M..N-1, is perturbed by at most the deviation bound
    d(k - M, M), the appended terminal-feedback tail telescopes into the
    terminal weight (||z(N)||_P^2, offset N - M), and the realized stage costs
    of the M skipped steps are subtracted.
    """
    z = sol.z_star
    M = np.arange(1, N + 1)[:, None]  # rows: candidate interval M
    k = np.arange(1, N + 1)  # columns: plan step k, the last one weighted by P
    last = k == N
    norms = np.sqrt(np.where(last, z[N] @ ing.P @ z[N], _quad(z[1:], agent.Q)))
    lam_max = np.where(last, ing.lam_max_P, agent.lam_max_Q)
    d = np.where(k >= M, _deviation_bound(agent, lam_max, np.maximum(k - M, 0), M), 0.0)
    spent = np.cumsum(stage_costs(agent, z[:N], sol.u_star.reshape(N, agent.m)))
    return (2.0 * norms * d + d * d).sum(axis=1) - spent


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
