"""Deviation bounds, predicted cost-decrease bounds, and inter-sample selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AgentModel
from .synthesis import NORM_ONE_TOL, TerminalIngredients, error_gain


def deviation_bound(agent: AgentModel, phi, l: int, Mk: int) -> float:
    """Worst-case phi-norm gap between plans made Mk steps apart at offset l.

    Equals sqrt(lam_max(phi)) * w_bar * ||A||^l * sum_{j<Mk} ||A||^j, with the
    ||A|| = 1 branch collapsing to sqrt(lam_max(phi)) * w_bar * Mk.
    """
    lam = float(np.linalg.eigvalsh(np.atleast_2d(phi)).max())
    a = agent.norm_A
    if abs(a - 1.0) <= NORM_ONE_TOL:
        return float(np.sqrt(lam) * agent.w_bar * Mk)
    return float(np.sqrt(lam) * agent.w_bar * a ** l * error_gain(a, Mk))


def cost_decrease_bound_g(agent: AgentModel, Mk: int, sol, ing: TerminalIngredients,
                          ) -> float:
    """Bound g(Mk) on the optimal-cost change after an Mk-step open-loop run.

    Built from the shifted-tail candidate: each retained stage cost is
    perturbed by at most the deviation bound, the appended terminal-feedback
    tail telescopes into the terminal weight, and the realized stage costs of
    the skipped steps are subtracted.
    """
    N = sol.z_star.shape[0] - 1
    m = agent.m
    z, u = sol.z_star, sol.u_star

    g0 = 0.0
    for l in range(N - Mk):
        zq = float(np.sqrt(z[Mk + l] @ agent.Q @ z[Mk + l]))
        d = deviation_bound(agent, agent.Q, l, Mk)
        g0 += 2.0 * zq * d + d * d
    zp = float(np.sqrt(z[N] @ ing.P @ z[N]))
    dp = deviation_bound(agent, ing.P, N - Mk, Mk)
    g0 += 2.0 * zp * dp + dp * dp

    spent = 0.0
    for l in range(Mk):
        ul = u[l * m:(l + 1) * m]
        spent += float(z[l] @ agent.Q @ z[l]) + float(ul @ agent.R @ ul)
    return g0 - spent


def g_profile(agent: AgentModel, sol, ing: TerminalIngredients, N: int) -> np.ndarray:
    """g(M) for M = 1..N."""
    return np.array([cost_decrease_bound_g(agent, M, sol, ing) for M in range(1, N + 1)])


@dataclass(frozen=True)
class TriggerDecision:
    """Per-agent cost-decrease profiles and the aggregated inter-sample time."""

    g_values: tuple
    Mk_per_agent: tuple
    Mk: int
    fallback: tuple  # True where no M had g < 0 and Mk_i = 1 was forced


def select_Mk(g_profiles) -> TriggerDecision:
    """Per agent: most negative g wins, ties to the larger M; min across agents."""
    Mk_list, fallback = [], []
    for g in g_profiles:
        g = np.asarray(g, dtype=float)
        best_M, best_g = None, 0.0
        for M, val in enumerate(g, start=1):
            if val < 0 and val <= best_g:
                best_M, best_g = M, val
        if best_M is None:
            Mk_list.append(1)
            fallback.append(True)
        else:
            Mk_list.append(best_M)
            fallback.append(False)
    return TriggerDecision(g_values=tuple(np.asarray(g, dtype=float) for g in g_profiles),
                           Mk_per_agent=tuple(Mk_list),
                           Mk=min(Mk_list),
                           fallback=tuple(fallback))
