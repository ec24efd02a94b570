"""Tolerance schedule and tightened state sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AgentModel, HPolytope, Scenario, group_members
from .synthesis import coupling_rows, error_gain, rows_max_norm


class TighteningError(RuntimeError):
    """Raised when a tightening step produces an empty or invalid set."""


@dataclass(frozen=True)
class ToleranceSchedule:
    """Coupling tolerances eps[l] (l = 0..N) and the tightened stacked RHS b.

    b has N blocks of p rows: block l is (1 - eps[l]) * ones(p) for
    l = 0..N-1. eps[N] is computed with the terminal coefficient matrices
    (Psi_x + Psi_u K) and is enforced offline through the certificates.
    """

    eps: np.ndarray
    b: np.ndarray
    p: int


def schedule_values(scenario: Scenario, ingredients, members=None) -> np.ndarray:
    """eps(l) for l = 0..N, one array expression per entry of `members` (default:
    group_members); never raises (certify reports on these directly)."""
    if members is None:
        members = group_members(scenario.agents)
    N = scenario.N
    steps = np.arange(N + 1)
    terms = np.empty((scenario.M, N + 1))
    for idx in members:
        agent, ing = scenario.agents[idx[0]], ingredients[idx[0]]
        Psi_x, Psi_N = coupling_rows(scenario, ing.K, idx)
        norms = np.where(steps == N, rows_max_norm(Psi_N)[:, None],
                         rows_max_norm(Psi_x)[:, None])
        terms[idx] = norms * agent.w_bar * error_gain(agent.norm_A, steps)
    return sum(terms)  # row by row: the same rounding for any grouping


def tolerance_schedule(scenario: Scenario, ingredients, members=None) -> ToleranceSchedule:
    """Build the schedule; rejects eps(N) >= 1 (no room left in the RHS)."""
    eps = schedule_values(scenario, ingredients, members)
    if eps[-1] >= 1.0:
        raise TighteningError(f"infeasible tightening: eps(N) = {eps[-1]:.6f} >= 1")
    p = scenario.coupling.p
    b = np.concatenate([(1.0 - eps[l]) * np.ones(p) for l in range(scenario.N)])
    return ToleranceSchedule(eps=eps, b=b, p=p)


@dataclass(frozen=True)
class TightenedSets:
    """Per-step nominal state sets Z[l] = X shrunk by the l-step error tube."""

    Z: tuple


def tighten_local_sets(agent: AgentModel, N: int) -> TightenedSets:
    """Z[l] for l = 0..N-1 via exact ball support: offset h - w_bar * sum ||(A^j)'g||."""
    G, h = agent.X.G, agent.X.h
    sets = [agent.X]
    normals = G.copy()  # rows (A^j)' g', starting at j = 0
    shrink = np.zeros_like(h)
    for l in range(1, N):
        shrink = shrink + agent.w_bar * np.linalg.norm(normals, axis=1)
        offsets = h - shrink
        if np.any(offsets < 0):
            raise TighteningError(f"local tightening infeasible at step {l}")
        sets.append(HPolytope(G, offsets))
        normals = normals @ agent.A  # row g'A^j -> g'A^{j+1}
    return TightenedSets(Z=tuple(sets))
