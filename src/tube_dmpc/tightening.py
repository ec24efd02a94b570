"""Tolerance schedule, tightened state sets and coupling-term evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AgentModel, HPolytope, Scenario
from .synthesis import error_gain


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

    @property
    def N(self) -> int:
        return self.eps.size - 1


def schedule_values(scenario: Scenario, ingredients) -> np.ndarray:
    """eps(l) for l = 0..N; never raises (certify reports on these directly)."""
    N = scenario.N
    norms_x = scenario.coupling.norms_x()
    norms_N = scenario.coupling.norms_N([ing.K for ing in ingredients])

    eps = np.zeros(N + 1)
    for l in range(1, N + 1):
        norms = norms_N if l == N else norms_x
        eps[l] = sum(norms[i] * agent.w_bar * error_gain(agent.norm_A, l)
                     for i, agent in enumerate(scenario.agents))
    return eps


def tolerance_schedule(scenario: Scenario, ingredients) -> ToleranceSchedule:
    """Build the schedule; rejects eps(N) >= 1 (no room left in the RHS)."""
    eps = schedule_values(scenario, ingredients)
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


def coupling_terms(agent: AgentModel, Psi_x, Psi_u, x0, u) -> np.ndarray:
    """Stacked coupling values over the horizon by direct nominal simulation.

    Block l is Psi_x z(l) + Psi_u u(l) with z the disturbance-free rollout
    from x0 under the stacked input sequence u.
    """
    u = np.asarray(u, dtype=float).ravel()
    m = agent.m
    if u.size % m != 0:
        raise TighteningError(f"input sequence length {u.size} not a multiple of m = {m}")
    N = u.size // m
    z = np.asarray(x0, dtype=float).ravel()
    if z.size != agent.n:
        raise TighteningError(f"x0 has dim {z.size}, expected {agent.n}")
    blocks = []
    for l in range(N):
        ul = u[l * m:(l + 1) * m]
        blocks.append(Psi_x @ z + Psi_u @ ul)
        z = agent.A @ z + agent.B @ ul
    return np.concatenate(blocks)
