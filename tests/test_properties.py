"""Randomized properties of the condensed rollout and the consensus operator."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tube_dmpc.dual_admm import consensus_adjoint, consensus_diff, consensus_gain
from tube_dmpc.local_solver import condense
from tube_dmpc.model import AgentModel, HPolytope
from tube_dmpc.synthesis import TerminalIngredients
from tube_dmpc.tightening import coupling_terms, tighten_local_sets

FEW = settings(max_examples=40, deadline=None)
entries = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)


def matrix(rows, cols):
    return arrays(np.float64, (rows, cols), elements=entries)


@st.composite
def condense_cases(draw):
    n, m, p, N = (draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                  draw(st.integers(1, 2)), draw(st.integers(1, 4)))
    return (draw(matrix(n, n)), draw(matrix(n, m)), draw(matrix(p, n)), draw(matrix(p, m)),
            draw(arrays(np.float64, n, elements=entries)),
            draw(arrays(np.float64, N * m, elements=entries)), N)


@FEW
@given(condense_cases())
def test_condense_matches_direct_simulation(case):
    A, B, Psi_x, Psi_u, x0, u, N = case
    n, m = B.shape
    agent = AgentModel(A=A, B=B, w_bar=0.0, X=HPolytope.box([1e6] * n),
                       U=HPolytope.box([1e6] * m), Q=np.eye(n), R=np.eye(m))
    ing = TerminalIngredients(K=np.zeros((m, n)), P=np.eye(n), r=1.0, eps_r=1.0,
                              contraction=0.5)
    ocp = condense(agent, ing, tighten_local_sets(agent, N), Psi_x, Psi_u, x0, N)

    z = [x0]
    for l in range(N):
        z.append(A @ z[-1] + B @ u[l * m:(l + 1) * m])
    z = np.array(z)
    f = coupling_terms(agent, Psi_x, Psi_u, x0, u)
    scale = max(1.0, np.abs(z).max(), np.abs(f).max())
    np.testing.assert_allclose(ocp.trajectory(u), z, rtol=1e-9, atol=1e-12 * scale)
    np.testing.assert_allclose(ocp.coupling_values(u), f, rtol=1e-9, atol=1e-12 * scale)


@st.composite
def consensus_cases(draw):
    M, d = draw(st.integers(1, 64)), draw(st.integers(1, 4))
    return (draw(arrays(np.float64, (M, d), elements=st.floats(-10, 10))),
            draw(arrays(np.float64, (M - 1, d), elements=st.floats(-10, 10))))


@FEW
@given(consensus_cases())
def test_consensus_adjoint_identity(case):
    lam, w = case
    lhs = float(np.sum(consensus_diff(lam) * w))
    rhs = float(np.sum(lam * consensus_adjoint(w)))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + np.abs(lam).sum() * np.abs(w).max(initial=0.0))


@FEW
@given(st.integers(1, 64))
def test_consensus_gain_is_path_laplacian_max_eigenvalue(M):
    adjacency = np.eye(M, k=1) + np.eye(M, k=-1)
    laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
    assert abs(consensus_gain(M) - np.linalg.eigvalsh(laplacian).max()) <= 1e-12
