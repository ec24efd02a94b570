"""Randomized properties of the condensed rollout, the consensus operator, polytopes and the
terminal-row certificate."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from tube_dmpc.dual_admm import consensus_adjoint, consensus_diff, consensus_gain
from tube_dmpc.local_solver import agent_group, condense
from tube_dmpc.model import AgentModel, CouplingSpec, HPolytope, Scenario, ScenarioError
from tube_dmpc.synthesis import SynthesisError, TerminalIngredients, certify, synthesize
from tube_dmpc.tightening import schedule_values, tighten_local_sets

from conftest import coupling_terms

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
    ocp = condense(agent_group(agent, ing, tighten_local_sets(agent, N), [Psi_x], [Psi_u], N),
                   x0)

    z = [x0]
    for l in range(N):
        z.append(A @ z[-1] + B @ u[l * m:(l + 1) * m])
    z = np.array(z)
    f = coupling_terms(agent, Psi_x, Psi_u, x0, u)
    scale = max(1.0, np.abs(z).max(), np.abs(f).max())
    np.testing.assert_allclose(ocp.trajectory(u[None])[0], z, rtol=1e-9, atol=1e-12 * scale)
    np.testing.assert_allclose(ocp.coupling_values(u[None])[0], f, rtol=1e-9,
                               atol=1e-12 * scale)


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


def bounded_by_coordinate_lps(poly: HPolytope) -> bool:
    """Reference: maximize +/- each coordinate over a set that contains the origin.

    The origin is feasible, so an "infeasible" verdict (HiGHS gives one for
    some unbounded LPs) can only mean an infeasible dual: unbounded.
    """
    for j in range(poly.dim):
        for sign in (1.0, -1.0):
            c = np.zeros(poly.dim)
            c[j] = -sign  # linprog minimizes
            res = linprog(c, A_ub=poly.G, b_ub=poly.h,
                          bounds=[(None, None)] * poly.dim, method="highs")
            if res.status in (2, 3):
                return False
            if not res.success:
                raise ScenarioError(f"polytope boundedness LP failed: {res.message}")
    return True


@st.composite
def polytopes_around_origin(draw):
    dim, rows = draw(st.integers(1, 3)), draw(st.integers(1, 7))
    G = draw(arrays(np.float64, (rows, dim), elements=st.integers(-2, 2).map(float)))
    assume(np.all(np.any(G != 0.0, axis=1)))
    h = draw(arrays(np.float64, rows, elements=st.integers(1, 3).map(float)))
    return HPolytope(G, h)


@settings(max_examples=150, deadline=None)
@given(polytopes_around_origin())
def test_is_bounded_matches_coordinate_lps(poly):
    assert poly.is_bounded() == bounded_by_coordinate_lps(poly)


def test_is_bounded_where_a_coordinate_lp_reports_infeasible():
    # unbounded along (1, -1, 0); HiGHS calls the LP max x over this set infeasible
    G = np.array([[0.0, 0.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 0.0],
                  [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    poly = HPolytope(G, np.ones(5))
    assert not poly.is_bounded()
    assert np.all(G @ np.array([1.0, -1.0, 0.0]) <= 0.0)


def spd(draw, size):
    root = draw(matrix(size, size))
    return root @ root.T + draw(st.floats(0.05, 2.0)) * np.eye(size)


@st.composite
def one_agent_scenarios(draw):
    n, m, p = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    A, B = draw(matrix(n, n)), draw(matrix(n, m))
    ctrb = np.hstack([np.linalg.matrix_power(A, j) @ B for j in range(n)])
    sv = np.linalg.svd(ctrb, compute_uv=False)
    assume(sv.min() > 1e-2 * sv.max())  # reachable, hence stabilizable
    agent = AgentModel(A=A, B=B, w_bar=draw(st.floats(0.0, 0.05)),
                       X=HPolytope.box(draw(arrays(np.float64, n, elements=st.floats(1, 20)))),
                       U=HPolytope.box(draw(arrays(np.float64, m, elements=st.floats(1, 5)))),
                       Q=spd(draw, n), R=spd(draw, m))
    coupling = CouplingSpec(Psi_x=(draw(matrix(p, n)),), Psi_u=(draw(matrix(p, m)),), p=p)
    return Scenario(agents=(agent,), coupling=coupling, N=draw(st.integers(1, 6)), T_run=1,
                    x0=(np.zeros(n),))


@FEW
@given(one_agent_scenarios())
def test_terminal_row_support_covers_the_worst_terminal_point(scenario):
    # on {||z||_P <= r}, psi z peaks at z = r P^-1 psi' / ||psi||_{P^-1}; the certificate's
    # terminal support (read back from its margin) must cover that value for every row
    agent = scenario.agents[0]
    try:
        ing = synthesize(agent)
    except SynthesisError:
        assume(False)
    eps = schedule_values(scenario, [ing])
    report = certify(scenario, [ing], eps)
    support = 1.0 - report.terminal_sum_margin - eps[-1]

    Psi_N = scenario.coupling.Psi_x[0] + scenario.coupling.Psi_u[0] @ ing.K
    P_inv = np.linalg.inv(ing.P)
    worst = 0.0
    for psi in Psi_N:
        level = np.sqrt(psi @ P_inv @ psi)
        if level > 0:
            z = ing.r * P_inv @ psi / level
            assert ing.p_norm(z) <= ing.r * (1 + 1e-9)
            worst = max(worst, float(psi @ z))
    assert worst <= support + 1e-9 * max(1.0, support)
