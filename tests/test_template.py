"""Per-agent OCP templates: built once in prepare, read-only, exact against assembly."""

import copy
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tube_dmpc import local_solver
from tube_dmpc.dual_admm import consensus_gain, default_tau
from tube_dmpc.local_solver import condense, rollout_maps
from tube_dmpc.model import validate_scenario
from tube_dmpc.simulator import prepare, run_closed_loop


def assemble(agent, ing, tightened, Psi_x, Psi_u, x0, N):
    """Condensed OCP terms at x0, assembled from scratch in the arithmetic order of condense."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n, m, p = agent.n, agent.m, Psi_x.shape[0]
    Phi, Gamma = rollout_maps(agent.A, agent.B, N)
    H = np.zeros((N * m, N * m))
    q = np.zeros(N * m)
    c0 = float(x0 @ agent.Q @ x0)
    for l in range(1, N + 1):
        W = ing.P if l == N else agent.Q
        H += 2.0 * Gamma[l].T @ W @ Gamma[l]
        q += 2.0 * Gamma[l].T @ W @ (Phi[l] @ x0)
        c0 += float(x0 @ Phi[l].T @ W @ Phi[l] @ x0)
    for l in range(N):
        H[l * m:(l + 1) * m, l * m:(l + 1) * m] += 2.0 * agent.R
    rows, rhs = [], []
    for l in range(1, N):
        Z = tightened.Z[l]
        rows.append(Z.G @ Gamma[l])
        rhs.append(Z.h - Z.G @ (Phi[l] @ x0))
    for l in range(N):
        block = np.zeros((agent.U.G.shape[0], N * m))
        block[:, l * m:(l + 1) * m] = agent.U.G
        rows.append(block)
        rhs.append(agent.U.h)
    L = np.linalg.cholesky(ing.P)
    return {
        "H": H, "q": q, "c0": c0,
        "rows_C": np.vstack(rows), "rows_rhs": np.concatenate(rhs),
        "ball_C": L.T @ Gamma[N], "ball_off": L.T @ (Phi[N] @ x0),
        "F": (Psi_x @ Gamma[:N]).reshape(N * p, N * m) + np.kron(np.eye(N), Psi_u),
        "f0": (Psi_x @ Phi[:N]).reshape(N * p, n) @ x0,
    }


def template_arrays(template):
    """Every array held by a template and by its split-QP setup."""
    values = [getattr(template, f.name) for f in fields(template)]
    values += [getattr(template.split, f.name) for f in fields(template.split)]
    return [a for v in values for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray)]


def test_template_arrays_are_read_only(default_pipeline):
    arrays = template_arrays(default_pipeline.templates[0])
    assert len(arrays) >= 20
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.floats(-12.0, 12.0), st.floats(-4.5, 4.5))
def test_condense_equals_assembly_from_scratch(default_scenario, default_pipeline, i, x1, x2):
    sc, pipe = default_scenario, default_pipeline
    x0 = np.array([x1, x2])
    ocp = condense(pipe.templates[i], x0)
    ref = assemble(sc.agents[i], pipe.ingredients[i], pipe.tightened[i],
                   sc.coupling.Psi_x[i], sc.coupling.Psi_u[i], x0, sc.N)
    for name, value in ref.items():
        owner = ocp.template if name in ("H", "rows_C", "ball_C", "F") else ocp
        np.testing.assert_array_equal(getattr(owner, name), value, err_msg=name)


def test_default_tau_from_template_curvature(default_scenario, default_pipeline):
    sc, pipe = default_scenario, default_pipeline
    ocps = [condense(pipe.templates[i], sc.x0[i]) for i in range(sc.M)]
    direct = [float(np.linalg.norm(t.F @ np.linalg.solve(t.H, t.F.T), 2))
              for t in (ocp.template for ocp in ocps)]
    assert [ocp.template.dual_curvature for ocp in ocps] == direct
    assert (default_tau(ocps, 1.5, sc.M)
            == 1.5 * consensus_gain(sc.M) + max(max(direct), 1e-8))


def test_identical_agents_share_one_template(default_raw):
    raw = copy.deepcopy(default_raw)
    base = raw["agents"]
    raw["agents"] = [copy.deepcopy(base[i % 4]) for i in range(8)]
    for key in ("psi_x", "psi_u"):
        raw["coupling"][key] = [raw["coupling"][key][i % 4] for i in range(8)]
    raw["coupling"]["rhs"] = [20.0]
    pipe = prepare(validate_scenario(raw))
    assert all(pipe.templates[i] is pipe.templates[i % 4] for i in range(8))
    assert len({id(t) for t in pipe.templates}) == 4  # psi_u differs among the four


def test_closed_loop_after_prepare_factors_nothing(default_scenario, default_pipeline,
                                                   monkeypatch):
    norm = np.linalg.norm

    def refuse(*args, **kwargs):
        raise AssertionError("factorization or spectral decomposition in the closed loop")

    def vector_norm_only(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            refuse()
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(local_solver, "cho_factor", refuse)
    for name in ("eigvalsh", "eigh", "svd", "cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np.linalg, "norm", vector_norm_only)
    for mode in ("self-triggered", "periodic"):
        log = run_closed_loop(replace(default_scenario, trigger_mode=mode),
                              pipeline=default_pipeline)
        assert log.solve_instants() > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.floats(-12.0, 12.0), st.floats(-4.5, 4.5))
def test_feedback_coupling_matches_closed_loop_rollout(default_scenario, default_pipeline,
                                                       i, x1, x2):
    # coupling values of the terminal-feedback plan u(l) = K z(l), z(l) = (A + BK)^l x
    sc, pipe = default_scenario, default_pipeline
    agent, K = sc.agents[i], pipe.ingredients[i].K
    x = np.array([x1, x2])
    Phi, _ = rollout_maps(agent.A + agent.B @ K, agent.B, sc.N)
    z = Phi[:sc.N] @ x
    direct = (z @ sc.coupling.Psi_x[i].T + (z @ K.T) @ sc.coupling.Psi_u[i].T).ravel()
    np.testing.assert_allclose(pipe.templates[i].feedback_coupling @ x, direct,
                               rtol=1e-12, atol=1e-12 * max(1.0, np.abs(direct).max()))
