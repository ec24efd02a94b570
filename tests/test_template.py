"""Agent groups: built once in prepare, read-only, exact against per-agent assembly."""

import copy
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tube_dmpc.dual_admm import consensus_gain, default_tau
from tube_dmpc.local_solver import condense, rollout_maps
from tube_dmpc.model import validate_scenario
from tube_dmpc.simulator import prepare, run_closed_loop

from conftest import condense_reference, fleet_ocps


def assemble(agent, ing, tightened, Psi_x, Psi_u, x0, N):
    """Condensed OCP terms at x0, assembled from scratch in the arithmetic order of condense."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n, m, p = agent.n, agent.m, Psi_x.shape[0]
    Phi, Gamma = rollout_maps(agent.A, agent.B, N)
    H = np.zeros((N * m, N * m))
    for l in range(1, N + 1):
        W = ing.P if l == N else agent.Q
        H += 2.0 * Gamma[l].T @ W @ Gamma[l]
    for l in range(N):
        H[l * m:(l + 1) * m, l * m:(l + 1) * m] += 2.0 * agent.R
    rows = [tightened.Z[l].G @ Gamma[l] for l in range(1, N)]
    for l in range(N):
        block = np.zeros((agent.U.G.shape[0], N * m))
        block[:, l * m:(l + 1) * m] = agent.U.G
        rows.append(block)
    L = np.linalg.cholesky(ing.P)
    return {
        "H": H, "rows_C": np.vstack(rows), "ball_C": L.T @ Gamma[N],
        **condense_reference(agent, ing, tightened, x0, N),
        "F": (Psi_x @ Gamma[:N]).reshape(N * p, N * m) + np.kron(np.eye(N), Psi_u),
        "f0": (Psi_x @ Phi[:N]).reshape(N * p, n) @ x0,
    }


def group_arrays(group):
    """Every array held by an agent group, its split-QP setup and its polish data."""
    values = [getattr(group, f.name) for f in fields(group)]
    for part in (group.split, group.polish):
        values += [getattr(part, f.name) for f in fields(part)]
    return [a for v in values for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray)]


def test_template_arrays_are_read_only(default_pipeline):
    arrays = group_arrays(default_pipeline.groups[0])
    assert len(arrays) >= 20
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.floats(-12.0, 12.0), st.floats(-4.5, 4.5))
def test_condense_equals_assembly_from_scratch(default_scenario, default_pipeline, i, x1, x2):
    sc, pipe = default_scenario, default_pipeline
    x0 = np.array([x1, x2])
    (group,) = pipe.groups  # the default agents share one model
    ocp = condense(group, [x0], [i])
    ref = assemble(sc.agents[i], pipe.ingredients[i], pipe.tightened[i],
                   sc.coupling.Psi_x[i], sc.coupling.Psi_u[i], x0, sc.N)
    for name, value in ref.items():
        shared = name in ("H", "rows_C", "ball_C")
        actual = getattr(group, name) if shared else getattr(ocp, name)[0]
        np.testing.assert_array_equal(actual, value, err_msg=name)


def test_default_tau_from_template_curvature(default_scenario, default_pipeline):
    sc, pipe = default_scenario, default_pipeline
    ocps = fleet_ocps(sc, pipe)
    (group,) = pipe.groups
    direct = [float(np.linalg.norm(F @ np.linalg.solve(group.H, F.T), 2)) for F in group.F]
    assert group.dual_curvature.tolist() == direct
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
    # the eight differ only in their coupling rows: one group, one split setup, and
    # the members' own maps F (psi_u differs among the four)
    (group,) = pipe.groups
    assert group.index.tolist() == list(range(8))
    Fs = group.F
    assert all(np.array_equal(Fs[i], Fs[i % 4]) for i in range(8))
    assert not any(np.array_equal(Fs[i], Fs[j]) for i in range(4) for j in range(i))
    assert all(pipe.ingredients[i] is pipe.ingredients[0] for i in range(8))

    raw["agents"][5]["R"] = [[0.2]]
    pipe = prepare(validate_scenario(raw))
    assert [g.index.tolist() for g in pipe.groups] == [[0, 1, 2, 3, 4, 6, 7], [5]]
    assert pipe.groups[1].split is not pipe.groups[0].split


def test_closed_loop_after_prepare_factors_nothing(default_scenario, default_pipeline,
                                                   monkeypatch):
    norm = np.linalg.norm

    def refuse(*args, **kwargs):
        raise AssertionError("factorization or spectral decomposition in the closed loop")

    def vector_norm_only(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            refuse()
        return norm(x, ord, *args, **kwargs)

    for name in ("eigvalsh", "eigh", "svd", "cholesky", "solve", "inv", "pinv", "lstsq"):
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
    np.testing.assert_allclose(pipe.groups[0].feedback_coupling[i] @ x, direct,
                               rtol=1e-12, atol=1e-12 * max(1.0, np.abs(direct).max()))
