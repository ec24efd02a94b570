import copy

import numpy as np
import pytest

from tube_dmpc.model import HPolytope, ScenarioError, membership, validate_scenario


def test_default_scenario_validates(default_scenario):
    assert default_scenario.M == 4
    assert default_scenario.N == 5
    assert default_scenario.T_run == 30
    # the absolute row becomes a +/- pair
    assert default_scenario.coupling.p == 2
    for agent in default_scenario.agents:
        assert agent.w_bar == pytest.approx(0.3 * np.sqrt(2))


def test_zero_weight_rejected(default_raw):
    raw = copy.deepcopy(default_raw)
    raw["agents"][0]["Q"] = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ScenarioError, match="non-PD weight"):
        validate_scenario(raw)


def test_coupling_normalization(default_scenario):
    # RHS 10 with psi_x row [0.08, 0.02]: stored rows divided entry-wise by 10
    Px = default_scenario.coupling.Psi_x[0]
    oracle = np.array([[0.08, 0.02], [-0.08, -0.02]]) / 10.0
    np.testing.assert_allclose(Px, oracle, rtol=0, atol=0)
    Pu3 = default_scenario.coupling.Psi_u[3]
    np.testing.assert_allclose(Pu3, np.array([[0.04], [-0.04]]) / 10.0)


def test_normalization_idempotent(default_raw, default_scenario):
    # a document holding the stored (normalized) rows with rhs ones stores them unchanged
    raw = copy.deepcopy(default_raw)
    coupling = default_scenario.coupling
    raw["coupling"] = {"psi_x": [Px.tolist() for Px in coupling.Psi_x],
                       "psi_u": [Pu.tolist() for Pu in coupling.Psi_u],
                       "rhs": [1.0] * coupling.p}
    again = validate_scenario(raw)
    assert again.coupling.p == coupling.p
    for Pa, Pb in zip(coupling.Psi_x + coupling.Psi_u, again.coupling.Psi_x + again.coupling.Psi_u):
        np.testing.assert_array_equal(Pa, Pb)


def test_membership_box():
    box = HPolytope.box([20.0, 5.0])
    assert membership(box, [0.0, 0.0])
    assert not membership(box, [20.0001, 0.0])
    assert membership(box, [20.0, 5.0])  # boundary inclusive


def test_membership_dimension_mismatch():
    box = HPolytope.box([1.0, 1.0])
    with pytest.raises(ScenarioError, match="dim"):
        membership(box, [0.0, 0.0, 0.0])


def test_controllability_rank(default_scenario):
    for agent in default_scenario.agents:
        ctrb = agent.controllability_matrix()
        sv = np.linalg.svd(ctrb, compute_uv=False)
        assert sv.min() / sv.max() > 1e-8


def test_unreachable_pair_rejected(default_raw):
    raw = copy.deepcopy(default_raw)
    # B aligned with an invariant subspace of a diagonal A: second state unreachable
    raw["agents"][0]["A"] = [[0.5, 0.0], [0.0, 0.7]]
    raw["agents"][0]["B"] = [[1.0], [0.0]]
    with pytest.raises(ScenarioError, match="not reachable"):
        validate_scenario(raw)


def test_unbounded_state_set_rejected(default_raw):
    raw = copy.deepcopy(default_raw)
    raw["agents"][0]["state_set"] = {"G": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
                                     "h": [20.0, 20.0, 5.0]}  # x2 unbounded below
    with pytest.raises(ScenarioError, match="unbounded"):
        validate_scenario(raw)


def test_state_set_shared_by_differing_agents_is_checked_per_agent(default_raw):
    # agents 0 and 1 differ in R, so each node is parsed on its own, with one G/h state set
    def two_agents(state_set):
        raw = copy.deepcopy(default_raw)
        raw["agents"][1]["R"] = [[0.2]]
        for node in raw["agents"][:2]:
            node["state_set"] = copy.deepcopy(state_set)
        return raw

    box = {"G": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], "h": [20.0, 20.0, 5.0, 5.0]}
    sc = validate_scenario(two_agents(box))
    assert sc.agents[1] is not sc.agents[0]
    for agent in sc.agents[:2]:
        np.testing.assert_array_equal(agent.X.G, box["G"])
        np.testing.assert_array_equal(agent.X.h, box["h"])
    open_below = {"G": box["G"][:3], "h": box["h"][:3]}  # x2 unbounded below
    with pytest.raises(ScenarioError, match="agent 0: unbounded state_set"):
        validate_scenario(two_agents(open_below))


def test_origin_not_interior_rejected(default_raw):
    raw = copy.deepcopy(default_raw)
    raw["agents"][0]["state_set"] = {"G": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                     "h": [20.0, -1.0, 5.0, 5.0]}  # needs x1 <= -1
    with pytest.raises(ScenarioError, match="origin not interior"):
        validate_scenario(raw)


def test_x0_outside_rejected(default_raw):
    raw = copy.deepcopy(default_raw)
    raw["agents"][2]["x0"] = [-25.0, 0.0]
    with pytest.raises(ScenarioError, match="x0 outside"):
        validate_scenario(raw)


def test_dimension_mismatch_reported_with_agent(default_raw):
    raw = copy.deepcopy(default_raw)
    raw["agents"][1]["B"] = [[1.5], [0.5], [0.1]]
    with pytest.raises(ScenarioError, match="agent 1"):
        validate_scenario(raw)


def test_agents_differing_only_in_x0_share_one_parse(default_raw):
    # the default agents differ only in x0: one model is parsed, each agent keeps its x0;
    # a malformed repeat of a node is still reported at the first agent that has it
    sc = validate_scenario(copy.deepcopy(default_raw))
    assert all(agent is sc.agents[0] for agent in sc.agents)
    np.testing.assert_array_equal(np.array(sc.x0), [node["x0"] for node in default_raw["agents"]])
    raw = copy.deepcopy(default_raw)
    for i in (2, 3):
        raw["agents"][i]["B"] = [[1.5], [0.5], [0.1]]
    with pytest.raises(ScenarioError, match="agent 2"):
        validate_scenario(raw)


def test_agents_differing_beyond_numpys_print_precision_parse_apart(default_raw):
    # numpy's repr shows 8 significant digits: a 1e-10 difference in an array A
    # must still give the second agent its own model
    raw = copy.deepcopy(default_raw)
    A = np.array(raw["agents"][0]["A"], dtype=float)
    raw["agents"][0]["A"] = A
    raw["agents"][1]["A"] = A + np.array([[1e-10, 0.0], [0.0, 0.0]])
    sc = validate_scenario(raw)
    assert sc.agents[1] is not sc.agents[0]
    np.testing.assert_array_equal(sc.agents[1].A, raw["agents"][1]["A"])
    np.testing.assert_array_equal(sc.agents[0].A, A)


def test_asymmetric_weight_symmetrized(default_raw):
    raw = copy.deepcopy(default_raw)
    raw["agents"][0]["Q"] = [[1.0, 0.2], [0.0, 1.0]]
    sc = validate_scenario(raw)
    np.testing.assert_allclose(sc.agents[0].Q, [[1.0, 0.1], [0.1, 1.0]])
