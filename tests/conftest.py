import copy
from pathlib import Path

import pytest
import yaml

from tube_dmpc.local_solver import solve_inner
from tube_dmpc.model import validate_scenario
from tube_dmpc.simulator import prepare

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def solve_one(ocp, lam):
    """One agent's inner solve, as a group of one."""
    return solve_inner([ocp], [lam]).solutions[0]


def load_raw(name):
    with open(SCENARIO_DIR / name) as fh:
        return yaml.safe_load(fh)


@pytest.fixture(scope="session")
def default_raw():
    return load_raw("four_agent.yaml")


@pytest.fixture(scope="session")
def default_scenario(default_raw):
    return validate_scenario(copy.deepcopy(default_raw))


@pytest.fixture(scope="session")
def default_pipeline(default_scenario):
    return prepare(default_scenario)


@pytest.fixture(scope="session")
def nominal_scenario(default_raw):
    """Default scenario with the disturbance switched off."""
    raw = copy.deepcopy(default_raw)
    for node in raw["agents"]:
        node["disturbance"] = {"w_bar": 0.0}
    return validate_scenario(raw)


def slow_raw(x0s=(-0.95, -0.9), u_max=0.35, w_hw=0.12, t_run=25, seed=0):
    """Scalar two-agent scenario whose runs produce consecutive solve instants."""
    agents = [{"A": [[1.05]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
               "state_set": {"box": [10.0]}, "input_set": {"box": [u_max]},
               "disturbance": {"box": [w_hw]}, "x0": [x0]} for x0 in x0s]
    return {"name": "slow", "horizon": 5, "t_run": t_run, "seed": seed,
            "agents": agents,
            "coupling": {"absolute": True,
                         "psi_x": [[[0.02]]] * len(x0s),
                         "psi_u": [[[0.1]]] * len(x0s),
                         "rhs": [1.0]}}


@pytest.fixture(scope="session")
def slow_scenario():
    return validate_scenario(slow_raw())
