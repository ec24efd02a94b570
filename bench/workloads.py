"""Scenario documents for the benchmark workloads, generated from a seed.

The record of every workload (reason, generator parameters, run counts)
lives in ``workloads.json`` next to this file; this module only turns it
into scenario documents. The program under test receives nothing but these
documents.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import yaml

RECORD_PATH = Path(__file__).with_name("workloads.json")

# Smoke-test sizes: every code path of a workload, a few runs long.
TINY = {"setup_reps": 2, "fixed_runs": 2, "variants": 2, "agents": 8}


def load_record() -> dict:
    with open(RECORD_PATH) as fh:
        return json.load(fh)


def workload_spec(record: dict, name: str, tiny: bool = False) -> dict:
    """Settings of one workload, shrunk to smoke-test size when tiny."""
    spec = copy.deepcopy(record["workloads"][name])
    if tiny:
        spec["setup_reps"] = TINY["setup_reps"]
        spec["fixed_runs"] = TINY["fixed_runs"]
        gen = spec["generator"]
        gen["variants"] = min(gen["variants"], TINY["variants"])
        if "agents" in gen:
            gen["agents"] = TINY["agents"]
    return spec


def _replicated(base: dict, gen: dict, rng: np.random.Generator) -> dict:
    """M copies of the base agents (agent i from base agent i mod 4), jittered x0."""
    M = gen["agents"]
    jitter = np.asarray(gen["x0_jitter"], dtype=float)
    coupling = gen["coupling"]
    agents = []
    for i in range(M):
        agent = copy.deepcopy(base["agents"][i % len(base["agents"])])
        agent["disturbance"] = {"box": list(gen["disturbance_box"])}
        x0 = np.asarray(agent["x0"], dtype=float) + rng.uniform(-jitter, jitter)
        agent["x0"] = [float(v) for v in x0]
        agents.append(agent)
    doc = {k: v for k, v in base.items() if k not in ("agents", "coupling")}
    doc["agents"] = agents
    doc["coupling"] = {
        "absolute": coupling["absolute"],
        "psi_x": [[list(coupling["psi_x"])]] * M,
        "psi_u": [[list(coupling["psi_u"])]] * M,
        "rhs": [coupling["rhs_per_agent"] * M],
    }
    return doc


def scenario_documents(record: dict, spec: dict, seed: int, root: Path) -> list[dict]:
    """One scenario document per variant; run seeds start at the document seed."""
    gen = spec["generator"]
    with open(root / gen["base"]) as fh:
        base = yaml.safe_load(fh)
    base["trigger_mode"] = gen["trigger_mode"]
    base["seed"] = seed * record["run_seed_stride"]
    if "agents" not in gen:
        return [base]
    streams = np.random.SeedSequence(seed).spawn(gen["variants"])
    return [_replicated(base, gen, np.random.default_rng(s)) for s in streams]
