"""Smoke tests of the benchmark at tiny size.

    python3 -m pytest bench/tests -q

Each workload runs a few closed-loop runs per invocation (``--tiny``): the
tests check the output contract, that every metric named in
BENCHMARK.json is printed with its unit, that the exact-repeat counters and
the deterministic end-to-end metrics repeat for a repeated seed, and that
the benchmark refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
COUNTERS = [m["name"] for m in BENCHMARK["per_layer"] if m["name"].startswith("counters.")]
DETERMINISTIC = ("solve_instants_per_run", "closed_loop_cost")


def bench(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


_cache = {}


def result(workload, trace):
    if (workload, trace) not in _cache:
        proc = bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        _cache[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _cache[workload, trace]


def test_workload_record_matches_benchmark():
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    assert sorted(workloads.load_record()["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed(workload, trace, kind):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: v["unit"] for name, v in out["metrics"].items()} == expected
    for name, v in out["metrics"].items():
        assert isinstance(v["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_repeat(workload):
    traced, untraced = result(workload, 1), result(workload, 0)
    again_traced, again_untraced = (json.loads(bench(workload, t).stdout.splitlines()[-1])
                                    for t in (1, 0))
    for name in COUNTERS:
        assert again_traced["metrics"][name] == traced["metrics"][name], name
    for name in DETERMINISTIC:
        assert again_untraced["metrics"][name] == untraced["metrics"][name], name


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
