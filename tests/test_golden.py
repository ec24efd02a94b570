"""Default-seed outputs of `tube-dmpc run` against recorded copies.

tests/golden/<mode>/ holds trace.csv, triggers.csv and summary.json written by

    PYTHONPATH=src python -m tube_dmpc.cli run \
        --scenario scenarios/four_agent.yaml --mode <mode> --out tests/golden/<mode>

for both trigger modes at the scenario's own seed, and tests/golden/mixed_six/<mode>/
the same for scenarios/mixed_six.yaml, whose agents form three interleaved
groups (agents {0, 3}, {1, 4} and {2, 5}) of which some solve while the others
run terminal feedback. A refactor must reproduce
them: numbers to 1e-9 relative (with a 1e-12 absolute floor for entries that
cancel to about zero), integers, booleans and strings exactly. Re-record them
only for a change that is meant to alter the closed loop.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from tube_dmpc.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _as_int(text):
    try:
        return int(text)
    except ValueError:
        return None


def _as_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def same_cell(expected: str, actual: str) -> bool:
    ei, ai = _as_int(expected), _as_int(actual)
    if ei is not None and ai is not None:
        return ei == ai
    ef, af = _as_float(expected), _as_float(actual)
    if ef is None or af is None:
        return expected == actual
    return math.isclose(ef, af, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def diff_json(expected, actual, path="$"):
    """Paths where actual departs from expected (floats within tolerance)."""
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        ok = math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        return [] if ok else [f"{path}: {expected!r} != {actual!r}"]
    if type(expected) is not type(actual):
        return [f"{path}: type {type(expected).__name__} != {type(actual).__name__}"]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [d for k in expected for d in diff_json(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in diff_json(e, a, f"{path}[{i}]")]
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


def diff_csv(expected_path: Path, actual_path: Path):
    with open(expected_path, newline="") as fh:
        expected = list(csv.reader(fh))
    with open(actual_path, newline="") as fh:
        actual = list(csv.reader(fh))
    if len(expected) != len(actual):
        return [f"{len(expected)} rows != {len(actual)} rows"]
    out = []
    for r, (erow, arow) in enumerate(zip(expected, actual)):
        if len(erow) != len(arow):
            out.append(f"row {r}: {len(erow)} cells != {len(arow)}")
            continue
        out += [f"row {r} col {expected[0][c]}: {e} != {a}"
                for c, (e, a) in enumerate(zip(erow, arow)) if not same_cell(e, a)]
    return out


def check_run(tmp_path, scenario, mode, golden):
    code = main(["run", "--scenario", str(ROOT / "scenarios" / scenario),
                 "--mode", mode, "--out", str(tmp_path)])
    assert code == 0
    for name in ("trace.csv", "triggers.csv"):
        problems = diff_csv(golden / name, tmp_path / name)
        assert not problems, f"{mode}/{name}: " + "; ".join(problems[:5])
    expected = json.loads((golden / "summary.json").read_text())
    actual = json.loads((tmp_path / "summary.json").read_text())
    problems = diff_json(expected, actual)
    assert not problems, f"{mode}/summary.json: " + "; ".join(problems[:5])


@pytest.mark.parametrize("mode", ["self-triggered", "periodic"])
def test_default_seed_outputs_match_golden(tmp_path, mode):
    check_run(tmp_path, "four_agent.yaml", mode, GOLDEN / mode)


@pytest.mark.parametrize("mode", ["self-triggered", "periodic"])
def test_mixed_fleet_outputs_match_golden(tmp_path, mode):
    check_run(tmp_path, "mixed_six.yaml", mode, GOLDEN / "mixed_six" / mode)


def test_golden_comparison_catches_a_drift():
    assert same_cell("1.0000000001", "1.0000000001")
    assert not same_cell("1.0", "1.00000001")
    assert same_cell("0", "1e-17")
    assert not same_cell("3", "4")
    assert not same_cell("ocp", "terminal")
    assert diff_json({"a": [1.0, 2]}, {"a": [1.0 + 1e-12, 2]}) == []
    assert diff_json({"a": [1.0, 2]}, {"a": [1.0, 3]})
    assert diff_json({"ok": True}, {"ok": 1})
