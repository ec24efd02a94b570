"""Span recording around the package's public functions, from outside it.

A ``Tracer`` rebinds names in the modules that call them (for example
``simulator.condense`` or ``dual_admm.solve_inner``) to thin wrappers that
record one span per call: name, start, end, parent span, run id, plus one
integer of payload (inner iterations for ``solve_inner``, dual iterations
for ``run_admm``) and, for ``solve_inner``, whether the multiplier repeats
the agent's previous one within the same ``run_admm`` call. Spans stay in
memory in flat arrays; ``arrays()`` hands them over for aggregation and
``write()`` stores them when the benchmark ends. ``uninstall()`` restores
every rebound name.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

NO_RUN = -1

# (span name, module attribute path of the rebound name). The module is
# given relative to the package; the first part of the span name is the
# layer that owns the function.
WRAPPED = (
    ("cli.load_scenario", "cli", "load_scenario"),
    ("model.validate_scenario", "cli", "validate_scenario"),
    ("simulator.prepare", "simulator", "prepare"),
    ("synthesis.synthesize", "simulator", "synthesize"),
    ("tightening.tolerance_schedule", "simulator", "tolerance_schedule"),
    ("tightening.tighten_local_sets", "simulator", "tighten_local_sets"),
    ("synthesis.certify", "simulator", "certify"),
    ("simulator.run_closed_loop", "simulator", "run_closed_loop"),
    ("local_solver.condense", "simulator", "condense"),
    ("dual_admm.run_admm", "simulator", "run_admm"),
    ("local_solver.solve_inner", "dual_admm", "solve_inner"),
    ("trigger.g_profile", "simulator", "g_profile"),
    ("trigger.select_Mk", "simulator", "select_Mk"),
    ("simulator.step_plant", "simulator", "step_plant"),
    ("simulator.sample", "simulator.DisturbanceSampler", "sample"),
    ("model.membership", "simulator", "membership"),
    ("simulator.write_trace_csv", "simulator", "write_trace_csv"),
    ("simulator.write_triggers_csv", "simulator", "write_triggers_csv"),
    ("simulator.write_summary_json", "simulator", "write_summary_json"),
    ("local_solver.solve_centralized", "local_solver", "solve_centralized"),
)
NAMES = tuple(name for name, _, _ in WRAPPED)
CODE = {name: code for code, name in enumerate(NAMES)}


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """In-memory span recorder; install() rebinds, uninstall() restores."""

    def __init__(self, package):
        self.package = package
        self.run = NO_RUN
        self.code = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run_id = array("i")
        self.payload = array("q")
        self.repeat = array("b")
        self._stack = []
        self._last_lambda = {}
        self._saved = []

    # -- recording -------------------------------------------------------
    def _open(self, code: int) -> int:
        idx = len(self.code)
        self.code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run_id.append(self.run)
        self.payload.append(0)
        self.repeat.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _plain(self, code, original):
        def wrapper(*args, **kwargs):
            idx = self._open(code)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _run_admm(self, code, original):
        def wrapper(*args, **kwargs):
            self._last_lambda.clear()
            idx = self._open(code)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            self.payload[idx] = result[1].iteration
            return result
        return wrapper

    def _solve_inner(self, code, original):
        def wrapper(ocp, lam, *args, **kwargs):
            key = np.asarray(lam, dtype=float).tobytes()
            repeat = self._last_lambda.get(id(ocp)) == key
            self._last_lambda[id(ocp)] = key
            idx = self._open(code)
            try:
                sol = original(ocp, lam, *args, **kwargs)
            finally:
                self._close(idx)
            self.payload[idx] = sol.iterations
            self.repeat[idx] = repeat
            return sol
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        special = {"dual_admm.run_admm": self._run_admm,
                   "local_solver.solve_inner": self._solve_inner}
        for name, owner_path, attr in WRAPPED:
            owner = _resolve(self.package, owner_path)
            original = getattr(owner, attr)
            make = special.get(name, self._plain)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(CODE[name], original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "code": np.frombuffer(self.code, dtype=np.int16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run_id, dtype=np.int32).copy(),
            "payload": np.frombuffer(self.payload, dtype=np.int64).copy(),
            "repeat": np.frombuffer(self.repeat, dtype=np.int8).astype(bool),
        }


def self_times(spans: dict) -> np.ndarray:
    """Span duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    own = dur.copy()
    child = spans["parent"] >= 0
    np.subtract.at(own, spans["parent"][child], dur[child])
    return own


def instant_ids(spans: dict) -> np.ndarray:
    """Trigger-instant id per span, -1 outside any instant.

    Within a run, an instant starts at the first condense call after a
    direct child of run_closed_loop that is not condense; every later
    direct child, and its descendants, belongs to that instant.
    """
    code, parent = spans["code"], spans["parent"]
    ids = np.full(code.size, -1, dtype=np.int64)
    condense = CODE["local_solver.condense"]
    run_closed_loop = CODE["simulator.run_closed_loop"]
    counter = -1
    previous = None
    for idx in range(code.size):
        p = parent[idx]
        if p >= 0 and code[p] == run_closed_loop:
            if code[idx] == condense and previous != condense:
                counter += 1
            previous = code[idx]
            ids[idx] = counter
        elif code[idx] == run_closed_loop:
            previous = None
        elif p >= 0:
            ids[idx] = ids[p]
    return ids


def write(path, spans: dict, instants: np.ndarray) -> None:
    """Store every span (compressed .npz, names in ``names``)."""
    np.savez_compressed(path, names=np.array(NAMES), instant=instants, **spans)
