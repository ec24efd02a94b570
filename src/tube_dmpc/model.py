"""Problem data types and scenario ingestion/validation."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

MEMBERSHIP_TOL = 1e-9
PD_TOL = 1e-9
RANK_TOL = 1e-8


class ScenarioError(ValueError):
    """Raised when a scenario document fails validation."""


def _get(node, key, what, convert=lambda v: np.asarray(v, dtype=float), default=None):
    """convert(node[key]), or `default` when the key is absent (required without one).

    A missing required key, a value that `convert` refuses (a non-numeric
    entry, say), or a float result (an array, or a list of arrays, included)
    holding a NaN or an infinity is a ScenarioError naming `what` and the key.
    """
    if key not in node:
        if default is None:
            raise ScenarioError(f"{what}: missing '{key}'")
        return default
    try:
        value = convert(node[key])
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{what}: malformed '{key}' ({exc})") from None
    if any(isinstance(v, (float, np.ndarray)) and not np.isfinite(v).all()
           for v in (value if isinstance(value, list) else [value])):
        raise ScenarioError(f"{what}: non-finite entry in '{key}'")
    return value


def _as_matrix(value, rows, cols, what):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1 and rows == 1:
        arr = arr.reshape(1, -1)
    if arr.shape != (rows, cols):
        raise ScenarioError(f"{what}: expected shape {(rows, cols)}, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class HPolytope:
    """Polyhedron {y : G y <= h} in H-representation."""

    G: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        h = np.asarray(self.h, dtype=float).ravel()
        if G.shape[0] != h.shape[0]:
            raise ScenarioError(f"polytope: {G.shape[0]} rows in G but {h.shape[0]} offsets")
        if np.any(np.linalg.norm(G, axis=1) == 0.0):
            raise ScenarioError("polytope: zero row in G")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)

    @property
    def dim(self) -> int:
        return self.G.shape[1]

    @classmethod
    def box(cls, half_widths) -> "HPolytope":
        """Axis-aligned box |y_j| <= half_widths[j]."""
        hw = np.asarray(half_widths, dtype=float).ravel()
        eye = np.eye(hw.size)
        return cls(np.vstack([eye, -eye]), np.concatenate([hw, hw]))

    def contains_origin_strictly(self) -> bool:
        return bool(np.all(self.h > MEMBERSHIP_TOL))

    def is_bounded(self) -> bool:
        """Boundedness of a nonempty set: its recession cone {d : G d <= 0} is {0}.

        By Stiemke's lemma that holds iff rank(G) = dim and some y > 0 (scaled:
        y >= 1) has G'y = 0, which one feasibility LP decides.
        """
        if np.linalg.matrix_rank(self.G) < self.dim:
            return False
        from scipy.optimize import linprog  # imported on first use: a slow import
        res = linprog(np.zeros(self.G.shape[0]), A_eq=self.G.T, b_eq=np.zeros(self.dim),
                      bounds=(1.0, None), method="highs")
        if res.status == 2:  # infeasible: some d != 0 has G d <= 0
            return False
        if not res.success:
            raise ScenarioError(f"polytope boundedness LP failed: {res.message}")
        return True


def membership(poly: HPolytope, y, tol: float = MEMBERSHIP_TOL):
    """True iff G y <= h + tol component-wise.

    y is one point (a bool is returned) or a (k, dim) stack of points (one
    bool per row is returned).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != poly.dim:
        raise ScenarioError(f"membership: points of shape {y.shape}, polytope dim {poly.dim}")
    inside = np.all(poly.G @ y[..., None] <= (poly.h + tol)[:, None], axis=(-2, -1))
    return bool(inside) if y.ndim == 1 else inside


@dataclass(frozen=True)
class AgentModel:
    """One subsystem: dynamics x+ = A x + B u + w, sets, weights.

    w_bar is the 2-norm radius of the disturbance ball used by every bound;
    box_half_widths, when set, is the box the simulator actually samples from
    (w_bar then covers its corners).
    """

    A: np.ndarray
    B: np.ndarray
    w_bar: float
    X: HPolytope
    U: HPolytope
    Q: np.ndarray
    R: np.ndarray
    box_half_widths: np.ndarray | None = None
    lam_max_Q: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # largest eigenvalue of Q, read by every deviation bound of the trigger
        object.__setattr__(self, "lam_max_Q", float(np.linalg.eigvalsh(self.Q).max()))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def norm_A(self) -> float:
        """Spectral norm ||A||_2, shared by the schedule, certificates and bounds."""
        return float(np.linalg.norm(self.A, 2))

    def controllability_matrix(self) -> np.ndarray:
        blocks = [self.B]
        for _ in range(self.n - 1):
            blocks.append(self.A @ blocks[-1])
        return np.hstack(blocks)


@dataclass(frozen=True)
class CouplingSpec:
    """Coupled-constraint data sum_i (Psi_x[i] x^i + Psi_u[i] u^i) <= 1_p.

    Stored normalized: the right-hand side is the all-ones vector.
    """

    Psi_x: tuple
    Psi_u: tuple
    p: int


@dataclass(frozen=True)
class SolverParams:
    """Dual-ADMM settings: penalty rho, dual iteration cap max_iter and stop
    tolerance tol (on the consensus residual, the multiplier change and the
    coupling violation alike); the proximal weight tau is always default_tau."""

    rho: float = 1.0
    tol: float = 1e-5
    max_iter: int = 500

    def __post_init__(self):
        for name, value in (("rho", self.rho), ("tol", self.tol)):
            if not 0 < value < np.inf:  # NaN fails too
                raise ScenarioError(f"solver {name} must be finite and > 0, got {value}")
        if self.max_iter < 1:
            raise ScenarioError(f"solver max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class Scenario:
    """A validated problem instance: agents, coupling, horizon, run settings."""

    agents: tuple
    coupling: CouplingSpec
    N: int
    T_run: int
    x0: tuple
    seed: int = 0
    trigger_mode: str = "self-triggered"
    solver: SolverParams = field(default_factory=SolverParams)
    name: str = "scenario"

    @property
    def M(self) -> int:
        return len(self.agents)


def group_members(agents) -> list:
    """Agent indices per distinct model (A, B, Q, R, X, U, w_bar), in order of first appearance.

    This is where agents are grouped: the agents of one entry share their
    terminal ingredients, tightened sets, OCP data and split setup.
    """
    members = {}
    for i, a in enumerate(agents):
        arrays = (a.A, a.B, a.Q, a.R, a.X.G, a.X.h, a.U.G, a.U.h)
        key = tuple((x.shape, x.tobytes()) for x in arrays) + (a.w_bar,)
        members.setdefault(key, []).append(i)
    return [np.array(idx) for idx in members.values()]


def per_agent(agents, members, fn) -> tuple:
    """fn of each group's model, evaluated once per entry of `members`, one value per agent."""
    values = [fn(agents[idx[0]]) for idx in members]
    which = {i: k for k, idx in enumerate(members) for i in idx.tolist()}
    return tuple(values[which[i]] for i in range(len(agents)))


def _parse_polytope(node, dim, what) -> HPolytope:
    if "box" in node:
        hw = _get(node, "box", what).ravel()
        if hw.size != dim:
            raise ScenarioError(f"{what}: box has {hw.size} entries, expected {dim}")
        if np.any(hw <= 0):
            raise ScenarioError(f"{what}: box half-widths must be positive")
        return HPolytope.box(hw)
    if "G" in node and "h" in node:
        G = np.atleast_2d(_get(node, "G", what))
        if G.shape[1] != dim:
            raise ScenarioError(f"{what}: G has {G.shape[1]} columns, expected {dim}")
        return HPolytope(G, _get(node, "h", what))
    raise ScenarioError(f"{what}: give either 'box' or 'G'/'h'")


def _symmetrize_pd(mat, what) -> np.ndarray:
    sym = 0.5 * (mat + mat.T)
    eigs = np.linalg.eigvalsh(sym)
    if eigs.min() <= PD_TOL:
        raise ScenarioError(f"{what}: non-PD weight (min eigenvalue {eigs.min():.3e})")
    return sym


def _parse_agent(node, index) -> AgentModel:
    tag = f"agent {index}"
    A = np.atleast_2d(_get(node, "A", tag))
    n = A.shape[0]
    if A.shape != (n, n):
        raise ScenarioError(f"{tag}: A must be square, got {A.shape}")
    B = _get(node, "B", tag)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if B.shape[0] != n:
        raise ScenarioError(f"{tag}: B has {B.shape[0]} rows, expected {n}")
    m = B.shape[1]

    Q = _symmetrize_pd(_as_matrix(_get(node, "Q", tag), n, n, f"{tag}: Q"), f"{tag}: Q")
    R = _symmetrize_pd(_as_matrix(_get(node, "R", tag), m, m, f"{tag}: R"), f"{tag}: R")

    X_node, U_node = _get(node, "state_set", tag, dict), _get(node, "input_set", tag, dict)
    X = _parse_polytope(X_node, n, f"{tag}: state_set")
    U = _parse_polytope(U_node, m, f"{tag}: input_set")
    for what, poly, spec in (("state_set", X, X_node), ("input_set", U, U_node)):
        if not poly.contains_origin_strictly():
            raise ScenarioError(f"{tag}: origin not interior to {what}")
        # a box is bounded by construction: no LP
        if "box" not in spec and not poly.is_bounded():
            raise ScenarioError(f"{tag}: unbounded {what}")

    dist = _get(node, "disturbance", tag, dict, {})
    box_hw = None
    if "box" in dist:
        box_hw = _get(dist, "box", f"{tag}: disturbance").ravel()
        if box_hw.size != n:
            raise ScenarioError(f"{tag}: disturbance box has {box_hw.size} entries, expected {n}")
        if np.any(box_hw < 0):
            raise ScenarioError(f"{tag}: disturbance box half-widths must be >= 0")
        w_bar = float(np.linalg.norm(box_hw))  # ball radius covering the box corners
    elif "w_bar" in dist:
        w_bar = _get(dist, "w_bar", f"{tag}: disturbance", float)
        if w_bar < 0:
            raise ScenarioError(f"{tag}: w_bar must be >= 0")
    else:
        w_bar = 0.0

    agent = AgentModel(A=A, B=B, w_bar=w_bar, X=X, U=U, Q=Q, R=R, box_half_widths=box_hw)
    sv = np.linalg.svd(agent.controllability_matrix(), compute_uv=False)
    if sv.min() <= RANK_TOL * sv.max():
        raise ScenarioError(f"{tag}: (A, B) not reachable "
                            f"(controllability singular-value ratio {sv.min() / sv.max():.3e})")
    return agent


def _parse_coupling(node, agents) -> CouplingSpec:
    def matrices(value):
        return [np.asarray(mat, dtype=float) for mat in value]

    psi_x_raw = _get(node, "psi_x", "coupling", matrices)
    psi_u_raw = _get(node, "psi_u", "coupling", matrices)
    rhs = _get(node, "rhs", "coupling").ravel()
    if len(psi_x_raw) != len(agents) or len(psi_u_raw) != len(agents):
        raise ScenarioError("coupling: psi_x/psi_u must list one matrix per agent")

    p = rhs.size
    Psi_x, Psi_u = [], []
    for i, agent in enumerate(agents):
        Px = _as_matrix(psi_x_raw[i], p, agent.n, f"coupling psi_x[{i}]")
        Pu = _as_matrix(psi_u_raw[i], p, agent.m, f"coupling psi_u[{i}]")
        Psi_x.append(Px)
        Psi_u.append(Pu)

    if _get(node, "absolute", "coupling", bool, False):
        # |sum(...)| <= rhs becomes the +/- row pair before normalization
        Psi_x = [np.vstack([Px, -Px]) for Px in Psi_x]
        Psi_u = [np.vstack([Pu, -Pu]) for Pu in Psi_u]
        rhs = np.concatenate([rhs, rhs])
        p = 2 * p

    if np.any(rhs <= 0):
        raise ScenarioError("coupling: rhs entries must be positive to normalize to 1")
    scale = 1.0 / rhs
    Psi_x = tuple(Px * scale[:, None] for Px in Psi_x)
    Psi_u = tuple(Pu * scale[:, None] for Pu in Psi_u)
    return CouplingSpec(Psi_x=Psi_x, Psi_u=Psi_u, p=p)


def _integer(value) -> int:
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(number)


def _parse_solver(node) -> SolverParams:
    """SolverParams from the 'solver' mapping; YAML 1.1 loads 1e-5 (no dot) as a string."""
    kinds = {f.name: _integer if f.type == "int" else float for f in fields(SolverParams)}
    unknown = [key for key in node if key not in kinds]
    if unknown:
        raise ScenarioError(f"solver: unknown field {unknown[0]!r}")
    return SolverParams(**{key: _get(node, key, "solver", kinds[key]) for key in node})


def _exact(value):
    """`value` with its arrays as nested lists, whose repr, unlike numpy's, is lossless."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_exact(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_exact(item) for item in value)
    return value


def validate_scenario(raw: dict) -> Scenario:
    """Turn a parsed scenario document into a validated, normalized Scenario."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a mapping")
    agent_nodes = _get(raw, "agents", "scenario", list)
    if not agent_nodes:
        raise ScenarioError("scenario needs at least one agent")
    if not all(isinstance(node, dict) for node in agent_nodes):
        raise ScenarioError("every entry of 'agents' must be a mapping")

    # _parse_agent does not read x0: agents whose nodes agree elsewhere share one parse
    parsed, agents = {}, []
    for i, node in enumerate(agent_nodes):
        key = repr([(name, _exact(value)) for name, value in node.items() if name != "x0"])
        if key not in parsed:
            parsed[key] = _parse_agent(node, i)
        agents.append(parsed[key])
    agents = tuple(agents)

    N = _get(raw, "horizon", "scenario", _integer)
    if N < 1:
        raise ScenarioError(f"horizon must be >= 1, got {N}")
    T_run = _get(raw, "t_run", "scenario", _integer)
    if T_run < 1:
        raise ScenarioError(f"t_run must be >= 1, got {T_run}")

    x0 = []
    for i, (node, agent) in enumerate(zip(agent_nodes, agents)):
        xi = _get(node, "x0", f"agent {i}").ravel()
        if xi.size != agent.n:
            raise ScenarioError(f"agent {i}: x0 has {xi.size} entries, expected {agent.n}")
        if not membership(agent.X, xi):
            raise ScenarioError(f"agent {i}: x0 outside state_set")
        x0.append(xi)

    coupling = _parse_coupling(_get(raw, "coupling", "scenario", dict), agents)

    mode = raw.get("trigger_mode", "self-triggered")
    if mode not in ("self-triggered", "periodic"):
        raise ScenarioError(f"trigger_mode must be 'self-triggered' or 'periodic', got {mode!r}")

    seed = _get(raw, "seed", "scenario", _integer, 0)
    if seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {seed}")

    return Scenario(agents=agents, coupling=coupling, N=N, T_run=T_run,
                    x0=tuple(x0), seed=seed, trigger_mode=mode,
                    solver=_parse_solver(_get(raw, "solver", "scenario", dict, {})),
                    name=str(raw.get("name", "scenario")))

