"""Smooth structural causal models over Euclidean boxes.

A model is a list of named nodes, each with an ordered parent list and a
scalar-valued assignment expression. Assignments read their parents through
the "parents" slot, a node-owned contiguous slice of the global parameter
vector through "theta", and optionally the shared intervention vector "u",
an external-value vector "extern" (used to reroute arrows when building
invariant twins), and a trainable "policy" weight vector.

Equilibria solve x = f(x, theta) from zero initialization with a configured
fixed-point solver. A Linearization holds the dense partials of f at one point
and the inverse and 1-norm condition number of I - df/dx; the diffeomorphism
check and the implicit gradients of deq both read it.

An intervened spec from interventions.apply runs a program derived from its
parent's: the parent's stacked, compiled graph, then each target's wrap by its
u component. dataclasses.replace drops it, and the copy stacks its own graphs.

Batches: binding x, theta, u, extern or policy with a leading batch axis of
B rows stacks B independent problems, and a binding without it is shared by
every row. assemble_map then maps (B, d) to (B, d), solve_equilibrium solves
the B equilibria in lockstep, and node_gradients and Linearization give
(B, ...) stacks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable

import numpy as np

from . import diffcore, fixedpoint
from .diffcore import ExprGraph
from .errors import ShapeMismatch, SpecValidationError
from .fixedpoint import SolveReport, SolverConfig

Array = np.ndarray

#: largest 1-norm condition number of I - df/dx accepted as locally invertible
COND_MAX = 1e8


def _frozen_array(value, dtype=np.float64) -> Array:
    arr = np.asarray(value, dtype=dtype).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SscmSpec:
    """Node names, parent lists, assignment graphs and the parameter box."""

    names: tuple[str, ...]
    parents: tuple[tuple[int, ...], ...]
    assignments: tuple[ExprGraph, ...]
    theta_ref: Array
    theta_box: Array  # (p, 2) columns [lo, hi]
    theta_slices: tuple[tuple[int, int], ...]  # per-node (start, stop) into theta
    u_dim: int = 0
    u_ref: Array = field(default_factory=lambda: np.zeros(0))
    extern_dim: int = 0
    policy_dim: int = 0
    policy_ref: Array | None = None
    x_ref: Array | None = None
    # set once validate() passes; the fields are frozen, so the verdict cannot change
    _validated: bool = field(default=False, init=False, repr=False)
    # the stacked program, compiled at first use; it holds no reference back to the spec
    _stacked: object = field(default=None, init=False, repr=False)
    # intervened specs derived from this one, by (group, targets); see optimize_lie_intervention
    _wired: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "parents", tuple(tuple(map(int, p)) for p in self.parents))
        object.__setattr__(self, "theta_slices", tuple((int(a), int(b)) for a, b in self.theta_slices))
        object.__setattr__(self, "theta_ref", _frozen_array(self.theta_ref))
        object.__setattr__(self, "theta_box", _frozen_array(np.asarray(self.theta_box).reshape(-1, 2)))
        object.__setattr__(self, "u_ref", _frozen_array(self.u_ref))
        if self.policy_ref is not None:
            object.__setattr__(self, "policy_ref", _frozen_array(self.policy_ref))
        if self.x_ref is not None:
            object.__setattr__(self, "x_ref", _frozen_array(self.x_ref))

    @property
    def d(self) -> int:
        return len(self.names)

    @property
    def theta_dim(self) -> int:
        return self.theta_ref.shape[0]

    def with_u(self, u_ref) -> "SscmSpec":
        return replace(self, u_ref=_frozen_array(u_ref))


@dataclass
class EquilibriumSolution:
    x_star: Array
    report: SolveReport
    theta: Array


def validate(spec: SscmSpec) -> list[str]:
    """Structural diagnostics; an empty list means the spec is well-formed."""
    out: list[str] = []
    d = spec.d
    if len(spec.parents) != d or len(spec.assignments) != d or len(spec.theta_slices) != d:
        out.append(f"field lengths disagree with node count {d}")
        return out
    p = spec.theta_dim
    if spec.theta_box.shape != (p, 2):
        out.append(f"theta_box shape {spec.theta_box.shape} != ({p}, 2)")
    else:
        if np.any(spec.theta_box[:, 0] > spec.theta_box[:, 1]):
            out.append("theta_box has lo > hi components")
        if np.any(spec.theta_ref < spec.theta_box[:, 0]) or np.any(spec.theta_ref > spec.theta_box[:, 1]):
            out.append("theta_ref outside theta_box")
    out += [f"{name} has non-finite entries" for name in ("theta_ref", "theta_box", "u_ref", "policy_ref")
            if getattr(spec, name) is not None and not np.isfinite(getattr(spec, name)).all()]
    used = np.zeros(p, dtype=bool)
    for j in range(d):
        if len(set(spec.parents[j])) != len(spec.parents[j]):
            out.append(f"node {j}: parent list {spec.parents[j]} repeats a node")
        for parent in spec.parents[j]:
            if parent < 0 or parent >= d:
                out.append(f"node {j}: parent {parent} out of range")
            if parent == j:
                out.append(f"node {j}: self-loop in parent list")
        start, stop = spec.theta_slices[j]
        if not (0 <= start <= stop <= p):
            out.append(f"node {j}: theta slice [{start}:{stop}] out of range")
        elif used[start:stop].any():
            out.append(f"node {j}: theta slice [{start}:{stop}] overlaps another node's slice")
        else:
            used[start:stop] = True
        g = spec.assignments[j]
        if g.output_dim != 1:
            out.append(f"node {j}: assignment output dim {g.output_dim} != 1")
        for slot, (_, dim) in g.slots.items():
            if slot == "parents":
                if dim != len(spec.parents[j]):
                    out.append(f"node {j}: parents slot dim {dim} != {len(spec.parents[j])} declared parents")
            elif slot == "theta":
                if dim != stop - start:
                    out.append(f"node {j}: theta slot dim {dim} != slice length {stop - start}")
            elif slot == "u":
                if dim != spec.u_dim:
                    out.append(f"node {j}: u slot dim {dim} != u_dim {spec.u_dim}")
            elif slot == "extern":
                if dim != spec.extern_dim:
                    out.append(f"node {j}: extern slot dim {dim} != extern_dim {spec.extern_dim}")
            elif slot == "policy":
                if dim != spec.policy_dim:
                    out.append(f"node {j}: policy slot dim {dim} != policy_dim {spec.policy_dim}")
            else:
                out.append(f"node {j}: unknown slot {slot!r}")
        if "parents" not in g.slots and spec.parents[j]:
            out.append(f"node {j}: declares parents but assignment has no parents slot")
    if spec.u_dim != spec.u_ref.shape[0]:
        out.append(f"u_ref length {spec.u_ref.shape[0]} != u_dim {spec.u_dim}")
    if spec.policy_ref is not None and spec.policy_ref.shape[0] != spec.policy_dim:
        out.append(f"policy_ref length {spec.policy_ref.shape[0]} != policy_dim {spec.policy_dim}")
    return out


def _require_valid(spec: SscmSpec):
    if spec._validated:
        return
    diags = validate(spec)
    if diags:
        raise SpecValidationError(diags)
    object.__setattr__(spec, "_validated", True)


@dataclass(frozen=True)
class _Stacked:
    """The d assignments inlined into one graph over x, theta and the shared slots.

    Every node reads its own entry nodes: its parents as a gather of x, its
    theta slice, and its own view of each shared slot. A reverse sweep that
    stops at the entries therefore gives each node's partials unmixed.

    A derived program (see derive_wrapped) runs its parent's graph on a prefix of u, then
    wraps that multiply (or add to) the targets' outputs by their own u components.
    """

    graph: ExprGraph  # output: (f_1, ..., f_d)
    leaves: tuple[int, ...]  # the entry nodes whose partials NodeJacobians keeps, field by field
    cells: tuple  # per field: (field, columns, the flat cells its leaves' adjoint entries fill)
    first_reader: dict  # shared slot -> first node that reads it
    wraps: tuple = ()  # (multiplicative, targets, their u positions), applied in order


def _wrap(wraps, out: Array, u: Array) -> Array:
    """A stacked graph's output with a derived program's wraps applied, in place."""
    for mul, targets, positions in wraps:
        out[..., targets] = (np.multiply if mul else np.add)(out[..., targets], u[..., positions])
    return out


def _unwrap(prog: _Stacked, seed: Array, bindings: dict, u: Array, rows) -> list:
    """Turn a derived program's all-ones seed into its graph's: the adjoint each wrap's mul
    passes down, summed into 0 as the per-node graphs' sweep sums it (0 + -0 is 0). Returns
    per wrap its df/du cells and their partials, its output's adjoint (times its input for a mul)."""
    inputs, out, value = [], [], diffcore.forward_eval(prog.graph, bindings, rows) if prog.wraps else None
    for wrap in prog.wraps:
        inputs.append(value[..., wrap[1]])
        _wrap((wrap,), value, u)
    for (mul, targets, positions), value in zip(reversed(prog.wraps), reversed(inputs)):
        g = seed[..., targets]
        out.append((targets * u.shape[-1] + positions, g * value + 0.0 if mul else g))
        seed[..., targets] = g * u[..., positions] + 0.0 if mul else g
    return out


#: the NodeJacobians field each slot's partials fill; extern partials are not kept
_FIELDS = {"parents": "x", "theta": "theta", "u": "u", "policy": "policy"}


def _stacked(spec: SscmSpec) -> _Stacked:
    prog = spec._stacked
    if prog is None:
        b = diffcore.ExprBuilder()
        width = {"x": spec.d, "theta": spec.theta_dim, "u": spec.u_dim}
        if spec.policy_dim:
            width["policy"] = spec.policy_dim
        # per field: the entry nodes, and the row and the columns of each
        leaves, rows, cols = ({name: [] for name in width} for _ in range(3))
        outs, first_reader = [], {}
        for j, graph in enumerate(spec.assignments):
            slot_map = {}
            for slot, (_, dim) in graph.slots.items():
                if slot == "parents":
                    slot_map[slot] = b.gather(b.input("x", spec.d), spec.parents[j])
                    at = spec.parents[j]
                elif slot == "theta":
                    slot_map[slot] = b.slice(b.input("theta", spec.theta_dim), *spec.theta_slices[j])
                    at = range(*spec.theta_slices[j])
                else:
                    first_reader.setdefault(slot, j)
                    slot_map[slot] = b.slice(b.input(slot, dim), 0, dim)
                    at = range(dim)
                name = _FIELDS.get(slot)
                if name in width:
                    leaves[name].append(slot_map[slot].idx)
                    rows[name].append(j)
                    cols[name].append(at)
            outs.append(diffcore.inline(b, graph, slot_map))
        cells = []
        for name, w in width.items():
            lengths = np.array([len(at) for at in cols[name]], dtype=np.intp)
            flat = np.fromiter(chain.from_iterable(cols[name]), np.intp, int(lengths.sum()))
            cells.append((name, w, np.repeat(np.array(rows[name], dtype=np.intp) * w, lengths) + flat))
        prog = _Stacked(b.build(b.concat(*outs)), tuple(i for name in width for i in leaves[name]),
                        tuple(cells), first_reader)
        object.__setattr__(spec, "_stacked", prog)
    return prog


def derive_wrapped(parent: SscmSpec, spec: SscmSpec, multiplicative: bool, targets) -> None:
    """Give `spec`, `parent` with each target's output multiplied by (or added to) a new u
    component, the parent's stacked program (stacked first if need be) with one more wrap:
    nothing is stacked or compiled again, and df/du gains one cell per target. The wrapped
    graphs are valid by construction, so only non-finite new u values can fail validate."""
    _require_valid(parent)
    prog = _stacked(parent)
    old, new = parent.u_dim, spec.u_dim
    cells = tuple((name, new, at // max(old, 1) * new + at % max(old, 1)) if name == "u" else (name, w, at)
                  for name, w, at in prog.cells)
    wrap = (multiplicative, np.array(targets, dtype=np.intp), np.arange(old, new, dtype=np.intp))
    object.__setattr__(spec, "_stacked", replace(prog, cells=cells, wraps=prog.wraps + (wrap,)))
    object.__setattr__(spec, "_validated", bool(np.isfinite(spec.u_ref).all()))


def _bindings(spec: SscmSpec, prog: _Stacked, theta, u, extern, policy) -> tuple[dict, Array]:
    """Bindings of the stacked graph, except the per-evaluation "x", and the whole u, of
    which a derived program's graph reads a prefix."""
    u = spec.u_ref if u is None else np.asarray(u, dtype=np.float64)
    if prog.wraps and (u.ndim not in (1, 2) or u.shape[-1] != spec.u_dim):
        raise ShapeMismatch(f"slot 'u' expects dim {spec.u_dim}, got shape {u.shape}")
    bindings = {"theta": np.asarray(theta, dtype=np.float64),
                "u": u[..., :prog.graph.slot_dim("u")] if prog.wraps and "u" in prog.graph.slots else u}
    if policy is None:
        policy = spec.policy_ref
    for slot, value in (("extern", extern), ("policy", policy)):
        if slot in prog.first_reader:
            if value is None:
                raise SpecValidationError([f"node {prog.first_reader[slot]} requires a binding for {slot!r}"])
            bindings[slot] = np.asarray(value, dtype=np.float64)
    return bindings, u


def _rows(*bindings) -> int | None:
    """The batch size of a set of bindings: the leading length of the 2-d ones, None without any."""
    rows = {len(value) for value in bindings if value is not None and np.ndim(value) == 2}
    if len(rows) > 1:
        raise ShapeMismatch(f"bindings with a batch axis disagree on its length: {sorted(rows)}")
    return rows.pop() if rows else None


def assemble_map(spec: SscmSpec, theta, u=None, extern=None, policy=None) -> Callable[[Array], Array]:
    """The stacked structural map x -> (f_1(Pa_1, theta_1), ..., f_d(Pa_d, theta_d)),
    (B, d) -> (B, d) for a batch."""
    _require_valid(spec)
    prog = _stacked(spec)
    graph = prog.graph
    static, u = _bindings(spec, prog, theta, u, extern, policy)
    if not prog.wraps:
        return lambda x: diffcore.forward_eval(graph, {**static, "x": x}, None if np.ndim(x) == 1 else len(x))

    def f(x: Array) -> Array:
        return _wrap(prog.wraps, diffcore.forward_eval(graph, {**static, "x": x}, _rows(x, u)), u)

    return f


def solve_equilibrium(spec: SscmSpec, theta, cfg: SolverConfig, u=None, extern=None, policy=None) -> EquilibriumSolution:
    """Solve x = f(x, theta) from zero initialization with the configured solver; a
    batch gives a (B, d) x_star and a batched report."""
    f = assemble_map(spec, theta, u=u, extern=extern, policy=policy)
    rows = _rows(theta, u, extern, policy)
    report = fixedpoint.solve(f, np.zeros(spec.d if rows is None else (rows, spec.d)), cfg)
    return EquilibriumSolution(report.x, report, np.asarray(theta, dtype=np.float64).copy())


@dataclass
class NodeJacobians:
    """Dense partials of the stacked map f at one point; row j belongs to node j.
    A batch stacks them, (B, d, ...)."""

    x: Array  # (d, d)
    theta: Array  # (d, theta_dim)
    u: Array  # (d, u_dim)
    policy: Array | None = None  # (d, policy_dim), None without policy weights


def node_gradients(spec: SscmSpec, x, theta, u=None, extern=None, policy=None) -> NodeJacobians:
    """df/d(x, theta, u, policy) at (x, theta), (B, d, ...) stacks for a batch.

    One reverse sweep of the stacked graph, seeded with 1 at every node output (with
    what the wraps pass down in a derived program) and stopped at the entry nodes;
    their adjoints fill each dense matrix through the cells the stacked program holds.
    """
    _require_valid(spec)
    prog = _stacked(spec)
    bindings, u = _bindings(spec, prog, theta, u, extern, policy)
    bindings["x"] = x
    rows = _rows(x, theta, u, extern, policy)
    seed = np.ones(spec.d if rows is None else (rows, spec.d))
    wrapped = _unwrap(prog, seed, bindings, u, rows)
    adj = diffcore.reverse_vjp(prog.graph, bindings, seed, at=prog.leaves)
    lead = adj.shape[:-1]
    dense, start = {}, 0
    for name, width, cells in prog.cells:
        flat = np.zeros(lead + (spec.d * width,))
        flat[..., cells] = adj[..., start:start + len(cells)]
        for at, partial in wrapped if name == "u" else ():
            flat[..., at] = partial
        dense[name] = flat.reshape(lead + (spec.d, width))
        start += len(cells)
    return NodeJacobians(**dense)


class Linearization:
    """Dense partials of f and the inverse of I - df/dx at one point, or a stack of them.

    cond is the 1-norm condition number of I - df/dx, taken from the inverse,
    one per row of a batch; when I - df/dx is singular (in any row), inv is
    None and cond is inf (in those rows). It never raises.
    """

    def __init__(self, spec: SscmSpec, x, theta, u=None, extern=None, policy=None):
        self.jac = node_gradients(spec, x, theta, u=u, extern=extern, policy=policy)
        lhs = np.eye(spec.d) - self.jac.x
        try:
            self.inv = np.linalg.inv(lhs)
        except np.linalg.LinAlgError:
            self.inv, self.cond = None, np.linalg.cond(lhs, 1)
        else:
            self.cond = np.linalg.norm(lhs, 1, axis=(-2, -1)) * np.linalg.norm(self.inv, 1, axis=(-2, -1))


@dataclass
class DiffeoReport:
    is_solution: bool
    jacobian_invertible: bool
    condition_number: float
    residual: float


def check_local_diffeomorphism(spec: SscmSpec, x, theta, tol: float = 1e-4,
                               u=None, extern=None, policy=None) -> DiffeoReport:
    """Check that (x, theta) is a fixed point and that I - df/dx is well conditioned.

    The report is for one point: x, theta and the other bindings are unbatched,
    and a batch axis on any of them raises ShapeMismatch.
    """
    if _rows(x, theta, u, extern, policy) is not None:
        raise ShapeMismatch("check_local_diffeomorphism takes one point, not a batch")
    f = assemble_map(spec, theta, u=u, extern=extern, policy=policy)
    x = np.asarray(x, dtype=np.float64)
    (res,), (err,) = fixedpoint._row_error(x[None], (f(x) - x)[None])
    cond = Linearization(spec, x, theta, u=u, extern=extern, policy=policy).cond
    return DiffeoReport(
        is_solution=bool(err <= tol),
        jacobian_invertible=bool(cond <= COND_MAX),
        condition_number=cond,
        residual=float(res),
    )


# --- JSON serialization ---

def spec_to_obj(spec: SscmSpec) -> dict:
    return {
        "names": list(spec.names),
        "parents": [list(p) for p in spec.parents],
        "assignments": [diffcore.graph_to_obj(g) for g in spec.assignments],
        "theta_ref": spec.theta_ref.tolist(),
        "theta_box": spec.theta_box.tolist(),
        "theta_slices": [list(s) for s in spec.theta_slices],
        "u_dim": spec.u_dim,
        "u_ref": spec.u_ref.tolist(),
        "extern_dim": spec.extern_dim,
        "policy_dim": spec.policy_dim,
        "policy_ref": None if spec.policy_ref is None else spec.policy_ref.tolist(),
        "x_ref": None if spec.x_ref is None else spec.x_ref.tolist(),
    }


def spec_from_obj(obj: dict) -> SscmSpec:
    return SscmSpec(
        names=tuple(obj["names"]),
        parents=tuple(tuple(p) for p in obj["parents"]),
        assignments=tuple(diffcore.graph_from_obj(g) for g in obj["assignments"]),
        theta_ref=np.asarray(obj["theta_ref"], dtype=np.float64),
        theta_box=np.asarray(obj["theta_box"], dtype=np.float64).reshape(-1, 2),
        theta_slices=tuple(tuple(s) for s in obj["theta_slices"]),
        u_dim=int(obj["u_dim"]),
        u_ref=np.asarray(obj["u_ref"], dtype=np.float64),
        extern_dim=int(obj["extern_dim"]),
        policy_dim=int(obj["policy_dim"]),
        policy_ref=None if obj["policy_ref"] is None else np.asarray(obj["policy_ref"], dtype=np.float64),
        x_ref=None if obj["x_ref"] is None else np.asarray(obj["x_ref"], dtype=np.float64),
    )


def spec_to_json(spec: SscmSpec) -> str:
    return json.dumps(spec_to_obj(spec), sort_keys=True)


def spec_from_json(text: str) -> SscmSpec:
    return spec_from_obj(json.loads(text))
