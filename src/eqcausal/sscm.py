"""Smooth structural causal models over Euclidean boxes.

A model is a list of named nodes, each with an ordered parent list and a
scalar-valued assignment expression. Assignments read their parents through
the "parents" slot, a node-owned contiguous slice of the global parameter
vector through "theta", and optionally the shared intervention vector "u"
and a trainable "policy" weight vector. A reroute (nodes, values), which the map,
the solver and the partials take, makes every arrow out of `nodes` read `values`
instead of x (see assemble_map); invariant twins train this way.

Equilibria solve x = f(x, theta) from zero initialization with a configured
fixed-point solver. A Linearization holds the dense partials of f at one point
and I - df/dx, whose 1-norm condition number it computes on first read for the
diffeomorphism check; deq's gradients and the invariance checks solve I - df/dx
(see deq for when the gradients need no condition number).

A spec stacks its per-node graphs into one program at first use, except two
kinds: modelzoo.leontief_model builds its program from the table's arrays, and
an intervened spec (interventions.apply) derives its program from its parent's:
the parent's stacked graph with the wrap of each target by its u component
appended as nodes of the same graph, compiled once, at its first use. These
build their per-node graphs only when `assignments` is read: by validate, JSON,
dataclasses.replace (whose copy stacks its own graphs), build_invariant_model.

Batches: binding x, theta, u, policy or reroute values with a leading batch axis of
B rows stacks B independent problems, and a binding without it is shared by
every row. assemble_map then maps (B, d) to (B, d), solve_equilibrium solves
the B equilibria in lockstep, and node_gradients and Linearization give
(B, ...) stacks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, chain
from typing import Callable

import numpy as np

from . import diffcore, fixedpoint
from .diffcore import ExprGraph, GraphNode
from .errors import ParseError, ShapeMismatch, SpecValidationError
from .fixedpoint import SolveReport, SolverConfig

Array = np.ndarray

#: largest 1-norm condition number of I - df/dx accepted as locally invertible
COND_MAX = 1e8


def _frozen_array(value, dtype=np.float64) -> Array:
    arr = np.asarray(value, dtype=dtype).copy()
    arr.setflags(write=False)
    return arr


class _OnDemand:
    """A field holding its value or a function that returns it, which the first read calls."""

    def __set_name__(self, owner, name):
        self.key = "_" + name

    def __get__(self, spec, owner=None):
        if spec is None:
            raise AttributeError(self.key)  # so the field has no default
        if callable(value := spec.__dict__[self.key]):
            value = spec.__dict__[self.key] = tuple(value())
        return value

    def __set__(self, spec, value):
        spec.__dict__[self.key] = value


class _Parents(tuple):
    """Parent lists of ints that SscmSpec keeps as they are: its own, a copy's, leontief_model's."""


@dataclass(frozen=True, eq=False)
class SscmSpec:
    """Node names, parent lists, assignment graphs and the parameter box. `assignments`
    may be a function that returns the graphs, for a spec built with its program."""

    names: tuple[str, ...]
    parents: tuple[tuple[int, ...], ...]
    assignments: tuple[ExprGraph, ...] = _OnDemand()
    theta_ref: Array
    theta_box: Array  # (p, 2) columns [lo, hi]
    theta_slices: tuple[tuple[int, int], ...]  # per-node (start, stop) into theta
    u_dim: int = 0
    u_ref: Array = field(default_factory=lambda: np.zeros(0))
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
        if type(self.parents) is not _Parents:
            object.__setattr__(self, "parents", _Parents(tuple(map(int, p)) for p in self.parents))
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


@dataclass
class EquilibriumSolution:
    """x* and float64 copies of the theta, u, policy and reroute it was solved at, None if not given."""

    x_star: Array
    report: SolveReport
    theta: Array
    u: Array | None = None
    policy: Array | None = None
    reroute: tuple[Array, Array] | None = None


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

    A derived program (see derive_wrapped) is its parent's graph with more nodes after it,
    and a new u entry per wrap: its cells sit in the u field beside the parent's.
    """

    graph: ExprGraph  # output: (f_1, ..., f_d)
    cells: tuple  # per field: (field, columns, its entry nodes, the flat cells their adjoint entries fill)
    leaves: tuple = field(init=False)  # every field's entry nodes end to end, which NodeJacobians keeps

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(chain.from_iterable(c[2] for c in self.cells)))

    @cached_property
    def dense(self) -> Array:
        """Per leaf adjoint, its cell in the fields' dense matrices laid end to end; built at
        the first node_gradients call, which a program that is only evaluated never makes."""
        sizes = accumulate((self.graph.output_dim * width for _, width, _, _ in self.cells), initial=0)
        return np.concatenate([cells + first for (_, _, _, cells), first in zip(self.cells, sizes)]
                              + [np.zeros(0, np.intp)])


#: the NodeJacobians field each slot's partials fill
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
        outs = []
        for j, graph in enumerate(spec.assignments):
            slot_map = {}
            for slot, (_, dim) in graph.slots.items():
                if slot == "parents":
                    entry = slot_map[slot] = b.gather(b.input("x", spec.d), spec.parents[j])
                    at = spec.parents[j]
                elif slot == "theta":
                    entry = slot_map[slot] = b.slice(b.input("theta", spec.theta_dim), *spec.theta_slices[j])
                    at = range(*spec.theta_slices[j])
                else:
                    entry = slot_map[slot] = b.slice(b.input(slot, dim), 0, dim)
                    at = range(dim)
                name = _FIELDS.get(slot)
                if name in width:
                    leaves[name].append(entry.idx)
                    rows[name].append(j)
                    cols[name].append(at)
            outs.append(diffcore.inline(b, graph, slot_map))
        cells = []
        for name, w in width.items():
            lengths = np.array([len(at) for at in cols[name]], dtype=np.intp)
            flat = np.fromiter(chain.from_iterable(cols[name]), np.intp, int(lengths.sum()))
            cells.append((name, w, tuple(leaves[name]),
                          np.repeat(np.array(rows[name], dtype=np.intp) * w, lengths) + flat))
        prog = _Stacked(b.build(b.concat(*outs)), tuple(cells))
        object.__setattr__(spec, "_stacked", prog)
    return prog


def with_program(spec: SscmSpec, graph: ExprGraph, cells) -> SscmSpec:
    """`spec`, built from arrays or derived from a parent, with `graph` as its program and
    `cells` as _Stacked holds them. It is valid by construction, but for non-finite
    theta_ref, theta_box or u_ref values, so only these are checked."""
    object.__setattr__(spec, "_stacked", _Stacked(graph, tuple(cells)))
    finite = all(np.isfinite(getattr(spec, name)).all() for name in ("theta_ref", "theta_box", "u_ref"))
    object.__setattr__(spec, "_validated", bool(finite))
    return spec


def merge_rows(node, d: int, out: int, rows, op: str, term: int) -> int:
    """The d entries of node `out` with op(out[rows], term) at `rows`, in any order, merged
    back by copies, which the fused program resolves. `node(op, dim, *args, payload=None)`
    appends a node to the graph under construction and returns its index."""
    if len(rows) == d and (np.asarray(rows) == np.arange(d)).all():
        return node(op, d, out, term)
    changed = node(op, len(rows), node("gather", len(rows), out, payload=rows), term)
    merge = np.arange(d)
    merge[rows] = d + np.arange(len(rows))
    return node("gather", d, node("concat", d + len(rows), out, changed), payload=merge)


def wrap_assignment(graph: ExprGraph, old: int, new: int, wraps=()) -> ExprGraph:
    """`graph` with its u slot, if it has one, reading the first `old` components of a u of
    `new`, and its output multiplied by (or added to) u[pos] for each (pos, multiplicative)
    of `wraps`, in order. A graph that reads no u and has no wraps is returned as it is."""
    if not wraps and "u" not in graph.slots:
        return graph
    b = diffcore.ExprBuilder()
    out = diffcore.inline(b, graph, {"u": b.slice(b.input("u", new), 0, old)} if "u" in graph.slots else {})
    for pos, multiplicative in wraps:
        val = b.gather(b.input("u", new), [pos])
        out = out * val if multiplicative else out + val
    return b.build(out)


def derive_wrapped(parent: SscmSpec, multiplicative: bool, targets, values) -> SscmSpec:
    """`parent` with each target's output multiplied by (or added to) a new u component,
    `values` by default. Its program, compiled at its first use, is the parent's stacked
    graph (stacked first if need be) with its u input widened and three parts appended: a
    gather of the new components (the targets' new u entry), the mul (or add) on the
    targets' outputs and their merge back by copies. Its per-node graphs, each target's
    wrapped, are built only when read. They are valid by construction, so only non-finite
    new u values can fail validate."""
    _require_valid(parent)
    prog = _stacked(parent)
    old, new = parent.u_dim, parent.u_dim + len(targets)
    nodes, dims, slots = list(prog.graph.nodes), list(prog.graph.dims), dict(prog.graph.slots)

    def node(op, dim, *args, payload=None):
        nodes.append(GraphNode(op, args, payload))
        dims.append(int(dim))
        return len(nodes) - 1

    u = slots["u"][0] if "u" in slots else node("input", 0)
    nodes[u], dims[u], slots["u"] = GraphNode("input", (), ("u", new)), new, (u, new)
    entry = node("gather", new - old, u, payload=np.arange(old, new))
    rows = np.array(targets, dtype=np.intp)
    out = merge_rows(node, parent.d, prog.graph.output, rows, "mul" if multiplicative else "add", entry)
    cells = []
    for name, w, entries, at in prog.cells:
        if name == "u":  # the parent's cells, in rows as wide as the new u, then one per target
            w, entries = new, entries + (entry,)
            at = np.concatenate([at // max(old, 1) * new + at % max(old, 1), rows * new + np.arange(old, new)])
        cells.append((name, w, entries, at))

    wraps = {t: [(old + i, multiplicative)] for i, t in enumerate(targets)}
    graphs = parent.__dict__["_assignments"]  # a function, if the parent's are not built

    def wrapped():
        for j, graph in enumerate(graphs() if callable(graphs) else graphs):
            yield wrap_assignment(graph, old, new, wraps.get(j, ()))

    spec = replace(parent, assignments=wrapped, u_dim=new, u_ref=np.concatenate([parent.u_ref, values]))
    return with_program(spec, ExprGraph(tuple(nodes), out, slots, tuple(dims)), cells)


def _bindings(spec: SscmSpec, prog: _Stacked, theta, u, policy) -> dict:
    """Bindings of the stacked graph, except the per-evaluation "x"."""
    bindings = {"theta": np.asarray(theta, dtype=np.float64),
                "u": spec.u_ref if u is None else np.asarray(u, dtype=np.float64)}
    policy = spec.policy_ref if policy is None else policy
    if "policy" in prog.graph.slots:
        if policy is None:
            first = next(j for j, g in enumerate(spec.assignments) if "policy" in g.slots)
            raise SpecValidationError([f"node {first} requires a binding for 'policy'"])
        bindings["policy"] = np.asarray(policy, dtype=np.float64)
    return bindings


def _rows(*bindings) -> int | None:
    """The batch size of a set of bindings: the leading length of the 2-d ones, None without any."""
    rows = {len(value) for value in bindings if value is not None and np.ndim(value) == 2}
    if len(rows) > 1:
        raise ShapeMismatch(f"bindings with a batch axis disagree on its length: {sorted(rows)}")
    return rows.pop() if rows else None


def assemble_map(spec: SscmSpec, theta, u=None, reroute=None, policy=None) -> Callable[[Array], Array]:
    """The stacked structural map x -> (f_1(Pa_1, theta_1), ..., f_d(Pa_d, theta_d)),
    (B, d) -> (B, d) for a batch.

    With reroute = (nodes, values), every arrow out of `nodes` reads `values`, (k,) or
    (B, k), instead of x: the map is the plain one at x with x[..., nodes] overwritten,
    which leaves the nodes' own outputs as they are, since no node reads itself. Nodes
    that are not distinct indices below d, or values of another width or batch size,
    raise ShapeMismatch.

    The map binds theta, u, the reroute and policy once: they are copied here, so changing
    them in place later does not change the map. A call writes x into one of the
    program's value buffers, bound to every step, and checks and writes those bindings
    too only when that buffer last held others (see diffcore.Prepared); it returns a new
    array. One map must not be called concurrently. An x of another shape than (d,) or
    (B, d) raises ShapeMismatch.
    """
    _require_valid(spec)
    prog = _stacked(spec)
    bound = diffcore.Prepared(prog.graph, _bindings(spec, prog, theta, u, policy), "x", spec.d, reroute)
    return lambda x: diffcore.forward_eval(bound.graph, bound.given(x))


def solve_equilibrium(spec: SscmSpec, theta, cfg: SolverConfig, u=None, reroute=None,
                      policy=None) -> EquilibriumSolution:
    """Solve x = f(x, theta) from zero initialization with the configured solver; a
    batch gives a (B, d) x_star and a batched report."""
    f = assemble_map(spec, theta, u=u, reroute=reroute, policy=policy)
    rows = _rows(theta, u, policy, None if reroute is None else reroute[1])
    report = fixedpoint.solve(f, np.zeros(spec.d if rows is None else (rows, spec.d)), cfg)
    u, policy = (None if v is None else np.array(v, dtype=np.float64) for v in (u, policy))
    return EquilibriumSolution(report.x, report, np.array(theta, dtype=np.float64), u, policy,
                               None if reroute is None else diffcore.reroute_of(reroute, spec.d))


@dataclass
class NodeJacobians:
    """Dense partials of the stacked map f at one point; row j belongs to node j.
    A batch stacks them, (B, d, ...)."""

    x: Array  # (d, d)
    theta: Array  # (d, theta_dim)
    u: Array  # (d, u_dim)
    policy: Array | None = None  # (d, policy_dim), None without policy weights


def node_gradients(spec: SscmSpec, x, theta, u=None, reroute=None, policy=None) -> NodeJacobians:
    """df/d(x, theta, u, policy) at (x, theta), (B, d, ...) stacks for a batch.

    One reverse sweep of the stacked graph, seeded with 1 at every node output and
    stopped at the entry nodes; their adjoints fill one buffer of the dense matrices end
    to end through the index the stacked program caches, and each matrix is a view of it
    (for a batch, of every row). With a reroute (see assemble_map) the sweep runs at the
    overwritten x, and the df/dx columns of the rerouted nodes are 0.
    """
    _require_valid(spec)
    prog = _stacked(spec)
    bindings = _bindings(spec, prog, theta, u, policy)
    rows = _rows(x, theta, u, policy, None if reroute is None else reroute[1])
    if reroute is not None:
        nodes, values = reroute = diffcore.reroute_of(reroute, spec.d)
        x = diffcore.rerouted(np.asarray(x, dtype=np.float64), nodes, values)
    bindings["x"] = x
    seed = np.ones(spec.d if rows is None else (rows, spec.d))
    adj = diffcore.reverse_vjp(prog.graph, bindings, seed, at=prog.leaves)
    flat = np.zeros(adj.shape[:-1] + (sum(spec.d * width for _, width, _, _ in prog.cells),))
    flat[..., prog.dense] = adj
    dense, start = {}, 0
    for name, width, _, _ in prog.cells:
        dense[name] = flat[..., start:start + spec.d * width].reshape(adj.shape[:-1] + (spec.d, width))
        start += spec.d * width
    if reroute is not None:
        dense["x"][..., reroute[0]] = 0.0
    return NodeJacobians(**dense)


class Linearization:
    """Dense partials of f and lhs = I - df/dx at one point, or a stack of them.

    deq and the invariance checks solve lhs and do not keep its inverse. cond, the
    1-norm condition number of lhs (one per row of a batch), is computed on first
    read; it is inf in a singular row. It never raises.
    """

    def __init__(self, spec: SscmSpec, x, theta, u=None, reroute=None, policy=None):
        self.jac = node_gradients(spec, x, theta, u=u, reroute=reroute, policy=policy)
        self.lhs = np.eye(spec.d) - self.jac.x

    @cached_property
    def cond(self):
        return np.linalg.cond(self.lhs, 1)


@dataclass
class DiffeoReport:
    is_solution: bool
    jacobian_invertible: bool
    condition_number: float
    residual: float


def check_local_diffeomorphism(spec: SscmSpec, x, theta, tol: float = 1e-4,
                               u=None, policy=None) -> DiffeoReport:
    """Check that (x, theta) is a fixed point and that I - df/dx is well conditioned.

    The report is for one point: x, theta and the other bindings are unbatched,
    and a batch axis on any of them raises ShapeMismatch.
    """
    if _rows(x, theta, u, policy) is not None:
        raise ShapeMismatch("check_local_diffeomorphism takes one point, not a batch")
    f = assemble_map(spec, theta, u=u, policy=policy)
    x = np.asarray(x, dtype=np.float64)
    (res,), (err,) = fixedpoint._row_error(x[None], (f(x) - x)[None])
    cond = Linearization(spec, x, theta, u=u, policy=policy).cond
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
        "policy_dim": spec.policy_dim,
        "policy_ref": None if spec.policy_ref is None else spec.policy_ref.tolist(),
        "x_ref": None if spec.x_ref is None else spec.x_ref.tolist(),
    }


def _floats(value) -> Array | None:
    return None if value is None else np.asarray(value, dtype=np.float64)


def _exact(kind):
    """A reader of values whose type is `kind` exactly: a bool or a float is refused, not
    truncated into an int."""
    def read(value):
        if type(value) is not kind:
            raise TypeError(f"{value!r} is not {kind.__name__}")
        return value
    return read


_int, _str = _exact(int), _exact(str)

# how spec_from_obj reads each key, in field order
_SPEC_KEYS = {
    "names": lambda v: tuple(map(_str, v)),
    "parents": lambda v: tuple(tuple(map(_int, p)) for p in v),
    "assignments": lambda v: tuple(map(diffcore.graph_from_obj, v)),
    "theta_ref": _floats,
    "theta_box": lambda v: np.asarray(v, dtype=np.float64).reshape(-1, 2),
    "theta_slices": lambda v: tuple((_int(a), _int(b)) for a, b in v),
    "u_dim": _int, "u_ref": _floats, "policy_dim": _int,
    "policy_ref": _floats, "x_ref": _floats,
}


def spec_from_obj(obj: dict) -> SscmSpec:
    """Inverse of spec_to_obj; a non-object, a missing key or a value of the wrong type or
    shape raises SpecValidationError naming the key."""
    missing = [key for key in _SPEC_KEYS if not (isinstance(obj, dict) and key in obj)]
    if missing:
        kind = "object" if isinstance(obj, dict) else f"JSON {type(obj).__name__}, not an object,"
        raise SpecValidationError([f"spec {kind} lacks keys {', '.join(map(repr, missing))}"])
    values = {}
    for key, read in _SPEC_KEYS.items():
        try:
            values[key] = read(obj[key])
        except (TypeError, ValueError) as exc:
            raise SpecValidationError([f"spec key {key!r}: {exc}"]) from None
    return SscmSpec(**values)


def spec_to_json(spec: SscmSpec) -> str:
    return json.dumps(spec_to_obj(spec), sort_keys=True)


def spec_from_json(text: str) -> SscmSpec:
    """Inverse of spec_to_json; text that is not JSON raises ParseError at its line and column."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"spec JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from None
    return spec_from_obj(obj)
