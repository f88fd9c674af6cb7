"""Reverse-mode automatic differentiation over dense float64 vectors.

Expression graphs are immutable DAGs of vector-valued operations with named
input slots (e.g. "parents", "theta", "u"). A graph is compiled once, at its
first evaluation, into a step list with each node's dispatch and payload
resolved, and the step list is cached on the frozen graph; forward_eval and
reverse_vjp both run it. Evaluation allocates fresh value buffers per call, so
one graph can be evaluated concurrently. Supported operations: add, sub, mul
(elementwise), recip, neg, matvec (constant matrix), matmul (a row-major
weight block read from a vector node, times a vector), dot, pow (constant
exponent), exp, log, relu, concat, slice, gather, broadcast (scalar to
vector).

Batches: a slot bound with a (B, dim) array instead of a (dim,) vector makes
the evaluation batched. The graph is then run by its batched step list, also
compiled once and cached, in which a value that depends on a batched slot is
held as a (dim, B) array and every other value, such as a shared slot or a
const, as a (dim, 1) one that broadcasts. forward_eval returns (B, output_dim);
reverse_vjp takes a (B, output_dim) cotangent, or a vector for every row, and
gives every slot's partials per row, shaped (B, dim), a shared slot's too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ShapeMismatch, UnboundSlot

Array = np.ndarray


def _as_vector(value, what="value") -> Array:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ShapeMismatch(f"{what} must be a 1-d vector, got shape {arr.shape}")
    return arr


class GraphNode(NamedTuple):
    op: str
    args: tuple[int, ...]
    payload: object = None


@dataclass(frozen=True, eq=False)
class ExprGraph:
    """Immutable expression DAG. Node arguments always precede the node."""

    nodes: tuple[GraphNode, ...]
    output: int
    slots: dict  # slot name -> (node index, dim)
    dims: tuple[int, ...]  # per-node output dimension
    # the compiled step lists, unbatched and batched, each set at its first evaluation
    _program: object = field(default=None, init=False, repr=False)
    _row_program: object = field(default=None, init=False, repr=False)

    @property
    def output_dim(self) -> int:
        return self.dims[self.output]

    def slot_dim(self, name: str) -> int:
        return self.slots[name][1]


class Ref:
    """Handle to a node under construction; supports +, -, * and unary -."""

    __slots__ = ("builder", "idx", "dim")

    def __init__(self, builder, idx, dim):
        self.builder = builder
        self.idx = idx
        self.dim = dim

    def __add__(self, other):
        return self.builder.add(self, other)

    def __sub__(self, other):
        return self.builder.sub(self, other)

    def __mul__(self, other):
        return self.builder.mul(self, other)

    def __neg__(self):
        return self.builder.neg(self)


class ExprBuilder:
    """Accumulates nodes in topological order and freezes them into an ExprGraph."""

    def __init__(self):
        self._nodes: list[GraphNode] = []
        self._dims: list[int] = []
        # slot -> (node index, dim); no Ref is kept, so a builder and its Refs form no cycle
        self._inputs: dict[str, tuple[int, int]] = {}

    def _push(self, op, args, payload, dim) -> Ref:
        self._nodes.append(GraphNode(op, tuple([a.idx for a in args]), payload))
        self._dims.append(dim)
        return Ref(self, len(self._nodes) - 1, dim)

    def input(self, slot: str, dim: int) -> Ref:
        if slot in self._inputs:
            idx, declared = self._inputs[slot]
            if declared != dim:
                raise ShapeMismatch(f"slot {slot!r} re-declared with dim {dim}, was {declared}")
            return Ref(self, idx, declared)
        ref = self._push("input", (), (slot, int(dim)), int(dim))
        self._inputs[slot] = (ref.idx, ref.dim)
        return ref

    def const(self, value) -> Ref:
        arr = _as_vector(value, "const")
        arr.setflags(write=False)
        return self._push("const", (), arr, arr.shape[0])

    def _binary(self, op, a, b) -> Ref:
        if a.dim != b.dim:
            raise ShapeMismatch(f"{op}: dims {a.dim} vs {b.dim}")
        return self._push(op, (a, b), None, a.dim)

    def add(self, a, b) -> Ref:
        return self._binary("add", a, b)

    def sub(self, a, b) -> Ref:
        return self._binary("sub", a, b)

    def mul(self, a, b) -> Ref:
        return self._binary("mul", a, b)

    def recip(self, a) -> Ref:
        return self._push("recip", (a,), None, a.dim)

    def neg(self, a) -> Ref:
        return self._push("neg", (a,), None, a.dim)

    def matvec(self, matrix, v) -> Ref:
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise ShapeMismatch(f"matvec matrix must be 2-d, got shape {mat.shape}")
        if mat.shape[1] != v.dim:
            raise ShapeMismatch(f"matvec: matrix is {mat.shape}, vector dim {v.dim}")
        mat = mat.copy()
        mat.setflags(write=False)
        return self._push("matvec", (v,), mat, mat.shape[0])

    def matmul(self, w, x, n_out: int, offset: int = 0) -> Ref:
        """W @ x with W the row-major (n_out, x.dim) block of w starting at offset."""
        stop = offset + n_out * x.dim
        if n_out < 1 or offset < 0 or stop > w.dim:
            raise ShapeMismatch(f"matmul: a ({n_out}, {x.dim}) block at offset {offset} "
                                f"does not fit a weight vector of dim {w.dim}")
        return self._push("matmul", (w, x), (int(offset), int(n_out)), int(n_out))

    def dot(self, a, b) -> Ref:
        if a.dim != b.dim:
            raise ShapeMismatch(f"dot: dims {a.dim} vs {b.dim}")
        return self._push("dot", (a, b), None, 1)

    def powc(self, a, exponent: float) -> Ref:
        return self._push("pow", (a,), float(exponent), a.dim)

    def exp(self, a) -> Ref:
        return self._push("exp", (a,), None, a.dim)

    def log(self, a) -> Ref:
        return self._push("log", (a,), None, a.dim)

    def relu(self, a) -> Ref:
        return self._push("relu", (a,), None, a.dim)

    def concat(self, *refs) -> Ref:
        if not refs:
            raise ShapeMismatch("concat needs at least one argument")
        return self._push("concat", refs, None, sum(r.dim for r in refs))

    def slice(self, a, start: int, stop: int) -> Ref:
        if not (0 <= start <= stop <= a.dim):
            raise ShapeMismatch(f"slice [{start}:{stop}] out of range for dim {a.dim}")
        return self._push("slice", (a,), (int(start), int(stop)), stop - start)

    def gather(self, a, indices) -> Ref:
        idx = tuple(int(i) for i in indices)
        if any(i < 0 or i >= a.dim for i in idx):
            raise ShapeMismatch(f"gather indices {idx} out of range for dim {a.dim}")
        return self._push("gather", (a,), idx, len(idx))

    def broadcast(self, a, dim: int) -> Ref:
        if a.dim != 1:
            raise ShapeMismatch(f"broadcast expects a scalar node, got dim {a.dim}")
        return self._push("broadcast", (a,), int(dim), int(dim))

    def build(self, output: Ref) -> ExprGraph:
        slots = dict(self._inputs)
        return ExprGraph(tuple(self._nodes), output.idx, slots, tuple(self._dims))


def inline(builder: ExprBuilder, graph: ExprGraph, slot_map: Mapping[str, Ref] | None = None) -> Ref:
    """Copy a graph's nodes into a builder, substituting input slots via slot_map.

    Slots absent from slot_map become (or reuse) same-named inputs of the
    enclosing builder. Returns a handle to the inlined graph's output.
    """
    slot_map = slot_map or {}
    mapping: dict[int, Ref] = {}
    for i, node in enumerate(graph.nodes):
        if node.op == "input":
            slot, dim = node.payload
            if slot in slot_map:
                repl = slot_map[slot]
                if repl.dim != dim:
                    raise ShapeMismatch(f"slot {slot!r} substitution has dim {repl.dim}, graph expects {dim}")
                mapping[i] = repl
            else:
                mapping[i] = builder.input(slot, dim)
        elif node.op == "const":
            mapping[i] = builder._push("const", (), node.payload, graph.dims[i])
        else:
            args = [mapping[a] for a in node.args]
            mapping[i] = builder._push(node.op, args, node.payload, graph.dims[i])
    return mapping[graph.output]


# --- compiled evaluation ---

def _acc(adj: list, idx: int, value: Array):
    """Add a contribution to a node's adjoint; the first lands in a fresh value + 0.0,
    which has the bits of adding it into a zero buffer."""
    cur = adj[idx]
    if cur is None:
        adj[idx] = value + 0.0
    else:
        cur += value


# Op kernels, one (forward, backward) pair per op. forward(v, a, b, p) returns a
# node's value from the value list v, its first two arguments a and b, and its
# prepared payload p (see _prepare); backward(g, v, adj, i, a, b, p) adds node
# i's adjoint g, pulled back, into the adjoints of its arguments.

def _recip(v, a, b, p):
    x = v[a]
    if np.any(x == 0.0):
        raise DomainError("reciprocal of zero")
    return 1.0 / x


def _recip_vjp(g, v, adj, i, a, b, p):
    out = v[i]
    _acc(adj, a, -g * out * out)


def _matmul(v, w, x, p):
    start, stop, n_out, n_in, _ = p
    return v[w][start:stop].reshape(n_out, n_in) @ v[x]


def _matmul_vjp(g, v, adj, i, w, x, p):
    start, stop, n_out, n_in, n_w = p
    full = np.zeros(n_w)
    full[start:stop] = np.multiply.outer(g, v[x]).ravel()
    _acc(adj, w, full)
    _acc(adj, x, v[w][start:stop].reshape(n_out, n_in).T @ g)


def _add_vjp(g, v, adj, i, a, b, p):
    _acc(adj, a, g)
    _acc(adj, b, g)


def _sub_vjp(g, v, adj, i, a, b, p):
    _acc(adj, a, g)
    _acc(adj, b, -g)


def _mul_vjp(g, v, adj, i, a, b, p):
    _acc(adj, a, g * v[b])
    _acc(adj, b, g * v[a])


def _dot_vjp(g, v, adj, i, a, b, p):
    _acc(adj, a, g[0] * v[b])
    _acc(adj, b, g[0] * v[a])


def _neg_vjp(g, v, adj, i, a, b, p):
    _acc(adj, a, -g)


def _matvec_vjp(g, v, adj, i, a, b, p):
    _acc(adj, a, p[1] @ g)


def _pow(v, a, b, c):
    x = v[a]
    if c < 0.0 and np.any(x <= 0.0):
        raise DomainError(f"pow with negative exponent {c} on non-positive base")
    if c != int(c) and np.any(x < 0.0):
        raise DomainError(f"pow with fractional exponent {c} on negative base")
    return np.power(x, c)


def _pow_vjp(g, v, adj, i, a, b, c):
    _acc(adj, a, g * c * np.power(v[a], c - 1.0))


def _exp_vjp(g, v, adj, i, a, b, p):
    _acc(adj, a, g * v[i])


def _log(v, a, b, p):
    x = v[a]
    if np.any(x <= 0.0):
        raise DomainError("log of non-positive value")
    return np.log(x)


def _log_vjp(g, v, adj, i, a, b, p):
    _acc(adj, a, g / v[a])


def _relu_vjp(g, v, adj, i, a, b, p):
    _acc(adj, a, g * (v[a] > 0.0))


def _concat_vjp(g, v, adj, i, args, b, pieces):
    for arg, lo, hi in pieces:
        _acc(adj, arg, g[lo:hi])


def _slice_vjp(g, v, adj, i, a, b, p):
    start, stop, n_a = p
    full = np.zeros(n_a)
    full[start:stop] = g
    _acc(adj, a, full)


def _gather_vjp(g, v, adj, i, a, b, p):
    idx, n_a = p
    full = np.zeros(n_a)
    np.add.at(full, idx, g)
    _acc(adj, a, full)


def _broadcast_vjp(g, v, adj, i, a, b, p):
    _acc(adj, a, np.array([g.sum()]))


_KERNELS = {
    "add": (lambda v, a, b, p: v[a] + v[b], _add_vjp),
    "sub": (lambda v, a, b, p: v[a] - v[b], _sub_vjp),
    "mul": (lambda v, a, b, p: v[a] * v[b], _mul_vjp),
    "recip": (_recip, _recip_vjp),
    "neg": (lambda v, a, b, p: -v[a], _neg_vjp),
    "matvec": (lambda v, a, b, p: p[0] @ v[a], _matvec_vjp),
    "matmul": (_matmul, _matmul_vjp),
    "dot": (lambda v, a, b, p: np.array([v[a] @ v[b]]), _dot_vjp),
    "pow": (_pow, _pow_vjp),
    "exp": (lambda v, a, b, p: np.exp(v[a]), _exp_vjp),
    "log": (_log, _log_vjp),
    "relu": (lambda v, a, b, p: np.maximum(v[a], 0.0), _relu_vjp),
    "concat": (lambda v, args, b, p: np.concatenate([v[arg] for arg in args]), _concat_vjp),
    "slice": (lambda v, a, b, p: v[a][p[0]:p[1]], _slice_vjp),
    "gather": (lambda v, a, b, p: v[a][p[0]], _gather_vjp),
    "broadcast": (lambda v, a, b, n: np.full(n, v[a][0]), _broadcast_vjp),
}


# Batched variants. A batched step list holds (n, B) and (n, 1) values (see the
# module docstring), so the elementwise ops, matvec, slice, gather and a concat
# of equal widths run the kernels above unchanged; adjoints are always (n, B).

def _matmul_rows(v, w, x, p):
    start, stop, n_out, n_in, _ = p
    block = v[w][start:stop]
    if block.shape[1] == 1:
        return block.reshape(n_out, n_in) @ v[x]
    return (block.reshape(n_out, n_in, -1) * v[x]).sum(axis=1)


def _matmul_rows_vjp(g, v, adj, i, w, x, p):
    start, stop, n_out, n_in, n_w = p
    full = np.zeros((n_w, g.shape[1]))
    full[start:stop] = (g[:, None, :] * v[x]).reshape(n_out * n_in, -1)
    _acc(adj, w, full)
    block = v[w][start:stop]
    if block.shape[1] == 1:
        _acc(adj, x, block.reshape(n_out, n_in).T @ g)
    else:
        _acc(adj, x, (block.reshape(n_out, n_in, -1) * g[:, None, :]).sum(axis=0))


def _concat_rows(v, args, b, pieces):
    parts = [v[arg] for arg in args]
    widths = {part.shape[1] for part in parts}
    if len(widths) == 1:
        return np.concatenate(parts)
    out = np.empty((pieces[-1][2], max(widths)))
    for part, (_, lo, hi) in zip(parts, pieces):
        out[lo:hi] = part
    return out


def _dot_rows(v, a, b, p):
    x, y = v[a], v[b]
    if x.shape[1] == 1:
        return x.T @ y
    if y.shape[1] == 1:
        return y.T @ x
    return np.einsum("ij,ij->j", x, y)[None]


def _slice_rows_vjp(g, v, adj, i, a, b, p):
    start, stop, n_a = p
    full = np.zeros((n_a, g.shape[1]))
    full[start:stop] = g
    _acc(adj, a, full)


def _gather_rows_vjp(g, v, adj, i, a, b, p):
    idx, n_a = p
    full = np.zeros((n_a, g.shape[1]))
    np.add.at(full, idx, g)
    _acc(adj, a, full)


def _broadcast_rows_vjp(g, v, adj, i, a, b, p):
    _acc(adj, a, g.sum(axis=0, keepdims=True))


_ROW_KERNELS = {
    **_KERNELS,
    "matmul": (_matmul_rows, _matmul_rows_vjp),
    "dot": (_dot_rows, _dot_vjp),
    "concat": (_concat_rows, _concat_vjp),
    "slice": (_KERNELS["slice"][0], _slice_rows_vjp),
    "gather": (lambda v, a, b, p: v[a].take(p[0], axis=0), _gather_rows_vjp),
    "broadcast": (lambda v, a, b, n: np.repeat(v[a], n, axis=0), _broadcast_rows_vjp),
}


def _prepare(node: GraphNode, dims: tuple[int, ...]) -> tuple:
    """A node's (a, b, payload) as its kernels read them; concat's a is its argument tuple."""
    op, args, payload = node
    a = args[0] if args else None
    b = args[1] if len(args) > 1 else None
    if op == "matvec":
        payload = (payload, payload.T)
    elif op == "matmul":
        start, n_out = payload
        payload = (start, start + n_out * dims[b], n_out, dims[b], dims[a])
    elif op == "concat":
        a, bounds = args, np.cumsum([0] + [dims[arg] for arg in args]).tolist()
        payload = tuple(zip(args, bounds[:-1], bounds[1:]))
    elif op == "slice":
        payload = (*payload, dims[a])
    elif op == "gather":
        payload = (np.asarray(payload, dtype=np.intp), dims[a])
    return a, b, payload


@dataclass(frozen=True)
class _Program:
    """A graph compiled into a step list: inputs to bind, consts in place, one step per other node."""

    inputs: tuple  # (node index, slot, dim)
    template: tuple  # per-node initial value: the const payloads, None elsewhere
    steps: tuple  # (node index, forward, backward, a, b, payload) in topological order


def _compile(graph: ExprGraph, rows: bool = False) -> _Program:
    """The graph's unbatched or batched step list, built at its first evaluation of
    that kind and cached on the frozen graph."""
    prog = graph._row_program if rows else graph._program
    if prog is None:
        kernels = _ROW_KERNELS if rows else _KERNELS
        inputs, template, steps = [], [None] * len(graph.nodes), []
        for i, node in enumerate(graph.nodes):
            if node.op == "input":
                inputs.append((i, *node.payload))
            elif node.op == "const":
                template[i] = node.payload[:, None] if rows else node.payload
            elif node.op in kernels:
                steps.append((i, *kernels[node.op], *_prepare(node, graph.dims)))
            else:
                raise ValueError(f"unknown op {node.op!r}")
        prog = _Program(tuple(inputs), tuple(template), tuple(steps))
        object.__setattr__(graph, "_row_program" if rows else "_program", prog)
    return prog


def _forward_values(graph: ExprGraph, bindings: Mapping[str, Array],
                    rows: int | None = None) -> tuple[list[Array], int | None]:
    """Every node's value and the batch size, None when no slot is bound with a batch axis.

    `rows` asks for a batched evaluation of that size even when every slot is a vector.
    """
    if rows is not None:
        return _row_values(graph, bindings, rows)
    prog = _compile(graph)
    vals = list(prog.template)
    for i, slot, dim in prog.inputs:
        if slot not in bindings:
            raise UnboundSlot(f"slot {slot!r} not bound")
        v = np.asarray(bindings[slot], dtype=np.float64)
        if v.ndim != 1 or v.shape[0] != dim:
            return _row_values(graph, bindings, None)
        vals[i] = v
    for i, fwd, _, a, b, p in prog.steps:
        vals[i] = fwd(vals, a, b, p)
    return vals, None


def _row_values(graph: ExprGraph, bindings: Mapping[str, Array], rows: int | None):
    """_forward_values by the batched step list."""
    prog = _compile(graph, rows=True)
    vals = list(prog.template)
    for i, slot, dim in prog.inputs:
        if slot not in bindings:
            raise UnboundSlot(f"slot {slot!r} not bound")
        v = np.asarray(bindings[slot], dtype=np.float64)
        if v.ndim == 2 and rows is None:
            rows = v.shape[0]
        if v.ndim not in (1, 2) or v.shape[-1] != dim or (v.ndim == 2 and v.shape[0] != rows):
            raise ShapeMismatch(f"slot {slot!r} expects dim {dim}"
                                f"{'' if rows is None else f' in {rows} rows'}, got shape {v.shape}")
        vals[i] = v.T if v.ndim == 2 else v[:, None]
    if not rows:
        raise ShapeMismatch("a batch needs at least one row")
    for i, fwd, _, a, b, p in prog.steps:
        vals[i] = fwd(vals, a, b, p)
    return vals, rows


def forward_eval(graph: ExprGraph, bindings: Mapping[str, Array], rows: int | None = None) -> Array:
    """Evaluate the graph's output for the given slot bindings; (B, output_dim) for a batch.

    `rows` asks for a batch of that size even when no slot the graph reads is batched.
    """
    vals, rows = _forward_values(graph, bindings, rows)
    out = vals[graph.output]
    if rows is None:
        return out.copy()
    return (out if out.shape[1] == rows else np.repeat(out, rows, axis=1)).T.copy()


@dataclass
class Gradient:
    """Per-input-slot partial derivatives, each shaped like its slot."""

    parts: dict

    def __getitem__(self, slot: str) -> Array:
        return self.parts[slot]

    def get(self, slot: str, default=None):
        return self.parts.get(slot, default)


def reverse_vjp(graph: ExprGraph, bindings: Mapping[str, Array], cotangent,
                at: Sequence[int] | None = None) -> Gradient | dict[int, Array]:
    """Vector-Jacobian product v^T J for each input slot of the graph.

    With `at`, a sequence of node indices, the sweep treats those nodes as
    leaves (it propagates nothing below them) and returns a plain dict of the
    adjoints at those nodes, keyed by node index. The relu derivative at
    exactly 0 is taken to be 0.

    A batch (a slot bound with a batch axis, or a (B, output_dim) cotangent)
    gives every adjoint per row, shaped (B, dim); a vector cotangent then
    seeds every row.
    """
    cot = np.asarray(cotangent, dtype=np.float64)
    if cot.ndim == 0:
        cot = cot.reshape(1)
    vals, rows = _forward_values(graph, bindings, cot.shape[0] if cot.ndim == 2 else None)
    if cot.ndim > 2 or cot.shape[-1] != graph.output_dim:
        raise ShapeMismatch(f"cotangent shape {cot.shape} does not end in output dim {graph.output_dim}")

    prog = _compile(graph, rows=rows is not None)
    adj: list[Array | None] = [None] * len(graph.nodes)
    if rows is None:
        adj[graph.output] = cot.copy()
    else:
        adj[graph.output] = np.broadcast_to(cot.T if cot.ndim == 2 else cot[:, None],
                                            (graph.output_dim, rows)).copy()
    leaves = frozenset(at) if at is not None else ()
    for i, _, bwd, a, b, p in reversed(prog.steps):
        g = adj[i]
        if g is not None and i not in leaves:
            bwd(g, vals, adj, i, a, b, p)

    if rows is None:
        def read(i, dim):
            return np.zeros(dim) if adj[i] is None else adj[i]
    else:
        def read(i, dim):
            return np.zeros((rows, dim)) if adj[i] is None else adj[i].T
    if at is not None:
        return {i: read(i, graph.dims[i]) for i in at}
    return Gradient({slot: read(idx, dim) for slot, (idx, dim) in graph.slots.items()})


def jacobian(graph: ExprGraph, bindings: Mapping[str, Array], slot: str) -> Array:
    """Dense Jacobian of the output w.r.t. one input slot (n x m) at unbatched
    bindings: one batched reverse sweep seeded with the identity."""
    return reverse_vjp(graph, bindings, np.eye(graph.output_dim))[slot]


def finite_difference_jacobian(fn: Callable[[Array], Array], x, h: float = 1e-6) -> Array:
    """Central-difference Jacobian estimate of fn at x; column j uses x +/- h e_j."""
    x = _as_vector(x, "x").copy()
    if h <= 0:
        raise ValueError("h must be positive")
    f0 = _as_vector(fn(x), "fn(x)")
    out = np.zeros((f0.shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        out[:, j] = (_as_vector(fn(xp)) - _as_vector(fn(xm))) / (2.0 * h)
    return out


# --- serialization (op-code JSON form) ---

def graph_to_obj(graph: ExprGraph) -> dict:
    """Encode a graph as plain JSON-ready data; floats round-trip bit-exactly."""
    nodes = []
    for i, node in enumerate(graph.nodes):
        rec: dict = {"op": node.op, "args": list(node.args)}
        if node.op == "input":
            rec["slot"], rec["dim"] = node.payload
        elif node.op == "const":
            rec["values"] = node.payload.tolist()
        elif node.op == "matvec":
            rec["matrix"] = node.payload.tolist()
        elif node.op == "matmul":
            rec["offset"], rec["rows"] = node.payload
        elif node.op == "pow":
            rec["exponent"] = node.payload
        elif node.op == "slice":
            rec["start"], rec["stop"] = node.payload
        elif node.op == "gather":
            rec["indices"] = list(node.payload)
        elif node.op == "broadcast":
            rec["dim"] = node.payload
        nodes.append(rec)
    return {"nodes": nodes, "output": graph.output}


def graph_from_obj(obj: dict) -> ExprGraph:
    """Inverse of graph_to_obj."""
    b = ExprBuilder()
    refs: list[Ref] = []
    for rec in obj["nodes"]:
        op = rec["op"]
        args = tuple(refs[a] for a in rec["args"])
        if op == "input":
            refs.append(b.input(rec["slot"], rec["dim"]))
        elif op == "const":
            refs.append(b.const(rec["values"]))
        elif op == "matvec":
            refs.append(b.matvec(rec["matrix"], args[0]))
        elif op == "matmul":
            refs.append(b.matmul(args[0], args[1], rec["rows"], rec["offset"]))
        elif op == "pow":
            refs.append(b.powc(args[0], rec["exponent"]))
        elif op == "slice":
            refs.append(b.slice(args[0], rec["start"], rec["stop"]))
        elif op == "gather":
            refs.append(b.gather(args[0], rec["indices"]))
        elif op == "broadcast":
            refs.append(b.broadcast(args[0], rec["dim"]))
        elif op == "concat":
            refs.append(b.concat(*args))
        elif op in ("add", "sub", "mul", "dot"):
            refs.append(getattr(b, op)(args[0], args[1]))
        elif op in ("recip", "neg", "exp", "log", "relu"):
            refs.append(getattr(b, op)(args[0]))
        else:
            raise ValueError(f"unknown op {op!r}")
    return b.build(refs[obj["output"]])
