"""Reverse-mode automatic differentiation over dense float64 vectors.

Expression graphs are immutable DAGs of vector-valued operations with named
input slots (e.g. "parents", "theta", "u"). A graph is compiled once, at its
first evaluation, into a level-fused program, which is cached on the frozen
graph; forward_eval and reverse_vjp both run it. Every node owns a segment of
one flat float64 buffer, and the nodes of one op at one topological level run
as one wide numpy step that reads its operands through index arrays (slices
where they are contiguous). The graph has 16 ops: input, const, add, sub, mul
(elementwise), recip, neg, pow (constant exponent), exp, log, relu, matmul (a
row-major weight block read from a vector node, times a vector), segdot (the
dot products of two vectors over consecutive segments), concat, slice and
gather. They lower to four kernel families, each with one VJP: elementwise
unary, elementwise binary, segment sum of products (matmul, segdot) and copy
(slice, gather, concat), which costs nothing forward. The builder's dot emits a
one-row matmul. Each evaluation takes a buffer, with every step bound to it once,
from the program's pool, so one graph can be evaluated concurrently. A Prepared
set of bindings, which binds every slot but one once, cannot. A reverse sweep is
built once per program and set of leaf nodes, and a pooled buffer binds its VJPs,
against its values and one adjoint buffer, the first time it runs that sweep.

Batches: a slot bound with a (B, dim) array instead of a (dim,) vector makes
the evaluation batched. The same program then runs on a (N, B) buffer, into
which a shared slot, bound without the batch axis, and the consts are
broadcast. forward_eval returns (B, output_dim); reverse_vjp takes a
(B, output_dim) cotangent, or a vector for every row, and gives every slot's
partials per row, shaped (B, dim), a shared slot's too.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ShapeMismatch, SpecValidationError, UnboundSlot

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
    # the fused program (see _compile), set at the first evaluation
    _program: object = field(default=None, init=False, repr=False)

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
        arr = _as_vector(value, "const").copy()  # frozen, so the caller's array stays theirs
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

    def matmul(self, w, x, n_out: int, offset: int = 0) -> Ref:
        """W @ x with W the row-major (n_out, x.dim) block of w starting at offset."""
        stop = offset + n_out * x.dim
        if n_out < 1 or offset < 0 or stop > w.dim:
            raise ShapeMismatch(f"matmul: a ({n_out}, {x.dim}) block at offset {offset} "
                                f"does not fit a weight vector of dim {w.dim}")
        return self._push("matmul", (w, x), (int(offset), int(n_out)), int(n_out))

    def segdot(self, a, b, lengths) -> Ref:
        """The dot products of a and b over consecutive segments of the given lengths."""
        lengths = tuple(map(int, lengths))
        if a.dim != b.dim or not lengths or min(lengths) < 1 or sum(lengths) != a.dim:
            raise ShapeMismatch(f"segdot: dims {a.dim} and {b.dim} in segments {lengths}")
        return self._push("segdot", (a, b), lengths, len(lengths))

    def dot(self, a, b) -> Ref:
        """a . b as a one-row matmul."""
        if a.dim != b.dim:
            raise ShapeMismatch(f"dot: dims {a.dim} vs {b.dim}")
        return self.matmul(a, b, 1)

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
        idx = tuple(map(int, indices))
        if idx and (min(idx) < 0 or max(idx) >= a.dim):
            raise ShapeMismatch(f"gather indices {idx} out of range for dim {a.dim}")
        return self._push("gather", (a,), idx, len(idx))

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
#
# A graph compiles, at its first evaluation, into a level-fused program that runs on
# layouts (see _Layout): one flat float64 buffer, shaped (N,) for a vector call and
# (N, B) for a batch, with every step bound to it once. Every node owns a segment of
# it: the consts first, then the input slots, then the computed nodes, then the copies
# (slice, gather, concat). A copy holds no value: whatever reads it reads its sources,
# through positions resolved at compile time. It keeps an adjoint segment, so a
# reverse sweep can stop at it.
#
# Inputs and consts are level 0, a computed node sits one level above its highest
# argument and a copy at its highest argument's level. The computed nodes of one op
# (and, for pow, one exponent) at one level form one wide step, which reads its
# operands through index arrays and writes one contiguous range. The copies of one
# level and one number of hops (the longest run of copies a copy reads through,
# itself included) form one step that only the reverse sweep runs, in descending
# hops, so that a copy passes its adjoint on after every copy that reads it. The
# ops lower to four kernel families: elementwise unary, elementwise binary, segment
# sum of products (matmul) and copy, each with one VJP.
#
# _fuse finds levels and hops in one Python walk over the nodes, forms the steps with
# one stable sort by (level, op or hops, exponent) and builds every step's index arrays
# with numpy passes over the whole program, split by step. A reverse sweep (see _sweep)
# is built once per program and set of `at` nodes, from one Python walk over the nodes
# each way and numpy passes over the whole program. A layout binds a sweep's reverse
# calls the first time it runs it, against its value buffer and one adjoint buffer, as
# it binds the forward steps: every VJP writes its contribution into a buffer of its
# own and adds it into the adjoint buffer on a slice or on distinct positions, or sums
# the contributions to one position first by reduceat, step by step in a fixed order,
# so that every run of a sweep gives the same bits.


def _least(x) -> float:
    """The least entry of x past NaN (x.min() would give NaN), inf when x is empty."""
    return np.fmin.reduce(x, axis=None) if x.size else np.inf


def _recip(x, c, out):
    if not x.all():
        raise DomainError("reciprocal of zero")
    return np.divide(1.0, x, out=out)


def _pow(x, c, out):
    least = _least(x) if c < 0.0 or c != int(c) else 0.0  # any base takes a positive integer power
    if c < 0.0 and least <= 0.0:
        raise DomainError(f"pow with negative exponent {c} on non-positive base")
    if least < 0.0:
        raise DomainError(f"pow with fractional exponent {c} on negative base")
    return np.power(x, c, out=out)


def _log(x, c, out):
    if _least(x) <= 0.0:
        raise DomainError("log of non-positive value")
    return np.log(x, out=out)


def _pow_vjp(g, x, y, c, t):
    power = np.empty(t.shape)  # x ** (c - 1)
    return [partial(np.multiply, g, c, out=t), partial(np.power, x, c - 1.0, out=power),
            partial(np.multiply, t, power, out=t)]


def _relu_vjp(g, x, y, c, t):
    up = np.empty(t.shape, dtype=bool)
    return [partial(np.greater, x, 0.0, out=up), partial(np.multiply, g, up, out=t)]


# op -> (forward(x, c, out), vjp(g, x, y, c, t)), with x the argument, y the value, c the
# exponent of a pow and out the array the forward writes into; vjp returns the calls that
# write the contribution of y's adjoint g to x's adjoint into t
_UNARY = {
    "recip": (_recip, lambda g, x, y, c, t: [partial(np.negative, g, out=t), partial(np.multiply, t, y, out=t),
                                             partial(np.multiply, t, y, out=t)]),
    "neg": (lambda x, c, out: np.negative(x, out=out), lambda g, x, y, c, t: [partial(np.negative, g, out=t)]),
    "pow": (_pow, _pow_vjp),
    "exp": (lambda x, c, out: np.exp(x, out=out), lambda g, x, y, c, t: [partial(np.multiply, g, y, out=t)]),
    "log": (_log, lambda g, x, y, c, t: [partial(np.divide, g, x, out=t)]),
    "relu": (lambda x, c, out: np.maximum(x, 0.0, out=out), _relu_vjp),
}
_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply}
_COPY = ("slice", "gather", "concat")
_COMPUTED, _COPIED = 0, 1
_KIND = {**dict.fromkeys((*_UNARY, *_BINARY, "matmul", "segdot"), _COMPUTED),
         **dict.fromkeys(_COPY, _COPIED)}
#: a computed op's place among the steps of one level; the copies' steps follow them all
_RANK = {op: r for r, op in enumerate(sorted(op for op, kind in _KIND.items() if kind == _COMPUTED))}
_TWO = np.array([op not in _UNARY for op in _RANK])  # per rank, an op of two operands


def dot_sum(a, b) -> float:
    """a . b summed as a compiled one-row matmul sums it, which may round differently from BLAS."""
    return float(np.add.reduceat(np.multiply(a, b), [0])[0])


def _runs(starts, lengths) -> Array:
    """The ranges [start, start + length) end to end, as one intp array."""
    starts, lengths = np.asarray(starts, dtype=np.intp), np.asarray(lengths, dtype=np.intp)
    ends = lengths.cumsum()
    return (starts - ends + lengths).repeat(lengths) + np.arange(ends[-1] if len(ends) else 0)


def _index(pos: Array) -> slice | Array:
    """Buffer positions as an index: a slice when they are one ascending run."""
    n = len(pos)
    first = int(pos[0]) if n else 0
    if n == 0 or (pos[-1] - first == n - 1 and (pos[1:] > pos[:-1]).all()):
        return slice(first, first + n)
    return pos


def _indices(pos: Array, bounds: Array) -> list:
    """_index of pos[bounds[k]:bounds[k + 1]] for every k, from one pass over pos."""
    lo, hi = bounds[:-1], bounds[1:]
    breaks = (pos[1:] - pos[:-1] != 1).nonzero()[0]  # entries the next one does not follow by one
    whole = (breaks.searchsorted(lo) == breaks.searchsorted(hi - 1)).tolist()
    firsts = pos[np.minimum(lo, len(pos) - 1)].tolist() if len(pos) else [0] * len(lo)
    return [slice(0, 0) if b == a else slice(first, first + b - a) if run else pos[a:b]
            for a, b, run, first in zip(lo.tolist(), hi.tolist(), whole, firsts)]


def _bound(v: Array, at, calls: list) -> Array:
    """v[at] along the first axis as an array tied to v: a view of a slice, or an array
    that a take, appended to `calls`, refills from v."""
    if at.__class__ is slice:
        return v[at]
    into = np.empty((len(at),) + v.shape[1:])
    calls.append(partial(v.take, at, 0, into, "clip"))  # with `out`, "raise" would buffer
    return into


def _bound_pair(v: Array, a, b, calls: list) -> tuple[Array, Array]:
    """_bound of two operands, with one take when both are index arrays."""
    if a.__class__ is slice or b.__class__ is slice:
        return _bound(v, a, calls), _bound(v, b, calls)
    both = _bound(v, np.concatenate([a, b]), calls)
    return both[:len(a)], both[len(a):]


class _Scatter(NamedTuple):
    """Where the rows of a contribution add into an adjoint buffer: at `to`, or, when
    positions repeat, the rows taken in `order` and summed from each of `starts` on, in
    their order, by np.add.reduceat, then added at `to`."""

    to: object  # a slice, or an index array of distinct positions
    order: Array | None
    starts: Array | None


def _bind_add(adj: Array, c: Array, cut, scatter: _Scatter, into: Array, calls: list) -> None:
    """Append to `calls` the calls that add the contribution c into adj as `scatter` says,
    with its rows `cut` zeroed, in `into` when c is not `into` itself (`into` is read only
    when rows are cut)."""
    if cut is not None:
        if c is not into:
            calls.append(partial(np.copyto, into, c))
            c = into
        calls.append(partial(c.__setitem__, cut, 0.0))
    if scatter.starts is not None:
        ranked = _bound(c, scatter.order, calls)
        c = np.empty((len(scatter.starts),) + c.shape[1:])
        calls.append(partial(np.add.reduceat, ranked, scatter.starts, 0, out=c))
    if scatter.to.__class__ is slice:
        into = adj[scatter.to]
    else:  # distinct positions: taken, added to and put back
        into = _bound(adj, scatter.to, calls)
    calls.append(partial(np.add, into, c, out=into))
    if scatter.to.__class__ is not slice:
        calls.append(partial(adj.__setitem__, scatter.to, into))


class _Step:
    """One wide step. `members` are its nodes, whose segments fill the buffer range `out`
    in order.

    bind(v, calls) appends to `calls` functions of no arguments that run the step on the
    buffer v through views of v made once, and returns its operands as those read them:
    views of v, or arrays they refill. bind_reverse(v, adj, operands, need, cut, to,
    calls) appends the calls that pass the adjoint in adj[out] on to the adjoints in adj
    of each operand side k with need[k], through the _Scatter to[k], with the rows `cut`
    of every contribution zeroed; they read the values a forward pass left in v and in
    `operands`."""

    __slots__ = ("members", "out")


class _Unary(_Step):
    __slots__ = ("fwd", "vjp", "c", "x")

    def bind(self, v, calls):
        x = _bound(v, self.x, calls)
        calls.append(partial(self.fwd, x, self.c, v[self.out]))
        return (x,)

    def bind_reverse(self, v, adj, operands, need, cut, to, calls):
        g = adj[self.out]
        t = np.empty(g.shape)
        calls += self.vjp(g, operands[0], v[self.out], self.c, t)
        _bind_add(adj, t, cut, to[0], t, calls)


class _Binary(_Step):
    __slots__ = ("op", "fn", "a", "b")

    def bind(self, v, calls):
        a, b = _bound_pair(v, self.a, self.b, calls)
        calls.append(partial(self.fn, a, b, out=v[self.out]))
        return a, b

    def bind_reverse(self, v, adj, operands, need, cut, to, calls):
        g = adj[self.out]
        t = np.empty(g.shape)
        for k in (0, 1):
            if need[k]:
                if self.op == "mul":  # g times the other operand
                    calls.append(partial(np.multiply, g, operands[1 - k], out=t))
                elif self.op == "sub" and k:
                    calls.append(partial(np.negative, g, out=t))
                _bind_add(adj, t if self.op == "mul" or self.op == "sub" and k else g, cut, to[k], t, calls)


class _SegmentSum(_Step):
    """out[s] = the sum over segment s of a[k] * b[k]; `seg` maps each product to its
    segment, and `starts` and `seg` are None when every segment holds one product."""

    __slots__ = ("a", "b", "starts", "seg")

    def bind(self, v, calls):
        (a, b), out = _bound_pair(v, self.a, self.b, calls), v[self.out]
        if self.starts is None:
            calls.append(partial(np.multiply, a, b, out=out))
        else:
            products = np.empty(a.shape)
            calls.append(partial(np.multiply, a, b, out=products))
            calls.append(partial(np.add.reduceat, products, self.starts, 0, out=out))
        return a, b

    def bind_reverse(self, v, adj, operands, need, cut, to, calls):
        g = adj[self.out] if self.seg is None else _bound(adj[self.out], self.seg, calls)  # per product
        t = np.empty(g.shape)
        for k in (0, 1):
            if need[k]:
                calls.append(partial(np.multiply, g, operands[1 - k], out=t))
                _bind_add(adj, t, cut, to[k], t, calls)


class _Copy(_Step):
    __slots__ = ()

    def bind_reverse(self, v, adj, operands, need, cut, to, calls):
        g = adj[self.out]
        _bind_add(adj, g, cut, to[0], None if cut is None else np.empty(g.shape), calls)


@dataclass(frozen=True, eq=False)
class _Program:
    """A graph compiled into wide steps over one buffer (see the comment above)."""

    n_values: int  # the consts, inputs and computed nodes
    n_adjoints: int  # those and the copies
    template: Array  # the const part of the buffer
    inputs: tuple  # (slot, dim, the slice of the buffer it fills)
    steps: tuple  # every wide step, in the forward order
    runs: tuple  # the steps with a forward pass
    out: object  # where the output's values are read
    offsets: Array  # per node, the start of its segment
    own: Array  # per element, its position in the buffer; an element is a (node, component) pair
    members: Array  # every step's members, step by step
    bounds: list  # per step, the index of its first member in `members`, then len(members)
    rows: Array  # per member, its rows of a reverse contribution: its elements, or a segment sum's products
    step_of: list  # per node, the index of its step, or -1
    sides: tuple  # per step, the indices of its operand sides: a computed step's operands, a copy's arguments
    elems: tuple  # per operand side, the elements its members read, member by member
    sweeps: dict = field(default_factory=dict)  # reverse sweep per `at`, see _sweep
    layouts: dict = field(default_factory=lambda: defaultdict(list))  # idle layouts per batch size


def _compile(graph: ExprGraph) -> _Program:
    """The graph's fused program, built at its first evaluation and cached on the frozen graph."""
    prog = graph._program
    if prog is None:
        prog = _fuse(graph)
        object.__setattr__(graph, "_program", prog)
    return prog


def _fuse(graph: ExprGraph) -> _Program:
    nodes, dims = graph.nodes, graph.dims
    n = len(nodes)
    base = list(accumulate(dims, initial=0))  # node i's elements are base[i]:base[i + 1]
    # one walk in node order, which is topological: levels and hops (hops > 0 marks a
    # copy), and per node in a step the key of its step (its level, its op's rank or, for a
    # copy, one past every rank plus its hops, and a pow's exponent) and (node, first
    # argument, last argument, a matmul's weight offset, rank)
    level, hops = [0] * n, [0] * n
    consts, inputs, keys, info = [], [], [], []
    spans, picks = [], []  # the copies' elements: runs (dst, src, length), picks (dst, src, indices)
    for i, (op, args, payload) in enumerate(nodes):
        kind = _KIND.get(op)
        if kind is None or (op == "matmul" and dims[args[1]] == 0):  # a matmul of no products is a const zero
            if op == "input":
                inputs.append(i)
            elif op == "const" or kind is not None:
                consts.append(i)
            else:
                raise ValueError(f"unknown op {op!r}")
            continue
        lv = level[args[0]] if len(args) == 1 else max([level[a] for a in args])
        if kind == _COPIED:
            level[i] = lv
            hops[i] = h = (hops[args[0]] if len(args) == 1 else max([hops[a] for a in args])) + 1
            rank = len(_RANK) + h
            if op == "slice":
                spans.append((base[i], base[args[0]] + payload[0], payload[1] - payload[0]))
            elif op == "concat":
                spans.extend(zip(accumulate([dims[a] for a in args[:-1]], initial=base[i]),
                                 [base[a] for a in args], [dims[a] for a in args]))
            else:
                picks.append((base[i], base[args[0]], payload))
        else:
            level[i] = lv = lv + 1
            rank = _RANK[op]
        keys.append((lv, rank, payload if op == "pow" else 0.0))
        info += i, args[0], args[-1], payload[0] if op == "matmul" else 0, rank

    # the steps, from one stable sort by key, which keeps each step's members in node order
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = [keys[k] for k in order]
    bounds = [k for k in range(len(keys)) if k == 0 or keys[k] != keys[k - 1]] + [len(keys)]
    members, a0, a1, shift, rank = np.array(info, dtype=np.intp).reshape(-1, 5).T[:, order]
    copied = rank >= len(_RANK)
    comp, copies = members[~copied], members[copied]

    # layout: consts, inputs, computed nodes by step, copies by step; the consts in the
    # order the steps first read them, so that a step reading its consts in member order
    # reads one slice
    read = set(consts)
    read = dict.fromkeys(a for i in comp.tolist() for a in nodes[i].args if a in read)
    consts = [*read, *(i for i in consts if i not in read)]
    template = np.concatenate([nodes[i].payload if nodes[i].op == "const" else np.zeros(dims[i])
                               for i in consts] + [np.zeros(0)])
    off, at = [0] * n, 0
    for i in chain(consts, inputs, comp.tolist(), copies.tolist()):
        off[i], at = at, at + dims[i]
    dims_arr, base_arr, offsets = (np.array(v, dtype=np.intp) for v in (dims, base, off))
    n_values = at - int(dims_arr[copies].sum())

    # each element's own buffer (and adjoint) position, the element a copy's element
    # copies, and where each element's value is read: its own position, or its source's
    own = (offsets - base_arr[:-1]).repeat(dims_arr) + np.arange(base[-1])
    source = np.full(base[-1], -1, dtype=np.intp)
    if spans:
        dst, src, length = zip(*spans)
        source[_runs(dst, length)] = _runs(src, length)
    if picks:
        dst, src, idx = zip(*picks)
        length = [len(k) for k in idx]
        indices = np.concatenate([np.asarray(k, dtype=np.intp) for k in idx])  # tuples or intp arrays
        source[_runs(dst, length)] = np.repeat(src, length) + indices
    copied_elems = (source >= 0).nonzero()[0]
    pos, sources = own.copy(), source[copied_elems]
    pos[copied_elems] = own[sources]
    deeper = copied_elems[source[sources] >= 0]  # copies of copies
    for _ in range(max(hops) - 1):
        pos[deeper] = pos[source[deeper]]

    # per computed step, the index of its first member among the computed members, and per
    # copy step among the copies; and which computed steps are segment sums
    firsts, k_firsts, summing = [0], [0], []
    for lo, hi in zip(bounds, bounds[1:]):
        if keys[lo][1] < len(_RANK):
            firsts.append(firsts[-1] + hi - lo)
            summing.append(keys[lo][1] in (_RANK["matmul"], _RANK["segdot"]))
        else:
            k_firsts.append(k_firsts[-1] + hi - lo)
    # the elements each computed member reads of its first operand (a matmul, its weight
    # block), then of its second (a matmul, its input once per row), in one pass, and the
    # segment sums' segments: a matmul's rows, a segdot's segments
    c_rank, a0, a1, width = rank[~copied], a0[~copied], a1[~copied], dims_arr[comp]
    matmul, segdot = c_rank == _RANK["matmul"], c_rank == _RANK["segdot"]
    summed = matmul | segdot
    n0 = np.where(matmul, width * dims_arr[a1], dims_arr[a0])
    reps = np.where(matmul, width, _TWO[c_rank])
    elems = _runs(np.concatenate([base_arr[a0] + shift[~copied], base_arr[a1].repeat(reps)]),
                  np.concatenate([n0, dims_arr[a1].repeat(reps)]))
    ends = np.concatenate([[0], np.concatenate([n0, reps * dims_arr[a1]]).cumsum()])
    ends = ends[firsts + [len(comp) + f for f in firsts[1:]]]  # per computed step, its first operand's, then its second's
    index = _indices(pos[elems], ends)
    ends = ends.tolist()
    n_segs = np.where(summed, width, 0)
    lengths = dims_arr[a1].repeat(n_segs)
    if segdot.any():
        lengths[_runs((n_segs.cumsum() - n_segs)[segdot], n_segs[segdot])] = np.concatenate(
            [nodes[i].payload for i in comp[segdot].tolist()])
    # per segment-sum step: the first product of each segment and each product's segment,
    # counted from the step's first, or None and None when every segment holds one product
    sb = np.concatenate([[0], n_segs.cumsum()])[[f for f, s in zip(firsts, summing) if s]]
    head = np.zeros(len(lengths), dtype=np.intp)
    head[sb] = sb
    head = np.maximum.accumulate(head) if len(sb) else head  # per segment, its step's first segment
    starts = lengths.cumsum() - lengths
    seg = (np.arange(len(lengths)) - head).repeat(lengths)
    local = starts - starts[head]
    starts, plain = starts.tolist() + [len(seg)], np.logical_and.reduceat(lengths == 1, sb) if len(sb) else ()
    sb = sb.tolist() + [len(lengths)]
    sums = iter([(None, None) if p else (local[s:e], seg[starts[s]:starts[e]]) for p, s, e in zip(plain, sb, sb[1:])])

    copy_elems = source[_runs(base_arr[copies], dims_arr[copies])]
    k_ends = np.concatenate([[0], dims_arr[copies].cumsum()])[k_firsts].tolist()
    steps, of, sides, step_of = [], [], [], [-1] * n
    members_list, n_comp = members.tolist(), len(firsts) - 1
    j = k = 0  # the next computed step, copy step
    for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        front, last = members_list[lo], members_list[hi - 1]
        for i in members_list[lo:hi]:
            step_of[i] = s
        op = nodes[front].op
        of.append((len(sides),) if op in _COPY or op in _UNARY else (len(sides), len(sides) + 1))
        if op in _COPY:
            step = _Copy()
            sides.append(copy_elems[k_ends[k]:k_ends[k + 1]])
            k += 1
        else:
            sides.append(elems[ends[j]:ends[j + 1]])
            if op in _UNARY:
                step = _Unary()
                step.fwd, step.vjp = _UNARY[op]
                step.c = nodes[front].payload if op == "pow" else None
                step.x = index[j]
            else:
                sides.append(elems[ends[n_comp + j]:ends[n_comp + j + 1]])
                if op in _BINARY:
                    step = _Binary()
                    step.op, step.fn = op, _BINARY[op]
                else:  # a matmul, one segment per row of its weight block, or a segdot
                    step = _SegmentSum()
                    step.starts, step.seg = next(sums)
                step.a, step.b = index[j], index[n_comp + j]
            j += 1
        step.members = members[lo:hi]
        step.out = slice(off[front], off[last] + dims[last])
        steps.append(step)

    rows = dims_arr[members]
    rows[(~copied).nonzero()[0][summed]] = n0[summed]
    return _Program(n_values, at, template,
                    tuple((nodes[i].payload[0], dims[i], slice(off[i], off[i] + dims[i])) for i in inputs),
                    tuple(steps), tuple(s for s in steps if s.__class__ is not _Copy),
                    _index(pos[base[graph.output]:base[graph.output + 1]]), offsets, own,
                    members, bounds, rows, step_of, tuple(of), tuple(sides))


def _slot_values(prog: _Program, bindings: Mapping[str, Array],
                 rows: int | None = None) -> tuple[list, int | None]:
    """The values of the program's input slots, checked and in prog.inputs order, and the
    batch size, None when no slot is bound with a batch axis.

    `rows` asks for a batched evaluation of that size even when every slot is a vector.
    """
    values = []
    for slot, dim, _ in prog.inputs:
        if slot not in bindings:
            raise UnboundSlot(f"slot {slot!r} not bound")
        v = np.asarray(bindings[slot], dtype=np.float64)
        if v.ndim == 2 and rows is None:
            rows = v.shape[0]
        if v.ndim not in (1, 2) or v.shape[-1] != dim or (v.ndim == 2 and v.shape[0] != rows):
            raise ShapeMismatch(f"slot {slot!r} expects dim {dim}"
                                f"{'' if rows is None else f' in {rows} rows'}, got shape {v.shape}")
        values.append(v)
    if rows == 0:
        raise ShapeMismatch("a batch needs at least one row")
    return values, rows


def _put(buf: Array, at, v: Array, rows: int | None) -> None:
    """Write v, (k,) or (B, k), at the positions `at` of a buffer of `rows`; a vector
    fills every row."""
    buf[at] = v if rows is None else v.T if v.ndim == 2 else v[:, None]


class _Layout:
    """A program's value buffer for one batch size, `rows` (None for a vector): (N,) or
    (N, rows), with the consts written once and every forward step bound to views of it
    (see _Step); and, once it has run a reverse sweep, an adjoint buffer, (N_adj,) or
    (N_adj, rows), with the reverse calls of each sweep it has run bound to both. `owner`
    is the static bindings of the Prepared whose values its input slots hold. A program
    pools its idle layouts per batch size (see _acquire); a layout refers to neither its
    program nor a Prepared, so that the pool holds no cycle."""

    __slots__ = ("rows", "buf", "calls", "out", "owner", "operands", "adj", "sweeps")

    def __init__(self, prog: _Program, rows: int | None):
        self.rows, self.owner, self.adj, self.sweeps = rows, None, None, {}
        self.buf = np.empty(prog.n_values if rows is None else (prog.n_values, rows))
        _put(self.buf, slice(0, len(prog.template)), prog.template, rows)
        calls, self.operands = [], {}
        for step in prog.runs:
            self.operands[step] = step.bind(self.buf, calls)
        out = _bound(self.buf, prog.out, calls)
        self.out, self.calls = out if rows is None else out.T, tuple(calls)

    def run(self, prog: _Program, values: list | None = None, owner: dict | None = None) -> Array:
        """Write `values` (see _slot_values) unless None, with `owner` as what they hold, and
        run the bound steps; the output returned, (output_dim,) or (B, output_dim), is a view."""
        if values is not None:
            for (_, _, at), v in zip(prog.inputs, values):
                _put(self.buf, at, v, self.rows)
            self.owner = owner
        for call in self.calls:
            call()
        return self.out

    def pull(self, prog: _Program, sweep: "_Sweep", cot: Array) -> Array:
        """Run `sweep` from the output adjoint cot, (output_dim,) or (B, output_dim), on the
        values of the last run, binding its reverse calls at its first run here; returns the
        at nodes' adjoints, (K,) or (B, K)."""
        calls = self.sweeps.get(sweep.key)
        if calls is None:
            if self.adj is None:
                self.adj = np.empty(prog.n_adjoints if self.rows is None else (prog.n_adjoints, self.rows))
            calls = []
            for step, need, cut, to in sweep.steps:
                step.bind_reverse(self.buf, self.adj, self.operands.get(step), need, cut, to, calls)
            calls = self.sweeps[sweep.key] = tuple(calls)
        self.adj.fill(0.0)
        _put(self.adj, sweep.seed, cot, self.rows)
        for call in calls:
            call()
        out = self.adj.take(sweep.reads, axis=0)
        return out if self.rows is None else out.T


def _acquire(prog: _Program, rows: int | None) -> _Layout:
    """An idle layout of the program for `rows`, or a new one; the caller gives it back
    to prog.layouts[rows] when done, so that no two evaluations share a buffer."""
    try:
        return prog.layouts[rows].pop()
    except IndexError:
        return _Layout(prog, rows)


def reroute_of(reroute, dim: int) -> tuple[Array, Array]:
    """A reroute (nodes, values) as an index array and a float64 copy of the values, (k,)
    or (B, k); nodes that are not distinct indices below dim, or values of another
    width, raise ShapeMismatch."""
    nodes, values = reroute
    at, values = np.asarray(nodes), np.array(values, dtype=np.float64)
    listed = at.tolist()
    if at.ndim != 1 or len(set(listed)) < len(listed) or not all(type(n) is int and 0 <= n < dim for n in listed):
        raise ShapeMismatch(f"reroute nodes {nodes!r} are not distinct indices below {dim}")
    if values.ndim not in (1, 2) or values.shape[-1] != len(at):
        raise ShapeMismatch(f"reroute values of shape {values.shape} for {len(at)} nodes")
    return at.astype(np.intp), values


def rerouted(v: Array, nodes: Array, values: Array) -> Array:
    """A copy of v, (dim,) or (B, dim), with its entries `nodes` set to `values`; a vector v
    with B rows of values gives B rows."""
    if values.ndim == v.ndim == 2 and len(values) != len(v):
        raise ShapeMismatch(f"reroute values in {len(values)} rows for a value in {len(v)} rows")
    out = np.array(np.broadcast_to(v, values.shape[:-1] + v.shape[-1:]) if v.ndim < values.ndim else v)
    out[..., nodes] = values
    return out


class Prepared:
    """Bindings of every input slot of a graph but one, the free slot, which each
    evaluation gives a value (see given); they are copied, and the graph compiled, when
    made. With a reroute (nodes, values) (see reroute_of), every evaluation then sets the
    free value's entries `nodes` to `values`.

    An evaluation takes a layout of the program (see _Layout) and, when that last held
    other bindings, checks and writes these into it; otherwise it writes the free value
    only. So two Prepared of one graph may be evaluated in turn, but one Prepared must
    not be evaluated concurrently: `given` sets the value its next evaluation reads.
    """

    __slots__ = ("graph", "prog", "free", "dim", "static", "value", "over", "at", "over_at", "rows")

    def __init__(self, graph: ExprGraph, bindings: Mapping[str, Array], free: str, dim: int, reroute=None):
        self.graph, self.prog, self.free, self.dim, self.value = graph, _compile(graph), free, dim, None
        self.static = {slot: np.array(v, dtype=np.float64) for slot, v in bindings.items() if slot != free}
        self.over = over = None if reroute is None else reroute_of(reroute, dim)
        # the free slot's range, the rerouted positions in it, and the batch size of a
        # vector free value: the rows of the first batched value the program reads
        self.at = at = next((at for slot, _, at in self.prog.inputs if slot == free), None)
        self.over_at = None if at is None or over is None else _index(at.start + over[0])
        over_values = None if over is None else over[1]
        read = (over_values if slot == free else self.static.get(slot) for slot, _, _ in self.prog.inputs)
        self.rows = next((len(v) for v in read if v is not None and v.ndim == 2), None)

    def given(self, value) -> "Prepared":
        """These bindings with `value`, a (dim,) vector or a (B, dim) batch, for the free slot."""
        v = np.asarray(value, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
            raise ShapeMismatch(f"slot {self.free!r} expects dim {self.dim}, got shape {v.shape}")
        self.value = v
        return self

    def _evaluate(self) -> Array:
        v, prog = self.value, self.prog
        rows = self.rows if v.ndim == 1 else len(v)
        layout = _acquire(prog, rows)
        try:
            if layout.owner is not self.static:
                free = v if self.over is None else rerouted(v, *self.over)
                values, _ = _slot_values(prog, {**self.static, self.free: free}, None if v.ndim == 1 else rows)
                return layout.run(prog, values, self.static).copy()
            if self.at is not None:
                _put(layout.buf, self.at, v, rows)
                if self.over_at is not None:
                    _put(layout.buf, self.over_at, self.over[1], rows)
            return layout.run(prog).copy()
        finally:
            prog.layouts[rows].append(layout)


def forward_eval(graph: ExprGraph, bindings: Mapping[str, Array] | Prepared,
                 rows: int | None = None) -> Array:
    """Evaluate the graph's output for the given slot bindings; (B, output_dim) for a batch.

    `rows` asks for a batch of that size even when no slot the graph reads is batched.
    `bindings` may be a Prepared of this graph whose free slot has a value; a free
    value of B rows then asks for a batch of B rows.
    """
    if bindings.__class__ is Prepared:
        if bindings.graph is not graph:
            raise ValueError("the bindings were prepared for another graph")
        return bindings._evaluate()
    prog = _compile(graph)
    values, rows = _slot_values(prog, bindings, rows)
    layout = _acquire(prog, rows)
    try:
        return layout.run(prog, values).copy()
    finally:
        prog.layouts[rows].append(layout)


class _Sweep(NamedTuple):
    key: tuple  # the at nodes
    steps: tuple  # (step, need, cut, to) in the order the sweep runs them, see _Step
    seed: slice  # the output's adjoint segment
    reads: Array  # the at nodes' adjoint positions end to end


def _sweep(graph: ExprGraph, prog: _Program, key: tuple) -> _Sweep:
    """The reverse sweep toward the `key` nodes, with them as leaves; cached on the
    program per key. A member of a step passes its adjoint on when the output's adjoint
    reaches it, it is not a leaf and its adjoint flows on to a target; the sweep runs
    the steps with such members, scatters only into the operand sides that lead on, and
    cuts the contributions of the other members, so that a node the output does not
    reach adds nothing, not even 0 * inf. One Python walk over the nodes each way finds
    these; the cuts and the scatters take numpy passes over the whole program."""
    sweep = prog.sweeps.get(key)
    if sweep is not None:
        return sweep
    nodes, step_of, of = graph.nodes, prog.step_of, prog.sides
    n = len(nodes)
    leaf = [False] * n
    for i in key:
        leaf[i] = True
    flows = leaf.copy()  # a target, or a node whose adjoint flows on to one
    for i, node in enumerate(nodes):
        if step_of[i] >= 0 and not leaf[i] and any([flows[a] for a in node.args]):
            flows[i] = True
    reached, moves, need, moved = [False] * n, [False] * n, [False] * len(prog.elems), [0] * len(of)
    reached[graph.output] = True
    for i in reversed(range(n)):
        if reached[i] and flows[i] and not leaf[i] and step_of[i] >= 0:
            args, sides = nodes[i].args, of[step_of[i]]
            moves[i] = True
            moved[step_of[i]] += 1
            for a in args:
                reached[a] = True
            if len(sides) == len(args):  # a side per argument
                for side, a in zip(sides, args):
                    need[side] = need[side] or flows[a]
            elif any([flows[a] for a in args]):  # a copy's arguments, one side
                need[sides[0]] = True
    bounds = prog.bounds
    cuts = [s for s, m in enumerate(moved) if 0 < m < bounds[s + 1] - bounds[s]]
    cut = {}
    if cuts:  # the contribution rows of the members that do not move, counted from their step's first
        first = np.concatenate([[0], prog.rows.cumsum()])[bounds]
        rows = (~np.array(moves)[prog.members]).repeat(prog.rows).nonzero()[0]
        at = rows.searchsorted(first).tolist()
        rows -= first[:-1].repeat(np.subtract(at[1:], at[:-1]))
        cut = {s: rows[at[s]:at[s + 1]] for s in cuts}
    to = _scatters(prog, [side for side, needed in enumerate(need) if needed])
    steps = tuple((prog.steps[s], tuple(need[k] for k in of[s]), cut.get(s), tuple(to.get(k) for k in of[s]))
                  for s in reversed(range(len(of))) if moved[s])
    dims = np.array(graph.dims, dtype=np.intp)
    out = int(prog.offsets[graph.output])
    sweep = _Sweep(key, steps, slice(out, out + graph.output_dim), _runs(prog.offsets[list(key)], dims[list(key)]))
    prog.sweeps[key] = sweep
    return sweep


def _scatters(prog: _Program, sides: list) -> dict:
    """The _Scatter of each of the operand sides `sides` (see _Program), by side, from one
    stable sort of their positions."""
    counts = np.array([len(prog.elems[side]) for side in sides], dtype=np.intp)
    pos = prog.own[np.concatenate([prog.elems[side] for side in sides] + [np.zeros(0, np.intp)])]
    firsts = counts.cumsum() - counts  # per side, its first entry in pos
    which = np.arange(len(sides)).repeat(counts)
    order = (which * len(prog.own) + pos).argsort(kind="stable")  # each side's positions ranked
    ranked = pos[order]
    fresh = np.ones(len(pos), dtype=bool)  # a position's first entry in its side's ranking
    fresh[1:] = ranked[1:] != ranked[:-1]
    fresh[firsts[counts > 0]] = True
    heads = fresh.nonzero()[0]
    in_side = heads.searchsorted(np.concatenate([firsts, [len(pos)]])).tolist()  # per side, its first entry in heads
    order -= firsts[which]
    heads_local = heads - firsts[which[heads]]
    # per side, its first and last entry, whether its positions rise throughout, and by one
    lo, hi, padded = firsts, np.maximum(firsts + counts - 1, 0), np.concatenate([pos, [0]])  # an empty side reads the pad
    falls = np.concatenate(([0], (pos[1:] <= pos[:-1]).cumsum(), [0]))
    rises, runs = (falls[lo] == falls[hi]).tolist(), (padded[hi] - padded[lo] == counts - 1).tolist()
    out = {}
    for k, (side, lo, m, first) in enumerate(zip(sides, firsts.tolist(), counts.tolist(), padded[lo].tolist())):
        h0, h1 = in_side[k], in_side[k + 1]
        if m == 0:
            out[side] = _Scatter(slice(0, 0), None, None)
        elif m == 1 or rises[k]:
            out[side] = _Scatter(slice(first, first + m) if runs[k] else pos[lo:lo + m], None, None)
        elif h1 - h0 == m:  # distinct positions in another order
            out[side] = _Scatter(pos[lo:lo + m], None, None)
        else:
            out[side] = _Scatter(_index(ranked[heads[h0:h1]]), order[lo:lo + m], heads_local[h0:h1])
    return out


def reverse_vjp(graph: ExprGraph, bindings: Mapping[str, Array], cotangent,
                at: Sequence[int] | None = None) -> dict[str, Array] | Array:
    """Vector-Jacobian product v^T J for each input slot of the graph, as a dict
    slot -> partial, each shaped like its slot.

    With `at`, a sequence of node indices, the sweep treats those nodes as
    leaves (it propagates nothing below them) and returns their adjoints end to
    end as one array of K entries, K the sum of their dims, in the order of
    `at`. An entry that is not an int in 0..len(graph.nodes) - 1 raises
    ShapeMismatch. The relu derivative at exactly 0 is taken to be 0.

    A batch (a slot bound with a batch axis, or a (B, output_dim) cotangent)
    gives every adjoint per row: (B, dim) per slot, or (B, K) with `at`; a
    vector cotangent then seeds every row.
    """
    cot = np.asarray(cotangent, dtype=np.float64)
    if cot.ndim == 0:
        cot = cot.reshape(1)
    prog = _compile(graph)
    values, rows = _slot_values(prog, bindings, cot.shape[0] if cot.ndim == 2 else None)
    if cot.ndim > 2 or cot.shape[-1] != graph.output_dim:
        raise ShapeMismatch(f"cotangent shape {cot.shape} does not end in output dim {graph.output_dim}")
    key = tuple(idx for idx, _ in graph.slots.values()) if at is None else tuple(at)
    if not all(isinstance(i, (int, np.integer)) and 0 <= i < len(graph.nodes) for i in key):
        raise ShapeMismatch(f"at nodes {list(key)} are not node indices in 0..{len(graph.nodes) - 1}")

    sweep = _sweep(graph, prog, key)
    layout = _acquire(prog, rows)
    try:
        layout.run(prog, values)
        out = layout.pull(prog, sweep, cot)
    finally:
        prog.layouts[rows].append(layout)
    if at is not None:
        return out
    ends = accumulate(dim for _, dim in graph.slots.values())
    return {slot: out[..., end - dim:end] for (slot, (_, dim)), end in zip(graph.slots.items(), ends)}


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
        elif node.op == "matmul":
            rec["offset"], rec["rows"] = node.payload
        elif node.op == "pow":
            rec["exponent"] = node.payload
        elif node.op == "slice":
            rec["start"], rec["stop"] = node.payload
        elif node.op == "segdot":
            rec["lengths"] = list(node.payload)
        elif node.op == "gather":
            rec["indices"] = list(map(int, node.payload))
        nodes.append(rec)
    return {"nodes": nodes, "output": graph.output}


def graph_from_obj(obj: dict) -> ExprGraph:
    """Inverse of graph_to_obj.

    A malformed record raises SpecValidationError naming it: an unknown op, a missing
    key, too few args, or an arg (or the output) that is not the index of a node built
    before it, such as a negative index, which would count from the end."""
    b = ExprBuilder()
    refs: list[Ref] = []
    where = "graph"

    def node(index) -> Ref:
        if type(index) is not int or not 0 <= index < len(refs):
            raise SpecValidationError([f"{where}: {index!r} is not the index of a node built before it"])
        return refs[index]

    try:
        for k, rec in enumerate(obj["nodes"]):
            where = f"graph record {k}"
            op = rec["op"]
            args = tuple(node(a) for a in rec["args"])
            if op == "input":
                refs.append(b.input(rec["slot"], rec["dim"]))
            elif op == "const":
                refs.append(b.const(rec["values"]))
            elif op == "matmul":
                refs.append(b.matmul(args[0], args[1], rec["rows"], rec["offset"]))
            elif op == "pow":
                refs.append(b.powc(args[0], rec["exponent"]))
            elif op == "slice":
                refs.append(b.slice(args[0], rec["start"], rec["stop"]))
            elif op == "segdot":
                refs.append(b.segdot(args[0], args[1], rec["lengths"]))
            elif op == "gather":
                refs.append(b.gather(args[0], rec["indices"]))
            elif op == "concat":
                refs.append(b.concat(*args))
            elif op in ("add", "sub", "mul"):
                refs.append(getattr(b, op)(args[0], args[1]))
            elif op in ("recip", "neg", "exp", "log", "relu"):
                refs.append(getattr(b, op)(args[0]))
            else:
                raise SpecValidationError([f"{where}: unknown op {op!r}"])
        where = "graph output"
        return b.build(node(obj["output"]))
    except KeyError as exc:
        raise SpecValidationError([f"{where}: missing key {exc.args[0]!r}"]) from None
    except IndexError:
        raise SpecValidationError([f"{where}: too few args"]) from None
