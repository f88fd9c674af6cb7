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
set of bindings, which binds every slot but one once, cannot.

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


# op -> (forward(x, c, out), vjp(g, x, y, c)), with x the argument, y the value, c the
# exponent of a pow and out the array the forward writes into
_UNARY = {
    "recip": (_recip, lambda g, x, y, c: -g * y * y),
    "neg": (lambda x, c, out: np.negative(x, out=out), lambda g, x, y, c: -g),
    "pow": (_pow, lambda g, x, y, c: g * c * np.power(x, c - 1.0)),
    "exp": (lambda x, c, out: np.exp(x, out=out), lambda g, x, y, c: g * y),
    "log": (_log, lambda g, x, y, c: g / x),
    "relu": (lambda x, c, out: np.maximum(x, 0.0, out=out), lambda g, x, y, c: g * (x > 0.0)),
}
_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply}
_COPY = ("slice", "gather", "concat")
_COMPUTED, _COPIED = 0, 1
_KIND = {**dict.fromkeys((*_UNARY, *_BINARY, "matmul", "segdot"), _COMPUTED),
         **dict.fromkeys(_COPY, _COPIED)}


def dot_sum(a, b) -> float:
    """a . b summed as a compiled one-row matmul sums it, which may round differently from BLAS."""
    return float(np.add.reduceat(np.multiply(a, b), [0])[0])


def _runs(starts, lengths) -> Array:
    """The ranges [start, start + length) end to end, as one intp array."""
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def _index(pos: Array) -> slice | Array:
    """Buffer positions as an index: a slice when they are one ascending run."""
    n = len(pos)
    first = int(pos[0]) if n else 0
    if n == 0 or (pos[-1] - first == n - 1 and (pos[1:] > pos[:-1]).all()):
        return slice(first, first + n)
    return pos


def _take(v: Array, at) -> Array:
    """v[at] along the first axis, where `at` is a slice or an index array (on a 2-d
    batch buffer take() is several times faster than fancy indexing; on a vector,
    slower)."""
    return v[at] if at.__class__ is slice or v.ndim == 1 else v.take(at, axis=0)


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


class _Scatter:
    """Adds one contribution per position into an adjoint buffer, except the rows
    `cut` of them. Contributions that land on one position are summed first, in their
    order, by np.add.reduceat."""

    __slots__ = ("to", "order", "starts")

    def __init__(self, positions: Array):
        self.order = self.starts = None
        if len(positions) > 1 and not (positions[1:] > positions[:-1]).all():
            order = np.argsort(positions, kind="stable")
            ranked = positions[order]
            starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
            if len(starts) < len(ranked):
                self.order, self.starts, positions = order, starts, ranked[starts]
        self.to = _index(positions)

    def add(self, adj: Array, contrib: Array, cut):
        if cut is not None:
            contrib = np.array(contrib)
            contrib[cut] = 0.0
        if self.starts is not None:
            contrib = np.add.reduceat(contrib.take(self.order, axis=0), self.starts, axis=0)
        adj[self.to] += contrib


class _Step:
    """One wide step. `members` are its nodes, whose segments fill the buffer range
    `out` in order. `sides[k]` lists the node its k-th operand reads, one per member,
    or for a copy every argument, member by member, with `spans` the start of each
    member's arguments when some member has several. `elems[k]` are the operand's
    elements, whose adjoints `to[k]` scatters into. A sweep builds what it needs of
    these for the reverse pass (a copy's sides, the scatters) the first time.

    bind(v, calls) appends to `calls` functions of no arguments that run the step on
    the buffer v through views of v made once; backward runs its VJP."""

    __slots__ = ("members", "out", "sides", "spans", "elems", "to")


class _Unary(_Step):
    __slots__ = ("fwd", "vjp", "c", "x")

    def bind(self, v, calls):
        calls.append(partial(self.fwd, _bound(v, self.x, calls), self.c, v[self.out]))

    def backward(self, v, adj, g, need, cut):
        self.to[0].add(adj, self.vjp(g, _take(v, self.x), v[self.out], self.c), cut)


class _Binary(_Step):
    __slots__ = ("op", "fn", "a", "b")

    def bind(self, v, calls):
        calls.append(partial(self.fn, *_bound_pair(v, self.a, self.b, calls), out=v[self.out]))

    def backward(self, v, adj, g, need, cut):
        mul = self.op == "mul"
        if need[0]:
            self.to[0].add(adj, g * _take(v, self.b) if mul else g, cut)
        if need[1]:
            self.to[1].add(adj, g * _take(v, self.a) if mul else g if self.op == "add" else -g, cut)


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

    def backward(self, v, adj, g, need, cut):
        if self.seg is not None:
            g = g.take(self.seg, axis=0)
        if need[0]:
            self.to[0].add(adj, g * _take(v, self.b), cut)
        if need[1]:
            self.to[1].add(adj, g * _take(v, self.a), cut)


class _Copy(_Step):
    __slots__ = ()

    def backward(self, v, adj, g, need, cut):
        self.to[0].add(adj, g, cut)


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
    base: Array  # per node, its first element; an element is a (node, component) pair
    own: Array  # per element, its position in the buffer
    source: Array  # per element of a copy, the element it copies; -1 elsewhere
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
    level, hops = [0] * n, [0] * n  # hops > 0 marks a copy
    consts, inputs, groups = [], [], {}
    spans, picks = [], []  # the copies' elements: runs (dst, src, length), picks (dst, src, indices)
    for i, (op, args, payload) in enumerate(nodes):
        kind = _KIND.get(op)
        if kind is None:
            if op == "input":
                inputs.append(i)
            elif op == "const":
                consts.append(i)
            else:
                raise ValueError(f"unknown op {op!r}")
            continue
        if op == "matmul" and dims[args[1]] == 0:
            consts.append(i)  # a matmul of no products is a const zero
            continue
        lv = level[args[0]]
        if len(args) > 1:
            for a in args:
                if level[a] > lv:
                    lv = level[a]
        if kind == _COPIED:
            level[i] = lv
            h = hops[args[0]]
            if len(args) > 1:
                for a in args:
                    if hops[a] > h:
                        h = hops[a]
            hops[i] = h = h + 1
            key = (lv, _COPIED, h)
            if op == "slice":
                spans.append((base[i], base[args[0]] + payload[0], payload[1] - payload[0]))
            elif op == "concat":
                spans.extend(zip(accumulate([dims[a] for a in args[:-1]], initial=base[i]),
                                 [base[a] for a in args], [dims[a] for a in args]))
            else:
                picks.append((base[i], base[args[0]], payload))
        else:
            level[i] = lv = lv + 1
            key = (lv, _COMPUTED, op, payload if op == "pow" else None)
        group = groups.get(key)
        if group is None:
            groups[key] = [i]
        else:
            group.append(i)

    # layout: consts, inputs, computed nodes by step, copies by step
    order = sorted(groups)
    # consts in the order the steps read them, so that a step reading its consts in
    # member order reads one slice
    const_set = set(consts)
    read = dict.fromkeys(a for key in order if key[1] == _COMPUTED for i in groups[key]
                         for a in nodes[i].args if a in const_set)
    consts = [*read, *(i for i in consts if i not in read)]
    template = np.concatenate([nodes[i].payload if nodes[i].op == "const" else np.zeros(dims[i])
                               for i in consts] + [np.zeros(0)])
    valued = inputs + [i for key in order if key[1] == _COMPUTED for i in groups[key]]
    copies = [i for key in order if key[1] == _COPIED for i in groups[key]]
    dims_arr = np.array(dims, dtype=np.intp)
    base_arr = np.concatenate(([0], np.cumsum(dims_arr)))
    placed = np.array(consts + valued + copies, dtype=np.intp)
    sizes = dims_arr[placed]
    starts = np.cumsum(sizes) - sizes
    off = np.empty(n, dtype=np.intp)
    off[placed] = starts
    n_values = len(template) + int(sizes[len(consts):len(consts) + len(valued)].sum())
    n_adjoints = n_values + int(sizes[len(consts) + len(valued):].sum())

    # each element's own buffer (and adjoint) position, the element a copy's element
    # copies, and where each element's value is read: its own position, or its source's
    own = np.repeat(off - base_arr[:-1], dims_arr) + np.arange(base[-1])
    source = np.full(base[-1], -1, dtype=np.intp)
    if spans:
        dst, src, length = zip(*spans)
        source[_runs(dst, length)] = _runs(src, length)
    if picks:
        dst, src, idx = zip(*picks)
        length = [len(k) for k in idx]
        indices = np.concatenate([np.asarray(k, dtype=np.intp) for k in idx])  # tuples or intp arrays
        source[_runs(dst, length)] = np.repeat(src, length) + indices
    copied = np.flatnonzero(source >= 0)
    pos, sources = own.copy(), source[copied]
    pos[copied] = own[sources]
    deeper = copied[source[sources] >= 0]  # copies of copies
    for _ in range(max(hops) - 1):
        pos[deeper] = pos[source[deeper]]

    def elements(of):
        of = np.array(of, dtype=np.intp)
        return _runs(base_arr[of], dims_arr[of])

    steps = []
    for key in order:
        members = groups[key]
        op = nodes[members[0]].op
        if key[1] == _COPIED:
            step = _Copy()
            step.sides = step.spans = None  # a reverse-only step: the first sweep fills them in
            step.elems, step.to = (None,), [None]
        else:
            args = [nodes[i].args for i in members]
            if op in _UNARY:
                step = _Unary()
                step.fwd, step.vjp = _UNARY[op]
                step.c = key[3]
                x = [arg[0] for arg in args]
                ex = elements(x)
                step.x = _index(pos[ex])
                step.sides, step.elems = (x,), (ex,)
            elif op in _BINARY:
                step = _Binary()
                step.op, step.fn = op, _BINARY[op]
                a, b = [arg[0] for arg in args], [arg[1] for arg in args]
                ea, eb = elements(a), elements(b)
                step.a, step.b = _index(pos[ea]), _index(pos[eb])
                step.sides, step.elems = (a, b), (ea, eb)
            else:  # a matmul, one segment per row of its weight block, or a segdot
                step = _SegmentSum()
                a, b = [arg[0] for arg in args], [arg[1] for arg in args]
                if op == "segdot":
                    lengths = np.concatenate([np.asarray(nodes[i].payload, dtype=np.intp) for i in members])
                    ea, eb = elements(a), elements(b)
                else:
                    cols = dims_arr[b]
                    start, rows = np.array([nodes[i].payload for i in members], dtype=np.intp).T
                    lengths = np.repeat(cols, rows)
                    ea = _runs(base_arr[a] + start, rows * cols)
                    eb = _runs(np.repeat(base_arr[b], rows), lengths)
                step.a, step.b = _index(pos[ea]), _index(pos[eb])
                step.starts = step.seg = None
                if np.any(lengths != 1):
                    step.starts = np.cumsum(lengths) - lengths
                    step.seg = np.repeat(np.arange(len(lengths)), lengths)
                step.sides, step.elems = (a, b), (ea, eb)
            step.spans, step.to = None, [None] * len(step.sides)
        step.members = np.array(members, dtype=np.intp)
        step.out = slice(int(off[members[0]]), int(off[members[-1]]) + dims[members[-1]])
        steps.append(step)

    return _Program(n_values, n_adjoints, template,
                    tuple((nodes[i].payload[0], dims[i], slice(int(off[i]), int(off[i]) + dims[i])) for i in inputs),
                    tuple(steps), tuple(s for s in steps if not isinstance(s, _Copy)),
                    _index(pos[elements([graph.output])]), off, base_arr, own, source)


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
    (see _Step). `owner` is the static bindings of the Prepared whose values its input
    slots hold. A program pools its idle layouts per batch size (see _acquire); a layout
    refers to neither its program nor a Prepared, so that the pool holds no cycle."""

    __slots__ = ("rows", "buf", "calls", "out", "owner")

    def __init__(self, prog: _Program, rows: int | None):
        self.rows, self.owner = rows, None
        self.buf = np.empty(prog.n_values if rows is None else (prog.n_values, rows))
        _put(self.buf, slice(0, len(prog.template)), prog.template, rows)
        calls = []
        for step in prog.runs:
            step.bind(self.buf, calls)
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


@dataclass(frozen=True)
class _Sweep:
    steps: tuple  # (step, operand sides to scatter into, contribution rows to cut or None)
    reads: object  # the at nodes' adjoint positions end to end


def _sweep(graph: ExprGraph, prog: _Program, at: Sequence[int]) -> _Sweep:
    """The reverse sweep toward the `at` nodes, with them as leaves; cached on the
    program per `at`. A member of a step passes its adjoint on when the output's
    adjoint reaches it, it is not a leaf and its adjoint flows on to a target; the
    sweep runs the steps with such members, scatters only into the operands that
    lead on, and cuts the contributions of the other members, so that a node the
    output does not reach adds nothing, not even 0 * inf."""
    key = tuple(at)
    sweep = prog.sweeps.get(key)
    if sweep is not None:
        return sweep
    n = len(graph.nodes)
    targets = list(key)
    leaf = np.zeros(n, dtype=bool)
    leaf[targets] = True
    flows = np.zeros(n, dtype=bool)  # a target, or a node whose adjoint flows on to one
    flows[targets] = True
    for step in prog.steps:
        if step.sides is None:
            args = [graph.nodes[i].args for i in step.members.tolist()]
            arity = [len(arg) for arg in args]
            step.sides = (list(chain.from_iterable(args)),)
            step.spans = np.cumsum(arity) - arity if max(arity) > 1 else None
        hit = [flows[side] for side in step.sides]
        hit = np.logical_or.reduce([h if step.spans is None else np.logical_or.reduceat(h, step.spans)
                                    for h in hit])
        flows[step.members] |= hit & ~leaf[step.members]

    dims = np.array(graph.dims, dtype=np.intp)
    reached = np.zeros(n, dtype=bool)  # nodes the output's adjoint reaches
    reached[graph.output] = True
    steps = []
    for step in reversed(prog.steps):
        moves = reached[step.members] & flows[step.members] & ~leaf[step.members]
        if not moves.any():
            continue
        need = []
        for k, side in enumerate(step.sides):
            side = np.asarray(side)
            by_arg = moves if step.spans is None else np.repeat(moves, np.diff(step.spans, append=len(side)))
            reached[side[by_arg]] = True
            need.append(bool((flows[side] & by_arg).any()))
            if need[k] and step.to[k] is None:
                elems = step.elems[k]
                if elems is None:  # a copy's adjoint goes to its sources
                    elems = prog.source[_runs(prog.base[step.members], dims[step.members])]
                step.to[k] = _Scatter(prog.own[elems])
        cut = None
        if not moves.all():
            cut = np.flatnonzero(np.repeat(~moves, dims[step.members]))
            if isinstance(step, _SegmentSum) and step.seg is not None:
                cut = np.flatnonzero(np.isin(step.seg, cut))  # in products
        steps.append((step, tuple(need), cut))
    sweep = _Sweep(tuple(steps), _index(_runs(prog.offsets[targets], dims[targets])))
    prog.sweeps[key] = sweep
    return sweep


def reverse_vjp(graph: ExprGraph, bindings: Mapping[str, Array], cotangent,
                at: Sequence[int] | None = None) -> dict[str, Array] | Array:
    """Vector-Jacobian product v^T J for each input slot of the graph, as a dict
    slot -> partial, each shaped like its slot.

    With `at`, a sequence of node indices, the sweep treats those nodes as
    leaves (it propagates nothing below them) and returns their adjoints end to
    end as one array of K entries, K the sum of their dims, in the order of
    `at`. The relu derivative at exactly 0 is taken to be 0.

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

    sweep = _sweep(graph, prog, [idx for idx, _ in graph.slots.values()] if at is None else at)
    adj = np.zeros(prog.n_adjoints if rows is None else (prog.n_adjoints, rows))
    _put(adj, slice(prog.offsets[graph.output], prog.offsets[graph.output] + graph.output_dim), cot, rows)
    layout = _acquire(prog, rows)
    try:
        layout.run(prog, values)
        for step, need, cut in sweep.steps:
            step.backward(layout.buf, adj, adj[step.out], need, cut)
    finally:
        prog.layouts[rows].append(layout)

    out = _take(adj, sweep.reads) if rows is None else _take(adj, sweep.reads).T
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
