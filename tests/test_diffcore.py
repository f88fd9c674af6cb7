import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcausal import diffcore
from eqcausal.diffcore import ExprBuilder, finite_difference_jacobian, forward_eval, inline, jacobian, reverse_vjp
from eqcausal.errors import DomainError, ShapeMismatch, UnboundSlot

from ._models import reference_forward_eval, reference_reverse_vjp


def square_graph():
    b = ExprBuilder()
    x = b.input("x", 1)
    return b.build(x * x)


def affine_graph(A, y):
    b = ExprBuilder()
    x = b.input("x", np.shape(A)[1])
    return b.build(b.matvec(A, x) + b.const(y))


def test_square_at_three():
    g = square_graph()
    assert forward_eval(g, {"x": [3.0]}) == pytest.approx([9.0])


def test_affine_forward():
    g = affine_graph([[0.1, 0.2], [0.3, 0.1]], [1.0, 1.0])
    out = forward_eval(g, {"x": [1.0, 1.0]})
    np.testing.assert_allclose(out, [1.3, 1.4])


def test_relu_forward():
    b = ExprBuilder()
    x = b.input("x", 3)
    g = b.build(b.relu(x))
    np.testing.assert_array_equal(forward_eval(g, {"x": [-1.0, 0.0, 2.0]}), [0.0, 0.0, 2.0])


def test_square_vjp():
    g = square_graph()
    grad = reverse_vjp(g, {"x": [3.0]}, [1.0])
    assert grad["x"] == pytest.approx([6.0])


def test_linear_vjp_is_adjoint():
    A = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]])
    b = ExprBuilder()
    x = b.input("x", 3)
    g = b.build(b.matvec(A, x))
    v = np.array([0.7, -0.2])
    grad = reverse_vjp(g, {"x": [1.0, 2.0, 3.0]}, v)
    np.testing.assert_allclose(grad["x"], A.T @ v)


def test_relu_subgradient_zero_at_kink():
    b = ExprBuilder()
    x = b.input("x", 1)
    g = b.build(b.relu(x))
    assert reverse_vjp(g, {"x": [0.0]}, [1.0])["x"] == pytest.approx([0.0])


def test_jacobian_of_linear_map_is_exact():
    A = np.array([[0.1, 0.2], [0.3, 0.1]])
    g = affine_graph(A, [1.0, 1.0])
    np.testing.assert_allclose(jacobian(g, {"x": [0.3, -0.4]}, "x"), A)


def test_jacobian_hand_example():
    # f(x) = (x1*x2, x1^2) at (2, 3) -> [[3, 2], [4, 0]]
    b = ExprBuilder()
    x = b.input("x", 2)
    x1 = b.slice(x, 0, 1)
    x2 = b.slice(x, 1, 2)
    g = b.build(b.concat(x1 * x2, x1 * x1))
    np.testing.assert_allclose(jacobian(g, {"x": [2.0, 3.0]}, "x"), [[3.0, 2.0], [4.0, 0.0]])


def test_fd_jacobian_on_square():
    jac = finite_difference_jacobian(lambda x: x * x, [3.0], h=1e-5)
    assert jac[0, 0] == pytest.approx(6.0, abs=1e-6)


def test_fd_jacobian_exact_for_linear():
    A = np.array([[1.0, -2.0], [0.5, 4.0]])
    jac = finite_difference_jacobian(lambda x: A @ x, [0.2, 0.4], h=1e-5)
    np.testing.assert_allclose(jac, A, atol=1e-9)


def test_fd_jacobian_exp_at_zero():
    jac = finite_difference_jacobian(lambda x: np.exp(x), [0.0], h=1e-5)
    assert jac[0, 0] == pytest.approx(1.0, abs=1e-8)


def _one_op_graphs():
    """One small graph per operation kind, with domain-safe base points."""
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 4))
    cases = []

    def case(name, build, x0, dim):
        cases.append((name, build, np.asarray(x0, dtype=float), dim))

    case("add", lambda b, x: b.add(x, b.const([0.3, -0.2, 0.1])), [0.5, 1.2, -0.7], 3)
    case("sub", lambda b, x: b.sub(b.const([0.3, -0.2, 0.1]), x), [0.5, 1.2, -0.7], 3)
    case("mul", lambda b, x: b.mul(x, b.const([1.5, -0.4, 2.0])), [0.5, 1.2, -0.7], 3)
    case("recip", lambda b, x: b.recip(x), [0.5, 1.2, 0.7], 3)
    case("neg", lambda b, x: b.neg(x), [0.5, -1.2], 2)
    case("matvec", lambda b, x: b.matvec(A, x), [0.5, 1.2, -0.7, 0.3], 4)
    case("dot", lambda b, x: b.dot(x, b.const([1.0, -2.0, 0.5])), [0.5, 1.2, -0.7], 3)
    case("pow", lambda b, x: b.powc(x, 2.5), [0.5, 1.2, 0.7], 3)
    case("pow_neg", lambda b, x: b.powc(x, -1.5), [0.5, 1.2, 0.7], 3)
    case("exp", lambda b, x: b.exp(x), [0.5, -1.2, 0.1], 3)
    case("log", lambda b, x: b.log(x), [0.5, 1.2, 0.7], 3)
    case("relu", lambda b, x: b.relu(x), [0.5, 1.2, -0.7], 3)
    case("concat", lambda b, x: b.concat(b.slice(x, 1, 3), x), [0.5, 1.2, -0.7], 3)
    case("slice", lambda b, x: b.slice(x, 1, 3), [0.5, 1.2, -0.7, 0.4], 4)
    case("gather", lambda b, x: b.gather(x, [2, 0, 2]), [0.5, 1.2, -0.7], 3)
    case("broadcast", lambda b, x: b.broadcast(b.dot(x, x), 4), [0.5, 1.2], 2)
    case("matmul", lambda b, x: b.matmul(x, b.slice(x, 0, 2), 2, 1), [0.5, 1.2, -0.7, 0.3, 0.9], 5)
    return cases


@pytest.mark.parametrize("name,build,x0,dim", _one_op_graphs(), ids=lambda c: c if isinstance(c, str) else "")
def test_vjp_matches_finite_differences_per_op(name, build, x0, dim):
    b = ExprBuilder()
    x = b.input("x", dim)
    g = b.build(build(b, x))
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(5):
        # stay away from relu kinks and domain boundaries
        point = x0 + rng.uniform(-0.05, 0.05, size=dim)
        v = rng.normal(size=g.output_dim)
        vjp = reverse_vjp(g, {"x": point}, v)["x"]
        fd = v @ finite_difference_jacobian(lambda z: forward_eval(g, {"x": z}), point, h=1e-6)
        denom = 1.0 + np.abs(fd)
        assert np.max(np.abs(vjp - fd) / denom) < 1e-4


@settings(max_examples=30)
@given(
    a=st.floats(-3, 3), b_=st.floats(-3, 3),
    v1=st.floats(-2, 2), v2=st.floats(-2, 2),
)
def test_vjp_linear_in_cotangent(a, b_, v1, v2):
    g_builder = ExprBuilder()
    x = g_builder.input("x", 2)
    g = g_builder.build(g_builder.concat(g_builder.exp(x), g_builder.dot(x, x)))
    bindings = {"x": np.array([0.3, -0.8])}
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    combo = reverse_vjp(g, bindings, a * e1 * v1 + b_ * e2 * v2)["x"]
    g1 = reverse_vjp(g, bindings, e1)["x"]
    g2 = reverse_vjp(g, bindings, e2)["x"]
    np.testing.assert_allclose(combo, a * v1 * g1 + b_ * v2 * g2, rtol=0, atol=1e-12)


def test_composition_jacobian_is_product():
    rng = np.random.default_rng(11)
    for _ in range(5):
        A = rng.normal(size=(3, 2))
        # f: R^2 -> R^3 nonlinear, g: R^3 -> R^2
        bf = ExprBuilder()
        x = bf.input("x", 2)
        f = bf.build(bf.exp(bf.matvec(A, x)))
        bg = ExprBuilder()
        z = bg.input("z", 3)
        g = bg.build(bg.concat(bg.dot(z, z), bg.slice(z, 0, 1)))
        # composed graph via inline
        bc = ExprBuilder()
        xc = bc.input("x", 2)
        fz = inline(bc, f, {"x": xc})
        comp = bc.build(inline(bc, g, {"z": fz}))
        x0 = rng.uniform(-0.5, 0.5, size=2)
        z0 = forward_eval(f, {"x": x0})
        j_f = jacobian(f, {"x": x0}, "x")
        j_g = jacobian(g, {"z": z0}, "z")
        np.testing.assert_allclose(jacobian(comp, {"x": x0}, "x"), j_g @ j_f, rtol=1e-10, atol=1e-12)


def test_determinism_bit_identical():
    g = affine_graph([[0.1, 0.2], [0.3, 0.1]], [1.0, 1.0])
    bindings = {"x": np.array([0.123456789, -0.987654321])}
    a = forward_eval(g, bindings)
    b = forward_eval(g, bindings)
    assert a.tobytes() == b.tobytes()
    ga = reverse_vjp(g, bindings, [0.3, 0.7])["x"]
    gb = reverse_vjp(g, bindings, [0.3, 0.7])["x"]
    assert ga.tobytes() == gb.tobytes()


def test_bindings_not_mutated():
    g = square_graph()
    x = np.array([3.0])
    forward_eval(g, {"x": x})
    assert x[0] == 3.0


def test_unbound_slot_raises():
    g = square_graph()
    with pytest.raises(UnboundSlot):
        forward_eval(g, {})


def test_shape_mismatch_raises():
    g = square_graph()
    with pytest.raises(ShapeMismatch):
        forward_eval(g, {"x": [1.0, 2.0]})


def test_log_domain_error():
    b = ExprBuilder()
    x = b.input("x", 1)
    g = b.build(b.log(x))
    with pytest.raises(DomainError):
        forward_eval(g, {"x": [-1.0]})
    with pytest.raises(DomainError):
        forward_eval(g, {"x": [0.0]})


def test_recip_domain_error():
    b = ExprBuilder()
    x = b.input("x", 1)
    g = b.build(b.recip(x))
    with pytest.raises(DomainError):
        forward_eval(g, {"x": [0.0]})


def test_pow_negative_exponent_requires_positive_base():
    b = ExprBuilder()
    x = b.input("x", 1)
    g = b.build(b.powc(x, -2.0))
    with pytest.raises(DomainError):
        forward_eval(g, {"x": [-1.0]})
    with pytest.raises(DomainError):
        forward_eval(g, {"x": [0.0]})
    assert forward_eval(g, {"x": [2.0]}) == pytest.approx([0.25])


def test_unused_slot_gets_zero_gradient():
    b = ExprBuilder()
    x = b.input("x", 2)
    b.input("u", 1)
    g = b.build(b.dot(x, x))
    grad = reverse_vjp(g, {"x": [1.0, 2.0], "u": [5.0]}, [1.0])
    np.testing.assert_array_equal(grad["u"], [0.0])


def test_graph_json_roundtrip_bit_exact():
    b = ExprBuilder()
    x = b.input("x", 2)
    t = b.input("theta", 1)
    expr = b.add(b.matvec([[0.1, 1 / 3], [0.7, 0.2]], x), b.broadcast(b.powc(t, 0.5), 2))
    g = b.build(b.relu(expr))
    obj = diffcore.graph_to_obj(g)
    g2 = diffcore.graph_from_obj(obj)
    assert diffcore.graph_to_obj(g2) == obj
    bindings = {"x": np.array([0.9, 1.7]), "theta": np.array([2.3])}
    assert forward_eval(g, bindings).tobytes() == forward_eval(g2, bindings).tobytes()


# a graph written when dot, matvec and broadcast were ops of their own
OLD_FORM = {"nodes": [
    {"op": "input", "args": [], "slot": "x", "dim": 3},
    {"op": "matvec", "args": [0], "matrix": [[0.1, 1 / 3, -0.7], [2.5, 0.3, 1 / 7]]},
    {"op": "dot", "args": [1, 1]},
    {"op": "broadcast", "args": [2], "dim": 3},
    {"op": "mul", "args": [3, 0]},
], "output": 4}


def test_old_dot_matvec_broadcast_records_load_through_the_builder_sugar():
    g = diffcore.graph_from_obj(OLD_FORM)
    assert [node.op for node in g.nodes] == ["input", "const", "matmul", "matmul", "gather", "mul"]
    x = np.array([0.3, -1.1, 2 / 3])
    # the bits the graph gave when each of the three was its own op
    assert [v.hex() for v in forward_eval(g, {"x": x})] == [
        "0x1.17cd62bd3e7e6p-2", "-0x1.007c452d79493p+0", "0x1.36e434d2456ffp-1"]
    assert [v.hex() for v in reverse_vjp(g, {"x": x}, [1.0, -0.5, 0.25])["x"]] == [
        "0x1.aeeca8dddd275p+1", "-0x1.5f0620445e946p-1", "0x1.8551c90b02ca7p+0"]


def test_builder_sugar_emits_matmul_and_gather():
    b = ExprBuilder()
    x = b.input("x", 2)
    g = b.build(b.concat(b.matvec([[1.0, 2.0]], x), b.dot(x, x), b.broadcast(b.slice(x, 0, 1), 3)))
    assert {node.op for node in g.nodes} == {"input", "const", "matmul", "slice", "gather", "concat"}
    np.testing.assert_array_equal(forward_eval(g, {"x": [3.0, -1.0]}), [1.0, 10.0, 3.0, 3.0, 3.0])


def test_const_and_matvec_leave_the_callers_arrays_writable():
    a, m = np.array([1.0, 2.0]), np.array([[0.5, 0.25], [1.0, -1.0]])
    b = ExprBuilder()
    g = b.build(b.add(b.const(a), b.matvec(m, b.const([2.0, 4.0]))))
    a[0], m[0, 0] = 5.0, 9.0
    np.testing.assert_array_equal(forward_eval(g, {}), [3.0, 0.0])
    assert reverse_vjp(g, {}, [1.0, 1.0]) == {}  # a graph with no slots has no partials


# --- matmul ---

def _matmul_graph(n_out, n_in, offset, n_w):
    b = ExprBuilder()
    w = b.input("w", n_w)
    x = b.input("x", n_in)
    return b.build(b.matmul(w, x, n_out, offset))


def test_matmul_equals_per_row_dots():
    rng = np.random.default_rng(5)
    n_out, n_in, offset = 4, 3, 2
    w = rng.normal(size=offset + n_out * n_in + 1)
    x = rng.normal(size=n_in)
    out = forward_eval(_matmul_graph(n_out, n_in, offset, w.shape[0]), {"w": w, "x": x})
    rows = [w[offset + r * n_in:offset + (r + 1) * n_in] @ x for r in range(n_out)]
    np.testing.assert_allclose(out, rows, rtol=0, atol=1e-12)


def test_matmul_vjp_matches_finite_differences():
    rng = np.random.default_rng(6)
    n_out, n_in, offset, n_w = 3, 2, 1, 8
    g = _matmul_graph(n_out, n_in, offset, n_w)
    w, x, v = rng.normal(size=n_w), rng.normal(size=n_in), rng.normal(size=n_out)
    grad = reverse_vjp(g, {"w": w, "x": x}, v)
    fd_w = v @ finite_difference_jacobian(lambda z: forward_eval(g, {"w": z, "x": x}), w)
    fd_x = v @ finite_difference_jacobian(lambda z: forward_eval(g, {"w": w, "x": z}), x)
    np.testing.assert_allclose(grad["w"], fd_w, atol=1e-8)
    np.testing.assert_allclose(grad["x"], fd_x, atol=1e-8)
    assert not grad["w"][:offset].any() and not grad["w"][offset + n_out * n_in:].any()


def test_matmul_json_roundtrip_bit_exact():
    g = _matmul_graph(2, 3, 1, 9)
    obj = diffcore.graph_to_obj(g)
    g2 = diffcore.graph_from_obj(obj)
    assert diffcore.graph_to_obj(g2) == obj
    bindings = {"w": np.linspace(-1.0, 1.0, 9) / 3.0, "x": np.array([0.1, 1 / 7, -2.3])}
    assert forward_eval(g, bindings).tobytes() == forward_eval(g2, bindings).tobytes()
    assert (reverse_vjp(g, bindings, [0.3, 0.9])["w"].tobytes()
            == reverse_vjp(g2, bindings, [0.3, 0.9])["w"].tobytes())


@pytest.mark.parametrize("n_w,n_out,offset", [(5, 2, 0), (6, 2, 1), (6, 0, 0), (6, 2, -1)])
def test_matmul_weight_dimension_mismatch_raises(n_w, n_out, offset):
    b = ExprBuilder()
    w = b.input("w", n_w)
    x = b.input("x", 3)
    with pytest.raises(ShapeMismatch):
        b.matmul(w, x, n_out, offset)


def test_compiled_step_list_is_cached_on_the_graph():
    g = affine_graph([[0.1, 0.2], [0.3, 0.1]], [1.0, 1.0])
    assert g._program is None
    forward_eval(g, {"x": [1.0, 2.0]})
    prog = g._program
    assert len(prog.steps) == 2  # the matvec's matmul, then the add
    reverse_vjp(g, {"x": [1.0, 2.0]}, [1.0, 0.0])
    forward_eval(g, {"x": [[1.0, 2.0], [3.0, 4.0]]})  # a batch runs the same program
    reverse_vjp(g, {"x": [1.0, 2.0]}, [1.0, 0.0], at=[0])
    assert g._program is prog


def test_vjp_at_nodes_treats_them_as_leaves():
    b = ExprBuilder()
    x = b.input("x", 2)
    h = b.exp(x)
    g = b.build(b.dot(h, h))
    bindings = {"x": np.array([0.2, -0.4])}
    at_h = reverse_vjp(g, bindings, [1.0], at=[h.idx, x.idx])  # h's adjoint, then x's
    assert at_h.shape == (4,)
    np.testing.assert_allclose(at_h[:2], 2.0 * np.exp(bindings["x"]))
    np.testing.assert_array_equal(at_h[2:], [0.0, 0.0])  # nothing propagates below h


def test_nodes_that_pass_no_adjoint_on_add_nothing_to_the_gradient():
    # exp(x) and its derivative overflow at x = 800: a wide step that ran the VJP of
    # a node the output does not reach, with its zero adjoint, would add 0 * inf = nan,
    # and one that ran the VJP of a leaf would add inf
    b = ExprBuilder()
    x = b.input("x", 1)
    b.exp(b.exp(x))  # read by nothing
    dead = b.build(x * x)
    b = ExprBuilder()
    x = b.input("x", 1)
    h = b.exp(x)
    leaf = b.build(b.concat(x * x, h))
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(reverse_vjp(dead, {"x": [800.0]}, [1.0])["x"], [1600.0])
        at_h = reverse_vjp(leaf, {"x": [800.0]}, [1.0, 1.0], at=[h.idx, x.idx])
    np.testing.assert_array_equal(at_h, [1.0, 1600.0])  # h's adjoint, then x's


# --- the fused program against the per-node interpreter ---

@st.composite
def random_graphs(draw):
    """A random graph over slots "x", "y" and a weight slot "w", with every op kind,
    dots of mixed lengths, gathers with repeated indices, mixed-width concats and
    matmul blocks. Domain-limited ops only see values known to be positive."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = ExprBuilder()
    dims = {"x": int(rng.integers(1, 5)), "y": int(rng.integers(1, 5)), "w": 24}
    refs = [(b.input("x", dims["x"]), True), (b.input("y", dims["y"]), True)]
    w = b.input("w", dims["w"])

    def pick(positive=False, dim=None):
        """A (node, known to be positive) pair from those made so far, or a fresh const."""
        pool = [(r, p) for r, p in refs if (p or not positive) and (dim is None or r.dim == dim)]
        if not pool:
            size = dim if dim is not None else int(rng.integers(1, 5))
            return b.const(rng.uniform(0.5, 1.5, size=size)), True
        return pool[int(rng.integers(len(pool)))]

    for _ in range(int(rng.integers(4, 16))):
        op = rng.choice(["add", "sub", "mul", "recip", "neg", "matvec", "matmul", "dot", "pow", "exp",
                         "log", "relu", "concat", "slice", "gather", "broadcast"])
        if op in ("add", "sub", "mul"):
            a, pa = pick()
            c, pc = pick(dim=a.dim)
            refs.append((getattr(b, op)(a, c), op != "sub" and pa and pc))
        elif op in ("recip", "log"):
            a, _ = pick(positive=True)
            refs.append((getattr(b, op)(a), op == "recip"))
        elif op == "pow":
            c = float(rng.choice([2.0, 3.0, 0.5, -1.5, 1.0 / 3.0]))
            a, pa = pick(positive=c != int(c) or c < 0)
            refs.append((b.powc(a, c), pa))
        elif op == "exp":
            a, _ = pick()
            refs.append((b.exp(b.mul(a, b.const(np.full(a.dim, 0.2)))), True))
        elif op in ("neg", "relu"):
            a, _ = pick()
            refs.append((getattr(b, op)(a), False))
        elif op == "matvec":
            a, _ = pick()
            refs.append((b.matvec(rng.normal(size=(int(rng.integers(1, 4)), a.dim)), a), False))
        elif op == "matmul":
            x, _ = pick()
            n_out = int(rng.integers(1, 4))
            if n_out * x.dim <= dims["w"]:
                offset = int(rng.integers(0, dims["w"] - n_out * x.dim + 1))
                refs.append((b.matmul(w, x, n_out, offset), False))
        elif op == "dot":
            a, pa = pick()
            c, pc = pick(dim=a.dim)
            refs.append((b.dot(a, c), pa and pc and a.dim > 0))
        elif op == "concat":
            parts = [pick() for _ in range(int(rng.integers(1, 4)))]
            refs.append((b.concat(*[r for r, _ in parts]), all(p for _, p in parts)))
        elif op == "slice":
            a, pa = pick()
            start = int(rng.integers(0, a.dim + 1))
            refs.append((b.slice(a, start, int(rng.integers(start, a.dim + 1))), pa))
        elif op == "gather":
            a, pa = pick()
            if a.dim:
                refs.append((b.gather(a, rng.integers(0, a.dim, size=int(rng.integers(1, 6)))), pa))
        else:
            a, pa = pick()
            if a.dim:
                refs.append((b.broadcast(b.slice(a, 0, 1), int(rng.integers(1, 4))), pa))
    tail = [r for r, _ in refs[2:]][-int(rng.integers(1, 5)):] or [refs[0][0]]
    graph = b.build(tail[0] if len(tail) == 1 else b.concat(*tail))
    rows = draw(st.sampled_from([None, 1, 3]))
    bindings = {}
    for slot, dim in dims.items():
        batched = rows is not None and rng.random() < 0.5
        bindings[slot] = rng.uniform(0.5, 1.5, size=(rows, dim) if batched else dim)
    at = sorted(rng.choice(len(graph.nodes), size=int(rng.integers(1, 5)), replace=False).tolist())
    return graph, bindings, rows, at, rng


def assert_close(got, want):
    """Equal to 1e-12 of the array's largest finite magnitude, with infs and NaNs in the same places."""
    want = np.asarray(want)
    scale = max(1.0, np.max(np.abs(want[np.isfinite(want)]), initial=0.0))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)


@settings(max_examples=250, deadline=None)
@given(case=random_graphs())
def test_fused_program_matches_the_per_node_interpreter(case):
    graph, bindings, rows, at, rng = case
    assert_close(forward_eval(graph, bindings, rows), reference_forward_eval(graph, bindings, rows))
    cot = rng.normal(size=graph.output_dim if rows is None else (rows, graph.output_dim))
    got, want = reverse_vjp(graph, bindings, cot), reference_reverse_vjp(graph, bindings, cot)
    assert list(got) == list(want)
    for slot in want:
        assert_close(got[slot], want[slot])
    got, want = reverse_vjp(graph, bindings, cot, at=at), reference_reverse_vjp(graph, bindings, cot, at=at)
    assert got.shape == want.shape
    assert_close(got, want)


# --- errors raised inside a wide step ---

def _hundred_wide(op):
    """One op on each of 100 scalar slices of x: one wide step of 100 members."""
    b = ExprBuilder()
    x = b.input("x", 100)
    g = b.build(b.concat(*[op(b, b.slice(x, k, k + 1)) for k in range(100)]))
    forward_eval(g, {"x": np.ones(100)})
    assert len(g._program.runs) == 1
    return g


@pytest.mark.parametrize("op,bad,message", [
    (lambda b, s: b.recip(s), 0.0, "reciprocal of zero"),
    (lambda b, s: b.log(s), 0.0, "log of non-positive value"),
    (lambda b, s: b.log(s), -1.0, "log of non-positive value"),
    (lambda b, s: b.powc(s, 0.5), -2.0, "pow with fractional exponent 0.5 on negative base"),
    (lambda b, s: b.powc(s, -2.0), 0.0, "pow with negative exponent -2.0 on non-positive base"),
])
def test_one_bad_member_of_a_wide_step_raises_domain_error(op, bad, message):
    g = _hundred_wide(op)
    x = np.full(100, 2.0)
    x[57] = bad
    with pytest.raises(DomainError, match=message):
        forward_eval(g, {"x": x})
    with pytest.raises(DomainError, match=message):
        reverse_vjp(g, {"x": x}, np.ones(100))
    batch = np.full((4, 100), 2.0)
    batch[2, 57] = bad
    with pytest.raises(DomainError, match=message):
        forward_eval(g, {"x": batch})
    with pytest.raises(DomainError, match=message):
        reverse_vjp(g, {"x": batch}, np.ones(100))


def test_binding_error_messages_are_unchanged():
    b = ExprBuilder()
    x = b.input("x", 1)
    y = b.input("y", 2)
    g = b.build(b.dot(y, y) * x)
    cases = [
        ({}, None, UnboundSlot, "slot 'x' not bound"),
        ({"x": [1.0, 2.0], "y": [1.0, 1.0]}, None, ShapeMismatch, "slot 'x' expects dim 1, got shape (2,)"),
        ({"x": np.ones((3, 1)), "y": np.ones((4, 2))}, None, ShapeMismatch,
         "slot 'y' expects dim 2 in 3 rows, got shape (4, 2)"),
        ({"x": np.ones((0, 1)), "y": [1.0, 1.0]}, None, ShapeMismatch, "a batch needs at least one row"),
        ({"x": [1.0], "y": [1.0, 1.0]}, [1.0, 2.0, 3.0], ShapeMismatch,
         "cotangent shape (3,) does not end in output dim 1"),
        ({"x": np.ones((2, 1)), "y": [1.0, 1.0]}, np.ones((3, 1)), ShapeMismatch,
         "slot 'x' expects dim 1 in 3 rows, got shape (2, 1)"),
    ]
    for bindings, cot, error, message in cases:
        with pytest.raises(error) as info:
            if cot is None:
                forward_eval(g, bindings)
            else:
                reverse_vjp(g, bindings, cot)
        assert str(info.value) == message
