import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcausal import diffcore
from eqcausal.diffcore import ExprBuilder, finite_difference_jacobian, forward_eval, inline, jacobian, reverse_vjp
from eqcausal.errors import DomainError, ShapeMismatch, UnboundSlot


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
    reverse_vjp(g, {"x": [1.0, 2.0]}, [1.0, 0.0])
    assert g._program is prog


def test_vjp_at_nodes_treats_them_as_leaves():
    b = ExprBuilder()
    x = b.input("x", 2)
    h = b.exp(x)
    g = b.build(b.dot(h, h))
    bindings = {"x": np.array([0.2, -0.4])}
    at_h = reverse_vjp(g, bindings, [1.0], at=[h.idx, x.idx])
    np.testing.assert_allclose(at_h[h.idx], 2.0 * np.exp(bindings["x"]))
    np.testing.assert_array_equal(at_h[x.idx], [0.0, 0.0])  # nothing propagates below h
