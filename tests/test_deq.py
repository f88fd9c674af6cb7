import functools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqcausal import deq, modelzoo, sscm
from eqcausal.diffcore import ExprBuilder
from eqcausal.errors import NotConverged, ShapeMismatch, SingularAdjoint, SingularMatrix
from eqcausal.fixedpoint import SolverConfig
from eqcausal.interventions import LieElement, apply
from eqcausal.sscm import SscmSpec, solve_equilibrium

from ._models import THETA_REF, inject_state_jacobian, leontief_spec, motivating_spec, random_leontief

TIGHT = SolverConfig(tol=1e-10)


def scalar_cycle_spec():
    """Two-node cycle x1 := theta*x2 + c, x2 := x1; the loop realizes x = theta*x + c."""
    b = ExprBuilder()
    p = b.input("parents", 1)
    t = b.input("theta", 1)
    g1 = b.build(b.dot(t, p) + b.const([1.0]))

    b = ExprBuilder()
    p = b.input("parents", 1)
    g2 = b.build(p)

    return SscmSpec(("x1", "x2"), ((1,), (0,)), (g1, g2),
                    np.array([0.5]), np.array([[0.0, 0.9]]), ((0, 1), (1, 1)))


def sum_loss(d):
    b = ExprBuilder()
    x = b.input("x", d)
    return b.build(b.dot(b.const(np.ones(d)), x))


def test_scalar_affine_fixed_point_gradient():
    spec = scalar_cycle_spec()
    theta = np.array([0.5])
    sol = solve_equilibrium(spec, theta, TIGHT)
    np.testing.assert_allclose(sol.x_star, [2.0, 2.0], atol=1e-8)
    # dL/dtheta for L = x1: c / (1 - theta)^2 = 4
    ig = deq.implicit_vjp(spec, sol, [1.0, 0.0])
    assert ig.grad_theta[0] == pytest.approx(4.0, rel=1e-6)


def test_leontief_gradient_is_inverse_transpose():
    A = np.array([[0.0, 0.2], [0.3, 0.0]])
    y = np.array([1.0, 1.0])
    spec = leontief_spec(A, y)
    sol = solve_equilibrium(spec, y, TIGHT)
    c = np.array([2.0, -1.0])
    ig = deq.implicit_vjp(spec, sol, c)
    np.testing.assert_allclose(ig.grad_theta, np.linalg.solve((np.eye(2) - A).T, c), atol=1e-8)


def test_zero_cotangent_gives_zero_gradients():
    spec = scalar_cycle_spec()
    sol = solve_equilibrium(spec, [0.5], TIGHT)
    ig = deq.implicit_vjp(spec, sol, np.zeros(2))
    np.testing.assert_array_equal(ig.grad_theta, [0.0])


def test_jacobian_wrt_theta_leontief_is_inverse():
    A = np.array([[0.0, 0.25], [0.4, 0.0]])
    y = np.array([1.0, 2.0])
    spec = leontief_spec(A, y)
    sol = solve_equilibrium(spec, y, TIGHT)
    jac = deq.jacobian_wrt_theta(spec, sol)
    np.testing.assert_allclose(jac, np.linalg.inv(np.eye(2) - A), atol=1e-8)


def test_jacobian_wrt_theta_motivating_example():
    spec = motivating_spec()
    sol = solve_equilibrium(spec, THETA_REF, TIGHT)
    jac = deq.jacobian_wrt_theta(spec, sol)
    # dz*/dtau = gamma*alpha / (1 - beta*gamma)
    assert jac[2, 0] == pytest.approx(0.4 * 0.5 / (1 - 0.12), rel=1e-6)


def test_jacobian_wrt_theta_matches_finite_differences():
    spec = motivating_spec()
    sol = solve_equilibrium(spec, THETA_REF, TIGHT)
    jac = deq.jacobian_wrt_theta(spec, sol)
    h = 1e-5
    for k in range(4):
        tp, tm = THETA_REF.copy(), THETA_REF.copy()
        tp[k] += h
        tm[k] -= h
        col = (solve_equilibrium(spec, tp, TIGHT).x_star - solve_equilibrium(spec, tm, TIGHT).x_star) / (2 * h)
        dev = np.abs(jac[:, k] - col) / (1.0 + np.abs(col))
        assert dev.max() < 1e-4


def test_adjoint_consistency_bilinear_forms():
    spec = motivating_spec()
    sol = solve_equilibrium(spec, THETA_REF, TIGHT)
    jac = deq.jacobian_wrt_theta(spec, sol)
    rng = np.random.default_rng(9)
    for _ in range(5):
        v = rng.normal(size=3)
        w = rng.normal(size=4)
        via_vjp = deq.implicit_vjp(spec, sol, v).grad_theta @ w
        assert via_vjp == pytest.approx(v @ jac @ w, abs=1e-8)


def test_implicit_vjp_differentiates_at_the_intervention_it_was_solved_at():
    spec = apply(modelzoo.motivating_example(), LieElement("multiplicative", (1, 2), [1.0, 1.0]))
    theta, u, c, h = spec.theta_ref, np.array([1.3, 0.7]), np.array([1.0, -2.0, 0.5]), 1e-4
    cfg = SolverConfig(tol=1e-12)

    def loss(theta, u):
        return c @ solve_equilibrium(spec, theta, cfg, u=u).x_star

    ig = deq.implicit_vjp(spec, solve_equilibrium(spec, theta, cfg, u=u), c)
    fd_theta = [(loss(theta + e, u) - loss(theta - e, u)) / (2 * h) for e in h * np.eye(len(theta))]
    fd_u = [(loss(theta, u + e) - loss(theta, u - e)) / (2 * h) for e in h * np.eye(len(u))]
    np.testing.assert_allclose(ig.grad_theta, fd_theta, rtol=1e-6)
    np.testing.assert_allclose(ig.grad_u, fd_u, rtol=1e-6)


@pytest.mark.parametrize("keyword", ["u", "reroute", "policy"])
def test_gradients_take_no_binding_keywords(keyword):
    # a solution records the bindings it was solved at; no caller passes them again
    spec = motivating_spec()
    sol = solve_equilibrium(spec, THETA_REF, TIGHT)
    for call in (functools.partial(deq.implicit_vjp, spec, sol, np.ones(3)),
                 functools.partial(deq.jacobian_wrt_theta, spec, sol),
                 functools.partial(deq._linearize, spec, sol)):
        with pytest.raises(TypeError):
            call(**{keyword: None})


def test_dense_adjoint_large_dimension():
    rng = np.random.default_rng(2)
    for d in (70, 200):
        A, y = random_leontief(rng, d)
        spec = leontief_spec(A, y)
        sol = solve_equilibrium(spec, y, TIGHT)
        c = rng.normal(size=d)
        ig = deq.implicit_vjp(spec, sol, c)
        np.testing.assert_allclose(ig.grad_theta, np.linalg.solve((np.eye(d) - A).T, c), atol=1e-10)


def count_calls(monkeypatch, *names):
    """Count the calls of the named sscm functions, per name."""
    calls = {name: 0 for name in names}
    for name in names:
        def counting(*args, _name=name, _original=getattr(sscm, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(sscm, name, counting)
    return calls


def test_implicit_vjp_makes_one_node_gradients_call(monkeypatch):
    A, y = random_leontief(np.random.default_rng(4), 30)
    spec = leontief_spec(A, y)
    sol = solve_equilibrium(spec, y, TIGHT)
    calls = count_calls(monkeypatch, "node_gradients", "assemble_map")
    deq.implicit_vjp(spec, sol, np.ones(30))
    assert calls == {"node_gradients": 1, "assemble_map": 0}


def test_jacobian_wrt_theta_makes_one_node_gradients_call(monkeypatch):
    spec = motivating_spec()
    sol = solve_equilibrium(spec, THETA_REF, TIGHT)
    calls = count_calls(monkeypatch, "node_gradients", "assemble_map")
    deq.jacobian_wrt_theta(spec, sol)
    assert calls == {"node_gradients": 1, "assemble_map": 0}


def test_jacobian_wrt_theta_100_sectors_is_inverse():
    # theta is final demand y, so dx*/dtheta = (I - A)^{-1}; the zoo model divides
    # each row by 1 - A_kk, which the dense solve must undo
    table = modelzoo.leontief_synthetic(100)
    spec = modelzoo.leontief_model(table)
    sol = solve_equilibrium(spec, spec.theta_ref, TIGHT)
    jac = deq.jacobian_wrt_theta(spec, sol)
    np.testing.assert_allclose(jac, np.linalg.inv(np.eye(100) - table.A), atol=1e-10)


@pytest.mark.parametrize("j_x, cot, message", [
    ([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], "singular"),  # an exact zero pivot: cond is inf
    ([[0.0, 1.0 - 1e-10], [1.0, 0.0]], [1.0, 0.0], "ill-conditioned"),
    ([[0.0, 0.5], [1.0, 0.0]], [np.inf, 0.0], "non-finite"),
])
def test_adjoint_failures_raise_singular_adjoint(monkeypatch, j_x, cot, message):
    spec = scalar_cycle_spec()
    sol = solve_equilibrium(spec, [0.5], TIGHT)
    inject_state_jacobian(monkeypatch, j_x)
    with pytest.raises(SingularAdjoint, match=message) as info:
        deq.implicit_vjp(spec, sol, cot)
    assert isinstance(info.value, SingularMatrix)


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_a_cotangent_of_another_shape_is_a_shape_mismatch(shape):
    sol = solve_equilibrium(motivating_spec(), THETA_REF, TIGHT)
    message = f"cotangent of shape {shape} does not fit x* of shape (3,)"
    with pytest.raises(ShapeMismatch, match=re.escape(message)):
        deq.implicit_vjp(motivating_spec(), sol, np.ones(shape))


def test_jacobian_wrt_theta_raises_on_singular_adjoint(monkeypatch):
    spec = scalar_cycle_spec()
    sol = solve_equilibrium(spec, [0.5], TIGHT)
    inject_state_jacobian(monkeypatch, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SingularAdjoint):
        deq.jacobian_wrt_theta(spec, sol)


GATE_D = 4


@functools.cache
def gate_model():
    """A 4-node model solved at one point and at a batch of two; the tests replace its df/dx."""
    A = np.full((GATE_D, GATE_D), 0.1)
    np.fill_diagonal(A, 0.0)
    spec = leontief_spec(A, np.ones(GATE_D))
    return spec, {rows: solve_equilibrium(spec, np.ones(GATE_D if rows is None else (rows, GATE_D)), TIGHT)
                  for rows in (None, 2)}


NEAR_ONE = [1 - 1e-7, 1 - 4e-8, 1 - 2e-8, 1 - 1e-8, 1 - 1e-9, 1.0]


@st.composite
def state_jacobians(draw):
    """df/dx, or a stack of two, from one of four kinds: a random matrix scaled to a 1-norm
    between 0 and 2; one scaled so that ||J||_1 >= 1 > ||J^2||_1, up to a square norm near 1;
    a positive one whose columns all sum to about 1, so cond_1(I - J) is near COND_MAX; or
    I - M with cond(M) within a factor 10 of COND_MAX."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def one():
        kind = draw(st.sampled_from(["scaled", "squared", "stochastic", "conditioned"]))
        if kind in ("scaled", "squared"):
            m = rng.normal(size=(GATE_D, GATE_D)) if draw(st.booleans()) else rng.uniform(size=(GATE_D, GATE_D))
        if kind == "scaled":
            return m * (draw(st.one_of(st.floats(0.0, 2.0), st.sampled_from(NEAR_ONE))) / np.linalg.norm(m, 1))
        if kind == "squared":
            square = draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(NEAR_ONE[:-1])))
            return m * max(1.0 / np.linalg.norm(m, 1), np.sqrt(square / np.linalg.norm(m @ m, 1)))
        if kind == "stochastic":
            m = rng.uniform(size=(GATE_D, GATE_D))
            return m * (draw(st.sampled_from(NEAR_ONE)) / m.sum(axis=0))
        u, _ = np.linalg.qr(rng.normal(size=(GATE_D, GATE_D)))
        v, _ = np.linalg.qr(rng.normal(size=(GATE_D, GATE_D)))
        s = np.geomspace(1.0, 1.0 / (sscm.COND_MAX * 10 ** draw(st.floats(-1.0, 1.0))), GATE_D)
        return np.eye(GATE_D) - draw(st.floats(0.1, 2.0)) * (u * s) @ v.T

    return one() if draw(st.booleans()) else np.stack([one(), one()])


@settings(max_examples=300, deadline=None)
@given(j_x=state_jacobians())
@example(j_x=np.full((GATE_D, GATE_D), 0.1))  # the bound passes
@example(j_x=np.full((GATE_D, GATE_D), 0.3))  # ||J||_1 = 1.2 > 1, the exact test passes
@example(j_x=np.column_stack([np.full(GATE_D, 0.25), np.full((GATE_D, GATE_D - 1), 0.1)]))  # the 2nd bound
@example(j_x=np.eye(GATE_D))  # singular
@example(j_x=np.stack([np.full((GATE_D, GATE_D), 0.1), np.eye(GATE_D)]))  # one singular row
def test_the_condition_gate_decides_as_the_exact_condition_number(j_x):
    spec, sols = gate_model()
    sol = sols[None if j_x.ndim == 2 else len(j_x)]
    with pytest.MonkeyPatch.context() as mp:
        inject_state_jacobian(mp, j_x)
        try:
            deq._linearize(spec, sol)
            passed = True
        except SingularAdjoint:
            passed = False
    with np.errstate(all="ignore"):
        exact = np.max(np.linalg.cond(np.eye(GATE_D) - j_x, 1))
    assert passed == bool(exact <= sscm.COND_MAX)


def test_implicit_vjp_agrees_with_the_inverse_product_on_100_sectors():
    spec = modelzoo.leontief_model(modelzoo.leontief_synthetic(100))
    sol = solve_equilibrium(spec, spec.theta_ref, TIGHT)
    cot = np.random.default_rng(5).normal(size=spec.d)
    lin = sscm.Linearization(spec, sol.x_star, sol.theta)
    ig = deq.implicit_vjp(spec, sol, cot)
    np.testing.assert_allclose(ig.grad_theta, lin.jac.theta.T @ (np.linalg.inv(lin.lhs).T @ cot),
                               rtol=1e-12)


def count_inverses(monkeypatch):
    """Count the calls of np.linalg.inv and np.linalg.cond."""
    calls = []
    for name in ("inv", "cond"):
        def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_a_contractive_jacobian_settles_the_gate_without_an_inverse(monkeypatch):
    spec = modelzoo.leontief_model(modelzoo.leontief_synthetic(100))
    theta = spec.theta_ref * np.array([[1.0], [0.9], [1.1]])
    sols = [solve_equilibrium(spec, spec.theta_ref, TIGHT), solve_equilibrium(spec, theta, TIGHT)]
    assert np.linalg.norm(sscm.node_gradients(spec, sols[0].x_star, spec.theta_ref).x, 1) < 1
    calls = count_inverses(monkeypatch)
    for sol in sols:
        deq.implicit_vjp(spec, sol, np.ones(spec.d))
        deq.jacobian_wrt_theta(spec, sol)
    assert calls == []


def test_a_jacobian_of_norm_one_reads_the_exact_condition_number(monkeypatch):
    spec = scalar_cycle_spec()
    sol = solve_equilibrium(spec, [0.5], TIGHT)
    inject_state_jacobian(monkeypatch, [[0.0, -1.0], [1.0, 0.0]])  # ||J||_1 = ||J^2||_1 = 1
    calls = count_inverses(monkeypatch)
    deq.implicit_vjp(spec, sol, [1.0, 0.0])
    assert calls == ["cond"]


def norm_product_cond(lhs):
    """The 1-norm condition number as the product of the norms of lhs and its inverse,
    read through np.linalg.cond when the inverse does not exist."""
    try:
        inv = np.linalg.inv(lhs)
    except np.linalg.LinAlgError:
        return np.linalg.cond(lhs, 1)
    return np.linalg.norm(lhs, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1))


@pytest.mark.parametrize("rows, j_x, singular", [
    (None, np.full((GATE_D, GATE_D), 0.3), False),
    (None, np.eye(GATE_D), True),
    (2, np.stack([np.full((GATE_D, GATE_D), 0.3), np.eye(GATE_D)]), [False, True]),
])
def test_the_condition_number_equals_the_norm_product(monkeypatch, rows, j_x, singular):
    spec, sols = gate_model()
    sol = sols[rows]
    inject_state_jacobian(monkeypatch, j_x)
    lin = sscm.Linearization(spec, sol.x_star, sol.theta)
    want = norm_product_cond(np.eye(GATE_D) - j_x)
    assert np.asarray(lin.cond).tobytes() == np.asarray(want).tobytes()
    assert np.isinf(lin.cond).tolist() == singular


def unconverged_cycle():
    spec = scalar_cycle_spec()
    sol = solve_equilibrium(spec, [0.5], SolverConfig(tol=1e-10, max_iter=1))
    assert not sol.report.converged
    return spec, sol


def test_refuses_unconverged_equilibrium(monkeypatch):
    spec, sol = unconverged_cycle()
    calls = count_calls(monkeypatch, "node_gradients")
    with pytest.raises(NotConverged):
        deq.implicit_vjp(spec, sol, [1.0, 0.0])
    assert calls == {"node_gradients": 0}


def test_jacobian_wrt_theta_refuses_unconverged_equilibrium(monkeypatch):
    spec, sol = unconverged_cycle()
    calls = count_calls(monkeypatch, "node_gradients")
    with pytest.raises(NotConverged):
        deq.jacobian_wrt_theta(spec, sol)
    assert calls == {"node_gradients": 0}


def test_grad_check_affine_model():
    spec = leontief_spec(np.array([[0.0, 0.2], [0.3, 0.0]]), np.array([1.0, 1.0]))
    rep = deq.grad_check(spec, np.array([1.0, 1.0]), sum_loss(2), SolverConfig(tol=1e-8), h=1e-4)
    assert rep.max_rel_deviation < 1e-6


def test_grad_check_constant_loss():
    b = ExprBuilder()
    b.input("x", 3)
    const_loss = b.build(b.const([7.0]))
    rep = deq.grad_check(motivating_spec(), THETA_REF, const_loss, SolverConfig(tol=1e-8))
    np.testing.assert_allclose(rep.implicit_grad, np.zeros(4), atol=1e-12)
    np.testing.assert_allclose(rep.fd_grad, np.zeros(4), atol=1e-12)


def test_grad_check_degrades_gracefully_with_loose_tol():
    spec = motivating_spec()
    loss = sum_loss(3)
    tight = deq.grad_check(spec, THETA_REF, loss, SolverConfig(tol=1e-10), h=1e-4)
    loose = deq.grad_check(spec, THETA_REF, loss, SolverConfig(tol=1e-3), h=1e-4)
    assert tight.max_rel_deviation <= loose.max_rel_deviation + 1e-12
    assert tight.max_rel_deviation < 1e-6
