import numpy as np
import pytest

from eqcausal import deq, modelzoo, sscm
from eqcausal.diffcore import ExprBuilder
from eqcausal.errors import NotConverged, SingularAdjoint, SingularMatrix
from eqcausal.fixedpoint import SolverConfig
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
    ([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], "singular"),  # LinAlgError in the factorization
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


def test_jacobian_wrt_theta_raises_on_singular_adjoint(monkeypatch):
    spec = scalar_cycle_spec()
    sol = solve_equilibrium(spec, [0.5], TIGHT)
    inject_state_jacobian(monkeypatch, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SingularAdjoint):
        deq.jacobian_wrt_theta(spec, sol)


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
