import numpy as np
import pytest

from eqcausal import sscm
from eqcausal.diffcore import ExprBuilder
from eqcausal.fixedpoint import SolverConfig
from eqcausal.sscm import SscmSpec, assemble_map, check_local_diffeomorphism, solve_equilibrium, validate

from ._models import THETA_REF, leontief_spec, motivating_spec


def test_validate_well_formed():
    assert validate(motivating_spec()) == []


def test_validate_out_of_range_parent():
    spec = motivating_spec()
    bad = sscm.SscmSpec(spec.names, ((5,), (0, 2), (1,)), spec.assignments,
                        spec.theta_ref, spec.theta_box, spec.theta_slices)
    diags = validate(bad)
    assert any("out of range" in d for d in diags)


def test_validate_arity_mismatch():
    spec = motivating_spec()
    # drop one declared parent of node y while the graph still expects two
    bad = sscm.SscmSpec(spec.names, ((), (0,), (1,)), spec.assignments,
                        spec.theta_ref, spec.theta_box, spec.theta_slices)
    diags = validate(bad)
    assert any("parents slot dim" in d for d in diags)


def test_validate_theta_outside_box():
    spec = motivating_spec()
    bad = sscm.SscmSpec(spec.names, spec.parents, spec.assignments,
                        np.array([10.0, 0.5, 0.3, 0.4]), spec.theta_box, spec.theta_slices)
    assert any("theta_ref outside" in d for d in validate(bad))


def test_assemble_map_hand_values():
    f = assemble_map(motivating_spec(), THETA_REF)
    np.testing.assert_allclose(f(np.array([1.0, 1.0, 1.0])), [1.0, 0.8, 0.4])


def test_assemble_map_leontief_is_affine():
    A = np.array([[0.0, 0.2], [0.3, 0.0]])
    y = np.array([1.0, 1.0])
    f = assemble_map(leontief_spec(A, y), y)
    for x in (np.zeros(2), np.array([1.0, 2.0]), np.array([-0.5, 0.25])):
        np.testing.assert_allclose(f(x), A @ x + y, atol=1e-14)


def test_solve_motivating_example_matches_closed_form():
    sol = solve_equilibrium(motivating_spec(), THETA_REF, SolverConfig(tol=1e-8))
    assert sol.report.converged
    np.testing.assert_allclose(sol.x_star, [1.0, 0.5681818181818181, 0.22727272727272724], atol=1e-6)


def test_solve_leontief_matches_inversion_oracle():
    A = np.array([[0.1, 0.2], [0.3, 0.1]])
    y = np.array([1.0, 1.0])
    spec = leontief_spec(A, y)  # zero-diagonal variant of the same fixture
    A0 = A.copy()
    np.fill_diagonal(A0, 0.0)
    cfg = SolverConfig()
    sol = solve_equilibrium(spec, y, cfg)
    oracle = np.linalg.solve(np.eye(2) - A0, y)
    assert np.linalg.norm(sol.x_star - oracle) / np.linalg.norm(oracle) <= 10 * cfg.tol


def test_solve_zero_coupling_returns_demand():
    y = np.array([0.7, 1.3])
    sol = solve_equilibrium(leontief_spec(np.zeros((2, 2)), y), y, SolverConfig())
    np.testing.assert_allclose(sol.x_star, y, atol=1e-10)


def test_fixed_point_property_of_solution():
    spec = motivating_spec()
    cfg = SolverConfig()
    sol = solve_equilibrium(spec, THETA_REF, cfg)
    f = assemble_map(spec, THETA_REF)
    res = np.linalg.norm(sol.x_star - f(sol.x_star)) / np.linalg.norm(sol.x_star)
    assert res <= cfg.tol


def test_diffeo_check_leontief_invertible():
    A = np.array([[0.0, 0.2], [0.3, 0.0]])
    y = np.array([1.0, 1.0])
    spec = leontief_spec(A, y)
    x_star = np.linalg.solve(np.eye(2) - A, y)
    rep = check_local_diffeomorphism(spec, x_star, y)
    assert rep.is_solution and rep.jacobian_invertible


def test_diffeo_check_singular_at_beta_gamma_one():
    # beta * gamma = 1 makes det(I - df/dx) = 1 - beta*gamma = 0
    sympy = pytest.importorskip("sympy")
    a, bta, gma = sympy.symbols("alpha beta gamma")
    J = sympy.Matrix([[1, 0, 0], [-a, 1, -bta], [0, -gma, 1]])
    assert sympy.simplify(J.det() - (1 - bta * gma)) == 0

    spec = motivating_spec()
    theta = np.array([1.0, 0.5, 2.0, 0.5])  # beta=2, gamma=0.5; box irrelevant for the check
    wide = sscm.SscmSpec(spec.names, spec.parents, spec.assignments, theta,
                         np.array([[0.0, 3.0]] * 4), spec.theta_slices)
    x = np.array([1.0, 1.0, 0.5])
    rep = check_local_diffeomorphism(wide, x, theta, cond_max=1e8)
    assert not rep.jacobian_invertible


def test_diffeo_check_constant_map_condition_one():
    b = ExprBuilder()
    t = b.input("theta", 1)
    g = b.build(t)
    spec = SscmSpec(("a",), ((),), (g,), np.array([2.0]), np.array([[0.0, 4.0]]), ((0, 1),))
    rep = check_local_diffeomorphism(spec, np.array([2.0]), np.array([2.0]))
    assert rep.is_solution
    assert rep.condition_number == pytest.approx(1.0)


def test_solvability_and_continuity_near_reference():
    spec = motivating_spec()
    cfg = SolverConfig(tol=1e-10)
    x_ref = solve_equilibrium(spec, THETA_REF, cfg).x_star
    rep = check_local_diffeomorphism(spec, x_ref, THETA_REF)
    assert rep.jacobian_invertible

    jac_x = sscm.jacobian_wrt_state(spec, x_ref, THETA_REF)
    grads = sscm.node_gradients(spec, x_ref, THETA_REF)
    jac_theta = np.zeros((spec.d, spec.theta_dim))
    for j, g in enumerate(grads):
        part = g.get("theta")
        if part is not None:
            start, stop = spec.theta_slices[j]
            jac_theta[j, start:stop] = part
    slope_bound = np.linalg.norm(np.linalg.solve(np.eye(spec.d) - jac_x, jac_theta), 2)

    rng = np.random.default_rng(5)
    for scale in (1e-2, 1e-3, 1e-4):
        delta = rng.normal(size=4)
        delta *= scale / np.linalg.norm(delta)
        sol = solve_equilibrium(spec, THETA_REF + delta, cfg)
        assert sol.report.converged
        move = np.linalg.norm(sol.x_star - x_ref)
        assert move <= (slope_bound + 0.1) * np.linalg.norm(delta) + 10 * cfg.tol


def test_json_roundtrip_bit_exact():
    spec = motivating_spec()
    text = sscm.spec_to_json(spec)
    spec2 = sscm.spec_from_json(text)
    assert sscm.spec_to_json(spec2) == text
    assert spec2.theta_ref.tobytes() == spec.theta_ref.tobytes()
    sol1 = solve_equilibrium(spec, THETA_REF, SolverConfig())
    sol2 = solve_equilibrium(spec2, THETA_REF, SolverConfig())
    assert sol1.x_star.tobytes() == sol2.x_star.tobytes()


def test_solve_rejects_invalid_spec():
    spec = motivating_spec()
    bad = sscm.SscmSpec(spec.names, ((9,), (0, 2), (1,)), spec.assignments,
                        spec.theta_ref, spec.theta_box, spec.theta_slices)
    with pytest.raises(sscm.SpecValidationError):
        solve_equilibrium(bad, THETA_REF, SolverConfig())


def count_validate_calls(monkeypatch):
    calls = []
    original = sscm.validate

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(sscm, "validate", counting)
    return calls


def test_valid_spec_is_validated_once(monkeypatch):
    calls = count_validate_calls(monkeypatch)
    spec = motivating_spec()
    for _ in range(3):
        assemble_map(spec, THETA_REF)
    x = solve_equilibrium(spec, THETA_REF, SolverConfig(tol=1e-10, beta=1.0)).x_star
    check_local_diffeomorphism(spec, x, THETA_REF)
    assert calls == [spec]
    other = spec.with_u(spec.u_ref)  # a new spec object is validated afresh
    assemble_map(other, THETA_REF)
    assert calls == [spec, other]


def test_invalid_spec_raises_on_every_call(monkeypatch):
    calls = count_validate_calls(monkeypatch)
    spec = motivating_spec()
    bad = sscm.SscmSpec(spec.names, ((9,), (0, 2), (1,)), spec.assignments,
                        spec.theta_ref, spec.theta_box, spec.theta_slices)
    for _ in range(3):
        with pytest.raises(sscm.SpecValidationError):
            assemble_map(bad, THETA_REF)
    assert len(calls) == 3
