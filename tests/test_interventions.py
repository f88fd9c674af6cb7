import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcausal import deq, interventions, modelzoo, sscm
from eqcausal.diffcore import ExprBuilder
from eqcausal.errors import (EqcausalError, InvalidGroupElement, InvalidPartition, MismatchedTargets,
                             NotConverged, PolicyArityMismatch)
from eqcausal.fixedpoint import SolverConfig
from eqcausal.interventions import (CompartmentPlan, InvariantInterventionSpec, LieElement,
                                    apply, build_invariant_model, check_compartmentalization,
                                    check_invariance_conditions, compose,
                                    hard_intervention_derivative, identity, inverse)
from eqcausal.sscm import solve_equilibrium

from ._models import THETA_REF, inject_state_jacobian, leontief_spec, motivating_spec

TIGHT = SolverConfig(tol=1e-10)

pos = st.floats(0.1, 10.0)
real = st.floats(-5.0, 5.0)


def test_identity_compose_inverse_trivials():
    g = LieElement("multiplicative", (0, 1), [2.0, 0.5])
    gi = inverse(g)
    np.testing.assert_array_equal(compose(g, gi).values, [1.0, 1.0])
    np.testing.assert_array_equal(compose(g, LieElement("multiplicative", (0, 1), [0.5, 2.0])).values, [1.0, 1.0])
    np.testing.assert_array_equal(inverse(LieElement("additive", (0, 1), [1.0, -1.0])).values, [-1.0, 1.0])


@settings(max_examples=40)
@given(a=pos, b=pos, c=pos)
def test_multiplicative_group_axioms(a, b, c):
    t = (0, 2)
    g1 = LieElement("multiplicative", t, [a, b])
    g2 = LieElement("multiplicative", t, [b, c])
    g3 = LieElement("multiplicative", t, [c, a])
    left = compose(compose(g1, g2), g3)
    right = compose(g1, compose(g2, g3))
    np.testing.assert_allclose(left.values, right.values, rtol=1e-12)
    e = identity("multiplicative", t)
    np.testing.assert_array_equal(compose(e, g1).values, g1.values)
    np.testing.assert_allclose(compose(g1, inverse(g1)).values, e.values, rtol=1e-12)


@settings(max_examples=40)
@given(a=real, b=real, c=real)
def test_additive_group_axioms(a, b, c):
    t = (1,)
    g1, g2, g3 = (LieElement("additive", t, [v]) for v in (a, b, c))
    np.testing.assert_allclose(compose(compose(g1, g2), g3).values,
                               compose(g1, compose(g2, g3)).values, atol=1e-12)
    e = identity("additive", t)
    np.testing.assert_array_equal(compose(e, g1).values, g1.values)
    np.testing.assert_allclose(compose(g1, inverse(g1)).values, e.values, atol=1e-12)


def test_multiplicative_values_must_be_positive():
    with pytest.raises(ValueError):
        LieElement("multiplicative", (0,), [-1.0])
    with pytest.raises(ValueError):
        LieElement("multiplicative", (0,), [0.0])


def test_invalid_group_element_is_a_typed_error():
    for group, values in (("multiplicative", [0.0]), ("rotation", [1.0])):
        with pytest.raises(InvalidGroupElement) as info:
            LieElement(group, (0,), values)
        assert isinstance(info.value, EqcausalError)


def test_compose_mismatched_targets():
    with pytest.raises(MismatchedTargets):
        compose(LieElement("additive", (0,), [1.0]), LieElement("additive", (1,), [1.0]))
    with pytest.raises(MismatchedTargets):
        compose(LieElement("additive", (0,), [1.0]), LieElement("multiplicative", (0,), [1.0]))


def test_apply_identity_preserves_equilibrium():
    spec = motivating_spec()
    cfg = SolverConfig()
    base = solve_equilibrium(spec, THETA_REF, cfg)
    ident = apply(spec, identity("multiplicative", (1, 2)))
    out = solve_equilibrium(ident, THETA_REF, cfg)
    assert np.linalg.norm(out.x_star - base.x_star) <= 10 * cfg.tol * np.linalg.norm(base.x_star)


def test_apply_matches_intervened_closed_form():
    spec = motivating_spec()
    applied = apply(spec, LieElement("multiplicative", (1, 2), [2.0, 1.0]))
    sol = solve_equilibrium(applied, THETA_REF, TIGHT)
    oracle = modelzoo.motivating_closed_form(1.0, 0.5, 0.3, 0.4, u_y=2.0, u_z=1.0)
    np.testing.assert_allclose(sol.x_star, oracle, atol=1e-8)
    assert sol.x_star[1] == pytest.approx(2.0 * 0.5 / (1.0 - 2.0 * 0.12), abs=1e-8)  # ~1.31579


def test_apply_leontief_scales_assignments():
    A = np.array([[0.0, 0.2], [0.3, 0.0]])
    y = np.array([1.0, 1.0])
    spec = leontief_spec(A, y)
    alpha = np.array([0.8, 1.1])
    applied = apply(spec, LieElement("multiplicative", (0, 1), alpha))
    sol = solve_equilibrium(applied, y, TIGHT)
    residual = sol.x_star - alpha * (A @ sol.x_star + y)
    assert np.linalg.norm(residual) < 1e-8


def test_action_compatibility():
    spec = motivating_spec()
    g = LieElement("multiplicative", (1, 2), [1.3, 0.9])
    h = LieElement("multiplicative", (1, 2), [0.8, 1.2])
    cfg = SolverConfig()
    two_step = solve_equilibrium(apply(apply(spec, g), h), THETA_REF, cfg)
    one_step = solve_equilibrium(apply(spec, compose(h, g)), THETA_REF, cfg)
    scale = np.linalg.norm(one_step.x_star)
    assert np.linalg.norm(two_step.x_star - one_step.x_star) <= 10 * cfg.tol * scale


def test_apply_preserves_structure():
    spec = motivating_spec()
    applied = apply(spec, LieElement("additive", (0, 2), [0.5, -0.2]))
    assert applied.parents == spec.parents
    assert applied.names == spec.names
    assert applied.d == spec.d


def test_apply_rejects_bad_targets():
    with pytest.raises(MismatchedTargets):
        apply(motivating_spec(), LieElement("multiplicative", (7,), [2.0]))


def test_repeated_targets_rejected():
    # one value per node: apply would keep only the last of a repeated target's values
    for group in ("multiplicative", "additive"):
        with pytest.raises(MismatchedTargets):
            LieElement(group, (0, 0), [0.5, 2.0])


def test_hard_intervention_derivative_motivating():
    spec = motivating_spec()
    # clamping z makes y* = alpha*tau + beta*lambda, so dy/dlambda = beta
    deriv = hard_intervention_derivative(spec, j=1, k=2, theta=THETA_REF)
    assert deriv == pytest.approx(0.3, abs=1e-8)


def test_hard_intervention_derivative_no_path_is_zero():
    spec = motivating_spec()
    assert hard_intervention_derivative(spec, j=0, k=2, theta=THETA_REF) == pytest.approx(0.0, abs=1e-12)


def test_hard_intervention_derivative_matches_fd():
    spec = motivating_spec()
    cfg = TIGHT
    deriv = hard_intervention_derivative(spec, j=1, k=2, theta=THETA_REF, cfg=cfg)
    base = solve_equilibrium(spec, THETA_REF, cfg)
    lam0 = base.x_star[2]
    h = 1e-6
    clamped, _ = interventions.clamp_node(spec, 2, THETA_REF, lam0)
    up = solve_equilibrium(clamped, np.concatenate([THETA_REF, [lam0 + h]]), cfg).x_star[1]
    dn = solve_equilibrium(clamped, np.concatenate([THETA_REF, [lam0 - h]]), cfg).x_star[1]
    assert deriv == pytest.approx((up - dn) / (2 * h), abs=1e-5)


def test_invariance_conditions_pass_with_single_free_parameter():
    spec = modelzoo.motivating_example(free=("tau",))
    rep = check_invariance_conditions(spec, i=1, j=2, k=2)
    assert rep.all_pass
    # the single-column Jacobian rows are the equilibrium response of z's
    # parent (y) to tau: alpha / (1 - beta*gamma)
    assert rep.parents_jacobian_sigma_min == pytest.approx(0.5 / 0.88, rel=1e-6)
    assert rep.hard_derivative == pytest.approx(1.0, abs=1e-9)  # j == k clamps directly


def test_invariance_conditions_rank_fails_with_four_free_parameters():
    spec = modelzoo.motivating_example()
    rep = check_invariance_conditions(spec, i=1, j=2, k=2)
    assert not rep.parents_jacobian_full_rank  # one parent row, four columns
    assert not rep.all_pass


def test_invariance_conditions_derivative_fails_without_path():
    spec = modelzoo.motivating_example(free=("tau",))
    # invariant x, auxiliary z: clamping z never moves x
    rep = check_invariance_conditions(spec, i=1, j=0, k=2)
    assert not rep.hard_derivative_nonzero


def test_invariance_conditions_linearize_the_base_model_once(monkeypatch):
    calls = []
    original = sscm.node_gradients

    def counting(spec, *args, **kwargs):
        calls.append(spec.d)
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(sscm, "node_gradients", counting)
    check_invariance_conditions(modelzoo.motivating_example(free=("tau",)), i=1, j=2, k=2)
    assert len(calls) == 2  # the base model, then the model clamped at the auxiliary node


@pytest.mark.parametrize("free,j", [(("tau",), 2), (("tau",), 0), (None, 2)])
def test_invariance_report_matches_the_separate_checks(free, j):
    spec = modelzoo.motivating_example(free=free) if free else modelzoo.motivating_example()
    cfg = SolverConfig(tol=1e-10)
    theta = spec.theta_ref
    rep = check_invariance_conditions(spec, i=1, j=j, k=2)
    sol = solve_equilibrium(spec, theta, cfg)
    diffeo = sscm.check_local_diffeomorphism(spec, sol.x_star, theta, tol=cfg.tol)
    keep = [n for n in range(spec.d) if n != j]
    reduced = (np.eye(spec.d) - sscm.node_jacobians(spec, sol.x_star, theta).x)[np.ix_(keep, keep)]
    pa_rows = deq.jacobian_wrt_theta(spec, sol)[list(spec.parents[2]), :]
    sigma = np.linalg.svd(pa_rows, compute_uv=False)
    assert rep.diffeomorphic_at_reference == (diffeo.is_solution and diffeo.jacobian_invertible)
    assert rep.reduced_condition_number == pytest.approx(np.linalg.cond(reduced, 1), rel=1e-12)
    expected_sigma = sigma[spec.theta_dim - 1] if pa_rows.shape[0] >= spec.theta_dim else 0.0
    assert rep.parents_jacobian_sigma_min == pytest.approx(expected_sigma, rel=1e-12, abs=1e-12)
    assert rep.hard_derivative == pytest.approx(
        hard_intervention_derivative(spec, j, 2, theta, cfg), rel=1e-12, abs=1e-12)


def test_ill_conditioned_reference_is_a_verdict_not_an_error():
    # beta * gamma = 0.999999999: the 1-norm condition number of I - df/dx is 4e9
    rep = check_invariance_conditions(modelzoo.motivating_example(), i=1, j=2, k=2,
                                      theta_ref=np.array([1.0, 0.5, 1.0, 0.999999999]))
    assert not rep.diffeomorphic_at_reference
    assert not rep.all_pass


def test_ill_conditioned_reference_alone_fails_all_pass():
    spec = modelzoo.motivating_example(beta=1.0, gamma=0.999999999, free=("tau",))
    rep = check_invariance_conditions(spec, i=1, j=2, k=2)
    assert rep.reduced_jacobian_invertible and rep.parents_jacobian_full_rank
    assert rep.hard_derivative_nonzero
    assert not rep.diffeomorphic_at_reference
    assert not rep.all_pass


def test_singular_reference_has_no_parents_jacobian(monkeypatch):
    inject_state_jacobian(monkeypatch, on_calls={0})  # I - df/dx = 0 at the base equilibrium only
    rep = check_invariance_conditions(modelzoo.motivating_example(free=("tau",)), i=1, j=2, k=2)
    assert not rep.diffeomorphic_at_reference
    assert rep.parents_jacobian_sigma_min == 0.0 and not rep.parents_jacobian_full_rank
    assert not rep.all_pass


def test_invariance_conditions_refuse_an_unconverged_base():
    with pytest.raises(NotConverged):
        check_invariance_conditions(modelzoo.motivating_example(free=("tau",)), i=1, j=2, k=2,
                                    cfg=SolverConfig(tol=1e-12, max_iter=1))


def analytic_policy_graph():
    # f_z^(u)(y, u_y) = (1 / u_y) * gamma * y, with gamma owned by node z's theta slice
    b = ExprBuilder()
    p = b.input("parents", 1)
    u = b.input("u", 1)
    t = b.input("theta", 1)
    return b.build(b.recip(u) * t * p)


def motivating_twin(u_y):
    spec = motivating_spec()
    plan = InvariantInterventionSpec(intervened=1, invariant=2, auxiliary=2,
                                     policy=analytic_policy_graph())
    return build_invariant_model(spec, plan, LieElement("multiplicative", (1,), [u_y]))


def test_analytic_policy_gives_exact_invariance():
    twin = motivating_twin(2.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        theta = np.array([rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.8),
                          rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.7)])
        for u_y in (0.5, 1.0, 2.0):
            u = twin.assemble_u([[u_y]])
            z_star = modelzoo.motivating_closed_form(*theta)[2]
            dep = solve_equilibrium(twin.deployed, theta, TIGHT, u=u)
            _, rer = twin.solve_pair(theta, u, TIGHT)
            assert abs(dep.x_star[2] - z_star) < 1e-8
            assert abs(rer.x_star[2] - z_star) < 1e-8


def test_identity_u_with_original_policy_reproduces_equilibrium():
    spec = motivating_spec()
    b = ExprBuilder()
    p = b.input("parents", 1)
    t = b.input("theta", 1)
    b.input("u", 1)  # declared but unused: policy coincides with the original assignment
    policy = b.build(t * p)
    plan = InvariantInterventionSpec(1, 2, 2, policy)
    twin = build_invariant_model(spec, plan, identity("multiplicative", (1,)))
    cfg = SolverConfig()
    base = solve_equilibrium(twin.base, THETA_REF, cfg)
    dep = solve_equilibrium(twin.deployed, THETA_REF, cfg, u=twin.assemble_u([[1.0]]))
    assert np.linalg.norm(dep.x_star - base.x_star) <= 10 * cfg.tol * np.linalg.norm(base.x_star)


def test_policy_arity_mismatch_detected():
    spec = motivating_spec()
    b = ExprBuilder()
    p = b.input("parents", 2)  # node z has one parent
    policy = b.build(b.dot(p, p))
    plan = InvariantInterventionSpec(1, 2, 2, policy)
    with pytest.raises(PolicyArityMismatch):
        build_invariant_model(spec, plan, identity("multiplicative", (1,)))


def test_plan_rejects_overlapping_triple():
    b = ExprBuilder()
    policy = b.build(b.input("parents", 1))
    with pytest.raises(ValueError):
        InvariantInterventionSpec(intervened=2, invariant=2, auxiliary=2, policy=policy)


def exact_compartment_policies(inst, cfg):
    """Affine policies undoing the multiplicative wrap on the invariant nodes' parents."""
    def affine_policy(m, c):
        b = ExprBuilder()
        p = b.input("parents", 1)
        u = b.input("u", 1)
        return b.build(b.const([m]) * b.recip(u) * p + b.const([c]))
    # in this instance the exact policies recover f_k applied to the
    # unintervened parent value: weight and intercept of nodes 1 and 4
    return (
        InvariantInterventionSpec(0, 1, 1, affine_policy(0.6, 0.4)),
        InvariantInterventionSpec(3, 4, 4, affine_policy(0.6, 0.3)),
    )


def compartment_twin(spec, plan):
    return build_invariant_model(spec, plan.plans, [identity(p.group, (p.intervened,)) for p in plan.plans])


def test_compartment_structure_of_frozen_instance():
    inst = modelzoo.two_compartment_model()
    assert interventions.compartment_structure_violations(inst.spec, inst.plan) == []


def test_compartmentalization_identity_interventions_zero_deviation():
    inst = modelzoo.two_compartment_model()
    cfg = SolverConfig(tol=1e-9)
    plans = exact_compartment_policies(inst, cfg)
    plan = CompartmentPlan(inst.plan.compartments, plans)
    rep = check_compartmentalization(compartment_twin(inst.spec, plan), plan,
                                     [np.array([0.6])], [np.array([1.0]), np.array([1.0])], cfg)
    assert rep.structural_ok
    assert max(rep.cross_deviation) < 1e-6


def test_compartmentalization_exact_linear_policies():
    # with invariance enforced exactly, compartment-2 values are independent of u
    inst = modelzoo.two_compartment_model()
    cfg = SolverConfig(tol=1e-10)
    plan = CompartmentPlan(inst.plan.compartments, exact_compartment_policies(inst, cfg))
    grid = np.array([0.8, 1.0, 1.25])
    rep = check_compartmentalization(compartment_twin(inst.spec, plan), plan,
                                     [np.array([0.45]), np.array([0.75])], [grid, grid], cfg)
    assert rep.structural_ok
    assert max(rep.cross_deviation) < 1e-7
    assert min(rep.own_response) > 0.1


def test_compartmentalization_solves_one_base_and_the_deployed_grid(monkeypatch):
    inst = modelzoo.two_compartment_model()
    calls = []

    def counting(spec, *args, **kwargs):
        calls.append("base" if spec is inst.spec else "rerouted" if spec.extern_dim else "deployed")
        return solve_equilibrium(spec, *args, **kwargs)

    monkeypatch.setattr(interventions, "solve_equilibrium", counting)
    plan = CompartmentPlan(inst.plan.compartments, exact_compartment_policies(inst, None))
    grid = np.array([0.8, 1.0, 1.25])
    twin = compartment_twin(inst.spec, plan)
    rep = check_compartmentalization(twin, plan, [np.array([0.45]), np.array([0.75])], [grid, grid],
                                     SolverConfig(tol=1e-8))
    assert calls == ["base", "deployed"]  # one batch of both thetas, one of the 2 x 9 grid
    assert rep.deployed_equilibria.shape == (2, 3, 3, inst.spec.d)


@pytest.mark.parametrize("short", ["base", "deployed"])
def test_compartmentalization_refuses_an_unconverged_row(monkeypatch, short):
    inst = modelzoo.two_compartment_model()
    cfg = SolverConfig(tol=1e-8)

    def capped(spec, theta, cfg, **kwargs):  # too few iterations for the `short` batch
        if (spec is inst.spec) == (short == "base"):
            cfg = SolverConfig(tol=cfg.tol, max_iter=2)
        return solve_equilibrium(spec, theta, cfg, **kwargs)

    monkeypatch.setattr(interventions, "solve_equilibrium", capped)
    plan = CompartmentPlan(inst.plan.compartments, exact_compartment_policies(inst, None))
    with pytest.raises(NotConverged):
        check_compartmentalization(compartment_twin(inst.spec, plan), plan, [np.array([0.6])],
                                   [np.array([0.8, 1.25]), np.array([0.8, 1.25])], cfg)


def test_compartmentalization_detects_bad_topology():
    inst = modelzoo.two_compartment_model()
    # swap compartment-1's invariant designation to a node without the outgoing edge
    plans = exact_compartment_policies(inst, None)
    bad = (InvariantInterventionSpec(0, 2, 2, plans[0].policy), plans[1])
    plan = CompartmentPlan(inst.plan.compartments, bad)
    violations = interventions.compartment_structure_violations(inst.spec, plan)
    assert violations  # node 1 feeds compartment 2 but is no longer invariant
    cfg = SolverConfig(tol=1e-8)
    rep = check_compartmentalization(compartment_twin(inst.spec, plan), plan, [np.array([0.6])],
                                     [np.array([0.8, 1.25]), np.array([0.8, 1.25])], cfg)
    assert not rep.structural_ok
    assert max(rep.cross_deviation) > 0.01  # leakage across compartments


def test_compartmentalization_rejects_a_twin_of_other_plans():
    inst = modelzoo.two_compartment_model()
    plan = CompartmentPlan(inst.plan.compartments, exact_compartment_policies(inst, None))
    with pytest.raises(InvalidPartition):
        check_compartmentalization(compartment_twin(inst.spec, inst.plan), plan, [np.array([0.6])],
                                   [np.array([1.0]), np.array([1.0])], SolverConfig(tol=1e-8))


def test_invalid_partition_raises():
    inst = modelzoo.two_compartment_model()
    plan = CompartmentPlan(((0, 1, 2), (3, 4)), inst.plan.plans)
    with pytest.raises(InvalidPartition):
        interventions.compartment_structure_violations(inst.spec, plan)
