import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcausal import deq, diffcore, interventions, modelzoo, optimize, sscm
from eqcausal.diffcore import ExprBuilder, inline
from eqcausal.errors import (ClampedModelSingular, EqcausalError, InvalidGroupElement, InvalidPartition,
                             MismatchedTargets, NotConverged, PolicyArityMismatch, ShapeMismatch)
from eqcausal.fixedpoint import SolverConfig
from eqcausal.interventions import (CompartmentPlan, InvariantInterventionSpec, LieElement,
                                    apply, build_invariant_model, check_compartmentalization,
                                    check_invariance_conditions, compose,
                                    hard_intervention_derivative, identity, inverse)
from eqcausal.sscm import solve_equilibrium, validate

from ._models import (THETA_REF, clamp_node, inject_state_jacobian, leontief_spec, motivating_spec,
                      reference_build_invariant_model, reference_hard_derivative)
from .test_sscm import REBOUND_TWIN, REBOUND_W0, overwritten

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


@pytest.mark.parametrize("group", ["multiplicative", "additive"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_group_element_is_refused(group, value):
    # a NaN passes the positivity check, and apply of it would fail only at the first solve
    with pytest.raises(InvalidGroupElement, match="must be finite"):
        LieElement(group, (0, 1), [1.0, value])


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
    clamped, _ = clamp_node(spec, 2, THETA_REF, lam0)
    up = solve_equilibrium(clamped, np.concatenate([THETA_REF, [lam0 + h]]), cfg).x_star[1]
    dn = solve_equilibrium(clamped, np.concatenate([THETA_REF, [lam0 - h]]), cfg).x_star[1]
    assert deriv == pytest.approx((up - dn) / (2 * h), abs=1e-5)


HARD_DERIVATIVE_PAIRS = {
    "motivating": [(1, 2), (2, 2), (0, 2), (2, 1), (1, 0)],  # (2, 2) is j == k, (0, 2) has no path
    "rebound": [(0, 1), (3, 1), (5, 4), (2, 2), (7, 3)],
    "leontief-synthetic-12": [(0, 5), (11, 3), (4, 4), (7, 0)],
}


def hard_derivative_model(name):
    if name == "motivating":
        return modelzoo.motivating_example()
    if name == "rebound":
        return modelzoo.rebound_3sector().spec
    return modelzoo.leontief_model(modelzoo.leontief_synthetic(12))


@pytest.mark.parametrize("name", sorted(HARD_DERIVATIVE_PAIRS))
def test_the_clamped_derivative_matches_a_resolved_clamped_model(name):
    spec = hard_derivative_model(name)
    sol = solve_equilibrium(spec, spec.theta_ref, TIGHT)
    lin = sscm.Linearization(spec, sol.x_star, sol.theta)
    for j, k in HARD_DERIVATIVE_PAIRS[name]:
        deriv = interventions._clamped_derivative(lin, j, k)
        np.testing.assert_allclose(deriv, reference_hard_derivative(spec, j, k, spec.theta_ref, TIGHT),
                                   rtol=1e-9, err_msg=f"j={j}, k={k}")
        assert hard_intervention_derivative(spec, j, k, spec.theta_ref) == deriv


# I - df/dx = [[1, 1, 0], [1, 1, 1], [0, 1, 1]] is invertible; with row 2 set to e_2 it is singular
SINGULAR_WHEN_CLAMPED = np.eye(3) - np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])


def test_an_ill_conditioned_clamped_system_raises_clamped_model_singular(monkeypatch):
    inject_state_jacobian(monkeypatch, SINGULAR_WHEN_CLAMPED)
    with pytest.raises(ClampedModelSingular, match="condition number inf"):
        hard_intervention_derivative(motivating_spec(), j=1, k=2, theta=THETA_REF)


def test_an_ill_conditioned_clamped_system_is_a_verdict(monkeypatch):
    inject_state_jacobian(monkeypatch, SINGULAR_WHEN_CLAMPED)
    rep = check_invariance_conditions(modelzoo.motivating_example(free=("tau",)), i=0, j=1, k=2)
    assert rep.diffeomorphic_at_reference
    assert rep.hard_derivative == 0.0 and not rep.hard_derivative_nonzero
    assert not rep.all_pass


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
    for module, name in ((interventions, "solve_equilibrium"), (sscm, "node_gradients")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    check_invariance_conditions(modelzoo.motivating_example(free=("tau",)), i=1, j=2, k=2)
    assert calls == ["solve_equilibrium", "node_gradients"]


@pytest.mark.parametrize("bad", [-1, 3, 1.0])
@pytest.mark.parametrize("at", range(3))
def test_invariance_checks_refuse_an_index_that_is_not_a_node(monkeypatch, bad, at):
    # a negative alias would read another node, and one past the end an IndexError
    monkeypatch.setattr(interventions, "solve_equilibrium", lambda *args, **kwargs: pytest.fail("solved"))
    spec = modelzoo.motivating_example(free=("tau",))
    ijk = [0, 1, 2]
    ijk[at] = bad
    with pytest.raises(MismatchedTargets, match=r"nodes .* outside node range 0\.\.2"):
        check_invariance_conditions(spec, *ijk)
    if at:
        with pytest.raises(MismatchedTargets, match=r"nodes .* outside node range 0\.\.2"):
            hard_intervention_derivative(spec, *ijk[1:], theta=spec.theta_ref)


@pytest.mark.parametrize("free,j", [(("tau",), 2), (("tau",), 0), (None, 2)])
def test_invariance_report_matches_the_separate_checks(free, j):
    spec = modelzoo.motivating_example(free=free) if free else modelzoo.motivating_example()
    cfg = SolverConfig(tol=1e-10)
    theta = spec.theta_ref
    rep = check_invariance_conditions(spec, i=1, j=j, k=2)
    sol = solve_equilibrium(spec, theta, cfg)
    diffeo = sscm.check_local_diffeomorphism(spec, sol.x_star, theta, tol=cfg.tol)
    keep = [n for n in range(spec.d) if n != j]
    reduced = (np.eye(spec.d) - sscm.node_gradients(spec, sol.x_star, theta).x)[np.ix_(keep, keep)]
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
    return build_invariant_model(spec, plan.plans, [identity("multiplicative", (p.intervened,)) for p in plan.plans])


def _twin(name):
    """The rebound twin (one invariant node, MLP policy) or the two-compartment twin (two
    invariant nodes), with its policy weights and a u vector."""
    if name == "rebound":
        return REBOUND_TWIN, REBOUND_W0, REBOUND_TWIN.assemble_u([[0.7]])
    inst = modelzoo.two_compartment_model()
    twin = compartment_twin(inst.spec, CompartmentPlan(inst.plan.compartments, exact_compartment_policies(inst, None)))
    return twin, None, twin.assemble_u([[0.7], [1.2]])


@pytest.mark.parametrize("name", ["rebound", "compartment"])
def test_the_twin_solves_its_pair_on_its_one_deployed_program(monkeypatch, name):
    twin, policy, u = _twin(name)
    assert not hasattr(twin, "rerouted")
    calls = []

    def counting(spec, theta, cfg, **kwargs):
        calls.append((spec, kwargs.get("reroute")))
        return solve_equilibrium(spec, theta, cfg, **kwargs)

    monkeypatch.setattr(interventions, "solve_equilibrium", counting)
    base, _ = twin.solve_pair(twin.base.theta_ref, u, TIGHT, policy=policy)
    (base_spec, none), (spec, (nodes, values)) = calls
    assert base_spec is twin.base and none is None and spec is twin.deployed
    assert nodes == twin.invariant_nodes
    assert values.tobytes() == base.x_star[list(nodes)].tobytes()


@pytest.mark.parametrize("name", ["rebound", "compartment"])
@pytest.mark.parametrize("rows", [None, 1, 4, 50])
def test_the_rerouted_state_jacobian_is_zero_in_every_invariant_column(name, rows):
    # and bit-equal to the plain node_gradients at x with the invariant entries overwritten
    twin, policy, u = _twin(name)
    d, inv, theta = twin.base.d, list(twin.invariant_nodes), twin.base.theta_ref
    rng = np.random.default_rng(3)
    x = rng.uniform(0.2, 2.0, d if rows is None else (rows, d))
    values = x[..., inv] * 1.1
    got = sscm.node_gradients(twin.deployed, x, theta, u=u, reroute=(inv, values), policy=policy)
    want = sscm.node_gradients(twin.deployed, overwritten(x, (inv, values)), theta, u=u, policy=policy)
    assert got.x.shape == want.x.shape == x.shape + (d,)
    assert (got.x[..., inv] == 0.0).all() and want.x[..., inv].any()
    rest = [n for n in range(d) if n not in inv]
    assert got.x[..., rest].tobytes() == want.x[..., rest].tobytes()
    for field in ("theta", "u", "policy"):
        assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(want, field)).tobytes()


@pytest.mark.parametrize("name", ["rebound", "compartment"])
@pytest.mark.parametrize("rows", [None, 1, 4, 50])
def test_a_rerouted_map_is_the_plain_map_at_the_overwritten_x(name, rows):
    # on the first call, the call that binds the steps and the calls after it; moving the
    # invariant entries of x changes no bit of the output
    twin, policy, u = _twin(name)
    d, inv = twin.base.d, list(twin.invariant_nodes)
    rng = np.random.default_rng(9)
    lead = () if rows is None else (rows,)
    theta = twin.base.theta_ref * rng.uniform(0.9, 1.1, lead + (twin.base.theta_dim,))
    reroute = (twin.invariant_nodes, rng.uniform(0.5, 2.0, lead + (len(inv),)))
    f = sscm.assemble_map(twin.deployed, theta, u=u, reroute=reroute, policy=policy)
    plain = sscm.assemble_map(twin.deployed, theta, u=u, policy=policy)
    x = rng.uniform(0.2, 2.0, lead + (d,))
    for _ in range(4):
        moved = x.copy()
        moved[..., inv] = rng.uniform(0.2, 2.0, lead + (len(inv),))
        got = f(x)
        assert got.tobytes() == f(moved).tobytes()
        assert got.tobytes() == plain(overwritten(x, reroute)).tobytes()
        x = rng.uniform(0.2, 2.0, lead + (d,))


@pytest.mark.parametrize("name", ["rebound", "compartment"])
@pytest.mark.parametrize("rows", [None, 1, 4, 50])
def test_reroute_changed_in_place_after_assembly_does_not_reach_later_calls(name, rows):
    twin, policy, u = _twin(name)
    d, k = twin.base.d, len(twin.invariant_nodes)
    rng = np.random.default_rng(4)
    lead = () if rows is None else (rows,)
    nodes, values = np.array(twin.invariant_nodes), rng.uniform(0.5, 2.0, lead + (k,))
    x = rng.uniform(0.2, 2.0, lead + (d,))
    want = sscm.assemble_map(twin.deployed, twin.base.theta_ref, u=u, reroute=(nodes, values.copy()),
                             policy=policy)(x)
    f = sscm.assemble_map(twin.deployed, twin.base.theta_ref, u=u, reroute=(nodes, values), policy=policy)
    values += 0.25
    nodes[:] = [n for n in range(d) if n not in twin.invariant_nodes][:k]
    for _ in range(3):
        assert f(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["rebound", "compartment"])
def test_a_bad_reroute_is_a_shape_mismatch(name):
    twin, policy, u = _twin(name)
    d, inv = twin.base.d, list(twin.invariant_nodes)
    theta = twin.base.theta_ref
    kwargs = {"u": u, "policy": policy}
    bad = [([d], [1.0]), ([-1], [1.0]), ([inv[0], inv[0]], [1.0, 1.0]), ([0.5], [1.0]),
           (inv, np.ones(len(inv) + 1)), (inv, np.ones((2, len(inv) + 1))), (inv, np.ones((2, 3, len(inv))))]
    for reroute in bad:
        with pytest.raises(ShapeMismatch):
            sscm.assemble_map(twin.deployed, theta, reroute=reroute, **kwargs)
        with pytest.raises(ShapeMismatch):
            sscm.node_gradients(twin.deployed, np.ones(d), theta, reroute=reroute, **kwargs)
    # values in 3 rows against x or theta in 4: at the first call, and after other calls
    three = (inv, np.ones((3, len(inv))))
    f = sscm.assemble_map(twin.deployed, theta, reroute=three, **kwargs)
    f(np.ones(d))
    f(np.ones(d))
    with pytest.raises(ShapeMismatch, match="in 3 rows"):
        f(np.ones((4, d)))
    with pytest.raises(ShapeMismatch):
        sscm.node_gradients(twin.deployed, np.ones((4, d)), theta, reroute=three, **kwargs)
    with pytest.raises(ShapeMismatch):
        solve_equilibrium(twin.deployed, np.tile(theta, (4, 1)), TIGHT, reroute=three, **kwargs)


@pytest.mark.parametrize("which", ["rerouted", "deployed"])
def test_twin_specs_solve_to_equal_bits_after_a_json_round_trip(which):
    twin, policy, u = _twin("rebound")
    theta = twin.base.theta_ref
    kwargs = {"u": u, "policy": policy}
    if which == "rerouted":
        base = solve_equilibrium(twin.base, theta, TIGHT).x_star
        kwargs["reroute"] = (twin.invariant_nodes, base[list(twin.invariant_nodes)])
    spec = twin.deployed
    loaded = sscm.spec_from_json(sscm.spec_to_json(spec))
    assert loaded.parents == spec.parents
    got, want = (solve_equilibrium(s, theta, TIGHT, **kwargs) for s in (loaded, spec))
    assert want.report.converged
    assert got.x_star.tobytes() == want.x_star.tobytes()
    assert got.report.iterations == want.report.iterations


def test_a_spec_json_with_parents_past_d_fails_validation():
    # a rerouted twin's spec in the format that listed invariant parents as d + i
    obj = json.loads(sscm.spec_to_json(motivating_twin(2.0).deployed))
    assert obj["parents"][1] == [0, 2] and "extern_dim" not in obj
    obj["parents"][1], obj["extern_dim"] = [0, 3], 1
    assert validate(sscm.spec_from_json(json.dumps(obj))) == ["node 1: parent 3 out of range"]


def test_assemble_u_refuses_plan_values_of_another_count_or_length():
    twin, _, _ = _twin("compartment")
    for values, message in (([[0.9]], "values for 1 plans, the twin has 2"),
                             ([[0.9], [1.1], [1.0]], "values for 3 plans, the twin has 2"),
                             ([[0.9, 1.1], [1.0]], "plan 0: 2 values for its 1 u components"),
                             ([[0.9], []], "plan 1: 0 values for its 1 u components")):
        with pytest.raises(ShapeMismatch, match=message):
            twin.assemble_u(values)
    u = twin.assemble_u(iter([[0.9], np.array([1.1])]))
    assert [u[a:b].tolist() for a, b in twin.u_slices] == [[0.9], [1.1]]


def test_validate_refuses_an_extern_slot():
    spec = motivating_spec()
    b = ExprBuilder()
    reads_extern = b.build(b.input("extern", 1))
    bad = replace(spec, assignments=(reads_extern,) + spec.assignments[1:])
    assert validate(bad) == ["node 0: unknown slot 'extern'"]


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
        calls.append("base" if spec is inst.spec else "rerouted" if "reroute" in kwargs else "deployed")
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


# --- the one-pass twin against the chained build ---

def _rebound_parts(value):
    inst = modelzoo.rebound_3sector()
    mlp = inst.policy_mlp()
    policy, w0 = optimize.build_mlp_policy(mlp, 1, 1)
    return inst, inst.plan(policy, mlp.n_weights), LieElement("multiplicative", (inst.energy_sector,), [value]), w0


def _twin_args(name):
    """(spec, plans, elements, policy weights) of one pinned twin."""
    if name == "rebound":  # a built-in plan with an MLP policy
        inst, plan, g, w0 = _rebound_parts(0.8)
        return inst.spec, (plan,), (g,), w0
    if name == "rebound-mixed":  # a wrapped plan, then the built-in one: u is widened
        inst, plan, g, w0 = _rebound_parts(0.8)
        b = ExprBuilder()
        out = inline(b, inst.spec.assignments[5]) * b.recip(b.input("u", 1))
        wrapped = InvariantInterventionSpec(2, 5, 5, b.build(out))
        return inst.spec, (wrapped, plan), (LieElement("multiplicative", (2,), [1.1]), g), w0
    spec = motivating_spec()
    plan = InvariantInterventionSpec(1, 2, 2, analytic_policy_graph())
    if name == "motivating-mul":
        return spec, (plan,), (LieElement("multiplicative", (1,), [1.7]),), None
    if name == "motivating-add":
        return spec, (plan,), (LieElement("additive", (1,), [0.3]),), None
    if name == "motivating-twice":  # two plans wrap node 1, one in each group
        b = ExprBuilder()
        second = InvariantInterventionSpec(1, 0, 0, b.build(b.input("theta", 1) * b.recip(b.input("u", 1))))
        return spec, (plan, second), (LieElement("multiplicative", (1,), [1.3]),
                                      LieElement("additive", (1,), [0.2])), None
    inst = modelzoo.two_compartment_model()
    plans = exact_compartment_policies(inst, None)
    return inst.spec, plans, (LieElement("multiplicative", (0,), [0.9]),
                              LieElement("multiplicative", (3,), [1.2])), None


PINNED_TWINS = ["rebound", "rebound-mixed", "motivating-mul", "motivating-add", "motivating-twice",
                "compartment"]
# the nodes whose chained build wrapped them before a later plan widened u: that build
# inlined them once more behind a copy of the u prefix, which the one pass does not
RE_INLINED = {"motivating-twice": {1}, "compartment": {0}}


@pytest.mark.parametrize("name", PINNED_TWINS)
def test_the_one_pass_twin_has_the_layout_and_graphs_of_the_chained_build(name):
    spec, plans, elements, _ = _twin_args(name)
    twin = build_invariant_model(spec, plans, elements)
    ref = reference_build_invariant_model(spec, plans, elements)
    assert validate(twin.deployed) == []
    for field in ("u_slices", "policy_slices", "groups", "invariant_nodes", "plans"):
        assert getattr(twin, field) == getattr(ref, field)
    assert twin.base is spec
    assert (twin.deployed.u_dim, twin.deployed.policy_dim) == (ref.deployed.u_dim, ref.deployed.policy_dim)
    assert twin.deployed.u_ref.tobytes() == ref.deployed.u_ref.tobytes()
    changed = set()
    for j, (got, want) in enumerate(zip(twin.deployed.assignments, ref.deployed.assignments, strict=True)):
        if diffcore.graph_to_obj(got) != diffcore.graph_to_obj(want):
            changed.add(j)
            assert [n.op for n in want.nodes].count("slice") == [n.op for n in got.nodes].count("slice") + 1
            assert len(want.nodes) == len(got.nodes) + 1
    assert changed == RE_INLINED.get(name, set())
    if name == "rebound":  # a built-in plan rewrites no graph but its auxiliary node's
        aux = plans[0].auxiliary
        assert all(g is spec.assignments[j] for j, g in enumerate(twin.deployed.assignments) if j != aux)


@pytest.mark.parametrize("name", PINNED_TWINS)
def test_the_one_pass_twin_evaluates_to_the_bits_of_the_chained_build(name):
    spec, plans, elements, w0 = _twin_args(name)
    twin = build_invariant_model(spec, plans, elements)
    ref = reference_build_invariant_model(spec, plans, elements)
    rng = np.random.default_rng(12)
    rows = 4
    theta = spec.theta_ref * rng.uniform(0.95, 1.05, (rows, spec.theta_dim))
    u = np.array([twin.assemble_u([[v] for v in rng.uniform(0.8, 1.25, len(plans))]) for _ in range(rows)])
    policy = None if w0 is None else w0 + rng.normal(scale=0.05, size=w0.shape)
    x = rng.uniform(0.2, 2.0, (rows, spec.d))
    inv = list(twin.invariant_nodes)
    for reroute in (None, (twin.invariant_nodes, x[:, inv] * 1.1)):
        kwargs = {"u": u, "reroute": reroute, "policy": policy}
        got, want = (sscm.assemble_map(t.deployed, theta, **kwargs)(x) for t in (twin, ref))
        assert got.tobytes() == want.tobytes()
        got, want = (sscm.node_gradients(t.deployed, x, theta, **kwargs) for t in (twin, ref))
        for field in ("x", "theta", "u", "policy"):
            assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(want, field)).tobytes()
    (base, sol), (ref_base, ref_sol) = (t.solve_pair(theta, u, TIGHT, policy=policy) for t in (twin, ref))
    assert base.x_star.tobytes() == ref_base.x_star.tobytes()
    assert sol.x_star.tobytes() == ref_sol.x_star.tobytes()
    assert sol.report.row_iterations.tolist() == ref_sol.report.row_iterations.tolist()


def test_the_twin_builds_without_apply_or_a_derived_program(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the twin builds its deployed spec in one pass")

    for module, name in ((interventions, "apply"), (interventions, "derive_wrapped"),
                         (sscm, "derive_wrapped")):
        monkeypatch.setattr(module, name, refused)
    for name in PINNED_TWINS:
        spec, plans, elements, _ = _twin_args(name)
        assert validate(build_invariant_model(spec, plans, elements).deployed) == []


@pytest.mark.parametrize("nodes", [(1, 2, 7), (1, 2, -1), (1, 7, 2), (1, -1, 2)])
def test_a_plan_node_outside_the_model_is_refused_at_build(nodes):
    plan = InvariantInterventionSpec(*nodes, policy=analytic_policy_graph())
    with pytest.raises(MismatchedTargets, match=r"plan nodes .* outside node range 0\.\.2"):
        build_invariant_model(motivating_spec(), plan, identity("multiplicative", (1,)))


@pytest.mark.parametrize("intervened", [9, -1])
def test_a_built_in_plan_intervening_outside_the_model_is_refused_at_build(intervened):
    inst, plan, g, _ = _rebound_parts(1.0)
    with pytest.raises(MismatchedTargets, match=r"outside node range 0\.\.8"):
        build_invariant_model(inst.spec, replace(plan, intervened=intervened), g)


def _bad_builds():
    spec = motivating_spec()
    plan = InvariantInterventionSpec(1, 2, 2, analytic_policy_graph())
    mul = LieElement("multiplicative", (1,), [1.5])
    b = ExprBuilder()
    two_parents = InvariantInterventionSpec(1, 2, 2, b.build(b.dot(*[b.input("parents", 2)] * 2)))
    return {
        "invalid base": (replace(spec, theta_ref=spec.theta_ref * 100), plan, mul),
        "builtin without u": (spec, replace(plan, builtin_u=True), mul),
        "other target": (spec, plan, LieElement("multiplicative", (0,), [1.5])),
        "target outside": (spec, replace(plan, intervened=7), LieElement("multiplicative", (7,), [1.5])),
        "policy arity": (spec, two_parents, mul),
        "policy weights": (spec, replace(plan, policy_dim=2), mul),
        "shared invariant": (spec, (plan, plan), (mul, mul)),
        "plan count": (spec, (plan, plan), (mul,)),
    }


@pytest.mark.parametrize("case", sorted(_bad_builds()))
def test_a_bad_twin_raises_what_the_chained_build_raised(case):
    args = _bad_builds()[case]
    errors = []
    for build in (build_invariant_model, reference_build_invariant_model):
        with pytest.raises(Exception) as info:
            build(*args)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
