import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcausal import diffcore, modelzoo, optimize, sscm
from eqcausal.diffcore import ExprBuilder
from eqcausal.fixedpoint import SolverConfig
from eqcausal.interventions import LieElement, build_invariant_model
from eqcausal.sscm import (SscmSpec, assemble_map, check_local_diffeomorphism, node_gradients,
                           solve_equilibrium, validate)

from ._models import THETA_REF, inject_state_jacobian, leontief_spec, motivating_spec


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
    rep = check_local_diffeomorphism(wide, x, theta)
    assert not rep.jacobian_invertible


def test_diffeo_check_constant_map_condition_one():
    b = ExprBuilder()
    t = b.input("theta", 1)
    g = b.build(t)
    spec = SscmSpec(("a",), ((),), (g,), np.array([2.0]), np.array([[0.0, 4.0]]), ((0, 1),))
    rep = check_local_diffeomorphism(spec, np.array([2.0]), np.array([2.0]))
    assert rep.is_solution
    assert rep.condition_number == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["motivating", "leontief-10", "rebound"])
def test_diffeo_condition_number_is_the_1_norm_one(name):
    spec = {"motivating": motivating_spec,
            "leontief-10": lambda: modelzoo.leontief_model(modelzoo.leontief_synthetic(10)),
            "rebound": lambda: modelzoo.rebound_3sector().spec}[name]()
    x = solve_equilibrium(spec, spec.theta_ref, SolverConfig(tol=1e-10)).x_star
    rep = check_local_diffeomorphism(spec, x, spec.theta_ref)
    lhs = np.eye(spec.d) - sscm.node_jacobians(spec, x, spec.theta_ref).x
    assert rep.condition_number == pytest.approx(np.linalg.cond(lhs, 1), rel=1e-12)
    assert rep.jacobian_invertible


def test_diffeo_check_singular_jacobian_gives_infinite_condition(monkeypatch):
    spec = motivating_spec()
    x = solve_equilibrium(spec, THETA_REF, SolverConfig(tol=1e-10)).x_star
    inject_state_jacobian(monkeypatch)  # I - df/dx = 0
    rep = check_local_diffeomorphism(spec, x, THETA_REF)
    assert rep.condition_number == np.inf
    assert not rep.jacobian_invertible
    assert rep.is_solution


def test_solvability_and_continuity_near_reference():
    spec = motivating_spec()
    cfg = SolverConfig(tol=1e-10)
    x_ref = solve_equilibrium(spec, THETA_REF, cfg).x_star
    rep = check_local_diffeomorphism(spec, x_ref, THETA_REF)
    assert rep.jacobian_invertible

    jac_x = sscm.node_jacobians(spec, x_ref, THETA_REF).x
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
    x = solve_equilibrium(spec, THETA_REF, SolverConfig(tol=1e-10)).x_star
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


# --- the stacked program against the per-node graphs ---

def _random_node_graph(rng, n_pa, n_theta, shared):
    """A scalar assignment over the given slots, mixing every smooth op kind."""
    b = ExprBuilder()
    terms = []
    if n_pa:
        p = b.input("parents", n_pa)
        w = b.const(rng.uniform(-0.5, 0.5, size=n_pa))
        terms.append(b.dot(w, b.exp(b.neg(p * p))))
        terms.append(b.broadcast(b.slice(b.relu(b.gather(p, [n_pa - 1, 0])), 0, 1), 1))
    if n_theta:
        t = b.input("theta", n_theta)
        terms.append(b.dot(t, b.powc(b.exp(t), 1.5)) if n_theta > 1 else t - b.const([0.1]))
    for slot, dim in shared:
        v = b.input(slot, dim)
        if slot == "policy" and dim >= 2:  # a (2, 1) weight block times the first weight
            h = b.matmul(v, b.slice(v, 0, 1), 2, dim - 2)
            terms.append(b.dot(b.const([0.3, -0.2]), b.relu(h)))
        elif slot == "u":
            terms.append(b.dot(v, b.log(b.exp(v) + b.exp(v))))
        else:
            terms.append(b.dot(v, b.recip(b.exp(v))))
    if not terms:
        return b.build(b.const([rng.normal()]))
    if n_theta == 1 and len(terms) == 1:
        return b.build(b.input("theta", 1))  # the output is the entry itself
    out = terms[0]
    for term in terms[1:]:
        out = out + term * b.const([rng.uniform(0.5, 1.5)])
    return b.build(b.matvec([[0.7]], out))


def _random_spec(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    dims = {"u": int(rng.integers(0, 3)), "extern": int(rng.integers(0, 3)),
            "policy": int(rng.integers(0, 4))}
    parents, graphs, slices = [], [], []
    cursor = 0
    for j in range(d):
        pa = tuple(k for k in range(d) if k != j and rng.random() < 0.6)
        n_theta = int(rng.integers(0, 3))
        shared = [(slot, dim) for slot, dim in dims.items() if dim and rng.random() < 0.6]
        graphs.append(_random_node_graph(rng, len(pa), n_theta, shared))
        parents.append(pa)
        slices.append((cursor, cursor + n_theta))
        cursor += n_theta
    theta = rng.uniform(0.2, 1.0, size=cursor)
    spec = SscmSpec(tuple(f"n{j}" for j in range(d)), tuple(parents), tuple(graphs), theta,
                    np.stack([theta - 1.0, theta + 1.0], axis=1), tuple(slices),
                    u_dim=dims["u"], u_ref=rng.uniform(0.5, 1.5, size=dims["u"]),
                    extern_dim=dims["extern"], policy_dim=dims["policy"])
    kwargs = {"extern": rng.uniform(0.1, 1.0, size=dims["extern"]),
              "policy": rng.uniform(-1.0, 1.0, size=dims["policy"])}
    return spec, rng.uniform(0.1, 2.0, size=d), kwargs


def _node_bindings(spec, j, x, theta, u, extern, policy):
    graph = spec.assignments[j]
    start, stop = spec.theta_slices[j]
    full = {"parents": x[list(spec.parents[j])], "theta": np.asarray(theta)[start:stop],
            "u": spec.u_ref if u is None else u, "extern": extern,
            "policy": spec.policy_ref if policy is None else policy}
    return {slot: full[slot] for slot in graph.slots}


def _assert_matches_per_node(spec, x, theta, u=None, extern=None, policy=None):
    kwargs = {"u": u, "extern": extern, "policy": policy}
    fx = assemble_map(spec, theta, **kwargs)(x)
    grads = node_gradients(spec, x, theta, **kwargs)
    assert fx.shape == (spec.d,) and len(grads) == spec.d
    for j, graph in enumerate(spec.assignments):
        bindings = _node_bindings(spec, j, x, theta, u, extern, policy)
        assert fx[j:j + 1].tobytes() == diffcore.forward_eval(graph, bindings).tobytes()
        ref = diffcore.reverse_vjp(graph, bindings, [1.0])
        assert list(grads[j].parts) == list(ref.parts)
        for slot, part in ref.parts.items():
            assert grads[j][slot].tobytes() == part.tobytes(), (j, slot)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_stacked_program_matches_per_node_graphs_on_random_specs(seed):
    spec, x, kwargs = _random_spec(seed)
    assert validate(spec) == []
    _assert_matches_per_node(spec, x, spec.theta_ref, **kwargs)


def _rebound_twin():
    inst = modelzoo.rebound_3sector()
    mlp = inst.policy_mlp()
    policy, w0 = optimize.build_mlp_policy(mlp, 1, 1)
    twin = build_invariant_model(inst.spec, inst.plan(policy, mlp.n_weights),
                                 LieElement("multiplicative", (inst.energy_sector,), [1.0]))
    return twin, w0


REBOUND_TWIN, REBOUND_W0 = _rebound_twin()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_stacked_program_matches_per_node_graphs_on_rebound_twin(seed):
    rng = np.random.default_rng(seed)
    twin = REBOUND_TWIN
    theta = twin.base.theta_ref * rng.uniform(0.9, 1.1, size=twin.base.theta_dim)
    u = twin.assemble_u([[rng.uniform(0.5, 1.0)]])
    policy = REBOUND_W0 + rng.normal(scale=0.1, size=REBOUND_W0.shape)
    x = rng.uniform(0.2, 2.0, size=twin.base.d)
    extern = x[list(twin.invariant_nodes)] * 1.1
    _assert_matches_per_node(twin.rerouted, x, theta, u=u, extern=extern, policy=policy)
    _assert_matches_per_node(twin.deployed, x, theta, u=u, policy=policy)
    _assert_matches_per_node(twin.base, x, theta)


def test_one_graph_call_per_map_call_and_per_node_gradients(monkeypatch):
    calls = {"forward": 0, "reverse": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(diffcore, "forward_eval", counted("forward", diffcore.forward_eval))
    monkeypatch.setattr(diffcore, "reverse_vjp", counted("reverse", diffcore.reverse_vjp))
    spec = leontief_spec(np.full((6, 6), 0.1) - 0.1 * np.eye(6), np.ones(6))
    f = assemble_map(spec, spec.theta_ref)
    for _ in range(4):
        f(np.ones(6))
    node_gradients(spec, np.ones(6), spec.theta_ref)
    assert calls == {"forward": 4, "reverse": 1}


def test_stacked_program_is_compiled_once_and_lazily():
    spec = motivating_spec()
    assert spec._stacked is None
    assemble_map(spec, THETA_REF)(np.ones(3))
    prog = spec._stacked
    node_gradients(spec, np.ones(3), THETA_REF)
    assert spec._stacked is prog
    assert spec.with_u(spec.u_ref)._stacked is None


def test_stacked_program_holds_no_reference_to_its_spec():
    gc.disable()
    try:
        spec = motivating_spec()
        f = assemble_map(spec, THETA_REF)
        f(np.ones(3))
        node_gradients(spec, np.ones(3), THETA_REF)
        assert spec._stacked is not None
        ref = weakref.ref(spec)
        del spec
        assert ref() is None
        f(np.ones(3))  # the map keeps working without its spec
    finally:
        gc.enable()


def test_missing_shared_binding_names_the_first_reading_node():
    twin = REBOUND_TWIN
    u = twin.assemble_u([[0.7]])
    for slot in ("extern", "policy"):
        first = min(j for j, g in enumerate(twin.rerouted.assignments) if slot in g.slots)
        kwargs = {"u": u, "extern": np.ones(1), "policy": REBOUND_W0, slot: None}
        with pytest.raises(sscm.SpecValidationError, match=f"node {first} requires a binding for '{slot}'"):
            assemble_map(twin.rerouted, twin.base.theta_ref, **kwargs)
