import gc
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcausal import diffcore, interventions, modelzoo, optimize, sscm
from eqcausal.diffcore import ExprBuilder
from eqcausal.errors import ParseError, ShapeMismatch
from eqcausal.fixedpoint import SolverConfig
from eqcausal.interventions import LieElement, build_invariant_model
from eqcausal.sscm import (SscmSpec, assemble_map, check_local_diffeomorphism, node_gradients,
                           solve_equilibrium, validate)

from ._models import (THETA_REF, finite_difference_jacobian, inject_state_jacobian, leontief_spec,
                      motivating_spec)


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


def _repeated_parent_spec():
    """a := theta_a; b := 0.2 a + 0.3 a + theta_b, with a listed twice among b's parents."""
    b = ExprBuilder()
    ga = b.build(b.input("theta", 1))
    b = ExprBuilder()
    gb = b.build(b.dot(b.const([0.2, 0.3]), b.input("parents", 2)) + b.input("theta", 1))
    return SscmSpec(("a", "b"), ((), (0, 0)), (ga, gb), [1.0, 0.5], [[0.0, 2.0], [0.0, 2.0]],
                    ((0, 1), (1, 2)))


def test_validate_rejects_repeated_parents():
    spec = _repeated_parent_spec()
    assert any("repeats a node" in d for d in validate(spec))
    with pytest.raises(sscm.SpecValidationError, match="node 1: parent list"):
        node_gradients(spec, np.ones(2), spec.theta_ref)


@pytest.mark.parametrize("field", ["theta_ref", "theta_box", "u_ref", "policy_ref"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_reference_values(field, bad):
    spec = motivating_spec()
    spec = sscm.SscmSpec(spec.names, spec.parents, spec.assignments, spec.theta_ref, spec.theta_box,
                         spec.theta_slices, u_dim=1, u_ref=[1.0], policy_dim=2, policy_ref=[0.5, 0.5])
    assert validate(spec) == []
    value = np.array(getattr(spec, field))
    value.flat[-1] = bad
    spec = replace(spec, **{field: value})
    assert f"{field} has non-finite entries" in validate(spec)
    with pytest.raises(sscm.SpecValidationError, match=f"{field} has non-finite entries"):
        assemble_map(spec, THETA_REF)


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
    lhs = np.eye(spec.d) - sscm.node_gradients(spec, x, spec.theta_ref).x
    assert rep.condition_number == pytest.approx(np.linalg.cond(lhs, 1), rel=1e-12)
    assert rep.jacobian_invertible


@pytest.mark.parametrize("batched", ["x", "theta"])
def test_diffeo_check_refuses_a_batch(batched):
    spec = motivating_spec()
    x = solve_equilibrium(spec, THETA_REF, SolverConfig(tol=1e-10)).x_star
    point = {"x": x, "theta": THETA_REF}
    point[batched] = np.stack([point[batched]] * 3)
    with pytest.raises(ShapeMismatch, match="one point, not a batch"):
        check_local_diffeomorphism(spec, point["x"], point["theta"])


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

    jac = sscm.node_gradients(spec, x_ref, THETA_REF)
    slope_bound = np.linalg.norm(np.linalg.solve(np.eye(spec.d) - jac.x, jac.theta), 2)

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


def test_json_with_a_negative_arg_index_is_a_spec_validation_error():
    obj = json.loads(sscm.spec_to_json(motivating_spec()))
    next(rec for g in obj["assignments"] for rec in g["nodes"] if rec["args"])["args"][0] = -1
    with pytest.raises(sscm.SpecValidationError, match="graph record"):
        sscm.spec_from_json(json.dumps(obj))


def test_spec_json_without_names_is_a_spec_validation_error():
    with pytest.raises(sscm.SpecValidationError, match="lacks keys 'names', 'parents'"):
        sscm.spec_from_json("{}")


def test_spec_json_without_parents_is_a_spec_validation_error():
    with pytest.raises(sscm.SpecValidationError, match="lacks keys 'parents', 'assignments'") as err:
        sscm.spec_from_json('{"names": ["a"]}')
    assert "'names'" not in str(err.value)


@pytest.mark.parametrize("key, value", [
    ("u_dim", "x"), ("theta_ref", ["a"]), ("parents", 5), ("names", 3), ("theta_slices", [[0]]),
    ("assignments", 7), ("policy_ref", "z"), ("assignments", [{"nodes": 5}] * 3),
])
def test_spec_json_with_a_value_of_the_wrong_type_is_a_spec_validation_error(key, value):
    obj = json.loads(sscm.spec_to_json(motivating_spec()))
    obj[key] = value
    with pytest.raises(sscm.SpecValidationError, match=f"spec key '{key}': "):
        sscm.spec_from_json(json.dumps(obj))


@pytest.mark.parametrize("key, at, value, message", [
    ("u_dim", (), 1.5, "1.5 is not int"), ("u_dim", (), True, "True is not int"),
    ("u_dim", (), None, "None is not int"), ("policy_dim", (), "2", "'2' is not int"),
    ("policy_dim", (), 2.0, "2.0 is not int"), ("policy_dim", (), True, "True is not int"),
    ("parents", (1, 1), 2.0, "2.0 is not int"), ("parents", (2, 0), True, "True is not int"),
    ("parents", (1, 0), 0.5, "0.5 is not int"), ("parents", (1, 0), "0", "'0' is not int"),
    ("theta_slices", (1, 0), 1.0, "1.0 is not int"), ("theta_slices", (2, 1), True, "True is not int"),
    ("names", (1,), 7, "7 is not str"), ("names", (0,), None, "None is not str"),
])
def test_spec_json_refuses_a_count_index_or_name_of_the_wrong_type(key, at, value, message):
    # a bool or a float is not truncated into an index or a count
    obj = json.loads(sscm.spec_to_json(motivating_spec()))
    target, last = obj, key  # obj[key][at[0]][at[1]]... = value
    for i in at:
        target, last = target[last], i
    target[last] = value
    with pytest.raises(sscm.SpecValidationError, match=f"spec key '{key}': {message}"):
        sscm.spec_from_json(json.dumps(obj))


def test_spec_json_that_is_not_an_object_is_a_spec_validation_error():
    with pytest.raises(sscm.SpecValidationError, match="JSON list, not an object, lacks keys 'names'"):
        sscm.spec_from_json("[]")


def test_spec_text_that_is_not_json_is_a_parse_error_at_its_position():
    with pytest.raises(ParseError, match=r"spec JSON: Expecting value \(line 1, column 1\)") as err:
        sscm.spec_from_json("nope")
    assert (err.value.line, err.value.column) == (1, 1)
    with pytest.raises(ParseError) as err:
        sscm.spec_from_json('{"names": ["a"],\n "parents": [[]],, }')
    assert (err.value.line, err.value.column) == (2, 18)  # the second comma


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
    other = replace(spec, u_ref=spec.u_ref)  # a new spec object is validated afresh
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
        terms.append(b.gather(b.slice(b.relu(b.gather(p, [n_pa - 1, 0])), 0, 1), (0,)))
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
    return b.build(b.matmul(b.const([0.7]), out, 1))


def _random_spec(seed):
    """A random spec, a point x and bindings: policy weights and a random reroute of up to
    two nodes (None for none)."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    dims = {"u": int(rng.integers(0, 3)), "policy": int(rng.integers(0, 4))}
    parents, graphs, slices = [], [], []
    cursor = 0
    for j in range(d):
        pa = tuple(int(k) for k in rng.permutation(d) if k != j and rng.random() < 0.6)
        n_theta = int(rng.integers(0, 3))
        shared = [(slot, dim) for slot, dim in dims.items() if dim and rng.random() < 0.6]
        graphs.append(_random_node_graph(rng, len(pa), n_theta, shared))
        parents.append(pa)
        slices.append((cursor, cursor + n_theta))
        cursor += n_theta
    theta = rng.uniform(0.2, 1.0, size=cursor)
    spec = SscmSpec(tuple(f"n{j}" for j in range(d)), tuple(parents), tuple(graphs), theta,
                    np.stack([theta - 1.0, theta + 1.0], axis=1), tuple(slices),
                    u_dim=dims["u"], u_ref=rng.uniform(0.5, 1.5, size=dims["u"]), policy_dim=dims["policy"])
    nodes = tuple(int(k) for k in rng.permutation(d)[:int(rng.integers(0, min(d, 2) + 1))])
    kwargs = {"reroute": (nodes, rng.uniform(0.1, 1.0, size=len(nodes))) if nodes else None,
              "policy": rng.uniform(-1.0, 1.0, size=dims["policy"])}
    return spec, rng.uniform(0.1, 2.0, size=d), kwargs


def overwritten(x, reroute):
    """x with the rerouted entries set to their values; a vector x is repeated per row of
    batched values."""
    if reroute is None:
        return x
    nodes, values = reroute
    values = np.asarray(values)
    x = np.array(np.broadcast_to(x, values.shape[:-1] + np.shape(x)[-1:]) if values.ndim > np.ndim(x) else x,
                 dtype=np.float64)
    x[..., list(nodes)] = values
    return x


def _node_bindings(spec, j, x, theta, u, reroute, policy):
    graph = spec.assignments[j]
    start, stop = spec.theta_slices[j]
    full = {"parents": overwritten(x, reroute)[list(spec.parents[j])], "theta": np.asarray(theta)[start:stop],
            "u": spec.u_ref if u is None else u, "policy": spec.policy_ref if policy is None else policy}
    return {slot: full[slot] for slot in graph.slots}


#: the slot whose partials fill each NodeJacobians field
SLOT_OF = {"x": "parents", "theta": "theta", "u": "u", "policy": "policy"}


def node_columns(spec, j, rerouted=()):
    """Per NodeJacobians field, the columns node j's row may fill, in its slot's order:
    its parents but the rerouted nodes, its theta slice and the shared slots it reads.
    Every other entry is 0."""
    slots = spec.assignments[j].slots
    return {"x": [p for p in spec.parents[j] if p not in rerouted],
            "theta": list(range(*spec.theta_slices[j])) if "theta" in slots else [],
            "u": list(range(spec.u_dim)) if "u" in slots else [],
            "policy": list(range(spec.policy_dim)) if "policy" in slots else []}


def _assert_matches_per_node(spec, x, theta, u=None, reroute=None, policy=None):
    kwargs = {"u": u, "reroute": reroute, "policy": policy}
    rerouted = () if reroute is None else reroute[0]
    fx = assemble_map(spec, theta, **kwargs)(x)
    jac = node_gradients(spec, x, theta, **kwargs)
    assert fx.shape == (spec.d,)
    widths = {"x": spec.d, "theta": spec.theta_dim, "u": spec.u_dim, "policy": spec.policy_dim}
    assert (jac.policy is None) == (spec.policy_dim == 0)
    for j, graph in enumerate(spec.assignments):
        bindings = _node_bindings(spec, j, x, theta, u, reroute, policy)
        assert fx[j:j + 1].tobytes() == diffcore.forward_eval(graph, bindings).tobytes()
        ref = diffcore.reverse_vjp(graph, bindings, [1.0])
        for name, cols in node_columns(spec, j, rerouted).items():
            want = np.zeros(widths[name])
            if SLOT_OF[name] in ref:
                partials = ref[SLOT_OF[name]]
                if name == "x":  # without the partials of the rerouted parents
                    partials = partials[~np.isin(spec.parents[j], rerouted)]
                want[cols] = partials
            got = getattr(jac, name)
            assert (np.zeros(0) if got is None else got[j]).tobytes() == want.tobytes(), (j, name)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_stacked_program_matches_per_node_graphs_on_random_specs(seed):
    spec, x, kwargs = _random_spec(seed)
    assert validate(spec) == []
    _assert_matches_per_node(spec, x, spec.theta_ref, **kwargs)


def _assert_matches_finite_differences(spec, x, theta, u=None, reroute=None, policy=None):
    """node_gradients against central differences of the map in x, theta, u and policy."""
    u = spec.u_ref if u is None else u
    policy = spec.policy_ref if policy is None else policy
    jac = node_gradients(spec, x, theta, u=u, reroute=reroute, policy=policy)
    args = {"x": x, "theta": theta, "u": u, "policy": policy}

    def f(name):
        def at(value):
            point = {**args, name: value}
            return assemble_map(spec, point["theta"], u=point["u"], reroute=reroute,
                                policy=point["policy"])(point["x"])
        return at

    for name in ("x", "theta", "u", "policy"):
        if getattr(jac, name) is None:
            continue
        fd = finite_difference_jacobian(f(name), args[name], h=1e-6)
        np.testing.assert_allclose(getattr(jac, name), fd, rtol=1e-6, atol=1e-7, err_msg=name)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_node_gradients_match_finite_differences_on_random_specs(seed):
    spec, x, kwargs = _random_spec(seed)
    _assert_matches_finite_differences(spec, x, spec.theta_ref, **kwargs)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_node_gradients_match_finite_differences_on_array_built_leontief_specs(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    A = rng.uniform(0.0, 0.3, (d, d)) * (rng.random((d, d)) < 0.5)
    np.fill_diagonal(A, np.where(rng.random(d) < 0.5, 0.0, rng.uniform(0.0, 0.5, d)))
    table = modelzoo.IoTable(A=A, R=np.ones((1, d)), y=rng.uniform(0.5, 1.5, d),
                             sectors=tuple(f"s{k}" for k in range(d)), impacts=("i",))
    off = [(i, j) for i in range(d) for j in range(d) if i != j]
    spec = modelzoo.leontief_model(table, [off[k] for k in rng.permutation(len(off))[:3]])
    applied = interventions.apply(spec, LieElement("multiplicative", tuple(range(d)), rng.uniform(0.5, 1.5, d)))
    x = rng.uniform(0.0, 2.0, d)
    _assert_matches_finite_differences(spec, x, spec.theta_ref * rng.uniform(0.5, 1.5, spec.theta_dim))
    _assert_matches_finite_differences(applied, x, spec.theta_ref)


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
    reroute = (twin.invariant_nodes, x[list(twin.invariant_nodes)] * 1.1)
    _assert_matches_per_node(twin.deployed, x, theta, u=u, reroute=reroute, policy=policy)
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
    assert replace(spec, u_ref=spec.u_ref)._stacked is None


def test_stacked_programs_compile_to_few_wide_steps():
    # one step per (op, level) group instead of one per node: 901 and 58 nodes
    # of these two graphs are computed or copied
    spec = modelzoo.leontief_model(modelzoo.leontief_synthetic(100))
    wired = interventions.apply(spec, LieElement("multiplicative", tuple(range(100)), np.ones(100)))
    assert len(diffcore._compile(sscm._stacked(wired).graph).steps) <= 9
    assert len(diffcore._compile(sscm._stacked(REBOUND_TWIN.deployed).graph).steps) <= 25


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
    first = min(j for j, g in enumerate(twin.deployed.assignments) if "policy" in g.slots)
    with pytest.raises(sscm.SpecValidationError, match=f"node {first} requires a binding for 'policy'"):
        assemble_map(twin.deployed, twin.base.theta_ref, u=twin.assemble_u([[0.7]]))


# --- the program interventions.apply derives against a freshly stacked one ---

def _element(rng, d, group):
    # targets in any order: a permutation of all nodes, or a subset drawn unsorted
    targets = tuple(rng.permutation(d).tolist()) if rng.random() < 0.4 else \
        tuple(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist())
    values = rng.uniform(0.5, 2.0, len(targets)) if group == "multiplicative" else rng.uniform(-1, 1, len(targets))
    return LieElement(group, targets, values)


def _bitwise_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_derived_matches_fresh(applied, x, theta, kwargs):
    fresh = replace(applied)
    assert applied._stacked is not None and fresh._stacked is None  # derived, and not yet stacked
    assert applied._validated and validate(applied) == []  # valid by construction, and so found
    _bitwise_equal(assemble_map(applied, theta, **kwargs)(x), assemble_map(fresh, theta, **kwargs)(x))
    got, want = node_gradients(applied, x, theta, **kwargs), node_gradients(fresh, x, theta, **kwargs)
    assert fresh._stacked.graph is not applied._stacked.graph
    for name in ("x", "theta", "u", "policy"):
        if getattr(want, name) is None:
            assert getattr(got, name) is None
        else:
            _bitwise_equal(getattr(got, name), getattr(want, name))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), groups=st.sampled_from(
    [("multiplicative",), ("additive",), ("multiplicative", "multiplicative"),
     ("additive", "multiplicative"), ("multiplicative", "additive")]))
def test_applied_program_matches_a_freshly_stacked_one(seed, groups):
    # the map, a batch of 3 that mixes shared and batched bindings, and node_gradients
    # of apply(spec, g) (chained: apply(apply(spec, g), h)) equal, bit for bit, those of
    # the same spec stacked afresh from its per-node graphs; some of the targets' graphs
    # read u already, and some u components are zero
    spec, x, kwargs = _random_spec(seed)
    rng = np.random.default_rng(seed)
    applied = spec
    for group in groups:
        applied = interventions.apply(applied, _element(rng, spec.d, group))
    u = rng.normal(size=applied.u_dim)
    u[rng.random(applied.u_dim) < 0.2] = -0.0
    kwargs = {"u": u, **kwargs}
    theta = spec.theta_ref
    _assert_derived_matches_fresh(applied, x, theta, kwargs)

    rows = 3
    nodes, reroute = kwargs.pop("reroute") or ((), None)
    batched = {name for name in ("x", "theta", "u", "reroute", "policy") if rng.random() < 0.5} or {"u"}
    values = {"x": x, "theta": theta, "reroute": reroute, **kwargs}
    values = {name: value * rng.uniform(0.9, 1.1, (rows, len(value))) if name in batched and value is not None
              else value for name, value in values.items()}
    if "x" not in batched:
        values["x"] = np.broadcast_to(x, (rows, spec.d))
    values["reroute"] = None if reroute is None else (nodes, values["reroute"])
    _assert_derived_matches_fresh(applied, values.pop("x"), values.pop("theta"), values)


def test_applied_program_reads_one_u_cell_per_target():
    spec = modelzoo.leontief_model(modelzoo.leontief_synthetic(100))
    wired = interventions.apply(spec, LieElement("multiplicative", tuple(range(100)), np.ones(100)))
    prog = sscm._stacked(wired)
    parent = sscm._stacked(spec).graph
    assert prog.graph.nodes[:len(parent.nodes)] == parent.nodes  # the parent's graph, then the wrap
    u_cells = [at for name, _, _, at in prog.cells if name == "u"]
    assert sum(map(len, u_cells)) == 100
    jac = node_gradients(wired, np.ones(100), wired.theta_ref)
    assert np.count_nonzero(jac.u) == 100


def test_applied_program_holds_no_reference_to_the_parent_spec():
    gc.disable()
    try:
        spec = motivating_spec()
        applied = interventions.apply(spec, LieElement("additive", (1,), [0.5]))
        ref = weakref.ref(spec)
        del spec
        assert ref() is None
        assemble_map(applied, THETA_REF)(np.ones(3))
    finally:
        gc.enable()


def test_applied_spec_with_a_non_finite_value_fails_validation_at_first_use():
    # LieElement refuses a NaN value, so the spec is derived as apply derives it, without one
    applied = sscm.derive_wrapped(motivating_spec(), False, (0,), np.array([np.nan]))
    with pytest.raises(sscm.SpecValidationError, match="u_ref has non-finite entries"):
        assemble_map(applied, THETA_REF)


def test_applied_map_refuses_a_u_of_the_wrong_width_or_rows():
    applied = interventions.apply(motivating_spec(), LieElement("multiplicative", (1, 2), [2.0, 1.0]))
    with pytest.raises(ShapeMismatch):
        assemble_map(applied, THETA_REF, u=np.ones(3))(np.ones(3))
    with pytest.raises(ShapeMismatch):
        assemble_map(applied, THETA_REF, u=np.ones((2, 2)))(np.ones((3, 3)))


# --- the bound map: bindings copied at assembly and written into the program's pooled buffers ---

def _fresh_map_value(spec, x, theta, u=None, reroute=None, policy=None):
    """The map's value at x from bindings set up afresh, in one forward_eval on a dict."""
    prog = sscm._stacked(spec)
    bindings = sscm._bindings(spec, prog, theta, u, policy)
    return diffcore.forward_eval(prog.graph, {**bindings, "x": overwritten(x, reroute)},
                                 None if np.ndim(x) == 1 else len(x))


def _assert_bound_map_matches_fresh(spec, theta, kwargs, rng, shapes=(None, 1, 4, 50, None, 4)):
    """One map called with x of these batch sizes (None for a vector) in turn, and a new map
    per call, give the bits of fresh evaluations, in C order."""
    f = assemble_map(spec, theta, **kwargs)
    for rows in shapes:
        x = rng.uniform(0.1, 2.0, size=spec.d if rows is None else (rows, spec.d))
        want = _fresh_map_value(spec, x, theta, **kwargs)
        for got in (f(x), assemble_map(spec, theta, **kwargs)(x)):
            _bitwise_equal(got, want)
            assert got.flags.c_contiguous


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bound_map_matches_fresh_bindings_on_random_specs(seed):
    spec, _, kwargs = _random_spec(seed)
    _assert_bound_map_matches_fresh(spec, spec.theta_ref, kwargs, np.random.default_rng(seed))


def test_bound_map_matches_fresh_bindings_on_rebound_twin():
    rng = np.random.default_rng(5)
    twin = REBOUND_TWIN
    theta = twin.base.theta_ref
    kwargs = {"u": twin.assemble_u([[0.7]]), "reroute": (twin.invariant_nodes, np.array([1.3])),
              "policy": REBOUND_W0}
    _assert_bound_map_matches_fresh(twin.deployed, theta, kwargs, rng)
    # theta, u and the reroute values in 4 rows: x as a vector, which every row reads, or in 4 rows
    rows = {"u": np.array([twin.assemble_u([[v]]) for v in rng.uniform(0.5, 1.0, 4)]),
            "reroute": (twin.invariant_nodes, rng.uniform(0.5, 2.0, (4, 1))), "policy": REBOUND_W0}
    _assert_bound_map_matches_fresh(twin.deployed, theta * rng.uniform(0.9, 1.1, (4, 1)), rows, rng,
                                    shapes=(None, 4, None))


def test_bound_map_matches_fresh_bindings_on_an_intervened_leontief_model():
    spec = modelzoo.leontief_model(modelzoo.leontief_synthetic(100))
    wired = interventions.apply(spec, LieElement("multiplicative", tuple(range(100)), np.full(100, 0.9)))
    _assert_bound_map_matches_fresh(wired, wired.theta_ref, {}, np.random.default_rng(6))


def _unread_x_spec():
    """Two nodes without parents, so the stacked program has no x input."""
    b = ExprBuilder()
    t = b.input("theta", 1)
    graph = b.build(b.exp(t) + b.const([0.5]))
    theta = np.array([0.2, 0.4])
    return SscmSpec(("a", "b"), ((), ()), (graph, graph), theta,
                    np.stack([theta - 1.0, theta + 1.0], axis=1), ((0, 1), (1, 2)))


def test_bound_map_of_a_program_that_reads_no_x():
    spec = _unread_x_spec()
    assert "x" not in sscm._stacked(spec).graph.slots
    _assert_bound_map_matches_fresh(spec, spec.theta_ref, {}, np.random.default_rng(7))
    f = assemble_map(spec, spec.theta_ref)
    assert f(np.zeros(2)).tobytes() == f(np.ones(2)).tobytes()
    with pytest.raises(ShapeMismatch):
        f(np.zeros(3))


def test_bound_map_returns_a_new_array_per_call():
    twin = REBOUND_TWIN
    kwargs = {"u": twin.assemble_u([[0.7]]), "reroute": (twin.invariant_nodes, np.array([1.3])),
              "policy": REBOUND_W0}
    f = assemble_map(twin.deployed, twin.base.theta_ref, **kwargs)
    for x in (np.full(twin.base.d, 0.5), np.full((4, twin.base.d), 0.5)):
        first = f(x)
        want = first.copy()
        first[...] = np.nan
        second = f(x)
        assert second is not first
        _bitwise_equal(second, want)


def test_bound_map_copies_its_bindings_at_assembly():
    # a binding changed in place after assemble_map does not reach later calls
    twin = REBOUND_TWIN
    theta = twin.base.theta_ref.copy()
    values = np.array([1.3])
    kwargs = {"u": twin.assemble_u([[0.7]]), "reroute": (twin.invariant_nodes, values), "policy": REBOUND_W0.copy()}
    x = np.full(twin.base.d, 0.5)
    want = assemble_map(twin.deployed, theta, **kwargs)(x)
    f = assemble_map(twin.deployed, theta, **kwargs)
    theta *= 1.5
    for value in (kwargs["u"], values, kwargs["policy"]):
        value += 0.25
    _bitwise_equal(f(x), want)
    _bitwise_equal(f(np.stack([x, x]))[1], want)


def test_bound_map_refuses_an_x_of_another_shape():
    twin = REBOUND_TWIN
    d = twin.base.d
    kwargs = {"u": twin.assemble_u([[0.7]]), "reroute": (twin.invariant_nodes, np.array([1.3])),
              "policy": REBOUND_W0}
    f = assemble_map(twin.deployed, twin.base.theta_ref, **kwargs)
    f(np.ones(d))
    for x in (np.ones(d + 1), np.ones((4, d - 1)), np.ones((2, 4, d)), np.float64(1.0)):
        with pytest.raises(ShapeMismatch, match="slot 'x' expects dim 9"):
            f(x)
    with pytest.raises(ShapeMismatch, match="a batch needs at least one row"):
        f(np.ones((0, d)))
    batched = assemble_map(twin.deployed, np.full((4, 1), twin.base.theta_ref[0]), **kwargs)
    with pytest.raises(ShapeMismatch, match="in 3 rows"):
        batched(np.ones((3, d)))
    assert f(np.ones(d)).shape == (d,) and batched(np.ones(d)).shape == (4, d)



@pytest.mark.parametrize("name", ["rebound-twin", "leontief-synthetic-10"])
@pytest.mark.parametrize("rows", [None, 4])
def test_two_live_maps_of_one_program_give_their_own_bits(name, rows):
    """Two maps of one program at one batch size, called in turn with a forward_eval on a dict
    and a node_gradients of that program between the calls, share the program's pooled
    buffers; each call gives the bits of a fresh evaluation, so a map writes its own bindings
    again whenever another caller used the buffer it takes. The map called last before
    each call between is called first after it."""
    rng = np.random.default_rng(13)
    if name == "rebound-twin":
        spec, nodes = REBOUND_TWIN.deployed, REBOUND_TWIN.invariant_nodes
    else:
        spec, nodes = modelzoo.leontief_model(modelzoo.leontief_synthetic(10)), (2, 5)
    lead = () if rows is None else (rows,)

    def bindings(scale):
        """theta, u, the policy and the reroute values scaled by `scale`: vectors, or rows of their own."""
        s = scale * (1.0 if rows is None else rng.uniform(0.95, 1.05, (rows, 1)))
        kwargs = {"reroute": (nodes, np.full(lead + (len(nodes),), 0.5) * s)}
        if name != "rebound-twin":
            return spec.theta_ref * s, kwargs
        twin = REBOUND_TWIN
        u = np.array([twin.assemble_u([[v]]) for v in np.ravel(0.7 * s)]).reshape(lead + (-1,))
        return twin.base.theta_ref * s, {**kwargs, "u": u, "policy": REBOUND_W0 * scale}

    (theta_f, kw_f), (theta_g, kw_g), (theta_h, kw_h) = bindings(1.0), bindings(1.1), bindings(0.9)
    maps = [(assemble_map(spec, theta, **kwargs), theta, kwargs) for theta, kwargs in ((theta_f, kw_f), (theta_g, kw_g))]
    prog = sscm._stacked(spec)
    for between in ("map", "forward_eval", "map", "node_gradients", "map"):
        x = rng.uniform(0.5, 1.5, lead + (spec.d,))
        for m, theta, kwargs in maps:
            # a new spec, so a program and buffers of its own
            _bitwise_equal(m(x), assemble_map(replace(spec), theta, **kwargs)(x))
        maps.reverse()
        if between == "forward_eval":
            bindings_h = sscm._bindings(spec, prog, theta_h, kw_h.get("u"), kw_h.get("policy"))
            diffcore.forward_eval(prog.graph, {**bindings_h, "x": x}, rows)
        elif between == "node_gradients":
            node_gradients(spec, x, theta_h, **kw_h)

def test_pooled_buffers_hold_no_reference_cycle():
    # a program keeps its idle buffers; were they to hold a map's bindings object, graph ->
    # program -> buffer -> bindings -> graph would keep the graph until a collection
    gc.disable()
    try:
        spec = modelzoo.leontief_model(modelzoo.leontief_synthetic(5))
        f = assemble_map(spec, spec.theta_ref)
        f(np.ones(5))
        f(np.ones((3, 5)))
        node_gradients(spec, np.ones(5), spec.theta_ref)
        ref = weakref.ref(sscm._stacked(spec).graph)
        del spec, f
        assert ref() is None
    finally:
        gc.enable()
