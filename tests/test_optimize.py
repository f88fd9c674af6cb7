import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcausal import deq, diffcore, interventions, modelzoo, optimize, sscm
from eqcausal.diffcore import ExprBuilder, forward_eval, reverse_vjp
from eqcausal.errors import (NonFiniteGradient, PolicyArityMismatch, ShapeMismatch,
                             SolveFailedDuringOptimization)
from eqcausal.fixedpoint import SolverConfig
from eqcausal.interventions import InvariantInterventionSpec, LieElement, build_invariant_model
from eqcausal.optimize import (AdamConfig, AdamState, GhgEmploymentLoss, MlpSpec,
                               SamplingConfig, adam_step, build_mlp_policy, init_mlp_weights,
                               draw_samples, mlp_forward, optimize_lie_intervention, pareto_sweep,
                               train_invariant_policy)
from eqcausal.sscm import solve_equilibrium

from ._models import (DistanceLoss, finite_difference_jacobian, inject_state_jacobian, leontief_spec,
                      motivating_spec, reference_distance_graph, reference_ghg_employment_graph,
                      reference_mlp_stack)

TIGHT = SolverConfig(tol=1e-10)


# --- Adam ---

def test_adam_zero_gradient_keeps_parameters():
    cfg = AdamConfig()
    state = AdamState.init([1.0, -2.0])
    out = adam_step(state, np.zeros(2), cfg)
    np.testing.assert_array_equal(out.params, state.params)
    assert out.t == 1


def test_adam_first_step_magnitude_is_learning_rate():
    cfg = AdamConfig(learning_rate=0.001)
    for g in (1.0, 100.0, 1e-4):
        out = adam_step(AdamState.init([0.0]), [g], cfg)
        assert abs(out.params[0]) == pytest.approx(cfg.learning_rate, rel=1e-3)
        assert out.params[0] < 0


def test_adam_rejects_non_finite_gradient():
    with pytest.raises(NonFiniteGradient):
        adam_step(AdamState.init([0.0]), [np.nan], AdamConfig())


@pytest.mark.parametrize("field", ["learning_rate", "iterations", "plateau_window"])
def test_adam_config_rejects_non_positive_values(field):
    with pytest.raises(ValueError):
        AdamConfig(**{field: 0})


@pytest.mark.parametrize("cls,field", [(AdamConfig, "iterations"), (AdamConfig, "plateau_window"),
                                       (AdamConfig, "seed"), (SamplingConfig, "samples_per_step")])
def test_a_bool_or_non_integer_training_count_is_refused(cls, field):
    # each built before, and training then raised a raw TypeError
    for value in (2.5, 3.0, True, np.True_):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            cls(**{field: value})
    assert getattr(cls(**{field: np.int64(3)}), field) == 3


def test_a_negative_adam_seed_is_refused():
    # numpy's default_rng raised a raw ValueError at the first training step
    with pytest.raises(ValueError, match="seed and plateau_rtol >= 0"):
        AdamConfig(seed=-1)


def test_adam_deterministic_trajectories():
    def run():
        state = AdamState.init([0.3, -0.7])
        for t in range(50):
            grad = np.array([np.sin(t + state.params[0]), state.params[1]])
            state = adam_step(state, grad, AdamConfig())
        return state.params
    assert run().tobytes() == run().tobytes()


# --- losses ---

def test_ghg_employment_loss_arithmetic():
    loss = GhgEmploymentLoss(c=[1.0, 2.0], employment_row=[1.0, 0.0],
                             e_star=[0.0, 0.0], lam=2.0)
    # c.x = 3 + 8, regularizer |1*3 - 0| + 0 = 3? no: e_u = (3, 0) given x=(3,4) with row (1,0)
    x = np.array([3.0, 4.0])
    ghg, l1 = loss.components(x)
    assert ghg == pytest.approx(11.0)
    assert l1 == pytest.approx(3.0)


def test_ghg_employment_loss_spec_values():
    # c=[1,2], x=[3,4], e_u=[1,0], e*=[0,0], lam=2 -> 3+8+2*1 = 13
    loss = GhgEmploymentLoss(c=[1.0, 2.0], employment_row=[1.0 / 3.0, 0.0],
                             e_star=[0.0, 0.0], lam=2.0)
    x = np.array([3.0, 4.0])
    assert loss.value(x) == pytest.approx(13.0)


def test_ghg_loss_zero_regularizer_at_reference():
    x_star = np.array([1.5, 2.5])
    r = np.array([0.3, 0.4])
    loss = GhgEmploymentLoss(c=[1.0, 1.0], employment_row=r, e_star=r * x_star, lam=5.0)
    assert loss.value(x_star) == pytest.approx(float(x_star.sum()))
    assert loss.surrogate(x_star) == pytest.approx(float(x_star.sum()))


def test_ghg_loss_gradient_matches_fd():
    rng = np.random.default_rng(4)
    loss = GhgEmploymentLoss(c=rng.uniform(0.1, 1, 3), employment_row=rng.uniform(0.1, 1, 3),
                             e_star=rng.uniform(0.5, 1, 3), lam=0.7)
    x = rng.uniform(1.0, 2.0, 3)
    fd = finite_difference_jacobian(lambda z: np.array([loss.surrogate(z)]), x, h=1e-6)[0]
    np.testing.assert_allclose(loss.grad(x), fd, atol=1e-7)


def bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), zero_lam=st.booleans(),
       zero_delta=st.booleans())
def test_closed_form_losses_equal_their_graphs(seed, d, zero_lam, zero_delta):
    rng = np.random.default_rng(seed)
    c, r = rng.normal(size=d), rng.uniform(0.0, 2.0, size=d)
    x = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=d)
    # delta = r*x - e_star is exactly 0 when e_star is r*x
    e_star = r * x if zero_delta else rng.normal(size=d)
    lam = 0.0 if zero_lam else float(rng.uniform(0.0, 10.0))
    eps = float(10.0 ** rng.uniform(-12, -4))
    loss = GhgEmploymentLoss(c, r, e_star, lam, eps_smooth=eps)
    graph = reference_ghg_employment_graph(c, r, e_star, lam, eps)
    assert bits(loss.surrogate(x)) == bits(forward_eval(graph, {"x": x})[0])
    assert bits(loss.grad(x)) == bits(reverse_vjp(graph, {"x": x}, [1.0])["x"])

    x_ref = e_star
    distance = DistanceLoss(x_ref)
    graph = reference_distance_graph(x_ref)
    assert bits(distance.value(x)) == bits(forward_eval(graph, {"x": x})[0])
    assert bits(distance.grad(x)) == bits(reverse_vjp(graph, {"x": x}, [1.0])["x"])


# --- MLP ---

def test_mlp_zero_weights_zero_output():
    mlp = MlpSpec(input_dim=2, hidden=(3,), output_dim=1)
    out = mlp_forward(mlp, np.zeros(mlp.n_weights), [0.5, -0.5])
    np.testing.assert_array_equal(out, [0.0])


def test_mlp_hand_computed_tiny_net():
    # 1 -> 1 -> 1 net, all relu: out = relu(w2 * relu(w1*x + b1) + b2)
    mlp = MlpSpec(input_dim=1, hidden=(1,), output_dim=1)
    w = np.array([2.0, 0.5, -1.0, 0.25])  # w1, b1, w2, b2
    assert mlp_forward(mlp, w, [1.0])[0] == pytest.approx(max(-1.0 * 2.5 + 0.25, 0.0))
    assert mlp_forward(mlp, w, [-1.0])[0] == pytest.approx(0.25)  # relu kills the hidden unit


def test_mlp_gradient_matches_fd():
    mlp = MlpSpec(input_dim=2, hidden=(4, 3), seed=1)
    from eqcausal.optimize import build_mlp_graph
    from eqcausal.diffcore import reverse_vjp
    graph = build_mlp_graph(mlp)
    w = init_mlp_weights(mlp)
    x = np.array([0.37, -0.21])
    grad = reverse_vjp(graph, {"x": x, "policy": w}, [1.0])["policy"]
    fd = finite_difference_jacobian(
        lambda z: mlp_forward(mlp, z, x), w, h=1e-6)[0]
    dev = np.abs(grad - fd) / (1.0 + np.abs(fd))
    assert dev.max() < 1e-5


@pytest.mark.parametrize("hidden,output_dim", [((20, 10), 1), ((4, 3), 2), ((1,), 1)])
def test_mlp_matmul_layers_match_the_dot_per_unit_graph(hidden, output_dim):
    from eqcausal.diffcore import forward_eval, reverse_vjp
    from eqcausal.optimize import _standardize, build_mlp_graph

    mlp = MlpSpec(input_dim=2, hidden=hidden, output_dim=output_dim, seed=4,
                  input_shift=(0.5, 0.75), input_scale=(4.0, 5.0))
    b = ExprBuilder()
    x = _standardize(b, mlp, b.input("x", 2))
    reference = b.build(reference_mlp_stack(b, mlp, x, b.input("policy", mlp.n_weights)))
    graph = build_mlp_graph(mlp)
    assert len(graph.nodes) < len(reference.nodes)
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = init_mlp_weights(mlp) + rng.normal(scale=0.1, size=mlp.n_weights)
        bindings = {"x": rng.uniform(0.3, 1.2, size=2), "policy": w}
        np.testing.assert_allclose(mlp_forward(mlp, w, bindings["x"]),
                                   forward_eval(reference, bindings), rtol=0, atol=1e-12)
        v = rng.normal(size=output_dim)
        for slot in ("x", "policy"):
            np.testing.assert_allclose(reverse_vjp(graph, bindings, v)[slot],
                                       reverse_vjp(reference, bindings, v)[slot], rtol=0, atol=1e-12)


def test_mlp_standardization_changes_inputs_only():
    raw = MlpSpec(input_dim=1, hidden=(2,), seed=3)
    std = MlpSpec(input_dim=1, hidden=(2,), seed=3, input_shift=(1.0,), input_scale=(2.0,))
    w = init_mlp_weights(raw)
    np.testing.assert_allclose(mlp_forward(std, w, [1.5]), mlp_forward(raw, w, [1.0]))


def test_build_mlp_policy_arity_checked():
    with pytest.raises(PolicyArityMismatch):
        build_mlp_policy(MlpSpec(input_dim=3), n_parents=1, u_dim=1)


def test_mlp_weight_serialization_roundtrip():
    from eqcausal.optimize import mlp_weights_from_obj, mlp_weights_to_obj
    mlp = MlpSpec(input_dim=2, hidden=(4, 3), seed=5, input_shift=(0.1, 0.2),
                  input_scale=(2.0, 3.0))
    w = init_mlp_weights(mlp)
    obj = mlp_weights_to_obj(mlp, w)
    assert [layer["shape"] for layer in obj["layers"]] == [[4, 2], [3, 4], [1, 3]]
    mlp2, w2 = mlp_weights_from_obj(obj)
    assert (mlp2.sizes, mlp2.input_shift, mlp2.input_scale) == (mlp.sizes, mlp.input_shift, mlp.input_scale)
    assert w2.tobytes() == w.tobytes()
    x = np.array([0.4, -0.3])
    assert mlp_forward(mlp2, w2, x).tobytes() == mlp_forward(mlp, w, x).tobytes()


# --- Lie intervention optimization ---

def test_quadratic_loss_optimum_at_identity():
    spec = leontief_spec(np.array([[0.0, 0.2], [0.3, 0.0]]), np.array([1.0, 1.0]))
    x_star = solve_equilibrium(spec, spec.theta_ref, TIGHT).x_star
    loss = DistanceLoss(x_star)
    g0 = LieElement("multiplicative", (0, 1), [1.4, 0.7])
    adam = AdamConfig(learning_rate=0.05, iterations=2500, early_stop=True,
                      plateau_window=100, plateau_rtol=1e-14)
    res = optimize_lie_intervention(spec, g0, loss, adam, SolverConfig(tol=1e-10),
                                    bounds=(0.5, 2.0))
    assert res.final_loss < 1e-8
    np.testing.assert_allclose(res.optimum.values, [1.0, 1.0], atol=1e-3)
    # eventually monotone decreasing
    losses = [v for _, v in res.trajectory]
    tail = losses[len(losses) // 2:]
    assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))


def test_unregularized_ghg_drives_to_lower_bound():
    table = modelzoo.leontief_synthetic(6)
    spec = modelzoo.leontief_model(table)
    x_star = solve_equilibrium(spec, spec.theta_ref, TIGHT).x_star
    r = table.impact_row("employment")
    loss = GhgEmploymentLoss(table.impact_row("ghg"), r, r * x_star, lam=0.0)
    adam = AdamConfig(learning_rate=0.05, iterations=800, early_stop=True,
                      plateau_window=50, plateau_rtol=1e-12)
    res = optimize_lie_intervention(spec, LieElement("multiplicative", tuple(range(6)), np.ones(6)),
                                    loss, adam, SolverConfig(tol=1e-8), bounds=(0.5, 2.0))
    np.testing.assert_allclose(res.optimum.values, np.full(6, 0.5), atol=1e-3)


def test_multiplicative_values_stay_positive():
    spec = leontief_spec(np.array([[0.0, 0.2], [0.3, 0.0]]), np.array([1.0, 1.0]))
    loss = DistanceLoss(np.zeros(2))
    res = optimize_lie_intervention(spec, LieElement("multiplicative", (0, 1), [1.0, 1.0]),
                                    loss, AdamConfig(learning_rate=0.1, iterations=100, early_stop=False),
                                    SolverConfig(tol=1e-8))
    assert all(np.all(g.values > 0.0) for g, _ in res.trajectory)


def test_solve_failures_halve_step_size_then_abort():
    # maximizing total output pushes the intervention into the divergent
    # region alpha * rho(A) >= 1; the optimizer must back off and finally
    # abort with the partial trajectory
    A = np.array([[0.0, 0.8], [0.8, 0.0]])
    spec = leontief_spec(A, np.array([1.0, 1.0]))
    loss = GhgEmploymentLoss(c=[-1.0, -1.0], employment_row=[0.0, 0.0],
                             e_star=[0.0, 0.0], lam=0.0)
    adam = AdamConfig(learning_rate=0.5, iterations=300, early_stop=False)
    with np.errstate(over="ignore", invalid="ignore"):
        res = optimize_lie_intervention(
            spec, LieElement("multiplicative", (0, 1), [1.0, 1.0]), loss, adam,
            SolverConfig(m=1, beta=1.0, tol=1e-6, max_iter=200), bounds=(0.5, 4.0))
    assert res.aborted
    assert len(res.failures) >= 1
    assert len(res.trajectory) >= 1


def record_lr_scales(monkeypatch):
    scales = []

    def recording(state, grads, cfg, lr_scale=1.0):
        scales.append(lr_scale)
        return adam_step(state, grads, cfg, lr_scale)

    monkeypatch.setattr(optimize, "adam_step", recording)
    return scales


def test_singular_adjoint_halves_step_size(monkeypatch):
    spec = leontief_spec(np.array([[0.0, 0.2], [0.3, 0.0]]), np.array([1.0, 1.0]))
    inject_state_jacobian(monkeypatch, on_calls={1})
    scales = record_lr_scales(monkeypatch)
    res = optimize_lie_intervention(spec, LieElement("multiplicative", (0, 1), [1.2, 0.9]),
                                    DistanceLoss(np.array([1.0, 1.0])),
                                    AdamConfig(learning_rate=0.02, iterations=4, early_stop=False),
                                    SolverConfig(tol=1e-8))
    assert res.failures == [1]
    assert not res.aborted
    assert scales == [1.0, 0.5, 0.5]


def test_singular_adjoint_halves_training_step_size(monkeypatch):
    twin = scalar_policy_twin()
    inject_state_jacobian(monkeypatch, on_calls={1})  # the second step's one batched linearization
    scales = record_lr_scales(monkeypatch)
    trained = train_invariant_policy(twin, np.array([0.4]),
                                     SamplingConfig(samples_per_step=2),
                                     AdamConfig(learning_rate=0.05, iterations=3, seed=1,
                                                early_stop=False),
                                     SolverConfig(tol=1e-8))
    assert trained.failures == 1
    assert not trained.aborted
    assert scales == [1.0, 0.5]


def test_lie_first_step_failure_raises(monkeypatch):
    spec = leontief_spec(np.array([[0.0, 0.2], [0.3, 0.0]]), np.array([1.0, 1.0]))
    inject_state_jacobian(monkeypatch)
    with pytest.raises(SolveFailedDuringOptimization, match="step 0"):
        optimize_lie_intervention(spec, LieElement("multiplicative", (0, 1), [1.2, 0.9]),
                                  DistanceLoss(np.array([1.0, 1.0])),
                                  AdamConfig(learning_rate=0.02, iterations=4),
                                  SolverConfig(tol=1e-8))


def test_training_first_step_failure_raises(monkeypatch):
    inject_state_jacobian(monkeypatch)
    with pytest.raises(SolveFailedDuringOptimization, match="step 0"):
        train_invariant_policy(scalar_policy_twin(), np.array([0.4]),
                               SamplingConfig(samples_per_step=2),
                               AdamConfig(learning_rate=0.05, iterations=3, seed=1),
                               SolverConfig(tol=1e-8))


def test_training_aborts_after_six_failures(monkeypatch):
    inject_state_jacobian(monkeypatch, on_calls=set(range(1, 100)))  # every step after the first
    scales = record_lr_scales(monkeypatch)
    trained = train_invariant_policy(scalar_policy_twin(), np.array([0.4]),
                                     SamplingConfig(samples_per_step=1),
                                     AdamConfig(learning_rate=0.05, iterations=20, seed=1,
                                                early_stop=False),
                                     SolverConfig(tol=1e-8))
    assert trained.aborted
    assert trained.failures == 6
    assert trained.steps == 1 and len(trained.losses) == 1
    assert scales == [1.0]
    # each failure restored the weights from before the one step taken
    assert trained.weights[0] == 0.4


@pytest.mark.parametrize("failing", [None, {3}])
def test_result_holds_the_equilibrium_of_its_optimum(monkeypatch, failing):
    # a VJP failing after its solve succeeded (the last step) must not leave that solve's x*
    spec = leontief_spec(np.array([[0.0, 0.2], [0.3, 0.0]]), np.array([1.0, 1.0]))
    solver = SolverConfig(tol=1e-8)
    if failing:
        inject_state_jacobian(monkeypatch, on_calls=failing)
    res = optimize_lie_intervention(spec, LieElement("multiplicative", (0, 1), [1.2, 0.9]),
                                    DistanceLoss(np.array([1.0, 1.0])),
                                    AdamConfig(learning_rate=0.02, iterations=4, early_stop=False),
                                    solver)
    assert res.failures == ([3] if failing else [])
    fresh = solve_equilibrium(interventions.apply(spec, res.optimum), spec.theta_ref, solver)
    assert res.x_star.tobytes() == fresh.x_star.tobytes()


def test_optimizer_is_deterministic():
    spec = leontief_spec(np.array([[0.0, 0.2], [0.3, 0.0]]), np.array([1.0, 1.0]))
    loss = DistanceLoss(np.array([1.0, 1.0]))
    adam = AdamConfig(learning_rate=0.02, iterations=60, early_stop=False)

    def run():
        res = optimize_lie_intervention(spec, LieElement("multiplicative", (0, 1), [1.2, 0.9]),
                                        loss, adam, SolverConfig(tol=1e-8))
        return np.array([v for _, v in res.trajectory])

    assert run().tobytes() == run().tobytes()


# --- pareto sweep ---

def test_pareto_sweep_shape_and_endpoints():
    table = modelzoo.leontief_synthetic(10)
    spec = modelzoo.leontief_model(table)
    adam = AdamConfig(learning_rate=0.02, iterations=500, early_stop=True,
                      plateau_window=50, plateau_rtol=1e-10)
    lambdas = [0.0, 0.1, 0.3, 1.0, 3.0, 10.0]
    points = pareto_sweep(spec, table.impact_row("ghg"), table.impact_row("employment"),
                          lambdas, adam, SolverConfig(tol=1e-8), bounds=(0.5, 1.0))
    assert len(points) == len(lambdas)
    ghg = [p.ghg_total for p in points]
    dev = [p.employment_l1_deviation for p in points]
    tol_g = 1e-6 * (max(ghg) - min(ghg) + 1e-12)
    assert all(a <= b + tol_g for a, b in zip(ghg, ghg[1:]))
    assert all(a >= b - tol_g for a, b in zip(dev, dev[1:]))
    assert ghg[0] == min(ghg) and dev[0] == max(dev)  # lam=0: max reduction, max deviation
    assert dev[-1] < 0.01 * dev[0]  # large lam: intervention -> identity
    np.testing.assert_allclose(points[-1].alpha, np.ones(10), atol=1e-2)


def test_pareto_duplicate_lambdas_identical():
    table = modelzoo.leontief_synthetic(4)
    spec = modelzoo.leontief_model(table)
    adam = AdamConfig(learning_rate=0.05, iterations=120, early_stop=False)
    points = pareto_sweep(spec, table.impact_row("ghg"), table.impact_row("employment"),
                          [0.2, 0.2], adam, SolverConfig(tol=1e-8), bounds=(0.5, 1.0))
    assert points[0].ghg_total == points[1].ghg_total
    np.testing.assert_array_equal(points[0].alpha, points[1].alpha)


def _counting(record, fn):
    def wrapped(*args, **kwargs):
        record.append(1)
        return fn(*args, **kwargs)
    return wrapped


def test_pareto_sweep_solves_each_equilibrium_once(monkeypatch):
    table = modelzoo.leontief_synthetic(4)
    spec = modelzoo.leontief_model(table)
    solves, applies = [], []
    monkeypatch.setattr(optimize, "solve_equilibrium", _counting(solves, solve_equilibrium))
    monkeypatch.setattr(interventions, "apply", _counting(applies, interventions.apply))
    adam = AdamConfig(learning_rate=0.05, iterations=5, early_stop=False)
    points = pareto_sweep(spec, table.impact_row("ghg"), table.impact_row("employment"),
                          [0.0, 0.5, 2.0], adam, SolverConfig(tol=1e-8), bounds=(0.5, 1.0))
    assert all(p.converged for p in points)
    assert len(solves) == 1 + 3 * 5  # the base, then one per evaluation
    assert len(applies) == 1  # one intervened model serves every lambda


def _sweep12(spec, table):
    adam = AdamConfig(learning_rate=0.05, iterations=3, early_stop=False)
    return pareto_sweep(spec, table.impact_row("ghg"), table.impact_row("employment"), [0.0, 1.0],
                        adam, SolverConfig(tol=1e-8), bounds=(0.5, 1.0))


def test_pareto_sweep_compiles_one_program(monkeypatch):
    # the unintervened reference is solved on the intervened model, at the identity
    table = modelzoo.leontief_synthetic(12)
    fused = []
    monkeypatch.setattr(diffcore, "_fuse", _counting(fused, diffcore._fuse))
    assert all(p.converged for p in _sweep12(modelzoo.leontief_model(table), table))
    assert len(fused) == 1


def test_pareto_sweep_ignores_the_start_values_of_a_cached_intervened_model():
    # an earlier descent from non-identity values leaves its intervened model, whose u_ref
    # holds those values, on the spec; the sweep's reference equilibrium must not read them
    table = modelzoo.leontief_synthetic(12)
    used = modelzoo.leontief_model(table)
    start = LieElement("multiplicative", tuple(range(12)), np.full(12, 0.7))
    loss = GhgEmploymentLoss(table.impact_row("ghg"), table.impact_row("employment"), np.zeros(12), 0.0)
    optimize_lie_intervention(used, start, loss, AdamConfig(iterations=2), SolverConfig(tol=1e-8))
    (wired,) = used._wired.values()
    np.testing.assert_array_equal(wired.u_ref, start.values)
    for got, want in zip(_sweep12(used, table), _sweep12(modelzoo.leontief_model(table), table), strict=True):
        assert (got.ghg_total, got.employment_l1_deviation, got.converged) == \
            (want.ghg_total, want.employment_l1_deviation, want.converged)
        assert got.alpha.tobytes() == want.alpha.tobytes()
        assert got.employment_delta.tobytes() == want.employment_delta.tobytes()


@pytest.mark.parametrize("failing", [0, 1])
def test_pareto_point_whose_optimization_fails_repeats_the_previous_point(monkeypatch, failing):
    table = modelzoo.leontief_synthetic(4)
    spec = modelzoo.leontief_model(table)
    c = table.impact_row("ghg")
    solver = SolverConfig(tol=1e-8)
    adam = AdamConfig(learning_rate=0.05, iterations=3, early_stop=False)
    # the first VJP of the failing lambda fails, so its optimization raises at step 0
    inject_state_jacobian(monkeypatch, on_calls={failing * adam.iterations})
    points = pareto_sweep(spec, c, table.impact_row("employment"), [0.0, 1.0], adam, solver,
                          bounds=(0.5, 1.0))
    if failing:
        previous = (points[0].alpha, points[0].ghg_total)
    else:
        previous = (np.ones(4), float(c @ solve_equilibrium(spec, spec.theta_ref, solver).x_star))
    assert [p.converged for p in points] == [i != failing for i in range(2)]
    np.testing.assert_array_equal(points[failing].alpha, previous[0])
    assert points[failing].ghg_total == previous[1]


# --- sampling ---

def test_sampling_respects_box_and_range():
    twin = scalar_policy_twin()
    lo, hi = twin.base.theta_box[:, 0], twin.base.theta_box[:, 1]
    for sampling in (SamplingConfig(), SamplingConfig(theta_stddev=(5.0, 5.0, 5.0, 5.0))):
        thetas, us = draw_samples(twin, sampling, (0.5, 2.0), np.random.default_rng(0), 500)
        assert np.all(thetas >= lo) and np.all(thetas <= hi)
        (start, stop), = twin.u_slices
        assert np.all(us[:, start:stop] >= 0.5) and np.all(us[:, start:stop] <= 2.0)
        rest = np.ones(us.shape[1], dtype=bool)
        rest[start:stop] = False
        assert (us[:, rest] == twin.deployed.u_ref[rest]).all()


def test_sample_theta_rejects_wrong_lengths():
    twin = scalar_policy_twin()  # theta dimension 4
    with pytest.raises(ShapeMismatch):
        draw_samples(twin, SamplingConfig(theta_stddev=(0.1, 0.2)), (0.5, 2.0), np.random.default_rng(0), 1)


@pytest.mark.parametrize("u_range", [(np.nan, 2.0), (0.5, np.nan), (0.0, 2.0), (-0.5, 2.0), (2.0, 0.5)],
                         ids=["nan-low", "nan-high", "zero-low", "negative-low", "low-above-high"])
def test_sampling_refuses_a_nan_nonpositive_or_reversed_u_range(u_range):
    twin = scalar_policy_twin()
    rng = np.random.default_rng(0)
    additive = build_invariant_model(motivating_spec(), twin.plans[0], interventions.identity("additive", (1,)))
    for each in (twin, additive):
        with pytest.raises(ValueError, match="u range"):
            draw_samples(each, SamplingConfig(), u_range, rng, 2)
    with pytest.raises(ValueError, match="u range"):
        train_invariant_policy(twin, np.array([0.4]), SamplingConfig(samples_per_step=2),
                               AdamConfig(iterations=2), SolverConfig(tol=1e-8), u_range)


# --- invariant-policy training ---

def scalar_policy_twin():
    """Policy class able to represent the exact reciprocal scaling: w * gamma * y / u."""
    spec = motivating_spec()
    b = ExprBuilder()
    p = b.input("parents", 1)
    u = b.input("u", 1)
    t = b.input("theta", 1)
    w = b.input("policy", 1)
    policy = b.build(w * b.recip(u) * t * p)
    plan = InvariantInterventionSpec(1, 2, 2, policy, policy_dim=1)
    twin = build_invariant_model(spec, plan, LieElement("multiplicative", (1,), [1.0]))
    return twin


def test_training_recovers_exact_scalar_policy():
    twin = scalar_policy_twin()
    sampling = SamplingConfig(samples_per_step=8)
    adam = AdamConfig(learning_rate=0.05, iterations=400, seed=7, early_stop=False)
    trained = train_invariant_policy(twin, np.array([0.3]), sampling, adam,
                                     SolverConfig(tol=1e-8))
    assert trained.final_loss < 1e-6
    assert trained.weights[0] == pytest.approx(1.0, abs=1e-3)
    # held-out: invariant node matches the unintervened equilibrium
    for theta, u in zip(*draw_samples(twin, SamplingConfig(), (0.5, 2.0), np.random.default_rng(123), 10)):
        base = solve_equilibrium(twin.base, theta, TIGHT)
        dep = solve_equilibrium(twin.deployed, theta, TIGHT, u=u, policy=trained.weights)
        assert abs(dep.x_star[2] - base.x_star[2]) < 1e-3 * abs(base.x_star[2])


def test_training_with_identity_u_reaches_zero_loss():
    twin = scalar_policy_twin()
    sampling = SamplingConfig(samples_per_step=4)
    adam = AdamConfig(learning_rate=0.05, iterations=300, seed=3, early_stop=False)
    trained = train_invariant_policy(twin, np.array([0.5]), sampling, adam,
                                     SolverConfig(tol=1e-8), u_range=(1.0, 1.0))
    assert trained.final_loss < 1e-6


def test_training_deterministic_given_seed():
    twin = scalar_policy_twin()
    sampling = SamplingConfig(samples_per_step=4)
    adam = AdamConfig(learning_rate=0.05, iterations=40, seed=11, early_stop=False)

    def run():
        return train_invariant_policy(twin, np.array([0.4]), sampling, adam,
                                      SolverConfig(tol=1e-8)).weights

    assert run().tobytes() == run().tobytes()
