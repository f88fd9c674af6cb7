"""A batch of B problems must give, row by row, what B separate calls give: the
structural map, node_gradients, both solvers and the implicit VJP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcausal import deq, fixedpoint, modelzoo, optimize
from eqcausal.errors import NonFiniteIterate, NotConverged, SolveFailedDuringOptimization
from eqcausal.fixedpoint import SolveReport, SolverConfig
from eqcausal.interventions import build_invariant_model, identity
from eqcausal.optimize import AdamConfig, SamplingConfig, draw_samples, train_invariant_policy
from eqcausal.sscm import (EquilibriumSolution, Linearization, assemble_map, node_gradients,
                           solve_equilibrium)

from ._models import (motivating_spec, reference_draw, reference_sample_theta,
                      reference_step_train_invariant_policy, reference_train_invariant_policy)
from .test_deq import count_inverses
from .test_optimize import scalar_policy_twin
from .test_sscm import REBOUND_TWIN, REBOUND_W0, _random_spec, node_columns

TOL = 1e-12


def assert_rows_close(batched, rows):
    """Each row of `batched` equals its own call to TOL, relative to the row's scale."""
    assert batched.shape[0] == len(rows)
    for got, want in zip(batched, rows):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= TOL * max(1.0, np.max(np.abs(want), initial=0.0))


def _batch_bindings(rng, rows, shared, batched):
    """Per-row and batched bindings: a slot in `batched` varies by row, the rest are shared."""
    per_row = [{} for _ in range(rows)]
    stacked = {}
    for slot, value in shared.items():
        if value is None:
            continue
        if slot in batched:
            values = value * rng.uniform(0.9, 1.1, size=(rows, len(value)))
            stacked[slot] = values
            for r in range(rows):
                per_row[r][slot] = values[r]
        else:
            stacked[slot] = value
            for r in range(rows):
                per_row[r][slot] = value
    return stacked, per_row


def _check_map_and_gradients(spec, x, theta, kwargs, rng):
    rows = int(rng.integers(1, 6))
    kwargs = dict(kwargs)
    nodes, values = kwargs.pop("reroute", None) or ((), None)  # the values batch like a slot
    shared = {"x": x, "theta": theta, **kwargs, "values": values}
    slots = ["x", "theta", *(s for s in ("u", "values", "policy") if shared.get(s) is not None)]
    batched = {s for s in slots if rng.random() < 0.5} or {"x"}
    stacked, per_row = _batch_bindings(rng, rows, shared, batched)
    if "x" not in batched:
        stacked["x"] = np.broadcast_to(x, (rows, spec.d))  # the map takes one iterate per row

    def call(b):
        rest = {k: v for k, v in b.items() if k not in ("x", "theta", "values")}
        if values is not None:
            rest["reroute"] = (nodes, b["values"])
        return assemble_map(spec, b["theta"], **rest)(b["x"]), node_gradients(spec, b["x"], b["theta"], **rest)

    fx, jac = call(stacked)
    singles = [call(b) for b in per_row]
    assert_rows_close(fx, [f for f, _ in singles])
    for j in range(spec.d):
        for name, cols in node_columns(spec, j, nodes).items():
            dense = getattr(jac, name)
            if dense is None:
                continue
            assert dense[:, j].tobytes() == np.stack([getattr(g, name)[j] for _, g in singles]).tobytes()
            outside = np.ones(dense.shape[-1], dtype=bool)
            outside[cols] = False
            assert not dense[:, j, outside].any()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_map_and_node_gradients_equal_per_row_calls(seed):
    spec, x, kwargs = _random_spec(seed)
    kwargs = {"u": spec.u_ref if spec.u_dim else None, **kwargs}
    kwargs = {k: v for k, v in kwargs.items() if v is not None and len(v)}
    _check_map_and_gradients(spec, x, spec.theta_ref, kwargs, np.random.default_rng(seed))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_map_and_node_gradients_equal_per_row_calls_on_rebound_twin(seed):
    rng = np.random.default_rng(seed)
    twin = REBOUND_TWIN
    x = rng.uniform(0.2, 2.0, size=twin.base.d)
    kwargs = {"u": twin.assemble_u([[rng.uniform(0.5, 1.0)]]),
              "reroute": (twin.invariant_nodes, x[list(twin.invariant_nodes)]),
              "policy": REBOUND_W0 + rng.normal(scale=0.1, size=REBOUND_W0.shape)}
    _check_map_and_gradients(twin.deployed, x, twin.base.theta_ref, kwargs, rng)


def _contractions(rng, rows, d):
    """Per-row affine contractions of different spectral radii, so rows settle at different
    iterations, and the batched map made of the rows' own matvecs."""
    radii = np.linspace(0.2, 0.95, rows)
    rng.shuffle(radii)
    maps = [modelzoo.random_contraction(d, int(rng.integers(1 << 30)), r) for r in radii]

    def batched(x):
        return np.stack([a @ row + y for (a, y), row in zip(maps, x)])

    return batched, [lambda x, a=a, y=y: a @ x + y for a, y in maps]


SOLVER_CONFIGS = (
    SolverConfig(m=1, beta=1.0, tol=1e-8),  # forward iteration
    SolverConfig(tol=1e-10),
    SolverConfig(tol=1e-9, beta=0.8, m=4, max_iter=500),
    SolverConfig(tol=1e-10, beta=1.0, m=3),
    SolverConfig(tol=1e-12, beta=1.0, max_iter=7),  # some rows stop unconverged
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), d=st.integers(2, 12),
       which=st.integers(0, len(SOLVER_CONFIGS) - 1))
def test_batched_solve_equals_per_row_solves(seed, rows, d, which):
    cfg = SOLVER_CONFIGS[which]
    batched, singles = _contractions(np.random.default_rng(seed), rows, d)
    rep = fixedpoint.solve(batched, np.zeros((rows, d)), cfg)
    refs = [fixedpoint.solve(f, np.zeros(d), cfg) for f in singles]
    assert rep.row_iterations.tolist() == [r.iterations for r in refs]
    assert rep.row_converged.tolist() == [r.converged for r in refs]
    assert rep.iterations == max(r.iterations for r in refs)
    assert rep.converged is all(r.converged for r in refs)
    assert_rows_close(rep.x, [r.x for r in refs])
    np.testing.assert_allclose(rep.relative_error, [r.relative_error for r in refs], rtol=1e-6, atol=1e-14)


@pytest.mark.parametrize("seed", [96, 13280])
def test_batched_solve_without_ridge_meets_the_tolerance_of_per_row_solves(seed):
    # without a ridge the least-squares system grows ill-conditioned near convergence and
    # amplifies rounding differences between the stacked and the single solves past 1e-12;
    # both still settle on the same iterations within the tolerance
    cfg = SolverConfig(tol=1e-10, m=3, ridge=0.0)
    batched, singles = _contractions(np.random.default_rng(seed), 3, 4)
    rep = fixedpoint.solve(batched, np.zeros((3, 4)), cfg)
    refs = [fixedpoint.solve(f, np.zeros(4), cfg) for f in singles]
    assert rep.converged and rep.row_iterations.tolist() == [r.iterations for r in refs]
    for got, ref in zip(rep.x, refs):
        np.testing.assert_allclose(got, ref.x, rtol=10 * cfg.tol)


def test_rows_settle_at_different_iterations():
    batched, singles = _contractions(np.random.default_rng(3), 5, 10)
    for cfg in (SolverConfig(m=1, beta=1.0, tol=1e-8), SolverConfig(tol=1e-10)):
        rep = fixedpoint.solve(batched, np.zeros((5, 10)), cfg)
        assert rep.converged and len(set(rep.row_iterations.tolist())) > 1
        assert isinstance(rep.iterations, int) and isinstance(rep.converged, bool)


@pytest.mark.parametrize("cfg", SOLVER_CONFIGS[:2])
def test_a_non_finite_row_fails_the_batch(cfg):
    batched, _ = _contractions(np.random.default_rng(0), 3, 4)

    def one_row_breaks(x):
        fx = batched(x)
        fx[1] = 1.0 if not x[1].any() else np.nan  # finite at x0, NaN from the first step on
        return fx

    with pytest.raises(NonFiniteIterate, match="iteration 1"):
        fixedpoint.solve(one_row_breaks, np.zeros((3, 4)), cfg)


def test_batched_solve_equilibrium_on_rebound_twin_equals_per_row_solves():
    rng = np.random.default_rng(5)
    twin, cfg = REBOUND_TWIN, SolverConfig(tol=1e-10)
    theta = twin.base.theta_ref * rng.uniform(0.8, 1.2, size=(6, 1))
    u = np.array([twin.assemble_u([[v]]) for v in rng.uniform(0.5, 1.0, size=6)])
    base, rerouted = twin.solve_pair(theta, u, cfg, policy=REBOUND_W0)
    refs = [twin.solve_pair(theta[r], u[r], cfg, policy=REBOUND_W0) for r in range(6)]
    assert_rows_close(base.x_star, [b.x_star for b, _ in refs])
    assert_rows_close(rerouted.x_star, [i.x_star for _, i in refs])
    assert rerouted.report.row_iterations.tolist() == [i.report.iterations for _, i in refs]


def _solution_rows(sol):
    rep = sol.report

    def row(value, r):
        return value[r] if np.ndim(value) == 2 else value

    return [EquilibriumSolution(sol.x_star[r], SolveReport(sol.x_star[r], rep.residual_norm[r],
                                                           rep.relative_error[r], 0, True),
                                row(sol.theta, r), row(sol.u, r), row(sol.policy, r),
                                None if sol.reroute is None else (sol.reroute[0], row(sol.reroute[1], r)))
            for r in range(len(sol.x_star))]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5))
def test_batched_implicit_vjp_equals_per_row_vjps(seed, rows):
    rng = np.random.default_rng(seed)
    twin, cfg = REBOUND_TWIN, SolverConfig(tol=1e-10)
    theta = twin.base.theta_ref * rng.uniform(0.8, 1.2, size=(rows, 1))
    u = np.array([twin.assemble_u([[v]]) for v in rng.uniform(0.5, 1.0, size=rows)])
    policy = REBOUND_W0 + rng.normal(scale=0.05, size=REBOUND_W0.shape)
    _, sol = twin.solve_pair(theta, u, cfg, policy=policy)
    cot = rng.normal(size=(rows, twin.deployed.d))
    ig = deq.implicit_vjp(twin.deployed, sol, cot)
    refs = [deq.implicit_vjp(twin.deployed, s, cot[r]) for r, s in enumerate(_solution_rows(sol))]
    for name in ("grad_theta", "grad_u", "grad_policy"):
        assert_rows_close(getattr(ig, name), [getattr(ref, name) for ref in refs])
    jac = deq.jacobian_wrt_theta(twin.deployed, sol)
    refs = [deq.jacobian_wrt_theta(twin.deployed, s) for s in _solution_rows(sol)]
    assert_rows_close(jac, refs)


def test_batched_implicit_vjp_agrees_with_the_inverse_product_on_rebound_twin():
    rng = np.random.default_rng(11)
    twin, rows = REBOUND_TWIN, 4
    theta = twin.base.theta_ref * rng.uniform(0.8, 1.2, size=(rows, 1))
    u = np.array([twin.assemble_u([[v]]) for v in rng.uniform(0.5, 1.0, size=rows)])
    policy = REBOUND_W0 + rng.normal(scale=0.05, size=REBOUND_W0.shape)
    base, sol = twin.solve_pair(theta, u, SolverConfig(tol=1e-10), policy=policy)
    kwargs = {"u": u, "reroute": (twin.invariant_nodes, base.x_star[:, list(twin.invariant_nodes)]),
              "policy": policy}
    cot = rng.normal(size=(rows, twin.deployed.d))
    ig = deq.implicit_vjp(twin.deployed, sol, cot)
    lin = Linearization(twin.deployed, sol.x_star, sol.theta, **kwargs)
    a = np.einsum("bji,bj->bi", np.linalg.inv(lin.lhs), cot)
    for name in ("theta", "u", "policy"):
        want = np.einsum("bji,bj->bi", getattr(lin.jac, name), a)
        np.testing.assert_allclose(getattr(ig, f"grad_{name}"), want, rtol=1e-12)


@pytest.mark.parametrize("edited", [None, "u", "policy", "reroute"])
@pytest.mark.parametrize("name", ["rebound", "scalar-policy"])
def test_batched_implicit_vjp_is_taken_at_the_solve_bindings(name, edited):
    # bit for bit the explicit linearization at the solve's u, policy and reroute, whatever
    # the caller does to those arrays after the solve; the scalar-policy twin's partials read
    # all three, the rebound twin's do not read the reroute values
    rng = np.random.default_rng(13)
    twin, w0 = (REBOUND_TWIN, REBOUND_W0) if name == "rebound" else (scalar_policy_twin(), np.array([0.3]))
    rows, cfg = 4, SolverConfig(tol=1e-10)
    theta = twin.base.theta_ref * rng.uniform(0.8, 1.2, size=(rows, 1))
    u = np.array([twin.assemble_u([[v]]) for v in rng.uniform(0.5, 1.0, size=rows)])
    policy = w0 + rng.normal(scale=0.05, size=w0.shape)
    nodes = list(twin.invariant_nodes)
    values = solve_equilibrium(twin.base, theta, cfg).x_star[:, nodes]
    sol = solve_equilibrium(twin.deployed, theta, cfg, u=u, reroute=(nodes, values), policy=policy)
    lin = Linearization(twin.deployed, sol.x_star, theta, u=u, reroute=(nodes, values), policy=policy)
    cot = rng.normal(size=(rows, twin.deployed.d))
    a = np.linalg.solve(lin.lhs.mT, cot[..., None])[..., 0]
    given = {"u": u, "policy": policy, "reroute": values}
    if edited is not None:
        given[edited] *= 1.5  # in place, on the array the solve was given
    ig = deq.implicit_vjp(twin.deployed, sol, cot)
    for slot in ("theta", "u", "policy"):
        np.testing.assert_array_equal(getattr(ig, f"grad_{slot}"), (a[:, None, :] @ getattr(lin.jac, slot))[:, 0, :])


def test_batched_implicit_vjp_on_rebound_twin_forms_no_inverse(monkeypatch):
    # the twin's df/dx has columns of 1-norm 1, so only the bound from ||J^2||_1 settles the gate
    rng = np.random.default_rng(3)
    twin, rows = REBOUND_TWIN, 4
    theta = twin.base.theta_ref * rng.uniform(0.8, 1.2, size=(rows, 1))
    u = np.array([twin.assemble_u([[v]]) for v in rng.uniform(0.5, 1.0, size=rows)])
    base, sol = twin.solve_pair(theta, u, SolverConfig(tol=1e-10), policy=REBOUND_W0)
    kwargs = {"u": u, "reroute": (twin.invariant_nodes, base.x_star[:, list(twin.invariant_nodes)]),
              "policy": REBOUND_W0}
    j_x = node_gradients(twin.deployed, sol.x_star, sol.theta, **kwargs).x
    assert np.all(np.linalg.norm(j_x, 1, axis=(-2, -1)) >= 1.0)
    calls = count_inverses(monkeypatch)
    deq.implicit_vjp(twin.deployed, sol, rng.normal(size=(rows, twin.deployed.d)))
    assert calls == []


def test_implicit_vjp_refuses_a_batch_with_an_unconverged_row():
    twin = REBOUND_TWIN
    theta = twin.base.theta_ref * np.array([[0.9], [1.1]])
    sol = solve_equilibrium(twin.base, theta, SolverConfig(tol=1e-10))
    sol.report.row_converged[1] = False
    sol.report.converged = False
    with pytest.raises(NotConverged):
        deq.implicit_vjp(twin.base, sol, np.ones((2, twin.base.d)))


@pytest.mark.parametrize("samples", [1, 4])
def test_batched_training_draws_samples_in_the_per_sample_order(samples):
    sampling = SamplingConfig(theta_stddev=(0.2,), samples_per_step=samples)
    adam = AdamConfig(learning_rate=0.01, iterations=3, seed=11, early_stop=False)
    solver = SolverConfig(tol=1e-5)
    got = train_invariant_policy(REBOUND_TWIN, REBOUND_W0, sampling, adam, solver, (0.5, 1.0))
    want = reference_train_invariant_policy(REBOUND_TWIN, REBOUND_W0, sampling, adam, solver, (0.5, 1.0))
    assert got.steps == want.steps == 3
    np.testing.assert_allclose(got.losses, want.losses, rtol=1e-10)
    np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-10)


def _assert_draws_per_row(twin, sampling, u_range, seed, n):
    theta, u = draw_samples(twin, sampling, u_range, np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed)
    rows = [reference_draw(twin, sampling, u_range, rng) for _ in range(n)]
    assert theta.tobytes() == np.array([t for t, _ in rows]).tobytes()
    assert u.tobytes() == np.array([v for _, v in rows]).tobytes()


def test_held_out_draws_of_the_invariant_pipeline_equal_the_per_row_draws():
    inst = modelzoo.rebound_3sector()
    # the pipeline's 50 held-out rows at seed 0 draw from default_rng(seed + 99)
    _assert_draws_per_row(REBOUND_TWIN, SamplingConfig(theta_stddev=(0.2,)), (inst.u_low, inst.u_high), 99, 50)


def test_two_plan_draws_equal_the_per_row_draws():
    inst = modelzoo.two_compartment_model()
    twin = build_invariant_model(inst.spec, inst.plan.plans,
                                 [identity("multiplicative", (p.intervened,)) for p in inst.plan.plans])
    assert twin.groups == ("multiplicative", "multiplicative")
    _assert_draws_per_row(twin, SamplingConfig(theta_stddev=(0.1,)), (inst.u_low, inst.u_high), 3, 16)


def test_an_additive_twin_draws_u_uniformly_in_the_range():
    twin = build_invariant_model(motivating_spec(), scalar_policy_twin().plans[0], identity("additive", (1,)))
    assert twin.groups == ("additive",)
    sampling = SamplingConfig()
    theta, u = draw_samples(twin, sampling, (0.5, 2.0), np.random.default_rng(5), 4)
    rng = np.random.default_rng(5)
    (start, _), = twin.u_slices
    for row_theta, row_u in zip(theta, u):
        assert row_theta.tobytes() == reference_sample_theta(twin.base, sampling, rng).tobytes()
        assert row_u[start].hex() == rng.uniform(0.5, 2.0).hex()


def test_training_batch_with_one_unconverged_row_raises_not_converged(monkeypatch):
    # beta * gamma = 0.12 settles in a few forward steps, 0.99 needs thousands
    twin = scalar_policy_twin()
    thetas = np.array([[1.0, 0.5, 0.3, 0.4], [1.0, 0.5, 0.99, 1.0]])
    u = twin.assemble_u([[1.0]])
    # every step's two rows are these, however many steps one draw_samples call covers
    monkeypatch.setattr(optimize, "draw_samples", lambda twin, sampling, u_range, rng, n: (
        np.tile(thetas, (n // 2, 1)), np.tile(u, (n, 1))))
    solver = SolverConfig(m=1, beta=1.0, tol=1e-8, max_iter=200)
    base, _ = twin.solve_pair(thetas, np.array([u] * 2), solver, policy=np.array([0.4]))
    assert base.report.row_converged.tolist() == [True, False]
    with pytest.raises(SolveFailedDuringOptimization) as info:
        train_invariant_policy(twin, np.array([0.4]), SamplingConfig(samples_per_step=2),
                               AdamConfig(iterations=2), solver)
    assert isinstance(info.value.__cause__, NotConverged)


def _recorded_descents(monkeypatch):
    """The _Descent of every optimize._descend call, in call order."""
    runs, descend = [], optimize._descend
    monkeypatch.setattr(optimize, "_descend", lambda *args: runs.append(descend(*args)) or runs[-1])
    return runs


def _break_rows(monkeypatch, theta_by_row):
    """Make optimize.draw_samples put theta_by_row[r] in place of the r-th row it draws since
    the last call of this function, however many rows one call draws."""
    drawn = [0]

    def draw_broken(twin, sampling, u_range, rng, n):
        theta, u = draw_samples(twin, sampling, u_range, rng, n)
        for row, value in theta_by_row.items():
            if drawn[0] <= row < drawn[0] + n:
                theta[row - drawn[0]] = value
        drawn[0] += n
        return theta, u

    monkeypatch.setattr(optimize, "draw_samples", draw_broken)


def _assert_trains_as_step_by_step(monkeypatch, twin, w0, sampling, adam, solver, u_range, broken=None):
    """train_invariant_policy, which draws and solves the base equilibria of several steps ahead,
    gives the bits of one draw_samples call and one solve_pair per step, and fails on the same steps."""
    runs = _recorded_descents(monkeypatch)
    trained = []
    for train in (train_invariant_policy, reference_step_train_invariant_policy):
        if broken is not None:
            _break_rows(monkeypatch, broken)
        trained.append(train(twin, w0, sampling, adam, solver, u_range))
    (got, want), (got_run, want_run) = trained, runs
    assert got.weights.tobytes() == want.weights.tobytes()
    assert np.array(got.losses).tobytes() == np.array(want.losses).tobytes()
    assert (got.steps, got.early_stopped, got.aborted, got.failures) == \
        (want.steps, want.early_stopped, want.aborted, want.failures)
    assert got_run.failures == want_run.failures
    return got, got_run


REBOUND_TRAINING = (REBOUND_TWIN, REBOUND_W0, (0.2,), (0.5, 2.0), SolverConfig(tol=1e-5))


def _compartment_training():
    inst = modelzoo.two_compartment_model()
    twin = build_invariant_model(inst.spec, inst.plan.plans,
                                 [identity("multiplicative", (p.intervened,)) for p in inst.plan.plans])
    return twin, inst.w0, (0.1,), (inst.u_low, inst.u_high), SolverConfig(tol=1e-6)


@pytest.mark.parametrize("twin_name,samples,iterations", [
    ("rebound", 16, 70),  # one chunk of 64 steps, then a partial one of 6
    ("rebound", 256, 10),  # chunks of 4, 4 and 2 steps
    ("rebound", 2000, 2),  # more rows than a chunk: one step per chunk
    ("two-compartment", 16, 66),
    ("two-compartment", 300, 7),  # chunks of 3, 3 and 1 steps
])
def test_chunked_training_keeps_the_bits_of_step_by_step_training(monkeypatch, twin_name, samples,
                                                                  iterations):
    twin, w0, stddev, u_range, solver = REBOUND_TRAINING if twin_name == "rebound" else _compartment_training()
    sampling = SamplingConfig(theta_stddev=stddev, samples_per_step=samples)
    adam = AdamConfig(learning_rate=0.01, iterations=iterations, seed=3, early_stop=False)
    got, _ = _assert_trains_as_step_by_step(monkeypatch, twin, w0, sampling, adam, solver, u_range)
    assert got.steps == iterations and not got.failures


def test_chunked_training_stops_early_inside_a_chunk(monkeypatch):
    twin, w0, stddev, u_range, solver = REBOUND_TRAINING
    sampling = SamplingConfig(theta_stddev=stddev, samples_per_step=16)
    adam = AdamConfig(learning_rate=0.01, iterations=100, seed=1, plateau_window=7, plateau_rtol=10.0)
    got, _ = _assert_trains_as_step_by_step(monkeypatch, twin, w0, sampling, adam, solver, u_range)
    assert got.early_stopped and got.steps == 14


@pytest.mark.parametrize("steps,aborted", [((5,), False), ((3, 9), False), ((2, 3, 4, 6, 7, 9), True)])
def test_a_chunk_whose_base_solve_raises_fails_the_same_steps(monkeypatch, steps, aborted):
    # a NaN theta breaks the base map; the chunk's batched base solve raises, and its steps then
    # solve their own rows: only the steps holding a NaN row fail, each as it fails alone
    twin, w0, stddev, u_range, solver = REBOUND_TRAINING
    sampling = SamplingConfig(theta_stddev=stddev, samples_per_step=4)
    adam = AdamConfig(learning_rate=0.01, iterations=12, seed=5, early_stop=False)
    broken = {4 * step + 1: np.nan for step in steps}
    with pytest.raises(NonFiniteIterate):
        solve_equilibrium(twin.base, np.array([[np.nan]]), solver)
    got, run = _assert_trains_as_step_by_step(monkeypatch, twin, w0, sampling, adam, solver, u_range, broken)
    assert run.failures == list(steps) and got.aborted is aborted


def test_an_unconverged_base_row_fails_its_own_step_of_a_chunk(monkeypatch):
    # beta * gamma = 0.99 needs thousands of forward steps: step 3's base row stops unconverged,
    # the chunk's batched solve does not raise, and only step 3 fails, with NotConverged
    twin = scalar_policy_twin()
    solver = SolverConfig(m=1, beta=1.0, tol=1e-8, max_iter=200)
    sampling = SamplingConfig(samples_per_step=4)
    adam = AdamConfig(learning_rate=0.05, iterations=8, seed=2, early_stop=False)
    broken = {13: np.array([1.0, 0.5, 0.99, 1.0])}
    _, run = _assert_trains_as_step_by_step(monkeypatch, twin, np.array([0.4]), sampling, adam, solver,
                                            (0.5, 2.0), broken)
    assert run.failures == [3]
