"""A batch of B problems must give, row by row, what B separate calls give: the
structural map, node_gradients, both solvers and the implicit VJP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcausal import deq, fixedpoint, modelzoo, optimize
from eqcausal.errors import NonFiniteIterate, NotConverged, SolveFailedDuringOptimization
from eqcausal.fixedpoint import SolveReport, SolverConfig
from eqcausal.optimize import AdamConfig, SamplingConfig, train_invariant_policy
from eqcausal.sscm import EquilibriumSolution, assemble_map, node_gradients, solve_equilibrium

from ._models import reference_train_invariant_policy
from .test_optimize import scalar_policy_twin
from .test_sscm import REBOUND_TWIN, REBOUND_W0, _random_spec

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
    slots = ["x", "theta", *(s for s in ("u", "extern", "policy") if kwargs.get(s) is not None)]
    batched = {s for s in slots if rng.random() < 0.5} or {"x"}
    stacked, per_row = _batch_bindings(rng, rows, {"x": x, "theta": theta, **kwargs}, batched)
    if "x" not in batched:
        stacked["x"] = np.broadcast_to(x, (rows, spec.d))  # the map takes one iterate per row

    def call(b):
        rest = {k: v for k, v in b.items() if k not in ("x", "theta")}
        return assemble_map(spec, b["theta"], **rest)(b["x"]), node_gradients(spec, b["x"], b["theta"], **rest)

    fx, grads = call(stacked)
    singles = [call(b) for b in per_row]
    assert_rows_close(fx, [f for f, _ in singles])
    for j in range(spec.d):
        for slot, part in grads[j].parts.items():
            assert_rows_close(part, [g[j][slot] for _, g in singles])


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
    kwargs = {"u": twin.assemble_u([[rng.uniform(0.5, 1.0)]]), "extern": x[list(twin.invariant_nodes)],
              "policy": REBOUND_W0 + rng.normal(scale=0.1, size=REBOUND_W0.shape)}
    _check_map_and_gradients(twin.rerouted, x, twin.base.theta_ref, kwargs, rng)


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
    return [EquilibriumSolution(sol.x_star[r], SolveReport(sol.x_star[r], rep.residual_norm[r],
                                                           rep.relative_error[r], 0, True),
                                sol.theta[r] if np.ndim(sol.theta) == 2 else sol.theta)
            for r in range(len(sol.x_star))]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5))
def test_batched_implicit_vjp_equals_per_row_vjps(seed, rows):
    rng = np.random.default_rng(seed)
    twin, cfg = REBOUND_TWIN, SolverConfig(tol=1e-10)
    theta = twin.base.theta_ref * rng.uniform(0.8, 1.2, size=(rows, 1))
    u = np.array([twin.assemble_u([[v]]) for v in rng.uniform(0.5, 1.0, size=rows)])
    policy = REBOUND_W0 + rng.normal(scale=0.05, size=REBOUND_W0.shape)
    base, sol = twin.solve_pair(theta, u, cfg, policy=policy)
    extern = base.x_star[:, list(twin.invariant_nodes)]
    cot = rng.normal(size=(rows, twin.rerouted.d))
    ig = deq.implicit_vjp(twin.rerouted, sol, cot, u=u, extern=extern, policy=policy)
    refs = [deq.implicit_vjp(twin.rerouted, s, cot[r], u=u[r], extern=extern[r], policy=policy)
            for r, s in enumerate(_solution_rows(sol))]
    for name in ("grad_theta", "grad_u", "grad_policy"):
        assert_rows_close(getattr(ig, name), [getattr(ref, name) for ref in refs])
    jac = deq.jacobian_wrt_theta(twin.rerouted, sol, u=u, extern=extern, policy=policy)
    refs = [deq.jacobian_wrt_theta(twin.rerouted, s, u=u[r], extern=extern[r], policy=policy)
            for r, s in enumerate(_solution_rows(sol))]
    assert_rows_close(jac, refs)


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
    sampling = SamplingConfig(u_low=0.5, u_high=1.0, theta_stddev=(0.2,), samples_per_step=samples)
    adam = AdamConfig(learning_rate=0.01, iterations=3, seed=11, early_stop=False)
    solver = SolverConfig(tol=1e-5)
    got = train_invariant_policy(REBOUND_TWIN, REBOUND_W0, sampling, adam, solver)
    want = reference_train_invariant_policy(REBOUND_TWIN, REBOUND_W0, sampling, adam, solver)
    assert got.steps == want.steps == 3
    np.testing.assert_allclose(got.losses, want.losses, rtol=1e-10)
    np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-10)


def test_training_batch_with_one_unconverged_row_raises_not_converged(monkeypatch):
    # beta * gamma = 0.12 settles in a few forward steps, 0.99 needs thousands
    twin = scalar_policy_twin()
    thetas = iter([np.array([1.0, 0.5, 0.3, 0.4]), np.array([1.0, 0.5, 0.99, 1.0])])
    monkeypatch.setattr(optimize, "sample_theta", lambda spec, sampling, rng: next(thetas))
    solver = SolverConfig(m=1, beta=1.0, tol=1e-8, max_iter=200)
    base, _ = twin.solve_pair(np.array([[1.0, 0.5, 0.3, 0.4], [1.0, 0.5, 0.99, 1.0]]),
                              np.array([twin.assemble_u([[1.0]])] * 2), solver, policy=np.array([0.4]))
    assert base.report.row_converged.tolist() == [True, False]
    with pytest.raises(SolveFailedDuringOptimization) as info:
        train_invariant_policy(twin, np.array([0.4]), SamplingConfig(samples_per_step=2),
                               AdamConfig(iterations=2), solver)
    assert isinstance(info.value.__cause__, NotConverged)
