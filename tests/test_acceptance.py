"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The learned-policy criteria (5 and 6) train MLPs and take
a few minutes each; everything else is fast.
"""

import time

import numpy as np
import pytest

from eqcausal import deq, interventions, modelzoo, optimize, sscm
from eqcausal.cli import _config_from_obj, run_experiment
from eqcausal.diffcore import ExprBuilder, finite_difference_jacobian, forward_eval, reverse_vjp
from eqcausal.fixedpoint import SolverConfig, anderson_solve, forward_iterate
from eqcausal.interventions import InvariantInterventionSpec, LieElement, build_invariant_model
from eqcausal.modelzoo import leontief_closed_form, motivating_closed_form
from eqcausal.sscm import solve_equilibrium


def _report(criterion: int, description: str, ok: bool, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {criterion} ({description}): {status} ({elapsed:.1f}s)")
    assert ok, f"criterion {criterion} failed: {description}"


def _sample_motivating_theta(rng):
    return np.array([rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.8),
                     rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.7)])


def test_criterion_1_motivating_example_oracle():
    t0 = time.perf_counter()
    spec = modelzoo.motivating_example()
    cfg = SolverConfig(tol=1e-6)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        theta = _sample_motivating_theta(rng)
        sol = solve_equilibrium(spec, theta, cfg)
        oracle = motivating_closed_form(*theta)
        worst = max(worst, np.linalg.norm(sol.x_star - oracle) / np.linalg.norm(oracle))
    elapsed = time.perf_counter() - t0
    _report(1, f"closed-form oracle over 1000 theta, worst rel err {worst:.2e}",
            worst < 1e-4 and elapsed < 5.0, elapsed)


def test_criterion_2_exact_linear_invariance():
    t0 = time.perf_counter()
    spec = modelzoo.motivating_example()
    b = ExprBuilder()
    p = b.input("parents", 1)
    u = b.input("u", 1)
    t = b.input("theta", 1)
    policy = b.build(b.recip(u) * t * p)  # u_z = 1 / u_y
    plan = InvariantInterventionSpec(intervened=1, invariant=2, auxiliary=2, policy=policy)
    twin = build_invariant_model(spec, plan, LieElement("multiplicative", (1,), [1.0]))
    cfg = SolverConfig(tol=1e-8)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        theta = _sample_motivating_theta(rng)
        z_star = motivating_closed_form(*theta)[2]
        for u_y in np.linspace(0.5, 2.0, 9):
            dep = solve_equilibrium(twin.deployed, theta, cfg, u=twin.assemble_u([[u_y]]))
            worst = max(worst, abs(dep.x_star[2] - z_star))
    elapsed = time.perf_counter() - t0
    _report(2, f"reciprocal policy keeps z invariant, worst |dev| {worst:.2e}",
            worst < 1e-4, elapsed)


def test_criterion_3_implicit_gradient_correctness():
    t0 = time.perf_counter()
    cfg = SolverConfig(tol=1e-8)
    h = 1e-4

    def fd_jacobian(spec, theta):
        base = theta.copy()
        cols = []
        for k in range(spec.theta_dim):
            tp, tm = base.copy(), base.copy()
            tp[k] += h
            tm[k] -= h
            xp = solve_equilibrium(spec, tp, cfg).x_star
            xm = solve_equilibrium(spec, tm, cfg).x_star
            cols.append((xp - xm) / (2 * h))
        return np.stack(cols, axis=1)

    def max_dev(spec, theta):
        sol = solve_equilibrium(spec, theta, cfg)
        jac = deq.jacobian_wrt_theta(spec, sol)
        fd = fd_jacobian(spec, theta)
        return float((np.abs(jac - fd) / (1.0 + np.abs(fd))).max())

    table = modelzoo.leontief_synthetic(40)
    spec_affine = modelzoo.leontief_model(table)
    dev_affine = max_dev(spec_affine, spec_affine.theta_ref.copy())

    inst = modelzoo.rebound_3sector()
    dev_rebound = max_dev(inst.spec, inst.spec.theta_ref.copy())

    elapsed = time.perf_counter() - t0
    _report(3, f"implicit vs FD: affine {dev_affine:.2e} (<1e-6), rebound {dev_rebound:.2e} (<1e-3)",
            dev_affine < 1e-6 and dev_rebound < 1e-3, elapsed)


def test_criterion_4_solver_accuracy_protocol():
    t0 = time.perf_counter()
    dims = (2, 10, 50, 100, 200)
    methods = {
        "forward": SolverConfig(),
        "anderson_beta1": SolverConfig(beta=1.0),
        "anderson_beta2": SolverConfig(beta=2.0),
    }
    mean_iters: dict = {}
    all_within_tol = True
    for dim in dims:
        for label, cfg in methods.items():
            iters = []
            for seed in range(20):
                A, y = modelzoo.random_contraction(dim, seed, 0.9)
                f = lambda x: A @ x + y  # noqa: E731
                solver = forward_iterate if label == "forward" else anderson_solve
                report = solver(f, np.zeros(dim), cfg)
                all_within_tol &= report.converged and report.relative_error <= 1e-4
                iters.append(report.iterations)
            mean_iters[(dim, label)] = float(np.mean(iters))
    anderson_wins = all(
        mean_iters[(d, "anderson_beta2")] < mean_iters[(d, "forward")] for d in (50, 100, 200))
    elapsed = time.perf_counter() - t0
    _report(4, "all methods reach 1e-4; Anderson beta=2 fewer mean iterations at dims >= 50",
            all_within_tol and anderson_wins and elapsed < 60.0, elapsed)


def test_criterion_5_learned_invariance_controls_rebound():
    t0 = time.perf_counter()
    cfg = _config_from_obj({
        "command": "invariant", "model": "rebound-3sector",
        "adam": {"learning_rate": 0.01, "iterations": 800},
        "sampling": {"samples_per_step": 16, "theta_stddev": [0.2]},
        "seed": 1,
    })
    manifest = run_experiment(cfg, out_dir="/tmp/eqcausal-acceptance/invariant")
    detail = manifest.stages[-1]["detail"]
    elapsed = time.perf_counter() - t0
    # near-identity continuity: the deviation stays small at the identity and
    # moves without jumps along the intervention range
    continuous = detail["identity_deviation"] < 0.02 and detail["max_u_sweep_jump"] < 0.02
    ok = (manifest.success and detail["held_out_max_dev"] < 0.02
          and detail["backfire"] and detail["reduction"] and continuous and elapsed < 600.0)
    _report(5, f"held-out dev {detail['held_out_max_dev']:.4f} (<0.02), plain intervention "
               f"backfires, invariant intervention reduces energy", ok, elapsed)


def test_criterion_6_compartmentalization():
    t0 = time.perf_counter()
    cfg = _config_from_obj({
        "command": "compartment", "model": "two-compartment",
        "adam": {"learning_rate": 0.01, "iterations": 700},
        "sampling": {"samples_per_step": 16, "theta_stddev": [0.1]},
        "seed": 1,
    })
    manifest = run_experiment(cfg, out_dir="/tmp/eqcausal-acceptance/compartment")
    detail = manifest.stages[-1]["detail"]
    elapsed = time.perf_counter() - t0
    ok = (manifest.success and detail["structural_ok"] and detail["cross_deviation"] < 0.02
          and detail["own_response"] > 0.10 and elapsed < 600.0)
    _report(6, f"cross-compartment dev {detail['cross_deviation']:.4f} (<0.02), "
               f"own-node response {detail['own_response']:.2f} (>0.10)", ok, elapsed)


def test_criterion_7_pareto_sweep_shape():
    t0 = time.perf_counter()
    table = modelzoo.leontief_synthetic(10)
    spec = modelzoo.leontief_model(table)
    adam = optimize.AdamConfig(learning_rate=0.02, iterations=500, early_stop=True,
                               plateau_window=50, plateau_rtol=1e-10)
    lambdas = [0.0, 0.1, 0.3, 1.0, 3.0, 10.0]
    points = optimize.pareto_sweep(spec, table.impact_row("ghg"), table.impact_row("employment"),
                                   lambdas, adam, SolverConfig(tol=1e-8),
                                   bounds=(0.5, 1.0))
    ghg = [p.ghg_total for p in points]
    dev = [p.employment_l1_deviation for p in points]
    slack = 1e-6 * (max(ghg) - min(ghg))
    monotone = (all(a <= b + slack for a, b in zip(ghg, ghg[1:]))
                and all(a >= b - slack for a, b in zip(dev, dev[1:])))
    endpoints = (ghg[0] == min(ghg) and dev[0] == max(dev) and dev[-1] < 0.01 * dev[0]
                 and np.allclose(points[0].alpha, 0.5, atol=1e-3)
                 and np.allclose(points[-1].alpha, 1.0, atol=1e-2))
    elapsed = time.perf_counter() - t0
    _report(7, "monotone GHG/employment frontier with maximal-reduction and identity endpoints",
            monotone and endpoints and all(p.converged for p in points) and elapsed < 600.0,
            elapsed)


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    ok = True

    # group axioms on random elements
    for _ in range(200):
        vals = rng.uniform(0.1, 10.0, size=3)
        g1 = LieElement("multiplicative", (0, 1, 2), vals)
        g2 = LieElement("multiplicative", (0, 1, 2), rng.uniform(0.1, 10.0, size=3))
        g3 = LieElement("multiplicative", (0, 1, 2), rng.uniform(0.1, 10.0, size=3))
        assoc = np.allclose(
            interventions.compose(interventions.compose(g1, g2), g3).values,
            interventions.compose(g1, interventions.compose(g2, g3)).values, rtol=1e-12)
        inv = np.allclose(interventions.compose(g1, interventions.inverse(g1)).values, 1.0,
                          rtol=1e-12)
        ok &= assoc and inv

    # action compatibility within 10 * tol
    spec = modelzoo.motivating_example()
    cfg = SolverConfig()
    g = LieElement("multiplicative", (1, 2), [1.2, 0.8])
    h = LieElement("multiplicative", (1, 2), [0.9, 1.1])
    two = solve_equilibrium(interventions.apply(interventions.apply(spec, g), h),
                            spec.theta_ref, cfg).x_star
    one = solve_equilibrium(interventions.apply(spec, interventions.compose(h, g)),
                            spec.theta_ref, cfg).x_star
    ok &= np.linalg.norm(two - one) <= 10 * cfg.tol * np.linalg.norm(one)

    # VJP/FD agreement on a mixed graph
    b = ExprBuilder()
    x = b.input("x", 3)
    expr = b.dot(b.exp(b.powc(b.relu(x) + b.const([0.5, 0.5, 0.5]), 1.5)), x)
    graph = b.build(expr)
    for _ in range(20):
        point = rng.uniform(0.2, 1.0, size=3)
        v = rng.normal(size=1)
        vjp = reverse_vjp(graph, {"x": point}, v)["x"]
        fd = v @ finite_difference_jacobian(lambda z: forward_eval(graph, {"x": z}), point, h=1e-6)
        ok &= bool(np.max(np.abs(vjp - fd) / (1.0 + np.abs(fd))) < 1e-4)

    # Hawkins-Simon check implies forward-iteration convergence
    for _ in range(10):
        n = int(rng.integers(2, 12))
        A = rng.uniform(0.0, 1.0, size=(n, n))
        A *= rng.uniform(0.3, 0.95) / max(abs(np.linalg.eigvals(A)))
        ok &= modelzoo.hawkins_simon_check(A)
        rep = forward_iterate(lambda z: A @ z + 1.0, np.zeros(n), SolverConfig())
        ok &= rep.converged

    # determinism of seeded runs
    c = _config_from_obj({"command": "bench", "model": "leontief-synthetic-4",
                          "bench": {"dims": [2, 10], "seeds": 5}, "seed": 3})
    m1 = run_experiment(c, out_dir="/tmp/eqcausal-acceptance/det-a").outputs
    m2 = run_experiment(c, out_dir="/tmp/eqcausal-acceptance/det-b").outputs
    ok &= [r["sha256"] for r in m1] == [r["sha256"] for r in m2]

    elapsed = time.perf_counter() - t0
    _report(8, "group axioms, action compatibility, VJP-FD, Hawkins-Simon, determinism",
            bool(ok), elapsed)
