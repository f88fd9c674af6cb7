"""Per-layer timings: one structural-map call, one node_gradients call, one Linearization,
one Anderson step, the map call and node_gradients of an intervened d = 100 model, the
first-use cost of a fresh intervened d = 100 spec, the construction of a
CSV model, one implicit VJP of a CSV-sized model, B map calls, equilibrium solves,
Anderson steps and implicit VJPs of the rerouted rebound twin, the bench pipeline's
problem construction and run, one reduced invariant pipeline run, the invariance
checks, the construction of the invariant twins, a structural map's assembly and first
call, and the import of the command line.

    python scripts/layer_bench.py --label change --out BENCH_27.json
    python scripts/layer_bench.py --label parent --src ../parent/src --out BENCH_27.json

Each model is timed at its equilibrium: `leontief-synthetic-N` at
N = 10, 50, 100, 200, and the rerouted rebound twin with its MLP policy (the
model the invariant pipeline trains). The rerouted twin is the deployed spec solved
with its invariant node rerouted to given values (`reroute=`); on older sources,
which have no reroute, it is the twin's `rerouted` spec with those values bound to
`extern`. `linearization_s` is one
sscm.Linearization: the dense partials of the map and I - df/dx. Its condition
number is computed on first read, so not here. The Anderson step runs the
default solver bookkeeping (m = 8, beta = 1, as the CLI's evaluation solver)
on the model's linearisation x -> J x + (x* - J x*), so it times the solver
and not the map.

`applied_map_call_s` and `applied_node_gradients_s` are one map call and one
node_gradients call of `leontief-synthetic-100` with a multiplicative
intervention applied on all sectors, at its equilibrium: the program that the
pareto pipeline's descents run.

`compile_s` is the one-off cost of a spec's first use before anything is bound:
`interventions.apply` the same intervention, then time the derived spec's validation,
its stacking where it has a program of its own to stack, `diffcore._compile` (which
calls `_fuse` at a first use) and the first `diffcore._sweep` toward its entry nodes.
`first_bind_s` is what its first map call and first node_gradients call then cost
beyond the same two calls warm: the value buffer (`diffcore._Layout`) that the first
call builds and binds. Records made before this split timed the first map call and
node_gradients minus warm ones as `compile_s`, which held the first binding at sources
that bind at the first call and not at older ones, so those `compile_s` figures are
not comparable with these.

The construction layers build `leontief-synthetic-N` at N = 100, 300, 1,000 from
CSV files written by dataio.write_iotable_csv: `load_s` is dataio.load_iotable_csv
of the three files, `leontief_model_s` modelzoo.leontief_model of the loaded
table, `apply_s` an all-sector multiplicative interventions.apply on a model
already in use (stacked and compiled, as in the pareto pipeline), and
`stack_compile_s` the first map call of a fresh model minus a warm one (validate,
stack and compile). `csv_to_first_map_s` runs the whole path once: load, build,
apply, and the first map call of the intervened model. Each is the median of
max(3, 3000 // N) calls.

`implicit_vjp_s` is one deq.implicit_vjp of a cotangent of ones at the equilibrium
of `leontief-synthetic-N`, N = 100, 300, 1,000: one Linearization, its condition
gate and the adjoint.

The batched layers evaluate the map of, solve and pull B cotangents back
through B = 1, 4, 16, 50 rerouted-twin equilibria (random theta and u, shared
policy weights, the CLI's evaluation solver at tol 1e-8). Sources with a batch
axis run each as one batch ("mode": "batched"; only these time the map call and
the Anderson step); older sources solve one at a time ("loop"). The VJPs read u, the
policy weights and the reroute from the solution on sources that record them there, and
take them as keywords on older ones. `anderson_step_s`
is one iteration of the batch's Anderson loop (m = 8, beta = 1) on the rows'
linearisations x -> J x + (x* - J x*), as for the per-model layers: the (4, 9)
row is the shape of an invariant training step.

The bench layers run at the solver-sweep workload's sizes, dims 2, 10, 50, 100, 200
and seeds 1 to 6. `random_contractions_s` is the construction of one dimension's six
contractions as cli._bench_rows builds them (modelzoo.random_contractions, one stack;
on sources without it, modelzoo.random_contraction seed by seed). `forward_step_s` is
one forward-iteration step (fixedpoint.forward_iterate, Anderson's m = 1 loop) of those
six problems as one (6, d) batch, beyond its map call x -> A x + y, which is timed
alone and subtracted. `solver_sweep_s` is one cli._run_bench of the workload's config
(seed 1): problems built and solved, bench.csv and bench_summary.csv written to a
temporary directory.

`invariant_run_s` is one cli._run_invariant of the rebound-invariant benchmark
workload's config (4 Adam steps in the first of three phases, 4 samples per
step, seed 1): training, the evaluation solves and the three outputs written
to a temporary directory. `train_phase_s` is one optimize.train_invariant_policy
phase at acceptance criterion 5's shape: the rebound twin and its MLP policy, 16
samples per step, 64 Adam steps at learning rate 0.01, theta stddev 0.2, the
model's u range, seed 1 and solver tol 1e-5 (the median of TRAIN_REPEATS phases).

`invariance_check_s` is one interventions.check_invariance_conditions of the
motivating example with tau free (i, j, k = 1, 2, 2), and `hard_derivative_s` one
interventions.hard_intervention_derivative, each with its equilibrium solve: of the
rebound base model, d x_1 / d x_7 (the target sector's output against its final
demand), and of `leontief-synthetic-30`, d x_0 / d x_1.

`twin_build_s` is one interventions.build_invariant_model and the first rerouted map
call of the spec it trains (stacking and compiling its program), at the base model's
equilibrium, for the twins the invariant pipeline (`rebound`, its MLP policy) and
the compartment pipeline (`two-compartment`, one plan per compartment) build.

`first_map_call_s` is one sscm.assemble_map and the first call of its map, on a
program compiled before: the cost of binding theta, u, the rerouted values and the
policy weights, which every solve pays once. It is timed at the equilibrium of
`leontief-synthetic-100` and at B = 1 and 4 rows of the rerouted rebound twin (random
theta, u, rerouted values and x rows, shared policy weights).

`import_cli_s` is the least of REPEATS imports of `eqcausal.cli` from the measured
sources, each in a fresh `python -B` interpreter that has imported numpy first, so it
times the package and its other imports (a command-line library among them) and not
numpy. `-B` keeps those interpreters from writing bytecode: they read the sources'
`__pycache__` when there is one (the other layers' imports in this process write it,
unless PYTHONDONTWRITEBYTECODE is set) and compile the sources on every import when there
is none, so compare records taken under the same setting.

Every figure is the median, over REPEATS batches, of the mean time of one
call in a batch, and the whole set is measured ROUNDS times in turn, each figure
the least of its ROUNDS medians, which keeps a short slow spell of a shared host
out of the record. The record, with machine info, the git revision and a digest
of the measured sources, is stored under its label in the output file; other
labels are kept. A rerun under a label whose record holds the same digest keeps
the least of both, so running two labels in turn a few times refines both
records through the same spells of a shared host; a record of other sources is
replaced. It reports and gates nothing, so no test runs it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 15
TRAIN_REPEATS = 5  # a training phase takes about 0.2 s
ROUNDS = 3


def _median_call_s(fn, batch: int) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t0) / batch)
    return float(np.median(times))


def _rebound_twin():
    """The invariant pipeline's twin of the rebound model and its initial policy weights."""
    from eqcausal import modelzoo, optimize
    from eqcausal.interventions import LieElement, build_invariant_model

    inst = modelzoo.rebound_3sector()
    mlp = inst.policy_mlp()
    policy, w0 = optimize.build_mlp_policy(mlp, 1, 1)
    twin = build_invariant_model(inst.spec, inst.plan(policy, mlp.n_weights),
                                 LieElement("multiplicative", (inst.energy_sector,), [1.0]))
    return twin, w0


def _rerouted(twin, values):
    """The spec and keyword that feed `values` to the arrows out of the twin's invariant nodes:
    the deployed spec and a reroute, or on sources without one the rerouted spec and extern."""
    if hasattr(twin, "rerouted"):
        return twin.rerouted, {"extern": values}
    return twin.deployed, {"reroute": (twin.invariant_nodes, values)}


def _vjp_bindings(**bindings) -> dict:
    """The bindings to pass deq.implicit_vjp beside a solution: none on sources whose
    solutions record the bindings they were solved at, all of them on older ones."""
    from eqcausal import deq

    return bindings if "u" in inspect.signature(deq.implicit_vjp).parameters else {}


def _models():
    from eqcausal import modelzoo
    from eqcausal.sscm import solve_equilibrium

    cfg = _solver(tol=1e-10)
    for n in (10, 50, 100, 200):
        spec = modelzoo.leontief_model(modelzoo.leontief_synthetic(n))
        x = solve_equilibrium(spec, spec.theta_ref, cfg).x_star
        yield f"leontief-synthetic-{n}", spec, x, {}

    twin, w0 = _rebound_twin()
    theta = twin.base.theta_ref
    u = twin.assemble_u([[0.7]])
    base = solve_equilibrium(twin.base, theta, cfg)
    spec, kwargs = _rerouted(twin, base.x_star[list(twin.invariant_nodes)])
    kwargs.update(u=u, policy=w0)
    x = solve_equilibrium(spec, theta, cfg, **kwargs).x_star
    yield "rebound-twin", spec, x, kwargs


def _solver(**kw):
    from eqcausal.fixedpoint import SolverConfig

    return SolverConfig(beta=1.0, m=8, **kw)


def measure() -> dict:
    from eqcausal import fixedpoint, sscm

    out = {}
    for name, spec, x, kwargs in _models():
        theta = spec.theta_ref
        f = sscm.assemble_map(spec, theta, **kwargs)
        jac = sscm.Linearization(spec, x, theta, **kwargs).jac.x
        shift = x - jac @ x
        linear = lambda z, jac=jac, shift=shift: jac @ z + shift  # noqa: E731
        steps = _solver(tol=1e-300, max_iter=40)
        iters = fixedpoint.anderson_solve(linear, np.zeros(spec.d), steps).iterations
        batch = max(5, 2000 // spec.d)
        out[name] = {
            "d": spec.d,
            "map_call_s": _median_call_s(lambda: f(x), batch),
            "node_gradients_s": _median_call_s(
                lambda: sscm.node_gradients(spec, x, theta, **kwargs), max(2, batch // 10)),
            "linearization_s": _median_call_s(
                lambda: sscm.Linearization(spec, x, theta, **kwargs), max(2, batch // 10)),
            "anderson_step_s": _median_call_s(
                lambda: fixedpoint.anderson_solve(linear, np.zeros(spec.d), steps), 5) / iters,
            "anderson_iterations": iters,
        }
    return out


def measure_applied() -> dict:
    from eqcausal import interventions, modelzoo, sscm
    from eqcausal.interventions import LieElement
    from eqcausal.sscm import solve_equilibrium

    spec = modelzoo.leontief_model(modelzoo.leontief_synthetic(100))
    wired = interventions.apply(spec, LieElement("multiplicative", tuple(range(spec.d)), np.ones(spec.d)))
    theta = wired.theta_ref
    x = solve_equilibrium(wired, theta, _solver(tol=1e-10)).x_star
    f = sscm.assemble_map(wired, theta)
    batch = max(5, 2000 // spec.d)
    return {"d": spec.d, "applied_map_call_s": _median_call_s(lambda: f(x), batch),
            "applied_node_gradients_s": _median_call_s(
                lambda: sscm.node_gradients(wired, x, theta), max(2, batch // 10))}


def measure_compile() -> dict:
    from eqcausal import diffcore, interventions, modelzoo, sscm
    from eqcausal.interventions import LieElement

    spec = modelzoo.leontief_model(modelzoo.leontief_synthetic(100))
    everywhere = LieElement("multiplicative", tuple(range(spec.d)), np.ones(spec.d))
    x = np.ones(spec.d)
    compiles, binds = [], []
    for _ in range(REPEATS):
        wired = interventions.apply(spec, everywhere)
        t0 = time.perf_counter()
        sscm._require_valid(wired)
        stacked = sscm._stacked(wired)
        diffcore._sweep(stacked.graph, diffcore._compile(stacked.graph), stacked.leaves)
        t1 = time.perf_counter()
        f = sscm.assemble_map(wired, wired.theta_ref)
        f(x)
        sscm.node_gradients(wired, x, wired.theta_ref)
        t2 = time.perf_counter()
        f(x)
        sscm.node_gradients(wired, x, wired.theta_ref)
        compiles.append(t1 - t0)
        binds.append((t2 - t1) - (time.perf_counter() - t2))
    return {"compile_s": float(np.median(compiles)), "first_bind_s": float(np.median(binds))}


CONSTRUCTION_DIMS = (100, 300, 1000)


def _median_once_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def measure_construction() -> dict:
    import tempfile

    from eqcausal import dataio, interventions, modelzoo, sscm
    from eqcausal.interventions import LieElement

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in CONSTRUCTION_DIMS:
            paths = [Path(tmp) / f"{name}.csv" for name in ("A", "y", "R")]
            dataio.write_iotable_csv(modelzoo.leontief_synthetic(n), *paths)
            everywhere = LieElement("multiplicative", tuple(range(n)), np.ones(n))
            x = np.ones(n)
            repeats = max(3, 3000 // n)
            table = dataio.load_iotable_csv(*paths)
            spec = modelzoo.leontief_model(table)
            sscm.assemble_map(spec, spec.theta_ref)(x)

            def first_call():
                fresh = modelzoo.leontief_model(table)
                t0 = time.perf_counter()
                f = sscm.assemble_map(fresh, fresh.theta_ref)
                f(x)
                t1 = time.perf_counter()
                f(x)
                return (t1 - t0) - (time.perf_counter() - t1)

            def csv_to_first_map():
                loaded = modelzoo.leontief_model(dataio.load_iotable_csv(*paths))
                wired = interventions.apply(loaded, everywhere)
                sscm.assemble_map(wired, wired.theta_ref)(x)

            out[f"leontief-synthetic-{n}"] = {
                "d": n,
                "load_s": _median_once_s(lambda: dataio.load_iotable_csv(*paths), repeats),
                "leontief_model_s": _median_once_s(lambda: modelzoo.leontief_model(table), repeats),
                "apply_s": _median_once_s(lambda: interventions.apply(spec, everywhere), repeats),
                "stack_compile_s": float(np.median([first_call() for _ in range(repeats)])),
                "csv_to_first_map_s": _median_once_s(csv_to_first_map, repeats),
            }
    return out


def measure_adjoint() -> dict:
    from eqcausal import deq, modelzoo
    from eqcausal.sscm import solve_equilibrium

    out = {}
    for n in CONSTRUCTION_DIMS:
        spec = modelzoo.leontief_model(modelzoo.leontief_synthetic(n))
        sol = solve_equilibrium(spec, spec.theta_ref, _solver(tol=1e-10))
        cot = np.ones(n)
        out[f"leontief-synthetic-{n}"] = {
            "d": n, "implicit_vjp_s": _median_call_s(lambda: deq.implicit_vjp(spec, sol, cot), max(1, 300 // n))}
    return out


BATCH_ROWS = (1, 4, 16, 50)


def measure_batched() -> dict:
    import dataclasses

    from eqcausal import deq, fixedpoint, sscm
    from eqcausal.sscm import solve_equilibrium

    twin, policy = _rebound_twin()
    spec = _rerouted(twin, None)[0]
    batched = "row_iterations" in {f.name for f in dataclasses.fields(fixedpoint.SolveReport)}
    cfg = _solver(tol=1e-8)
    rng = np.random.default_rng(0)
    out = {}
    for rows in BATCH_ROWS:
        theta = twin.base.theta_ref * rng.uniform(0.8, 1.2, size=(rows, 1))
        u = np.array([twin.assemble_u([[v]]) for v in rng.uniform(0.5, 1.0, size=rows)])
        values = np.array([solve_equilibrium(twin.base, t, cfg).x_star[list(twin.invariant_nodes)]
                           for t in theta])
        fed = _rerouted(twin, values)[1]
        cot = rng.normal(size=(rows, spec.d))
        timings = {}
        if batched:
            f = sscm.assemble_map(spec, theta, u=u, policy=policy, **fed)
            x = solve_equilibrium(spec, theta, cfg, u=u, policy=policy, **fed).x_star
            timings["map_call_s"] = _median_call_s(lambda: f(x), max(5, 200 // rows))
            jac = sscm.Linearization(spec, x, theta, u=u, policy=policy, **fed).jac.x
            shift = x - np.matvec(jac, x)
            linear = lambda z, jac=jac, shift=shift: np.matvec(jac, z) + shift  # noqa: E731
            steps = _solver(tol=1e-300, max_iter=40)
            x0 = np.zeros((rows, spec.d))
            iters = fixedpoint.anderson_solve(linear, x0, steps).iterations
            timings["anderson_step_s"] = _median_call_s(
                lambda: fixedpoint.anderson_solve(linear, x0, steps), 5) / iters
            timings["anderson_iterations"] = iters

            def solve():
                return solve_equilibrium(spec, theta, cfg, u=u, policy=policy, **fed)

            sol = solve()
            bound = _vjp_bindings(u=u, policy=policy, **fed)

            def vjp():
                return deq.implicit_vjp(spec, sol, cot, **bound)
        else:
            fed_rows = [_rerouted(twin, values[r])[1] for r in range(rows)]

            def solve():
                return [solve_equilibrium(spec, theta[r], cfg, u=u[r], policy=policy, **fed_rows[r])
                        for r in range(rows)]

            sols = solve()
            bound = [_vjp_bindings(u=u[r], policy=policy, **fed_rows[r]) for r in range(rows)]

            def vjp():
                return [deq.implicit_vjp(spec, sols[r], cot[r], **bound[r]) for r in range(rows)]
        repeat = max(1, 16 // rows)
        out[f"rebound-twin-B{rows}"] = {"rows": rows, "mode": "batched" if batched else "loop",
                                        "solve_s": _median_call_s(solve, repeat),
                                        "implicit_vjp_s": _median_call_s(vjp, repeat), **timings}
    return out


def measure_first_map_call() -> dict:
    from eqcausal import modelzoo, sscm
    from eqcausal.sscm import solve_equilibrium

    spec = modelzoo.leontief_model(modelzoo.leontief_synthetic(100))
    x = solve_equilibrium(spec, spec.theta_ref, _solver(tol=1e-10)).x_star
    out = {"leontief-synthetic-100": _median_call_s(lambda: sscm.assemble_map(spec, spec.theta_ref)(x), 20)}
    twin, policy = _rebound_twin()
    rng = np.random.default_rng(0)
    for rows in (1, 4):
        theta = twin.base.theta_ref * rng.uniform(0.8, 1.2, size=(rows, 1))
        u = np.array([twin.assemble_u([[v]]) for v in rng.uniform(0.5, 1.0, size=rows)])
        spec, fed = _rerouted(twin, rng.uniform(0.5, 2.0, size=(rows, len(twin.invariant_nodes))))
        x = rng.uniform(0.5, 2.0, size=(rows, twin.base.d))
        out[f"rebound-twin-B{rows}"] = _median_call_s(
            lambda: sscm.assemble_map(spec, theta, u=u, policy=policy, **fed)(x), 20)
    return out


BENCH_DIMS = (2, 10, 50, 100, 200)
BENCH_SEEDS = list(range(1, 7))


def _contractions(dim: int):
    """The six seeds' contractions of one bench dimension, as cli._bench_rows builds them:
    one stack, or on sources without modelzoo.random_contractions one seed at a time."""
    from eqcausal import modelzoo

    if hasattr(modelzoo, "random_contractions"):
        return modelzoo.random_contractions(dim, BENCH_SEEDS, 0.9)
    A, y = np.empty((len(BENCH_SEEDS), dim, dim)), np.empty((len(BENCH_SEEDS), dim))
    for i, seed in enumerate(BENCH_SEEDS):
        A[i], y[i] = modelzoo.random_contraction(dim, seed, 0.9)
    return A, y


def measure_bench() -> dict:
    import tempfile

    from eqcausal import cli, fixedpoint

    out = {"random_contractions_s": {f"d{d}": _median_call_s(lambda d=d: _contractions(d), max(2, 600 // d))
                                     for d in BENCH_DIMS}}
    steps = _solver(tol=1e-300, max_iter=40)
    forward = {}
    for d in BENCH_DIMS:
        A, y = _contractions(d)
        x0 = np.zeros_like(y)
        f = lambda x, A=A, y=y: np.matvec(A, x) + y  # noqa: E731
        iters = fixedpoint.forward_iterate(f, x0, steps).iterations
        forward[f"d{d}"] = (_median_call_s(lambda f=f, x0=x0: fixedpoint.forward_iterate(f, x0, steps),
                                           max(2, 60 // d)) / iters
                            - _median_call_s(lambda f=f, x0=x0: f(x0), 200))
    out["forward_step_s"] = forward
    config = cli._config_from_obj({"command": "bench", "model": "motivating-example",
                                   "bench": {"dims": list(BENCH_DIMS), "seeds": len(BENCH_SEEDS)}, "seed": 1})
    bundle = cli.build_model(config)
    with tempfile.TemporaryDirectory() as tmp:
        writer = cli.OutputWriter(Path(tmp))
        out["solver_sweep_s"] = _median_once_s(lambda: cli._run_bench(config, bundle, writer), REPEATS)
    return out


def measure_pipelines() -> dict:
    import tempfile

    from eqcausal import cli, modelzoo, optimize

    config = cli._config_from_obj({"command": "invariant", "model": "rebound-3sector",
                                   "adam": {"iterations": 4}, "sampling": {"samples_per_step": 4},
                                   "seed": 1})
    bundle = cli.build_model(config)
    with tempfile.TemporaryDirectory() as tmp:
        writer = cli.OutputWriter(Path(tmp))
        out = {"invariant_run_s": _median_once_s(lambda: cli._run_invariant(config, bundle, writer),
                                                 REPEATS)}
    inst = modelzoo.rebound_3sector()
    twin, w0 = _rebound_twin()
    sampling = optimize.SamplingConfig(theta_stddev=(0.2,), samples_per_step=16)
    adam = optimize.AdamConfig(learning_rate=0.01, iterations=64, seed=1)
    out["train_phase_s"] = _median_once_s(lambda: optimize.train_invariant_policy(
        twin, w0, sampling, adam, _solver(tol=1e-5), (inst.u_low, inst.u_high)), TRAIN_REPEATS)
    return out


def measure_invariance() -> dict:
    from eqcausal import interventions, modelzoo

    motivating = modelzoo.motivating_example(free=("tau",))
    rebound = modelzoo.rebound_3sector().spec
    leontief = modelzoo.leontief_model(modelzoo.leontief_synthetic(30))
    derivative = interventions.hard_intervention_derivative
    return {
        "invariance_check_s": _median_call_s(
            lambda: interventions.check_invariance_conditions(motivating, 1, 2, 2), 20),
        "hard_derivative_s": {
            "rebound-base": _median_call_s(lambda: derivative(rebound, 1, 7, rebound.theta_ref), 20),
            "leontief-synthetic-30": _median_call_s(
                lambda: derivative(leontief, 0, 1, leontief.theta_ref), 20),
        },
    }


def measure_twin_build() -> dict:
    from eqcausal import modelzoo, optimize, sscm
    from eqcausal.interventions import LieElement, build_invariant_model
    from eqcausal.sscm import solve_equilibrium

    rebound = modelzoo.rebound_3sector()
    mlp = rebound.policy_mlp()
    policy, w0 = optimize.build_mlp_policy(mlp, 1, 1)
    compartment = modelzoo.two_compartment_model()
    twins = {
        "rebound": (rebound.spec, rebound.plan(policy, mlp.n_weights),
                    LieElement("multiplicative", (rebound.energy_sector,), [1.0]), w0),
        "two-compartment": (compartment.spec, compartment.plan.plans,
                            [LieElement("multiplicative", (p.intervened,), [1.0]) for p in compartment.plan.plans],
                            compartment.w0),
    }
    out = {}
    for name, (spec, plans, elements, weights) in twins.items():
        theta = spec.theta_ref
        x = solve_equilibrium(spec, theta, _solver(tol=1e-10)).x_star

        def build_and_call():
            twin = build_invariant_model(spec, plans, elements)
            trained, fed = _rerouted(twin, x[list(twin.invariant_nodes)])
            sscm.assemble_map(trained, theta, u=trained.u_ref, policy=weights, **fed)(x)

        out[name] = _median_once_s(build_and_call, REPEATS)
    return out


def measure_import_cli(src: Path) -> float:
    code = ("import time, numpy; t0 = time.perf_counter(); import eqcausal.cli; "
            "print(time.perf_counter() - t0)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    return min(float(subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True,
                                    text=True, check=True).stdout) for _ in range(REPEATS))


def _git(src: Path, *args) -> str:
    try:
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": 1}


MEASURED = ("layers", "applied", "compile", "construction", "adjoint", "batched_layers", "bench", "pipelines",
            "invariance", "twin_build_s", "first_map_call_s", "import_cli_s")


def _sources_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "eqcausal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _least(records):
    """Leaf by leaf, the least of the rounds' times; counts and labels from the first round."""
    first = records[0]
    if isinstance(first, dict):
        return {key: _least([r[key] for r in records]) for key in first}
    return min(records) if isinstance(first, float) else first


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this record in the output file")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="eqcausal sources to measure")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to add the record to")
    args = ap.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import eqcausal

    if Path(eqcausal.__file__).resolve().parent.parent != src:
        print(f"imported eqcausal from {eqcausal.__file__}, not {src}", file=sys.stderr)
        return 2
    rounds = [dict(zip(MEASURED, (measure(), measure_applied(), measure_compile(),
                                  measure_construction(), measure_adjoint(), measure_batched(),
                                  measure_bench(), measure_pipelines(), measure_invariance(),
                                  measure_twin_build(), measure_first_map_call(),
                                  measure_import_cli(src))))
              for _ in range(ROUNDS)]
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    digest, earlier = _sources_sha256(src), data.get("runs", {}).get(args.label)
    n_rounds = ROUNDS
    if earlier is not None and earlier.get("sources_sha256") == digest:
        rounds.append({key: earlier[key] for key in MEASURED})
        n_rounds += earlier["rounds"]
    record = {
        "git_sha": _git(src, "rev-parse", "HEAD"),
        "git_dirty": bool(_git(src, "status", "--porcelain", "--", ".")),
        "sources_sha256": digest,
        "machine": machine(),
        "repeats": REPEATS,
        "rounds": n_rounds,
        **_least(rounds),
    }
    data.setdefault("runs", {})[args.label] = record
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    for name, row in record["layers"].items():
        print(f"{name:24s} map {row['map_call_s'] * 1e6:9.1f} us   "
              f"node_gradients {row['node_gradients_s'] * 1e6:9.1f} us   "
              f"linearization {row['linearization_s'] * 1e6:9.1f} us   "
              f"anderson step {row['anderson_step_s'] * 1e6:7.1f} us")
    applied = record["applied"]
    print(f"{'applied-synthetic-100':24s} map {applied['applied_map_call_s'] * 1e6:9.1f} us   "
          f"node_gradients {applied['applied_node_gradients_s'] * 1e6:9.1f} us")
    print(f"{'compile_s':24s} {record['compile']['compile_s'] * 1e3:9.2f} ms   "
          f"first_bind_s {record['compile']['first_bind_s'] * 1e3:9.3f} ms")
    for name, row in record["construction"].items():
        print(f"{name:24s} load {row['load_s'] * 1e3:8.2f} ms   leontief_model {row['leontief_model_s'] * 1e3:8.2f} ms"
              f"   apply {row['apply_s'] * 1e3:8.2f} ms   stack+compile {row['stack_compile_s'] * 1e3:8.2f} ms"
              f"   csv to first map {row['csv_to_first_map_s'] * 1e3:8.2f} ms")
    for name, row in record["adjoint"].items():
        print(f"{name:24s} implicit_vjp {row['implicit_vjp_s'] * 1e3:8.3f} ms")
    for name, row in record["batched_layers"].items():
        print(f"{name:24s} {row['mode']:8s} solve {row['solve_s'] * 1e3:8.2f} ms   "
              f"implicit_vjp {row['implicit_vjp_s'] * 1e3:8.2f} ms   "
              f"map {row.get('map_call_s', float('nan')) * 1e6:8.1f} us   "
              f"anderson step {row.get('anderson_step_s', float('nan')) * 1e6:7.1f} us")
    bench = record["bench"]
    print("random_contractions      " + "   ".join(
        f"{d} {t * 1e3:7.3f} ms" for d, t in bench["random_contractions_s"].items()))
    print("forward_step_s           " + "   ".join(
        f"{d} {t * 1e6:7.2f} us" for d, t in bench["forward_step_s"].items()))
    print(f"{'solver_sweep_s':24s} {bench['solver_sweep_s'] * 1e3:9.2f} ms")
    print(f"{'invariant_run_s':24s} {record['pipelines']['invariant_run_s'] * 1e3:9.2f} ms")
    print(f"{'train_phase_s':24s} {record['pipelines']['train_phase_s'] * 1e3:9.2f} ms")
    invariance = record["invariance"]
    print(f"{'invariance_check_s':24s} {invariance['invariance_check_s'] * 1e3:9.3f} ms")
    for name, t in invariance["hard_derivative_s"].items():
        print(f"{'hard_derivative_s':24s} {name} {t * 1e3:9.3f} ms")
    for name, t in record["twin_build_s"].items():
        print(f"{'twin_build_s':24s} {name} {t * 1e3:9.3f} ms")
    for name, t in record["first_map_call_s"].items():
        print(f"{'first_map_call_s':24s} {name} {t * 1e6:9.1f} us")
    print(f"{'import_cli_s':24s} {record['import_cli_s'] * 1e3:9.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
