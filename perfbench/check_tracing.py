"""Checks that the per-layer tracer sees every layer and changes no output.

    python3 perfbench/check_tracing.py

1. Installing the tracer rebinds each traced function at every eqcausal
   binding of it, the `from ... import` ones included, and uninstalling
   restores the originals.
2. On each workload (seed 0), every span that the layer -> end-to-end map in
   README.md ties to that workload fires, and the layers the workload
   bypasses record nothing.
3. The traced run writes the same output sha256 set as the untraced run.

Prints one line per failed check and exits 1 if there is any.
"""

import bootstrap  # noqa: I001  (first: pins thread pools before numpy loads)

import os
import shutil
import sys

FIRES = {
    "rebound-invariant": (
        "diffcore.forward_eval", "diffcore.reverse_vjp", "sscm.assemble_map", "sscm.map_eval",
        "sscm.node_gradients", "fixedpoint.solve", "deq.implicit_vjp", "interventions.solve_pair",
        "interventions.build_invariant_model", "optimize.adam_step",
        "optimize.train_invariant_policy", "modelzoo.build", "cli.pipeline", "cli.write_outputs",
    ),
    "leontief-pareto": (
        "diffcore.forward_eval", "diffcore.reverse_vjp", "sscm.assemble_map", "sscm.map_eval",
        "sscm.node_gradients", "fixedpoint.solve", "deq.implicit_vjp", "optimize.adam_step",
        "optimize.optimize_lie_intervention", "modelzoo.build", "dataio.load_iotable_csv",
        "cli.pipeline", "cli.write_outputs",
    ),
    "solver-sweep": ("fixedpoint.solve", "modelzoo.build", "cli.pipeline", "cli.write_outputs"),
}
SILENT = {
    "rebound-invariant": ("dataio.load_iotable_csv", "optimize.optimize_lie_intervention"),
    "leontief-pareto": ("interventions.solve_pair", "interventions.build_invariant_model",
                        "optimize.train_invariant_policy"),
    "solver-sweep": ("diffcore.forward_eval", "diffcore.reverse_vjp", "sscm.assemble_map",
                     "sscm.map_eval", "sscm.node_gradients", "deq.implicit_vjp",
                     "interventions.solve_pair", "interventions.build_invariant_model",
                     "optimize.adam_step", "optimize.train_invariant_policy",
                     "optimize.optimize_lie_intervention", "dataio.load_iotable_csv"),
}
# bindings made by `from ... import`, which patching the defining module alone would miss
IMPORTED_BINDINGS = (
    "optimize.solve_equilibrium", "interventions.solve_equilibrium", "cli.solve_equilibrium",
    "cli.anderson_solve", "cli.forward_iterate", "cli.build_invariant_model",
)


def check_bindings(tracer) -> list[str]:
    import eqcausal

    originals = {b: getattr(sys.modules[f"eqcausal.{b.split('.')[0]}"], b.split(".")[1])
                 for b in IMPORTED_BINDINGS}
    tracer.install()
    try:
        patched = set(tracer.patched_bindings())
        failures = [f"binding {b} is not wrapped" for b in IMPORTED_BINDINGS if b not in patched]
        failures += [f"package binding eqcausal.{fn} is not wrapped"
                     for fn in ("solve_equilibrium", "anderson_solve", "build_invariant_model")
                     if f"eqcausal.{fn}" not in patched]
    finally:
        tracer.uninstall()
    failures += [f"binding {b} not restored" for b, fn in originals.items()
                 if getattr(sys.modules[f"eqcausal.{b.split('.')[0]}"], b.split(".")[1]) is not fn]
    if eqcausal.solve_equilibrium is not sys.modules["eqcausal.sscm"].solve_equilibrium:
        failures.append("eqcausal.solve_equilibrium not restored")
    return failures


def check_workload(name, tracer, run_module, cli, work) -> list[str]:
    runner, _ = run_module.prepare(cli, name, 0, work)
    runner.run()
    tracer.reset()
    tracer.install()
    try:
        runner.run()
    finally:
        tracer.uninstall()
    failures = []
    if runner.failed:
        failures.append(f"{name}: {runner.failed} of 2 runs failed their output checks "
                        "(a traced run that changes outputs fails the sha256 check)")
    calls = {span: st[0] for span, st in tracer.stats.items()}
    failures += [f"{name}: span {s} never fired" for s in FIRES[name] if not calls.get(s)]
    failures += [f"{name}: span {s} fired {calls[s]} times on a workload that bypasses it"
                 for s in SILENT[name] if calls.get(s)]
    return failures


def main() -> int:
    bootstrap.require_program()
    import eqcausal
    from eqcausal import cli
    bootstrap.check_imported(eqcausal)
    import run
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    work = bootstrap.WORK / f"check-tracing-{os.getpid()}"
    try:
        failures = check_bindings(tracer)
        for name in WORKLOADS:
            failures += check_workload(name, tracer, run, cli, work / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"check_tracing: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
