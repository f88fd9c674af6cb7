"""Per-layer tracing by wrapping eqcausal's functions from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper
everywhere it is bound: in its defining module and in every eqcausal module
that imported it by name (`from .sscm import solve_equilibrium` and the
like), so no call escapes its span. `uninstall()` puts the originals back.
Spans nest on one stack; a span's self time is its duration minus the time
of the spans it encloses, so the self times of one run add up to the time of
the outermost span, `cli.pipeline`.

Spans are aggregated per name as they close: calls, total time of the
outermost spans of that name, and self time. Nothing is kept per call.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (span name, eqcausal module, attribute); "Class.method" patches the class
SPANS = (
    ("diffcore.forward_eval", "diffcore", "forward_eval"),
    ("diffcore.reverse_vjp", "diffcore", "reverse_vjp"),
    ("sscm.assemble_map", "sscm", "assemble_map"),
    ("sscm.solve_equilibrium", "sscm", "solve_equilibrium"),
    ("sscm.node_gradients", "sscm", "node_gradients"),
    ("sscm.check_local_diffeomorphism", "sscm", "check_local_diffeomorphism"),
    ("fixedpoint.solve", "fixedpoint", "solve"),
    ("fixedpoint.solve", "fixedpoint", "forward_iterate"),
    ("fixedpoint.solve", "fixedpoint", "anderson_solve"),
    ("deq.implicit_vjp", "deq", "implicit_vjp"),
    ("interventions.apply", "interventions", "apply"),
    ("interventions.build_invariant_model", "interventions", "build_invariant_model"),
    ("interventions.solve_pair", "interventions", "InvariantTwin.solve_pair"),
    ("optimize.adam_step", "optimize", "adam_step"),
    ("optimize.train_invariant_policy", "optimize", "train_invariant_policy"),
    ("optimize.optimize_lie_intervention", "optimize", "optimize_lie_intervention"),
    ("optimize.pareto_sweep", "optimize", "pareto_sweep"),
    ("modelzoo.build", "modelzoo", "motivating_example"),
    ("modelzoo.build", "modelzoo", "rebound_3sector"),
    ("modelzoo.build", "modelzoo", "two_compartment_model"),
    ("modelzoo.build", "modelzoo", "leontief_synthetic"),
    ("modelzoo.build", "modelzoo", "leontief_model"),
    ("modelzoo.build", "modelzoo", "hawkins_simon_check"),
    ("dataio.load_iotable_csv", "dataio", "load_iotable_csv"),
    ("cli.pipeline", "cli", "run_experiment"),
    ("cli.write_outputs", "cli", "OutputWriter.write_json"),
    ("cli.write_outputs", "cli", "OutputWriter.write_csv"),
)

# the closure that sscm.assemble_map returns
MAP_EVAL = "sscm.map_eval"

# per-layer metrics in report order: (name, unit). Times are reported as shares
# of the traced pipeline run: `.self_share` is a span's self time and `.share`
# the inclusive time of its outermost calls, each divided by the run's time.
# A share is steady on a host whose speed drifts, and a bypassed layer reads 0
# as a share rather than as a time.
PER_LAYER = (
    ("diffcore.forward_eval.calls", "count"),
    ("diffcore.forward_eval.self_share", "ratio"),
    ("diffcore.reverse_vjp.calls", "count"),
    ("diffcore.reverse_vjp.self_share", "ratio"),
    ("sscm.assemble_map.calls", "count"),
    ("sscm.assemble_map.self_share", "ratio"),
    ("sscm.map_eval.calls", "count"),
    ("sscm.map_eval.self_share", "ratio"),
    ("sscm.map_eval.useful_ratio", "ratio"),
    ("sscm.node_gradients.calls", "count"),
    ("sscm.node_gradients.self_share", "ratio"),
    ("fixedpoint.solve.calls", "count"),
    ("fixedpoint.solve.iterations", "count"),
    ("fixedpoint.solve.nonconverged", "count"),
    ("fixedpoint.solve.self_share", "ratio"),
    ("deq.implicit_vjp.calls", "count"),
    ("deq.implicit_vjp.self_share", "ratio"),
    ("deq.adjoint.iterations", "count"),
    ("deq.adjoint.nonconverged", "count"),
    ("deq.dense_ratio", "ratio"),
    ("interventions.solve_pair.calls", "count"),
    ("interventions.solve_pair.self_share", "ratio"),
    ("interventions.build_invariant_model.share", "ratio"),
    ("optimize.adam_step.calls", "count"),
    ("optimize.adam_step.self_share", "ratio"),
    ("optimize.train_invariant_policy.self_share", "ratio"),
    ("optimize.optimize_lie_intervention.self_share", "ratio"),
    ("optimize.step_accept_ratio", "ratio"),
    ("modelzoo.build.share", "ratio"),
    ("dataio.load_iotable_csv.share", "ratio"),
    ("cli.pipeline.self_share", "ratio"),
    ("cli.write_outputs.share", "ratio"),
)
TIME_SHARES = frozenset(name for name, _ in PER_LAYER if name.endswith("share"))


def _ratio(num: float, den: float) -> float:
    """num / den, and 0.0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


class Tracer:
    """Timing wrappers for one process; install around a run, then read `layer_metrics`."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._depth: dict[str, int] = {}
        self._stack: list[float] = []  # child time accumulated by each open span

    def reset(self):
        """Forget all spans and counts; installed wrappers keep recording."""
        for table in (self.stats, self.counts, self._depth, self._stack):
            table.clear()

    def _count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    # --- spans ---

    def wrap(self, name: str, fn, pre=None, post=None):
        stats = self.stats
        depth = self._depth
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = depth.get(name, 0) == 0
            token = pre(outer) if pre is not None else None
            depth[name] = depth.get(name, 0) + 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                depth[name] -= 1
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[2] += dt - child
                if outer:
                    st[0] += 1
                    st[1] += dt
                if stack:
                    stack[-1] += dt
            if post is not None:
                result = post(outer, token, result, args, kwargs)
            return result

        return traced

    # --- hooks that read the work a call did from its arguments and result ---

    def _after_assemble_map(self, outer, token, f, args, kwargs):
        traced = self.wrap(MAP_EVAL, f)
        traced.is_structural_map = True
        return traced

    def _after_solve(self, outer, token, report, args, kwargs):
        if not outer:
            return report
        f = args[0] if args else kwargs.get("f")
        self._count("solve.iterations", report.iterations)
        self._count("solve.nonconverged", int(not report.converged))
        if getattr(f, "is_structural_map", False):
            self._count("map_solve.calls")
            self._count("map_solve.iterations", report.iterations)
        if self._depth.get("deq.implicit_vjp", 0):
            self._count("adjoint.solves")
            self._count("adjoint.iterations", report.iterations)
            self._count("adjoint.nonconverged", int(not report.converged))
        return report

    def _before_implicit_vjp(self, outer):
        return self.counts.get("adjoint.solves", 0)

    def _after_implicit_vjp(self, outer, solves_before, result, args, kwargs):
        # the dense path factorises I - df/dx^T; the iterative path solves for the adjoint
        if self.counts.get("adjoint.solves", 0) == solves_before:
            self._count("implicit_vjp.dense")
        return result

    def _after_training(self, outer, token, result, args, kwargs):
        if outer:
            self._count("steps.accepted", result.steps)
            self._count("steps.attempted", result.steps + result.failures)
        return result

    def _after_lie_optimization(self, outer, token, result, args, kwargs):
        if outer:
            self._count("steps.accepted", len(result.trajectory))
            self._count("steps.attempted", len(result.trajectory) + len(result.failures))
        return result

    def _hooks(self, name: str) -> dict:
        return {
            "sscm.assemble_map": {"post": self._after_assemble_map},
            "fixedpoint.solve": {"post": self._after_solve},
            "deq.implicit_vjp": {"pre": self._before_implicit_vjp, "post": self._after_implicit_vjp},
            "optimize.train_invariant_policy": {"post": self._after_training},
            "optimize.optimize_lie_intervention": {"post": self._after_lie_optimization},
        }.get(name, {})

    # --- patching ---

    def install(self):
        """Wrap every traced function at every eqcausal binding of it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "eqcausal" or key.startswith("eqcausal."))]
        for name, module_name, attr in SPANS:
            owner = sys.modules[f"eqcausal.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, self.wrap(name, original, **self._hooks(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, **self._hooks(name))
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched_bindings(self) -> list[str]:
        """'module.binding' for every patched name, for coverage checks."""
        out = []
        for owner, attr, _ in self._patches:
            prefix = owner.__name__ if isinstance(owner, type) else owner.__name__.split(".")[-1]
            out.append(f"{prefix}.{attr}")
        return out

    # --- results ---

    def self_sum(self) -> float:
        """Sum of the self times of every span; equals the outermost span's time."""
        return sum(st[2] for st in self.stats.values())

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the runs traced since the last reset."""
        total = self.self_sum()

        def share(name, i):
            return _ratio(self.stats.get(name, (0, 0.0, 0.0))[i], total)

        def calls(name):
            return self.stats.get(name, (0, 0.0, 0.0))[0]

        c = self.counts.get
        out = {}
        for span in ("diffcore.forward_eval", "diffcore.reverse_vjp", "sscm.assemble_map",
                     MAP_EVAL, "sscm.node_gradients", "fixedpoint.solve", "deq.implicit_vjp",
                     "interventions.solve_pair", "optimize.adam_step"):
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.self_share"] = share(span, 2)
        out["sscm.map_eval.useful_ratio"] = _ratio(
            c("map_solve.iterations", 0) + c("map_solve.calls", 0), calls(MAP_EVAL))
        out["fixedpoint.solve.iterations"] = c("solve.iterations", 0)
        out["fixedpoint.solve.nonconverged"] = c("solve.nonconverged", 0)
        out["deq.adjoint.iterations"] = c("adjoint.iterations", 0)
        out["deq.adjoint.nonconverged"] = c("adjoint.nonconverged", 0)
        out["deq.dense_ratio"] = _ratio(c("implicit_vjp.dense", 0), calls("deq.implicit_vjp"))
        out["interventions.build_invariant_model.share"] = share("interventions.build_invariant_model", 1)
        out["optimize.train_invariant_policy.self_share"] = share("optimize.train_invariant_policy", 2)
        out["optimize.optimize_lie_intervention.self_share"] = share(
            "optimize.optimize_lie_intervention", 2)
        out["optimize.step_accept_ratio"] = _ratio(c("steps.accepted", 0), c("steps.attempted", 0))
        out["modelzoo.build.share"] = share("modelzoo.build", 1)
        out["dataio.load_iotable_csv.share"] = share("dataio.load_iotable_csv", 1)
        out["cli.pipeline.self_share"] = share("cli.pipeline", 2)
        out["cli.write_outputs.share"] = share("cli.write_outputs", 1)
        return {name: out[name] for name, _ in PER_LAYER}
