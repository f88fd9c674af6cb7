"""Experiment configuration, pipelines, and the `eqcausal` command line.

Configs are strict JSON, checked by one walk of CONFIG_SCHEMA (unknown fields,
floats as integers, NaN and Infinity are rejected), with every solver and
optimizer default applied when omitted. A run executes one command's pipeline
into the output directory and records a manifest: config hash, seed, stage
reports, and a checksum for every file written. Identical config + seed give
byte-identical outputs; only wall-clock fields differ between reruns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import click
import numpy as np

from . import __version__, dataio, deq, interventions, modelzoo, optimize, sscm
from .diffcore import ExprBuilder
from .errors import EqcausalError, ParseError, SchemaError
from .fixedpoint import SolverConfig, forward_iterate, anderson_solve
from .interventions import LieElement, build_invariant_model, check_compartmentalization
from .modelzoo import IoTable
from .optimize import AdamConfig, SamplingConfig
from .sscm import SscmSpec, solve_equilibrium

COMMANDS = ("solve", "grad-check", "optimize", "pareto", "invariant", "compartment", "bench")

_NUMBER = {"type": "number"}
_POS_INT = {"type": "integer", "minimum": 1}
# JSON types of the config dataclasses' annotations; their values are checked
# by the dataclasses themselves
_JSON_TYPES = {"int": {"type": "integer"}, "float": _NUMBER, "bool": {"type": "boolean"},
               "str": {"type": "string"}, "tuple | None": {"type": "array", "items": _NUMBER}}


def _dataclass_schema(cls, exclude=()) -> dict:
    """Strict object schema typing every field of a config dataclass but `exclude`."""
    return {"type": "object", "additionalProperties": False,
            "properties": {f.name: _JSON_TYPES[f.type] for f in dataclasses.fields(cls)
                           if f.name not in exclude}}


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["command", "model"],
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "model": {
            "oneOf": [
                {"type": "string"},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["a_csv", "y_csv"],
                    "properties": {
                        "a_csv": {"type": "string"},
                        "y_csv": {"type": "string"},
                        "r_csv": {"type": "string"},
                    },
                },
            ]
        },
        "solver": _dataclass_schema(SolverConfig),
        "adam": _dataclass_schema(AdamConfig, exclude=("seed",)),
        "sampling": _dataclass_schema(SamplingConfig, exclude=("theta_mean",)),
        "intervention": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "group": {"enum": ["multiplicative", "additive"]},
                "targets": {"type": "array", "items": {"type": "integer", "minimum": 0}, "uniqueItems": True},
                "values": {"type": "array", "items": _NUMBER},
                "bounds": {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2},
                "builtin_values": {"type": "array", "items": _NUMBER, "minItems": 1},
            },
        },
        "loss": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "objective_row": {"type": "string"},
                "regularizer_row": {"type": "string"},
                "lambda": {"type": "number", "minimum": 0},
                "lambdas": {"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 1},
            },
        },
        "bench": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dims": {"type": "array", "items": _POS_INT},
                "seeds": _POS_INT,
                "spectral_radius": _NUMBER,
            },
        },
        "out": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
    },
}

# bench.csv method labels and their Anderson beta; forward iteration has none
BENCH_METHODS = (("forward", None), ("anderson_beta1", 1.0), ("anderson_beta2", 2.0))


@dataclass
class ExperimentConfig:
    command: str
    model: object  # zoo id string or {"a_csv", "y_csv", "r_csv"}
    solver: SolverConfig
    adam: AdamConfig
    sampling: SamplingConfig
    intervention: dict | None
    loss: dict
    bench: dict
    out: str
    seed: int
    raw: dict = field(repr=False, default_factory=dict)


# the intervention keys each command reads
_INTERVENTION_KEYS = {
    "solve": {"group", "targets", "values", "builtin_values"},
    "grad-check": {"group", "targets", "values", "builtin_values"},
    "optimize": {"group", "targets", "values", "bounds"},
    "pareto": {"group", "targets", "bounds"},
    "invariant": {"builtin_values"},
    "compartment": set(),
    "bench": set(),
}


def _check_intervention(inter: dict, command: str):
    """A command accepts only the intervention keys it reads. Values and bounds must
    lie in the group: positive, and lo <= hi, when multiplicative.

    The pareto sweep always optimizes in the multiplicative group, so it rejects any other.
    """
    for key in inter:
        if key not in _INTERVENTION_KEYS[command]:
            raise SchemaError(f"the {command} command does not read intervention.{key}",
                              pointer=f"/intervention/{key}")
    if command in ("solve", "grad-check") and "values" in inter and "targets" not in inter:
        raise SchemaError("intervention.values requires intervention.targets",
                          pointer="/intervention/values")
    multiplicative = inter.get("group", "multiplicative") == "multiplicative"
    if command == "pareto" and not multiplicative:
        raise SchemaError("the pareto command sweeps multiplicative interventions only",
                          pointer="/intervention/group")
    if multiplicative and any(v <= 0 for v in inter.get("values", ())):
        raise SchemaError("multiplicative intervention values must be positive",
                          pointer="/intervention/values")
    if command == "invariant" and any(v <= 0 for v in inter.get("builtin_values", ())):
        raise SchemaError("the invariant command's efficiency multiplier must be positive",
                          pointer="/intervention/builtin_values")
    if "bounds" in inter:
        lo, hi = inter["bounds"]
        if lo > hi:
            raise SchemaError(f"lower bound {lo} exceeds upper bound {hi}", pointer="/intervention/bounds")
        if multiplicative and lo <= 0:
            raise SchemaError("multiplicative intervention bounds must be positive",
                              pointer="/intervention/bounds")


_PY_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "boolean": (bool,),
             "integer": (int,), "number": (int, float)}


def _check(value, schema: dict, pointer: str = ""):
    """Raise a SchemaError where `value` first breaks `schema`, which may use only the keywords of
    CONFIG_SCHEMA. Types are exact: True is no integer and, unlike JSON Schema, 2.0 is none either
    and NaN or +-Infinity is no number. An unknown or missing key fails at its object's pointer."""
    if type(value) is float and not math.isfinite(value):
        raise SchemaError(f"{value!r} is not a finite number", pointer=pointer)
    if "oneOf" in schema:  # alternatives of distinct types
        schema = next((s for s in schema["oneOf"] if type(value) in _PY_TYPES[s["type"]]), None)
        if schema is None:
            raise SchemaError(f"{value!r} is not valid under any of the given schemas", pointer=pointer)
    if "enum" in schema and value not in schema["enum"]:
        raise SchemaError(f"{value!r} is not one of {schema['enum']!r}", pointer=pointer)
    if "type" in schema and type(value) not in _PY_TYPES[schema["type"]]:
        raise SchemaError(f"{value!r} is not of type {schema['type']!r}", pointer=pointer)
    if "minimum" in schema and value < schema["minimum"]:
        raise SchemaError(f"{value!r} is less than the minimum of {schema['minimum']!r}", pointer=pointer)
    if type(value) is dict:
        for key in sorted(set(value) - set(schema["properties"])):
            raise SchemaError(f"unknown key {key!r}", pointer=pointer)
        for key in (k for k in schema.get("required", ()) if k not in value):
            raise SchemaError(f"{key!r} is a required property", pointer=pointer)
        for key, item in value.items():
            _check(item, schema["properties"][key], f"{pointer}/{key}")
    elif type(value) is list:
        for i, item in enumerate(value):  # before uniqueItems, which hashes the items
            _check(item, schema["items"], f"{pointer}/{i}")
        if not schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", len(value)):
            size = "short" if len(value) < schema.get("minItems", 0) else "long"
            raise SchemaError(f"{value!r} is too {size}", pointer=pointer)
        if schema.get("uniqueItems") and len(set(value)) < len(value):
            raise SchemaError(f"{value!r} has non-unique elements", pointer=pointer)


def _config_from_obj(obj: dict, base_dir: Path | None = None) -> ExperimentConfig:
    _check(obj, CONFIG_SCHEMA)

    command = obj["command"]
    loss = dict(obj.get("loss", {}))
    if "lambdas" in loss and command != "pareto":
        raise SchemaError("a lambda list is only valid for the pareto command", pointer="/loss/lambdas")
    if command == "pareto" and "lambdas" not in loss:
        raise SchemaError("the pareto command requires loss.lambdas", pointer="/loss")

    _check_intervention(obj.get("intervention") or {}, command)

    model = obj["model"]
    if isinstance(model, dict):
        resolved = {}
        for key, value in model.items():
            path = Path(value)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            if not path.exists():
                raise SchemaError(f"referenced file does not exist: {path}", pointer=f"/model/{key}")
            resolved[key] = str(path)
        model = resolved

    def section(cls, key, **extra):
        fields = {k: tuple(v) if isinstance(v, list) else v for k, v in obj.get(key, {}).items()}
        try:
            return cls(**fields, **extra)
        except ValueError as exc:
            raise SchemaError(str(exc), pointer=f"/{key}") from None

    seed = obj.get("seed", 0)
    return ExperimentConfig(
        command=command,
        model=model,
        solver=section(SolverConfig, "solver"),
        adam=section(AdamConfig, "adam", seed=seed),
        sampling=section(SamplingConfig, "sampling"),
        intervention=obj.get("intervention"),
        loss=loss,
        bench=dict(obj.get("bench", {})),
        out=obj.get("out", "eqcausal-out"),
        seed=seed,
        raw=obj,
    )


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config; defaults applied where omitted."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read config: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from None
    return _config_from_obj(obj, base_dir=path.parent)


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --- model resolution ---

@dataclass
class ModelBundle:
    spec: SscmSpec
    table: IoTable | None
    zoo_id: str | None
    rebound: modelzoo.ReboundInstance | None = None
    compartment: modelzoo.TwoCompartmentInstance | None = None


def build_model(config: ExperimentConfig) -> ModelBundle:
    model = config.model
    if isinstance(model, dict):
        table = dataio.load_iotable_csv(model["a_csv"], model["y_csv"], model.get("r_csv"))
        return ModelBundle(modelzoo.leontief_model(table), table, None)
    if model == "motivating-example":
        return ModelBundle(modelzoo.motivating_example(), None, model)
    if model == "rebound-3sector":
        inst = modelzoo.rebound_3sector()
        return ModelBundle(inst.spec, inst.table, model, rebound=inst)
    if model == "two-compartment":
        inst = modelzoo.two_compartment_model()
        return ModelBundle(inst.spec, None, model, compartment=inst)
    if model.startswith("leontief-synthetic-"):
        size = model.removeprefix("leontief-synthetic-")
        if not (size.isascii() and size.isdigit()):
            raise SchemaError(f"bad synthetic size in zoo id {model!r}", pointer="/model")
        table = modelzoo.leontief_synthetic(int(size))
        return ModelBundle(modelzoo.leontief_model(table), table, model)
    raise SchemaError(f"unknown model id {model!r}", pointer="/model")


def _impact_row(table: IoTable | None, name: str) -> np.ndarray:
    if table is None:
        raise SchemaError("this model has no impact table", pointer="/loss")
    if name not in table.impacts:
        raise SchemaError(f"impact row {name!r} not in table {table.impacts}", pointer="/loss")
    return table.impact_row(name)


# --- output bookkeeping ---

class OutputWriter:
    """Writes every artifact under one directory and records checksums."""

    def __init__(self, out_dir: Path):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.records: list[dict] = []

    def _record(self, name: str):
        digest = hashlib.sha256((self.dir / name).read_bytes()).hexdigest()
        self.records.append({"path": name, "sha256": digest})

    def write_json(self, name: str, obj):
        with open(self.dir / name, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)
            fh.write("\n")
        self._record(name)

    def write_csv(self, name: str, header, rows):
        import csv as _csv
        with open(self.dir / name, "w", newline="", encoding="utf-8") as fh:
            writer = _csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                                 for v in row])
        self._record(name)


def _report_obj(report) -> dict:
    return {
        "residual_norm": report.residual_norm,
        "relative_error": report.relative_error,
        "iterations": report.iterations,
        "converged": report.converged,
    }


def _eval_solver(config: ExperimentConfig) -> SolverConfig:
    """The config's solver at its tolerance or 1e-8, whichever is tighter, for evaluation."""
    return replace(config.solver, tol=min(config.solver.tol, 1e-8))


def _equilibria(spec: SscmSpec, theta, cfg: SolverConfig, **kwargs) -> np.ndarray:
    """x* of an evaluation solve; an unconverged row raises NotConverged."""
    sol = solve_equilibrium(spec, theta, cfg, **kwargs)
    deq.require_converged(sol)
    return sol.x_star


def _builtin_u(config: ExperimentConfig, spec: SscmSpec, default=None):
    """The config's builtin_values as the model's u vector, or `default` when absent."""
    u = (config.intervention or {}).get("builtin_values", default)
    if u is not None and len(u) != spec.u_dim:
        raise SchemaError(f"builtin_values length {len(u)} != model u_dim {spec.u_dim}",
                          pointer="/intervention/builtin_values")
    return None if u is None else np.asarray(u, dtype=float)


def _intervened_spec(bundle: ModelBundle, config: ExperimentConfig):
    spec = bundle.spec
    u = _builtin_u(config, spec)
    inter = config.intervention or {}
    if "targets" in inter:
        values = inter.get("values", [1.0 if inter.get("group", "multiplicative") == "multiplicative" else 0.0]
                           * len(inter["targets"]))
        g = LieElement(inter.get("group", "multiplicative"), tuple(inter["targets"]), values)
        spec = interventions.apply(spec, g)
    return spec, u


# --- pipelines ---

def _run_solve(config: ExperimentConfig, bundle: ModelBundle, out: OutputWriter) -> dict:
    spec, u = _intervened_spec(bundle, config)
    sol = solve_equilibrium(spec, spec.theta_ref, config.solver, u=u)
    out.write_csv("equilibrium.csv", ["node", "value"],
                  [[name, float(v)] for name, v in zip(spec.names, sol.x_star)])
    diffeo = sscm.check_local_diffeomorphism(spec, sol.x_star, spec.theta_ref,
                                             tol=max(config.solver.tol, 1e-12), u=u)
    out.write_json("solve_report.json", {
        "solver": _report_obj(sol.report),
        "diffeomorphism": {
            "is_solution": diffeo.is_solution,
            "jacobian_invertible": diffeo.jacobian_invertible,
            "condition_number": diffeo.condition_number,
        },
    })
    return {"converged": sol.report.converged}


def _run_grad_check(config: ExperimentConfig, bundle: ModelBundle, out: OutputWriter) -> dict:
    spec, u = _intervened_spec(bundle, config)
    if "objective_row" in config.loss and bundle.table is not None:
        c = _impact_row(bundle.table, config.loss["objective_row"])
        if bundle.zoo_id == "rebound-3sector":
            c = np.concatenate([c, np.zeros(2 * bundle.table.d)])
    else:
        c = np.ones(spec.d)
    b = ExprBuilder()
    x = b.input("x", spec.d)
    loss_graph = b.build(b.dot(b.const(c), x))
    rep = deq.grad_check(spec, spec.theta_ref, loss_graph, _eval_solver(config), u=u)
    out.write_json("grad_check.json", {
        "max_rel_deviation": rep.max_rel_deviation,
        "implicit_grad": rep.implicit_grad.tolist(),
        "fd_grad": rep.fd_grad.tolist(),
        "loss_value": rep.loss_value,
        "solver_tol": rep.solver_tol,
        "h": rep.h,
    })
    return {"max_rel_deviation": rep.max_rel_deviation}


def _loss_rows(config: ExperimentConfig, bundle: ModelBundle):
    c = _impact_row(bundle.table, config.loss.get("objective_row", "ghg"))
    r = _impact_row(bundle.table, config.loss.get("regularizer_row", "employment"))
    return c, r


def _run_optimize(config: ExperimentConfig, bundle: ModelBundle, out: OutputWriter) -> dict:
    spec = bundle.spec
    inter = config.intervention or {}
    targets = tuple(inter.get("targets", range(spec.d)))
    group = inter.get("group", "multiplicative")
    values = inter.get("values", [1.0 if group == "multiplicative" else 0.0] * len(targets))
    bounds = tuple(inter.get("bounds", (0.5, 2.0)))
    g0 = LieElement(group, targets, values)

    c, r = _loss_rows(config, bundle)
    solver = _eval_solver(config)
    base = solve_equilibrium(spec, spec.theta_ref, solver)
    loss = optimize.GhgEmploymentLoss(c, r, r * base.x_star, config.loss.get("lambda", 0.0))
    res = optimize.optimize_lie_intervention(spec, g0, loss, config.adam, solver, bounds=bounds)
    out.write_csv("trajectory.csv", ["step", "loss"] + [f"u_{t}" for t in targets],
                  [[i, float(v)] + [float(x) for x in g.values]
                   for i, (g, v) in enumerate(res.trajectory)])
    ghg, l1 = loss.components(res.x_star)
    out.write_json("optimum.json", {
        "values": res.optimum.values.tolist(),
        "loss": res.final_loss,
        "ghg_total": ghg,
        "employment_l1_deviation": l1,
        "aborted": res.aborted,
        "early_stopped": res.early_stopped,
        "failures": res.failures,
        "steps": len(res.trajectory),
    })
    return {"loss": res.final_loss, "aborted": res.aborted}


def _run_pareto(config: ExperimentConfig, bundle: ModelBundle, out: OutputWriter) -> dict:
    spec = bundle.spec
    c, r = _loss_rows(config, bundle)
    inter = config.intervention or {}
    bounds = tuple(inter.get("bounds", (0.5, 1.0)))
    targets = tuple(inter.get("targets", range(spec.d)))
    points = optimize.pareto_sweep(spec, c, r, config.loss["lambdas"], config.adam,
                                   _eval_solver(config), bounds=bounds, targets=targets)
    out.write_csv("tradeoff.csv",
                  ["lambda", "ghg_total", "employment_l1_deviation", "converged"],
                  [[p.lam, p.ghg_total, p.employment_l1_deviation, p.converged] for p in points])
    sectors = bundle.table.sectors if bundle.table is not None else tuple(spec.names)
    out.write_csv("employment_deltas.csv", ["lambda"] + list(sectors),
                  [[p.lam] + [float(v) for v in p.employment_delta] for p in points])
    out.write_csv("interventions.csv", ["lambda"] + [f"u_{t}" for t in targets],
                  [[p.lam] + [float(v) for v in p.alpha] for p in points])
    return {"points": len(points), "all_converged": all(p.converged for p in points)}


def _phase_schedule(adam: AdamConfig):
    """Coarse-to-fine schedule derived from the configured optimizer settings."""
    return (
        adam,
        replace(adam, learning_rate=adam.learning_rate / 5.0,
                iterations=max(1, adam.iterations // 2), seed=adam.seed + 1),
        replace(adam, learning_rate=adam.learning_rate / 20.0,
                iterations=max(1, (3 * adam.iterations) // 8), seed=adam.seed + 2),
    )


def _train_phases(twin, weights, sampling: SamplingConfig, phases, solver: SolverConfig):
    """Train the twin's policies phase after phase, carrying the weights over;
    returns the final weights and the final loss of every phase."""
    losses = []
    for phase in phases:
        trained = optimize.train_invariant_policy(twin, weights, sampling, phase, solver)
        weights = trained.weights
        losses.append(trained.final_loss)
    return weights, losses


def _run_invariant(config: ExperimentConfig, bundle: ModelBundle, out: OutputWriter) -> dict:
    if bundle.rebound is None:
        raise SchemaError("the invariant command runs on the rebound-3sector model", pointer="/model")
    inst = bundle.rebound
    u_eval = float(_builtin_u(config, inst.spec, default=[0.7])[0])
    sampling = replace(config.sampling, u_low=inst.u_low, u_high=inst.u_high,
                       theta_stddev=config.sampling.theta_stddev or (0.2,))

    mlp = inst.policy_mlp()
    policy, w0 = optimize.build_mlp_policy(mlp, 1, 1)
    twin = build_invariant_model(inst.spec, inst.plan(policy, mlp.n_weights),
                                 LieElement("multiplicative", (inst.energy_sector,), [1.0]))
    weights, train_losses = _train_phases(twin, w0, sampling, _phase_schedule(config.adam),
                                          replace(config.solver, tol=1e-5))

    eval_solver = _eval_solver(config)
    rng = np.random.default_rng(config.seed + 99)
    thetas, us = [], []
    for _ in range(50):
        thetas.append(optimize.sample_theta(twin.base, sampling, rng))
        us.append(twin.assemble_u([optimize.sample_u(1, "multiplicative", sampling, rng)]))
    j = inst.invariant_node
    base = _equilibria(twin.base, np.array(thetas), eval_solver)[:, j]
    dep = _equilibria(twin.deployed, np.array(thetas), eval_solver, u=np.array(us),
                      policy=weights)[:, j]
    devs = (np.abs(dep - base) / np.abs(base)).tolist()

    out.write_json("policy.json", optimize.mlp_weights_to_obj(mlp, weights))

    # near-identity continuity: invariant-node deviation sampled along u at the
    # reference parameters
    theta_ref = inst.spec.theta_ref.copy()
    base_ref = _equilibria(inst.spec, theta_ref, eval_solver)[j]
    u_vals = np.linspace(inst.u_low, 1.0, 6)
    dep = _equilibria(twin.deployed, theta_ref, eval_solver,
                      u=np.array([twin.assemble_u([[u_val]]) for u_val in u_vals]),
                      policy=weights)[:, j]
    u_sweep = [[float(u_val), float(abs(x - base_ref) / abs(base_ref))] for u_val, x in zip(u_vals, dep)]

    # protocol curves: reference vs plain intervention vs invariant intervention
    rows = []
    backfire_everywhere, reduction_everywhere = True, True
    lo, hi = inst.spec.theta_box[0]
    theta_vals = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 13)
    thetas = theta_vals[:, None]
    ref = _equilibria(inst.spec, thetas, eval_solver)
    lie = _equilibria(inst.spec, thetas, eval_solver, u=[u_eval])
    inv = _equilibria(twin.deployed, thetas, eval_solver, u=twin.assemble_u([[u_eval]]),
                      policy=weights)
    d = inst.table.d
    p_node = inst.price_node
    for theta_val, x_ref, x_lie, x_inv in zip(theta_vals, ref, lie, inv):
        e_ref = modelzoo.total_energy_demand(inst.table.A, inst.energy_sector, x_ref[:d])
        e_lie = modelzoo.total_energy_demand(inst.table.A, inst.energy_sector, x_lie[:d],
                                             u_eval, inst.efficiency_slot)
        e_inv = modelzoo.total_energy_demand(inst.table.A, inst.energy_sector, x_inv[:d],
                                             u_eval, inst.efficiency_slot)
        rows.append([float(theta_val), float(x_ref[p_node]), float(x_lie[p_node]),
                     float(x_inv[p_node]), e_ref, e_lie, e_inv])
        backfire_everywhere &= e_lie > e_ref
        reduction_everywhere &= e_inv < e_ref
    out.write_csv("rebound_curves.csv",
                  ["theta", "price_ref", "price_lie", "price_invariant",
                   "energy_ref", "energy_lie", "energy_invariant"], rows)
    out.write_json("invariant_report.json", {
        "held_out_max_relative_deviation": max(devs),
        "held_out_mean_relative_deviation": float(np.mean(devs)),
        "training_phase_losses": train_losses,
        "efficiency_value": u_eval,
        "lie_backfire_everywhere": bool(backfire_everywhere),
        "invariant_reduction_everywhere": bool(reduction_everywhere),
        "u_sweep_deviations": u_sweep,
    })
    return {"held_out_max_dev": max(devs), "backfire": bool(backfire_everywhere),
            "reduction": bool(reduction_everywhere),
            "identity_deviation": u_sweep[-1][1],
            "max_u_sweep_jump": max(abs(b[1] - a[1]) for a, b in zip(u_sweep, u_sweep[1:]))}


def _run_compartment(config: ExperimentConfig, bundle: ModelBundle, out: OutputWriter) -> dict:
    if bundle.compartment is None:
        raise SchemaError("the compartment command runs on the two-compartment model", pointer="/model")
    inst = bundle.compartment
    sampling = replace(config.sampling, u_low=inst.u_low, u_high=inst.u_high,
                       theta_stddev=config.sampling.theta_stddev or (0.1,))
    us = tuple(LieElement(p.group, (p.intervened,), [1.0]) for p in inst.plan.plans)
    twin = build_invariant_model(inst.spec, inst.plan.plans, us)
    weights, train_losses = _train_phases(twin, inst.w0, sampling, _phase_schedule(config.adam)[:2],
                                          replace(config.solver, tol=1e-6))

    grid = np.exp(np.linspace(np.log(inst.u_low), np.log(inst.u_high), 5))
    lo, hi = inst.spec.theta_box[0]
    theta_mid = np.array([0.5 * (lo + hi)])
    thetas = [np.array([lo + 0.1 * (hi - lo)]), theta_mid, np.array([hi - 0.1 * (hi - lo)])]
    rep = check_compartmentalization(twin, inst.plan, thetas, [grid, grid],
                                     _eval_solver(config), policy=weights)

    policies = []
    for plan, (start, stop) in zip(inst.plan.plans, twin.policy_slices):
        policies.append(optimize.mlp_weights_to_obj(plan.training_config, weights[start:stop]))
    out.write_json("policies.json", {"compartments": policies})

    # the deployed grid at theta_mid (thetas[1]), in the check's (u, v) order
    pairs = [(u, v) for u in grid for v in grid]
    dep = rep.deployed_equilibria[1].reshape(len(pairs), -1)
    rows = [[float(u), float(v)] + [float(x) for x in x_dep] for (u, v), x_dep in zip(pairs, dep)]
    out.write_csv("compartment_curves.csv",
                  ["u", "v"] + [f"x_{name}" for name in inst.spec.names], rows)
    out.write_json("compartment_report.json", {
        **rep.to_obj(),
        "training_phase_losses": train_losses,
        "reference_equilibrium": rep.base_equilibria[1].tolist(),  # thetas[1] is theta_mid
    })
    return {"cross_deviation": max(rep.cross_deviation), "own_response": min(rep.own_response),
            "structural_ok": rep.structural_ok}


def _bench_rows(dim: int, seed_list, base_cfg: SolverConfig, spectral_radius: float):
    """bench.csv rows of one dim, method by method; each seed's contraction is built once
    and solved by every method."""
    rows = {method: [] for method, _ in BENCH_METHODS}
    for si in seed_list:
        A, y = modelzoo.random_contraction(dim, si, spectral_radius)
        f = lambda x: A @ x + y  # noqa: E731
        for method, beta in BENCH_METHODS:
            if beta is None:
                report = forward_iterate(f, np.zeros(dim), base_cfg)
            else:
                report = anderson_solve(f, np.zeros(dim), replace(base_cfg, beta=beta))
            rows[method].append({
                "dim": dim, "method": method, "seed": int(si), "relative_error": report.relative_error,
                "iterations": report.iterations, "converged": report.converged,
            })
    return [row for method_rows in rows.values() for row in method_rows]


def _run_bench(config: ExperimentConfig, bundle: ModelBundle, out: OutputWriter) -> dict:
    dims = config.bench.get("dims", [2, 10, 50, 100, 200])
    n_seeds = config.bench.get("seeds", 20)
    radius = config.bench.get("spectral_radius", 0.9)
    seed_list = [config.seed + i for i in range(n_seeds)]
    rows = [r for dim in dims for r in _bench_rows(dim, seed_list, config.solver, radius)]
    out.write_csv("bench.csv", ["dim", "method", "seed", "relative_error", "iterations",
                                "converged"],
                  [[r["dim"], r["method"], r["seed"], r["relative_error"], r["iterations"],
                    r["converged"]] for r in rows])
    summary = []
    for dim in dims:
        for label, _ in BENCH_METHODS:
            sel = [r for r in rows if r["dim"] == dim and r["method"] == label]
            errs = np.array([r["relative_error"] for r in sel])
            iters = np.array([r["iterations"] for r in sel])
            summary.append([dim, label, float(errs.mean()), float(errs.std()),
                            float(iters.mean()), float(iters.std()),
                            all(r["converged"] for r in sel)])
    out.write_csv("bench_summary.csv",
                  ["dim", "method", "relative_error_mean", "relative_error_std",
                   "iterations_mean", "iterations_std", "all_converged"], summary)
    return {"cells": len(dims) * len(BENCH_METHODS), "all_converged": all(r["converged"] for r in rows)}


_PIPELINES = {
    "solve": _run_solve,
    "grad-check": _run_grad_check,
    "optimize": _run_optimize,
    "pareto": _run_pareto,
    "invariant": _run_invariant,
    "compartment": _run_compartment,
    "bench": _run_bench,
}


@dataclass
class RunManifest:
    config_hash: str
    version: str
    seed: int
    command: str
    stages: list
    outputs: list
    wall_clock_s: float
    success: bool

    def to_obj(self) -> dict:
        return dataclasses.asdict(self)


def run_experiment(config: ExperimentConfig, out_dir=None, seed=None) -> RunManifest:
    """Execute the configured pipeline, write outputs and the run manifest."""
    if seed is not None:
        config = replace(config, seed=int(seed), adam=replace(config.adam, seed=int(seed)))
    out = OutputWriter(Path(out_dir if out_dir is not None else config.out))
    stages = []
    start = time.perf_counter()
    success = True

    def run_stage(name, fn, *args):
        t0 = time.perf_counter()
        try:
            result = fn(*args)
            detail = result if isinstance(result, dict) else {}
            stages.append({"name": name, "status": "ok", "wall_s": time.perf_counter() - t0,
                           "detail": detail})
            return result
        except EqcausalError as exc:
            stages.append({"name": name, "status": "error", "wall_s": time.perf_counter() - t0,
                           "detail": {"error": f"{type(exc).__name__}: {exc}"}})
            raise

    try:
        bundle = run_stage("build-model", build_model, config)
        run_stage(config.command, _PIPELINES[config.command], config, bundle, out)
    except EqcausalError:
        success = False

    manifest = RunManifest(
        config_hash=config_hash(config),
        version=__version__,
        seed=config.seed,
        command=config.command,
        stages=stages,
        outputs=out.records,
        wall_clock_s=time.perf_counter() - start,
        success=success,
    )
    with open(out.dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest.to_obj(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest


def _run_cli(command: str, config_path: str, out: str | None, seed: int | None) -> int:
    try:
        config = load_config(config_path)
        if config.command != command:
            raise SchemaError(f"config command {config.command!r} does not match CLI command {command!r}",
                              pointer="/command")
    except (SchemaError, ParseError) as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    manifest = run_experiment(config, out_dir=out, seed=seed)
    for stage in manifest.stages:
        click.echo(f"[{stage['status']}] {stage['name']} ({stage['wall_s']:.2f}s)")
    click.echo(f"outputs in {out or config.out} ({len(manifest.outputs)} files)")
    return 0 if manifest.success else 1


@click.group()
@click.version_option(__version__)
def main():
    """Equilibria, implicit gradients and intervention design for cyclic causal models."""


def _register(name):
    @main.command(name=name, help=f"Run the {name} pipeline from a JSON config.")
    @click.option("--config", "config_path", required=True, type=click.Path(), help="JSON config file.")
    @click.option("--out", default=None, type=click.Path(), help="Output directory override.")
    @click.option("--seed", default=None, type=int, help="Seed override.")
    def _cmd(config_path, out, seed, _name=name):
        sys.exit(_run_cli(_name, config_path, out, seed))


for _name in COMMANDS:
    _register(_name)


if __name__ == "__main__":
    main()
