"""Lie-group soft interventions and invariance machinery.

A LieElement from the multiplicative group (strictly positive reals) or the
additive group acts on a model by wrapping the targeted structural
assignments; applying the identity leaves equilibria unchanged. Invariant
interventions pair a main intervention with a learned or analytic policy on
an auxiliary node, built here as a twin structure: an unintervened layer and
an intervened layer whose arrows out of the invariant nodes are rerouted to
the unintervened equilibrium values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import deq
from .diffcore import ExprBuilder, ExprGraph, inline
from .errors import (ClampedModelSingular, InvalidGroupElement, InvalidPartition,
                     MismatchedTargets, NonFiniteIterate, PolicyArityMismatch)
from .fixedpoint import SolverConfig
from .sscm import COND_MAX, EquilibriumSolution, Linearization, SscmSpec, solve_equilibrium

Array = np.ndarray

GROUPS = ("multiplicative", "additive")


@dataclass(frozen=True, eq=False)
class LieElement:
    group: str
    targets: tuple[int, ...]
    values: Array

    def __post_init__(self):
        if self.group not in GROUPS:
            raise InvalidGroupElement(f"group must be one of {GROUPS}, got {self.group!r}")
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1).copy()
        if vals.shape[0] != len(self.targets):
            raise MismatchedTargets(f"{len(self.targets)} targets but {vals.shape[0]} values")
        if len(set(self.targets)) != len(self.targets):
            raise MismatchedTargets(f"targets {self.targets} repeat a node")
        if self.group == "multiplicative" and np.any(vals <= 0.0):
            raise InvalidGroupElement("multiplicative group elements must be strictly positive")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return len(self.targets)


def identity(group: str, targets) -> LieElement:
    targets = tuple(targets)
    fill = 1.0 if group == "multiplicative" else 0.0
    return LieElement(group, targets, np.full(len(targets), fill))


def _check_same(g1: LieElement, g2: LieElement):
    if g1.group != g2.group or g1.targets != g2.targets:
        raise MismatchedTargets("group elements act on different groups or target sets")


def compose(g1: LieElement, g2: LieElement) -> LieElement:
    _check_same(g1, g2)
    if g1.group == "multiplicative":
        return LieElement(g1.group, g1.targets, g1.values * g2.values)
    return LieElement(g1.group, g1.targets, g1.values + g2.values)


def inverse(g: LieElement) -> LieElement:
    if g.group == "multiplicative":
        return LieElement(g.group, g.targets, 1.0 / g.values)
    return LieElement(g.group, g.targets, -g.values)


def _remap_u(builder: ExprBuilder, graph: ExprGraph, new_u_dim: int, old_u_dim: int):
    """Slot map that rebinds a graph's old u slot to a prefix of the widened u vector."""
    slot_map = {}
    if "u" in graph.slots:
        u_in = builder.input("u", new_u_dim)
        slot_map["u"] = builder.slice(u_in, 0, old_u_dim)
    return slot_map


def apply(spec: SscmSpec, g: LieElement) -> SscmSpec:
    """Wrap the targeted assignments by fresh intervention-slot components.

    Returns a new spec with u_dim extended by len(g.targets); the new
    components default to g's values, so solving the returned spec directly
    yields the intervened equilibrium. Parent sets and node count are
    unchanged (the intervention is soft).
    """
    if any(t < 0 or t >= spec.d for t in g.targets):
        raise MismatchedTargets(f"targets {g.targets} outside node range 0..{spec.d - 1}")
    old_dim = spec.u_dim
    new_dim = old_dim + g.dim
    pos_of = {t: old_dim + i for i, t in enumerate(g.targets)}
    assignments = []
    for j, graph in enumerate(spec.assignments):
        if j not in pos_of and "u" not in graph.slots:
            assignments.append(graph)
            continue
        b = ExprBuilder()
        out = inline(b, graph, _remap_u(b, graph, new_dim, old_dim))
        if j in pos_of:
            u_in = b.input("u", new_dim)
            val = b.gather(u_in, [pos_of[j]])
            out = out * val if g.group == "multiplicative" else out + val
        assignments.append(b.build(out))
    return replace(
        spec,
        assignments=tuple(assignments),
        u_dim=new_dim,
        u_ref=np.concatenate([spec.u_ref, g.values]),
    )


def hard_intervention_derivative(spec: SscmSpec, j: int, k: int, theta,
                                 cfg: SolverConfig | None = None) -> float:
    """d x_j / d(lambda) for the model clamped at x_k = lambda, at lambda = x*_k.

    The clamp value enters as an extra trailing parameter so the derivative
    comes out of the implicit-differentiation machinery.
    """
    cfg = cfg or SolverConfig(tol=1e-10)
    theta = np.asarray(theta, dtype=np.float64)
    sol = solve_equilibrium(spec, theta, cfg)
    if not sol.report.converged:
        raise ClampedModelSingular("base model does not converge at the requested theta")
    return _clamped_derivative(spec, j, k, theta, float(sol.x_star[k]), cfg)


def _clamped_derivative(spec: SscmSpec, j: int, k: int, theta, lam0: float,
                        cfg: SolverConfig) -> float:
    """d x_j / d(lambda) at lambda = lam0 for the model clamped at x_k = lambda."""
    clamped, theta_ext = clamp_node(spec, k, theta, lam0)
    try:
        csol = solve_equilibrium(clamped, theta_ext, cfg)
    except NonFiniteIterate as exc:
        raise ClampedModelSingular("clamped model diverges") from exc
    if not csol.report.converged:
        raise ClampedModelSingular("clamped model does not converge")
    return float(deq.jacobian_wrt_theta(clamped, csol)[j, -1])


def clamp_node(spec: SscmSpec, k: int, theta, lam: float) -> tuple[SscmSpec, Array]:
    """Hard-intervene node k to a constant carried as a trailing theta component."""
    b = ExprBuilder()
    t = b.input("theta", 1)
    clamped_graph = b.build(t)
    p = spec.theta_dim
    parents = list(spec.parents)
    parents[k] = ()
    assignments = list(spec.assignments)
    assignments[k] = clamped_graph
    slices = list(spec.theta_slices)
    slices[k] = (p, p + 1)
    span = max(1.0, abs(lam))
    theta_ref = np.concatenate([spec.theta_ref, [lam]])
    theta_box = np.concatenate([spec.theta_box, [[lam - span, lam + span]]], axis=0)
    clamped = replace(
        spec,
        parents=tuple(parents),
        assignments=tuple(assignments),
        theta_slices=tuple(slices),
        theta_ref=theta_ref,
        theta_box=theta_box,
        x_ref=None,
    )
    return clamped, np.concatenate([np.asarray(theta, dtype=np.float64), [lam]])


@dataclass
class InvarianceReport:
    reduced_jacobian_invertible: bool
    reduced_condition_number: float
    parents_jacobian_full_rank: bool
    parents_jacobian_sigma_min: float
    hard_derivative_nonzero: bool
    hard_derivative: float
    diffeomorphic_at_reference: bool

    @property
    def all_pass(self) -> bool:
        return (self.diffeomorphic_at_reference and self.reduced_jacobian_invertible
                and self.parents_jacobian_full_rank and self.hard_derivative_nonzero)



def check_invariance_conditions(spec: SscmSpec, i: int, j: int, k: int, theta_ref=None,
                                cfg: SolverConfig | None = None,
                                sigma_min_threshold: float = 1e-6,
                                derivative_threshold: float = 1e-6) -> InvarianceReport:
    """Numerically check the sufficient conditions for an invariant intervention.

    (a) the state Jacobian with the invariant node's row/column removed stays
    well conditioned, (b) the map theta -> equilibrium values of the auxiliary
    node's parents has full column rank, (c) the hard-intervention derivative
    of the invariant node w.r.t. the auxiliary node is nonzero. The checks are
    sufficient, not necessary. One linearization of the base model at its
    equilibrium serves the diffeomorphism check, (a) and (b); an unconverged
    equilibrium raises NotConverged. A singular or ill-conditioned I - df/dx
    is reported as diffeomorphic_at_reference = False (and all_pass = False);
    when it is singular, (b) has no Jacobian and reports sigma_min 0. Condition
    numbers are 1-norm ones, held to sscm.COND_MAX.
    """
    if i == j or i == k:
        raise ValueError("intervened node must differ from invariant and auxiliary nodes")
    cfg = cfg or SolverConfig(tol=1e-10)
    theta = spec.theta_ref if theta_ref is None else np.asarray(theta_ref, dtype=np.float64)
    sol = solve_equilibrium(spec, theta, cfg)
    deq.require_converged(sol)
    lin = Linearization(spec, sol.x_star, theta)
    keep = [n for n in range(spec.d) if n != j]
    reduced = (np.eye(spec.d) - lin.jac.x)[np.ix_(keep, keep)]
    cond_red = float(np.linalg.cond(reduced, 1))

    p = spec.theta_dim
    sigma_min = 0.0
    if lin.inv is not None and len(spec.parents[k]) >= p > 0:
        pa_rows = (lin.inv @ lin.jac.theta)[list(spec.parents[k]), :]
        sigma_min = float(np.linalg.svd(pa_rows, compute_uv=False)[p - 1])

    deriv = _clamped_derivative(spec, j, k, theta, float(sol.x_star[k]), cfg)

    return InvarianceReport(
        reduced_jacobian_invertible=bool(cond_red <= COND_MAX),
        reduced_condition_number=cond_red,
        parents_jacobian_full_rank=bool(sigma_min > sigma_min_threshold),
        parents_jacobian_sigma_min=sigma_min,
        hard_derivative_nonzero=bool(abs(deriv) > derivative_threshold),
        hard_derivative=deriv,
        diffeomorphic_at_reference=bool(lin.cond <= COND_MAX),
    )


@dataclass(frozen=True)
class InvariantInterventionSpec:
    """(intervened, invariant, auxiliary) node triple plus the auxiliary policy.

    The policy graph consumes the auxiliary node's parents through its
    "parents" slot and the plan's own intervention components through "u"
    (plus an optional "policy" weight slot of length policy_dim). When
    builtin_u is set, the model's pre-wired intervention slots carry the main
    intervention instead of wrapping the intervened node's assignment.
    """

    intervened: int
    invariant: int
    auxiliary: int
    policy: ExprGraph
    policy_dim: int = 0
    builtin_u: bool = False
    group: str = "multiplicative"
    training_config: object | None = None

    def __post_init__(self):
        if self.intervened == self.invariant or self.intervened == self.auxiliary:
            raise ValueError("intervened node must differ from invariant and auxiliary nodes")


@dataclass
class InvariantTwin:
    """Paired unintervened/intervened models sharing theta.

    `rerouted` reads every arrow leaving an invariant node from the
    unintervened equilibrium (bound through the "extern" slot); it is the
    training target, solved by `solve_pair`. `deployed` keeps all arrows live, is
    what an actual intervention would produce and, needing no base, is solved directly.
    """

    base: SscmSpec
    rerouted: SscmSpec
    deployed: SscmSpec
    plans: tuple[InvariantInterventionSpec, ...]
    u_slices: tuple[tuple[int, int], ...]
    policy_slices: tuple[tuple[int, int], ...]
    invariant_nodes: tuple[int, ...]

    def assemble_u(self, values_per_plan) -> Array:
        u = self.rerouted.u_ref.copy()
        for (start, stop), vals in zip(self.u_slices, values_per_plan):
            u[start:stop] = np.asarray(vals, dtype=np.float64).reshape(-1)
        return u

    def solve_pair(self, theta, u, cfg: SolverConfig,
                   policy=None) -> tuple[EquilibriumSolution, EquilibriumSolution]:
        """The base equilibrium and the rerouted intervened one that reads its invariant nodes;
        a batch of theta or u solves both as batches."""
        base_sol = solve_equilibrium(self.base, theta, cfg)
        extern = base_sol.x_star[..., list(self.invariant_nodes)]
        int_sol = solve_equilibrium(self.rerouted, theta, cfg, u=u, extern=extern, policy=policy)
        return base_sol, int_sol


def _reroute_parents(graph: ExprGraph, parent_list, invariant_index: dict[int, int],
                     extern_dim: int) -> ExprGraph:
    positions = [pos for pos, par in enumerate(parent_list) if par in invariant_index]
    if not positions or "parents" not in graph.slots:
        return graph
    n_pa = len(parent_list)
    b = ExprBuilder()
    p_in = b.input("parents", n_pa)
    e_in = b.input("extern", extern_dim)
    pieces = []
    cursor = 0
    for pos in positions:
        if pos > cursor:
            pieces.append(b.slice(p_in, cursor, pos))
        pieces.append(b.gather(e_in, [invariant_index[parent_list[pos]]]))
        cursor = pos + 1
    if cursor < n_pa:
        pieces.append(b.slice(p_in, cursor, n_pa))
    new_parents = pieces[0] if len(pieces) == 1 else b.concat(*pieces)
    return b.build(inline(b, graph, {"parents": new_parents}))


def build_invariant_model(spec: SscmSpec, plans, interventions) -> InvariantTwin:
    """Construct the unintervened/intervened twin for one or more invariance plans.

    `plans` and `interventions` may be a single plan/LieElement or aligned
    sequences (one per compartment). Each plan's auxiliary assignment is
    replaced by its policy graph; in the rerouted twin every arrow leaving an
    invariant node is redirected to the unintervened equilibrium value.
    """
    if isinstance(plans, InvariantInterventionSpec):
        plans = (plans,)
        interventions = (interventions,)
    plans = tuple(plans)
    interventions = tuple(interventions)
    if len(plans) != len(interventions):
        raise ValueError("one intervention per plan required")

    wired = spec
    u_slices: list[tuple[int, int]] = []
    for plan, g in zip(plans, interventions):
        if plan.builtin_u:
            if g.dim != spec.u_dim or spec.u_dim == 0:
                raise MismatchedTargets(
                    f"builtin intervention must cover the model's u_dim {spec.u_dim}")
            u_slices.append((0, spec.u_dim))
            vals = wired.u_ref.copy()
            vals[0:spec.u_dim] = g.values
            wired = wired.with_u(vals)
        else:
            if g.targets != (plan.intervened,):
                raise MismatchedTargets(
                    f"intervention targets {g.targets} do not match plan's intervened node {plan.intervened}")
            start = wired.u_dim
            wired = apply(wired, g)
            u_slices.append((start, wired.u_dim))

    # widen any stale u slots (earlier plans' graphs) to the final dimension
    final_dim = wired.u_dim
    policy_total = sum(p.policy_dim for p in plans)
    policy_slices: list[tuple[int, int]] = []
    offset = 0
    assignments = list(wired.assignments)
    for plan, (ustart, ustop) in zip(plans, u_slices):
        k = plan.auxiliary
        n_pa = len(wired.parents[k])
        pol = plan.policy
        pol_pa = pol.slot_dim("parents") if "parents" in pol.slots else 0
        if pol_pa != n_pa:
            raise PolicyArityMismatch(
                f"policy for node {k} expects {pol_pa} parents, node has {n_pa}")
        if "u" in pol.slots and pol.slot_dim("u") != ustop - ustart:
            raise PolicyArityMismatch(
                f"policy u slot dim {pol.slot_dim('u')} != intervention dim {ustop - ustart}")
        if ("policy" in pol.slots and pol.slot_dim("policy") != plan.policy_dim) or \
                ("policy" not in pol.slots and plan.policy_dim != 0):
            raise PolicyArityMismatch(f"policy weight slot does not match policy_dim {plan.policy_dim}")
        b = ExprBuilder()
        slot_map = {}
        if "parents" in pol.slots:
            slot_map["parents"] = b.input("parents", n_pa)
        if "u" in pol.slots:
            u_in = b.input("u", final_dim)
            slot_map["u"] = b.gather(u_in, range(ustart, ustop))
        if "policy" in pol.slots:
            w_in = b.input("policy", policy_total)
            slot_map["policy"] = b.slice(w_in, offset, offset + plan.policy_dim)
        assignments[k] = b.build(inline(b, pol, slot_map))
        policy_slices.append((offset, offset + plan.policy_dim))
        offset += plan.policy_dim

    for j, graph in enumerate(assignments):
        if "u" in graph.slots and graph.slot_dim("u") != final_dim:
            b = ExprBuilder()
            assignments[j] = b.build(inline(b, graph, _remap_u(b, graph, final_dim, graph.slot_dim("u"))))

    deployed = replace(wired, assignments=tuple(assignments), policy_dim=policy_total)

    invariant_nodes = tuple(p.invariant for p in plans)
    if len(set(invariant_nodes)) != len(invariant_nodes):
        raise ValueError("plans share an invariant node")
    inv_index = {node: idx for idx, node in enumerate(invariant_nodes)}
    rerouted_assignments = [
        _reroute_parents(g, wired.parents[m], inv_index, len(invariant_nodes))
        for m, g in enumerate(assignments)
    ]
    rerouted = replace(wired, assignments=tuple(rerouted_assignments),
                       policy_dim=policy_total, extern_dim=len(invariant_nodes))

    return InvariantTwin(
        base=spec,
        rerouted=rerouted,
        deployed=deployed,
        plans=plans,
        u_slices=tuple(u_slices),
        policy_slices=tuple(policy_slices),
        invariant_nodes=invariant_nodes,
    )


@dataclass(frozen=True)
class CompartmentPlan:
    """Disjoint node sets covering the model, with one invariance plan each."""

    compartments: tuple[tuple[int, ...], ...]
    plans: tuple[InvariantInterventionSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "compartments", tuple(tuple(int(n) for n in c) for c in self.compartments))
        if len(self.plans) != len(self.compartments):
            raise InvalidPartition("one plan per compartment required")


def compartment_structure_violations(spec: SscmSpec, plan: CompartmentPlan) -> list[str]:
    """Check the structural hypotheses for compartmentalized interventions."""
    out: list[str] = []
    seen: dict[int, int] = {}
    for ci, comp in enumerate(plan.compartments):
        for n in comp:
            if n in seen:
                raise InvalidPartition(f"node {n} in compartments {seen[n]} and {ci}")
            if n < 0 or n >= spec.d:
                raise InvalidPartition(f"node {n} out of range")
            seen[n] = ci
    if len(seen) != spec.d:
        raise InvalidPartition("compartments do not cover all nodes")
    for ci, (comp, p) in enumerate(zip(plan.compartments, plan.plans)):
        for node in (p.intervened, p.invariant, p.auxiliary):
            if seen[node] != ci:
                out.append(f"compartment {ci}: plan node {node} lies outside the compartment")
    for child in range(spec.d):
        for parent in spec.parents[child]:
            ci = seen[parent]
            if seen[child] != ci and parent != plan.plans[ci].invariant:
                out.append(
                    f"node {parent} (compartment {ci}) feeds node {child} "
                    f"(compartment {seen[child]}) but is not the invariant node")
    return out


@dataclass
class CompartmentReport:
    structural_ok: bool
    structural_violations: list[str]
    cross_deviation: list[float]  # per compartment, relative to node magnitude
    own_response: list[float]  # intervened-node relative swing across its own range
    n_theta_samples: int
    base_equilibria: Array  # (n_theta_samples, d), the unintervened x* per sample; not serialized
    deployed_equilibria: Array  # (n_theta_samples, *grid shape, d), the deployed x*; not serialized

    def to_obj(self) -> dict:
        return {
            "structural_ok": self.structural_ok,
            "structural_violations": self.structural_violations,
            "cross_deviation": self.cross_deviation,
            "own_response": self.own_response,
            "n_theta_samples": self.n_theta_samples,
        }


def check_compartmentalization(twin: InvariantTwin, plan: CompartmentPlan, theta_samples,
                               u_grids, cfg: SolverConfig, policy=None) -> CompartmentReport:
    """Monte-Carlo check that each compartment ignores the other interventions.

    For every theta sample the twin's deployed model (built for plan.plans) is solved
    over the cartesian grid of per-compartment intervention values. A compartment's
    deviation is the largest spread of its node values across the *other*
    compartments' values (holding its own fixed), normalized by the unintervened magnitude.
    The base equilibria and the whole theta-by-grid set are each solved as one batch;
    an unconverged row raises NotConverged.
    """
    if twin.plans != plan.plans:
        raise InvalidPartition("the twin was not built from the compartment plan's invariance plans")
    spec = twin.base
    violations = compartment_structure_violations(spec, plan)
    n_comp = len(plan.compartments)
    grids = [np.asarray(g, dtype=np.float64) for g in u_grids]
    shape = tuple(len(g) for g in grids)

    thetas = np.array(theta_samples, dtype=np.float64)
    base = solve_equilibrium(spec, thetas, cfg)
    deq.require_converged(base)
    combos = list(itertools.product(*(range(s) for s in shape)))
    us = np.array([twin.assemble_u([[grids[c][combo[c]]] for c in range(n_comp)]) for combo in combos])
    deployed = solve_equilibrium(twin.deployed, np.repeat(thetas, len(combos), axis=0), cfg,
                                 u=np.tile(us, (len(thetas), 1)), policy=policy)
    deq.require_converged(deployed)
    deployed = deployed.x_star.reshape((len(thetas),) + shape + (spec.d,))

    cross_dev = np.zeros(n_comp)
    own_resp = np.zeros(n_comp)
    mid = tuple(len(grids[ax]) // 2 for ax in range(n_comp))
    for x_base, sols in zip(base.x_star, deployed):
        scale = np.maximum(np.abs(x_base), 1e-9)
        for c, comp in enumerate(plan.compartments):
            others = tuple(ax for ax in range(n_comp) if ax != c)
            spread = sols.max(axis=others) - sols.min(axis=others) if others else np.zeros_like(sols)
            rel = (np.abs(spread[..., list(comp)]) / scale[list(comp)]).max()
            cross_dev[c] = max(cross_dev[c], rel)
            own_line = sols[tuple(slice(None) if ax == c else mid[ax] for ax in range(n_comp))]
            node = plan.plans[c].intervened
            swing = (own_line[..., node].max() - own_line[..., node].min()) / scale[node]
            own_resp[c] = max(own_resp[c], swing)

    return CompartmentReport(
        structural_ok=not violations,
        structural_violations=violations,
        cross_deviation=cross_dev.tolist(),
        own_response=own_resp.tolist(),
        n_theta_samples=len(thetas),
        base_equilibria=base.x_star,
        deployed_equilibria=deployed,
    )
