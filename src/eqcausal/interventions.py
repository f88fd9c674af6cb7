"""Lie-group soft interventions and invariance machinery.

A LieElement from the multiplicative group (strictly positive reals) or the
additive group acts on a model by wrapping the targeted structural
assignments; applying the identity leaves equilibria unchanged. Invariant
interventions pair a main intervention with a learned or analytic policy on an
auxiliary node, built here as a twin: the base model and a deployed one, written in
one pass over the base model's graphs, whose arrows out of the invariant nodes read
the base equilibrium values, a reroute of the deployed model at solve time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import deq
from .diffcore import ExprBuilder, ExprGraph, inline
from .errors import (ClampedModelSingular, InvalidGroupElement, InvalidPartition,
                     MismatchedTargets, PolicyArityMismatch, ShapeMismatch)
from .fixedpoint import SolverConfig
from .sscm import (COND_MAX, EquilibriumSolution, Linearization, SscmSpec, _require_valid,
                   derive_wrapped, solve_equilibrium, wrap_assignment)

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
        if not np.isfinite(vals).all():
            raise InvalidGroupElement(f"group element values must be finite, got {vals}")
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


def apply(spec: SscmSpec, g: LieElement) -> SscmSpec:
    """Wrap the targeted assignments by fresh intervention-slot components.

    Returns a new spec with u_dim extended by len(g.targets); the new
    components default to g's values, so solving the returned spec directly
    yields the intervened equilibrium. Parent sets and node count are
    unchanged (the intervention is soft). The new spec's program is spec's
    stacked graph with each target's wrap appended as nodes of it, compiled once
    at its first use (sscm.derive_wrapped), so spec must be valid. Its per-node
    graphs are built only when read (validate, JSON, dataclasses.replace).
    """
    _require_nodes(spec, "targets", g.targets)
    return derive_wrapped(spec, g.group == "multiplicative", g.targets, g.values)


def _require_nodes(spec: SscmSpec, what: str, nodes: tuple) -> None:
    if not all(isinstance(n, (int, np.integer)) and 0 <= n < spec.d for n in nodes):
        raise MismatchedTargets(f"{what} {nodes} outside node range 0..{spec.d - 1}")


def hard_intervention_derivative(spec: SscmSpec, j: int, k: int, theta,
                                 cfg: SolverConfig | None = None) -> float:
    """d x_j / d(lambda) of the model clamped at x_k = lambda, at lambda = x*_k. A j or k outside
    the model raises MismatchedTargets; an unconverged base model or an ill-conditioned
    clamped system, ClampedModelSingular."""
    _require_nodes(spec, "nodes", (j, k))
    cfg = cfg or SolverConfig(tol=1e-10)
    sol = solve_equilibrium(spec, theta, cfg)
    if not sol.report.converged:
        raise ClampedModelSingular("base model does not converge at the requested theta")
    return _clamped_derivative(Linearization(spec, sol.x_star, sol.theta), j, k)


def _clamped_derivative(lin: Linearization, j: int, k: int) -> float:
    """d x_j / d(lambda) from the base model's linearization at its equilibrium x*.

    Clamped at lambda = x*_k, the model keeps x*; its I - df/dx is lin.lhs with row k set to
    e_k^T and its df/d(lambda) is e_k. A clamped system whose 1-norm condition number is not
    <= COND_MAX raises ClampedModelSingular."""
    lhs = lin.lhs.copy()
    lhs[k] = 0.0
    lhs[k, k] = 1.0  # row k is now e_k
    cond = np.linalg.cond(lhs, 1)
    if not cond <= COND_MAX:
        raise ClampedModelSingular(
            f"clamped I - df/dx has condition number {cond:.3e} > {COND_MAX:.0e}")
    return float(np.linalg.solve(lhs, lhs[k])[j])


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
    sufficient, not necessary. One solve and one linearization of the base model serve
    all four checks; an unconverged equilibrium raises NotConverged. A singular or
    ill-conditioned I - df/dx is reported as diffeomorphic_at_reference = False (and
    all_pass = False); when it is singular, (b) reports sigma_min 0, and an ill-conditioned
    clamped system in (c) reports hard_derivative 0. Condition numbers are 1-norm ones,
    held to sscm.COND_MAX. An i, j or k outside the model raises MismatchedTargets.
    """
    _require_nodes(spec, "nodes", (i, j, k))
    if i == j or i == k:
        raise ValueError("intervened node must differ from invariant and auxiliary nodes")
    cfg = cfg or SolverConfig(tol=1e-10)
    sol = solve_equilibrium(spec, spec.theta_ref if theta_ref is None else theta_ref, cfg)
    deq.require_converged(sol)
    lin = Linearization(spec, sol.x_star, sol.theta)
    keep = [n for n in range(spec.d) if n != j]
    cond_red = float(np.linalg.cond(lin.lhs[np.ix_(keep, keep)], 1))

    p = spec.theta_dim
    sigma_min = 0.0
    if np.isfinite(lin.cond) and len(spec.parents[k]) >= p > 0:
        pa_rows = np.linalg.solve(lin.lhs, lin.jac.theta)[list(spec.parents[k]), :]
        sigma_min = float(np.linalg.svd(pa_rows, compute_uv=False)[p - 1])

    try:
        deriv = _clamped_derivative(lin, j, k)
    except ClampedModelSingular:
        deriv = 0.0

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
    intervention instead of wrapping the intervened node's assignment. The
    intervention's group is its LieElement's, recorded on the twin.
    """

    intervened: int
    invariant: int
    auxiliary: int
    policy: ExprGraph
    policy_dim: int = 0
    builtin_u: bool = False

    def __post_init__(self):
        if self.intervened == self.invariant or self.intervened == self.auxiliary:
            raise ValueError("intervened node must differ from invariant and auxiliary nodes")


@dataclass
class InvariantTwin:
    """Paired unintervened/intervened models sharing theta.

    `deployed` is what an actual intervention would produce and is solved as it is: base
    with each plan's intervention wrapped in (or its built-in u set) and its policy in
    place of the auxiliary node's assignment. Training solves it with every arrow leaving
    an invariant node reading the unintervened equilibrium instead (see solve_pair).
    """

    base: SscmSpec
    deployed: SscmSpec
    plans: tuple[InvariantInterventionSpec, ...]
    groups: tuple[str, ...]  # each plan's intervention group, from its LieElement
    u_slices: tuple[tuple[int, int], ...]
    policy_slices: tuple[tuple[int, int], ...]
    invariant_nodes: tuple[int, ...]

    def assemble_u(self, values_per_plan) -> Array:
        """The deployed u_ref with each plan's u components set to its values."""
        values_per_plan = list(values_per_plan)
        if len(values_per_plan) != len(self.plans):
            raise ShapeMismatch(f"values for {len(values_per_plan)} plans, the twin has {len(self.plans)}")
        u = self.deployed.u_ref.copy()
        for i, ((start, stop), vals) in enumerate(zip(self.u_slices, values_per_plan)):
            if np.size(vals) != stop - start:
                raise ShapeMismatch(f"plan {i}: {np.size(vals)} values for its {stop - start} u components")
            u[start:stop] = np.ravel(vals)
        return u

    def solve_pair(self, theta, u, cfg: SolverConfig, policy=None,
                   base: EquilibriumSolution | None = None) -> tuple[EquilibriumSolution, EquilibriumSolution]:
        """The base equilibrium and the deployed one with every arrow leaving an invariant node
        reading the base equilibrium; a batch of theta or u solves both as batches. A base
        solution at theta solved before (training solves them ahead) replaces the base solve."""
        base_sol = solve_equilibrium(self.base, theta, cfg) if base is None else base
        reroute = self.invariant_nodes, base_sol.x_star[..., list(self.invariant_nodes)]
        int_sol = solve_equilibrium(self.deployed, theta, cfg, u=u, reroute=reroute, policy=policy)
        return base_sol, int_sol


def build_invariant_model(spec: SscmSpec, plans, interventions) -> InvariantTwin:
    """Construct the unintervened/intervened twin for one or more invariance plans.

    `plans` and `interventions` may be a single plan/LieElement or aligned
    sequences (one per compartment). The deployed spec is written in one pass over
    spec's per-node graphs: a built-in plan sets the first u_dim u components, every
    other plan wraps its intervened node by one u component appended in plan order
    (sscm.wrap_assignment; spec must then be valid), and each policy then replaces its
    auxiliary node's graph. A plan node outside the model raises MismatchedTargets.
    """
    if isinstance(plans, InvariantInterventionSpec):
        plans = (plans,)
        interventions = (interventions,)
    plans = tuple(plans)
    interventions = tuple(interventions)
    if len(plans) != len(interventions):
        raise ValueError("one intervention per plan required")

    u_ref, added = spec.u_ref.copy(), []
    u_slices: list[tuple[int, int]] = []
    wraps: dict[int, list] = {}
    for plan, g in zip(plans, interventions):
        if plan.builtin_u:
            if g.dim != spec.u_dim or spec.u_dim == 0:
                raise MismatchedTargets(
                    f"builtin intervention must cover the model's u_dim {spec.u_dim}")
            u_slices.append((0, spec.u_dim))
            u_ref[0:spec.u_dim] = g.values
        else:
            if g.targets != (plan.intervened,):
                raise MismatchedTargets(
                    f"intervention targets {g.targets} do not match plan's intervened node {plan.intervened}")
            _require_nodes(spec, "targets", g.targets)
            _require_valid(spec)
            pos = spec.u_dim + len(added)
            wraps.setdefault(plan.intervened, []).append((pos, g.group == "multiplicative"))
            added.append(g.values)
            u_slices.append((pos, pos + 1))
        _require_nodes(spec, "plan nodes", (plan.intervened, plan.invariant, plan.auxiliary))

    u_dim = spec.u_dim + len(added)  # a twin of built-in plans only keeps every graph
    assignments = [wrap_assignment(graph, spec.u_dim, u_dim, wraps.get(j, ())) if added else graph
                   for j, graph in enumerate(spec.assignments)]
    policy_total = sum(p.policy_dim for p in plans)
    policy_slices: list[tuple[int, int]] = []
    offset = 0
    for plan, (ustart, ustop) in zip(plans, u_slices):
        k = plan.auxiliary
        n_pa = len(spec.parents[k])
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
            slot_map["u"] = b.gather(b.input("u", u_dim), range(ustart, ustop))
        if "policy" in pol.slots:
            slot_map["policy"] = b.slice(b.input("policy", policy_total), offset, offset + plan.policy_dim)
        assignments[k] = b.build(inline(b, pol, slot_map))
        policy_slices.append((offset, offset + plan.policy_dim))
        offset += plan.policy_dim

    deployed = replace(spec, assignments=tuple(assignments), u_dim=u_dim,
                       u_ref=np.concatenate([u_ref, *added]), policy_dim=policy_total)

    invariant_nodes = tuple(p.invariant for p in plans)
    if len(set(invariant_nodes)) != len(invariant_nodes):
        raise ValueError("plans share an invariant node")

    return InvariantTwin(
        base=spec,
        deployed=deployed,
        plans=plans,
        groups=tuple(g.group for g in interventions),
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
