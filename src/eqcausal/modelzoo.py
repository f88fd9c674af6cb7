"""Constructors for the concrete economic models and their closed-form oracles.

The demand-driven multi-sector model solves x = A x + y for a nonnegative
technical coefficient matrix A and final demand y; impacts are linear in
output, s = R x. Assignments eliminate any diagonal A entries algebraically
(x_k gathers only other sectors; the fixed point is unchanged), keeping
parent lists free of self-loops.

Frozen desk-scale instances (3-sector price-rebound, two-compartment, and
seeded synthetic tables) live here so experiments are reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import optimize
from .diffcore import ExprBuilder, ExprGraph, GraphNode
from .errors import (DimensionMismatch, NegativeEntry, SingularMatrix,
                     SingularParameterization, TopologyViolation)
from .interventions import CompartmentPlan, InvariantInterventionSpec
from .optimize import MlpSpec
from .sscm import SscmSpec, _Parents, merge_rows, with_program

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class IoTable:
    """Technical coefficients A (d x d), footprint intensities R (s x d), final demand y."""

    A: Array
    R: Array
    y: Array
    sectors: tuple[str, ...]
    impacts: tuple[str, ...]

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        R = np.asarray(self.R, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        d = A.shape[0] if A.ndim == 2 else -1
        if A.ndim != 2 or A.shape[1] != d:
            raise DimensionMismatch(f"A must be square, got shape {A.shape}")
        if R.ndim != 2 or R.shape[1] != d:
            raise DimensionMismatch(f"R must be s x {d}, got shape {R.shape}")
        if y.shape != (d,):
            raise DimensionMismatch(f"y must have length {d}, got shape {y.shape}")
        if len(self.sectors) != d:
            raise DimensionMismatch(f"{len(self.sectors)} sector names for {d} sectors")
        if len(self.impacts) != R.shape[0]:
            raise DimensionMismatch(f"{len(self.impacts)} impact names for {R.shape[0]} rows")
        for name, arr in (("A", A), ("R", R), ("y", y)):
            if np.any(arr < 0):
                idx = tuple(int(i) for i in np.argwhere(arr < 0)[0])
                raise NegativeEntry(f"{name}{idx} = {arr[idx]} is negative")
        for name, arr in (("A", A), ("R", R), ("y", y)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "sectors", tuple(self.sectors))
        object.__setattr__(self, "impacts", tuple(self.impacts))

    @property
    def d(self) -> int:
        return self.A.shape[0]

    def impact_row(self, name: str) -> Array:
        return self.R[self.impacts.index(name)]


def hawkins_simon_check(A) -> bool:
    """All leading principal minors of I - A positive (nonnegative equilibrium exists).

    A must be nonnegative (NegativeEntry otherwise), so I - A is a Z-matrix, and a
    Z-matrix has positive leading minors exactly when it is a nonsingular M-matrix:
    when (I - A) x = 1 has a solution and it is nonnegative. One LAPACK solve decides.
    """
    A = np.asarray(A, dtype=np.float64)
    if (A < 0.0).any():
        idx = tuple(int(i) for i in np.argwhere(A < 0.0)[0])
        raise NegativeEntry(f"A{idx} = {A[idx]} is negative")
    try:
        x = np.linalg.solve(np.eye(len(A)) - A, np.ones(len(A)))
    except np.linalg.LinAlgError:
        return False
    return bool((x >= 0.0).all())


def leontief_closed_form(A, y) -> Array:
    """x* = (I - A)^{-1} y by dense solve; the oracle for all demand-driven tests."""
    A = np.asarray(A, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if A.shape[0] != A.shape[1] or y.shape != (A.shape[0],):
        raise DimensionMismatch(f"A {A.shape} and y {y.shape} are inconsistent")
    try:
        return np.linalg.solve(np.eye(A.shape[0]) - A, y)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("I - A is singular") from exc


def impacts(R, x) -> Array:
    """s = R x."""
    R = np.asarray(R, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if R.ndim != 2 or R.shape[1] != x.shape[0]:
        raise DimensionMismatch(f"R {R.shape} against x of length {x.shape[0]}")
    return R @ x


def leontief_model(table: IoTable, free_a_entries=()) -> SscmSpec:
    """Demand-driven spec x_k := sum_j A_kj x_j + y_k with y (and optionally
    selected off-diagonal A entries) as free parameters.

    Diagonal entries are eliminated algebraically: the assignment for x_k is
    (sum_{j != k} A_kj x_j + y_k) / (1 - A_kk), which has the same fixed point.
    Node k's theta slice is y_k, then the entries freed in row k in the order given.
    The stacked program is built from the arrays, and the per-node graphs only when read.
    """
    A, y = table.A, table.y
    d = table.d
    if not hawkins_simon_check(A):
        warnings.warn("table fails the Hawkins-Simon check; forward iteration may diverge",
                      stacklevel=2)
    free_a_entries = tuple((int(i), int(j)) for i, j in free_a_entries)
    for i, j in free_a_entries:
        if i == j:
            raise DimensionMismatch("diagonal A entries cannot be freed")
        if not (0 <= i < d and 0 <= j < d):
            raise DimensionMismatch(f"free entry ({i}, {j}) out of range")
    scales = np.where(np.diagonal(A) != 0.0, 1.0 / (1.0 - np.diagonal(A)), 1.0)
    coefs = A * scales[:, None]  # the parent coefficients, but 0 for the freed entries
    linked = A != 0.0  # the parents: nonzero off-diagonal entries and the freed ones
    np.fill_diagonal(linked, False)
    for i, j in free_a_entries:
        linked[i, j], coefs[i, j] = True, 0.0
    flat = np.flatnonzero(linked)  # every row's parents, row after row
    bounds = np.searchsorted(flat, np.arange(d + 1) * d)
    coefs = coefs.ravel()[flat]

    free = np.array(free_a_entries, dtype=np.intp).reshape(-1, 2)
    free = free[np.argsort(free[:, 0], kind="stable")]
    n_theta = 1 + np.bincount(free[:, 0], minlength=d)
    starts = np.cumsum(n_theta) - n_theta  # of each theta slice, at its y_k
    rank = np.arange(len(free)) - np.searchsorted(free[:, 0], free[:, 0])  # of each entry in its row
    free_at = starts[free[:, 0]] + 1 + rank
    theta, box = np.empty(d + len(free)), np.zeros((d + len(free), 2))
    theta[starts], theta[free_at] = y, A[free[:, 0], free[:, 1]]
    box[starts, 1], box[free_at, 1] = 2.0 * np.maximum(y, 1.0), np.maximum(2.0 * theta[free_at], 1.0)

    cols, at = (flat % d).tolist(), bounds.tolist()  # ints already, so SscmSpec keeps them
    spec = SscmSpec(table.sectors, _Parents(tuple(cols[a:b]) for a, b in zip(at, at[1:])),
                    partial(_leontief_graphs, flat % d, coefs, bounds, scales, free_a_entries),
                    theta, box, tuple(zip(starts.tolist(), (starts + n_theta).tolist())))
    return with_program(spec, *_leontief_program(flat, coefs, bounds, scales, n_theta, free, rank, free_at))


def _leontief_graphs(cols, coefs, bounds, scales, free_a_entries) -> list[ExprGraph]:
    """leontief_model's per-node graphs."""
    graphs = []
    for k in range(len(scales)):
        free_cols = [j for i, j in free_a_entries if i == k]
        pa, row = cols[bounds[k]:bounds[k + 1]], coefs[bounds[k]:bounds[k + 1]]
        b = ExprBuilder()
        t = b.input("theta", 1 + len(free_cols))
        expr = b.slice(t, 0, 1) * b.const([scales[k]])
        if len(pa):
            p = b.input("parents", len(pa))
            if row.any():
                expr = expr + b.dot(b.const(row), p)
            for fi, j in enumerate(free_cols):
                pos = int(np.searchsorted(pa, j))
                expr = expr + b.slice(t, 1 + fi, 2 + fi) * b.const([scales[k]]) * b.gather(p, [pos])
        graphs.append(b.build(expr))
    return graphs


def _leontief_program(flat, coefs, bounds, scales, n_theta, free, rank, free_at):
    """leontief_model's stacked program and cells, built from its arrays: f_k is
    theta_k scale_k, plus the segment dot of row k's coefficients and gathered parents
    (unless all are 0), plus theta_f scale_k x_j for each entry (k, j) freed in row k in
    turn. These are the per-node graphs' ops in their order, so the fused steps compute
    what those graphs stacked compute, bit for bit. A term that some rows take is added
    to those rows and merged back by copies, which the fused program resolves."""
    d, p, nnz = len(scales), int(n_theta.sum()), len(flat)
    nodes, dims = [], []

    def node(op, dim, *args, payload=None):
        nodes.append(GraphNode(op, args, payload))
        dims.append(int(dim))
        return len(nodes) - 1

    x, t = node("input", d, payload=("x", d)), node("input", p, payload=("theta", p))
    # the theta leaf is a copy of theta, so the copies that read it pass their adjoints to it
    # in a reverse step of their own, not in the parents gather's
    theta = node("slice", p, t, payload=(0, p))
    out = node("mul", d, node("gather", d, theta, payload=np.cumsum(n_theta) - n_theta),
               node("const", d, payload=scales))
    parents = node("gather", nnz, x, payload=flat % d) if nnz else None
    summed = np.bincount(flat[coefs != 0.0] // d, minlength=d) > 0
    if summed.any():
        at = np.flatnonzero(summed[flat // d])
        read = parents if len(at) == nnz else node("gather", len(at), parents, payload=at)
        lengths = tuple(np.diff(bounds)[summed].tolist())
        dotted = node("segdot", len(lengths), node("const", len(at), payload=coefs[at]), read, payload=lengths)
        out = merge_rows(node, d, out, np.flatnonzero(summed), "add", dotted)
    for r in range(rank.max() + 1 if len(rank) else 0):
        k, j = free[rank == r].T
        coef = node("mul", len(k), node("gather", len(k), theta, payload=free_at[rank == r]),
                    node("const", len(k), payload=scales[k]))
        picked = node("gather", len(k), parents, payload=np.searchsorted(flat, k * d + j))
        out = merge_rows(node, d, out, k, "add", node("mul", len(k), coef, picked))

    graph = ExprGraph(tuple(nodes), out, {"x": (x, d), "theta": (t, p)}, tuple(dims))
    cells = (("x", d, (parents,) if nnz else (), flat),
             ("theta", p, (theta,), np.repeat(np.arange(d), n_theta) * p + np.arange(p)),
             ("u", 0, (), np.zeros(0, dtype=np.intp)))
    return graph, cells


# --- motivating 3-node example ---

MOTIVATING_BOX = {
    "tau": (0.5, 1.5), "alpha": (0.2, 0.8), "beta": (0.1, 0.5), "gamma": (0.1, 0.7),
}


def motivating_example(tau=1.0, alpha=0.5, beta=0.3, gamma=0.4,
                       free=("tau", "alpha", "beta", "gamma")) -> SscmSpec:
    """x := tau; y := alpha x + beta z; z := gamma y.

    Parameters listed in `free` become components of theta (in node order);
    the rest are baked as constants. Interventions u_y, u_z arise by applying
    multiplicative group elements to nodes y and z.
    """
    if abs(1.0 - beta * gamma) < 1e-12:
        raise SingularParameterization("beta * gamma = 1 is not solvable")
    values = {"tau": tau, "alpha": alpha, "beta": beta, "gamma": gamma}
    free = tuple(free)

    theta, box = [], []

    def theta_or_const(b, name, cursor_slot):
        if name in free:
            theta.append(values[name])
            box.append(MOTIVATING_BOX[name])
            return b.slice(cursor_slot["ref"], cursor_slot["n"], cursor_slot["n"] + 1), True
        return b.const([values[name]]), False

    graphs, slices = [], []
    cursor = 0

    # node x
    b = ExprBuilder()
    n_free = 1 if "tau" in free else 0
    slot = {"ref": b.input("theta", n_free) if n_free else None, "n": 0}
    expr, _ = theta_or_const(b, "tau", slot)
    graphs.append(b.build(expr))
    slices.append((cursor, cursor + n_free))
    cursor += n_free

    # node y
    b = ExprBuilder()
    p = b.input("parents", 2)  # (x, z)
    n_free = ("alpha" in free) + ("beta" in free)
    slot = {"ref": b.input("theta", n_free) if n_free else None, "n": 0}
    a_ref, used = theta_or_const(b, "alpha", slot)
    slot["n"] += used
    b_ref, _ = theta_or_const(b, "beta", slot)
    expr = a_ref * b.gather(p, [0]) + b_ref * b.gather(p, [1])
    graphs.append(b.build(expr))
    slices.append((cursor, cursor + n_free))
    cursor += n_free

    # node z
    b = ExprBuilder()
    p = b.input("parents", 1)  # (y,)
    n_free = 1 if "gamma" in free else 0
    slot = {"ref": b.input("theta", n_free) if n_free else None, "n": 0}
    g_ref, _ = theta_or_const(b, "gamma", slot)
    graphs.append(b.build(g_ref * p))
    slices.append((cursor, cursor + n_free))
    cursor += n_free

    x_ref = motivating_closed_form(tau, alpha, beta, gamma)
    return SscmSpec(("x", "y", "z"), ((), (0, 2), (1,)), tuple(graphs),
                    np.array(theta), np.array(box, dtype=np.float64).reshape(-1, 2),
                    tuple(slices), x_ref=x_ref)


def motivating_closed_form(tau, alpha, beta, gamma, u_y=1.0, u_z=1.0) -> Array:
    """Closed-form (possibly intervened) equilibrium of the 3-node example."""
    denom = 1.0 - u_y * u_z * beta * gamma
    if abs(denom) < 1e-12:
        raise SingularParameterization("u_y * u_z * beta * gamma = 1 is not solvable")
    y = u_y * alpha * tau / denom
    return np.array([tau, y, u_z * gamma * y])


# --- price-rebound model ---

@dataclass(frozen=True)
class DemandCurve:
    """Constant-elasticity final demand y_i = y0_i * (p_i / p0_i)^(-eps_i).

    Prices below floor_ratio * p0 are clamped before the curve is applied;
    the floor is a numerical guard for the zero-initialized transient and
    stays inactive in the operating region.
    """

    y0: tuple
    p0: tuple
    elasticity: tuple
    floor_ratio: float = 0.2

    def __post_init__(self):
        y0 = np.asarray(self.y0, dtype=np.float64)
        p0 = np.asarray(self.p0, dtype=np.float64)
        eps = np.asarray(self.elasticity, dtype=np.float64)
        if not (y0.shape == p0.shape == eps.shape):
            raise DimensionMismatch("demand curve fields must share one length")
        if np.any(y0 < 0) or np.any(eps < 0):
            raise NegativeEntry("base demand and elasticity must be nonnegative")
        if np.any(p0 <= 0):
            raise DimensionMismatch("base prices must be strictly positive")
        object.__setattr__(self, "y0", tuple(float(v) for v in y0))
        object.__setattr__(self, "p0", tuple(float(v) for v in p0))
        object.__setattr__(self, "elasticity", tuple(float(v) for v in eps))

    def __call__(self, p) -> Array:
        p = np.asarray(p, dtype=np.float64)
        y0 = np.asarray(self.y0)
        p0 = np.asarray(self.p0)
        eps = np.asarray(self.elasticity)
        clamped = np.maximum(p, self.floor_ratio * p0)
        return y0 * (clamped / p0) ** (-eps)


def price_rebound_model(table: IoTable, energy_sector: int, energy_price: float,
                        curves: DemandCurve, efficiency_slot: tuple[int, int],
                        price_box=(0.7, 1.3)) -> SscmSpec:
    """Stacked model over (x, p, y): activity x := A x + y, unit prices
    p := A^T p + beta_e * delta_e, and final demand y_i := d_i(p_i).

    The multiplicative efficiency intervention scales the energy coefficient
    A[e, j_target] wherever it appears (activity of the energy sector and the
    target sector's price), through the model's single intervention slot. The
    energy price beta_e is the free parameter.
    """
    A = table.A
    d = table.d
    e = int(energy_sector)
    e_src, j_target = (int(v) for v in efficiency_slot)
    if energy_price <= 0.0:
        raise DimensionMismatch("the model requires a strictly positive energy price")
    if e_src != e:
        raise TopologyViolation("efficiency intervention must scale an energy-row coefficient")
    if j_target == e:
        raise TopologyViolation("efficiency target must differ from the energy sector")
    if A[e, j_target] == 0.0:
        raise TopologyViolation(f"A[{e}, {j_target}] is zero; nothing to intervene on")
    if len(curves.y0) != d:
        raise DimensionMismatch("demand curves must cover every sector")

    names = (tuple(f"x_{s}" for s in table.sectors)
             + tuple(f"p_{s}" for s in table.sectors)
             + tuple(f"y_{s}" for s in table.sectors))
    graphs: list[ExprGraph] = []
    parents: list[tuple[int, ...]] = []
    slices: list[tuple[int, int]] = []

    # activity block: x_i := (sum_{j != i} A_ij x_j + y_i) / (1 - A_ii)
    for i in range(d):
        scale = 1.0 / (1.0 - A[i, i])
        cols = tuple(j for j in range(d) if j != i and A[i, j] != 0.0)
        pa = cols + (2 * d + i,)
        b = ExprBuilder()
        p_in = b.input("parents", len(pa))
        y_term = b.gather(p_in, [len(cols)]) * b.const([scale])
        expr = y_term
        if cols:
            coefs = np.array([A[i, j] * scale for j in cols])
            if i == e:
                pos = cols.index(j_target)
                coefs = coefs.copy()
                base = coefs[pos]
                coefs[pos] = 0.0
                u_in = b.input("u", 1)
                expr = expr + b.const([base]) * u_in * b.gather(p_in, [pos])
            if np.any(coefs != 0.0):
                expr = expr + b.dot(b.const(coefs), b.slice(p_in, 0, len(cols)))
        graphs.append(b.build(expr))
        parents.append(pa)
        slices.append((0, 0))

    # price block: p_i := (sum_{j != i} A_ji p_j + beta_e [i == e]) / (1 - A_ii)
    for i in range(d):
        scale = 1.0 / (1.0 - A[i, i])
        rows = tuple(j for j in range(d) if j != i and A[j, i] != 0.0)
        pa = tuple(d + j for j in rows)
        b = ExprBuilder()
        terms = []
        if rows:
            p_in = b.input("parents", len(rows))
            coefs = np.array([A[j, i] * scale for j in rows])
            if i == j_target:
                pos = rows.index(e)
                coefs = coefs.copy()
                base = coefs[pos]
                coefs[pos] = 0.0
                u_in = b.input("u", 1)
                terms.append(b.const([base]) * u_in * b.gather(p_in, [pos]))
            if np.any(coefs != 0.0):
                terms.append(b.dot(b.const(coefs), p_in))
        if i == e:
            t_in = b.input("theta", 1)
            terms.append(t_in * b.const([scale]))
            slices.append((0, 1))
        else:
            slices.append((1, 1))
        expr = terms[0]
        for term in terms[1:]:
            expr = expr + term
        graphs.append(b.build(expr))
        parents.append(pa)

    # demand block: y_i := y0_i * (max(p_i, floor) / p0_i)^(-eps_i)
    y0 = np.asarray(curves.y0)
    p0 = np.asarray(curves.p0)
    eps = np.asarray(curves.elasticity)
    for i in range(d):
        b = ExprBuilder()
        if eps[i] == 0.0:
            graphs.append(b.build(b.const([y0[i]])))
            parents.append(())
        else:
            p_in = b.input("parents", 1)
            floor = curves.floor_ratio * p0[i]
            clamped = b.relu(p_in - b.const([floor])) + b.const([floor])
            ratio = clamped * b.const([1.0 / p0[i]])
            graphs.append(b.build(b.const([y0[i]]) * b.powc(ratio, -eps[i])))
            parents.append((d + i,))
        slices.append((1, 1))

    lo, hi = price_box
    return SscmSpec(names, tuple(parents), tuple(graphs),
                    theta_ref=np.array([energy_price]),
                    theta_box=np.array([[lo * energy_price, hi * energy_price]]),
                    theta_slices=tuple(slices),
                    u_dim=1, u_ref=np.array([1.0]))


def reference_prices(A, energy_sector: int, energy_price: float, efficiency: float = 1.0,
                     efficiency_slot: tuple[int, int] | None = None) -> Array:
    """Closed-form unit prices p = (I - A(u)^T)^{-1} beta_e delta_e."""
    A = np.asarray(A, dtype=np.float64).copy()
    if efficiency_slot is not None:
        ei, j = efficiency_slot
        A[ei, j] *= efficiency
    d = A.shape[0]
    rhs = np.zeros(d)
    rhs[energy_sector] = energy_price
    return np.linalg.solve(np.eye(d) - A.T, rhs)


def total_energy_demand(A, energy_sector: int, x, efficiency: float = 1.0,
                        efficiency_slot: tuple[int, int] | None = None) -> float:
    """Intermediate energy demand delta_e^T A(u) x under the efficiency value."""
    A = np.asarray(A, dtype=np.float64).copy()
    if efficiency_slot is not None:
        ei, j = efficiency_slot
        A[ei, j] *= efficiency
    return float(A[energy_sector] @ np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class ReboundInstance:
    """Frozen 3-sector instance for the rebound-control experiments."""

    spec: SscmSpec
    table: IoTable
    curves: DemandCurve
    energy_sector: int
    target_sector: int
    efficiency_slot: tuple[int, int]
    energy_price: float
    invariant_node: int  # final demand of the target sector
    u_low: float
    u_high: float

    @property
    def price_node(self) -> int:
        return self.table.d + self.target_sector

    def policy_mlp(self, hidden=(20, 10), seed: int = 0) -> MlpSpec:
        """Tuned policy net over (target price, efficiency), standardized inputs."""
        return MlpSpec(input_dim=2, hidden=hidden, seed=seed,
                       input_shift=(0.5, 0.75), input_scale=(4.0, 5.0))

    def plan(self, policy: ExprGraph, policy_dim: int) -> InvariantInterventionSpec:
        return InvariantInterventionSpec(
            intervened=self.energy_sector, invariant=self.invariant_node,
            auxiliary=self.invariant_node, policy=policy, policy_dim=policy_dim,
            builtin_u=True)


REBOUND_A = np.array([
    [0.00, 0.50, 0.20],
    [0.10, 0.00, 0.15],
    [0.10, 0.20, 0.00],
])
REBOUND_Y0 = np.array([0.2, 1.0, 0.8])
REBOUND_SECTORS = ("energy", "target", "other")


def rebound_3sector(target_elasticity: float = 1.5, u_low: float = 0.5,
                    u_high: float = 1.0) -> ReboundInstance:
    """The frozen 3-sector rebound testbed: energy, efficiency target, other.

    Only the target sector's demand is elastic; the energy price is the free
    parameter. Base prices are the unintervened closed-form prices, so demand
    at the reference point equals the base demand exactly.
    """
    energy, target = 0, 1
    beta_e = 1.0
    p0 = reference_prices(REBOUND_A, energy, beta_e)
    curves = DemandCurve(
        y0=tuple(REBOUND_Y0),
        p0=tuple(p0),
        elasticity=(0.0, float(target_elasticity), 0.0),
    )
    table = IoTable(
        A=REBOUND_A,
        R=REBOUND_A[energy:energy + 1],  # direct energy intensity per sector
        y=REBOUND_Y0,
        sectors=REBOUND_SECTORS,
        impacts=("energy_input",),
    )
    spec = price_rebound_model(table, energy, beta_e, curves, (energy, target))
    return ReboundInstance(
        spec=spec, table=table, curves=curves, energy_sector=energy,
        target_sector=target, efficiency_slot=(energy, target), energy_price=beta_e,
        invariant_node=2 * table.d + target, u_low=u_low, u_high=u_high)


# --- two-compartment model ---

@dataclass(frozen=True)
class TwoCompartmentInstance:
    spec: SscmSpec
    plan: CompartmentPlan
    w0: Array  # stacked initial MLP weights, in plan order
    mlps: tuple[MlpSpec, ...]  # the plans' policy nets, in plan order
    u_low: float
    u_high: float


TWO_COMPARTMENT_EDGES = {
    # child: ((parent, weight), ...)
    0: ((2, 0.5), (4, 0.3)),
    1: ((0, 0.6),),
    2: ((1, 0.5),),
    3: ((5, 0.5), (1, 0.3)),
    4: ((3, 0.6),),
    5: ((4, 0.5),),
}
TWO_COMPARTMENT_INTERCEPTS = (0.5, 0.4, None, 0.4, 0.3, 0.5)  # None: free theta
TWO_COMPARTMENT_FREE_NODE = 2


def two_compartment_model(u_low: float = 0.8, u_high: float = 1.25,
                          mlp_hidden: tuple[int, int] = (20, 10)) -> TwoCompartmentInstance:
    """Two affine 3-node blocks with a single bridging edge out of each block,
    both originating at that block's invariant node (1 and 4).

    Interventions u and v multiplicatively wrap nodes 0 and 3; MLP policies on
    the invariant nodes are trained elsewhere to enforce invariance.
    """
    d = 6
    names = tuple(f"n{k}" for k in range(d))
    graphs, parents, slices = [], [], []
    cursor = 0
    for k in range(d):
        edges = TWO_COMPARTMENT_EDGES[k]
        pa = tuple(parent for parent, _ in edges)
        weights = np.array([w for _, w in edges])
        b = ExprBuilder()
        p = b.input("parents", len(pa))
        expr = b.dot(b.const(weights), p)
        if TWO_COMPARTMENT_INTERCEPTS[k] is None:
            t = b.input("theta", 1)
            expr = expr + t
            slices.append((cursor, cursor + 1))
            cursor += 1
        else:
            expr = expr + b.const([TWO_COMPARTMENT_INTERCEPTS[k]])
            slices.append((cursor, cursor))
        graphs.append(b.build(expr))
        parents.append(pa)

    spec = SscmSpec(names, tuple(parents), tuple(graphs),
                    theta_ref=np.array([0.6]), theta_box=np.array([[0.4, 0.8]]),
                    theta_slices=tuple(slices))

    compartments = ((0, 1, 2), (3, 4, 5))
    standardization = (((1.5, 1.0), (3.3, 4.5)), ((1.33, 1.0), (3.3, 4.5)))
    plan_list: list[InvariantInterventionSpec] = []
    mlps, w0_chunks = [], []
    for ci, (intervened, invariant) in enumerate(((0, 1), (3, 4))):
        n_pa = len(spec.parents[invariant])
        shift, scale = standardization[ci]
        mlp = MlpSpec(input_dim=n_pa + 1, hidden=mlp_hidden, seed=100 + ci,
                      input_shift=shift, input_scale=scale)
        policy, w0 = optimize.build_mlp_policy(mlp, n_pa, 1)
        plan_list.append(InvariantInterventionSpec(
            intervened=intervened, invariant=invariant, auxiliary=invariant,
            policy=policy, policy_dim=mlp.n_weights))
        mlps.append(mlp)
        w0_chunks.append(w0)
    plan = CompartmentPlan(compartments, tuple(plan_list))
    return TwoCompartmentInstance(spec, plan, np.concatenate(w0_chunks), tuple(mlps), u_low, u_high)


# --- seeded synthetic tables ---

def leontief_synthetic(n: int, seed: int = 2024, spectral_radius: float = 0.3,
                       density: float = 0.35) -> IoTable:
    """Seeded nonnegative table with GHG and employment intensity rows.

    Coupling is sparse and weak so own-sector effects dominate, and the
    intensities span orders of magnitude: sectors then trade off at distinct
    regularization strengths and the frontier has interior points.
    """
    if n < 2:
        raise DimensionMismatch("need at least two sectors")
    rng = np.random.default_rng(seed + 7919 * n)
    A = rng.uniform(0.0, 1.0, size=(n, n))
    A *= rng.random(size=(n, n)) < density
    np.fill_diagonal(A, 0.0)
    radius = max(abs(np.linalg.eigvals(A)))
    if radius > 0:
        A *= spectral_radius / radius
    y = rng.uniform(0.5, 1.5, size=n)
    ghg = np.exp(rng.uniform(np.log(0.05), np.log(1.0), size=n))
    employment = np.exp(rng.uniform(np.log(0.05), np.log(1.0), size=n))
    return IoTable(A=A, R=np.stack([ghg, employment]), y=y,
                   sectors=tuple(f"sector_{k}" for k in range(n)),
                   impacts=("ghg", "employment"))


_PERRON_STEPS = 100  # the worst of 20,000 seeds at d = 2, 3, 4 takes 43
_PERRON_TOL = 4.0 * np.finfo(np.float64).eps


def _perron_roots(A: Array) -> Array:
    """Spectral radius of each nonnegative A[i] of an (S, d, d) stack with a positive
    off-diagonal, from the Collatz-Wielandt bounds min(Av / v) <= rho <= max(Av / v) on
    positive vectors v.

    v is iterated by A(A + lo I), where lo is the best lower bound so far; since it
    commutes with A, each step tightens both bounds. The factor A damps the small
    eigenvalues as plain power iteration does, and A + lo I the ones near -rho,
    which leave a nearly periodic A (and the periodic 2 x 2 one) slow or stuck under
    powers of A alone. The bounds are read off A itself, at v and at Av, so no shift
    limits their precision. A row stops when its bounds are 4 eps apart, when a step
    no longer tightens them (rounding), or after _PERRON_STEPS steps, and its root is
    their midpoint then. The rows step as one batch until the last one stops; a root
    is read at its own row's stop, so it is the one that row's own iteration gives.
    """
    rows, dim = A.shape[:2]
    v = np.ones((rows, dim))
    lo, hi = np.zeros(rows), np.full(rows, np.inf)
    ratios = np.empty((rows, 2, dim))  # Av / v and A^2 v / Av
    roots = np.empty(rows)
    live = np.ones(rows, dtype=bool)
    for _ in range(_PERRON_STEPS):
        w = np.matvec(A, v)
        u = np.matvec(A, w)
        np.divide(w, v, out=ratios[:, 0])
        np.divide(u, w, out=ratios[:, 1])
        gap = hi - lo
        lo = np.maximum(lo, np.maximum.reduce(np.minimum.reduce(ratios, axis=2), axis=1))
        hi = np.minimum(hi, np.minimum.reduce(np.maximum.reduce(ratios, axis=2), axis=1))
        np.copyto(roots, 0.5 * (lo + hi), where=live)  # a stopped row keeps its root at its stop
        spread = hi - lo
        live &= (spread > _PERRON_TOL * hi) & (spread < gap)
        if not np.logical_or.reduce(live):
            break
        v = u + lo[:, None] * w
        v /= np.maximum.reduce(v, axis=1, keepdims=True)
    return roots


def random_contractions(dim: int, seeds, spectral_radius: float) -> tuple[Array, Array]:
    """Seeded affine contractions x -> A[i] x + y[i], one per seed, as an (S, d, d) and
    an (S, d) stack: each A[i] nonnegative with zero diagonal and a positive
    off-diagonal, scaled to the given spectral radius by its Perron root, and y[i] in
    [0.5, 1.5]. Each seed draws its A and then its y from its own generator
    (default_rng([seed, dim])), straight into the stacks. The Perron roots of the whole
    stack come from one batched Collatz-Wielandt iteration (_perron_roots, not an
    eigendecomposition) in which each row stops at its own step, so a row is the same
    bit for bit in any stack. A 1 x 1 A is zero and cannot be scaled, so dim must be at
    least 2."""
    if dim < 2:
        raise DimensionMismatch(f"a random contraction needs dim >= 2, got {dim}")
    A = np.empty((len(seeds), dim, dim))
    y = np.empty((len(seeds), dim))
    for a, b, seed in zip(A, y, seeds):
        rng = np.random.default_rng([seed, dim])
        rng.random(out=a)  # the bits of uniform(0, 1)
        rng.random(out=b)
    y += 0.5  # the bits of uniform(0.5, 1.5)
    A.reshape(len(A), -1)[:, ::dim + 1] = 0.0
    A *= (spectral_radius / _perron_roots(A))[:, None, None]
    return A, y


def random_contraction(dim: int, seed: int, spectral_radius: float) -> tuple[Array, Array]:
    """The one-seed case of random_contractions: A (d, d) and y (d,)."""
    A, y = random_contractions(dim, [seed], spectral_radius)
    return A[0], y[0]
