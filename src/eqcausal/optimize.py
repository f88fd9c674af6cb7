"""Optimization: Adam, MLP policies, losses, and descent through equilibria.

Intervention design and invariant-policy training are one descent,
`_descend`: Adam on a closure that solves the equilibria at the current
parameters and returns the loss and its implicit gradient, with one recovery
policy for solver failures (retry at half the step size, then abort).

Multiplicative intervention values are optimized in log space, which keeps
them strictly positive without projections; box bounds are enforced by
clamping the unconstrained coordinates. Losses are closed-form numpy and
expose value(x) and grad(x); the emission/employment loss reports the true
L1 regularizer but differentiates a smoothed surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import deq, diffcore, interventions
from .diffcore import ExprBuilder, ExprGraph
from .errors import (DomainError, EqcausalError, NonFiniteGradient, NonFiniteIterate, NotConverged,
                     PolicyArityMismatch, ShapeMismatch, SingularAdjoint,
                     SolveFailedDuringOptimization)
from .fixedpoint import SolveReport, SolverConfig, require_integers
from .interventions import InvariantTwin, LieElement
from .sscm import EquilibriumSolution, SscmSpec, solve_equilibrium

Array = np.ndarray


# --- Adam ---

@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    iterations: int = 10000
    seed: int = 0
    early_stop: bool = True
    plateau_window: int = 200
    plateau_rtol: float = 1e-9

    def __post_init__(self):  # every check fails on NaN
        require_integers(self, "iterations", "plateau_window", "seed")
        if not (self.learning_rate > 0 and self.eps > 0):
            raise ValueError("learning_rate and eps must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not (self.iterations >= 1 and self.plateau_window >= 1 and self.seed >= 0
                and self.plateau_rtol >= 0):
            raise ValueError("iterations and plateau_window must be >= 1, seed and plateau_rtol >= 0")


@dataclass
class AdamState:
    params: Array
    m: Array
    v: Array
    t: int = 0

    @classmethod
    def init(cls, params) -> "AdamState":
        p = np.asarray(params, dtype=np.float64).copy()
        return cls(p, np.zeros_like(p), np.zeros_like(p), 0)


def adam_step(state: AdamState, grads, cfg: AdamConfig, lr_scale: float = 1.0) -> AdamState:
    """One bias-corrected Adam update; pure in (state, grads)."""
    g = np.asarray(grads, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradient("gradient contains NaN or Inf")
    if g.shape != state.params.shape:
        raise ShapeMismatch(f"gradient shape {g.shape} != parameter shape {state.params.shape}")
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    params = state.params - cfg.learning_rate * lr_scale * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return AdamState(params, m, v, t)


def _plateaued(losses: list[float], cfg: AdamConfig) -> bool:
    w = cfg.plateau_window
    if not cfg.early_stop or len(losses) < 2 * w:
        return False
    recent = losses[-w:]
    past = losses[-2 * w:-w]
    change = abs(np.mean(past) - np.mean(recent))
    return change <= cfg.plateau_rtol * (abs(np.mean(past)) + 1e-30)


# failures of one evaluation that a retry at half the step size may avoid
_RECOVERABLE = (NonFiniteIterate, NotConverged, DomainError, SingularAdjoint)
_MAX_FAILURES = 5


@dataclass
class _Descent:
    params: Array  # the current parameters when the descent ended
    losses: list[float]  # one per successful evaluation
    failures: list[int]  # steps whose evaluation failed
    aborted: bool
    early_stopped: bool


def _descend(evaluate, p0, adam: AdamConfig, bounds=None) -> _Descent:
    """Adam on evaluate(params) -> (loss, grad), clamped to the optional (lo, hi) box.

    Every evaluation, failed or not, uses one of adam.iterations steps. A
    recoverable failure restores the previous parameters and halves the step
    size; more than _MAX_FAILURES failures abort. A failure before any
    evaluation has succeeded raises SolveFailedDuringOptimization.
    """
    state = AdamState.init(p0)
    if bounds is not None:
        state.params = np.clip(state.params, *bounds)
    losses: list[float] = []
    failures: list[int] = []
    lr_scale = 1.0
    prev_state = None

    for step in range(adam.iterations):
        try:
            loss, grad = evaluate(state.params)
        except _RECOVERABLE as exc:
            failures.append(step)
            if prev_state is None:
                raise SolveFailedDuringOptimization(
                    f"equilibrium solve failed at step {step} with no recoverable state") from exc
            if len(failures) > _MAX_FAILURES:
                return _Descent(state.params, losses, failures, True, False)
            state = prev_state
            lr_scale *= 0.5
            continue
        losses.append(loss)
        if _plateaued(losses, adam):
            return _Descent(state.params, losses, failures, False, True)
        prev_state = state
        state = adam_step(state, grad, adam, lr_scale)
        if bounds is not None:
            state.params = np.clip(state.params, *bounds)
    return _Descent(state.params, losses, failures, False, False)


# --- MLP policies ---

@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    hidden: tuple[int, ...] = (20, 10)
    output_dim: int = 1
    seed: int = 0
    # fixed standardization applied before the first layer: z = (x - shift) * scale
    input_shift: tuple | None = None
    input_scale: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.input_dim < 1 or self.output_dim < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("layer sizes must be positive")
        for name in ("input_shift", "input_scale"):
            val = getattr(self, name)
            if val is not None:
                val = tuple(float(v) for v in np.asarray(val).reshape(-1))
                if len(val) != self.input_dim:
                    raise ShapeMismatch(f"{name} must have length {self.input_dim}")
                object.__setattr__(self, name, val)

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.output_dim)

    @property
    def n_weights(self) -> int:
        return sum((a + 1) * b for a, b in zip(self.sizes, self.sizes[1:]))


def init_mlp_weights(mlp: MlpSpec) -> Array:
    """Fan-in-scaled uniform weights, biases at 0.1; deterministic given the seed."""
    rng = np.random.default_rng(mlp.seed)
    chunks = []
    for n_in, n_out in zip(mlp.sizes, mlp.sizes[1:]):
        chunks.append(rng.uniform(-1.0, 1.0, size=n_in * n_out) * np.sqrt(1.0 / n_in))
        chunks.append(np.full(n_out, 0.1))
    return np.concatenate(chunks)


def _mlp_stack(b: ExprBuilder, mlp: MlpSpec, x, w):
    """ReLU perceptron stack reading row-major weights and biases from w: one matmul per layer."""
    offset = 0
    h = x
    for n_in, n_out in zip(mlp.sizes, mlp.sizes[1:]):
        z = b.matmul(w, h, n_out, offset)
        offset += n_out * n_in
        bias = b.slice(w, offset, offset + n_out)
        offset += n_out
        h = b.relu(z + bias)
    return h


def _standardize(b: ExprBuilder, mlp: MlpSpec, x):
    if mlp.input_shift is not None:
        x = x - b.const(mlp.input_shift)
    if mlp.input_scale is not None:
        x = x * b.const(mlp.input_scale)
    return x


def build_mlp_graph(mlp: MlpSpec) -> ExprGraph:
    """MLP as a graph over slots "x" (inputs) and "policy" (weights)."""
    b = ExprBuilder()
    x = _standardize(b, mlp, b.input("x", mlp.input_dim))
    w = b.input("policy", mlp.n_weights)
    return b.build(_mlp_stack(b, mlp, x, w))


def mlp_forward(mlp: MlpSpec, weights, x) -> Array:
    return diffcore.forward_eval(build_mlp_graph(mlp), {"x": x, "policy": weights})


def mlp_weights_to_obj(mlp: MlpSpec, weights) -> dict:
    """Serializable view of trained weights: layer shapes plus row-major arrays."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (mlp.n_weights,):
        raise ShapeMismatch(f"expected {mlp.n_weights} weights, got {weights.shape}")
    layers = []
    offset = 0
    for n_in, n_out in zip(mlp.sizes, mlp.sizes[1:]):
        w = weights[offset:offset + n_in * n_out]
        offset += n_in * n_out
        b = weights[offset:offset + n_out]
        offset += n_out
        layers.append({"shape": [n_out, n_in], "weights": w.tolist(), "bias": b.tolist()})
    return {"input_dim": mlp.input_dim, "hidden": list(mlp.hidden),
            "output_dim": mlp.output_dim,
            "input_shift": None if mlp.input_shift is None else list(mlp.input_shift),
            "input_scale": None if mlp.input_scale is None else list(mlp.input_scale),
            "layers": layers}


def mlp_weights_from_obj(obj: dict) -> tuple[MlpSpec, Array]:
    """Inverse of mlp_weights_to_obj."""
    mlp = MlpSpec(input_dim=int(obj["input_dim"]), hidden=tuple(obj["hidden"]),
                  output_dim=int(obj["output_dim"]),
                  input_shift=obj.get("input_shift"), input_scale=obj.get("input_scale"))
    chunks = []
    for layer in obj["layers"]:
        chunks.append(np.asarray(layer["weights"], dtype=np.float64))
        chunks.append(np.asarray(layer["bias"], dtype=np.float64))
    weights = np.concatenate(chunks)
    if weights.shape != (mlp.n_weights,):
        raise ShapeMismatch("serialized layers do not match the declared sizes")
    return mlp, weights


def build_mlp_policy(mlp: MlpSpec, n_parents: int, u_dim: int) -> tuple[ExprGraph, Array]:
    """Auxiliary-node policy over (parents, u); returns the graph and initial weights."""
    if mlp.input_dim != n_parents + u_dim:
        raise PolicyArityMismatch(
            f"MLP input dim {mlp.input_dim} != parents {n_parents} + intervention dim {u_dim}")
    if mlp.output_dim != 1:
        raise PolicyArityMismatch("policy output must be scalar")
    b = ExprBuilder()
    pieces = []
    if n_parents:
        pieces.append(b.input("parents", n_parents))
    if u_dim:
        pieces.append(b.input("u", u_dim))
    x = _standardize(b, mlp, pieces[0] if len(pieces) == 1 else b.concat(*pieces))
    w = b.input("policy", mlp.n_weights)
    return b.build(_mlp_stack(b, mlp, x, w)), init_mlp_weights(mlp)


# --- losses ---

class GhgEmploymentLoss:
    """L(x) = c.x + lam * || r*x - e_star ||_1.

    value() reports the true L1 regularizer; grad() differentiates the
    smoothed surrogate sum(sqrt(delta^2 + eps) - sqrt(eps)).
    """

    def __init__(self, c, employment_row, e_star, lam: float, eps_smooth: float = 1e-8):
        self.c = np.asarray(c, dtype=np.float64)
        self.r = np.asarray(employment_row, dtype=np.float64)
        self.e_star = np.asarray(e_star, dtype=np.float64)
        self.lam = float(lam)
        self.eps_smooth = float(eps_smooth)
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        d = self.c.shape[0]
        if self.r.shape[0] != d or self.e_star.shape[0] != d:
            raise ShapeMismatch("loss row dimensions disagree")

    def components(self, x) -> tuple[float, float]:
        x = np.asarray(x, dtype=np.float64)
        return float(self.c @ x), float(np.abs(self.r * x - self.e_star).sum())

    def value(self, x) -> float:
        ghg, l1 = self.components(x)
        return ghg + self.lam * l1

    def surrogate(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        delta = self.r * x - self.e_star
        smooth = np.power(delta * delta + self.eps_smooth, 0.5) - np.sqrt(self.eps_smooth)
        return diffcore.dot_sum(self.c, x) + self.lam * diffcore.dot_sum(np.ones_like(smooth), smooth)

    def grad(self, x) -> Array:
        delta = self.r * np.asarray(x, dtype=np.float64) - self.e_star
        t = self.lam * 0.5 * np.power(delta * delta + self.eps_smooth, -0.5) * delta
        return (t + t) * self.r + self.c


# --- Lie intervention optimization ---

@dataclass
class OptimizationResult:
    """One descent; x_star is the equilibrium of the optimum, as solved during the descent."""
    trajectory: list  # (LieElement, loss) pairs
    aborted: bool
    failures: list[int]  # steps where the equilibrium or adjoint solve failed
    early_stopped: bool
    x_star: Array

    @property
    def optimum(self) -> LieElement:
        return self.trajectory[-1][0]

    @property
    def final_loss(self) -> float:
        return self.trajectory[-1][1]


def _wired(spec: SscmSpec, g0: LieElement) -> SscmSpec:
    """interventions.apply(spec, g0), built once per model, group and targets and kept on
    the model: a descent binds the intervention values itself, so one wired model serves
    every element."""
    key = (g0.group, g0.targets)
    if key not in spec._wired:
        spec._wired[key] = interventions.apply(spec, g0)
    return spec._wired[key]


def unintervened_equilibrium(spec: SscmSpec, group: str, targets, solver: SolverConfig) -> Array:
    """x* of spec at theta_ref, solved at the identity on the model that a descent over
    (group, targets) runs, so no second program is compiled: f(x) * 1.0 is f(x), and so is
    f(x) + 0.0 but for a -0.0. u is passed whole: a cached model keeps an earlier start."""
    g = interventions.identity(group, targets)
    u = np.concatenate([spec.u_ref, g.values])
    return solve_equilibrium(_wired(spec, g), spec.theta_ref, solver, u=u).x_star


def optimize_lie_intervention(spec: SscmSpec, g0: LieElement, loss, adam: AdamConfig,
                              solver: SolverConfig, bounds: tuple[float, float] | None = None,
                              theta=None) -> OptimizationResult:
    """Gradient-descend the intervention values against loss(x^(u)).

    Each step solves the intervened model's equilibrium at the current values,
    pulls the loss gradient back through the implicit function, and Adam-steps
    in log space (multiplicative group) or raw space (additive), clamped to the
    bounds. The intervened model is built once per model, group and targets,
    so repeated descents (a Pareto sweep) share it. Failures of the equilibrium
    or adjoint solve are handled by `_descend`; an abort keeps the partial
    trajectory.
    """
    wired = _wired(spec, g0)
    base_dim = spec.u_dim
    theta = spec.theta_ref if theta is None else np.asarray(theta, dtype=np.float64)
    mult = g0.group == "multiplicative"
    trajectory: list = []
    x_star = None

    def evaluate(w):
        nonlocal x_star
        vals = np.exp(w) if mult else w.copy()
        u = np.concatenate([wired.u_ref[:base_dim], vals])
        sol = solve_equilibrium(wired, theta, solver, u=u)
        value = loss.value(sol.x_star)
        g_tail = deq.implicit_vjp(wired, sol, loss.grad(sol.x_star)).grad_u[base_dim:]
        trajectory.append((LieElement(g0.group, g0.targets, vals), value))
        x_star = sol.x_star
        return value, (g_tail * vals if mult else g_tail)

    w0 = np.log(g0.values) if mult else g0.values
    w_bounds = None if bounds is None else tuple(np.log(bounds) if mult else bounds)
    res = _descend(evaluate, w0, adam, w_bounds)
    return OptimizationResult(trajectory, res.aborted, res.failures, res.early_stopped, x_star)


# --- sampling ---

@dataclass(frozen=True)
class SamplingConfig:
    """samples_per_step draws a step, theta from a Gaussian about theta_ref truncated to the box, with
    stddevs theta_stddev (default 0.05 |theta_ref| + 0.01); u's range is the model's, passed to training."""

    theta_stddev: tuple | None = None
    samples_per_step: int = 16

    def __post_init__(self):  # every check fails on NaN
        require_integers(self, "samples_per_step")
        if not self.samples_per_step >= 1:
            raise ValueError("samples_per_step must be >= 1")
        if self.theta_stddev is not None and not all(s >= 0 for s in self.theta_stddev):
            raise ValueError("theta_stddev entries must be nonnegative")


def draw_samples(twin: InvariantTwin, sampling: SamplingConfig, u_range, rng: np.random.Generator,
                 n: int) -> tuple[Array, Array]:
    """n rows of (theta, deployed u), drawn row by row from rng: theta from a Gaussian about
    theta_ref, redrawn until it lies in the box (after 1,000 tries one more draw is clipped
    to it), then each plan's u components in plan order, uniform in u_range = (low, high),
    0 < low <= high, for the additive group and log-uniform for the multiplicative one."""
    spec = twin.base
    std = (0.05 * np.abs(spec.theta_ref) + 0.01 if sampling.theta_stddev is None
           else np.asarray(sampling.theta_stddev, float))
    if std.shape != (spec.theta_dim,):
        raise ShapeMismatch(f"theta_stddev has shape {std.shape}, expected ({spec.theta_dim},)")
    low, high = u_range
    if not 0 < low <= high:  # fails on NaN
        raise ValueError(f"u range {tuple(u_range)} must satisfy 0 < low <= high")
    theta_ref, (lo, hi) = spec.theta_ref, spec.theta_box.T
    plans = [(*span, group == "multiplicative") for group, span in zip(twin.groups, twin.u_slices)]
    log_low, log_high = np.log(low), np.log(high)
    thetas, us = np.empty((n, spec.theta_dim)), np.tile(twin.deployed.u_ref, (n, 1))
    for theta, u in zip(thetas, us):
        for _ in range(1000):  # rejection into the box
            theta[:] = rng.normal(theta_ref, std)
            if (theta >= lo).all() and (theta <= hi).all():
                break
        else:
            theta[:] = np.clip(rng.normal(theta_ref, std), lo, hi)
        for start, stop, mult in plans:
            u[start:stop] = (np.exp(rng.uniform(log_low, log_high, size=stop - start)) if mult
                             else rng.uniform(low, high, size=stop - start))
    return thetas, us


# --- invariant-policy training ---

@dataclass
class TrainedPolicy:
    weights: Array
    losses: list[float]
    steps: int
    early_stopped: bool
    aborted: bool = False
    failures: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


_CHUNK_ROWS = 1024  # rows of one batched base solve: 64 steps at 16 samples


def train_invariant_policy(twin: InvariantTwin, w0, sampling: SamplingConfig, adam: AdamConfig,
                           solver: SolverConfig, u_range=(0.5, 2.0)) -> TrainedPolicy:
    """Fit the auxiliary policies by least squares on the invariant-node deviation.

    Each step takes sampling.samples_per_step (theta, u) rows, u in u_range, solves their
    rerouted deployed equilibria as one batch (see InvariantTwin.solve_pair) and
    backpropagates the squared deviation of the invariant nodes through them into the
    policy weights with one batched VJP. The unintervened equilibria do not depend on the
    weights, so the steps of a chunk (up to _CHUNK_ROWS rows) draw their rows with one
    draw_samples call and solve those ahead as one batch; the bits are those of a draw and a
    solve per step. If that batch raises, each step solves its own rows, as it fails alone.
    A u_range without 0 < low <= high raises ValueError. Failures are handled by `_descend`:
    a failing first step raises SolveFailedDuringOptimization, and more than five stop the
    run with `aborted` set.
    """
    rng = np.random.default_rng(adam.seed)
    inv_nodes = list(twin.invariant_nodes)
    n = sampling.samples_per_step
    per_chunk = max(1, _CHUNK_ROWS // n)

    def chunks():  # each step's theta, u and base solution (None: solve it with the step)
        for first in range(0, adam.iterations, per_chunk):
            chunk_rows = n * min(per_chunk, adam.iterations - first)
            theta, u = draw_samples(twin, sampling, u_range, rng, chunk_rows)
            try:
                rep = solve_equilibrium(twin.base, theta, solver).report
            except EqcausalError:  # each step's own solve raises it, or not, where it belongs
                rep = None
            for rows in (slice(i, i + n) for i in range(0, chunk_rows, n)):
                base = None if rep is None else EquilibriumSolution(rep.x[rows], SolveReport(
                    rep.x[rows], rep.residual_norm[rows], rep.relative_error[rows],
                    int(rep.row_iterations[rows].max()), bool(rep.row_converged[rows].all()),
                    rep.row_iterations[rows], rep.row_converged[rows]), theta[rows])
                yield theta[rows], u[rows], base
    steps = chunks()

    def evaluate(policy):
        theta, u, base = next(steps)
        base_sol, int_sol = twin.solve_pair(theta, u, solver, policy=policy, base=base)
        if not (base_sol.report.converged and int_sol.report.converged):
            raise NotConverged("equilibrium solve failed in training step")
        diff = int_sol.x_star[:, inv_nodes] - base_sol.x_star[:, inv_nodes]
        cot = np.zeros((n, twin.deployed.d))
        cot[:, inv_nodes] = 2.0 * diff
        ig = deq.implicit_vjp(twin.deployed, int_sol, cot)
        return float(np.einsum("ij,ij->", diff, diff)) / n, ig.grad_policy.sum(axis=0) / n

    res = _descend(evaluate, w0, adam)
    return TrainedPolicy(res.params, res.losses, len(res.losses), res.early_stopped, res.aborted,
                         len(res.failures))


# --- Pareto sweep ---

@dataclass
class TradeoffPoint:
    lam: float
    ghg_total: float
    employment_l1_deviation: float
    alpha: Array
    employment_delta: Array
    converged: bool


def pareto_sweep(spec: SscmSpec, c, employment_row, lambdas, adam: AdamConfig,
                 solver: SolverConfig, bounds: tuple[float, float],
                 targets=None) -> list[TradeoffPoint]:
    """Optimize the intervention per lambda, warm-starting from the previous optimum; a lambda
    whose optimization fails repeats the previous point (at the first, the unintervened model).
    Every lambda descends on the one intervened model that optimize_lie_intervention builds,
    and the unintervened reference is solved on it at the identity."""
    c = np.asarray(c, dtype=np.float64)
    r = np.asarray(employment_row, dtype=np.float64)
    if not len(lambdas):
        raise ValueError("lambda list must be nonempty")
    if any(lam < 0 for lam in lambdas):
        raise ValueError("lambda values must be nonnegative")
    targets = tuple(range(spec.d)) if targets is None else tuple(targets)
    g = interventions.identity("multiplicative", targets)
    x_star = unintervened_equilibrium(spec, g.group, targets, solver)
    e_star = r * x_star

    points: list[TradeoffPoint] = []
    for lam in lambdas:
        loss = GhgEmploymentLoss(c, r, e_star, lam)
        try:
            res = optimize_lie_intervention(spec, g, loss, adam, solver, bounds=bounds)
            g, x_star = res.optimum, res.x_star
            ok = not res.aborted
        except SolveFailedDuringOptimization:
            ok = False
        e_u = r * x_star
        points.append(TradeoffPoint(
            lam=float(lam),
            ghg_total=float(c @ x_star),
            employment_l1_deviation=float(np.abs(e_u - e_star).sum()),
            alpha=g.values.copy(),
            employment_delta=e_u - e_star,
            converged=ok,
        ))
    return points
