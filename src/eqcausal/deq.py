"""Implicit differentiation of equilibria.

Gradients of losses through x*(theta) are obtained from the fixed-point identity:
the adjoint a solves (I - df/dx)^T a = cotangent, after which dL/dtheta =
(df/dtheta)^T a (and likewise for the intervention vector u and policy weights).
Both entry points take the solver's EquilibriumSolution and linearize the map once
at its x* and the theta, u, policy and reroute it was solved at, which it records
(sscm.Linearization): the dense partials df/d(x, theta, u, policy) and I - df/dx,
which is solved, never inverted, for the adjoint and for the dense dx*/dtheta. An
unconverged solution raises NotConverged; a singular or ill-conditioned I - df/dx
(1-norm condition number above sscm.COND_MAX), or a non-finite adjoint, raises
SingularAdjoint. When ||df/dx||_1 < 1, as for a productive Leontief table, or
||(df/dx)^2||_1 < 1, as for the rebound twin, and the Neumann bound on the condition
number lies below COND_MAX / 2, that settles the gate; otherwise it reads the exact
condition number, which is inf for a singular I - df/dx.

A batched solution (x* of shape (B, d)) is linearized as one stack: one
batched reverse sweep, one stacked solve, and a bound or a condition number per
row. Any unconverged or ill-conditioned row refuses the whole batch, and the
gradients come per row, (B, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore, sscm
from .errors import NotConverged, ShapeMismatch, SingularAdjoint
from .fixedpoint import SolverConfig
from .sscm import EquilibriumSolution, SscmSpec

Array = np.ndarray


@dataclass
class ImplicitGradient:
    grad_theta: Array
    grad_u: Array
    grad_policy: Array | None


def require_converged(sol: EquilibriumSolution):
    """Raise NotConverged unless sol (every row of a batch) met its tolerance."""
    if not sol.report.converged:
        raise NotConverged(f"x_star is not a converged equilibrium "
                           f"(relative error {np.max(sol.report.relative_error):.3e})")


def _neumann_settles(lin: sscm.Linearization) -> bool:
    """Whether a Neumann bound on cond_1(I - J) lies below COND_MAX / 2 in every row: a
    margin that the rounding of the norms and of the exact condition number cannot cross.

    The first bound, for ||J||_1 < 1, is cond_1(I - J) <= ||I - J||_1 / (1 - ||J||_1)
    <= (1 + ||J||_1) / (1 - ||J||_1). Rows it leaves open try the second, for
    ||J^2||_1 < 1, from (I - J)^-1 = (I + J)(I - J^2)^-1:
    cond_1(I - J) <= (1 + ||J||_1)^2 / (1 - ||J^2||_1). It settles a J of 1-norm 1 or more
    whose square is a contraction, such as the rebound twin's, at the cost of one product J J.
    """
    j = lin.jac.x
    norm_j = np.abs(j).sum(axis=-2).max(axis=-1)
    half = sscm.COND_MAX / 2
    settled = 1.0 + norm_j < (1.0 - norm_j) * half
    if settled.all():
        return True
    with np.errstate(over="ignore", invalid="ignore"):  # a huge J fails the bound, silently
        norm_j2 = np.abs(j @ j).sum(axis=-2).max(axis=-1)
        return bool(np.all(settled | ((1.0 + norm_j) ** 2 < (1.0 - norm_j2) * half)))


def _linearize(spec: SscmSpec, sol: EquilibriumSolution) -> sscm.Linearization:
    """The linearization at sol's x* and solve bindings, refusing an unconverged or ill-conditioned one."""
    require_converged(sol)
    lin = sscm.Linearization(spec, sol.x_star, sol.theta, u=sol.u, reroute=sol.reroute, policy=sol.policy)
    if _neumann_settles(lin):
        return lin
    cond = np.max(lin.cond)
    if cond == np.inf:
        raise SingularAdjoint("I - df/dx is singular at the equilibrium")
    if not cond <= sscm.COND_MAX:
        raise SingularAdjoint(
            f"I - df/dx is ill-conditioned (condition number {cond:.3e} > {sscm.COND_MAX:.0e})")
    return lin


def _pull(m: Array, a: Array) -> Array:
    """m^T a, row by row for a stack of m."""
    if m.ndim == 2:
        return m.T @ a
    return (a[..., None, :] @ m)[..., 0, :]


def implicit_vjp(spec: SscmSpec, sol: EquilibriumSolution, cotangent) -> ImplicitGradient:
    """Pull a cotangent on x* back to theta, u and policy weights.

    The adjoint solves (I - df/dx)^T a = cotangent, one LU solve per row. A batched
    sol takes a (B, d) cotangent (a vector seeds every row) and gives (B, ...)
    gradients; a cotangent of another shape raises ShapeMismatch. An unconverged sol
    raises NotConverged; a singular or ill-conditioned I - df/dx, or a non-finite
    adjoint, raises SingularAdjoint.
    """
    cot = np.asarray(cotangent, dtype=np.float64)
    try:
        cot = np.broadcast_to(cot, sol.x_star.shape)
    except ValueError:
        raise ShapeMismatch(
            f"cotangent of shape {cot.shape} does not fit x* of shape {sol.x_star.shape}") from None
    lin = _linearize(spec, sol)
    a = np.linalg.solve(lin.lhs.mT, cot[..., None])[..., 0]
    if not np.all(np.isfinite(a)):
        raise SingularAdjoint("adjoint solve gave a non-finite solution")
    jac = lin.jac
    return ImplicitGradient(
        grad_theta=_pull(jac.theta, a),
        grad_u=_pull(jac.u, a),
        grad_policy=None if jac.policy is None else _pull(jac.policy, a),
    )


def jacobian_wrt_theta(spec: SscmSpec, sol: EquilibriumSolution) -> Array:
    """Dense dx*/dtheta, the solution X of (I - df/dx) X = df/dtheta at sol's x*."""
    lin = _linearize(spec, sol)
    return np.linalg.solve(lin.lhs, lin.jac.theta)


@dataclass
class GradCheckReport:
    implicit_grad: Array
    fd_grad: Array
    max_rel_deviation: float
    loss_value: float
    solver_tol: float
    h: float


def grad_check(spec: SscmSpec, theta, loss: diffcore.ExprGraph, cfg: SolverConfig,
               h: float = 1e-4, u=None, policy=None) -> GradCheckReport:
    """Compare the implicit gradient of loss(x*(theta)) against central differences.

    The loss is an expression graph with a single "x" slot and scalar output.
    FD quality is coupled to the solver tolerance; pass a tight cfg.tol when
    small deviations are required.
    """
    theta = np.asarray(theta, dtype=np.float64)

    def solve_at(th) -> EquilibriumSolution:
        sol = sscm.solve_equilibrium(spec, th, cfg, u=u, policy=policy)
        if not sol.report.converged:
            raise NotConverged(f"equilibrium solve failed during grad check at theta={th}")
        return sol

    sol = solve_at(theta)
    loss_value = float(diffcore.forward_eval(loss, {"x": sol.x_star})[0])
    cot = diffcore.reverse_vjp(loss, {"x": sol.x_star}, [1.0])["x"]
    ig = implicit_vjp(spec, sol, cot)

    fd = np.zeros(spec.theta_dim)
    for k in range(spec.theta_dim):
        tp = theta.copy()
        tm = theta.copy()
        tp[k] += h
        tm[k] -= h
        lp = float(diffcore.forward_eval(loss, {"x": solve_at(tp).x_star})[0])
        lm = float(diffcore.forward_eval(loss, {"x": solve_at(tm).x_star})[0])
        fd[k] = (lp - lm) / (2.0 * h)

    dev = np.abs(ig.grad_theta - fd) / (1.0 + np.abs(fd))
    return GradCheckReport(
        implicit_grad=ig.grad_theta,
        fd_grad=fd,
        max_rel_deviation=float(dev.max()) if dev.size else 0.0,
        loss_value=loss_value,
        solver_tol=cfg.tol,
        h=h,
    )
