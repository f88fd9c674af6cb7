"""Implicit differentiation of equilibria.

Gradients of losses through x*(theta) are obtained from the fixed-point
identity: the adjoint a solves a = (df/dx)^T a + cotangent, after which
dL/dtheta = (df/dtheta)^T a (and likewise for the intervention vector u and
policy weights). At each equilibrium the partials df/d(x, theta, u, policy)
are assembled densely from one sweep of per-node VJPs, and I - df/dx is
inverted once; that inverse gives the adjoint, the dense dx*/dtheta and the
exact 1-norm condition number. A singular or ill-conditioned I - df/dx, or a
non-finite adjoint, raises SingularAdjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore, fixedpoint, sscm
from .errors import NotConverged, SingularAdjoint
from .fixedpoint import SolveReport, SolverConfig
from .sscm import SscmSpec

Array = np.ndarray


@dataclass
class ImplicitGradient:
    grad_theta: Array
    grad_u: Array
    grad_policy: Array | None
    adjoint_report: SolveReport


def _check_forward(spec: SscmSpec, theta, x_star, cfg, u, extern, policy):
    f = sscm.assemble_map(spec, theta, u=u, extern=extern, policy=policy)
    x = np.asarray(x_star, dtype=np.float64)
    _, err = fixedpoint._error(x, f(x))
    if err > cfg.tol:
        raise NotConverged(
            f"x_star is not a converged equilibrium (error {err:.3e} > tol {cfg.tol:.3e})"
        )
    return x


class Linearization:
    """Dense partials and the inverse of I - df/dx at one equilibrium.

    Raises SingularAdjoint when I - df/dx is singular or its 1-norm condition
    number exceeds sscm.COND_MAX.
    """

    def __init__(self, spec: SscmSpec, theta, x_star, u=None, extern=None, policy=None):
        self.jac = sscm.node_jacobians(spec, x_star, theta, u=u, extern=extern, policy=policy)
        lhs = np.eye(spec.d) - self.jac.x
        try:
            self.inv = np.linalg.inv(lhs)
        except np.linalg.LinAlgError as exc:
            raise SingularAdjoint("I - df/dx is singular at the equilibrium") from exc
        cond = float(np.linalg.norm(lhs, 1) * np.linalg.norm(self.inv, 1))
        if not cond <= sscm.COND_MAX:
            raise SingularAdjoint(
                f"I - df/dx is ill-conditioned (condition number {cond:.3e} > {sscm.COND_MAX:.0e})")

    def vjp(self, cotangent) -> ImplicitGradient:
        cot = np.asarray(cotangent, dtype=np.float64)
        a = self.inv.T @ cot
        if not np.all(np.isfinite(a)):
            raise SingularAdjoint("adjoint solve gave a non-finite solution")
        residual = float(np.linalg.norm(a - self.jac.x.T @ a - cot))
        nrm = float(np.linalg.norm(a))
        report = SolveReport(a, residual, residual / nrm if nrm > 0 else residual, 0, True)
        jac = self.jac
        return ImplicitGradient(
            grad_theta=jac.theta.T @ a,
            grad_u=jac.u.T @ a,
            grad_policy=None if jac.policy is None else jac.policy.T @ a,
            adjoint_report=report,
        )


def implicit_vjp(spec: SscmSpec, theta, x_star, cotangent, cfg: SolverConfig,
                 u=None, extern=None, policy=None) -> ImplicitGradient:
    """Pull a cotangent on x* back to theta, u and policy weights.

    Refuses (raises NotConverged) when x_star does not satisfy the fixed point
    within cfg.tol. The adjoint is a dense solve; a singular or ill-conditioned
    I - df/dx, or a non-finite adjoint, raises SingularAdjoint.
    """
    x = _check_forward(spec, theta, x_star, cfg, u, extern, policy)
    return Linearization(spec, theta, x, u, extern, policy).vjp(cotangent)


def jacobian_wrt_theta(spec: SscmSpec, theta, x_star, cfg: SolverConfig,
                       u=None, extern=None, policy=None) -> Array:
    """Dense dx*/dtheta = (I - df/dx)^{-1} df/dtheta."""
    x = _check_forward(spec, theta, x_star, cfg, u, extern, policy)
    prepared = Linearization(spec, theta, x, u, extern, policy)
    return prepared.inv @ prepared.jac.theta


@dataclass
class GradCheckReport:
    implicit_grad: Array
    fd_grad: Array
    max_rel_deviation: float
    loss_value: float
    solver_tol: float
    h: float


def grad_check(spec: SscmSpec, theta, loss: diffcore.ExprGraph, cfg: SolverConfig,
               h: float = 1e-4, u=None, extern=None, policy=None) -> GradCheckReport:
    """Compare the implicit gradient of loss(x*(theta)) against central differences.

    The loss is an expression graph with a single "x" slot and scalar output.
    FD quality is coupled to the solver tolerance; pass a tight cfg.tol when
    small deviations are required.
    """
    theta = np.asarray(theta, dtype=np.float64)

    def solve_at(th) -> Array:
        sol = sscm.solve_equilibrium(spec, th, cfg, u=u, extern=extern, policy=policy)
        if not sol.report.converged:
            raise NotConverged(f"equilibrium solve failed during grad check at theta={th}")
        return sol.x_star

    x_star = solve_at(theta)
    loss_value = float(diffcore.forward_eval(loss, {"x": x_star})[0])
    cot = diffcore.reverse_vjp(loss, {"x": x_star}, [1.0])["x"]
    ig = implicit_vjp(spec, theta, x_star, cot, cfg, u=u, extern=extern, policy=policy)

    fd = np.zeros(spec.theta_dim)
    for k in range(spec.theta_dim):
        tp = theta.copy()
        tm = theta.copy()
        tp[k] += h
        tm[k] -= h
        lp = float(diffcore.forward_eval(loss, {"x": solve_at(tp)})[0])
        lm = float(diffcore.forward_eval(loss, {"x": solve_at(tm)})[0])
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
