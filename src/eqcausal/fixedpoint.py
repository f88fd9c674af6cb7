"""Fixed-point solvers: Anderson acceleration, and forward iteration as its m = 1,
beta = 1 case.

The solver stops when the relative error ||x - f(x)|| / ||x|| drops below the
configured tolerance (falling back to the absolute residual at ||x|| = 0,
which matters for zero initialization) or when max_iter is reached. A report
is returned either way.

A (B, d) starting point solves B independent problems in lockstep: f maps
(B, d) iterates to (B, d) values, every row keeps its own history, and a row
is frozen at the first iterate that meets the tolerance, so each row's result
is the one its own solve would give. A non-finite row or a singular
least-squares system raises for the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NonFiniteIterate, SingularLeastSquares, ZeroNorm

Array = np.ndarray


@dataclass(frozen=True)
class SolverConfig:
    """Anderson settings. ridge is relative to the squared Frobenius norm of the
    residual differences, so it does not depend on the scale of the problem."""

    m: int = 8
    beta: float = 1.0
    tol: float = 1e-4
    max_iter: int = 5000
    ridge: float = 1e-8

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")


@dataclass
class SolveReport:
    """One solve's result. For a batch, x is (B, d), the norms are per row, iterations is
    the loop count (the most any row took) and converged holds when every row did."""

    x: Array
    residual_norm: float
    relative_error: float
    iterations: int
    converged: bool
    row_iterations: Array | None = None  # per row of a batch
    row_converged: Array | None = None  # per row of a batch


def relative_error(f: Callable[[Array], Array], x: Array) -> float:
    """||x - f(x)|| / ||x||; raises ZeroNorm at ||x|| = 0 (use the residual there)."""
    x = np.asarray(x, dtype=np.float64)
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        raise ZeroNorm("relative error undefined at the zero vector")
    return float(np.linalg.norm(x - f(x))) / nrm


def _error(x: Array, fx: Array) -> tuple[float, float]:
    """(residual norm, convergence error) with absolute fallback at ||x|| = 0."""
    res = float(np.linalg.norm(x - fx))
    nrm = float(np.linalg.norm(x))
    return res, (res / nrm if nrm > 0.0 else res)


def _check_finite(v: Array, k: int):
    if not np.all(np.isfinite(v)):
        raise NonFiniteIterate(f"non-finite iterate at iteration {k}")


def _row_error(x: Array, fx: Array) -> tuple[Array, Array]:
    """_error per row of a batch."""
    r = x - fx
    res = np.sqrt(np.einsum("ij,ij->i", r, r))
    nrm = np.sqrt(np.einsum("ij,ij->i", x, x))
    return res, np.divide(res, nrm, out=res.copy(), where=nrm > 0.0)


class _Rows:
    """Per-row results of a batched solve; a row is recorded, and then frozen by the
    solver, at the first iterate that meets the tolerance."""

    def __init__(self, x: Array):
        self.x = x.copy()
        self.res = np.zeros(len(x))
        self.err = np.zeros(len(x))
        self.iterations = np.zeros(len(x), dtype=np.int64)
        self.live = np.ones(len(x), dtype=bool)

    def _keep(self, rows: Array, x: Array, res: Array, err: Array, k: int):
        self.x[rows], self.res[rows], self.err[rows] = x[rows], res[rows], err[rows]
        self.iterations[rows] = k

    def settle(self, x: Array, fx: Array, k: int, tol: float) -> bool:
        """Record the live rows whose iterate k meets tol; True once no row is live."""
        res, err = _row_error(x, fx)
        done = self.live & (err <= tol)
        if done.any():
            self._keep(done, x, res, err, k)
            self.live &= ~done
        return not self.live.any()

    def report(self, x: Array, fx: Array, k: int) -> SolveReport:
        """The batch's report; the rows still live end unconverged at iterate k."""
        converged = ~self.live
        if self.live.any():
            self._keep(self.live, x, *_row_error(x, fx), k)
        return SolveReport(self.x, self.res, self.err, int(self.iterations.max()),
                           bool(converged.all()), self.iterations, converged)


def forward_iterate(f: Callable[[Array], Array], x0, cfg: SolverConfig) -> SolveReport:
    """Iterate x_{k+1} = f(x_k) until the relative error meets cfg.tol: Anderson with
    m = 1 and beta = 1, which steps exactly as forward iteration."""
    return anderson_solve(f, x0, replace(cfg, m=1, beta=1.0))


def anderson_solve(f: Callable[[Array], Array], x0, cfg: SolverConfig) -> SolveReport:
    """Anderson acceleration over the last cfg.m iterates.

    At step k the residual histories g_i = f(x_i) - x_i are combined through
    the sum-to-one least-squares weights, solved in the standard unconstrained
    form over residual differences with a ridge regularizer (cfg.ridge times the
    trace of their Gram matrix, or cfg.ridge itself when every difference
    vanishes), and the update mixes function values and iterates with
    relaxation beta:

        x_{k+1} = beta * (F alpha) + (1 - beta) * (X alpha)

    With m = 1 and beta = 1 this reduces exactly to forward iteration. The
    difference columns dx, df and dg are kept oldest first in one buffer; each
    iteration appends one column to each and drops the oldest, so no residual
    or difference is recomputed.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    if x.ndim == 2:
        return _anderson_rows(f, x, cfg)
    fx = np.asarray(f(x), dtype=np.float64)
    _check_finite(fx, 0)
    g = fx - x
    n_cols = cfg.m - 1
    hist = np.empty((3, x.shape[0], n_cols))  # dx, df, dg columns, oldest first
    n_hist = 0
    for k in range(cfg.max_iter + 1):
        res, err = _error(x, fx)
        if err <= cfg.tol:
            return SolveReport(x, res, err, k, True)
        if k == cfg.max_iter:
            break
        if n_hist == 0:
            x_new = cfg.beta * fx + (1.0 - cfg.beta) * x
        else:
            d_x, d_f, d_g = hist if n_hist == n_cols else np.ascontiguousarray(hist[:, :, :n_hist])
            gram = d_g.T @ d_g
            if cfg.ridge > 0.0:
                scale = np.trace(gram)
                gram = gram + (cfg.ridge * (scale if scale > 0.0 else 1.0)) * eye
            try:
                gamma = np.linalg.solve(gram, d_g.T @ g)
            except np.linalg.LinAlgError as exc:
                raise SingularLeastSquares(
                    f"Anderson least-squares system singular at iteration {k} (ridge={cfg.ridge})"
                ) from exc
            x_bar = x - d_x @ gamma
            f_bar = fx - d_f @ gamma
            x_new = cfg.beta * f_bar + (1.0 - cfg.beta) * x_bar
        fx_new = np.asarray(f(x_new), dtype=np.float64)
        _check_finite(fx_new, k + 1)
        if n_cols:
            g_new = fx_new - x_new
            if n_hist == n_cols:
                hist[:, :, :-1] = hist[:, :, 1:]
            else:
                n_hist += 1
                eye = np.eye(n_hist)
            hist[0, :, n_hist - 1] = x_new - x
            hist[1, :, n_hist - 1] = fx_new - fx
            hist[2, :, n_hist - 1] = g_new - g
            g = g_new
        x, fx = x_new, fx_new
    res, err = _error(x, fx)
    return SolveReport(x, res, err, cfg.max_iter, False)


def _anderson_rows(f: Callable[[Array], Array], x: Array, cfg: SolverConfig) -> SolveReport:
    """anderson_solve on a (B, d) batch: one stacked least-squares solve per
    iteration over the live rows; a settled row keeps its iterate."""
    fx = np.asarray(f(x), dtype=np.float64)
    _check_finite(fx, 0)
    g = fx - x
    n_cols = cfg.m - 1
    hist = np.empty((3, x.shape[0], x.shape[1], n_cols))  # dx, df, dg columns per row
    n_hist = 0
    rows = _Rows(x)
    for k in range(cfg.max_iter + 1):
        if rows.settle(x, fx, k, cfg.tol):
            return rows.report(x, fx, k)
        if k == cfg.max_iter:
            break
        all_live = rows.live.all()
        live = slice(None) if all_live else rows.live
        if n_hist == 0:
            step = cfg.beta * fx[live] + (1.0 - cfg.beta) * x[live]
        else:
            d_x, d_f, d_g = hist[:, live, :, :n_hist]
            d_gt = d_g.transpose(0, 2, 1)
            gram = d_gt @ d_g
            if cfg.ridge > 0.0:
                scale = np.trace(gram, axis1=1, axis2=2)
                gram = gram + (cfg.ridge * np.where(scale > 0.0, scale, 1.0))[:, None, None] * eye
            try:
                gamma = np.linalg.solve(gram, d_gt @ g[live][:, :, None])
            except np.linalg.LinAlgError as exc:
                raise SingularLeastSquares(
                    f"Anderson least-squares system singular at iteration {k} (ridge={cfg.ridge})"
                ) from exc
            x_bar = x[live] - (d_x @ gamma)[:, :, 0]
            f_bar = fx[live] - (d_f @ gamma)[:, :, 0]
            step = cfg.beta * f_bar + (1.0 - cfg.beta) * x_bar
        if all_live:
            x_new = step
        else:
            x_new = x.copy()
            x_new[live] = step
        fx_new = np.asarray(f(x_new), dtype=np.float64)
        _check_finite(fx_new, k + 1)
        if n_cols:
            g_new = fx_new - x_new
            if n_hist == n_cols:
                hist[..., :-1] = hist[..., 1:]
            else:
                n_hist += 1
                eye = np.eye(n_hist)
            hist[0, ..., n_hist - 1] = x_new - x
            hist[1, ..., n_hist - 1] = fx_new - fx
            hist[2, ..., n_hist - 1] = g_new - g
            g = g_new
        x, fx = x_new, fx_new
    return rows.report(x, fx, cfg.max_iter)


def solve(f: Callable[[Array], Array], x0, cfg: SolverConfig) -> SolveReport:
    """Solve x = f(x) from x0 with Anderson acceleration under cfg."""
    return anderson_solve(f, x0, cfg)
