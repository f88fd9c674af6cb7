"""Fixed-point solvers: plain forward iteration and Anderson acceleration.

Both solvers stop when the relative error ||x - f(x)|| / ||x|| drops below the
configured tolerance (falling back to the absolute residual at ||x|| = 0,
which matters for zero initialization) or when max_iter is reached. A report
is returned either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteIterate, SingularLeastSquares, ZeroNorm

Array = np.ndarray

METHODS = ("forward", "anderson")


@dataclass(frozen=True)
class SolverConfig:
    method: str = "anderson"
    m: int = 5
    beta: float = 2.0
    tol: float = 1e-4
    max_iter: int = 5000
    ridge: float = 1e-8

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
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
    x: Array
    residual_norm: float
    relative_error: float
    iterations: int
    converged: bool


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


def forward_iterate(f: Callable[[Array], Array], x0, cfg: SolverConfig) -> SolveReport:
    """Iterate x_{k+1} = f(x_k) until the relative error meets cfg.tol."""
    x = np.asarray(x0, dtype=np.float64).copy()
    fx = np.asarray(f(x), dtype=np.float64)
    _check_finite(fx, 0)
    for k in range(cfg.max_iter + 1):
        res, err = _error(x, fx)
        if err <= cfg.tol:
            return SolveReport(x, res, err, k, True)
        if k == cfg.max_iter:
            break
        x = fx
        fx = np.asarray(f(x), dtype=np.float64)
        _check_finite(fx, k + 1)
    res, err = _error(x, fx)
    return SolveReport(x, res, err, cfg.max_iter, False)


def anderson_solve(f: Callable[[Array], Array], x0, cfg: SolverConfig) -> SolveReport:
    """Anderson acceleration over the last cfg.m iterates.

    At step k the residual histories g_i = f(x_i) - x_i are combined through
    the sum-to-one least-squares weights, solved in the standard unconstrained
    form over residual differences with a ridge regularizer, and the update
    mixes function values and iterates with relaxation beta:

        x_{k+1} = beta * (F alpha) + (1 - beta) * (X alpha)

    With m = 1 and beta = 1 this reduces exactly to forward iteration. The
    difference columns dx, df and dg are kept oldest first in one buffer; each
    iteration appends one column to each and drops the oldest, so no residual
    or difference is recomputed.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
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
                gram = gram + ridge_eye
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
                ridge_eye = cfg.ridge * np.eye(n_hist)
            hist[0, :, n_hist - 1] = x_new - x
            hist[1, :, n_hist - 1] = fx_new - fx
            hist[2, :, n_hist - 1] = g_new - g
            g = g_new
        x, fx = x_new, fx_new
    res, err = _error(x, fx)
    return SolveReport(x, res, err, cfg.max_iter, False)


def solve(f: Callable[[Array], Array], x0, cfg: SolverConfig) -> SolveReport:
    """Dispatch to the solver named by cfg.method."""
    if cfg.method == "forward":
        return forward_iterate(f, x0, cfg)
    return anderson_solve(f, x0, cfg)
