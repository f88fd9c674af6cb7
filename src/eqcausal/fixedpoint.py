"""Fixed-point solvers: Anderson acceleration, and forward iteration as its m = 1,
beta = 1 case.

The solver stops when the relative error ||x - f(x)|| / ||x|| drops below the
configured tolerance (falling back to the absolute residual at ||x|| = 0,
which matters for zero initialization) or when max_iter is reached. A report
is returned either way.

A (B, d) starting point solves B independent problems in lockstep: f maps
(B, d) iterates to (B, d) values, every row keeps its own history, and a row
is frozen at the first iterate that meets the tolerance, so each row's result
is the one its own solve would give. A non-finite f(x) in any row, a settled
one included, or a singular least-squares system raises for the whole batch. f(x)
is checked entry by entry only when the largest residual norm ||f(x) - x|| is not
finite, which a non-finite f(x) always makes it; a finite f(x) whose residual
overflows is let through. A vector solve is a one-row
batch: the loop is the same, f is called on the row, and the report holds
floats where a batch's holds (B,) arrays. f must return a new array on each
call: the loop keeps the values f returns, and at beta = 1 steps to them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg  # private: tests pin its agreement with np.linalg.solve

from .errors import NonFiniteIterate, ShapeMismatch, SingularLeastSquares, ZeroNorm

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

    def __post_init__(self):  # every check fails on NaN
        for name in ("m", "max_iter"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if not self.m >= 1:
            raise ValueError("m must be >= 1")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite")
        if not 0 <= self.ridge < np.inf:
            raise ValueError("ridge must be nonnegative and finite")


@dataclass
class SolveReport:
    """One solve's result. For a batch, x is (B, d), residual_norm and relative_error are
    (B,) arrays, one per row, iterations is the loop count (the most any row took) and
    converged holds when every row did."""

    x: Array
    residual_norm: float | Array
    relative_error: float | Array
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


_FLOAT_MAX = np.finfo(np.float64).max


def _check_finite(v: Array, k: int):
    if not np.isfinite(v).all():
        raise NonFiniteIterate(f"non-finite iterate at iteration {k}")


def _row_error(x: Array, g: Array) -> tuple[Array, Array]:
    """Per row of a (B, d) x and its residual g = f(x) - x: the residual norm ||g|| and
    the convergence error ||g|| / ||x||, which falls back to ||g|| at ||x|| = 0. A row
    whose ||x|| overflows has error inf: ||g|| over the largest float would pass any
    tolerance while x diverges."""
    return _relative(x, np.sqrt(np.vecdot(g, g)))


def _relative(x: Array, res: Array) -> tuple[Array, Array]:
    """_row_error from the residual norms res. When every ||x|| is positive and finite, as
    on all but the first iterate of a solve from zero, the error is the plain quotient,
    and the guards for the other cases are skipped."""
    nrm = np.sqrt(np.vecdot(x, x))
    if np.minimum.reduce(nrm) > 0.0 and np.maximum.reduce(nrm) <= _FLOAT_MAX:  # False on NaN
        return res, res / nrm
    err = res / np.fmin(np.where(nrm > 0.0, nrm, 1.0), _FLOAT_MAX)  # no inf / inf, which warns
    err[np.isinf(nrm)] = np.inf
    return res, err


def _singular(err, flag):
    raise np.linalg.LinAlgError("singular matrix")


def _solve(a: Array, b: Array) -> Array:
    """np.linalg.solve(a, b[..., None])[..., 0] for float64 (B, k, k) a and (B, k) b: the
    gufunc np.linalg.solve runs, without its per-call checks and conversions, under the
    errstate it sets, in which the gufunc's signal of a singular system raises LinAlgError."""
    with np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.solve(a, b[..., None], signature="dd->d")[..., 0]


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

        x_{k+1} = beta * (F alpha) + (1 - beta) * (X alpha) = z_k - dZ gamma

    where z_i = beta * f(x_i) + (1 - beta) * x_i is the relaxed step from x_i
    (f(x_i) itself at beta = 1) and dZ holds the differences of the last z_i.
    With m = 1 and beta = 1 this is exactly forward iteration. A row's
    differences dz and dg are kept oldest first in one (2, B, m - 1, d) buffer,
    so the least-squares products read contiguous rows; each iteration appends
    one of each and drops the oldest, so no residual or difference is
    recomputed. The live rows' least-squares systems are solved in one call of
    the gufunc that np.linalg.solve runs (see _solve), which gives its bits.

    A non-finite f(x) raises NonFiniteIterate at the iteration it is returned in
    (see the module docstring). Its subtraction and residual dot product run
    before the entry check, so beside an entry that overflows there on its own (a
    difference or its square above the largest float) it warns before it raises.

    A 1-d x0 runs as a one-row batch with f called on row 0, and its report
    holds floats and no row_* arrays. A batch of no rows, or an f that returns
    another shape than its iterate's, raises ShapeMismatch.
    """
    x = np.array(x0, dtype=np.float64)
    if x.ndim == 2 and not len(x):
        raise ShapeMismatch("a batch needs at least one row")
    m, beta, tol, max_iter, ridge = cfg.m, cfg.beta, cfg.tol, cfg.max_iter, cfg.ridge
    vector = x.ndim == 1
    if vector:
        x = x[None]

        def call(z):
            return np.asarray(f(z[0]), dtype=np.float64)[None]
    else:
        def call(z):
            return np.asarray(f(z), dtype=np.float64)
    fx = call(x)
    if fx.shape != x.shape:
        shapes = (fx.shape[1:], x.shape[1:]) if vector else (fx.shape, x.shape)
        raise ShapeMismatch("f returned shape %s for an iterate of shape %s" % shapes)
    _check_finite(fx, 0)
    g = fx - x
    rows, n_cols = x.shape[0], m - 1
    hist = np.empty((2, rows, n_cols, x.shape[1]))  # dz, dg rows per batch row, oldest first
    n_hist = 0
    res_out, err_out = np.empty(rows), np.empty(rows)
    row_iterations = np.full(rows, max_iter)
    live, n_live = np.ones(rows, dtype=bool), rows
    for k in range(max_iter + 1):
        res = np.sqrt(np.vecdot(g, g))
        if not np.maximum.reduce(res) <= _FLOAT_MAX:  # as is every row's with a non-finite f(x)
            _check_finite(fx, k)
        res, err = _relative(x, res)
        done = err <= tol
        if n_live < rows:
            done &= live
        n_done = np.count_nonzero(done)
        if n_done:  # record these rows at iterate k; they step no further
            res_out[done], err_out[done], row_iterations[done] = res[done], err[done], k
            live &= ~done
            n_live -= n_done
            if not n_live:
                break
        if k == max_iter:
            res_out[live], err_out[live] = res[live], err[live]
            break
        z = fx if beta == 1.0 else beta * fx + (1.0 - beta) * x
        if n_cols and k:
            if n_hist == n_cols:
                hist[:, :, :-1] = hist[:, :, 1:]
            else:
                n_hist += 1
                newest = hist[:, :, n_hist - 1]
            np.subtract(z, z_prev, out=newest[0])
            np.subtract(g, g_prev, out=newest[1])
        sel = slice(None) if n_live == rows else live
        step = z[sel]
        if n_hist:
            d_z, d_g = hist[:, sel, :n_hist]
            gram = d_g @ d_g.mT
            if ridge > 0.0:
                diag = gram.reshape(len(gram), -1)[:, ::n_hist + 1]  # a view of the diagonals
                scale = np.add.reduce(diag, axis=1, keepdims=True)  # trace
                if np.minimum.reduce(scale, axis=None) > 0.0:
                    diag += scale * ridge
                else:  # where every difference vanishes, the ridge itself
                    diag += np.where(scale > 0.0, scale * ridge, ridge)
            try:
                gamma = _solve(gram, np.matvec(d_g, g[sel]))
            except np.linalg.LinAlgError as exc:
                raise SingularLeastSquares(
                    f"Anderson least-squares system singular at iteration {k} (ridge={ridge})"
                ) from exc
            step = step - np.vecmat(gamma, d_z)
        if n_live == rows:
            x_new = step
        else:
            x_new = x.copy()
            x_new[live] = step
        fx = call(x_new)
        x, z_prev, g_prev = x_new, z, g
        g = fx - x
    converged = ~live
    if vector:
        return SolveReport(x[0], float(res_out[0]), float(err_out[0]), int(row_iterations[0]),
                           bool(converged[0]))
    return SolveReport(x, res_out, err_out, int(np.maximum.reduce(row_iterations)),
                       bool(np.logical_and.reduce(converged)), row_iterations, converged)


def solve(f: Callable[[Array], Array], x0, cfg: SolverConfig) -> SolveReport:
    """Solve x = f(x) from x0 with Anderson acceleration under cfg."""
    return anderson_solve(f, x0, cfg)
