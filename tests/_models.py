"""Hand-built model fixtures, reference implementations and fault injection shared
across test modules."""

from collections import deque

import numpy as np

from eqcausal import sscm
from eqcausal.diffcore import ExprBuilder
from eqcausal.errors import SingularLeastSquares
from eqcausal.fixedpoint import SolveReport, _check_finite, _error
from eqcausal.sscm import SscmSpec

THETA_REF = np.array([1.0, 0.5, 0.3, 0.4])


def motivating_spec():
    """x := tau; y := alpha*x + beta*z; z := gamma*y with theta = (tau, alpha, beta, gamma)."""
    b = ExprBuilder()
    t = b.input("theta", 1)
    gx = b.build(t)

    b = ExprBuilder()
    p = b.input("parents", 2)  # (x, z)
    t = b.input("theta", 2)  # (alpha, beta)
    gy = b.build(b.dot(t, p))

    b = ExprBuilder()
    p = b.input("parents", 1)  # (y,)
    t = b.input("theta", 1)  # (gamma,)
    gz = b.build(b.dot(t, p))

    return SscmSpec(
        names=("x", "y", "z"),
        parents=((), (0, 2), (1,)),
        assignments=(gx, gy, gz),
        theta_ref=THETA_REF.copy(),
        theta_box=np.array([[0.5, 1.5], [0.2, 0.8], [0.1, 0.5], [0.1, 0.7]]),
        theta_slices=((0, 1), (1, 3), (3, 4)),
    )


def motivating_oracle(tau, alpha, beta, gamma, u_y=1.0, u_z=1.0):
    """Closed-form equilibrium of the 3-node example under multiplicative scaling."""
    denom = 1.0 - u_y * u_z * beta * gamma
    y = u_y * alpha * tau / denom
    return np.array([tau, y, u_z * gamma * y])


def leontief_spec(A, y):
    """Affine spec x_k := sum_j A_kj x_j + y_k with per-sector demand as theta."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    d = A.shape[0]
    graphs, parents, slices = [], [], []
    for k in range(d):
        pa = tuple(j for j in range(d) if j != k and A[k, j] != 0.0)
        b = ExprBuilder()
        t = b.input("theta", 1)  # y_k
        expr = t
        if pa:
            p = b.input("parents", len(pa))
            expr = b.dot(b.const(A[k, list(pa)]), p) + t
        graphs.append(b.build(expr))
        parents.append(pa)
        slices.append((k, k + 1))
    box = np.stack([np.zeros(d), 2.0 * np.maximum(y, 1.0)], axis=1)
    return SscmSpec(tuple(f"s{k}" for k in range(d)), tuple(parents), tuple(graphs),
                    y, box, tuple(slices))


def random_leontief(rng, d, density=0.3):
    """Sparse nonnegative A with spectral radius 0.6 and demand y."""
    A = rng.uniform(0.0, 1.0, size=(d, d)) * (rng.uniform(size=(d, d)) < density)
    np.fill_diagonal(A, 0.0)
    A *= 0.6 / max(abs(np.linalg.eigvals(A)))
    return A, rng.uniform(0.5, 1.5, size=d)


def inject_state_jacobian(monkeypatch, j_x=None, on_calls=None):
    """Replace df/dx in sscm.node_jacobians by j_x, or by the identity (so that
    I - df/dx = 0) when j_x is None, in every row of a batch; only on the given
    0-based calls if on_calls is set. The other partials are kept."""
    original = sscm.node_jacobians
    count = []

    def injected(*args, **kwargs):
        jac = original(*args, **kwargs)
        if on_calls is None or len(count) in on_calls:
            j_new = np.eye(jac.x.shape[-1]) if j_x is None else np.asarray(j_x, dtype=float)
            jac.x = np.broadcast_to(j_new, jac.x.shape).copy()
        count.append(1)
        return jac

    monkeypatch.setattr(sscm, "node_jacobians", injected)


def reference_anderson_solve(f, x0, cfg):
    """Anderson loop that rebuilds every residual and difference from the iterate
    history on each step; fixedpoint.anderson_solve must match it bit for bit."""
    x = np.asarray(x0, dtype=np.float64).copy()
    fx = np.asarray(f(x), dtype=np.float64)
    _check_finite(fx, 0)
    xs = deque(maxlen=cfg.m)
    fs = deque(maxlen=cfg.m)
    xs.append(x)
    fs.append(fx)
    for k in range(cfg.max_iter + 1):
        res, err = _error(x, fx)
        if err <= cfg.tol:
            return SolveReport(x, res, err, k, True)
        if k == cfg.max_iter:
            break
        n_hist = len(xs)
        if n_hist == 1:
            x_new = cfg.beta * fx + (1.0 - cfg.beta) * x
        else:
            gs = [fs[i] - xs[i] for i in range(n_hist)]
            d_g = np.stack([gs[i + 1] - gs[i] for i in range(n_hist - 1)], axis=1)
            d_f = np.stack([fs[i + 1] - fs[i] for i in range(n_hist - 1)], axis=1)
            d_x = np.stack([xs[i + 1] - xs[i] for i in range(n_hist - 1)], axis=1)
            gram = d_g.T @ d_g
            if cfg.ridge > 0.0:
                scale = np.trace(gram)
                gram = gram + (cfg.ridge * (scale if scale > 0.0 else 1.0)) * np.eye(n_hist - 1)
            try:
                gamma = np.linalg.solve(gram, d_g.T @ gs[-1])
            except np.linalg.LinAlgError as exc:
                raise SingularLeastSquares(f"singular at iteration {k}") from exc
            x_bar = x - d_x @ gamma
            f_bar = fx - d_f @ gamma
            x_new = cfg.beta * f_bar + (1.0 - cfg.beta) * x_bar
        x = x_new
        fx = np.asarray(f(x), dtype=np.float64)
        _check_finite(fx, k + 1)
        xs.append(x)
        fs.append(fx)
    res, err = _error(x, fx)
    return SolveReport(x, res, err, cfg.max_iter, False)


def reference_mlp_stack(b, mlp, x, w):
    """The MLP as one slice and one dot per unit, the layout optimize._mlp_stack
    replaced by one matmul per layer."""
    offset = 0
    h = x
    for n_in, n_out in zip(mlp.sizes, mlp.sizes[1:]):
        outs = []
        for r in range(n_out):
            row = b.slice(w, offset + r * n_in, offset + (r + 1) * n_in)
            outs.append(b.dot(row, h))
        offset += n_out * n_in
        bias = b.slice(w, offset, offset + n_out)
        offset += n_out
        z = (outs[0] if n_out == 1 else b.concat(*outs)) + bias
        h = b.relu(z)
    return h


def reference_ghg_employment_graph(c, r, e_star, lam, eps_smooth=1e-8):
    """The expression graph optimize.GhgEmploymentLoss replaced by its closed
    form: its forward pass is the surrogate and its VJP the gradient."""
    d = len(c)
    b = ExprBuilder()
    x = b.input("x", d)
    ghg = b.dot(b.const(c), x)
    delta = b.mul(b.const(r), x) - b.const(e_star)
    smooth = b.powc(delta * delta + b.const(np.full(d, eps_smooth)), 0.5) - b.const(
        np.full(d, np.sqrt(eps_smooth)))
    reg = b.dot(b.const(np.ones(d)), smooth)
    return b.build(ghg + b.const([lam]) * reg)


def reference_distance_graph(x_ref):
    """The expression graph ||x - x_ref||^2 that optimize.DistanceLoss replaced."""
    b = ExprBuilder()
    x = b.input("x", len(x_ref))
    delta = x - b.const(x_ref)
    return b.build(b.dot(delta, delta))


def reference_train_invariant_policy(twin, w0, sampling, adam, solver):
    """optimize.train_invariant_policy as one solve pair and one VJP per sample;
    the batched version must draw its samples in this order and match it."""
    from eqcausal import deq, optimize
    from eqcausal.errors import NotConverged

    rng = np.random.default_rng(adam.seed)
    inv_nodes = list(twin.invariant_nodes)
    n = sampling.samples_per_step

    def evaluate(policy):
        grad = np.zeros_like(policy)
        batch_loss = 0.0
        for _ in range(n):
            theta = optimize.sample_theta(twin.base, sampling, rng)
            u_vals = [optimize.sample_u(stop - start, plan.group, sampling, rng)
                      for plan, (start, stop) in zip(twin.plans, twin.u_slices)]
            u = twin.assemble_u(u_vals)
            base_sol, int_sol = twin.solve_pair(theta, u, solver, policy=policy)
            if not (base_sol.report.converged and int_sol.report.converged):
                raise NotConverged("equilibrium solve failed in training step")
            diff = int_sol.x_star[inv_nodes] - base_sol.x_star[inv_nodes]
            batch_loss += float(diff @ diff)
            cot = np.zeros(twin.rerouted.d)
            cot[inv_nodes] = 2.0 * diff
            extern = base_sol.x_star[inv_nodes]
            ig = deq.implicit_vjp(twin.rerouted, int_sol, cot, u=u, extern=extern, policy=policy)
            grad += ig.grad_policy
        return batch_loss / n, grad / n

    res = optimize._descend(evaluate, w0, adam)
    return optimize.TrainedPolicy(res.params, res.losses, len(res.losses), res.early_stopped,
                                  res.aborted, len(res.failures))
