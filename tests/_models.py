"""Hand-built model fixtures, reference implementations and fault injection shared
across test modules."""

from collections import deque
from dataclasses import replace

import numpy as np

from eqcausal import deq, diffcore, sscm
from eqcausal.diffcore import ExprBuilder
from eqcausal.errors import DimensionMismatch, DomainError, SingularLeastSquares, UnboundSlot
from eqcausal.fixedpoint import SolveReport, _check_finite, _row_error
from eqcausal.sscm import SscmSpec

THETA_REF = np.array([1.0, 0.5, 0.3, 0.4])



def finite_difference_jacobian(fn, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian estimate of fn at x; column j uses x +/- h e_j."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.zeros((np.atleast_1d(fn(x)).shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        step = np.zeros_like(x)
        step[j] = h
        out[:, j] = (np.atleast_1d(fn(x + step)) - np.atleast_1d(fn(x - step))) / (2.0 * h)
    return out

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


def employment_distribution(row, x):
    """Per-sector impact: entrywise product of one intensity row with output."""
    row = np.asarray(row, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if row.shape != x.shape:
        raise DimensionMismatch(f"row {row.shape} against x {x.shape}")
    return row * x


def jacobian(graph, bindings, slot):
    """Dense Jacobian of the output w.r.t. one input slot (n x m) at unbatched
    bindings: one batched reverse sweep seeded with the identity."""
    return diffcore.reverse_vjp(graph, bindings, np.eye(graph.output_dim))[slot]


class DistanceLoss:
    """L(x) = ||x - x_ref||^2, a loss in the form optimize_lie_intervention takes."""

    def __init__(self, x_ref):
        self.x_ref = np.asarray(x_ref, dtype=np.float64)

    def value(self, x) -> float:
        delta = np.asarray(x, dtype=np.float64) - self.x_ref
        return diffcore.dot_sum(delta, delta)

    def grad(self, x):
        delta = np.asarray(x, dtype=np.float64) - self.x_ref
        return delta + delta


def reference_leontief_model(table, free_a_entries=()):
    """modelzoo.leontief_model built entry by entry: the parents and coefficients of each
    row read one A entry at a time, with no Hawkins-Simon check."""
    A, y, d = table.A, table.y, table.d
    free_by_row = {}
    for i, j in free_a_entries:
        free_by_row.setdefault(i, []).append(j)
    graphs, parents, slices, theta, box = [], [], [], [], []
    cursor = 0
    for k in range(d):
        scale = 1.0 / (1.0 - A[k, k]) if A[k, k] != 0.0 else 1.0
        free_cols = free_by_row.get(k, [])
        pa = tuple(j for j in range(d) if j != k and (A[k, j] != 0.0 or j in free_cols))
        b = ExprBuilder()
        n_theta = 1 + len(free_cols)
        t = b.input("theta", n_theta)
        expr = b.slice(t, 0, 1) * b.const([scale])
        if pa:
            p = b.input("parents", len(pa))
            coefs = np.array([0.0 if j in free_cols else A[k, j] * scale for j in pa])
            if np.any(coefs != 0.0):
                expr = expr + b.dot(b.const(coefs), p)
            for fi, j in enumerate(free_cols):
                expr = expr + b.slice(t, 1 + fi, 2 + fi) * b.const([scale]) * b.gather(p, [pa.index(j)])
        graphs.append(b.build(expr))
        parents.append(pa)
        slices.append((cursor, cursor + n_theta))
        theta.append(y[k])
        box.append([0.0, 2.0 * max(y[k], 1.0)])
        for j in free_cols:
            theta.append(A[k, j])
            box.append([0.0, max(2.0 * A[k, j], 1.0)])
        cursor += n_theta
    return SscmSpec(table.sectors, tuple(parents), tuple(graphs), np.array(theta), np.array(box),
                    tuple(slices))


def random_leontief(rng, d, density=0.3):
    """Sparse nonnegative A with spectral radius 0.6 and demand y."""
    A = rng.uniform(0.0, 1.0, size=(d, d)) * (rng.uniform(size=(d, d)) < density)
    np.fill_diagonal(A, 0.0)
    A *= 0.6 / max(abs(np.linalg.eigvals(A)))
    return A, rng.uniform(0.5, 1.5, size=d)


def clamp_node(spec, k, theta, lam):
    """Hard-intervene node k to a constant carried as a trailing theta component."""
    b = ExprBuilder()
    clamped_graph = b.build(b.input("theta", 1))
    p = spec.theta_dim
    parents, assignments, slices = list(spec.parents), list(spec.assignments), list(spec.theta_slices)
    parents[k], assignments[k], slices[k] = (), clamped_graph, (p, p + 1)
    span = max(1.0, abs(lam))
    clamped = replace(
        spec,
        parents=tuple(parents),
        assignments=tuple(assignments),
        theta_slices=tuple(slices),
        theta_ref=np.concatenate([spec.theta_ref, [lam]]),
        theta_box=np.concatenate([spec.theta_box, [[lam - span, lam + span]]], axis=0),
        x_ref=None,
    )
    return clamped, np.concatenate([np.asarray(theta, dtype=np.float64), [lam]])


def reference_hard_derivative(spec, j, k, theta, cfg):
    """d x_j / d(lambda) of the model clamped at x_k = lambda = x*_k, the long way: clamp
    the spec, solve the clamped model again and read its dx*/dtheta in the clamp's column."""
    lam = float(sscm.solve_equilibrium(spec, theta, cfg).x_star[k])
    clamped, theta_ext = clamp_node(spec, k, theta, lam)
    sol = sscm.solve_equilibrium(clamped, theta_ext, cfg)
    assert sol.report.converged
    return float(deq.jacobian_wrt_theta(clamped, sol)[j, -1])


def inject_state_jacobian(monkeypatch, j_x=None, on_calls=None):
    """Replace df/dx in sscm.node_gradients by j_x, or by the identity (so that
    I - df/dx = 0) when j_x is None, in every row of a batch; only on the given
    0-based calls if on_calls is set. The other partials are kept."""
    original = sscm.node_gradients
    count = []

    def injected(*args, **kwargs):
        jac = original(*args, **kwargs)
        if on_calls is None or len(count) in on_calls:
            j_new = np.eye(jac.x.shape[-1]) if j_x is None else np.asarray(j_x, dtype=float)
            jac.x = np.broadcast_to(j_new, jac.x.shape).copy()
        count.append(1)
        return jac

    monkeypatch.setattr(sscm, "node_gradients", injected)


def reference_anderson_solve(f, x0, cfg):
    """Anderson loop that rebuilds every residual and difference from the iterate
    history on each step; fixedpoint.anderson_solve must match it bit for bit.

    A vector is solved as a one-row batch, as the solver does, and the least-squares
    products take the solver's stacked forms (the 2-d BLAS forms differ in the last
    bits); the bookkeeping of settled rows is left out.
    """
    x = np.asarray(x0, dtype=np.float64)[None].copy()

    def call(z):
        return np.asarray(f(z[0]), dtype=np.float64)[None]

    fx = call(x)
    _check_finite(fx, 0)
    xs = deque(maxlen=cfg.m)
    fs = deque(maxlen=cfg.m)
    xs.append(x)
    fs.append(fx)
    for k in range(cfg.max_iter + 1):
        res, err = _row_error(x, fx - x)
        if err[0] <= cfg.tol:
            return SolveReport(x[0], float(res[0]), float(err[0]), k, True)
        if k == cfg.max_iter:
            break
        n_hist = len(xs)
        zs = [fs[i] if cfg.beta == 1.0 else cfg.beta * fs[i] + (1.0 - cfg.beta) * xs[i]
              for i in range(n_hist)]
        x_new = zs[-1]
        if n_hist > 1:
            gs = [fs[i] - xs[i] for i in range(n_hist)]
            d_g = np.stack([gs[i + 1] - gs[i] for i in range(n_hist - 1)], axis=1)
            d_z = np.stack([zs[i + 1] - zs[i] for i in range(n_hist - 1)], axis=1)
            gram = d_g @ d_g.mT
            if cfg.ridge > 0.0:
                scale = np.trace(gram, axis1=1, axis2=2)
                ridge = np.where(scale > 0.0, scale, 1.0)[:, None, None] * (cfg.ridge * np.eye(n_hist - 1))
                gram = gram + ridge
            try:
                gamma = np.linalg.solve(gram, np.matvec(d_g, gs[-1])[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise SingularLeastSquares(f"singular at iteration {k}") from exc
            x_new = x_new - np.vecmat(gamma, d_z)
        x = x_new
        fx = call(x)
        _check_finite(fx, k + 1)
        xs.append(x)
        fs.append(fx)
    res, err = _row_error(x, fx - x)
    return SolveReport(x[0], float(res[0]), float(err[0]), cfg.max_iter, False)


def reference_random_contraction(dim, seed, spectral_radius):
    """One seed's contraction built alone: uniform draws and the matrix's own
    Collatz-Wielandt loop, as before the stacked builder; every row of
    modelzoo.random_contractions must match it bit for bit."""
    rng = np.random.default_rng([seed, dim])
    A = rng.uniform(0.0, 1.0, size=(dim, dim))
    np.fill_diagonal(A, 0.0)
    v = np.ones(dim)
    lo, hi = 0.0, np.inf
    for _ in range(100):
        w = A @ v
        u = A @ w
        gap = hi - lo
        lo = max(lo, (w / v).min(), (u / w).min())
        hi = min(hi, (w / v).max(), (u / w).max())
        if hi - lo <= 4.0 * np.finfo(np.float64).eps * hi or hi - lo >= gap:
            break
        v = u + lo * w
        v /= v.max()
    A *= spectral_radius / (0.5 * (lo + hi))
    return A, rng.uniform(0.5, 1.5, size=dim)


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
    """The expression graph ||x - x_ref||^2 that DistanceLoss replaced."""
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
            cot = np.zeros(twin.deployed.d)
            cot[inv_nodes] = 2.0 * diff
            reroute = (inv_nodes, base_sol.x_star[inv_nodes])
            ig = deq.implicit_vjp(twin.deployed, int_sol, cot, u=u, reroute=reroute, policy=policy)
            grad += ig.grad_policy
        return batch_loss / n, grad / n

    res = optimize._descend(evaluate, w0, adam)
    return optimize.TrainedPolicy(res.params, res.losses, len(res.losses), res.early_stopped,
                                  res.aborted, len(res.failures))


# --- the per-node graph interpreter diffcore's fused program replaced ---
#
# One Python step per node, forward and backward, vector and batch. In a batch a
# value that depends on a batched slot is (n, B) and every other value (n, 1),
# which broadcasts; every adjoint is (n, B). The fused program must match it to
# rounding.

def _ref_value(node, x, dims):
    """A node's value from its arguments' values x."""
    op, args, p = node
    if op in ("add", "sub", "mul"):
        return {"add": np.add, "sub": np.subtract, "mul": np.multiply}[op](x[0], x[1])
    if op == "neg":
        return -x[0]
    if op == "recip":
        if np.any(x[0] == 0.0):
            raise DomainError("reciprocal of zero")
        return 1.0 / x[0]
    if op == "pow":
        if p < 0.0 and np.any(x[0] <= 0.0):
            raise DomainError(f"pow with negative exponent {p} on non-positive base")
        if p != int(p) and np.any(x[0] < 0.0):
            raise DomainError(f"pow with fractional exponent {p} on negative base")
        return np.power(x[0], p)
    if op == "exp":
        return np.exp(x[0])
    if op == "log":
        if np.any(x[0] <= 0.0):
            raise DomainError("log of non-positive value")
        return np.log(x[0])
    if op == "relu":
        return np.maximum(x[0], 0.0)
    if op == "matmul":
        start, n_out = p
        block = x[0][start:start + n_out * dims[args[1]]]
        return (block.reshape(n_out, dims[args[1]], *block.shape[1:]) * x[1]).sum(axis=1)
    if op == "segdot":
        ends = np.cumsum(p)
        return np.stack([(x[0][end - n:end] * x[1][end - n:end]).sum(axis=0) for n, end in zip(p, ends)])
    if op == "concat":
        width = max(part.shape[1:] for part in x)
        return np.concatenate([np.broadcast_to(part, part.shape[:1] + width) for part in x])
    if op == "slice":
        return x[0][p[0]:p[1]]
    if op == "gather":
        return x[0].take(list(p), axis=0)
    raise ValueError(f"unknown op {op!r}")


def _ref_pullback(node, g, x, y, dims):
    """The contributions of a node's adjoint g to its arguments' adjoints, in order."""
    op, args, p = node
    if op == "add":
        return [g, g]
    if op == "sub":
        return [g, -g]
    if op == "mul":
        return [g * x[1], g * x[0]]
    if op == "neg":
        return [-g]
    if op == "recip":
        return [-g * y * y]
    if op == "pow":
        return [g * p * np.power(x[0], p - 1.0)]
    if op == "exp":
        return [g * y]
    if op == "log":
        return [g / x[0]]
    if op == "relu":
        return [g * (x[0] > 0.0)]
    if op == "matmul":
        start, n_out = p
        n_in = dims[args[1]]
        block = x[0][start:start + n_out * n_in]
        full = np.zeros((dims[args[0]],) + g.shape[1:])
        full[start:start + n_out * n_in] = (g[:, None] * x[1][None]).reshape(n_out * n_in, *g.shape[1:])
        return [full, (block.reshape(n_out, n_in, *block.shape[1:]) * g[:, None]).sum(axis=0)]
    if op == "segdot":
        per_element = np.repeat(g, p, axis=0)
        return [per_element * x[1], per_element * x[0]]
    if op == "concat":
        bounds = np.cumsum([0] + [dims[a] for a in args])
        return [g[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    full = np.zeros((dims[args[0]],) + g.shape[1:])
    if op == "slice":
        full[p[0]:p[1]] = g
    else:  # gather
        np.add.at(full, list(p), g)
    return [full]


def _ref_values(graph, bindings, rows):
    batch = rows is not None or any(np.ndim(bindings.get(slot)) == 2 for slot in graph.slots)
    vals = []
    for node in graph.nodes:
        if node.op == "input":
            slot, dim = node.payload
            if slot not in bindings:
                raise UnboundSlot(f"slot {slot!r} not bound")
            v = np.asarray(bindings[slot], dtype=np.float64)
            if v.ndim == 2 and rows is None:
                rows = v.shape[0]
            vals.append(v.T if v.ndim == 2 else v[:, None] if batch else v)
        elif node.op == "const":
            vals.append(node.payload[:, None] if batch else node.payload)
        else:
            vals.append(_ref_value(node, [vals[a] for a in node.args], graph.dims))
    return vals, rows if batch else None


def reference_forward_eval(graph, bindings, rows=None):
    """diffcore.forward_eval as one Python step per node."""
    vals, rows = _ref_values(graph, bindings, rows)
    out = vals[graph.output]
    return out.copy() if rows is None else np.broadcast_to(out, (out.shape[0], rows)).T.copy()


def reference_reverse_vjp(graph, bindings, cotangent, at=None):
    """diffcore.reverse_vjp as one Python step per node, backwards: a node with no
    adjoint, or one of the `at` leaves, passes nothing on."""
    cot = np.asarray(cotangent, dtype=np.float64)
    vals, rows = _ref_values(graph, bindings, cot.shape[0] if cot.ndim == 2 else None)
    adj = [None] * len(graph.nodes)
    if rows is None:
        adj[graph.output] = cot.copy()
    else:
        adj[graph.output] = np.broadcast_to(cot.T if cot.ndim == 2 else cot[:, None],
                                            (graph.output_dim, rows)).copy()
    leaves = set(at or ())
    for i in reversed(range(len(graph.nodes))):
        node = graph.nodes[i]
        if node.op in ("input", "const") or adj[i] is None or i in leaves:
            continue
        x = [vals[a] for a in node.args]
        for a, part in zip(node.args, _ref_pullback(node, adj[i], x, vals[i], graph.dims)):
            adj[a] = part + 0.0 if adj[a] is None else adj[a] + part

    def read(i):
        dim = graph.dims[i]
        if adj[i] is None:
            return np.zeros(dim if rows is None else (rows, dim))
        return adj[i] if rows is None else np.broadcast_to(adj[i], (dim, rows)).T
    if at is not None:
        return np.concatenate([read(i) for i in at], axis=-1)
    return {slot: read(idx) for slot, (idx, _) in graph.slots.items()}
