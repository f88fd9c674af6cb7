import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eqcausal import fixedpoint, modelzoo
from eqcausal.errors import DimensionMismatch, NonFiniteIterate, ShapeMismatch, SingularLeastSquares, ZeroNorm
from eqcausal.fixedpoint import SolverConfig, anderson_solve, forward_iterate, relative_error, solve

from ._models import random_leontief, reference_anderson_solve, reference_random_contraction


def contraction_2x2():
    A = np.array([[0.1, 0.2], [0.3, 0.1]])
    y = np.array([1.0, 1.0])
    return (lambda x: A @ x + y), np.linalg.solve(np.eye(2) - A, y)


def random_affine(rng, n, radius=0.9):
    A = rng.normal(size=(n, n))
    A *= radius / max(abs(np.linalg.eigvals(A)))
    y = rng.uniform(0.5, 1.5, size=n)
    return (lambda x: A @ x + y), np.linalg.solve(np.eye(n) - A, y)


def random_io_affine(rng, n, radius=0.9):
    # nonnegative coefficient matrices (input-output style) have a dominant
    # Perron mode, the regime where Anderson acceleration pays off
    A = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(A, 0.0)
    A *= radius / max(abs(np.linalg.eigvals(A)))
    y = rng.uniform(0.5, 1.5, size=n)
    return (lambda x: A @ x + y), np.linalg.solve(np.eye(n) - A, y)


def test_forward_scalar_affine():
    report = forward_iterate(lambda x: 0.5 * x + 1.0, np.zeros(1), SolverConfig())
    assert report.converged
    assert report.x == pytest.approx([2.0], abs=1e-3)


def test_forward_identity_converges_immediately():
    report = forward_iterate(lambda x: x, np.array([3.0, -1.0]), SolverConfig())
    assert report.converged
    assert report.iterations == 0
    assert report.relative_error == 0.0


def test_forward_matches_inversion_oracle():
    f, x_star = contraction_2x2()
    report = forward_iterate(f, np.zeros(2), SolverConfig(tol=1e-8))
    np.testing.assert_allclose(report.x, x_star, atol=1e-6)


def test_anderson_matches_inversion_oracle():
    f, x_star = contraction_2x2()
    cfg = SolverConfig()
    report = anderson_solve(f, np.zeros(2), cfg)
    assert report.converged
    np.testing.assert_allclose(report.x, x_star, atol=2 * cfg.tol * np.linalg.norm(x_star))


def test_anderson_near_exact_on_affine_with_full_history():
    # with history covering the state dimension, the residual least-squares
    # problem is solved exactly on affine maps, so convergence takes at most
    # n + 1 steps beyond the history warmup
    rng = np.random.default_rng(0)
    for n in (3, 5):
        f, x_star = random_affine(rng, n)
        cfg = SolverConfig(m=n + 2, beta=1.0, tol=1e-10, ridge=1e-14)
        report = anderson_solve(f, np.zeros(n), cfg)
        assert report.converged
        assert report.iterations <= cfg.m + n + 1
        np.testing.assert_allclose(report.x, x_star, atol=1e-8)


def test_anderson_faster_than_forward_on_scalar():
    f = lambda x: 0.5 * x + 1.0
    cfg = SolverConfig(tol=1e-10)
    rep_fwd = forward_iterate(f, np.zeros(1), cfg)
    rep_and = anderson_solve(f, np.zeros(1), cfg)
    assert rep_and.converged and rep_fwd.converged
    assert rep_and.x == pytest.approx([2.0], abs=1e-9)
    assert rep_and.iterations < rep_fwd.iterations


def test_anderson_m1_beta1_reduces_to_forward():
    rng = np.random.default_rng(3)
    f_base, _ = random_affine(rng, 4)
    cfg = SolverConfig(m=1, beta=1.0, tol=1e-6, max_iter=300)
    plain = [np.zeros(4)]  # x_{k+1} = f(x_k) until the relative error meets tol
    while not plain[-1].any() or relative_error(f_base, plain[-1]) > cfg.tol:
        plain.append(f_base(plain[-1]))
    for solver in (anderson_solve, forward_iterate):
        seen = []

        def f(x):
            seen.append(x.copy())
            return f_base(x)

        report = solver(f, np.zeros(4), cfg)
        assert report.converged and report.iterations == len(plain) - 1
        assert len(seen) == len(plain)
        for got, want in zip(seen, plain):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(report.x, plain[-1])


@pytest.mark.parametrize("d", [10, 30])
def test_default_config_meets_a_tight_tolerance_on_sparse_contractions(d):
    # with a ridge not scaled to the residual differences, beta = 2 stalled near 1e-6 here
    rng = np.random.default_rng(d)
    cfg = SolverConfig(tol=1e-10)
    for _ in range(10):
        A, y = random_leontief(rng, d)
        f = lambda x: A @ x + y  # noqa: E731
        fwd = forward_iterate(f, np.zeros(d), cfg)
        report = anderson_solve(f, np.zeros(d), cfg)
        assert fwd.converged and report.converged
        assert report.iterations <= fwd.iterations
        assert anderson_solve(f, np.zeros(d), replace(cfg, beta=2.0)).converged


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_ridge_is_relative_to_the_residual_differences(beta):
    # x* = 1e9 and every residual difference is 1e-9 times its step: a ridge of
    # 1e-8 added as is would swamp the Gram matrix and stall the solve
    f = lambda x: (1.0 - 1e-9) * x + 1.0  # noqa: E731
    report = anderson_solve(f, np.zeros(1), SolverConfig(tol=1e-10, beta=beta))
    assert report.converged
    assert report.x == pytest.approx([1e9], rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), radius=st.floats(0.05, 0.97),
       signed=st.booleans(), tol=st.sampled_from([1e-4, 1e-8, 1e-10]))
def test_default_config_converges_whenever_forward_iteration_does(seed, d, radius, signed, tol):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d)) if signed else rng.uniform(0.0, 1.0, size=(d, d))
    rho = max(abs(np.linalg.eigvals(A)))
    assume(rho > 0.0)
    A *= radius / rho
    y = rng.uniform(0.5, 1.5, size=d)
    f = lambda x: A @ x + y  # noqa: E731
    cfg = SolverConfig(tol=tol)
    if forward_iterate(f, np.zeros(d), cfg).converged:
        assert anderson_solve(f, np.zeros(d), cfg).converged


def test_relative_error_examples():
    f_fixed = lambda x: x
    assert relative_error(f_fixed, np.array([1.0, 2.0])) == 0.0
    # residual [-1, 0] against ||x|| = 1
    val = relative_error(lambda x: x + np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert val == pytest.approx(1.0)
    with pytest.raises(ZeroNorm):
        relative_error(lambda x: x + 1.0, np.zeros(2))


def test_converged_solution_meets_default_tolerance():
    f, _ = contraction_2x2()
    report = anderson_solve(f, np.zeros(2), SolverConfig())
    assert relative_error(f, report.x) <= 1e-4


def test_solver_agreement_on_random_contractions():
    rng = np.random.default_rng(42)
    cfg = SolverConfig()
    for n in (2, 7, 50, 200):
        f, x_star = random_affine(rng, n)
        for report in (forward_iterate(f, np.zeros(n), cfg), solve(f, np.zeros(n), cfg)):
            assert report.converged
            assert np.linalg.norm(report.x - x_star) / np.linalg.norm(x_star) <= 10 * cfg.tol


def test_anderson_beats_forward_at_dim_50_and_up():
    # qualitative speed property: mean iteration counts over seeds
    for n in (50, 100):
        fwd_iters, and_iters = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            f, _ = random_io_affine(rng, n)
            fwd_iters.append(forward_iterate(f, np.zeros(n), SolverConfig()).iterations)
            and_iters.append(anderson_solve(f, np.zeros(n), SolverConfig(beta=2.0)).iterations)
        assert np.mean(and_iters) < np.mean(fwd_iters)


def test_report_returned_on_non_convergence():
    # period-2 oscillation never converges but stays finite
    report = forward_iterate(lambda x: 1.0 - x, np.zeros(1), SolverConfig(max_iter=30))
    assert not report.converged
    assert report.iterations == 30


def test_divergence_raises_non_finite():
    # the iterates' squared norms overflow long before f(x) does: the error of such a
    # row is inf, with no RuntimeWarning beyond numpy's own overflow one; at slope 1.5
    # ||x||^2 overflows while ||f(x) - x||^2 does not
    for slope in (2.0, 1.5):
        for x0 in (np.zeros(1), np.zeros((3, 1))):
            with np.errstate(over="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(NonFiniteIterate):
                    forward_iterate(lambda x: slope * x + 1.0, x0, SolverConfig())


@pytest.mark.parametrize("cfg", [SolverConfig(m=1, tol=1e-12), SolverConfig(tol=1e-12)])
def test_a_nan_in_a_settled_row_fails_the_batch_at_its_iteration(cfg):
    # row 0 (affine) settles long before row 1 (cos); a NaN in its later f value still
    # fails the batch, at the iteration whose f value holds it, with no RuntimeWarning
    def both(x):
        return np.stack([0.1 * x[0] + 1.0, np.cos(x[1])])

    clean = anderson_solve(both, np.zeros((2, 3)), cfg)
    settled = int(clean.row_iterations[0])
    assert settled + 1 < clean.row_iterations[1]
    calls = []

    def breaks_late(x):
        fx = both(x)
        if len(calls) == settled + 1:  # f(x_{settled + 1}); row 0 still holds x_settled
            fx[0, 1] = np.nan
        calls.append(x)
        return fx

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteIterate, match=f"at iteration {settled + 1}$"):
            anderson_solve(breaks_late, np.zeros((2, 3)), cfg)


def test_a_finite_f_whose_squared_residual_overflows_runs_on():
    # ||f(x) - x||^2 overflows while f(x) stays finite: numpy's own overflow warning is
    # all that is raised, and under over="ignore" the row's error is inf until max_iter
    def far(x):
        return x + 1e200

    cfg = SolverConfig(max_iter=4)
    for x0 in (np.zeros(2), np.zeros((3, 2))):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow encountered in vecdot"):
                anderson_solve(far, x0, cfg)
            with np.errstate(over="ignore"):
                report = anderson_solve(far, x0, cfg)
        assert (report.iterations, report.converged) == (4, False)
        assert np.all(report.residual_norm == np.inf) and np.all(report.relative_error == np.inf)
        np.testing.assert_array_equal(report.x, np.full_like(x0, 4e200))


def test_empty_batch_is_a_shape_mismatch():
    calls = []
    for solver in (anderson_solve, forward_iterate):
        with pytest.raises(ShapeMismatch, match="a batch needs at least one row"):
            solver(lambda x: calls.append(x) or 0.5 * x, np.zeros((0, 3)), SolverConfig())
    assert not calls  # refused before f is called


@pytest.mark.parametrize("field", ["m", "max_iter"])
def test_a_non_integer_count_is_refused(field):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolverConfig(**{field: 2.5})
    assert getattr(SolverConfig(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("x0, fx, message", [
    (np.ones(3), lambda x: np.ones(2), r"shape \(2,\) for an iterate of shape \(3,\)"),
    (np.ones(3), lambda x: 0.5, r"shape \(\) for an iterate of shape \(3,\)"),
    (np.ones((2, 3)), lambda x: 0.5 * x[0], r"shape \(3,\) for an iterate of shape \(2, 3\)"),
])
def test_f_of_another_shape_is_a_shape_mismatch(x0, fx, message):
    for solver in (anderson_solve, forward_iterate):
        with pytest.raises(ShapeMismatch, match=message):
            solver(fx, x0, SolverConfig())


def test_singular_least_squares_only_without_ridge():
    # f(x) = x + 1 has constant residual, so residual differences vanish and
    # the unregularized Gram system is exactly singular
    f = lambda x: x + 1.0
    with pytest.raises(SingularLeastSquares):
        anderson_solve(f, np.zeros(2), SolverConfig(ridge=0.0, max_iter=10))
    report = anderson_solve(f, np.zeros(2), SolverConfig(max_iter=10))  # default ridge
    assert not report.converged


def test_singular_least_squares_raises_without_warning_and_keeps_the_error_state():
    f = lambda x: x + 1.0
    for outer in ({}, {"all": "raise"}, {"all": "warn"}, {"all": "ignore"}):
        with np.errstate(**outer):
            before = np.geterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for x0 in (np.zeros(2), np.zeros((3, 2))):
                    with pytest.raises(SingularLeastSquares, match="singular at iteration 1 "):
                        anderson_solve(f, x0, SolverConfig(ridge=0.0, max_iter=10))
            assert np.geterr() == before


def test_least_squares_gufunc_equals_numpy_solve_bit_for_bit():
    # the Anderson loop calls numpy's private solve gufunc; it must give np.linalg.solve's
    # bits on random systems and on ridged Gram matrices of the loop's shapes
    rng = np.random.default_rng(23)
    for k in range(1, 8):
        for rows in range(1, 51):
            a = rng.normal(size=(rows, k, k))
            d_g = rng.normal(size=(rows, k, 2 * k + 1)) * rng.uniform(1e-6, 1e3, size=(rows, 1, 1))
            gram = d_g @ d_g.mT
            gram += 1e-8 * np.trace(gram, axis1=1, axis2=2)[:, None, None] * np.eye(k)
            for m in (a, gram):
                b = rng.normal(size=(rows, k))
                want = np.linalg.solve(m, b[..., None])[..., 0]
                got = fixedpoint._solve(m, b)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (k, rows)
    with pytest.raises(np.linalg.LinAlgError):
        fixedpoint._solve(np.zeros((2, 3, 3)), np.ones((2, 3)))


@pytest.mark.parametrize("field", ["m", "max_iter"])
def test_a_bool_count_is_refused(field):
    # True would run as 1
    for value in (True, False, np.True_):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverConfig(**{field: value})


@pytest.mark.parametrize("field", ["beta", "tol", "ridge"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_setting_is_refused(field, value):
    # at tol = inf a solve would stop at iteration 0
    with pytest.raises(ValueError, match=f"{field} must be .* and finite"):
        SolverConfig(**{field: value})


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(m=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    cfg = SolverConfig()
    assert (cfg.m, cfg.beta, cfg.tol, cfg.max_iter, cfg.ridge) == (8, 1.0, 1e-4, 5000, 1e-8)


ANDERSON_CONFIGS = [SolverConfig(m=5, beta=1.0), SolverConfig(m=5, beta=2.0), SolverConfig(m=1, beta=1.0),
                    SolverConfig(m=2, beta=2.0), SolverConfig(m=2, beta=1.0),
                    SolverConfig(m=8, beta=1.0, tol=1e-10), SolverConfig(m=5, ridge=0.0, beta=1.0),
                    SolverConfig()]


@pytest.mark.parametrize("dim", [2, 10, 50, 100, 200])
def test_anderson_iterates_equal_the_rebuilding_reference(dim):
    for seed in range(3):
        A, y = modelzoo.random_contraction(dim, seed, 0.9)
        f = lambda x: A @ x + y  # noqa: E731
        for cfg in ANDERSON_CONFIGS:
            for max_iter in (3, cfg.max_iter):  # a history still filling, and a full solve
                cfg_k = replace(cfg, max_iter=max_iter)
                got = anderson_solve(f, np.zeros(dim), cfg_k)
                ref = reference_anderson_solve(f, np.zeros(dim), cfg_k)
                assert got.x.tobytes() == ref.x.tobytes()
                assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
                assert got.residual_norm == ref.residual_norm
                assert got.relative_error == ref.relative_error


@pytest.mark.parametrize("dim", [2, 10, 50])
def test_vector_solve_is_the_one_row_batch(dim):
    A, y = modelzoo.random_contraction(dim, 1, 0.9)
    f = lambda x: A @ x + y  # noqa: E731

    def rows(x):
        return np.stack([f(row) for row in x])

    verdicts = set()
    for cfg in ANDERSON_CONFIGS:
        for max_iter in (3, cfg.max_iter):  # mostly unconverged, and a full solve
            cfg_k = replace(cfg, max_iter=max_iter)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                vec = anderson_solve(f, np.zeros(dim), cfg_k)
                batch = anderson_solve(rows, np.zeros((1, dim)), cfg_k)
            assert type(vec.residual_norm) is float and type(vec.relative_error) is float
            assert type(vec.iterations) is int and type(vec.converged) is bool
            assert vec.row_iterations is None and vec.row_converged is None
            assert vec.x.shape == (dim,) and vec.x.tobytes() == batch.x[0].tobytes()
            assert np.float64(vec.residual_norm).tobytes() == batch.residual_norm[0].tobytes()
            assert np.float64(vec.relative_error).tobytes() == batch.relative_error[0].tobytes()
            assert (vec.iterations, vec.converged) == (batch.row_iterations[0], batch.row_converged[0])
            verdicts.add(vec.converged)
    assert verdicts == {True, False}


def test_random_contraction_is_seeded_and_scaled():
    A, y = modelzoo.random_contraction(20, 3, 0.9)
    A2, y2 = modelzoo.random_contraction(20, 3, 0.9)
    assert A.tobytes() == A2.tobytes() and y.tobytes() == y2.tobytes()
    assert max(abs(np.linalg.eigvals(A))) == pytest.approx(0.9)
    assert np.all(A >= 0.0) and not np.diag(A).any()


# (3, 2707) is nearly periodic (eigenvalues 0.5877 and -0.5869), the slowest of 20,000
# d = 3 seeds under powers of A; every 2 x 2 one, (2, 17) among them, is periodic
@pytest.mark.parametrize("dim,seed", [(d, s) for d in (2, 3, 10, 50, 100, 200) for s in range(20)]
                         + [(3, 2707)])
def test_random_contraction_radius_matches_the_eigenvalues(dim, seed):
    A, _ = modelzoo.random_contraction(dim, seed, 0.9)
    assert max(abs(np.linalg.eigvals(A))) == pytest.approx(0.9, rel=1e-12, abs=0.0)


# each stack mixes a seed whose Perron iteration is slow with fast ones, so its rows stop at
# very different steps: (2, 17) is periodic and (3, 2707) nearly so (see above)
@pytest.mark.parametrize("dim,seeds", [(2, [1, 17, 2, 3]), (3, [2707, 0, 1, 2, 3]), (10, list(range(6))),
                                       (50, [7, 3, 11]), (200, [1, 2, 3])])
def test_random_contractions_rows_equal_the_one_seed_contractions(dim, seeds):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        A, y = modelzoo.random_contractions(dim, seeds, 0.9)
        assert A.shape == (len(seeds), dim, dim) and y.shape == (len(seeds), dim)
        for a, b, seed in zip(A, y, seeds):
            for a1, b1 in (modelzoo.random_contraction(dim, seed, 0.9),
                           reference_random_contraction(dim, seed, 0.9)):
                assert a.tobytes() == a1.tobytes() and b.tobytes() == b1.tobytes()


@pytest.mark.parametrize("dim", [0, 1])
def test_random_contraction_needs_two_dimensions(dim):
    with pytest.raises(DimensionMismatch, match="dim >= 2"):
        modelzoo.random_contraction(dim, 0, 0.9)
    with pytest.raises(DimensionMismatch, match="dim >= 2"):
        modelzoo.random_contractions(dim, [0, 1], 0.9)
