import numpy as np
import pytest

from eqcausal import modelzoo
from eqcausal.errors import NonFiniteIterate, SingularLeastSquares, ZeroNorm
from eqcausal.fixedpoint import SolverConfig, anderson_solve, forward_iterate, relative_error, solve

from ._models import reference_anderson_solve


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
    report = forward_iterate(lambda x: 0.5 * x + 1.0, np.zeros(1), SolverConfig(method="forward"))
    assert report.converged
    assert report.x == pytest.approx([2.0], abs=1e-3)


def test_forward_identity_converges_immediately():
    report = forward_iterate(lambda x: x, np.array([3.0, -1.0]), SolverConfig(method="forward"))
    assert report.converged
    assert report.iterations == 0
    assert report.relative_error == 0.0


def test_forward_matches_inversion_oracle():
    f, x_star = contraction_2x2()
    report = forward_iterate(f, np.zeros(2), SolverConfig(method="forward", tol=1e-8))
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
    cfg_fwd = SolverConfig(method="forward", tol=1e-10)
    cfg_and = SolverConfig(tol=1e-10)
    rep_fwd = forward_iterate(f, np.zeros(1), cfg_fwd)
    rep_and = anderson_solve(f, np.zeros(1), cfg_and)
    assert rep_and.converged and rep_fwd.converged
    assert rep_and.x == pytest.approx([2.0], abs=1e-9)
    assert rep_and.iterations < rep_fwd.iterations


def test_anderson_m1_beta1_reduces_to_forward():
    rng = np.random.default_rng(3)
    f_base, _ = random_affine(rng, 4)
    seq_fwd, seq_and = [], []

    def wrap(seq):
        def f(x):
            seq.append(x.copy())
            return f_base(x)
        return f

    cfg_f = SolverConfig(method="forward", tol=1e-6, max_iter=50)
    cfg_a = SolverConfig(method="anderson", m=1, beta=1.0, tol=1e-6, max_iter=50)
    forward_iterate(wrap(seq_fwd), np.zeros(4), cfg_f)
    anderson_solve(wrap(seq_and), np.zeros(4), cfg_a)
    assert len(seq_fwd) == len(seq_and)
    for a, b in zip(seq_fwd, seq_and):
        np.testing.assert_array_equal(a, b)


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
        for method in ("forward", "anderson"):
            report = solve(f, np.zeros(n), SolverConfig(method=method))
            assert report.converged
            assert np.linalg.norm(report.x - x_star) / np.linalg.norm(x_star) <= 10 * cfg.tol


def test_anderson_beats_forward_at_dim_50_and_up():
    # qualitative speed property: mean iteration counts over seeds
    for n in (50, 100):
        fwd_iters, and_iters = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            f, _ = random_io_affine(rng, n)
            fwd_iters.append(forward_iterate(f, np.zeros(n), SolverConfig(method="forward")).iterations)
            and_iters.append(anderson_solve(f, np.zeros(n), SolverConfig(beta=2.0)).iterations)
        assert np.mean(and_iters) < np.mean(fwd_iters)


def test_report_returned_on_non_convergence():
    # period-2 oscillation never converges but stays finite
    report = forward_iterate(lambda x: 1.0 - x, np.zeros(1), SolverConfig(method="forward", max_iter=30))
    assert not report.converged
    assert report.iterations == 30


def test_divergence_raises_non_finite():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteIterate):
        forward_iterate(lambda x: 2.0 * x + 1.0, np.zeros(1), SolverConfig(method="forward"))


def test_singular_least_squares_only_without_ridge():
    # f(x) = x + 1 has constant residual, so residual differences vanish and
    # the unregularized Gram system is exactly singular
    f = lambda x: x + 1.0
    with pytest.raises(SingularLeastSquares):
        anderson_solve(f, np.zeros(2), SolverConfig(ridge=0.0, max_iter=10))
    report = anderson_solve(f, np.zeros(2), SolverConfig(max_iter=10))  # default ridge
    assert not report.converged


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="newton")
    with pytest.raises(ValueError):
        SolverConfig(m=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    cfg = SolverConfig()
    assert (cfg.m, cfg.beta, cfg.tol, cfg.max_iter) == (5, 2.0, 1e-4, 5000)


ANDERSON_CONFIGS = [SolverConfig(beta=1.0), SolverConfig(beta=2.0), SolverConfig(m=1, beta=1.0),
                    SolverConfig(m=2), SolverConfig(m=2, beta=1.0),
                    SolverConfig(m=8, beta=1.0, tol=1e-10), SolverConfig(ridge=0.0, beta=1.0)]


@pytest.mark.parametrize("dim", [2, 10, 50, 100, 200])
def test_anderson_iterates_equal_the_rebuilding_reference(dim):
    for seed in range(3):
        A, y = modelzoo.random_contraction(dim, seed, 0.9)
        f = lambda x: A @ x + y  # noqa: E731
        for cfg in ANDERSON_CONFIGS:
            for max_iter in (3, cfg.max_iter):  # a history still filling, and a full solve
                cfg_k = SolverConfig(cfg.method, cfg.m, cfg.beta, cfg.tol, max_iter, cfg.ridge)
                got = anderson_solve(f, np.zeros(dim), cfg_k)
                ref = reference_anderson_solve(f, np.zeros(dim), cfg_k)
                assert got.x.tobytes() == ref.x.tobytes()
                assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
                assert got.residual_norm == ref.residual_norm


def test_random_contraction_is_seeded_and_scaled():
    A, y = modelzoo.random_contraction(20, 3, 0.9)
    A2, y2 = modelzoo.random_contraction(20, 3, 0.9)
    assert A.tobytes() == A2.tobytes() and y.tobytes() == y2.tobytes()
    assert max(abs(np.linalg.eigvals(A))) == pytest.approx(0.9)
    assert np.all(A >= 0.0) and not np.diag(A).any()
