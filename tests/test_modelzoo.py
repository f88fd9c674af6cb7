import numpy as np
import pytest

from eqcausal import modelzoo, sscm
from eqcausal.errors import (DimensionMismatch, NegativeEntry, SingularMatrix,
                             SingularParameterization, TopologyViolation)
from eqcausal.fixedpoint import SolverConfig
from eqcausal.modelzoo import (DemandCurve, IoTable, hawkins_simon_check, impacts,
                               leontief_closed_form, leontief_model, leontief_synthetic,
                               motivating_closed_form, motivating_example,
                               price_rebound_model, rebound_3sector, total_energy_demand,
                               two_compartment_model)
from eqcausal.sscm import solve_equilibrium

TIGHT = SolverConfig(tol=1e-10)

A2 = np.array([[0.1, 0.2], [0.3, 0.1]])
Y2 = np.array([1.0, 1.0])


def table_2x2():
    return IoTable(A=A2, R=np.array([[1.0, 2.0]]), y=Y2,
                   sectors=("a", "b"), impacts=("ghg",))


def test_iotable_validation():
    with pytest.raises(NegativeEntry):
        IoTable(A=np.array([[-0.1, 0.0], [0.0, 0.0]]), R=np.zeros((1, 2)), y=Y2,
                sectors=("a", "b"), impacts=("i",))
    with pytest.raises(DimensionMismatch):
        IoTable(A=A2, R=np.zeros((1, 3)), y=Y2, sectors=("a", "b"), impacts=("i",))


def test_leontief_closed_form_2x2():
    x = leontief_closed_form(A2, Y2)
    # determinant of I - A is 0.75; solution ((0.9+0.2)/0.75, (0.3+0.9)/0.75)
    np.testing.assert_allclose(x, [1.1 / 0.75, 1.2 / 0.75])
    np.testing.assert_allclose(x, [1.46667, 1.6], atol=5e-6)


def test_leontief_closed_form_zero_coupling():
    np.testing.assert_array_equal(leontief_closed_form(np.zeros((2, 2)), Y2), Y2)


def test_leontief_closed_form_singular():
    with pytest.raises(SingularMatrix):
        leontief_closed_form(np.array([[1.0]]), np.array([2.0]))


def test_leontief_model_zero_coupling():
    table = IoTable(A=np.zeros((2, 2)), R=np.zeros((1, 2)), y=Y2,
                    sectors=("a", "b"), impacts=("i",))
    sol = solve_equilibrium(leontief_model(table), Y2, TIGHT)
    np.testing.assert_allclose(sol.x_star, Y2, atol=1e-10)


def test_leontief_model_matches_oracle_with_diagonal():
    spec = leontief_model(table_2x2())
    cfg = SolverConfig()
    sol = solve_equilibrium(spec, Y2, cfg)
    oracle = leontief_closed_form(A2, Y2)
    assert np.linalg.norm(sol.x_star - oracle) / np.linalg.norm(oracle) <= 10 * cfg.tol


def test_leontief_model_free_a_entries():
    spec = leontief_model(table_2x2(), free_a_entries=((0, 1),))
    assert spec.theta_dim == 3
    theta = spec.theta_ref.copy()
    sol = solve_equilibrium(spec, theta, TIGHT)
    np.testing.assert_allclose(sol.x_star, leontief_closed_form(A2, Y2), atol=1e-8)
    # perturbing the freed coefficient matches the closed form with A changed
    theta[1] = 0.35  # node 0's slice is (y_0, A_01)
    A_mod = A2.copy()
    A_mod[0, 1] = 0.35
    sol2 = solve_equilibrium(spec, theta, TIGHT)
    np.testing.assert_allclose(sol2.x_star, leontief_closed_form(A_mod, Y2), atol=1e-8)


def test_leontief_model_warns_above_unit_radius():
    table = IoTable(A=np.array([[0.0, 1.2], [1.2, 0.0]]), R=np.zeros((1, 2)), y=Y2,
                    sectors=("a", "b"), impacts=("i",))
    with pytest.warns(UserWarning):
        spec = leontief_model(table)
    with np.errstate(over="ignore", invalid="ignore"):
        report = solve_equilibrium(spec, Y2, SolverConfig(m=1, beta=1.0, max_iter=200)).report
    assert not report.converged or not np.isfinite(report.relative_error)


def test_impacts():
    np.testing.assert_array_equal(impacts(np.eye(2), [3.0, 4.0]), [3.0, 4.0])
    np.testing.assert_array_equal(impacts(np.array([[1.0, 2.0]]), [3.0, 4.0]), [11.0])
    np.testing.assert_array_equal(
        modelzoo.employment_distribution(np.array([1.0, 2.0]), np.array([3.0, 4.0])), [3.0, 8.0])
    with pytest.raises(DimensionMismatch):
        impacts(np.eye(3), [1.0, 2.0])


def test_hawkins_simon():
    assert hawkins_simon_check(np.zeros((3, 3)))
    assert not hawkins_simon_check(np.array([[1.2]]))
    assert hawkins_simon_check(A2)  # minors 0.9 and 0.75


def test_hawkins_simon_matches_leading_minors():
    # spectral radii spread over about 0.25-2, so both verdicts occur
    rng = np.random.default_rng(8)
    verdicts = set()
    for _ in range(40):
        n = int(rng.integers(1, 7))
        A = rng.uniform(0.0, 1.0, size=(n, n)) * rng.uniform(0.5, 4.0) / n
        M = np.eye(n) - A
        minors_positive = all(np.linalg.det(M[:k, :k]) > 0.0 for k in range(1, n + 1))
        assert hawkins_simon_check(A) == minors_positive
        verdicts.add(minors_positive)
    assert verdicts == {True, False}
    assert not hawkins_simon_check(np.full((2, 2), 0.5))  # second pivot is exactly 0


def test_hawkins_simon_implies_forward_convergence():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = rng.integers(2, 8)
        A = rng.uniform(0.0, 1.0, size=(n, n))
        A *= rng.uniform(0.3, 0.95) / max(abs(np.linalg.eigvals(A)))
        assert hawkins_simon_check(A)
        table = IoTable(A=A, R=np.zeros((1, n)), y=rng.uniform(0.5, 1.5, size=n),
                        sectors=tuple(f"s{k}" for k in range(n)), impacts=("i",))
        sol = solve_equilibrium(leontief_model(table), table.y, SolverConfig(m=1, beta=1.0))
        assert sol.report.converged


def test_motivating_example_reference_solution():
    spec = motivating_example()
    sol = solve_equilibrium(spec, spec.theta_ref, TIGHT)
    np.testing.assert_allclose(sol.x_star, [1.0, 0.56818, 0.22727], atol=5e-6)
    np.testing.assert_allclose(sol.x_star, motivating_closed_form(1.0, 0.5, 0.3, 0.4), atol=1e-8)


def test_motivating_example_free_subset():
    spec = motivating_example(free=("tau",))
    assert spec.theta_dim == 1
    sol = solve_equilibrium(spec, [1.2], TIGHT)
    np.testing.assert_allclose(sol.x_star, motivating_closed_form(1.2, 0.5, 0.3, 0.4), atol=1e-8)


def test_motivating_closed_form_invariance_under_reciprocal_scaling():
    rng = np.random.default_rng(0)
    for _ in range(20):
        tau, alpha = rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.8)
        beta, gamma = rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.7)
        u_y = rng.uniform(0.5, 2.0)
        base = motivating_closed_form(tau, alpha, beta, gamma)
        scaled = motivating_closed_form(tau, alpha, beta, gamma, u_y=u_y, u_z=1.0 / u_y)
        assert scaled[2] == pytest.approx(base[2], abs=1e-12)


def test_motivating_example_singular_parameterization():
    with pytest.raises(SingularParameterization):
        motivating_example(beta=2.0, gamma=0.5)


def test_oracle_agreement_over_random_theta():
    spec = motivating_example()
    cfg = SolverConfig()
    rng = np.random.default_rng(11)
    for _ in range(100):
        theta = np.array([rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.8),
                          rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.7)])
        sol = solve_equilibrium(spec, theta, cfg)
        oracle = motivating_closed_form(*theta)
        assert np.linalg.norm(sol.x_star - oracle) / np.linalg.norm(oracle) <= 10 * cfg.tol


# --- price-rebound model ---

def test_rebound_rejects_degenerate_energy_price():
    inst = rebound_3sector()
    with pytest.raises(DimensionMismatch):
        price_rebound_model(inst.table, 0, 0.0, inst.curves, (0, 1))


def test_rebound_rejects_bad_efficiency_slot():
    inst = rebound_3sector()
    with pytest.raises(TopologyViolation):
        price_rebound_model(inst.table, 0, 1.0, inst.curves, (0, 0))
    with pytest.raises(TopologyViolation):
        price_rebound_model(inst.table, 0, 1.0, inst.curves, (1, 2))


def test_rebound_zero_elasticity_reduces_to_leontief():
    inst = rebound_3sector(target_elasticity=0.0)
    sol = solve_equilibrium(inst.spec, inst.spec.theta_ref, TIGHT)
    x = sol.x_star[:3]
    np.testing.assert_allclose(x, leontief_closed_form(inst.table.A, modelzoo.REBOUND_Y0), atol=1e-8)
    # efficiency gain strictly decreases intermediate energy demand
    sol_u = solve_equilibrium(inst.spec, inst.spec.theta_ref, TIGHT, u=[0.7])
    e_ref = total_energy_demand(inst.table.A, 0, x)
    e_int = total_energy_demand(inst.table.A, 0, sol_u.x_star[:3], 0.7, (0, 1))
    assert e_int < e_ref


def test_rebound_prices_match_closed_form():
    inst = rebound_3sector()
    sol = solve_equilibrium(inst.spec, inst.spec.theta_ref, TIGHT)
    p = sol.x_star[3:6]
    np.testing.assert_allclose(p, modelzoo.reference_prices(inst.table.A, 0, 1.0), atol=1e-8)
    # demand at the reference point equals base demand (prices sit at p0)
    np.testing.assert_allclose(sol.x_star[6:], modelzoo.REBOUND_Y0, atol=1e-7)


def test_rebound_backfire_at_frozen_elasticity():
    inst = rebound_3sector()
    ref = solve_equilibrium(inst.spec, inst.spec.theta_ref, TIGHT)
    lie = solve_equilibrium(inst.spec, inst.spec.theta_ref, TIGHT, u=[0.7])
    e_ref = total_energy_demand(inst.table.A, 0, ref.x_star[:3])
    e_lie = total_energy_demand(inst.table.A, 0, lie.x_star[:3], 0.7, (0, 1))
    assert e_lie > e_ref  # rebound exceeds the direct savings


def test_rebound_monotone_in_elasticity():
    values = []
    for eps in (0.0, 0.5, 1.0, 2.0, 3.0):
        inst = rebound_3sector(target_elasticity=eps)
        sol = solve_equilibrium(inst.spec, inst.spec.theta_ref, TIGHT, u=[0.7])
        values.append(total_energy_demand(inst.table.A, 0, sol.x_star[:3], 0.7, (0, 1)))
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def test_rebound_validates_and_passes_diffeo_check():
    inst = rebound_3sector()
    assert sscm.validate(inst.spec) == []
    sol = solve_equilibrium(inst.spec, inst.spec.theta_ref, TIGHT)
    rep = sscm.check_local_diffeomorphism(inst.spec, sol.x_star, inst.spec.theta_ref, tol=1e-6)
    assert rep.is_solution and rep.jacobian_invertible
    assert hawkins_simon_check(inst.table.A)


def test_demand_curve_is_monotone_decreasing():
    curve = DemandCurve(y0=(1.0,), p0=(0.6,), elasticity=(1.5,))
    prices = np.linspace(0.2, 1.2, 30)
    vals = [curve([p])[0] for p in prices]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# --- two-compartment instance ---

def test_two_compartment_instance_is_well_formed():
    inst = two_compartment_model()
    assert sscm.validate(inst.spec) == []
    from eqcausal.interventions import compartment_structure_violations
    assert compartment_structure_violations(inst.spec, inst.plan) == []
    sol = solve_equilibrium(inst.spec, inst.spec.theta_ref, SolverConfig())
    assert sol.report.converged


# --- synthetic tables ---

def test_leontief_oracle_agreement_over_random_theta():
    table = leontief_synthetic(10)
    spec = leontief_model(table)
    cfg = SolverConfig()
    rng = np.random.default_rng(8)
    lo, hi = spec.theta_box[:, 0], spec.theta_box[:, 1]
    for _ in range(100):
        theta = rng.uniform(lo, hi)
        sol = solve_equilibrium(spec, theta, cfg)
        oracle = leontief_closed_form(table.A, theta)
        assert np.linalg.norm(sol.x_star - oracle) / np.linalg.norm(oracle) <= 10 * cfg.tol


def test_leontief_synthetic_frozen_and_solvable():
    t1 = leontief_synthetic(10)
    t2 = leontief_synthetic(10)
    assert t1.A.tobytes() == t2.A.tobytes()
    assert hawkins_simon_check(t1.A)
    spec = leontief_model(t1)
    sol = solve_equilibrium(spec, spec.theta_ref, SolverConfig())
    assert sol.report.converged
    np.testing.assert_allclose(sol.x_star, leontief_closed_form(t1.A, t1.y),
                               atol=1e-3)
