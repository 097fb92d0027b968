from __future__ import annotations

import math

import numpy as np
import pytest

from subnewton.linsolve import PATH_CG, PATH_FALLBACK, InexactnessSpec, \
    NotPositiveDefiniteError, _cg_iterates, solve_exact, solve_inexact, verify_inexact


def random_spd(rng, p, shift=0.1):
    a = rng.standard_normal((p + 5, p))
    return a.T @ a / (p + 5) + shift * np.eye(p)


# -- exact solve --------------------------------------------------------------


def test_exact_identity_system():
    v = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(solve_exact(np.eye(3), v), v, atol=1e-14)


def test_exact_diagonal_system():
    np.testing.assert_allclose(solve_exact(np.diag([2.0, 4.0]), np.array([2.0, 4.0])),
                               [1.0, 1.0], atol=1e-14)


def test_exact_residual_contract_random_spd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = random_spd(rng, 20)
        rhs = rng.standard_normal(20)
        y = solve_exact(h, rhs)
        assert np.linalg.norm(h @ y - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_exact_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        solve_exact(np.diag([1.0, -1.0]), np.ones(2))


# -- inexactness spec ---------------------------------------------------------


def test_spec_ranges_enforced():
    with pytest.raises(ValueError):
        InexactnessSpec(theta1=1.0, theta2=0.5)
    with pytest.raises(ValueError):
        InexactnessSpec(theta1=0.5, theta2=-0.1)
    InexactnessSpec(theta1=0.0, theta2=0.0)  # boundary values allowed


# -- inexact solve ------------------------------------------------------------


def test_theta1_zero_gives_exact_solution():
    rng = np.random.default_rng(1)
    h = random_spd(rng, 12)
    g = rng.standard_normal(12)
    spec = InexactnessSpec(theta1=0.0, theta2=0.7)
    p, _ = solve_inexact(h, g, spec)
    np.testing.assert_allclose(p, -solve_exact(h, g), atol=1e-12)
    diag = verify_inexact(h, g, p, spec)
    assert diag.ok and diag.residual_ratio <= 1e-9


def test_identity_converges_in_one_cg_step():
    g = np.array([0.3, -1.2, 0.7])
    p, _ = solve_inexact(np.eye(3), g, InexactnessSpec(theta1=0.5, theta2=0.5))
    np.testing.assert_array_equal(p, -g)


def test_random_spd_meets_contract():
    rng = np.random.default_rng(2)
    spec = InexactnessSpec(theta1=1e-2, theta2=0.5)
    for _ in range(10):
        h = random_spd(rng, 30)
        g = rng.standard_normal(30)
        p, _ = solve_inexact(h, g, spec)
        assert verify_inexact(h, g, p, spec).ok


def test_descent_whenever_pd():
    rng = np.random.default_rng(3)
    for theta1 in (1e-3, 0.1, 0.5, 0.9):
        spec = InexactnessSpec(theta1=theta1, theta2=0.5)
        h = random_spd(rng, 15)
        g = rng.standard_normal(15)
        p, _ = solve_inexact(h, g, spec)
        assert float(p @ g) < 0


def test_zero_gradient_rejected():
    with pytest.raises(ValueError):
        solve_inexact(np.eye(2), np.zeros(2), InexactnessSpec(theta1=0.1, theta2=0.1))


def test_ill_conditioned_system_falls_back_within_flop_parity_budget():
    """CG cannot reach theta1 on a 1e8-conditioned system within ceil(p/6)
    matvecs (one Cholesky's worth of flops), so the solve factors instead.

    g = H^(1/2) z keeps ||H|| ||H^-1 g|| / ||g|| near 1e4, so the exact solve
    can still meet its 1e-10 residual contract in double precision."""
    rng = np.random.default_rng(7)
    p = 120
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = np.logspace(0, 8, p)
    h = (q * eigs) @ q.T
    h = 0.5 * (h + h.T)
    g = (q * np.sqrt(eigs)) @ rng.standard_normal(p)
    spec = InexactnessSpec(theta1=1e-2, theta2=0.5)
    direction, diag = solve_inexact(h, g, spec)
    assert diag.path == PATH_FALLBACK
    assert 1 <= diag.cg_iters <= math.ceil(p / 6)
    np.testing.assert_array_equal(direction, -solve_exact(h, g))
    assert diag.ok
    assert verify_inexact(h, g, direction, spec).ok


def test_well_conditioned_system_accepted_by_cg_under_budget():
    rng = np.random.default_rng(8)
    p = 60
    h = random_spd(rng, p, shift=1.0)
    g = rng.standard_normal(p)
    spec = InexactnessSpec(theta1=1e-2, theta2=0.5)
    direction, diag = solve_inexact(h, g, spec)
    assert diag.path == PATH_CG
    assert 1 <= diag.cg_iters < math.ceil(p / 6)
    check = verify_inexact(h, g, direction, spec)
    assert check.ok and diag.ok
    assert diag.residual_ratio == check.residual_ratio <= 1e-2


def test_cg_energy_error_monotone():
    """||p_k - p*||_H never increases along the CG sequence (direct-solve oracle)."""
    rng = np.random.default_rng(4)
    h = random_spd(rng, 25)
    g = rng.standard_normal(25)
    p_star = -solve_exact(h, g)
    energies = []
    for p, _ in _cg_iterates(h, g, 25):
        e = p - p_star
        energies.append(float(e @ h @ e))
    assert len(energies) > 3
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12 * max(energies))


# -- verification -------------------------------------------------------------


def test_verify_exact_solution():
    rng = np.random.default_rng(5)
    h = random_spd(rng, 10)
    g = rng.standard_normal(10)
    diag = verify_inexact(h, g, -solve_exact(h, g), InexactnessSpec(0.1, 0.1))
    assert diag.ok
    assert diag.residual_ratio <= 1e-10


def test_verify_zero_direction_fails():
    diag = verify_inexact(np.eye(3), np.ones(3), np.zeros(3),
                          InexactnessSpec(0.99, 0.99))
    assert not diag.ok
    assert diag.residual_ratio == pytest.approx(1.0)


def test_verify_doubled_solution_on_identity():
    g = np.array([1.0, 2.0])
    p = -2.0 * g  # exact solve on identity, scaled by 2
    diag = verify_inexact(np.eye(2), g, p, InexactnessSpec(0.9, 0.0))
    assert diag.residual_ratio == pytest.approx(1.0)
    assert not diag.ok


def test_theta1_threshold_forces_strong_descent():
    """Below theta1 = (1/2) sqrt((1-eps)/kt), accepted directions satisfy
    p'g <= -||g||^2 / (2 khat) on systems whose spectrum obeys the event."""
    rng = np.random.default_rng(6)
    for _ in range(20):
        h = random_spd(rng, 12, shift=0.3)
        eigs = np.linalg.eigvalsh(h)
        gamma, khat = float(eigs[0]), float(eigs[-1])
        eps = 0.3
        # event lambda_min(H) >= (1-eps)*gamma holds by construction
        kt = khat / gamma
        theta1 = 0.5 * np.sqrt((1 - eps) / kt)
        g = rng.standard_normal(12)
        p, _ = solve_inexact(h, g, InexactnessSpec(theta1=theta1, theta2=0.5))
        assert float(p @ g) <= -float(g @ g) / (2 * khat) * (1 - 1e-9)
