from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg

from subnewton import linsolve
from subnewton.linsolve import EXACT_RESIDUAL_RTOL, PATH_CG, PATH_FALLBACK, InexactnessSpec, \
    NotPositiveDefiniteError, _cg_iterates, solve_exact, solve_floored, solve_inexact, \
    spd_inverse, verify_inexact
from subnewton.regularize import spectral_floor, spectrum
from subnewton.sampling import draw


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


def test_theta1_zero_is_left_to_solve_exact():
    """theta1 = 0 asks for the exact solve, which is solve_exact's; the
    exact solution still meets the contract at theta1 = 0."""
    rng = np.random.default_rng(1)
    h = random_spd(rng, 12)
    g = rng.standard_normal(12)
    spec = InexactnessSpec(theta1=0.0, theta2=0.7)
    with pytest.raises(ValueError, match="solve_exact"):
        solve_inexact(h, g, spec)
    assert verify_inexact(h, g, -solve_exact(h, g), spec).ok


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


# -- preconditioned CG ----------------------------------------------------------


def test_identity_preconditioner_reproduces_plain_cg():
    rng = np.random.default_rng(11)
    h = random_spd(rng, 30)
    g = rng.standard_normal(30)
    plain = list(_cg_iterates(h, g, 10))
    pcg = list(_cg_iterates(h, g, 10, np.eye(30)))
    assert len(plain) == len(pcg) == 10
    for (p1, r1), (p2, r2) in zip(plain, pcg):
        np.testing.assert_allclose(p2, p1, rtol=1e-10, atol=1e-12)
        assert r2 == pytest.approx(r1, rel=1e-8, abs=1e-14)


def test_exact_inverse_preconditioner_meets_the_contract_in_one_iteration():
    rng = np.random.default_rng(12)
    h = random_spd(rng, 50, shift=0.01)
    g = rng.standard_normal(50)
    spec = InexactnessSpec(theta1=1e-6, theta2=0.5)
    direction, diag = solve_inexact(h, g, spec, precond=np.linalg.inv(h))
    assert diag.path == PATH_CG and diag.cg_iters == 1
    assert verify_inexact(h, g, direction, spec).ok


def test_stale_preconditioner_from_another_sample_meets_the_contract(ill_logistic):
    """Plain CG misses theta1 on this 1e8-conditioned sample; preconditioned by
    the inverse of another sample of the same problem, CG meets the contract
    within budget, checked against the fresh operator."""
    m = ill_logistic
    rng = np.random.default_rng(14)
    x = np.zeros(m.p)
    g = m.gradient(x)
    spec = InexactnessSpec(theta1=1e-2, theta2=0.5)
    older, fresh = (m.sampled_hessian(draw(m.n, 400, "without", rng).indices, x)
                    for _ in range(2))
    _, plain = solve_inexact(fresh, g, spec)
    assert plain.path == PATH_FALLBACK
    direction, diag = solve_inexact(fresh, g, spec, precond=spd_inverse(older.dense()))
    assert diag.path == PATH_CG
    assert 1 <= diag.cg_iters <= math.ceil(m.p / 6)
    check = verify_inexact(fresh.dense(), g, direction, spec)
    assert check.ok
    assert check.residual_ratio == pytest.approx(diag.residual_ratio, rel=1e-6)


def test_fallback_forms_no_inverse(monkeypatch):
    """A fallback solves with the Cholesky factor and never calls potri,
    with or without a preconditioner."""
    rng = np.random.default_rng(15)
    h = random_spd(rng, 40, shift=1.0)
    g = rng.standard_normal(40)
    spec = InexactnessSpec(theta1=1e-12, theta2=0.5)  # CG misses in 7 iterations
    calls = []
    potri = scipy.linalg.lapack.dpotri

    def counted(*args, **kwargs):
        calls.append(args)
        return potri(*args, **kwargs)
    monkeypatch.setattr(scipy.linalg.lapack, "dpotri", counted)
    for precond in (None, np.eye(40)):
        direction, diag = solve_inexact(h, g, spec, precond)
        assert diag.path == PATH_FALLBACK
        assert verify_inexact(h, g, direction, spec).ok
    assert calls == []
    spd_inverse(h)  # the counter does see potri where it runs
    assert len(calls) == 1


def test_spd_inverse_inverts_and_rejects_singular():
    rng = np.random.default_rng(16)
    h = random_spd(rng, 30)
    np.testing.assert_allclose(spd_inverse(h) @ h, np.eye(30), atol=1e-10)
    h[:, 0] = h[0, :] = 0.0
    with pytest.raises(NotPositiveDefiniteError):
        spd_inverse(h)


def test_curvature_bound_preconditions_a_fresh_sample_better_than_another_sample(
        ill_logistic):
    """The inverse of the full Hessian at zero, for logistic the curvature
    bound A'A/(4n) + reg I, takes a fresh sample to theta1 in fewer CG
    iterations than the inverse of another sample does, and the direction
    meets the contract on the fresh sample."""
    m = ill_logistic
    start = spd_inverse(m.hessian(np.zeros(m.p)))
    spec = InexactnessSpec(theta1=1e-2, theta2=0.5)
    x = np.zeros(m.p)
    g = m.gradient(x)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        older, fresh = (m.sampled_hessian(draw(m.n, 400, "without", rng).indices, x)
                        for _ in range(2))
        _, stale = solve_inexact(fresh, g, spec, precond=spd_inverse(older.dense()))
        direction, diag = solve_inexact(fresh, g, spec, precond=start)
        assert stale.path == diag.path == PATH_CG
        assert diag.cg_iters < stale.cg_iters
        assert verify_inexact(fresh.dense(), g, direction, spec).ok


# -- float32 CG products ----------------------------------------------------------


@pytest.mark.parametrize("theta1,path", [(1e-2, PATH_CG), (1e-12, PATH_FALLBACK)])
def test_float32_cg_is_checked_and_falls_back_in_float64(theta1, path, monkeypatch):
    """With cg_dtype float32 and a float32 M, CG multiplies by float32 copies
    of H and M, while its iterates stay float64; the check and a fallback get
    the float64 H, so the direction meets the contract in float64 on either
    path."""
    from subnewton import linsolve
    rng = np.random.default_rng(17)
    h = random_spd(rng, 60, shift=1.0)
    g = rng.standard_normal(60)
    spec = InexactnessSpec(theta1=theta1, theta2=0.5)
    seen = {"products": set(), "checked": [], "factored": []}
    times, verify, exact = linsolve._times, linsolve.verify_inexact, linsolve.solve_exact

    def product(m, v):
        seen["products"].add((m.dtype.name, v.dtype.name))
        return times(m, v)

    def checked(h_, *args):
        seen["checked"].append(h_.dtype.name)
        return verify(h_, *args)

    def factored(h_, *args):
        seen["factored"].append(h_.dtype.name)
        return exact(h_, *args)
    monkeypatch.setattr(linsolve, "_times", product)
    monkeypatch.setattr(linsolve, "verify_inexact", checked)
    monkeypatch.setattr(linsolve, "solve_exact", factored)
    precond = np.linalg.inv(random_spd(rng, 60, shift=1.0)).astype(np.float32)
    direction, diag = solve_inexact(h, g, spec, precond, cg_dtype=np.float32)
    assert diag.path == path
    assert seen["products"] == {("float32", "float64")}
    assert seen["checked"] and set(seen["checked"]) == {"float64"}
    assert seen["factored"] == (["float64"] if path == PATH_FALLBACK else [])
    assert direction.dtype == np.float64
    assert verify(h, g, direction, spec).ok


# -- floored solve on a float32 spectrum ------------------------------------------


def sampled_gram(rng, p, rows):
    """A weighted Gram like a sampled Hessian: rank min(rows, p), plus a
    small reg on the diagonal."""
    a = rng.standard_normal((rows, p))
    return a.T @ (rng.random(rows)[:, None] * a) / rows + 1e-6 * np.eye(p)


def floored_operator(h, spec, floor):
    """H + U diag(floor - lambda_L) U', formed densely from the float32
    eigenvectors below the floor, promoted to float64."""
    k = int(np.sum(spec.eigvals < floor))
    u = spec.eigenvectors(k).astype(float)
    return h + (u * (floor - spec.eigvals[:k].astype(float))) @ u.T


@pytest.mark.parametrize("p,rows,lam", [(1, 3, 1e-2), (2, 1, 1e-2), (17, 9, 1e-2),
                                        (60, 30, 1e-3), (200, 100, 1e-3), (200, 400, 1e-3)])
def test_floored_solve_meets_the_exact_contract_in_float64(p, rows, lam):
    """The returned y meets EXACT_RESIDUAL_RTOL against H^ built here, its
    reported ratio is that residual, and y is the dense floored solve to a
    tolerance scaled by kappa = ||H|| / floor times float32's epsilon."""
    rng = np.random.default_rng(p + rows)
    h = sampled_gram(rng, p, rows)
    g = rng.standard_normal(p)
    spec = spectrum(h, np.float32)
    floor = max(float(spec.eigvals[0]), 0.0) + lam
    y, ratio = solve_floored(h, spec, floor, g)
    assert y.dtype == np.float64
    residual = np.linalg.norm(floored_operator(h, spec, floor) @ y - g) / np.linalg.norm(g)
    assert residual <= EXACT_RESIDUAL_RTOL
    assert ratio == pytest.approx(residual, rel=0, abs=1e-12)  # to float64 rounding
    kappa = max(float(np.linalg.eigvalsh(h)[-1]), floor) / floor
    expected = np.linalg.solve(spectral_floor(h, floor), g)
    eps32 = float(np.finfo(np.float32).eps)
    assert np.linalg.norm(y - expected) <= 10 * kappa * eps32 * np.linalg.norm(expected)


def test_floored_solve_returns_none_when_refinement_stalls(monkeypatch):
    """Without refinements the float32 solve alone misses 1e-10: the caller
    gets None, never a direction short of the contract."""
    rng = np.random.default_rng(3)
    h = sampled_gram(rng, 60, 30)
    spec = spectrum(h, np.float32)
    floor = max(float(spec.eigvals[0]), 0.0) + 1e-3
    g = rng.standard_normal(60)
    assert solve_floored(h, spec, floor, g) is not None
    monkeypatch.setattr(linsolve, "MAX_REFINEMENTS", 0)
    assert solve_floored(h, spec, floor, g) is None


def test_floored_solve_needs_a_positive_floor():
    h = np.diag([0.0, 1.0])
    spec = spectrum(h, np.float32)
    with pytest.raises(NotPositiveDefiniteError):
        solve_floored(h, spec, 0.0, np.ones(2))
    y, ratio = solve_floored(h, spec, 0.5, np.zeros(2))
    assert ratio == 0.0 and not y.any()
