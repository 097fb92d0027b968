from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subnewton
from subnewton.linsolve import InexactnessSpec
from subnewton.theory import RatePrediction, rate_alg1, rate_alg4, rate_ridge, rate_spectral


def test_star_import_resolves_every_exported_name():
    """A name deleted from a module but left in ``__all__`` (or imported by
    ``__init__``) fails here rather than at a user's import."""
    namespace = {}
    exec("from subnewton import *", namespace)
    missing = [name for name in subnewton.__all__ if name not in namespace]
    assert not missing, missing


# -- hessian-only, exact ------------------------------------------------------


def test_rate_alg1_spot_value():
    floor = rate_alg1(0.25, 0.5, 2.0, 2.0, alpha=1.0).alpha_floor
    assert floor == pytest.approx(0.375)
    pred = rate_alg1(0.25, 0.5, 2.0, 2.0, alpha=floor)
    assert pred.rho == pytest.approx(0.09375)


def test_rate_alg1_takes_eps_zero_for_the_full_hessian():
    """eps = 0 prices an unsampled Hessian (newton): the step floor is
    2(1-beta)/kappa; eps outside [0, 1) is refused."""
    assert rate_alg1(0.25, 0.0, 2.0, 2.0, alpha=1.0).alpha_floor == 0.75
    assert rate_alg1(0.25, 0.0, 2.0, 2.0, 1.0, InexactnessSpec(0.1, 0.5)).alpha_floor == 0.375
    for eps in (-0.1, 1.0):
        with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\)"):
            rate_alg1(0.25, eps, 2.0, 2.0, alpha=1.0)


def test_rate_alg1_linear_in_beta():
    rhos = [rate_alg1(b, 0.5, 2.0, 2.0, alpha=0.3).rho for b in (1e-6, 1e-3, 0.1)]
    assert rhos[0] < rhos[1] < rhos[2]
    assert rhos[0] == pytest.approx(2 * 0.3 * 1e-6 / 2.0)


def test_rate_alg1_half_beta_substitution():
    kappa = 3.7
    pred = rate_alg1(0.5, 0.2, kappa, kappa, alpha=1.0)
    assert pred.rho == pytest.approx(1.0 / kappa)


# -- hessian-only, inexact ----------------------------------------------------


def test_inexact_threshold_spot_value():
    pred = rate_alg1(0.25, 0.5, 2.0, 2.0, alpha=1.0, inexact=InexactnessSpec(0.1, 0.5))
    assert pred.theta1_max == pytest.approx(0.25)


def test_inexact_floor_vanishes_as_theta2_to_one():
    floors = [rate_alg1(0.25, 0.5, 2.0, 2.0, 1.0, InexactnessSpec(0.1, t2)).alpha_floor
              for t2 in (0.5, 0.9, 0.999)]
    assert floors[0] > floors[1] > floors[2]
    assert floors[2] < 1e-3


def test_inexact_case_two_below_case_one_at_boundary():
    for kt in (2.0, 5.0, 20.0):
        for eps in (0.1, 0.5, 0.9):
            case1 = rate_alg1(0.3, eps, kt, kt, 1.0, InexactnessSpec(0.0, 0.0)).rho
            # case (ii) formula evaluated directly at theta1 = theta2 = 0
            case2 = 2 * (1 - eps) * 1.0 * 0.3 / kt**2
            assert case2 <= case1 + 1e-15


def test_inexact_case_selection():
    pred_lo = rate_alg1(0.25, 0.5, 2.0, 2.0, 1.0, InexactnessSpec(0.2, 0.5))
    assert pred_lo.rho == pytest.approx(0.25 / 2.0)  # below threshold: alpha beta / kt
    pred_hi = rate_alg1(0.25, 0.5, 2.0, 2.0, 1.0, InexactnessSpec(0.6, 0.5))
    expected = 2 * 0.5 * 0.4**2 * 0.5 * 0.25 / 4.0
    assert pred_hi.rho == pytest.approx(expected)


# -- regularized variants -----------------------------------------------------


def test_spectral_rho_at_lambda_equal_khat():
    pred = rate_spectral(0.25, lam=3.0, big_k=5.0, khat=3.0, gamma=1.0, alpha=1.0,
                         inexact=InexactnessSpec(0.0, 0.5))
    assert pred.rho == pytest.approx(0.25 / 3.0)
    assert pred.grad_decrease_coeff == pytest.approx(0.25 / 6.0)


def test_ridge_zero_shift_forces_exact_solves():
    pred = rate_ridge(0.25, lam=0.0, big_k=5.0, khat=3.0, gamma=1.0, alpha=1.0,
                      inexact=InexactnessSpec(0.0, 0.5))
    assert pred.theta1_max == 0.0


def test_ridge_lemma_sampling_threshold():
    eps, gamma, lam, khat = 0.5, 2.0, 0.3, 4.0
    pred = rate_ridge(0.25, lam=lam, big_k=6.0, khat=khat, gamma=gamma,
                      alpha=1.0, inexact=InexactnessSpec(0.0, 0.5), eps=eps)
    assert pred.theta1_max == pytest.approx(
        0.5 * math.sqrt(((1 - eps) * gamma + lam) / (khat + lam)))
    assert pred.alpha_floor == pytest.approx(
        2 * 0.5 * 0.75 * ((1 - eps) * gamma + lam) / 6.0)


def test_spectral_theta1_budget_exceeds_lemma_floor():
    # with lemma sampling, lam > (1-eps)*gamma keeps the budget above
    # (1/2) sqrt((1-eps)/kt)
    eps, gamma, khat = 0.4, 1.0, 5.0
    lam = (1 - eps) * gamma * 1.01
    pred = rate_spectral(0.25, lam=lam, big_k=6.0, khat=khat, gamma=gamma,
                         alpha=1.0, inexact=InexactnessSpec(0.0, 0.5))
    kt = khat / gamma
    assert pred.theta1_max >= 0.5 * math.sqrt((1 - eps) / kt)


# -- joint sampling -----------------------------------------------------------


def test_alg4_sigma_floor_spot_value():
    pred = rate_alg4(0.25, 0.25, 2.0, 2.0, alpha=1.0)
    assert pred.sigma_min == pytest.approx(32.0 / 3.0)


def test_alg4_exact_rho_substitution():
    pred = rate_alg4(0.5, 0.25, 1.0, 1.0, alpha=1.0)
    assert pred.rho == pytest.approx(4.0 / 9.0)


def test_alg4_inexact_case_two_relation():
    # at theta1 = theta2 = 0 the slow case equals (1-eps1)/kt of the exact rate
    for kt in (1.5, 4.0):
        for eps1 in (0.1, 0.4):
            exact = rate_alg4(0.3, eps1, kt, kt, 1.0).rho
            theta1_max = math.sqrt((1 - eps1) / (4 * kt))
            slow = 8 * 1.0 * 0.3 * (1 - eps1) / (9 * kt**2)
            assert slow == pytest.approx((1 - eps1) * exact / kt)
            pred = rate_alg4(0.3, eps1, kt, kt, 1.0,
                             InexactnessSpec(min(0.99, theta1_max * 1.5), 0.0))
            assert pred.rho == pytest.approx(
                8 * 0.3 * (1 - min(0.99, theta1_max * 1.5)) ** 2 * (1 - eps1)
                / (9 * kt**2))


def test_alg4_eps1_cap_enforced():
    with pytest.raises(ValueError):
        rate_alg4(0.25, 0.6, 2.0, 2.0, 1.0)


def test_alg4_inexact_sigma_floor():
    pred = rate_alg4(0.25, 0.25, 2.0, 2.0, 1.0, InexactnessSpec(0.1, 0.5))
    assert pred.sigma_min == pytest.approx(4 * 2.0 / (0.9 * 0.5 * 0.75))


# -- rho stays a contraction under the preconditions ---------------------------

valid_beta = st.floats(0.01, 0.95)
valid_eps = st.floats(0.01, 0.95)
valid_theta = st.floats(0.0, 0.95)
valid_kt = st.floats(1.0, 1e4)


# evaluated at the guaranteed step-size floor, every rate is a strict
# contraction; larger accepted steps only help the actual run


@given(valid_beta, valid_eps, valid_kt)
@settings(max_examples=200, deadline=None)
def test_alg1_rho_in_unit_interval(beta, eps, kt):
    floor = rate_alg1(beta, eps, kt, kt, alpha=1.0).alpha_floor
    pred = rate_alg1(beta, eps, kt, kt, alpha=floor)
    assert 0 < pred.rho < 1
    assert pred.alpha_floor > 0


@given(valid_beta, valid_eps, valid_theta, valid_theta, valid_kt)
@settings(max_examples=200, deadline=None)
def test_alg1_inexact_rho_in_unit_interval(beta, eps, t1, t2, kt):
    spec = InexactnessSpec(t1, t2)
    floor = rate_alg1(beta, eps, kt, kt, 1.0, spec).alpha_floor
    pred = rate_alg1(beta, eps, kt, kt, alpha=floor, inexact=spec)
    assert 0 < pred.rho < 1


@given(valid_beta, st.floats(0.01, 0.5), valid_kt)
@settings(max_examples=200, deadline=None)
def test_alg4_rho_in_unit_interval(beta, eps1, kt):
    floor = rate_alg4(beta, eps1, kt, kt, alpha=1.0).alpha_floor
    pred = rate_alg4(beta, eps1, kt, kt, alpha=floor)
    assert 0 < pred.rho < 1
    assert pred.sigma_min >= 4.0


@given(valid_beta, st.floats(0.01, 0.95), st.floats(1e-3, 50.0), st.floats(0.1, 100.0))
@settings(max_examples=200, deadline=None)
def test_regularized_rho_in_unit_interval(beta, theta2, lam, gamma):
    khat = gamma * 3 + lam  # keep khat >= gamma so rho < 1
    big_k = khat * 1.5
    for fn in (rate_spectral, rate_ridge):
        spec = InexactnessSpec(0.0, theta2)
        floor = fn(beta, lam, big_k, khat, gamma, alpha=1.0, inexact=spec).alpha_floor
        pred = fn(beta, lam, big_k, khat, gamma, alpha=floor, inexact=spec)
        assert 0 < pred.rho < 1


def test_prediction_dict_drops_unset_fields():
    pred = RatePrediction(rho=0.1, alpha_floor=0.2)
    assert pred.as_dict() == {"rho": 0.1, "alpha_floor": 0.2}


def test_inexact_case_selection_jump_documented():
    """Crossing theta1_max switches formulas discontinuously; the slow-case
    value at the boundary is the fast case scaled by
    2 (1-theta2) (1-theta1_max)^2 (1-eps) / kappa_tilde (strictly weaker)."""
    beta, eps, theta2, kt = 0.3, 0.4, 0.5, 8.0
    boundary = rate_alg1(beta, eps, kt, kt, 1.0, InexactnessSpec(0.0, theta2)).theta1_max
    fast = rate_alg1(beta, eps, kt, kt, 1.0, InexactnessSpec(boundary, theta2)).rho
    slow = rate_alg1(beta, eps, kt, kt, 1.0,
                     InexactnessSpec(boundary * (1 + 1e-12), theta2)).rho
    expected_ratio = 2 * (1 - theta2) * (1 - boundary) ** 2 * (1 - eps) / kt
    assert slow < fast
    assert slow / fast == pytest.approx(expected_ratio, rel=1e-9)
