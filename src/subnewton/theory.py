"""Closed-form constants from the convergence guarantees.

Every per-iteration decrease factor rho, step-size floor, residual-tolerance
threshold theta1_max and STOP multiplier floor sigma_min is computed here and
nowhere else; solver tests and trace headers both read from these
calculators, so the formulas cannot drift apart.

Each algorithm of the paper has one calculator: ``rate_alg1`` (Hessian-only
sub-sampling), ``rate_spectral`` and ``rate_ridge`` (its two regularized
forms, which also cover gamma = 0) and ``rate_alg4`` (joint gradient and
Hessian sub-sampling).  Each takes the run's ``InexactnessSpec``; None means
an exact solve, which meets the contract at theta1 = theta2 = 0.

Throughout, the guaranteed contraction is

    F(x_{k+1}) - F* <= (1 - rho) (F(x_k) - F*),

with rho built from the accepted step alpha_k, the Armijo slope fraction
beta, the sampling accuracies, and the relevant condition numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linsolve import InexactnessSpec


@dataclass(frozen=True)
class RatePrediction:
    """Computable guarantee constants for one solver configuration."""

    rho: float
    alpha_floor: float
    theta1_max: float | None = None
    sigma_min: float | None = None
    grad_decrease_coeff: float | None = None  # F drops by at least this * ||grad F||^2

    def as_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def _check_unit(name, value):
    if not 0 < value < 1:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def rate_alg1(beta: float, eps: float, kappa: float, kappa_tilde: float,
              alpha: float, inexact: InexactnessSpec | None = None) -> RatePrediction:
    """Hessian-only sub-sampling (Algorithm 1).

    Exact solves: rho = 2 alpha beta / kappa_tilde, step floor
    2(1-beta)(1-eps)/kappa.  Inexact solves: below theta1_max =
    sqrt((1-eps)/(4 kappa_tilde)) the rate matches the exact one up to a
    factor two, rho = alpha beta / kappa_tilde; above it, rho =
    2(1-theta2)(1-theta1)^2(1-eps) alpha beta / kappa_tilde^2, and the
    floor gains a factor (1-theta2).
    """
    _check_unit("beta", beta)
    if not 0 <= eps < 1:  # eps = 0: the full Hessian (newton)
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    if kappa < 1 or kappa_tilde < 1:
        raise ValueError("condition numbers must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if inexact is None:
        return RatePrediction(
            rho=2.0 * alpha * beta / kappa_tilde,
            alpha_floor=2.0 * (1.0 - beta) * (1.0 - eps) / kappa,
        )
    theta1, theta2 = inexact.theta1, inexact.theta2
    theta1_max = math.sqrt((1.0 - eps) / (4.0 * kappa_tilde))
    if theta1 <= theta1_max:
        rho = alpha * beta / kappa_tilde
    else:
        rho = 2.0 * (1.0 - theta2) * (1.0 - theta1) ** 2 * (1.0 - eps) * alpha * beta \
            / kappa_tilde**2
    return RatePrediction(
        rho=rho,
        alpha_floor=2.0 * (1.0 - theta2) * (1.0 - beta) * (1.0 - eps) / kappa,
        theta1_max=theta1_max,
    )


def rate_spectral(beta: float, lam: float, big_k: float, khat: float, gamma: float,
                  alpha: float, inexact: InexactnessSpec | None = None,
                  eps: float | None = None) -> RatePrediction:
    """Spectral-floor regularization at level lam.

    rho = alpha beta gamma / max(khat, lam) (0 at gamma = 0, where only the
    gradient-decrease coefficient applies), theta1_max =
    (1/2) sqrt(lam / max(lam, khat)), step floor 2(1-theta2)(1-beta) lam / K.
    With lemma-driven sampling at accuracy eps the floor improves to
    2(1-theta2)(1-beta)(1-eps)/kappa.
    """
    _check_unit("beta", beta)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    theta2 = 0.0 if inexact is None else inexact.theta2
    denom = max(khat, lam)
    rho = alpha * beta * gamma / denom if gamma > 0 else 0.0
    if eps is None:
        floor = 2.0 * (1.0 - theta2) * (1.0 - beta) * lam / big_k
    else:
        _check_unit("eps", eps)
        floor = 2.0 * (1.0 - theta2) * (1.0 - beta) * (1.0 - eps) * gamma / big_k
    return RatePrediction(
        rho=rho,
        alpha_floor=floor,
        theta1_max=0.5 * math.sqrt(lam / denom) if denom > 0 else 0.0,
        grad_decrease_coeff=alpha * beta / (2.0 * denom),
    )


def rate_ridge(beta: float, lam: float, big_k: float, khat: float, gamma: float,
               alpha: float, inexact: InexactnessSpec | None = None,
               eps: float | None = None) -> RatePrediction:
    """Ridge regularization at level lam.

    rho = alpha beta gamma / (khat + lam) (0 at gamma = 0), theta1_max =
    (1/2) sqrt(lam/(K+lam)), step floor 2(1-theta2)(1-beta) lam / K.  With
    lemma-driven sampling at accuracy eps: theta1_max =
    (1/2) sqrt(((1-eps) gamma + lam)/(khat + lam)) and floor
    2(1-theta2)(1-beta)((1-eps) gamma + lam)/K.
    """
    _check_unit("beta", beta)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    theta2 = 0.0 if inexact is None else inexact.theta2
    denom = khat + lam
    rho = alpha * beta * gamma / denom if gamma > 0 else 0.0
    if eps is None:
        theta1_max = 0.5 * math.sqrt(lam / (big_k + lam)) if big_k + lam > 0 else 0.0
        floor = 2.0 * (1.0 - theta2) * (1.0 - beta) * lam / big_k
    else:
        _check_unit("eps", eps)
        theta1_max = 0.5 * math.sqrt(((1.0 - eps) * gamma + lam) / denom)
        floor = 2.0 * (1.0 - theta2) * (1.0 - beta) * ((1.0 - eps) * gamma + lam) / big_k
    return RatePrediction(
        rho=rho,
        alpha_floor=floor,
        theta1_max=theta1_max,
        grad_decrease_coeff=alpha * beta / (2.0 * denom),
    )


def rate_alg4(beta: float, eps1: float, kappa: float, kappa_tilde: float,
              alpha: float, inexact: InexactnessSpec | None = None) -> RatePrediction:
    """Joint gradient and Hessian sub-sampling (Algorithm 4, needs eps1 <= 1/2).

    Exact solves: rho = 8 alpha beta / (9 kappa_tilde), step floor
    (1-beta)(1-eps1)/kappa, and the STOP rule is sound for
    sigma >= 4 kappa_tilde / (1-beta).  Inexact solves halve the good-case
    rate to 4 alpha beta / (9 kappa_tilde) below theta1_max and need
    sigma >= 4 kappa_tilde / ((1-theta1)(1-theta2)(1-beta)).
    """
    _check_unit("beta", beta)
    _check_unit("eps1", eps1)
    if eps1 > 0.5:
        raise ValueError(f"eps1 must be <= 1/2, got {eps1}")
    if kappa < 1 or kappa_tilde < 1:
        raise ValueError("condition numbers must be >= 1")
    if inexact is None:
        return RatePrediction(
            rho=8.0 * alpha * beta / (9.0 * kappa_tilde),
            alpha_floor=(1.0 - beta) * (1.0 - eps1) / kappa,
            sigma_min=4.0 * kappa_tilde / (1.0 - beta),
        )
    theta1, theta2 = inexact.theta1, inexact.theta2
    theta1_max = math.sqrt((1.0 - eps1) / (4.0 * kappa_tilde))
    if theta1 <= theta1_max:
        rho = 4.0 * alpha * beta / (9.0 * kappa_tilde)
    else:
        rho = 8.0 * alpha * beta * (1.0 - theta2) * (1.0 - theta1) ** 2 * (1.0 - eps1) \
            / (9.0 * kappa_tilde**2)
    return RatePrediction(
        rho=rho,
        alpha_floor=(1.0 - theta2) * (1.0 - beta) * (1.0 - eps1) / kappa,
        theta1_max=theta1_max,
        sigma_min=4.0 * kappa_tilde / ((1.0 - theta1) * (1.0 - theta2) * (1.0 - beta)),
    )
