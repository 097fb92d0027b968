from __future__ import annotations

import numpy as np
import pytest

from subnewton.linesearch import LineSearchError, LineSearchParams, armijo
from subnewton.model import EvaluationError


def quad_1d(curvature):
    return lambda x: 0.5 * curvature * float(x[0]) ** 2


def search(f, x, p, g, params):
    """armijo along x + alpha p, handing it F(x) and p'g as a driver does."""
    return armijo(lambda alpha: f(x + alpha * p), f(x), float(p @ g), params)


def test_newton_step_on_unit_quadratic_accepted_at_one():
    f = quad_1d(1.0)
    x, p = np.array([2.0]), np.array([-2.0])
    g = np.array([2.0])
    alpha, trials = search(f, x, p, g, LineSearchParams(beta=0.25, alpha_hat=1.0))
    assert alpha == 1.0 and trials == 1


def test_gradient_step_on_stiff_quadratic():
    # f = 50 x^2, from x=1 along p = -f' = -100: feasible alphas satisfy
    # 100 alpha <= 2 (1 - beta) = 1, so the grid lands on 2^-7
    f = quad_1d(100.0)
    x, p, g = np.array([1.0]), np.array([-100.0]), np.array([100.0])
    alpha, _ = search(f, x, p, g, LineSearchParams(beta=0.5, alpha_hat=1.0, shrink=0.5))
    assert alpha == pytest.approx(2.0**-7)


def test_accepted_alpha_reverifies_inequality():
    rng = np.random.default_rng(0)
    h = np.diag(rng.random(5) * 9 + 1)
    f = lambda x: 0.5 * float(x @ h @ x)
    params = LineSearchParams(beta=0.3, alpha_hat=2.0, shrink=0.5)
    for _ in range(25):
        x = rng.standard_normal(5)
        g = h @ x
        p = -g * rng.random()
        alpha, _ = search(f, x, p, g, params)
        assert alpha <= params.alpha_hat
        assert f(x + alpha * p) <= f(x) + alpha * params.beta * float(p @ g)


def test_alpha_within_one_shrink_of_supremum():
    # 1-D quadratic: the feasible set is exactly (0, 2(1-beta)(-p g)/(c p^2)]
    rng = np.random.default_rng(1)
    params = LineSearchParams(beta=0.4, alpha_hat=1.0, shrink=0.5)
    for _ in range(50):
        c = float(rng.random() * 20 + 0.5)
        x = rng.standard_normal(1) * 3
        g = c * x
        p = -g * float(rng.random() * 3 + 0.05)
        sup = 2 * (1 - params.beta) * float(-p @ g) / (c * float(p @ p))
        alpha, _ = search(quad_1d(c), x, p, g, params)
        if sup >= params.alpha_hat:
            assert alpha == params.alpha_hat
        else:
            assert sup * params.shrink < alpha <= sup * (1 + 1e-12)


def test_non_descent_direction_rejected():
    with pytest.raises(ValueError):
        search(quad_1d(1.0), np.array([1.0]), np.array([1.0]), np.array([1.0]),
               LineSearchParams())


def test_exhaustion_raises_with_state():
    bumpy = lambda x: 0.0 if float(x[0]) == 1.0 else 1.0  # any move goes uphill
    with pytest.raises(LineSearchError) as err:
        search(bumpy, np.array([1.0]), np.array([-1.0]), np.array([1.0]),
               LineSearchParams(max_backtracks=10))
    assert err.value.trials == 10


def test_overflowing_trials_are_backtracked_through():
    def fragile(x):
        if abs(float(x[0])) > 10:
            raise EvaluationError("overflow")
        return quad_1d(1.0)(x)

    x, p, g = np.array([2.0]), np.array([-40.0]), np.array([2.0])
    alpha, trials = search(fragile, x, p, g,
                           LineSearchParams(beta=0.1, alpha_hat=1.0, shrink=0.5))
    assert trials > 1
    assert fragile(x + alpha * p) <= fragile(x) + alpha * 0.1 * float(p @ g)


def test_known_value_is_used_not_recomputed():
    # the line only ever sees trial steps; F(x) comes from the caller
    seen = []

    def line(alpha):
        seen.append(alpha)
        return 0.5 * (2.0 - 2.0 * alpha) ** 2

    params = LineSearchParams(beta=0.25, alpha_hat=4.0, shrink=0.5)
    alpha, trials = armijo(line, 2.0, -4.0, params)
    assert (alpha, trials) == (1.0, 3)
    assert seen == [4.0, 2.0, 1.0]


def test_params_validated():
    with pytest.raises(ValueError):
        LineSearchParams(beta=1.0)
    with pytest.raises(ValueError):
        LineSearchParams(alpha_hat=0.5)
    with pytest.raises(ValueError):
        LineSearchParams(shrink=1.0)
