from __future__ import annotations

import numpy as np
import pytest

from subnewton.data import generate_synthetic
from subnewton.model import Dataset, ObjectiveModel


@pytest.fixture(scope="session")
def small_logistic():
    """n=400, p=12 logistic problem with mild regularization."""
    dataset, _ = generate_synthetic(400, 12, family="logistic", seed=11,
                                    signal_norm=2.0)
    return ObjectiveModel(dataset, "logistic", reg=0.05)


@pytest.fixture(scope="session")
def ill_logistic():
    """n=2000, p=100 logistic problem with a 1e8-conditioned design, on which
    plain CG misses theta1 = 1e-2 within its ceil(p/6) budget on every step."""
    dataset, _ = generate_synthetic(n=2000, p=100, family="logistic", seed=0,
                                    condition_target=1e8, signal_direction="weak")
    return ObjectiveModel(dataset, "logistic", reg=1e-8)


@pytest.fixture(scope="session")
def small_ridge():
    dataset, _ = generate_synthetic(300, 10, family="ridge", seed=7,
                                    condition_target=50.0)
    return ObjectiveModel(dataset, "ridge", reg=0.1)


@pytest.fixture(scope="session")
def small_poisson():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((200, 8)) * 0.3
    t = a @ (rng.standard_normal(8) * 0.5)
    b = rng.poisson(np.exp(np.clip(t, -5, 3))).astype(float)
    return ObjectiveModel(Dataset(features=a, labels=b), "poisson", reg=0.1)


def central_diff_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def central_diff_hessian(grad, x, h=1e-6):
    p = x.size
    hess = np.zeros((p, p))
    for i in range(p):
        e = np.zeros_like(x)
        e[i] = h
        hess[:, i] = (grad(x + e) - grad(x - e)) / (2 * h)
    return 0.5 * (hess + hess.T)


def line_search_passes(records, base=3):
    """Full-data products each line-search step should make.

    A step after a search that backtracked (and not the first step) makes
    ``base``: A p, then A x and A'w at x_{k+1}.  Otherwise it predicts the
    unit step with a fresh evaluation at x + alpha p (A x and A'w): one
    product fewer if its first trial is accepted; if not, the prediction's
    products come on top of ``base``, whose A p serves the backtracking.
    Terminal records make none.
    """
    predicted = base - 1  # A x and A'w
    expected, predict = [], True
    for rec in records:
        if not rec.ls_trials:
            expected.append(0)
            continue
        accepted_first = rec.ls_trials == 1
        if not predict:
            expected.append(base)
        else:
            expected.append(predicted if accepted_first else predicted + base)
        predict = accepted_first
    return expected
