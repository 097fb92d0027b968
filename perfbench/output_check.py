"""Output check for one solve, using the benchmark's own logistic-GLM code.

A solve's ``x_final`` passes when

* the gradient, computed here and not by the package, has norm at most
  ``grad_tol`` (plus a relative slack for rounding), and
* |F(x_final) - F*| / |F*| <= 1e-8, where F* is F at the optimum of a
  full-Newton run to gradient norm 1e-10, also evaluated here.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from subnewton import Dataset, ObjectiveModel, SolverConfig, run

F_REL_TOL = 1e-8
# the package's and this module's gradients sum in different orders; 0.1% of
# grad_tol is orders of magnitude above that rounding difference
GRAD_SLACK_REL = 1e-3
REFERENCE_GRAD_TOL = 1e-10
REFERENCE_MAX_ITERS = 200


def logistic_value(a, b, reg, x) -> float:
    t = np.asarray(a @ x).ravel()
    return float(np.mean(np.logaddexp(0.0, t) - b * t)) + 0.5 * reg * float(x @ x)


def logistic_gradient(a, b, reg, x) -> np.ndarray:
    t = np.asarray(a @ x).ravel()
    w = expit(t) - b
    return np.asarray(a.T @ w).ravel() / a.shape[0] + reg * x


def reference_optimum(a, b, reg) -> float:
    """F* from the package's full-Newton solver, confirmed by this module's
    gradient."""
    model = ObjectiveModel(Dataset(features=a, labels=b), "logistic", reg=reg)
    trace = run(model, SolverConfig(variant="newton", grad_tol=REFERENCE_GRAD_TOL,
                                    max_iters=REFERENCE_MAX_ITERS), np.zeros(a.shape[1]))
    x_star = trace.x_final
    gnorm = float(np.linalg.norm(logistic_gradient(a, b, reg, x_star)))
    if trace.stop != "GradTol" or gnorm > 10 * REFERENCE_GRAD_TOL:
        raise RuntimeError(f"reference Newton run ended with {trace.stop}, "
                           f"gradient norm {gnorm:.3g}; F* is not trustworthy")
    return logistic_value(a, b, reg, x_star)


def verify(a, b, reg, x_final, f_star: float, grad_tol: float) -> dict:
    x = np.asarray(x_final, dtype=float).ravel()
    if x.shape != (a.shape[1],) or not np.all(np.isfinite(x)):
        return {"ok": False, "reason": "x_final has the wrong shape or is not finite"}
    gnorm = float(np.linalg.norm(logistic_gradient(a, b, reg, x)))
    f_rel = abs(logistic_value(a, b, reg, x) - f_star) / abs(f_star)
    reasons = []
    if gnorm > grad_tol * (1.0 + GRAD_SLACK_REL):
        reasons.append(f"gradient norm {gnorm:.3g} > {grad_tol:.3g}")
    if f_rel > F_REL_TOL:
        reasons.append(f"relative objective gap {f_rel:.3g} > {F_REL_TOL:.0e}")
    return {"ok": not reasons, "reason": "; ".join(reasons),
            "grad_norm": gnorm, "f_rel_gap": f_rel}
