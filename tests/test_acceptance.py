"""Acceptance suite.

Each test exercises one gate criterion at its stated tolerance and prints a
single PASS/FAIL line (run ``pytest tests/test_acceptance.py -v -s`` to see
them).  Shared problems:

* the "desk" problem: n = 10_000, p = 100 logistic regression with an l2
  weight of 1e-2, feature scale chosen so the curvature-sampling size
  genuinely subsamples (about 60% of n) and the gradient-sampling size lands
  near 20% of n;
* the hard benchmark: n = 5_000, p = 500 dense logistic regression with the
  planted signal concentrated on the weakest-curvature directions and
  measured condition number above 1e4.
"""

from __future__ import annotations

import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from subnewton.data import generate_synthetic, measure_gram_condition
from subnewton.linesearch import LineSearchParams
from subnewton.linsolve import InexactnessSpec
from subnewton.model import Dataset, ObjectiveModel
from subnewton.regularize import ridge as ridge_op
from subnewton.regularize import spectral_floor
from subnewton.sampling import draw, gradient_sample_size, hessian_sample_size, \
    subsampled_gradient, subsampled_hessian
from subnewton.solvers import SolverConfig, run
from subnewton.theory import grad_quadratic_roots, rate_alg1

from conftest import central_diff_gradient, central_diff_hessian


@contextmanager
def report(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num:>2} PASS  {desc}")


# -- shared problems ------------------------------------------------------------


@pytest.fixture(scope="module")
def desk():
    dataset, _ = generate_synthetic(10_000, 100, family="logistic", seed=101,
                                    condition_target=100.0, signal_norm=12.0)
    model = ObjectiveModel(
        Dataset(features=dataset.features * 0.3, labels=dataset.labels),
        "logistic", reg=1e-2)
    return model


@pytest.fixture(scope="module")
def desk_estimates(desk):
    return desk.curvature_constants()


@pytest.fixture(scope="module")
def desk_f_star(desk):
    trace = run(desk, SolverConfig(variant="newton", grad_tol=1e-12,
                                   max_iters=200), np.zeros(desk.p))
    assert trace.stop == "GradTol"
    return trace.f_final


# -- 1. curvature concentration -------------------------------------------------


def test_criterion_1_hessian_lemma(desk, desk_estimates):
    with report(1, "curvature-sampling failure frequency within delta + 0.02"):
        eps, delta, resamples = 0.5, 0.1, 1000
        est = desk_estimates
        size = hessian_sample_size(est.kappa1, eps, delta, desk.p)
        assert size < desk.n, "lemma size must genuinely subsample"
        x_fix = np.random.default_rng(0).standard_normal(desk.p) * 0.1
        # the stated event compares against the global lower bound gamma; the
        # sharp event uses the local curvature the concentration actually
        # tracks, and the same bound covers both
        local_min = float(np.linalg.eigvalsh(desk.hessian(x_fix))[0])
        assert local_min > est.gamma
        rng = np.random.default_rng(11)
        started = time.perf_counter()
        failures_stated = 0
        failures_sharp = 0
        for _ in range(resamples):
            s = draw(desk.n, size, "without", rng)
            lo = float(np.linalg.eigvalsh(subsampled_hessian(desk, x_fix, s))[0])
            failures_stated += lo < (1 - eps) * est.gamma
            failures_sharp += lo < (1 - eps) * local_min
        elapsed = time.perf_counter() - started
        assert failures_stated / resamples <= delta + 0.02
        assert failures_sharp / resamples <= delta + 0.02
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


# -- 2. gradient concentration ---------------------------------------------------


def test_criterion_2_gradient_lemma(desk):
    with report(2, "gradient-sampling failure frequency within delta + 0.02"):
        eps, delta, resamples = 0.5, 0.1, 1000
        x_fix = np.random.default_rng(0).standard_normal(desk.p) * 0.1
        size = gradient_sample_size(desk.gradient_norm_bound(x_fix), eps, delta)
        assert size < desk.n, "lemma size must genuinely subsample"
        full = desk.gradient(x_fix)
        rng = np.random.default_rng(12)
        started = time.perf_counter()
        failures = 0
        for _ in range(resamples):
            s = draw(desk.n, size, "with", rng)
            g = subsampled_gradient(desk, x_fix, s)
            failures += float(np.linalg.norm(full - g)) > eps
        elapsed = time.perf_counter() - started
        assert failures / resamples <= delta + 0.02
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


# -- 3. per-iteration contraction, exact solves ----------------------------------


def test_criterion_3_decrease_predicate_exact(desk, desk_estimates, desk_f_star):
    with report(3, "exact-solve contraction holds on every event iteration "
                   "(>= 50 pooled)"):
        est = desk_estimates
        beta, eps, frac = 0.25, 0.5, 0.2
        size = round(frac * desk.n)
        kt = est.kappa_tilde(size, "without")
        x0 = np.random.default_rng(1).standard_normal(desk.p)
        x0 *= 20.0 / np.linalg.norm(x0)
        checked = failures = 0
        for seed in range(10):
            cfg = SolverConfig(variant="ssn-hessian", sample_frac_h=frac, eps=eps,
                               seed=seed, max_iters=100, grad_tol=1e-7,
                               track_events=True,
                               line_search=LineSearchParams(beta=beta, alpha_hat=1.0))
            trace = run(desk, cfg, x0)
            fs = trace.f_values()
            for i, rec in enumerate(trace.records):
                if rec.alpha == 0.0:
                    continue
                if rec.min_eig_h < (1 - eps) * est.gamma:
                    continue  # sampling event failed; the theorem is silent here
                rho = 2 * rec.alpha * beta / kt
                gap_next = rec.f_value - desk_f_star
                gap_prev = fs[i] - desk_f_star
                checked += 1
                failures += gap_next > (1 - rho) * gap_prev + 1e-14
        assert checked >= 50, f"only {checked} event-conditioned iterations"
        assert failures == 0


# -- 4. per-iteration contraction, inexact solves --------------------------------


def test_criterion_4_decrease_predicate_inexact(desk, desk_estimates, desk_f_star):
    with report(4, "inexact directions verify and case-(i) contraction holds"):
        est = desk_estimates
        beta, eps, theta2, frac = 0.25, 0.5, 0.5, 0.2
        size = round(frac * desk.n)
        kt = est.kappa_tilde(size, "without")
        theta1 = rate_alg1(beta, eps, est.kappa, kt, 1.0,
                           InexactnessSpec(0.0, theta2)).theta1_max
        x0 = np.random.default_rng(1).standard_normal(desk.p)
        x0 *= 20.0 / np.linalg.norm(x0)
        checked = failures = 0
        for seed in range(10):
            cfg = SolverConfig(variant="ssn-hessian", sample_frac_h=frac, eps=eps,
                               seed=seed, max_iters=100, grad_tol=1e-7,
                               track_events=True,
                               inexact=InexactnessSpec(theta1=theta1, theta2=theta2),
                               line_search=LineSearchParams(beta=beta, alpha_hat=1.0))
            trace = run(desk, cfg, x0)
            fs = trace.f_values()
            for i, rec in enumerate(trace.records):
                if rec.alpha == 0.0:
                    continue
                # every returned direction satisfies the acceptance contract
                assert rec.residual_ratio <= theta1 * (1 + 1e-12)
                assert rec.descent_ratio >= (1 - theta2) * (1 - 1e-12)
                if rec.min_eig_h < (1 - eps) * est.gamma:
                    continue
                rho = rec.alpha * beta / kt  # case (i): theta1 at its threshold
                gap_next = rec.f_value - desk_f_star
                gap_prev = fs[i] - desk_f_star
                checked += 1
                failures += gap_next > (1 - rho) * gap_prev + 1e-14
        assert checked >= 50, f"only {checked} event-conditioned iterations"
        assert failures == 0


# -- 5. STOP-rule soundness -------------------------------------------------------


def test_criterion_5_sigma_stop_soundness(desk):
    with report(5, "STOP certificate ||grad F|| < (1+sigma) eps2 never violated "
                   "(100 runs)"):
        rng = np.random.default_rng(77)
        fired = violations = 0
        for seed in range(100):
            eps2 = float(10 ** rng.uniform(-3.5, -1.5))
            x0 = rng.standard_normal(desk.p) * float(rng.uniform(0.2, 2.0))
            cfg = SolverConfig(variant="ssn-full", eps1=0.5, eps2=eps2, delta=0.1,
                               seed=seed, max_iters=30, grad_tol=0.0,
                               replacement="without")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", UserWarning)
                trace = run(desk, cfg, x0)
            # a stop before the first step says so, and only such a stop
            assert len(caught) == (trace.records[0].alpha == 0)
            if trace.stop != "SigmaStop":
                continue
            fired += 1
            sigma = trace.header["sigma"]
            final = trace.records[-1]
            violations += not (final.grad_norm_full < (1 + sigma) * eps2)
        assert fired == 100, f"stop rule fired in only {fired} of 100 runs"
        assert violations == 0


# -- 6. oracle equivalence --------------------------------------------------------


def test_criterion_6_oracle_equivalence(small_logistic):
    with report(6, "full-sample variants match full Newton within 1e-10 "
                   "per iterate"):
        quad_data, _ = generate_synthetic(300, 50, family="ridge", seed=31,
                                          condition_target=50.0)
        problems = [
            ObjectiveModel(quad_data, "ridge", reg=0.1),      # 50-D quadratic
            small_logistic,                                   # logistic, p >= 20 scale
        ]
        shared = dict(sample_frac_h=1.0, sample_frac_g=1.0, lambda_user=0.0,
                      sigma=0.0, grad_tol=1e-9, max_iters=60, seed=5)
        for model in problems:
            x0 = np.full(model.p, 0.5)
            newton = run(model, SolverConfig(variant="newton", **shared), x0)
            for variant in ("ssn-hessian", "ssn-spectral", "ssn-ridge", "ssn-full"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    trace = run(model, SolverConfig(variant=variant, **shared), x0)
                assert trace.same_iterates(newton, tol=1e-10), \
                    f"{variant} diverged from the Newton oracle"


# -- 7. operator exactness ---------------------------------------------------------


def test_criterion_7_operator_exactness():
    with report(7, "spectral floor / ridge shift exact within 1e-10 on 100 "
                   "random matrices"):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = int(rng.integers(2, 12))
            h = rng.standard_normal((p, p))
            h = 0.5 * (h + h.T)
            lam = float(rng.random() * 3)
            before = np.linalg.eigvalsh(h)
            floored = np.linalg.eigvalsh(spectral_floor(h, lam))
            assert np.abs(floored - np.maximum(before, lam)).max() <= 1e-10
            shifted = np.linalg.eigvalsh(ridge_op(h, lam))
            assert np.abs(shifted - (before + lam)).max() <= 1e-10
        # gradient-descent limit: flooring at khat >= lambda_max makes the
        # Newton step exactly -g / khat
        h = rng.standard_normal((8, 8))
        h = h @ h.T / 8
        khat = float(np.linalg.eigvalsh(h)[-1]) * 1.2
        floored = spectral_floor(h, khat)
        g = rng.standard_normal(8)
        direction = -np.linalg.solve(floored, g)
        assert np.linalg.norm(direction - (-g / khat)) <= 1e-10 * np.linalg.norm(g)


# -- 8. calculus correctness --------------------------------------------------------


def test_criterion_8_finite_difference_checks(small_ridge, small_logistic,
                                              small_poisson):
    with report(8, "gradient and Hessian match central differences at 1e-5 "
                   "relative (3 families x 50 points)"):
        rng = np.random.default_rng(23)
        for model in (small_ridge, small_logistic, small_poisson):
            for _ in range(50):
                x = rng.standard_normal(model.p) * 0.4
                g = model.gradient(x)
                fd_g = central_diff_gradient(model.value, x)
                assert np.linalg.norm(fd_g - g) <= 1e-5 * max(1.0, np.linalg.norm(g))
                h = model.hessian(x)
                fd_h = central_diff_hessian(model.gradient, x)
                assert np.abs(fd_h - h).max() <= 1e-5 * max(1.0, np.abs(h).max())


# -- 9. qualitative benchmark reproduction -------------------------------------------


def test_criterion_9_benchmark_ordering():
    with report(9, "sub-sampled inexact Newton reaches 1e-8 relative error in a "
                   "budget where GD and AGD stay above 1e-1"):
        started = time.perf_counter()
        dataset, meta = generate_synthetic(5_000, 500, family="logistic", seed=202,
                                           condition_target=1e8, signal_norm=2.0,
                                           signal_direction="weak")
        model = ObjectiveModel(dataset, "logistic", reg=1e-8)
        est = model.curvature_constants()
        assert est.kappa >= 1e4
        assert measure_gram_condition(dataset) >= 1e4
        x0 = np.zeros(model.p)

        oracle = run(model, SolverConfig(variant="newton", grad_tol=1e-10,
                                         max_iters=300), x0)
        assert oracle.stop == "GradTol"
        f_star = oracle.f_final

        ssn = run(model, SolverConfig(
            variant="ssn-hessian", sample_frac_h=0.2, seed=1, max_iters=400,
            grad_tol=1e-8, inexact=InexactnessSpec(theta1=1e-2, theta2=0.5),
            line_search=LineSearchParams(beta=0.25)), x0)
        assert ssn.stop == "GradTol"
        rel_ssn = abs(ssn.f_final - f_star) / abs(f_star)
        assert rel_ssn <= 1e-8

        budget = ssn.records[-1].wall_nanos / 1e9
        for variant in ("gd", "agd"):
            trace = run(model, SolverConfig(variant=variant, max_iters=10_000_000,
                                            grad_tol=0.0, time_limit=budget), x0)
            rel = abs(trace.f_final - f_star) / abs(f_star)
            assert rel > 1e-1, f"{variant} reached {rel:.3g} within the budget"
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"benchmark block took {elapsed:.1f}s"


# -- 10. calculator spot values --------------------------------------------------------


def test_criterion_10_spot_values():
    with report(10, "guarantee-constant spot values exact"):
        floor = rate_alg1(0.25, 0.5, 2.0, 2.0, alpha=1.0).alpha_floor
        assert floor == 0.375
        assert rate_alg1(0.25, 0.5, 2.0, 2.0, alpha=floor).rho == 0.09375
        assert hessian_sample_size(2.0, 0.5, 0.1, 10) == 74
        assert gradient_sample_size(1.0, 0.5, 0.1) == 113
        q1, q2 = grad_quadratic_roots(0.25, 0.0, 0.25, 4.0, 0.5, 2.0)
        assert q1 == 0.0
        margin = 1 - 2 * 0.25 - 2 * (1 - 0.25) * 0.25
        assert q2 == 3 * (1 - 0.25) * 0.5**2 * margin / 2.0
