from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from subnewton import solvers
from subnewton.data import generate_synthetic
from subnewton.linesearch import LineSearchParams
from subnewton.linsolve import InexactnessSpec
from subnewton.model import Dataset, ObjectiveModel
from subnewton.regularize import min_eigenvalue, spectral_floor
from subnewton.solvers import SolverConfig, SolverError, run
from subnewton.theory import rate_alg1, rate_alg4, rate_ridge, rate_spectral


def quadratic_model(p=10, n=80, seed=0, reg=0.1, cond=30.0):
    dataset, _ = generate_synthetic(n, p, family="ridge", seed=seed,
                                    condition_target=cond)
    return ObjectiveModel(dataset, "ridge", reg=reg)


FULL_SAMPLE = dict(sample_frac_h=1.0, sample_frac_g=1.0, lambda_user=0.0,
                   sigma=0.0, grad_tol=1e-9, max_iters=60, seed=3)


# -- oracle equivalence --------------------------------------------------------


@pytest.mark.parametrize("variant", ["ssn-hessian", "ssn-spectral", "ssn-ridge",
                                     "ssn-full"])
@pytest.mark.parametrize("problem", ["quadratic", "logistic"])
def test_full_sample_variants_collapse_to_newton(variant, problem, small_logistic):
    model = quadratic_model() if problem == "quadratic" else small_logistic
    x0 = np.full(model.p, 0.5)
    newton = run(model, SolverConfig(variant="newton", **FULL_SAMPLE), x0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sigma=0 is below the STOP floor
        other = run(model, SolverConfig(variant=variant, **FULL_SAMPLE), x0)
    assert newton.stop == other.stop == "GradTol"
    assert other.same_iterates(newton, tol=1e-10)


# -- classic sanity ------------------------------------------------------------


def test_newton_one_step_on_quadratic():
    model = quadratic_model()
    trace = run(model, SolverConfig(variant="newton", grad_tol=1e-8,
                                    max_iters=10), np.ones(model.p) * 2)
    assert trace.records[0].alpha == 1.0
    assert trace.stop == "GradTol"
    assert trace.n_iters == 2  # one Newton step plus the stopping check


def test_gd_one_step_contraction_on_scalar_quadratic():
    model = ObjectiveModel(Dataset(features=np.array([[2.0]]),
                                   labels=np.array([0.0])), "ridge")
    est = model.curvature_constants()
    assert est.big_k == pytest.approx(4.0)
    trace = run(model, SolverConfig(variant="gd", gd_step=1.0 / est.big_k,
                                    grad_tol=1e-14, max_iters=5), np.array([1.0]))
    assert abs(trace.records[0].x[0]) <= 1e-15


def test_lbfgs_reaches_tolerance_within_200_iterations():
    model = quadratic_model(p=50, n=300, seed=5, cond=100.0)
    x0 = np.ones(50)
    # independent reference: scipy's implementation solves this comfortably
    ref = scipy.optimize.minimize(model.value, x0, jac=model.gradient,
                                  method="L-BFGS-B",
                                  options={"maxiter": 500, "gtol": 1e-10})
    assert ref.success
    trace = run(model, SolverConfig(variant="lbfgs", lbfgs_memory=10,
                                    grad_tol=1e-8, max_iters=200), x0)
    assert trace.stop == "GradTol"
    assert trace.n_iters <= 200
    assert trace.f_final == pytest.approx(ref.fun, abs=1e-8)


def test_bfgs_converges(small_logistic):
    trace = run(small_logistic, SolverConfig(variant="bfgs", grad_tol=1e-8,
                                             max_iters=150),
                np.zeros(small_logistic.p))
    assert trace.stop == "GradTol"


def test_agd_beats_gd_on_ill_conditioned_quadratic():
    model = quadratic_model(p=20, n=200, seed=8, cond=5e3, reg=1e-4)
    x0 = np.ones(20)
    gd = run(model, SolverConfig(variant="gd", max_iters=300, grad_tol=0.0), x0)
    agd = run(model, SolverConfig(variant="agd", max_iters=300, grad_tol=0.0), x0)
    assert agd.f_final < gd.f_final


# -- stochastic variants -------------------------------------------------------


def test_monotone_decrease_all_ssn_variants(small_logistic):
    for variant in ("ssn-hessian", "ssn-spectral", "ssn-ridge"):
        cfg = SolverConfig(variant=variant, sample_frac_h=0.3, lambda_user=0.05,
                           grad_tol=1e-9, max_iters=40, seed=2)
        trace = run(small_logistic, cfg, np.zeros(small_logistic.p))
        fs = trace.f_values()
        assert all(np.diff(fs) <= 0)  # never increases, even at float floor
        for i, rec in enumerate(trace.records):
            if rec.alpha > 0 and rec.grad_norm_used > 1e-5:
                assert rec.f_value < fs[i]  # resolvable steps decrease strictly


def test_deterministic_traces_modulo_wall_clock(small_logistic):
    cfg = SolverConfig(variant="ssn-hessian", sample_frac_h=0.25, seed=9,
                       max_iters=15, grad_tol=1e-10, track_events=True)
    t1 = run(small_logistic, cfg, np.zeros(small_logistic.p))
    t2 = run(small_logistic, cfg, np.zeros(small_logistic.p))
    assert t1.n_iters == t2.n_iters
    for a, b in zip(t1.records, t2.records):
        assert np.array_equal(a.x, b.x)
        assert (a.k, a.f_value, a.grad_norm_full, a.grad_norm_used, a.alpha,
                a.sample_size_h, a.min_eig_h, a.stop_flag) == \
               (b.k, b.f_value, b.grad_norm_full, b.grad_norm_used, b.alpha,
                b.sample_size_h, b.min_eig_h, b.stop_flag)


def test_inexact_trace_records_solve_path_and_cg_iters(small_logistic):
    cfg = SolverConfig(variant="ssn-hessian", sample_frac_h=0.3, seed=4, max_iters=40,
                       grad_tol=1e-9, inexact=InexactnessSpec(theta1=0.1, theta2=0.5))
    trace = run(small_logistic, cfg, np.zeros(small_logistic.p))
    assert trace.stop == "GradTol"
    *steps, terminal = trace.records
    assert steps
    budget = math.ceil(small_logistic.p / 6)
    for rec in steps:
        assert rec.solve_path in ("cg", "cholesky-fallback")
        assert 0 <= rec.cg_iters <= budget
        if rec.solve_path == "cg":
            assert rec.cg_iters >= 1 and rec.residual_ratio <= 0.1
    assert terminal.solve_path is None and terminal.cg_iters is None

    exact = run(small_logistic, replace(cfg, inexact=None), np.zeros(small_logistic.p))
    assert all(rec.solve_path == "cholesky" and rec.cg_iters == 0
               for rec in exact.records[:-1])


# (settings, full-data passes per step).  A line-search step makes three:
# A p for its trials, then fresh margins A x and A'w at the new iterate.
# ssn-full samples its gradient, so A'w there is a diagnostic; gd has no line
# search (A x, A'w); agd's one gradient is at y_k (A y, A'w).
RECORD_CASES = [
    (dict(variant="ssn-hessian", sample_frac_h=0.3), 3),
    (dict(variant="ssn-hessian", sample_frac_h=0.3,
          inexact=InexactnessSpec(theta1=0.1, theta2=0.5)), 3),
    (dict(variant="ssn-spectral", sample_frac_h=0.3, lambda_user=0.05), 3),
    (dict(variant="ssn-ridge", sample_frac_h=0.3, lambda_user=0.05), 3),
    (dict(variant="newton"), 3),
    (dict(variant="bfgs"), 3),
    (dict(variant="lbfgs", lbfgs_memory=4), 3),
    (dict(variant="ssn-full", sample_frac_h=0.3, sample_frac_g=1.0, sigma=0.0,
          track_events=True), 2),
    (dict(variant="gd"), 2),
    (dict(variant="agd"), 2),
]


@pytest.mark.parametrize("settings,passes", RECORD_CASES,
                         ids=[c["variant"] + ("-inexact" if "inexact" in c else "")
                              for c, _ in RECORD_CASES])
def test_records_reuse_in_clock_evaluations_exactly(small_logistic, settings, passes):
    m = small_logistic
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ssn-full's sigma is below the STOP floor
        trace = run(m, SolverConfig(grad_tol=1e-9, max_iters=40, seed=5, **settings),
                    np.zeros(m.p))
    assert trace.stop == "GradTol"
    for rec in trace.records:
        assert rec.f_value == m.value(rec.x)
        assert rec.grad_norm_full == float(np.linalg.norm(m.gradient(rec.x)))
    *steps, terminal = trace.records
    assert steps and all(rec.data_passes == passes for rec in steps)
    assert terminal.data_passes == 0


def test_divergence_flagged_on_wild_gd_step(small_logistic):
    cfg = SolverConfig(variant="gd", gd_step=1e6, max_iters=50, grad_tol=0.0)
    trace = run(small_logistic, cfg, np.zeros(small_logistic.p))
    assert trace.stop == "Error"


@pytest.mark.parametrize("variant", ["gd", "agd"])
def test_non_finite_evaluation_raises_with_partial_trace(small_logistic, variant):
    # one step lands where ||x||^2 overflows
    cfg = SolverConfig(variant=variant, gd_step=1e200, max_iters=50, grad_tol=0.0)
    with pytest.raises(SolverError, match="non-finite") as info:
        run(small_logistic, cfg, np.zeros(small_logistic.p))
    assert info.value.trace.stop == "Error"


def test_gamma_zero_rejected_for_plain_subsampling():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    model = ObjectiveModel(Dataset(features=a, labels=np.zeros(3)), "ridge", reg=0.0)
    with pytest.raises(SolverError, match="spectral|ridge"):
        run(model, SolverConfig(variant="ssn-hessian", max_iters=5), np.ones(3))


def test_spectral_decreases_without_strong_convexity():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                  [2.0, -1.0, 0.0]])
    b = np.array([1.0, -0.5, 0.3, 0.2])
    model = ObjectiveModel(Dataset(features=a, labels=b), "ridge", reg=0.0)
    assert not model.curvature_constants().strongly_convex
    cfg = SolverConfig(variant="ssn-spectral", sample_frac_h=0.5, lambda_user=0.2,
                       grad_tol=1e-10, max_iters=30, seed=4)
    trace = run(model, cfg, np.array([1.0, 1.0, 1.0]))
    fs = trace.f_values()
    assert all(np.diff(fs) <= 0)
    for i, rec in enumerate(trace.records):
        if rec.alpha > 0 and rec.grad_norm_used > 1e-6:
            assert rec.f_value < fs[i]


def record_assemblies(monkeypatch):
    """Keep every sampled Hessian the solvers assemble, in order."""
    assembled = []
    assemble = solvers.subsampled_hessian

    def recording(*args):
        assembled.append(assemble(*args))
        return assembled[-1]

    monkeypatch.setattr(solvers, "subsampled_hessian", recording)
    return assembled


@pytest.mark.parametrize("inexact", [None, InexactnessSpec(theta1=1e-3, theta2=0.5)],
                         ids=["exact", "inexact"])
def test_spectral_step_takes_one_eigh_and_nothing_else(small_logistic, monkeypatch,
                                                      inexact):
    calls = {"eigh": 0, "eigvalsh": 0, "cho_factor": 0}
    assembled = record_assemblies(monkeypatch)

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if assembled:  # set-up (curvature constants) is over
                calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(np.linalg, "eigh")
    counted(np.linalg, "eigvalsh")
    counted(scipy.linalg, "cho_factor")
    cfg = SolverConfig(variant="ssn-spectral", sample_frac_h=0.3, lambda_user=0.05,
                       grad_tol=1e-9, max_iters=40, seed=2, inexact=inexact)
    trace = run(small_logistic, cfg, np.zeros(small_logistic.p))
    steps = [rec for rec in trace.records if rec.alpha > 0]
    assert trace.stop == "GradTol" and len(steps) >= 5
    assert calls == {"eigh": len(steps), "eigvalsh": 0, "cho_factor": 0}
    assert all(rec.solve_path == "eigh" and rec.cg_iters == 0 for rec in steps)


def test_spectral_direction_is_the_floored_operator_solve(small_logistic, monkeypatch):
    m = small_logistic
    assembled = record_assemblies(monkeypatch)
    lines = []
    line = solvers._line

    def recording_line(model, x, p, t):
        lines.append((x, p))
        return line(model, x, p, t)

    monkeypatch.setattr(solvers, "_line", recording_line)
    cfg = SolverConfig(variant="ssn-spectral", sample_frac_h=0.3, lambda_user=0.05,
                       grad_tol=1e-9, max_iters=40, seed=2)
    trace = run(m, cfg, np.zeros(m.p))
    steps = [rec for rec in trace.records if rec.alpha > 0]
    assert len(steps) == len(lines) == len(assembled) >= 5
    for rec, (x, p), h in zip(steps, lines, assembled):
        expected = -np.linalg.solve(spectral_floor(h, rec.lambda_applied), m.gradient(x))
        assert np.linalg.norm(p - expected) <= 1e-10 * np.linalg.norm(expected)


def test_spectral_without_shift_on_singular_sample_raises():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                  [2.0, -1.0, 0.0]])
    b = np.array([1.0, -0.5, 0.3, 0.2])
    model = ObjectiveModel(Dataset(features=a, labels=b), "ridge", reg=0.0)
    cfg = SolverConfig(variant="ssn-spectral", sample_frac_h=0.5, lambda_user=0.0,
                       max_iters=5, seed=4)
    with pytest.raises(SolverError, match="not positive") as exc:
        run(model, cfg, np.ones(3))
    assert exc.value.trace.stop == "Error"


def test_redrawn_sample_reports_its_own_min_eig(monkeypatch):
    dataset, _ = generate_synthetic(300, 10, family="ridge", seed=1)
    features = dataset.features.copy()
    features[::2] = 0.0  # half the rows carry no curvature: samples go singular
    model = ObjectiveModel(Dataset(features=features, labels=dataset.labels),
                           "ridge", reg=0.0)
    assembled = record_assemblies(monkeypatch)
    seen = []  # assemblies made before each step's line search
    armijo = solvers.armijo

    def noting(*args):
        seen.append(len(assembled))
        return armijo(*args)

    monkeypatch.setattr(solvers, "armijo", noting)
    cfg = SolverConfig(variant="ssn-hessian", sample_frac_h=0.08, seed=0,
                       max_iters=40, track_events=True)
    trace = run(model, cfg, np.zeros(model.p))
    steps = [rec for rec in trace.records if rec.alpha > 0]
    assert len(steps) == len(seen) and len(assembled) > len(steps)  # redraws happened
    for rec, count in zip(steps, seen):
        assert rec.min_eig_h == min_eigenvalue(assembled[count - 1])


def test_ridge_huge_shift_is_gradient_direction(small_logistic):
    m = small_logistic
    x0 = np.zeros(m.p)
    g = m.gradient(x0)
    lam = 1e8
    cfg = SolverConfig(variant="ssn-ridge", sample_frac_h=1.0, lambda_user=lam,
                       max_iters=1, grad_tol=0.0)
    trace = run(m, cfg, x0)
    step = trace.records[0].x - x0
    direction = step / np.linalg.norm(step)
    expected = -g / np.linalg.norm(g)
    assert np.linalg.norm(direction - expected) <= 1e-6


def test_ridge_zero_shift_requires_lemma_or_gamma():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    model = ObjectiveModel(Dataset(features=a, labels=np.zeros(3)), "ridge", reg=0.0)
    with pytest.raises(SolverError):
        run(model, SolverConfig(variant="ssn-ridge", lambda_user=0.0,
                                sample_frac_h=0.5), np.ones(3))


def test_sigma_stop_certificate(small_logistic):
    m = small_logistic
    est = m.curvature_constants()
    fired = 0
    for seed in range(20):
        cfg = SolverConfig(variant="ssn-full", eps1=0.4, eps2=0.02, delta=0.1,
                           seed=seed, max_iters=60, grad_tol=0.0,
                           replacement="without")
        trace = run(m, cfg, np.zeros(m.p))
        sigma = trace.header["sigma"]
        if trace.stop == "SigmaStop":
            fired += 1
            final = trace.records[-1]
            # eps2 is constant here, so the certified radius uses eps2 itself
            assert final.grad_norm_full < (1 + sigma) * cfg.eps2
    assert fired > 0, "stop rule never fired; test problem needs retuning"


def test_sigma_warning_below_floor(small_logistic):
    cfg = SolverConfig(variant="ssn-full", sigma=0.001, eps2=0.05, max_iters=3,
                       grad_tol=0.0, sample_frac_h=0.5, sample_frac_g=0.5)
    with pytest.warns(UserWarning, match="STOP"):
        run(small_logistic, cfg, np.zeros(small_logistic.p))


def test_time_limit_stops_early(small_logistic):
    cfg = SolverConfig(variant="gd", max_iters=10_000_000, grad_tol=0.0,
                       time_limit=0.05)
    trace = run(small_logistic, cfg, np.zeros(small_logistic.p))
    assert trace.stop == "MaxIters"
    assert trace.records[-1].wall_nanos >= 0.05e9
    assert trace.n_iters < 10_000_000


# -- theorem-backed per-iteration checks ----------------------------------------


@pytest.fixture(scope="module")
def oracle_star(small_logistic):
    trace = run(small_logistic,
                SolverConfig(variant="newton", grad_tol=1e-12, max_iters=100),
                np.zeros(small_logistic.p))
    assert trace.stop == "GradTol"
    return trace.x_final, trace.f_final


def test_alg1_event_conditioned_decrease(small_logistic, oracle_star):
    m = small_logistic
    _, f_star = oracle_star
    est = m.curvature_constants()
    beta, eps = 0.25, 0.5
    cfg = SolverConfig(variant="ssn-hessian", sample_frac_h=0.3, eps=eps,
                       seed=12, max_iters=60, grad_tol=1e-6, track_events=True,
                       line_search=LineSearchParams(beta=beta, alpha_hat=1.0))
    trace = run(m, cfg, np.zeros(m.p))
    kt = est.kappa_tilde(trace.header["sample_size_h"], "without")
    fs = trace.f_values()
    checked = 0
    for i, rec in enumerate(trace.records):
        if rec.alpha == 0.0:
            continue
        if rec.min_eig_h < (1 - eps) * est.gamma:
            continue  # concentration event failed; theorem makes no claim
        rho = 2 * rec.alpha * beta / kt
        assert rec.f_value - f_star <= (1 - rho) * (fs[i] - f_star) + 1e-14
        checked += 1
    assert checked >= 5


def test_alg1_step_size_floor(small_logistic):
    m = small_logistic
    est = m.curvature_constants()
    beta, eps = 0.25, 0.5
    ls = LineSearchParams(beta=beta, alpha_hat=1.0, shrink=0.5)
    cfg = SolverConfig(variant="ssn-hessian", sample_frac_h=0.3, eps=eps, seed=21,
                       max_iters=50, grad_tol=1e-8, track_events=True,
                       line_search=ls)
    trace = run(m, cfg, np.zeros(m.p))
    floor = rate_alg1(beta, eps, est.kappa, 1.0, 1.0).alpha_floor
    for rec in trace.records:
        if rec.alpha == 0.0 or rec.min_eig_h < (1 - eps) * est.gamma:
            continue
        assert rec.alpha >= min(ls.alpha_hat, ls.shrink * floor) - 1e-15


def test_spectral_decrease_bound_with_inexact_solves(small_logistic):
    m = small_logistic
    est = m.curvature_constants()
    beta, theta2, lam_user = 0.25, 0.5, 0.1
    cfg = SolverConfig(variant="ssn-spectral", sample_frac_h=0.3,
                       lambda_user=lam_user, seed=6, max_iters=40, grad_tol=1e-7,
                       inexact=InexactnessSpec(theta1=1e-3, theta2=theta2),
                       line_search=LineSearchParams(beta=beta))
    trace = run(m, cfg, np.zeros(m.p))
    khat = est.khat(trace.header["sample_size_h"])
    fs = trace.f_values()
    checked = 0
    for i, rec in enumerate(trace.records):
        if rec.alpha == 0.0:
            continue
        pred = rate_spectral(beta, theta2, rec.lambda_applied, est.big_k, khat,
                             est.gamma, alpha=rec.alpha)
        if 1e-3 > pred.theta1_max:
            continue  # solve tolerance exceeded the theorem budget
        drop = pred.grad_decrease_coeff * rec.grad_norm_used**2
        assert rec.f_value <= fs[i] - drop + 1e-12
        checked += 1
    assert checked >= 5


def test_spectral_theta1_budget_lemma_floor(small_logistic):
    m = small_logistic
    est = m.curvature_constants()
    eps = 0.5
    cfg = SolverConfig(variant="ssn-spectral", eps=eps, delta=0.1,
                       lambda_user=0.05, seed=7, max_iters=25, grad_tol=1e-8,
                       track_events=True)
    trace = run(m, cfg, np.zeros(m.p))
    size = trace.header["sample_size_h"]
    kt = est.kappa_tilde(size, "without")
    khat = est.khat(size)
    lemma_floor = 0.5 * math.sqrt((1 - eps) / kt)
    for rec in trace.records:
        if rec.alpha == 0.0 or rec.lambda_applied <= (1 - eps) * est.gamma:
            continue
        budget = rate_spectral(0.25, 0.5, rec.lambda_applied, est.big_k, khat,
                               est.gamma, 1.0).theta1_max
        assert budget >= lemma_floor - 1e-12


def test_ridge_decrease_bound_with_inexact_solves(small_logistic):
    m = small_logistic
    est = m.curvature_constants()
    beta, theta2, lam = 0.25, 0.5, 0.2
    theta1 = 0.5 * math.sqrt(lam / (est.big_k + lam))
    cfg = SolverConfig(variant="ssn-ridge", sample_frac_h=0.3, lambda_user=lam,
                       seed=14, max_iters=40, grad_tol=1e-7,
                       inexact=InexactnessSpec(theta1=theta1, theta2=theta2),
                       line_search=LineSearchParams(beta=beta))
    trace = run(m, cfg, np.zeros(m.p))
    khat = est.khat(trace.header["sample_size_h"])
    fs = trace.f_values()
    checked = 0
    for i, rec in enumerate(trace.records):
        if rec.alpha == 0.0:
            continue
        pred = rate_ridge(beta, theta2, lam, est.big_k, khat, est.gamma,
                          alpha=rec.alpha)
        drop = pred.grad_decrease_coeff * rec.grad_norm_used**2
        assert rec.f_value <= fs[i] - drop + 1e-12
        checked += 1
    assert checked >= 5


def test_alg4_guarantee_floor_sigma_runs_then_stops(small_logistic, oracle_star):
    """At the guarantee's own sigma floor, eps2 must sit far below the running
    gradient norm for any progress to happen; the gradient lemma size then
    exceeds n and clamps to the full gradient (the bound is pessimistic at
    desk scale).  The decrease contraction and the STOP certificate both
    hold on every pre-stop iteration."""
    m = small_logistic
    _, f_star = oracle_star
    est = m.curvature_constants()
    beta, eps1, eps2 = 0.25, 0.4, 2e-7
    cfg = SolverConfig(variant="ssn-full", eps1=eps1, eps2=eps2, delta=0.1,
                       seed=3, max_iters=80, grad_tol=0.0, track_events=True,
                       line_search=LineSearchParams(beta=beta))
    trace = run(m, cfg, np.full(m.p, 2.0))
    sigma = trace.header["sigma"]
    assert trace.stop == "SigmaStop"
    assert trace.records[-1].grad_norm_full < (1 + sigma) * eps2
    kt = est.kappa_tilde(trace.header["sample_size_h"], "without")
    fs = trace.f_values()
    checked = 0
    for i, rec in enumerate(trace.records):
        if rec.alpha == 0.0:
            continue
        if rec.min_eig_h < (1 - eps1) * est.gamma or rec.grad_error_used > eps2:
            continue
        rho = 8 * rec.alpha * beta / (9 * kt)
        assert rec.f_value - f_star <= (1 - rho) * (fs[i] - f_star) + 1e-14
        checked += 1
    assert checked >= 3


def test_alg4_event_conditioned_decrease_with_sampled_gradient(small_logistic,
                                                               oracle_star):
    """With direct sampling fractions, the contraction is checked only on
    iterations where both measured events hold: the curvature floor, and a
    gradient error within a third of the true gradient norm (the slack the
    stop rule would otherwise enforce)."""
    m = small_logistic
    _, f_star = oracle_star
    est = m.curvature_constants()
    beta, eps1 = 0.25, 0.4
    x0 = np.full(m.p, 4.0)
    checked = 0
    for seed in (3, 4, 5, 6):
        cfg = SolverConfig(variant="ssn-full", eps1=eps1, sample_frac_h=0.4,
                           sample_frac_g=0.9, sigma=0.0, seed=seed, max_iters=8,
                           grad_tol=0.05, track_events=True,
                           line_search=LineSearchParams(beta=beta))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trace = run(m, cfg, x0)
        kt = est.kappa_tilde(trace.header["sample_size_h"], "without")
        fs = trace.f_values()
        gn_prev = float(np.linalg.norm(m.gradient(x0)))
        for i, rec in enumerate(trace.records):
            if rec.alpha == 0.0:
                continue
            hessian_event = rec.min_eig_h >= (1 - eps1) * est.gamma
            gradient_event = rec.grad_error_used <= gn_prev / 3.0
            if hessian_event and gradient_event:
                rho = 8 * rec.alpha * beta / (9 * kt)
                assert rec.f_value - f_star <= (1 - rho) * (fs[i] - f_star) + 1e-14
                checked += 1
            gn_prev = rec.grad_norm_full
    assert checked >= 5


def test_alg4_step_floor_with_exact_gradient(small_logistic):
    m = small_logistic
    est = m.curvature_constants()
    beta, eps1 = 0.25, 0.4
    ls = LineSearchParams(beta=beta, alpha_hat=1.0, shrink=0.5)
    cfg = SolverConfig(variant="ssn-full", eps1=eps1, sample_frac_h=0.3,
                       sample_frac_g=1.0, sigma=0.0, seed=10, max_iters=40,
                       grad_tol=1e-8, track_events=True, line_search=ls)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace = run(m, cfg, np.zeros(m.p))
    floor = rate_alg4(beta, eps1, est.kappa, 1.0, 1.0).alpha_floor
    for rec in trace.records:
        if rec.alpha == 0.0 or rec.min_eig_h < (1 - eps1) * est.gamma:
            continue
        assert rec.alpha >= min(ls.alpha_hat, ls.shrink * floor) - 1e-15


# -- config validation ----------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SolverConfig(variant="nope")
    with pytest.raises(ValueError):
        SolverConfig(eps=1.5)
    with pytest.raises(ValueError):
        SolverConfig(variant="ssn-full", eps1=0.7)
    with pytest.raises(ValueError):
        SolverConfig(sample_frac_h=0.0)
    with pytest.raises(ValueError):
        SolverConfig(replacement="sometimes")


def test_header_echoes_config_and_rates(small_logistic):
    cfg = SolverConfig(variant="ssn-hessian", eps=0.5, delta=0.1, seed=5,
                       max_iters=3, grad_tol=0.0)
    trace = run(small_logistic, cfg, np.zeros(small_logistic.p))
    echo = trace.header["config"]
    assert echo["eps"] == 0.5 and echo["seed"] == 5
    pred = trace.header["rate_prediction"]
    assert 0 < pred["rho"] < 1
    assert pred["alpha_floor"] > 0


def test_spectral_and_ridge_step_size_floors(small_logistic):
    m = small_logistic
    est = m.curvature_constants()
    beta, theta2, lam = 0.25, 0.5, 0.1
    ls = LineSearchParams(beta=beta, alpha_hat=1.0, shrink=0.5)
    spec = InexactnessSpec(theta1=1e-3, theta2=theta2)
    for variant in ("ssn-spectral", "ssn-ridge"):
        cfg = SolverConfig(variant=variant, sample_frac_h=0.3, lambda_user=lam,
                           seed=19, max_iters=30, grad_tol=1e-7, inexact=spec,
                           line_search=ls)
        trace = run(m, cfg, np.zeros(m.p))
        for rec in trace.records:
            if rec.alpha == 0.0:
                continue
            lam_k = rec.lambda_applied
            floor = 2 * (1 - theta2) * (1 - beta) * lam_k / est.big_k
            assert rec.alpha >= min(ls.alpha_hat, ls.shrink * floor) - 1e-15
