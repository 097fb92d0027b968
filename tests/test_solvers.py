from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp
from conftest import line_search_passes

from subnewton import linsolve, regularize, solvers
from subnewton import model as model_module
from subnewton.data import generate_synthetic
from subnewton.linesearch import LineSearchParams
from subnewton.linsolve import InexactnessSpec, verify_inexact
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


def test_ssn_full_with_a_whole_range_gradient_is_ssn_hessian():
    """At sample_frac_g = 1, sigma = 0, Algorithm 4 is Algorithm 1: ssn-full
    draws the same Hessian samples and steps on the full gradient, so it
    takes ssn-hessian's iterates bit for bit, over two dense row blocks."""
    dataset, _ = generate_synthetic(6000, 40, seed=7)
    model = ObjectiveModel(dataset, "logistic", reg=1e-3)
    settings = dict(sample_frac_h=0.1, grad_tol=1e-9, max_iters=60, seed=7)
    hessian = run(model, SolverConfig(variant="ssn-hessian", **settings), np.zeros(model.p))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sigma=0 is below the STOP floor
        full = run(model, SolverConfig(variant="ssn-full", sample_frac_g=1.0, sigma=0.0,
                                       **settings), np.zeros(model.p))
    assert hessian.stop == full.stop == "GradTol"
    assert len(hessian.records) == len(full.records) > 3
    for a, b in zip(hessian.records, full.records):
        assert a.x.tobytes() == b.x.tobytes()
        assert a.grad_norm_used == b.grad_norm_used


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


# variants that run CG, on a problem where plain CG misses theta1 every step
PCG_CASES = [
    dict(variant="ssn-hessian"),
    dict(variant="ssn-ridge", lambda_user=1e-4, max_iters=30),
    dict(variant="ssn-full", sample_frac_g=0.5, sigma=0.0, max_iters=30),
]


@pytest.mark.parametrize("settings", PCG_CASES, ids=[c["variant"] for c in PCG_CASES])
def test_kept_preconditioner_makes_cg_steps_without_assembly(ill_logistic, monkeypatch,
                                                             settings):
    """CG preconditioned by the run's one preconditioner (the inverse of the
    full Hessian at x0, built before the first draw) meets the contract on
    each fresh sample without assembling it."""
    m = ill_logistic
    spec = InexactnessSpec(theta1=1e-2, theta2=0.5)
    events, solves = [], []

    def mark(owner, name, event):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            events.append(event)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    mark(solvers, "draw", "draw")
    mark(model_module, "weighted_gram", "assemble")  # every p x p assembly
    mark(solvers, "armijo", "step")
    solve = solvers.solve_inexact

    def recording(h, g, *args):
        out = solve(h, g, *args)
        solves.append((h, g, out[0]))
        return out
    monkeypatch.setattr(solvers, "solve_inexact", recording)

    cfg = SolverConfig(sample_frac_h=0.2, seed=3, grad_tol=1e-8, inexact=spec,
                       **{"max_iters": 100, **settings})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ssn-full's sigma is below the STOP floor
        trace = run(m, cfg, np.zeros(m.p))
    steps = [r for r in trace.records if r.alpha > 0]
    assert len(steps) >= 20
    paths = [r.solve_path for r in steps]
    assert paths.count("cholesky-fallback") <= 0.1 * len(steps)
    assert paths.count("cg") + paths.count("cholesky-fallback") == len(steps)
    for rec in steps:
        if rec.solve_path == "cg":
            assert rec.residual_ratio <= spec.theta1
            assert rec.descent_ratio >= 1 - spec.theta2

    # assemblies per step; set-up (curvature constants) ends at the first draw
    assemblies, count = [], 0
    for event in events[events.index("draw"):]:
        if event == "step":
            assemblies.append(count)
            count = 0
        elif event == "assemble":
            count += 1
    assert assemblies == [int(rec.solve_path == "cholesky-fallback") for rec in steps]

    # every accepted direction meets the contract on its own fresh sample
    assert len(solves) == len(steps)
    for h, g, p in solves:
        assert verify_inexact(h.dense(), g, p, spec).ok


def test_bound_preconditioned_run_never_falls_back_or_assembles(ill_logistic, monkeypatch):
    """Preconditioned by the inverse of the Hessian at zero, which for
    logistic is the curvature bound A'A/(4n) + reg I, an ssn-hessian inexact
    run on the 1e8-conditioned problem meets the contract by CG on every
    step: no fallback, and no p x p Gram is formed once sampling starts."""
    m = ill_logistic
    events = []
    draw, gram = solvers.draw, model_module.weighted_gram

    def drawing(*args):
        events.append("draw")
        return draw(*args)

    def assembling(*args):
        events.append("gram")
        return gram(*args)
    monkeypatch.setattr(solvers, "draw", drawing)
    monkeypatch.setattr(model_module, "weighted_gram", assembling)
    cfg = SolverConfig(sample_frac_h=0.2, seed=3, grad_tol=1e-8, max_iters=100,
                       inexact=InexactnessSpec(theta1=1e-2, theta2=0.5))
    trace = run(m, cfg, np.zeros(m.p))
    assert trace.stop == "GradTol"
    assert trace.header["preconditioner"] == "start-hessian"
    steps = [r for r in trace.records if r.alpha > 0]
    assert len(steps) >= 20
    assert all(r.solve_path == "cg" for r in steps)
    assert "gram" not in events[events.index("draw"):]


def test_ridge_bound_is_the_hessian_so_newton_cg_takes_one_iteration(small_ridge):
    """Ridge's Hessian is its curvature bound A'A/n + reg I at every x, so
    the inverse of the Hessian at x0 is exact: every inexact newton solve
    takes one CG iteration."""
    cfg = SolverConfig(variant="newton", grad_tol=1e-10, max_iters=10,
                       inexact=InexactnessSpec(theta1=1e-8, theta2=0.5))
    trace = run(small_ridge, cfg, np.full(small_ridge.p, 2.0))
    assert trace.header["preconditioner"] == "start-hessian"
    steps = [r for r in trace.records if r.alpha > 0]
    assert steps
    assert all(r.solve_path == "cg" and r.cg_iters == 1 for r in steps)
    assert trace.stop == "GradTol"


def test_poisson_start_hessian_makes_no_fallback():
    """Poisson runs are preconditioned by the inverse of their Hessian at
    x0 too: on this problem every CG solve meets the contract, with no
    fallback."""
    dataset, _ = generate_synthetic(2000, 50, family="poisson", condition_target=1e4,
                                    seed=3)
    m = ObjectiveModel(dataset, "poisson", reg=1e-3)
    cfg = SolverConfig(sample_frac_h=0.2, seed=0, grad_tol=1e-8,
                       inexact=InexactnessSpec(theta1=1e-2, theta2=0.5))
    trace = run(m, cfg, np.zeros(m.p))
    assert trace.stop == "GradTol"
    steps = [r for r in trace.records if r.alpha > 0]
    assert len(steps) >= 20
    assert all(r.solve_path == "cg" for r in steps)
    assert trace.header["preconditioner"] == "start-hessian"


def test_singular_start_hessian_leaves_cg_unpreconditioned(ill_logistic, small_logistic,
                                                           monkeypatch):
    """A start Hessian Cholesky cannot factor leaves the run without a
    preconditioner: its header says None, plain CG misses on every step,
    the fallbacks complete the run and no inverse is formed or kept.  A
    reg-0 logistic run, whose gamma is 0, gets None from the plan already.
    The model is built here, since a model that ran before keeps its
    inverse and would not invert again."""
    potri, dpotri = [], scipy.linalg.lapack.dpotri

    def counted(*args, **kwargs):
        potri.append(args)
        return dpotri(*args, **kwargs)
    monkeypatch.setattr(scipy.linalg.lapack, "dpotri", counted)

    def singular(h):
        raise solvers.NotPositiveDefiniteError("singular")
    monkeypatch.setattr(model_module, "spd_inverse", singular)
    m = ObjectiveModel(ill_logistic.dataset, "logistic", reg=ill_logistic.reg)
    cfg = SolverConfig(sample_frac_h=0.2, seed=3, max_iters=20, grad_tol=1e-8,
                       inexact=InexactnessSpec(theta1=1e-2, theta2=0.5))
    assert solvers.plan(m, cfg, np.zeros(m.p))["preconditioner"] == "start-hessian"
    trace = run(m, cfg, np.zeros(m.p))
    assert trace.header["preconditioner"] is None
    paths = [r.solve_path for r in trace.records if r.alpha > 0]
    assert len(paths) >= 10 and set(paths) == {"cholesky-fallback"}
    assert potri == [] and m._inverses == {}

    m = ObjectiveModel(small_logistic.dataset, "logistic", reg=0.0)
    newton = SolverConfig(variant="newton", inexact=InexactnessSpec(1e-2, 0.5), max_iters=1)
    trace = run(m, newton, np.zeros(m.p))
    assert trace.header["preconditioner"] is None
    assert trace.records[0].alpha > 0


@pytest.mark.filterwarnings("ignore:sigma = .* is below the guarantee floor")
@pytest.mark.parametrize("solve", [dict(inexact=InexactnessSpec(1e-2, 0.5)),
                                   dict(inexact=InexactnessSpec(1e-4, 0.5)), {}])
@pytest.mark.parametrize("variant", ["newton", "ssn-full"])
def test_newton_and_ssn_full_refuse_a_rank_deficient_design_at_reg_zero(variant, solve):
    """With an all-zero column and reg = 0 every Hessian is singular; plan
    refuses the run instead of letting a Cholesky fail mid-run."""
    d, _ = generate_synthetic(300, 10, family="logistic", seed=7)
    a = np.hstack([d.features, np.zeros((d.n, 1))])
    m = ObjectiveModel(Dataset(a, d.labels), "logistic", reg=0.0)
    assert m.curvature_constants().rank_deficient
    cfg = SolverConfig(variant=variant, sigma=0.5, sample_frac_h=0.5, **solve)
    with pytest.raises(solvers.NotStronglyConvexError, match="rank-deficient"):
        run(m, cfg, np.zeros(m.p))
    # any penalty makes every Hessian positive definite again
    m = ObjectiveModel(Dataset(a, d.labels), "logistic", reg=1e-3)
    assert m.curvature_constants().rank_deficient
    assert run(m, replace(cfg, max_iters=2), np.zeros(m.p)).n_iters == 2


@pytest.fixture(scope="module")
def thin_sample_logistic():
    """400 x 60 logistic problem, 1e8-conditioned at reg 1e-8 (K / reg =
    2.5e7), whose 5% sample has 20 < p rows."""
    dataset, _ = generate_synthetic(400, 60, family="logistic", seed=0,
                                    condition_target=1e8)
    return ObjectiveModel(dataset, "logistic", reg=1e-8)


@pytest.mark.filterwarnings("ignore:sigma = .* is below the guarantee floor")
@pytest.mark.parametrize("settings", [
    dict(variant="ssn-hessian"),
    dict(variant="ssn-hessian", inexact=InexactnessSpec(1e-2, 0.5)),
    dict(variant="ssn-full", sigma=0.5),
    dict(variant="ssn-ridge"),
], ids=["ssn-hessian", "ssn-hessian-inexact", "ssn-full", "ssn-ridge"])
def test_plan_refuses_a_sample_below_p_that_no_solve_resolves(thin_sample_logistic,
                                                               settings):
    """Below p rows, lambda_min(H_S) is the shift; at K / shift = 2.5e7 no
    solve meets the 1e-10 residual contract, so plan refuses the run
    instead of letting it die on a singular sample."""
    m, x0 = thin_sample_logistic, np.zeros(thin_sample_logistic.p)
    cfg = SolverConfig(sample_frac_h=0.05, **settings)
    with pytest.raises(solvers.NotStronglyConvexError,
                       match=r"\|S\| = 20 < p = 60.*shift 1e-08"):
        solvers.plan(m, cfg, x0)
    # p rows, a floor, or a shift the solve resolves: accepted
    for accepted in (replace(cfg, sample_frac_h=0.15),
                     replace(cfg, variant="ssn-spectral", lambda_user=1e-3),
                     replace(cfg, variant="ssn-ridge", lambda_user=1e-3)):
        solvers.plan(m, accepted, x0)


def test_later_runs_take_the_start_hessian_from_the_kept_gram(ill_logistic, monkeypatch):
    """The first preconditioned run on a model forms one Gram A'A/n, for its
    constants and its start Hessian both, which the model keeps; a second
    run forms none and repeats the first bit for bit.  A run without a
    start Hessian keeps no Gram."""
    grams = []
    weighted_gram = model_module.weighted_gram

    def counted(a, w=None, out=None):
        grams.append(w is None)
        return weighted_gram(a, w, out)
    monkeypatch.setattr(model_module, "weighted_gram", counted)
    m = ObjectiveModel(ill_logistic.dataset, "logistic", reg=ill_logistic.reg)
    cfg = SolverConfig(sample_frac_h=0.2, seed=3, max_iters=5,
                       inexact=InexactnessSpec(theta1=1e-2, theta2=0.5))
    first = run(m, cfg, np.zeros(m.p))
    assert first.header["preconditioner"] == "start-hessian"
    assert grams == [True] and m._gram is not None
    second = run(m, cfg, np.zeros(m.p))
    assert grams == [True]
    for a, b in zip(first.records, second.records, strict=True):
        np.testing.assert_array_equal(a.x, b.x)
        assert (a.cg_iters, a.solve_path) == (b.cg_iters, b.solve_path)
    for variant in ("ssn-spectral", "ssn-hessian"):  # eigh, and an exact Cholesky
        m = ObjectiveModel(ill_logistic.dataset, "logistic", reg=ill_logistic.reg)
        run(m, SolverConfig(variant=variant, sample_frac_h=0.2, lambda_user=1e-3,
                            max_iters=2), np.zeros(m.p))
        assert m._gram is None and m._inverses == {}


def test_later_cg_runs_invert_no_start_hessian(ill_logistic, monkeypatch):
    """The model keeps the start Hessian's inverse, read-only, per shift: a
    second CG run on one model runs no Cholesky and no potri and repeats
    the first bit for bit; a run at another shift (ssn-ridge) inverts once."""
    m = ObjectiveModel(ill_logistic.dataset, "logistic", reg=ill_logistic.reg)
    cfg = SolverConfig(sample_frac_h=0.2, seed=3, max_iters=5,
                       inexact=InexactnessSpec(theta1=1e-2, theta2=0.5))
    first = run(m, cfg, np.zeros(m.p))
    (kept,) = m._inverses.values()
    assert not kept.flags.writeable
    calls = []
    cholesky, dpotri = linsolve._cholesky, scipy.linalg.lapack.dpotri

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call
    monkeypatch.setattr(linsolve, "_cholesky", counted("cholesky", cholesky))
    monkeypatch.setattr(scipy.linalg.lapack, "dpotri", counted("potri", dpotri))
    second = run(m, cfg, np.zeros(m.p))
    assert calls == []
    assert all(r.solve_path == "cg" for r in second.records if r.alpha > 0)
    for a, b in zip(first.records, second.records, strict=True):
        np.testing.assert_array_equal(a.x, b.x)
    ridge = replace(cfg, variant="ssn-ridge", lambda_user=1e-3)
    run(m, ridge, np.zeros(m.p))
    assert calls == ["cholesky", "potri"] and len(m._inverses) == 2
    run(m, ridge, np.zeros(m.p))
    assert calls == ["cholesky", "potri"]


def wide_sparse_model():
    """p = 2001 > EXACT_GAMMA_MAX_DIM, stored CSR so it stays small."""
    rng = np.random.default_rng(9)
    a = sp.random(60, 2001, density=0.01, format="csr", random_state=rng)
    return ObjectiveModel(Dataset(a, (rng.random(60) < 0.5).astype(float)), "logistic",
                          reg=0.1)


SPEC = InexactnessSpec(theta1=0.1, theta2=0.5)
# (family, settings, the header's solve, its preconditioner)
PRECOND_CASES = [
    ("logistic", dict(variant="ssn-hessian", inexact=SPEC), "cg", "start-hessian"),
    ("logistic", dict(variant="ssn-ridge", lambda_user=0.1, inexact=SPEC), "cg",
     "start-hessian"),
    ("logistic", dict(variant="ssn-full", sample_frac_g=0.5, sigma=0.0, inexact=SPEC), "cg",
     "start-hessian"),
    ("logistic", dict(variant="newton", inexact=SPEC), "cg", "start-hessian"),
    ("ridge", dict(variant="ssn-hessian", inexact=SPEC), "cg", "start-hessian"),
    ("poisson", dict(variant="ssn-hessian", inexact=SPEC), "cg", "start-hessian"),
    ("wide", dict(variant="ssn-hessian", inexact=SPEC), "cg", None),
    ("logistic", dict(variant="ssn-hessian"), "cholesky", None),
    ("logistic", dict(variant="newton"), "cholesky", None),
    ("logistic", dict(variant="ssn-hessian", inexact=InexactnessSpec(0.0, 0.5)), "cholesky",
     None),
    ("logistic", dict(variant="ssn-spectral", lambda_user=0.1, inexact=SPEC), "eigh", None),
    ("logistic", dict(variant="ssn-ridge", lambda_user=0.1), "cholesky", None),
]


@pytest.mark.parametrize("family,settings,solve,label", PRECOND_CASES,
                         ids=[f"{f}-{c['variant']}-{lab}" for f, c, _, lab in PRECOND_CASES])
def test_plan_names_the_preconditioner_of_the_run(family, settings, solve, label,
                                                  small_logistic, small_ridge, small_poisson):
    m = {"logistic": small_logistic, "ridge": small_ridge, "poisson": small_poisson,
         "wide": None}[family] or wide_sparse_model()
    cfg = SolverConfig(sample_frac_h=0.5, max_iters=1, seed=1, **settings)
    x0 = np.zeros(m.p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ssn-full's sigma is below the STOP floor
        planned = solvers.plan(m, cfg, x0)
        trace = run(m, cfg, x0)
    header = dict(trace.header)
    del header["config"]
    assert planned["solve"] == solve and planned["preconditioner"] == label
    assert planned == header
    assert trace.records[0].solve_path == solve


SOLVE_DTYPE_CASES = [
    ("logistic", dict(variant="ssn-hessian", inexact=InexactnessSpec(1e-2, 0.5)), "float32"),
    ("logistic", dict(variant="ssn-hessian", inexact=InexactnessSpec(1e-3, 0.5)), "float32"),
    ("logistic", dict(variant="ssn-hessian", inexact=InexactnessSpec(9e-4, 0.5)), "float64"),
    ("logistic", dict(variant="ssn-ridge", lambda_user=0.1, inexact=SPEC), "float32"),
    ("logistic", dict(variant="ssn-full", sample_frac_g=0.5, sigma=0.0, inexact=SPEC),
     "float32"),
    ("logistic", dict(variant="newton", inexact=SPEC), "float32"),
    ("ridge", dict(variant="ssn-hessian", inexact=SPEC), "float32"),
    ("poisson", dict(variant="ssn-hessian", inexact=SPEC), "float64"),
    ("logistic", dict(variant="ssn-hessian"), "float64"),
    ("logistic", dict(variant="ssn-hessian", inexact=InexactnessSpec(0.0, 0.5)), "float64"),
    ("logistic", dict(variant="ssn-spectral", lambda_user=0.1, inexact=SPEC), "float32"),
    # small_logistic's K is 0.3: K / lambda_user is 97 and 103 about the constant 100
    ("logistic", dict(variant="ssn-spectral", lambda_user=3.1e-3), "float32"),
    ("logistic", dict(variant="ssn-spectral", lambda_user=2.9e-3), "float64"),
    ("logistic", dict(variant="ssn-spectral", lambda_user=0.0), "float64"),
    ("ridge", dict(variant="ssn-spectral", lambda_user=0.1), "float32"),
    ("poisson", dict(variant="ssn-spectral", lambda_user=0.1), "float64"),
]


@pytest.mark.parametrize("family,settings,dtype", SOLVE_DTYPE_CASES)
def test_plan_runs_cg_in_float32_for_logistic_and_ridge_at_loose_theta1(
        family, settings, dtype, small_logistic, small_ridge, small_poisson):
    """Only a CG run of a logistic or ridge objective with theta1 >=
    FLOAT32_CG_MIN_THETA1 multiplies in float32, and only an eigh run of one
    with K / lambda_user <= FLOAT32_EIGH_MAX_K_RATIO decomposes in float32;
    Poisson, tighter specs, smaller shifts and exact solves stay float64."""
    m = {"logistic": small_logistic, "ridge": small_ridge, "poisson": small_poisson}[family]
    cfg = SolverConfig(sample_frac_h=0.5, **settings)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ssn-full's sigma is below the STOP floor
        assert solvers.plan(m, cfg, np.zeros(m.p))["solve_dtype"] == dtype


def test_float32_cg_directions_meet_both_conditions_in_float64(ill_logistic, monkeypatch):
    """A theta1 = 1e-2 run on the 1e8-conditioned problem multiplies in
    float32, and every direction it takes meets both conditions against its
    own sample's Hessian assembled in float64, recomputed here."""
    m = ill_logistic
    spec = InexactnessSpec(theta1=1e-2, theta2=0.5)
    solves, solve = [], solvers.solve_inexact

    def recording(h, g, *args):
        out = solve(h, g, *args)
        solves.append((h, g, out[0]))
        return out
    monkeypatch.setattr(solvers, "solve_inexact", recording)
    cfg = SolverConfig(sample_frac_h=0.2, seed=3, grad_tol=1e-8, max_iters=100, inexact=spec)
    trace = run(m, cfg, np.zeros(m.p))
    assert trace.header["solve_dtype"] == "float32" and trace.stop == "GradTol"
    steps = [r for r in trace.records if r.alpha > 0]
    assert len(solves) == len(steps) >= 20
    for (h, g, p), rec in zip(solves, steps):
        assert rec.solve_path == "cg"
        dense = h.dense()
        assert dense.dtype == p.dtype == np.float64
        hp = dense @ p
        residual = float(np.linalg.norm(hp + g)) / float(np.linalg.norm(g))
        assert residual <= spec.theta1
        assert float(p @ g) <= -(1 - spec.theta2) * float(p @ hp)
        assert residual == pytest.approx(rec.residual_ratio, rel=1e-6)


def test_no_float32_operator_reaches_the_check_or_the_fallback(ill_logistic, monkeypatch):
    """The float32 copies serve CG's products only: in a float32 run every
    operator that verify_inexact checks, that dense() assembles and that the
    fallback factors is float64, on a preconditioned run (every step CG) and
    on an unpreconditioned one (every step a fallback)."""
    seen = {"checked": [], "assembled": [], "factored": []}

    def spy(owner, name, kind):
        fn = getattr(owner, name)

        def wrapper(h, *args):
            seen[kind].append(h.dtype.name)
            return fn(h, *args)
        monkeypatch.setattr(owner, name, wrapper)
    spy(linsolve, "verify_inexact", "checked")
    spy(linsolve, "solve_exact", "factored")
    spy(model_module.SampledHessian, "dense", "assembled")
    cfg = SolverConfig(sample_frac_h=0.2, seed=3, max_iters=8, grad_tol=1e-8,
                       inexact=InexactnessSpec(theta1=1e-2, theta2=0.5))
    trace = run(ill_logistic, cfg, np.zeros(ill_logistic.p))
    assert trace.header["solve_dtype"] == "float32"
    assert {r.solve_path for r in trace.records if r.alpha > 0} == {"cg"}
    assert seen["checked"] and not seen["factored"]

    def singular(h):
        raise solvers.NotPositiveDefiniteError("singular")
    monkeypatch.setattr(model_module, "spd_inverse", singular)
    m = ObjectiveModel(ill_logistic.dataset, "logistic", reg=ill_logistic.reg)
    trace = run(m, replace(cfg, max_iters=4), np.zeros(m.p))
    assert trace.header["solve_dtype"] == "float32" and trace.header["preconditioner"] is None
    assert {r.solve_path for r in trace.records if r.alpha > 0} == {"cholesky-fallback"}
    assert seen["factored"] and seen["assembled"]
    assert {name for names in seen.values() for name in names} == {"float64"}


def _float64_run(case, ill_logistic):
    if case == "poisson":
        dataset, _ = generate_synthetic(2000, 50, family="poisson", condition_target=1e4,
                                        seed=3)
        m = ObjectiveModel(dataset, "poisson", reg=1e-3)
        return m, SolverConfig(sample_frac_h=0.2, seed=1, max_iters=10,
                               inexact=InexactnessSpec(theta1=1e-2, theta2=0.5))
    spec = InexactnessSpec(theta1=1e-6, theta2=0.5) if case == "theta1-1e-6" else None
    return ill_logistic, SolverConfig(sample_frac_h=0.2, seed=2, max_iters=15, inexact=spec)


@pytest.mark.parametrize("case", ["theta1-1e-6", "poisson", "exact"])
def test_float64_runs_keep_their_float64_products(case, ill_logistic, monkeypatch):
    """Runs that stay float64 (theta1 below FLOAT32_CG_MIN_THETA1, Poisson,
    exact solves) make no float32 copy, and their records equal, bit for
    bit, those of the same run on reference float64-only products: H d as
    one float64 walk over the blocks, M r as M @ r."""
    m, cfg = _float64_run(case, ill_logistic)

    def no_copy(self, dtype):
        raise AssertionError(f"a float64 run made a {dtype} copy")
    monkeypatch.setattr(model_module.SampledHessian, "astype", no_copy)
    x0 = np.zeros(m.p)
    trace = run(m, cfg, x0)
    assert trace.header["solve_dtype"] == "float64"

    def float64_product(self, d):
        hd = np.zeros(self.rows.shape[1])
        for a_b, w_b in self._blocks:
            hd += np.asarray(a_b.T @ (w_b * np.asarray(a_b @ d).ravel())).ravel()
        return hd + self.shift * d
    monkeypatch.setattr(model_module.SampledHessian, "__matmul__", float64_product)
    monkeypatch.setattr(linsolve, "_times", lambda op, v: op @ v)
    reference = run(m, cfg, x0)

    def records(t):
        return [(replace(r, wall_nanos=0, x=None), r.x.tobytes()) for r in t.records]
    assert len(trace.records) >= 5
    assert records(trace) == records(reference)


def test_newton_is_priced_without_sampling_error(small_logistic):
    """newton's Hessian is the full one, so Algorithm 1 prices it at
    eps = 0; ssn-hessian headers keep config.eps."""
    m, x0 = small_logistic, np.zeros(small_logistic.p)
    est = m.curvature_constants()
    beta = LineSearchParams().beta
    pred = solvers.plan(m, SolverConfig(variant="newton"), x0)["rate_prediction"]
    assert pred["alpha_floor"] == pytest.approx(2 * (1 - beta) / est.kappa, rel=1e-15)
    for inexact in (None, InexactnessSpec(theta1=0.01, theta2=0.5)):
        cfg = SolverConfig(variant="ssn-hessian", inexact=inexact, sample_frac_h=0.3)
        planned = solvers.plan(m, cfg, x0)
        expected = rate_alg1(beta, cfg.eps, est.kappa, planned["kappa_tilde"], 1.0, inexact)
        assert planned["rate_prediction"] == expected.as_dict()


# (settings, full-data products per step).  A line-search step makes three
# when it starts from A p (A p, then fresh A x and A'w at the new iterate),
# two or five when it predicts the unit step (``line_search_passes``).
# ssn-full's whole-range gradient sample is A'w at x_k in place of x_{k+1}'s,
# and its terminal record makes that one product for its stop check; gd has
# no line search (A x, A'w); agd's one gradient is at y_k (A y, A'w).
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
          track_events=True), 3),
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
    assert steps and terminal.data_passes == (settings["variant"] == "ssn-full")
    if settings["variant"] in ("gd", "agd"):
        assert all(rec.data_passes == passes for rec in steps)
    else:
        assert [rec.data_passes for rec in steps] == line_search_passes(steps, base=passes)


@pytest.mark.parametrize("variant", solvers.ALL_VARIANTS)
def test_every_variant_runs_alike_on_either_layout(small_logistic, variant, monkeypatch):
    """The layout reorders only the sums: on the same values stored
    row-major, each variant takes the same steps on the same samples, and
    its iterates agree to rounding."""
    column = small_logistic
    monkeypatch.setattr(model_module, "COLUMN_MAJOR_MAX_P", 0)
    row = ObjectiveModel(Dataset(column.dataset.features, column.dataset.labels),
                         "logistic", reg=column.reg)
    assert column.dataset.features.flags.f_contiguous
    assert row.dataset.features.flags.c_contiguous
    cfg = SolverConfig(variant=variant, max_iters=8, seed=5, sample_frac_h=0.5,
                       sample_frac_g=0.5, sigma=0.5, lambda_user=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ssn-full's sigma is below the STOP floor
        traces = [run(m, cfg, np.zeros(m.p)) for m in (column, row)]
    col, rw = traces
    assert col.records and col.stop == rw.stop
    assert len(col.records) == len(rw.records)
    for a, b in zip(col.records, rw.records):
        assert (a.k, a.ls_trials, a.sample_size_h, a.sample_size_g, a.cg_iters,
                a.solve_path, a.data_passes) == (b.k, b.ls_trials, b.sample_size_h,
                                                 b.sample_size_g, b.cg_iters, b.solve_path,
                                                 b.data_passes)
        assert abs(a.f_value - b.f_value) <= 1e-12 * abs(b.f_value)
        assert np.linalg.norm(a.x - b.x) <= 1e-12 * max(1.0, np.linalg.norm(b.x))


def test_accepted_full_steps_make_two_passes(small_logistic):
    # the predicted unit step's fresh margins and F become x_{k+1}'s: A x, A'w
    m = small_logistic
    trace = run(m, SolverConfig(variant="newton", grad_tol=1e-9), np.zeros(m.p))
    *steps, _ = trace.records
    assert trace.stop == "GradTol" and len(steps) >= 3
    assert all(rec.alpha == 1.0 and rec.ls_trials == 1 for rec in steps)
    assert [rec.data_passes for rec in steps] == [2] * len(steps)
    for rec in steps:
        assert rec.f_value == m.value(rec.x)


def test_backtracking_first_step_makes_five_passes_then_three(small_logistic):
    # alpha_hat = 4 is rejected every time: the first search pays the missed
    # prediction (A(x + 4p) and its A'w, then A p, A x, A'w), later ones
    # start from A p
    m = small_logistic
    cfg = SolverConfig(variant="newton", grad_tol=1e-9,
                       line_search=LineSearchParams(alpha_hat=4.0))
    trace = run(m, cfg, np.zeros(m.p))
    *steps, _ = trace.records
    assert trace.stop == "GradTol" and len(steps) >= 3
    assert all(rec.ls_trials > 1 for rec in steps)
    assert [rec.data_passes for rec in steps] == [5] + [3] * (len(steps) - 1)
    for rec in steps:
        assert rec.f_value == m.value(rec.x)


def count_evaluations(monkeypatch):
    """Count the model's evaluate (by its gradient flag), gradient and
    value calls."""
    calls = {"evaluate": 0, "evaluate-no-gradient": 0, "gradient": 0, "value": 0}
    cls = model_module.ObjectiveModel
    evaluate, gradient, value = cls.evaluate, cls.gradient, cls.value

    def counting_evaluate(self, x, gradient=True):
        calls["evaluate" if gradient else "evaluate-no-gradient"] += 1
        return evaluate(self, x, gradient)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cls, "evaluate", counting_evaluate)
    monkeypatch.setattr(cls, "gradient", counting("gradient", gradient))
    monkeypatch.setattr(cls, "value", counting("value", value))
    return calls


def test_accepted_predictions_evaluate_each_iterate_in_one_walk(monkeypatch):
    # 64 rows per block: the 20000-row design spans 313 blocks
    monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", 64 * 8 * 8)
    dataset, _ = generate_synthetic(20_000, 8, family="logistic", seed=5)
    m = ObjectiveModel(dataset, "logistic", reg=1e-4)
    calls = count_evaluations(monkeypatch)
    trace = run(m, SolverConfig(variant="ssn-hessian", sample_frac_h=0.05, seed=1,
                                grad_tol=1e-8), np.zeros(m.p))
    *steps, _ = trace.records
    assert trace.stop == "GradTol" and len(steps) >= 4
    assert all(rec.ls_trials == 1 for rec in steps)
    # x0, then each x_{k+1}: one evaluate, no separate gradient or value call
    assert calls == {"evaluate": len(steps) + 1, "evaluate-no-gradient": 0,
                     "gradient": 0, "value": 0}
    assert [rec.data_passes for rec in steps] == [2] * len(steps)
    for rec in trace.records:
        assert rec.f_value == m.value(rec.x)
        assert rec.grad_norm_full == float(np.linalg.norm(m.gradient(rec.x)))


# (fixture, settings) of runs whose searches backtrack: alpha_hat = 4 is
# rejected on every step, and most sampled unit steps on the 1e8-conditioned
# design are
BACKTRACKING_CASES = {
    "newton-alpha-hat-4": ("small_logistic", dict(
        variant="newton", grad_tol=1e-9, line_search=LineSearchParams(alpha_hat=4.0))),
    "ssn-hessian": ("ill_logistic", dict(
        variant="ssn-hessian", sample_frac_h=0.2, seed=2, max_iters=200)),
}


@pytest.mark.parametrize("case", BACKTRACKING_CASES)
def test_backtracked_steps_evaluate_each_iterate_once(request, monkeypatch, case):
    fixture, settings = BACKTRACKING_CASES[case]
    m = request.getfixturevalue(fixture)
    calls = count_evaluations(monkeypatch)
    trace = run(m, SolverConfig(**settings), np.zeros(m.p))
    *steps, _ = trace.records
    assert trace.stop == "GradTol" and sum(rec.ls_trials > 1 for rec in steps) >= 3
    # a search predicts on the first step and after an accepted first trial
    predicted = [True] + [rec.ls_trials == 1 for rec in steps[:-1]]
    missed = sum(pred and rec.ls_trials > 1 for pred, rec in zip(predicted, steps))
    # x0, then each x_{k+1}: one evaluate, plus one per rejected prediction;
    # every other trial is one O(n) value call
    assert calls == {"evaluate": 1 + len(steps) + missed, "evaluate-no-gradient": 0,
                     "gradient": 0,
                     "value": sum(rec.ls_trials for rec in steps) - sum(predicted)}
    assert [rec.data_passes for rec in trace.records] == line_search_passes(trace.records)
    for rec in trace.records:
        _, f, g = m.evaluate(rec.x)
        assert rec.f_value == f and rec.grad_norm_full == float(np.linalg.norm(g))


def test_first_order_steps_evaluate_each_iterate_once(small_logistic, monkeypatch):
    # gd evaluates x_{k+1} in its clock; agd takes one gradient at y_k and
    # evaluates x_{k+1} outside it
    m = small_logistic
    for variant, gradients in (("gd", 0), ("agd", 1)):
        calls = count_evaluations(monkeypatch)
        trace = run(m, SolverConfig(variant=variant, max_iters=15), np.zeros(m.p))
        assert trace.n_iters == 15
        assert calls == {"evaluate": 16, "evaluate-no-gradient": 0,
                         "gradient": 15 * gradients, "value": 0}
        assert all(rec.data_passes == 2 for rec in trace.records)
        monkeypatch.undo()


def test_rejected_prediction_gradient_never_reaches_a_record(small_logistic, monkeypatch):
    m = small_logistic
    speculative = []
    evaluate = model_module.ObjectiveModel.evaluate

    def keeping(self, x, gradient=True):
        out = evaluate(self, x, gradient)
        speculative.append((x.copy(), out[2]))
        return out

    monkeypatch.setattr(model_module.ObjectiveModel, "evaluate", keeping)
    cfg = SolverConfig(variant="newton", grad_tol=1e-9,
                       line_search=LineSearchParams(alpha_hat=4.0))
    trace = run(m, cfg, np.zeros(m.p))
    *steps, _ = trace.records
    assert trace.stop == "GradTol" and steps[0].ls_trials > 1
    # x0's evaluation, the first step's prediction at x0 + 4p, rejected, then
    # one evaluation per x_{k+1}
    assert len(speculative) == len(steps) + 2
    x_trial, g_trial = speculative[1]
    assert not np.array_equal(x_trial, steps[0].x)
    for rec in trace.records:
        assert rec.grad_norm_full == float(np.linalg.norm(m.gradient(rec.x)))
        assert rec.grad_norm_full != float(np.linalg.norm(g_trial))
    # the search itself hands x_{k+1} nothing from a rejected prediction
    x = np.zeros(m.p)
    t, f, g = m.evaluate(x)
    p = -(m.hessian_inverse(x, 0.0) @ g)  # the run's first direction
    speculative.clear()
    search = solvers._searcher(m, LineSearchParams(alpha_hat=4.0))
    alpha, trials, x_next, (t_next, f_next, g_next) = search(x, p, t, f, float(p @ g))
    assert trials > 1
    np.testing.assert_array_equal(x_next, x + alpha * p)
    for got, want in zip((t_next, f_next, g_next), m.evaluate(x_next)):
        np.testing.assert_array_equal(got, want)
    x_trial, g_trial = speculative[0]
    np.testing.assert_array_equal(x_trial, x + 4.0 * p)
    assert not np.array_equal(g_next, g_trial)
    # an accepted prediction is x_{k+1}'s one evaluation
    speculative.clear()
    accepted = solvers._searcher(m, LineSearchParams())
    alpha, trials, x_next, (t_new, f_next, g_new) = accepted(x, p, t, f, float(p @ g))
    assert alpha == 1.0 and trials == 1 and len(speculative) == 1
    np.testing.assert_array_equal(speculative[0][0], x_next)
    assert f_next == m.value(x_next)
    np.testing.assert_array_equal(g_new, m.gradient(x_next))


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
    """Keep a copy of every sampled Hessian the solvers assemble, in order
    (an eigh run assembles into one buffer it keeps)."""
    assembled = []
    assemble = solvers.subsampled_hessian

    def recording(*args, **kwargs):
        h = assemble(*args, **kwargs)
        assembled.append(h.copy())
        return h

    monkeypatch.setattr(solvers, "subsampled_hessian", recording)
    return assembled


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("inexact", [None, InexactnessSpec(theta1=1e-3, theta2=0.5)],
                         ids=["exact", "inexact"])
def test_spectral_step_takes_one_tridiagonal_reduction_and_nothing_else(
        small_logistic, monkeypatch, inexact, dtype):
    """Each step reduces its sample once (LAPACK sytrd, in the header's
    solve_dtype: ssytrd or dsytrd) and forms no p x p eigenvector matrix: no
    eigh, no eigvalsh, no Cholesky."""
    if dtype == "float64":  # K / lambda_user = 6: only a zero constant keeps float64
        monkeypatch.setattr(solvers, "FLOAT32_EIGH_MAX_K_RATIO", 0.0)
    calls = {"dsytrd": 0, "ssytrd": 0, "eigh": 0, "eigvalsh": 0, "cho_factor": 0}
    assembled = record_assemblies(monkeypatch)

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if assembled:  # set-up (curvature constants) is over
                calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(scipy.linalg.lapack, "dsytrd")
    counted(scipy.linalg.lapack, "ssytrd")
    counted(np.linalg, "eigh")
    counted(np.linalg, "eigvalsh")
    counted(scipy.linalg, "cho_factor")
    cfg = SolverConfig(variant="ssn-spectral", sample_frac_h=0.3, lambda_user=0.05,
                       grad_tol=1e-9, max_iters=40, seed=2, inexact=inexact)
    trace = run(small_logistic, cfg, np.zeros(small_logistic.p))
    steps = [rec for rec in trace.records if rec.alpha > 0]
    assert trace.stop == "GradTol" and len(steps) >= 5
    assert trace.header["solve_dtype"] == dtype
    reduction = {"float32": "ssytrd", "float64": "dsytrd"}[dtype]
    assert calls == {"dsytrd": 0, "ssytrd": 0, "eigh": 0, "eigvalsh": 0, "cho_factor": 0,
                     reduction: len(steps)}
    assert all(rec.solve_path == "eigh" and rec.cg_iters == 0 for rec in steps)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_spectral_runs_at_the_smallest_dimensions(p, storage):
    """p = 1 has no Householder reflector and p = 2 one (with tau = 0)."""
    rng = np.random.default_rng(p)
    a = rng.standard_normal((200, p))
    a[rng.random((200, p)) < 0.3] = 0.0
    b = (rng.random(200) < 1 / (1 + np.exp(-a.sum(axis=1)))).astype(float)
    features = sp.csr_matrix(a) if storage == "csr" else a
    model = ObjectiveModel(Dataset(features, b), "logistic", reg=1e-3)
    cfg = SolverConfig(variant="ssn-spectral", sample_frac_h=0.3, lambda_user=1e-3,
                       grad_tol=1e-8, max_iters=60, seed=1)
    trace = run(model, cfg, np.zeros(p))
    steps = [rec for rec in trace.records if rec.alpha > 0]
    assert trace.stop == "GradTol" and steps
    assert all(rec.solve_path == "eigh" for rec in steps)
    newton = run(model, SolverConfig(variant="newton", grad_tol=1e-10), np.zeros(p))
    assert np.allclose(trace.records[-1].x, newton.records[-1].x, atol=1e-6)


def test_spectral_direction_is_the_floored_operator_solve(small_logistic, monkeypatch):
    """A float64 eigh step is the floored matrix's solve to 1e-10."""
    monkeypatch.setattr(solvers, "FLOAT32_EIGH_MAX_K_RATIO", 0.0)  # K / lambda_user = 6
    m = small_logistic
    assembled = record_assemblies(monkeypatch)
    solves, solve = [], solvers.solve_eigen

    def recording(spec, eigs, g):
        y = solve(spec, eigs, g)
        solves.append((g, y))
        return y

    monkeypatch.setattr(solvers, "solve_eigen", recording)
    cfg = SolverConfig(variant="ssn-spectral", sample_frac_h=0.3, lambda_user=0.05,
                       grad_tol=1e-9, max_iters=40, seed=2)
    trace = run(m, cfg, np.zeros(m.p))
    steps = [rec for rec in trace.records if rec.alpha > 0]
    assert len(steps) == len(solves) == len(assembled) >= 5
    xs = [trace.x0] + [rec.x for rec in steps]
    for x, rec, (g, y), h in zip(xs, steps, solves, assembled):
        np.testing.assert_array_equal(g, m.gradient(x))
        expected = np.linalg.solve(spectral_floor(h, rec.lambda_applied), g)
        assert np.linalg.norm(y - expected) <= 1e-10 * np.linalg.norm(expected)


def sparse_spectral_model(storage):
    """A 2000 x 50 logistic problem at 5% density (K / 1e-3 = 69), on CSR
    rows or on the same rows stored dense."""
    rng = np.random.default_rng(0)
    a = sp.random(2000, 50, density=0.05, format="csr", random_state=rng,
                  data_rvs=rng.standard_normal)
    b = (rng.random(2000) < 1 / (1 + np.exp(-(a @ rng.standard_normal(50))))).astype(float)
    return ObjectiveModel(Dataset(a if storage == "csr" else a.toarray(), b), "logistic",
                          reg=0.05)


SPARSE_SPECTRAL = dict(variant="ssn-spectral", sample_frac_h=0.1, lambda_user=1e-3,
                       grad_tol=1e-8, max_iters=60, seed=4)


def record_floored_solves(monkeypatch):
    """Keep every (H_S, spectrum, floor, g, result) of solvers.solve_floored."""
    solves, solve = [], solvers.solve_floored

    def recording(h, spec, floor, g):
        out = solve(h, spec, floor, g)
        solves.append((h.copy(), spec, floor, g, out))  # h is the run's buffer
        return out
    monkeypatch.setattr(solvers, "solve_floored", recording)
    return solves


LOOSE, TIGHT = InexactnessSpec(theta1=1e-2, theta2=0.5), InexactnessSpec(theta1=1e-6, theta2=0.5)
SAMPLED = dict(sample_frac_h=0.1, seed=4)
# each solve path with its header's (solve, solve_dtype, preconditioner), the
# stop it must reach and the fewest iterations it must take to get there
SOLVE_PATHS = {
    "hessian-exact": (dict(variant="ssn-hessian", **SAMPLED),
                      ("cholesky", "float64", None), "GradTol", 5),
    "ridge-exact": (dict(variant="ssn-ridge", lambda_user=1e-3, **SAMPLED),
                    ("cholesky", "float64", None), "GradTol", 5),
    "cg-float32": (dict(variant="ssn-hessian", inexact=LOOSE, **SAMPLED),
                   ("cg", "float32", "start-hessian"), "GradTol", 5),
    "cg-float64": (dict(variant="ssn-hessian", inexact=TIGHT, **SAMPLED),
                   ("cg", "float64", "start-hessian"), "GradTol", 5),
    "ridge-cg": (dict(variant="ssn-ridge", lambda_user=1e-3, inexact=LOOSE, **SAMPLED),
                 ("cg", "float32", "start-hessian"), "GradTol", 5),
    "spectral-float32": (SPARSE_SPECTRAL, ("eigh", "float32", None), "GradTol", 5),
    "spectral-float64": (dict(SPARSE_SPECTRAL, lambda_user=1e-4),
                         ("eigh", "float64", None), "GradTol", 5),
    "newton": (dict(variant="newton"), ("cholesky", "float64", None), "GradTol", 3),
    # sigma = 1 is far below this problem's guarantee floor: the run warns
    # and stops on its sigma test
    "ssn-full": (dict(variant="ssn-full", sample_frac_g=0.5, sigma=1.0, eps2=0.03, **SAMPLED),
                 ("cholesky", "float64", None), "SigmaStop", 3),
}


@pytest.mark.parametrize("path", SOLVE_PATHS)
@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_spectral_runs_carry_no_state_in_their_kept_buffers(storage, path):
    # two identical runs on one model, on every solve path: each run builds
    # its solve once (the CG preconditioner, an eigh run's buffers) and
    # nothing a step keeps aliases that state; track_events reads the
    # sampled Hessian a solve hands back, after the step
    settings, header, stop, min_iters = SOLVE_PATHS[path]
    m = sparse_spectral_model(storage)
    cfg = SolverConfig(**{"grad_tol": 1e-8, "max_iters": 60, **settings, "track_events": True})
    with warnings.catch_warnings():
        # only ssn-full's floor warning; a RuntimeWarning stays an error
        warnings.filterwarnings("ignore", "sigma = .* below the guarantee floor", UserWarning)
        first, second = (run(m, cfg, np.zeros(m.p)) for _ in range(2))
    assert tuple(first.header[k] for k in ("solve", "solve_dtype", "preconditioner")) == header
    assert first.stop == second.stop == stop
    assert first.n_iters == second.n_iters >= min_iters
    for a, b in zip(first.records, second.records):
        assert np.array_equal(a.x, b.x)
        assert replace(a, wall_nanos=0, x=None) == replace(b, wall_nanos=0, x=None)


def averaged(assemble):
    """A run's assembly wrapped into Hessian averaging (Na, Derezinski &
    Mahoney 2022): the k-th step's H is sum_j j H_j / sum_j j over the dense
    H_j of steps 1..k; ``calls`` counts the steps."""
    total, k = None, 0

    def average(sample, x, t):
        nonlocal total, k
        h = assemble(sample, x, t)
        h = h.dense() if hasattr(h, "dense") else h
        k += 1
        total = k * h if total is None else total + k * h
        average.calls = k
        return total / (k * (k + 1) / 2)
    return average


@pytest.mark.parametrize("path", ["spectral-float32", "spectral-float64", "hessian-exact",
                                  "ridge-exact", "cg-float32", "cg-float64", "ridge-cg"])
def test_a_new_assembly_needs_no_solve_edited(monkeypatch, path):
    """_solver's (assemble, solve) split is the seam a new curvature source
    lands on: wrapping the run's assembly into an average, with every solve
    as it is, runs each solve path to GradTol on the average.  ssn-ridge's
    lambda_user joins H_S where it is assembled, so its solves take the
    average as they take any H."""
    solver, wrapped = solvers._solver, []

    def averaging_solver(*args):
        assemble, solve = solver(*args)
        wrapped.append(averaged(assemble))
        return wrapped[-1], solve
    monkeypatch.setattr(solvers, "_solver", averaging_solver)
    settings, header, _, _ = SOLVE_PATHS[path]
    m = sparse_spectral_model("csr")
    trace = run(m, SolverConfig(**{"grad_tol": 1e-8, "max_iters": 60, **settings}),
                np.zeros(m.p))
    steps = [rec for rec in trace.records if rec.alpha > 0]
    assert tuple(trace.header[k] for k in ("solve", "solve_dtype", "preconditioner")) == header
    assert trace.stop == "GradTol" and len(steps) >= 5
    assert len(wrapped) == 1 and wrapped[0].calls == len(steps)
    assert all(rec.solve_path == header[0] for rec in steps)


@pytest.mark.parametrize("path", ["hessian-exact", "ridge-exact", "newton",
                                  "spectral-float32", "spectral-float64"])
def test_dense_solves_assemble_into_one_buffer_per_run(monkeypatch, path):
    """A Cholesky or eigh run hands every subsampled_hessian call the one p x p
    buffer it keeps; the next run on the same model keeps a new one."""
    outs, assemble = [], solvers.subsampled_hessian

    def spy(*args, out=None, **kwargs):
        outs.append(out)
        return assemble(*args, out=out, **kwargs)
    monkeypatch.setattr(solvers, "subsampled_hessian", spy)
    m = sparse_spectral_model("dense")
    cfg = SolverConfig(**{"grad_tol": 1e-8, "max_iters": 60, **SOLVE_PATHS[path][0]})
    per_run = []
    for _ in range(2):
        steps = sum(rec.alpha > 0 for rec in run(m, cfg, np.zeros(m.p)).records)
        per_run.append(outs[:])
        assert len(outs) == steps >= 3
        outs.clear()
    for buffers in per_run:
        assert buffers[0].shape == (m.p, m.p) and all(b is buffers[0] for b in buffers)
    assert per_run[0][0] is not per_run[1][0]


def test_ridge_cholesky_solves_the_kept_buffer_as_assembled(monkeypatch):
    """An ssn-ridge Cholesky run adds lambda_user to H_S's diagonal where it
    assembles it: every solve_exact call gets the run's kept buffer itself,
    holding H_S + lambda_user I, and regularize.ridge is never called."""
    assembled, solved, ridged = [], [], []
    assemble, exact = solvers.subsampled_hessian, solvers.solve_exact

    def assembling(model, x, sample, t, out=None, **kwargs):
        h = assemble(model, x, sample, t, out=out, **kwargs)
        assembled.append((model.sampled_hessian(sample, x, t).dense(), out))
        return h

    def solving(h, g):
        solved.append((h, h.copy()))
        return exact(h, g)
    monkeypatch.setattr(solvers, "subsampled_hessian", assembling)
    monkeypatch.setattr(solvers, "solve_exact", solving)
    monkeypatch.setattr(solvers, "ridge", lambda *args: ridged.append(args))
    settings = SOLVE_PATHS["ridge-exact"][0]
    lam = settings["lambda_user"]
    m = sparse_spectral_model("dense")
    trace = run(m, SolverConfig(**{"grad_tol": 1e-8, "max_iters": 60, **settings}),
                np.zeros(m.p))
    steps = [rec for rec in trace.records if rec.alpha > 0]
    assert trace.stop == "GradTol" and len(steps) == len(solved) == len(assembled) >= 5
    assert not ridged
    kept = assembled[0][1]
    assert kept.shape == (m.p, m.p)
    eps = np.finfo(float).eps
    for rec, (h, seen), (base, out) in zip(steps, solved, assembled):
        assert h is kept and out is kept and rec.lambda_applied == lam
        np.testing.assert_allclose(seen, base + lam * np.eye(m.p), rtol=0,
                                   atol=2 * eps * np.abs(base).max())


@pytest.mark.parametrize("path", ["ridge-exact", "ridge-cg"])
@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_ridge_min_eig_h_is_the_sampled_hessians_without_lambda(monkeypatch, path, storage):
    """Under track_events an ssn-ridge step records the float64 lambda_min of
    the sampled Hessian it assembled, without lambda_user (reg included), on
    the Cholesky and on the CG path alike."""
    shifted, sampled = [], ObjectiveModel.sampled_hessian

    def spy(self, sample, x, t=None, shift=0.0):
        h = sampled(self, sample, x, t, shift)
        if shift:  # the step's assembly; the diagnostic's takes no shift
            shifted.append((sampled(self, sample, x, t).dense(), h.dense()))
        return h
    monkeypatch.setattr(ObjectiveModel, "sampled_hessian", spy)
    settings = SOLVE_PATHS[path][0]
    lam = settings["lambda_user"]
    m = sparse_spectral_model(storage)
    cfg = SolverConfig(**{"grad_tol": 1e-8, "max_iters": 60, **settings, "track_events": True})
    trace = run(m, cfg, np.zeros(m.p))
    steps = [rec for rec in trace.records if rec.alpha > 0]
    assert trace.stop == "GradTol" and len(steps) == len(shifted) >= 5
    assert {rec.solve_path for rec in steps} == {SOLVE_PATHS[path][1][0]}
    for rec, (base, with_lam) in zip(steps, shifted):
        assert rec.min_eig_h == min_eigenvalue(base)
        assert rec.min_eig_h == pytest.approx(min_eigenvalue(with_lam) - lam, rel=1e-9)


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_float32_eigh_directions_are_certified_in_float64(storage, monkeypatch):
    """Each step of a float32 ssn-spectral run solves H^ = H_S + U D U' (U
    the float32 eigenvectors below the floor, promoted) to
    EXACT_RESIDUAL_RTOL, as its record says, and is spectral_floor's dense
    solve to 10 kappa eps32, on dense and on CSR rows."""
    m = sparse_spectral_model(storage)
    solves = record_floored_solves(monkeypatch)
    trace = run(m, SolverConfig(**SPARSE_SPECTRAL), np.zeros(m.p))
    assert trace.header["solve_dtype"] == "float32" and trace.stop == "GradTol"
    steps = [rec for rec in trace.records if rec.alpha > 0]
    assert len(steps) == len(solves) >= 5
    eps32 = float(np.finfo(np.float32).eps)
    for rec, (h, spec, floor, g, (y, ratio)) in zip(steps, solves):
        assert rec.solve_path == "eigh" and rec.lambda_applied == floor
        assert rec.residual_ratio == ratio <= linsolve.EXACT_RESIDUAL_RTOL
        k = int(np.sum(spec.eigvals < floor))
        u = spec.eigenvectors(k).astype(float)
        h_hat = h + (u * (floor - spec.eigvals[:k].astype(float))) @ u.T
        assert np.linalg.norm(h_hat @ y - g) <= linsolve.EXACT_RESIDUAL_RTOL * np.linalg.norm(g)
        kappa = max(float(np.linalg.eigvalsh(h)[-1]), floor) / floor
        expected = np.linalg.solve(spectral_floor(h, floor), g)
        assert np.linalg.norm(y - expected) <= 10 * kappa * eps32 * np.linalg.norm(expected)


def spectral_records(trace):
    return [(replace(r, wall_nanos=0, x=None, solve_path=None), r.x.tobytes())
            for r in trace.records]


def test_stalled_float32_steps_are_redone_in_float64_and_say_so(monkeypatch):
    """With no refinement allowed every float32 step stalls: each is redone
    from a float64 eigendecomposition, recorded as eigh-fallback, and the run
    is the float64 run record for record but for that label."""
    m = sparse_spectral_model("dense")
    cfg = SolverConfig(**SPARSE_SPECTRAL)
    solves = record_floored_solves(monkeypatch)
    monkeypatch.setattr(linsolve, "MAX_REFINEMENTS", 0)
    stalled = run(m, cfg, np.zeros(m.p))
    assert stalled.header["solve_dtype"] == "float32" and stalled.stop == "GradTol"
    steps = [rec for rec in stalled.records if rec.alpha > 0]
    assert len(steps) == len(solves) >= 5 and all(out is None for *_, out in solves)
    assert {rec.solve_path for rec in steps} == {"eigh-fallback"}
    assert all(rec.residual_ratio is None for rec in steps)
    monkeypatch.setattr(solvers, "FLOAT32_EIGH_MAX_K_RATIO", 0.0)
    float64 = run(m, cfg, np.zeros(m.p))
    assert float64.header["solve_dtype"] == "float64"
    assert {rec.solve_path for rec in float64.records if rec.alpha > 0} == {"eigh"}
    assert spectral_records(stalled) == spectral_records(float64)


def parent_apply_q(self, v, trans):
    """Spectrum._apply_q as the float64-only code had it: one dormqr per
    vector, unblocked."""
    if not self.tau.size:
        return v
    out = v.copy()
    out[1:] = scipy.linalg.lapack.dormqr("L", trans, self.reflectors, self.tau, v[1:, None],
                                         lwork=1)[0][:, 0]
    return out


@pytest.mark.parametrize("case", ["poisson", "k-over-lambda-above-constant"])
def test_float64_spectral_runs_keep_their_float64_steps(case, small_poisson, monkeypatch):
    """A Poisson ssn-spectral run and one with K / lambda_user above
    FLOAT32_EIGH_MAX_K_RATIO decompose only in float64, never call
    solve_floored, and equal, bit for bit, the same run on the float64-only
    code's application of Q."""
    if case == "poisson":
        m, lam = small_poisson, 0.1
    else:
        m = sparse_spectral_model("csr")
        lam = m.curvature_constants().big_k / (2 * solvers.FLOAT32_EIGH_MAX_K_RATIO)
    cfg = replace(SolverConfig(**SPARSE_SPECTRAL), lambda_user=lam)
    dtypes, decompose = [], solvers.spectrum

    def spy(h, *args):
        dtypes.append(np.dtype(*args) if args else np.dtype(float))
        return decompose(h, *args)
    monkeypatch.setattr(solvers, "spectrum", spy)
    solves = record_floored_solves(monkeypatch)
    trace = run(m, cfg, np.zeros(m.p))
    assert trace.header["solve_dtype"] == "float64" and trace.stop == "GradTol"
    steps = [rec for rec in trace.records if rec.alpha > 0]
    assert len(steps) >= 5 and dtypes == [np.float64] * len(steps) and not solves
    assert all(rec.solve_path == "eigh" and rec.residual_ratio is None for rec in steps)
    monkeypatch.setattr(regularize.Spectrum, "_apply_q", parent_apply_q)
    reference = run(m, cfg, np.zeros(m.p))
    assert [(replace(r, wall_nanos=0, x=None), r.x.tobytes()) for r in trace.records] \
        == [(replace(r, wall_nanos=0, x=None), r.x.tobytes()) for r in reference.records]


def test_float32_steps_report_the_float64_min_eig_off_the_clock(monkeypatch):
    """A float32 step's in-clock min_eig_h is its float32 lambda_min, within
    float32 rounding of ||H||; track_events replaces it with the float64
    min_eigenvalue of the step's own sample."""
    m = sparse_spectral_model("dense")
    assembled = record_assemblies(monkeypatch)
    cfg = replace(SolverConfig(**SPARSE_SPECTRAL), max_iters=8)
    rough = run(m, cfg, np.zeros(m.p))
    assert rough.header["solve_dtype"] == "float32"
    eps32 = float(np.finfo(np.float32).eps)
    steps = [rec for rec in rough.records if rec.alpha > 0]
    assert len(steps) == len(assembled) >= 5
    for rec, h in zip(steps, assembled):
        exact = min_eigenvalue(h)
        assert rec.min_eig_h != exact
        assert abs(rec.min_eig_h - exact) <= 10 * m.p * eps32 * np.abs(h).sum(axis=1).max()
    assembled.clear()
    tracked = run(m, replace(cfg, track_events=True), np.zeros(m.p))
    steps = [rec for rec in tracked.records if rec.alpha > 0]
    assert len(steps) == len(assembled) >= 5
    assert all(rec.min_eig_h == min_eigenvalue(h) for rec, h in zip(steps, assembled))


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


def singular_sample_model():
    """Logistic at reg 0 with a column nonzero only in rows 5 and 77: a
    half-size sample misses both about a quarter of the time, and its
    Hessian is then singular."""
    dataset, _ = generate_synthetic(300, 10, seed=7)
    column = np.zeros((300, 1))
    column[[5, 77]] = 1.0
    return ObjectiveModel(Dataset(np.hstack([dataset.features, column]), dataset.labels),
                          "logistic", reg=0.0)


def test_ssn_full_redraws_a_singular_sample(monkeypatch):
    m = singular_sample_model()
    assembled = record_assemblies(monkeypatch)
    for seed in range(5):
        assembled.clear()
        cfg = SolverConfig(variant="ssn-full", sigma=0.0, sample_frac_h=0.5,
                           sample_frac_g=1.0, seed=seed, max_iters=40)
        trace = run(m, cfg, np.zeros(m.p))
        assert trace.stop == "GradTol"
        assert len(assembled) > len([r for r in trace.records if r.alpha > 0])  # redraws


@pytest.mark.parametrize("settings,attempts", [
    (dict(variant="ssn-hessian", sample_frac_h=0.5), 4),
    (dict(variant="ssn-full", sample_frac_h=0.5, sample_frac_g=1.0, sigma=0.0), 4),
    (dict(variant="ssn-spectral", sample_frac_h=0.5, lambda_user=0.1), 4),
    (dict(variant="ssn-hessian", sample_frac_h=1.0, replacement="with"), 4),
    (dict(variant="ssn-hessian", sample_frac_h=1.0), 1),
    (dict(variant="newton"), 1),
], ids=["ssn-hessian-half", "ssn-full-half", "ssn-spectral-half", "full-with-replacement",
        "full-without-replacement", "newton"])
def test_only_a_random_sample_is_redrawn(small_logistic, monkeypatch, settings, attempts):
    """A singular sample is redrawn whatever the variant, unless it is the
    full data drawn without replacement, which a redraw cannot change."""
    solves = []

    def singular(*args):
        solves.append(args)
        raise solvers.NotPositiveDefiniteError("singular")
    monkeypatch.setattr(solvers, "solve_exact", singular)
    monkeypatch.setattr(solvers, "solve_eigen", singular)
    monkeypatch.setattr(solvers, "solve_floored", singular)
    with pytest.raises(SolverError, match="singular"), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ssn-full's sigma is below the STOP floor
        run(small_logistic, SolverConfig(max_iters=1, **settings), np.zeros(small_logistic.p))
    assert len(solves) == attempts


def test_newton_steps_on_the_full_hessian_whatever_its_replacement():
    """newton draws its n rows without replacement whatever the config
    says: with replacement asked for, it plans and steps as by default."""
    dataset, _ = generate_synthetic(400, 12, seed=11)
    m = ObjectiveModel(dataset, "logistic", reg=0.05)
    default = run(m, SolverConfig(variant="newton"), np.zeros(m.p))
    drawn = run(m, SolverConfig(variant="newton", replacement="with"), np.zeros(m.p))
    assert default.stop == drawn.stop == "GradTol"

    def planned(trace):
        return {k: v for k, v in trace.header.items() if k != "config"}
    assert planned(drawn) == planned(default)

    def fields(rec):
        return {**vars(rec), "wall_nanos": None, "x": rec.x.tobytes()}
    assert [fields(rec) for rec in drawn.records] == [fields(rec) for rec in default.records]


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
    """eps2 is small enough that (1 + sigma) eps2 lies below ||grad F|| at x0
    and x1, so a stop before the run has stepped would break the
    certificate; a quarter-sample Hessian gives each seed its own path."""
    m = small_logistic
    stepped = 0
    for seed in range(20):
        cfg = SolverConfig(variant="ssn-full", eps1=0.4, eps2=1e-5, delta=0.1,
                           seed=seed, max_iters=60, grad_tol=0.0,
                           replacement="without", sample_frac_h=0.25)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            trace = run(m, cfg, np.zeros(m.p))
        # a stop before the first step says so, and only such a stop
        assert len(caught) == (trace.records[0].alpha == 0)
        if trace.stop == "SigmaStop":
            stepped += sum(r.alpha > 0 for r in trace.records) >= 2
            # eps2 is constant here, so the certified radius uses eps2 itself
            assert trace.records[-1].grad_norm_full < (1 + trace.header["sigma"]) * cfg.eps2
    assert stepped >= 18, f"only {stepped} of 20 runs took two steps before their sigma stop"


@pytest.mark.filterwarnings("ignore:sigma = .* is below the guarantee floor")
def test_sigma_stop_certificate_on_a_sampled_gradient():
    """eps2 puts ssn-full's lemma gradient size at n/4, so each sigma stop
    reads a sampled gradient and not the exact one, and ||grad F(x0)|| lies
    above (1 + sigma) eps2, so a stop at x0 would break the certificate: at
    least a 1 - delta share of seeds (less a noise margin) certifies it."""
    dataset, meta = generate_synthetic(20000, 2, seed=11, condition_target=4, signal_norm=10)
    m = ObjectiveModel(dataset, "logistic", reg=1e-3)
    x0, sigma, delta = -meta.planted_coefficients, 0.2, 0.1
    eps2 = m.gradient_norm_bound(x0) * (1 + math.sqrt(8 * math.log(1 / delta))) \
        / math.sqrt(m.n / 4)
    assert np.linalg.norm(m.gradient(x0)) > (1 + sigma) * eps2
    runs, certified = 20, 0
    for seed in range(runs):
        cfg = SolverConfig(variant="ssn-full", sigma=sigma, eps2=eps2, rho2=1.0, delta=delta,
                           seed=seed, max_iters=60, grad_tol=0.0)
        trace = run(m, cfg, x0)
        assert trace.records[0].alpha > 0
        for rec in trace.records:
            assert not rec.grad_clamped and 0.9 * m.n / 4 <= rec.sample_size_g <= 1.1 * m.n / 4
        certified += trace.stop == "SigmaStop" \
            and trace.records[-1].grad_norm_full < (1 + sigma) * eps2
    assert certified >= (1 - delta - 0.02) * runs, f"{certified} of {runs} runs certified"


def test_sigma_warning_below_floor(small_logistic):
    cfg = SolverConfig(variant="ssn-full", sigma=0.001, eps2=0.05, max_iters=3,
                       grad_tol=0.0, sample_frac_h=0.5, sample_frac_g=0.5)
    with pytest.warns(UserWarning, match="STOP"):
        run(small_logistic, cfg, np.zeros(small_logistic.p))


def test_a_stop_before_the_first_step_warns():
    """At default sigma and eps2, plan's sigma certifies only ||grad F|| <
    (1 + sigma) eps2, far above ||grad F(x0)||: the run stops on its sigma
    test at k = 0, and says so with both numbers.  A run that steps before
    its sigma stop (SOLVE_PATHS' ssn-full) does not."""
    m = sparse_spectral_model("csr")
    cfg = SolverConfig(variant="ssn-full", sample_frac_h=0.1, seed=4)
    with pytest.warns(UserWarning, match="before its first step") as caught:
        trace = run(m, cfg, np.zeros(m.p))
    assert trace.stop == "SigmaStop" and trace.n_iters == 1
    bound = (1 + trace.header["sigma"]) * cfg.eps2
    gnorm = trace.records[0].grad_norm_full
    assert gnorm < bound
    message = str(caught[0].message)
    assert f"= {bound:.3g}" in message and f"= {gnorm:.3g}" in message and "eps2" in message
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        trace = run(m, SolverConfig(**SOLVE_PATHS["ssn-full"][0]), np.zeros(m.p))
    assert trace.stop == "SigmaStop" and trace.records[0].alpha > 0
    assert not [w for w in caught if "first step" in str(w.message)]


def test_geometric_eps2_schedule_grows_the_gradient_sample():
    """eps2_k = eps2 * rho2^k: the lemma-sized gradient sample grows by about
    1/rho2^2 per step until it is clamped at n; at rho2 = 1 it stays."""
    dataset, _ = generate_synthetic(40000, 10, family="logistic", seed=7)
    m = ObjectiveModel(dataset, "logistic", reg=1.0)
    cfg = SolverConfig(variant="ssn-full", eps2=0.9, rho2=0.8, sample_frac_h=0.05,
                       sigma=0.0, max_iters=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sigma = 0 is below the STOP floor
        geometric = run(m, cfg, np.zeros(m.p))
        constant = run(m, replace(cfg, rho2=1.0), np.zeros(m.p))
    grown = [r.sample_size_g for r in geometric.records]
    clamp = [r.grad_clamped for r in geometric.records].index(True)
    assert clamp >= 4 and grown[clamp:] == [m.n] * (len(grown) - clamp)
    # G(x_k) grows with ||x_k|| from x0 = 0, most in the first step
    for a, b in zip(grown[:clamp], grown[1:clamp]):
        assert b / a == pytest.approx(1 / cfg.rho2**2, rel=0.05)
    kept = [r.sample_size_g for r in constant.records]
    assert not any(r.grad_clamped for r in constant.records)
    assert max(kept) <= 1.05 * min(kept) < 1.05 * grown[0] / cfg.rho2**2


def test_time_limit_stops_early(small_logistic):
    cfg = SolverConfig(variant="gd", max_iters=10_000_000, grad_tol=0.0,
                       time_limit=0.05)
    trace = run(small_logistic, cfg, np.zeros(small_logistic.p))
    assert trace.stop == "TimeLimit"
    assert trace.records[-1].stop_flag == "TimeLimit"
    assert trace.records[-1].wall_nanos >= 0.05e9
    assert trace.n_iters < 10_000_000


def test_max_iters_reached_within_the_time_limit_reads_max_iters(small_logistic):
    cfg = SolverConfig(variant="gd", max_iters=5, grad_tol=0.0, time_limit=60.0)
    trace = run(small_logistic, cfg, np.zeros(small_logistic.p))
    assert trace.n_iters == 5
    assert trace.stop == trace.records[-1].stop_flag == "MaxIters"


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
        pred = rate_spectral(beta, rec.lambda_applied, est.big_k, khat, est.gamma,
                             alpha=rec.alpha, inexact=cfg.inexact)
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
        budget = rate_spectral(0.25, rec.lambda_applied, est.big_k, khat, est.gamma,
                               1.0, InexactnessSpec(0.0, 0.5)).theta1_max
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
        pred = rate_ridge(beta, lam, est.big_k, khat, est.gamma, alpha=rec.alpha,
                          inexact=cfg.inexact)
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
    for rho2 in (0.0, 1.5):
        with pytest.raises(ValueError, match="rho2"):
            SolverConfig(rho2=rho2)
    for step in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="gd_step"):
            SolverConfig(variant="gd", gd_step=step)
    for memory in (0, -3):
        with pytest.raises(ValueError, match="lbfgs_memory"):
            SolverConfig(variant="lbfgs", lbfgs_memory=memory)


def test_header_echoes_config_and_rates(small_logistic):
    cfg = SolverConfig(variant="ssn-hessian", eps=0.5, delta=0.1, seed=5,
                       max_iters=3, grad_tol=0.0)
    trace = run(small_logistic, cfg, np.zeros(small_logistic.p))
    echo = trace.header["config"]
    assert echo["eps"] == 0.5 and echo["seed"] == 5
    pred = trace.header["rate_prediction"]
    assert 0 < pred["rho"] < 1
    assert pred["alpha_floor"] > 0


@pytest.mark.parametrize("variant,extra", [
    ("ssn-hessian", {}),
    ("ssn-hessian", {"inexact": InexactnessSpec(theta1=0.01, theta2=0.5)}),
    ("ssn-spectral", {"sample_frac_h": 0.3, "lambda_user": 0.1}),
    ("ssn-ridge", {"sample_frac_h": 0.3, "lambda_user": 0.1}),
    ("ssn-full", {}),
    ("newton", {}),
])
def test_plan_is_the_run_header(small_logistic, variant, extra):
    cfg = SolverConfig(variant=variant, max_iters=1, **extra)
    x0 = np.zeros(small_logistic.p)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        header = dict(run(small_logistic, cfg, x0).header)
    # ssn-full's default sigma puts (1 + sigma) eps2 above ||grad F(x0)||: it
    # stops before its first step, and says so
    assert [str(w.message).startswith("ssn-full stopped before its first step")
            for w in caught] == [True] * (variant == "ssn-full")
    del header["config"]
    planned = solvers.plan(small_logistic, cfg, x0)
    assert planned == header
    est = small_logistic.curvature_constants()
    assert planned["kappa_tilde"] == est.kappa_tilde(planned["sample_size_h"], "without")


def test_plan_covers_only_newton_like_variants(small_logistic):
    with pytest.raises(ValueError, match="not a Newton-like variant"):
        solvers.plan(small_logistic, SolverConfig(variant="gd"), np.zeros(small_logistic.p))


REGULARIZED_RATES = {"ssn-spectral": rate_spectral, "ssn-ridge": rate_ridge}


@pytest.mark.parametrize("variant", ["ssn-spectral", "ssn-ridge"])
@pytest.mark.parametrize("replacement", ["with", "without"])
def test_regularized_plan_prices_the_draw_and_the_solve(small_logistic, variant,
                                                        replacement):
    """K-hat is that of the run's draw (K_max with replacement), and the
    solve's theta2 that of its spec; ssn-spectral's eigenbasis step is exact
    whatever the spec, so it is priced at theta2 = 0."""
    m, x0 = small_logistic, np.zeros(small_logistic.p)
    est = m.curvature_constants()
    spec = InexactnessSpec(theta1=0.01, theta2=0.9)
    for inexact in (None, spec):
        cfg = SolverConfig(variant=variant, sample_frac_h=0.2, lambda_user=0.05,
                           replacement=replacement, inexact=inexact)
        planned = solvers.plan(m, cfg, x0)
        size = planned["sample_size_h"]
        khat = est.khat(1) if replacement == "with" else est.khat(size)
        assert est.draw_khat(size, replacement) == khat
        assert planned["kappa_tilde"] == khat / est.gamma
        solved = inexact if variant == "ssn-ridge" else None
        expected = REGULARIZED_RATES[variant](0.25, 0.05, est.big_k, khat, est.gamma, 1.0,
                                              solved)
        assert planned["rate_prediction"] == expected.as_dict()


@pytest.mark.parametrize("variant", ["ssn-spectral", "ssn-ridge"])
def test_regularized_plan_has_a_guarantee_at_gamma_zero(small_logistic, variant):
    m = ObjectiveModel(small_logistic.dataset, "logistic", reg=0.0)
    est = m.curvature_constants()
    assert not est.strongly_convex
    cfg = SolverConfig(variant=variant, sample_frac_h=0.5, lambda_user=1e-3)
    pred = solvers.plan(m, cfg, np.zeros(m.p))["rate_prediction"]
    expected = REGULARIZED_RATES[variant](0.25, 1e-3, est.big_k, est.khat(m.n // 2), 0.0,
                                          1.0)
    assert pred == expected.as_dict()
    assert pred["rho"] == 0.0 and pred["alpha_floor"] > 0 and pred["theta1_max"] > 0
    assert pred["grad_decrease_coeff"] > 0
    for declined in ("ssn-hessian", "ssn-full"):
        with pytest.raises(solvers.NotStronglyConvexError):
            solvers.plan(m, replace(cfg, variant=declined), np.zeros(m.p))


def test_theta1_zero_run_records_exact_solves(small_logistic):
    """theta1 = 0 asks for the exact solve up front: the records read the
    exact path with no CG, not a fallback, and the run is the exact-solve
    run, iterates and guarantee alike."""
    cfg = SolverConfig(variant="ssn-hessian", sample_frac_h=0.3, seed=4, max_iters=10,
                       inexact=InexactnessSpec(theta1=0.0, theta2=0.5))
    x0 = np.zeros(small_logistic.p)
    trace = run(small_logistic, cfg, x0)
    exact = run(small_logistic, replace(cfg, inexact=None), x0)
    *steps, _ = trace.records
    assert steps
    for rec in steps:
        assert rec.solve_path == "cholesky" and rec.cg_iters == 0
    assert trace.same_iterates(exact, tol=0.0)
    assert trace.header["solve"] == exact.header["solve"] == "cholesky"
    assert trace.header["rate_prediction"] == exact.header["rate_prediction"]


def test_poisson_plan_computes_its_constants_once(monkeypatch):
    """The plan's preconditioner reads the constants at the run's radius:
    one Gram and eigvalsh per plan, not a second at the default radius."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((600, 20)) * 0.3
    b = rng.poisson(np.exp(a @ rng.standard_normal(20) * 0.3)).astype(float)
    m = ObjectiveModel(Dataset(features=a, labels=b), "poisson", reg=0.0)
    radii = []
    constants = m._curvature_constants

    def counted(radius):
        radii.append(radius)
        return constants(radius)
    monkeypatch.setattr(m, "_curvature_constants", counted)
    cfg = SolverConfig(variant="ssn-full", sample_frac_h=0.5, sample_frac_g=0.5, sigma=0.0,
                       domain_radius=2.0, inexact=InexactnessSpec(theta1=0.1, theta2=0.5))
    planned = solvers.plan(m, cfg, np.zeros(m.p))
    assert planned["solve"] == "cg" and planned["preconditioner"] is None  # gamma = 0
    assert radii == [2.0]


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
