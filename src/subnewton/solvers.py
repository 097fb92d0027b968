"""Sub-sampled Newton drivers and baseline optimizers, all emitting traces.

Variants
--------
``ssn-hessian``   fresh curvature sample each iteration, full gradient,
                  exact or inexact solve, Armijo step (needs gamma > 0).
``ssn-spectral``  any sample size; one eigendecomposition of the sampled H,
                  from one tridiagonal reduction, gives its floor
                  lambda_k = max(lambda_min(H), 0) + lambda_user (so no strong
                  convexity is needed) and the exact step in its eigenbasis,
                  which meets any ``inexact`` spec without CG; the p x p
                  eigenvector matrix is applied factored, never formed.
``ssn-ridge``     same, with H + lambda_user * I instead of the floor.
``ssn-full``      samples the gradient too; stops early once the sampled
                  gradient norm falls below sigma * eps2, which certifies
                  ||grad F|| < (1 + sigma) * eps2.
``newton``        full Hessian with Armijo (the oracle all variants collapse
                  to under full samples, exact solves and zero shift).
``gd``/``agd``    fixed-step gradient descent and its Nesterov-accelerated
                  form (steps default to 1/K, hand-tunable).
``bfgs``/``lbfgs`` quasi-Newton baselines with Armijo.

Every run owns its RNG (seeded from the config), draws fresh samples each
iteration, and logs one record per iteration.  ``run`` holds the one loop:
each family (Newton-like, quasi-Newton, first-order) supplies its header and
its move from x_k to x_{k+1} with the evaluation there, and the loop owns
the clock, the stop test, the error handling and the record.  ``plan``
gives a Newton-like run's header (sample size, sigma, its solve, guarantee
constants) without running it.

All Newton-like variants share one step: the move draws the sample
(redrawing a singular random one), has the run's one assembly build its
H_S, and hands that to the run's one solve; ``_solver`` fixes both from the
header's ``solve`` (theta1 = 0 is an exact one).  ssn-ridge's lambda_user
joins H_S's diagonal shift where H_S is built, so every solve maps (H, g)
to a direction whatever built H.  Cholesky and eigh runs assemble H_S into
one p x p buffer they keep; CG runs take it unassembled
(``model.SampledHessian``) for matrix-free products.  A run's CG solves
share one preconditioner, set before its first move and never replaced:
the inverse of the full Hessian at x0, with the same shift, up to p = 2000;
above that, or where its Cholesky fails, CG runs unpreconditioned.  From
x0 = 0 the model gives that Hessian from a Gram A'A/n it keeps, which a CG
run's ``plan`` has the constants form once for both, and keeps the inverse
per shift: later runs on one model make neither the O(np^2) product nor the
O(p^3) inversion.  A logistic or ridge run whose theta1 is at least
``FLOAT32_CG_MIN_THETA1`` runs CG's products in float32 (header
``solve_dtype``) on float32 copies of the sampled rows and the
preconditioner; the check of each direction and any fallback stay float64.
A logistic or ridge ssn-spectral run with K / lambda_user at most
``FLOAT32_EIGH_MAX_K_RATIO`` takes its eigendecomposition in float32
(header ``solve_dtype`` again) and refines each floored step in float64
until its float64 residual meets ``EXACT_RESIDUAL_RTOL``; a step that does
not get there is redone in float64 and recorded as ``eigh-fallback``.
Poisson's Phi'' = e^t overflows float32, so its runs stay float64.

The clock covers the move and the one ``model.evaluate`` at x_{k+1} it
hands the loop: fresh margins A x there, F and the gradient (A'w) from one
read of the data (over cache-sized row blocks), which the record, the next
stop test, the direction, its Hessian weights and Armijo's F(x) reuse.
Records count the products with A or A' (``data_passes``).  A Newton-like
or quasi-Newton step predicts the unit step: on the first iteration, and
after a search that accepted its first trial, its first trial is that
evaluation at x + alpha p; if Armijo accepts it, two products in one read.
If not, its gradient is dropped, one product A p makes the remaining
trials cost O(n) from t + alpha A p, and x_{k+1} is evaluated afresh: five
products.  After a search that backtracked, the step starts with A p:
three products (A p, A x, A'w) in two reads.  Every iterate's margins are
thus one fresh product with A, so no rounding drift builds up.  ``ssn-full``
steps on a sampled gradient, so its full gradient is a diagnostic: its
evaluations take none, one product fewer (two on a missed prediction).
GD's F at x_{k+1} is clocked with its gradient, at O(n) more; AGD's one
gradient is at y_k (A y and A'w), so its evaluation at x_{k+1} is not.
Diagnostics run outside the clock, in float64: ``track_events`` adds
``grad_error_used`` and lambda_min of the step's sample assembled afresh,
with reg but without lambda_user.

On a model with ``float32_evaluations`` (a dense logistic or ridge design
past a size floor), a Newton-like run but ssn-full, or a quasi-Newton run,
takes those evaluations in float32 while their rounding bounds certify its
steps (``_Evaluations`` and ``_searcher``): the gradient's bound is at most
``FLOAT32_GRAD_THETA`` times its norm, Algorithm 4's bounded gradient
error, and Armijo accepts x_{k+1} by a margin above the two F values'
bounds.  The first step that is not certified is redone in float64, from
one walk that evaluates x_{k+1} and takes F at x_k, and the run stays
float64 after it.  ``GradTol`` fires only on a float64 gradient and a run's
last record is float64, so ``Trace.grad_norm_final`` is.  Records name
their precision (``eval_dtype``).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .linesearch import LineSearchError, LineSearchParams, armijo
# perfbench's tracer and the tests patch the layer functions under the names
# solvers binds, so every call below looks them up here when it runs;
# verify_inexact, spectral_floor and ridge are bound, though unused, for the tracer
from .linsolve import EXACT_RESIDUAL_RTOL, PATH_CG, PATH_EIGEN, PATH_EIGEN_FALLBACK, \
    PATH_EXACT, InexactnessSpec, NotPositiveDefiniteError, solve_eigen, solve_exact, \
    solve_floored, solve_inexact, verify_inexact  # noqa: F401
from .model import BOUND_CAP, EXACT_GAMMA_MAX_DIM, FLOAT32_FAMILIES, ConditionEstimates, \
    EvaluationError, ObjectiveModel
from .regularize import min_eigenvalue, ridge, spectral_floor, spectrum  # noqa: F401
from .sampling import SampleSet, clamped_size, draw, gradient_sample_size, \
    hessian_sample_size, subsampled_gradient, subsampled_hessian
from .theory import RatePrediction, rate_alg1, rate_alg4, rate_ridge, rate_spectral

SSN_VARIANTS = ("ssn-hessian", "ssn-spectral", "ssn-ridge", "ssn-full")
BASELINE_VARIANTS = ("newton", "gd", "agd", "bfgs", "lbfgs")
NEWTON_LIKE_VARIANTS = SSN_VARIANTS + ("newton",)
ALL_VARIANTS = SSN_VARIANTS + BASELINE_VARIANTS

STOP_GRAD_TOL = "GradTol"
STOP_SIGMA = "SigmaStop"
STOP_MAX_ITERS = "MaxIters"
STOP_TIME_LIMIT = "TimeLimit"
STOP_ERROR = "Error"
RESAMPLE_RETRIES = 3  # redraws of a singular sample before giving up

# the preconditioner of a run's CG solves (header "preconditioner"): the
# inverse of the shifted full Hessian at x0
PRECOND_START_HESSIAN = "start-hessian"

# A logistic or ridge CG run with theta1 at least this multiplies in float32
# (header "solve_dtype").  On a 5000 x 500 logistic problem with a 1e8-conditioned
# design (|S| = 1000, the start-Hessian preconditioner, 3 solver seeds),
# float32 products met theta1 = 1e-3 with at most 1.4% more CG iterations
# than float64 and no fallback; at 1e-4 they took 4-9% more and one step
# fell back, and at 1e-5 every step fell back to Cholesky, at 3x the float64
# time (BENCH_mixed_cg.json's sweep).  Poisson stays float64
# (model.FLOAT32_FAMILIES).
FLOAT32_CG_MIN_THETA1 = 1e-3
# A logistic or ridge ssn-spectral run with K / lambda_user at most this takes
# its eigendecomposition in float32 (header "solve_dtype") and certifies each
# floored step in float64.  On a 20000 x 500 sparse logistic problem at
# |S| = 300 and 1000 (BENCH_spectral_f32.json's sweep), no step at K / lambda
# <= 200 needed more than 2 of the MAX_REFINEMENTS = 3 refinements, and up to
# 100 every run kept the float64 run's stop and its iteration count within
# one; at 700-1000 steps at |S| = 300 took 3, the direction moved up to 2e-3
# from the float64 one, and from 7e3 some steps fell back to float64.
FLOAT32_EIGH_MAX_K_RATIO = 100.0
# A Newton-like run (but ssn-full) or a quasi-Newton run on a model with
# ``float32_evaluations`` evaluates x_{k+1} in float32 while the evaluation's
# rounding bounds certify the step: its gradient's bound is at most this
# fraction of its norm, Algorithm 4's bounded gradient error, and each Armijo
# comparison's margin exceeds the two F values' bounds.
FLOAT32_GRAD_THETA = 0.1
FLOAT32_EVAL_VARIANTS = ("ssn-hessian", "ssn-spectral", "ssn-ridge", "newton", "bfgs", "lbfgs")


class SolverError(RuntimeError):
    """Solver failed mid-run; the partial trace rides along."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class NotStronglyConvexError(SolverError):
    """The configuration needs gamma > 0 and the objective has gamma = 0."""


@dataclass
class SolverConfig:
    """Everything tunable about one solver run.

    ``eps``/``delta`` size the curvature sample, ``eps1``/``eps2`` play the
    same role in the joint-sampling variant (``eps1`` for curvature, ``eps2``
    for the gradient).  ``sample_frac_h``/``sample_frac_g`` bypass the lemma
    sizes with direct |S|/n fractions.  ``sigma=None`` means "use the
    smallest STOP multiplier the guarantee admits".  ``eps2`` shrinks by
    ``rho2`` after every ssn-full step; the default 1.0 keeps it constant.
    """

    variant: str = "ssn-hessian"
    eps: float = 0.5
    eps1: float = 0.25
    eps2: float = 0.1
    delta: float = 0.1
    line_search: LineSearchParams = field(default_factory=LineSearchParams)
    inexact: InexactnessSpec | None = None
    lambda_user: float = 0.0
    sigma: float | None = None
    rho2: float = 1.0
    max_iters: int = 100
    grad_tol: float = 1e-8
    seed: int = 0
    replacement: str = "without"  # Hessian draws; gradient draws stay "with"
    sample_frac_h: float | None = None
    sample_frac_g: float | None = None
    gd_step: float | None = None
    lbfgs_memory: int = 10
    domain_radius: float | None = None
    track_events: bool = False  # per-iteration concentration-event diagnostics
    time_limit: float | None = None  # wall-clock budget in seconds

    def __post_init__(self):
        if self.variant not in ALL_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick from {ALL_VARIANTS}")
        for name in ("eps", "eps1", "eps2", "delta"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must be in (0, 1), got {v}")
        if self.variant == "ssn-full" and self.eps1 > 0.5:
            raise ValueError(f"ssn-full needs eps1 <= 1/2, got {self.eps1}")
        if self.lambda_user < 0:
            raise ValueError("lambda_user must be nonnegative")
        if self.sigma is not None and self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if not 0 < self.rho2 <= 1:
            raise ValueError("rho2 must be in (0, 1]")
        if self.replacement not in ("with", "without"):
            raise ValueError("replacement must be 'with' or 'without'")
        for name in ("sample_frac_h", "sample_frac_g"):
            v = getattr(self, name)
            if v is not None and not 0 < v <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be nonnegative")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.gd_step is not None and not self.gd_step > 0:
            raise ValueError(f"gd_step must be positive, got {self.gd_step}")
        if self.lbfgs_memory < 1:
            raise ValueError(f"lbfgs_memory must be >= 1, got {self.lbfgs_memory}")


@dataclass
class TraceRecord:
    """One completed iteration (or the terminal stopping check)."""

    k: int
    f_value: float
    grad_norm_full: float
    grad_norm_used: float
    alpha: float
    ls_trials: int = 0
    sample_size_h: int | None = None
    sample_size_g: int | None = None
    # CG's ||H p + g|| / ||g||, or a float32 eigh step's, against its H^
    residual_ratio: float | None = None
    descent_ratio: float | None = None
    cg_iters: int | None = None
    # the header's solve as it went: "cholesky" or "eigh" (exact, theta1 = 0
    # included), "cg" (CG, preconditioned if the header names one, met the
    # contract without assembling H), "cholesky-fallback" (CG missed; H
    # assembled and factored) or "eigh-fallback" (a float32 eigh step's
    # refinement stalled; redone in float64)
    solve_path: str | None = None
    lambda_applied: float | None = None
    min_eig_h: float | None = None
    grad_error_used: float | None = None
    grad_clamped: bool = False
    bound_saturated: bool = False
    stop_flag: str = ""
    wall_nanos: int = 0
    # products with the full A or A' inside this iteration's clock; a fused
    # evaluation (model.evaluate) makes two, A x and A'w, in one read of A
    data_passes: int = 0
    # the precision of the evaluation whose F and gradient norm this record
    # holds: "float32" (model.evaluate_float32, products on the float32 copy
    # of the design, certified by its rounding bounds) or "float64"; a
    # GradTol record and a run's last record are always float64
    eval_dtype: str = "float64"
    x: np.ndarray | None = None


@dataclass
class Trace:
    """Full run log: header, per-iteration records, final state."""

    variant: str
    header: dict
    f0: float
    x0: np.ndarray
    records: list[TraceRecord] = field(default_factory=list)
    stop: str = STOP_MAX_ITERS

    @property
    def x_final(self) -> np.ndarray:
        return self.records[-1].x if self.records else self.x0

    @property
    def f_final(self) -> float:
        return self.records[-1].f_value if self.records else self.f0

    @property
    def grad_norm_final(self) -> float:
        return self.records[-1].grad_norm_full if self.records else np.inf

    @property
    def n_iters(self) -> int:
        return len(self.records)

    def f_values(self) -> np.ndarray:
        return np.array([self.f0] + [r.f_value for r in self.records])

    def same_iterates(self, other: "Trace", tol: float = 1e-10) -> bool:
        """Iterate-by-iterate agreement, wall clocks ignored."""
        if self.n_iters != other.n_iters:
            return False
        for a, b in zip(self.records, other.records):
            scale = max(1.0, float(np.linalg.norm(a.x)))
            if float(np.linalg.norm(a.x - b.x)) > tol * scale:
                return False
        return True


def run(model: ObjectiveModel, config: SolverConfig, x0) -> Trace:
    """Run one solver and return its trace.

    Each variant's family supplies the header and the move from x_k to
    x_{k+1} with its evaluation there; this loop owns the rest for all.
    """
    x = np.asarray(x0, dtype=float).ravel()
    if x.shape[0] != model.p:
        raise ValueError(f"x0 has dimension {x.shape[0]}, expected {model.p}")
    if config.variant in ("gd", "agd"):
        family = _first_order
    elif config.variant in ("bfgs", "lbfgs"):
        family = _quasi_newton
    else:
        family = _newton_like
    evals = _Evaluations(model, config.variant in FLOAT32_EVAL_VARIANTS)
    header, move = family(model, config, x, evals)
    t, f_value, grad = evals.first(x)
    trace = Trace(variant=config.variant, header={"config": asdict(config), **header},
                  f0=f_value, x0=x.copy())

    wall = 0
    limit_ns = None if config.time_limit is None else int(config.time_limit * 1e9)
    stop = STOP_MAX_ITERS
    for k in range(config.max_iters):
        if limit_ns is not None and wall >= limit_ns:
            stop = STOP_TIME_LIMIT
            break
        tic = time.perf_counter_ns()
        passes = model.data_passes
        try:
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= config.grad_tol and evals.float32:
                # GradTol fires only on a float64 gradient
                t, f_value, grad = evals.to_float64(x)
                gnorm = float(np.linalg.norm(grad))
            if config.variant != "ssn-full" and gnorm <= config.grad_tol:
                x_next, at_next, fields, diagnose = None, None, {"stop_flag": STOP_GRAD_TOL}, None
            else:
                x_next, at_next, fields, diagnose = move(x, t, f_value, grad)
            if x_next is not None:  # the move's evaluation at x_{k+1}, if it made one
                x, (t, f_value, grad) = x_next, at_next or (None, None, None)
            wall += time.perf_counter_ns() - tic
            passes = model.data_passes - passes

            # diagnostics live outside the clock: agd's whole evaluation, and
            # ssn-full's full gradient
            if t is None:
                t, f_value, grad = model.evaluate(x)
            elif grad is None:
                grad = model.gradient(x, t)
            if diagnose is not None:
                fields.update(diagnose())
        except (NotPositiveDefiniteError, LineSearchError, EvaluationError) as exc:
            trace.stop = STOP_ERROR
            raise SolverError(f"{config.variant} failed at iteration {k}: {exc}",
                              trace=trace) from exc
        # a record without a step is the stop check that fired (alpha = 0)
        rec = TraceRecord(k=k, f_value=f_value, grad_norm_full=float(np.linalg.norm(grad)),
                          **{"grad_norm_used": gnorm, "alpha": 0.0, **fields},
                          wall_nanos=wall, data_passes=passes, eval_dtype=evals.dtype,
                          x=x.copy())
        trace.records.append(rec)
        if rec.f_value > trace.f0 + 10.0 * max(1.0, abs(trace.f0)):
            rec.stop_flag = STOP_ERROR  # diverged
        if rec.stop_flag:
            trace.stop = rec.stop_flag
            return trace
    trace.stop = stop
    if trace.records:
        last = trace.records[-1]
        last.stop_flag = stop
        if last.eval_dtype != "float64":  # the last record holds float64 values
            _, last.f_value, grad = evals.to_float64(x)
            last.grad_norm_full, last.eval_dtype = float(np.linalg.norm(grad)), "float64"
    return trace


# -- shared plumbing ----------------------------------------------------------


def _estimates_for(model, config, x0, keep_gram=False) -> ConditionEstimates:
    radius = config.domain_radius
    if radius is None and model.family == "poisson":
        radius = 2.0 * float(np.linalg.norm(x0)) + 1.0
    return model.curvature_constants(domain_radius=radius, keep_gram=keep_gram)


def plan(model: ObjectiveModel, config: SolverConfig, x0) -> dict:
    """The header of a Newton-like run of ``config`` from ``x0``.

    Holds the curvature constants, the per-iteration Hessian sample size
    (a direct ``sample_frac_h``, n for newton, else the Chernoff size for
    (eps, delta) clamped to n), kappa_tilde at that size, ssn-full's sigma,
    the run's ``solve`` (``PATH_EIGEN`` for ssn-spectral, ``PATH_CG`` for an
    inexact spec with theta1 > 0, else ``PATH_EXACT``), the guarantee
    constants of ``_rate`` at that solve, and the preconditioner of its CG
    solves: ``PRECOND_START_HESSIAN`` where p <= 2000 and a positive shift
    or gamma makes the shifted Hessian positive definite, else None (a run
    whose start Hessian Cholesky fails drops it from its header), and the
    precision of its solve, ``solve_dtype``: "float32" for a logistic or
    ridge objective's CG solve with theta1 >= ``FLOAT32_CG_MIN_THETA1`` (its
    products) or eigh solve with K / lambda_user <=
    ``FLOAT32_EIGH_MAX_K_RATIO`` (its eigendecomposition), else "float64".
    Raises
    NotStronglyConvexError where the config needs gamma > 0, for newton and
    ssn-full at reg = 0 where the constants show a rank-deficient design
    (p <= 2000), and, but for ssn-spectral, where |S| < p leaves H_S
    singular up to a shift below K * eps / EXACT_RESIDUAL_RTOL.
    """
    if config.variant not in NEWTON_LIKE_VARIANTS:
        raise ValueError(f"{config.variant} is not a Newton-like variant")
    spec = config.inexact
    if config.variant == "ssn-spectral":
        solve = PATH_EIGEN
    elif spec is not None and spec.theta1 > 0:
        solve = PATH_CG
    else:
        solve = PATH_EXACT
    # a CG run asks for the start Hessian, which reads the constants' Gram
    est = _estimates_for(model, config, x0, keep_gram=solve == PATH_CG)
    clamped_h = lemma_sized = False
    if config.sample_frac_h is not None:
        size_h = max(1, round(config.sample_frac_h * model.n))
    elif config.variant == "newton":
        size_h = model.n
    elif not est.strongly_convex:
        raise NotStronglyConvexError(
            "gamma = 0 (no strong convexity): the lemma sample size is undefined; "
            "pass sample_frac_h and use ssn-spectral or ssn-ridge"
        )
    else:
        eps_h = config.eps1 if config.variant == "ssn-full" else config.eps
        requested = hessian_sample_size(est.kappa1, eps_h, config.delta, model.p)
        size_h, clamped_h = clamped_size(requested, model.n)
        lemma_sized = True
    if config.variant == "ssn-hessian" and not est.strongly_convex:
        raise NotStronglyConvexError("ssn-hessian needs gamma > 0; use ssn-spectral or ssn-ridge")
    if config.variant in ("newton", "ssn-full") and model.reg == 0.0 and est.rank_deficient:
        raise NotStronglyConvexError(
            f"{config.variant} at reg = 0 on a rank-deficient design: every Hessian is "
            "singular; pass reg > 0, or use ssn-spectral or ssn-ridge")
    if config.variant == "ssn-ridge" and config.lambda_user == 0.0 \
            and not est.strongly_convex:
        raise NotStronglyConvexError("ssn-ridge with lambda_user = 0 needs gamma > 0; "
                                     "singular samples would leave no positive floor")
    # H_S's diagonal shift, lambda_min(H_S) itself when |S| < p
    shift = model.reg + (config.lambda_user if config.variant == "ssn-ridge" else 0.0)
    if config.variant != "ssn-spectral" and size_h < model.p \
            and est.big_k * np.finfo(float).eps > shift * EXACT_RESIDUAL_RTOL:
        raise NotStronglyConvexError(
            f"{config.variant}: |S| = {size_h} < p = {model.p} leaves every sampled Hessian "
            f"singular up to its shift {shift:.3g}, too small for K = {est.big_k:.3g}; "
            "pass a larger sample_frac_h, or use ssn-spectral")
    pred = _rate(config, est, size_h, solve)
    sigma = None
    if config.variant == "ssn-full":
        if config.sigma is None:
            if pred is None:
                raise NotStronglyConvexError(
                    "sigma=None needs gamma > 0 to compute the guarantee floor")
            sigma = pred.sigma_min
        else:
            sigma = config.sigma
            if pred is not None and sigma < pred.sigma_min:
                warnings.warn(
                    f"sigma = {sigma:.4g} is below the guarantee floor {pred.sigma_min:.4g}; "
                    "the STOP certificate may not hold", stacklevel=3)
    return {
        "gamma": est.gamma,
        "big_k": est.big_k,
        "kappa": est.kappa,
        "kappa1": est.kappa1,
        "kappa_tilde": est.kappa_tilde(size_h, config.replacement),
        "sample_size_h": size_h,
        "sample_clamped_h": clamped_h,
        "lemma_sized": lemma_sized,
        "sigma": sigma,
        "rate_prediction": {} if pred is None else pred.as_dict(),
        "solve": solve,
        "preconditioner": PRECOND_START_HESSIAN if solve == PATH_CG
        and model.p <= EXACT_GAMMA_MAX_DIM
        and (shift > 0 or est.strongly_convex) else None,
        "solve_dtype": "float32" if model.family in FLOAT32_FAMILIES and (
            solve == PATH_CG and spec.theta1 >= FLOAT32_CG_MIN_THETA1
            or solve == PATH_EIGEN
            and est.big_k <= FLOAT32_EIGH_MAX_K_RATIO * config.lambda_user) else "float64",
    }


def _rate(config, est, size_h, solve) -> RatePrediction | None:
    """Guarantee constants of the run's ``solve``: rho at the unit step
    (alpha = 1), alpha_floor the bound on the accepted step, K-hat and
    kappa_tilde those of the run's draw; only a CG solve is priced at the
    spec, every other one is exact.  None where Algorithm 1 or 4 lacks
    gamma > 0, or where Algorithm 1's condition numbers fall outside its
    assumptions (ssn-full's sigma needs its constants, so Algorithm 4's
    errors propagate)."""
    beta = config.line_search.beta
    inexact = config.inexact if solve == PATH_CG else None
    if config.variant in ("ssn-spectral", "ssn-ridge"):
        rate = rate_spectral if config.variant == "ssn-spectral" else rate_ridge
        return rate(beta, config.lambda_user, est.big_k,
                    est.draw_khat(size_h, config.replacement), est.gamma, 1.0, inexact)
    if not est.strongly_convex:
        return None
    kt = est.kappa_tilde(size_h, config.replacement)
    if config.variant == "ssn-full":
        return rate_alg4(beta, config.eps1, est.kappa, kt, 1.0, inexact)
    # a newton Hessian is the full one: no sampling error, eps = 0
    eps = 0.0 if config.variant == "newton" else config.eps
    try:
        return rate_alg1(beta, eps, est.kappa, kt, 1.0, inexact)
    except ValueError:
        return None


def _draw_h(model, config, rng, size_h):
    # a full-size without-replacement draw is the whole index range in
    # ascending order, consuming no randomness, so full-sample runs
    # reproduce the analytic Hessian bit-for-bit, from the design's own rows
    if size_h >= model.n and config.replacement == "without":
        return SampleSet(indices=np.arange(model.n), replacement="without",
                         source_n=model.n)
    return draw(model.n, size_h, config.replacement, rng)


def _draw_g(model, rng, size_g):
    # gradient concentration is proved for with-replacement draws; a full
    # fraction short-circuits to the exact index range
    if size_g >= model.n:
        return SampleSet(indices=np.arange(model.n), replacement="without",
                         source_n=model.n)
    return draw(model.n, size_g, "with", rng)


class _Evaluations:
    """A run's evaluations at its iterates: float32 (the model's
    ``evaluate_float32``) while each one's rounding bounds certify the run's
    steps, then float64 for the rest of the run.  ``float32`` says which
    precision the current iterate's evaluation took (but x0 = 0's, which is
    exact in either), and ``err_f`` bounds the error of its F."""

    def __init__(self, model, allowed):
        self.model = model
        self.float32 = allowed and model.float32_evaluations
        self.err_f = 0.0

    @property
    def dtype(self) -> str:
        return "float32" if self.float32 else "float64"

    def first(self, x):
        """x0's evaluation: float32 if its gradient is certified.  At x0 = 0
        it is the model's kept float64 one, whose F is the float32 one's bit
        for bit (no product A x), and the run stays float32."""
        if not np.any(x):
            return self.model.evaluate(x)
        if self.float32:
            at, bounds = self.float32_at(x)
            if at is not None and self.admits(at, bounds):
                return at
        return self.to_float64(x)

    def float32_at(self, x):
        """(evaluation, bounds) in float32, or (None, None) if it overflows."""
        try:
            *at, bounds = self.model.evaluate_float32(x)
        except EvaluationError:
            return None, None
        return tuple(at), bounds

    def admits(self, at, bounds) -> bool:
        """Whether a float32 evaluation's gradient is certified, its bound at
        most ``FLOAT32_GRAD_THETA`` times its norm; if so it becomes the
        current iterate's, else the run turns float64."""
        self.float32 = bounds.gradient <= FLOAT32_GRAD_THETA * float(np.linalg.norm(at[2]))
        self.err_f = bounds.value if self.float32 else 0.0
        return self.float32

    def to_float64(self, x=None):
        """Turns the run float64 for good; with x, x's float64 evaluation."""
        self.float32, self.err_f = False, 0.0
        return None if x is None else self.model.evaluate(x)


def _searcher(model, params, evals, gradient=True):
    """Armijo steps for one run: each search predicts the unit step on the
    first iteration and after a search that accepted its first trial, and
    takes the gradient with F at x_{k+1}, predicted or not, unless
    ``gradient`` is False.  ``search(x, p, t, f_value, slope)`` returns
    (alpha, trials, x_next, at_next, f_x), ``at_next`` being x_{k+1}'s
    (margins, F, gradient or None).

    Armijo sees alpha -> F(x + alpha p) given the margins t = A x.  A
    predicted first trial is a fresh ``model.evaluate`` at x + alpha p, whose
    margins, F and gradient (one walk over the data) become x_{k+1}'s if
    Armijo accepts it; a rejected trial's gradient is dropped, and a
    non-finite one fails the trial, as a non-finite F does.  Every other
    trial costs O(n) from t + alpha A p, after one product A p, and x_{k+1}
    is then evaluated afresh, so no rounding drift builds up.

    While ``evals`` is float32 (so the run takes full gradients and the
    search predicts), the predicted trial is a float32 evaluation, made
    where the bounds of the two F values sum to less than the margin of a
    unit Newton step on a quadratic, (1/2 - beta) |p'g|.  Its step is taken
    if Armijo accepts it by a margin above that sum, and it stays float32 if
    its gradient is certified; if not, x_{k+1} is evaluated afresh in
    float64.  Any other outcome redoes the comparison in float64, from one
    walk over the data that evaluates x + alpha p, Armijo's first trial, and
    takes F at x too (``f_x``; None where the search ran in one precision),
    and the run stays float64.
    """
    predict = True

    def search(x, p, t, f_value, slope):
        nonlocal predict
        f_x = first = ap = None  # first: the first trial's (x + alpha p, evaluation)
        tried = 0
        if evals.float32:
            alpha = params.alpha_hat
            x_new = x + alpha * p
            err = evals.err_f + model.float32_bounds(x_new).value
            if err < (0.5 - params.beta) * alpha * -slope:  # never for an ascent direction
                tried = 1
                at_new, bounds = evals.float32_at(x_new)
                if at_new is not None and at_new[1] - f_value - alpha * params.beta * slope < -err:
                    if evals.admits(at_new, bounds):
                        return alpha, 1, x_new, at_new, None
                    return alpha, 1, x_new, evals.to_float64(x_new), None
            evals.to_float64()
            try:
                at_new, (t, f_x) = model.evaluate_pair(x_new, x, gradient)
                first = (x_new, at_new)
            except EvaluationError:  # at x + alpha p: a failed trial, as in armijo
                t, f_x, _ = model.evaluate(x, gradient=False)
            f_value = f_x
        lead = predict or first is not None  # the first trial's evaluation is full

        def line(alpha):
            nonlocal first, ap, lead
            if lead:
                lead = False
                if first is None:
                    x_new = x + alpha * p
                    first = (x_new, model.evaluate(x_new, gradient))
                return first[1][1]
            if ap is None:
                ap = model._margins(p)
            return model.value(x + alpha * p, t + alpha * ap)

        alpha, trials = armijo(line, f_value, slope, params)
        predict = trials == 1
        if trials == 1 and first is not None:
            return (alpha, tried + 1, *first, f_x)
        x_new = x + alpha * p
        return alpha, tried + trials, x_new, model.evaluate(x_new, gradient), f_x

    return search


# -- Newton-like: ssn-* and newton --------------------------------------------


def _newton_like(model, config, x0, evals):
    """Solves with a sampled (or, for newton, full) Hessian, with Armijo."""
    header = plan(model, config, x0)
    size_h, sigma = header["sample_size_h"], header["sigma"]
    sampled_g = config.variant == "ssn-full"
    rng = np.random.default_rng(config.seed)
    eps2_k, stepped = config.eps2, False  # stepped: whether the run has taken a step
    assemble, solve = _solver(model, config, header, x0)
    # ssn-full's full gradient is a diagnostic, so its prediction skips it
    search = _searcher(model, config.line_search, evals, gradient=not sampled_g)
    # a singular random sample is redrawn a few times (a probability-delta
    # event) before giving up; a full without-replacement sample, the same
    # every time, is not
    random_sample = size_h < model.n or config.replacement == "with"

    def move(x, t, f_value, grad):
        nonlocal eps2_k, stepped
        sample = _draw_h(model, config, rng, size_h)  # before g's: fixes the RNG stream
        g_used, size_g, grad_clamped, saturated = grad, None, False, False
        if sampled_g:
            if config.sample_frac_g is not None:
                size_g = max(1, round(config.sample_frac_g * model.n))
            else:
                bound = model.gradient_norm_bound(x)
                saturated = bound >= BOUND_CAP
                size_g, grad_clamped = clamped_size(
                    gradient_sample_size(bound, eps2_k, config.delta), model.n)
            g_used = subsampled_gradient(model, x, _draw_g(model, rng, size_g), t)
        gnorm_used = float(np.linalg.norm(g_used))
        if sampled_g and gnorm_used < sigma * eps2_k:
            if not stepped:
                warnings.warn(f"ssn-full stopped before its first step, certifying only "
                              f"||grad F|| < (1 + sigma) * eps2 = {(1 + sigma) * eps2_k:.3g} "
                              f"where ||grad F(x0)|| = {np.linalg.norm(grad):.3g}; pass a "
                              "smaller eps2", stacklevel=3)
            return None, None, {"grad_norm_used": gnorm_used, "stop_flag": STOP_SIGMA,
                                "sample_size_h": size_h, "sample_size_g": size_g}, None
        if sampled_g and gnorm_used <= config.grad_tol:
            return None, None, {"grad_norm_used": gnorm_used,
                                "stop_flag": STOP_GRAD_TOL}, None

        for attempt in range(RESAMPLE_RETRIES + 1):
            if attempt:
                sample = _draw_h(model, config, rng, size_h)
            try:
                p, solved = solve(assemble(sample, x, t), g_used)
                break
            except NotPositiveDefiniteError as exc:
                if not random_sample:
                    raise
                last = exc
        else:
            raise NotPositiveDefiniteError(
                f"sampled Hessian stayed singular after {RESAMPLE_RETRIES} redraws ({last}); "
                "use a larger sample, or ssn-spectral or ssn-ridge with lambda_user > 0")
        alpha, trials, x_next, at_next, f_x = search(x, p, t, f_value, float(p @ g_used))
        stepped = True
        if random_sample and at_next[1] > (f_value if f_x is None else f_x):
            # Armijo accepted F from t + alpha A p; the fresh F at x_{k+1} can
            # exceed F(x_k) only by rounding, at the noise floor.  x_k is kept,
            # so F never rises, and the next sample gives a new direction; a
            # search that turned the run float64 evaluates x_k afresh
            x_next, at_next = (None, None) if f_x is None else (x, model.evaluate(x))
        eps2_k *= config.rho2
        diagnose = None
        if config.track_events:
            def diagnose():  # the step's final sample, assembled afresh without lambda_user
                return {"grad_error_used": float(np.linalg.norm(g_used - grad))
                        if sampled_g else None,
                        "min_eig_h": min_eigenvalue(model.sampled_hessian(sample, x, t).dense())}
        return x_next, at_next, {
            "grad_norm_used": gnorm_used, "alpha": alpha, "ls_trials": trials,
            "sample_size_h": size_h, "sample_size_g": size_g, **solved,
            "grad_clamped": grad_clamped, "bound_saturated": saturated,
        }, diagnose

    return header, move


def _solver(model, config, header, x0):
    """The run's Hessian assembly and its one solve of H p = -g, by the
    header's ``solve``, as ``(assemble, solve)``.

    ``assemble(sample, x, t)`` builds the sample's H_S at x, whose margins
    t = A x give its Hessian weights, with ssn-ridge's lambda_user in its
    diagonal shift: unassembled (``model.sampled_hessian``) for CG, which
    only multiplies by it, else by ``subsampled_hessian`` into one p x p
    buffer the run keeps, so no step faults in fresh pages for it.
    ``solve(h, g)`` maps any H to the direction and its record fields.  CG
    solves multiply in the header's ``solve_dtype``, preconditioned by the
    run's one preconditioner, built here at the same shift (None runs plain
    CG), and check the direction with the float64 H.  An eigh solve floors H
    at lambda_k in the eigenbasis of its one eigendecomposition
    (``regularize.spectrum``); a float32 one takes lambda_k from float32
    eigenvalues, decomposed in a second kept p x p buffer, and refines its
    step against the float64 H (``solve_floored``), or is redone in float64
    if that stalls (``PATH_EIGEN_FALLBACK``).  Nothing a step returns or
    records aliases the kept buffers.
    """
    dtype = np.dtype(header["solve_dtype"])
    lam = config.lambda_user if config.variant == "ssn-ridge" else None
    shift = lam or 0.0  # on top of reg, where H_S is built
    if header["solve"] == PATH_CG:
        precond = None
        if header["preconditioner"] == PRECOND_START_HESSIAN:
            try:
                precond = model.hessian_inverse(x0, shift).astype(dtype, copy=False)
            except NotPositiveDefiniteError:  # singular in floating point
                header["preconditioner"] = None

        def assemble(sample, x, t):
            return model.sampled_hessian(sample, x, t, shift)

        def solve(h, g):
            p, diag = solve_inexact(h, g, config.inexact, precond, dtype)
            return p, {"residual_ratio": diag.residual_ratio,
                       "descent_ratio": diag.descent_ratio, "cg_iters": diag.cg_iters,
                       "solve_path": diag.path, "lambda_applied": lam}
        return assemble, solve
    h_buf = np.empty((model.p, model.p))

    def assemble(sample, x, t):
        return subsampled_hessian(model, x, sample, t, out=h_buf, shift=shift)

    if header["solve"] == PATH_EIGEN:
        floor_lam = config.lambda_user  # lambda_k = max(lambda_min(H), 0) + floor_lam
        h32_buf = np.empty((model.p, model.p), np.float32, order="F") \
            if dtype == np.float32 else None

        def solve(h, g):
            path = PATH_EIGEN
            if h32_buf is not None:
                spec = spectrum(h, dtype, out=h32_buf)
                floor = max(float(spec.eigvals[0]), 0.0) + floor_lam
                floored = solve_floored(h, spec, floor, g)
                if floored is not None:  # its min_eig_h is float32's, about eps32 ||H|| off
                    return -floored[0], {
                        "residual_ratio": floored[1], "cg_iters": 0, "solve_path": path,
                        "lambda_applied": floor, "min_eig_h": float(spec.eigvals[0])}
                path = PATH_EIGEN_FALLBACK
            spec = spectrum(h)
            eigs = spec.eigvals
            floor = max(float(eigs[0]), 0.0) + floor_lam
            return -solve_eigen(spec, np.maximum(eigs, floor), g), {
                "cg_iters": 0, "solve_path": path, "lambda_applied": floor,
                "min_eig_h": float(eigs[0])}
    else:
        def solve(h, g):
            return -solve_exact(h, g), {"cg_iters": 0, "solve_path": PATH_EXACT,
                                        "lambda_applied": lam}
    return assemble, solve


# -- baselines ----------------------------------------------------------------


def _first_order(model, config, x0, evals):
    """Fixed-step GD at x_k, or AGD at its extrapolated point y_k; both
    evaluate in float64, so ``evals`` goes unused."""
    est = _estimates_for(model, config, x0)
    step = config.gd_step if config.gd_step is not None else 1.0 / est.big_k
    momentum = None
    if config.variant == "agd" and est.strongly_convex:
        rk = np.sqrt(est.kappa)
        momentum = (rk - 1.0) / (rk + 1.0)
    header = {"gamma": est.gamma, "big_k": est.big_k, "kappa": est.kappa, "step": step,
              "momentum": momentum, "rate_prediction": {}}
    x_prev, t_k = x0, 1.0

    def move(x, t, f_value, grad):
        nonlocal x_prev, t_k
        if config.variant == "gd":
            x_next = x - step * grad
            return x_next, model.evaluate(x_next), {"alpha": step}, None
        if momentum is not None:
            y = x + momentum * (x - x_prev)
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
            y = x + ((t_k - 1.0) / t_next) * (x - x_prev)
            t_k = t_next
        g = model.gradient(y)
        x_prev = x
        return y - step * g, None, {"grad_norm_used": float(np.linalg.norm(g)),
                                    "alpha": step}, None

    return header, move


def _quasi_newton(model, config, x0, evals):
    """BFGS on a dense inverse-Hessian estimate, or L-BFGS on its last
    ``lbfgs_memory`` curvature pairs, with Armijo steps."""
    limited = config.variant == "lbfgs"
    header = {"memory": config.lbfgs_memory if limited else None, "rate_prediction": {}}
    b_inv = np.eye(model.p)
    history: list[tuple[np.ndarray, np.ndarray, float]] = []
    s = g_prev = None
    search = _searcher(model, config.line_search, evals)

    def move(x, t, f_value, g):
        nonlocal b_inv, s, g_prev
        if s is not None:  # the curvature pair of the previous step
            y = g - g_prev
            sy = float(s @ y)
            if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
                rho_k = 1.0 / sy
                if limited:
                    history.append((s, y, rho_k))
                    if len(history) > config.lbfgs_memory:
                        history.pop(0)
                else:  # (I - rho s y') B (I - rho y s') + rho s s' in O(p^2)
                    by = b_inv @ y
                    b_inv = b_inv - rho_k * (np.outer(s, by) + np.outer(by, s)) \
                        + (rho_k * rho_k * float(y @ by) + rho_k) * np.outer(s, s)
        p = -_two_loop(g, history) if limited else -(b_inv @ g)
        if float(p @ g) >= 0:
            p = -g  # curvature update went bad; steepest-descent restart
            if limited:
                history.clear()
            else:
                b_inv = np.eye(model.p)
        alpha, trials, x_next, at_next, _ = search(x, p, t, f_value, float(p @ g))
        s, g_prev = alpha * p, g
        return x_next, at_next, {"alpha": alpha, "ls_trials": trials}, None

    return header, move


def _two_loop(g, history) -> np.ndarray:
    """L-BFGS two-loop recursion for the inverse-Hessian product."""
    q = g.copy()
    alphas = []
    for s, y, rho_k in reversed(history):
        a = rho_k * float(s @ q)
        alphas.append(a)
        q -= a * y
    if history:
        s, y, _ = history[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho_k), a in zip(history, reversed(alphas)):
        b = rho_k * float(y @ q)
        q += (a - b) * s
    return q
