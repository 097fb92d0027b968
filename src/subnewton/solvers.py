"""Sub-sampled Newton drivers and baseline optimizers, all emitting traces.

Variants
--------
``ssn-hessian``   fresh curvature sample each iteration, full gradient,
                  exact or inexact solve, Armijo step (needs gamma > 0).
``ssn-spectral``  any sample size; one eigendecomposition of the sampled H
                  gives its floor lambda_k = max(lambda_min(H), 0) + lambda_user
                  (so no strong convexity is needed) and the exact step in its
                  eigenbasis, which meets any ``inexact`` spec without CG.
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
its move from x_k to x_{k+1}, and the loop owns the clock, the stop test,
the evaluation at x_{k+1}, the error handling and the record.

All Newton-like variants share one step, ``_direction``, over one sampled
Hessian type, ``model.SampledHessian``.  Exact and ssn-spectral solves
assemble the sample; inexact ones run CG on its matrix-free products (for
ssn-ridge, with lambda_user added to its diagonal shift), preconditioned by
the inverse of the last sample a CG miss made them assemble and factor.

The clock covers the move and what the next move reads at x_{k+1}.  A
Newton-like or quasi-Newton iteration passes over the data three times in
it: A p, so Armijo trials cost O(n) from the margins t + alpha A p, then
fresh margins A x at the new iterate and A'w for its gradient.  F and the
gradient there come from those margins; the record, the next stop test,
direction and Armijo F(x) reuse them.  ``ssn-full`` steps on a sampled
gradient, so its full gradient is a diagnostic (A p and A x in the clock).
GD reads only the gradient at x_{k+1} (A x and A'w), so F there is a
diagnostic; AGD's one gradient is at y_k (A y and A'w), so F and the
gradient at x_{k+1} both are.  Diagnostics, which include ``track_events``'
lambda_min of the sampled Hessian and ``grad_error_used``, run outside the
clock.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .linesearch import LineSearchError, LineSearchParams, armijo
# verify_inexact and spectral_floor are bound here, though unused, so that
# perfbench/tracing.py can wrap them under the names solvers binds
from .linsolve import PATH_EIGEN, PATH_EXACT, InexactnessSpec, NotPositiveDefiniteError, \
    solve_eigen, solve_exact, solve_inexact, verify_inexact  # noqa: F401
from .model import ConditionEstimates, EvaluationError, ObjectiveModel, SampledHessian
from .regularize import min_eigenvalue, ridge, spectral_floor, spectrum  # noqa: F401
from .sampling import SampleSet, clamped_size, draw, gradient_sample_size, \
    hessian_sample_size, subsampled_gradient, subsampled_hessian
from .theory import rate_alg1, rate_alg1_inexact, rate_alg4, rate_ridge, \
    rate_spectral

SSN_VARIANTS = ("ssn-hessian", "ssn-spectral", "ssn-ridge", "ssn-full")
BASELINE_VARIANTS = ("newton", "gd", "agd", "bfgs", "lbfgs")
ALL_VARIANTS = SSN_VARIANTS + BASELINE_VARIANTS

STOP_GRAD_TOL = "GradTol"
STOP_SIGMA = "SigmaStop"
STOP_MAX_ITERS = "MaxIters"
STOP_ERROR = "Error"
RESAMPLE_RETRIES = 3  # redraws of a singular sample before giving up


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
    smallest STOP multiplier the guarantee admits".
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
    eps2_schedule: str = "constant"  # "constant" | "geometric"
    rho2: float = 0.9
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
        if self.eps2_schedule not in ("constant", "geometric"):
            raise ValueError(f"unknown eps2 schedule {self.eps2_schedule!r}")
        if not 0 < self.rho2 < 1:
            raise ValueError("rho2 must be in (0, 1)")
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
    residual_ratio: float | None = None
    descent_ratio: float | None = None
    cg_iters: int | None = None
    # "cholesky" or "eigh" (exact), "cg" (preconditioned CG met the contract
    # without assembling H) or "cholesky-fallback" (CG missed; H assembled,
    # factored, and its inverse kept to precondition later solves)
    solve_path: str | None = None
    lambda_applied: float | None = None
    min_eig_h: float | None = None
    grad_error_used: float | None = None
    grad_clamped: bool = False
    bound_saturated: bool = False
    stop_flag: str = ""
    wall_nanos: int = 0
    data_passes: int = 0  # products with the full A or A' inside this iteration's clock
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
    x_{k+1}; this loop owns the rest of the iteration for all of them.
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
    header, move = family(model, config, x)
    # the clock holds what the next move reads at x_{k+1}: F for its line
    # search, and the full gradient unless the move samples it (ssn-full) or
    # takes it at another point (agd's y_k)
    timed_f = config.variant not in ("gd", "agd")
    timed_g = config.variant not in ("ssn-full", "agd")
    t = model._margins(x)
    f_value = model.value(x, t)
    grad = model.gradient(x, t)
    trace = Trace(variant=config.variant, header={"config": asdict(config), **header},
                  f0=f_value, x0=x.copy())

    wall = 0
    limit_ns = None if config.time_limit is None else int(config.time_limit * 1e9)
    for k in range(config.max_iters):
        if limit_ns is not None and wall >= limit_ns:
            break
        tic = time.perf_counter_ns()
        passes = model.data_passes
        try:
            gnorm = float(np.linalg.norm(grad))
            if config.variant != "ssn-full" and gnorm <= config.grad_tol:
                x_next, fields, diagnose = None, {"stop_flag": STOP_GRAD_TOL}, None
            else:
                x_next, fields, diagnose = move(x, t, f_value, grad)
            if x_next is not None:
                x = x_next
                # fresh margins, not t + alpha * A p: no rounding drift builds up
                t = model._margins(x) if timed_f or timed_g else None
                f_value = model.value(x, t) if timed_f else None
                grad = model.gradient(x, t) if timed_g else None
            wall += time.perf_counter_ns() - tic
            passes = model.data_passes - passes

            # diagnostics live outside the clock
            if t is None:
                t = model._margins(x)
            if f_value is None:
                f_value = model.value(x, t)
            if grad is None:
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
                          wall_nanos=wall, data_passes=passes, x=x.copy())
        trace.records.append(rec)
        if rec.f_value > trace.f0 + 10.0 * max(1.0, abs(trace.f0)):
            rec.stop_flag = STOP_ERROR  # diverged
        if rec.stop_flag:
            trace.stop = rec.stop_flag
            return trace
    if trace.records:
        trace.records[-1].stop_flag = STOP_MAX_ITERS
    return trace


# -- shared plumbing ----------------------------------------------------------


def _estimates_for(model, config, x0) -> ConditionEstimates:
    radius = config.domain_radius
    if radius is None and model.family == "poisson":
        radius = 2.0 * float(np.linalg.norm(x0)) + 1.0
    return model.curvature_constants(domain_radius=radius)


def _hessian_sample_plan(model, config, est) -> tuple[int, bool, bool]:
    """Resolve the per-iteration curvature sample size.

    Returns (size, clamped, lemma_sized).  Direct fractions bypass the lemma;
    otherwise the Chernoff size for (eps, delta) is used, clamped to n.
    """
    if config.sample_frac_h is not None:
        return max(1, round(config.sample_frac_h * model.n)), False, False
    if config.variant == "newton":
        return model.n, False, False
    if not est.strongly_convex:
        raise NotStronglyConvexError(
            "gamma = 0 (no strong convexity): the lemma sample size is undefined; "
            "pass sample_frac_h and use ssn-spectral or ssn-ridge"
        )
    eps_h = config.eps1 if config.variant == "ssn-full" else config.eps
    requested = hessian_sample_size(est.kappa1, eps_h, config.delta, model.p)
    size, clamped = clamped_size(requested, model.n)
    return size, clamped, True


def _rate_header(config, est, size_h) -> dict:
    """Guarantee constants for the header, evaluated at the step-size floor."""
    if not est.strongly_convex:
        return {}
    kt = est.kappa_tilde(size_h, config.replacement)
    kap = est.kappa
    try:
        if config.variant in ("ssn-hessian", "newton"):
            if config.inexact is None:
                pred = rate_alg1(config.line_search.beta, config.eps, kap, kt, alpha=1.0)
            else:
                pred = rate_alg1_inexact(config.line_search.beta, config.eps,
                                         config.inexact.theta1, config.inexact.theta2,
                                         kap, kt, alpha=1.0)
        elif config.variant in ("ssn-spectral", "ssn-ridge"):
            rate = rate_spectral if config.variant == "ssn-spectral" else rate_ridge
            theta2 = config.inexact.theta2 if config.inexact else 0.5
            pred = rate(config.line_search.beta, theta2, config.lambda_user,
                        est.big_k, est.khat(size_h), est.gamma, alpha=1.0)
        elif config.variant == "ssn-full":
            pred = _alg4_rate(config, est, size_h)
        else:
            return {}
    except ValueError:
        return {}
    return pred.as_dict()


def _alg4_rate(config, est, size_h):
    """Algorithm 4's guarantee constants at the step-size floor."""
    kt = est.kappa_tilde(size_h, config.replacement)
    if config.inexact is None:
        return rate_alg4(config.line_search.beta, config.eps1, est.kappa, kt, 1.0)
    return rate_alg4(config.line_search.beta, config.eps1, est.kappa, kt, 1.0,
                     theta1=config.inexact.theta1, theta2=config.inexact.theta2,
                     inexact=True)


def _resolve_sigma(config, est, size_h) -> float:
    if config.sigma is None:
        if not est.strongly_convex:
            raise NotStronglyConvexError(
                "sigma=None needs gamma > 0 to compute the guarantee floor")
        return _alg4_rate(config, est, size_h).sigma_min
    if est.strongly_convex:
        floor = _alg4_rate(config, est, size_h).sigma_min
        if config.sigma < floor:
            warnings.warn(
                f"sigma = {config.sigma:.4g} is below the guarantee floor {floor:.4g}; "
                "the STOP certificate may not hold", stacklevel=3)
    return config.sigma


def _draw_h(model, config, rng, size_h):
    # a full-size without-replacement draw is the whole index range in
    # ascending order, consuming no randomness, so full-sample runs
    # reproduce the analytic Hessian bit-for-bit
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


def _line(model, x, p, t):
    """alpha -> F(x + alpha p), from the margins t = A x and one product A p."""
    ap = model._margins(p)
    return lambda alpha: model.value(x + alpha * p, t + alpha * ap)


# -- Newton-like: ssn-* and newton --------------------------------------------


def _newton_like(model, config, x0):
    """Solves with a sampled (or, for newton, full) Hessian, with Armijo."""
    est =_estimates_for(model, config, x0)
    size_h, clamped_h, lemma_sized = _hessian_sample_plan(model, config, est)
    if config.variant == "ssn-hessian" and not est.strongly_convex:
        raise NotStronglyConvexError("ssn-hessian needs gamma > 0; use ssn-spectral or ssn-ridge")
    if config.variant == "ssn-ridge" and config.lambda_user == 0.0 \
            and not est.strongly_convex:
        raise NotStronglyConvexError("ssn-ridge with lambda_user = 0 needs gamma > 0; "
                                     "singular samples would leave no positive floor")
    sampled_g = config.variant == "ssn-full"
    sigma = _resolve_sigma(config, est, size_h) if sampled_g else None
    header = {
        "gamma": est.gamma,
        "big_k": est.big_k,
        "kappa": est.kappa,
        "kappa1": est.kappa1,
        "sample_size_h": size_h,
        "sample_clamped_h": clamped_h,
        "lemma_sized": lemma_sized,
        "sigma": sigma,
        "rate_prediction": _rate_header(config, est, size_h),
    }
    rng = np.random.default_rng(config.seed)
    eps2_k = config.eps2
    precond = None  # H^-1 of the last fallback's sample, kept for later CG solves

    def move(x, t, f_value, grad):
        nonlocal eps2_k, precond
        sample = _draw_h(model, config, rng, size_h)  # before g's: fixes the RNG stream
        g_used, size_g, grad_clamped, saturated = grad, None, False, False
        if sampled_g:
            if config.sample_frac_g is not None:
                size_g = max(1, round(config.sample_frac_g * model.n))
            else:
                bound = model.gradient_norm_bound(x)
                saturated = bound >= model.bound_cap
                size_g, grad_clamped = clamped_size(
                    gradient_sample_size(bound, eps2_k, config.delta), model.n)
            g_used = subsampled_gradient(model, x, _draw_g(model, rng, size_g))
        gnorm_used = float(np.linalg.norm(g_used))
        if sampled_g and gnorm_used < sigma * eps2_k:
            return None, {"grad_norm_used": gnorm_used, "stop_flag": STOP_SIGMA,
                          "sample_size_h": size_h, "sample_size_g": size_g}, None
        if sampled_g and gnorm_used <= config.grad_tol:
            return None, {"grad_norm_used": gnorm_used, "stop_flag": STOP_GRAD_TOL}, None

        p, solve, h_raw, precond = _direction(model, config, rng, x, sample, g_used,
                                              size_h, precond)
        alpha, trials = armijo(_line(model, x, p, t), f_value, float(p @ g_used),
                               config.line_search)
        if config.eps2_schedule == "geometric":
            eps2_k *= config.rho2
        diagnose = None
        if config.track_events:
            def diagnose():
                out = {"grad_error_used": float(np.linalg.norm(g_used - grad))
                       if sampled_g else None}
                if solve.get("min_eig_h") is None:
                    # an unassembled (inexact) sample is assembled here, off the clock
                    out["min_eig_h"] = min_eigenvalue(
                        h_raw.dense() if isinstance(h_raw, SampledHessian) else h_raw)
                return out
        return x + alpha * p, {
            "grad_norm_used": gnorm_used, "alpha": alpha, "ls_trials": trials,
            "sample_size_h": size_h, "sample_size_g": size_g, **solve,
            "grad_clamped": grad_clamped, "bound_saturated": saturated,
        }, diagnose

    return header, move


def _direction(model, config, rng, x, sample, g, size_h, precond):
    """Newton direction for H p = -g from the curvature sample ``sample``.

    H is the sampled Hessian H_S, shifted by lambda_user (ssn-ridge) or
    floored at lambda_k in the eigenbasis of its one eigendecomposition
    (ssn-spectral, which meets any inexact spec with that exact step).
    Exact and ssn-spectral solves assemble H_S; inexact CG solves only
    multiply by it, preconditioned by ``precond``.  A singular sample in
    ssn-hessian or ssn-ridge is redrawn a few times (a probability-delta
    event) before giving up.

    Returns the direction, the solve's record fields, the raw H_S of the
    sample that produced it (unassembled after a CG solve) for off-clock
    diagnostics, and the preconditioner to keep.
    """
    lam = config.lambda_user if config.variant == "ssn-ridge" else None
    for attempt in range(RESAMPLE_RETRIES + 1):
        if attempt:
            sample = _draw_h(model, config, rng, size_h)
        try:
            if config.inexact is not None and config.variant != "ssn-spectral":
                h_raw = model.sampled_hessian(sample.indices, x)
                h = h_raw if lam is None else replace(h_raw, shift=h_raw.shift + lam)
                p, diag = solve_inexact(h, g, config.inexact, precond)
                return p, {"residual_ratio": diag.residual_ratio,
                           "descent_ratio": diag.descent_ratio, "cg_iters": diag.cg_iters,
                           "solve_path": diag.path, "lambda_applied": lam}, h_raw, \
                    precond if diag.preconditioner is None else diag.preconditioner
            h_raw = subsampled_hessian(model, x, sample)
            if config.variant == "ssn-spectral":
                eigs, vecs = spectrum(h_raw)
                floor = max(float(eigs[0]), 0.0) + config.lambda_user
                return -solve_eigen(np.maximum(eigs, floor), vecs, g), {
                    "cg_iters": 0, "solve_path": PATH_EIGEN, "lambda_applied": floor,
                    "min_eig_h": float(eigs[0])}, h_raw, precond
            h = h_raw if lam is None else ridge(h_raw, lam)
            return -solve_exact(h, g), {"cg_iters": 0, "solve_path": PATH_EXACT,
                                        "lambda_applied": lam}, h_raw, precond
        except NotPositiveDefiniteError:
            if config.variant not in ("ssn-hessian", "ssn-ridge"):
                raise
    raise NotPositiveDefiniteError(
        f"sampled Hessian stayed singular after {RESAMPLE_RETRIES} redraws; "
        "switch to ssn-spectral or ssn-ridge (lambda_user > 0)") from None


# -- baselines ----------------------------------------------------------------


def _first_order(model, config, x0):
    """Fixed-step GD at x_k, or AGD at its extrapolated point y_k."""
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
            return x - step * grad, {"alpha": step}, None
        if momentum is not None:
            y = x + momentum * (x - x_prev)
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
            y = x + ((t_k - 1.0) / t_next) * (x - x_prev)
            t_k = t_next
        g = model.gradient(y)
        x_prev = x
        return y - step * g, {"grad_norm_used": float(np.linalg.norm(g)),
                              "alpha": step}, None

    return header, move


def _quasi_newton(model, config, x0):
    """BFGS on a dense inverse-Hessian estimate, or L-BFGS on its last
    ``lbfgs_memory`` curvature pairs, with Armijo steps."""
    limited = config.variant == "lbfgs"
    header = {"memory": config.lbfgs_memory if limited else None, "rate_prediction": {}}
    b_inv = np.eye(model.p)
    history: list[tuple[np.ndarray, np.ndarray, float]] = []
    s = g_prev = None

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
        alpha, trials = armijo(_line(model, x, p, t), f_value, float(p @ g),
                               config.line_search)
        s, g_prev = alpha * p, g
        return x + s, {"alpha": alpha, "ls_trials": trials}, None

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
