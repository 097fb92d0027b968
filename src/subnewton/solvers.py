"""Sub-sampled Newton drivers and baseline optimizers, all emitting traces.

Variants
--------
``ssn-hessian``   fresh curvature sample each iteration, full gradient,
                  exact or inexact solve, Armijo step (needs gamma > 0).
``ssn-spectral``  any sample size; the sampled Hessian's spectrum is floored
                  at lambda_k = max(lambda_min(H), 0) + lambda_user before
                  the solve, so no strong convexity is needed.
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
iteration, and logs one record per iteration.  Timing covers only the
algorithmic work and holds one full gradient per iteration.  A Newton-like
or quasi-Newton iteration passes over the data three times in the clock:
A p, so Armijo trials cost O(n) from the margins t + alpha A p, then fresh
margins A x at the new iterate and A'w for its gradient.  F and the gradient
there come from those margins; the record, the next stop test, direction
and Armijo F(x) reuse them.  Diagnostics (``ssn-full``'s full gradient,
eigenvalue checks, the first-order baselines' values) run outside the clock.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linesearch import LineSearchError, LineSearchParams, armijo
# verify_inexact is bound here, though unused, so that perfbench/tracing.py
# can wrap every linsolve entry point under the names solvers binds
from .linsolve import PATH_EXACT, InexactnessSpec, NotPositiveDefiniteError, \
    solve_exact, solve_inexact, verify_inexact  # noqa: F401
from .model import ConditionEstimates, EvaluationError, ObjectiveModel
from .regularize import min_eigenvalue, ridge, spectral_floor
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


class SolverError(RuntimeError):
    """Solver failed mid-run; the partial trace rides along."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


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
    resample_retries: int = 3
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
    solve_path: str | None = None  # "cholesky", "cg" or "cholesky-fallback"
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
    """Dispatch a solver run; returns its trace."""
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape[0] != model.p:
        raise ValueError(f"x0 has dimension {x0.shape[0]}, expected {model.p}")
    if config.variant in SSN_VARIANTS or config.variant == "newton":
        return _run_newton_like(model, config, x0)
    return run_baseline(model, config, x0)


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
        raise SolverError(
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
        elif config.variant == "ssn-spectral":
            theta2 = config.inexact.theta2 if config.inexact else 0.5
            pred = rate_spectral(config.line_search.beta, theta2, config.lambda_user,
                                 est.big_k, est.khat(size_h), est.gamma, alpha=1.0)
        elif config.variant == "ssn-ridge":
            theta2 = config.inexact.theta2 if config.inexact else 0.5
            pred = rate_ridge(config.line_search.beta, theta2, config.lambda_user,
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
            raise SolverError("sigma=None needs gamma > 0 to compute the guarantee floor")
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


def _direction(h, g, config):
    """Newton direction for H p = -g, with the inexact solve's diagnostics
    (None for an exact solve)."""
    if config.inexact is None:
        return -solve_exact(h, g), None
    return solve_inexact(h, g, config.inexact)


def _line(model, x, p, t):
    """alpha -> F(x + alpha p), from the margins t = A x and one product A p."""
    ap = model._margins(p)
    return lambda alpha: model.value(x + alpha * p, t + alpha * ap)


def _log_step(trace, rec) -> bool:
    """Append a step record; a diverged step marks the run failed (True)."""
    trace.records.append(rec)
    f0 = trace.f0
    if not np.isfinite(rec.f_value) or rec.f_value > f0 + 10.0 * max(1.0, abs(f0)):
        rec.stop_flag = trace.stop = STOP_ERROR
        return True
    return False


def _out_of_iterations(trace) -> Trace:
    if trace.records:
        trace.records[-1].stop_flag = STOP_MAX_ITERS
    trace.stop = STOP_MAX_ITERS
    return trace


def _run_newton_like(model: ObjectiveModel, config: SolverConfig, x0) -> Trace:
    est = _estimates_for(model, config, x0)
    size_h, clamped_h, lemma_sized = _hessian_sample_plan(model, config, est)
    if config.variant == "ssn-hessian" and not est.strongly_convex:
        raise SolverError("ssn-hessian needs gamma > 0; use ssn-spectral or ssn-ridge")
    if config.variant == "ssn-ridge" and config.lambda_user == 0.0 \
            and not est.strongly_convex:
        raise SolverError("ssn-ridge with lambda_user = 0 needs gamma > 0; "
                          "singular samples would leave no positive floor")

    sigma = _resolve_sigma(config, est, size_h) if config.variant == "ssn-full" else 0.0
    header = {
        "config": _config_echo(config),
        "gamma": est.gamma,
        "big_k": est.big_k,
        "kappa": est.kappa,
        "kappa1": est.kappa1,
        "sample_size_h": size_h,
        "sample_clamped_h": clamped_h,
        "lemma_sized": lemma_sized,
        "sigma": sigma if config.variant == "ssn-full" else None,
        "rate_prediction": _rate_header(config, est, size_h),
    }
    rng = np.random.default_rng(config.seed)
    sampled_g = config.variant == "ssn-full"
    t = model._margins(x0)
    f_value = model.value(x0, t)
    grad_full = model.gradient(x0, t)
    trace = Trace(variant=config.variant, header=header, f0=f_value, x0=x0.copy())

    x = x0.copy()
    wall = 0
    limit_ns = None if config.time_limit is None else int(config.time_limit * 1e9)
    eps2_k = config.eps2
    for k in range(config.max_iters):
        if limit_ns is not None and wall >= limit_ns:
            break
        tic = time.perf_counter_ns()
        passes = model.data_passes
        try:
            gnorm = float(np.linalg.norm(grad_full))
            if not sampled_g and gnorm <= config.grad_tol:
                wall += time.perf_counter_ns() - tic
                _terminal(trace, x, k, f_value, gnorm, gnorm, STOP_GRAD_TOL, wall)
                return trace

            sample_h = _draw_h(model, config, rng, size_h)
            h_raw = subsampled_hessian(model, x, sample_h)

            lam_applied = None
            min_eig = None
            if config.variant == "ssn-spectral":
                min_eig = min_eigenvalue(h_raw)
                lam_applied = max(min_eig, 0.0) + config.lambda_user
                h = spectral_floor(h_raw, lam_applied).matrix
            elif config.variant == "ssn-ridge":
                lam_applied = config.lambda_user
                h = ridge(h_raw, lam_applied).matrix
            else:
                h = h_raw

            size_g = None
            grad_clamped = False
            saturated = False
            if sampled_g:
                if config.sample_frac_g is not None:
                    size_g = max(1, round(config.sample_frac_g * model.n))
                else:
                    bound = model.gradient_norm_bound(x)
                    saturated = bound >= model.bound_cap
                    size_g, grad_clamped = clamped_size(
                        gradient_sample_size(bound, eps2_k, config.delta), model.n)
                sample_g = _draw_g(model, rng, size_g)
                g_used = subsampled_gradient(model, x, sample_g)
                gnorm_used = float(np.linalg.norm(g_used))
                if gnorm_used < sigma * eps2_k:
                    wall += time.perf_counter_ns() - tic
                    rec = _terminal(trace, x, k, f_value, gnorm, gnorm_used, STOP_SIGMA,
                                    wall)
                    rec.sample_size_h = size_h
                    rec.sample_size_g = size_g
                    return trace
                if gnorm_used <= config.grad_tol:
                    wall += time.perf_counter_ns() - tic
                    _terminal(trace, x, k, f_value, gnorm, gnorm_used, STOP_GRAD_TOL, wall)
                    return trace
            else:
                g_used = grad_full
                gnorm_used = gnorm

            p, diag = _direction_with_retries(
                model, config, rng, x, h, g_used, size_h)
            alpha, trials = armijo(_line(model, x, p, t), f_value, float(p @ g_used),
                                   config.line_search)
            grad_prev = grad_full
            x = x + alpha * p
            # fresh margins, not t + alpha * A p: no rounding drift builds up
            t = model._margins(x)
            f_value = model.value(x, t)
            if not sampled_g:
                grad_full = model.gradient(x, t)
        except (NotPositiveDefiniteError, LineSearchError, EvaluationError) as exc:
            trace.stop = STOP_ERROR
            raise SolverError(f"{config.variant} failed at iteration {k}: {exc}",
                              trace=trace) from exc
        wall += time.perf_counter_ns() - tic
        passes = model.data_passes - passes

        # diagnostics live outside the clock
        grad_error = None
        if sampled_g:
            grad_full = model.gradient(x, t)
            if config.track_events:
                grad_error = float(np.linalg.norm(g_used - grad_prev))
        rec = TraceRecord(
            k=k, f_value=f_value, grad_norm_full=float(np.linalg.norm(grad_full)),
            grad_norm_used=gnorm_used, alpha=alpha, ls_trials=trials,
            sample_size_h=size_h, sample_size_g=size_g,
            residual_ratio=diag.residual_ratio if diag else None,
            descent_ratio=diag.descent_ratio if diag else None,
            cg_iters=diag.cg_iters if diag else 0,
            solve_path=diag.path if diag else PATH_EXACT,
            lambda_applied=lam_applied,
            min_eig_h=min_eig if min_eig is not None
            else (min_eigenvalue(h_raw) if config.track_events else None),
            grad_error_used=grad_error,
            grad_clamped=grad_clamped, bound_saturated=saturated,
            wall_nanos=wall, data_passes=passes, x=x.copy(),
        )
        if config.eps2_schedule == "geometric":
            eps2_k *= config.rho2
        if _log_step(trace, rec):
            return trace
    return _out_of_iterations(trace)


def _direction_with_retries(model, config, rng, x, h, g_used, size_h):
    """Solve for the step; a singular sample in ssn-hessian is redrawn a few
    times (a probability-delta event) before giving up with advice."""
    try:
        return _direction(h, g_used, config)
    except NotPositiveDefiniteError:
        if config.variant not in ("ssn-hessian", "ssn-ridge"):
            raise
        for _ in range(config.resample_retries):
            h_retry = subsampled_hessian(model, x, _draw_h(model, config, rng, size_h))
            if config.variant == "ssn-ridge":
                h_retry = ridge(h_retry, config.lambda_user).matrix
            try:
                return _direction(h_retry, g_used, config)
            except NotPositiveDefiniteError:
                continue
        raise NotPositiveDefiniteError(
            f"sampled Hessian stayed singular after {config.resample_retries} redraws; "
            "switch to ssn-spectral or ssn-ridge (lambda_user > 0)") from None


def _terminal(trace, x, k, f_value, gnorm_full, gnorm_used, flag, wall):
    """Record the stopping check itself (no step taken)."""
    rec = TraceRecord(k=k, f_value=f_value, grad_norm_full=gnorm_full,
                      grad_norm_used=gnorm_used, alpha=0.0, stop_flag=flag,
                      wall_nanos=wall, x=x.copy())
    trace.records.append(rec)
    trace.stop = flag
    return rec


def _config_echo(config: SolverConfig) -> dict:
    echo = {}
    for key, val in config.__dict__.items():
        if isinstance(val, LineSearchParams):
            echo["line_search"] = dict(val.__dict__)
        elif isinstance(val, InexactnessSpec):
            echo["inexact"] = dict(val.__dict__)
        else:
            echo[key] = val
    return echo


# -- baselines ----------------------------------------------------------------


def run_baseline(model: ObjectiveModel, config: SolverConfig, x0) -> Trace:
    x0 = np.asarray(x0, dtype=float).ravel()
    if config.variant == "gd":
        return _run_first_order(model, config, x0, accelerated=False)
    if config.variant == "agd":
        return _run_first_order(model, config, x0, accelerated=True)
    if config.variant in ("bfgs", "lbfgs"):
        return _run_quasi_newton(model, config, x0)
    raise ValueError(f"unknown baseline {config.variant!r}")


def _first_order_step(model, config, est) -> float:
    if config.gd_step is not None:
        return config.gd_step
    return 1.0 / est.big_k


def _run_first_order(model, config, x0, accelerated: bool) -> Trace:
    est = _estimates_for(model, config, x0)
    step = _first_order_step(model, config, est)
    momentum = None
    if accelerated and est.strongly_convex:
        rk = np.sqrt(est.kappa)
        momentum = (rk - 1.0) / (rk + 1.0)
    header = {"config": _config_echo(config), "gamma": est.gamma, "big_k": est.big_k,
              "kappa": est.kappa, "step": step, "momentum": momentum,
              "rate_prediction": {}}
    t = model._margins(x0)
    f_value = model.value(x0, t)
    trace = Trace(variant=config.variant, header=header, f0=f_value, x0=x0.copy())

    x = x0.copy()
    x_prev = x0.copy()
    t_k = 1.0
    wall = 0
    # the stop test reads last iteration's (out-of-clock) diagnostic gradient,
    # keeping the timed region at exactly one gradient per iteration
    gnorm_at_x = float(np.linalg.norm(model.gradient(x0, t)))
    limit_ns = None if config.time_limit is None else int(config.time_limit * 1e9)
    for k in range(config.max_iters):
        if gnorm_at_x <= config.grad_tol:
            _terminal(trace, x, k, f_value, gnorm_at_x, gnorm_at_x, STOP_GRAD_TOL, wall)
            return trace
        if limit_ns is not None and wall >= limit_ns:
            break
        tic = time.perf_counter_ns()
        passes = model.data_passes
        if accelerated:
            if momentum is not None:
                y = x + momentum * (x - x_prev)
            else:
                t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
                y = x + ((t_k - 1.0) / t_next) * (x - x_prev)
                t_k = t_next
            g = model.gradient(y)
            x_prev = x
            x = y - step * g
        else:
            g = model.gradient(x)
            x = x - step * g
        wall += time.perf_counter_ns() - tic
        passes = model.data_passes - passes

        try:
            t = model._margins(x)
            f_value = model.value(x, t)
            gnorm_at_x = float(np.linalg.norm(model.gradient(x, t)))
        except EvaluationError:
            f_value = np.inf
            gnorm_at_x = np.inf
        rec = TraceRecord(k=k, f_value=f_value, grad_norm_full=gnorm_at_x,
                          grad_norm_used=float(np.linalg.norm(g)), alpha=step,
                          wall_nanos=wall, data_passes=passes, x=x.copy())
        if _log_step(trace, rec):
            return trace
    return _out_of_iterations(trace)


def _run_quasi_newton(model, config, x0) -> Trace:
    limited = config.variant == "lbfgs"
    header = {"config": _config_echo(config),
              "memory": config.lbfgs_memory if limited else None,
              "rate_prediction": {}}
    t = model._margins(x0)
    f_value = model.value(x0, t)
    trace = Trace(variant=config.variant, header=header, f0=f_value, x0=x0.copy())

    x = x0.copy()
    g = model.gradient(x, t)
    b_inv = np.eye(model.p)
    history: list[tuple[np.ndarray, np.ndarray, float]] = []
    wall = 0
    limit_ns = None if config.time_limit is None else int(config.time_limit * 1e9)
    for k in range(config.max_iters):
        if limit_ns is not None and wall >= limit_ns:
            break
        tic = time.perf_counter_ns()
        passes = model.data_passes
        gnorm = float(np.linalg.norm(g))
        if gnorm <= config.grad_tol:
            wall += time.perf_counter_ns() - tic
            _terminal(trace, x, k, f_value, gnorm, gnorm, STOP_GRAD_TOL, wall)
            return trace
        if limited:
            p = -_two_loop(g, history)
        else:
            p = -(b_inv @ g)
        if float(p @ g) >= 0:
            p = -g  # curvature update went bad; steepest-descent restart
            if limited:
                history.clear()
            else:
                b_inv = np.eye(model.p)
        try:
            alpha, trials = armijo(_line(model, x, p, t), f_value, float(p @ g),
                                   config.line_search)
        except LineSearchError as exc:
            trace.stop = STOP_ERROR
            raise SolverError(f"{config.variant} line search failed at k={k}: {exc}",
                              trace=trace) from exc
        s = alpha * p
        x = x + s
        t = model._margins(x)
        f_value = model.value(x, t)
        g_new = model.gradient(x, t)
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            if limited:
                history.append((s, y, 1.0 / sy))
                if len(history) > config.lbfgs_memory:
                    history.pop(0)
            else:
                rho_k = 1.0 / sy
                v = np.eye(model.p) - rho_k * np.outer(s, y)
                b_inv = v @ b_inv @ v.T + rho_k * np.outer(s, s)
        g = g_new
        wall += time.perf_counter_ns() - tic

        rec = TraceRecord(k=k, f_value=f_value, grad_norm_full=float(np.linalg.norm(g)),
                          grad_norm_used=gnorm, alpha=alpha, ls_trials=trials,
                          wall_nanos=wall, data_passes=model.data_passes - passes,
                          x=x.copy())
        if _log_step(trace, rec):
            return trace
    return _out_of_iterations(trace)


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
