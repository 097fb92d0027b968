"""Command-line front end.

Subcommands: ``gen`` (synthetic dataset to file), ``run`` (one solver on one
dataset, trace CSV out), ``compare`` (experiment spec file to result files),
``verify`` (statistical concentration suites), ``rates`` (the guarantee
constants of the run headers ``solvers.plan`` gives for a config, and the
solve, preconditioner and solve_dtype of its own run), ``inspect`` (dataset
condition metrics).

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import bench
from .data import DataFormatError, generate_synthetic, load_dataset, \
    measure_gram_condition, save_dataset
from .model import EXACT_GAMMA_MAX_DIM, ObjectiveModel
from .sampling import gradient_lemma_check, hessian_lemma_check
from .solvers import NEWTON_LIKE_VARIANTS, NotStronglyConvexError, SolverError, plan, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

# printed after a failure that needs gamma > 0, or a larger shift than a sample
# of fewer than p rows has, in terms of this front end's flags
GAMMA_ZERO_HINT = ("hint: this objective has gamma = 0 (no strong convexity), or too "
                   "small a shift for its sample; pass --reg > 0, or --solver "
                   "ssn-spectral|ssn-ridge with --sample-frac-h (ssn-ridge also with "
                   "--lambda > 0)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


# (flag, config_from_dict key, type).  The flags have no defaults of their
# own: a flag left out stays out of the config, which keeps the default of
# SolverConfig (or LineSearchParams).
SOLVER_FLAGS = (
    ("--solver", "variant", str), ("--eps", "eps", float), ("--eps1", "eps1", float),
    ("--eps2", "eps2", float), ("--delta", "delta", float), ("--beta", "beta", float),
    ("--alpha-hat", "alpha_hat", float), ("--shrink", "shrink", float),
    ("--theta1", "theta1", float), ("--theta2", "theta2", float),
    ("--lambda", "lambda", float), ("--sigma", "sigma", float),
    ("--sample-frac-h", "sample_frac_h", float),
    ("--sample-frac-g", "sample_frac_g", float), ("--seed", "seed", int),
    ("--grad-tol", "grad_tol", float), ("--max-iters", "max_iters", int),
    ("--replacement", "replacement", str),
)


def _add_solver_flags(p):
    for flag, key, kind in SOLVER_FLAGS:
        p.add_argument(flag, dest=key, type=kind, default=argparse.SUPPRESS)


def _model(args) -> ObjectiveModel:
    return ObjectiveModel(load_dataset(args.data, args.format), args.family, args.reg)


def _config_from_args(args) -> bench.SolverConfig:
    given = vars(args)
    return bench.config_from_dict({key: given[key] for _, key, _ in SOLVER_FLAGS
                                   if key in given})


def main(argv=None) -> int:
    parser = _Parser(prog="subnewton",
                     description="sub-sampled Newton solvers and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    # the objective flags of run, rates and inspect, read by _model
    objective = argparse.ArgumentParser(add_help=False)
    objective.add_argument("--data", required=True)
    objective.add_argument("--format", choices=("svmlight", "csv"), default="svmlight")
    objective.add_argument("--family", default="logistic")
    objective.add_argument("--reg", type=float, default=0.0,
                           help="l2 penalty of the objective")

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=int, required=True)
    p_gen.add_argument("--family", default="logistic")
    p_gen.add_argument("--condition", type=float, default=1.0)
    p_gen.add_argument("--signal-norm", type=float, default=3.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--format", choices=("svmlight", "csv"), default="svmlight")
    p_gen.add_argument("-o", "--out", required=True)

    p_run = sub.add_parser("run", parents=[objective], help="run one solver on one dataset")
    _add_solver_flags(p_run)
    p_run.add_argument("-o", "--out", default=None, help="trace CSV path")

    p_cmp = sub.add_parser("compare", help="run an experiment spec file")
    p_cmp.add_argument("--spec", required=True, help="JSON experiment description")
    p_cmp.add_argument("-o", "--out", required=True, help="output path stem")

    p_ver = sub.add_parser("verify", help="statistical concentration suites")
    p_ver.add_argument("--lemma", choices=("hessian", "gradient"), required=True)
    p_ver.add_argument("--data", default=None)
    p_ver.add_argument("--format", choices=("svmlight", "csv"), default="svmlight")
    p_ver.add_argument("--n", type=int, default=2000)
    p_ver.add_argument("--p", type=int, default=50)
    p_ver.add_argument("--family", default="logistic")
    p_ver.add_argument("--reg", type=float, default=0.01)
    p_ver.add_argument("--resamples", type=int, default=1000)
    p_ver.add_argument("--eps", type=float, default=0.5)
    p_ver.add_argument("--delta", type=float, default=0.1)
    p_ver.add_argument("--margin", type=float, default=0.02)
    p_ver.add_argument("--seed", type=int, default=0)

    p_rates = sub.add_parser("rates", parents=[objective],
                             help="print guarantee constants for a config")
    _add_solver_flags(p_rates)

    sub.add_parser("inspect", parents=[objective], help="dataset condition metrics")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if isinstance(exc, NotStronglyConvexError):
            print(GAMMA_ZERO_HINT, file=sys.stderr)
        return EXIT_NUMERICAL


def _dispatch(args) -> int:
    if args.command == "gen":
        dataset, meta = generate_synthetic(
            n=args.n, p=args.p, condition_target=args.condition, family=args.family,
            seed=args.seed, signal_norm=args.signal_norm)
        save_dataset(dataset, args.out, args.format)
        print(f"wrote {args.out}: n={dataset.n} p={dataset.p} "
              f"gram condition {meta.condition_measured:.4g}")
        return EXIT_OK

    if args.command == "run":
        model, config = _model(args), _config_from_args(args)
        trace = run(model, config, np.zeros(model.p))
        print("config:", json.dumps(trace.header["config"], sort_keys=True,
                                    default=str))
        print(f"{config.variant}: {trace.n_iters} iterations, stop={trace.stop}, "
              f"F={trace.f_final:.10g}, ||grad||={trace.grad_norm_final:.4g}")
        if args.out:
            bench.export(bench.single_result(config.variant, trace), "csv", args.out)
            print(f"trace written to {args.out}")
        return EXIT_OK

    if args.command == "compare":
        spec = bench.load_experiment_spec(args.spec)
        result = bench.run_experiment(spec)
        bench.export(result, "csv", args.out + ".csv")
        bench.export(result, "json", args.out + ".json")
        for r in result.runs:
            final = r.rel_err_f[-1] if len(r.rel_err_f) else float("nan")
            print(f"{r.name} rep={r.rep}: stop={r.trace.stop} rel_err_f={final:.3g}"
                  + (f" FAILED: {r.error}" if r.failed else ""))
        print(f"reference solver: {result.reference}; outputs {args.out}.csv/.json")
        return EXIT_OK

    if args.command == "verify":
        model, x = _verify_problem(args)
        if args.lemma == "hessian":
            res = hessian_lemma_check(model, x, args.eps, args.delta,
                                      args.resamples, seed=args.seed)
            label = "lambda_min(H) < (1-eps)*gamma"
        else:
            res = gradient_lemma_check(model, x, args.eps, args.delta,
                                       args.resamples, seed=args.seed)
            label = "||grad F - g|| > eps"
        ok = res.passed(args.delta, args.margin)
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict} {args.lemma}: freq[{label}] = {res.frequency:.4f} "
              f"(allowed {args.delta + args.margin:.4f}, sample size {res.sample_size}"
              f"{', clamped' if res.clamped else ''}, {res.resamples} resamples)")
        return EXIT_OK if ok else EXIT_VERIFY

    if args.command == "rates":
        # the headers of this config's ssn-hessian and ssn-full runs and, for
        # ssn-spectral or ssn-ridge, of its own run; Algorithms 1 and 4 need
        # gamma > 0 and a sample they can solve with, so a regularized config
        # reads null for them without gamma or where plan refuses them.
        # The solve, preconditioner and solve_dtype are those of the config's
        # own run (null for a baseline, which has none of them).
        model, config = _model(args), _config_from_args(args)
        x0 = np.zeros(model.p)
        own = plan(model, config, x0) if config.variant in NEWTON_LIKE_VARIANTS else {}
        regularized = config.variant in ("ssn-spectral", "ssn-ridge")

        def header(variant):
            if regularized and not own["gamma"] > 0:
                return None
            try:
                return plan(model, replace(config, variant=variant), x0)
            except NotStronglyConvexError:
                if regularized:
                    return None
                raise

        headers = {"hessian_only": header("ssn-hessian"),
                   "joint_sampling": header("ssn-full")}
        if regularized:
            headers[config.variant] = own
        ref = headers["hessian_only"] or own
        out = {"gamma": ref["gamma"], "K": ref["big_k"], "kappa": ref["kappa"],
               "kappa1": ref["kappa1"], "kappa_tilde": ref["kappa_tilde"],
               "solve": own.get("solve"), "preconditioner": own.get("preconditioner"),
               "solve_dtype": own.get("solve_dtype"),
               **{key: h and h["rate_prediction"] for key, h in headers.items()}}
        print(json.dumps(bench.jsonable(out), indent=1))
        return EXIT_OK

    if args.command == "inspect":
        model = _model(args)
        dataset, est = model.dataset, model.curvature_constants()
        out = {
            "n": dataset.n, "p": dataset.p, "storage": dataset.storage,
            # a p x p Gram only up to the size curvature_constants decomposes
            "gram_condition": None if dataset.p > EXACT_GAMMA_MAX_DIM
            else measure_gram_condition(dataset),
            "gamma": est.gamma, "K": est.big_k, "kappa": est.kappa, "kappa1": est.kappa1,
            "strongly_convex": est.strongly_convex,
        }
        print(json.dumps(bench.jsonable(out), indent=1))
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


def _verify_problem(args):
    if args.data is not None:
        dataset = load_dataset(args.data, args.format)
    else:
        dataset, _ = generate_synthetic(n=args.n, p=args.p, family=args.family,
                                        seed=args.seed)
    model = ObjectiveModel(dataset, args.family, args.reg)
    rng = np.random.default_rng(args.seed + 1)
    x = rng.standard_normal(model.p) / np.sqrt(model.p)
    return model, x


if __name__ == "__main__":
    sys.exit(main())
