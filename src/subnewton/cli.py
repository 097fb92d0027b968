"""Command-line front end.

Subcommands: ``gen`` (synthetic dataset to file), ``run`` (one solver on one
dataset, trace CSV out), ``compare`` (experiment spec file to result files),
``verify`` (statistical concentration suites), ``rates`` (guarantee-constant
diagnostics for a config), ``inspect`` (dataset condition metrics).

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
from .model import ObjectiveModel
from .sampling import gradient_lemma_check, hessian_lemma_check
from .solvers import NotStronglyConvexError, SolverError, _alg4_rate, \
    _hessian_sample_plan, _rate_header, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

# printed after a failure that needs gamma > 0, in terms of this front end's flags
GAMMA_ZERO_HINT = ("hint: this objective has gamma = 0 (no strong convexity); pass "
                   "--reg > 0, or --solver ssn-spectral|ssn-ridge with --sample-frac-h "
                   "(ssn-ridge also with --lambda > 0)")


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
    p.add_argument("--reg", type=float, default=0.0, help="l2 penalty of the objective")
    p.add_argument("--family", default="logistic")


def _config_from_args(args) -> bench.SolverConfig:
    given = vars(args)
    return bench.config_from_dict({key: given[key] for _, key, _ in SOLVER_FLAGS
                                   if key in given})


def main(argv=None) -> int:
    parser = _Parser(prog="subnewton",
                     description="sub-sampled Newton solvers and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=int, required=True)
    p_gen.add_argument("--family", default="logistic")
    p_gen.add_argument("--density", type=float, default=1.0)
    p_gen.add_argument("--condition", type=float, default=1.0)
    p_gen.add_argument("--signal-norm", type=float, default=3.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--format", choices=("svmlight", "csv"), default="svmlight")
    p_gen.add_argument("-o", "--out", required=True)

    p_run = sub.add_parser("run", help="run one solver on one dataset")
    p_run.add_argument("--data", required=True)
    p_run.add_argument("--format", choices=("svmlight", "csv"), default="svmlight")
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

    p_rates = sub.add_parser("rates", help="print guarantee constants for a config")
    p_rates.add_argument("--data", required=True)
    p_rates.add_argument("--format", choices=("svmlight", "csv"), default="svmlight")
    _add_solver_flags(p_rates)

    p_ins = sub.add_parser("inspect", help="dataset condition metrics")
    p_ins.add_argument("--data", required=True)
    p_ins.add_argument("--format", choices=("svmlight", "csv"), default="svmlight")
    p_ins.add_argument("--family", default="logistic")
    p_ins.add_argument("--reg", type=float, default=0.0)

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
            n=args.n, p=args.p, density=args.density,
            condition_target=args.condition, family=args.family,
            seed=args.seed, signal_norm=args.signal_norm)
        save_dataset(dataset, args.out, args.format)
        print(f"wrote {args.out}: n={dataset.n} p={dataset.p} "
              f"gram condition {meta.condition_measured:.4g}")
        return EXIT_OK

    if args.command == "run":
        dataset = load_dataset(args.data, args.format)
        model = ObjectiveModel(dataset, args.family, args.reg)
        config = _config_from_args(args)
        trace = run(model, config, np.zeros(model.p))
        print("config:", json.dumps(trace.header["config"], sort_keys=True,
                                    default=str))
        print(f"{config.variant}: {trace.n_iters} iterations, stop={trace.stop}, "
              f"F={trace.f_final:.10g}, ||grad||={trace.grad_norm_final:.4g}")
        if args.out:
            result = bench.ExperimentResult(
                runs=[bench.SolverRun(
                    name=config.variant, rep=0, trace=trace,
                    rel_err_x=np.zeros(trace.n_iters),
                    rel_err_f=np.zeros(trace.n_iters))],
                x_star=trace.x_final, f_star=trace.f_final, reference=config.variant)
            bench.export(result, "csv", args.out)
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
        dataset = load_dataset(args.data, args.format)
        model = ObjectiveModel(dataset, args.family, args.reg)
        config = _config_from_args(args)
        est = model.curvature_constants()
        if not est.strongly_convex:
            print("gamma = 0: rate constants undefined without strong convexity",
                  file=sys.stderr)
            print(GAMMA_ZERO_HINT, file=sys.stderr)
            return EXIT_NUMERICAL
        # the sample sizes and constants the ssn-hessian and ssn-full headers give
        hessian_only, joint = (replace(config, variant=v) for v in ("ssn-hessian", "ssn-full"))
        size = _hessian_sample_plan(model, hessian_only, est)[0]
        out = {
            "gamma": est.gamma, "K": est.big_k, "kappa": est.kappa,
            "kappa1": est.kappa1, "kappa_tilde": est.kappa_tilde(size, config.replacement),
            "hessian_only": _rate_header(hessian_only, est, size),
            "joint_sampling": _alg4_rate(
                joint, est, _hessian_sample_plan(model, joint, est)[0]).as_dict(),
        }
        if config.variant in ("ssn-spectral", "ssn-ridge"):
            # the rate_spectral / rate_ridge prediction of that variant's run header
            out[config.variant] = _rate_header(
                config, est, _hessian_sample_plan(model, config, est)[0])
        print(json.dumps(out, indent=1))
        return EXIT_OK

    if args.command == "inspect":
        dataset = load_dataset(args.data, args.format)
        model = ObjectiveModel(dataset, args.family, args.reg)
        est = model.curvature_constants()
        out = {
            "n": dataset.n, "p": dataset.p, "storage": dataset.storage,
            "gram_condition": measure_gram_condition(dataset),
            "gamma": est.gamma, "K": est.big_k,
            "kappa": est.kappa if est.strongly_convex else None,
            "kappa1": est.kappa1 if est.strongly_convex else None,
            "strongly_convex": est.strongly_convex,
        }
        print(json.dumps(out, indent=1))
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
