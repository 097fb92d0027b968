"""Experiment orchestration: run solver sets on one dataset, derive relative
error series against the tightest run, export CSV/JSON.

The reference point (x*, F*) is taken from the run with the smallest final
gradient norm (ties broken by lowest objective); every solver's relative
errors are computed against that single reference, from the iterate
snapshots stored in the traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import load_dataset
from .linesearch import LineSearchParams
from .linsolve import InexactnessSpec
from .model import Dataset, ObjectiveModel
from .solvers import SolverConfig, SolverError, Trace, run

CSV_COLUMNS = ("solver", "rep", "k", "wall_seconds", "f_value", "grad_norm",
               "alpha", "sample_h", "sample_g", "rel_err_x", "rel_err_f", "stop_flag")


@dataclass
class ExperimentSpec:
    dataset: Dataset
    family: str
    reg: float = 0.0
    solvers: list[tuple[str, SolverConfig]] = field(default_factory=list)
    x0: np.ndarray | None = None
    grad_tol: float | None = None
    time_limit: float | None = None
    repetitions: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.solvers:
            raise ValueError("no solver configs given")


@dataclass
class SolverRun:
    name: str
    rep: int
    trace: Trace
    rel_err_x: np.ndarray
    rel_err_f: np.ndarray
    failed: bool = False
    error: str | None = None


@dataclass
class ExperimentResult:
    runs: list[SolverRun]
    x_star: np.ndarray
    f_star: float
    reference: str

    def run_for(self, name: str, rep: int = 0) -> SolverRun:
        for r in self.runs:
            if r.name == name and r.rep == rep:
                return r
        raise KeyError(f"no run named {name!r} rep {rep}")

    def to_dict(self) -> dict:
        """The result as plain JSON values; non-finite numbers (such as kappa
        at gamma = 0) become None, since JSON has no Infinity or NaN."""
        return jsonable({
            "reference": self.reference,
            "f_star": self.f_star,
            "x_star_norm": float(np.linalg.norm(self.x_star)),
            "runs": [
                {
                    "solver": r.name,
                    "rep": r.rep,
                    "failed": r.failed,
                    "error": r.error,
                    "stop": r.trace.stop,
                    "diagnostics": r.trace.header.get("rate_prediction", {}),
                    "header": {k: v for k, v in r.trace.header.items()
                               if k != "rate_prediction"},
                    "records": [_record(*entry) for entry in
                                zip(r.trace.records, r.rel_err_x, r.rel_err_f)],
                }
                for r in self.runs
            ],
        })


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every (solver, repetition) pair and derive the error series.

    Repetitions re-seed each config with seed + rep.  Runs execute one at a
    time: they share the model's pass counter, and a record's clock must not
    overlap another run's work.
    """
    model = ObjectiveModel(spec.dataset, spec.family, spec.reg)
    x0 = np.zeros(model.p) if spec.x0 is None else np.asarray(spec.x0, dtype=float)

    jobs = []
    for name, config in spec.solvers:
        for rep in range(spec.repetitions):
            cfg = replace(config, seed=config.seed + rep)
            if spec.grad_tol is not None:
                cfg = replace(cfg, grad_tol=spec.grad_tol)
            if spec.time_limit is not None:
                cfg = replace(cfg, time_limit=spec.time_limit)
            jobs.append((name, rep, cfg))

    outcomes = [_one_run(model, j, x0) for j in jobs]

    traced = [(name, rep, tr, err) for name, rep, tr, err in outcomes if tr.records]
    if not traced:
        raise SolverError("no solver produced any iterations; reference point unavailable")

    # tightest run defines the reference; ties fall to the lowest objective
    best = min(traced, key=lambda t: (t[2].grad_norm_final, t[2].f_final))
    x_star, f_star, ref = best[2].x_final, best[2].f_final, best[0]

    runs = []
    for name, rep, tr, err in outcomes:
        rel_x, rel_f = _series(tr, x_star, f_star)
        runs.append(SolverRun(name=name, rep=rep, trace=tr, rel_err_x=rel_x,
                              rel_err_f=rel_f, failed=err is not None, error=err))
    return ExperimentResult(runs=runs, x_star=x_star, f_star=f_star, reference=ref)


def _one_run(model, job, x0):
    name, rep, cfg = job
    try:
        return name, rep, run(model, cfg, x0), None
    except SolverError as exc:
        trace = exc.trace if exc.trace is not None else Trace(
            variant=cfg.variant, header={"config": {}}, f0=np.inf, x0=x0.copy())
        return name, rep, trace, str(exc)


def single_result(name: str, trace: Trace) -> ExperimentResult:
    """One run's result, with relative errors against its own final iterate:
    the reference ``run_experiment`` picks for a one-solver spec."""
    rel_x, rel_f = _series(trace, trace.x_final, trace.f_final)
    return ExperimentResult(runs=[SolverRun(name, 0, trace, rel_x, rel_f)],
                            x_star=trace.x_final, f_star=trace.f_final, reference=name)


def _series(trace: Trace, x_star, f_star):
    xs_norm = max(float(np.linalg.norm(x_star)), np.finfo(float).tiny)
    fs = max(abs(f_star), np.finfo(float).tiny)
    rel_x = np.array([float(np.linalg.norm(r.x - x_star)) / xs_norm
                      for r in trace.records])
    rel_f = np.array([abs(r.f_value - f_star) / fs for r in trace.records])
    return rel_x, rel_f


# -- export -------------------------------------------------------------------


def export(result: ExperimentResult, fmt: str, path) -> None:
    if fmt == "csv":
        _export_csv(result, path)
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(result.to_dict(), fh, indent=1)
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def _export_csv(result: ExperimentResult, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in result.runs:
            for entry in zip(r.trace.records, r.rel_err_x, r.rel_err_f):
                row = {"solver": r.name, "rep": r.rep, **_record(*entry)}
                fh.write(",".join("" if row[c] is None else str(row[c])
                                  for c in CSV_COLUMNS) + "\n")


def _record(rec, rel_err_x, rel_err_f) -> dict:
    """One record's exported fields: the JSON record, and the CSV row's
    source for the columns in ``CSV_COLUMNS``."""
    return {
        "k": rec.k,
        "wall_seconds": rec.wall_nanos / 1e9,
        "f_value": rec.f_value,
        "grad_norm": rec.grad_norm_full,
        "alpha": rec.alpha,
        "sample_h": rec.sample_size_h,
        "sample_g": rec.sample_size_g,
        "ls_trials": rec.ls_trials,
        "residual_ratio": rec.residual_ratio,
        "descent_ratio": rec.descent_ratio,
        "cg_iters": rec.cg_iters,
        "solve_path": rec.solve_path,
        "lambda_applied": rec.lambda_applied,
        "min_eig_h": rec.min_eig_h,
        "grad_error_used": rec.grad_error_used,
        "data_passes": rec.data_passes,
        "rel_err_x": float(rel_err_x),
        "rel_err_f": float(rel_err_f),
        "stop_flag": rec.stop_flag,
    }


def jsonable(obj):
    """``obj`` with numpy values as Python ones and non-finite floats as
    None, so that ``json.dumps`` writes strict JSON."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    return obj


# -- spec files ---------------------------------------------------------------


LINE_SEARCH_KEYS = ("beta", "alpha_hat", "shrink", "max_backtracks")
INEXACT_KEYS = ("theta1", "theta2")


def config_from_dict(d: dict) -> SolverConfig:
    """Build a SolverConfig from flat JSON keys.

    Line-search fields (beta, alpha_hat, shrink, max_backtracks) and
    inexactness fields (theta1, theta2) are lifted into their parameter
    objects; other keys map one-to-one.  Unknown keys, and ``line_search`` or
    ``inexact`` given as nested objects, raise ValueError.
    """
    d = dict(d)
    for nested, flat in (("line_search", LINE_SEARCH_KEYS), ("inexact", INEXACT_KEYS)):
        if nested in d:
            raise ValueError(f"solver key {nested!r} takes no object; give its fields "
                             f"as flat keys: {', '.join(flat)}")
    ls_kwargs = {k: d.pop(k) for k in LINE_SEARCH_KEYS if k in d}
    kwargs = {"line_search": LineSearchParams(**ls_kwargs)} if ls_kwargs else {}
    if any(k in d for k in INEXACT_KEYS):
        kwargs["inexact"] = InexactnessSpec(theta1=d.pop("theta1", 0.0),
                                            theta2=d.pop("theta2", 0.0))
    if "lambda" in d:
        d["lambda_user"] = d.pop("lambda")
    unknown = sorted(set(d) - {f.name for f in fields(SolverConfig)})
    if unknown:
        raise ValueError(f"unknown solver keys: {', '.join(unknown)}")
    return SolverConfig(**d, **kwargs)


def load_experiment_spec(path) -> ExperimentSpec:
    """Read an experiment description from a JSON file.

    Expected shape::

        {"dataset": {"path": "d.svm", "format": "svmlight"},
         "family": "logistic", "reg": 0.01,
         "grad_tol": 1e-8, "time_limit": null, "repetitions": 1,
         "solvers": [{"name": "ssn", "variant": "ssn-hessian", ...}, ...]}
    """
    with open(path) as fh:
        raw = json.load(fh)
    ds_spec = raw["dataset"]
    dataset = load_dataset(ds_spec["path"], ds_spec.get("format", "svmlight"))
    solvers = []
    for entry in raw["solvers"]:
        entry = dict(entry)
        name = entry.pop("name")
        solvers.append((name, config_from_dict(entry)))
    return ExperimentSpec(
        dataset=dataset,
        family=raw["family"],
        reg=raw.get("reg", 0.0),
        solvers=solvers,
        x0=np.asarray(raw["x0"], dtype=float) if "x0" in raw else None,
        grad_tol=raw.get("grad_tol"),
        time_limit=raw.get("time_limit"),
        repetitions=raw.get("repetitions", 1),
    )
