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
    wall_seconds: np.ndarray
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
        return {
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
                    "header": _jsonable(
                        {k: v for k, v in r.trace.header.items() if k != "rate_prediction"}),
                    "records": [
                        {
                            "k": rec.k,
                            "wall_seconds": rec.wall_nanos / 1e9,
                            "f_value": rec.f_value,
                            "grad_norm": rec.grad_norm_full,
                            "alpha": rec.alpha,
                            "sample_h": rec.sample_size_h,
                            "sample_g": rec.sample_size_g,
                            "residual_ratio": rec.residual_ratio,
                            "cg_iters": rec.cg_iters,
                            "solve_path": rec.solve_path,
                            "data_passes": rec.data_passes,
                            "rel_err_x": float(r.rel_err_x[i]),
                            "rel_err_f": float(r.rel_err_f[i]),
                            "stop_flag": rec.stop_flag,
                        }
                        for i, rec in enumerate(r.trace.records)
                    ],
                }
                for r in self.runs
            ],
        }


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
        rel_x, rel_f, wall = _series(tr, x_star, f_star)
        runs.append(SolverRun(name=name, rep=rep, trace=tr, rel_err_x=rel_x,
                              rel_err_f=rel_f, wall_seconds=wall,
                              failed=err is not None, error=err))
    return ExperimentResult(runs=runs, x_star=x_star, f_star=f_star, reference=ref)


def _one_run(model, job, x0):
    name, rep, cfg = job
    try:
        return name, rep, run(model, cfg, x0), None
    except SolverError as exc:
        trace = exc.trace if exc.trace is not None else Trace(
            variant=cfg.variant, header={"config": {}}, f0=np.inf, x0=x0.copy())
        return name, rep, trace, str(exc)


def _series(trace: Trace, x_star, f_star):
    xs_norm = max(float(np.linalg.norm(x_star)), np.finfo(float).tiny)
    fs = max(abs(f_star), np.finfo(float).tiny)
    rel_x = np.array([float(np.linalg.norm(r.x - x_star)) / xs_norm
                      for r in trace.records])
    rel_f = np.array([abs(r.f_value - f_star) / fs for r in trace.records])
    wall = np.array([r.wall_nanos / 1e9 for r in trace.records])
    return rel_x, rel_f, wall


# -- export -------------------------------------------------------------------


def export(result: ExperimentResult, fmt: str, path) -> None:
    if fmt == "csv":
        _export_csv(result, path)
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(result.to_dict(), fh, indent=1)
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def load_result_dict(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _export_csv(result: ExperimentResult, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in result.runs:
            for i, rec in enumerate(r.trace.records):
                row = (r.name, r.rep, rec.k, rec.wall_nanos / 1e9, rec.f_value,
                       rec.grad_norm_full, rec.alpha,
                       _blank(rec.sample_size_h), _blank(rec.sample_size_g),
                       float(r.rel_err_x[i]), float(r.rel_err_f[i]), rec.stop_flag)
                fh.write(",".join(str(v) for v in row) + "\n")


def _blank(v):
    return "" if v is None else v


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


# -- spec files ---------------------------------------------------------------


def config_from_dict(d: dict) -> SolverConfig:
    """Build a SolverConfig from flat JSON keys.

    Line-search fields (beta, alpha_hat, shrink, max_backtracks) and
    inexactness fields (theta1, theta2) are lifted into their parameter
    objects; other keys map one-to-one, and unknown ones raise ValueError.
    """
    d = dict(d)
    ls_kwargs = {k: d.pop(k) for k in ("beta", "alpha_hat", "shrink", "max_backtracks")
                 if k in d}
    kwargs = {"line_search": LineSearchParams(**ls_kwargs)} if ls_kwargs else {}
    if "theta1" in d or "theta2" in d:
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
