"""The three benchmark workloads: their inputs, set-up and solver settings.

Each workload stresses a different layer of the solve loop; BENCHMARK.md
says why each one was chosen.  Inputs are a pure function of the workload
seed and the size, and the solver receives only those inputs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from subnewton import InexactnessSpec, ObjectiveModel, SolverConfig
from subnewton.data import generate_synthetic, load_dataset

GRAD_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """``source`` is "generate" (the package's ``generate_synthetic`` runs
    inside set-up) or "svmlight" (the benchmark writes a sparse file and the
    package parses it inside set-up)."""

    name: str
    source: str
    shapes: dict  # size -> shape arguments (n, p and, for svmlight, density)
    data_args: dict
    reg: float
    solver: dict

    def config(self, seed: int) -> SolverConfig:
        return SolverConfig(grad_tol=GRAD_TOL, seed=seed, **self.solver)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="hard-inexact",
            source="generate",
            shapes={"full": dict(n=5000, p=500), "tiny": dict(n=400, p=40)},
            data_args=dict(family="logistic", condition_target=1e8, signal_norm=2.0,
                           signal_direction="weak"),
            reg=1e-8,
            solver=dict(variant="ssn-hessian", sample_frac_h=0.2,
                        inexact=InexactnessSpec(theta1=1e-2, theta2=0.5)),
        ),
        Workload(
            name="tall-exact",
            source="generate",
            shapes={"full": dict(n=200_000, p=50), "tiny": dict(n=4000, p=10)},
            data_args=dict(family="logistic", condition_target=1e3),
            reg=1e-4,
            solver=dict(variant="ssn-hessian", sample_frac_h=0.01),
        ),
        Workload(
            name="sparse-spectral",
            source="svmlight",
            shapes={"full": dict(n=20_000, p=500, density=0.01),
                    "tiny": dict(n=2000, p=20, density=0.25)},
            data_args={},
            reg=1e-6,
            solver=dict(variant="ssn-spectral", sample_frac_h=0.05, lambda_user=1e-3),
        ),
    )
}


def sparse_problem(n: int, p: int, density: float, seed: int):
    """Seeded CSR design with normal entries of standard deviation 2 and
    planted logistic labels whose margins have standard deviation 2.

    With unit entries the ssn-spectral iteration count ranged over 27-54
    across seeds, because lambda_user = 1e-3 sits inside the spread of the
    smallest curvatures; at standard deviation 2 it stays within 39-43 on
    most seeds, so the workload times the solver and not the draw.
    """
    rng = np.random.default_rng(seed)
    nnz = round(n * p * density)
    flat = np.sort(rng.choice(n * p, size=nnz, replace=False))
    values = 2.0 * rng.standard_normal(nnz)
    a = sp.csr_matrix((values, (flat // p, flat % p)), shape=(n, p))
    x_star = rng.standard_normal(p)
    x_star *= 2.0 / max(float(np.std(a @ x_star)), 1e-30)
    probs = 1.0 / (1.0 + np.exp(-(a @ x_star)))
    b = (rng.random(n) < probs).astype(float)
    return a, b


def write_svmlight(path, a, b) -> None:
    """1-based svmlight text; ``repr`` keeps every float exact on re-read."""
    with open(path, "w") as fh:
        for i in range(a.shape[0]):
            lo, hi = a.indptr[i], a.indptr[i + 1]
            feats = "".join(f" {j + 1}:{v!r}" for j, v in
                            zip(a.indices[lo:hi].tolist(), a.data[lo:hi].tolist()))
            fh.write(f"{float(b[i])!r}{feats}\n")


def prepare_inputs(workload: Workload, size: str, seed: int, workdir) -> str | None:
    """Write the file that set-up parses, if the workload has one (untimed)."""
    if workload.source != "svmlight":
        return None
    a, b = sparse_problem(seed=seed, **workload.shapes[size])
    path = os.path.join(workdir, f"{workload.name}-{seed}.svm")
    write_svmlight(path, a, b)
    return path


def setup(workload: Workload, size: str, seed: int, path: str | None):
    """Generate or parse the data and build the objective.

    Returns the model and the timing split, where
    ``setup_s`` = ``gen_s`` + ``load_s`` + ``model_s``.
    """
    timing = {"gen_s": 0.0, "load_s": 0.0, "model_s": 0.0, "bytes_read": 0}
    tic = time.perf_counter()
    if workload.source == "generate":
        dataset, _ = generate_synthetic(seed=seed, **workload.shapes[size],
                                        **workload.data_args)
        timing["gen_s"] = time.perf_counter() - tic
    else:
        dataset = load_dataset(path, fmt="svmlight")
        timing["load_s"] = time.perf_counter() - tic
        timing["bytes_read"] = os.path.getsize(path)
    tic_model = time.perf_counter()
    model = ObjectiveModel(dataset, "logistic", reg=workload.reg)
    timing["model_s"] = time.perf_counter() - tic_model
    timing["setup_s"] = time.perf_counter() - tic
    if model.p != workload.shapes[size]["p"]:
        raise ValueError(f"{workload.name}: set-up produced {model.p} columns, "
                         f"expected {workload.shapes[size]['p']}")
    return model, timing


def reference_data(workload: Workload, size: str, seed: int):
    """The inputs ``setup`` sees, rebuilt for the output check as
    (features, labels) with dense or CSR features."""
    if workload.source == "generate":
        dataset, _ = generate_synthetic(seed=seed, **workload.shapes[size],
                                        **workload.data_args)
        return dataset.features, dataset.labels
    return sparse_problem(seed=seed, **workload.shapes[size])
