"""Smoke test of the benchmark at a tiny problem size.

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py

Every workload runs in both modes and must report every metric named in
BENCHMARK.md with zero failed solves; the output check must reject a
perturbed solution; the benchmark must refuse to run without the package
sources or with BLAS threads unpinned.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

END_TO_END = {"time_to_tol_s", "clocked_to_tol_s", "setup_s", "peak_rss_mb"}
PER_LAYER = {
    "linsolve.s", "linsolve.cg_iters", "linsolve.fallbacks", "linsolve.fallback_frac",
    "sampling.draw_s", "sampling.assemble_s", "sampling.hessian_rows",
    "regularize.s", "regularize.calls",
    "model.value_calls", "model.gradient_calls", "model.data_passes", "model.self_s",
    "model.curvature_s",
    "linesearch.self_s", "linesearch.trials", "linesearch.value_calls",
    "solvers.iters", "solvers.diag_s", "solvers.self_s",
    "data.gen_s", "data.load_s", "data.bytes_read",
    "trace.overhead_s",
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_are_the_three_named():
    assert WORKLOADS == ["hard-inexact", "tall-exact", "sparse-spectral"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    section = SPEC["per_layer" if trace else "end_to_end"]
    assert (PER_LAYER if trace else END_TO_END) <= {m["name"] for m in section}
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert np.isfinite(reported["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_check_rejects_perturbed_solution(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from output_check import reference_optimum, verify
    from subnewton import Dataset, ObjectiveModel, run
    from workloads import GRAD_TOL, WORKLOADS as SPECS, reference_data

    spec = SPECS[workload]
    a, b = reference_data(spec, "tiny", 3)
    model = ObjectiveModel(Dataset(features=a, labels=b), "logistic", reg=spec.reg)
    x_final = run(model, spec.config(3), np.zeros(a.shape[1])).x_final
    f_star = reference_optimum(a, b, spec.reg)

    assert verify(a, b, spec.reg, x_final, f_star, GRAD_TOL)["ok"]
    perturbed = x_final + 1e-4 * np.ones_like(x_final)
    verdict = verify(a, b, spec.reg, perturbed, f_star, GRAD_TOL)
    assert not verdict["ok"]
    assert "gradient norm" in verdict["reason"]


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "tall-exact", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_worker_refuses_numpy_loaded_before_pinning():
    code = ("import numpy, runpy, sys; sys.argv = ['worker.py', 'check', '--workload', "
            "'tall-exact', '--seed', '1', '--out', 'x', '--result', 'y']; "
            "runpy.run_path('perfbench/worker.py', run_name='__main__')")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "numpy was imported before" in proc.stderr
