from __future__ import annotations

import csv
import json

import numpy as np
import pytest
from conftest import line_search_passes

from subnewton.bench import CSV_COLUMNS, ExperimentResult, ExperimentSpec, \
    config_from_dict, export, load_experiment_spec, run_experiment, single_result
from subnewton.data import generate_synthetic, save_dataset
from subnewton.linsolve import InexactnessSpec
from subnewton.model import ObjectiveModel
from subnewton.solvers import SolverConfig, run


@pytest.fixture(scope="module")
def tiny_spec():
    dataset, _ = generate_synthetic(200, 8, family="logistic", seed=2)
    return ExperimentSpec(
        dataset=dataset, family="logistic", reg=0.05,
        solvers=[
            ("newton", SolverConfig(variant="newton", max_iters=50)),
            ("ssn", SolverConfig(variant="ssn-hessian", sample_frac_h=0.4, seed=1,
                                 max_iters=50)),
            ("gd", SolverConfig(variant="gd", max_iters=50)),
        ],
        grad_tol=1e-9,
    )


@pytest.fixture(scope="module")
def tiny_result(tiny_spec):
    return run_experiment(tiny_spec)


def test_newton_defines_reference(tiny_result):
    assert tiny_result.reference == "newton"
    newton = tiny_result.run_for("newton")
    # its own relative errors end at the tolerance-implied level
    assert newton.rel_err_x[-1] <= 1e-8
    assert newton.rel_err_f[-1] <= 1e-12


def test_identical_configs_produce_identical_blocks(tiny_spec):
    spec = ExperimentSpec(
        dataset=tiny_spec.dataset, family="logistic", reg=0.05,
        solvers=[
            ("a", SolverConfig(variant="ssn-hessian", sample_frac_h=0.4, seed=7)),
            ("b", SolverConfig(variant="ssn-hessian", sample_frac_h=0.4, seed=7)),
        ],
        grad_tol=1e-9,
    )
    result = run_experiment(spec)
    a, b = result.run_for("a"), result.run_for("b")
    assert a.trace.n_iters == b.trace.n_iters
    np.testing.assert_array_equal(a.rel_err_x, b.rel_err_x)
    np.testing.assert_array_equal(a.rel_err_f, b.rel_err_f)
    for ra, rb in zip(a.trace.records, b.trace.records):
        assert np.array_equal(ra.x, rb.x)
        assert ra.f_value == rb.f_value and ra.alpha == rb.alpha


def test_repetitions_vary_seeds(tiny_spec):
    spec = ExperimentSpec(
        dataset=tiny_spec.dataset, family="logistic", reg=0.05,
        solvers=[("ssn", SolverConfig(variant="ssn-hessian", sample_frac_h=0.3,
                                      seed=0))],
        grad_tol=1e-9, repetitions=2,
    )
    result = run_experiment(spec)
    r0, r1 = result.run_for("ssn", 0), result.run_for("ssn", 1)
    assert r0.trace.header["config"]["seed"] == 0
    assert r1.trace.header["config"]["seed"] == 1


def test_wall_time_monotone(tiny_result):
    for r in tiny_result.runs:
        walls = [rec.wall_nanos for rec in r.trace.records]
        assert all(np.diff(walls) >= 0)


def test_csv_export_schema_and_row_count(tiny_result, tmp_path):
    path = tmp_path / "out.csv"
    export(tiny_result, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    expected_rows = sum(r.trace.n_iters for r in tiny_result.runs)
    assert len(lines) - 1 == expected_rows


def test_csv_cells_are_the_json_record_values(tiny_result, tmp_path):
    export(tiny_result, "csv", tmp_path / "out.csv")
    export(tiny_result, "json", tmp_path / "out.json")
    with open(tmp_path / "out.csv") as fh:
        rows = list(csv.DictReader(fh))
    records = [{"solver": r["solver"], "rep": r["rep"], **rec}
               for r in json.loads((tmp_path / "out.json").read_text())["runs"]
               for rec in r["records"]]
    assert len(rows) == len(records)
    assert any(rec["sample_h"] is None for rec in records)  # gd's blank cells
    for row, rec in zip(rows, records):
        assert row == {c: "" if rec[c] is None else str(rec[c]) for c in CSV_COLUMNS}


def test_single_result_is_the_one_solver_experiment(tiny_spec):
    cfg = SolverConfig(variant="ssn-hessian", sample_frac_h=0.4, seed=1, grad_tol=1e-9)
    spec = ExperimentSpec(dataset=tiny_spec.dataset, family="logistic", reg=0.05,
                          solvers=[("ssn", cfg)])
    expected = run_experiment(spec).run_for("ssn")
    model = ObjectiveModel(tiny_spec.dataset, "logistic", 0.05)
    result = single_result("ssn", run(model, cfg, np.zeros(model.p)))
    assert result.reference == "ssn"
    got = result.run_for("ssn")
    assert got.rel_err_x[0] > 0 and got.rel_err_x[-1] == 0.0
    np.testing.assert_array_equal(got.rel_err_x, expected.rel_err_x)
    np.testing.assert_array_equal(got.rel_err_f, expected.rel_err_f)


def test_csv_export_empty_result(tmp_path):
    empty = ExperimentResult(runs=[], x_star=np.zeros(2), f_star=0.0, reference="")
    path = tmp_path / "empty.csv"
    export(empty, "csv", path)
    assert path.read_text().splitlines() == [",".join(CSV_COLUMNS)]


def test_json_round_trip(tiny_result, tmp_path):
    path = tmp_path / "out.json"
    export(tiny_result, "json", path)
    assert json.loads(path.read_text()) == tiny_result.to_dict()


def test_json_embeds_rate_diagnostics(tiny_result, tmp_path):
    path = tmp_path / "diag.json"
    export(tiny_result, "json", path)
    blob = json.loads(path.read_text())
    ssn = next(r for r in blob["runs"] if r["solver"] == "ssn")
    assert "rho" in ssn["diagnostics"]
    assert "alpha_floor" in ssn["diagnostics"]


def test_config_from_dict_lifts_nested_params():
    cfg = config_from_dict({"variant": "ssn-ridge", "lambda": 0.3, "beta": 0.1,
                            "theta1": 0.01, "theta2": 0.5, "seed": 4})
    assert cfg.lambda_user == 0.3
    assert cfg.line_search.beta == 0.1
    assert cfg.inexact.theta1 == 0.01
    assert cfg.seed == 4


def test_load_experiment_spec_file(tmp_path):
    dataset, _ = generate_synthetic(60, 4, family="logistic", seed=5)
    data_path = tmp_path / "d.svm"
    save_dataset(dataset, data_path)
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({
        "dataset": {"path": str(data_path), "format": "svmlight"},
        "family": "logistic",
        "reg": 0.02,
        "grad_tol": 1e-8,
        "repetitions": 2,
        "solvers": [
            {"name": "newton", "variant": "newton"},
            {"name": "ssn", "variant": "ssn-hessian", "sample_frac_h": 0.5,
             "beta": 0.3},
        ],
    }))
    spec = load_experiment_spec(spec_path)
    assert spec.repetitions == 2
    assert spec.reg == 0.02
    assert dict(spec.solvers)["ssn"].line_search.beta == 0.3
    result = run_experiment(spec)
    assert len(result.runs) == 4


def test_reference_errors_share_single_x_star(tiny_result):
    x_star = tiny_result.x_star
    for r in tiny_result.runs:
        recomputed = [np.linalg.norm(rec.x - x_star) / np.linalg.norm(x_star)
                      for rec in r.trace.records]
        np.testing.assert_allclose(r.rel_err_x, recomputed, rtol=1e-12)


def test_failed_solver_keeps_partial_trace():
    rng_a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    from subnewton.model import Dataset
    spec = ExperimentSpec(
        dataset=Dataset(features=rng_a, labels=np.zeros(3)), family="ridge",
        reg=0.0,
        solvers=[
            ("spectral", SolverConfig(variant="ssn-spectral", sample_frac_h=1.0,
                                      lambda_user=0.5, max_iters=10)),
            ("plain", SolverConfig(variant="ssn-hessian", max_iters=10)),
        ],
        grad_tol=1e-8,
    )
    result = run_experiment(spec)
    failed = result.run_for("plain")
    assert failed.failed and "spectral" in failed.error
    assert not result.run_for("spectral").failed


DIAGNOSTICS = ("ls_trials", "residual_ratio", "descent_ratio", "cg_iters", "solve_path",
               "lambda_applied", "min_eig_h", "grad_error_used", "data_passes")


@pytest.mark.filterwarnings("ignore:sigma = .* is below the guarantee floor")
def test_json_records_carry_solve_diagnostics(tiny_result, tiny_spec):
    blob = tiny_result.to_dict()
    paths = {r["solver"]: {rec["solve_path"] for rec in r["records"][:-1]}
             for r in blob["runs"]}
    assert paths == {"newton": {"cholesky"}, "ssn": {"cholesky"}, "gd": {None}}
    for r in blob["runs"]:
        for rec in r["records"]:
            assert set(DIAGNOSTICS) <= rec.keys()
    # each one is the trace record's own, set on a ridge CG run and an ssn-full
    # one with track_events
    tracked = run_experiment(ExperimentSpec(
        dataset=tiny_spec.dataset, family="logistic", reg=0.05, grad_tol=1e-9,
        solvers=[
            ("ridge-cg", SolverConfig(variant="ssn-ridge", lambda_user=1e-3, sample_frac_h=0.5,
                                      inexact=InexactnessSpec(theta1=1e-2, theta2=0.5),
                                      track_events=True, max_iters=50)),
            ("full", SolverConfig(variant="ssn-full", sample_frac_h=0.5, sample_frac_g=0.5,
                                  sigma=0.0, track_events=True, max_iters=50)),
        ]))
    tracked_blob = tracked.to_dict()
    for r, run_ in zip(tracked_blob["runs"], tracked.runs):
        assert not r["failed"], r["error"]
        for rec, trace_rec in zip(r["records"], run_.trace.records):
            assert {k: rec[k] for k in DIAGNOSTICS} \
                == {k: getattr(trace_rec, k) for k in DIAGNOSTICS}
    ridge, full = ([rec for rec in r["records"] if rec["alpha"]] for r in tracked_blob["runs"])
    assert ridge and all(rec["lambda_applied"] == 1e-3 and rec["ls_trials"] >= 1
                         and rec["descent_ratio"] is not None
                         and rec["min_eig_h"] is not None for rec in ridge)
    assert full and all(rec["grad_error_used"] is not None for rec in full)
    for r, run_ in zip(blob["runs"], tiny_result.runs):
        if r["solver"] == "gd":
            assert {rec["data_passes"] for rec in r["records"]
                    if rec["stop_flag"] in ("", "MaxIters")} == {2}
        else:
            assert [rec["data_passes"] for rec in r["records"]] \
                == line_search_passes(run_.trace.records)


def test_runs_execute_serially_whatever_the_environment(monkeypatch):
    # concurrent runs would share the model's pass counter and clocks
    monkeypatch.setenv("SSN_THREADS", "2")
    dataset, _ = generate_synthetic(3000, 40, family="logistic", seed=4)
    spec = ExperimentSpec(
        dataset=dataset, family="logistic", reg=1e-3,
        solvers=[
            ("ssn", SolverConfig(variant="ssn-hessian", sample_frac_h=0.3, seed=2,
                                 max_iters=6)),
            ("lbfgs", SolverConfig(variant="lbfgs", max_iters=6)),
        ],
        grad_tol=0.0, repetitions=2,
    )
    result = run_experiment(spec)
    assert len(result.runs) == 4 and not any(r.failed for r in result.runs)
    for r in result.runs:
        assert r.trace.n_iters == 6
        passes = [rec.data_passes for rec in r.trace.records]
        assert passes == line_search_passes(r.trace.records)


def test_json_export_is_strict_json_at_gamma_zero(tmp_path):
    # kappa, kappa1 and kappa_tilde are infinite at gamma = 0; JSON has no Infinity
    dataset, _ = generate_synthetic(300, 10, seed=7)
    spec = ExperimentSpec(
        dataset=dataset, family="logistic", reg=0.0,
        solvers=[("spectral", SolverConfig(variant="ssn-spectral", lambda_user=1e-3,
                                           sample_frac_h=0.5, max_iters=20))])
    result = run_experiment(spec)
    assert result.runs[0].trace.header["kappa"] == np.inf
    path = tmp_path / "r.json"
    export(result, "json", path)

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")
    blob = json.loads(path.read_text(), parse_constant=reject)
    header = blob["runs"][0]["header"]
    assert header["kappa"] is None and header["kappa1"] is None
    assert header["kappa_tilde"] is None and header["gamma"] == 0.0
    assert blob == result.to_dict()
