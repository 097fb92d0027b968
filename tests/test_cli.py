from __future__ import annotations

import json

import numpy as np
import pytest

from subnewton import cli
from subnewton.cli import main
from subnewton.data import load_dataset
from subnewton.model import ObjectiveModel
from subnewton.solvers import SolverConfig, SolverError, run


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "d.svm"
    code = run_cli("gen", "--n", "300", "--p", "10", "--family", "logistic",
                   "--seed", "7", "-o", str(path))
    assert code == 0
    return path


def test_gen_then_run_happy_path(dataset_file, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run_cli("run", "--solver", "ssn-hessian", "--data", str(dataset_file),
                   "--reg", "0.05", "--sample-frac-h", "0.5", "-o", str(out))
    assert code == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("solver,rep,k,wall_seconds")
    assert len(lines) > 2
    assert "GradTol" in capsys.readouterr().out


def test_run_rejects_out_of_range_theta(dataset_file, capsys):
    code = run_cli("run", "--data", str(dataset_file), "--theta1", "1.5")
    assert code == 1
    assert "theta1" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(dataset_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--data", str(dataset_file), "--frobnicate")
    assert exc.value.code == 1


def test_verify_hessian_lemma_passes(capsys):
    code = run_cli("verify", "--lemma", "hessian", "--n", "400", "--p", "12",
                   "--reg", "0.5", "--resamples", "200", "--eps", "0.5",
                   "--delta", "0.1", "--seed", "1")
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS")


def test_verify_gradient_lemma_passes(capsys):
    code = run_cli("verify", "--lemma", "gradient", "--n", "400", "--p", "12",
                   "--reg", "0.1", "--resamples", "200", "--eps", "0.5",
                   "--delta", "0.1", "--seed", "1")
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_rates_prints_guarantee_constants(dataset_file, capsys):
    code = run_cli("rates", "--data", str(dataset_file), "--reg", "0.05",
                   "--theta1", "0.01", "--theta2", "0.5")
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["kappa"] >= 1
    assert 0 < blob["hessian_only"]["rho"] < 1
    assert blob["hessian_only"]["theta1_max"] > 0


def test_rates_price_the_sample_sizes_the_solvers_draw(tmp_path, capsys):
    """Without --sample-frac-h the solvers draw the lemma-sized sample, and
    rates reports the constants of that size, as the run header does."""
    path = tmp_path / "tall.svm"
    assert run_cli("gen", "--n", "40000", "--p", "10", "--seed", "7", "-o", str(path)) == 0
    capsys.readouterr()
    assert run_cli("rates", "--data", str(path), "--reg", "1.0") == 0
    blob = json.loads(capsys.readouterr().out)
    model = ObjectiveModel(load_dataset(str(path)), "logistic", reg=1.0)
    for key, variant in (("hessian_only", "ssn-hessian"), ("joint_sampling", "ssn-full")):
        header = run(model, SolverConfig(variant=variant, max_iters=1),
                     np.zeros(model.p)).header
        assert header["lemma_sized"] and header["sample_size_h"] < model.n
        assert blob[key] == header["rate_prediction"]


@pytest.mark.parametrize("variant", ["ssn-spectral", "ssn-ridge"])
def test_rates_report_the_given_regularized_variant(dataset_file, capsys, variant):
    assert run_cli("rates", "--data", str(dataset_file), "--reg", "0.05",
                   "--solver", variant, "--lambda", "0.1") == 0
    blob = json.loads(capsys.readouterr().out)
    model = ObjectiveModel(load_dataset(str(dataset_file)), "logistic", reg=0.05)
    header = run(model, SolverConfig(variant=variant, lambda_user=0.1, max_iters=1),
                 np.zeros(model.p)).header
    assert header["rate_prediction"]
    assert blob[variant] == header["rate_prediction"]


def test_run_without_solver_flags_uses_the_config_defaults(dataset_file, monkeypatch):
    seen = []

    def capture(model, config, x0):
        seen.append(config)
        raise SolverError("stop before solving")

    monkeypatch.setattr(cli, "run", capture)
    assert run_cli("run", "--data", str(dataset_file)) == 2
    assert seen == [SolverConfig()]


def test_inspect_reports_condition_metrics(dataset_file, capsys):
    code = run_cli("inspect", "--data", str(dataset_file), "--reg", "0.05")
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["n"] == 300 and blob["p"] == 10
    assert blob["gram_condition"] >= 1
    assert blob["strongly_convex"] is True


def test_compare_runs_spec_file(dataset_file, tmp_path, capsys):
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({
        "dataset": {"path": str(dataset_file), "format": "svmlight"},
        "family": "logistic",
        "reg": 0.05,
        "grad_tol": 1e-8,
        "solvers": [
            {"name": "newton", "variant": "newton"},
            {"name": "ssn", "variant": "ssn-hessian", "sample_frac_h": 0.5},
        ],
    }))
    stem = tmp_path / "result"
    code = run_cli("compare", "--spec", str(spec_path), "-o", str(stem))
    assert code == 0
    assert (tmp_path / "result.csv").exists()
    assert (tmp_path / "result.json").exists()
    assert "reference solver" in capsys.readouterr().out


def test_compare_rejects_unknown_solver_key(dataset_file, tmp_path, capsys):
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({
        "dataset": {"path": str(dataset_file), "format": "svmlight"},
        "family": "logistic",
        "solvers": [{"name": "ssn", "variant": "ssn-hessian", "sample_frac": 0.2}],
    }))
    code = run_cli("compare", "--spec", str(spec_path), "-o", str(tmp_path / "r"))
    assert code == 1
    assert "unknown solver keys: sample_frac" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,flat", [
    ("inexact", {"theta1": 0.1}, "theta1, theta2"),
    ("line_search", {"beta": 0.2}, "beta, alpha_hat, shrink, max_backtracks"),
])
def test_compare_rejects_nested_parameter_objects(dataset_file, tmp_path, capsys,
                                                  key, value, flat):
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({
        "dataset": {"path": str(dataset_file), "format": "svmlight"},
        "family": "logistic",
        "solvers": [{"name": "ssn", "variant": "ssn-hessian", key: value}],
    }))
    code = run_cli("compare", "--spec", str(spec_path), "-o", str(tmp_path / "r"))
    assert code == 1
    err = capsys.readouterr().err
    assert repr(key) in err and flat in err


def test_outputs_reproducible_modulo_timing(dataset_file, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = run_cli("run", "--solver", "ssn-hessian", "--data", str(dataset_file),
                       "--reg", "0.05", "--sample-frac-h", "0.5", "--seed", "3",
                       "-o", str(out))
        assert code == 0
        outs.append(out.read_text().splitlines())
    wall_col = 3  # the one physically non-deterministic column
    for row_a, row_b in zip(*outs):
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        del cells_a[wall_col], cells_b[wall_col]
        assert cells_a == cells_b


def test_missing_data_file_is_usage_error(capsys):
    code = run_cli("inspect", "--data", "/nonexistent/path.svm")
    assert code == 1


def test_numerical_failure_exit_code(tmp_path, capsys):
    # rank-deficient design with no penalty: plain subsampling must refuse
    path = tmp_path / "flat.csv"
    path.write_text("1.0,1.0,0.0,0.0\n-0.5,0.0,1.0,0.0\n0.3,1.0,1.0,0.0\n")
    code = run_cli("run", "--data", str(path), "--format", "csv",
                   "--family", "ridge", "--solver", "ssn-hessian")
    assert code == 2
    assert "failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "rates"])
def test_gamma_zero_failure_names_the_flags_that_fix_it(dataset_file, capsys, command):
    # logistic with the default --reg 0 has gamma = 0, so the default
    # ssn-hessian has no lemma sample size and no rate constants
    code = run_cli(command, "--data", str(dataset_file))
    err = capsys.readouterr().err
    assert code == 2
    assert cli.GAMMA_ZERO_HINT in err
    for flag in ("--reg", "--solver ssn-spectral|ssn-ridge", "--sample-frac-h"):
        assert flag in err
    # the hint's way out works: the spectral variant runs on the same file
    assert run_cli("run", "--data", str(dataset_file), "--solver", "ssn-spectral",
                   "--sample-frac-h", "0.2") == 0
