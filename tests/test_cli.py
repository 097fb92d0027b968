from __future__ import annotations

import json

import pytest

from subnewton.cli import main


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
