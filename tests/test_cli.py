from __future__ import annotations

import csv
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from subnewton import cli
from subnewton.cli import main
from subnewton.data import load_dataset
from subnewton.linsolve import InexactnessSpec
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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            header = run(model, SolverConfig(variant=variant, max_iters=1),
                         np.zeros(model.p)).header
        # ssn-full's default sigma stops it before its first step, which it says
        assert len(caught) == (variant == "ssn-full")
        assert header["lemma_sized"] and header["sample_size_h"] < model.n
        assert blob[key] == header["rate_prediction"]


def test_rates_print_the_header_kappa_tilde(dataset_file, capsys):
    assert run_cli("rates", "--data", str(dataset_file), "--reg", "0.05") == 0
    blob = json.loads(capsys.readouterr().out)
    model = ObjectiveModel(load_dataset(str(dataset_file)), "logistic", reg=0.05)
    header = run(model, SolverConfig(max_iters=1), np.zeros(model.p)).header
    assert blob["kappa_tilde"] == header["kappa_tilde"]
    assert header["kappa_tilde"] > 1


INEXACT_FLAGS = ("--theta1", "0.01", "--theta2", "0.5", "--sample-frac-h", "0.3")
INEXACT = dict(inexact=InexactnessSpec(theta1=0.01, theta2=0.5), sample_frac_h=0.3)
RATES_PRECONDITIONERS = [
    ("logistic", (), {}, None),
    ("logistic", INEXACT_FLAGS, INEXACT, "start-hessian"),
    ("logistic", ("--solver", "newton", *INEXACT_FLAGS), dict(variant="newton", **INEXACT),
     "start-hessian"),
    ("poisson", INEXACT_FLAGS, INEXACT, "start-hessian"),
    ("logistic", ("--solver", "ssn-spectral", "--lambda", "0.1", *INEXACT_FLAGS),
     dict(variant="ssn-spectral", lambda_user=0.1, **INEXACT), None),
]


@pytest.mark.parametrize("family,flags,settings,label", RATES_PRECONDITIONERS)
def test_rates_print_the_run_preconditioner(dataset_file, capsys, family, flags, settings,
                                           label):
    assert run_cli("rates", "--data", str(dataset_file), "--reg", "0.05",
                   "--family", family, *flags) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["preconditioner"] == label
    model = ObjectiveModel(load_dataset(str(dataset_file)), family, reg=0.05)
    header = run(model, SolverConfig(max_iters=1, **settings), np.zeros(model.p)).header
    assert header["preconditioner"] == label
    assert blob["solve_dtype"] == header["solve_dtype"]


# (flags after --solver ssn-spectral, the run's solve_dtype); this file's K is
# about 0.3, so --lambda 1e-6 puts K / lambda_user far above the constant
RATES_SPECTRAL_DTYPES = [
    (("--lambda", "0.1"), "logistic", "float32"),
    (("--lambda", "1e-6"), "logistic", "float64"),
    (("--lambda", "0.1"), "poisson", "float64"),
]


@pytest.mark.parametrize("flags,family,dtype", RATES_SPECTRAL_DTYPES)
def test_rates_print_the_spectral_solve_dtype(dataset_file, capsys, flags, family, dtype):
    assert run_cli("rates", "--data", str(dataset_file), "--reg", "0.05", "--family", family,
                   "--solver", "ssn-spectral", "--sample-frac-h", "0.3", *flags) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["solve"] == "eigh" and blob["solve_dtype"] == dtype


def test_rates_price_theta1_zero_as_the_exact_solve(dataset_file, capsys):
    """theta1 = 0 asks for the exact solve, so rates prints the exact-solve
    guarantee and solve; a baseline has neither a solve nor a preconditioner."""
    blobs = []
    for flags in ((), ("--theta1", "0", "--theta2", "0.5")):
        assert run_cli("rates", "--data", str(dataset_file), "--reg", "0.05", *flags) == 0
        blobs.append(json.loads(capsys.readouterr().out))
    exact, zero = blobs
    assert zero["hessian_only"] == exact["hessian_only"]
    assert zero["solve"] == exact["solve"] == "cholesky"
    assert run_cli("rates", "--data", str(dataset_file), "--reg", "0.05", "--solver", "gd",
                   *INEXACT_FLAGS) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["solve"] is None and blob["preconditioner"] is None
    assert blob["hessian_only"]["theta1_max"] > 0


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


@pytest.mark.parametrize("variant", ["ssn-spectral", "ssn-ridge"])
def test_rates_at_gamma_zero_print_the_regularized_guarantee(dataset_file, capsys,
                                                             variant):
    """At reg 0 only the regularized variants have a guarantee: rates prints
    the given variant's block, and null for Algorithms 1 and 4 and the
    infinite kappas, as strict JSON."""
    assert run_cli("rates", "--data", str(dataset_file), "--reg", "0", "--solver", variant,
                   "--lambda", "1e-3", "--sample-frac-h", "0.5") == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    blob = json.loads(capsys.readouterr().out, parse_constant=reject)
    model = ObjectiveModel(load_dataset(str(dataset_file)), "logistic", reg=0.0)
    header = run(model, SolverConfig(variant=variant, lambda_user=1e-3, sample_frac_h=0.5,
                                     max_iters=1), np.zeros(model.p)).header
    assert blob[variant] == header["rate_prediction"] and blob[variant]["rho"] == 0.0
    assert blob["gamma"] == 0.0 and blob["K"] == header["big_k"]
    for key in ("hessian_only", "joint_sampling", "kappa", "kappa1", "kappa_tilde"):
        assert blob[key] is None


def test_rates_refuse_a_sample_below_p_and_print_null_for_it(tmp_path, capsys):
    """|S| = 20 < p = 60 at K / reg = 2.5e7: rates refuses ssn-hessian as
    plan does, and a spectral config reads null for Algorithms 1 and 4."""
    path = str(tmp_path / "h.svm")
    assert run_cli("gen", "--n", "400", "--p", "60", "--condition", "1e8", "-o", path) == 0
    capsys.readouterr()
    flags = ("--data", path, "--reg", "1e-8", "--sample-frac-h", "0.05")
    assert run_cli("rates", *flags) == 2
    assert "|S| = 20 < p = 60" in capsys.readouterr().err
    assert run_cli("rates", *flags, "--solver", "ssn-spectral", "--lambda", "1e-3") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["ssn-spectral"]["rho"] > 0
    assert blob["hessian_only"] is None and blob["joint_sampling"] is None


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


def test_inspect_writes_null_for_an_infinite_condition_number(tmp_path, capsys):
    # a zero column makes the Gram singular: its condition number is infinite
    path = tmp_path / "flat.csv"
    path.write_text("1.0,1.0,0.0,0.0\n-0.5,0.0,1.0,0.0\n0.3,1.0,1.0,0.0\n")
    assert run_cli("inspect", "--data", str(path), "--format", "csv",
                   "--family", "ridge") == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    blob = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert blob["gram_condition"] is None and blob["kappa"] is None
    assert blob["strongly_convex"] is False


def test_inspect_forms_no_gram_above_the_exact_eigensolve_size(tmp_path, capsys):
    """Above EXACT_GAMMA_MAX_DIM columns, where curvature_constants makes no
    eigensolve either, inspect reports no Gram condition number and forms
    no p x p Gram."""
    p = 2001
    path = tmp_path / "wide.svm"
    path.write_text(f"1 1:0.5 {p}:1\n0 2:1 700:-2\n1 3:0.25\n")
    tracemalloc.start()
    try:
        code = run_cli("inspect", "--data", str(path), "--reg", "0.1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["p"] == p and blob["storage"] == "sparse"
    assert blob["gram_condition"] is None
    assert peak < p * p * 8 / 4


@pytest.mark.parametrize("resamples", ["0", "-1"])
@pytest.mark.parametrize("lemma", ["hessian", "gradient"])
def test_verify_refuses_no_resamples(lemma, resamples, capsys):
    """A check of no resamples has no frequency to pass: usage error."""
    assert run_cli("verify", "--lemma", lemma, "--n", "300", "--p", "5",
                   "--resamples", resamples) == 1
    assert f"resamples must be >= 1, got {resamples}" in capsys.readouterr().err


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


def test_run_trace_equals_the_one_solver_compare(dataset_file, tmp_path):
    """run -o measures errors against its own final iterate, the reference
    compare picks for a one-solver spec."""
    assert run_cli("run", "--data", str(dataset_file), "--reg", "0.05",
                   "-o", str(tmp_path / "run.csv")) == 0
    spec_path = tmp_path / "one.json"
    spec_path.write_text(json.dumps({
        "dataset": {"path": str(dataset_file)}, "family": "logistic", "reg": 0.05,
        "solvers": [{"name": "ssn-hessian", "variant": "ssn-hessian"}],
    }))
    assert run_cli("compare", "--spec", str(spec_path), "-o", str(tmp_path / "cmp")) == 0
    tables = []
    for name in ("run.csv", "cmp.csv"):
        with open(tmp_path / name) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            del row["wall_seconds"]
        tables.append(rows)
    assert len(tables[0]) > 1
    assert tables[0] == tables[1]
    assert float(tables[0][0]["rel_err_x"]) > 0


def test_compare_preconditions_every_inexact_step_on_an_ill_conditioned_file(tmp_path):
    """An inexact compare on a 1e8-conditioned file: CG preconditioned by the
    inverse of the Hessian at x0 meets the contract on every step, with no
    fallback, in float32 products at theta1 = 1e-2 and in float64 at 1e-6.
    Two entries that differ only by name run on one model, the second taking
    its start Hessian from the Gram the first kept, and their records are
    equal, wall clocks aside; no record names an evaluation dtype."""
    path = str(tmp_path / "h.svm")
    assert run_cli("gen", "--n", "2000", "--p", "100", "--condition", "1e8", "--seed", "3",
                   "-o", path) == 0
    inexact = {"variant": "ssn-hessian", "sample_frac_h": 0.2, "theta2": 0.5,
               "max_iters": 200}
    spec_path = tmp_path / "h.json"
    spec_path.write_text(json.dumps({
        "dataset": {"path": path}, "family": "logistic", "reg": 1e-8,
        "solvers": [{"name": "first", "theta1": 1e-2, "seed": 5, **inexact},
                    {"name": "second", "theta1": 1e-2, "seed": 5, **inexact},
                    {"name": "tight", "theta1": 1e-6, **inexact}]}))
    assert run_cli("compare", "--spec", str(spec_path), "-o", str(tmp_path / "cmp")) == 0
    first, second, tight = json.loads((tmp_path / "cmp.json").read_text())["runs"]
    for run_, dtype in ((first, "float32"), (second, "float32"), (tight, "float64")):
        assert not run_["failed"], run_["error"]
        assert run_["header"]["preconditioner"] == "start-hessian"
        assert run_["header"]["solve_dtype"] == dtype
        paths = [rec["solve_path"] for rec in run_["records"]]
        assert "cholesky-fallback" not in paths
        assert all("eval_dtype" not in rec for rec in run_["records"])

    def steps(run_):
        return [{k: v for k, v in rec.items() if k != "wall_seconds"}
                for rec in run_["records"]]
    assert steps(first) == steps(second)


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


@pytest.mark.parametrize("settings,field", [
    (dict(variant="gd", gd_step=-1.0), "gd_step"),
    (dict(variant="gd", gd_step=0.0), "gd_step"),
    (dict(variant="lbfgs", lbfgs_memory=0), "lbfgs_memory"),
    (dict(variant="lbfgs", lbfgs_memory=-3), "lbfgs_memory"),
])
def test_compare_rejects_invalid_baseline_settings(dataset_file, tmp_path, capsys, settings,
                                                   field):
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({
        "dataset": {"path": str(dataset_file)}, "family": "logistic", "reg": 0.05,
        "solvers": [{"name": "baseline", **settings}],
    }))
    code = run_cli("compare", "--spec", str(spec_path), "-o", str(tmp_path / "r"))
    assert code == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


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
