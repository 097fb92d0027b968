"""Time-to-tolerance benchmark for subnewton; the one command that prints
every metric of a workload.

    python3 perfbench/run.py --workload hard-inexact --seed 1 --seconds 30 --trace 0

Run from the repository root.  The solves run in a child process with BLAS
pinned to one thread (worker.py measure); a second child rebuilds the inputs
and checks every solve's output against a full-Newton reference optimum
(worker.py check), so the reference inflates neither set-up time nor peak
memory.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
0 when every solve passed, 1 when any failed, 2 when the benchmark could not
run.  BENCHMARK.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOAD_NAMES = ("hard-inexact", "tall-exact", "sparse-spectral")
RUN_LIMIT_S = 170.0  # the whole command must finish within 180 s

END_TO_END = {
    "time_to_tol_s": "s",
    "clocked_to_tol_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "linsolve.s": "s",
    "linsolve.cg_iters": "count",
    "linsolve.inexact_calls": "count",
    "linsolve.fallbacks": "count",
    "linsolve.fallback_frac": "ratio",
    "sampling.draw_s": "s",
    "sampling.assemble_s": "s",
    "sampling.hessian_rows": "count",
    "regularize.s": "s",
    "regularize.calls": "count",
    "model.value_calls": "count",
    "model.gradient_calls": "count",
    "model.data_passes": "count",
    "model.self_s": "s",
    "model.curvature_s": "s",
    "linesearch.self_s": "s",
    "linesearch.calls": "count",
    "linesearch.trials": "count",
    "linesearch.value_calls": "count",
    "solvers.iters": "count",
    "solvers.diag_s": "s",
    "solvers.self_s": "s",
    "data.gen_s": "s",
    "data.load_s": "s",
    "data.bytes_read": "B",
    "trace.spans": "count",
    "trace.time_to_tol_s": "s",
    "trace.untraced_time_to_tol_s": "s",
    "trace.overhead_s": "s",
}

# ratios and differences, printed with the metrics they are made of
BASES = {
    "linsolve.fallback_frac": ("linsolve.fallbacks", "linsolve.inexact_calls"),
    "linesearch.trials": ("linesearch.calls",),
    "model.data_passes": ("model.value_calls", "model.gradient_calls"),
    "trace.overhead_s": ("trace.time_to_tol_s", "trace.untraced_time_to_tol_s"),
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every problem for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_worker(root: Path, argv: list[str], deadline: float) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"), *argv]
    try:
        # worker chatter goes to stderr so our result stays the last stdout line
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {argv[0]} overran the {RUN_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {argv[0]} exited with code {proc.returncode}")


def solve_failure(solve: dict, verdict: dict) -> str | None:
    if solve["error"] is not None:
        return f"raised {solve['error']}"
    if solve["stop"] != "GradTol":
        return f"stopped with {solve['stop']}"
    if not verdict["ok"]:
        return f"output check: {verdict['reason']}"
    return None


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def scaled_median(rows: list[dict], key: str) -> float:
    """Median of a time scaled to the nominal machine speed (calibrate.py)."""
    return statistics.median(row[key] * row["scale"] for row in rows)


def collect_metrics(result: dict, traced: bool) -> dict[str, float]:
    returned = [s for s in result["solves"] if s["error"] is None]
    untraced = [s for s in returned if not s["traced"]]
    if not untraced:
        raise BenchmarkError("no solve returned; nothing to measure")
    if not traced:
        return {
            "time_to_tol_s": scaled_median(untraced, "wall_s"),
            "clocked_to_tol_s": scaled_median(untraced, "clocked_s"),
            "setup_s": scaled_median(result["setups"], "setup_s"),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    layered = [s["layers"] for s in returned if s["traced"]]
    if not layered:
        raise BenchmarkError("no traced solve returned; nothing to measure")
    metrics = {name: median_of(layered, name) for name in layered[0]}
    metrics.update({
        "data.gen_s": median_of(result["setups"], "gen_s"),
        "data.load_s": median_of(result["setups"], "load_s"),
        "data.bytes_read": median_of(result["setups"], "bytes_read"),
        "trace.time_to_tol_s": median_of([s for s in returned if s["traced"]], "wall_s"),
        "trace.untraced_time_to_tol_s": median_of(untraced, "wall_s"),
    })
    metrics["trace.overhead_s"] = (metrics["trace.time_to_tol_s"]
                                   - metrics["trace.untraced_time_to_tol_s"])
    return metrics


def report(args, result: dict, verdicts: list[dict]) -> int:
    solves = result["solves"]
    failures = [solve_failure(s, v) for s, v in zip(solves, verdicts)]
    failed = sum(f is not None for f in failures)
    units = PER_LAYER if args.trace else END_TO_END
    values = collect_metrics(result, bool(args.trace))
    missing = set(units) - set(values)
    if missing:
        raise BenchmarkError(f"metrics not produced: {sorted(missing)}")

    print("env " + json.dumps(result["env"], sort_keys=True))
    n_traced = sum(s["traced"] for s in solves)
    print(f"workload {args.workload} size {args.size} seed {args.seed}: "
          f"{len(solves)} solves ({len(solves) - n_traced} untraced, {n_traced} traced), "
          f"{failed} failed; {len(result['setups'])} set-ups")
    for i, why in enumerate(failures):
        if why is not None:
            print(f"  solve {i} FAILED: {why}")
    returned = [s for s in solves if s["error"] is None and not s["traced"]]
    print(f"  unscaled medians: run {median_of(returned, 'wall_s'):.6g} s, "
          f"clocked {median_of(returned, 'clocked_s'):.6g} s, "
          f"set-up {median_of(result['setups'], 'setup_s'):.6g} s; "
          f"calibration kernel {statistics.median(result['calibration_s']):.6g} s")
    for name, unit in units.items():
        base = ", ".join(f"{b} = {values[b]:.6g}" for b in BASES.get(name, ()))
        print(f"  {name} = {values[name]:.6g} {unit}" + (f"  ({base})" if base else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "subnewton" / "__init__.py").is_file():
        print(f"run.py: no subnewton sources under {root / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    state = root / ".perfbench"
    (state / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state / "work"))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    try:
        run_worker(root, ["measure", *common, "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--workdir", str(workdir),
                          "--span-dir", str(state / "spans"),
                          "--out", str(workdir / "result.json")], deadline)
        run_worker(root, ["check", *common, "--result", str(workdir / "result.json"),
                          "--out", str(workdir / "verdicts.json")], deadline)
        result = json.loads((workdir / "result.json").read_text())
        verdicts = json.loads((workdir / "verdicts.json").read_text())["verdicts"]
        return report(args, result, verdicts)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
