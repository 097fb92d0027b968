"""Child process of run.py: ``measure`` times the solves of one workload,
``check`` verifies their outputs against a reference optimum.

Both pin BLAS to one thread.  The pin only takes effect if the thread
variables are set before numpy loads, so the process refuses to run if
numpy is already imported or the variables are not set to 1.

    python3 perfbench/worker.py measure --workload W --seed N --seconds S \
        --trace 0|1 --size full|tiny --workdir DIR --out RESULT.json
    python3 perfbench/worker.py check --workload W --seed N --size full|tiny \
        --result RESULT.json --out VERDICTS.json
"""

from __future__ import annotations

import argparse
import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3
MIN_SOLVES = 3          # untraced; a traced run needs one untraced/traced pair
SOLVE_WINDOW_CAP_S = 120.0  # no new solve starts past this, whatever --seconds says


def require_pinned_blas() -> None:
    if "numpy" in sys.modules:
        raise SystemExit("worker: numpy was imported before the BLAS thread "
                         "variables were set; the one-thread pin would not hold")
    unpinned = [v for v in BLAS_THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        raise SystemExit(f"worker: {', '.join(unpinned)} must be set to 1")


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
    env.update(numpy=numpy.__version__, scipy=scipy.__version__,
               blas=blas.get("name"), openblas=blas.get("version"),
               nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               python=platform.python_version(), seed=seed)
    return env


def measure(args) -> None:
    import gc
    import json
    import resource
    import statistics
    import time

    import numpy as np

    from calibrate import Calibration
    from subnewton.solvers import run
    from tracing import Tracer, solve_layers
    from workloads import WORKLOADS, prepare_inputs, setup

    workload = WORKLOADS[args.workload]
    path = prepare_inputs(workload, args.size, args.seed, args.workdir)
    calibration = Calibration()
    calibration.measure()
    setups = []
    for _ in range(SETUP_REPEATS):
        model = None  # free the previous copy so peak memory is one set-up's
        gc.collect()
        model, timing = setup(workload, args.size, args.seed, path)
        timing["scale"] = calibration.rescale()
        setups.append(timing)

    x0 = np.zeros(model.p)
    tracer = Tracer()
    solves = []

    def solve(traced: bool, solver_seed: int) -> dict:
        config = workload.config(solver_seed)
        record = {"traced": traced, "seed": solver_seed, "error": None, "stop": None,
                  "x_final": None}
        tracer.solve = len(solves)
        try:
            if traced:
                with tracer.installed(), tracer.span("solvers.run"):
                    root_index = len(tracer.spans) - 1
                    tic = time.perf_counter_ns()
                    trace = run(model, config, x0)
                    wall = time.perf_counter_ns() - tic
            else:
                tic = time.perf_counter_ns()
                trace = run(model, config, x0)
                wall = time.perf_counter_ns() - tic
        except Exception as exc:  # a failed solve is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
            return record
        record.update(wall_s=wall * 1e-9, clocked_s=trace.records[-1].wall_nanos * 1e-9,
                      stop=trace.stop, iters=trace.records[-1].k,
                      x_final=trace.x_final.tolist())
        if traced:
            record["layers"] = solve_layers(tracer.spans, root_index, trace)
        return record

    # An untraced run gives each solve its own sampling seed, so the medians
    # cover the spread of sample paths.  A traced run alternates untraced and
    # traced solves with one sampling seed: the pairs then differ only by the
    # tracing, and every per-solve count repeats exactly.
    unit = (False, True) if args.trace else (False,)
    min_units = 1 if args.trace else MIN_SOLVES
    start = time.perf_counter()
    units = 0
    unit_s = []
    while True:
        tic = time.perf_counter()
        for traced in unit:
            solves.append(solve(traced, args.seed if args.trace
                                else args.seed * 1000 + units))
            solves[-1]["scale"] = calibration.rescale()
        units += 1
        unit_s.append(time.perf_counter() - tic)
        elapsed = time.perf_counter() - start
        if units >= min_units and (elapsed + statistics.median(unit_s) > args.seconds
                                   or elapsed > SOLVE_WINDOW_CAP_S):
            break

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"env": environment(args.seed), "setups": setups,
              "peak_rss_mb": peak_kib / 1024.0, "solves": solves,
              "calibration_s": calibration.times}
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    if args.trace:
        os.makedirs(args.span_dir, exist_ok=True)
        tracer.write(os.path.join(args.span_dir,
                                  f"{args.workload}-{args.size}-seed{args.seed}.jsonl"))


def check(args) -> None:
    import json

    from output_check import reference_optimum, verify
    from workloads import GRAD_TOL, WORKLOADS, reference_data

    workload = WORKLOADS[args.workload]
    with open(args.result) as fh:
        solves = json.load(fh)["solves"]
    a, b = reference_data(workload, args.size, args.seed)
    f_star = reference_optimum(a, b, workload.reg)
    verdicts = [verify(a, b, workload.reg, s["x_final"], f_star, GRAD_TOL)
                if s["x_final"] is not None else {"ok": False, "reason": "no output"}
                for s in solves]
    with open(args.out, "w") as fh:
        json.dump({"f_star": f_star, "verdicts": verdicts}, fh)


def main(argv=None) -> None:
    require_pinned_blas()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    m = sub.add_parser("measure")
    c = sub.add_parser("check")
    for p in (m, c):
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--size", default="full")
        p.add_argument("--out", required=True)
    m.add_argument("--seconds", type=float, required=True)
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m.add_argument("--workdir", required=True)
    m.add_argument("--span-dir", required=True)
    c.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    if args.mode == "measure":
        measure(args)
    else:
        check(args)


if __name__ == "__main__":
    main()
