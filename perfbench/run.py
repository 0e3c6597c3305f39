"""p2amg benchmark: closed-loop solver workloads, timed from outside the library.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload laplace-amg-n16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 0

One process runs one workload with a single client in a closed loop:
each case builds mesh, operator, hierarchy and smoothers from scratch,
then solves from a zero guess; the next case starts when the previous
one has finished.  Cases repeat while the next one is expected to end
within ``--seconds``, and at least ``MIN_CASES`` run.

``--trace 0`` reports the end-to-end metrics (medians over the cases).
``--trace 1`` runs one traced and one untraced case and reports the
per-layer metrics of the traced one, plus the tracing overhead; the two
cases must give identical residual histories.  The problem data is the
paper's own, so ``--seed`` is recorded and selects nothing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when a case fails the correctness gate, 2 when the sources are
missing or the arguments are bad.
"""
import os

# The BLAS/OpenMP pool is pinned before numpy loads: one thread, which
# never exceeds the core count.
POOL_SIZE = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(POOL_SIZE)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"
MIN_CASES = 2
WARM_UP_N = 3

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "time_to_solution_s": "s",
    "peak_rss_mb": "MB",
    "iterations": "count",
    "solved_share": "ratio",
}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "pool_size": POOL_SIZE,
    }


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in units.items()},
    })


def _same_output(results) -> bool:
    first = results[0]
    return all(r.iterations == first.iterations and r.residuals == first.residuals
               for r in results)


def run_untraced(w, seconds: float):
    """End-to-end metrics over closed-loop cases."""
    from perfbench.workloads import run_case

    results = []
    start = time.perf_counter()
    while True:
        result, prepared = run_case(w)
        del prepared
        results.append(result)
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_CASES and elapsed * (1 + 1 / len(results)) > seconds:
            break
    ok = [r for r in results if r.passed]
    metrics = dict.fromkeys(END_TO_END, 0.0)
    if ok:
        metrics.update(
            setup_s=statistics.median(r.setup_s for r in ok),
            solve_s=statistics.median(r.solve_s for r in ok),
            time_to_solution_s=statistics.median(r.setup_s + r.solve_s for r in ok),
            iterations=statistics.median(r.iterations for r in ok),
        )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["solved_share"] = len(ok) / len(results)
    correct = len(ok) == len(results) and _same_output(ok)
    return correct, results, metrics, END_TO_END


def run_traced(w, label: str):
    """One traced case, then one untraced case; per-layer metrics.

    The traced case runs first, so it also pays the first-touch page
    faults of a fresh process: the overhead it reports errs high.
    """
    from perfbench import tracing
    from perfbench.workloads import run_case, size_metrics

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced, prepared = run_case(w, tracer)
    units = tracing.PER_LAYER
    metrics = dict.fromkeys(units, 0.0)
    if prepared is not None:
        metrics.update(tracing.layer_metrics(tracer.spans))
        metrics.update(size_metrics(prepared))
        del prepared
        factor = tracing.conv_factor(traced.residuals)
        if w.method == "amg":
            metrics["multigrid.conv_factor"] = factor
        else:
            metrics["krylov.conv_factor"] = factor
            metrics["krylov.iterations"] = traced.iterations
            metrics["krylov.peak_vm_growth_mb"] = traced.peak_vm_growth_mb
    plain, _ = run_case(w)
    results = [traced, plain]
    if traced.passed and plain.passed:
        metrics["trace.overhead_setup_s"] = traced.setup_s - plain.setup_s
        metrics["trace.overhead_solve_s"] = traced.solve_s - plain.solve_s
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    with open(TRACE_DIR / f"trace-{label}.json", "w") as fh:
        json.dump(tracer.to_json(), fh)
    correct = plain.passed and traced.passed and _same_output(results)
    return correct, results, metrics, units


def run_one(args) -> int:
    from perfbench.workloads import WORKLOADS, run_case

    w = WORKLOADS[args.workload]
    env = environment()
    # lazy imports and first-call set-up inside numpy/scipy happen here,
    # on a two-level copy of the workload, before any clock starts
    run_case(replace(w, n=WARM_UP_N))
    if args.trace:
        correct, results, metrics, units = run_traced(w, f"{w.name}-seed{args.seed}")
    else:
        correct, results, metrics, units = run_untraced(w, args.seconds)
    failed = sum(not r.passed for r in results)

    info = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "reference_iterations": w.reference_iterations,
        "cases": [
            {"setup_s": r.setup_s, "solve_s": r.solve_s, "iterations": r.iterations,
             "rel_residual": r.rel_residual, "passed": r.passed, "error": r.error}
            for r in results
        ],
    }
    print(json.dumps(info))
    for name, unit in units.items():
        note = ""
        if name == "iterations" and w.reference_iterations is not None:
            note = f"  (paper: {w.reference_iterations})"
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}{note}")
    if not correct:
        errors = "; ".join(r.error for r in results if r.error)
        print("correctness gate failed: " + (errors or "outputs differ between cases"),
              file=sys.stderr)
    print(result_line(correct, len(results), failed, metrics, units))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(proc.stdout.splitlines()[1:-1]), flush=True)
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "p2amg" / "__init__.py").is_file():
        print(f"error: p2amg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
