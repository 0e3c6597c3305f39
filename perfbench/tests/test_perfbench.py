"""Tests of the benchmark's own code, on small meshes.

Run from the root of the checkout::

    python3 -m pytest -q perfbench/tests
"""
import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from p2amg import (  # noqa: E402
    CycleConfig,
    KrylovConfig,
    Preconditioner,
    SmootherConfig,
    SmootherKind,
    multigrid,
    pcg,
)
from p2amg.errors import IndefiniteBreakdown  # noqa: E402

from perfbench import run, tracing, workloads  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    CYCLE,
    COARSE_SOLVE,
    SMOOTH,
    Tracer,
    layer_metrics,
    self_times,
)


def small(name: str, n: int = 2):
    return replace(workloads.WORKLOADS[name], n=n)


def test_tracer_records_parents_and_times():
    tick = itertools.count()
    tr = Tracer(lambda: float(next(tick)))
    with tr.span(CYCLE, level=0):
        with tr.span(SMOOTH, level=0):
            pass
        with tr.span(COARSE_SOLVE):
            pass
    assert [(s.name, s.parent, s.start, s.end) for s in tr.spans] == [
        (CYCLE, None, 0.0, 5.0), (SMOOTH, 0, 1.0, 2.0), (COARSE_SOLVE, 0, 3.0, 4.0)]
    assert self_times(tr.spans)[0] == 3.0


def _spans(rows):
    """Spans from ``(name, parent, start, end, level)`` rows; ids are positions."""
    out = []
    for i, (name, parent, start, end, level) in enumerate(rows):
        attrs = {} if level is None else {"level": level}
        out.append(tracing.Span(name, i, parent, start, end, attrs))
    return out


def test_self_times_on_nested_cycle():
    spans = _spans([
        (CYCLE, None, 0.0, 10.0, 0),
        (SMOOTH, 0, 1.0, 3.0, 0),
        (CYCLE, 0, 4.0, 7.0, 1),
        (COARSE_SOLVE, 2, 5.0, 6.5, None),
        (SMOOTH, 0, 8.0, 9.5, 0),
    ])
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 3.0 - 1.5)
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    assert selfs[3] == pytest.approx(1.5)

    m = layer_metrics(spans)
    assert m["multigrid.cycles"] == 1
    assert m["multigrid.s"] == pytest.approx(10.0)
    assert m["multigrid.L0.self_s"] == pytest.approx(3.5)
    assert m["multigrid.L1.self_s"] == pytest.approx(1.5)
    assert m["smoothers.calls"] == 2
    assert m["smoothers.L0.s"] == pytest.approx(3.5)
    assert m["sparse_core.coarse_solve_calls"] == 1


def test_inner_schur_amg_belongs_to_the_smoother():
    # a Braess-Sarazin sweep on level 0 runs a cycle, a coarse solve and
    # smoothing of its own inner scalar hierarchy
    spans = _spans([
        (CYCLE, None, 0.0, 10.0, 0),
        (SMOOTH, 0, 1.0, 6.0, 0),
        (CYCLE, 1, 2.0, 5.0, 0),           # inner Schur AMG
        (SMOOTH, 2, 2.5, 3.0, 0),
        (COARSE_SOLVE, 2, 3.5, 4.0, None),
        (COARSE_SOLVE, 0, 7.0, 8.0, None),  # the outer coarse solve
    ])
    m = layer_metrics(spans)
    assert m["multigrid.cycles"] == 1
    assert m["smoothers.calls"] == 1
    assert m["smoothers.s"] == pytest.approx(5.0)
    assert m["sparse_core.coarse_solve_calls"] == 1
    assert m["sparse_core.coarse_solve_s"] == pytest.approx(1.0)
    assert m["multigrid.L0.self_s"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_conv_factor():
    history = [0.5 ** k for k in range(15)]
    assert tracing.conv_factor(history) == pytest.approx(0.5)
    assert tracing.conv_factor([1.0, 0.25]) == pytest.approx(0.25)
    assert tracing.conv_factor([1.0]) == 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_case_passes_gate_on_small_mesh(name):
    result, prepared = workloads.run_case(small(name))
    assert result.passed, result.error
    assert isinstance(result.converged, bool)
    assert result.rel_residual <= small(name).tol
    json.dumps(result.__dict__)


def test_residual_gate_rejects_perturbed_solution(monkeypatch):
    w = small("laplace-amg-n16")
    solve = workloads.solve

    def perturbed(w, p, tracer=None):
        x, report, vm = solve(w, p, tracer)
        x = x.copy()
        x[0] += 1e-3
        return x, report, vm

    monkeypatch.setattr(workloads, "solve", perturbed)
    result, _ = workloads.run_case(w)
    assert result.converged and not result.passed
    assert result.rel_residual > w.tol
    assert result.error.startswith("gate:")


def _preconditioner(config):
    p = workloads.setup(small("laplace-amg-n16", n=3))
    assert p.hierarchy.n_levels > 1
    return p, Preconditioner(p.hierarchy, config)


def test_wrapper_forwards_symmetric_and_pcg_still_rejects():
    gs = SmootherConfig(kind=SmootherKind.GAUSS_SEIDEL, m_pre=2, m_post=2)
    p, sym = _preconditioner(CycleConfig(smoother=gs))
    wrapped = tracing.PreconditionerWrapper(sym, Tracer())
    assert wrapped.symmetric is True
    assert wrapped.operator_complexity == sym.operator_complexity

    lopsided = replace(gs, m_post=1)
    _, nonsym = _preconditioner(CycleConfig(smoother=lopsided))
    wrapped = tracing.PreconditionerWrapper(nonsym, Tracer())
    assert wrapped.symmetric is False
    op = tracing.OperatorProxy(p.operator, Tracer())
    with pytest.raises(IndefiniteBreakdown):
        pcg(op, p.rhs, wrapped, KrylovConfig(tol=1e-8))


@pytest.mark.parametrize("name", ["laplace-amg-n16", "stokes-gmres-bs-n8"])
def test_traced_case_is_faithful(name):
    w = small(name, n=3)
    plain, _ = workloads.run_case(w)
    originals = (multigrid.amg_cycle, multigrid.coarse_solve,
                 multigrid.build_level_smoothers)
    tracer = Tracer()
    with tracing.instrument(tracer):
        traced, prepared = workloads.run_case(w, tracer)
    assert (multigrid.amg_cycle, multigrid.coarse_solve,
            multigrid.build_level_smoothers) == originals
    assert traced.passed and plain.passed
    assert traced.residuals == plain.residuals

    m = layer_metrics(tracer.spans)
    levels = prepared.hierarchy.n_levels
    cycles = traced.iterations if w.method == "amg" else traced.iterations + 1
    assert m["multigrid.cycles"] == cycles
    assert m["smoothers.calls"] == 2 * cycles * (levels - 1)
    assert m["sparse_core.coarse_solve_calls"] == cycles
    assert m["smoothers.setup_s"] > 0.0
    if w.method == "gmres":
        assert m["krylov.precond_calls"] == cycles
        assert m["krylov.matvec_calls"] == traced.iterations + 2
        assert 0.0 < m["krylov.self_s"] < m["krylov.s"]


def test_untraced_run_reports_end_to_end_metrics():
    correct, results, metrics, units = run.run_untraced(small("laplace-amg-n16", 3), 0.0)
    assert correct and len(results) == run.MIN_CASES
    assert set(metrics) == set(units) == set(run.END_TO_END)
    assert metrics["iterations"] == results[0].iterations
    assert metrics["solved_share"] == 1.0
    assert metrics["time_to_solution_s"] > metrics["solve_s"] > 0.0


def test_traced_run_reports_every_per_layer_metric(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    w = small("stokes-gmres-vanka-n8", 3)
    correct, results, metrics, units = run.run_traced(w, "t")
    assert correct
    assert set(metrics) == set(units) == set(tracing.PER_LAYER)
    assert metrics["krylov.iterations"] == results[0].iterations > 0
    assert metrics["multigrid.conv_factor"] == 0.0
    spans = json.loads((tmp_path / "trace-t.json").read_text())
    assert {"name", "id", "parent", "start", "end"} <= set(spans[0])


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laplace-amg-n16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_coerces_numpy_scalars():
    line = run.result_line(np.bool_(True), np.int64(2), np.int64(0),
                           {"iterations": np.int64(35)}, {"iterations": "count"})
    assert json.loads(line) == {
        "correct": True, "attempted": 2, "failed": 0,
        "metrics": {"iterations": {"value": 35.0, "unit": "count"}},
    }
