"""The benchmark's workloads and one closed-loop case: set up, then solve.

Every workload uses the paper's own problem data: deterministic
structured meshes, the boundary data of ``bench_cli.build_case`` and a
zero initial guess.  The library is driven only through its public
calls; ``build_case`` is used to build the meshes and data and nothing
else.
"""
from __future__ import annotations

import gc
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from p2amg import (
    CycleConfig,
    KrylovConfig,
    Preconditioner,
    assemble,
    build_hierarchy,
    gmres,
    multigrid,
    parse_smoother,
    solve_amg,
)
from p2amg.bench_cli import REFERENCE_ITERATIONS, build_case
from p2amg.coarsening import SEPARATED, hierarchy_summary
from p2amg.errors import SolverError

from . import tracing
from .tracing import OperatorProxy, PreconditionerWrapper, Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # vector_laplace | stokes
    n: int
    method: str  # amg | gmres
    smoother: str
    tol: float
    maxit: int
    why: str

    @property
    def reference_iterations(self) -> int | None:
        """The paper's count for this cell, or None where it has none."""
        key = (self.problem, self.method, "V",
               parse_smoother(self.smoother).name, 1, SEPARATED)
        refs = REFERENCE_ITERATIONS.get(key)
        return None if refs is None else refs[{4: 0, 8: 1, 16: 2, 32: 3}[self.n]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "laplace-amg-n16", "vector_laplace", 16, "amg", "GS-2-2", 1e-11, 200,
            "SPD path: the solve is block Gauss-Seidel smoothing plus cycle "
            "residuals and transfers; no Krylov, so a GMRES change reads flat",
        ),
        # n = 16 took 55-60 s a run on a slow shared host, two fresh cases
        # of 27-30 s each, which would overrun the time budget of a full
        # measurement; at n = 8 a case takes 2-4 s and a run stays at ~30 s
        Workload(
            "stokes-gmres-bs-n8", "stokes", 8, "gmres", "Braess-Sarazin-1-1",
            1e-9, 500,
            "saddle path: Braess-Sarazin with its inner Schur AMG, pressure-"
            "partition coarsening and the most GMRES iterations (38); cheap "
            "cases, so a run holds many",
        ),
        Workload(
            "stokes-gmres-vanka-n8", "stokes", 8, "gmres", "Vanka", 1e-9, 500,
            "the Vanka patch smoother is nearly all of the solve and of smoother "
            "setup; assembly is small, so only a Vanka change moves it",
        ),
    )
}


@dataclass
class Prepared:
    """What setup leaves for the solve of one case."""

    operator: object  # scipy CSR, the assembled monolithic operator
    rhs: np.ndarray
    hierarchy: object
    config: CycleConfig
    smoothers: list | None  # stand-alone AMG
    precond: Preconditioner | None  # Krylov
    tets: int


@dataclass
class CaseResult:
    setup_s: float
    solve_s: float
    iterations: int
    converged: bool
    rel_residual: float
    residuals: list[float]
    passed: bool
    error: str = ""
    peak_vm_growth_mb: float = 0.0


def _span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def setup(w: Workload, tracer: Tracer | None = None) -> Prepared:
    """Mesh, assembly, operator and rhs, hierarchy and smoother setup."""
    with _span(tracer, tracing.MESH):
        mesh, spec = build_case(w.problem, w.n)
    with _span(tracer, tracing.ASSEMBLY):
        system = assemble(mesh, spec)
    with _span(tracer, tracing.MONOLITHIC):
        operator = system.monolithic()
        rhs = system.rhs()
    with _span(tracer, tracing.COARSENING):
        hierarchy = build_hierarchy(system)
    config = CycleConfig(smoother=parse_smoother(w.smoother))
    smoothers = precond = None
    # looked up at call time, so a traced case gets the wrapped function
    if w.method == "amg":
        smoothers = multigrid.build_level_smoothers(hierarchy, config)
    else:
        precond = Preconditioner(hierarchy, config)
    return Prepared(operator, rhs, hierarchy, config, smoothers, precond,
                    int(mesh.n_tets))


def rel_residual(operator, x: np.ndarray, b: np.ndarray) -> float:
    """``||b - A x|| / ||b||`` recomputed from the assembled operator."""
    return float(np.linalg.norm(b - operator @ x) / np.linalg.norm(b))


def solve(w: Workload, p: Prepared, tracer: Tracer | None = None):
    """Zero guess to ``w.tol``; returns ``(x, report, peak_vm_growth_mb)``."""
    if w.method == "amg":
        x, report = solve_amg(p.hierarchy, p.rhs, p.config, w.tol, w.maxit,
                              smoothers=p.smoothers)
        return x, report, 0.0
    kcfg = KrylovConfig(method="gmres", tol=w.tol, maxit=w.maxit)
    if tracer is None:
        x, report = gmres(p.operator, p.rhs, p.precond, kcfg)
        return x, report, 0.0
    wrapper = PreconditionerWrapper(p.precond, tracer)
    before = tracing.vm_size_mb()
    with tracer.span(tracing.GMRES):
        x, report = gmres(OperatorProxy(p.operator, tracer), p.rhs, wrapper, kcfg)
    return x, report, max(0.0, wrapper.peak_vm_mb - before)


def run_case(w: Workload, tracer: Tracer | None = None):
    """One closed-loop case.  Returns ``(CaseResult, Prepared | None)``.

    A case fails on a raised ``SolverError``, on ``converged`` false, or
    when the recomputed relative residual exceeds the tolerance; a
    failed case carries no timing.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        if tracer is None:
            p = setup(w)
        else:
            with tracer.span("setup"):
                p = setup(w, tracer)
        mid = time.perf_counter()
        if tracer is None:
            x, report, vm_growth = solve(w, p)
        else:
            with tracer.span("solve"):
                x, report, vm_growth = solve(w, p, tracer)
        end = time.perf_counter()
    except SolverError as exc:
        failed = CaseResult(0.0, 0.0, 0, False, float("nan"), [], False,
                            error=f"{type(exc).__name__}: {exc}")
        return failed, None
    converged = bool(report.converged)
    rel = rel_residual(p.operator, x, p.rhs)
    passed = converged and rel <= w.tol
    result = CaseResult(
        setup_s=float(mid - start),
        solve_s=float(end - mid),
        iterations=int(report.iterations),
        converged=converged,
        rel_residual=rel,
        residuals=[float(r) for r in report.residuals],
        passed=passed,
        error="" if passed else f"gate: converged={converged}, residual {rel:.3e}",
        peak_vm_growth_mb=float(vm_growth),
    )
    return result, p


def size_metrics(p: Prepared) -> dict[str, float]:
    """Input size and hierarchy statistics of a prepared case."""
    rows = hierarchy_summary(p.hierarchy)
    dof0 = rows[0]["total_dof"]
    m = {
        "assembly.tets": p.tets,
        "assembly.dof": int(p.operator.shape[0]),
        "assembly.nnz": int(p.operator.nnz),
        "coarsening.levels": len(rows),
        "coarsening.op_complexity": float(rows[-1]["operator_complexity"]),
        "coarsening.grid_complexity": float(sum(r["total_dof"] for r in rows) / dof0),
        "coarsening.coarse_dof": int(rows[-1]["total_dof"]),
    }
    for lv in range(tracing.LEVELS):
        m[f"coarsening.L{lv}.nnz"] = int(rows[lv]["nnz"]) if lv < len(rows) else 0
    return m
