"""Spans at the p2amg module boundaries, recorded from outside the library.

A :class:`Tracer` keeps the spans of one traced case in memory: name,
start, end, parent and the hierarchy level where there is one.
:func:`instrument` installs the boundary wrappers for the duration of
that case:

* ``multigrid.amg_cycle`` is replaced at its module attribute, so its
  own recursion, ``solve_amg`` and ``apply_preconditioner`` all pass
  through the wrapper and give one span per level;
* ``multigrid.coarse_solve`` is the coarsest-level solve as the cycle
  calls it;
* ``multigrid.build_level_smoothers`` times smoother construction and
  hands back per-level :class:`SmootherProxy` objects, which reach the
  cycle through the public ``smoothers=`` argument (directly for
  ``solve_amg``, through ``Preconditioner`` for the Krylov solvers).

The Krylov side is wrapped by value: :class:`OperatorProxy` for the
matrix handed to ``gmres`` and :class:`PreconditionerWrapper` for the
preconditioner.  :func:`layer_metrics` turns the spans of one case into
the per-layer metrics.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Span names of each layer boundary.
MESH = "mesh"
ASSEMBLY = "assembly"
MONOLITHIC = "assembly.monolithic"
COARSENING = "coarsening"
SMOOTHER_SETUP = "smoothers.setup"
SMOOTH = "smoothers.smooth"
CYCLE = "multigrid.cycle"
COARSE_SOLVE = "sparse_core.coarse_solve"
GMRES = "krylov.gmres"
MATVEC = "krylov.matvec"
PRECOND = "krylov.precond"

#: Work nested under one of these spans belongs to that smoother: the
#: inner scalar Schur AMG of Braess-Sarazin runs cycles, coarse solves
#: and smoothers of its own.
_OWNERS = (SMOOTHER_SETUP, SMOOTH)

LEVELS = 4  # metrics are emitted for levels L0..L3 (smoothers and cycles: L0..L2)


def _per_level(template: str, unit: str, levels: int) -> dict[str, str]:
    return {template.format(lv): unit for lv in range(levels)}


#: Per-layer metrics of a traced run and their units, layer by layer.
PER_LAYER = {
    "mesh.s": "s",
    "assembly.s": "s",
    "assembly.monolithic_s": "s",
    "assembly.tets": "count",
    "assembly.dof": "count",
    "assembly.nnz": "count",
    "coarsening.s": "s",
    "coarsening.levels": "count",
    "coarsening.op_complexity": "ratio",
    "coarsening.grid_complexity": "ratio",
    "coarsening.coarse_dof": "count",
    **_per_level("coarsening.L{}.nnz", "count", LEVELS),
    "smoothers.setup_s": "s",
    "smoothers.s": "s",
    "smoothers.calls": "count",
    **_per_level("smoothers.L{}.s", "s", LEVELS - 1),
    "multigrid.cycles": "count",
    "multigrid.s": "s",
    **_per_level("multigrid.L{}.self_s", "s", LEVELS - 1),
    "multigrid.conv_factor": "ratio",
    "sparse_core.coarse_solve_calls": "count",
    "sparse_core.coarse_solve_s": "s",
    "krylov.s": "s",
    "krylov.iterations": "count",
    "krylov.matvec_calls": "count",
    "krylov.matvec_s": "s",
    "krylov.precond_calls": "count",
    "krylov.precond_s": "s",
    "krylov.self_s": "s",
    "krylov.conv_factor": "ratio",
    "krylov.peak_vm_growth_mb": "MB",
    "trace.overhead_setup_s": "s",
    "trace.overhead_solve_s": "s",
}


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1].id if self._open else None
        s = Span(name, len(self.spans), parent, self.clock(), attrs=attrs)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "id": s.id, "parent": s.parent,
             "start": s.start, "end": s.end, **s.attrs}
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap.
    """
    child_time = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


def owned_by_smoother(spans: list[Span]) -> set[int]:
    """Ids of spans that have a smoother span among their ancestors."""
    by_id = {s.id: s for s in spans}
    owned = set()
    for s in spans:
        p = s.parent
        while p is not None:
            if by_id[p].name in _OWNERS:
                owned.add(s.id)
                break
            p = by_id[p].parent
    return owned


# ---------------------------------------------------------------------------
# boundary wrappers


class SmootherProxy:
    """Times ``presmooth``/``postsmooth`` of one level's smoother."""

    def __init__(self, inner, level: int, tracer: Tracer):
        self.inner = inner
        self.level = level
        self.tracer = tracer

    def presmooth(self, x, b, sweeps):
        with self.tracer.span(SMOOTH, level=self.level):
            return self.inner.presmooth(x, b, sweeps)

    def postsmooth(self, x, b, sweeps):
        with self.tracer.span(SMOOTH, level=self.level):
            return self.inner.postsmooth(x, b, sweeps)


class OperatorProxy:
    """The matrix as ``gmres`` sees it: a shape and a timed ``@``."""

    def __init__(self, matrix, tracer: Tracer):
        self.matrix = matrix
        self.tracer = tracer

    @property
    def shape(self):
        return self.matrix.shape

    def __matmul__(self, x):
        with self.tracer.span(MATVEC):
            return self.matrix @ x


def vm_size_mb() -> float:
    """Current virtual size of this process (``VmSize``), in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmSize missing from /proc/self/status")


class PreconditionerWrapper:
    """Times each application of a real ``Preconditioner``.

    ``symmetric`` and ``operator_complexity`` are forwarded, so ``pcg``
    still rejects a non-symmetric preconditioner under tracing.  The
    largest ``VmSize`` seen at an application is kept: it includes the
    Krylov basis, which is allocated before the first application.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.peak_vm_mb = 0.0

    def __call__(self, r):
        self.peak_vm_mb = max(self.peak_vm_mb, vm_size_mb())
        with self.tracer.span(PRECOND):
            return self.inner(r)

    @property
    def symmetric(self) -> bool:
        return self.inner.symmetric

    @property
    def operator_complexity(self) -> float:
        return self.inner.operator_complexity


@contextmanager
def instrument(tracer: Tracer):
    """Install the module-attribute wrappers in ``p2amg.multigrid``."""
    from p2amg import multigrid

    cycle = multigrid.amg_cycle
    coarse = multigrid.coarse_solve
    build = multigrid.build_level_smoothers

    def traced_cycle(hierarchy, level, *args, **kwargs):
        with tracer.span(CYCLE, level=level):
            return cycle(hierarchy, level, *args, **kwargs)

    def traced_coarse(f, b):
        with tracer.span(COARSE_SOLVE):
            return coarse(f, b)

    def traced_build(hierarchy, config):
        with tracer.span(SMOOTHER_SETUP):
            smoothers = build(hierarchy, config)
        return [SmootherProxy(s, lv, tracer) for lv, s in enumerate(smoothers)]

    multigrid.amg_cycle = traced_cycle
    multigrid.coarse_solve = traced_coarse
    multigrid.build_level_smoothers = traced_build
    try:
        yield
    finally:
        multigrid.amg_cycle = cycle
        multigrid.coarse_solve = coarse
        multigrid.build_level_smoothers = build


# ---------------------------------------------------------------------------
# per-layer metrics


def conv_factor(residuals: list[float], window: int = 10) -> float:
    """Asymptotic factor ``(r_k / r_{k-w})^(1/w)`` of a residual history."""
    k = len(residuals) - 1
    w = min(window, k)
    if w < 1 or residuals[k - w] == 0.0:
        return 0.0
    return float((residuals[k] / residuals[k - w]) ** (1.0 / w))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Times and counts per layer from the spans of one traced case.

    Spans owned by a smoother (see :func:`owned_by_smoother`) count only
    inside that smoother's time.  A layer that does not run reads 0.
    """
    owned = owned_by_smoother(spans)
    selfs = self_times(spans)
    top = [s for s in spans if s.id not in owned]

    def total(name, level=None):
        return float(sum(
            s.duration for s in top
            if s.name == name and (level is None or s.attrs.get("level") == level)
        ))

    def count(name, level=None):
        return sum(
            1 for s in top
            if s.name == name and (level is None or s.attrs.get("level") == level)
        )

    m = {
        "mesh.s": total(MESH),
        "assembly.s": total(ASSEMBLY),
        "assembly.monolithic_s": total(MONOLITHIC),
        "coarsening.s": total(COARSENING),
        "smoothers.setup_s": total(SMOOTHER_SETUP),
        "smoothers.s": total(SMOOTH),
        "smoothers.calls": count(SMOOTH),
        "multigrid.cycles": count(CYCLE, level=0),
        "multigrid.s": total(CYCLE, level=0),
        "sparse_core.coarse_solve_calls": count(COARSE_SOLVE),
        "sparse_core.coarse_solve_s": total(COARSE_SOLVE),
        "krylov.s": total(GMRES),
        "krylov.matvec_calls": count(MATVEC),
        "krylov.matvec_s": total(MATVEC),
        "krylov.precond_calls": count(PRECOND),
        "krylov.precond_s": total(PRECOND),
        "krylov.self_s": float(sum(selfs[s.id] for s in top if s.name == GMRES)),
    }
    for lv in range(LEVELS - 1):
        m[f"smoothers.L{lv}.s"] = total(SMOOTH, level=lv)
        m[f"multigrid.L{lv}.self_s"] = float(sum(
            selfs[s.id] for s in top
            if s.name == CYCLE and s.attrs.get("level") == lv
        ))
    return m
