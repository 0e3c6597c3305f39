"""Recursive V/W multigrid cycles, the stand-alone solver loop, and the
preconditioner interface for Krylov methods.

A cycle at level ``l`` runs ``m_pre`` smoothing sweeps, restricts the
residual they return with the transpose of the prolongation, recurses
``nu`` times (from a zero coarse guess, so a preconditioner application
is a fixed linear operator), prolongates the correction and runs
``m_post`` sweeps.  The coarsest level is solved directly.
The caller picks the post-smoothing sweep: the stand-alone iteration
smooths forward after the coarse correction too, and the preconditioner
applies the transposed block Gauss-Seidel sweep ``T^{-T}``, which CG
needs.  The forward post-smoothing returns the residual of the cycle's
iterate, which block GS and Vanka carry from their last sweep, so the
stand-alone iteration forms ``b - A x`` on the finest level only to
confirm convergence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coarsening import Hierarchy
from .errors import DivergenceDetected, InvalidParameter
from .smoothers import SmootherConfig, SmootherKind, make_smoother
from .sparse_core import coarse_solve

__all__ = [
    "CycleConfig",
    "SolveReport",
    "build_level_smoothers",
    "amg_cycle",
    "solve_amg",
    "Preconditioner",
]

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class CycleConfig:
    """Cycle shape: smoother, nu (1 = V, 2 = W), cycles per application."""

    smoother: SmootherConfig
    nu: int = 1
    cycles_per_application: int = 1

    def __post_init__(self):
        if self.nu not in (1, 2):
            raise InvalidParameter(f"nu must be 1 (V) or 2 (W), got {self.nu}")
        if self.cycles_per_application < 1:
            raise InvalidParameter("cycles_per_application must be at least 1")

    @property
    def cycle_name(self) -> str:
        base = "V" if self.nu == 1 else "W"
        if self.cycles_per_application == 1:
            return base
        return f"{self.cycles_per_application}x{base}"


@dataclass
class SolveReport:
    """What an iteration computed: its count, its relative-residual
    history (``residuals[0] == 1.0``) and whether it met the tolerance.

    Timing and hierarchy statistics belong to the caller, which holds
    the hierarchy (``Hierarchy.operator_complexity``) and makes the call.
    """

    iterations: int
    residuals: list[float]
    converged: bool

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]


def build_level_smoothers(hierarchy: Hierarchy, config: CycleConfig) -> list:
    """Smoother state for levels 0..L-1 (the coarsest is solved directly)."""
    return [
        make_smoother(lv.operator, lv.layout, config.smoother)
        for lv in hierarchy.levels[:-1]
    ]


def amg_cycle(
    hierarchy: Hierarchy,
    level: int,
    x: np.ndarray,
    b: np.ndarray,
    config: CycleConfig,
    smoothers: list,
    forward: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One multigrid cycle on ``K_level x = b`` starting from ``x``.

    ``smoothers`` is the per-level state of :func:`build_level_smoothers`.
    ``forward`` post-smooths with ``presmooth`` instead of ``postsmooth``.
    Returns ``(x, r)``: ``x`` is mutated in place, except on the
    coarsest level, which is solved exactly regardless of the passed
    iterate (so a W-cycle's second visit repeats the same solve); ``r`` is ``b - K_level x`` as the forward post-smoothing
    returns it, and None otherwise.
    """
    last = hierarchy.n_levels - 1
    if not 0 <= level <= last:
        raise InvalidParameter(f"level {level} outside 0..{last}")
    if level == last:
        return coarse_solve(hierarchy.coarse, b), None

    lv = hierarchy.levels[level]
    sm = smoothers[level]
    cfg = config.smoother

    r = sm.presmooth(x, b, cfg.m_pre)

    p = lv.prolongation
    b_coarse = lv.restriction @ r
    x_coarse = np.zeros(p.shape[1])
    for _ in range(config.nu):
        x_coarse, _ = amg_cycle(
            hierarchy, level + 1, x_coarse, b_coarse, config, smoothers, forward
        )
    x += p @ x_coarse

    if forward and cfg.m_post:  # presmooth forms b - A x even for no sweep
        return x, sm.presmooth(x, b, cfg.m_post)
    sm.postsmooth(x, b, cfg.m_post)
    return x, None


def solve_amg(
    hierarchy: Hierarchy,
    b: np.ndarray,
    config: CycleConfig,
    tol: float,
    maxit: int = 200,
    smoothers: list | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Stand-alone multigrid iteration from a zero initial guess.

    Runs in correction form, ``x += cycle(0, r)``: each cycle starts from
    zero on the current residual, so the pre-smoother needs no residual
    of its own.  Block GS and Vanka post-smooth forward, and the cycle
    hands back the residual their last sweep carries; for the other
    smoothers this loop forms ``b - A x``.  A carried residual that meets
    ``tol`` is checked against ``b - A x``, formed once more, and the
    iteration goes on from that one unless it meets ``tol`` too; the
    last cycle's residual is always the formed one.  Stops when the
    relative l2 residual drops to ``tol`` or after ``maxit`` cycles;
    raises :class:`DivergenceDetected` if the relative residual exceeds
    ``1e6``.
    """
    if not 0.0 < tol < 1.0:
        raise InvalidParameter(f"tol must lie in (0, 1), got {tol}")
    if maxit < 1:
        raise InvalidParameter("maxit must be at least 1")
    cfg = config.smoother
    if hierarchy.n_levels > 1 and cfg.m_pre + cfg.m_post < 1:
        raise InvalidParameter("a multi-level solve needs at least one sweep")

    op = hierarchy.levels[0].operator
    b = np.asarray(b, dtype=float)
    x = np.zeros(op.shape[0])
    b_norm = np.linalg.norm(b)
    residuals = [1.0]
    if b_norm == 0.0:
        return x, SolveReport(iterations=0, residuals=residuals, converged=True)

    if smoothers is None:
        smoothers = build_level_smoothers(hierarchy, config)
    # block GS post-smooths forward instead of with its transposed sweep;
    # for Vanka the two are one sweep, and presmooth returns its residual
    forward = cfg.kind in (SmootherKind.GAUSS_SEIDEL, SmootherKind.VANKA)
    converged = False
    iterations = 0
    r = b
    for iterations in range(1, maxit + 1):
        e, r = amg_cycle(hierarchy, 0, np.zeros_like(x), r, config, smoothers, forward)
        x += e
        rel = None if r is None else np.linalg.norm(r) / b_norm
        if rel is None or rel <= tol or iterations == maxit:
            r = b - op @ x
            rel = np.linalg.norm(r) / b_norm
        residuals.append(float(rel))
        if rel > DIVERGENCE_LIMIT or not np.isfinite(rel):
            raise DivergenceDetected(
                f"relative residual {rel:.3e} after {iterations} cycles"
            )
        if rel <= tol:
            converged = True
            break
    return x, SolveReport(iterations=iterations, residuals=residuals, converged=converged)


class Preconditioner:
    """Callable multigrid preconditioner with cached smoother state.

    ``smoothers`` is the per-level state of :func:`build_level_smoothers`,
    built here when omitted.
    """

    def __init__(self, hierarchy: Hierarchy, config: CycleConfig, smoothers: list | None = None):
        self.hierarchy = hierarchy
        self.config = config
        if smoothers is None:
            smoothers = build_level_smoothers(hierarchy, config)
        self._smoothers = smoothers

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """``cycles_per_application`` cycles on ``M z = r`` from zero, which
        makes the application a fixed linear operator in ``r``."""
        z = np.zeros_like(np.asarray(r, dtype=float))
        for _ in range(self.config.cycles_per_application):
            z, _ = amg_cycle(self.hierarchy, 0, z, r, self.config, self._smoothers)
        return z

    @property
    def symmetric(self) -> bool:
        """Whether the application is a symmetric operator.

        True for Jacobi and Gauss-Seidel smoothing iff ``m_pre ==
        m_post`` (Gauss-Seidel post-smooths with the transposed sweep);
        the saddle smoothers are not symmetric in general.
        """
        cfg = self.config.smoother
        if self.hierarchy.n_levels == 1:
            return True
        if cfg.kind in (SmootherKind.JACOBI, SmootherKind.GAUSS_SEIDEL):
            return cfg.m_pre == cfg.m_post
        return False

    @property
    def operator_complexity(self) -> float:
        return self.hierarchy.operator_complexity
