"""Preconditioned conjugate gradients and right-preconditioned GMRES.

Both solvers start from a zero initial guess and stop on the true
relative l2 residual of the unpreconditioned system, matching the
reporting convention of the stand-alone multigrid loop.  Each returns
the iterate and a :class:`~p2amg.multigrid.SolveReport` of what the
iteration computed; the caller times the call.  Both raise
:class:`DivergenceDetected` as soon as the relative residual is not
finite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected, IndefiniteBreakdown, InvalidParameter, StagnationDetected
from .multigrid import SolveReport

__all__ = ["KrylovConfig", "pcg", "gmres"]

_TRUE_RESIDUAL_EVERY = 50
_STAGNATION_WINDOW = 50
_STAGNATION_REDUCTION = 1e-3
_GMRES_FIRST_CAPACITY = 32


@dataclass(frozen=True)
class KrylovConfig:
    """Method selection and stopping parameters."""

    method: str = "cg"
    tol: float = 1e-11
    maxit: int = 500

    def __post_init__(self):
        if self.method not in ("cg", "gmres"):
            raise InvalidParameter(f"unknown Krylov method {self.method!r}")
        if not 0.0 < self.tol < 1.0:
            raise InvalidParameter(f"tol must lie in (0, 1), got {self.tol}")
        if self.maxit < 1:
            raise InvalidParameter("maxit must be at least 1")


def pcg(a, b, precond, config: KrylovConfig) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradients for an SPD operator.

    ``precond`` is a callable ``r -> M^{-1} r``, such as a
    :class:`~p2amg.multigrid.Preconditioner`.  It must be a fixed
    symmetric linear operator; a preconditioner object that declares
    ``symmetric = False`` is rejected up front, and non-positive
    curvature or a non-positive preconditioned inner product raises
    :class:`IndefiniteBreakdown` during the iteration.  The recurrence
    residual is refreshed from ``b - A x`` every 50 iterations and
    convergence is confirmed on the true residual.
    """
    if getattr(precond, "symmetric", True) is False:
        raise IndefiniteBreakdown(
            "CG requires a symmetric preconditioner; use Jacobi or "
            "Gauss-Seidel smoothing with as many post- as pre-sweeps"
        )
    n = a.shape[0]
    if n <= 500:
        asym = abs(a - a.T)
        if asym.nnz and asym.max() > 1e-10 * abs(a).max():
            raise IndefiniteBreakdown("matrix is not symmetric")

    b = np.asarray(b, dtype=float)
    x = np.zeros(n)
    b_norm = np.linalg.norm(b)
    residuals = [1.0]
    if b_norm == 0.0:
        return x, SolveReport(0, residuals, True)

    r = b.copy()
    z = precond(r)
    p = z.copy()
    rho = float(r @ z)
    if rho <= 0.0:
        raise IndefiniteBreakdown("preconditioned inner product is not positive")

    converged = False
    iterations = 0
    for iterations in range(1, config.maxit + 1):
        q = a @ p
        curvature = float(p @ q)
        if curvature <= 0.0:
            raise IndefiniteBreakdown(
                f"non-positive curvature p^T A p = {curvature:.3e}"
            )
        alpha = rho / curvature
        x += alpha * p
        if iterations % _TRUE_RESIDUAL_EVERY == 0:
            r = b - a @ x
        else:
            r -= alpha * q
        rel = np.linalg.norm(r) / b_norm
        if not np.isfinite(rel):
            raise DivergenceDetected(f"relative residual {rel} after {iterations} iterations")
        if rel <= config.tol:
            true_rel = np.linalg.norm(b - a @ x) / b_norm
            residuals.append(float(true_rel))
            if true_rel <= config.tol:
                converged = True
                break
            r = b - a @ x
        else:
            residuals.append(float(rel))
        z = precond(r)
        rho_next = float(r @ z)
        if rho_next <= 0.0:
            raise IndefiniteBreakdown("preconditioned inner product is not positive")
        p = z + (rho_next / rho) * p
        rho = rho_next
    return x, SolveReport(iterations=iterations, residuals=residuals, converged=converged)


def gmres(a, b, precond, config: KrylovConfig) -> tuple[np.ndarray, SolveReport]:
    """Right-preconditioned GMRES with Arnoldi by classical Gram-Schmidt
    run twice (CGS2), two matrix-vector products with the basis a pass.

    ``precond`` is a callable ``r -> M^{-1} r``, such as a
    :class:`~p2amg.multigrid.Preconditioner`.  One Arnoldi loop from
    ``x = 0``, unrestarted.  Because the preconditioner is applied on
    the right, the rotated residual norm is the true residual of the
    unpreconditioned system and decreases monotonically; the last entry of the history is recomputed from
    ``b - A x``.  The basis grows in place (``ndarray.resize``) by a
    quarter of its capacity whenever the iterations fill it, so memory
    follows the iterations done, not ``maxit``, and no copy of the old
    basis is alive next to the new one; the small Hessenberg matrix and
    rotations are padded to the same capacity.  ``precond`` must keep no
    reference to the basis vector it is given.
    """
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    x = np.zeros(n)
    b_norm = np.linalg.norm(b)
    residuals = [1.0]
    if b_norm == 0.0:
        return x, SolveReport(0, residuals, True)

    r0 = b - a @ x
    beta = np.linalg.norm(r0)
    max_steps = config.maxit
    capacity = min(max_steps, _GMRES_FIRST_CAPACITY)
    v = np.zeros((capacity + 1, n))
    h = np.zeros((capacity + 1, capacity))
    cs = np.zeros(capacity)
    sn = np.zeros(capacity)
    g = np.zeros(capacity + 1)
    g[0] = beta
    v[0] = r0 / beta

    k_used = 0
    for k in range(max_steps):
        if k == capacity:
            grow = min(capacity // 4, max_steps - capacity)
            capacity += grow
            del basis  # the last view of v; a profiler may hold one more reference
            v.resize((capacity + 1, n), refcheck=False)
            h = np.pad(h, ((0, grow), (0, grow)))
            cs, sn, g = (np.pad(rot, (0, grow)) for rot in (cs, sn, g))
        w = a @ precond(v[k])
        basis = v[: k + 1]
        for _ in range(2):  # classical Gram-Schmidt, run twice
            coef = basis @ w
            w -= basis.T @ coef
            h[: k + 1, k] += coef
        h[k + 1, k] = np.linalg.norm(w)
        lucky_breakdown = h[k + 1, k] == 0.0
        if not lucky_breakdown:
            v[k + 1] = w / h[k + 1, k]
        for i in range(k):
            t = cs[i] * h[i, k] + sn[i] * h[i + 1, k]
            h[i + 1, k] = -sn[i] * h[i, k] + cs[i] * h[i + 1, k]
            h[i, k] = t
        denom = np.hypot(h[k, k], h[k + 1, k])
        cs[k] = h[k, k] / denom
        sn[k] = h[k + 1, k] / denom
        h[k, k] = denom
        h[k + 1, k] = 0.0
        g[k + 1] = -sn[k] * g[k]
        g[k] = cs[k] * g[k]

        k_used = k + 1
        rel = abs(g[k + 1]) / b_norm
        if not np.isfinite(rel):
            raise DivergenceDetected(f"relative residual {rel} after {k_used} iterations")
        residuals.append(float(rel))
        if (
            k_used > _STAGNATION_WINDOW
            and residuals[-1]
            > residuals[-1 - _STAGNATION_WINDOW] * (1.0 - _STAGNATION_REDUCTION)
        ):
            raise StagnationDetected(
                f"residual reduced by less than {_STAGNATION_REDUCTION:.0e} "
                f"over the last {_STAGNATION_WINDOW} iterations"
            )
        if rel <= config.tol or lucky_breakdown:
            break

    # h is upper triangular after the rotations
    y = np.linalg.solve(h[:k_used, :k_used], g[:k_used])
    x += precond(v[:k_used].T @ y)
    true_rel = np.linalg.norm(b - a @ x) / b_norm
    residuals[-1] = float(true_rel)
    return x, SolveReport(
        iterations=k_used, residuals=residuals, converged=bool(true_rel <= config.tol)
    )
