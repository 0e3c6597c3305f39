"""Smoothing procedures for the SPD and saddle-point systems.

For the SPD velocity systems: damped pointwise Jacobi and block
Gauss-Seidel over the 3x3 node blocks.  For saddle systems: the
multiplicative Vanka smoother (one patch per pressure dof, swept in
dependency waves of mutually uncoupled patches, which gives the
patch-by-patch result with one gather and one residual update per
wave), a Braess-Sarazin step with diagonal velocity approximation and
an inner solver for the approximate Schur complement, and a
segregated Gauss-Seidel (Uzawa-type) step.

Every smoother exposes the exact solution as a fixed point and is
linear in ``(x, b)``, which the multigrid preconditioner relies on.
The class variants precompute factorizations once per level; the
module-level ``*_sweep`` functions are thin single-shot wrappers used
for experimentation and testing.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    InvalidParameter,
    MalformedSystem,
    SingularBlock,
    SingularCoarseMatrix,
    SingularPatch,
)
from .sparse_core import BlockLayout, as_operator, coarse_factor, coarse_solve

__all__ = [
    "SmootherKind",
    "SmootherConfig",
    "parse_smoother",
    "VankaPatch",
    "SchurPreconditioner",
    "build_schur_preconditioner",
    "build_vanka_patches",
    "jacobi_sweep",
    "gs_sweep",
    "vanka_sweep",
    "braess_sarazin_sweep",
    "segregated_gs_sweep",
    "make_smoother",
    "JacobiSmoother",
    "GaussSeidelSmoother",
    "VankaSmoother",
    "BraessSarazinSmoother",
    "SegregatedGSSmoother",
]


class SmootherKind(Enum):
    JACOBI = "jacobi"
    GAUSS_SEIDEL = "gauss_seidel"
    VANKA = "vanka"
    BRAESS_SARAZIN = "braess_sarazin"
    SEGREGATED_GS = "segregated_gs"


@dataclass(frozen=True)
class SmootherConfig:
    """Smoother kind, damping, and pre/post sweep counts.

    ``gs_direction`` selects the Gauss-Seidel policy: "symmetric" runs
    forward sweeps before and backward sweeps after coarse-grid
    correction (keeping the V-cycle self-adjoint), "forward"/"backward"
    fix one direction for both stages.
    """

    kind: SmootherKind
    m_pre: int = 1
    m_post: int = 1
    omega: float = 1.0
    gs_direction: str = "symmetric"

    def __post_init__(self):
        if not self.omega > 0.0:
            raise InvalidParameter(f"damping must be positive, got {self.omega}")
        if self.m_pre < 0 or self.m_post < 0:
            raise InvalidParameter("sweep counts must be non-negative")
        if self.gs_direction not in ("symmetric", "forward", "backward"):
            raise InvalidParameter(f"unknown GS direction {self.gs_direction!r}")

    @property
    def name(self) -> str:
        m = f"{self.m_pre}-{self.m_post}"
        if self.kind is SmootherKind.JACOBI:
            return f"JA-{m}-{self.omega:g}"
        if self.kind is SmootherKind.GAUSS_SEIDEL:
            return f"GS-{m}"
        if self.kind is SmootherKind.SEGREGATED_GS:
            return f"sGS-{m}"
        if self.kind is SmootherKind.BRAESS_SARAZIN:
            return f"Braess-Sarazin-{m}"
        if self.omega == 1.0:
            return f"Vanka-{m}"
        return f"Vanka-{m}-{self.omega:g}"


_SMOOTHER_PATTERNS = (
    (re.compile(r"^JA-(\d+)-(\d+)-([\d.eE+-]+)$"), SmootherKind.JACOBI),
    (re.compile(r"^GS-(\d+)-(\d+)$"), SmootherKind.GAUSS_SEIDEL),
    (re.compile(r"^sGS-(\d+)-(\d+)$"), SmootherKind.SEGREGATED_GS),
    (re.compile(r"^Braess-Sarazin-(\d+)-(\d+)$"), SmootherKind.BRAESS_SARAZIN),
    (re.compile(r"^Vanka(?:-(\d+)-(\d+))?(?:-([\d.eE+-]+))?$"), SmootherKind.VANKA),
)


def parse_smoother(name: str) -> SmootherConfig:
    """Parse a smoother string such as ``GS-2-2`` or ``JA-1-1-0.5``.

    Accepted forms: ``JA-m-m-omega``, ``GS-m-m``, ``sGS-m-m``,
    ``Braess-Sarazin-m-m``, ``Vanka`` (optionally ``Vanka-m-m-omega``).
    """
    if not isinstance(name, str):
        raise InvalidParameter(f"smoother must be a string, got {name!r}")
    name = name.strip()
    for pattern, kind in _SMOOTHER_PATTERNS:
        match = pattern.match(name)
        if not match:
            continue
        groups = match.groups()
        m_pre = int(groups[0]) if groups[0] else 1
        m_post = int(groups[1]) if len(groups) > 1 and groups[1] else 1
        try:
            if kind is SmootherKind.JACOBI:
                omega = float(groups[2])
            elif kind is SmootherKind.VANKA and len(groups) > 2 and groups[2]:
                omega = float(groups[2])
            elif kind is SmootherKind.SEGREGATED_GS:
                omega = 0.125
            else:
                omega = 1.0
        except ValueError:
            raise InvalidParameter(f"bad damping in smoother string {name!r}") from None
        return SmootherConfig(kind=kind, m_pre=m_pre, m_post=m_post, omega=omega)
    raise InvalidParameter(f"cannot parse smoother string {name!r}")


# ---------------------------------------------------------------------------
# shared helpers


def _velocity_block_inverses(op: sp.csr_matrix, layout: BlockLayout) -> np.ndarray:
    """Inverses of the diagonal node blocks of the velocity partition."""
    bs = layout.block_size
    vd = layout.velocity_dof
    n = layout.n_velocity_nodes
    coo = op[:vd, :vd].tocoo()
    mask = coo.row // bs == coo.col // bs
    blocks = np.zeros((n, bs, bs))
    np.add.at(
        blocks,
        (coo.row[mask] // bs, coo.row[mask] % bs, coo.col[mask] % bs),
        coo.data[mask],
    )
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError as exc:
        raise SingularBlock("a diagonal velocity node block is singular") from exc


def _apply_block_inverses(inverses: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Multiply each node's slice of ``r`` by its block of ``inverses``."""
    return np.einsum("nij,nj->ni", inverses, r.reshape(len(inverses), -1)).ravel()


def _pointwise_layout(layout: BlockLayout) -> BlockLayout:
    """The same partition with every velocity component its own node."""
    return BlockLayout(
        n_linear=layout.velocity_dof,
        n_quadratic=0,
        n_pressure=layout.n_pressure,
        block_size=1,
    )


def _pressure_diag_inverse(op: sp.csr_matrix, layout: BlockLayout) -> np.ndarray:
    diag = op.diagonal()[layout.velocity_dof :]
    if np.any(diag == 0.0):
        raise SingularBlock("zero pressure diagonal entry")
    return 1.0 / diag


def _node_index(layout: BlockLayout) -> np.ndarray:
    """Node (block) index of every monolithic dof."""
    bs = layout.block_size
    vel = np.arange(layout.velocity_dof) // bs
    pres = layout.n_velocity_nodes + np.arange(layout.n_pressure)
    return np.concatenate([vel, pres])


def _block_triangle_solver(op: sp.csr_matrix, layout: BlockLayout, lower: bool):
    """SuperLU factor of the block lower (upper) triangle of ``op``.

    The triangle includes the full diagonal node blocks, so applying the
    factor realizes one exact block Gauss-Seidel substitution.
    """
    node = _node_index(layout)
    coo = op.tocoo()
    keep = (
        node[coo.col] <= node[coo.row] if lower else node[coo.col] >= node[coo.row]
    )
    tri = sp.csc_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=op.shape
    )
    try:
        return spla.splu(tri, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise SingularBlock(f"block triangular factorization failed: {exc}") from exc


# ---------------------------------------------------------------------------
# Jacobi and Gauss-Seidel


class JacobiSmoother:
    """Damped Jacobi over the node blocks of ``layout``:
    ``x + omega * diag_blocks(A)^{-1} (b - A x)``.

    Block Jacobi for a vector layout; the cycle's JA (``make_smoother``,
    ``jacobi_sweep``) passes the pointwise layout, so ``diag_blocks(A)``
    is ``diag(A)``.
    """

    def __init__(self, op, layout: BlockLayout, omega: float = 1.0):
        self.op = op
        self.layout = layout
        self.omega = omega
        self._vinv = _velocity_block_inverses(op, layout)
        self._pinv = (
            _pressure_diag_inverse(op, layout) if layout.is_saddle else None
        )

    def apply_diag_inverse(self, r: np.ndarray) -> np.ndarray:
        vd = self.layout.velocity_dof
        out = np.empty_like(r)
        out[:vd] = _apply_block_inverses(self._vinv, r[:vd])
        if self._pinv is not None:
            out[vd:] = r[vd:] * self._pinv
        return out

    def sweep(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        x += self.omega * self.apply_diag_inverse(b - self.op @ x)
        return x

    def presmooth(self, x, b, sweeps):
        for _ in range(sweeps):
            self.sweep(x, b)
        return x

    postsmooth = presmooth


class GaussSeidelSmoother:
    """Block Gauss-Seidel via exact block-triangular substitution."""

    def __init__(self, op, layout: BlockLayout, direction: str = "symmetric"):
        self.op = op
        self.layout = layout
        self.direction = direction
        self._lower = _block_triangle_solver(op, layout, lower=True)
        self._upper = _block_triangle_solver(op, layout, lower=False)

    def sweep(self, x: np.ndarray, b: np.ndarray, direction: str) -> np.ndarray:
        solver = self._lower if direction == "forward" else self._upper
        x += solver.solve(b - self.op @ x)
        return x

    def presmooth(self, x, b, sweeps):
        d = "backward" if self.direction == "backward" else "forward"
        for _ in range(sweeps):
            self.sweep(x, b, d)
        return x

    def postsmooth(self, x, b, sweeps):
        d = "forward" if self.direction == "forward" else "backward"
        for _ in range(sweeps):
            self.sweep(x, b, d)
        return x


# ---------------------------------------------------------------------------
# Vanka


@dataclass(frozen=True)
class VankaPatch:
    """One pressure dof and the velocity nodes its divergence row touches."""

    pressure_index: int
    velocity_nodes: np.ndarray


def _patches_from_operator(op: sp.csr_matrix, layout: BlockLayout) -> list[VankaPatch]:
    if not layout.is_saddle:
        raise MalformedSystem("Vanka patches require a saddle system")
    vd = layout.velocity_dof
    bs = layout.block_size
    b_block = op[vd:, :vd].tocsr()
    patches = []
    for i in range(layout.n_pressure):
        row = b_block.indices[b_block.indptr[i] : b_block.indptr[i + 1]]
        vals = b_block.data[b_block.indptr[i] : b_block.indptr[i + 1]]
        nodes = np.unique(row[vals != 0.0] // bs)
        if nodes.size == 0:
            raise MalformedSystem(f"pressure dof {i} couples to no velocity dof")
        patches.append(VankaPatch(pressure_index=i, velocity_nodes=nodes))
    return patches


def build_vanka_patches(system) -> list[VankaPatch]:
    """One patch per pressure dof, from the divergence coupling pattern."""
    op, layout, _ = as_operator(system)
    return _patches_from_operator(op, layout)


def _dependency_waves(op: sp.csr_matrix, dofs: list[np.ndarray]) -> list[np.ndarray]:
    """Group patches into dependency waves (level scheduling).

    Patch ``p`` couples to patch ``q`` when ``op[dofs_p, dofs_q]`` or
    ``op[dofs_q, dofs_p]`` is structurally nonzero, or when the two
    share a dof.  A patch's wave is one more than the latest wave of any
    earlier patch it couples to, so the patches of one wave have
    disjoint, mutually uncoupled dofs.  Returns the patch indices of
    each wave, in patch order within a wave.
    """
    sizes = np.array([d.size for d in dofs])
    incidence = sp.csr_matrix(
        (np.ones(sizes.sum(), dtype=bool), np.concatenate(dofs),
         np.concatenate([[0], np.cumsum(sizes)])),
        shape=(len(dofs), op.shape[0]),
    )
    # shares op's index arrays: only the pattern is read, no value copied
    pattern = sp.csr_matrix(
        (np.ones(op.nnz, dtype=bool), op.indices, op.indptr), shape=op.shape
    )
    coupling = incidence @ pattern @ incidence.T
    coupling = sp.tril(
        coupling + coupling.T + incidence @ incidence.T, k=-1, format="csr"
    )
    wave = np.zeros(len(dofs), dtype=np.intp)
    for p in range(1, len(dofs)):
        earlier = coupling.indices[coupling.indptr[p] : coupling.indptr[p + 1]]
        if earlier.size:
            wave[p] = wave[earlier].max() + 1
    order = np.argsort(wave, kind="stable")
    return np.split(order, np.cumsum(np.bincount(wave))[:-1])


@dataclass(frozen=True)
class _VankaWave:
    """Patches with disjoint, uncoupled dofs, solved as one batch."""

    dofs: np.ndarray  # concatenated patch dofs
    factors: list  # CoarseFactorization per patch, lu views of one segment
    segments: list  # slice of ``dofs`` per patch


class VankaSmoother:
    """Multiplicative Vanka: sequential damped exact solves per patch.

    The sweep runs the patches in dependency waves (level scheduling,
    ``_dependency_waves``): the patches of one wave have disjoint dofs
    and no coupling through ``op``, so none of them reads a residual
    entry that another of the wave writes.  Each wave gathers its
    residual once, solves its patches, and updates ``x`` and the
    residual once; that is exactly the local solves of the patch-by-
    patch order, and only the rounding order of the residual sums
    differs.  Each wave's patch matrices are scattered into one
    contiguous segment of a per-level buffer, as Fortran-ordered views,
    and factored in place; ``_dofs`` and ``_factors`` list the patches
    in patch order.
    """

    def __init__(self, op, layout: BlockLayout, omega: float = 1.0, patches=None):
        self.op = op.tocsr()
        self.op_csc = op.tocsc()
        self.layout = layout
        self.omega = omega
        self.patches = patches if patches is not None else _patches_from_operator(
            self.op, layout
        )
        bs = layout.block_size
        vd = layout.velocity_dof
        self._dofs = [
            np.concatenate([
                (bs * patch.velocity_nodes[:, None] + np.arange(bs)).ravel(),
                [vd + patch.pressure_index],
            ])
            for patch in self.patches
        ]
        self._factors = [None] * len(self.patches)
        self._waves = []
        # one buffer per level: a single large allocation, which the
        # allocator maps and unmaps whole instead of leaving heap holes
        buffer = np.empty(sum(d.size * d.size for d in self._dofs))
        start = 0
        for members in _dependency_waves(self.op, self._dofs):
            dofs = np.concatenate([self._dofs[p] for p in members])
            sizes = np.array([self._dofs[p].size for p in members])
            bounds = np.concatenate([[0], np.cumsum(sizes)])
            offsets = np.concatenate([[0], np.cumsum(sizes * sizes)])
            # the patches of a wave are uncoupled, so op[dofs][:, dofs] is
            # block diagonal: its entries go straight into the patch
            # matrices, Fortran-ordered blocks of the wave's contiguous
            # segment of the buffer, which are then factored in place
            local = self.op[dofs][:, dofs].tocoo()
            owner = np.repeat(np.arange(len(members)), sizes)[local.row]
            pos = (offsets[owner] + local.row - bounds[owner]
                   + (local.col - bounds[owner]) * sizes[owner])
            segment = buffer[start : start + offsets[-1]]
            segment[:] = np.bincount(pos, weights=local.data, minlength=offsets[-1])
            start += offsets[-1]
            for p, k, offset in zip(members, sizes, offsets):
                block = segment[offset : offset + k * k].reshape(k, k, order="F")
                try:
                    self._factors[p] = coarse_factor(block, out=block)
                except SingularCoarseMatrix as exc:
                    raise SingularPatch(
                        f"local matrix of patch {self.patches[p].pressure_index} "
                        "is singular"
                    ) from exc
            self._waves.append(
                _VankaWave(
                    dofs=dofs,
                    factors=[self._factors[p] for p in members],
                    segments=[slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])],
                )
            )

    def sweep(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        r = b - self.op @ x
        for wave in self._waves:
            r_wave = r[wave.dofs]
            delta = np.concatenate([
                coarse_solve(factor, r_wave[seg])
                for factor, seg in zip(wave.factors, wave.segments)
            ])
            delta *= self.omega
            x[wave.dofs] += delta
            r -= self.op_csc[:, wave.dofs] @ delta
        return x

    def presmooth(self, x, b, sweeps):
        for _ in range(sweeps):
            self.sweep(x, b)
        return x

    postsmooth = presmooth


# ---------------------------------------------------------------------------
# Braess-Sarazin


@dataclass(eq=False)
class SchurPreconditioner:
    """Explicit approximate Schur complement ``C + B Ahat^{-1} B^T``.

    Solved by dense LU when small, otherwise by one V-cycle of a scalar
    multigrid hierarchy with GS-1-1 smoothing.
    """

    matrix: sp.csr_matrix
    solve: Callable[[np.ndarray], np.ndarray]
    kind: str


def build_schur_preconditioner(
    op: sp.csr_matrix,
    layout: BlockLayout,
    ahat_diag: np.ndarray,
    coarse_size_cap: int = 500,
) -> SchurPreconditioner:
    vd = layout.velocity_dof
    b_block = op[vd:, :vd].tocsr()
    c_block = (-op[vd:, vd:]).tocsr()
    schur = (
        c_block + b_block @ sp.diags(1.0 / ahat_diag) @ b_block.T
    ).tocsr()
    schur = ((schur + schur.T) * 0.5).tocsr()

    if schur.shape[0] <= coarse_size_cap:
        factor = coarse_factor(schur)
        return SchurPreconditioner(
            matrix=schur, solve=lambda r: coarse_solve(factor, r), kind="dense"
        )

    from .coarsening import build_hierarchy
    from .multigrid import CycleConfig, amg_cycle, build_level_smoothers

    hierarchy = build_hierarchy(schur, coarse_size_cap=coarse_size_cap)
    config = CycleConfig(
        smoother=SmootherConfig(kind=SmootherKind.GAUSS_SEIDEL, m_pre=1, m_post=1)
    )
    smoothers = build_level_smoothers(hierarchy, config)

    def solve(r: np.ndarray) -> np.ndarray:
        return amg_cycle(hierarchy, 0, np.zeros_like(r), r, config, smoothers)

    return SchurPreconditioner(matrix=schur, solve=solve, kind="amg")


class BraessSarazinSmoother:
    """Preconditioned Richardson step with the Braess-Sarazin block factor.

    One sweep applies the inverse of ``[[Ahat, B^T], [B, B Ahat^{-1} B^T
    - Shat]]`` to the current residual, where ``Ahat = 2 diag(A)`` and
    ``Shat`` approximates ``C + B Ahat^{-1} B^T``.  Custom ``ahat_solve``
    and ``schur_solve`` callables may replace the defaults (used to
    cross-check against exact block elimination).
    """

    def __init__(
        self,
        op,
        layout: BlockLayout,
        coarse_size_cap: int = 500,
        ahat_solve: Callable[[np.ndarray], np.ndarray] | None = None,
        schur_solve: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if not layout.is_saddle:
            raise MalformedSystem("Braess-Sarazin requires a saddle system")
        self.op = op.tocsr()
        self.layout = layout
        vd = layout.velocity_dof
        self.b_block = self.op[vd:, :vd].tocsr()
        diag = self.op.diagonal()[:vd]
        if np.any(diag <= 0.0):
            raise SingularBlock("velocity diagonal must be strictly positive")
        self.ahat = 2.0 * diag
        if ahat_solve is None:
            inv = 1.0 / self.ahat
            ahat_solve = lambda r: inv * r
        self.ahat_solve = ahat_solve
        if schur_solve is None:
            self.schur = build_schur_preconditioner(
                self.op, layout, self.ahat, coarse_size_cap
            )
            schur_solve = self.schur.solve
        else:
            self.schur = None
        self.schur_solve = schur_solve

    def sweep(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        vd = self.layout.velocity_dof
        r = b - self.op @ x
        ru, rp = r[:vd], r[vd:]
        u_star = self.ahat_solve(ru)
        q = self.schur_solve(self.b_block @ u_star - rp)
        x[:vd] += u_star - self.ahat_solve(self.b_block.T @ q)
        x[vd:] += q
        return x

    def presmooth(self, x, b, sweeps):
        for _ in range(sweeps):
            self.sweep(x, b)
        return x

    postsmooth = presmooth


# ---------------------------------------------------------------------------
# segregated Gauss-Seidel (Uzawa-type)


class SegregatedGSSmoother:
    """Uzawa-type step with one damped block Jacobi as the velocity solver.

    Applies the inverse of the block triangle ``[[M_A, 0], [B,
    -omega^{-1} Sigma]]`` to the residual, with ``M_A^{-1} r = omega_j *
    diag_blocks(A)^{-1} r`` and ``omega_j = 0.5``.  ``Sigma`` is a
    diagonal pressure scaling; by default the diagonal of the
    approximate Schur complement ``C + B (2 diag A)^{-1} B^T``, which
    makes the damping ``omega`` dimensionless.  Pass
    ``pressure_scaling=1`` (or an explicit vector) for the unscaled
    update ``dp = -omega (r_p - B du)``.
    """

    def __init__(self, op, layout: BlockLayout, omega: float = 0.125,
                 jacobi_omega: float = 0.5, pressure_scaling=None):
        if not layout.is_saddle:
            raise MalformedSystem("segregated GS requires a saddle system")
        if not omega > 0.0:
            raise InvalidParameter("omega must be positive")
        self.op = op.tocsr()
        self.layout = layout
        self.omega = omega
        self.jacobi_omega = jacobi_omega
        vd = layout.velocity_dof
        self.b_block = self.op[vd:, :vd].tocsr()
        self._vinv = _velocity_block_inverses(self.op, layout)
        if pressure_scaling is None:
            diag = self.op.diagonal()[:vd]
            if np.any(diag <= 0.0):
                raise SingularBlock("velocity diagonal must be strictly positive")
            c_diag = -self.op.diagonal()[vd:]
            sigma = c_diag + self.b_block.multiply(self.b_block) @ (0.5 / diag)
            sigma[sigma <= 0.0] = 1.0  # decoupled pressure dof: benign unit scale
        else:
            sigma = np.broadcast_to(
                np.asarray(pressure_scaling, dtype=float), (layout.n_pressure,)
            ).copy()
            if np.any(sigma <= 0.0):
                raise InvalidParameter("pressure scaling must be positive")
        self.pressure_scaling = sigma

    def sweep(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        vd = self.layout.velocity_dof
        r = b - self.op @ x
        ru, rp = r[:vd], r[vd:]
        du = self.jacobi_omega * _apply_block_inverses(self._vinv, ru)
        dp = -self.omega * (rp - self.b_block @ du) / self.pressure_scaling
        x[:vd] += du
        x[vd:] += dp
        return x

    def presmooth(self, x, b, sweeps):
        for _ in range(sweeps):
            self.sweep(x, b)
        return x

    postsmooth = presmooth


# ---------------------------------------------------------------------------
# single-shot functional forms


def jacobi_sweep(system, x, b, omega: float = 1.0) -> np.ndarray:
    """One damped pointwise Jacobi sweep (the cycle's JA); returns a new iterate."""
    op, layout, _ = as_operator(system)
    sm = JacobiSmoother(op, _pointwise_layout(layout), omega)
    return sm.sweep(np.array(x, dtype=float), b)


def gs_sweep(system, x, b, direction: str = "forward") -> np.ndarray:
    """One block Gauss-Seidel sweep in the given direction."""
    if direction not in ("forward", "backward"):
        raise InvalidParameter(f"unknown sweep direction {direction!r}")
    op, layout, _ = as_operator(system)
    sm = GaussSeidelSmoother(op, layout, direction)
    return sm.sweep(np.array(x, dtype=float), b, direction)


def vanka_sweep(system, x, b, patches=None, omega: float = 1.0) -> np.ndarray:
    """One multiplicative Vanka sweep over all patches."""
    op, layout, _ = as_operator(system)
    sm = VankaSmoother(op, layout, omega, patches=patches)
    return sm.sweep(np.array(x, dtype=float), b)


def braess_sarazin_sweep(system, x, b, ahat_solve=None, schur_solve=None) -> np.ndarray:
    """One Braess-Sarazin step (defaults: Ahat = 2 diag A, inner Schur solve)."""
    op, layout, _ = as_operator(system)
    sm = BraessSarazinSmoother(
        op, layout, ahat_solve=ahat_solve, schur_solve=schur_solve
    )
    return sm.sweep(np.array(x, dtype=float), b)


def segregated_gs_sweep(system, x, b, omega: float = 0.125,
                        pressure_scaling=None) -> np.ndarray:
    """One segregated Gauss-Seidel (Uzawa-type) step."""
    op, layout, _ = as_operator(system)
    sm = SegregatedGSSmoother(op, layout, omega, pressure_scaling=pressure_scaling)
    return sm.sweep(np.array(x, dtype=float), b)


def make_smoother(op, layout: BlockLayout, config: SmootherConfig,
                  coarse_size_cap: int = 500):
    """Instantiate the per-level smoother state for a cycle.

    JA is damped pointwise Jacobi, ``x + omega * diag(A)^{-1} (b - A x)``,
    whatever the node blocks of ``layout``.
    """
    if config.kind is SmootherKind.JACOBI:
        return JacobiSmoother(op, _pointwise_layout(layout), config.omega)
    if config.kind is SmootherKind.GAUSS_SEIDEL:
        return GaussSeidelSmoother(op, layout, config.gs_direction)
    if config.kind is SmootherKind.VANKA:
        return VankaSmoother(op, layout, config.omega)
    if config.kind is SmootherKind.BRAESS_SARAZIN:
        return BraessSarazinSmoother(op, layout, coarse_size_cap)
    if config.kind is SmootherKind.SEGREGATED_GS:
        return SegregatedGSSmoother(op, layout, config.omega)
    raise InvalidParameter(f"unknown smoother kind {config.kind}")
