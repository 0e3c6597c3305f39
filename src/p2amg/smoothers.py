"""Smoothing procedures for the SPD and saddle-point systems.

For the SPD velocity systems: damped pointwise Jacobi and block
Gauss-Seidel over the 3x3 node blocks.  For saddle systems: the
multiplicative Vanka smoother (one patch per pressure dof, built for
all patches at once as one patch-to-node incidence and swept in
dependency waves of mutually uncoupled patches, which gives the
patch-by-patch result with one gather and one residual update per
wave, the update an in-place product over the wave's columns of the
stored CSC operator; each patch is solved through its one-pressure
Schur complement, its SPD velocity block factored by blocked Cholesky
in full storage and kept as a packed factor, the only stored one), a
Braess-Sarazin step with diagonal velocity approximation and an inner
multigrid preconditioner for the approximate Schur complement, and a
segregated Gauss-Seidel (Uzawa-type) step.  Node blocks and patches take the dof-to-node
numbering from :class:`BlockLayout`; this module keeps no copy of it.

Every smoother exposes the exact solution as a fixed point and is
linear in ``(x, b)``, which the multigrid preconditioner relies on.
Each class precomputes its factorizations once per level.  Jacobi,
Vanka, Braess-Sarazin and segregated GS define only ``correct(x, r)``,
the correction they add to ``x`` for the residual ``r``, and
share one sweep loop, ``presmooth``/``postsmooth``: it starts from ``b -
A x``, or from ``b`` itself when ``x`` is zero, and carries the residual
from one sweep to the next; Vanka updates it as part of its sweep, and
for the others the loop computes ``b - A x`` once per sweep.  Block GS
runs its own sweeps, ``x <- T^{-1} (b - U x)``, which read the strict
block upper triangle ``U`` instead of ``A`` from any iterate and carry
the residual ``-U d`` after the first; it alone has a post-smoothing
sweep of its own, the transposed one, and the cycle's caller decides
whether to use it (see :mod:`multigrid`).  ``presmooth`` returns the
residual of the smoothed iterate, which the cycle restricts and the
stand-alone solve takes from the forward post-smoothing of level 0.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpotrf, dpotrs, dpptrs, dtrttp

# Private kernel: csc_matvec(n_row, n_col, Ap, Ai, Ax, Xx, Yx) adds
# Ax[Ap[j]:Ap[j+1]] * Xx[j] into Yx[Ai[...]] in place, for each j.  Given
# the interleaved ranges [indptr[c], indptr[c+1]] of columns in descending
# order, every odd "gap" range [indptr[c_m+1], indptr[c_{m+1}]) is empty,
# so one call is the product over just those columns (``_subtract_columns``).
# tests/test_smoothers.py::test_subtract_columns_matches_sliced_product
# guards this contract.
from scipy.sparse._sparsetools import csc_matvec

from .errors import (
    InvalidParameter,
    MalformedSystem,
    SingularBlock,
    SingularPatch,
)
from .sparse_core import BlockLayout, divergence_mask, row_blocks

__all__ = [
    "SmootherKind",
    "SmootherConfig",
    "parse_smoother",
    "build_schur_preconditioner",
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
    """Smoother kind, damping, and pre/post sweep counts."""

    kind: SmootherKind
    m_pre: int = 1
    m_post: int = 1
    omega: float = 1.0

    def __post_init__(self):
        if not self.omega > 0.0:
            raise InvalidParameter(f"damping must be positive, got {self.omega}")
        if self.m_pre < 0 or self.m_post < 0:
            raise InvalidParameter("sweep counts must be non-negative")

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


def _split_rows(op: sp.csr_matrix, hi: np.ndarray, lo: np.ndarray | None = None):
    """Which stored entries of the CSR ``op`` lie at ``lo[i] <= col <
    hi[i]`` in their row ``i`` (no lower bound when ``lo`` is None), and
    the row pointer of those entries: one pass over ``op.indices``, a
    block of rows at a time (``sparse_core.row_blocks``)."""
    mask = np.empty(op.nnz, dtype=bool)
    indptr = np.zeros_like(op.indptr)
    hi = hi.astype(op.indices.dtype)
    lo = None if lo is None else lo.astype(op.indices.dtype)
    for start, stop in row_blocks(op.indptr):
        ends = op.indptr[start : stop + 1] - op.indptr[start]
        seg = mask[op.indptr[start] : op.indptr[stop]]
        cols = op.indices[op.indptr[start] : op.indptr[stop]]
        np.less(cols, np.repeat(hi[start:stop], np.diff(ends)), out=seg)
        if lo is not None:
            seg &= cols >= np.repeat(lo[start:stop], np.diff(ends))
        taken = np.zeros(seg.size + 1, dtype=indptr.dtype)  # taken before each entry
        np.cumsum(seg, out=taken[1:])
        indptr[start + 1 : stop + 1] = indptr[start] + taken[ends[1:]]
    return mask, indptr


def _masked_rows(op: sp.csr_matrix, mask: np.ndarray, indptr: np.ndarray) -> sp.csr_matrix:
    """The stored entries of the CSR ``op`` where ``mask`` holds, in
    ``op``'s order, as CSR with the row pointer ``indptr`` of
    ``_split_rows``."""
    return sp.csr_matrix((op.data[mask], op.indices[mask], indptr), shape=op.shape)


def _velocity_block_inverses(op: sp.csr_matrix, layout: BlockLayout) -> np.ndarray:
    """Inverses of the diagonal node blocks of the velocity partition."""
    bs = layout.block_size
    node, first = layout.node_of_dof(), layout.first_dof()
    # the entries with node(col) == node(row); the velocity rows come first
    own, indptr = _split_rows(op, first[node + 1], first[node])
    diag = _masked_rows(op, own, indptr)[: layout.velocity_dof].tocoo()
    i = node[diag.row]
    blocks = np.zeros((layout.n_velocity_nodes, bs, bs))
    blocks[i, diag.row - first[i], diag.col - first[i]] = diag.data
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError as exc:
        raise SingularBlock("a diagonal velocity node block is singular") from exc


def _apply_block_inverses(inverses: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Multiply each node's slice of ``r`` by its block of ``inverses``."""
    return np.einsum("nij,nj->ni", inverses, r.reshape(len(inverses), -1)).ravel()


def _block_triangles(op: sp.csr_matrix, layout: BlockLayout):
    """SuperLU factor of the block lower triangle ``T`` of ``op`` and the
    strict block upper triangle ``U = op - T`` as CSR.

    ``T`` includes the full diagonal node blocks, so applying the factor
    realizes one exact block Gauss-Seidel substitution.  Both are taken
    from ``op``'s own arrays by one row split: a column is block-upper
    exactly when it is at or past the end of its row's node.  ``T`` is
    built as CSR, converted to CSC, factored and dropped before ``U`` is
    built, so no copy of the whole operator is ever made.
    """
    node, first = layout.node_of_dof(), layout.first_dof()
    lower, indptr = _split_rows(op, first[node + 1])
    tri = _masked_rows(op, lower, indptr).tocsc()  # the CSR copy is dropped here
    try:
        factor = spla.splu(tri, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise SingularBlock(f"block triangular factorization failed: {exc}") from exc
    del tri
    strict = _masked_rows(op, np.logical_not(lower, out=lower), op.indptr - indptr)
    strict.sort_indices()  # a no-op unless op's rows are unsorted (Schur's are)
    return factor, strict


# ---------------------------------------------------------------------------
# the sweep loop


class _Smoother:
    """The sweep loop of the smoothers that correct for a residual
    (block GS runs sweeps of its own).

    ``correct(x, r)`` adds the correction for the residual ``r = b - op
    @ x`` to ``x`` in place and may use ``r`` as scratch.  A smoother
    that updates the residual as part of its sweep returns the new ``b -
    op @ x``; for one that returns None the loop computes it, but only
    when a later sweep or the caller reads it.
    """

    op: sp.csr_matrix

    def correct(self, x: np.ndarray, r: np.ndarray):
        raise NotImplementedError

    def _residual(self, x, b):
        """``b - op @ x``, which is ``b`` itself when ``x`` is zero."""
        return b - self.op @ x if x.any() else b.copy()

    def _sweeps(self, x, b, sweeps, carry_last):
        r = self._residual(x, b)
        for k in range(sweeps):
            r = self.correct(x, r)
            if r is None and (carry_last or k + 1 < sweeps):
                r = b - self.op @ x
        return r

    def presmooth(self, x, b, sweeps):
        """Run ``sweeps`` sweeps on ``x`` in place; return ``b - op @ x``."""
        return self._sweeps(x, b, sweeps, carry_last=True)

    def postsmooth(self, x, b, sweeps):
        """Run ``sweeps`` post-smoothing sweeps on ``x`` in place."""
        if sweeps:
            self._sweeps(x, b, sweeps, carry_last=False)


# ---------------------------------------------------------------------------
# Jacobi and Gauss-Seidel


class JacobiSmoother(_Smoother):
    """Damped pointwise Jacobi: ``x + omega * diag(A)^{-1} (b - A x)``."""

    def __init__(self, op, omega: float = 1.0):
        diag = op.diagonal()
        if np.any(diag == 0.0):
            raise SingularBlock("zero diagonal entry")
        self.op = op
        self.omega = omega
        self._dinv = 1.0 / diag

    def correct(self, x: np.ndarray, r: np.ndarray) -> None:
        x += self.omega * (self._dinv * r)


class GaussSeidelSmoother(_Smoother):
    """Block Gauss-Seidel via exact block-triangular substitution.

    ``op = T + U`` with ``T`` the block lower triangle, factored once,
    and ``U`` the strict block upper triangle.  A forward sweep is ``x
    <- T^{-1} (b - U x)``, which reads ``U`` instead of forming ``b - A
    x``, and from zero is ``x = T^{-1} b``.  Its change ``d`` leaves the
    residual ``b - T x - U x = -U d``, which the next sweep, ``d =
    T^{-1} r, x += d``, and ``presmooth``'s caller take instead of a
    full matvec.  The post-smoothing sweep is the exact transpose, ``x
    <- T^{-T} (b - U^T x)``, which keeps a V-cycle preconditioner
    self-adjoint; it and its carried residual ``-U^T d`` assume ``op =
    T^T + U^T``, i.e. a symmetric ``op``, for which ``T^T`` is the block
    upper triangle and the sweep is the backward block sweep.
    """

    def __init__(self, op, layout: BlockLayout):
        self.op = op
        self._factor, self._upper = _block_triangles(op, layout)
        # the transposed sweep's views: they share the arrays above
        self._solve_t = partial(self._factor.solve, trans="T")
        self._upper_t = self._upper.T

    @staticmethod
    def _gs_sweeps(solve, upper, x, b, sweeps, residual):
        """``sweeps`` sweeps ``x <- solve(b - upper @ x)`` on ``x`` in
        place, the later ones on the carried residual; return ``b - op
        @ x`` if ``residual``, else None."""
        y = solve(b - upper @ x if x.any() else b)
        d = y - x
        x[:] = y
        for _ in range(sweeps - 1):
            d = solve(-(upper @ d))
            x += d
        return -(upper @ d) if residual else None

    def presmooth(self, x, b, sweeps):
        """Run ``sweeps`` forward sweeps on ``x`` in place; return ``b -
        op @ x``."""
        if not sweeps:
            return self._residual(x, b)
        return self._gs_sweeps(self._factor.solve, self._upper, x, b, sweeps, True)

    def postsmooth(self, x, b, sweeps):
        """Run ``sweeps`` transposed sweeps on ``x`` in place."""
        if sweeps:
            self._gs_sweeps(self._solve_t, self._upper_t, x, b, sweeps, False)


# ---------------------------------------------------------------------------
# Vanka


def _patch_nodes(op: sp.csr_matrix, layout: BlockLayout) -> sp.csr_matrix:
    """Patch-to-node incidence of the Vanka patches, as boolean CSR with
    sorted indices, read from the pressure rows of ``op`` alone.

    Patch ``i`` holds every velocity node to which row ``i`` of ``B``
    couples (``sparse_core.divergence_mask`` over ``B``'s entries), then
    its own pressure node, the last in node order.
    """
    if not layout.is_saddle:
        raise MalformedSystem("Vanka patches require a saddle system")
    vd, shape = layout.velocity_dof, (layout.n_pressure, layout.n_nodes)
    first = op.indptr[vd]
    cols = op.indices[first:]
    keep = cols < vd  # B's entries; C's are dropped
    keep[keep] = divergence_mask(op.data[first:][keep])
    velocity = sp.csr_matrix(
        (keep, layout.node_of_dof().astype(cols.dtype)[cols], op.indptr[vd:] - first), shape
    )
    velocity.sum_duplicates()
    velocity.eliminate_zeros()
    empty = np.flatnonzero(np.diff(velocity.indptr) == 0)
    if empty.size:
        raise MalformedSystem(f"pressure dof {empty[0]} couples to no velocity dof")
    return velocity + sp.eye(*shape, k=layout.n_velocity_nodes, dtype=bool, format="csr")


def _dependency_waves(
    op: sp.csr_matrix, patches: sp.csr_matrix, layout: BlockLayout
) -> list[np.ndarray]:
    """Group patches into dependency waves (level scheduling).

    ``patches`` is the patch-to-node incidence of ``_patch_nodes``.
    Patch ``p`` couples to patch ``q`` when ``op`` stores an entry
    between their nodes (``layout.node_pattern``), in either direction,
    or when the two share a node; a patch holds whole nodes, so that is
    the coupling of their dofs.  A patch's wave is one more than the
    latest wave of any earlier patch it couples to, so the patches of
    one wave have disjoint, mutually uncoupled dofs.  Returns the patch
    indices of each wave, in patch order within a wave.
    """
    coupling = patches @ layout.node_pattern(op) @ patches.T
    coupling = sp.tril(coupling + coupling.T + patches @ patches.T, k=-1, format="csr")
    n_patches = patches.shape[0]
    wave = np.zeros(n_patches, dtype=np.intp)
    for p in range(1, n_patches):
        earlier = coupling.indices[coupling.indptr[p] : coupling.indptr[p + 1]]
        if earlier.size:
            wave[p] = wave[earlier].max() + 1
    order = np.argsort(wave, kind="stable")
    return np.split(order, np.cumsum(np.bincount(wave))[:-1])


def _column_ranges(op_csc: sp.csc_matrix, cols: np.ndarray):
    """Interleaved ``[indptr[c], indptr[c+1]]`` of the columns ``cols``
    in descending column order, and the permutation of ``cols`` into
    that order, both in the dtype of ``op_csc.indices``."""
    order = np.argsort(cols)[::-1].astype(op_csc.indices.dtype)
    ranges = np.empty(2 * cols.size, dtype=op_csc.indices.dtype)
    ranges[0::2] = op_csc.indptr[cols[order]]
    ranges[1::2] = op_csc.indptr[cols[order] + 1]
    return ranges, order


def _subtract_columns(op_csc, ranges, order, d, r) -> None:
    """``r -= op_csc[:, cols] @ d`` in place, for the ``ranges`` and
    ``order`` of ``_column_ranges(op_csc, cols)``: one product over
    ``op_csc``'s own arrays, which touches only the rows of those
    columns' entries."""
    xx = np.zeros(2 * d.size - 1)  # the odd slots belong to empty ranges
    np.negative(d[order], out=xx[0::2])
    csc_matvec(op_csc.shape[0], xx.size, ranges, op_csc.indices, op_csc.data, xx, r)


@dataclass(frozen=True)
class _VankaWave:
    """Patches with disjoint, uncoupled dofs, solved as one batch.

    Arrays over ``dofs`` hold, for each patch, its pressure row ``h``
    (0 at the pressure dof) and ``w = A_p^{-1} g`` (-1 at the pressure
    dof, so that one product forms the whole correction).  ``ranges``
    and ``order`` are ``_column_ranges(op_csc, dofs)``.
    """

    members: np.ndarray  # patch indices, in patch order
    dofs: np.ndarray  # concatenated patch dofs, each patch's pressure dof last
    ranges: np.ndarray  # interleaved column ranges of ``dofs``, descending
    order: np.ndarray  # permutation of ``dofs`` into descending order
    sizes: np.ndarray  # dofs per patch
    starts: np.ndarray  # position of each patch's first dof in ``dofs``
    pressure: np.ndarray  # position of each patch's pressure dof in ``dofs``
    factors: list  # (velocity dofs, packed Cholesky factor, their slice) per patch
    h: np.ndarray
    w: np.ndarray
    schur: np.ndarray  # s_p = c_p + h_p . w_p per patch


class VankaSmoother(_Smoother):
    """Multiplicative Vanka: sequential damped exact solves per patch.

    The sweep runs the patches in dependency waves (level scheduling,
    ``_dependency_waves``): the patches of one wave have disjoint dofs
    and no coupling through ``op``, so none of them reads a residual
    entry that another of the wave writes.  Each wave gathers its
    residual once, solves its patches, and updates ``x`` and the
    residual once; that is exactly the local solves of the patch-by-
    patch order, and only the rounding order of the residual sums
    differs.  The residual update ``r -= op[:, dofs] @ delta`` is one
    product over ``op_csc``'s own arrays, restricted to the wave's
    column ranges (``_subtract_columns``), so no column block is sliced.

    In ascending dof order a patch is ``[[A_p, g_p], [h_p^T, -c_p]]``
    with its one pressure dof last and ``A_p`` a principal block of the
    SPD velocity operator, so it is solved through its one-pressure
    Schur complement ``s_p = c_p + h_p . w_p``, ``w_p = A_p^{-1} g_p``:
    ``y = A_p^{-1} r_u``, ``x_p = (h_p . y - r_p) / s_p`` and ``d_u = y -
    x_p w_p``.  Setup scatters each wave's block-diagonal slice of
    ``op`` into one column-major scratch buffer, reused for every wave
    of the level, which holds each patch matrix in full storage;
    ``g_p``, ``h_p`` and ``c_p`` are read from it, ``A_p`` is factored
    by the blocked Cholesky ``dpotrf``, ``w_p`` comes from ``dpotrs``
    and the factor is packed (``dtrttp``) into one per-level buffer,
    which the sweep's ``dpptrs`` reads.  A patch whose ``A_p`` is not
    positive definite, or whose ``s_p`` is not positive, raises
    :class:`SingularPatch`.  ``_dofs`` lists the patches in patch order,
    one patch per pressure dof.
    """

    def __init__(self, op, layout: BlockLayout, omega: float = 1.0):
        self.op = op.tocsr()
        self.op_csc = op.tocsc()
        self.omega = omega
        patches = _patch_nodes(self.op, layout)
        # each patch's nodes expanded to their dofs, in ascending order, so
        # each patch's pressure dof comes last
        first = layout.first_dof()
        sizes = np.diff(first)[patches.indices]
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        dofs = np.repeat(first[patches.indices] - bounds[:-1], sizes) + np.arange(bounds[-1])
        bounds = bounds[patches.indptr]
        self._dofs = np.split(dofs.astype(self.op.indices.dtype), bounds[1:-1])
        n_velocity = np.diff(bounds) - 1
        waves = _dependency_waves(self.op, patches, layout)
        self._waves = []
        # one packed buffer per level: a single large allocation, which the
        # allocator maps and unmaps whole instead of leaving heap holes;
        # full-storage scratch for the largest wave and for one A_p
        packed = np.empty(int(n_velocity @ (n_velocity + 1)) // 2)
        scratch = np.empty(max(int((n_velocity[m] + 1) @ (n_velocity[m] + 1)) for m in waves))
        work = np.empty(int(n_velocity.max()) ** 2)
        start = 0
        for members in waves:
            dofs = np.concatenate([self._dofs[p] for p in members])
            m = n_velocity[members]
            bounds = np.concatenate([[0], np.cumsum(m + 1)])
            blocks = np.concatenate([[0], np.cumsum((m + 1) ** 2)])
            owner = np.repeat(np.arange(len(members)), m + 1)
            pressure = bounds[1:] - 1
            # the patch matrices, column-major with leading dimension m + 1,
            # one after another: entry (i, j) of the wave sits at
            # colbase[j] + i
            colbase = (blocks[:-1] - bounds[:-1] * (m + 2))[owner]
            colbase += np.arange(dofs.size) * (m + 1)[owner]
            # the patches of a wave are uncoupled, so op[dofs][:, dofs] is
            # block diagonal: each entry belongs to the patch of its row
            local = self.op[dofs][:, dofs].tocoo()
            scratch[: blocks[-1]] = 0.0
            scratch[colbase[local.col] + local.row] = local.data
            # the pressure column, row and corner of each patch
            w = scratch[colbase[pressure][owner] + np.arange(dofs.size)]
            h = scratch[colbase + pressure[owner]]
            c = -h[pressure]
            h[pressure] = 0.0
            factors = []
            for p, n, lo, base in zip(members, m, bounds, blocks):
                a = scratch[base : base + (n + 1) ** 2].reshape(n + 1, n + 1, order="F")
                factor = work[: n * n].reshape(n, n, order="F")
                factor[:] = a[:n, :n]  # dpotrf needs A_p contiguous
                factor, info = dpotrf(factor, lower=1, clean=0, overwrite_a=1)
                if info != 0:
                    raise SingularPatch(
                        f"velocity block of patch {p} is not positive definite"
                    )
                velocity = slice(lo, lo + n)
                dpotrs(factor, w[velocity], lower=1, overwrite_b=1)  # w = A_p^{-1} g_p
                ap = packed[start : start + n * (n + 1) // 2]
                ap[:] = dtrttp(factor, uplo="L")[0]
                start += ap.size
                factors.append((n, ap, velocity))
            schur = c + np.add.reduceat(h * w, bounds[:-1])
            if np.any(schur <= 0.0):
                p = members[np.argmax(schur <= 0.0)]
                raise SingularPatch(f"Schur complement of patch {p} is not positive")
            w[pressure] = -1.0
            ranges, order = _column_ranges(self.op_csc, dofs)
            self._waves.append(
                _VankaWave(members=members, dofs=dofs, ranges=ranges,
                           order=order, sizes=m + 1,
                           starts=bounds[:-1], pressure=pressure,
                           factors=factors, h=h, w=w, schur=schur)
            )

    @staticmethod
    def _solve_wave(wave: _VankaWave, r_wave: np.ndarray) -> np.ndarray:
        """Exact patch solves of one wave for its gathered residual,
        computed in place in ``r_wave``."""
        for n, ap, velocity in wave.factors:
            dpptrs(n, ap, r_wave[velocity], lower=1, overwrite_b=1)
        r_p = r_wave[wave.pressure]
        r_wave[wave.pressure] = 0.0
        x_p = (np.add.reduceat(wave.h * r_wave, wave.starts) - r_p) / wave.schur
        r_wave -= np.repeat(x_p, wave.sizes) * wave.w
        return r_wave

    def correct(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        for wave in self._waves:
            delta = self._solve_wave(wave, r[wave.dofs])
            delta *= self.omega
            x[wave.dofs] += delta
            _subtract_columns(self.op_csc, wave.ranges, wave.order, delta, r)
        return r


# ---------------------------------------------------------------------------
# Braess-Sarazin


def build_schur_preconditioner(
    op: sp.csr_matrix,
    layout: BlockLayout,
    ahat_diag: np.ndarray,
    coarse_size_cap: int = 500,
) -> Callable[[np.ndarray], np.ndarray]:
    """Approximate inverse of the Schur complement ``C + B Ahat^{-1} B^T``.

    The Schur matrix is formed explicitly and symmetrised.  The returned
    callable ``r -> Shat^{-1} r`` is one V-cycle of a scalar multigrid
    hierarchy with GS-1-1 smoothing; a matrix of at most
    ``coarse_size_cap`` rows makes a one-level hierarchy, whose cycle is
    the dense LU solve of its coarsest level.
    """
    # imported here: multigrid imports this module
    from .coarsening import build_hierarchy
    from .multigrid import CycleConfig, Preconditioner

    vd = layout.velocity_dof
    b_block = op[vd:, :vd].tocsr()
    c_block = (-op[vd:, vd:]).tocsr()
    schur = (
        c_block + b_block @ sp.diags(1.0 / ahat_diag) @ b_block.T
    ).tocsr()
    schur = ((schur + schur.T) * 0.5).tocsr()
    hierarchy = build_hierarchy(schur, coarse_size_cap=coarse_size_cap)
    config = CycleConfig(
        smoother=SmootherConfig(kind=SmootherKind.GAUSS_SEIDEL, m_pre=1, m_post=1)
    )
    return Preconditioner(hierarchy, config)


class BraessSarazinSmoother(_Smoother):
    """Preconditioned Richardson step with the Braess-Sarazin block factor.

    One sweep applies the inverse of ``[[Ahat, B^T], [B, B Ahat^{-1} B^T
    - Shat]]`` to the current residual, where ``Ahat = 2 diag(A)`` and
    ``Shat`` approximates ``C + B Ahat^{-1} B^T``.  ``schur`` is the
    callable ``r -> Shat^{-1} r`` of :func:`build_schur_preconditioner`.
    """

    def __init__(self, op, layout: BlockLayout):
        if not layout.is_saddle:
            raise MalformedSystem("Braess-Sarazin requires a saddle system")
        self.op = op.tocsr()
        self.layout = layout
        vd = layout.velocity_dof
        self.b_block = self.op[vd:, :vd].tocsr()
        self._b_block_t = self.b_block.T  # a view of b_block's arrays
        diag = self.op.diagonal()[:vd]
        if np.any(diag <= 0.0):
            raise SingularBlock("velocity diagonal must be strictly positive")
        self.ahat = 2.0 * diag
        self._ahat_inv = 1.0 / self.ahat
        self.schur = build_schur_preconditioner(self.op, layout, self.ahat)

    def correct(self, x: np.ndarray, r: np.ndarray) -> None:
        vd = self.layout.velocity_dof
        ru, rp = r[:vd], r[vd:]
        u_star = self._ahat_inv * ru
        q = self.schur(self.b_block @ u_star - rp)
        x[:vd] += u_star - self._ahat_inv * (self._b_block_t @ q)
        x[vd:] += q


# ---------------------------------------------------------------------------
# segregated Gauss-Seidel (Uzawa-type)


class SegregatedGSSmoother(_Smoother):
    """Uzawa-type step with one damped block Jacobi as the velocity solver.

    Applies the inverse of the block triangle ``[[M_A, 0], [B,
    -omega^{-1} Sigma]]`` to the residual, with ``M_A^{-1} r = 0.5 *
    diag_blocks(A)^{-1} r``.  ``Sigma`` is the diagonal pressure scaling
    ``pressure_scaling``: the diagonal of the approximate Schur
    complement ``C + B (2 diag A)^{-1} B^T``, which makes the damping
    ``omega`` dimensionless.
    """

    def __init__(self, op, layout: BlockLayout, omega: float = 0.125):
        if not layout.is_saddle:
            raise MalformedSystem("segregated GS requires a saddle system")
        if not omega > 0.0:
            raise InvalidParameter("omega must be positive")
        self.op = op.tocsr()
        self.layout = layout
        self.omega = omega
        vd = layout.velocity_dof
        self.b_block = self.op[vd:, :vd].tocsr()
        self._vinv = _velocity_block_inverses(self.op, layout)
        diag = self.op.diagonal()[:vd]
        if np.any(diag <= 0.0):
            raise SingularBlock("velocity diagonal must be strictly positive")
        c_diag = -self.op.diagonal()[vd:]
        sigma = c_diag + self.b_block.multiply(self.b_block) @ (0.5 / diag)
        sigma[sigma <= 0.0] = 1.0  # decoupled pressure dof: benign unit scale
        self.pressure_scaling = sigma

    def correct(self, x: np.ndarray, r: np.ndarray) -> None:
        vd = self.layout.velocity_dof
        ru, rp = r[:vd], r[vd:]
        du = 0.5 * _apply_block_inverses(self._vinv, ru)
        dp = -self.omega * (rp - self.b_block @ du) / self.pressure_scaling
        x[:vd] += du
        x[vd:] += dp


def make_smoother(op, layout: BlockLayout, config: SmootherConfig):
    """Instantiate the per-level smoother state for a cycle.

    JA is damped pointwise Jacobi, ``x + omega * diag(A)^{-1} (b - A x)``,
    whatever the node blocks of ``layout``.
    """
    if config.kind is SmootherKind.JACOBI:
        return JacobiSmoother(op, config.omega)
    if config.kind is SmootherKind.GAUSS_SEIDEL:
        return GaussSeidelSmoother(op, layout)
    if config.kind is SmootherKind.VANKA:
        return VankaSmoother(op, layout, config.omega)
    if config.kind is SmootherKind.BRAESS_SARAZIN:
        return BraessSarazinSmoother(op, layout)
    if config.kind is SmootherKind.SEGREGATED_GS:
        return SegregatedGSSmoother(op, layout, config.omega)
    raise InvalidParameter(f"unknown smoother kind {config.kind}")
