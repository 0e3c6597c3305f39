"""Smoothing procedures for the SPD and saddle-point systems.

For the SPD velocity systems: damped pointwise Jacobi and block
Gauss-Seidel over the 3x3 node blocks, by substitution through the unit
lower triangle ``I + S``, ``S = D^{-1} L`` (the CSR ``D^{-1}`` of the
inverse node blocks serves segregated GS too).  For saddle systems: the
multiplicative Vanka smoother (one patch per pressure dof, built for
all patches at once as one patch-to-node incidence and swept in
dependency waves of mutually uncoupled patches, which gives the
patch-by-patch result with one gather and one residual update per
wave, the update an in-place product over the wave's columns of the
stored symmetric CSR operator, read as CSC; each patch matrix is kept
as one packed factor ``L`` of ``L J L^T``, ``J`` negating the pressure
entry, which patches with byte-equal lower triangles share, set up from
the operator's lower triangle alone and solved by two packed triangular
solves), a
Braess-Sarazin step with diagonal velocity approximation and an inner
multigrid preconditioner for the approximate Schur complement, and a
segregated Gauss-Seidel (Uzawa-type) step.  Node blocks and patches take the dof-to-node
numbering from :class:`BlockLayout`; this module keeps no copy of it.

Every smoother exposes the exact solution as a fixed point and is
linear in ``(x, b)``, which the multigrid preconditioner relies on.
Each class precomputes its inverses and factors once per level.  Jacobi,
Vanka, Braess-Sarazin and segregated GS define only ``correct(x, r)``,
the correction they add to ``x`` for the residual ``r``, and
share one sweep loop, ``presmooth``/``postsmooth``: it starts from ``b -
A x``, or from ``b`` itself when ``x`` is zero, and carries the residual
from one sweep to the next; Vanka updates it as part of its sweep, and
for the others the loop computes ``b - A x`` once per sweep.  Block GS
runs its own sweeps, ``x <- T^{-1} (b - U x)``, which read the strict
block upper triangle ``U`` instead of ``A`` from any iterate and carry
the residual ``-U d`` after the first; it stores no ``U`` but applies
it as ``S^T D^T``, which is ``U`` for the symmetric operator, from the
node blocks ``D``.  Block GS alone has a post-smoothing
sweep of its own, the transposed one, and the cycle's caller decides
whether to use it (see :mod:`multigrid`).  ``presmooth`` returns the
residual of the smoothed iterate, which the cycle restricts and the
stand-alone solve takes from the forward post-smoothing of level 0.
"""
from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtpsv, dtrsv
from scipy.linalg.lapack import dpotrf, dtrttp

# Private kernel: csc_matvec(n_row, n_col, Ap, Ai, Ax, Xx, Yx) adds
# Ax[Ap[j]:Ap[j+1]] * Xx[j] into Yx[Ai[...]] in place, for each j.  Given
# the interleaved ranges [indptr[c], indptr[c+1]] of columns in descending
# order, every odd "gap" range [indptr[c_m+1], indptr[c_{m+1}]) is empty,
# so one call is the product over just those columns (``_subtract_columns``).
# tests/test_smoothers.py::test_subtract_columns_matches_sliced_product
# guards this contract.
from scipy.sparse._sparsetools import csc_matvec

# Private kernel: gstrs(trans, n, L..., n, U..., b) solves (L U) x = b, or
# (L U)^T x = b for trans "T", for L and U as CSC arrays (nnz, data, row
# indices, column pointer) with np.intc indices; it returns (x, info), x a
# new vector and b not modified.  Block GS passes the identity as L and the
# CSR arrays of a strictly lower S as U (the CSC arrays of the strictly upper
# S^T); both diagonals are implied unit, so "T" solves with I + S and "N"
# with (I + S)^T.  spsolve_triangular makes this call after a per-call copy.
# tests/test_smoothers.py::test_gstrs_unit_triangle_contract guards it.
from scipy.sparse.linalg._dsolve._superlu import gstrs

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


#: Default damping of segregated GS; every other kind defaults to 1.
_SGS_OMEGA = 0.125


@dataclass(frozen=True)
class SmootherConfig:
    """Smoother kind, damping, and pre/post sweep counts.

    ``omega`` left as None takes the kind's default: ``0.125`` for
    segregated GS, ``1`` otherwise.
    """

    kind: SmootherKind
    m_pre: int = 1
    m_post: int = 1
    omega: float | None = None

    def __post_init__(self):
        if self.omega is None:
            omega = _SGS_OMEGA if self.kind is SmootherKind.SEGREGATED_GS else 1.0
            object.__setattr__(self, "omega", omega)
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
    (re.compile(r"^Vanka(?:-(\d+)-(\d+)(?:-([\d.eE+-]+))?)?$"), SmootherKind.VANKA),
)


def parse_smoother(name: str) -> SmootherConfig:
    """Parse a smoother string such as ``GS-2-2`` or ``JA-1-1-0.5``.

    Accepted forms: ``JA-m-m-omega``, ``GS-m-m``, ``sGS-m-m``,
    ``Braess-Sarazin-m-m``, ``Vanka``, ``Vanka-m-m`` and ``Vanka-m-m-omega``.
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
            omega = float(groups[2]) if len(groups) > 2 and groups[2] else None
        except ValueError:
            raise InvalidParameter(f"bad damping in smoother string {name!r}") from None
        return SmootherConfig(kind=kind, m_pre=m_pre, m_post=m_post, omega=omega)
    raise InvalidParameter(f"cannot parse smoother string {name!r}")


# ---------------------------------------------------------------------------
# shared helpers


def _split_rows(op: sp.csr_matrix, hi: np.ndarray, lo: np.ndarray | None = None):
    """Which stored entries of the first ``len(hi)`` rows of the CSR
    ``op`` lie at ``col < hi[i]`` in their row ``i``, and at ``col >=
    lo[i]`` too if ``lo`` is given, and the row pointer of those entries:
    one pass over ``op.indices``, a block of rows at a time
    (``sparse_core.row_blocks``)."""
    ptr = op.indptr[: hi.size + 1]
    mask = np.empty(ptr[-1], dtype=bool)
    indptr = np.zeros_like(ptr)
    for start, stop in row_blocks(ptr):
        ends = ptr[start : stop + 1] - ptr[start]
        seg = mask[ptr[start] : ptr[stop]]
        cols = op.indices[ptr[start] : ptr[stop]]
        counts = np.diff(ends)
        np.less(cols, np.repeat(hi[start:stop].astype(cols.dtype), counts), out=seg)
        if lo is not None:
            seg &= cols >= np.repeat(lo[start:stop].astype(cols.dtype), counts)
        taken = np.zeros(seg.size + 1, dtype=indptr.dtype)  # taken before each entry
        np.cumsum(seg, out=taken[1:])
        indptr[start + 1 : stop + 1] = indptr[start] + taken[ends[1:]]
    return mask, indptr


def _masked_rows(op: sp.csr_matrix, mask: np.ndarray, indptr: np.ndarray) -> sp.csr_matrix:
    """The stored entries of the first rows of the CSR ``op`` where
    ``mask`` holds, in ``op``'s order, as CSR with the row pointer
    ``indptr`` of ``_split_rows``."""
    n = mask.size
    return sp.csr_matrix(
        (op.data[:n][mask], op.indices[:n][mask], indptr), shape=(indptr.size - 1, op.shape[1])
    )


def _velocity_block_inverses(op: sp.csr_matrix, layout: BlockLayout):
    """The inverses of the diagonal node blocks ``D`` of the velocity
    partition, as block-diagonal CSR over the velocity dofs with exact
    zeros dropped, and ``D`` itself, the entries of the velocity rows
    between the start and the end of each row's node, as CSR read from
    ``op``'s own arrays by one row split (``_split_rows``)."""
    bs, n, vd = layout.block_size, layout.n_velocity_nodes, layout.velocity_dof
    node, first = layout.node_of_dof()[:vd], layout.first_dof()
    diag = _masked_rows(op, *_split_rows(op, first[node + 1], first[node]))
    coo = diag.tocoo()
    i = node[coo.row]
    blocks = np.zeros((n, bs, bs))
    blocks[i, coo.row - first[i], coo.col - first[i]] = coo.data
    try:
        blocks = np.linalg.inv(blocks)
    except np.linalg.LinAlgError as exc:
        raise SingularBlock("a diagonal velocity node block is singular") from exc
    inverses = sp.bsr_matrix((blocks, np.arange(n), np.arange(n + 1)), shape=(vd, vd)).tocsr()
    inverses.eliminate_zeros()
    return inverses, diag


def _block_triangles(op: sp.csr_matrix, layout: BlockLayout):
    """The inverse node blocks ``D^{-1}``, the strictly lower ``S =
    D^{-1} L`` and the node blocks ``D`` of ``op = D + L + U``, as CSR.

    ``I + S`` is unit lower triangular, since its diagonal blocks are
    exact identities, so the block lower triangle ``T = D (I + S)`` needs
    no factorization.  ``D`` and ``L`` are read from ``op``'s own arrays
    by two row splits, so no copy of the whole operator is made.  ``U``
    is not formed: for a symmetric ``op`` it is ``L^T = S^T D^T``.
    """
    inverses, diag = _velocity_block_inverses(op, layout)
    node, first = layout.node_of_dof(), layout.first_dof()
    unit = inverses @ _masked_rows(op, *_split_rows(op, first[node]))
    return inverses, unit, diag


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

    ``op = T + U`` with ``T = D + L = D (I + S)`` the block lower triangle,
    ``S = D^{-1} L`` formed once, and ``U`` the strict block upper
    triangle; ``T^{-1} r = (I + S)^{-1} D^{-1} r`` and ``T^{-T} r = D^{-T}
    (I + S)^{-T} r`` are unit substitutions (``gstrs``).  ``op`` is
    symmetric (to the bit on Galerkin and Schur levels, to rounding on
    the assembled level 0), so ``U = L^T`` is not stored but applied as
    ``S^T D^T``, and ``U^T`` as ``D S``, from ``S`` and the node blocks
    ``D``.  A forward sweep is ``x <- T^{-1} (b - U x)``, which reads
    ``U`` instead of forming ``b - A x``, and from zero is ``x = T^{-1}
    b``.  Its change ``d`` leaves the residual ``b - T x - U x = -U d``,
    which the next sweep, ``d = T^{-1} r, x += d``, and ``presmooth``'s
    caller take instead of a full matvec.  The post-smoothing sweep is
    the exact transpose, ``x <- T^{-T} (b - U^T x)``, which keeps a
    V-cycle preconditioner self-adjoint; as ``op = T^T + U^T``, it is the
    backward block sweep and carries ``-U^T d``.  The node blocks are the
    velocity blocks, so ``op`` has no pressure partition.
    """

    def __init__(self, op, layout: BlockLayout):
        if layout.is_saddle:
            raise MalformedSystem("block Gauss-Seidel requires a system without pressure")
        self.op = op
        self._inverses, self._strict, self._diag = _block_triangles(op, layout)
        n, eye, unit = op.shape[0], sp.identity(op.shape[0], format="csc"), self._strict
        # gstrs's arguments between ``trans`` and ``b``: L = I and U = S^T
        self._unit = (n, eye.nnz, eye.data, eye.indices, eye.indptr,
                      n, unit.nnz, unit.data, unit.indices, unit.indptr)
        # the transposes: views that share the arrays above
        self._inverses_t, self._strict_t, self._diag_t = self._inverses.T, unit.T, self._diag.T

    def _solve(self, r):  # T^{-1} r
        return gstrs("T", *self._unit, self._inverses @ r)[0]

    def _solve_t(self, r):  # T^{-T} r
        return self._inverses_t @ gstrs("N", *self._unit, r)[0]

    def _upper(self, x):  # U x = S^T D^T x
        return self._strict_t @ (self._diag_t @ x)

    def _upper_t(self, x):  # U^T x = D S x
        return self._diag @ (self._strict @ x)

    @staticmethod
    def _gs_sweeps(solve, upper, x, b, sweeps, residual):
        """``sweeps`` sweeps ``x <- solve(b - upper(x))`` on ``x`` in
        place, the later ones on the carried residual; return ``b - op
        @ x`` if ``residual``, else None."""
        y = solve(b - upper(x) if x.any() else b)
        d = y - x
        x[:] = y
        for _ in range(sweeps - 1):
            d = solve(-upper(d))
            x += d
        return -upper(d) if residual else None

    def presmooth(self, x, b, sweeps):
        """Run ``sweeps`` forward sweeps on ``x`` in place; return ``b -
        op @ x``."""
        if not sweeps:
            return self._residual(x, b)
        return self._gs_sweeps(self._solve, self._upper, x, b, sweeps, True)

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
    between their nodes (``layout.node_pattern``); a patch holds whole
    nodes, so that is the coupling of their dofs.  Vanka's ``op`` is
    symmetric, so the coupling is too: its strict lower triangle holds
    each coupled pair, with no transpose added.  Two patches that share
    a node couple too: every velocity node row stores its diagonal, so
    the node pattern already holds the pair, and each pressure node
    belongs to one patch.  A patch's wave is one more than the latest
    wave of any earlier patch it couples to, so the patches of one wave
    have disjoint, mutually uncoupled dofs.  Returns the patch indices of
    each wave, in patch order within a wave.
    """
    coupling = patches @ layout.node_pattern(op) @ patches.T
    coupling = sp.tril(coupling, k=-1, format="csr")
    n_patches = patches.shape[0]
    wave = np.zeros(n_patches, dtype=np.intp)
    for p in range(1, n_patches):
        earlier = coupling.indices[coupling.indptr[p] : coupling.indptr[p + 1]]
        if earlier.size:
            wave[p] = wave[earlier].max() + 1
    order = np.argsort(wave, kind="stable")
    return np.split(order, np.cumsum(np.bincount(wave))[:-1])


def _column_ranges(op: sp.csr_matrix, cols: np.ndarray):
    """Interleaved ``[indptr[c], indptr[c+1]]`` of the columns ``cols``
    in descending column order, and the permutation of ``cols`` into
    that order, both in the dtype of ``op.indices``.  ``op`` is
    symmetric CSR (the assembled operator to rounding), so its CSR
    arrays are its CSC arrays."""
    order = np.argsort(cols)[::-1].astype(op.indices.dtype)
    ranges = np.empty(2 * cols.size, dtype=op.indices.dtype)
    ranges[0::2] = op.indptr[cols[order]]
    ranges[1::2] = op.indptr[cols[order] + 1]
    return ranges, order


def _subtract_columns(op, ranges, order, d, r) -> None:
    """``r -= op[:, cols] @ d`` in place, for the ``ranges`` and
    ``order`` of ``_column_ranges(op, cols)``: one product over
    ``op``'s own arrays, which touches only the rows of those columns'
    entries."""
    xx = np.zeros(2 * d.size - 1)  # the odd slots belong to empty ranges
    np.negative(d[order], out=xx[0::2])
    csc_matvec(op.shape[0], xx.size, ranges, op.indices, op.data, xx, r)


@dataclass(frozen=True)
class _VankaWave:
    """Patches with disjoint, uncoupled dofs, solved as one batch.

    ``ranges`` and ``order`` are ``_column_ranges(op, dofs)``.
    """

    members: np.ndarray  # patch indices, in patch order
    dofs: np.ndarray  # concatenated patch dofs, each patch's pressure dof last
    ranges: np.ndarray  # interleaved column ranges of ``dofs``, descending
    order: np.ndarray  # permutation of ``dofs`` into descending order
    pressure: np.ndarray  # position of each patch's pressure dof in ``dofs``
    factors: list  # (patch size, packed factor, first position in ``dofs``) per patch


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
    product over the symmetric ``op``'s own arrays, restricted to the
    wave's column ranges (``_subtract_columns``), so no column block is
    sliced and no CSC copy is kept.

    In ascending dof order a patch is ``K_p = [[A_p, g_p], [h_p^T,
    -c_p]]`` with its one pressure dof last and ``A_p`` a principal block
    of the SPD velocity operator.  ``op`` is symmetric, ``g_p = h_p``, so
    ``K_p`` is quasi-definite and factors without pivoting as ``L J L^T``
    with ``L = [[L_A, 0], [l^T, sigma]]``, ``A_p = L_A L_A^T``, ``l =
    L_A^{-1} h_p``, ``sigma^2 = c_p + l . l`` (the one-pressure Schur
    complement) and ``J`` the identity with its pressure entry negated.
    The sweep solves each patch in place as ``L^{-T} J L^{-1} r``: one
    packed triangular solve (``dtpsv``) per patch, one sign flip of the
    wave's pressure entries, and one transposed solve per patch.  The
    factor reads only the lower triangle of ``K_p``, and a patch's dofs
    ascend, so setup reads only the lower triangle of ``op``, split off
    once per level (``_split_rows``) and sliced once per wave.  A patch
    that needs a factor is scattered into one column-major ``k x k``
    scratch block; ``L_A`` comes from the blocked Cholesky ``dpotrf``,
    ``l`` from ``dtrsv``, and ``L`` is written over the block and packed
    (``dtrttp``) into one per-level buffer.  A patch whose ``A_p`` is not
    positive definite, or whose ``sigma^2`` is not positive, raises
    :class:`SingularPatch`.  ``_dofs`` lists the patches in patch order,
    one patch per pressure dof.

    On a structured mesh most patches are translates of one another, so
    each distinct patch matrix is factored once: a patch whose size and
    SHA-256 digest of its sliced rows (values, columns and row pointer,
    both relative to the patch), which fix every byte its factor is
    computed from, equal an earlier patch's takes that patch's packed
    factor without being scattered.  Equal bytes give bitwise equal
    factors, so the sweep is bitwise that of one factor per patch, up to
    a digest collision.  Equal blocks have equal diagonals, so a patch
    whose diagonal no other patch has is not digested.  The level's
    packed buffer holds the distinct factors only: it starts a quarter
    above one factor per distinct diagonal, doubles in place should a
    new factor overrun it, and is cut to the factors written.

    The waves' ``dofs``, ``ranges``, ``order`` and ``pressure`` are
    slices of one level-wide buffer per kind, allocated before the wave
    loop from the known totals.  Allocated wave by wave, hundreds of
    small arrays would outlive the setup between each wave's transients
    (the triangle's slice, the factor copies), which pins the heap above
    them, so that the process's peak grew from one setup to the next.
    """

    def __init__(self, op, layout: BlockLayout, omega: float = 1.0):
        self.op = op.tocsr()
        self.omega = omega
        patches = _patch_nodes(self.op, layout)
        # each patch's nodes expanded to their dofs, in ascending order, so
        # each patch's pressure dof comes last
        first = layout.first_dof()
        node_sizes = np.diff(first)[patches.indices]
        bounds = np.concatenate([[0], np.cumsum(node_sizes)])
        dofs = np.repeat(first[patches.indices] - bounds[:-1], node_sizes) + np.arange(bounds[-1])
        bounds = bounds[patches.indptr]
        self._dofs = np.split(dofs.astype(self.op.indices.dtype), bounds[1:-1])
        sizes = np.diff(bounds)
        waves = _dependency_waves(self.op, patches, layout)
        self._waves = []
        # full-storage scratch for the largest patch
        scratch = np.empty(int(sizes.max()) ** 2)
        start = 0
        # the lower triangle, diagonal included: all that a factor reads
        lower = _masked_rows(self.op, *_split_rows(self.op, np.arange(1, self.op.shape[0] + 1)))
        # (k, digest of a patch's rows of ``lower``) -> the first such
        # patch's factor offset
        diagonal = self.op.diagonal()
        diagonals = [hash(diagonal[d].tobytes()) for d in self._dofs]
        diagonal_count = Counter(diagonals)
        distinct = {}
        # one packed buffer per level: a single large allocation, which the
        # allocator maps and unmaps whole instead of leaving heap holes.
        # Equal patch blocks have equal diagonals, so each distinct diagonal
        # takes at least one factor; the buffer starts a quarter above that
        # (the factors reached 1.08x it on the Stokes levels up to n = 16)
        # and grows in place should they overrun it
        least = sum(k * (k + 1) // 2 for k in map(int, dict(zip(diagonals, sizes)).values()))
        packed = np.empty(least + least // 4)
        # the waves' own arrays, each wave a slice of one buffer per kind
        total, dtype = int(sizes.sum()), self.op.indices.dtype
        wave_dofs, wave_order = np.empty(total, dtype), np.empty(total, dtype)
        wave_ranges = np.empty(2 * total, dtype)
        wave_pressure = np.empty(sizes.size, dtype=np.intp)
        lo_dof = lo_patch = 0
        for members in waves:
            m = sizes[members]
            hi_dof, hi_patch = lo_dof + int(m.sum()), lo_patch + len(members)
            dofs = wave_dofs[lo_dof:hi_dof]
            np.concatenate([self._dofs[p] for p in members], out=dofs)
            bounds = np.concatenate([[0], np.cumsum(m)])
            # the patches of a wave are uncoupled, so lower[dofs][:, dofs]
            # is block diagonal: the entries of a patch's rows are its own,
            # their columns made relative to the patch and each row's
            # position in its patch kept per entry
            local = lower[dofs][:, dofs]
            lengths = np.diff(local.indptr)
            base = np.repeat(bounds[:-1], m).astype(dtype)  # each row's patch start
            cols = local.indices - np.repeat(base, lengths)
            rows = np.repeat(np.arange(dofs.size, dtype=dtype) - base, lengths)
            factors = []
            for p, k, lo in zip(members, m, bounds):
                entries = slice(local.indptr[lo], local.indptr[lo + k])
                key = None
                if diagonal_count[diagonals[p]] > 1:
                    digest = hashlib.sha256(local.data[entries])
                    digest.update(cols[entries])
                    digest.update(local.indptr[lo : lo + k + 1] - local.indptr[lo])
                    key = (k, digest.digest())
                    if key in distinct:
                        factors.append((k, distinct[key], lo))
                        continue
                # the patch matrix in column-major full storage, of which
                # only the lower triangle is written and read
                block = scratch[: k * k]
                block[:] = 0.0
                block[cols[entries] * k + rows[entries]] = local.data[entries]
                n = k - 1
                a = block.reshape(k, k, order="F")
                factor, info = dpotrf(a[:n, :n], lower=1, clean=0)  # on a copy of A_p
                if info != 0:
                    raise SingularPatch(
                        f"velocity block of patch {p} is not positive definite"
                    )
                a[:n, :n] = factor
                a[n, :n] = dtrsv(factor, a[n, :n], lower=1)  # l = L_A^{-1} h_p
                sigma2 = a[n, :n] @ a[n, :n] - a[n, n]  # c_p + l . l
                if sigma2 <= 0.0:
                    raise SingularPatch(f"Schur complement of patch {p} is not positive")
                a[n, n] = np.sqrt(sigma2)
                size = k * (k + 1) // 2
                if start + size > packed.size:
                    # no view of the buffer exists yet, so it may move
                    packed.resize(max(2 * packed.size, start + size), refcheck=False)
                packed[start : start + size] = dtrttp(a, uplo="L")[0]
                if key is not None:
                    distinct[key] = start
                factors.append((k, start, lo))
                start += size
            ranges, order = wave_ranges[2 * lo_dof : 2 * hi_dof], wave_order[lo_dof:hi_dof]
            ranges[:], order[:] = _column_ranges(self.op, dofs)
            pressure = wave_pressure[lo_patch:hi_patch]
            np.subtract(bounds[1:], 1, out=pressure)
            self._waves.append(
                _VankaWave(members=members, dofs=dofs, ranges=ranges, order=order,
                           pressure=pressure, factors=factors)
            )
            lo_dof, lo_patch = hi_dof, hi_patch
        # cut the buffer to the distinct factors, so that no unwritten
        # address space stays reserved, then take the views; no view of
        # it exists before this point
        packed.resize(start, refcheck=False)
        for wave in self._waves:
            wave.factors[:] = [(k, packed[offset : offset + k * (k + 1) // 2], lo)
                               for k, offset, lo in wave.factors]

    @staticmethod
    def _solve_wave(wave: _VankaWave, r_wave: np.ndarray) -> np.ndarray:
        """Exact patch solves ``L^{-T} J L^{-1} r`` of one wave for its
        gathered residual, computed in place in ``r_wave``.  ``dtpsv``
        takes ``(n, ap, x, incx, offx, lower, trans, diag, overwrite_x)``
        positionally, which f2py parses faster than keywords."""
        for k, ap, lo in wave.factors:
            dtpsv(k, ap, r_wave, 1, lo, 1, 0, 0, 1)
        r_wave[wave.pressure] *= -1.0
        for k, ap, lo in wave.factors:
            dtpsv(k, ap, r_wave, 1, lo, 1, 1, 0, 1)
        return r_wave

    def correct(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        for wave in self._waves:
            delta = self._solve_wave(wave, r[wave.dofs])
            delta *= self.omega
            x[wave.dofs] += delta
            _subtract_columns(self.op, wave.ranges, wave.order, delta, r)
        return r


# ---------------------------------------------------------------------------
# Braess-Sarazin


def _saddle_split(op: sp.csr_matrix, layout: BlockLayout):
    """``B``, ``Ahat^{-1} = (2 diag(A))^{-1}`` and ``diag(C)`` of the saddle
    operator ``[[A, B^T], [B, -C]]``, the pieces Braess-Sarazin and
    segregated GS start from."""
    if not layout.is_saddle:
        raise MalformedSystem("a saddle smoother requires a saddle system")
    vd = layout.velocity_dof
    diag = op.diagonal()
    if np.any(diag[:vd] <= 0.0):
        raise SingularBlock("velocity diagonal must be strictly positive")
    return op[vd:, :vd].tocsr(), 0.5 / diag[:vd], -diag[vd:]


def build_schur_preconditioner(
    op: sp.csr_matrix, b_block: sp.csr_matrix, ahat_inv: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Approximate inverse of the Schur complement ``C + B Ahat^{-1} B^T``.

    ``B`` is ``b_block``, ``Ahat^{-1}`` the diagonal ``ahat_inv`` and ``-C``
    the pressure block of ``op``; the Schur matrix is formed explicitly
    and symmetrised.  The returned callable ``r -> Shat^{-1} r`` is one
    GS-1-1 V-cycle of its scalar multigrid hierarchy, at the default
    coarse size; a one-level hierarchy makes it the dense LU solve.
    """
    # imported here: multigrid imports this module
    from .coarsening import build_hierarchy
    from .multigrid import CycleConfig, Preconditioner

    vd = b_block.shape[1]
    schur = (-op[vd:, vd:] + b_block @ sp.diags(ahat_inv) @ b_block.T).tocsr()
    schur = ((schur + schur.T) * 0.5).tocsr()
    gs_1_1 = CycleConfig(smoother=SmootherConfig(SmootherKind.GAUSS_SEIDEL))
    return Preconditioner(build_hierarchy(schur), gs_1_1)


class BraessSarazinSmoother(_Smoother):
    """Preconditioned Richardson step with the Braess-Sarazin block factor.

    One sweep applies the inverse of ``[[Ahat, B^T], [B, B Ahat^{-1} B^T
    - Shat]]`` to the current residual, where ``Ahat = 2 diag(A)`` and
    ``Shat`` approximates ``C + B Ahat^{-1} B^T``.  ``schur`` is the
    callable ``r -> Shat^{-1} r`` of :func:`build_schur_preconditioner`.
    """

    def __init__(self, op, layout: BlockLayout):
        self.op = op.tocsr()
        self.b_block, self._ahat_inv, _ = _saddle_split(self.op, layout)
        self._b_block_t = self.b_block.T  # a view of b_block's arrays
        self.schur = build_schur_preconditioner(self.op, self.b_block, self._ahat_inv)

    def correct(self, x: np.ndarray, r: np.ndarray) -> None:
        vd = self.b_block.shape[1]
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

    def __init__(self, op, layout: BlockLayout, omega: float = _SGS_OMEGA):
        if not omega > 0.0:
            raise InvalidParameter("omega must be positive")
        self.op = op.tocsr()
        self.omega = omega
        self.b_block, ahat_inv, c_diag = _saddle_split(self.op, layout)
        self._vinv = _velocity_block_inverses(self.op, layout)[0]
        sigma = c_diag + self.b_block.multiply(self.b_block) @ ahat_inv
        sigma[sigma <= 0.0] = 1.0  # decoupled pressure dof: benign unit scale
        self.pressure_scaling = sigma

    def correct(self, x: np.ndarray, r: np.ndarray) -> None:
        vd = self.b_block.shape[1]
        ru, rp = r[:vd], r[vd:]
        du = 0.5 * (self._vinv @ ru)
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
