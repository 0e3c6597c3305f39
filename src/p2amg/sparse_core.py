"""Operator layout, the Galerkin product and the coarsest-level solver.

Every operator is one monolithic scipy CSR matrix; a
:class:`BlockLayout` names its partitions (linear-node, quadratic-node
and pressure unknowns) and is the only code that knows how dofs are
numbered within nodes (``node_of_dof``, ``first_dof``, and
``node_pattern``, which node pairs an operator couples).  This module
adds the small amount of machinery scipy does not provide directly: the
one adapter from a system or a matrix to that form, the one rule that
says which stored entries couple, a symmetrizing Galerkin triple
product, and a dense LU with partial pivoting for the coarsest level
of a hierarchy (a Braess-Sarazin Schur complement small enough is a
one-level hierarchy of its own).  The Vanka patches do not use it:
``smoothers`` solves them through packed Cholesky factors of their
velocity blocks.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrs

from .errors import InvalidParameter, ShapeError, SingularCoarseMatrix

__all__ = [
    "BlockLayout",
    "COUPLING_TOL",
    "DIVERGENCE_TOL",
    "as_operator",
    "coupling_mask",
    "divergence_mask",
    "row_blocks",
    "triple_product",
    "CoarseFactorization",
    "coarse_factor",
    "coarse_solve",
]

#: Relative size at or below which an operator entry is rounding
#: residue and couples nothing (``coupling_mask``).
COUPLING_TOL = 1e-12
#: The same for a divergence entry, relative to ``max|B|``, since ``B``
#: has no diagonal to scale by (``divergence_mask``).
DIVERGENCE_TOL = 1e-13
_MASK_BLOCK = 1 << 18  # stored entries a pass over ``row_blocks`` reads at a time


@dataclass(frozen=True)
class BlockLayout:
    """Partition metadata of a monolithic operator.

    Degrees of freedom are ordered linear-node components, then
    quadratic-node components, then pressure.  Every velocity node
    carries ``block_size`` consecutive components (3 for vector fields,
    1 for the scalar hierarchies used inside the Schur preconditioner);
    every pressure dof is a node of its own.  Nodes are numbered in the
    same order: linear, quadratic, pressure.
    """

    n_linear: int
    n_quadratic: int
    n_pressure: int = 0
    block_size: int = 3

    @property
    def n_velocity_nodes(self) -> int:
        return self.n_linear + self.n_quadratic

    @property
    def velocity_dof(self) -> int:
        return self.block_size * self.n_velocity_nodes

    @property
    def total_dof(self) -> int:
        return self.velocity_dof + self.n_pressure

    @property
    def n_nodes(self) -> int:
        return self.n_velocity_nodes + self.n_pressure

    @property
    def is_saddle(self) -> bool:
        return self.n_pressure > 0

    def first_dof(self) -> np.ndarray:
        """First dof of every node, then ``total_dof``: node ``i`` owns
        the dofs ``first[i]:first[i + 1]``."""
        vel = self.block_size * np.arange(self.n_velocity_nodes)
        return np.concatenate([vel, self.velocity_dof + np.arange(self.n_pressure + 1)])

    def node_of_dof(self) -> np.ndarray:
        """Node index of every dof."""
        return np.repeat(np.arange(self.n_nodes), np.diff(self.first_dof()))

    def node_pattern(self, op: sp.csr_matrix, keep: np.ndarray | None = None) -> sp.csr_matrix:
        """Which node pairs the CSR ``op`` couples, as boolean ``n_nodes x
        n_nodes`` CSR with sorted indices: ``(i, j)`` is set when a dof
        row of node ``i`` stores an entry in a dof column of node ``j``
        where ``keep`` holds (everywhere when None; ``keep`` is not
        modified).  A node's dof rows are consecutive, so this is ``op``'s
        own arrays, columns mapped to nodes, row pointer read at
        ``first_dof``."""
        data = np.ones(op.nnz, dtype=bool) if keep is None else np.array(keep, dtype=bool)
        cols = self.node_of_dof().astype(op.indices.dtype)[op.indices]
        nodes = sp.csr_matrix(
            (data, cols, op.indptr[self.first_dof()]), shape=(self.n_nodes, self.n_nodes)
        )
        nodes.sum_duplicates()
        nodes.eliminate_zeros()
        return nodes


def as_operator(system) -> tuple[sp.csr_matrix, BlockLayout, sp.csr_matrix | None]:
    """Operator, layout and pressure adjacency of a solver's input.

    ``system`` is an assembled ``BlockSystem`` or a square sparse matrix
    (one scalar partition).  The assembled operator is returned as
    stored, not copied; only an assembled saddle system carries a
    pressure adjacency.
    """
    if sp.issparse(system):
        op = system.tocsr()
        return op, BlockLayout(n_linear=op.shape[0], n_quadratic=0, block_size=1), None
    return system.monolithic(), system.layout, system.pressure_adjacency


def coupling_mask(a: sp.csr_matrix) -> np.ndarray:
    """Which stored entries of a square CSR matrix couple.

    True where ``|a_ij| > COUPLING_TOL * sqrt(|a_ii a_jj|)``; computed a
    block of rows at a time, so the temporaries stay small next to the
    matrix.
    """
    scale = np.sqrt(COUPLING_TOL * np.abs(a.diagonal()))
    mask = np.empty(a.nnz, dtype=bool)
    for lo, hi in row_blocks(a.indptr):
        seg = slice(a.indptr[lo], a.indptr[hi])
        row_scale = np.repeat(scale[lo:hi], np.diff(a.indptr[lo : hi + 1]))
        np.greater(np.abs(a.data[seg]), row_scale * scale[a.indices[seg]], out=mask[seg])
    return mask


def row_blocks(indptr: np.ndarray):
    """Ranges ``(lo, hi)`` of the rows of a CSR row pointer, in order,
    that hold about ``_MASK_BLOCK`` stored entries each: a pass over the
    entries one range at a time keeps its temporaries small next to the
    matrix."""
    n = len(indptr) - 1
    step = max(1, _MASK_BLOCK * n // max(int(indptr[-1]), 1))
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def divergence_mask(values: np.ndarray) -> np.ndarray:
    """Which stored entries of a divergence block ``B`` couple.

    ``values`` holds the stored entries; true where ``|b_ij| >
    DIVERGENCE_TOL * max|B|``.
    """
    size = np.abs(values)
    return size > DIVERGENCE_TOL * size.max(initial=0.0)


def triple_product(p, a, symmetric: bool = False) -> sp.csr_matrix:
    """Galerkin projection ``P^T A P``, formed as ``R (A P)``.

    The restriction ``R = P^T`` is converted to CSR once, so the product
    stays CSR by CSR; ``P.T`` alone is CSC and would convert ``A P``.

    With ``symmetric=True`` the result is averaged with its transpose so
    roundoff cannot break the symmetry the projection preserves
    mathematically; the sparsity pattern is unchanged by that averaging.
    """
    if p.shape[0] != a.shape[0] or a.shape[0] != a.shape[1]:
        raise ShapeError(f"cannot form P^T A P with A {a.shape} and P {p.shape}")
    coarse = (p.T.tocsr() @ (a @ p)).tocsr()
    if symmetric:
        coarse = ((coarse + coarse.T) * 0.5).tocsr()
    coarse.sort_indices()
    return coarse


@dataclass(frozen=True)
class CoarseFactorization:
    """Dense LU with partial pivoting of a coarsest-level operator.

    The operator is symmetrically equilibrated by its row maxima before
    factoring (``scaling[i] = 1/sqrt(max_j |a_ij|)``), so the pivot
    test stays meaningful for saddle matrices whose velocity and
    pressure blocks differ in magnitude by many orders.
    """

    lu: np.ndarray
    piv: np.ndarray
    scaling: np.ndarray
    n: int


def coarse_factor(a) -> CoarseFactorization:
    """Factor a (small) square operator with dense partial-pivot LU.

    Works for SPD and indefinite saddle matrices alike.  Raises
    ``SingularCoarseMatrix`` if a pivot of the equilibrated matrix
    falls below ``1e-14`` times its largest entry.
    """
    if sp.issparse(a):
        dense = a.toarray()
    else:
        dense = np.array(a, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ShapeError(f"coarse operator must be square, got {dense.shape}")
    row_max = np.abs(dense).max(axis=1)
    if np.any(row_max == 0.0):
        raise SingularCoarseMatrix("coarse operator has an empty row")
    scaling = 1.0 / np.sqrt(row_max)
    scaled = scaling[:, None] * dense * scaling[None, :]
    largest = np.abs(scaled).max()  # read first: lu_factor may overwrite it
    with warnings.catch_warnings():
        # exact singularity is detected by the pivot check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(scaled, overwrite_a=True, check_finite=False)
    if np.abs(np.diag(lu)).min() < 1e-14 * largest:
        raise SingularCoarseMatrix(
            "coarse operator has a pivot below 1e-14 of its largest entry"
        )
    return CoarseFactorization(lu=lu, piv=piv, scaling=scaling, n=dense.shape[0])


def coarse_solve(f: CoarseFactorization, b: np.ndarray) -> np.ndarray:
    """Back-substitute a coarsest-level factorization.

    Calls LAPACK ``getrs`` directly, which is what
    ``scipy.linalg.lu_solve`` calls too, so the result is the same to
    the bit; the direct call skips ``lu_solve``'s batching wrapper,
    which costs more than the solve itself for small systems.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (f.n,):
        raise ShapeError(f"right-hand side shape {b.shape} does not match n={f.n}")
    y, info = dgetrs(f.lu, f.piv, f.scaling * b)
    if info != 0:
        raise InvalidParameter(f"getrs rejected argument {-info}")
    return f.scaling * y

