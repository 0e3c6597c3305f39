"""Operator layout, the Galerkin product and the coarsest-level solver.

Every operator is one monolithic scipy CSR matrix; a
:class:`BlockLayout` names its partitions (linear-node, quadratic-node
and pressure unknowns) and node blocks.  This module adds the small
amount of machinery scipy does not provide directly: the one adapter
from a system, an ``(operator, layout)`` pair or a matrix to that
form, a symmetrizing Galerkin triple product, and a dense LU with
partial pivoting for the coarsest level of a hierarchy.
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
    "as_operator",
    "triple_product",
    "CoarseFactorization",
    "coarse_factor",
    "coarse_solve",
]

@dataclass(frozen=True)
class BlockLayout:
    """Partition metadata of a monolithic operator.

    Degrees of freedom are ordered linear-node components, then
    quadratic-node components, then pressure.  Every velocity node
    carries ``block_size`` components (3 for vector fields, 1 for the
    scalar hierarchies used inside the Schur preconditioner).
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
    def is_saddle(self) -> bool:
        return self.n_pressure > 0


def as_operator(system) -> tuple[sp.csr_matrix, BlockLayout, sp.csr_matrix | None]:
    """Operator, layout and pressure adjacency of a solver's input.

    ``system`` is an assembled ``BlockSystem``, an ``(operator,
    layout)`` pair or a square sparse matrix (one scalar partition).
    The assembled operator is returned as stored, not copied; only an
    assembled saddle system carries a pressure adjacency.
    """
    if isinstance(system, tuple):
        op, layout = system
        return op.tocsr(), layout, None
    if sp.issparse(system):
        op = system.tocsr()
        return op, BlockLayout(n_linear=op.shape[0], n_quadratic=0, block_size=1), None
    return system.monolithic(), system.layout, system.pressure_adjacency


def triple_product(p, a, symmetric: bool = False) -> sp.csr_matrix:
    """Galerkin projection ``P^T A P``.

    With ``symmetric=True`` the result is averaged with its transpose so
    roundoff cannot break the symmetry the projection preserves
    mathematically; the sparsity pattern is unchanged by that averaging.
    """
    if p.shape[0] != a.shape[0] or a.shape[0] != a.shape[1]:
        raise ShapeError(f"cannot form P^T A P with A {a.shape} and P {p.shape}")
    coarse = (p.T @ (a @ p)).tocsr()
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


def coarse_factor(a, out: np.ndarray | None = None) -> CoarseFactorization:
    """Factor a (small) square operator with dense partial-pivot LU.

    Works for SPD and indefinite saddle matrices alike.  Raises
    ``SingularCoarseMatrix`` if a pivot of the equilibrated matrix
    falls below ``1e-14`` times its largest entry.  The factors are
    computed in place in ``out``, a Fortran-ordered float array of the
    operator's shape, when one is given (many small factors can so
    share one buffer), else in a new array.
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
    if out is None:
        out = np.empty(dense.shape, order="F")
    if out.shape != dense.shape or not out.flags.f_contiguous:
        raise ShapeError(f"factor buffer must be Fortran-ordered {dense.shape}")
    scaled = np.multiply(scaling[:, None] * dense, scaling[None, :], out=out)
    largest = np.abs(scaled).max()  # read before the LU overwrites it
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
    which costs more than the solve itself for small Vanka patches.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (f.n,):
        raise ShapeError(f"right-hand side shape {b.shape} does not match n={f.n}")
    y, info = dgetrs(f.lu, f.piv, f.scaling * b)
    if info != 0:
        raise InvalidParameter(f"getrs rejected argument {-info}")
    return f.scaling * y

