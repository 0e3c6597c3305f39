"""Graph-based coarsening and the Galerkin level hierarchy.

Each level is coarsened as one node graph over all of its nodes, with
no edge between partitions: velocity nodes are adjacent where a node
block of the operator holds an entry that couples
(``sparse_core.coupling_mask``), but only within the linear-node and
within the quadratic-node partition, and pressure nodes are adjacent
through the vertex connectivity.  That keeps linear, quadratic and
pressure unknowns separated on every coarse level.  A "monolithic" mode
that lets all velocity nodes couple, across the linear/quadratic split,
is kept for comparison runs.

The graph is a boolean scipy CSR matrix and the coarse/fine split a
plain ``int8`` label array.  Coarse/fine selection is a deterministic
greedy independent set in ascending node order; interpolation weights
are uniform over the coarse neighbours of each fine node.  The node
prolongation is expanded to the dofs (each node row applies to every
component of the node), and coarse operators are formed by the
Galerkin triple product with it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CoarseningFailure, InvalidParameter
from .sparse_core import (
    BlockLayout,
    CoarseFactorization,
    as_operator,
    coarse_factor,
    coupling_mask,
    triple_product,
)

__all__ = [
    "COARSE",
    "FINE",
    "select_coarse",
    "build_prolongation",
    "Level",
    "Hierarchy",
    "build_hierarchy",
    "hierarchy_summary",
]

COARSE = 0
FINE = 1

SEPARATED = "separated"
MONOLITHIC = "monolithic"
MAX_LEVELS = 10


def select_coarse(graph: sp.csr_matrix) -> np.ndarray:
    """Greedy independent-set splitting in ascending node order.

    ``graph`` is a symmetric adjacency in CSR form without self-loops.
    A node still unlabeled when visited becomes coarse and its
    unlabeled neighbours become fine; isolated nodes become coarse.
    Every fine node therefore has at least one coarse neighbour, and no
    two coarse nodes are adjacent.  Returns the ``int8`` label
    (``COARSE`` or ``FINE``) of every node.
    """
    n = graph.shape[0]
    labels = np.full(n, -1, dtype=np.int8)
    indptr, indices = graph.indptr, graph.indices
    for i in range(n):
        if labels[i] != -1:
            continue
        labels[i] = COARSE
        nbrs = indices[indptr[i] : indptr[i + 1]]
        labels[nbrs[labels[nbrs] == -1]] = FINE
    return labels


def build_prolongation(graph: sp.csr_matrix, labels: np.ndarray) -> sp.csr_matrix:
    """Node-level interpolation on ``graph`` for the coarse/fine ``labels``.

    The coarse nodes are numbered in ascending order.  Coarse nodes
    inject; each fine node averages its ``k`` coarse neighbours with
    weight ``1/k``.  The last weight of every fine row is ``1 -
    (k-1)*(1/k)``, which makes the row sum to one exactly in floating
    point.
    """
    n = graph.shape[0]
    is_coarse = labels == COARSE
    coarse_index = np.cumsum(is_coarse) - 1
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    keep = ~is_coarse[rows] & is_coarse[graph.indices]
    coarse = np.flatnonzero(is_coarse)
    rows = np.concatenate([rows[keep], coarse])
    cols = coarse_index[np.concatenate([graph.indices[keep], coarse])]
    k = np.bincount(rows, minlength=n)
    if np.any(k == 0):
        i = int(np.flatnonzero(k == 0)[0])
        raise CoarseningFailure(
            f"fine node {i} has no coarse neighbour; the graph is inconsistent"
        )
    p = sp.csr_matrix(((1.0 / k)[rows], (rows, cols)), shape=(n, len(coarse)))
    p.data[p.indptr[1:] - 1] = 1.0 - (k - 1) * (1.0 / k)
    return p


@dataclass(eq=False)
class Level:
    """One hierarchy level: operator, partition sizes, transfer downwards."""

    operator: sp.csr_matrix
    layout: BlockLayout
    prolongation: sp.csr_matrix | None = None
    restriction: sp.csc_matrix | None = None  # prolongation.T, a view of its arrays
    pressure_adjacency: sp.csr_matrix | None = None

    @property
    def n_dof(self) -> int:
        return self.operator.shape[0]


@dataclass(eq=False)
class Hierarchy:
    """Galerkin level hierarchy with a factored coarsest operator."""

    levels: list[Level]
    coarse: CoarseFactorization

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def operator_complexity(self) -> float:
        return sum(lv.operator.nnz for lv in self.levels) / self.levels[0].operator.nnz


def _level_graph(level: Level, mode: str) -> sp.csr_matrix:
    """The node adjacency of one level as boolean CSR: symmetric, with
    sorted indices, no self-loops and no edge between partitions."""
    lay = level.layout
    nodes = lay.node_pattern(level.operator, coupling_mask(level.operator))
    nl, nv = lay.n_linear, lay.n_velocity_nodes
    if mode == SEPARATED:
        parts = [nodes[:nl, :nl], nodes[nl:nv, nl:nv]]
    else:
        parts = [nodes[:nv, :nv]]
    if lay.is_saddle:
        parts.append(level.pressure_adjacency)
    graph = sp.block_diag(parts, format="csr", dtype=bool)
    graph = graph + graph.T
    rows = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
    # cleared in place and then dropped: setdiag would insert the missing ones
    graph.data[rows == graph.indices] = False
    graph.eliminate_zeros()
    graph.sort_indices()
    return graph


def _dof_prolongation(p_nodes, fine: BlockLayout, coarse: BlockLayout) -> sp.csr_matrix:
    """Expand a node prolongation to the dofs, component by component."""
    node = fine.node_of_dof()
    component = np.arange(fine.total_dof) - fine.first_dof()[node]
    lengths = np.diff(p_nodes.indptr)[node]
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    pos = np.repeat(p_nodes.indptr[node] - indptr[:-1], lengths) + np.arange(indptr[-1])
    cols = coarse.first_dof()[p_nodes.indices[pos]] + np.repeat(component, lengths)
    return sp.csr_matrix(
        (p_nodes.data[pos], cols, indptr), shape=(fine.total_dof, coarse.total_dof)
    )


def build_hierarchy(
    system, mode: str = SEPARATED, coarse_size_cap: int = 500
) -> Hierarchy:
    """Coarsen a system down to a directly solvable operator.

    ``system`` may be an assembled block system or a plain square sparse
    matrix (treated as one scalar partition).  Coarsening stops once the
    monolithic size drops to ``coarse_size_cap``, ``MAX_LEVELS`` is
    reached, or a level keeps more than 90% of its nodes coarse.
    """
    if mode not in (SEPARATED, MONOLITHIC):
        raise InvalidParameter(f"unknown coarsening mode {mode!r}")
    op, layout, adjacency = as_operator(system)
    level = Level(operator=op, layout=layout, pressure_adjacency=adjacency)
    levels = [level]

    while level.n_dof > coarse_size_cap and len(levels) < MAX_LEVELS:
        lay = level.layout
        graph = _level_graph(level, mode)
        labels = select_coarse(graph)
        is_coarse = labels == COARSE
        n_coarse = int(np.count_nonzero(is_coarse))
        if n_coarse > 0.9 * len(labels):
            break
        p_nodes = build_prolongation(graph, labels)
        # coarse nodes keep the ascending order, so each partition's
        # coarse nodes stay contiguous
        n_v = int(np.count_nonzero(is_coarse[: lay.n_velocity_nodes]))
        n_q = int(np.count_nonzero(is_coarse[lay.n_linear : lay.n_velocity_nodes]))
        if mode == MONOLITHIC:
            n_q = 0
        coarse_lay = BlockLayout(
            n_linear=n_v - n_q,
            n_quadratic=n_q,
            n_pressure=n_coarse - n_v,
            block_size=lay.block_size,
        )
        level.prolongation = _dof_prolongation(p_nodes, lay, coarse_lay)
        level.restriction = level.prolongation.T
        coarse_op = triple_product(level.prolongation, level.operator)
        adj = None
        if lay.is_saddle:
            h = p_nodes[lay.n_velocity_nodes :, n_v:]
            adj = (h.T @ level.pressure_adjacency @ h).tocsr()
            adj.data[:] = 1.0
        level = Level(operator=coarse_op, layout=coarse_lay, pressure_adjacency=adj)
        levels.append(level)

    return Hierarchy(levels=levels, coarse=coarse_factor(levels[-1].operator))


def hierarchy_summary(hier: Hierarchy) -> list[dict]:
    """Per-level partition sizes and fill, for reporting."""
    rows = []
    nnz0 = hier.levels[0].operator.nnz
    for idx, lv in enumerate(hier.levels):
        lay = lv.layout
        rows.append(
            {
                "level": idx,
                "linear_dof": lay.block_size * lay.n_linear,
                "quadratic_dof": lay.block_size * lay.n_quadratic,
                "pressure_dof": lay.n_pressure,
                "total_dof": lv.n_dof,
                "nnz": lv.operator.nnz,
                "operator_complexity": sum(
                    l.operator.nnz for l in hier.levels[: idx + 1]
                )
                / nnz0,
            }
        )
    return rows

