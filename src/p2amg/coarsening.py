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

Coarse/fine selection is a deterministic greedy independent set in
ascending node order; interpolation weights are uniform over the
coarse neighbours of each fine node.  The node prolongation is expanded
to the dofs (each node row applies to every component of the node), and
coarse operators are formed by the Galerkin triple product with it.
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
    "NodeGraph",
    "CFSplit",
    "build_node_graph",
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


@dataclass(frozen=True)
class NodeGraph:
    """Symmetric adjacency (CSR arrays) over the nodes of one level."""

    indptr: np.ndarray
    indices: np.ndarray
    n_nodes: int


def build_node_graph(matrix) -> NodeGraph:
    """Adjacency of the nodes of a node-level matrix.

    Two nodes are adjacent iff ``matrix`` stores an off-diagonal entry
    between them.  The graph is symmetrized and self-loops are dropped.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise InvalidParameter(f"partition matrix must be square, got {matrix.shape}")
    n = matrix.shape[0]
    coo = matrix.tocoo()
    off = coo.row != coo.col
    i, j = coo.row[off], coo.col[off]
    pattern = sp.coo_matrix(
        (np.ones(2 * len(i)), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    ).tocsr()
    pattern.sum_duplicates()
    pattern.sort_indices()
    return NodeGraph(
        indptr=pattern.indptr.copy(), indices=pattern.indices.copy(), n_nodes=n
    )


@dataclass(frozen=True)
class CFSplit:
    """Coarse/fine labels plus the compressed coarse numbering."""

    labels: np.ndarray
    coarse_index: np.ndarray
    n_coarse: int


def select_coarse(graph: NodeGraph) -> CFSplit:
    """Greedy independent-set splitting in ascending node order.

    A node still unlabeled when visited becomes coarse and its
    unlabeled neighbours become fine; isolated nodes become coarse.
    Every fine node therefore has at least one coarse neighbour, and no
    two coarse nodes are adjacent.
    """
    labels = np.full(graph.n_nodes, -1, dtype=np.int8)
    indptr, indices = graph.indptr, graph.indices
    for i in range(graph.n_nodes):
        if labels[i] != -1:
            continue
        labels[i] = COARSE
        nbrs = indices[indptr[i] : indptr[i + 1]]
        labels[nbrs[labels[nbrs] == -1]] = FINE
    coarse_index = np.full(graph.n_nodes, -1, dtype=np.int64)
    coarse = np.flatnonzero(labels == COARSE)
    coarse_index[coarse] = np.arange(len(coarse))
    return CFSplit(labels=labels, coarse_index=coarse_index, n_coarse=len(coarse))


def build_prolongation(split: CFSplit, graph: NodeGraph) -> sp.csr_matrix:
    """Node-level interpolation of one graph.

    Coarse nodes inject; each fine node averages its ``k`` coarse
    neighbours with weight ``1/k``.  The last weight of every fine row
    is ``1 - (k-1)*(1/k)``, which makes the row sum to one exactly in
    floating point.
    """
    n = graph.n_nodes
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    keep = (split.labels[rows] != COARSE) & (split.labels[graph.indices] == COARSE)
    coarse = np.flatnonzero(split.labels == COARSE)
    rows = np.concatenate([rows[keep], coarse])
    cols = split.coarse_index[np.concatenate([graph.indices[keep], coarse])]
    k = np.bincount(rows, minlength=n)
    if np.any(k == 0):
        i = int(np.flatnonzero(k == 0)[0])
        raise CoarseningFailure(
            f"fine node {i} has no coarse neighbour; the graph is inconsistent"
        )
    p = sp.csr_matrix(((1.0 / k)[rows], (rows, cols)), shape=(n, split.n_coarse))
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


def _level_graph(level: Level, mode: str) -> NodeGraph:
    """The node graph of one level, with no edge between partitions."""
    lay = level.layout
    nodes = lay.node_pattern(level.operator, coupling_mask(level.operator))
    nl, nv = lay.n_linear, lay.n_velocity_nodes
    if mode == SEPARATED:
        parts = [nodes[:nl, :nl], nodes[nl:nv, nl:nv]]
    else:
        parts = [nodes[:nv, :nv]]
    if lay.is_saddle:
        parts.append(level.pressure_adjacency)
    return build_node_graph(sp.block_diag(parts))


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
        split = select_coarse(graph)
        if split.n_coarse > 0.9 * graph.n_nodes:
            break
        p_nodes = build_prolongation(split, graph)
        # coarse nodes keep the ascending order, so each partition's
        # coarse nodes stay contiguous
        is_coarse = split.labels == COARSE
        n_v = int(np.count_nonzero(is_coarse[: lay.n_velocity_nodes]))
        n_q = int(np.count_nonzero(is_coarse[lay.n_linear : lay.n_velocity_nodes]))
        if mode == MONOLITHIC:
            n_q = 0
        coarse_lay = BlockLayout(
            n_linear=n_v - n_q,
            n_quadratic=n_q,
            n_pressure=split.n_coarse - n_v,
            block_size=lay.block_size,
        )
        level.prolongation = _dof_prolongation(p_nodes, lay, coarse_lay)
        level.restriction = level.prolongation.T
        coarse_op = triple_product(level.prolongation, level.operator, symmetric=True)
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

