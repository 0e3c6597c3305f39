"""Graph-based coarsening and the Galerkin level hierarchy.

Node graphs are built per partition from the structural pattern of that
partition's diagonal block (linear-node block, quadratic-node block,
and the vertex connectivity for pressure); the couplings between
partitions are deliberately ignored, which keeps linear and quadratic
unknowns separated on every coarse level.  A "monolithic" mode that
builds one graph over all velocity nodes, couplings included, is kept
for comparison runs.

Coarse/fine selection is a deterministic greedy independent set in
ascending node order; interpolation weights are uniform over the
coarse neighbours of each fine node.  Coarse operators are formed by
the Galerkin triple product with the block-diagonal prolongation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import CoarseningFailure, InvalidParameter
from .sparse_core import (
    BlockLayout,
    CoarseFactorization,
    as_operator,
    coarse_factor,
    triple_product,
)

__all__ = [
    "COARSE",
    "FINE",
    "NodeGraph",
    "CFSplit",
    "Prolongation",
    "build_node_graph",
    "select_coarse",
    "build_prolongation",
    "Level",
    "Hierarchy",
    "build_hierarchy",
    "hierarchy_summary",
    "write_hierarchy_csv",
]

COARSE = 0
FINE = 1

SEPARATED = "separated"
MONOLITHIC = "monolithic"


@dataclass(frozen=True)
class NodeGraph:
    """Symmetric adjacency (CSR arrays) over the nodes of one partition."""

    indptr: np.ndarray
    indices: np.ndarray
    n_nodes: int

    @property
    def n_edges(self) -> int:
        return self.indices.shape[0] // 2


def build_node_graph(matrix, block_size: int = 1) -> NodeGraph:
    """Adjacency of node blocks from the stored pattern of ``matrix``.

    Two nodes are adjacent iff the corresponding off-diagonal
    ``block_size`` x ``block_size`` block holds at least one stored
    entry.  The graph is symmetrized and self-loops are dropped.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise InvalidParameter(f"partition matrix must be square, got {matrix.shape}")
    if matrix.shape[0] % block_size:
        raise InvalidParameter(
            f"matrix size {matrix.shape[0]} is not a multiple of block size {block_size}"
        )
    n = matrix.shape[0] // block_size
    coo = matrix.tocoo()
    i = coo.row // block_size
    j = coo.col // block_size
    off = i != j
    i, j = i[off], j[off]
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
    """Scalar interpolation block of one partition.

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


@dataclass(frozen=True)
class Prolongation:
    """Block-diagonal prolongation built from per-partition blocks.

    Each scalar block applies identically to all components of a node;
    ``matrix`` expands it to the monolithic dof numbering.
    """

    blocks: tuple[sp.csr_matrix, ...]
    components: tuple[int, ...]

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        expanded = [
            sp.kron(b, sp.identity(c, format="csr"), format="csr") if c > 1 else b
            for b, c in zip(self.blocks, self.components)
        ]
        if len(expanded) == 1:
            full = expanded[0].tocsr()
        else:
            full = sp.block_diag(expanded, format="csr")
        full.sort_indices()
        return full


@dataclass(eq=False)
class Level:
    """One hierarchy level: operator, partition sizes, transfer downwards."""

    operator: sp.csr_matrix
    layout: BlockLayout
    prolongation: Prolongation | None = None
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


def _partition_graphs(level: Level, mode: str) -> tuple[list[NodeGraph], list[int]]:
    """Graphs and component counts of the partitions of one level."""
    lay = level.layout
    op = level.operator
    bs = lay.block_size
    vd = lay.velocity_dof
    graphs: list[NodeGraph] = []
    comps: list[int] = []
    if mode == SEPARATED:
        split = bs * lay.n_linear
        if lay.n_linear:
            graphs.append(build_node_graph(op[:split, :split], bs))
            comps.append(bs)
        if lay.n_quadratic:
            graphs.append(build_node_graph(op[split:vd, split:vd], bs))
            comps.append(bs)
    else:
        graphs.append(build_node_graph(op[:vd, :vd], bs))
        comps.append(bs)
    if lay.is_saddle:
        graphs.append(build_node_graph(level.pressure_adjacency, 1))
        comps.append(1)
    return graphs, comps


def _coarse_layout(lay: BlockLayout, mode: str, counts: list[int]) -> BlockLayout:
    it = iter(counts)
    if mode == SEPARATED:
        n_l = next(it) if lay.n_linear else 0
        n_q = next(it) if lay.n_quadratic else 0
    else:
        n_l = next(it)
        n_q = 0
    n_p = next(it) if lay.is_saddle else 0
    return BlockLayout(
        n_linear=n_l, n_quadratic=n_q, n_pressure=n_p, block_size=lay.block_size
    )


def build_hierarchy(
    system,
    mode: str = SEPARATED,
    coarse_size_cap: int = 500,
    max_levels: int = 10,
) -> Hierarchy:
    """Coarsen a system down to a directly solvable operator.

    ``system`` may be an assembled block system, a plain square sparse
    matrix (treated as one scalar partition) or an ``(operator,
    layout)`` pair.  Coarsening stops once the monolithic size drops to
    ``coarse_size_cap``, ``max_levels`` is reached, or a level keeps
    more than 90% of its nodes coarse.
    """
    if mode not in (SEPARATED, MONOLITHIC):
        raise InvalidParameter(f"unknown coarsening mode {mode!r}")
    op, layout, adjacency = as_operator(system)
    level = Level(operator=op, layout=layout, pressure_adjacency=adjacency)
    levels = [level]

    while level.n_dof > coarse_size_cap and len(levels) < max_levels:
        graphs, comps = _partition_graphs(level, mode)
        splits = [select_coarse(g) for g in graphs]
        n_nodes = sum(g.n_nodes for g in graphs)
        n_coarse = sum(s.n_coarse for s in splits)
        if n_coarse > 0.9 * n_nodes:
            break
        blocks = tuple(
            build_prolongation(s, g) for s, g in zip(splits, graphs)
        )
        prol = Prolongation(blocks=blocks, components=tuple(comps))
        level.prolongation = prol
        coarse_op = triple_product(prol.matrix, level.operator, symmetric=True)
        lay = _coarse_layout(level.layout, mode, [s.n_coarse for s in splits])
        adj = None
        if level.layout.is_saddle:
            h = blocks[-1]
            adj = (h.T @ level.pressure_adjacency @ h).tocsr()
            adj.data[:] = 1.0
        level = Level(operator=coarse_op, layout=lay, pressure_adjacency=adj)
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


def write_hierarchy_csv(hier: Hierarchy, path: str) -> None:
    rows = hierarchy_summary(hier)
    cols = list(rows[0].keys())
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")
